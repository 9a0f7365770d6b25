//! Fourier–Motzkin elimination over the rationals, used as a fast
//! unsatisfiability pre-check for conjunctions of linear constraints.
//!
//! If the rational relaxation of an integer constraint system is infeasible
//! then the integer system is infeasible too, so a negative answer here lets
//! the solver skip the (complete but more expensive) Cooper-based check.
//!
//! The refutation explains itself. Constraints arrive in *groups* (one per
//! theory literal) and every row the elimination derives remembers which
//! groups fed it. A derived row is a positive combination of its sources, so
//! when a variable-free row is violated its source set is a Farkas
//! certificate: those groups alone are infeasible, whatever the others say.
//! [`refute`] returns that set with the verdict instead of leaving the
//! caller to rediscover it by re-running the elimination once per group.
//!
//! Rows are dense (variables are numbered once per call), coefficients are
//! divided by their gcd after every combination, and all arithmetic is
//! checked: an overflow ends the run with [`RationalFeasibility::TooLarge`]
//! rather than continuing on a wrapped or clamped row, because a wrong row
//! here becomes a wrong `Unsat`. For the same reason an input row built by
//! saturating [`LinExpr`] arithmetic that clamped is refused up front.

use crate::linear::LinExpr;

/// A single linear constraint `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The linear expression compared against zero.
    pub expr: LinExpr,
    /// Whether the comparison is strict (`< 0`) or non-strict (`<= 0`).
    pub strict: bool,
}

impl Constraint {
    /// `expr <= 0`
    pub fn le_zero(expr: LinExpr) -> Self {
        Constraint {
            expr,
            strict: false,
        }
    }

    /// `expr < 0`
    pub fn lt_zero(expr: LinExpr) -> Self {
        Constraint { expr, strict: true }
    }
}

/// The result of the rational feasibility pre-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RationalFeasibility {
    /// The rational relaxation has a solution (the integer problem may or may
    /// not have one).
    Feasible,
    /// The rational relaxation is infeasible, hence so is the integer problem.
    /// Carries the ascending indices of the groups that fed the violated row:
    /// their conjunction is infeasible on its own.
    Infeasible(Vec<usize>),
    /// The system grew beyond the configured limit, or a coefficient left
    /// `i64`; no conclusion.
    TooLarge,
}

/// Tries to refute the conjunction of every constraint in `groups` over the
/// rationals by Fourier–Motzkin elimination.
///
/// `max_rows` bounds the intermediate system size; exceeding it yields
/// [`RationalFeasibility::TooLarge`] (the caller then falls through to the
/// complete integer procedure), as does any arithmetic overflow.
pub fn refute(groups: &[&[Constraint]], max_rows: usize) -> RationalFeasibility {
    let Some(mut rows) = Rows::from_groups(groups) else {
        return RationalFeasibility::TooLarge;
    };
    loop {
        // Ground rows decide immediately or disappear.
        let mut live: Vec<usize> = Vec::with_capacity(rows.len());
        for r in 0..rows.len() {
            if rows.vars(r).iter().any(|&c| c != 0) {
                live.push(r);
                continue;
            }
            let v = rows.constant(r);
            let violated = if rows.strict[r] { v >= 0 } else { v > 0 };
            if violated {
                return RationalFeasibility::Infeasible(rows.source_groups(r));
            }
        }
        if live.is_empty() {
            return RationalFeasibility::Feasible;
        }
        if live.len() > max_rows {
            return RationalFeasibility::TooLarge;
        }
        let var = pick_variable(&rows, &live);
        match eliminate_variable(&rows, &live, var) {
            Some(next) => rows = next,
            None => return RationalFeasibility::TooLarge,
        }
    }
}

/// A system of dense rows `Σ coeffs[j]·xⱼ + constant ⋈ 0`, stored as one
/// matrix so an elimination step allocates per system, not per row.
struct Rows {
    /// Columns per row: one per variable, then the constant.
    width: usize,
    /// `u64` words per source bitset.
    words: usize,
    coeffs: Vec<i64>,
    strict: Vec<bool>,
    /// Per row, the set of input groups it is a positive combination of.
    sources: Vec<u64>,
}

impl Rows {
    fn with_shape(width: usize, words: usize) -> Rows {
        Rows {
            width,
            words,
            coeffs: Vec::new(),
            strict: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// Numbers the variables (in name order, so the elimination order does
    /// not depend on how the caller listed the groups) and densifies every
    /// constraint. `None` when the saturating [`LinExpr`] arithmetic that built
    /// a constraint clamped: its coefficients are then not the intended ones.
    fn from_groups(groups: &[&[Constraint]]) -> Option<Rows> {
        let mut names: Vec<&str> = groups
            .iter()
            .flat_map(|group| group.iter())
            .flat_map(|c| c.expr.terms().map(|(v, _)| v.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut rows = Rows::with_shape(names.len() + 1, groups.len().div_ceil(64));
        for (g, group) in groups.iter().enumerate() {
            for c in group.iter() {
                if c.expr.clamped() {
                    return None;
                }
                let start = rows.coeffs.len();
                rows.coeffs.resize(start + rows.width, 0);
                let row = &mut rows.coeffs[start..];
                for (v, coeff) in c.expr.terms() {
                    let j = names
                        .binary_search(&v.as_str())
                        .expect("every variable was numbered above");
                    row[j] = coeff;
                }
                row[names.len()] = c.expr.constant_part();
                normalize(row);
                rows.strict.push(c.strict);
                let sources = rows.sources.len();
                rows.sources.resize(sources + rows.words, 0);
                rows.sources[sources + g / 64] |= 1 << (g % 64);
            }
        }
        Some(rows)
    }

    fn len(&self) -> usize {
        self.strict.len()
    }

    fn row(&self, r: usize) -> &[i64] {
        &self.coeffs[r * self.width..(r + 1) * self.width]
    }

    /// The variable coefficients of row `r` (everything but the constant).
    fn vars(&self, r: usize) -> &[i64] {
        &self.row(r)[..self.width - 1]
    }

    fn constant(&self, r: usize) -> i64 {
        self.row(r)[self.width - 1]
    }

    fn sources(&self, r: usize) -> &[u64] {
        &self.sources[r * self.words..(r + 1) * self.words]
    }

    fn source_groups(&self, r: usize) -> Vec<usize> {
        let bits = self.sources(r);
        (0..bits.len() * 64)
            .filter(|g| bits[g / 64] >> (g % 64) & 1 == 1)
            .collect()
    }
}

/// Divides a row by the gcd of its entries (constant included), which keeps
/// the row equivalent over the rationals and its coefficients small.
fn normalize(row: &mut [i64]) {
    let mut g: u64 = 0;
    for &x in row.iter() {
        let (mut a, mut b) = (g, x.unsigned_abs());
        while b != 0 {
            (a, b) = (b, a % b);
        }
        g = a;
        if g == 1 {
            return;
        }
    }
    if g > 1 {
        // `g` divides every entry, so it fits `i64` unless an entry is
        // `i64::MIN` and all others are multiples of 2^63 — i.e. zero.
        let Ok(g) = i64::try_from(g) else { return };
        for x in row.iter_mut() {
            *x /= g;
        }
    }
}

/// Picks the variable whose elimination generates the fewest rows; ties go
/// to the first in name order.
fn pick_variable(rows: &Rows, live: &[usize]) -> usize {
    let nvars = rows.width - 1;
    let mut pos = vec![0usize; nvars];
    let mut neg = vec![0usize; nvars];
    for &r in live {
        for (j, &c) in rows.vars(r).iter().enumerate() {
            if c > 0 {
                pos[j] += 1;
            } else if c < 0 {
                neg[j] += 1;
            }
        }
    }
    (0..nvars)
        .filter(|&j| pos[j] + neg[j] > 0)
        .min_by_key(|&j| pos[j] * neg[j] + pos[j] + neg[j])
        .expect("a live row has a non-zero coefficient")
}

/// Eliminates column `var` from the live rows: rows that do not mention it
/// are kept, and every (upper bound, lower bound) pair is combined into one
/// row that inherits the sources of both. `None` on arithmetic overflow.
fn eliminate_variable(rows: &Rows, live: &[usize], var: usize) -> Option<Rows> {
    let mut next = Rows::with_shape(rows.width, rows.words);
    let mut uppers: Vec<usize> = Vec::new(); // coefficient of var > 0
    let mut lowers: Vec<usize> = Vec::new(); // coefficient of var < 0
    for &r in live {
        let coeff = rows.row(r)[var];
        if coeff > 0 {
            uppers.push(r);
        } else if coeff < 0 {
            lowers.push(r);
        } else {
            next.coeffs.extend_from_slice(rows.row(r));
            next.strict.push(rows.strict[r]);
            next.sources.extend_from_slice(rows.sources(r));
        }
    }
    for &up in &uppers {
        for &low in &lowers {
            let (up_row, low_row) = (rows.row(up), rows.row(low));
            let a = up_row[var]; // > 0
            let b = low_row[var].checked_neg()?; // > 0
            let start = next.coeffs.len();
            // b * up + a * low eliminates var.
            for (&u, &l) in up_row.iter().zip(low_row) {
                next.coeffs
                    .push(b.checked_mul(u)?.checked_add(a.checked_mul(l)?)?);
            }
            normalize(&mut next.coeffs[start..]);
            next.strict.push(rows.strict[up] || rows.strict[low]);
            next.sources.extend(
                rows.sources(up)
                    .iter()
                    .zip(rows.sources(low))
                    .map(|(x, y)| x | y),
            );
        }
    }
    Some(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Term;

    fn lin(t: Term) -> LinExpr {
        LinExpr::from_term(&t).expect("linear")
    }

    /// Refutes a flat list of constraints, one group each.
    fn refute_each(cs: &[Constraint], max_rows: usize) -> RationalFeasibility {
        let groups: Vec<&[Constraint]> = cs.iter().map(std::slice::from_ref).collect();
        refute(&groups, max_rows)
    }

    #[test]
    fn simple_feasible_system() {
        // x - 10 <= 0 && -x <= 0
        let cs = vec![
            Constraint::le_zero(lin(Term::var("x").sub(Term::int(10)))),
            Constraint::le_zero(lin(Term::var("x").neg())),
        ];
        assert_eq!(refute_each(&cs, 1000), RationalFeasibility::Feasible);
    }

    #[test]
    fn contradictory_bounds_are_infeasible() {
        // x - 1 <= 0 && 2 - x <= 0  (x <= 1 && x >= 2)
        let cs = vec![
            Constraint::le_zero(lin(Term::var("x").sub(Term::int(1)))),
            Constraint::le_zero(lin(Term::int(2).sub(Term::var("x")))),
        ];
        assert_eq!(
            refute_each(&cs, 1000),
            RationalFeasibility::Infeasible(vec![0, 1])
        );
    }

    #[test]
    fn strictness_matters() {
        // x <= 0 && -x <= 0 is feasible (x = 0), but x < 0 && -x <= 0 is not.
        let cs = vec![
            Constraint::le_zero(lin(Term::var("x"))),
            Constraint::le_zero(lin(Term::var("x").neg())),
        ];
        assert_eq!(refute_each(&cs, 1000), RationalFeasibility::Feasible);
        let cs = vec![
            Constraint::lt_zero(lin(Term::var("x"))),
            Constraint::le_zero(lin(Term::var("x").neg())),
        ];
        assert_eq!(
            refute_each(&cs, 1000),
            RationalFeasibility::Infeasible(vec![0, 1])
        );
    }

    #[test]
    fn multi_variable_chain() {
        // x <= y && y <= z && z <= x - 1 is infeasible.
        let cs = vec![
            Constraint::le_zero(lin(Term::var("x").sub(Term::var("y")))),
            Constraint::le_zero(lin(Term::var("y").sub(Term::var("z")))),
            Constraint::le_zero(lin(Term::var("z").sub(Term::var("x").sub(Term::int(1))))),
        ];
        assert_eq!(
            refute_each(&cs, 1000),
            RationalFeasibility::Infeasible(vec![0, 1, 2])
        );
        // Relaxing the last constraint makes it feasible.
        let cs = vec![
            Constraint::le_zero(lin(Term::var("x").sub(Term::var("y")))),
            Constraint::le_zero(lin(Term::var("y").sub(Term::var("z")))),
            Constraint::le_zero(lin(Term::var("z").sub(Term::var("x")))),
        ];
        assert_eq!(refute_each(&cs, 1000), RationalFeasibility::Feasible);
    }

    #[test]
    fn the_core_names_only_the_groups_that_fed_the_violated_row() {
        // Groups 0 and 3 bystand (y <= 5, z >= 0); groups 1 and 2 clash on x.
        let cs = vec![
            Constraint::le_zero(lin(Term::var("y").sub(Term::int(5)))),
            Constraint::le_zero(lin(Term::var("x").sub(Term::int(1)))),
            Constraint::le_zero(lin(Term::int(2).sub(Term::var("x")))),
            Constraint::le_zero(lin(Term::var("z").neg())),
        ];
        assert_eq!(
            refute_each(&cs, 1000),
            RationalFeasibility::Infeasible(vec![1, 2])
        );
        // A two-row group (an equality) is reported once, by group index.
        let eq = vec![
            Constraint::le_zero(lin(Term::var("x").sub(Term::int(3)))),
            Constraint::le_zero(lin(Term::int(3).sub(Term::var("x")))),
        ];
        let groups: Vec<&[Constraint]> = vec![&cs[0..1], &eq, &cs[1..2]];
        assert_eq!(
            refute(&groups, 1000),
            RationalFeasibility::Infeasible(vec![1, 2])
        );
    }

    #[test]
    fn source_sets_wider_than_one_word() {
        // 70 bystanders push the clashing pair into the second bitset word.
        let mut cs: Vec<Constraint> = (0..70)
            .map(|i| Constraint::le_zero(lin(Term::var(format!("v{i}")).sub(Term::int(i)))))
            .collect();
        cs.push(Constraint::le_zero(lin(Term::var("x").sub(Term::int(1)))));
        cs.push(Constraint::le_zero(lin(Term::int(2).sub(Term::var("x")))));
        assert_eq!(
            refute_each(&cs, 1000),
            RationalFeasibility::Infeasible(vec![70, 71])
        );
    }

    #[test]
    fn rational_relaxation_can_miss_integer_infeasibility() {
        // 1 <= 2x <= 1 has the rational solution x = 1/2 but no integer one;
        // the pre-check must (correctly) report Feasible — completeness for
        // integers is Cooper's job.
        let cs = vec![
            Constraint::le_zero(lin(Term::int(1).sub(Term::int(2).mul(Term::var("x"))))),
            Constraint::le_zero(lin(Term::int(2).mul(Term::var("x")).sub(Term::int(1)))),
        ];
        assert_eq!(refute_each(&cs, 1000), RationalFeasibility::Feasible);
    }

    #[test]
    fn size_limit_reports_too_large() {
        let mut cs = Vec::new();
        for i in 0..12 {
            // Build a dense system over 6 variables.
            let mut t = Term::int(1);
            for v in ["a", "b", "c", "d", "e", "f"] {
                let sign = if (i + v.len()) % 2 == 0 { 1 } else { -1 };
                t = t.add(Term::int(sign).mul(Term::var(v)));
            }
            cs.push(Constraint::le_zero(lin(t)));
        }
        // With an absurdly small limit the check refuses to conclude.
        assert_eq!(refute_each(&cs, 2), RationalFeasibility::TooLarge);
    }

    #[test]
    fn overflow_is_no_conclusion_not_a_clamped_row() {
        const BIG: i64 = 3_100_000_000_000_000_000;
        // x <= BIG*z && 3x >= (BIG+1)*z + BIG + 1 && z <= 1 holds at
        // x = 3e18, z = 1. Eliminating x needs 3*BIG, which does not fit,
        // and the rows share no factor to divide out first; a clamped
        // product would yield a row the inputs do not imply.
        let x = || Term::var("x");
        let cs = vec![
            Constraint::le_zero(lin(x().sub(Term::int(BIG).mul(Term::var("z"))))),
            Constraint::le_zero(lin(Term::int(BIG + 1)
                .mul(Term::var("z"))
                .add(Term::int(BIG + 1))
                .sub(Term::int(3).mul(x())))),
            Constraint::le_zero(lin(Term::var("z").sub(Term::int(1)))),
        ];
        assert_eq!(refute_each(&cs, 1000), RationalFeasibility::TooLarge);

        // An input row may already be clamped: y + z <= 2*HALF*x holds at
        // x = 1, y = z = HALF, but 2*HALF does not fit, and eliminating over
        // the clamped coefficient would "prove" HALF + HALF <= i64::MAX false.
        const HALF: i64 = 5_000_000_000_000_000_000;
        let half_x = || Term::int(HALF).mul(x());
        let bounds = [
            Constraint::le_zero(lin(Term::int(HALF).sub(Term::var("y")))),
            Constraint::le_zero(lin(Term::int(HALF).sub(Term::var("z")))),
            Constraint::le_zero(lin(x().sub(Term::int(1)))),
        ];
        let sum = Term::var("y").add(Term::var("z"));
        for clamped in [
            // The clamp lands on i64::MAX ...
            lin(half_x().add(half_x())),
            // ... and a later step moves it off the limit again.
            lin(half_x().add(half_x()).sub(Term::int(3).mul(x()))),
        ] {
            assert!(clamped.clamped());
            // Both signs: `sub` negates its right operand.
            for row in [
                lin(sum.clone()).sub(&clamped),
                clamped.scale(-1).add(&lin(sum.clone())),
            ] {
                let mut cs = vec![Constraint::le_zero(row)];
                cs.extend_from_slice(&bounds);
                assert_eq!(refute_each(&cs, 1000), RationalFeasibility::TooLarge);
            }
        }
        // A coefficient that merely equals the limit is an honest row.
        let cs = vec![Constraint::le_zero(lin(
            Term::int(i64::MAX).mul(Term::var("x"))
        ))];
        assert_eq!(refute_each(&cs, 1000), RationalFeasibility::Feasible);
    }
}

//! The propositional core of the lazy SMT loop: a DPLL SAT solver over CNF,
//! with incremental clause addition so the DPLL(T) driver can push blocking
//! clauses between calls.
//!
//! # The search
//!
//! Plain DPLL, in a fixed order, so a clause set always has the same model:
//!
//! 1. Propagate units to a fixpoint. A clause none of whose literals is true
//!    is a *conflict* when none of its literal occurrences is unassigned, and
//!    a *unit* when exactly one is — occurrences, so `[a, a]` is never a
//!    unit, and a tautology `[a, ¬a]` is satisfied by either value of `a`.
//! 2. At the fixpoint, branch on the first unassigned literal of the first
//!    clause that is not yet satisfied, clauses in insertion order and
//!    literals in the order they were given. Try `true` before `false`.
//! 3. On a conflict, backtrack chronologically: undo to the latest decision
//!    still at `true` and try `false` there.
//! 4. When every clause is satisfied, the model reads each variable that was
//!    never assigned as `false`.
//!
//! Unit propagation is confluent, so the order in which units are found does
//! not change the fixpoint, and with it neither the branch nor the model. The
//! unit tests hold every answer, model included, to a recursive solver that
//! rescans all clauses after each assignment, kept there as the reference.
//!
//! # Without allocation
//!
//! The clauses live back to back in one arena. A call to [`SatSolver::solve`]
//! rebuilds, in buffers kept across calls, a list of occurrences per variable
//! and two counters per clause: its unassigned occurrences and its true ones.
//! Assigning a variable walks its occurrences once, updating the counters and
//! noting every clause that became a unit or a conflict; backtracking walks
//! the assignment trail back and undoes exactly those updates. Decisions are
//! an explicit stack, not recursion, and each remembers the clause its
//! branch came from: every clause before it is satisfied for the whole
//! subtree, so the next branch is looked for from there on.
//!
//! # Why no clause learning
//!
//! Over one Table 1 pass the DPLL(T) loop makes about 1 400 calls, on 41
//! clauses and 18 variables on average, and almost every call finds its
//! model with a handful of decisions: the cost is constant factors, not
//! search. Learning, restarts or a different branching order would change
//! which model a satisfiable call returns — and with it which theory
//! conflicts the DPLL(T) loop meets, which lemmas it files and every exact
//! work counter the ledger pins — for no measurable saving at this size.
//! Learning would pay in a solver kept alive across the queries of one
//! monitor, which is a different design.

use std::fmt;

/// A propositional literal.
///
/// Encoded as a non-zero integer in DIMACS style: `+v` is the positive literal
/// of variable `v - 1`, `-v` the negative one.
pub type Lit = i32;

/// Builds the positive literal of variable index `var`.
pub fn pos(var: usize) -> Lit {
    (var as i32) + 1
}

/// Builds the negative literal of variable index `var`.
pub fn neg(var: usize) -> Lit {
    -((var as i32) + 1)
}

/// The variable index of a literal.
pub fn var_of(lit: Lit) -> usize {
    (lit.unsigned_abs() as usize) - 1
}

/// Whether the literal is positive.
pub fn is_pos(lit: Lit) -> bool {
    lit > 0
}

/// A CNF SAT solver supporting incremental clause addition.
#[derive(Debug, Clone, Default)]
pub struct SatSolver {
    num_vars: usize,
    /// Every clause's literals, back to back.
    lits: Vec<Lit>,
    /// Clause `c` is `lits[ends[c - 1]..ends[c]]` (from 0 for `c = 0`).
    ends: Vec<u32>,
    search: Search,
}

/// The result of a SAT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// A satisfying assignment, indexed by variable.
    Sat(Vec<bool>),
    /// The clause set is unsatisfiable.
    Unsat,
}

impl fmt::Display for SatOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatOutcome::Sat(_) => f.write_str("sat"),
            SatOutcome::Unsat => f.write_str("unsat"),
        }
    }
}

impl SatSolver {
    /// Creates a solver over `num_vars` propositional variables.
    pub fn new(num_vars: usize) -> Self {
        SatSolver {
            num_vars,
            ..SatSolver::default()
        }
    }

    /// Drops every clause and starts over with `num_vars` variables, keeping
    /// the buffers: a solver reused this way allocates nothing once they
    /// have grown to the largest clause set it met.
    pub fn clear(&mut self, num_vars: usize) {
        self.num_vars = num_vars;
        self.lits.clear();
        self.ends.clear();
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses currently loaded.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        self.num_vars += 1;
        self.num_vars - 1
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// An empty clause makes the problem trivially unsatisfiable. Literals
    /// referring to unknown variables grow the variable count.
    pub fn add_clause(&mut self, clause: &[Lit]) {
        for &lit in clause {
            self.num_vars = self.num_vars.max(var_of(lit) + 1);
        }
        self.lits.extend_from_slice(clause);
        self.ends
            .push(u32::try_from(self.lits.len()).expect("clause arena fits u32"));
    }

    /// The literals of clause `c`.
    fn clause(&self, c: usize) -> &[Lit] {
        let start = c.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.lits[start..self.ends[c] as usize]
    }

    /// Decides satisfiability of the current clause set (see the module
    /// documentation for which model a satisfiable set gets).
    pub fn solve(&mut self) -> SatOutcome {
        let mut search = std::mem::take(&mut self.search);
        let outcome = search.run(self);
        self.search = search;
        outcome
    }
}

/// One occurrence of a variable: the clause it is in and its sign there.
#[derive(Debug, Clone, Copy)]
struct Occurrence {
    clause: u32,
    positive: bool,
}

/// A decision on the stack: its variable, the trail length before it, the
/// clause its branch came from, and whether `false` is being tried.
#[derive(Debug, Clone, Copy)]
struct Decision {
    var: usize,
    trail_len: usize,
    clause: usize,
    flipped: bool,
}

/// The state of one [`SatSolver::solve`] call; the buffers outlive it.
#[derive(Debug, Clone, Default)]
struct Search {
    value: Vec<Option<bool>>,
    /// Per clause: occurrences whose variable is unassigned.
    free: Vec<u32>,
    /// Per clause: occurrences assigned true.
    satisfied: Vec<u32>,
    /// Variable `v`'s occurrences are `occurrences[occ_starts[v]..occ_starts[v + 1]]`.
    occ_starts: Vec<u32>,
    occurrences: Vec<Occurrence>,
    /// Assigned variables, in assignment order.
    trail: Vec<usize>,
    /// Clauses that became units (or conflicts) since propagation last ran.
    units: Vec<usize>,
    decisions: Vec<Decision>,
}

impl Search {
    /// Loads `cnf`'s clauses: nothing assigned, every counter at its start.
    fn reset(&mut self, cnf: &SatSolver) {
        let (vars, clauses) = (cnf.num_vars, cnf.num_clauses());
        self.value.clear();
        self.value.resize(vars, None);
        self.satisfied.clear();
        self.satisfied.resize(clauses, 0);
        self.free.clear();
        self.free
            .extend((0..clauses).map(|c| cnf.clause(c).len() as u32));
        // Occurrence lists by counting sort: count each variable's
        // occurrences, turn the counts into starts, then fill in clause
        // order, each start moving on to its variable's end.
        self.occ_starts.clear();
        self.occ_starts.resize(vars + 1, 0);
        for &lit in &cnf.lits {
            self.occ_starts[var_of(lit) + 1] += 1;
        }
        for v in 0..vars {
            self.occ_starts[v + 1] += self.occ_starts[v];
        }
        let placeholder = Occurrence {
            clause: 0,
            positive: false,
        };
        self.occurrences.clear();
        self.occurrences.resize(cnf.lits.len(), placeholder);
        for c in 0..clauses {
            for &lit in cnf.clause(c) {
                let slot = &mut self.occ_starts[var_of(lit)];
                self.occurrences[*slot as usize] = Occurrence {
                    clause: c as u32,
                    positive: is_pos(lit),
                };
                *slot += 1;
            }
        }
        // Each entry now holds the next variable's start.
        self.occ_starts.pop();
        self.occ_starts.insert(0, 0);
        self.trail.clear();
        self.units.clear();
        self.decisions.clear();
        self.units
            .extend((0..clauses).filter(|&c| self.free[c] <= 1));
    }

    fn occurrences_of(&self, v: usize) -> std::ops::Range<usize> {
        self.occ_starts[v] as usize..self.occ_starts[v + 1] as usize
    }

    /// Assigns `v`, updating the counters of every clause it occurs in.
    /// Returns `false` when some clause is left with no true and no
    /// unassigned occurrence.
    fn assign(&mut self, v: usize, value: bool) -> bool {
        self.value[v] = Some(value);
        self.trail.push(v);
        let mut consistent = true;
        for k in self.occurrences_of(v) {
            let occurrence = self.occurrences[k];
            let c = occurrence.clause as usize;
            self.free[c] -= 1;
            if occurrence.positive == value {
                self.satisfied[c] += 1;
            } else if self.satisfied[c] == 0 {
                match self.free[c] {
                    0 => consistent = false,
                    1 => self.units.push(c),
                    _ => {}
                }
            }
        }
        consistent
    }

    /// Undoes every assignment made after the trail had `len` entries.
    fn backtrack_to(&mut self, len: usize) {
        while self.trail.len() > len {
            let v = self.trail.pop().expect("trail longer than len");
            let value = self.value[v]
                .take()
                .expect("trail holds assigned variables");
            for k in self.occurrences_of(v) {
                let occurrence = self.occurrences[k];
                let c = occurrence.clause as usize;
                self.free[c] += 1;
                if occurrence.positive == value {
                    self.satisfied[c] -= 1;
                }
            }
        }
        self.units.clear();
    }

    /// Propagates the pending units to a fixpoint; `false` on a conflict.
    fn propagate(&mut self, cnf: &SatSolver) -> bool {
        while let Some(c) = self.units.pop() {
            if self.satisfied[c] > 0 {
                continue;
            }
            if self.free[c] == 0 {
                return false;
            }
            let unit = cnf
                .clause(c)
                .iter()
                .copied()
                .find(|&lit| self.value[var_of(lit)].is_none())
                .expect("a unit clause has an unassigned literal");
            if !self.assign(var_of(unit), is_pos(unit)) {
                return false;
            }
        }
        true
    }

    /// The first clause from `from` on that is not satisfied, and the
    /// variable of its first unassigned literal.
    fn branch(&self, cnf: &SatSolver, from: usize) -> Option<(usize, usize)> {
        (from..cnf.num_clauses())
            .filter(|&c| self.satisfied[c] == 0)
            .find_map(|c| {
                cnf.clause(c)
                    .iter()
                    .map(|&lit| var_of(lit))
                    .find(|&v| self.value[v].is_none())
                    .map(|v| (c, v))
            })
    }

    fn run(&mut self, cnf: &SatSolver) -> SatOutcome {
        self.reset(cnf);
        let mut consistent = true;
        loop {
            consistent = consistent && self.propagate(cnf);
            if !consistent {
                // Chronological backtracking to the latest untried `false`.
                loop {
                    let Some(decision) = self.decisions.last_mut() else {
                        return SatOutcome::Unsat;
                    };
                    let (var, trail_len, flipped) =
                        (decision.var, decision.trail_len, decision.flipped);
                    decision.flipped = true;
                    self.backtrack_to(trail_len);
                    if !flipped {
                        consistent = self.assign(var, false);
                        break;
                    }
                    self.decisions.pop();
                }
                continue;
            }
            let from = self.decisions.last().map_or(0, |d| d.clause);
            let Some((clause, var)) = self.branch(cnf, from) else {
                return SatOutcome::Sat(self.value.iter().map(|&v| v == Some(true)).collect());
            };
            self.decisions.push(Decision {
                var,
                trail_len: self.trail.len(),
                clause,
                flipped: false,
            });
            consistent = self.assign(var, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Lcg;

    /// The recursive DPLL this module replaced, kept as the oracle for the
    /// iterative one: it rescans every clause after every assignment and
    /// allocates per call, and defines the model each clause set must get.
    /// `first` is the value a branch tries first — `true` in the real
    /// search; the sabotage test flips it.
    struct Recursive {
        num_vars: usize,
        clauses: Vec<Vec<Lit>>,
        first: bool,
    }

    enum Propagation {
        Conflict,
        Assigned(usize),
        Fixpoint,
    }

    impl Recursive {
        fn new(num_vars: usize, first: bool) -> Self {
            Recursive {
                num_vars,
                clauses: Vec::new(),
                first,
            }
        }

        fn add_clause(&mut self, clause: &[Lit]) {
            for &lit in clause {
                self.num_vars = self.num_vars.max(var_of(lit) + 1);
            }
            self.clauses.push(clause.to_vec());
        }

        fn solve(&self) -> SatOutcome {
            let mut assignment: Vec<Option<bool>> = vec![None; self.num_vars];
            if self.dpll(&mut assignment) {
                SatOutcome::Sat(assignment.into_iter().map(|a| a.unwrap_or(false)).collect())
            } else {
                SatOutcome::Unsat
            }
        }

        fn dpll(&self, assignment: &mut Vec<Option<bool>>) -> bool {
            let mut trail: Vec<usize> = Vec::new();
            loop {
                match self.propagate_once(assignment) {
                    Propagation::Conflict => {
                        for v in trail {
                            assignment[v] = None;
                        }
                        return false;
                    }
                    Propagation::Assigned(v) => trail.push(v),
                    Propagation::Fixpoint => break,
                }
            }
            let Some(var) = self.pick_branch_variable(assignment) else {
                if self.all_clauses_satisfied(assignment) {
                    return true;
                }
                for v in trail {
                    assignment[v] = None;
                }
                return false;
            };
            for value in [self.first, !self.first] {
                assignment[var] = Some(value);
                if self.dpll(assignment) {
                    return true;
                }
                assignment[var] = None;
            }
            for v in trail {
                assignment[v] = None;
            }
            false
        }

        fn propagate_once(&self, assignment: &mut [Option<bool>]) -> Propagation {
            for clause in &self.clauses {
                let mut unassigned: Option<Lit> = None;
                let mut unassigned_count = 0;
                let mut satisfied = false;
                for &lit in clause {
                    match assignment[var_of(lit)] {
                        Some(value) => {
                            if value == is_pos(lit) {
                                satisfied = true;
                                break;
                            }
                        }
                        None => {
                            unassigned = Some(lit);
                            unassigned_count += 1;
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned_count {
                    0 => return Propagation::Conflict,
                    1 => {
                        let lit = unassigned.expect("count is one");
                        let v = var_of(lit);
                        assignment[v] = Some(is_pos(lit));
                        return Propagation::Assigned(v);
                    }
                    _ => {}
                }
            }
            Propagation::Fixpoint
        }

        fn pick_branch_variable(&self, assignment: &[Option<bool>]) -> Option<usize> {
            for clause in &self.clauses {
                let satisfied = clause
                    .iter()
                    .any(|&lit| assignment[var_of(lit)] == Some(is_pos(lit)));
                if satisfied {
                    continue;
                }
                for &lit in clause {
                    if assignment[var_of(lit)].is_none() {
                        return Some(var_of(lit));
                    }
                }
            }
            None
        }

        fn all_clauses_satisfied(&self, assignment: &[Option<bool>]) -> bool {
            self.clauses.iter().all(|clause| {
                clause
                    .iter()
                    .any(|&lit| assignment[var_of(lit)] == Some(is_pos(lit)))
            })
        }
    }

    fn solved(clauses: &[&[Lit]], num_vars: usize) -> SatOutcome {
        let mut solver = SatSolver::new(num_vars);
        for clause in clauses {
            solver.add_clause(clause);
        }
        solver.solve()
    }

    #[test]
    fn empty_problem_is_sat() {
        assert_eq!(SatSolver::new(0).solve(), SatOutcome::Sat(vec![]));
    }

    #[test]
    fn single_unit_clause() {
        assert_eq!(solved(&[&[pos(0)]], 1), SatOutcome::Sat(vec![true]));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        assert_eq!(solved(&[&[pos(0)], &[neg(0)]], 1), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        assert_eq!(solved(&[&[]], 1), SatOutcome::Unsat);
    }

    #[test]
    fn three_variable_instance() {
        // (a || b) && (!a || c) && (!b || c) && !c  is unsat.
        let base: [&[Lit]; 3] = [&[pos(0), pos(1)], &[neg(0), pos(2)], &[neg(1), pos(2)]];
        let not_c = [neg(2)];
        let with_not_c = [base[0], base[1], base[2], &not_c];
        assert_eq!(solved(&with_not_c, 3), SatOutcome::Unsat);
        // Dropping the last clause makes it satisfiable: a is tried first.
        assert_eq!(solved(&base, 3), SatOutcome::Sat(vec![true, false, true]));
    }

    #[test]
    fn incremental_blocking_clauses() {
        // Enumerate all four models of two unconstrained variables by blocking.
        let mut solver = SatSolver::new(2);
        solver.add_clause(&[pos(0), neg(0)]);
        let mut models = Vec::new();
        while let SatOutcome::Sat(model) = solver.solve() {
            let blocking: Vec<Lit> = model
                .iter()
                .enumerate()
                .map(|(v, &b)| if b { neg(v) } else { pos(v) })
                .collect();
            models.push(model);
            solver.add_clause(&blocking);
        }
        assert_eq!(models.len(), 4);
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole() {
        // p1h1, p2h1, not both: unsat when both pigeons must be placed.
        let clauses: [&[Lit]; 3] = [&[pos(0)], &[pos(1)], &[neg(0), neg(1)]];
        assert_eq!(solved(&clauses, 2), SatOutcome::Unsat);
    }

    #[test]
    fn a_repeated_literal_is_not_a_unit() {
        // [!a, !a] counts two unassigned occurrences, so it is met only as a
        // branch, after x has been decided on: x = true, not the x = false
        // that propagating !a (and with it b) first would leave.
        let clauses: [&[Lit]; 3] = [&[pos(2), pos(1)], &[neg(0), neg(0)], &[pos(0), pos(1)]];
        assert_eq!(
            solved(&clauses, 3),
            SatOutcome::Sat(vec![false, true, true])
        );
    }

    /// A random clause over `vars` variables: empty, a unit, or up to four
    /// literals, with repeats and complementary pairs allowed.
    fn random_clause(rng: &mut Lcg, vars: usize) -> Vec<Lit> {
        let len = match rng.below(20) {
            0 => 0,
            1..=4 => 1,
            _ => 2 + rng.index(3),
        };
        let mut clause: Vec<Lit> = (0..len)
            .map(|_| {
                let v = rng.index(vars);
                if rng.below(2) == 0 {
                    pos(v)
                } else {
                    neg(v)
                }
            })
            .collect();
        match rng.below(8) {
            0 if !clause.is_empty() => clause.push(clause[0]),
            1 if !clause.is_empty() => clause.push(-clause[0]),
            _ => {}
        }
        clause
    }

    /// Runs seeded random CNFs through this solver and `reference`, with
    /// blocking clauses of each model added between calls as the DPLL(T)
    /// loop adds them. Returns the first disagreement; panics if a model
    /// leaves a clause false.
    fn compare_with(first: bool, cases: usize) -> Result<usize, String> {
        let mut rng = Lcg::new(0x5A7_0DD5);
        let mut sat_answers = 0;
        for case in 0..cases {
            let vars = 1 + rng.index(12);
            let mut solver = SatSolver::new(vars);
            let mut reference = Recursive::new(vars, first);
            for _ in 0..rng.index(3 * vars + 4) {
                let clause = random_clause(&mut rng, vars);
                solver.add_clause(&clause);
                reference.add_clause(&clause);
            }
            for call in 0..4 {
                let outcome = solver.solve();
                let expected = reference.solve();
                if outcome != expected {
                    return Err(format!(
                        "case {case}, call {call}: {outcome:?} where the reference gives \
                         {expected:?} on {:?}",
                        reference.clauses
                    ));
                }
                let SatOutcome::Sat(model) = outcome else {
                    break;
                };
                sat_answers += 1;
                for clause in &reference.clauses {
                    assert!(
                        clause.iter().any(|&l| model[var_of(l)] == is_pos(l)),
                        "case {case}: model {model:?} leaves {clause:?} false"
                    );
                }
                // Block this model on a random subset of its variables, as a
                // theory conflict blocks the literals it names.
                let blocking: Vec<Lit> = (0..model.len())
                    .filter(|_| rng.below(3) > 0)
                    .map(|v| if model[v] { neg(v) } else { pos(v) })
                    .collect();
                solver.add_clause(&blocking);
                reference.add_clause(&blocking);
            }
        }
        Ok(sat_answers)
    }

    #[test]
    fn finds_the_model_the_recursive_solver_finds() {
        let sat_answers = compare_with(true, 3000).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            sat_answers > 3000,
            "generator is lopsided: {sat_answers} models"
        );
    }

    #[test]
    fn a_solver_branching_false_first_fails_the_comparison() {
        // Sabotage self-test: the comparison must see a change of branching
        // order, which keeps every verdict and changes models.
        let caught = compare_with(false, 3000).expect_err("false-first branching went unseen");
        assert!(caught.contains("where the reference gives"), "{caught}");
    }
}

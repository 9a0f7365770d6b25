//! Concrete reachable states of a monitor, and the invariant candidates they
//! refute before the solver is asked about them.
//!
//! Algorithm 2 keeps a candidate only if it is in the greatest inductive
//! subset of the candidates, and every member of that subset holds on every
//! state the monitor can reach. So a candidate that some reachable state
//! falsifies can be dropped without a proof, the way Daikon filters its
//! dynamic invariants (Ernst et al., TSE 2001), and the fixpoint's answer
//! stays the same. Most candidates go this way: on the Table 1 suite, 275 of
//! 322.
//!
//! [`ReachableStates::walk`] reaches the states by running the compiled
//! monitor ([`Program`]) — the code the engines and the explorer execute:
//!
//! * the constructor runs on the first [`CTOR_POINTS`] points of a grid
//!   (every int parameter in [`CTOR_GRID`], every bool both ways) that
//!   satisfy `requires`;
//! * from each, [`WALKS`] seeded walks make [`CALLS_PER_WALK`] whole method
//!   calls each, with arguments in [`ARGS`];
//! * a CCR fires only when its guard holds, and the shared state after every
//!   CCR is recorded; a call whose next guard is false is abandoned (its
//!   thread stays blocked), a runtime error or a value beyond ±[`BOUND`]
//!   ends the walk.
//!
//! Every choice is a constant, so the states — and the analysis answers —
//! do not depend on the thread count or the run.
//!
//! # Which candidates a state may refute
//!
//! A state binds the fields and constructor parameters. The analysis treats
//! any other name it never assigns — one that no guard, body or parameter
//! list mentions, such as the `id!other` copy of a thread-local — as a
//! universally quantified constant, so an invariant that mentions it holds
//! for each of its values; [`ReachableStates::refutes`] tries each of a few
//! ([`ARGS`], or both booleans). A candidate that mentions a method parameter
//! or a local is left to the solver.

use expresso_logic::{
    Env, FormulaId, FormulaNode, FxHasher, Interner, Lcg, TermId, TermNode, Valuation,
};
use expresso_monitor_lang::{
    initial_state, Frame, Interpreter, Monitor, Program, Slot, Type, VarTable,
};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::ops::RangeInclusive;

/// Constructor argument points walked from.
const CTOR_POINTS: usize = 3;
/// Values of each int constructor parameter on the grid.
const CTOR_GRID: RangeInclusive<i64> = 0..=4;
/// Grid points tried for `requires` before giving up on more.
const GRID_LIMIT: usize = 256;
/// Walks per constructor point.
const WALKS: usize = 4;
/// Method calls per walk.
const CALLS_PER_WALK: usize = 12;
/// Values of int method arguments (and of unassigned names, see the module
/// docs).
const ARGS: RangeInclusive<i64> = -1..=3;
/// A value beyond `±BOUND` ends its walk: the analysis reasons over
/// unbounded integers, the program over wrapping `i64`s, and the two agree
/// only while nothing comes near overflow.
const BOUND: u64 = 1 << 40;
const SEED: u64 = 0x5EED_1A7E;

/// The shared states the walks of one monitor reached. See the module docs.
#[doc(hidden)]
#[derive(Debug)]
pub struct ReachableStates {
    program: Program,
    /// Number of shared scalars, the head of every state.
    scalars: usize,
    /// Distinct states, sorted. Each is its frame flattened: the scalars in
    /// layout order, then every array as its length and its elements.
    states: Vec<Vec<i64>>,
}

/// Where a candidate's variable gets its value.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// An index into the state's scalars.
    Shared(usize),
    /// An index into the assignment of unassigned names.
    Free(usize),
}

/// One state and one assignment of the unassigned names.
struct Point<'a> {
    reached: &'a ReachableStates,
    vars: &'a [(&'a str, Source)],
    state: &'a [i64],
    free: &'a [i64],
}

impl Point<'_> {
    fn value(&self, var: &str) -> Option<i64> {
        let &(_, source) = self.vars.iter().find(|(name, _)| *name == var)?;
        Some(match source {
            Source::Shared(slot) => self.state[slot],
            Source::Free(k) => self.free[k],
        })
    }
}

impl Env for Point<'_> {
    fn int(&self, var: &str) -> Option<i64> {
        self.value(var)
    }

    fn boolean(&self, var: &str) -> Option<bool> {
        self.value(var).map(|v| v != 0)
    }

    fn select(&self, array: &str, index: i64) -> Option<i64> {
        let Some(Slot::Array(slot)) = self.reached.program.layout().slot(array) else {
            return None;
        };
        let values = self.reached.array(self.state, slot);
        values.get(usize::try_from(index).ok()?).copied()
    }
}

impl ReachableStates {
    /// Walks `monitor` (see the module docs), which `table` is the checked
    /// symbol table of.
    pub fn walk(monitor: &Monitor, table: &VarTable) -> ReachableStates {
        let program = Program::checked(monitor, table.clone());
        let layout = program.layout();
        let mut seen: HashSet<Vec<i64>, BuildHasherDefault<FxHasher>> = HashSet::default();
        let mut flat = Vec::new();
        let mut record = |frame: &Frame| {
            flatten(frame, &mut flat);
            if !seen.contains(flat.as_slice()) {
                seen.insert(flat.clone());
            }
        };
        let mut rng = Lcg::new(SEED);
        let unbound = layout.bind(&Valuation::new()).expect("binds nothing");
        let mut locals = unbound.clone();
        let mut slots = unbound.slots().to_vec();
        let params: Vec<Vec<(usize, bool)>> = monitor
            .methods
            .iter()
            .map(|m| {
                m.params
                    .iter()
                    .filter_map(|p| match layout.slot(&p.name) {
                        Some(Slot::Local(slot)) => Some((slot as usize, p.ty == Type::Bool)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let starts = initial_frames(monitor, &program);
        for start in &starts {
            record(start);
            for _ in 0..WALKS {
                let mut frame = start.clone();
                'calls: for _ in 0..CALLS_PER_WALK {
                    if monitor.methods.is_empty() {
                        break;
                    }
                    let m = rng.index(monitor.methods.len());
                    slots.copy_from_slice(unbound.slots());
                    for &(slot, is_bool) in &params[m] {
                        slots[slot] = Some(if is_bool {
                            rng.below(2) as i64
                        } else {
                            ARGS.start() + rng.below(ARGS.count() as u64) as i64
                        });
                    }
                    locals.restore(&slots);
                    for &ccr in &monitor.methods[m].ccrs {
                        match program.eval(program.guard(ccr), &frame, &locals) {
                            Ok(true) => {}
                            Ok(false) => continue 'calls,
                            Err(_) => break 'calls,
                        }
                        if program.exec(ccr, &mut frame, &mut locals).is_err()
                            || !within_bound(&frame)
                        {
                            break 'calls;
                        }
                        record(&frame);
                    }
                }
            }
        }
        let mut states: Vec<Vec<i64>> = seen.into_iter().collect();
        states.sort_unstable();
        let scalars = starts.first().map_or(0, |f| f.scalars().len());
        ReachableStates {
            program,
            scalars,
            states,
        }
    }

    /// The states as named valuations of the shared variables.
    pub fn valuations(&self) -> Vec<Valuation> {
        let layout = self.program.layout();
        let table = self.program.table();
        self.states
            .iter()
            .map(|state| {
                let mut valuation = Valuation::new();
                for (name, info) in table.iter() {
                    match layout.slot(name) {
                        Some(Slot::Shared(slot)) if info.ty == Type::Bool => {
                            valuation.set_bool(name.clone(), state[slot as usize] != 0)
                        }
                        Some(Slot::Shared(slot)) => {
                            valuation.set_int(name.clone(), state[slot as usize])
                        }
                        Some(Slot::Array(slot)) => {
                            valuation.set_array(name.clone(), self.array(state, slot).to_vec())
                        }
                        _ => continue,
                    };
                }
                valuation
            })
            .collect()
    }

    /// The elements of array `slot` in `state`.
    fn array<'s>(&self, state: &'s [i64], slot: u32) -> &'s [i64] {
        let mut at = self.scalars;
        for _ in 0..slot {
            at += 1 + state[at] as usize;
        }
        &state[at + 1..][..state[at] as usize]
    }

    /// Whether some state falsifies `candidate`, which must then be outside
    /// every inductive invariant. Only a candidate over fields, constructor
    /// parameters and unassigned names can be refuted (see the module docs);
    /// for any other, and wherever evaluation is unknown, the answer is
    /// `false` and the solver decides.
    pub fn refutes(&self, interner: &Interner, candidate: FormulaId) -> bool {
        let mut vars = Vec::new();
        let mut domains = Vec::new();
        if !self.resolve(interner, candidate, &mut vars, &mut domains) {
            return false;
        }
        let mut free: Vec<i64> = domains.iter().map(|d| *d.start()).collect();
        loop {
            let falsified = self.states.iter().any(|state| {
                let point = Point {
                    reached: self,
                    vars: &vars,
                    state,
                    free: &free,
                };
                interner.eval(candidate, &point) == Some(false)
            });
            if falsified {
                return true;
            }
            // The next assignment of the unassigned names, odometer order.
            let mut k = 0;
            loop {
                let Some(domain) = domains.get(k) else {
                    return false;
                };
                if free[k] < *domain.end() {
                    free[k] += 1;
                    break;
                }
                free[k] = *domain.start();
                k += 1;
            }
        }
    }

    /// Finds where each variable of `f` gets its value, and the values each
    /// unassigned name ranges over; `false` if `f` reads a method parameter
    /// or a local, or binds a variable.
    fn resolve<'a>(
        &self,
        interner: &'a Interner,
        f: FormulaId,
        vars: &mut Vec<(&'a str, Source)>,
        domains: &mut Vec<RangeInclusive<i64>>,
    ) -> bool {
        match interner.node_ref(f) {
            FormulaNode::True | FormulaNode::False => true,
            FormulaNode::BoolVar(b) => self.bind(b, 0..=1, vars, domains),
            FormulaNode::Cmp(_, lhs, rhs) => {
                self.resolve_term(interner, *lhs, vars, domains)
                    && self.resolve_term(interner, *rhs, vars, domains)
            }
            FormulaNode::Divides(_, t) => self.resolve_term(interner, *t, vars, domains),
            FormulaNode::Not(inner) => self.resolve(interner, *inner, vars, domains),
            FormulaNode::And(parts) | FormulaNode::Or(parts) => parts
                .iter()
                .all(|&p| self.resolve(interner, p, vars, domains)),
            FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => {
                self.resolve(interner, *a, vars, domains)
                    && self.resolve(interner, *b, vars, domains)
            }
            FormulaNode::Quant(..) => false,
        }
    }

    fn resolve_term<'a>(
        &self,
        interner: &'a Interner,
        t: TermId,
        vars: &mut Vec<(&'a str, Source)>,
        domains: &mut Vec<RangeInclusive<i64>>,
    ) -> bool {
        match interner.term_node_ref(t) {
            TermNode::Int(_) => true,
            TermNode::Var(v) => self.bind(v, ARGS, vars, domains),
            TermNode::Add(parts) => parts
                .iter()
                .all(|&p| self.resolve_term(interner, p, vars, domains)),
            TermNode::Sub(a, b) | TermNode::Mul(a, b) => {
                self.resolve_term(interner, *a, vars, domains)
                    && self.resolve_term(interner, *b, vars, domains)
            }
            TermNode::Neg(a) => self.resolve_term(interner, *a, vars, domains),
            TermNode::Select(_, index) => self.resolve_term(interner, *index, vars, domains),
        }
    }

    /// Records where `var` gets its value: a shared scalar's slot, or the
    /// next unassigned name ranging over `domain`.
    fn bind<'a>(
        &self,
        var: &'a str,
        domain: RangeInclusive<i64>,
        vars: &mut Vec<(&'a str, Source)>,
        domains: &mut Vec<RangeInclusive<i64>>,
    ) -> bool {
        if vars.iter().any(|(name, _)| *name == var) {
            return true;
        }
        let source = match self.program.layout().slot(var) {
            Some(Slot::Shared(slot)) => Source::Shared(slot as usize),
            None if self.program.table().info(var).is_none() => {
                domains.push(domain);
                Source::Free(domains.len() - 1)
            }
            _ => return false,
        };
        vars.push((var, source));
        true
    }
}

/// `frame` as a state of [`ReachableStates`], into `out`.
fn flatten(frame: &Frame, out: &mut Vec<i64>) {
    out.clear();
    out.extend_from_slice(frame.scalars());
    for array in frame.arrays() {
        out.push(array.len() as i64);
        out.extend_from_slice(array);
    }
}

fn within_bound(frame: &Frame) -> bool {
    let arrays = frame.arrays().iter().flatten();
    frame
        .scalars()
        .iter()
        .chain(arrays)
        .all(|v| v.unsigned_abs() <= BOUND)
}

/// The constructor's states on the first [`CTOR_POINTS`] grid points that
/// satisfy `requires`.
fn initial_frames(monitor: &Monitor, program: &Program) -> Vec<Frame> {
    let table = program.table();
    let interp = Interpreter::new(table);
    let domains: Vec<RangeInclusive<i64>> = monitor
        .params
        .iter()
        .map(|p| if p.ty == Type::Bool { 0..=1 } else { CTOR_GRID })
        .collect();
    let mut point: Vec<i64> = domains.iter().map(|d| *d.start()).collect();
    let mut frames = Vec::new();
    for _ in 0..GRID_LIMIT {
        let mut args = Valuation::new();
        for (p, &v) in monitor.params.iter().zip(&point) {
            match p.ty {
                Type::Bool => args.set_bool(p.name.clone(), v != 0),
                _ => args.set_int(p.name.clone(), v),
            };
        }
        let admitted = monitor
            .requires
            .as_ref()
            .map_or(Ok(true), |r| interp.eval_bool(r, &args));
        if admitted == Ok(true) {
            let frame = initial_state(monitor, table, &args)
                .ok()
                .and_then(|state| program.layout().frame(&state).ok());
            if let Some(frame) = frame.filter(within_bound) {
                frames.push(frame);
                if frames.len() == CTOR_POINTS {
                    break;
                }
            }
        }
        // The next grid point, the last parameter fastest.
        let Some(k) = (0..point.len())
            .rev()
            .find(|&k| point[k] < *domains[k].end())
        else {
            break;
        };
        point[k] += 1;
        for (later, domain) in point.iter_mut().zip(&domains).skip(k + 1) {
            *later = *domain.start();
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::{Formula, Term};
    use expresso_monitor_lang::{check_monitor, parse_monitor};

    fn pool() -> ReachableStates {
        let monitor = parse_monitor(
            r#"
            monitor Pool(int capacity) requires capacity > 0 {
                int count = 0;
                atomic void put(int item) {
                    waituntil (count < capacity) { int next = count + 1; count = next; }
                }
                atomic void take() { waituntil (count > 0) { count--; } }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&monitor).unwrap();
        ReachableStates::walk(&monitor, &table)
    }

    fn count() -> Term {
        Term::var("count")
    }

    #[test]
    fn walks_reach_only_what_the_guards_allow() {
        let states = pool().valuations();
        assert!(states.len() > 3, "{} states", states.len());
        for state in states {
            let (count, capacity) = (state.int("count").unwrap(), state.int("capacity").unwrap());
            assert!((0..=capacity).contains(&count), "{state:?}");
            assert!((1..=3).contains(&capacity), "{state:?}");
        }
    }

    /// What may be refuted: a candidate over fields, constructor parameters
    /// and names the monitor never mentions. What may not: one that reads a
    /// method parameter, a local or a bound variable, however false it is.
    #[test]
    fn only_candidates_over_shared_and_unassigned_names_are_refuted() {
        let states = pool();
        let arena = Interner::new();
        let refutes = |f: Formula| states.refutes(&arena, arena.intern(&f));
        // A field, a constructor parameter, an unassigned int and bool.
        assert!(refutes(count().eq(Term::int(0))));
        assert!(refutes(Term::var("capacity").eq(Term::int(1))));
        assert!(refutes(count().ne(Term::var("id!other"))));
        assert!(refutes(Formula::bool_var("flag!other")));
        // The same kinds of names, in candidates no walk falsifies.
        assert!(!refutes(count().ge(Term::int(0))));
        assert!(!refutes(count().le(Term::var("capacity"))));
        assert!(!refutes(Formula::or(vec![
            count().ge(Term::var("id!other")),
            Term::var("id!other").gt(Term::int(0)),
        ])));
        // A method parameter, a local, a bound variable: the solver decides.
        assert!(!refutes(Term::var("item").gt(Term::int(100))));
        assert!(!refutes(Formula::and(vec![
            count().lt(Term::int(0)),
            Term::var("item").gt(Term::int(5)),
        ])));
        assert!(!refutes(Term::var("next").lt(Term::int(0))));
        assert!(!refutes(Formula::forall(
            vec!["k".into()],
            count().lt(Term::var("k"))
        )));
    }
}

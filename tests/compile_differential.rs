//! Differential oracle for `monitor_lang::compile`: the compiled
//! slot-indexed programs the concurrent engines execute against the
//! tree-walking `Interpreter` the trace semantics keep.
//!
//! For the 16 suite monitors, the notification predicates of their
//! synthesized explicit monitors, 64 `corpusgen` variants and a handful of
//! monitors written to fault, over seeded random (state, locals) pairs:
//! every guard and predicate has the same value, every body leaves the same
//! shared state and locals, and every error is the same variant with the
//! same payload — after which the frame is exactly what it was before.

use expresso_repro::core::Expresso;
use expresso_repro::logic::{Lcg, Valuation};
use expresso_repro::monitor_lang::{
    parse_monitor, BinOp, CcrId, Expr, Interpreter, Monitor, Program, RuntimeError, Type, UnOp,
    LOOP_BUDGET,
};
use expresso_repro::suite::{all, generate, CorpusSpec};

/// Random (state, locals) pairs per monitor.
const PAIRS: usize = 200;

/// Mostly small values, so guards flip and indices land near array bounds;
/// now and then an extreme, so arithmetic wraps.
fn random_int(rng: &mut Lcg) -> i64 {
    match rng.below(16) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1 - rng.below(4) as i64,
        _ => rng.below(10) as i64,
    }
}

/// A random state binding every shared variable (arrays of random length, so
/// reads and writes run off both ends) and random locals binding most
/// thread-locals — the rest stay unbound.
fn random_pair(program: &Program, rng: &mut Lcg) -> (Valuation, Valuation) {
    let mut entries: Vec<_> = program.table().iter().collect();
    entries.sort_by_key(|(name, _)| *name);
    let mut state = Valuation::new();
    let mut locals = Valuation::new();
    for (name, info) in entries {
        let shared = program.table().is_shared(name);
        if !shared && rng.below(8) == 0 {
            continue;
        }
        let target = if shared { &mut state } else { &mut locals };
        match info.ty {
            Type::Int => target.set_int(name.clone(), random_int(rng)),
            Type::Bool => target.set_bool(name.clone(), rng.below(2) == 0),
            Type::IntArray => {
                let values = (0..rng.below(5)).map(|_| random_int(rng)).collect();
                target.set_array(name.clone(), values)
            }
        };
    }
    (state, locals)
}

fn merged(state: &Valuation, locals: &Valuation) -> Valuation {
    let mut view = state.clone();
    view.extend_with(locals);
    view
}

/// Holds every guard, every body and every extra predicate of one monitor to
/// the interpreter on `PAIRS` random pairs. Returns how many comparisons
/// ended in an error (on both sides).
fn check_monitor_against_interpreter(
    label: &str,
    monitor: &Monitor,
    predicates: &[Expr],
    rng: &mut Lcg,
) -> usize {
    let mut program = Program::new(monitor).unwrap_or_else(|e| panic!("{label}: {e:?}"));
    let predicates: Vec<_> = predicates
        .iter()
        .map(|expr| (expr, program.predicate(expr)))
        .collect();
    let interp = Interpreter::new(program.table());
    let layout = program.layout();
    let mut errors = 0;
    for _ in 0..PAIRS {
        let (state, bindings) = random_pair(&program, rng);
        let view = merged(&state, &bindings);
        let frame = layout.frame(&state).unwrap();
        let locals = layout.bind(&bindings).unwrap();
        assert_eq!(layout.snapshot(&frame), state, "{label}");
        assert_eq!(layout.unbind(&locals), bindings, "{label}");

        let guards = monitor
            .all_ccrs()
            .map(|ccr| (&*ccr.guard, program.guard(ccr.id)));
        for (expr, code) in guards.chain(predicates.iter().copied()) {
            let expected = interp.eval_bool(expr, &view);
            assert_eq!(
                program.eval(code, &frame, &locals),
                expected,
                "{label}: `{expr}` on {view:?}"
            );
            errors += usize::from(expected.is_err());
        }

        for ccr in monitor.all_ccrs() {
            errors += usize::from(run_both(monitor, &program, ccr.id, &state, &bindings).is_err());
        }
    }
    errors
}

#[test]
fn suite_monitors_and_their_notification_predicates_agree() {
    let mut rng = Lcg::new(0xD1FF);
    for benchmark in all() {
        let monitor = benchmark.monitor();
        let explicit = Expresso::new()
            .analyze(&monitor)
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name))
            .explicit;
        let predicates: Vec<Expr> = monitor
            .all_ccrs()
            .flat_map(|ccr| explicit.notifications_for(ccr.id))
            .map(|n| Expr::clone(&n.predicate))
            .collect();
        assert!(!predicates.is_empty(), "{}", benchmark.name);
        check_monitor_against_interpreter(benchmark.name, &monitor, &predicates, &mut rng);
    }
}

#[test]
fn corpus_variants_agree() {
    let mut rng = Lcg::new(0xC0DE);
    let corpus = generate(&CorpusSpec {
        size: 64,
        seed: 0xD1FF,
    });
    for variant in &corpus {
        check_monitor_against_interpreter(&variant.name, &variant.monitor(), &[], &mut rng);
    }
}

/// One method per fault, plus a guard over a parameter.
const FAULTS: &str = r#"
    monitor Faults(int n) {
        int[] data = new int[n];
        int total = 0;
        bool flag = false;
        atomic void rem(int a, int b) { total = a % b; }
        atomic void read(int at) { total = data[at]; }
        atomic void write(int to, int v) { total = total + 1; data[0] = v; flag = true; data[to] = v; }
        atomic void early() { total = later + 1; int later = 1; }
        atomic void spin() { while (!flag) { total = total + 1; } }
        atomic void need(int amount) { waituntil (total >= amount && !flag) { total = total - amount; } }
    }
"#;

/// Runs one body on both evaluators from `state` ∪ `locals`, checks that
/// they agree — on the outcome, on the post-state, and that a fault leaves
/// the frame untouched — and returns the common outcome.
fn run_both(
    monitor: &Monitor,
    program: &Program,
    ccr: CcrId,
    state: &Valuation,
    locals: &Valuation,
) -> Result<Valuation, RuntimeError> {
    let at = monitor.ccr_label(ccr);
    let view = merged(state, locals);
    let mut expected = view.clone();
    let outcome = Interpreter::new(program.table()).exec(&monitor.ccr(ccr).body, &mut expected);
    let layout = program.layout();
    let before = layout.frame(state).unwrap();
    let (mut frame, mut slots) = (before.clone(), layout.bind(locals).unwrap());
    assert_eq!(
        program.exec(ccr, &mut frame, &mut slots),
        outcome,
        "{at} on {view:?}"
    );
    match outcome {
        Ok(()) => {
            let got = merged(&layout.snapshot(&frame), &layout.unbind(&slots));
            assert_eq!(got, expected, "{at} on {view:?}");
            Ok(got)
        }
        Err(error) => {
            assert_eq!(frame, before, "{at} faulted and changed the frame");
            Err(error)
        }
    }
}

fn int_locals(bindings: &[(&str, i64)]) -> Valuation {
    let mut locals = Valuation::new();
    for (name, value) in bindings {
        locals.set_int(*name, *value);
    }
    locals
}

#[test]
fn every_fault_is_the_interpreters_fault_and_leaves_the_frame_alone() {
    let monitor = parse_monitor(FAULTS).unwrap();
    let program = Program::new(&monitor).unwrap();
    let mut state = Valuation::new();
    state
        .set_int("n", 3)
        .set_int("total", 10)
        .set_bool("flag", false)
        .set_array("data", vec![1, 2, 3]);
    let run = |method: &str, bindings: &[(&str, i64)]| {
        let ccr = monitor.method(method).unwrap().ccrs[0];
        run_both(&monitor, &program, ccr, &state, &int_locals(bindings))
    };
    let array = |i| Err(RuntimeError::ArrayAccess("data".into(), i));
    let unbound = |name: &str| Err(RuntimeError::Unbound(name.into()));

    assert_eq!(
        run("rem", &[("a", 7), ("b", 0)]),
        Err(RuntimeError::DivisionByZero)
    );
    // Euclidean, and total on the one pair whose quotient overflows.
    assert_eq!(
        run("rem", &[("a", -7), ("b", 3)]).unwrap().int("total"),
        Some(2)
    );
    assert_eq!(
        run("rem", &[("a", i64::MIN), ("b", -1)])
            .unwrap()
            .int("total"),
        Some(0)
    );
    // Reads and writes off either end name the array and the index.
    assert_eq!(run("read", &[("at", -1)]), array(-1));
    assert_eq!(run("read", &[("at", 3)]), array(3));
    assert_eq!(run("read", &[("at", 2)]).unwrap().int("total"), Some(3));
    // `write` bumps a scalar, writes an element and sets a flag before the
    // bad index: none of it may survive (run_both compares the frames).
    assert_eq!(run("write", &[("to", -2), ("v", 9)]), array(-2));
    assert_eq!(run("write", &[("to", 3), ("v", 9)]), array(3));
    let written = run("write", &[("to", 2), ("v", 9)]).unwrap();
    assert_eq!(written.array("data"), Some(&vec![9, 2, 9]));
    assert_eq!(written.boolean("flag"), Some(true));
    // An unsupplied parameter and a local read before its declaration.
    assert_eq!(run("write", &[("to", 1)]), unbound("v"));
    assert_eq!(run("rem", &[("b", 2)]), unbound("a"));
    assert_eq!(run("early", &[]), unbound("later"));
    // ... which a caller may also supply, as with the interpreter.
    assert_eq!(run("early", &[("later", 4)]).unwrap().int("total"), Some(5));
    assert_eq!(
        run("spin", &[]),
        Err(RuntimeError::LoopBudgetExceeded(LOOP_BUDGET))
    );
    assert_eq!(LOOP_BUDGET, 100_000);

    // The guard over a parameter, bound and not.
    let need = monitor.method("need").unwrap().ccrs[0];
    let interp = Interpreter::new(program.table());
    let frame = program.layout().frame(&state).unwrap();
    for bindings in [vec![], vec![("amount", 4)], vec![("amount", 11)]] {
        let locals = int_locals(&bindings);
        let slots = program.layout().bind(&locals).unwrap();
        assert_eq!(
            program.eval(program.guard(need), &frame, &slots),
            interp.eval_bool(&monitor.ccr(need).guard, &merged(&state, &locals)),
            "{bindings:?}"
        );
    }
}

/// A layout is as wide as the monitor needs: a 64-bit mask of bound locals
/// (or any other fixed-size shortcut) would fail here.
#[test]
fn a_method_with_more_than_sixty_four_locals_agrees() {
    const PARAMS: usize = 70;
    let params: Vec<String> = (0..PARAMS).map(|i| format!("int p{i}")).collect();
    let sum: Vec<String> = (0..PARAMS).map(|i| format!("p{i}")).collect();
    let source = format!(
        "monitor Wide {{
            int total = 0;
            atomic void add({}) {{
                waituntil (p{last} >= p0) {{ int s = {}; total = total + s; p{last} = total; }}
            }}
        }}",
        params.join(", "),
        sum.join(" + "),
        last = PARAMS - 1,
    );
    let monitor = parse_monitor(&source).unwrap();
    let mut rng = Lcg::new(64);
    let errors = check_monitor_against_interpreter("Wide", &monitor, &[], &mut rng);
    // One local in eight is left unbound: nearly every body faults on a
    // summand (each on its own name), while most guards still evaluate.
    assert!(errors > PAIRS / 2 && errors < 2 * PAIRS, "{errors}");

    // All seventy bound: the last one is read and written past bit 63.
    let program = Program::new(&monitor).unwrap();
    let mut state = Valuation::new();
    state.set_int("total", 1);
    let bindings: Vec<(String, i64)> = (0..PARAMS).map(|i| (format!("p{i}"), i as i64)).collect();
    let bindings: Vec<(&str, i64)> = bindings.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let add = monitor.method("add").unwrap().ccrs[0];
    let after = run_both(&monitor, &program, add, &state, &int_locals(&bindings)).unwrap();
    let expected = 1 + (0..PARAMS as i64).sum::<i64>();
    assert_eq!(after.int("total"), Some(expected));
    assert_eq!(after.int("p69"), Some(expected));
}

/// A random expression over the given atoms, sorts ignored.
fn random_expr(rng: &mut Lcg, depth: usize, names: &[&str]) -> Expr {
    const BINARY: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Rem,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];
    let name = |rng: &mut Lcg| names[rng.index(names.len())].to_string();
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => Expr::Int(rng.below(4) as i64 - 1),
            1 => Expr::Bool(rng.below(2) == 0),
            _ => Expr::Var(name(rng)),
        };
    }
    let sub = |rng: &mut Lcg| Box::new(random_expr(rng, depth - 1, names));
    match rng.below(8) {
        0 => Expr::Unary(UnOp::Neg, sub(rng)),
        1 => Expr::Unary(UnOp::Not, sub(rng)),
        2 => Expr::Index(name(rng), sub(rng)),
        _ => Expr::Binary(BINARY[rng.index(BINARY.len())], sub(rng), sub(rng)),
    }
}

/// Hand-written notification predicates are not type checked. Whatever the
/// interpreter makes of one — a value, a short-circuit past the ill-sorted
/// part, a `SortMismatch` with its rendered message, an `ArrayAccess` on a
/// scalar — the compiled predicate makes the same.
#[test]
fn ill_sorted_predicates_agree() {
    let monitor = parse_monitor(FAULTS).unwrap();
    let mut program = Program::new(&monitor).unwrap();
    // An int, a bool, an array, a constructor parameter, two locals and a
    // name the monitor does not declare.
    let names = ["total", "flag", "data", "n", "amount", "later", "ghost"];
    let mut rng = Lcg::new(0x50F7);
    let exprs: Vec<Expr> = (0..1500)
        .map(|_| random_expr(&mut rng, 3, &names))
        .collect();
    let codes: Vec<_> = exprs.iter().map(|e| program.predicate(e)).collect();
    let interp = Interpreter::new(program.table());
    let (mut values, mut mismatches, mut others) = (0, 0, 0);
    for _ in 0..20 {
        let (state, bindings) = random_pair(&program, &mut rng);
        let view = merged(&state, &bindings);
        let frame = program.layout().frame(&state).unwrap();
        let locals = program.layout().bind(&bindings).unwrap();
        for (expr, code) in exprs.iter().zip(&codes) {
            let expected = interp.eval_bool(expr, &view);
            assert_eq!(
                program.eval(*code, &frame, &locals),
                expected,
                "`{expr}` on {view:?}"
            );
            match expected {
                Ok(_) => values += 1,
                Err(RuntimeError::SortMismatch(_)) => mismatches += 1,
                Err(_) => others += 1,
            }
        }
    }
    // The generator must reach all three kinds of outcome to mean anything.
    assert!(
        values > 500 && mismatches > 500 && others > 500,
        "{values} values, {mismatches} sort mismatches, {others} other errors"
    );
}

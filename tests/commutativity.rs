//! `VcGen::commutes` settles a variable from the bodies' footprints when
//! only one body writes it and that body reads nothing the other writes;
//! only the remaining variables go to WPs and the solver. That may only save
//! work, never change an answer:
//!
//! * for every ordered CCR pair of the 16 Table 1 monitors and of every 10th
//!   monitor of the 500-monitor corpus, `commutes` equals the solver-only
//!   check written out here on the public `VcGen::wp_id`, which asks the
//!   solver about every variable either body writes;
//! * hand cases pin each way out: a body that does not lower, a writer that
//!   reads what the other writes, a shared variable the solver settles, and
//!   disjoint footprints that never reach the solver.

use expresso_repro::logic::{fresh_name, Formula, Term};
use expresso_repro::monitor_lang::{check_monitor, parse_monitor, Monitor, Stmt, Type};
use expresso_repro::smt::Solver;
use expresso_repro::suite::{all, generate, CorpusSpec};
use expresso_repro::vcgen::VcGen;
use std::collections::HashSet;

/// The check with no footprint shortcut: both compositions' WPs of
/// `var == observer` (or of the bool itself), and their equivalence, for
/// every variable either statement writes.
fn solver_only(vc: &VcGen, s1: &Stmt, s2: &Stmt) -> bool {
    fn has_loop(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::While(..) => true,
            Stmt::Seq(parts) => parts.iter().any(has_loop),
            Stmt::If(_, t, e) => has_loop(t) || has_loop(e),
            _ => false,
        }
    }
    let table = vc.table();
    if has_loop(s1) || has_loop(s2) {
        return false;
    }
    let writes_arrays = |s: &Stmt| s.assigned_vars().iter().any(|v| table.is_array(v));
    if writes_arrays(s1) || writes_arrays(s2) {
        return false;
    }
    let order_a = Stmt::seq(vec![s1.clone(), s2.clone()]);
    let order_b = Stmt::seq(vec![s2.clone(), s1.clone()]);
    let interner = vc.interner();
    let mut affected: Vec<String> = s1
        .assigned_vars()
        .union(&s2.assigned_vars())
        .cloned()
        .collect();
    affected.sort();
    for var in affected {
        let post = match table.ty(&var) {
            Some(Type::Bool) => Formula::bool_var(var.clone()),
            Some(Type::Int) => {
                let mut taken: HashSet<String> = s1.read_vars();
                taken.extend(s2.read_vars());
                taken.insert(var.clone());
                let observer = fresh_name(&format!("{var}!obs"), &taken);
                Term::var(var.clone()).eq(Term::var(observer))
            }
            _ => return false,
        };
        let post = interner.intern(&post);
        let (Ok(a), Ok(b)) = (vc.wp_id(&order_a, post), vc.wp_id(&order_b, post)) else {
            return false;
        };
        if !vc.solver().check_equiv_ids(a, b).is_valid() {
            return false;
        }
    }
    true
}

#[test]
fn footprints_never_change_an_answer() {
    let corpus = generate(&CorpusSpec { size: 500, seed: 1 });
    let monitors: Vec<Monitor> = all()
        .iter()
        .map(|b| b.monitor())
        .chain(corpus.iter().step_by(10).map(|c| c.monitor()))
        .collect();
    let (mut pairs, mut commuting) = (0, 0);
    for monitor in &monitors {
        let table = check_monitor(monitor).expect("suite and corpus monitors check");
        let (solver, reference_solver) = (Solver::new(), Solver::new());
        let vc = VcGen::new(monitor, &table, &solver);
        let reference = VcGen::new(monitor, &table, &reference_solver);
        for a in monitor.all_ccrs() {
            for b in monitor.all_ccrs() {
                let expected = solver_only(&reference, &a.body, &b.body);
                assert_eq!(
                    vc.commutes(&a.body, &b.body),
                    expected,
                    "{}: {:?} against {:?}",
                    monitor.name,
                    a.body,
                    b.body
                );
                pairs += 1;
                commuting += usize::from(expected);
            }
        }
    }
    // Both answers must occur often for the comparison to mean anything.
    assert!(
        commuting > pairs / 10 && commuting < pairs * 9 / 10,
        "{commuting} of {pairs} ordered pairs commute"
    );
}

const HAND: &str = r#"
    monitor Hand {
        int x = 0;
        int y = 0;
        int z = 0;
        int w = 0;
        bool flag = false;
        atomic void product() { x = y * z; }
        atomic void remainder() { x = y % z; }
        atomic void bump() { w++; }
        atomic void copy() { x = y; }
        atomic void setY() { y = 1; }
        atomic void inc() { x++; }
        atomic void addTwo() { x += 2; }
        atomic void toggle() { flag = !flag; }
    }
"#;

#[test]
fn hand_cases() {
    let monitor = parse_monitor(HAND).unwrap();
    let table = check_monitor(&monitor).unwrap();
    let solver = Solver::new();
    let vc = VcGen::new(&monitor, &table, &solver);
    let body = |name: &str| &monitor.ccr(monitor.method(name).unwrap().ccrs[0]).body;
    let stats = || format!("{:?}", solver.stats());
    let validity_queries = || solver.stats().validity_queries;
    // (first, second, commutes, asks the solver)
    for (a, b, expected, asks) in [
        // Disjoint footprints, but `%` outside a comparison does not lower.
        ("remainder", "bump", false, false),
        // A product lowers (to a term the solver abstracts); with disjoint
        // footprints nothing is asked.
        ("product", "bump", true, false),
        // `x` is written only by `copy`, from the `y` that `setY` writes.
        ("copy", "setY", false, true),
        // Both write `x`.
        ("inc", "addTwo", true, true),
        ("toggle", "inc", true, false),
    ] {
        for (s1, s2) in [(a, b), (b, a)] {
            assert_eq!(
                solver_only(&vc, body(s1), body(s2)),
                expected,
                "{s1} against {s2}, solver only"
            );
            let (before, queries_before) = (stats(), validity_queries());
            assert_eq!(
                vc.commutes(body(s1), body(s2)),
                expected,
                "{s1} against {s2}"
            );
            if asks {
                assert!(validity_queries() > queries_before, "{s1} against {s2}");
            } else {
                assert_eq!(stats(), before, "{s1} against {s2} asked the solver");
            }
        }
    }
}

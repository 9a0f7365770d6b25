//! Java-like code generation for explicit-signal monitors (paper §6).
//!
//! The generated text mirrors what the paper's tool emits: a class holding a
//! `ReentrantLock`, one `Condition` per distinct guard, a `while (!p) await()`
//! loop per `waituntil`, and `signal` / `signalAll` calls (conditionally
//! guarded when the analysis could not prove the predicate must hold).
//!
//! The output is for human inspection and golden tests; the executable form of
//! the same monitor is interpreted by `expresso-runtime`.

use expresso_monitor_lang::{ExplicitMonitor, Expr, NotificationKind, SignalCondition, Stmt, Type};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders an explicit-signal monitor as Java-like source text.
pub fn to_java(explicit: &ExplicitMonitor) -> String {
    let _span = expresso_obs::span!("core.codegen", "{}", explicit.monitor.name);
    let monitor = &explicit.monitor;
    let mut out = String::new();
    let mut condition_names: HashMap<String, String> = HashMap::new();
    for (i, guard) in monitor.guards().iter().enumerate() {
        condition_names.insert(guard.to_string(), format!("cond{i}"));
    }

    let _ = writeln!(out, "class {} {{", monitor.name);
    for p in monitor.params.iter() {
        let _ = writeln!(out, "    final {} {};", java_type(p.ty), p.name);
    }
    for f in monitor.fields.iter() {
        match f.ty {
            Type::IntArray => {
                let len = f
                    .array_len
                    .as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "0".to_string());
                let _ = writeln!(out, "    long[] {} = new long[{}];", f.name, len);
            }
            _ => {
                let init = match &f.init {
                    Some(e) => e.to_string(),
                    None => default_init(f.ty).to_string(),
                };
                let _ = writeln!(out, "    {} {} = {};", java_type(f.ty), f.name, init);
            }
        }
    }
    let _ = writeln!(out, "    final ReentrantLock lock = new ReentrantLock();");
    for guard in monitor.guards() {
        let name = &condition_names[&guard.to_string()];
        let _ = writeln!(
            out,
            "    final Condition {name} = lock.newCondition(); // waiters on {guard}"
        );
    }
    let _ = writeln!(out);

    for (mi, method) in monitor.methods.iter().enumerate() {
        let params: Vec<String> = method
            .params
            .iter()
            .map(|p| format!("{} {}", java_type(p.ty), p.name))
            .collect();
        let _ = writeln!(out, "    void {}({}) {{", method.name, params.join(", "));
        let _ = writeln!(out, "        lock.lock();");
        let _ = writeln!(out, "        try {{");
        for &ccr_id in &method.ccrs {
            let ccr = monitor.ccr(ccr_id);
            if !ccr.never_blocks() {
                let cond = &condition_names[&ccr.guard.to_string()];
                let _ = writeln!(out, "            while (!({})) {cond}.await();", ccr.guard);
            }
            emit_stmt(&mut out, &ccr.body, 3);
            for n in explicit.notifications_for(ccr_id) {
                let cond = condition_names
                    .get(&n.predicate.to_string())
                    .cloned()
                    .unwrap_or_else(|| "unknownCondition".to_string());
                let call = match n.kind {
                    NotificationKind::Signal => format!("{cond}.signal();"),
                    NotificationKind::Broadcast => format!("{cond}.signalAll();"),
                };
                match n.condition {
                    SignalCondition::Unconditional => {
                        let _ = writeln!(out, "            {call}");
                    }
                    SignalCondition::Conditional => {
                        let _ = writeln!(out, "            if ({}) {call}", n.predicate);
                    }
                }
            }
        }
        let _ = writeln!(out, "        }} finally {{");
        let _ = writeln!(out, "            lock.unlock();");
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "    }}");
        if mi + 1 != monitor.methods.len() {
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn java_type(ty: Type) -> &'static str {
    match ty {
        Type::Int => "long",
        Type::Bool => "boolean",
        Type::IntArray => "long[]",
    }
}

fn default_init(ty: Type) -> &'static str {
    match ty {
        Type::Int => "0",
        Type::Bool => "false",
        Type::IntArray => "null",
    }
}

fn emit_stmt(out: &mut String, stmt: &Stmt, indent: usize) {
    let pad = "    ".repeat(indent);
    match stmt {
        Stmt::Skip => {}
        Stmt::Seq(parts) => parts.iter().for_each(|s| emit_stmt(out, s, indent)),
        Stmt::Assign(v, e) => {
            let _ = writeln!(out, "{pad}{v} = {};", java_expr(e));
        }
        Stmt::ArrayAssign(a, i, e) => {
            let _ = writeln!(
                out,
                "{pad}{a}[(int) ({})] = {};",
                java_expr(i),
                java_expr(e)
            );
        }
        Stmt::Local(v, ty, e) => {
            let _ = writeln!(out, "{pad}{} {v} = {};", java_type(*ty), java_expr(e));
        }
        Stmt::If(c, t, e) => {
            let _ = writeln!(out, "{pad}if ({}) {{", java_expr(c));
            emit_stmt(out, t, indent + 1);
            if **e != Stmt::Skip {
                let _ = writeln!(out, "{pad}}} else {{");
                emit_stmt(out, e, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::While(c, b) => {
            let _ = writeln!(out, "{pad}while ({}) {{", java_expr(c));
            emit_stmt(out, b, indent + 1);
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

fn java_expr(expr: &Expr) -> String {
    // The monitor expression syntax is already Java-compatible.
    expr.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expresso;
    use expresso_monitor_lang::parse_monitor;

    #[test]
    fn generated_readers_writers_mirrors_figure_2() {
        let monitor = parse_monitor(
            r#"
            monitor RWLock {
                int readers = 0;
                bool writerIn = false;
                atomic void enterReader() { waituntil (!writerIn) { readers++; } }
                atomic void exitReader() { if (readers > 0) readers--; }
                atomic void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
                atomic void exitWriter() { writerIn = false; }
            }
            "#,
        )
        .unwrap();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        let java = to_java(&outcome.explicit);
        // Structure of Fig. 2: a lock, two conditions, awaits and signals.
        assert!(java.contains("ReentrantLock"));
        assert!(java.matches("newCondition").count() == 2);
        assert!(java.contains("while (!(!writerIn))"));
        // exitWriter broadcasts to readers unconditionally.
        assert!(java.contains(".signalAll();"));
        // exitReader signals writers conditionally.
        assert!(
            java.contains("if ((readers == 0) && !writerIn)")
                || java.contains("if (((readers == 0) && !writerIn))")
        );
        // enterReader must not signal: the enterReader body is followed
        // directly by the unlock block.
        let enter_reader = java.split("void enterReader").nth(1).unwrap();
        let before_finally = enter_reader.split("finally").next().unwrap();
        assert!(!before_finally.contains("signal"));
    }

    #[test]
    fn arrays_and_locals_are_emitted() {
        let monitor = parse_monitor(
            r#"
            monitor Buf(int n) {
                int[] data = new int[n];
                int count = 0;
                atomic void put(int item) {
                    waituntil (count < n) { data[count] = item; count++; }
                }
            }
            "#,
        )
        .unwrap();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        let java = to_java(&outcome.explicit);
        assert!(java.contains("long[] data = new long[n];"));
        assert!(java.contains("void put(long item)"));
        assert!(java.contains("data[(int) (count)] = item;"));
    }
}

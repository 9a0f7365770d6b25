//! Static checks: name resolution, shared/local classification and type checking.

use crate::ast::{BinOp, Expr, Monitor, Stmt, Type, UnOp};
use expresso_logic::Ident;
use std::collections::HashMap;
use std::fmt;

/// Where a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Monitor fields and constructor parameters: shared between all threads.
    Shared,
    /// Method parameters and local declarations: private to the calling thread.
    Local,
}

/// Static information about a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarInfo {
    /// The variable's type.
    pub ty: Type,
    /// Whether it is shared or thread-local.
    pub scope: Scope,
    /// Whether it may be written after construction (constructor parameters
    /// and array-length bindings are immutable).
    pub mutable: bool,
}

/// Symbol table for a checked monitor.
///
/// The paper assumes local variables of different methods have unique names;
/// [`check_monitor`] enforces that assumption so a single flat table suffices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarTable {
    vars: HashMap<Ident, VarInfo>,
}

impl VarTable {
    /// Looks up a variable.
    pub fn info(&self, name: &str) -> Option<VarInfo> {
        self.vars.get(name).copied()
    }

    /// Returns the variable's type, if known.
    pub fn ty(&self, name: &str) -> Option<Type> {
        self.info(name).map(|i| i.ty)
    }

    /// Whether the variable is a shared (monitor-global) variable.
    pub fn is_shared(&self, name: &str) -> bool {
        matches!(
            self.info(name),
            Some(VarInfo {
                scope: Scope::Shared,
                ..
            })
        )
    }

    /// Whether the variable is thread-local.
    pub fn is_local(&self, name: &str) -> bool {
        matches!(
            self.info(name),
            Some(VarInfo {
                scope: Scope::Local,
                ..
            })
        )
    }

    /// Whether the variable is boolean-typed.
    pub fn is_bool(&self, name: &str) -> bool {
        self.ty(name) == Some(Type::Bool)
    }

    /// Whether the variable names an array.
    pub fn is_array(&self, name: &str) -> bool {
        self.ty(name) == Some(Type::IntArray)
    }

    /// All boolean-typed variable names (needed when building renamings).
    pub fn bool_vars(&self) -> std::collections::HashSet<Ident> {
        self.vars
            .iter()
            .filter(|(_, i)| i.ty == Type::Bool)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All shared scalar variable names.
    pub fn shared_scalars(&self) -> Vec<Ident> {
        let mut v: Vec<Ident> = self
            .vars
            .iter()
            .filter(|(_, i)| i.scope == Scope::Shared && i.ty != Type::IntArray)
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    /// All thread-local variable names.
    pub fn locals(&self) -> Vec<Ident> {
        let mut v: Vec<Ident> = self
            .vars
            .iter()
            .filter(|(_, i)| i.scope == Scope::Local)
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    /// Iterates over every entry in the table.
    pub fn iter(&self) -> impl Iterator<Item = (&Ident, &VarInfo)> {
        self.vars.iter()
    }

    fn declare(&mut self, name: &str, info: VarInfo, errors: &mut Vec<CheckError>, context: &str) {
        if self.vars.contains_key(name) {
            errors.push(CheckError::new(format!(
                "duplicate declaration of `{name}` in {context} (the analysis requires globally unique names)"
            )));
        } else {
            self.vars.insert(name.to_string(), info);
        }
    }
}

/// A static error found by [`check_monitor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Explanation of the problem.
    pub message: String,
}

impl CheckError {
    fn new(message: impl Into<String>) -> Self {
        CheckError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CheckError {}

/// Type checks a monitor and builds its symbol table.
///
/// # Errors
///
/// Returns every problem found (duplicate or undeclared names, ill-typed
/// expressions, writes to immutable constructor parameters, boolean guards
/// that are not boolean, …).
pub fn check_monitor(monitor: &Monitor) -> Result<VarTable, Vec<CheckError>> {
    let mut errors = Vec::new();
    let mut table = VarTable::default();

    for p in monitor.params.iter() {
        table.declare(
            &p.name,
            VarInfo {
                ty: p.ty,
                scope: Scope::Shared,
                mutable: false,
            },
            &mut errors,
            "constructor parameters",
        );
    }
    for f in monitor.fields.iter() {
        table.declare(
            &f.name,
            VarInfo {
                ty: f.ty,
                scope: Scope::Shared,
                mutable: true,
            },
            &mut errors,
            "field declarations",
        );
    }
    for m in monitor.methods.iter() {
        for p in &m.params {
            table.declare(
                &p.name,
                VarInfo {
                    ty: p.ty,
                    scope: Scope::Local,
                    mutable: true,
                },
                &mut errors,
                &format!("method `{}`", m.name),
            );
        }
        for &ccr_id in &m.ccrs {
            collect_locals(&monitor.ccr(ccr_id).body, &m.name, &mut table, &mut errors);
        }
    }

    // Field initialisers and the requires clause.
    if let Some(req) = &monitor.requires {
        expect_type(req, Type::Bool, &table, &mut errors, "requires clause");
    }
    for f in monitor.fields.iter() {
        if let Some(init) = &f.init {
            let expected = match f.ty {
                Type::IntArray => Type::Int,
                other => other,
            };
            expect_type(
                init,
                expected,
                &table,
                &mut errors,
                &format!("initialiser of `{}`", f.name),
            );
        }
        if let Some(len) = &f.array_len {
            expect_type(
                len,
                Type::Int,
                &table,
                &mut errors,
                &format!("length of `{}`", f.name),
            );
        }
    }

    // Guards and bodies.
    for ccr in monitor.all_ccrs() {
        let label = monitor.ccr_label(ccr.id);
        expect_type(
            &ccr.guard,
            Type::Bool,
            &table,
            &mut errors,
            &format!("guard of {label}"),
        );
        check_stmt(&ccr.body, &table, &mut errors, &label);
    }

    if errors.is_empty() {
        Ok(table)
    } else {
        Err(errors)
    }
}

fn collect_locals(stmt: &Stmt, method: &str, table: &mut VarTable, errors: &mut Vec<CheckError>) {
    match stmt {
        Stmt::Local(name, ty, _) => table.declare(
            name,
            VarInfo {
                ty: *ty,
                scope: Scope::Local,
                mutable: true,
            },
            errors,
            &format!("method `{method}`"),
        ),
        Stmt::Seq(parts) => parts
            .iter()
            .for_each(|s| collect_locals(s, method, table, errors)),
        Stmt::If(_, t, e) => {
            collect_locals(t, method, table, errors);
            collect_locals(e, method, table, errors);
        }
        Stmt::While(_, b) => collect_locals(b, method, table, errors),
        _ => {}
    }
}

/// Infers the type of an expression.
///
/// # Errors
///
/// Returns a description of the first typing problem found.
pub fn infer_type(expr: &Expr, table: &VarTable) -> Result<Type, CheckError> {
    match expr {
        Expr::Int(_) => Ok(Type::Int),
        Expr::Bool(_) => Ok(Type::Bool),
        Expr::Var(name) => table
            .ty(name)
            .ok_or_else(|| CheckError::new(format!("undeclared variable `{name}`"))),
        Expr::Index(array, index) => {
            if !table.is_array(array) {
                return Err(CheckError::new(format!("`{array}` is not an array")));
            }
            let idx_ty = infer_type(index, table)?;
            if idx_ty != Type::Int {
                return Err(CheckError::new(format!(
                    "array index must be an integer, found {idx_ty}"
                )));
            }
            Ok(Type::Int)
        }
        Expr::Unary(UnOp::Neg, inner) => {
            let ty = infer_type(inner, table)?;
            if ty != Type::Int {
                return Err(CheckError::new(format!(
                    "`-` expects an integer, found {ty}"
                )));
            }
            Ok(Type::Int)
        }
        Expr::Unary(UnOp::Not, inner) => {
            let ty = infer_type(inner, table)?;
            if ty != Type::Bool {
                return Err(CheckError::new(format!(
                    "`!` expects a boolean, found {ty}"
                )));
            }
            Ok(Type::Bool)
        }
        Expr::Binary(op, lhs, rhs) => {
            let lt = infer_type(lhs, table)?;
            let rt = infer_type(rhs, table)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Rem => {
                    if lt != Type::Int || rt != Type::Int {
                        return Err(CheckError::new(format!(
                            "`{op}` expects integers, found {lt} and {rt}"
                        )));
                    }
                    Ok(Type::Int)
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    if lt != Type::Int || rt != Type::Int {
                        return Err(CheckError::new(format!(
                            "`{op}` expects integers, found {lt} and {rt}"
                        )));
                    }
                    Ok(Type::Bool)
                }
                BinOp::Eq | BinOp::Ne => {
                    if lt != rt || lt == Type::IntArray {
                        return Err(CheckError::new(format!(
                            "`{op}` expects two operands of the same scalar type, found {lt} and {rt}"
                        )));
                    }
                    Ok(Type::Bool)
                }
                BinOp::And | BinOp::Or => {
                    if lt != Type::Bool || rt != Type::Bool {
                        return Err(CheckError::new(format!(
                            "`{op}` expects booleans, found {lt} and {rt}"
                        )));
                    }
                    Ok(Type::Bool)
                }
            }
        }
    }
}

fn expect_type(
    expr: &Expr,
    expected: Type,
    table: &VarTable,
    errors: &mut Vec<CheckError>,
    context: &str,
) {
    match infer_type(expr, table) {
        Ok(ty) if ty == expected => {}
        Ok(ty) => errors.push(CheckError::new(format!(
            "{context}: expected {expected}, found {ty} in `{expr}`"
        ))),
        Err(e) => errors.push(CheckError::new(format!("{context}: {e}"))),
    }
}

fn check_stmt(stmt: &Stmt, table: &VarTable, errors: &mut Vec<CheckError>, context: &str) {
    match stmt {
        Stmt::Skip => {}
        Stmt::Seq(parts) => parts
            .iter()
            .for_each(|s| check_stmt(s, table, errors, context)),
        Stmt::Assign(name, value) => match table.info(name) {
            None => errors.push(CheckError::new(format!(
                "{context}: assignment to undeclared variable `{name}`"
            ))),
            Some(info) => {
                if !info.mutable {
                    errors.push(CheckError::new(format!(
                        "{context}: `{name}` is a constructor parameter and cannot be assigned"
                    )));
                }
                if info.ty == Type::IntArray {
                    errors.push(CheckError::new(format!(
                        "{context}: whole-array assignment to `{name}` is not supported"
                    )));
                } else {
                    expect_type(value, info.ty, table, errors, context);
                }
            }
        },
        Stmt::ArrayAssign(array, index, value) => {
            if !table.is_array(array) {
                errors.push(CheckError::new(format!(
                    "{context}: `{array}` is not an array"
                )));
            }
            expect_type(index, Type::Int, table, errors, context);
            expect_type(value, Type::Int, table, errors, context);
        }
        Stmt::Local(name, ty, init) => {
            // Declared during collection; only the initialiser needs checking.
            let _ = name;
            expect_type(init, *ty, table, errors, context);
        }
        Stmt::If(cond, t, e) => {
            expect_type(cond, Type::Bool, table, errors, context);
            check_stmt(t, table, errors, context);
            check_stmt(e, table, errors, context);
        }
        Stmt::While(cond, body) => {
            expect_type(cond, Type::Bool, table, errors, context);
            check_stmt(body, table, errors, context);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_monitor;

    fn rw() -> Monitor {
        parse_monitor(
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
        .unwrap()
    }

    #[test]
    fn readers_writers_checks_cleanly() {
        let m = rw();
        let table = check_monitor(&m).unwrap();
        assert!(table.is_shared("readers"));
        assert!(table.is_shared("writerIn"));
        assert!(table.is_bool("writerIn"));
        assert!(!table.is_bool("readers"));
    }

    #[test]
    fn locals_are_classified_as_thread_local() {
        let m = parse_monitor(
            r#"
            monitor M {
                int y = 0;
                atomic void m1(int x) { waituntil (x < y) { x = y + 1; } }
                atomic void m2() { y = y + 2; }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&m).unwrap();
        assert!(table.is_local("x"));
        assert!(table.is_shared("y"));
    }

    #[test]
    fn duplicate_local_names_are_rejected() {
        let m = parse_monitor(
            r#"
            monitor M {
                int y = 0;
                atomic void m1(int x) { y = x; }
                atomic void m2(int x) { y = x; }
            }
            "#,
        )
        .unwrap();
        let errors = check_monitor(&m).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("duplicate")));
    }

    #[test]
    fn type_errors_are_reported() {
        let m = parse_monitor(
            r#"
            monitor M {
                int x = 0;
                bool flag = false;
                atomic void bad() { waituntil (x) { flag = 1; } }
            }
            "#,
        )
        .unwrap();
        let errors = check_monitor(&m).unwrap_err();
        assert!(errors.len() >= 2);
    }

    #[test]
    fn constructor_parameters_are_immutable() {
        let m = parse_monitor(
            r#"
            monitor M(int capacity) {
                int count = 0;
                atomic void bad() { capacity = 3; }
            }
            "#,
        )
        .unwrap();
        let errors = check_monitor(&m).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| e.message.contains("constructor parameter")));
    }

    #[test]
    fn undeclared_variables_are_reported() {
        let m = parse_monitor(
            r#"
            monitor M {
                int x = 0;
                atomic void bad() { x = missing + 1; }
            }
            "#,
        )
        .unwrap();
        let errors = check_monitor(&m).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("undeclared")));
    }

    #[test]
    fn array_usage_is_checked() {
        let m = parse_monitor(
            r#"
            monitor M(int n) {
                int[] buf = new int[n];
                int count = 0;
                atomic void ok(int v) { buf[count] = v; count++; }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&m).unwrap();
        assert!(table.is_array("buf"));
        assert!(table.is_local("v"));
    }
}

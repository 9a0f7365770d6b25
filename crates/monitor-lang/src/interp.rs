//! Concrete interpretation of monitor expressions and statements.
//!
//! The interpreter evaluates guards and executes CCR bodies on concrete
//! [`Valuation`]s, by name. Nothing hot runs on it any more: the concurrent
//! runtime (`expresso-runtime`) and the stepper the schedule explorer drives
//! (`expresso-semantics`) run the same code compiled ([`crate::compile`]).
//! It is the reference they are held to — the compiler's test oracle and the
//! evaluator of the reference stepper in `tests/stepper_lockstep` — and what
//! builds a monitor's initial state.

use crate::ast::{BinOp, Expr, Monitor, Stmt, Type, UnOp};
use crate::check::VarTable;
use expresso_logic::Valuation;
use std::fmt;

/// Errors raised during concrete execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A variable had no value.
    Unbound(String),
    /// An array access was out of bounds or named an unknown array.
    ArrayAccess(String, i64),
    /// A boolean was used as an integer or vice versa.
    SortMismatch(String),
    /// Division/remainder by zero.
    DivisionByZero,
    /// A `while` loop exceeded the interpreter's iteration budget.
    LoopBudgetExceeded(usize),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Unbound(v) => write!(f, "unbound variable `{v}`"),
            RuntimeError::ArrayAccess(a, i) => write!(f, "invalid array access `{a}[{i}]`"),
            RuntimeError::SortMismatch(m) => write!(f, "sort mismatch: {m}"),
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
            RuntimeError::LoopBudgetExceeded(n) => {
                write!(f, "while loop exceeded the budget of {n} iterations")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Iterations any single `while` loop may perform before execution gives up
/// with [`RuntimeError::LoopBudgetExceeded`], interpreted or compiled.
pub const LOOP_BUDGET: usize = 100_000;

/// A concrete interpreter for monitor code.
#[derive(Debug, Clone)]
pub struct Interpreter<'a> {
    table: &'a VarTable,
    /// Maximum iterations any single `while` loop may perform.
    pub loop_budget: usize,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter using the given symbol table.
    pub fn new(table: &'a VarTable) -> Self {
        Interpreter {
            table,
            loop_budget: LOOP_BUDGET,
        }
    }

    /// Evaluates an integer expression.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on unbound variables, bad array accesses and
    /// sort mismatches.
    pub fn eval_int(&self, expr: &Expr, state: &Valuation) -> Result<i64, RuntimeError> {
        match expr {
            Expr::Int(v) => Ok(*v),
            Expr::Bool(_) => Err(RuntimeError::SortMismatch(format!(
                "boolean `{expr}` used as integer"
            ))),
            Expr::Var(name) => {
                if self.table.is_bool(name) {
                    return Err(RuntimeError::SortMismatch(format!(
                        "boolean variable `{name}` used as integer"
                    )));
                }
                state
                    .int(name)
                    .ok_or_else(|| RuntimeError::Unbound(name.clone()))
            }
            Expr::Index(array, index) => {
                let i = self.eval_int(index, state)?;
                let values = state
                    .array(array)
                    .ok_or_else(|| RuntimeError::ArrayAccess(array.clone(), i))?;
                usize::try_from(i)
                    .ok()
                    .and_then(|i| values.get(i).copied())
                    .ok_or_else(|| RuntimeError::ArrayAccess(array.clone(), i))
            }
            Expr::Unary(UnOp::Neg, inner) => Ok(self.eval_int(inner, state)?.wrapping_neg()),
            Expr::Unary(UnOp::Not, _) => Err(RuntimeError::SortMismatch(format!(
                "boolean `{expr}` used as integer"
            ))),
            Expr::Binary(op, lhs, rhs) => {
                let l = self.eval_int(lhs, state)?;
                let r = self.eval_int(rhs, state)?;
                match op {
                    BinOp::Add => Ok(l.wrapping_add(r)),
                    BinOp::Sub => Ok(l.wrapping_sub(r)),
                    BinOp::Mul => Ok(l.wrapping_mul(r)),
                    BinOp::Rem => {
                        if r == 0 {
                            Err(RuntimeError::DivisionByZero)
                        } else {
                            // `i64::MIN % -1` overflows; its remainder is 0.
                            Ok(l.wrapping_rem_euclid(r))
                        }
                    }
                    _ => Err(RuntimeError::SortMismatch(format!(
                        "boolean `{expr}` used as integer"
                    ))),
                }
            }
        }
    }

    /// Evaluates a boolean expression.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on unbound variables, bad array accesses and
    /// sort mismatches.
    pub fn eval_bool(&self, expr: &Expr, state: &Valuation) -> Result<bool, RuntimeError> {
        match expr {
            Expr::Bool(b) => Ok(*b),
            Expr::Int(_) => Err(RuntimeError::SortMismatch(format!(
                "integer `{expr}` used as boolean"
            ))),
            Expr::Var(name) => {
                if !self.table.is_bool(name) {
                    return Err(RuntimeError::SortMismatch(format!(
                        "integer variable `{name}` used as boolean"
                    )));
                }
                state
                    .boolean(name)
                    .ok_or_else(|| RuntimeError::Unbound(name.clone()))
            }
            Expr::Index(..) => Err(RuntimeError::SortMismatch(format!(
                "array element `{expr}` used as boolean"
            ))),
            Expr::Unary(UnOp::Not, inner) => Ok(!self.eval_bool(inner, state)?),
            Expr::Unary(UnOp::Neg, _) => Err(RuntimeError::SortMismatch(format!(
                "integer `{expr}` used as boolean"
            ))),
            Expr::Binary(op, lhs, rhs) => match op {
                BinOp::And => Ok(self.eval_bool(lhs, state)? && self.eval_bool(rhs, state)?),
                BinOp::Or => Ok(self.eval_bool(lhs, state)? || self.eval_bool(rhs, state)?),
                BinOp::Eq | BinOp::Ne => {
                    let equal = if crate::check::infer_type(lhs, self.table) == Ok(Type::Bool) {
                        self.eval_bool(lhs, state)? == self.eval_bool(rhs, state)?
                    } else {
                        self.eval_int(lhs, state)? == self.eval_int(rhs, state)?
                    };
                    Ok(if *op == BinOp::Eq { equal } else { !equal })
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let l = self.eval_int(lhs, state)?;
                    let r = self.eval_int(rhs, state)?;
                    Ok(match op {
                        BinOp::Lt => l < r,
                        BinOp::Le => l <= r,
                        BinOp::Gt => l > r,
                        _ => l >= r,
                    })
                }
                _ => Err(RuntimeError::SortMismatch(format!(
                    "integer `{expr}` used as boolean"
                ))),
            },
        }
    }

    /// Executes a statement, mutating `state`.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on evaluation failures or when a `while`
    /// loop exceeds [`Interpreter::loop_budget`].
    pub fn exec(&self, stmt: &Stmt, state: &mut Valuation) -> Result<(), RuntimeError> {
        match stmt {
            Stmt::Skip => Ok(()),
            Stmt::Seq(parts) => {
                for s in parts {
                    self.exec(s, state)?;
                }
                Ok(())
            }
            Stmt::Assign(name, value) | Stmt::Local(name, _, value) => {
                if self.table.is_bool(name) {
                    let v = self.eval_bool(value, state)?;
                    state.set_bool(name.clone(), v);
                } else {
                    let v = self.eval_int(value, state)?;
                    state.set_int(name.clone(), v);
                }
                Ok(())
            }
            Stmt::ArrayAssign(array, index, value) => {
                let i = self.eval_int(index, state)?;
                let v = self.eval_int(value, state)?;
                let values = state
                    .array_mut(array)
                    .ok_or_else(|| RuntimeError::ArrayAccess(array.clone(), i))?;
                let slot = usize::try_from(i)
                    .ok()
                    .and_then(|i| values.get_mut(i))
                    .ok_or_else(|| RuntimeError::ArrayAccess(array.clone(), i))?;
                *slot = v;
                Ok(())
            }
            Stmt::If(cond, t, e) => {
                if self.eval_bool(cond, state)? {
                    self.exec(t, state)
                } else {
                    self.exec(e, state)
                }
            }
            Stmt::While(cond, body) => {
                let mut iterations = 0usize;
                while self.eval_bool(cond, state)? {
                    self.exec(body, state)?;
                    iterations += 1;
                    if iterations > self.loop_budget {
                        return Err(RuntimeError::LoopBudgetExceeded(self.loop_budget));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Builds the initial shared state of a monitor: constructor parameters are
/// taken from `ctor_args`, fields are evaluated in declaration order, and
/// arrays are allocated zero-filled.
///
/// # Errors
///
/// Returns a [`RuntimeError`] when an initialiser cannot be evaluated (e.g. an
/// array length that is negative or references a missing constructor argument).
pub fn initial_state(
    monitor: &Monitor,
    table: &VarTable,
    ctor_args: &Valuation,
) -> Result<Valuation, RuntimeError> {
    let interp = Interpreter::new(table);
    let mut state = Valuation::new();
    for p in monitor.params.iter() {
        match p.ty {
            Type::Int => {
                let v = ctor_args
                    .int(&p.name)
                    .ok_or_else(|| RuntimeError::Unbound(p.name.clone()))?;
                state.set_int(p.name.clone(), v);
            }
            Type::Bool => {
                let v = ctor_args
                    .boolean(&p.name)
                    .ok_or_else(|| RuntimeError::Unbound(p.name.clone()))?;
                state.set_bool(p.name.clone(), v);
            }
            Type::IntArray => {
                return Err(RuntimeError::SortMismatch(format!(
                    "constructor parameter `{}` cannot be an array",
                    p.name
                )))
            }
        }
    }
    for field in monitor.fields.iter() {
        match field.ty {
            Type::Int => {
                let init = field.init.clone().unwrap_or(Expr::Int(0));
                let v = interp.eval_int(&init, &state)?;
                state.set_int(field.name.clone(), v);
            }
            Type::Bool => {
                let init = field.init.clone().unwrap_or(Expr::Bool(false));
                let v = interp.eval_bool(&init, &state)?;
                state.set_bool(field.name.clone(), v);
            }
            Type::IntArray => {
                let len_expr = field.array_len.clone().unwrap_or(Expr::Int(0));
                let len = interp.eval_int(&len_expr, &state)?;
                let len = usize::try_from(len)
                    .map_err(|_| RuntimeError::ArrayAccess(field.name.clone(), len))?;
                state.set_array(field.name.clone(), vec![0; len]);
            }
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_monitor;
    use crate::parser::parse_monitor;

    fn bounded_buffer() -> (Monitor, VarTable) {
        let m = parse_monitor(
            r#"
            monitor BoundedBuffer(int capacity) requires capacity > 0 {
                int[] buffer = new int[capacity];
                int count = 0;
                int head = 0;
                atomic void put(int item) {
                    waituntil (count < capacity) {
                        buffer[count] = item;
                        count++;
                    }
                }
                atomic void take() {
                    waituntil (count > 0) { count--; }
                }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        (m, t)
    }

    #[test]
    fn initial_state_allocates_arrays_and_fields() {
        let (m, t) = bounded_buffer();
        let mut args = Valuation::new();
        args.set_int("capacity", 4);
        let state = initial_state(&m, &t, &args).unwrap();
        assert_eq!(state.int("count"), Some(0));
        assert_eq!(state.array("buffer").map(|a| a.len()), Some(4));
        assert_eq!(state.int("capacity"), Some(4));
    }

    #[test]
    fn executing_put_updates_buffer_and_count() {
        let (m, t) = bounded_buffer();
        let mut args = Valuation::new();
        args.set_int("capacity", 2);
        let mut state = initial_state(&m, &t, &args).unwrap();
        state.set_int("item", 42);
        let interp = Interpreter::new(&t);
        let put = m.method("put").unwrap();
        let ccr = m.ccr(put.ccrs[0]);
        assert!(interp.eval_bool(&ccr.guard, &state).unwrap());
        interp.exec(&ccr.body, &mut state).unwrap();
        assert_eq!(state.int("count"), Some(1));
        assert_eq!(state.array("buffer").unwrap()[0], 42);
    }

    #[test]
    fn guard_becomes_false_when_buffer_full() {
        let (m, t) = bounded_buffer();
        let mut args = Valuation::new();
        args.set_int("capacity", 1);
        let mut state = initial_state(&m, &t, &args).unwrap();
        state.set_int("item", 7);
        let interp = Interpreter::new(&t);
        let put = m.method("put").unwrap();
        let ccr = m.ccr(put.ccrs[0]);
        interp.exec(&ccr.body, &mut state).unwrap();
        assert!(!interp.eval_bool(&ccr.guard, &state).unwrap());
    }

    #[test]
    fn missing_constructor_argument_is_an_error() {
        let (m, t) = bounded_buffer();
        let args = Valuation::new();
        assert!(matches!(
            initial_state(&m, &t, &args),
            Err(RuntimeError::Unbound(_))
        ));
    }

    #[test]
    fn while_loops_are_bounded() {
        let m = parse_monitor(
            r#"
            monitor M {
                int x = 0;
                atomic void spin() { while (x == 0) { x = 0; } }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        let mut interp = Interpreter::new(&t);
        interp.loop_budget = 10;
        let mut state = Valuation::new();
        state.set_int("x", 0);
        let spin = m.method("spin").unwrap();
        let err = interp
            .exec(&m.ccr(spin.ccrs[0]).body, &mut state)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::LoopBudgetExceeded(10)));
    }

    #[test]
    fn rem_and_division_by_zero() {
        let m = parse_monitor(
            r#"
            monitor M {
                int x = 5;
                int y = 0;
                atomic void f() { y = x % 2; }
                atomic void g() { y = x % y; }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        let interp = Interpreter::new(&t);
        let mut state = Valuation::new();
        state.set_int("x", 5).set_int("y", 0);
        interp
            .exec(&m.ccr(m.method("f").unwrap().ccrs[0]).body, &mut state)
            .unwrap();
        assert_eq!(state.int("y"), Some(1));
        state.set_int("y", 0);
        let err = interp
            .exec(&m.ccr(m.method("g").unwrap().ccrs[0]).body, &mut state)
            .unwrap_err();
        assert_eq!(err, RuntimeError::DivisionByZero);
    }
}

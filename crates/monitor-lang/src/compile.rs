//! Monitor code compiled once to slot-indexed programs over a flat frame.
//!
//! The [`Interpreter`](crate::Interpreter) walks `Expr`/`Stmt` trees over a
//! [`Valuation`]: every variable access hashes a `String`, every `==` infers
//! a type, every write allocates a key. That is the right shape for a
//! reference, and the wrong one for code that evaluates the same few guards
//! millions of times: the concurrent engines, while they hold the monitor's
//! lock, and the schedule explorer's `semantics::Stepper`, once or more per
//! transition. A [`Program`] does the name and sort resolution once:
//!
//! * **[`Layout`]** — the `VarTable` made dense. Shared scalars, thread-local
//!   scalars and shared arrays each get consecutive slots (in name order, so
//!   the layout is deterministic); booleans are stored as `0`/`1` next to the
//!   integers. Names survive only for error payloads and for converting a
//!   [`Frame`] back to a [`Valuation`].
//! * **[`Frame`]** — the shared state: one `Vec<i64>` of scalars and the
//!   arrays. **[`Locals`]** — one caller's thread-local slots, each bound or
//!   not (an unsupplied parameter and a local read before its declaration are
//!   both unbound, as in a `Valuation` that lacks the key).
//! * **code** — every CCR guard and body, and any further predicate handed to
//!   [`Program::predicate`], lowered to nodes that address slots by index.
//!   Evaluating a guard touches no `String`, no `HashMap` and no allocator.
//!
//! # Equivalence with the interpreter
//!
//! Compiled code returns the value, or raises exactly the [`RuntimeError`]
//! (variant *and* payload), that `Interpreter::eval_bool` / `exec` would on
//! the `Valuation` the frame and locals stand for: wrapping arithmetic,
//! Euclidean remainder, `DivisionByZero`, `ArrayAccess(name, index)`,
//! `Unbound(name)`, the same [`LOOP_BUDGET`]. Guards and bodies are
//! well-sorted because [`Program::new`] checks the monitor (and
//! [`Program::checked`] is handed a checked one), but a
//! hand-written notification predicate need not be: the interpreter finds a
//! sort error only when evaluation reaches it, so the compiler plants the
//! `SortMismatch` as a fault node at that very position, after the operands
//! the interpreter would have evaluated first. `a && (1 + true)` is still
//! `false` when `a` is. `tests/compile_differential.rs` holds the two
//! evaluators against each other on random states.
//!
//! [`Program::exec`] commits on success: the body runs on a working copy of
//! the scalars and logs the array elements it overwrites, so a body that
//! faults half-way leaves the frame exactly as it found it.
//!
//! [`Frame::overwritten`] / [`Frame::restore`] (and [`Locals::slots`] /
//! [`Locals::restore`]) let a caller that logged what a committed body
//! replaced take it back; the stepper's `unstep` is built on them, no engine
//! uses them.
//!
//! # Why the interpreter stays
//!
//! Compiled code now runs on both sides of Def. 3.4: in the engines, and in
//! the `semantics::Stepper` of the schedule explorer that judges them. A
//! judge may not silently inherit a bug of this file, so the tree-walking
//! interpreter stays as the reference everywhere one is needed, and shares
//! nothing with what it checks: `initial_state`; the reference stepper of
//! `tests/stepper_lockstep`, stepped side by side with the compiled one over
//! every schedule of every suite monitor at small bounds and on seeded
//! random schedules of four-thread workloads; and
//! `tests/compile_differential.rs`, guard by guard and body by body.

use crate::ast::{BinOp, CcrId, Expr, Monitor, Stmt, Type, UnOp};
use crate::check::{check_monitor, infer_type, CheckError, Scope, VarTable};
use crate::interp::{RuntimeError, LOOP_BUDGET};
use expresso_logic::{Ident, Valuation};
use std::collections::HashMap;

/// Where a name lives in the dense layout ([`Layout::slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// An index into [`Frame::scalars`].
    Shared(u32),
    /// An index into [`Locals::slots`].
    Local(u32),
    /// An index into [`Frame::arrays`].
    Array(u32),
}

#[derive(Debug, Clone)]
struct Scalar {
    name: Ident,
    is_bool: bool,
}

/// The dense variable layout of one checked monitor. See the module docs.
#[derive(Debug, Clone)]
pub struct Layout {
    shared: Vec<Scalar>,
    locals: Vec<Scalar>,
    arrays: Vec<Ident>,
    slots: HashMap<Ident, Slot>,
}

fn slot_index(len: usize) -> u32 {
    u32::try_from(len).expect("a monitor declares fewer than 2^32 variables")
}

impl Layout {
    fn new(table: &VarTable) -> Layout {
        let mut entries: Vec<_> = table.iter().collect();
        entries.sort_by_key(|(name, _)| *name);
        let mut layout = Layout {
            shared: Vec::new(),
            locals: Vec::new(),
            arrays: Vec::new(),
            slots: HashMap::new(),
        };
        for (name, info) in entries {
            let scalar = || Scalar {
                name: name.clone(),
                is_bool: info.ty == Type::Bool,
            };
            let slot = match (info.scope, info.ty) {
                (Scope::Shared, Type::IntArray) => {
                    layout.arrays.push(name.clone());
                    Slot::Array(slot_index(layout.arrays.len() - 1))
                }
                // The language has no thread-local arrays; a hand-built one
                // gets no storage, as in a valuation that never binds it.
                (Scope::Local, Type::IntArray) => continue,
                (Scope::Shared, _) => {
                    layout.shared.push(scalar());
                    Slot::Shared(slot_index(layout.shared.len() - 1))
                }
                (Scope::Local, _) => {
                    layout.locals.push(scalar());
                    Slot::Local(slot_index(layout.locals.len() - 1))
                }
            };
            layout.slots.insert(name.clone(), slot);
        }
        layout
    }

    /// Where `name` lives, if the monitor declares it.
    pub fn slot(&self, name: &str) -> Option<Slot> {
        self.slots.get(name).copied()
    }

    /// Builds the shared frame from a state that binds every shared variable
    /// (what [`initial_state`](crate::initial_state) returns).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unbound`] naming the first shared variable the
    /// state lacks (or binds at the wrong sort).
    pub fn frame(&self, state: &Valuation) -> Result<Frame, RuntimeError> {
        let unbound = |name: &Ident| RuntimeError::Unbound(name.clone());
        let scalars = self
            .shared
            .iter()
            .map(|s| {
                if s.is_bool {
                    state.boolean(&s.name).map(i64::from)
                } else {
                    state.int(&s.name)
                }
                .ok_or_else(|| unbound(&s.name))
            })
            .collect::<Result<Vec<i64>, _>>()?;
        let arrays = self
            .arrays
            .iter()
            .map(|name| state.array(name).cloned().ok_or_else(|| unbound(name)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Frame {
            scalars,
            arrays,
            scratch: Vec::new(),
            undo: Vec::new(),
        })
    }

    /// The frame as a named valuation: every shared scalar and array.
    pub fn snapshot(&self, frame: &Frame) -> Valuation {
        let mut out = Valuation::new();
        set_scalars(
            &mut out,
            &self.shared,
            frame.scalars.iter().copied().map(Some),
        );
        for (name, values) in self.arrays.iter().zip(&frame.arrays) {
            out.set_array(name.clone(), values.clone());
        }
        out
    }

    /// Converts a caller's bindings into a locals frame. A binding that names
    /// a thread-local at its declared sort is taken; one at the wrong sort,
    /// or naming nothing in the table, is ignored — no expression can read
    /// it, exactly as the interpreter would find the key missing.
    ///
    /// # Errors
    ///
    /// A binding that names a *shared* variable (scalar or array) is refused:
    /// the error is that name (the smallest, if there are several).
    pub fn bind(&self, bindings: &Valuation) -> Result<Locals, Ident> {
        let mut locals = Locals(vec![None; self.locals.len()]);
        let mut shared: Option<&Ident> = None;
        let ints = bindings.ints().map(|(n, v)| (n, Some((*v, false))));
        let bools = bindings
            .bools()
            .map(|(n, v)| (n, Some((i64::from(*v), true))));
        let arrays = bindings.arrays().map(|(n, _)| (n, None));
        for (name, value) in ints.chain(bools).chain(arrays) {
            match (self.slots.get(name), value) {
                (Some(Slot::Local(slot)), Some((value, is_bool)))
                    if self.locals[*slot as usize].is_bool == is_bool =>
                {
                    locals.0[*slot as usize] = Some(value);
                }
                (Some(Slot::Shared(_) | Slot::Array(_)), _)
                    if shared.is_none_or(|seen| name < seen) =>
                {
                    shared = Some(name);
                }
                _ => {}
            }
        }
        shared.map_or(Ok(locals), |name| Err(name.clone()))
    }

    /// The bound locals as a named valuation: the inverse of
    /// [`Layout::bind`]. No engine needs it (a call never hands its locals
    /// back); it is the differential oracle's view of a post-body locals
    /// frame, so it can be compared with the `Interpreter`'s `Valuation`.
    pub fn unbind(&self, locals: &Locals) -> Valuation {
        let mut out = Valuation::new();
        set_scalars(&mut out, &self.locals, locals.0.iter().copied());
        out
    }
}

fn set_scalars(out: &mut Valuation, scalars: &[Scalar], values: impl Iterator<Item = Option<i64>>) {
    for (scalar, value) in scalars.iter().zip(values) {
        match value {
            Some(value) if scalar.is_bool => out.set_bool(scalar.name.clone(), value != 0),
            Some(value) => out.set_int(scalar.name.clone(), value),
            None => continue,
        };
    }
}

/// The shared state of a monitor in [`Layout`] order.
///
/// Two frames are equal when their scalars and arrays are; the working
/// storage [`Program::exec`] keeps here between calls (so a call allocates
/// nothing) is not state.
#[derive(Debug, Clone)]
pub struct Frame {
    scalars: Vec<i64>,
    arrays: Vec<Vec<i64>>,
    /// The copy of `scalars` a body runs on.
    scratch: Vec<i64>,
    /// `(array, index, old value)` of every element the running body wrote.
    undo: Vec<(u32, usize, i64)>,
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.scalars == other.scalars && self.arrays == other.arrays
    }
}

impl Eq for Frame {}

impl Frame {
    /// The shared scalars in [`Layout`] order, booleans as `0`/`1`.
    pub fn scalars(&self) -> &[i64] {
        &self.scalars
    }

    /// The shared arrays in [`Layout`] order.
    pub fn arrays(&self) -> &[Vec<i64>] {
        &self.arrays
    }

    /// `(array, index, old value)` of every element the last
    /// [`Program::exec`] overwrote, in write order (empty after a fault: the
    /// elements are already back).
    pub fn overwritten(&self) -> &[(u32, usize, i64)] {
        &self.undo
    }

    /// Takes a committed [`Program::exec`] back: `scalars` as
    /// [`Frame::scalars`] read before it, `elements` as
    /// [`Frame::overwritten`] read after it (put back last write first).
    ///
    /// # Panics
    ///
    /// Panics if either was read from a frame of another layout.
    pub fn restore(&mut self, scalars: &[i64], elements: &[(u32, usize, i64)]) {
        self.scalars.copy_from_slice(scalars);
        for &(array, index, old) in elements.iter().rev() {
            self.arrays[array as usize][index] = old;
        }
    }
}

/// One caller's thread-local slots, each bound or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Locals(Vec<Option<i64>>);

impl Locals {
    /// The slots in [`Layout`] order, `None` where unbound.
    pub fn slots(&self) -> &[Option<i64>] {
        &self.0
    }

    /// Overwrites every slot with `slots`, as read from locals of the same
    /// layout, without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `slots` came from another layout.
    pub fn restore(&mut self, slots: &[Option<i64>]) {
        self.0.copy_from_slice(slots);
    }
}

/// A compiled boolean expression of a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeId(u32);

/// One expression node. Operands are indices of earlier nodes; every value
/// is an `i64`, booleans as `0`/`1` — sorts were resolved when the node was
/// built, so `==` on two booleans is `==` on two integers.
#[derive(Debug, Clone, Copy)]
enum Node {
    Const(i64),
    Shared(u32),
    Local(u32),
    Elem {
        array: u32,
        index: u32,
    },
    Neg(u32),
    Not(u32),
    Binary(BinOp, u32, u32),
    /// Raises `faults[_]`: where the interpreter meets an ill-sorted
    /// expression, an unknown name, or an array used as a scalar.
    Fault(u32),
    /// Evaluates `index`, then raises `ArrayAccess(names[name], index)`: a
    /// read of something that is not an array.
    NoArray {
        name: u32,
        index: u32,
    },
    /// Evaluates the first node for its errors only, then the second.
    Then(u32, u32),
}

#[derive(Debug, Clone)]
enum Step {
    Seq(Box<[Step]>),
    SetShared(u32, u32),
    SetLocal(u32, u32),
    SetElem { array: u32, index: u32, value: u32 },
    If(u32, Box<Step>, Box<Step>),
    While(u32, Box<Step>),
}

/// What an expression reads: the frame (or a body's working copy of its
/// scalars) and one caller's locals.
#[derive(Clone, Copy)]
struct View<'a> {
    scalars: &'a [i64],
    arrays: &'a [Vec<i64>],
    locals: &'a [Option<i64>],
}

/// What a running body writes.
struct Machine<'a> {
    scalars: &'a mut [i64],
    arrays: &'a mut [Vec<i64>],
    undo: &'a mut Vec<(u32, usize, i64)>,
    locals: &'a mut [Option<i64>],
}

impl Machine<'_> {
    fn view(&self) -> View<'_> {
        View {
            scalars: self.scalars,
            arrays: self.arrays,
            locals: self.locals,
        }
    }
}

/// A checked monitor's guards and bodies, compiled. See the module docs.
#[derive(Debug, Clone)]
pub struct Program {
    table: VarTable,
    layout: Layout,
    nodes: Vec<Node>,
    faults: Vec<RuntimeError>,
    names: Vec<Ident>,
    /// Guard and body of each CCR, indexed by `CcrId.0`.
    guards: Vec<CodeId>,
    bodies: Vec<Step>,
}

impl Program {
    /// Checks `monitor` and compiles every CCR guard and body.
    ///
    /// # Errors
    ///
    /// Returns what [`check_monitor`] finds; only a well-typed monitor has a
    /// program.
    pub fn new(monitor: &Monitor) -> Result<Program, Vec<CheckError>> {
        Ok(Program::checked(monitor, check_monitor(monitor)?))
    }

    /// Compiles every CCR guard and body of a monitor its caller has already
    /// checked: `table` must be what [`check_monitor`] returned for it.
    pub fn checked(monitor: &Monitor, table: VarTable) -> Program {
        let mut program = Program {
            layout: Layout::new(&table),
            table,
            nodes: Vec::new(),
            faults: Vec::new(),
            names: Vec::new(),
            guards: Vec::new(),
            bodies: Vec::new(),
        };
        for ccr in monitor.all_ccrs() {
            let guard = program.predicate(&ccr.guard);
            program.guards.push(guard);
            let body = program.step(&ccr.body);
            program.bodies.push(body);
        }
        program
    }

    /// The symbol table the monitor checked to.
    pub fn table(&self) -> &VarTable {
        &self.table
    }

    /// The variable layout frames and locals of this program follow.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The compiled guard of a CCR.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to the compiled monitor.
    pub fn guard(&self, ccr: CcrId) -> CodeId {
        self.guards[ccr.0]
    }

    /// Compiles one more boolean expression over the monitor's variables (a
    /// notification predicate, a guard-class representative). It need not be
    /// well-sorted: see the module docs.
    pub fn predicate(&mut self, expr: &Expr) -> CodeId {
        CodeId(self.boolean(expr))
    }

    /// Evaluates compiled boolean code.
    ///
    /// # Errors
    ///
    /// Returns the [`RuntimeError`] the interpreter's `eval_bool` would.
    pub fn eval(&self, code: CodeId, frame: &Frame, locals: &Locals) -> Result<bool, RuntimeError> {
        let view = View {
            scalars: &frame.scalars,
            arrays: &frame.arrays,
            locals: &locals.0,
        };
        Ok(self.value(code.0, view)? != 0)
    }

    /// Executes the body of a CCR, committing its writes to `frame` only if
    /// it runs to the end.
    ///
    /// # Errors
    ///
    /// Returns the [`RuntimeError`] the interpreter's `exec` would; `frame`
    /// is then exactly as it was (`locals` may keep writes made before the
    /// fault — the call that owns them is over).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to the compiled monitor.
    pub fn exec(
        &self,
        ccr: CcrId,
        frame: &mut Frame,
        locals: &mut Locals,
    ) -> Result<(), RuntimeError> {
        frame.scratch.clone_from(&frame.scalars);
        frame.undo.clear();
        let mut machine = Machine {
            scalars: &mut frame.scratch,
            arrays: &mut frame.arrays,
            undo: &mut frame.undo,
            locals: &mut locals.0,
        };
        let outcome = self.run(&self.bodies[ccr.0], &mut machine);
        match outcome {
            Ok(()) => std::mem::swap(&mut frame.scalars, &mut frame.scratch),
            Err(_) => {
                for (array, index, old) in frame.undo.drain(..).rev() {
                    frame.arrays[array as usize][index] = old;
                }
            }
        }
        outcome
    }

    fn value(&self, node: u32, view: View<'_>) -> Result<i64, RuntimeError> {
        match self.nodes[node as usize] {
            Node::Const(value) => Ok(value),
            Node::Shared(slot) => Ok(view.scalars[slot as usize]),
            Node::Local(slot) => view.locals[slot as usize].ok_or_else(|| {
                RuntimeError::Unbound(self.layout.locals[slot as usize].name.clone())
            }),
            Node::Elem { array, index } => {
                let i = self.value(index, view)?;
                usize::try_from(i)
                    .ok()
                    .and_then(|i| view.arrays[array as usize].get(i).copied())
                    .ok_or_else(|| self.array_access(array, i))
            }
            Node::Neg(inner) => Ok(self.value(inner, view)?.wrapping_neg()),
            Node::Not(inner) => Ok(i64::from(self.value(inner, view)? == 0)),
            Node::Binary(BinOp::And, lhs, rhs) => {
                if self.value(lhs, view)? == 0 {
                    Ok(0)
                } else {
                    self.value(rhs, view)
                }
            }
            Node::Binary(BinOp::Or, lhs, rhs) => {
                if self.value(lhs, view)? != 0 {
                    Ok(1)
                } else {
                    self.value(rhs, view)
                }
            }
            Node::Binary(op, lhs, rhs) => {
                let l = self.value(lhs, view)?;
                let r = self.value(rhs, view)?;
                Ok(match op {
                    BinOp::Add => l.wrapping_add(r),
                    BinOp::Sub => l.wrapping_sub(r),
                    BinOp::Mul => l.wrapping_mul(r),
                    BinOp::Rem if r == 0 => return Err(RuntimeError::DivisionByZero),
                    BinOp::Rem => l.wrapping_rem_euclid(r),
                    BinOp::Eq => i64::from(l == r),
                    BinOp::Ne => i64::from(l != r),
                    BinOp::Lt => i64::from(l < r),
                    BinOp::Le => i64::from(l <= r),
                    BinOp::Gt => i64::from(l > r),
                    BinOp::Ge => i64::from(l >= r),
                    BinOp::And | BinOp::Or => unreachable!("matched by the arms above"),
                })
            }
            Node::Fault(fault) => Err(self.faults[fault as usize].clone()),
            Node::NoArray { name, index } => {
                let i = self.value(index, view)?;
                Err(RuntimeError::ArrayAccess(
                    self.names[name as usize].clone(),
                    i,
                ))
            }
            Node::Then(first, then) => {
                self.value(first, view)?;
                self.value(then, view)
            }
        }
    }

    fn array_access(&self, array: u32, index: i64) -> RuntimeError {
        RuntimeError::ArrayAccess(self.layout.arrays[array as usize].clone(), index)
    }

    fn run(&self, step: &Step, machine: &mut Machine<'_>) -> Result<(), RuntimeError> {
        match step {
            Step::Seq(steps) => steps.iter().try_for_each(|s| self.run(s, machine)),
            Step::SetShared(slot, value) => {
                machine.scalars[*slot as usize] = self.value(*value, machine.view())?;
                Ok(())
            }
            Step::SetLocal(slot, value) => {
                machine.locals[*slot as usize] = Some(self.value(*value, machine.view())?);
                Ok(())
            }
            Step::SetElem {
                array,
                index,
                value,
            } => {
                let i = self.value(*index, machine.view())?;
                let v = self.value(*value, machine.view())?;
                let (at, element) = usize::try_from(i)
                    .ok()
                    .and_then(|at| Some((at, machine.arrays[*array as usize].get_mut(at)?)))
                    .ok_or_else(|| self.array_access(*array, i))?;
                machine.undo.push((*array, at, *element));
                *element = v;
                Ok(())
            }
            Step::If(cond, then, otherwise) => {
                if self.value(*cond, machine.view())? != 0 {
                    self.run(then, machine)
                } else {
                    self.run(otherwise, machine)
                }
            }
            Step::While(cond, body) => {
                let mut iterations = 0usize;
                while self.value(*cond, machine.view())? != 0 {
                    self.run(body, machine)?;
                    iterations += 1;
                    if iterations > LOOP_BUDGET {
                        return Err(RuntimeError::LoopBudgetExceeded(LOOP_BUDGET));
                    }
                }
                Ok(())
            }
        }
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        slot_index(self.nodes.len() - 1)
    }

    fn fault(&mut self, error: RuntimeError) -> u32 {
        self.faults.push(error);
        let fault = slot_index(self.faults.len() - 1);
        self.push(Node::Fault(fault))
    }

    fn mismatch(&mut self, message: String) -> u32 {
        self.fault(RuntimeError::SortMismatch(message))
    }

    /// Mirrors `Interpreter::eval_int`, arm for arm.
    fn integer(&mut self, expr: &Expr) -> u32 {
        match expr {
            Expr::Int(value) => self.push(Node::Const(*value)),
            Expr::Bool(_) | Expr::Unary(UnOp::Not, _) => {
                self.mismatch(format!("boolean `{expr}` used as integer"))
            }
            Expr::Var(name) => {
                if self.table.is_bool(name) {
                    return self.mismatch(format!("boolean variable `{name}` used as integer"));
                }
                match self.layout.slots.get(name) {
                    Some(Slot::Shared(slot)) => self.push(Node::Shared(*slot)),
                    Some(Slot::Local(slot)) => self.push(Node::Local(*slot)),
                    // No integer of that name can ever be bound.
                    Some(Slot::Array(_)) | None => self.fault(RuntimeError::Unbound(name.clone())),
                }
            }
            Expr::Index(array, index) => {
                let index = self.integer(index);
                match self.layout.slots.get(array) {
                    Some(Slot::Array(array)) => self.push(Node::Elem {
                        array: *array,
                        index,
                    }),
                    _ => {
                        self.names.push(array.clone());
                        let name = slot_index(self.names.len() - 1);
                        self.push(Node::NoArray { name, index })
                    }
                }
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let inner = self.integer(inner);
                self.push(Node::Neg(inner))
            }
            Expr::Binary(op, lhs, rhs) => {
                let lhs = self.integer(lhs);
                let rhs = self.integer(rhs);
                if op.is_boolean() {
                    // The interpreter evaluates both operands as integers
                    // before it looks at the operator.
                    let fault = self.mismatch(format!("boolean `{expr}` used as integer"));
                    let rest = self.push(Node::Then(rhs, fault));
                    self.push(Node::Then(lhs, rest))
                } else {
                    self.push(Node::Binary(*op, lhs, rhs))
                }
            }
        }
    }

    /// Mirrors `Interpreter::eval_bool`, arm for arm.
    fn boolean(&mut self, expr: &Expr) -> u32 {
        match expr {
            Expr::Bool(value) => self.push(Node::Const(i64::from(*value))),
            Expr::Int(_) | Expr::Unary(UnOp::Neg, _) => {
                self.mismatch(format!("integer `{expr}` used as boolean"))
            }
            Expr::Var(name) => match self.layout.slots.get(name) {
                Some(Slot::Shared(slot)) if self.table.is_bool(name) => {
                    self.push(Node::Shared(*slot))
                }
                Some(Slot::Local(slot)) if self.table.is_bool(name) => {
                    self.push(Node::Local(*slot))
                }
                _ => self.mismatch(format!("integer variable `{name}` used as boolean")),
            },
            Expr::Index(..) => self.mismatch(format!("array element `{expr}` used as boolean")),
            Expr::Unary(UnOp::Not, inner) => {
                let inner = self.boolean(inner);
                self.push(Node::Not(inner))
            }
            Expr::Binary(op, lhs, rhs) => {
                let operands_are_boolean = match op {
                    BinOp::And | BinOp::Or => true,
                    BinOp::Eq | BinOp::Ne => infer_type(lhs, &self.table) == Ok(Type::Bool),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => false,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Rem => {
                        return self.mismatch(format!("integer `{expr}` used as boolean"));
                    }
                };
                let (lhs, rhs) = if operands_are_boolean {
                    (self.boolean(lhs), self.boolean(rhs))
                } else {
                    (self.integer(lhs), self.integer(rhs))
                };
                self.push(Node::Binary(*op, lhs, rhs))
            }
        }
    }

    /// Compiles a statement of a checked body: `check_monitor` has already
    /// refused every assignment whose target is not a declared scalar (or
    /// array, for element writes), so each target has a slot.
    fn step(&mut self, stmt: &Stmt) -> Step {
        match stmt {
            Stmt::Skip => Step::Seq(Box::new([])),
            Stmt::Seq(parts) => Step::Seq(parts.iter().map(|s| self.step(s)).collect()),
            Stmt::Assign(name, value) | Stmt::Local(name, _, value) => {
                let value = if self.table.is_bool(name) {
                    self.boolean(value)
                } else {
                    self.integer(value)
                };
                match self.layout.slots.get(name) {
                    Some(Slot::Shared(slot)) => Step::SetShared(*slot, value),
                    Some(Slot::Local(slot)) => Step::SetLocal(*slot, value),
                    Some(Slot::Array(_)) | None => {
                        unreachable!("check_monitor admits only assignments to declared scalars")
                    }
                }
            }
            Stmt::ArrayAssign(array, index, value) => {
                let index = self.integer(index);
                let value = self.integer(value);
                match self.layout.slots.get(array) {
                    Some(Slot::Array(array)) => Step::SetElem {
                        array: *array,
                        index,
                        value,
                    },
                    _ => unreachable!("check_monitor admits only element writes to shared arrays"),
                }
            }
            Stmt::If(cond, then, otherwise) => Step::If(
                self.boolean(cond),
                Box::new(self.step(then)),
                Box::new(self.step(otherwise)),
            ),
            Stmt::While(cond, body) => Step::While(self.boolean(cond), Box::new(self.step(body))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{initial_state, Interpreter};
    use crate::parser::{parse_expr, parse_monitor};

    const BUFFER: &str = r#"
        monitor Buffer(int capacity) {
            int[] items = new int[capacity];
            int count = 0;
            bool open = true;
            atomic void put(int item) {
                waituntil (open && count < capacity) { items[count] = item; count++; }
            }
            atomic void stash(int at, int value) { count++; items[at] = value; }
        }
    "#;

    fn buffer() -> (Monitor, Program, Frame) {
        let monitor = parse_monitor(BUFFER).unwrap();
        let program = Program::new(&monitor).unwrap();
        let mut ctor = Valuation::new();
        ctor.set_int("capacity", 2);
        let initial = initial_state(&monitor, program.table(), &ctor).unwrap();
        let frame = program.layout().frame(&initial).unwrap();
        (monitor, program, frame)
    }

    fn bind(program: &Program, pairs: &[(&str, i64)]) -> Locals {
        let mut bindings = Valuation::new();
        for (name, value) in pairs {
            bindings.set_int(*name, *value);
        }
        program.layout().bind(&bindings).unwrap()
    }

    #[test]
    fn a_frame_round_trips_through_its_valuation() {
        let (monitor, program, frame) = buffer();
        let mut ctor = Valuation::new();
        ctor.set_int("capacity", 2);
        let initial = initial_state(&monitor, program.table(), &ctor).unwrap();
        assert_eq!(program.layout().snapshot(&frame), initial);
    }

    #[test]
    fn guards_and_bodies_run_on_slots() {
        let (monitor, program, mut frame) = buffer();
        let put = monitor.method("put").unwrap().ccrs[0];
        for item in [7, 9] {
            let mut locals = bind(&program, &[("item", item)]);
            assert_eq!(program.eval(program.guard(put), &frame, &locals), Ok(true));
            program.exec(put, &mut frame, &mut locals).unwrap();
        }
        let full = bind(&program, &[("item", 1)]);
        assert_eq!(program.eval(program.guard(put), &frame, &full), Ok(false));
        let state = program.layout().snapshot(&frame);
        assert_eq!(state.int("count"), Some(2));
        assert_eq!(state.array("items"), Some(&vec![7, 9]));
    }

    #[test]
    fn a_faulting_body_leaves_the_frame_as_it_was() {
        let (monitor, program, mut frame) = buffer();
        let stash = monitor.method("stash").unwrap().ccrs[0];
        program
            .exec(
                stash,
                &mut frame,
                &mut bind(&program, &[("at", 1), ("value", 5)]),
            )
            .unwrap();
        let before = frame.clone();
        // `count++` and nothing else ran; the element write is out of range.
        let err = program
            .exec(
                stash,
                &mut frame,
                &mut bind(&program, &[("at", 2), ("value", 6)]),
            )
            .unwrap_err();
        assert_eq!(err, RuntimeError::ArrayAccess("items".into(), 2));
        assert_eq!(frame, before);
        // An unsupplied parameter is unbound, by name.
        let err = program
            .exec(stash, &mut frame, &mut bind(&program, &[("at", 0)]))
            .unwrap_err();
        assert_eq!(err, RuntimeError::Unbound("value".into()));
        assert_eq!(frame, before);
    }

    #[test]
    fn shared_bindings_are_refused_and_unknown_ones_ignored() {
        let (_, program, _) = buffer();
        let mut bindings = Valuation::new();
        bindings.set_int("item", 1).set_int("nobody", 2);
        assert!(program.layout().bind(&bindings).is_ok());
        bindings.set_bool("open", false).set_int("count", 9);
        assert_eq!(program.layout().bind(&bindings), Err("count".to_string()));
        let mut array = Valuation::new();
        array.set_array("items", vec![1]);
        assert_eq!(program.layout().bind(&array), Err("items".to_string()));
    }

    #[test]
    fn ill_sorted_predicates_fault_where_the_interpreter_does() {
        let (monitor, mut program, frame) = buffer();
        let table = check_monitor(&monitor).unwrap();
        let interp = Interpreter::new(&table);
        let state = program.layout().snapshot(&frame);
        let locals = bind(&program, &[]);
        for text in [
            "count",
            "open < 1",
            "!open && count",
            "open || count",
            "(count + open) > 0",
            "(count < 1) + 1 > 0",
            "items > 0",
            "ghost[count] == 0",
            "count[0 % 0] == 0",
            "ghost",
            "ghost == 1",
            "-open == 1",
            "item == 1",
        ] {
            let expr = parse_expr(text).unwrap();
            let code = program.predicate(&expr);
            assert_eq!(
                program.eval(code, &frame, &locals),
                interp.eval_bool(&expr, &state),
                "{text}"
            );
        }
    }
}

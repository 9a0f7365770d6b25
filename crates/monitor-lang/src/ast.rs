//! Abstract syntax of the implicit-signal monitor language (paper Fig. 3).
//!
//! # Sharing
//!
//! A syntax tree is immutable after parsing; clones share. The parser
//! builds each of a [`Monitor`]'s parameter, field, method and CCR lists
//! once, as an `Arc<[_]>`, and puts every guard and the `requires` clause
//! behind an `Arc<Expr>`, so cloning a monitor copies its name and bumps
//! reference counts. Whatever is derived from the monitor —
//! [`Monitor::guards`], a notification's or a placement decision's
//! predicate — holds the very `Arc` of the CCR guard it names:
//! `Arc::ptr_eq` with that guard, and `==` against it answers from the
//! pointer before it looks at the tree. Nothing deep-clones a tree to pass
//! it on; code that wants a changed monitor (a test planting a bug, say)
//! builds new lists with `to_vec`, edits them and collects them back.

use expresso_logic::Ident;
use std::fmt;
use std::sync::Arc;

/// Types of monitor variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// Mathematical integer (models Java `int`/`long`/`unsigned int`).
    Int,
    /// Boolean.
    Bool,
    /// Integer array (used for buffers and per-philosopher state).
    IntArray,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => f.write_str("int"),
            Type::Bool => f.write_str("bool"),
            Type::IntArray => f.write_str("int[]"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `%` — only with a constant right operand (translated to divisibility).
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether the operator produces a boolean result.
    pub fn is_boolean(self) -> bool {
        !matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Rem)
    }

    /// Whether the operator compares two integer operands.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("!"),
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference (field, constructor parameter, method parameter or local).
    Var(Ident),
    /// Array element read `a[i]`.
    Index(Ident, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Integer literal helper.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Variable helper.
    pub fn var(name: impl Into<Ident>) -> Expr {
        Expr::Var(name.into())
    }

    /// Binary operation helper.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Collects every variable mentioned by the expression (array names included).
    pub fn collect_vars(&self, out: &mut std::collections::HashSet<Ident>) {
        match self {
            Expr::Int(_) | Expr::Bool(_) => {}
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Index(a, idx) => {
                out.insert(a.clone());
                idx.collect_vars(out);
            }
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    /// Returns every variable mentioned by the expression.
    pub fn vars(&self) -> std::collections::HashSet<Ident> {
        let mut out = std::collections::HashSet::new();
        self.collect_vars(&mut out);
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Index(a, idx) => write!(f, "{a}[{idx}]"),
            Expr::Unary(op, e) => write!(f, "{op}{e}"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

/// Statements (bodies of conditional critical regions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// No-op.
    Skip,
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// Assignment to a scalar variable.
    Assign(Ident, Expr),
    /// Assignment to an array element `a[i] = e`.
    ArrayAssign(Ident, Expr, Expr),
    /// Declaration of a method-local variable with an initialiser.
    Local(Ident, Type, Expr),
    /// Conditional.
    If(Expr, Box<Stmt>, Box<Stmt>),
    /// Loop.
    While(Expr, Box<Stmt>),
}

impl Stmt {
    /// Sequential composition helper that flattens nested sequences and drops skips.
    pub fn seq(stmts: Vec<Stmt>) -> Stmt {
        let mut flat = Vec::new();
        for s in stmts {
            match s {
                Stmt::Skip => {}
                Stmt::Seq(inner) => {
                    flat.extend(inner.into_iter().filter(|s| *s != Stmt::Skip));
                }
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Stmt::Skip,
            1 => flat.pop().expect("len checked"),
            _ => Stmt::Seq(flat),
        }
    }

    /// The set of scalar variables (and arrays) this statement may modify.
    pub fn assigned_vars(&self) -> std::collections::HashSet<Ident> {
        let mut out = std::collections::HashSet::new();
        self.collect_assigned(&mut out);
        out
    }

    fn collect_assigned(&self, out: &mut std::collections::HashSet<Ident>) {
        match self {
            Stmt::Skip => {}
            Stmt::Seq(parts) => parts.iter().for_each(|s| s.collect_assigned(out)),
            Stmt::Assign(v, _) | Stmt::Local(v, _, _) => {
                out.insert(v.clone());
            }
            Stmt::ArrayAssign(a, _, _) => {
                out.insert(a.clone());
            }
            Stmt::If(_, t, e) => {
                t.collect_assigned(out);
                e.collect_assigned(out);
            }
            Stmt::While(_, b) => b.collect_assigned(out),
        }
    }

    /// The set of variables read by this statement (including guard expressions).
    pub fn read_vars(&self) -> std::collections::HashSet<Ident> {
        let mut out = std::collections::HashSet::new();
        self.collect_read(&mut out);
        out
    }

    fn collect_read(&self, out: &mut std::collections::HashSet<Ident>) {
        match self {
            Stmt::Skip => {}
            Stmt::Seq(parts) => parts.iter().for_each(|s| s.collect_read(out)),
            Stmt::Assign(_, e) | Stmt::Local(_, _, e) => e.collect_vars(out),
            Stmt::ArrayAssign(a, i, e) => {
                out.insert(a.clone());
                i.collect_vars(out);
                e.collect_vars(out);
            }
            Stmt::If(c, t, e) => {
                c.collect_vars(out);
                t.collect_read(out);
                e.collect_read(out);
            }
            Stmt::While(c, b) => {
                c.collect_vars(out);
                b.collect_read(out);
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_stmt(f, self, 0)
    }
}

fn write_stmt(f: &mut fmt::Formatter<'_>, stmt: &Stmt, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match stmt {
        Stmt::Skip => writeln!(f, "{pad}skip;"),
        Stmt::Seq(parts) => {
            for p in parts {
                write_stmt(f, p, indent)?;
            }
            Ok(())
        }
        Stmt::Assign(v, e) => writeln!(f, "{pad}{v} = {e};"),
        Stmt::ArrayAssign(a, i, e) => writeln!(f, "{pad}{a}[{i}] = {e};"),
        Stmt::Local(v, ty, e) => writeln!(f, "{pad}{ty} {v} = {e};"),
        Stmt::If(c, t, e) => {
            writeln!(f, "{pad}if ({c}) {{")?;
            write_stmt(f, t, indent + 1)?;
            if **e == Stmt::Skip {
                writeln!(f, "{pad}}}")
            } else {
                writeln!(f, "{pad}}} else {{")?;
                write_stmt(f, e, indent + 1)?;
                writeln!(f, "{pad}}}")
            }
        }
        Stmt::While(c, b) => {
            writeln!(f, "{pad}while ({c}) {{")?;
            write_stmt(f, b, indent + 1)?;
            writeln!(f, "{pad}}}")
        }
    }
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: Ident,
    /// Field type.
    pub ty: Type,
    /// Scalar initialiser (defaults to `0`/`false` when absent).
    pub init: Option<Expr>,
    /// For arrays: the length expression from `new int[len]`.
    pub array_len: Option<Expr>,
}

/// A formal parameter (of the monitor constructor or of a method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Ident,
    /// Parameter type.
    pub ty: Type,
}

/// A unique identifier for a conditional critical region within a monitor.
///
/// CCRs are numbered globally in declaration order, so the identifier doubles
/// as an index into [`Monitor::ccrs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CcrId(pub usize);

impl fmt::Display for CcrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ccr{}", self.0)
    }
}

/// A conditional critical region `waituntil(guard) { body }`.
///
/// A plain statement is represented as a CCR whose guard is the literal `true`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ccr {
    /// Global identifier of this CCR.
    pub id: CcrId,
    /// The method this CCR belongs to (index into [`Monitor::methods`]).
    pub method: usize,
    /// Position of this CCR within its method.
    pub position: usize,
    /// The blocking guard, shared with every notification and decision
    /// that names it.
    pub guard: Arc<Expr>,
    /// The body executed atomically once the guard holds.
    pub body: Stmt,
}

impl Ccr {
    /// Whether the guard is syntactically `true` (the CCR never blocks).
    pub fn never_blocks(&self) -> bool {
        *self.guard == Expr::Bool(true)
    }
}

/// A monitor method: an `atomic` procedure made of a sequence of CCRs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// Method name.
    pub name: Ident,
    /// Formal parameters (thread-local).
    pub params: Vec<Param>,
    /// The CCRs making up the body, in execution order (global ids).
    pub ccrs: Vec<CcrId>,
}

/// An implicit-signal monitor (paper Fig. 3). Cloning it shares every list
/// (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Monitor {
    /// Monitor name.
    pub name: Ident,
    /// Constructor parameters (shared, immutable after construction).
    pub params: Arc<[Param]>,
    /// Constructor precondition (`requires` clause), assumed at initialisation.
    pub requires: Option<Arc<Expr>>,
    /// Field declarations.
    pub fields: Arc<[Field]>,
    /// Methods.
    pub methods: Arc<[Method]>,
    /// All CCRs, indexed by [`CcrId`].
    pub ccrs: Arc<[Ccr]>,
}

impl Monitor {
    /// Returns the CCR with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this monitor.
    pub fn ccr(&self, id: CcrId) -> &Ccr {
        &self.ccrs[id.0]
    }

    /// Iterates over all CCRs of the monitor (the paper's `CCRs(M)`).
    pub fn all_ccrs(&self) -> impl Iterator<Item = &Ccr> {
        self.ccrs.iter()
    }

    /// Returns the method that owns a CCR.
    pub fn method_of(&self, id: CcrId) -> &Method {
        &self.methods[self.ccrs[id.0].method]
    }

    /// Returns the distinct blocking guards of the monitor (the paper's
    /// `Guards(M)`), excluding the trivial guard `true`: each is the `Arc`
    /// of the first CCR that waits on it.
    pub fn guards(&self) -> Vec<Arc<Expr>> {
        let mut out: Vec<Arc<Expr>> = Vec::new();
        for ccr in self.ccrs.iter() {
            if !ccr.never_blocks() && !out.contains(&ccr.guard) {
                out.push(Arc::clone(&ccr.guard));
            }
        }
        out
    }

    /// Returns a human-readable label for a CCR, e.g. `enterWriter[0]`.
    pub fn ccr_label(&self, id: CcrId) -> String {
        let ccr = self.ccr(id);
        format!("{}[{}]", self.methods[ccr.method].name, ccr.position)
    }

    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// The constructor body: every field initialisation as an assignment, in
    /// declaration order (the paper's `Ctr(M)`).
    pub fn constructor_body(&self) -> Stmt {
        let mut stmts = Vec::new();
        for field in self.fields.iter() {
            match field.ty {
                Type::Int => {
                    let init = field.init.clone().unwrap_or(Expr::Int(0));
                    stmts.push(Stmt::Assign(field.name.clone(), init));
                }
                Type::Bool => {
                    let init = field.init.clone().unwrap_or(Expr::Bool(false));
                    stmts.push(Stmt::Assign(field.name.clone(), init));
                }
                Type::IntArray => {
                    // Array contents start zeroed; nothing to say about scalars.
                }
            }
        }
        Stmt::seq(stmts)
    }
}

impl fmt::Display for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "monitor {}", self.name)?;
        if !self.params.is_empty() {
            let params: Vec<String> = self
                .params
                .iter()
                .map(|p| format!("{} {}", p.ty, p.name))
                .collect();
            write!(f, "({})", params.join(", "))?;
        }
        if let Some(req) = &self.requires {
            write!(f, " requires {req}")?;
        }
        writeln!(f, " {{")?;
        for field in self.fields.iter() {
            match field.ty {
                Type::IntArray => {
                    let len = field
                        .array_len
                        .as_ref()
                        .map(|e| e.to_string())
                        .unwrap_or_default();
                    writeln!(f, "  int[] {} = new int[{len}];", field.name)?;
                }
                _ => match &field.init {
                    Some(init) => writeln!(f, "  {} {} = {init};", field.ty, field.name)?,
                    None => writeln!(f, "  {} {};", field.ty, field.name)?,
                },
            }
        }
        for method in self.methods.iter() {
            let params: Vec<String> = method
                .params
                .iter()
                .map(|p| format!("{} {}", p.ty, p.name))
                .collect();
            writeln!(
                f,
                "\n  atomic void {}({}) {{",
                method.name,
                params.join(", ")
            )?;
            for &id in &method.ccrs {
                let ccr = self.ccr(id);
                if ccr.never_blocks() {
                    let rendered = format!("{}", ccr.body);
                    for line in rendered.lines() {
                        writeln!(f, "    {line}")?;
                    }
                } else {
                    writeln!(f, "    waituntil ({}) {{", ccr.guard)?;
                    let rendered = format!("{}", ccr.body);
                    for line in rendered.lines() {
                        writeln!(f, "      {line}")?;
                    }
                    writeln!(f, "    }}")?;
                }
            }
            writeln!(f, "  }}")?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_flattens_and_drops_skip() {
        let s = Stmt::seq(vec![
            Stmt::Skip,
            Stmt::Assign("x".into(), Expr::int(1)),
            Stmt::Seq(vec![Stmt::Assign("y".into(), Expr::int(2)), Stmt::Skip]),
        ]);
        match s {
            Stmt::Seq(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn assigned_and_read_vars() {
        let s = Stmt::If(
            Expr::binary(BinOp::Gt, Expr::var("readers"), Expr::int(0)),
            Box::new(Stmt::Assign(
                "readers".into(),
                Expr::binary(BinOp::Sub, Expr::var("readers"), Expr::int(1)),
            )),
            Box::new(Stmt::Skip),
        );
        assert!(s.assigned_vars().contains("readers"));
        assert!(s.read_vars().contains("readers"));
    }

    #[test]
    fn expr_display_is_parenthesised() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Eq, Expr::var("readers"), Expr::int(0)),
            Expr::Unary(UnOp::Not, Box::new(Expr::var("writerIn"))),
        );
        assert_eq!(e.to_string(), "((readers == 0) && !writerIn)");
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::And.is_boolean());
        assert!(BinOp::Lt.is_boolean());
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_boolean());
        assert!(!BinOp::And.is_comparison());
    }
}

//! Canonical bytes of the AST: one injective encoding of types, expressions,
//! statements and whole monitors, and the little-endian [`Writer`] it is
//! written with.
//!
//! Two values are written as the same bytes exactly when they are `==`:
//! every enum is a one-byte tag followed by its fields in declaration order,
//! every variable-length part carries its length. That makes the bytes a
//! cache identity. The WP memo (`expresso-vcgen`) keys a statement by them,
//! the artifact (`expresso-persist`) stores them as they are, and an outcome
//! record is filed under the bytes of its monitor. There is no decoder:
//! nothing ever turns the bytes back into an AST, it only compares them.
//!
//! Each struct is taken apart by an exhaustive pattern and every `match`
//! names all variants: a field or variant added to the AST does not compile
//! here until it is written too. One that silently stayed out of the bytes
//! would have two different statements (or monitors) share an answer.

use crate::ast::{BinOp, Ccr, CcrId, Expr, Field, Method, Monitor, Param, Stmt, Type, UnOp};

/// Append-only little-endian byte sink: fixed-width integers,
/// length-prefixed strings and sequences, one-byte tags.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A bool as one byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Four bytes, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A string: its byte length, then its UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.seq(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length prefix of a sequence whose items the caller writes next.
    pub fn seq(&mut self, len: usize) {
        self.u32(len as u32);
    }

    /// Bytes that are already an encoding, appended as they are.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A type: one tag.
pub fn write_type(w: &mut Writer, ty: Type) {
    w.u8(match ty {
        Type::Int => 0,
        Type::Bool => 1,
        Type::IntArray => 2,
    });
}

/// An optional type: 0, or 1 and the type.
pub fn write_opt_type(w: &mut Writer, ty: Option<Type>) {
    match ty {
        None => w.u8(0),
        Some(ty) => {
            w.u8(1);
            write_type(w, ty);
        }
    }
}

fn write_un_op(w: &mut Writer, op: UnOp) {
    w.u8(match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
    });
}

fn write_bin_op(w: &mut Writer, op: BinOp) {
    w.u8(match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Rem => 3,
        BinOp::Eq => 4,
        BinOp::Ne => 5,
        BinOp::Lt => 6,
        BinOp::Le => 7,
        BinOp::Gt => 8,
        BinOp::Ge => 9,
        BinOp::And => 10,
        BinOp::Or => 11,
    });
}

/// An expression, prefix order.
pub fn write_expr(w: &mut Writer, expr: &Expr) {
    match expr {
        Expr::Int(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Expr::Bool(v) => {
            w.u8(1);
            w.bool(*v);
        }
        Expr::Var(name) => {
            w.u8(2);
            w.str(name);
        }
        Expr::Index(array, index) => {
            w.u8(3);
            w.str(array);
            write_expr(w, index);
        }
        Expr::Unary(op, inner) => {
            w.u8(4);
            write_un_op(w, *op);
            write_expr(w, inner);
        }
        Expr::Binary(op, lhs, rhs) => {
            w.u8(5);
            write_bin_op(w, *op);
            write_expr(w, lhs);
            write_expr(w, rhs);
        }
    }
}

/// A statement, prefix order.
pub fn write_stmt(w: &mut Writer, stmt: &Stmt) {
    match stmt {
        Stmt::Skip => w.u8(0),
        Stmt::Seq(parts) => {
            w.u8(1);
            w.seq(parts.len());
            parts.iter().for_each(|s| write_stmt(w, s));
        }
        Stmt::Assign(name, expr) => {
            w.u8(2);
            w.str(name);
            write_expr(w, expr);
        }
        Stmt::ArrayAssign(name, index, value) => {
            w.u8(3);
            w.str(name);
            write_expr(w, index);
            write_expr(w, value);
        }
        Stmt::Local(name, ty, init) => {
            w.u8(4);
            w.str(name);
            write_type(w, *ty);
            write_expr(w, init);
        }
        Stmt::If(cond, then_branch, else_branch) => {
            w.u8(5);
            write_expr(w, cond);
            write_stmt(w, then_branch);
            write_stmt(w, else_branch);
        }
        Stmt::While(cond, body) => {
            w.u8(6);
            write_expr(w, cond);
            write_stmt(w, body);
        }
    }
}

fn write_opt_expr(w: &mut Writer, expr: Option<&Expr>) {
    match expr {
        None => w.u8(0),
        Some(expr) => {
            w.u8(1);
            write_expr(w, expr);
        }
    }
}

fn write_params(w: &mut Writer, params: &[Param]) {
    w.seq(params.len());
    for Param { name, ty } in params {
        w.str(name);
        write_type(w, *ty);
    }
}

/// Every field of the parsed monitor, in declaration order. The AST carries
/// no spans: layout and comments never reach the bytes.
pub fn write_monitor(w: &mut Writer, monitor: &Monitor) {
    let Monitor {
        name,
        params,
        requires,
        fields,
        methods,
        ccrs,
    } = monitor;
    w.str(name);
    write_params(w, params);
    write_opt_expr(w, requires.as_deref());
    w.seq(fields.len());
    for field in fields.iter() {
        let Field {
            name,
            ty,
            init,
            array_len,
        } = field;
        w.str(name);
        write_type(w, *ty);
        write_opt_expr(w, init.as_ref());
        write_opt_expr(w, array_len.as_ref());
    }
    w.seq(methods.len());
    for method in methods.iter() {
        let Method { name, params, ccrs } = method;
        w.str(name);
        write_params(w, params);
        w.seq(ccrs.len());
        ccrs.iter().for_each(|CcrId(id)| w.u64(*id as u64));
    }
    w.seq(ccrs.len());
    for ccr in ccrs.iter() {
        let Ccr {
            id: CcrId(id),
            method,
            position,
            guard,
            body,
        } = ccr;
        w.u64(*id as u64);
        w.u64(*method as u64);
        w.u64(*position as u64);
        write_expr(w, guard);
        write_stmt(w, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_expr;

    fn bytes_of(stmt: &Stmt) -> Vec<u8> {
        let mut w = Writer::new();
        write_stmt(&mut w, stmt);
        w.into_bytes()
    }

    #[test]
    fn equal_statements_and_only_they_share_bytes() {
        let assign = |name: &str, expr: &str| Stmt::Assign(name.into(), parse_expr(expr).unwrap());
        let statements = [
            Stmt::Skip,
            assign("x", "x + 1"),
            assign("x", "x - 1"),
            assign("y", "x + 1"),
            assign("x", "1 + x"),
            Stmt::seq(vec![assign("x", "x + 1"), assign("y", "y")]),
            Stmt::seq(vec![assign("y", "y"), assign("x", "x + 1")]),
            Stmt::If(
                parse_expr("x > 0").unwrap(),
                Box::new(assign("x", "x - 1")),
                Box::new(Stmt::Skip),
            ),
            Stmt::Local("t".into(), Type::Int, parse_expr("x").unwrap()),
            Stmt::Local("t".into(), Type::Bool, parse_expr("x").unwrap()),
        ];
        for (i, a) in statements.iter().enumerate() {
            assert_eq!(bytes_of(a), bytes_of(&a.clone()));
            for b in &statements[i + 1..] {
                assert_ne!(bytes_of(a), bytes_of(b), "{a:?} and {b:?} share bytes");
            }
        }
    }
}

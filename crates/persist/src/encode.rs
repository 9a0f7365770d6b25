//! Row and tree codecs: the node-table rows, statements, expressions,
//! whole monitors (write-only: outcome keys), verdicts and the error enums
//! that appear inside cached values.
//!
//! Every enum is encoded as a one-byte tag followed by its fields in
//! declaration order. The decoders mirror the encoders exactly; an unknown
//! tag is a [`DecodeError`], never a panic, so a schema drift that slips past
//! the format version check still degrades to a cold start.
//!
//! Formula and term rows decode without recursion — a row's children are row
//! numbers, read through [`Reader::row`], which rejects anything that is not
//! a strictly earlier row. Statements and expressions are still trees on
//! disk (they are small and barely shared); their decoders recurse, so their
//! nesting is capped at [`MAX_NESTING`] and the exporter leaves out what the
//! loader would refuse.

use crate::codec::{err, DecodeError, Reader, Writer};
use crate::table::{FormulaRow, Row, TermRow};
use expresso_logic::{CmpOp, Quantifier};
use expresso_monitor_lang::{
    BinOp, Ccr, CcrId, Expr, Field, LowerError, Method, Monitor, Param, Stmt, Type, UnOp,
};
use expresso_smt::{SatResult, SolverError, TranslateError};
use expresso_vcgen::WpError;

// ---------------------------------------------------------------------------
// Term and formula rows
// ---------------------------------------------------------------------------

fn write_rows(w: &mut Writer, rows: &[Row]) {
    w.seq(rows.len());
    rows.iter().for_each(|&r| w.u32(r));
}

fn read_rows(r: &mut Reader, limit: usize) -> Result<Vec<Row>, DecodeError> {
    (0..r.seq()?).map(|_| r.row(limit)).collect()
}

pub fn write_term_row(w: &mut Writer, row: &TermRow) {
    match row {
        TermRow::Int(v) => {
            w.u8(0);
            w.i64(*v);
        }
        TermRow::Var(name) => {
            w.u8(1);
            w.str(name);
        }
        TermRow::Add(parts) => {
            w.u8(2);
            write_rows(w, parts);
        }
        TermRow::Sub(a, b) => {
            w.u8(3);
            w.u32(*a);
            w.u32(*b);
        }
        TermRow::Neg(a) => {
            w.u8(4);
            w.u32(*a);
        }
        TermRow::Mul(a, b) => {
            w.u8(5);
            w.u32(*a);
            w.u32(*b);
        }
        TermRow::Select(array, index) => {
            w.u8(6);
            w.str(array);
            w.u32(*index);
        }
    }
}

/// Reads the term row numbered `earlier`: its children must be rows below
/// that number (no forward reference, no self reference, hence no cycle).
pub fn read_term_row(r: &mut Reader, earlier: usize) -> Result<TermRow, DecodeError> {
    Ok(match r.u8()? {
        0 => TermRow::Int(r.i64()?),
        1 => TermRow::Var(r.str()?),
        2 => TermRow::Add(read_rows(r, earlier)?),
        3 => TermRow::Sub(r.row(earlier)?, r.row(earlier)?),
        4 => TermRow::Neg(r.row(earlier)?),
        5 => TermRow::Mul(r.row(earlier)?, r.row(earlier)?),
        6 => TermRow::Select(r.str()?, r.row(earlier)?),
        other => return err(format!("invalid term tag {other}")),
    })
}

fn write_cmp_op(w: &mut Writer, op: CmpOp) {
    w.u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn read_cmp_op(r: &mut Reader) -> Result<CmpOp, DecodeError> {
    Ok(match r.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return err(format!("invalid comparison tag {other}")),
    })
}

pub fn write_formula_row(w: &mut Writer, row: &FormulaRow) {
    match row {
        FormulaRow::True => w.u8(0),
        FormulaRow::False => w.u8(1),
        FormulaRow::BoolVar(name) => {
            w.u8(2);
            w.str(name);
        }
        FormulaRow::Cmp(op, lhs, rhs) => {
            w.u8(3);
            write_cmp_op(w, *op);
            w.u32(*lhs);
            w.u32(*rhs);
        }
        FormulaRow::Divides(d, t) => {
            w.u8(4);
            w.u64(*d);
            w.u32(*t);
        }
        FormulaRow::Not(inner) => {
            w.u8(5);
            w.u32(*inner);
        }
        FormulaRow::And(parts) => {
            w.u8(6);
            write_rows(w, parts);
        }
        FormulaRow::Or(parts) => {
            w.u8(7);
            write_rows(w, parts);
        }
        FormulaRow::Implies(p, q) => {
            w.u8(8);
            w.u32(*p);
            w.u32(*q);
        }
        FormulaRow::Iff(p, q) => {
            w.u8(9);
            w.u32(*p);
            w.u32(*q);
        }
        FormulaRow::Quant(q, vars, body) => {
            w.u8(10);
            w.u8(match q {
                Quantifier::Forall => 0,
                Quantifier::Exists => 1,
            });
            w.seq(vars.len());
            vars.iter().for_each(|v| w.str(v));
            w.u32(*body);
        }
    }
}

/// Reads the formula row numbered `earlier`: formula children must be rows
/// below that number, term children rows of the `terms`-row term table.
pub fn read_formula_row(
    r: &mut Reader,
    earlier: usize,
    terms: usize,
) -> Result<FormulaRow, DecodeError> {
    Ok(match r.u8()? {
        0 => FormulaRow::True,
        1 => FormulaRow::False,
        2 => FormulaRow::BoolVar(r.str()?),
        3 => FormulaRow::Cmp(read_cmp_op(r)?, r.row(terms)?, r.row(terms)?),
        4 => FormulaRow::Divides(r.u64()?, r.row(terms)?),
        5 => FormulaRow::Not(r.row(earlier)?),
        6 => FormulaRow::And(read_rows(r, earlier)?),
        7 => FormulaRow::Or(read_rows(r, earlier)?),
        8 => FormulaRow::Implies(r.row(earlier)?, r.row(earlier)?),
        9 => FormulaRow::Iff(r.row(earlier)?, r.row(earlier)?),
        10 => {
            let q = match r.u8()? {
                0 => Quantifier::Forall,
                1 => Quantifier::Exists,
                other => return err(format!("invalid quantifier tag {other}")),
            };
            let n = r.seq()?;
            let vars = (0..n).map(|_| r.str()).collect::<Result<_, _>>()?;
            FormulaRow::Quant(q, vars, r.row(earlier)?)
        }
        other => return err(format!("invalid formula tag {other}")),
    })
}

// ---------------------------------------------------------------------------
// Statements and expressions (WP-store keys)
// ---------------------------------------------------------------------------

fn write_type(w: &mut Writer, ty: Type) {
    w.u8(match ty {
        Type::Int => 0,
        Type::Bool => 1,
        Type::IntArray => 2,
    });
}

fn read_type(r: &mut Reader) -> Result<Type, DecodeError> {
    Ok(match r.u8()? {
        0 => Type::Int,
        1 => Type::Bool,
        2 => Type::IntArray,
        other => return err(format!("invalid type tag {other}")),
    })
}

pub fn write_opt_type(w: &mut Writer, ty: Option<Type>) {
    match ty {
        None => w.u8(0),
        Some(ty) => {
            w.u8(1);
            write_type(w, ty);
        }
    }
}

pub fn read_opt_type(r: &mut Reader) -> Result<Option<Type>, DecodeError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(read_type(r)?),
        other => return err(format!("invalid option tag {other}")),
    })
}

fn write_un_op(w: &mut Writer, op: UnOp) {
    w.u8(match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
    });
}

fn read_un_op(r: &mut Reader) -> Result<UnOp, DecodeError> {
    Ok(match r.u8()? {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        other => return err(format!("invalid unary-op tag {other}")),
    })
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

fn read_bin_op(r: &mut Reader) -> Result<BinOp, DecodeError> {
    Ok(match r.u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Rem,
        4 => BinOp::Eq,
        5 => BinOp::Ne,
        6 => BinOp::Lt,
        7 => BinOp::Le,
        8 => BinOp::Gt,
        9 => BinOp::Ge,
        10 => BinOp::And,
        11 => BinOp::Or,
        other => return err(format!("invalid binary-op tag {other}")),
    })
}

fn write_expr(w: &mut Writer, expr: &Expr) {
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

/// Deepest statement/expression nesting the artifact carries: the parser's
/// own limit. The decoders below recurse once per level, so without a cap a
/// payload of repeated one-byte `Unary` tags (with a correct checksum) would
/// overflow the stack — an abort, not the `Corrupt` the crate promises.
/// [`nesting`] lets the exporter skip the rest.
pub use expresso_monitor_lang::MAX_NESTING;

fn descend(depth: usize) -> Result<usize, DecodeError> {
    depth
        .checked_sub(1)
        .ok_or_else(|| DecodeError(format!("statement nests deeper than {MAX_NESTING} levels")))
}

fn read_expr(r: &mut Reader, depth: usize) -> Result<Expr, DecodeError> {
    let depth = descend(depth)?;
    Ok(match r.u8()? {
        0 => Expr::Int(r.i64()?),
        1 => Expr::Bool(r.bool()?),
        2 => Expr::Var(r.str()?),
        3 => Expr::Index(r.str()?, Box::new(read_expr(r, depth)?)),
        4 => Expr::Unary(read_un_op(r)?, Box::new(read_expr(r, depth)?)),
        5 => Expr::Binary(
            read_bin_op(r)?,
            Box::new(read_expr(r, depth)?),
            Box::new(read_expr(r, depth)?),
        ),
        other => return err(format!("invalid expression tag {other}")),
    })
}

fn expr_nesting(expr: &Expr) -> usize {
    1 + match expr {
        Expr::Int(_) | Expr::Bool(_) | Expr::Var(_) => 0,
        Expr::Index(_, inner) | Expr::Unary(_, inner) => expr_nesting(inner),
        Expr::Binary(_, lhs, rhs) => expr_nesting(lhs).max(expr_nesting(rhs)),
    }
}

/// Levels of statement/expression nesting in `stmt`, as [`read_stmt`]
/// counts them: a statement the loader accepts has `nesting <= MAX_NESTING`.
pub fn nesting(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::Skip => 0,
        Stmt::Seq(parts) => parts.iter().map(nesting).max().unwrap_or(0),
        Stmt::Assign(_, expr) | Stmt::Local(_, _, expr) => expr_nesting(expr),
        Stmt::ArrayAssign(_, index, value) => expr_nesting(index).max(expr_nesting(value)),
        Stmt::If(cond, a, b) => expr_nesting(cond).max(nesting(a)).max(nesting(b)),
        Stmt::While(cond, body) => expr_nesting(cond).max(nesting(body)),
    }
}

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

pub fn read_stmt(r: &mut Reader) -> Result<Stmt, DecodeError> {
    read_stmt_within(r, MAX_NESTING)
}

fn read_stmt_within(r: &mut Reader, depth: usize) -> Result<Stmt, DecodeError> {
    let depth = descend(depth)?;
    Ok(match r.u8()? {
        0 => Stmt::Skip,
        1 => {
            let n = r.seq()?;
            Stmt::Seq(
                (0..n)
                    .map(|_| read_stmt_within(r, depth))
                    .collect::<Result<_, _>>()?,
            )
        }
        2 => Stmt::Assign(r.str()?, read_expr(r, depth)?),
        3 => Stmt::ArrayAssign(r.str()?, read_expr(r, depth)?, read_expr(r, depth)?),
        4 => Stmt::Local(r.str()?, read_type(r)?, read_expr(r, depth)?),
        5 => Stmt::If(
            read_expr(r, depth)?,
            Box::new(read_stmt_within(r, depth)?),
            Box::new(read_stmt_within(r, depth)?),
        ),
        6 => Stmt::While(read_expr(r, depth)?, Box::new(read_stmt_within(r, depth)?)),
        other => return err(format!("invalid statement tag {other}")),
    })
}

// ---------------------------------------------------------------------------
// Monitors (outcome keys)
// ---------------------------------------------------------------------------

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

/// Every field of the parsed monitor, in declaration order. The encoding is
/// injective — every variable-length part carries its length, every choice a
/// tag — so two monitors are written as the same bytes exactly when they are
/// `==`. The AST carries no spans: layout and comments never reach it. There
/// is no reader; an outcome key is only ever compared.
///
/// Each struct is taken apart by an exhaustive pattern (and `write_expr` /
/// `write_stmt` match without a wildcard): a field or variant added to the
/// AST does not compile here until it is written too. One that silently
/// stayed out of the key would have two different monitors share an answer.
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
    write_opt_expr(w, requires.as_ref());
    w.seq(fields.len());
    for field in fields {
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
    for method in methods {
        let Method { name, params, ccrs } = method;
        w.str(name);
        write_params(w, params);
        w.seq(ccrs.len());
        ccrs.iter().for_each(|CcrId(id)| w.u64(*id as u64));
    }
    w.seq(ccrs.len());
    for ccr in ccrs {
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

// ---------------------------------------------------------------------------
// Cached values: verdicts and error enums
// ---------------------------------------------------------------------------

pub fn write_sat_result(w: &mut Writer, result: &SatResult) {
    match result {
        SatResult::Sat => w.u8(0),
        SatResult::Unsat => w.u8(1),
        SatResult::Unknown(e) => {
            w.u8(2);
            write_solver_error(w, e);
        }
    }
}

pub fn read_sat_result(r: &mut Reader) -> Result<SatResult, DecodeError> {
    Ok(match r.u8()? {
        0 => SatResult::Sat,
        1 => SatResult::Unsat,
        2 => SatResult::Unknown(read_solver_error(r)?),
        other => return err(format!("invalid sat-result tag {other}")),
    })
}

fn write_solver_error(w: &mut Writer, e: &SolverError) {
    match e {
        SolverError::OutsideFragment(m) => {
            w.u8(0);
            w.str(m);
        }
        SolverError::ResourceLimit(m) => {
            w.u8(1);
            w.str(m);
        }
    }
}

fn read_solver_error(r: &mut Reader) -> Result<SolverError, DecodeError> {
    Ok(match r.u8()? {
        0 => SolverError::OutsideFragment(r.str()?),
        1 => SolverError::ResourceLimit(r.str()?),
        other => return err(format!("invalid solver-error tag {other}")),
    })
}

pub fn write_translate_error(w: &mut Writer, e: &TranslateError) {
    match e {
        TranslateError::NonLinear(m) => {
            w.u8(0);
            w.str(m);
        }
        TranslateError::ArrayRead(name) => {
            w.u8(1);
            w.str(name);
        }
        TranslateError::Overflow(step) => {
            w.u8(2);
            w.str(step);
        }
    }
}

pub fn read_translate_error(r: &mut Reader) -> Result<TranslateError, DecodeError> {
    Ok(match r.u8()? {
        0 => TranslateError::NonLinear(r.str()?),
        1 => TranslateError::ArrayRead(r.str()?),
        2 => TranslateError::Overflow(r.str()?),
        other => return err(format!("invalid translate-error tag {other}")),
    })
}

pub fn write_wp_error(w: &mut Writer, e: &WpError) {
    match e {
        WpError::ArrayWrite(name) => {
            w.u8(0);
            w.str(name);
        }
        WpError::Lower(inner) => {
            w.u8(1);
            match inner {
                LowerError::SortMismatch(m) => {
                    w.u8(0);
                    w.str(m);
                }
                LowerError::Unsupported(m) => {
                    w.u8(1);
                    w.str(m);
                }
                LowerError::Undeclared(m) => {
                    w.u8(2);
                    w.str(m);
                }
            }
        }
    }
}

pub fn read_wp_error(r: &mut Reader) -> Result<WpError, DecodeError> {
    Ok(match r.u8()? {
        0 => WpError::ArrayWrite(r.str()?),
        1 => WpError::Lower(match r.u8()? {
            0 => LowerError::SortMismatch(r.str()?),
            1 => LowerError::Unsupported(r.str()?),
            2 => LowerError::Undeclared(r.str()?),
            other => return err(format!("invalid lower-error tag {other}")),
        }),
        other => return err(format!("invalid wp-error tag {other}")),
    })
}

//! Row codecs: the node-table rows, verdicts and the error enums that appear
//! inside cached values. Statements and monitors are not here: the artifact
//! holds their canonical bytes ([`expresso_monitor_lang::canon`]) as they
//! are and never decodes them.
//!
//! Every enum is encoded as a one-byte tag followed by its fields in
//! declaration order. The decoders mirror the encoders exactly; an unknown
//! tag is a [`DecodeError`], never a panic, so a schema drift that slips past
//! the format version check still degrades to a cold start.
//!
//! Formula and term rows decode without recursion — a row's children are row
//! numbers, read through [`Reader::row`], which rejects anything that is not
//! a strictly earlier row.

use crate::codec::{err, DecodeError, Reader, Writer};
use crate::table::{FormulaRow, Row, TermRow};
use expresso_logic::{CmpOp, Quantifier};
use expresso_monitor_lang::LowerError;
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

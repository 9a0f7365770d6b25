//! The node tables of the artifact: one row per distinct term and formula
//! node, children named by the row number of an **earlier** row.
//!
//! The arena is a hash-consed DAG in memory; the tables keep it a DAG on
//! disk. [`number`] walks the arena once from the cache roots and assigns
//! row numbers that depend on content alone (see there); [`intern`] is the
//! receiving side, turning rows back into arena nodes one at a time.

use expresso_logic::{
    CmpOp, Formula, FormulaId, FormulaNode, Interner, Quantifier, Term, TermId, TermNode,
};
use std::collections::HashMap;
use std::hash::Hash;

/// Index of a row in the term or formula table.
pub type Row = u32;

/// One term node; children are rows of the term table strictly before this
/// one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum TermRow {
    /// Integer literal.
    Int(i64),
    /// Integer variable.
    Var(String),
    /// N-ary sum.
    Add(Vec<Row>),
    /// `lhs - rhs`.
    Sub(Row, Row),
    /// Arithmetic negation.
    Neg(Row),
    /// Product.
    Mul(Row, Row),
    /// Array read `array[index]`.
    Select(String, Row),
}

/// One formula node; formula children are rows of the formula table strictly
/// before this one, term children are rows of the (complete) term table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum FormulaRow {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// Boolean variable.
    BoolVar(String),
    /// Comparison of two term rows.
    Cmp(CmpOp, Row, Row),
    /// Divisibility atom over a term row.
    Divides(u64, Row),
    /// Negation.
    Not(Row),
    /// N-ary conjunction.
    And(Vec<Row>),
    /// N-ary disjunction.
    Or(Vec<Row>),
    /// Implication.
    Implies(Row, Row),
    /// Bi-implication.
    Iff(Row, Row),
    /// Quantified formula.
    Quant(Quantifier, Vec<String>, Row),
}

// ---------------------------------------------------------------------------
// Export: arena DAG → canonically numbered rows
// ---------------------------------------------------------------------------

/// Every node reachable from `roots`, each once, with its height (0 for a
/// node without children of its own kind), read through `node` exactly once
/// per node. Iterative, so depth is bounded by the heap, not the stack.
fn reachable<Id: Copy + Eq + Hash, Node>(
    roots: impl IntoIterator<Item = Id>,
    node: impl Fn(Id) -> Node,
    children: impl Fn(&Node, &mut Vec<Id>),
) -> Vec<(Id, Node, u32)> {
    enum Step<Id, Node> {
        Visit(Id),
        Emit(Id, Node),
    }
    const PENDING: u32 = u32::MAX;
    let mut heights: HashMap<Id, u32> = HashMap::new();
    let mut out = Vec::new();
    let mut kids = Vec::new();
    let mut stack: Vec<Step<Id, Node>> = roots.into_iter().map(Step::Visit).collect();
    while let Some(step) = stack.pop() {
        kids.clear();
        match step {
            Step::Visit(id) => {
                if heights.contains_key(&id) {
                    continue;
                }
                heights.insert(id, PENDING);
                let n = node(id);
                children(&n, &mut kids);
                stack.push(Step::Emit(id, n));
                stack.extend(kids.iter().copied().map(Step::Visit));
            }
            // Popped only after every child pushed above it was emitted.
            Step::Emit(id, n) => {
                children(&n, &mut kids);
                let height = kids.iter().map(|kid| heights[kid] + 1).max().unwrap_or(0);
                debug_assert!(height < PENDING, "arena nodes cannot be cyclic");
                heights.insert(id, height);
                out.push((id, n, height));
            }
        }
    }
    out
}

/// Numbers `nodes` by `(height, row)`: level by level, each level's nodes
/// are turned into rows — their children are on lower levels, so already
/// numbered — and sorted on the row's derived order. Hash-consing makes
/// distinct nodes distinct rows, so the order is total, and by induction on
/// the height it is a function of the set of nodes alone: not of arena ids
/// or the order the roots were met in.
fn assign<Id: Copy + Eq + Hash, Node, R: Ord>(
    mut nodes: Vec<(Id, Node, u32)>,
    to_row: impl Fn(&Node, &HashMap<Id, Row>) -> R,
) -> (Vec<R>, HashMap<Id, Row>) {
    nodes.sort_by_key(|&(_, _, height)| height);
    let mut rows: Vec<R> = Vec::with_capacity(nodes.len());
    let mut numbers: HashMap<Id, Row> = HashMap::with_capacity(nodes.len());
    for level in nodes.chunk_by(|a, b| a.2 == b.2) {
        let mut level: Vec<(R, Id)> = level
            .iter()
            .map(|(id, node, _)| (to_row(node, &numbers), *id))
            .collect();
        level.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (row, id) in level {
            let number = Row::try_from(rows.len()).expect("node table exceeds 2^32 rows");
            numbers.insert(id, number);
            rows.push(row);
        }
    }
    (rows, numbers)
}

/// The canonical tables of everything reachable from a set of root formulas,
/// plus the id → row map the entry sections are written through.
pub(crate) struct Numbering {
    pub terms: Vec<TermRow>,
    pub formulas: Vec<FormulaRow>,
    formula_rows: HashMap<FormulaId, Row>,
}

impl Numbering {
    /// The row of a root (or of anything reachable from one).
    pub fn row(&self, id: FormulaId) -> Row {
        self.formula_rows[&id]
    }
}

/// Walks `interner`'s DAG once from `roots` and numbers what it finds.
pub(crate) fn number(interner: &Interner, roots: impl IntoIterator<Item = FormulaId>) -> Numbering {
    let formulas = reachable(
        roots,
        |id| interner.node(id),
        |node, out| match node {
            FormulaNode::True
            | FormulaNode::False
            | FormulaNode::BoolVar(_)
            | FormulaNode::Cmp(..)
            | FormulaNode::Divides(..) => {}
            FormulaNode::Not(a) | FormulaNode::Quant(_, _, a) => out.push(*a),
            FormulaNode::And(parts) | FormulaNode::Or(parts) => out.extend_from_slice(parts),
            FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => out.extend([*a, *b]),
        },
    );
    let mut term_roots = Vec::new();
    for (_, node, _) in &formulas {
        match node {
            FormulaNode::Cmp(_, lhs, rhs) => term_roots.extend([*lhs, *rhs]),
            FormulaNode::Divides(_, t) => term_roots.push(*t),
            _ => {}
        }
    }
    let terms = reachable(
        term_roots,
        |id| interner.term_node(id),
        |node, out| match node {
            TermNode::Int(_) | TermNode::Var(_) => {}
            TermNode::Add(parts) => out.extend_from_slice(parts),
            TermNode::Sub(a, b) | TermNode::Mul(a, b) => out.extend([*a, *b]),
            TermNode::Neg(a) | TermNode::Select(_, a) => out.push(*a),
        },
    );
    let (terms, term_rows) = assign(terms, |node, rows| match node {
        TermNode::Int(v) => TermRow::Int(*v),
        TermNode::Var(v) => TermRow::Var(v.clone()),
        TermNode::Add(parts) => TermRow::Add(parts.iter().map(|p| rows[p]).collect()),
        TermNode::Sub(a, b) => TermRow::Sub(rows[a], rows[b]),
        TermNode::Neg(a) => TermRow::Neg(rows[a]),
        TermNode::Mul(a, b) => TermRow::Mul(rows[a], rows[b]),
        TermNode::Select(array, index) => TermRow::Select(array.clone(), rows[index]),
    });
    let (formulas, formula_rows) = assign(formulas, |node, rows| match node {
        FormulaNode::True => FormulaRow::True,
        FormulaNode::False => FormulaRow::False,
        FormulaNode::BoolVar(b) => FormulaRow::BoolVar(b.clone()),
        FormulaNode::Cmp(op, lhs, rhs) => FormulaRow::Cmp(*op, term_rows[lhs], term_rows[rhs]),
        FormulaNode::Divides(d, t) => FormulaRow::Divides(*d, term_rows[t]),
        FormulaNode::Not(a) => FormulaRow::Not(rows[a]),
        FormulaNode::And(parts) => FormulaRow::And(parts.iter().map(|p| rows[p]).collect()),
        FormulaNode::Or(parts) => FormulaRow::Or(parts.iter().map(|p| rows[p]).collect()),
        FormulaNode::Implies(a, b) => FormulaRow::Implies(rows[a], rows[b]),
        FormulaNode::Iff(a, b) => FormulaRow::Iff(rows[a], rows[b]),
        FormulaNode::Quant(q, vars, body) => FormulaRow::Quant(*q, vars.clone(), rows[body]),
    });
    Numbering {
        terms,
        formulas,
        formula_rows,
    }
}

// ---------------------------------------------------------------------------
// Seed: rows → arena nodes, one intern per row
// ---------------------------------------------------------------------------

/// Interns both tables into `interner` and returns the arena id of every
/// formula row. Children precede parents in the tables, so one pass in row
/// order interns every node exactly once with its children's ids already
/// known. The tables must be well formed (every reference names an earlier
/// row), which `load` has verified and `export_artifact` guarantees.
pub(crate) fn intern(
    interner: &Interner,
    terms: &[TermRow],
    formulas: &[FormulaRow],
) -> Vec<FormulaId> {
    let mut t: Vec<TermId> = Vec::with_capacity(terms.len());
    for row in terms {
        let at = |r: &Row| t[*r as usize];
        let node = match row {
            TermRow::Int(v) => TermNode::Int(*v),
            TermRow::Var(v) => TermNode::Var(v.clone()),
            TermRow::Add(parts) => TermNode::Add(parts.iter().map(at).collect()),
            TermRow::Sub(a, b) => TermNode::Sub(at(a), at(b)),
            TermRow::Neg(a) => TermNode::Neg(at(a)),
            TermRow::Mul(a, b) => TermNode::Mul(at(a), at(b)),
            TermRow::Select(array, index) => TermNode::Select(array.clone(), at(index)),
        };
        t.push(interner.intern_term_node(node));
    }
    let mut f: Vec<FormulaId> = Vec::with_capacity(formulas.len());
    for row in formulas {
        let at = |r: &Row| f[*r as usize];
        let term = |r: &Row| t[*r as usize];
        let node = match row {
            FormulaRow::True => FormulaNode::True,
            FormulaRow::False => FormulaNode::False,
            FormulaRow::BoolVar(b) => FormulaNode::BoolVar(b.clone()),
            FormulaRow::Cmp(op, lhs, rhs) => FormulaNode::Cmp(*op, term(lhs), term(rhs)),
            FormulaRow::Divides(d, t) => FormulaNode::Divides(*d, term(t)),
            FormulaRow::Not(a) => FormulaNode::Not(at(a)),
            FormulaRow::And(parts) => FormulaNode::And(parts.iter().map(at).collect()),
            FormulaRow::Or(parts) => FormulaNode::Or(parts.iter().map(at).collect()),
            FormulaRow::Implies(a, b) => FormulaNode::Implies(at(a), at(b)),
            FormulaRow::Iff(a, b) => FormulaNode::Iff(at(a), at(b)),
            FormulaRow::Quant(q, vars, body) => FormulaNode::Quant(*q, vars.clone(), at(body)),
        };
        f.push(interner.intern_formula_node(node));
    }
    f
}

// ---------------------------------------------------------------------------
// The tree view: tests, debugging and the invariant of a replayed outcome
// ---------------------------------------------------------------------------

/// Most nodes the tree of an outcome's invariant may have. The tree view
/// below spells the DAG out — forty rows of `And[i-1, i-1]` are 2^40 tree
/// nodes — and recurses once per level, so a row is only handed to it on the
/// replay path if `small_trees` vouches for it. Inferred invariants are
/// conjunctions of a few atoms: the largest over two 500-monitor corpora and
/// the Table 1 suite has 104 nodes on 5 levels.
pub const MAX_TREE_NODES: u32 = 1 << 12;

/// The tallest such a tree may be: the statement decoders' cap.
const MAX_TREE_HEIGHT: u32 = crate::MAX_NESTING as u32;

/// Height and node count of the tree a row stands for, both saturating.
#[derive(Clone, Copy)]
struct Extent {
    height: u32,
    nodes: u32,
}

impl Extent {
    const LEAF: Extent = Extent {
        height: 0,
        nodes: 1,
    };

    /// A node over `children`.
    fn over(children: impl IntoIterator<Item = Extent>) -> Extent {
        children
            .into_iter()
            .fold(Extent::LEAF, |node, child| Extent {
                height: node.height.max(child.height.saturating_add(1)),
                nodes: node.nodes.saturating_add(child.nodes),
            })
    }
}

/// Per formula row, whether [`formula_tree`] may be asked for it: a tree of
/// height at most [`MAX_NESTING`](crate::MAX_NESTING) (terms included) and at
/// most [`MAX_TREE_NODES`] nodes. One pass in row order — children are earlier
/// rows — so measuring a table costs what reading it did, whatever its rows
/// would expand to. The tables must be well formed, as for [`intern`].
pub(crate) fn small_trees(terms: &[TermRow], formulas: &[FormulaRow]) -> Vec<bool> {
    let mut t: Vec<Extent> = Vec::with_capacity(terms.len());
    for row in terms {
        let at = |r: &Row| t[*r as usize];
        let extent = match row {
            TermRow::Int(_) | TermRow::Var(_) => Extent::LEAF,
            TermRow::Add(parts) => Extent::over(parts.iter().map(at)),
            TermRow::Sub(a, b) | TermRow::Mul(a, b) => Extent::over([at(a), at(b)]),
            TermRow::Neg(a) | TermRow::Select(_, a) => Extent::over([at(a)]),
        };
        t.push(extent);
    }
    let mut f: Vec<Extent> = Vec::with_capacity(formulas.len());
    for row in formulas {
        let at = |r: &Row| f[*r as usize];
        let term = |r: &Row| t[*r as usize];
        let extent = match row {
            FormulaRow::True | FormulaRow::False | FormulaRow::BoolVar(_) => Extent::LEAF,
            FormulaRow::Cmp(_, lhs, rhs) => Extent::over([term(lhs), term(rhs)]),
            FormulaRow::Divides(_, t) => Extent::over([term(t)]),
            FormulaRow::Not(a) | FormulaRow::Quant(_, _, a) => Extent::over([at(a)]),
            FormulaRow::And(parts) | FormulaRow::Or(parts) => Extent::over(parts.iter().map(at)),
            FormulaRow::Implies(a, b) | FormulaRow::Iff(a, b) => Extent::over([at(a), at(b)]),
        };
        f.push(extent);
    }
    f.iter()
        .map(|extent| extent.height <= MAX_TREE_HEIGHT && extent.nodes <= MAX_TREE_NODES)
        .collect()
}

pub(crate) fn term_tree(terms: &[TermRow], row: Row) -> Term {
    let tree = |r: &Row| term_tree(terms, *r);
    match &terms[row as usize] {
        TermRow::Int(v) => Term::Int(*v),
        TermRow::Var(v) => Term::Var(v.clone()),
        TermRow::Add(parts) => Term::Add(parts.iter().map(tree).collect()),
        TermRow::Sub(a, b) => Term::Sub(Box::new(tree(a)), Box::new(tree(b))),
        TermRow::Neg(a) => Term::Neg(Box::new(tree(a))),
        TermRow::Mul(a, b) => Term::Mul(Box::new(tree(a)), Box::new(tree(b))),
        TermRow::Select(array, index) => Term::Select(array.clone(), Box::new(tree(index))),
    }
}

pub(crate) fn formula_tree(terms: &[TermRow], formulas: &[FormulaRow], row: Row) -> Formula {
    let tree = |r: &Row| formula_tree(terms, formulas, *r);
    let term = |r: &Row| term_tree(terms, *r);
    match &formulas[row as usize] {
        FormulaRow::True => Formula::True,
        FormulaRow::False => Formula::False,
        FormulaRow::BoolVar(b) => Formula::BoolVar(b.clone()),
        FormulaRow::Cmp(op, lhs, rhs) => Formula::Cmp(*op, term(lhs), term(rhs)),
        FormulaRow::Divides(d, t) => Formula::Divides(*d, term(t)),
        FormulaRow::Not(a) => Formula::Not(Box::new(tree(a))),
        FormulaRow::And(parts) => Formula::And(parts.iter().map(tree).collect()),
        FormulaRow::Or(parts) => Formula::Or(parts.iter().map(tree).collect()),
        FormulaRow::Implies(a, b) => Formula::Implies(Box::new(tree(a)), Box::new(tree(b))),
        FormulaRow::Iff(a, b) => Formula::Iff(Box::new(tree(a)), Box::new(tree(b))),
        FormulaRow::Quant(q, vars, body) => Formula::Quant(*q, vars.clone(), Box::new(tree(body))),
    }
}

//! Hash-consed interning arena for terms and formulas.
//!
//! [`Interner`] stores every distinct term and formula node exactly once and
//! hands out `Copy` handles ([`TermId`] / [`FormulaId`]). Structural equality
//! becomes id equality, so deduplication, cache keys and sharing checks are
//! O(1), and the normalisation passes ([`Interner::simplify`],
//! [`Interner::nnf`], constant folding) memoize per node: a subtree shared by
//! a thousand verification conditions is normalised once.
//!
//! # Layout
//!
//! Each node kind (terms, formulas) has
//!
//! * an append-only node store whose reads are **lock-free** (nodes sit
//!   inline in doubling chunks that never move; published slots are
//!   immutable and reached through two acquire loads), the one place a
//!   node is kept — a node's id is its slot, so ids count up in creation
//!   order, per kind, and
//! * an `RwLock`ed index from node hash to slot consulted on interning
//!   (read-locked on the hit path, write-locked only to insert a genuinely
//!   new node);
//!
//! and one `Mutex`ed memo table holds the per-node simplify/NNF/fold/
//! free-var/size results. DAG walks (simplify, NNF, substitution, var sets)
//! read nodes without taking any lock at all. Memo races are benign — every
//! derived value is a pure function of the node, so the loser of a race
//! inserts the same result. Contended lock acquisitions are counted and
//! surfaced via [`Interner::stats`].
//!
//! # Publication
//!
//! A new node is pushed under its index's write lock: the store writes the
//! slot, then release-stores its length. A read acquire-loads the length
//! and panics on a slot past it, so the lock-free read path is safe even
//! for an id whose push it cannot see. It always sees it: an id reaches a
//! reader only through a lock or a join — from the index, under the lock
//! the push happened under, or from the interning thread, through the
//! mutex, channel or thread join that carried the id over — and each of
//! those orders the push before the read.
//!
//! # Example
//!
//! ```
//! use expresso_logic::{Formula, Interner, Term};
//!
//! let arena = Interner::new();
//! let a = arena.intern(&Term::var("x").ge(Term::int(0)));
//! let b = arena.intern(&Term::var("x").ge(Term::int(0)));
//! assert_eq!(a, b); // structurally equal trees intern to the same id
//! ```

use crate::formula::{CmpOp, Formula, Quantifier};
use crate::subst::Subst;
use crate::term::Term;
use crate::Ident;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Multiplicative word-at-a-time hasher (the FxHash construction rustc uses
/// for its own interners). Node hashing is the arena's hottest scalar
/// operation — every intern hashes the node once for the dedup index, and
/// the memo tables hash ids — and SipHash's per-call setup dominates for the
/// small keys involved. Deterministic within and across processes. Not
/// DoS-resistant; keys are internal ids and formula nodes, never
/// attacker-controlled.
///
/// Public because other layers reuse the same deterministic hashing: the
/// solver, WP and Cooper memo tables key on it, so a key hashes the same in
/// every run.
#[derive(Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;
type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// A `Copy` handle to an interned [`Term`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The raw handle value: the term's creation index in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A `Copy` handle to an interned [`Formula`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormulaId(u32);

impl FormulaId {
    /// The raw handle value: the formula's creation index in its arena
    /// (`true` is 0 and `false` is 1).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned term node; children are ids into the same arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// Integer literal.
    Int(i64),
    /// Integer variable.
    Var(Ident),
    /// N-ary sum.
    Add(Vec<TermId>),
    /// `lhs - rhs`.
    Sub(TermId, TermId),
    /// Arithmetic negation.
    Neg(TermId),
    /// Product.
    Mul(TermId, TermId),
    /// Array read `array[index]`.
    Select(Ident, TermId),
}

/// One interned formula node; children are ids into the same arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FormulaNode {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// Boolean variable.
    BoolVar(Ident),
    /// Comparison of two terms.
    Cmp(CmpOp, TermId, TermId),
    /// Divisibility atom.
    Divides(u64, TermId),
    /// Negation.
    Not(FormulaId),
    /// N-ary conjunction.
    And(Vec<FormulaId>),
    /// N-ary disjunction.
    Or(Vec<FormulaId>),
    /// Implication.
    Implies(FormulaId, FormulaId),
    /// Bi-implication.
    Iff(FormulaId, FormulaId),
    /// Quantified formula.
    Quant(Quantifier, Vec<Ident>, FormulaId),
}

/// What each node of the arena [`Interner::import`] reads from has become in
/// the arena it interns into, so far.
#[derive(Debug, Default)]
struct Imports {
    formulas: FxMap<FormulaId, FormulaId>,
    terms: FxMap<TermId, TermId>,
}

/// Counters describing an arena's shape and observed lock contention.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Number of distinct formula nodes interned so far.
    pub formula_nodes: usize,
    /// Number of distinct term nodes interned so far.
    pub term_nodes: usize,
    /// Number of lock acquisitions (dedup indexes and the memo table) that
    /// found the lock held by another thread and had to wait. Zero in
    /// sequential runs; a proxy for arena contention under parallel
    /// placement.
    pub lock_contentions: usize,
}

impl InternerStats {
    /// Adapt into a metric group for [`expresso_obs::MetricsRegistry`].
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        use expresso_obs::Metric;
        vec![
            Metric::counter("formula_nodes", self.formula_nodes as u64),
            Metric::counter("term_nodes", self.term_nodes as u64),
            Metric::counter("lock_contentions", self.lock_contentions as u64),
        ]
    }
}

// ---------------------------------------------------------------------------
// Lock-free-read append-only node store
// ---------------------------------------------------------------------------

/// Slots in the first (smallest) chunk; chunk `k` holds `FIRST_CHUNK_LEN
/// << k` slots. Small, because an arena's 2 stores each allocate their
/// first chunk with their first node, and a solver keeps a second arena for
/// quantifier elimination that many queries never touch.
const FIRST_CHUNK_BITS: u32 = 6;
const FIRST_CHUNK_LEN: usize = 1 << FIRST_CHUNK_BITS;
/// Geometrically sized chunks: 27 of them cover `64 * (2^27 - 1)` ≈ 8.6
/// billion slots — more than a `u32` id can address — while an empty
/// store is just this 27-pointer table.
const MAX_CHUNKS: usize = 27;

/// Maps a slot to `(chunk index, offset within chunk)`. Chunk `k` spans
/// slots `[FIRST_CHUNK_LEN * (2^k - 1), FIRST_CHUNK_LEN * (2^(k+1) - 1))`.
fn locate(slot: usize) -> (usize, usize) {
    let bucket = (slot >> FIRST_CHUNK_BITS) + 1;
    let k = bucket.ilog2() as usize;
    (k, slot - chunk_base(k))
}

fn chunk_len(k: usize) -> usize {
    FIRST_CHUNK_LEN << k
}

/// The first slot of chunk `k`: the slots of every smaller chunk.
fn chunk_base(k: usize) -> usize {
    chunk_len(k) - FIRST_CHUNK_LEN
}

/// Append-only slot store with lock-free reads.
///
/// Nodes live inline in geometrically sized chunks: chunk `k` is one
/// allocation of `chunk_len(k)` slots, made when its first slot is pushed
/// and never moved, so growth never copies and an empty store is a fixed
/// 27-pointer table.
///
/// **Publication.** Writers are externally serialized (pushes happen only
/// under the store's dedup write lock). A push writes its slot, then
/// release-stores `len`; a slot below `len` is published and immutable from
/// then on. [`AppendStore::get`] acquire-loads `len` and panics on a slot at
/// or past it, so reading a slot whose push it has not seen is an error, not
/// undefined behaviour. In the arena that check never fires: every id
/// reaches a reader through a lock or a join — the dedup index's lock that
/// the push happened under, or the lock, channel or thread join that carried
/// the id from the thread that interned it — and each of those orders the
/// push, and its store of `len`, before the read.
struct AppendStore<T> {
    /// `chunks[k]` points at the first slot of a `chunk_len(k)`-slot
    /// allocation (null until chunk `k` is needed). Slots below `len` are
    /// initialised; the rest are not.
    chunks: [AtomicPtr<T>; MAX_CHUNKS],
    len: AtomicUsize,
}

impl<T> AppendStore<T> {
    fn new() -> Self {
        AppendStore {
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            len: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Lock-free read of a published slot.
    ///
    /// # Panics
    ///
    /// If `slot` is not published yet.
    fn get(&self, slot: usize) -> &T {
        assert!(slot < self.len(), "read of unpublished arena slot");
        let (k, offset) = locate(slot);
        let chunk = self.chunks[k].load(Ordering::Acquire);
        // SAFETY: `slot < len`, and the acquire load of `len` saw the push
        // that published it, which allocated its chunk and initialised it
        // first. A published slot is never written again nor freed before
        // the store.
        unsafe { &*chunk.add(offset) }
    }

    /// Appends a node and returns its slot.
    ///
    /// # Safety
    ///
    /// No other push to this store may run at the same time: the caller
    /// holds the store's dedup write lock, under which every push happens.
    unsafe fn push(&self, value: T) -> usize {
        let slot = self.len.load(Ordering::Relaxed);
        let (k, offset) = locate(slot);
        assert!(k < MAX_CHUNKS, "arena overflow");
        let mut chunk = self.chunks[k].load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh = Box::<[T]>::new_uninit_slice(chunk_len(k));
            chunk = Box::into_raw(fresh).cast::<T>();
            self.chunks[k].store(chunk, Ordering::Release);
        }
        // SAFETY: `offset` is inside chunk `k`, and the slot is unpublished
        // (`slot == len`, and this is the only push running), so nothing
        // else reads or writes it.
        unsafe { chunk.add(offset).write(value) };
        self.len.store(slot + 1, Ordering::Release);
        slot
    }
}

impl<T> Drop for AppendStore<T> {
    fn drop(&mut self) {
        let len = *self.len.get_mut();
        for (k, chunk_cell) in self.chunks.iter_mut().enumerate() {
            let chunk = *chunk_cell.get_mut();
            if chunk.is_null() {
                continue;
            }
            let published = len.saturating_sub(chunk_base(k)).min(chunk_len(k));
            // SAFETY: the chunk is a `chunk_len(k)`-slot allocation from
            // `push` whose first `published` slots are initialised; they are
            // dropped once, then the allocation is freed as it was made.
            unsafe {
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(chunk, published));
                drop(Box::from_raw(ptr::slice_from_raw_parts_mut(
                    chunk.cast::<MaybeUninit<T>>(),
                    chunk_len(k),
                )));
            }
        }
    }
}

impl<T> fmt::Debug for AppendStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppendStore")
            .field("len", &self.len())
            .finish()
    }
}

// SAFETY: `chunks` owns the `T`s it points at and `len` is atomic. Moving
// the store moves its `T`s to another thread (`T: Send`); sharing it lets
// any thread push a `T` (under the dedup lock, `T: Send`) and read `&T` from
// published slots (`T: Sync`).
unsafe impl<T: Send> Send for AppendStore<T> {}
unsafe impl<T: Send + Sync> Sync for AppendStore<T> {}

// ---------------------------------------------------------------------------
// Indexes and memo
// ---------------------------------------------------------------------------

/// The free integer and boolean variables of one interned formula node,
/// cached behind an `Arc` so shared subtrees pay for the computation once.
#[derive(Debug, Default)]
struct VarSets {
    ints: HashSet<Ident>,
    bools: HashSet<Ident>,
}

/// Per-node memo tables.
#[derive(Debug, Default)]
struct Memo {
    /// Simplification and constant folding, per [`Pass`].
    simplify: [FxMap<FormulaId, FormulaId>; 2],
    fold: [FxMap<TermId, TermId>; 2],
    nnf: FxMap<(FormulaId, bool), FormulaId>,
    formula_vars: FxMap<FormulaId, Arc<VarSets>>,
    term_vars: FxMap<TermId, Arc<HashSet<Ident>>>,
    size: FxMap<FormulaId, usize>,
}

/// Which simplification a memo lookup belongs to: [`Interner::simplify`],
/// which takes each result for its own normal form, or
/// [`Interner::simplify_as_tree`], which does not. The two disagree on a
/// result a second pass would change, so each keeps its own tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Trusting = 0,
    AsTree = 1,
}

/// Where the nodes of one [`AppendStore`] are, by hash: a node is stored
/// once, in the store, and found again through its hash here — not kept a
/// second time as a map key. The hash is the top half of the node's
/// [`FxHasher`] value, so an entry is 8 bytes: this is an arena's largest
/// table, and its size shows in peak RSS.
#[derive(Debug, Default)]
struct NodeIndex {
    /// The first slot holding a node with this hash.
    first: FxMap<u32, u32>,
    /// Any further slots with the same hash (a collision).
    more: FxMap<u32, Vec<u32>>,
}

impl NodeIndex {
    /// The slot of `node` (whose hash is `hash`) in `store`, if it is there.
    fn find<T: PartialEq>(&self, hash: u32, node: &T, store: &AppendStore<T>) -> Option<u32> {
        let first = *self.first.get(&hash)?;
        if store.get(first as usize) == node {
            return Some(first);
        }
        let more = self.more.get(&hash)?;
        more.iter()
            .copied()
            .find(|&slot| store.get(slot as usize) == node)
    }

    fn insert(&mut self, hash: u32, slot: u32) {
        match self.first.entry(hash) {
            Entry::Vacant(first) => {
                first.insert(slot);
            }
            Entry::Occupied(_) => self.more.entry(hash).or_default().push(slot),
        }
    }
}

/// The id of the constant `true`: the first formula every arena creates.
/// The smart constructors produce the constants constantly, and the fixed
/// ids make `is_true`/`is_false` a plain id comparison.
const TRUE: FormulaId = FormulaId(0);
/// The id of the constant `false`, the second formula every arena creates.
const FALSE: FormulaId = FormulaId(1);

/// The hash-consing arena. See the module documentation.
#[derive(Debug)]
pub struct Interner {
    term_index: RwLock<NodeIndex>,
    formula_index: RwLock<NodeIndex>,
    terms: AppendStore<TermNode>,
    formulas: AppendStore<FormulaNode>,
    memo: Mutex<Memo>,
    contended_locks: AtomicUsize,
}

impl Default for Interner {
    fn default() -> Self {
        let interner = Interner {
            term_index: RwLock::default(),
            formula_index: RwLock::default(),
            terms: AppendStore::new(),
            formulas: AppendStore::new(),
            memo: Mutex::default(),
            contended_locks: AtomicUsize::new(0),
        };
        assert_eq!(interner.put_formula(FormulaNode::True), TRUE);
        assert_eq!(interner.put_formula(FormulaNode::False), FALSE);
        interner
    }
}

impl Interner {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Snapshot of the arena's node counts and lock-contention counter.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            formula_nodes: self.formula_count(),
            term_nodes: self.term_count(),
            lock_contentions: self.contended_locks.load(Ordering::Relaxed),
        }
    }

    // -- contention-counting locks -----------------------------------------

    /// The guard `attempt` got or, when the lock was held, the one `wait`
    /// blocks for, counting the wait as a contention.
    fn counted<G, E>(&self, attempt: Result<G, E>, wait: impl FnOnce() -> G) -> G {
        attempt.unwrap_or_else(|_| {
            self.contended_locks.fetch_add(1, Ordering::Relaxed);
            wait()
        })
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.counted(self.memo.try_lock(), || self.memo.lock().unwrap())
    }

    // -- node storage ------------------------------------------------------

    /// Lock-free read of the node behind a formula id.
    fn fnode(&self, id: FormulaId) -> &FormulaNode {
        self.formulas.get(id.index())
    }

    /// Lock-free read of the node behind a term id.
    fn tnode(&self, id: TermId) -> &TermNode {
        self.terms.get(id.index())
    }

    /// The slot of `node` in `store`, which `index` finds nodes of; a node
    /// not there yet is appended.
    fn put<T: Hash + PartialEq>(
        &self,
        index: &RwLock<NodeIndex>,
        store: &AppendStore<T>,
        node: T,
    ) -> u32 {
        let mut hasher = FxHasher::default();
        node.hash(&mut hasher);
        let hash = (hasher.finish() >> 32) as u32;
        let read = self.counted(index.try_read(), || index.read().unwrap());
        if let Some(slot) = read.find(hash, &node, store) {
            return slot;
        }
        drop(read);
        let mut index = self.counted(index.try_write(), || index.write().unwrap());
        if let Some(slot) = index.find(hash, &node, store) {
            return slot;
        }
        // SAFETY: every push to `store` happens under `index`'s write lock,
        // which this thread holds.
        let slot = u32::try_from(unsafe { store.push(node) }).expect("arena overflow");
        index.insert(hash, slot);
        slot
    }

    fn put_formula(&self, node: FormulaNode) -> FormulaId {
        FormulaId(self.put(&self.formula_index, &self.formulas, node))
    }

    fn put_term(&self, node: TermNode) -> TermId {
        TermId(self.put(&self.term_index, &self.terms, node))
    }

    // -- public interning API ---------------------------------------------

    /// Interns a formula tree, returning its id. Structurally equal trees
    /// always receive the same id.
    pub fn intern(&self, formula: &Formula) -> FormulaId {
        let node = match formula {
            Formula::True => FormulaNode::True,
            Formula::False => FormulaNode::False,
            Formula::BoolVar(b) => FormulaNode::BoolVar(b.clone()),
            Formula::Cmp(op, lhs, rhs) => {
                FormulaNode::Cmp(*op, self.intern_term(lhs), self.intern_term(rhs))
            }
            Formula::Divides(d, t) => FormulaNode::Divides(*d, self.intern_term(t)),
            Formula::Not(inner) => FormulaNode::Not(self.intern(inner)),
            Formula::And(parts) => FormulaNode::And(parts.iter().map(|p| self.intern(p)).collect()),
            Formula::Or(parts) => FormulaNode::Or(parts.iter().map(|p| self.intern(p)).collect()),
            Formula::Implies(a, b) => FormulaNode::Implies(self.intern(a), self.intern(b)),
            Formula::Iff(a, b) => FormulaNode::Iff(self.intern(a), self.intern(b)),
            Formula::Quant(q, vars, body) => {
                FormulaNode::Quant(*q, vars.clone(), self.intern(body))
            }
        };
        self.put_formula(node)
    }

    /// Interns a term tree, returning its id.
    pub fn intern_term(&self, term: &Term) -> TermId {
        let node = match term {
            Term::Int(v) => TermNode::Int(*v),
            Term::Var(v) => TermNode::Var(v.clone()),
            Term::Add(parts) => TermNode::Add(parts.iter().map(|p| self.intern_term(p)).collect()),
            Term::Sub(a, b) => TermNode::Sub(self.intern_term(a), self.intern_term(b)),
            Term::Neg(a) => TermNode::Neg(self.intern_term(a)),
            Term::Mul(a, b) => TermNode::Mul(self.intern_term(a), self.intern_term(b)),
            Term::Select(arr, idx) => TermNode::Select(arr.clone(), self.intern_term(idx)),
        };
        self.put_term(node)
    }

    /// Reconstructs the formula tree for `id` (used at solver boundaries and
    /// for display; the hot paths stay on ids).
    pub fn formula(&self, id: FormulaId) -> Formula {
        match self.fnode(id) {
            FormulaNode::True => Formula::True,
            FormulaNode::False => Formula::False,
            FormulaNode::BoolVar(b) => Formula::BoolVar(b.clone()),
            FormulaNode::Cmp(op, lhs, rhs) => Formula::Cmp(*op, self.term(*lhs), self.term(*rhs)),
            FormulaNode::Divides(d, t) => Formula::Divides(*d, self.term(*t)),
            FormulaNode::Not(inner) => Formula::Not(Box::new(self.formula(*inner))),
            FormulaNode::And(parts) => {
                Formula::And(parts.iter().map(|p| self.formula(*p)).collect())
            }
            FormulaNode::Or(parts) => Formula::Or(parts.iter().map(|p| self.formula(*p)).collect()),
            FormulaNode::Implies(a, b) => {
                Formula::Implies(Box::new(self.formula(*a)), Box::new(self.formula(*b)))
            }
            FormulaNode::Iff(a, b) => {
                Formula::Iff(Box::new(self.formula(*a)), Box::new(self.formula(*b)))
            }
            FormulaNode::Quant(q, vars, body) => {
                Formula::Quant(*q, vars.clone(), Box::new(self.formula(*body)))
            }
        }
    }

    /// Reconstructs the term tree for `id`.
    pub fn term(&self, id: TermId) -> Term {
        match self.tnode(id) {
            TermNode::Int(v) => Term::Int(*v),
            TermNode::Var(v) => Term::Var(v.clone()),
            TermNode::Add(parts) => Term::Add(parts.iter().map(|p| self.term(*p)).collect()),
            TermNode::Sub(a, b) => Term::Sub(Box::new(self.term(*a)), Box::new(self.term(*b))),
            TermNode::Neg(a) => Term::Neg(Box::new(self.term(*a))),
            TermNode::Mul(a, b) => Term::Mul(Box::new(self.term(*a)), Box::new(self.term(*b))),
            TermNode::Select(arr, idx) => Term::Select(arr.clone(), Box::new(self.term(*idx))),
        }
    }

    /// Returns a clone of the node behind `id`.
    pub fn node(&self, id: FormulaId) -> FormulaNode {
        self.fnode(id).clone()
    }

    /// The node behind `id`, borrowed from the arena (published nodes never
    /// move): what a walk that only reads children uses instead of
    /// [`Interner::node`], which clones a connective's child list.
    pub fn node_ref(&self, id: FormulaId) -> &FormulaNode {
        self.fnode(id)
    }

    /// Returns a clone of the term node behind `id`.
    pub fn term_node(&self, id: TermId) -> TermNode {
        self.tnode(id).clone()
    }

    /// The term node behind `id`, borrowed from the arena: the term
    /// counterpart of [`Interner::node_ref`].
    pub fn term_node_ref(&self, id: TermId) -> &TermNode {
        self.tnode(id)
    }

    /// Interns one formula node whose children are already ids of this
    /// arena — the step [`Interner::intern`] takes per tree node, so
    /// `intern_formula_node(node(id)) == id` and interning a DAG bottom-up
    /// through this method yields exactly the ids interning its trees would.
    /// No smart-constructor normalisation is applied.
    pub fn intern_formula_node(&self, node: FormulaNode) -> FormulaId {
        self.put_formula(node)
    }

    /// Interns one term node whose children are already ids of this arena;
    /// the term counterpart of [`Interner::intern_formula_node`].
    pub fn intern_term_node(&self, node: TermNode) -> TermId {
        self.put_term(node)
    }

    /// Interns in this arena the formula `f` of the arena `from`: the id
    /// `self.intern(&from.formula(f))` gives, with nodes created in the same
    /// order (children left to right, then the node), but no tree built and
    /// every shared subformula visited once. From this arena itself it is
    /// the identity.
    pub fn import(&self, from: &Interner, f: FormulaId) -> FormulaId {
        if ptr::eq(self, from) {
            return f;
        }
        self.import_formula(from, f, &mut Imports::default())
    }

    fn import_formula(&self, from: &Interner, f: FormulaId, imports: &mut Imports) -> FormulaId {
        if let Some(&done) = imports.formulas.get(&f) {
            return done;
        }
        let mut formula = |g: FormulaId| self.import_formula(from, g, imports);
        let node = match from.fnode(f) {
            FormulaNode::True => FormulaNode::True,
            FormulaNode::False => FormulaNode::False,
            FormulaNode::BoolVar(b) => FormulaNode::BoolVar(b.clone()),
            FormulaNode::Cmp(op, lhs, rhs) => {
                let lhs = self.import_term(from, *lhs, imports);
                FormulaNode::Cmp(*op, lhs, self.import_term(from, *rhs, imports))
            }
            FormulaNode::Divides(d, t) => {
                FormulaNode::Divides(*d, self.import_term(from, *t, imports))
            }
            FormulaNode::Not(inner) => FormulaNode::Not(formula(*inner)),
            FormulaNode::And(parts) => {
                FormulaNode::And(parts.iter().map(|&p| formula(p)).collect())
            }
            FormulaNode::Or(parts) => FormulaNode::Or(parts.iter().map(|&p| formula(p)).collect()),
            FormulaNode::Implies(a, b) => {
                let a = formula(*a);
                FormulaNode::Implies(a, formula(*b))
            }
            FormulaNode::Iff(a, b) => {
                let a = formula(*a);
                FormulaNode::Iff(a, formula(*b))
            }
            FormulaNode::Quant(q, vars, body) => {
                FormulaNode::Quant(*q, vars.clone(), formula(*body))
            }
        };
        let id = self.put_formula(node);
        imports.formulas.insert(f, id);
        id
    }

    fn import_term(&self, from: &Interner, t: TermId, imports: &mut Imports) -> TermId {
        if let Some(&done) = imports.terms.get(&t) {
            return done;
        }
        let mut term = |u: TermId| self.import_term(from, u, imports);
        let node = match from.tnode(t) {
            TermNode::Int(v) => TermNode::Int(*v),
            TermNode::Var(v) => TermNode::Var(v.clone()),
            TermNode::Add(parts) => TermNode::Add(parts.iter().map(|&p| term(p)).collect()),
            TermNode::Sub(a, b) => {
                let a = term(*a);
                TermNode::Sub(a, term(*b))
            }
            TermNode::Neg(a) => TermNode::Neg(term(*a)),
            TermNode::Mul(a, b) => {
                let a = term(*a);
                TermNode::Mul(a, term(*b))
            }
            TermNode::Select(array, index) => TermNode::Select(array.clone(), term(*index)),
        };
        let id = self.put_term(node);
        imports.terms.insert(t, id);
        id
    }

    /// Number of distinct formula nodes interned so far.
    pub fn formula_count(&self) -> usize {
        self.formulas.len()
    }

    /// Number of distinct term nodes interned so far.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// `true` when `id` denotes the constant `true`.
    pub fn is_true(&self, id: FormulaId) -> bool {
        id == TRUE
    }

    /// `true` when `id` denotes the constant `false`.
    pub fn is_false(&self, id: FormulaId) -> bool {
        id == FALSE
    }

    /// The id of the constant `true`.
    pub fn true_id(&self) -> FormulaId {
        TRUE
    }

    /// The id of the constant `false`.
    pub fn false_id(&self) -> FormulaId {
        FALSE
    }

    // -- smart constructors over ids --------------------------------------

    /// Negation with the usual constant/double-negation collapses.
    pub fn mk_not(&self, f: FormulaId) -> FormulaId {
        match self.fnode(f) {
            FormulaNode::True => FALSE,
            FormulaNode::False => TRUE,
            FormulaNode::Not(inner) => *inner,
            _ => self.put_formula(FormulaNode::Not(f)),
        }
    }

    /// N-ary conjunction; flattens, drops `true`, short-circuits `false`.
    pub fn mk_and(&self, parts: Vec<FormulaId>) -> FormulaId {
        let mut flat = Vec::new();
        for p in parts {
            match self.fnode(p) {
                FormulaNode::True => {}
                FormulaNode::False => return FALSE,
                FormulaNode::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(p),
            }
        }
        match flat.len() {
            0 => TRUE,
            1 => flat[0],
            _ => self.put_formula(FormulaNode::And(flat)),
        }
    }

    /// N-ary disjunction; flattens, drops `false`, short-circuits `true`.
    pub fn mk_or(&self, parts: Vec<FormulaId>) -> FormulaId {
        let mut flat = Vec::new();
        for p in parts {
            match self.fnode(p) {
                FormulaNode::False => {}
                FormulaNode::True => return TRUE,
                FormulaNode::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(p),
            }
        }
        match flat.len() {
            0 => FALSE,
            1 => flat[0],
            _ => self.put_formula(FormulaNode::Or(flat)),
        }
    }

    /// Implication with the usual constant collapses.
    pub fn mk_implies(&self, lhs: FormulaId, rhs: FormulaId) -> FormulaId {
        match (self.fnode(lhs), self.fnode(rhs)) {
            (FormulaNode::True, _) => rhs,
            (FormulaNode::False, _) | (_, FormulaNode::True) => TRUE,
            _ => self.put_formula(FormulaNode::Implies(lhs, rhs)),
        }
    }

    /// Bi-implication.
    pub fn mk_iff(&self, lhs: FormulaId, rhs: FormulaId) -> FormulaId {
        self.put_formula(FormulaNode::Iff(lhs, rhs))
    }

    /// Universal quantification; collapses empty binder lists.
    pub fn mk_forall(&self, vars: Vec<Ident>, body: FormulaId) -> FormulaId {
        self.mk_quant(Quantifier::Forall, vars, body)
    }

    /// Existential quantification; collapses empty binder lists.
    pub fn mk_exists(&self, vars: Vec<Ident>, body: FormulaId) -> FormulaId {
        self.mk_quant(Quantifier::Exists, vars, body)
    }

    fn mk_quant(&self, q: Quantifier, vars: Vec<Ident>, body: FormulaId) -> FormulaId {
        if vars.is_empty() {
            body
        } else {
            self.put_formula(FormulaNode::Quant(q, vars, body))
        }
    }

    fn mk_cmp(&self, op: CmpOp, lhs: TermId, rhs: TermId) -> FormulaId {
        self.put_formula(FormulaNode::Cmp(op, lhs, rhs))
    }

    // -- memoized free-variable and size queries ---------------------------

    fn term_vars(&self, t: TermId) -> Arc<HashSet<Ident>> {
        if let Some(cached) = self.memo().term_vars.get(&t) {
            return Arc::clone(cached);
        }
        let mut out = HashSet::new();
        match self.tnode(t) {
            TermNode::Int(_) => {}
            TermNode::Var(v) => {
                out.insert(v.clone());
            }
            TermNode::Add(parts) => {
                for p in parts {
                    out.extend(self.term_vars(*p).iter().cloned());
                }
            }
            TermNode::Sub(a, b) | TermNode::Mul(a, b) => {
                out.extend(self.term_vars(*a).iter().cloned());
                out.extend(self.term_vars(*b).iter().cloned());
            }
            TermNode::Neg(a) => out.extend(self.term_vars(*a).iter().cloned()),
            // Matching `Term::collect_vars`, the array name is not a variable;
            // only the index contributes.
            TermNode::Select(_, idx) => out.extend(self.term_vars(*idx).iter().cloned()),
        }
        let arc = Arc::new(out);
        self.memo().term_vars.insert(t, Arc::clone(&arc));
        arc
    }

    fn formula_vars(&self, f: FormulaId) -> Arc<VarSets> {
        if let Some(cached) = self.memo().formula_vars.get(&f) {
            return Arc::clone(cached);
        }
        let mut sets = VarSets::default();
        match self.fnode(f) {
            FormulaNode::True | FormulaNode::False => {}
            FormulaNode::BoolVar(b) => {
                sets.bools.insert(b.clone());
            }
            FormulaNode::Cmp(_, lhs, rhs) => {
                sets.ints.extend(self.term_vars(*lhs).iter().cloned());
                sets.ints.extend(self.term_vars(*rhs).iter().cloned());
            }
            FormulaNode::Divides(_, t) => sets.ints.extend(self.term_vars(*t).iter().cloned()),
            FormulaNode::Not(inner) => {
                let inner = self.formula_vars(*inner);
                sets.ints.extend(inner.ints.iter().cloned());
                sets.bools.extend(inner.bools.iter().cloned());
            }
            FormulaNode::And(parts) | FormulaNode::Or(parts) => {
                for p in parts {
                    let child = self.formula_vars(*p);
                    sets.ints.extend(child.ints.iter().cloned());
                    sets.bools.extend(child.bools.iter().cloned());
                }
            }
            FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => {
                for child in [self.formula_vars(*a), self.formula_vars(*b)] {
                    sets.ints.extend(child.ints.iter().cloned());
                    sets.bools.extend(child.bools.iter().cloned());
                }
            }
            FormulaNode::Quant(_, binders, body) => {
                // Binders are integer-sorted, matching `Formula::collect_free_vars`:
                // they shadow integer variables only.
                let inner = self.formula_vars(*body);
                sets.ints
                    .extend(inner.ints.iter().filter(|v| !binders.contains(v)).cloned());
                sets.bools.extend(inner.bools.iter().cloned());
            }
        }
        let arc = Arc::new(sets);
        self.memo().formula_vars.insert(f, Arc::clone(&arc));
        arc
    }

    /// Free integer variables of an interned formula.
    ///
    /// Var sets are memoized per node: a subtree shared by many verification
    /// conditions is walked once per arena lifetime, and repeat queries are a
    /// clone of the cached set — no tree reconstruction.
    pub fn int_vars(&self, f: FormulaId) -> HashSet<Ident> {
        self.formula_vars(f).ints.clone()
    }

    /// Free boolean variables of an interned formula (memoized per node).
    pub fn bool_vars(&self, f: FormulaId) -> HashSet<Ident> {
        self.formula_vars(f).bools.clone()
    }

    /// Free variables (integer and boolean) of an interned formula
    /// (memoized per node).
    pub fn free_vars(&self, f: FormulaId) -> HashSet<Ident> {
        let sets = self.formula_vars(f);
        let mut out = sets.ints.clone();
        out.extend(sets.bools.iter().cloned());
        out
    }

    /// Arrays read anywhere in an interned formula, matching
    /// [`Formula::arrays`]. Walks the DAG (each shared node once) without
    /// reconstructing trees or taking locks.
    pub fn arrays(&self, f: FormulaId) -> HashSet<Ident> {
        let mut out = HashSet::new();
        let mut formulas = vec![f];
        let mut terms = Vec::new();
        let mut seen_formulas = HashSet::new();
        let mut seen_terms = HashSet::new();
        while let Some(id) = formulas.pop() {
            if !seen_formulas.insert(id) {
                continue;
            }
            match self.fnode(id) {
                FormulaNode::True | FormulaNode::False | FormulaNode::BoolVar(_) => {}
                FormulaNode::Cmp(_, lhs, rhs) => terms.extend([*lhs, *rhs]),
                FormulaNode::Divides(_, t) => terms.push(*t),
                FormulaNode::Not(inner) | FormulaNode::Quant(_, _, inner) => formulas.push(*inner),
                FormulaNode::And(parts) | FormulaNode::Or(parts) => {
                    formulas.extend(parts.iter().copied())
                }
                FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => formulas.extend([*a, *b]),
            }
        }
        while let Some(id) = terms.pop() {
            if !seen_terms.insert(id) {
                continue;
            }
            match self.tnode(id) {
                TermNode::Int(_) | TermNode::Var(_) => {}
                TermNode::Add(parts) => terms.extend(parts.iter().copied()),
                TermNode::Sub(a, b) | TermNode::Mul(a, b) => terms.extend([*a, *b]),
                TermNode::Neg(a) => terms.push(*a),
                TermNode::Select(array, index) => {
                    out.insert(array.clone());
                    terms.push(*index);
                }
            }
        }
        out
    }

    /// Structural size (number of nodes, counting shared subtrees once per
    /// occurrence, matching [`Formula::size`]); memoized per node.
    pub fn size(&self, f: FormulaId) -> usize {
        // Leaf fast path: atoms have size 1 — skip the memo lock entirely.
        if matches!(
            self.fnode(f),
            FormulaNode::True
                | FormulaNode::False
                | FormulaNode::BoolVar(_)
                | FormulaNode::Cmp(..)
                | FormulaNode::Divides(..)
        ) {
            return 1;
        }
        if let Some(&s) = self.memo().size.get(&f) {
            return s;
        }
        let s = match self.fnode(f) {
            FormulaNode::True
            | FormulaNode::False
            | FormulaNode::BoolVar(_)
            | FormulaNode::Cmp(..)
            | FormulaNode::Divides(..) => 1,
            FormulaNode::Not(inner) => 1 + self.size(*inner),
            FormulaNode::And(parts) | FormulaNode::Or(parts) => {
                1 + parts.iter().map(|p| self.size(*p)).sum::<usize>()
            }
            FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => {
                1 + self.size(*a) + self.size(*b)
            }
            FormulaNode::Quant(_, _, body) => 1 + self.size(*body),
        };
        self.memo().size.insert(f, s);
        s
    }

    /// `true` when the interned formula contains a quantifier. Walks the DAG
    /// (each shared node once) without reconstructing trees or taking locks.
    pub fn has_quantifier(&self, f: FormulaId) -> bool {
        let mut visited = HashSet::new();
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                continue;
            }
            match self.fnode(id) {
                FormulaNode::Quant(..) => return true,
                FormulaNode::True
                | FormulaNode::False
                | FormulaNode::BoolVar(_)
                | FormulaNode::Cmp(..)
                | FormulaNode::Divides(..) => {}
                FormulaNode::Not(inner) => stack.push(*inner),
                FormulaNode::And(parts) | FormulaNode::Or(parts) => {
                    stack.extend(parts.iter().copied())
                }
                FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
            }
        }
        false
    }

    // -- memoized constant folding -----------------------------------------

    fn fold_term(&self, t: TermId, pass: Pass) -> TermId {
        // Leaf fast path: literals and variables fold to themselves.
        if matches!(self.tnode(t), TermNode::Int(_) | TermNode::Var(_)) {
            return t;
        }
        if let Some(&f) = self.memo().fold[pass as usize].get(&t) {
            return f;
        }
        let out = match self.tnode(t) {
            TermNode::Int(_) | TermNode::Var(_) => t,
            TermNode::Add(parts) => {
                let mut constant = 0i64;
                let mut rest: Vec<TermId> = Vec::new();
                for &p in parts {
                    let folded = self.fold_term(p, pass);
                    match self.tnode(folded) {
                        TermNode::Int(v) => constant = constant.saturating_add(*v),
                        TermNode::Add(inner) => rest.extend(inner.iter().copied()),
                        _ => rest.push(folded),
                    }
                }
                if rest.is_empty() {
                    self.put_term(TermNode::Int(constant))
                } else {
                    if constant != 0 {
                        let c = self.put_term(TermNode::Int(constant));
                        rest.push(c);
                    }
                    if rest.len() == 1 {
                        rest[0]
                    } else {
                        self.put_term(TermNode::Add(rest))
                    }
                }
            }
            TermNode::Sub(a, b) => {
                let fa = self.fold_term(*a, pass);
                let fb = self.fold_term(*b, pass);
                match (self.tnode(fa), self.tnode(fb)) {
                    (TermNode::Int(x), TermNode::Int(y)) => {
                        self.put_term(TermNode::Int(x.saturating_sub(*y)))
                    }
                    (_, TermNode::Int(0)) => fa,
                    _ => self.put_term(TermNode::Sub(fa, fb)),
                }
            }
            TermNode::Neg(a) => {
                let fa = self.fold_term(*a, pass);
                match self.tnode(fa) {
                    TermNode::Int(x) => self.put_term(TermNode::Int(x.wrapping_neg())),
                    TermNode::Neg(inner) => *inner,
                    _ => self.put_term(TermNode::Neg(fa)),
                }
            }
            TermNode::Mul(a, b) => {
                let fa = self.fold_term(*a, pass);
                let fb = self.fold_term(*b, pass);
                match (self.tnode(fa), self.tnode(fb)) {
                    (TermNode::Int(x), TermNode::Int(y)) => {
                        self.put_term(TermNode::Int(x.saturating_mul(*y)))
                    }
                    (TermNode::Int(0), _) | (_, TermNode::Int(0)) => {
                        self.put_term(TermNode::Int(0))
                    }
                    (TermNode::Int(1), _) => fb,
                    (_, TermNode::Int(1)) => fa,
                    _ => self.put_term(TermNode::Mul(fa, fb)),
                }
            }
            TermNode::Select(arr, idx) => {
                let arr = arr.clone();
                let fi = self.fold_term(*idx, pass);
                self.put_term(TermNode::Select(arr, fi))
            }
        };
        let mut memo = self.memo();
        memo.fold[pass as usize].insert(t, out);
        if pass == Pass::Trusting {
            memo.fold[pass as usize].insert(out, out);
        }
        out
    }

    // -- memoized simplification -------------------------------------------

    /// Memoized, per-node simplification. It constant-folds terms, evaluates
    /// comparisons between constants, drops `true`/`false` from connectives,
    /// collapses double negation, deduplicates conjuncts and disjuncts, and
    /// detects `p && !p` / `p || !p`; it is not a decision procedure.
    /// Identical subtrees are simplified once per arena lifetime, no matter
    /// how many formulas share them. A test-only tree version is the
    /// reference it is held to.
    ///
    /// Each result is recorded as its own normal form too, so simplifying an
    /// answer again is a lookup. That is not always what a second pass would
    /// compute: folding `(g + 1) + 1` flattens it to `g + 1 + 1`, and only a
    /// second fold sums the constants. Every solver query is normalised by
    /// this one; [`Interner::simplify_as_tree`] is the pass that takes
    /// nothing for granted.
    pub fn simplify(&self, f: FormulaId) -> FormulaId {
        self.simplify_in(f, Pass::Trusting)
    }

    /// Simplification as the tree pass computes it: the same rewrites as
    /// [`Interner::simplify`], memoized per node in a table of their own,
    /// but no node is taken for its own normal form because this pass
    /// produced it — simplifying an answer again is a pass of its own, as
    /// simplifying a tree twice is. Cooper's procedure normalises every
    /// matrix and answer with it.
    pub fn simplify_as_tree(&self, f: FormulaId) -> FormulaId {
        self.simplify_in(f, Pass::AsTree)
    }

    fn simplify_in(&self, f: FormulaId, pass: Pass) -> FormulaId {
        // Leaf fast path: constants and boolean variables are their own
        // normal form — skip the memo lock entirely.
        if matches!(
            self.fnode(f),
            FormulaNode::True | FormulaNode::False | FormulaNode::BoolVar(_)
        ) {
            return f;
        }
        if let Some(&s) = self.memo().simplify[pass as usize].get(&f) {
            return s;
        }
        let out = match self.fnode(f) {
            FormulaNode::True | FormulaNode::False | FormulaNode::BoolVar(_) => f,
            FormulaNode::Cmp(op, lhs, rhs) => self.simplify_cmp(*op, *lhs, *rhs, pass),
            FormulaNode::Divides(d, t) => {
                let d = *d;
                let t = self.fold_term(*t, pass);
                if d == 1 {
                    TRUE
                } else if let TermNode::Int(v) = self.tnode(t) {
                    if v.rem_euclid(d as i64) == 0 {
                        TRUE
                    } else {
                        FALSE
                    }
                } else {
                    self.put_formula(FormulaNode::Divides(d, t))
                }
            }
            FormulaNode::Not(inner) => {
                let si = self.simplify_in(*inner, pass);
                self.mk_not(si)
            }
            FormulaNode::And(parts) => {
                let simplified: Vec<FormulaId> =
                    parts.iter().map(|p| self.simplify_in(*p, pass)).collect();
                let flat = self.mk_and(simplified);
                match self.fnode(flat) {
                    FormulaNode::And(items) => {
                        let dedup = dedup_preserving_order(items.clone());
                        if self.has_complementary_pair(&dedup) {
                            FALSE
                        } else {
                            self.mk_and(dedup)
                        }
                    }
                    _ => flat,
                }
            }
            FormulaNode::Or(parts) => {
                let simplified: Vec<FormulaId> =
                    parts.iter().map(|p| self.simplify_in(*p, pass)).collect();
                let flat = self.mk_or(simplified);
                match self.fnode(flat) {
                    FormulaNode::Or(items) => {
                        let dedup = dedup_preserving_order(items.clone());
                        if self.has_complementary_pair(&dedup) {
                            TRUE
                        } else {
                            self.mk_or(dedup)
                        }
                    }
                    _ => flat,
                }
            }
            FormulaNode::Implies(a, b) => {
                let sa = self.simplify_in(*a, pass);
                let sb = self.simplify_in(*b, pass);
                match (self.fnode(sa), self.fnode(sb)) {
                    (FormulaNode::True, _) => sb,
                    (FormulaNode::False, _) | (_, FormulaNode::True) => TRUE,
                    (_, FormulaNode::False) => self.mk_not(sa),
                    _ if sa == sb => TRUE,
                    _ => self.put_formula(FormulaNode::Implies(sa, sb)),
                }
            }
            FormulaNode::Iff(a, b) => {
                let sa = self.simplify_in(*a, pass);
                let sb = self.simplify_in(*b, pass);
                match (self.fnode(sa), self.fnode(sb)) {
                    (FormulaNode::True, _) => sb,
                    (_, FormulaNode::True) => sa,
                    (FormulaNode::False, _) => self.mk_not(sb),
                    (_, FormulaNode::False) => self.mk_not(sa),
                    _ if sa == sb => TRUE,
                    _ => self.put_formula(FormulaNode::Iff(sa, sb)),
                }
            }
            FormulaNode::Quant(q, vars, body) => {
                let q = *q;
                let sb = self.simplify_in(*body, pass);
                match self.fnode(sb) {
                    FormulaNode::True | FormulaNode::False => sb,
                    _ => {
                        let free = self.formula_vars(sb);
                        let still_bound: Vec<Ident> = vars
                            .iter()
                            .filter(|v| free.ints.contains(*v))
                            .cloned()
                            .collect();
                        self.mk_quant(q, still_bound, sb)
                    }
                }
            }
        };
        // A trusting pass takes the result for its own normal form too.
        let mut memo = self.memo();
        memo.simplify[pass as usize].insert(f, out);
        if pass == Pass::Trusting {
            memo.simplify[pass as usize].insert(out, out);
        }
        out
    }

    fn simplify_cmp(&self, op: CmpOp, lhs: TermId, rhs: TermId, pass: Pass) -> FormulaId {
        let lhs = self.fold_term(lhs, pass);
        let rhs = self.fold_term(rhs, pass);
        if let (TermNode::Int(a), TermNode::Int(b)) = (self.tnode(lhs), self.tnode(rhs)) {
            return if op.eval(*a, *b) { TRUE } else { FALSE };
        }
        if lhs == rhs {
            return match op {
                CmpOp::Eq | CmpOp::Le | CmpOp::Ge => TRUE,
                CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => FALSE,
            };
        }
        self.mk_cmp(op, lhs, rhs)
    }

    fn has_complementary_pair(&self, items: &[FormulaId]) -> bool {
        let set: HashSet<FormulaId> = items.iter().copied().collect();
        items.iter().any(|&f| {
            let negated = self.mk_not(f);
            set.contains(&negated)
        })
    }

    // -- memoized negation normal form -------------------------------------

    /// Memoized negation normal form: negation only directly above boolean
    /// variables and divisibility atoms, implications and bi-implications
    /// expanded, a negated comparison flipped (`!(a < b)` is `a >= b`), a
    /// disequality split into `<` or `>`, and negated quantifiers dualised.
    /// A test-only tree version is the reference it is held to.
    pub fn nnf(&self, f: FormulaId) -> FormulaId {
        self.nnf_inner(f, false)
    }

    fn nnf_inner(&self, f: FormulaId, negate: bool) -> FormulaId {
        // Leaf fast path: positive constants/variables/atoms are already in
        // NNF — skip the memo lock entirely.
        if !negate
            && matches!(
                self.fnode(f),
                FormulaNode::True
                    | FormulaNode::False
                    | FormulaNode::BoolVar(_)
                    | FormulaNode::Divides(..)
            )
        {
            return f;
        }
        if let Some(&n) = self.memo().nnf.get(&(f, negate)) {
            return n;
        }
        let out = match self.fnode(f) {
            FormulaNode::True => {
                if negate {
                    FALSE
                } else {
                    f
                }
            }
            FormulaNode::False => {
                if negate {
                    TRUE
                } else {
                    f
                }
            }
            FormulaNode::BoolVar(_) => {
                if negate {
                    self.put_formula(FormulaNode::Not(f))
                } else {
                    f
                }
            }
            FormulaNode::Cmp(op, lhs, rhs) => {
                let op = if negate { op.negate() } else { *op };
                self.rewrite_cmp(op, *lhs, *rhs)
            }
            FormulaNode::Divides(..) => {
                if negate {
                    self.put_formula(FormulaNode::Not(f))
                } else {
                    f
                }
            }
            FormulaNode::Not(inner) => self.nnf_inner(*inner, !negate),
            FormulaNode::And(parts) => {
                let converted: Vec<FormulaId> =
                    parts.iter().map(|p| self.nnf_inner(*p, negate)).collect();
                if negate {
                    self.mk_or(converted)
                } else {
                    self.mk_and(converted)
                }
            }
            FormulaNode::Or(parts) => {
                let converted: Vec<FormulaId> =
                    parts.iter().map(|p| self.nnf_inner(*p, negate)).collect();
                if negate {
                    self.mk_and(converted)
                } else {
                    self.mk_or(converted)
                }
            }
            FormulaNode::Implies(a, b) => {
                let (a, b) = (*a, *b);
                if negate {
                    let na = self.nnf_inner(a, false);
                    let nb = self.nnf_inner(b, true);
                    self.mk_and(vec![na, nb])
                } else {
                    let na = self.nnf_inner(a, true);
                    let nb = self.nnf_inner(b, false);
                    self.mk_or(vec![na, nb])
                }
            }
            FormulaNode::Iff(a, b) => {
                let (a, b) = (*a, *b);
                let (p1, p2) = if negate {
                    let both = {
                        let x = self.nnf_inner(a, false);
                        let y = self.nnf_inner(b, true);
                        self.mk_and(vec![x, y])
                    };
                    let neither = {
                        let x = self.nnf_inner(a, true);
                        let y = self.nnf_inner(b, false);
                        self.mk_and(vec![x, y])
                    };
                    (both, neither)
                } else {
                    let both = {
                        let x = self.nnf_inner(a, false);
                        let y = self.nnf_inner(b, false);
                        self.mk_and(vec![x, y])
                    };
                    let neither = {
                        let x = self.nnf_inner(a, true);
                        let y = self.nnf_inner(b, true);
                        self.mk_and(vec![x, y])
                    };
                    (both, neither)
                };
                self.mk_or(vec![p1, p2])
            }
            FormulaNode::Quant(q, vars, body) => {
                let q = if negate {
                    match q {
                        Quantifier::Forall => Quantifier::Exists,
                        Quantifier::Exists => Quantifier::Forall,
                    }
                } else {
                    *q
                };
                let vars = vars.clone();
                let nb = self.nnf_inner(*body, negate);
                self.put_formula(FormulaNode::Quant(q, vars, nb))
            }
        };
        self.memo().nnf.insert((f, negate), out);
        out
    }

    fn rewrite_cmp(&self, op: CmpOp, lhs: TermId, rhs: TermId) -> FormulaId {
        match op {
            CmpOp::Ne => {
                let lt = self.mk_cmp(CmpOp::Lt, lhs, rhs);
                let gt = self.mk_cmp(CmpOp::Gt, lhs, rhs);
                self.mk_or(vec![lt, gt])
            }
            other => self.mk_cmp(other, lhs, rhs),
        }
    }

    // -- substitution ------------------------------------------------------

    /// Applies a substitution to an interned formula. Sharing is exploited:
    /// within one call every distinct subtree is rewritten at most once.
    pub fn apply_subst(&self, subst: &Subst, f: FormulaId) -> FormulaId {
        let int_map: HashMap<Ident, TermId> = subst
            .iter_ints()
            .map(|(v, t)| (v.clone(), self.intern_term(t)))
            .collect();
        let bool_map: HashMap<Ident, FormulaId> = subst
            .iter_bools()
            .map(|(v, g)| (v.clone(), self.intern(g)))
            .collect();
        let mut fmemo = HashMap::new();
        let mut tmemo = HashMap::new();
        self.subst_formula(&int_map, &bool_map, f, &mut fmemo, &mut tmemo)
    }

    fn subst_term(
        &self,
        int_map: &HashMap<Ident, TermId>,
        t: TermId,
        memo: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let out = match self.tnode(t) {
            TermNode::Int(_) => t,
            TermNode::Var(v) => int_map.get(v).copied().unwrap_or(t),
            TermNode::Add(parts) => {
                let ids: Vec<TermId> = parts
                    .iter()
                    .map(|p| self.subst_term(int_map, *p, memo))
                    .collect();
                self.put_term(TermNode::Add(ids))
            }
            TermNode::Sub(a, b) => {
                let sa = self.subst_term(int_map, *a, memo);
                let sb = self.subst_term(int_map, *b, memo);
                self.put_term(TermNode::Sub(sa, sb))
            }
            TermNode::Neg(a) => {
                let sa = self.subst_term(int_map, *a, memo);
                self.put_term(TermNode::Neg(sa))
            }
            TermNode::Mul(a, b) => {
                let sa = self.subst_term(int_map, *a, memo);
                let sb = self.subst_term(int_map, *b, memo);
                self.put_term(TermNode::Mul(sa, sb))
            }
            TermNode::Select(arr, idx) => {
                let arr = arr.clone();
                let si = self.subst_term(int_map, *idx, memo);
                self.put_term(TermNode::Select(arr, si))
            }
        };
        memo.insert(t, out);
        out
    }

    fn subst_formula(
        &self,
        int_map: &HashMap<Ident, TermId>,
        bool_map: &HashMap<Ident, FormulaId>,
        f: FormulaId,
        fmemo: &mut HashMap<FormulaId, FormulaId>,
        tmemo: &mut HashMap<TermId, TermId>,
    ) -> FormulaId {
        if let Some(&r) = fmemo.get(&f) {
            return r;
        }
        let out = match self.fnode(f) {
            FormulaNode::True | FormulaNode::False => f,
            FormulaNode::BoolVar(b) => bool_map.get(b).copied().unwrap_or(f),
            FormulaNode::Cmp(op, lhs, rhs) => {
                let op = *op;
                let sl = self.subst_term(int_map, *lhs, tmemo);
                let sr = self.subst_term(int_map, *rhs, tmemo);
                self.mk_cmp(op, sl, sr)
            }
            FormulaNode::Divides(d, t) => {
                let d = *d;
                let st = self.subst_term(int_map, *t, tmemo);
                self.put_formula(FormulaNode::Divides(d, st))
            }
            FormulaNode::Not(inner) => {
                let si = self.subst_formula(int_map, bool_map, *inner, fmemo, tmemo);
                self.mk_not(si)
            }
            FormulaNode::And(parts) => {
                let ids: Vec<FormulaId> = parts
                    .iter()
                    .map(|p| self.subst_formula(int_map, bool_map, *p, fmemo, tmemo))
                    .collect();
                self.mk_and(ids)
            }
            FormulaNode::Or(parts) => {
                let ids: Vec<FormulaId> = parts
                    .iter()
                    .map(|p| self.subst_formula(int_map, bool_map, *p, fmemo, tmemo))
                    .collect();
                self.mk_or(ids)
            }
            FormulaNode::Implies(a, b) => {
                let sa = self.subst_formula(int_map, bool_map, *a, fmemo, tmemo);
                let sb = self.subst_formula(int_map, bool_map, *b, fmemo, tmemo);
                self.put_formula(FormulaNode::Implies(sa, sb))
            }
            FormulaNode::Iff(a, b) => {
                let sa = self.subst_formula(int_map, bool_map, *a, fmemo, tmemo);
                let sb = self.subst_formula(int_map, bool_map, *b, fmemo, tmemo);
                self.put_formula(FormulaNode::Iff(sa, sb))
            }
            FormulaNode::Quant(q, binders, body) => {
                let (q, binders, body) = (*q, binders.clone(), *body);
                // Binders shadow the substitution; narrow the maps and use a
                // fresh memo for the narrowed scope.
                let shadowed = binders
                    .iter()
                    .any(|b| int_map.contains_key(b) || bool_map.contains_key(b));
                if shadowed {
                    let narrowed_int: HashMap<Ident, TermId> = int_map
                        .iter()
                        .filter(|(k, _)| !binders.contains(k))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    let narrowed_bool: HashMap<Ident, FormulaId> = bool_map
                        .iter()
                        .filter(|(k, _)| !binders.contains(k))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    let mut inner_fmemo = HashMap::new();
                    let mut inner_tmemo = HashMap::new();
                    let sb = self.subst_formula(
                        &narrowed_int,
                        &narrowed_bool,
                        body,
                        &mut inner_fmemo,
                        &mut inner_tmemo,
                    );
                    self.put_formula(FormulaNode::Quant(q, binders, sb))
                } else {
                    let sb = self.subst_formula(int_map, bool_map, body, fmemo, tmemo);
                    self.put_formula(FormulaNode::Quant(q, binders, sb))
                }
            }
        };
        fmemo.insert(f, out);
        out
    }
}

fn dedup_preserving_order(items: Vec<FormulaId>) -> Vec<FormulaId> {
    let mut seen = HashSet::new();
    items.into_iter().filter(|f| seen.insert(*f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simplify, to_nnf};

    fn rw_invariant() -> Formula {
        Formula::and(vec![
            Term::var("readers").ge(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
        ])
    }

    #[test]
    fn equal_trees_intern_to_the_same_id() {
        let arena = Interner::new();
        let a = arena.intern(&rw_invariant());
        let b = arena.intern(&rw_invariant());
        assert_eq!(a, b);
        // A structurally different formula gets a different id.
        let c = arena.intern(&Formula::not(rw_invariant()));
        assert_ne!(a, c);
    }

    #[test]
    fn shared_subtrees_are_stored_once() {
        let arena = Interner::new();
        let shared = Term::var("x").ge(Term::int(0));
        let before = {
            arena.intern(&shared);
            arena.formula_count()
        };
        // Reusing the subtree in two larger formulas adds only the new
        // connective nodes, not fresh copies of the leaf.
        arena.intern(&Formula::and(vec![shared.clone(), Formula::bool_var("p")]));
        arena.intern(&Formula::or(vec![shared, Formula::bool_var("p")]));
        assert_eq!(arena.formula_count(), before + 3); // p, the And, the Or
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let arena = Interner::new();
        let f = Formula::implies(
            rw_invariant(),
            Formula::exists(vec!["k".into()], Term::var("k").gt(Term::var("readers"))),
        );
        let id = arena.intern(&f);
        assert_eq!(arena.formula(id), f);
    }

    #[test]
    fn raw_nodes_intern_to_the_ids_their_trees_get() {
        // Rebuilding a DAG node by node in a second arena lands on the ids
        // tree interning computes there, and mints nothing extra.
        let source = Interner::new();
        let f = Formula::implies(
            rw_invariant(),
            Term::select("buf", Term::var("i").add(Term::int(1))).ge(Term::int(0)),
        );
        let id = source.intern(&f);
        assert_eq!(source.intern_formula_node(source.node(id)), id);

        let target = Interner::new();
        let FormulaNode::Implies(lhs, rhs) = source.node(id) else {
            panic!("expected an implication");
        };
        let FormulaNode::Cmp(op, select, zero) = source.node(rhs) else {
            panic!("expected a comparison");
        };
        let TermNode::Select(array, index) = source.term_node(select) else {
            panic!("expected an array read");
        };
        let index = target.intern_term(&source.term(index));
        let select = target.intern_term_node(TermNode::Select(array, index));
        let zero = target.intern_term(&source.term(zero));
        let rhs = target.intern_formula_node(FormulaNode::Cmp(op, select, zero));
        let lhs = target.intern(&source.formula(lhs));
        let rebuilt = target.intern_formula_node(FormulaNode::Implies(lhs, rhs));
        let nodes = target.stats();
        assert_eq!(target.intern(&f), rebuilt);
        assert_eq!(target.stats(), nodes);
    }

    #[test]
    fn importing_creates_the_nodes_interning_the_tree_would_in_its_order() {
        // Ids follow creation order, so two arenas that went through the same
        // history agree on every id exactly when they created the same nodes
        // in the same order.
        let source = Interner::new();
        let samples = crate::random_formulas::samples();
        let (by_tree, by_import) = (Interner::new(), Interner::new());
        for f in &samples {
            let id = source.intern(f);
            // Something of the target's own first, shared with the import.
            let part = source.formula(source.simplify(id));
            assert_eq!(by_tree.intern(&part), by_import.intern(&part));
            assert_eq!(
                by_tree.intern(&source.formula(id)),
                by_import.import(&source, id),
                "{f}"
            );
            assert_eq!(by_import.formula(by_import.import(&source, id)), *f);
        }
        assert_eq!(by_tree.stats(), by_import.stats());
        assert_eq!(source.import(&source, source.true_id()), source.true_id());
    }

    #[test]
    fn arena_simplify_matches_tree_simplify() {
        let arena = Interner::new();
        let cases = vec![
            Formula::and(vec![Formula::True, Term::int(1).lt(Term::int(2))]),
            Formula::and(vec![
                Formula::bool_var("p"),
                Formula::not(Formula::bool_var("p")),
            ]),
            Formula::or(vec![
                Formula::bool_var("p"),
                Formula::not(Formula::bool_var("p")),
            ]),
            Formula::implies(rw_invariant(), rw_invariant()),
            Formula::forall(vec!["z".into()], Term::var("x").ge(Term::int(0))),
            Formula::divides(2, Term::int(4)),
            Term::int(1)
                .add(Term::int(2))
                .add(Term::var("x"))
                .le(Term::var("y")),
        ];
        for f in cases {
            let id = arena.intern(&f);
            let via_arena = arena.formula(arena.simplify(id));
            assert_eq!(via_arena, simplify(&f), "mismatch for {f}");
        }
    }

    #[test]
    fn arena_simplify_nnf_and_folding_agree_with_tree_implementations() {
        let arena = Interner::new();
        for (i, f) in crate::random_formulas::samples().iter().enumerate() {
            let id = arena.intern(f);
            // Round trip is lossless.
            assert_eq!(&arena.formula(id), f, "sample {i}: roundtrip mangled {f}");
            // Memoized simplification (which includes constant folding of every
            // term) matches the tree implementation.
            let arena_simplified = arena.formula(arena.simplify(id));
            assert_eq!(
                arena_simplified,
                simplify(f),
                "sample {i}: simplify mismatch for {f}"
            );
            // Memoized NNF matches the tree implementation.
            let arena_nnf = arena.formula(arena.nnf(id));
            assert_eq!(arena_nnf, to_nnf(f), "sample {i}: nnf mismatch for {f}");
            // Normalisation is a fixpoint under re-simplification.
            let norm = arena.simplify(id);
            assert_eq!(arena.simplify(norm), norm, "sample {i}: not a fixpoint");
        }
    }

    #[test]
    fn simplify_is_memoized_per_node() {
        let arena = Interner::new();
        let f = rw_invariant();
        let id = arena.intern(&f);
        let first = arena.simplify(id);
        let second = arena.simplify(id);
        assert_eq!(first, second);
        // The simplified form is a fixpoint.
        assert_eq!(arena.simplify(first), first);
    }

    #[test]
    fn arena_nnf_matches_tree_nnf() {
        let arena = Interner::new();
        let cases = vec![
            Formula::not(rw_invariant()),
            Formula::implies(Formula::bool_var("a"), Formula::bool_var("b")),
            Formula::not(Formula::forall(
                vec!["x".into()],
                Term::var("x").ge(Term::int(0)),
            )),
            Term::var("x").ne(Term::int(0)),
            Formula::iff(Formula::bool_var("a"), Formula::bool_var("b")),
        ];
        for f in cases {
            let id = arena.intern(&f);
            assert_eq!(arena.formula(arena.nnf(id)), to_nnf(&f), "mismatch for {f}");
        }
    }

    #[test]
    fn arena_subst_matches_tree_subst() {
        let arena = Interner::new();
        let mut subst = Subst::new();
        subst.int("readers", Term::var("readers").add(Term::int(1)));
        subst.boolean("writerIn", Formula::False);
        let f = rw_invariant();
        let id = arena.intern(&f);
        assert_eq!(
            arena.formula(arena.apply_subst(&subst, id)),
            subst.apply(&f)
        );
        // Quantifier shadowing.
        let g = Formula::forall(
            vec!["readers".into()],
            Term::var("readers").ge(Term::int(0)),
        );
        let gid = arena.intern(&g);
        assert_eq!(
            arena.formula(arena.apply_subst(&subst, gid)),
            subst.apply(&g)
        );
    }

    #[test]
    fn constructors_collapse_constants() {
        let arena = Interner::new();
        let t = arena.true_id();
        let f = arena.false_id();
        assert_eq!(arena.mk_not(t), f);
        assert_eq!(arena.mk_and(vec![t, t]), t);
        assert_eq!(arena.mk_or(vec![f, f]), f);
        let p = arena.intern(&Formula::bool_var("p"));
        assert_eq!(arena.mk_and(vec![t, p]), p);
        assert_eq!(arena.mk_implies(f, p), t);
        assert_eq!(arena.mk_not(arena.mk_not(p)), p);
    }

    #[test]
    fn free_var_queries_agree_with_trees() {
        let arena = Interner::new();
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Term::var("x").lt(Term::var("y")),
                Term::select("buf", Term::var("i")).ge(Term::int(0)),
            ]),
        );
        let id = arena.intern(&f);
        assert_eq!(arena.int_vars(id), f.int_vars());
        assert_eq!(arena.free_vars(id), f.free_vars());
        assert_eq!(arena.arrays(id), f.arrays());
        assert_eq!(arena.size(id), f.size());
    }

    #[test]
    fn array_walk_agrees_with_trees_under_quantifiers() {
        let arena = Interner::new();
        // `a[b[i]]`, shared between both quantifiers, and a select inside a
        // divisibility atom, a negation and a sum.
        let nested = Term::select("a", Term::select("b", Term::var("i")));
        let cases = [
            Formula::forall(vec!["i".into()], nested.clone().ge(Term::int(0))),
            Formula::forall(
                vec!["i".into()],
                Formula::exists(
                    vec!["j".into()],
                    Formula::implies(
                        nested.clone().lt(Term::var("j")),
                        Formula::iff(
                            Formula::not(Formula::divides(
                                2,
                                Term::select("c", Term::var("j").neg()),
                            )),
                            Formula::bool_var("p"),
                        ),
                    ),
                ),
            ),
            Formula::or(vec![
                Formula::exists(vec!["k".into()], nested.clone().eq(Term::var("k"))),
                Term::select("d", nested.add(Term::select("e", Term::int(1))))
                    .le(Term::var("x").sub(Term::var("y"))),
            ]),
            Term::var("x").ge(Term::int(0)),
        ];
        for f in cases {
            let id = arena.intern(&f);
            assert_eq!(arena.arrays(id), arena.formula(id).arrays(), "{f}");
        }
    }

    #[test]
    fn chunk_locate_covers_the_slot_space_contiguously() {
        // Walking slots in order must walk chunks in order, starting each
        // chunk at offset 0 and filling it completely before the next.
        let (mut expect_k, mut expect_off) = (0usize, 0usize);
        for slot in 0..(FIRST_CHUNK_LEN * 20) {
            let (k, off) = locate(slot);
            assert_eq!((k, off), (expect_k, expect_off), "slot {slot}");
            expect_off += 1;
            if expect_off == chunk_len(expect_k) {
                expect_k += 1;
                expect_off = 0;
            }
        }
        // The table covers more than the id encoding can address.
        let (k, _) = locate(u32::MAX as usize);
        assert!(k < MAX_CHUNKS);
    }

    #[test]
    fn the_store_reads_back_and_drops_each_published_value_once() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// Counts its drops in `drops[self.1]`.
        struct Counted(Arc<Vec<AtomicUsize>>, usize);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0[self.1].fetch_add(1, Ordering::Relaxed);
            }
        }

        // Chunks 0, 1 and 2 end at slots 64, 192 and 448: stop on each side
        // of every boundary, and inside chunk 3.
        for n in [0, 1, 63, 64, 65, 191, 192, 193, 447, 448, 449, 500] {
            let drops: Arc<Vec<AtomicUsize>> =
                Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
            let store = AppendStore::new();
            for v in 0..n {
                // SAFETY: one thread, so one push at a time.
                assert_eq!(unsafe { store.push(Counted(Arc::clone(&drops), v)) }, v);
            }
            assert_eq!(store.len(), n);
            for v in 0..n {
                assert_eq!(store.get(v).1, v, "slot {v} of {n}");
            }
            // The next slot, one in a chunk not allocated yet, and the last
            // one an id can name are all unpublished.
            for slot in [n, 1000, u32::MAX as usize] {
                let read = catch_unwind(AssertUnwindSafe(|| store.get(slot).1));
                assert!(read.is_err(), "slot {slot} of {n} read");
            }
            assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == 0));
            drop(store);
            for (v, d) in drops.iter().enumerate() {
                assert_eq!(d.load(Ordering::Relaxed), 1, "slot {v} of {n}");
            }
        }
    }

    #[test]
    fn nodes_whose_hashes_collide_keep_their_own_ids() {
        // 2^18 random literals all but surely share a 32-bit index key
        // somewhere (about 8 pairs are expected); each keeps its own id.
        let mut rng = crate::Lcg::new(0x1D5);
        let literals: Vec<Term> = (0..1 << 18).map(|_| Term::int(rng.next() as i64)).collect();
        let arena = Interner::new();
        let ids: Vec<TermId> = literals.iter().map(|t| arena.intern_term(t)).collect();
        assert!(!arena.term_index.read().unwrap().more.is_empty());
        for (k, (t, &id)) in literals.iter().zip(&ids).enumerate() {
            assert_eq!((id.index(), arena.intern_term(t)), (k, id));
        }
    }

    #[test]
    fn ids_are_creation_order_per_kind() {
        // Formulas and terms are numbered apart, each kind from 0 in the
        // order its nodes are first interned; `true` and `false` come first.
        let arena = Interner::new();
        assert_eq!((arena.true_id().index(), arena.false_id().index()), (0, 1));
        let id = arena.intern(&rw_invariant());
        let readers = Term::var("readers").ge(Term::int(0));
        let writer = Formula::bool_var("writerIn");
        for (f, k) in [
            (readers.clone(), 2),
            (writer.clone(), 3),
            (Formula::not(writer), 4),
            (rw_invariant(), 5),
        ] {
            assert_eq!(arena.intern(&f).index(), k, "{f}");
        }
        assert_eq!(arena.intern_term(&Term::var("readers")).index(), 0);
        assert_eq!(arena.intern_term(&Term::int(0)).index(), 1);
        assert_eq!((arena.formula_count(), arena.term_count()), (6, 2));

        // A new node gets the next index; a known one keeps its own.
        for f in &crate::random_formulas::samples() {
            let before = arena.formula_count();
            let id = arena.intern(f);
            if arena.formula_count() > before {
                assert_eq!(id.index(), arena.formula_count() - 1, "{f}");
            } else {
                assert!(id.index() < before, "{f}");
            }
        }

        // An import numbers its nodes after the target's own, in the order
        // interning the tree would.
        let target = Interner::new();
        assert_eq!(target.intern(&Formula::bool_var("p")).index(), 2);
        assert_eq!(target.import(&arena, id).index(), 6);
        assert_eq!(target.intern(&readers).index(), 3);
        assert_eq!(target.intern(&Formula::bool_var("writerIn")).index(), 4);
    }
}

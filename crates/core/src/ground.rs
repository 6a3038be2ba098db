//! The grounding reduction of Theorem 4.1.
//!
//! Given a finite history `D` and a universal sentence
//! `φ ≡ ∀x1 … xk ψ` (quantifier-free matrix `ψ`), build:
//!
//! * the set `M = R_D ∪ {z1, …, zk}` — the relevant elements plus `k`
//!   symbolic fresh elements standing for arbitrary irrelevant ones;
//! * the propositional vocabulary `L_D` with letters `(a = b)` and
//!   `p(a1, …, a_ar(p))` for `a_i ∈ M ∪ CL`;
//! * the formula `Ψ_D = ⋀_f ψ[f]`, `f` ranging over all `|M|^k` maps
//!   from the external variables to `M`;
//! * the axiom block `Axiom_D` (equality is an equivalence and a
//!   congruence; the rigid equalities among `R_D ∪ CL` are decided; the
//!   `z_i` are pairwise distinct, distinct from everything relevant, and
//!   satisfy no database predicate);
//! * the propositional prefix `w_D = (w0, …, wt)` describing the
//!   history's states.
//!
//! Two modes are provided:
//! * [`GroundMode::Full`] — the paper's construction verbatim:
//!   `φ_D = Ψ_D ∧ □Axiom_D`, with every rigid letter materialised;
//! * [`GroundMode::Folded`] — every *rigid* letter (all equalities, and
//!   `p(…z…)` letters, whose truth values `Axiom_D` fixes for all time)
//!   is constant-folded at construction. The two modes are equivalent
//!   for the extension problem (property-tested); `Folded` is the only
//!   mode the engine runs, and `Full` is kept as the oracle the tests
//!   and ablation E6 call through [`ground`].
//!
//! **Past connectives.** A matrix may use `●` and `since` over past
//! formulas. Grounding rewrites each past subformula of an
//! instantiation into an *internal* letter `ℓ` standing for `●D`
//! ([`LetterKey::Past`], marked with [`Arena::mark_internal`]): `●A`
//! becomes `ℓ` with `D = A`, and `A S B` becomes `B ∨ (A ∧ ℓ)` with `D`
//! that same formula. The instantiation is conjoined with each letter's
//! future-form definition `¬ℓ ∧ □(○ℓ ↔ D)` — `ℓ` is false at instant 0
//! and at `i + 1` takes `D`'s value at `i` — so `φ_D` is a future
//! formula, and each of its progression residues pins `ℓ` with a
//! top-level literal ([`ticc_ptl::progression::pins`]). States never
//! valuate an internal letter: the encoder, the trace and every column
//! see database letters only. Such matrices ground with the odometer.

use crate::fact::{FactMemo, Net};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use ticc_fotl::classify::{classify, FormulaClass};
use ticc_fotl::{Atom, Formula, Term};
use ticc_ptl::arena::{Arena, AtomId, FormulaId};
use ticc_ptl::automaton::{canonicalize, split_units, TemplateKey};
use ticc_ptl::interner::AtomInterner;
use ticc_ptl::trace::PropState;
use ticc_tdb::{ConstId, History, PredId, Schema, State, Value};

/// Which construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroundMode {
    /// Rigid letters constant-folded away (production).
    #[default]
    Folded,
    /// The literal paper construction with `□Axiom_D`.
    Full,
}

/// Which enumeration strategy built `Ψ_D`, as reported by
/// [`Grounding::strategy`].
///
/// [`GroundStrategy::Indexed`] (production) walks the instantiations
/// *the data supports* instead of the full `|M|^k` cross product: an
/// atom-occurrence index maps each flexible atom pattern of the matrix
/// to the ground tuples actually appearing in the history, and only
/// instantiations with at least one such supported atom are grounded.
/// The skipped remainder is summarised by the canonical
/// all-atoms-rigid-false residue, which the strategy requires to fold
/// to `⊤` (see DESIGN.md §"Indexed grounding"); matrices outside that
/// class fall back to the odometer transparently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundStrategy {
    /// Blind odometer sweep over all `|M|^k` instantiations (the
    /// paper's construction verbatim: the reference pipeline, and
    /// production's fallback outside the indexed class).
    Odometer,
    /// Relevance-pruned, index-driven enumeration (production).
    Indexed,
}

/// A ground argument: a relevant element, a symbolic fresh element
/// `z_i`, or (in full mode) a constant symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GArg {
    /// An element of `R_D` (or an explicit value from the formula).
    Rel(Value),
    /// The symbolic fresh element `z_{i+1}` (0-based index).
    Fresh(usize),
    /// A constant symbol (full mode only; folded mode resolves constants
    /// to their rigid interpretation).
    Const(ConstId),
}

/// Errors from grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundError {
    /// The sentence is not universal (`∀*tense(Π0)`); Theorem 4.1 does
    /// not apply. Carries the classification found.
    NotUniversal(FormulaClass),
    /// The sentence uses the extended vocabulary (`≤`, `succ`, `Zero`),
    /// which is outside Theorem 4.1 (Section 3 shows why: it makes the
    /// problem undecidable).
    ExtendedVocabulary,
    /// The sentence has free variables.
    OpenFormula(String),
}

impl std::fmt::Display for GroundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroundError::NotUniversal(c) => {
                write!(f, "not a universal sentence (classified as {c:?})")
            }
            GroundError::ExtendedVocabulary => write!(
                f,
                "extended vocabulary (<=, succ, zero) is outside the decidable fragment"
            ),
            GroundError::OpenFormula(v) => write!(f, "free variable {v} in constraint"),
        }
    }
}

impl std::error::Error for GroundError {}

/// Size statistics of a grounding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroundStats {
    /// `|M|` (relevant elements + fresh symbols).
    pub m_size: usize,
    /// Number of external quantifiers `k`.
    pub external_vars: usize,
    /// Number of ground instances `|M|^k`.
    pub mappings: usize,
    /// Propositional letters interned.
    pub letters: usize,
    /// Conjuncts emitted for `Axiom_D` (0 in folded mode).
    pub axiom_conjuncts: usize,
    /// Tree size of `φ_D` (saturating). Computed when read
    /// ([`Grounding::stats`]): the walk grows with `|Ψ_D|`. A growth
    /// grounds nothing into the formula, so for an engine context this
    /// is the size of the `Ψ_D` it was built with; the instantiations
    /// added since live as units (`mappings` and `inst_enumerated`
    /// count them).
    pub formula_tree_size: usize,
    /// DAG size of `φ_D`, computed when read like `formula_tree_size`.
    pub formula_dag_size: usize,
    /// Instantiations actually grounded. Equals `mappings` under the
    /// odometer; under the indexed strategy it counts the data-supported
    /// instantiations (initial build plus later activations).
    pub inst_enumerated: usize,
    /// Instantiations summarised by the canonical rigid-false residue
    /// instead of being grounded (`mappings − inst_enumerated` under the
    /// indexed strategy, 0 under the odometer).
    pub inst_pruned: usize,
    /// Enumerated instantiations whose ground formula hash-consed to a
    /// conjunct already emitted by an earlier instantiation (structure
    /// sharing across the `Ψ_D` DAG). Indexed strategy only.
    pub inst_shared: usize,
}

/// The structured key of a propositional letter in `L_D`: a ground
/// predicate fact `p(a⃗)` or an equality `(a = b)`, or an internal
/// letter standing for a past subformula. Replaces the former ad-hoc
/// string/`Vec` key pairs — one [`AtomInterner`] over these keys is
/// the single letter table shared by formula construction and state
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LetterKey {
    /// `p(a1, …, a_ar(p))`.
    Pred(PredId, Vec<GArg>),
    /// `(a = b)`.
    Eq(GArg, GArg),
    /// The `n`-th internal letter of a formula built over the arena: a
    /// letter `ℓ` standing for `●D`, defined by the formula itself
    /// (see the module docs, "Past connectives"). No
    /// state valuates it.
    Past(u32),
}

/// The output of the reduction: `φ_D`, `w_D`, and the letter table
/// needed to translate further database states (used by the incremental
/// monitor).
pub struct Grounding {
    /// The PTL arena owning `φ_D`.
    pub arena: Arena,
    /// The formula `φ_D` (in full mode `Ψ_D ∧ □Axiom_D`) as grounded:
    /// `Grounding::grow` extends `M` but grounds nothing, so after a
    /// growth this is the `Ψ_D` of the history the grounding was built
    /// over, and the engine's units carry the instantiations added
    /// since.
    pub formula: FormulaId,
    /// The propositional prefix `w_D`.
    pub trace: Vec<PropState>,
    /// The set `M` (relevant + fresh), in the order used for mappings.
    /// `Grounding::grow` appends further relevant elements at the end.
    pub m: Vec<GArg>,
    /// Statistics, except the two formula sizes, which stay 0 here:
    /// read them through [`Grounding::stats`].
    pub(crate) stats: GroundStats,
    mode: GroundMode,
    schema: Arc<Schema>,
    consts: Vec<Value>,
    letters: AtomInterner<LetterKey>,
    /// The external quantifier prefix and quantifier-free matrix of the
    /// source sentence, kept so seed instantiations can be grounded
    /// when `R_D` grows (see [`Grounding::ground_parts`]).
    external: Vec<String>,
    matrix: Formula,
    /// The concrete values of `M` as a persistent set, extended by
    /// [`Grounding::grow`] — the known-universe membership test
    /// without rebuilding a `BTreeSet` per append.
    known: BTreeSet<Value>,
    /// Each concrete value's position in `m`: how an occurring tuple
    /// becomes digits.
    m_pos: HashMap<Value, u32>,
    /// Engine fact id → this grounding's letter ([`FactMemo`]), filled
    /// as net-inserted facts are patched in: the per-append hot path
    /// resolves a fact with one array index. A miss, and every path
    /// without a fact id, goes through the interner.
    memo: FactMemo,
    /// Valuation buffers freed by the last trace truncation, which
    /// [`Grounding::patch_state`] copies the next valuations into
    /// instead of allocating them.
    spare: Vec<PropState>,
    /// The flexible-atom patterns the indexed enumerator joins against
    /// the occurrence index. `Some` exactly when the indexed strategy
    /// is in effect for this grounding (the matrix passed the
    /// rigid-false-fold gate and the initial join actually pruned).
    plan: Option<IndexPlan>,
    /// Atom-occurrence index: every ground tuple of a predicate the
    /// plan mentions that has appeared in some state of the history.
    /// Monotone (deletes do not retract an occurrence). Maintained only
    /// under the indexed strategy; `BTree` containers so enumeration
    /// order is canonical.
    occ: BTreeMap<PredId, BTreeSet<Vec<Value>>>,
    /// The partial bindings of `occ` that leave a digit unbound
    /// (see [`enumerate_active`]), kept so a growing `M` joins only
    /// them.
    open: BTreeSet<Vec<u32>>,
    /// The instantiations grounded so far, as digit vectors over `m`
    /// (indexed strategy only). Invariant: equals the join of `plan`
    /// against `occ` over the current `m` — which is how a restored
    /// engine rebuilds it from the persisted occurrence index.
    active: HashSet<Vec<u32>>,
    /// Wall time spent building and joining the occurrence index,
    /// surfaced as the `index build` engine timer.
    pub(crate) index_build: std::time::Duration,
    /// Reusable fast-append scratch buffers (net-effect order, patched
    /// letters) plus the capacity-growth counter the engine folds into
    /// `EngineStats::scratch_allocs` — see [`FastScratch`].
    scratch: FastScratch,
}

/// Reusable scratch for the per-append hot path. A steady-state append
/// (no new relevant elements, no first-occurrence tuples) must not
/// allocate in the grounding layer: the patched-letter list is built in
/// this recycled buffer. `allocs` counts its capacity growths; after
/// warm-up it stays flat, and the engine folds the per-append delta
/// into [`EngineStats::scratch_allocs`](crate::EngineStats).
#[derive(Default)]
struct FastScratch {
    /// The letters patched by the last [`Grounding::patch_state`] call,
    /// in deterministic patch order.
    patched: Vec<AtomId>,
    /// Capacity growths of `patched` since the grounding was built (or
    /// restored).
    allocs: u64,
}

/// One predicate-atom pattern of the matrix, with variables resolved
/// to external digit positions and constants to their rigid values.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AtomPattern {
    pred: PredId,
    terms: Vec<PatTerm>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatTerm {
    /// The external variable occupying this digit position.
    Digit(usize),
    /// A concrete value (explicit, or a constant folded at plan time).
    Val(Value),
}

/// The per-constraint index plan driving relevance-pruned enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexPlan {
    patterns: Vec<AtomPattern>,
    /// The predicates the patterns mention: the only ones the
    /// occurrence index tracks, since no other tuple supports an
    /// instantiation.
    preds: Vec<PredId>,
}

impl IndexPlan {
    fn new(patterns: Vec<AtomPattern>) -> IndexPlan {
        let mut preds: Vec<PredId> = patterns.iter().map(|p| p.pred).collect();
        preds.sort_unstable();
        preds.dedup();
        IndexPlan { patterns, preds }
    }

    fn tracks(&self, p: PredId) -> bool {
        self.preds.contains(&p)
    }

    /// Whether a pattern leaves one of the `k` variables unbound, so
    /// that an occurrence stores an open partial binding.
    fn leaves_open(&self, k: usize) -> bool {
        self.patterns
            .iter()
            .any(|pat| (0..k).any(|d| !pat.terms.contains(&PatTerm::Digit(d))))
    }
}

/// Collects the matrix's predicate-atom patterns with every variable
/// resolved to its external digit. Returns `None` (odometer fallback)
/// when the matrix contains an equality atom: equalities fold
/// differently per instantiation, so the pruned remainder would not
/// collapse to a single canonical residue; and when it contains a past
/// connective, whose internal letters make every instantiation carry
/// its own definitions.
fn index_patterns(
    matrix: &Formula,
    external: &[String],
    consts: &[Value],
) -> Option<Vec<AtomPattern>> {
    let digit: HashMap<&str, usize> = external
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), i))
        .collect();
    let mut out: Vec<AtomPattern> = Vec::new();
    let mut stack = vec![matrix];
    while let Some(f) = stack.pop() {
        if let Formula::Prev(_) | Formula::Since(_, _) = f {
            return None;
        }
        if let Formula::Atom(a) = f {
            match a {
                Atom::Eq(_, _) => return None,
                Atom::Pred(p, ts) => {
                    let terms: Option<Vec<PatTerm>> = ts
                        .iter()
                        .map(|t| match t {
                            Term::Var(v) => digit.get(v.as_str()).map(|&d| PatTerm::Digit(d)),
                            Term::Value(v) => Some(PatTerm::Val(*v)),
                            Term::Const(c) => Some(PatTerm::Val(consts[c.index()])),
                        })
                        .collect();
                    let pat = AtomPattern {
                        pred: *p,
                        terms: terms?,
                    };
                    if !out.contains(&pat) {
                        out.push(pat);
                    }
                }
                Atom::Leq(_, _) | Atom::Succ(_, _) | Atom::Zero(_) => return None,
            }
        }
        stack.extend(f.children());
    }
    Some(out)
}

/// The canonical all-atoms-rigid-false residue: the matrix with every
/// predicate atom folded to `⊥`. `Axiom_D` fixes `p(…z…)` letters false
/// for all time, and a pruned instantiation's remaining letters are
/// false throughout `w_D` by construction, so every pruned
/// instantiation progresses exactly like this fold. The indexed
/// strategy requires the fold to be `⊤`, making the entire pruned
/// remainder of `|M|^k` contribute nothing to `Ψ_D`. Must only be
/// called on matrices accepted by [`index_patterns`] (no equalities).
fn fold_rigid_false(arena: &mut Arena, matrix: &Formula) -> FormulaId {
    match matrix {
        Formula::True => arena.tru(),
        Formula::False | Formula::Atom(_) => arena.fls(),
        Formula::Not(g) => {
            let x = fold_rigid_false(arena, g);
            arena.not(x)
        }
        Formula::And(a, b) => {
            let x = fold_rigid_false(arena, a);
            let y = fold_rigid_false(arena, b);
            arena.and(x, y)
        }
        Formula::Or(a, b) => {
            let x = fold_rigid_false(arena, a);
            let y = fold_rigid_false(arena, b);
            arena.or(x, y)
        }
        Formula::Implies(a, b) => {
            let x = fold_rigid_false(arena, a);
            let y = fold_rigid_false(arena, b);
            arena.implies(x, y)
        }
        Formula::Next(g) => {
            let x = fold_rigid_false(arena, g);
            arena.next(x)
        }
        Formula::Until(a, b) => {
            let x = fold_rigid_false(arena, a);
            let y = fold_rigid_false(arena, b);
            arena.until(x, y)
        }
        Formula::Forall(_, _) | Formula::Exists(_, _) | Formula::Prev(_) | Formula::Since(_, _) => {
            unreachable!("quantifier-free matrix without past connectives (index_patterns)")
        }
    }
}

/// Builds the occurrence index from the history: every tuple of a
/// predicate `plan` tracks that is present in any state.
fn build_occ(history: &History, plan: &IndexPlan) -> BTreeMap<PredId, BTreeSet<Vec<Value>>> {
    let mut occ: BTreeMap<PredId, BTreeSet<Vec<Value>>> = BTreeMap::new();
    for t in 0..history.len() {
        let state = history.state(t);
        for &p in &plan.preds {
            for tuple in state.relation(p).iter() {
                occ.entry(p).or_default().insert(tuple.to_vec());
            }
        }
    }
    occ
}

/// Sentinel digit for "not yet bound by unification".
const UNBOUND: u32 = u32::MAX;

/// The positions of `M`'s concrete values.
fn value_positions(m: &[GArg]) -> HashMap<Value, u32> {
    m.iter()
        .enumerate()
        .filter_map(|(i, &a)| match a {
            GArg::Rel(v) => Some((v, i as u32)),
            _ => None,
        })
        .collect()
}

/// Unifies an occurring tuple against a pattern: the digits it binds
/// (positions into `M`, [`UNBOUND`] elsewhere), or `None` when the
/// tuple does not match.
fn unify(
    pat: &AtomPattern,
    tuple: &[Value],
    m_pos: &HashMap<Value, u32>,
    k: usize,
) -> Option<Vec<u32>> {
    debug_assert_eq!(tuple.len(), pat.terms.len());
    let mut partial = vec![UNBOUND; k];
    for (term, &val) in pat.terms.iter().zip(tuple) {
        match *term {
            PatTerm::Val(v) if v != val => return None,
            PatTerm::Val(_) => {}
            PatTerm::Digit(d) => {
                let pos = *m_pos.get(&val)?;
                if partial[d] != UNBOUND && partial[d] != pos {
                    return None;
                }
                partial[d] = pos;
            }
        }
    }
    Some(partial)
}

/// Calls `f` on every digit vector that agrees with `partial` on its
/// bound digits and, at its unbound ones, takes a digit in `0..msize`
/// with at least one in `fresh..msize` (`fresh = 0`: no restriction).
/// Each vector is produced once: the first unbound digit at or past
/// `fresh` is the split point, so earlier unbound digits range over
/// `0..fresh`, it over `fresh..msize`, and later ones over all of `M`.
fn expand(partial: &[u32], fresh: usize, msize: usize, mut f: impl FnMut(Vec<u32>)) {
    let unbound: Vec<usize> = (0..partial.len())
        .filter(|&d| partial[d] == UNBOUND)
        .collect();
    if fresh == 0 {
        let ranges = vec![0..msize; unbound.len()];
        return odometer(partial, &unbound, &ranges, &mut f);
    }
    for split in 0..unbound.len() {
        let ranges: Vec<std::ops::Range<usize>> = (0..unbound.len())
            .map(|i| match i.cmp(&split) {
                std::cmp::Ordering::Less => 0..fresh,
                std::cmp::Ordering::Equal => fresh..msize,
                std::cmp::Ordering::Greater => 0..msize,
            })
            .collect();
        odometer(partial, &unbound, &ranges, &mut f);
    }
}

/// Every completion of `partial` with digit `unbound[j]` ranging over
/// `ranges[j]` (digit 0 fastest).
fn odometer(
    partial: &[u32],
    unbound: &[usize],
    ranges: &[std::ops::Range<usize>],
    f: &mut impl FnMut(Vec<u32>),
) {
    if ranges.iter().any(|r| r.is_empty()) {
        return;
    }
    let mut idx: Vec<usize> = ranges.iter().map(|r| r.start).collect();
    loop {
        let mut full = partial.to_vec();
        for (j, &d) in unbound.iter().enumerate() {
            full[d] = idx[j] as u32;
        }
        f(full);
        let mut pos = 0;
        while pos < idx.len() {
            idx[pos] += 1;
            if idx[pos] < ranges[pos].end {
                break;
            }
            idx[pos] = ranges[pos].start;
            pos += 1;
        }
        if pos == idx.len() {
            break;
        }
    }
}

/// Sorts digit vectors into the canonical linear odometer order (digit
/// 0 fastest, so the most significant digit is the last) and drops
/// duplicates.
fn canonical_order(cands: &mut Vec<Vec<u32>>) {
    cands.sort_unstable_by(|a, b| a.iter().rev().cmp(b.iter().rev()));
    cands.dedup();
}

/// Index-driven enumeration: every instantiation (digit vector over
/// `m`, whose values sit at `m_pos`) with at least one flexible atom
/// matching an occurring tuple, deduplicated and in canonical odometer
/// order. For each pattern and each occurring tuple of its predicate,
/// the tuple is unified against the pattern, binding the pattern's
/// digits; the remaining digits range over all of `M`. Also returns
/// the distinct *open* partial bindings (a digit left unbound): what a
/// growing `M` extends into new supported instantiations
/// ([`Grounding::delta_join`]).
///
/// With `cap = Some(n)` the enumeration aborts with `None` as soon as
/// the candidate list reaches `n` — the join is not pruning, so the
/// caller keeps the odometer.
#[allow(clippy::type_complexity)]
fn enumerate_active(
    patterns: &[AtomPattern],
    occ: &BTreeMap<PredId, BTreeSet<Vec<Value>>>,
    m_pos: &HashMap<Value, u32>,
    msize: usize,
    k: usize,
    cap: Option<usize>,
) -> Option<(Vec<Vec<u32>>, BTreeSet<Vec<u32>>)> {
    let mut cands: Vec<Vec<u32>> = Vec::new();
    let mut open = BTreeSet::new();
    for pat in patterns {
        let Some(tuples) = occ.get(&pat.pred) else {
            continue;
        };
        for tuple in tuples {
            let Some(partial) = unify(pat, tuple, m_pos, k) else {
                continue;
            };
            let unbound = partial.iter().filter(|&&d| d == UNBOUND).count();
            let total = msize.checked_pow(unbound as u32).unwrap_or(usize::MAX);
            if cap.is_some_and(|c| cands.len().saturating_add(total) >= c) {
                return None;
            }
            expand(&partial, 0, msize, |f| cands.push(f));
            if unbound > 0 {
                open.insert(partial);
            }
        }
    }
    canonical_order(&mut cands);
    if cap.is_some_and(|c| cands.len() >= c) {
        return None;
    }
    Some((cands, open))
}

fn garg_value(a: GArg, consts: &[Value]) -> Option<Value> {
    match a {
        GArg::Rel(v) => Some(v),
        GArg::Const(c) => Some(consts[c.index()]),
        GArg::Fresh(_) => None,
    }
}

fn gargs_equal(a: GArg, b: GArg, consts: &[Value]) -> bool {
    match (garg_value(a, consts), garg_value(b, consts)) {
        (Some(x), Some(y)) => x == y,
        // A fresh element equals only itself.
        _ => a == b,
    }
}

fn write_garg(out: &mut String, a: GArg, schema: &Schema) {
    match a {
        GArg::Rel(v) => {
            let _ = write!(out, "{v}");
        }
        GArg::Fresh(i) => {
            let _ = write!(out, "z{}", i + 1);
        }
        GArg::Const(c) => out.push_str(schema.const_name(c)),
    }
}

/// Renders the display name of a letter (run only on first interning).
fn render_letter(key: &LetterKey, schema: &Schema) -> String {
    match key {
        LetterKey::Eq(a, b) => {
            let mut name = String::from("(");
            write_garg(&mut name, *a, schema);
            name.push('=');
            write_garg(&mut name, *b, schema);
            name.push(')');
            name
        }
        LetterKey::Pred(p, args) => {
            let mut name = String::new();
            name.push_str(schema.pred_name(*p));
            name.push('(');
            for (i, &a) in args.iter().enumerate() {
                if i > 0 {
                    name.push(',');
                }
                write_garg(&mut name, a, schema);
            }
            name.push(')');
            name
        }
        LetterKey::Past(n) => format!("●{n}"),
    }
}

fn intern_letter(
    arena: &mut Arena,
    letters: &mut AtomInterner<LetterKey>,
    schema: &Schema,
    key: LetterKey,
) -> AtomId {
    letters.intern(arena, key, |k| render_letter(k, schema))
}

/// The internal letter `Past(n)`, interned and marked on first sight.
fn internal_letter(
    arena: &mut Arena,
    letters: &mut AtomInterner<LetterKey>,
    schema: &Schema,
    n: u32,
) -> AtomId {
    let a = intern_letter(arena, letters, schema, LetterKey::Past(n));
    arena.mark_internal(a);
    a
}

/// All vectors of length `r` over `items` (lexicographic by index).
fn vectors(items: &[GArg], r: usize) -> Vec<Vec<GArg>> {
    let mut out = vec![vec![]];
    for _ in 0..r {
        let mut next = Vec::with_capacity(out.len() * items.len());
        for v in &out {
            for &a in items {
                let mut w = v.clone();
                w.push(a);
                next.push(w);
            }
        }
        out = next;
    }
    out
}

fn collect_values(f: &Formula, out: &mut std::collections::BTreeSet<Value>) {
    if let Formula::Atom(a) = f {
        for t in a.terms() {
            if let Term::Value(v) = t {
                out.insert(*v);
            }
        }
    }
    for c in f.children() {
        collect_values(c, out);
    }
}

/// Grounds `(history, phi)` per Theorem 4.1 with the odometer
/// enumeration (the construction verbatim).
pub fn ground(
    history: &History,
    phi: &Formula,
    mode: GroundMode,
) -> Result<Grounding, GroundError> {
    ground_with(history, phi, mode, GroundStrategy::Odometer)
}

/// Grounds `(history, phi)` with production's indexed enumeration
/// (see [`GroundStrategy::Indexed`]), falling back to the odometer
/// transparently outside the indexed class.
pub fn ground_indexed(
    history: &History,
    phi: &Formula,
    mode: GroundMode,
) -> Result<Grounding, GroundError> {
    ground_with(history, phi, mode, GroundStrategy::Indexed)
}

/// Grounds `(history, phi)` with `strategy`. Letters are interned on
/// first sight while `Ψ_D` is built, so atom ids follow the
/// enumeration order.
pub(crate) fn ground_with(
    history: &History,
    phi: &Formula,
    mode: GroundMode,
    strategy: GroundStrategy,
) -> Result<Grounding, GroundError> {
    if let Some(v) = ticc_fotl::subst::free_vars(phi).into_iter().next() {
        return Err(GroundError::OpenFormula(v));
    }
    if phi.uses_extended_vocabulary() {
        return Err(GroundError::ExtendedVocabulary);
    }
    match classify(phi) {
        FormulaClass::Universal { .. } => {}
        other => return Err(GroundError::NotUniversal(other)),
    }
    let (external, matrix) = ticc_fotl::classify::external_prefix(phi);
    let external: Vec<String> = external.into_iter().map(str::to_owned).collect();
    let schema = history.schema().clone();
    let consts: Vec<Value> = schema.consts().map(|c| history.const_value(c)).collect();

    // M = R_D ∪ explicit formula values ∪ {z1..zk}.
    let mut rel = history.relevant();
    collect_values(phi, &mut rel);
    let mut m: Vec<GArg> = rel.into_iter().map(GArg::Rel).collect();
    for i in 0..external.len() {
        m.push(GArg::Fresh(i));
    }

    let mut arena = Arena::new();
    let mut letters: AtomInterner<LetterKey> = AtomInterner::new();

    let k = external.len();
    let msize = m.len();
    let mappings = msize.pow(k as u32).max(1);

    // Indexed strategy gate: folded construction, at least one external
    // variable, an equality-free matrix whose all-atoms-rigid-false
    // fold is ⊤, and a join that actually prunes (strictly fewer
    // candidates than |M|^k). Anything else keeps the odometer.
    let mut index_build = std::time::Duration::ZERO;
    let m_pos = value_positions(&m);
    let mut occ = BTreeMap::new();
    let mut open = BTreeSet::new();
    let mut plan: Option<IndexPlan> = None;
    let mut cands: Option<Vec<Vec<u32>>> = None;
    if strategy == GroundStrategy::Indexed && mode == GroundMode::Folded && k > 0 {
        let t0 = std::time::Instant::now();
        if let Some(patterns) = index_patterns(matrix, &external, &consts) {
            let folded = fold_rigid_false(&mut arena, matrix);
            if folded == arena.tru() {
                let p = IndexPlan::new(patterns);
                let o = build_occ(history, &p);
                let joined = enumerate_active(&p.patterns, &o, &m_pos, msize, k, Some(mappings));
                if let Some((list, partials)) = joined {
                    occ = o;
                    open = partials;
                    plan = Some(p);
                    cands = Some(list);
                }
            }
        }
        index_build += t0.elapsed();
    }

    // Ψ_D: conjunction over the supported instantiations (indexed) or
    // all |M|^k mappings (odometer).
    let mut inst_shared = 0usize;
    let mut psi_d;
    if let Some(list) = &cands {
        psi_d = ground_cands(
            mode,
            &schema,
            &consts,
            &m,
            &external,
            matrix,
            list,
            &mut arena,
            &mut letters,
            &mut inst_shared,
        )?;
    } else {
        let mut ctx = GroundCtx::new(mode, &schema, &consts, &mut arena, &mut letters);
        psi_d = ctx.arena.tru();
        let mut idx = vec![0usize; k];
        loop {
            let mut map: HashMap<&str, GArg> = HashMap::with_capacity(k);
            for (v, &i) in external.iter().zip(&idx) {
                map.insert(v.as_str(), m[i]);
            }
            let inst = ctx.instance(matrix, &map)?;
            psi_d = ctx.arena.and(psi_d, inst);
            // Odometer over |M|^k; k == 0 yields exactly one mapping.
            let mut pos = 0;
            while pos < k {
                idx[pos] += 1;
                if idx[pos] < msize {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
            if pos == k {
                break;
            }
        }
    }

    let mut axiom_conjuncts = 0usize;
    let formula = match mode {
        GroundMode::Folded => psi_d,
        GroundMode::Full => {
            let mut ctx = GroundCtx::new(mode, &schema, &consts, &mut arena, &mut letters);
            let ax = ctx.axiom_d(&m, &mut axiom_conjuncts);
            let boxed = ctx.arena.always(ax);
            ctx.arena.and(psi_d, boxed)
        }
    };

    // w_D.
    let mut trace = Vec::with_capacity(history.len());
    for t in 0..history.len() {
        let w = build_prop_state(
            mode,
            &schema,
            &consts,
            &m,
            &mut arena,
            &mut letters,
            history.state(t),
        );
        trace.push(w);
    }

    let inst_enumerated = cands.as_ref().map_or(mappings, Vec::len);
    let stats = GroundStats {
        m_size: msize,
        external_vars: k,
        mappings,
        letters: arena.atom_count(),
        axiom_conjuncts,
        formula_tree_size: 0,
        formula_dag_size: 0,
        inst_enumerated,
        inst_pruned: mappings - inst_enumerated,
        inst_shared,
    };
    let known: BTreeSet<Value> = m
        .iter()
        .filter_map(|&a| match a {
            GArg::Rel(v) => Some(v),
            _ => None,
        })
        .collect();
    let active: HashSet<Vec<u32>> = cands.into_iter().flatten().collect();
    Ok(Grounding {
        arena,
        formula,
        trace,
        m,
        stats,
        mode,
        schema,
        consts,
        letters,
        external,
        matrix: matrix.clone(),
        known,
        memo: FactMemo::default(),
        spare: Vec::new(),
        m_pos,
        plan,
        occ,
        open,
        active,
        index_build,
        scratch: FastScratch::default(),
    })
}

/// Builds `Ψ_D` over an explicit candidate list (the indexed path),
/// conjoining the instantiations in list order and counting those
/// whose ground formula an earlier candidate already produced.
#[allow(clippy::too_many_arguments)]
fn ground_cands(
    mode: GroundMode,
    schema: &Schema,
    consts: &[Value],
    m: &[GArg],
    external: &[String],
    matrix: &Formula,
    cands: &[Vec<u32>],
    arena: &mut Arena,
    letters: &mut AtomInterner<LetterKey>,
    inst_shared: &mut usize,
) -> Result<FormulaId, GroundError> {
    let digit: HashMap<&str, usize> = external
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), i))
        .collect();
    let mut seen: HashSet<FormulaId> = HashSet::new();
    let mut ctx = GroundCtx::new(mode, schema, consts, arena, letters);
    let share = SharePlan::build(matrix, &digit, m.len());
    let mut memo = ShareMemo::new();
    let mut psi_d = ctx.arena.tru();
    for cand in cands {
        let inst = ctx.ground_matrix_digits(matrix, &digit, m, cand, share.as_ref(), &mut memo)?;
        if !seen.insert(inst) {
            *inst_shared += 1;
        }
        psi_d = ctx.arena.and(psi_d, inst);
    }
    Ok(psi_d)
}

/// Cross-instantiation structure-sharing plan: each AST node of the
/// matrix gets a dense id plus the bitmask of external digits free in
/// it, so ground subformulas can be memoised per `(subformula,
/// partial-assignment signature)`. Two instantiations that agree on
/// the digits a subformula actually mentions share its ground sub-DAG
/// without re-walking it. Built only when every signature packs into a
/// `u128` (`k · ⌈log2 |M|⌉ ≤ 120`, which is always the case in
/// practice); otherwise the enumerator grounds unmemoised — the arena
/// still hash-conses node-by-node.
struct SharePlan {
    /// AST node address → (dense id, free-digit mask).
    nodes: HashMap<usize, (u32, u64)>,
    msize: u128,
}

impl SharePlan {
    fn build(matrix: &Formula, digit: &HashMap<&str, usize>, msize: usize) -> Option<SharePlan> {
        let k = digit.len();
        if k > 64 {
            return None;
        }
        let bits = usize::BITS - msize.next_power_of_two().leading_zeros();
        if k as u32 * bits > 120 {
            return None;
        }
        let mut nodes = HashMap::new();
        fn walk(
            f: &Formula,
            digit: &HashMap<&str, usize>,
            nodes: &mut HashMap<usize, (u32, u64)>,
        ) -> u64 {
            let mut mask = 0u64;
            if let Formula::Atom(a) = f {
                for t in a.terms() {
                    if let Term::Var(v) = t {
                        if let Some(&d) = digit.get(v.as_str()) {
                            mask |= 1 << d;
                        }
                    }
                }
            }
            for c in f.children() {
                mask |= walk(c, digit, nodes);
            }
            let id = nodes.len() as u32;
            nodes.insert(f as *const Formula as usize, (id, mask));
            mask
        }
        walk(matrix, digit, &mut nodes);
        Some(SharePlan {
            nodes,
            msize: msize as u128,
        })
    }

    /// The memo key for grounding `f` under `digits`, or `None` if `f`
    /// is not a planned node (the plan was built for another formula).
    fn key(&self, f: &Formula, digits: &[u32]) -> Option<(u32, u128)> {
        let &(id, mask) = self.nodes.get(&(f as *const Formula as usize))?;
        let mut sig: u128 = 0;
        let mut bits = mask;
        while bits != 0 {
            let d = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            sig = sig * self.msize + digits[d] as u128;
        }
        Some((id, sig))
    }
}

/// Memo table for [`GroundCtx::ground_matrix_digits`].
type ShareMemo = HashMap<(u32, u128), FormulaId>;

/// Borrowed working set for formula construction.
struct GroundCtx<'a> {
    mode: GroundMode,
    schema: &'a Schema,
    consts: &'a [Value],
    arena: &'a mut Arena,
    letters: &'a mut AtomInterner<LetterKey>,
    /// Internal letters allocated so far: the next one is `Past(past)`.
    past: u32,
    /// The current instantiation's internal letters, each with the `D`
    /// it stands for `●D` of, in allocation order (inner subformulas
    /// first). Drained by [`GroundCtx::instance`].
    defs: Vec<(AtomId, FormulaId)>,
    /// The current instantiation's past subformulas, keyed by their
    /// grounded operands (`●A` by `(A, A)`, `A S B` by `(A, B)`), so a
    /// repeated one shares its letter.
    past_memo: HashMap<(FormulaId, FormulaId), AtomId>,
}

impl<'a> GroundCtx<'a> {
    fn new(
        mode: GroundMode,
        schema: &'a Schema,
        consts: &'a [Value],
        arena: &'a mut Arena,
        letters: &'a mut AtomInterner<LetterKey>,
    ) -> Self {
        GroundCtx {
            mode,
            schema,
            consts,
            arena,
            letters,
            past: 0,
            defs: Vec::new(),
            past_memo: HashMap::new(),
        }
    }

    /// Grounds one instantiation of `matrix` and conjoins the
    /// definition `¬ℓ ∧ □(○ℓ ↔ D)` of each internal letter it
    /// allocated.
    fn instance(
        &mut self,
        matrix: &Formula,
        map: &HashMap<&str, GArg>,
    ) -> Result<FormulaId, GroundError> {
        let mut out = self.ground_matrix(matrix, map)?;
        self.past_memo.clear();
        for (l, d) in std::mem::take(&mut self.defs) {
            let lf = self.arena.atom_id(l);
            let not_l = self.arena.not(lf);
            let next_l = self.arena.next(lf);
            let step = self.arena.iff(next_l, d);
            let always = self.arena.always(step);
            let def = self.arena.and(not_l, always);
            out = self.arena.and(out, def);
        }
        Ok(out)
    }

    /// The internal letter standing for `●d`, shared by the current
    /// instantiation's past subformulas with operands `key`.
    fn past_letter(&mut self, key: (FormulaId, FormulaId)) -> (AtomId, bool) {
        if let Some(&l) = self.past_memo.get(&key) {
            return (l, false);
        }
        let l = internal_letter(self.arena, self.letters, self.schema, self.past);
        self.past += 1;
        self.past_memo.insert(key, l);
        (l, true)
    }

    /// `●a`: `⊥` when `a` is `⊥`, else the internal letter standing
    /// for it.
    fn ground_prev(&mut self, a: FormulaId) -> FormulaId {
        if a == self.arena.fls() {
            return a;
        }
        let (l, new) = self.past_letter((a, a));
        if new {
            self.defs.push((l, a));
        }
        self.arena.atom_id(l)
    }

    /// `a S b` as `b ∨ (a ∧ ℓ)`, `ℓ` standing for `●(a S b)`. Folds to
    /// `b` when the recursion is void: `b = ⊥` never held, so neither
    /// did the since; `a = ⊥`, `a = b` or `b = ⊤` leave only `b`.
    fn ground_since(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let (tru, fls) = (self.arena.tru(), self.arena.fls());
        if a == fls || a == b || b == fls || b == tru {
            return b;
        }
        let (l, new) = self.past_letter((a, b));
        let lf = self.arena.atom_id(l);
        let held = self.arena.and(a, lf);
        let e = self.arena.or(b, held);
        if new {
            self.defs.push((l, e));
        }
        e
    }

    fn resolve(&self, t: &Term, map: &HashMap<&str, GArg>) -> GArg {
        match t {
            Term::Var(v) => *map
                .get(v.as_str())
                .expect("universal sentence: all variables externally bound"),
            Term::Value(v) => GArg::Rel(*v),
            Term::Const(c) => match self.mode {
                GroundMode::Folded => GArg::Rel(self.consts[c.index()]),
                GroundMode::Full => GArg::Const(*c),
            },
        }
    }

    fn letter(&mut self, key: LetterKey) -> AtomId {
        let schema = self.schema;
        self.letters
            .intern(self.arena, key, |k| render_letter(k, schema))
    }

    fn eq_letter(&mut self, a: GArg, b: GArg) -> FormulaId {
        let id = self.letter(LetterKey::Eq(a, b));
        self.arena.atom_id(id)
    }

    fn pred_letter(&mut self, p: PredId, args: Vec<GArg>) -> FormulaId {
        let id = self.letter(LetterKey::Pred(p, args));
        self.arena.atom_id(id)
    }

    fn ground_matrix(
        &mut self,
        f: &Formula,
        map: &HashMap<&str, GArg>,
    ) -> Result<FormulaId, GroundError> {
        Ok(match f {
            Formula::True => self.arena.tru(),
            Formula::False => self.arena.fls(),
            Formula::Atom(a) => self.ground_atom(a, map)?,
            Formula::Not(g) => {
                let x = self.ground_matrix(g, map)?;
                self.arena.not(x)
            }
            Formula::And(a, b) => {
                let x = self.ground_matrix(a, map)?;
                let y = self.ground_matrix(b, map)?;
                self.arena.and(x, y)
            }
            Formula::Or(a, b) => {
                let x = self.ground_matrix(a, map)?;
                let y = self.ground_matrix(b, map)?;
                self.arena.or(x, y)
            }
            Formula::Implies(a, b) => {
                let x = self.ground_matrix(a, map)?;
                let y = self.ground_matrix(b, map)?;
                self.arena.implies(x, y)
            }
            Formula::Next(g) => {
                let x = self.ground_matrix(g, map)?;
                self.arena.next(x)
            }
            Formula::Until(a, b) => {
                let x = self.ground_matrix(a, map)?;
                let y = self.ground_matrix(b, map)?;
                self.arena.until(x, y)
            }
            Formula::Prev(g) => {
                let x = self.ground_matrix(g, map)?;
                self.ground_prev(x)
            }
            Formula::Since(a, b) => {
                let x = self.ground_matrix(a, map)?;
                let y = self.ground_matrix(b, map)?;
                self.ground_since(x, y)
            }
            Formula::Forall(_, _) | Formula::Exists(_, _) => {
                unreachable!("universal matrix is quantifier-free (checked by classify)")
            }
        })
    }

    fn ground_atom(
        &mut self,
        a: &Atom,
        map: &HashMap<&str, GArg>,
    ) -> Result<FormulaId, GroundError> {
        match a {
            Atom::Eq(t1, t2) => {
                let (x, y) = (self.resolve(t1, map), self.resolve(t2, map));
                match self.mode {
                    GroundMode::Folded => {
                        if gargs_equal(x, y, self.consts) {
                            Ok(self.arena.tru())
                        } else {
                            Ok(self.arena.fls())
                        }
                    }
                    GroundMode::Full => Ok(self.eq_letter(x, y)),
                }
            }
            Atom::Pred(p, ts) => {
                let args: Vec<GArg> = ts.iter().map(|t| self.resolve(t, map)).collect();
                if self.mode == GroundMode::Folded
                    && args.iter().any(|a| matches!(a, GArg::Fresh(_)))
                {
                    // Axiom_D forces p(…z…) false for all time; fold it.
                    return Ok(self.arena.fls());
                }
                Ok(self.pred_letter(*p, args))
            }
            Atom::Leq(_, _) | Atom::Succ(_, _) | Atom::Zero(_) => {
                Err(GroundError::ExtendedVocabulary)
            }
        }
    }

    /// [`GroundCtx::ground_matrix`] for the indexed enumerator: the
    /// assignment is a digit vector over `m` instead of a name map, and
    /// ground subformulas are memoised per `(subformula,
    /// partial-assignment signature)` through the share plan.
    #[allow(clippy::too_many_arguments)]
    fn ground_matrix_digits(
        &mut self,
        f: &Formula,
        digit: &HashMap<&str, usize>,
        m: &[GArg],
        digits: &[u32],
        share: Option<&SharePlan>,
        memo: &mut ShareMemo,
    ) -> Result<FormulaId, GroundError> {
        let key = share.and_then(|s| s.key(f, digits));
        if let Some(k) = key {
            if let Some(&g) = memo.get(&k) {
                return Ok(g);
            }
        }
        let out = match f {
            Formula::True => self.arena.tru(),
            Formula::False => self.arena.fls(),
            Formula::Atom(a) => self.ground_atom_digits(a, digit, m, digits)?,
            Formula::Not(g) => {
                let x = self.ground_matrix_digits(g, digit, m, digits, share, memo)?;
                self.arena.not(x)
            }
            Formula::And(a, b) => {
                let x = self.ground_matrix_digits(a, digit, m, digits, share, memo)?;
                let y = self.ground_matrix_digits(b, digit, m, digits, share, memo)?;
                self.arena.and(x, y)
            }
            Formula::Or(a, b) => {
                let x = self.ground_matrix_digits(a, digit, m, digits, share, memo)?;
                let y = self.ground_matrix_digits(b, digit, m, digits, share, memo)?;
                self.arena.or(x, y)
            }
            Formula::Implies(a, b) => {
                let x = self.ground_matrix_digits(a, digit, m, digits, share, memo)?;
                let y = self.ground_matrix_digits(b, digit, m, digits, share, memo)?;
                self.arena.implies(x, y)
            }
            Formula::Next(g) => {
                let x = self.ground_matrix_digits(g, digit, m, digits, share, memo)?;
                self.arena.next(x)
            }
            Formula::Until(a, b) => {
                let x = self.ground_matrix_digits(a, digit, m, digits, share, memo)?;
                let y = self.ground_matrix_digits(b, digit, m, digits, share, memo)?;
                self.arena.until(x, y)
            }
            Formula::Forall(_, _) | Formula::Exists(_, _) => {
                unreachable!("universal matrix is quantifier-free (checked by classify)")
            }
            Formula::Prev(_) | Formula::Since(_, _) => {
                unreachable!("indexed plans exclude past connectives (index_patterns)")
            }
        };
        if let Some(k) = key {
            memo.insert(k, out);
        }
        Ok(out)
    }

    fn ground_atom_digits(
        &mut self,
        a: &Atom,
        digit: &HashMap<&str, usize>,
        m: &[GArg],
        digits: &[u32],
    ) -> Result<FormulaId, GroundError> {
        let resolve = |t: &Term| -> GArg {
            match t {
                Term::Var(v) => m[digits[digit[v.as_str()]] as usize],
                Term::Value(v) => GArg::Rel(*v),
                Term::Const(c) => match self.mode {
                    GroundMode::Folded => GArg::Rel(self.consts[c.index()]),
                    GroundMode::Full => GArg::Const(*c),
                },
            }
        };
        match a {
            Atom::Eq(t1, t2) => {
                let (x, y) = (resolve(t1), resolve(t2));
                match self.mode {
                    GroundMode::Folded => {
                        if gargs_equal(x, y, self.consts) {
                            Ok(self.arena.tru())
                        } else {
                            Ok(self.arena.fls())
                        }
                    }
                    GroundMode::Full => Ok(self.eq_letter(x, y)),
                }
            }
            Atom::Pred(p, ts) => {
                let args: Vec<GArg> = ts.iter().map(resolve).collect();
                if self.mode == GroundMode::Folded
                    && args.iter().any(|a| matches!(a, GArg::Fresh(_)))
                {
                    return Ok(self.arena.fls());
                }
                Ok(self.pred_letter(*p, args))
            }
            Atom::Leq(_, _) | Atom::Succ(_, _) | Atom::Zero(_) => {
                Err(GroundError::ExtendedVocabulary)
            }
        }
    }

    /// `Axiom_D`, as one conjunction (wrapped in `□` by the caller).
    /// Full mode only.
    fn axiom_d(&mut self, m: &[GArg], count: &mut usize) -> FormulaId {
        let mut all: Vec<GArg> = m.to_vec();
        all.extend(self.schema.consts().map(GArg::Const));

        let mut conjuncts: Vec<FormulaId> = Vec::new();

        // Equality is reflexive / symmetric / transitive.
        for &a in &all {
            let e = self.eq_letter(a, a);
            conjuncts.push(e);
        }
        for &a in &all {
            for &b in &all {
                if a == b {
                    continue;
                }
                let ab = self.eq_letter(a, b);
                let ba = self.eq_letter(b, a);
                conjuncts.push(self.arena.iff(ab, ba));
            }
        }
        for &a in &all {
            for &b in &all {
                for &c in &all {
                    let ab = self.eq_letter(a, b);
                    let bc = self.eq_letter(b, c);
                    let ac = self.eq_letter(a, c);
                    let pre = self.arena.and(ab, bc);
                    conjuncts.push(self.arena.implies(pre, ac));
                }
            }
        }
        // Congruence for each predicate.
        for p in self.schema.preds() {
            let r = self.schema.arity(p);
            let vecs = vectors(&all, r);
            for av in &vecs {
                for bv in &vecs {
                    let mut eqs = self.arena.tru();
                    for (&a, &b) in av.iter().zip(bv) {
                        let e = self.eq_letter(a, b);
                        eqs = self.arena.and(eqs, e);
                    }
                    let pa = self.pred_letter(p, av.clone());
                    let pb = self.pred_letter(p, bv.clone());
                    let same = self.arena.iff(pa, pb);
                    conjuncts.push(self.arena.implies(eqs, same));
                }
            }
        }
        // Decided rigid (in)equalities, and z_i distinct from everything.
        for &a in &all {
            for &b in &all {
                if a == b {
                    continue; // (a=a) covered by reflexivity
                }
                let e = self.eq_letter(a, b);
                let lit = if gargs_equal(a, b, self.consts) {
                    e
                } else {
                    self.arena.not(e)
                };
                conjuncts.push(lit);
            }
        }
        // p(…z…) is false.
        for p in self.schema.preds() {
            let r = self.schema.arity(p);
            for av in vectors(&all, r) {
                if av.iter().any(|a| matches!(a, GArg::Fresh(_))) {
                    let pa = self.pred_letter(p, av);
                    let nf = self.arena.not(pa);
                    conjuncts.push(nf);
                }
            }
        }
        *count = conjuncts.len();
        self.arena.and_all(conjuncts)
    }
}

/// Builds the propositional description `w_ℓ` of one database state.
fn build_prop_state(
    mode: GroundMode,
    schema: &Schema,
    consts: &[Value],
    m: &[GArg],
    arena: &mut Arena,
    letters: &mut AtomInterner<LetterKey>,
    state: &State,
) -> PropState {
    let mut w = PropState::new();
    match mode {
        GroundMode::Folded => {
            // Only p(v⃗) letters over relevant elements are needed.
            for p in schema.preds() {
                for tuple in state.relation(p).iter() {
                    let args: Vec<GArg> = tuple.iter().map(|&v| GArg::Rel(v)).collect();
                    let a = intern_letter(arena, letters, schema, LetterKey::Pred(p, args));
                    w.set(a, true);
                }
            }
        }
        GroundMode::Full => {
            let mut all: Vec<GArg> = m.to_vec();
            all.extend(schema.consts().map(GArg::Const));
            // Rigid equality letters.
            for &a in &all {
                for &b in &all {
                    if gargs_equal(a, b, consts) {
                        let at = intern_letter(arena, letters, schema, LetterKey::Eq(a, b));
                        w.set(at, true);
                    }
                }
            }
            // All predicate letters whose interpreted tuple holds.
            for p in schema.preds() {
                let r = schema.arity(p);
                for av in vectors(&all, r) {
                    let vals: Option<Vec<Value>> =
                        av.iter().map(|&a| garg_value(a, consts)).collect();
                    let holds = vals.map(|t| state.holds(p, &t)).unwrap_or(false);
                    if holds {
                        let at = intern_letter(arena, letters, schema, LetterKey::Pred(p, av));
                        w.set(at, true);
                    }
                }
            }
        }
    }
    w
}

/// What an append that grows `Ψ_D` adds ([`Grounding::grow`]).
pub(crate) struct Growth {
    /// `|M|` before the append: digits at or past it are the new
    /// relevant elements, appended to `m` in sorted order.
    pub old_len: usize,
    /// The instantiations that just joined `Ψ_D`, as digit vectors over
    /// the grown `m` in canonical odometer order, each with whether a
    /// letter of it over the old elements may have held before this
    /// append: every one mentioning a new element under the odometer
    /// (all flagged), and under the indexed strategy the
    /// [`Grounding::delta_join`]. An unflagged instantiation's letters
    /// were false at every earlier instant. Not grounded: the engine
    /// binds them from its seed units.
    pub fresh: Vec<(Vec<u32>, bool)>,
    /// Whether `R_D` grew (a delta re-ground), not only the occurrence
    /// index (an activation).
    pub new_elements: bool,
    /// Wall-clock spent extending `M` and joining.
    pub time: std::time::Duration,
}

/// One `∧`-part of an instantiation grounded by
/// [`Grounding::ground_parts`]: its template key, and its support
/// letters in canonical-atom order, each a predicate over values, not
/// interned.
pub(crate) struct GroundPart {
    pub key: TemplateKey,
    pub letters: Vec<(PredId, Vec<Value>)>,
}

impl Grounding {
    /// Translates a further database state to a propositional state
    /// (used by the monitor for states appended after grounding).
    ///
    /// Returns `None` if the state mentions an element outside `M`'s
    /// relevant part — the caller must re-ground.
    pub fn state_to_prop(&mut self, state: &State) -> Option<PropState> {
        for p in self.schema.preds() {
            for tuple in state.relation(p).iter() {
                if tuple.iter().any(|v| !self.known.contains(v)) {
                    return None;
                }
            }
        }
        Some(self.encode_state(state))
    }

    /// The concrete values in `M` (the grounding's known universe).
    /// Maintained persistently: built at grounding time, extended by
    /// `Grounding::grow`.
    pub fn known_values(&self) -> &BTreeSet<Value> {
        &self.known
    }

    /// Whether `net` introduces a relevant element outside the known
    /// universe: a net-inserted tuple mentioning an unknown value. A
    /// fact the memo resolves is over `M` already.
    pub(crate) fn tx_has_delta(&self, net: Net<'_>) -> bool {
        net.iter().any(|(_, tuple, present, fact)| {
            present
                && self.memo.get(fact).is_none()
                && tuple.iter().any(|v| !self.known.contains(v))
        })
    }

    /// Whether `net` grows `Ψ_D`: it net-inserts a tuple that mentions
    /// an element outside the known universe or, under the indexed
    /// strategy, a tuple of a predicate the plan mentions that has never
    /// occurred. A fact the memo resolves passed this test when it was
    /// first patched in, and `M` and the occurrence index only grow, so
    /// a steady append answers it with one array index per update: the
    /// allocation-free gate of [`Grounding::grow`].
    fn grows(&self, net: Net<'_>) -> bool {
        net.iter().any(|(p, tuple, present, fact)| {
            present
                && self.memo.get(fact).is_none()
                && (tuple.iter().any(|v| !self.known.contains(v))
                    || self.plan.as_ref().is_some_and(|plan| {
                        plan.tracks(p) && !self.occ.get(&p).is_some_and(|s| s.contains(tuple))
                    }))
        })
    }

    /// Capacity growths of the fast-append scratch buffer since the
    /// grounding was built. The engine differences this around each
    /// step into `EngineStats::scratch_allocs`.
    pub(crate) fn scratch_allocs(&self) -> u64 {
        self.scratch.allocs
    }

    /// The letters patched by the last [`Grounding::patch_state`] call,
    /// in deterministic patch order (valid until the next call).
    pub(crate) fn patched_letters(&self) -> &[AtomId] {
        &self.scratch.patched
    }

    /// The new relevant elements `net` introduces: values of
    /// net-inserted tuples outside the known universe, sorted. Empty
    /// exactly when the fast path applies. `O(|Δtx| log |Δtx|)`.
    pub(crate) fn tx_delta(&self, net: Net<'_>) -> Vec<Value> {
        let mut delta = BTreeSet::new();
        for (_, tuple, present, _) in net.iter() {
            if present {
                delta.extend(tuple.iter().filter(|v| !self.known.contains(v)));
            }
        }
        delta.into_iter().collect()
    }

    /// The letter for a ground fact `p(v⃗)`, interned on first sight:
    /// the interner path every letter without a fact id takes.
    pub(crate) fn state_letter(&mut self, p: PredId, tuple: &[Value]) -> AtomId {
        let args: Vec<GArg> = tuple.iter().map(|&v| GArg::Rel(v)).collect();
        intern_letter(
            &mut self.arena,
            &mut self.letters,
            &self.schema,
            LetterKey::Pred(p, args),
        )
    }

    /// The internal letter `Past(n)` ([`LetterKey::Past`]), interned on
    /// first sight: how a rebuilt residue names its units' internal
    /// letters.
    pub(crate) fn internal_letter(&mut self, n: u32) -> AtomId {
        internal_letter(&mut self.arena, &mut self.letters, &self.schema, n)
    }

    /// Read-only letter lookup for a ground fact, through the interner.
    fn lookup_state_letter(&self, p: PredId, tuple: &[Value]) -> Option<AtomId> {
        let args: Vec<GArg> = tuple.iter().map(|&v| GArg::Rel(v)).collect();
        self.letters.get(&LetterKey::Pred(p, args))
    }

    /// Incremental fast-path encoding: derives the valuation of the
    /// state produced by the transaction whose net effect is `net` by
    /// patching a copy of the previous valuation (the stored trace's
    /// last entry, copied into a buffer a truncation freed when there
    /// is one) — `O(|Δtx|)` letter flips, each fact resolved through
    /// the fact memo, instead of walking the whole state. A memo miss
    /// goes through the interner once: a net insert interns its letter
    /// and memoises it, a net delete clears the letter if one exists.
    /// Bit-identical to [`Grounding::state_to_prop`] on the same state,
    /// including the order fresh letters are interned (`net` is sorted
    /// by `(pred, tuple)`).
    ///
    /// Returns `None` when a net-inserted tuple mentions an element
    /// outside the known universe (the caller must grow first), `Some`
    /// with the new valuation otherwise. Call it after
    /// [`Grounding::grow`], which the memo's entries rely on. The
    /// letters patched (in the deterministic patch order — the
    /// compiled-automaton layer uses the list to update only the
    /// touched units' columns) are left in the recycled scratch buffer,
    /// readable via [`Grounding::patched_letters`]. Folded groundings
    /// only; allocation-free after warm-up on the steady-state path.
    pub(crate) fn patch_state(&mut self, net: Net<'_>) -> Option<PropState> {
        debug_assert_eq!(self.mode, GroundMode::Folded);
        if self.tx_has_delta(net) {
            return None;
        }
        let mut w = self.spare.pop().unwrap_or_default();
        match self.trace.last() {
            Some(last) => w.clone_from(last),
            None => w = PropState::new(),
        }
        let pcap = self.scratch.patched.capacity();
        self.scratch.patched.clear();
        for (p, tuple, present, fact) in net.iter() {
            let a = match self.memo.get(fact) {
                Some(a) => a,
                None if present => {
                    let a = self.state_letter(p, tuple);
                    self.memo.set(fact, a);
                    a
                }
                None => match self.lookup_state_letter(p, tuple) {
                    Some(a) => a,
                    None => continue,
                },
            };
            w.set(a, present);
            self.scratch.patched.push(a);
        }
        if self.scratch.patched.capacity() > pcap {
            self.scratch.allocs += 1;
        }
        Some(w)
    }

    /// Number of engine fact ids this grounding's memo resolves to a
    /// letter (the `letter index` gauge of the `:stats` cache section).
    pub(crate) fn fact_memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Encodes a state over `M` without the known-universe check (the
    /// caller has already extended `M` to cover it).
    pub(crate) fn encode_state(&mut self, state: &State) -> PropState {
        build_prop_state(
            self.mode,
            &self.schema,
            &self.consts,
            &self.m,
            &mut self.arena,
            &mut self.letters,
            state,
        )
    }

    /// Re-encodes a state that was already encoded into the stored
    /// trace at some earlier instant, via read-only letter lookup —
    /// bit-identical to the valuation the original encode produced.
    /// The engine uses this to bring seed units up to date through
    /// history instants it has truncated and spilled: every tuple of
    /// such a state had its letter interned when the instant was first
    /// encoded (folded mode interns a letter per occurring tuple), so
    /// the lookup never misses, and letters interned later default to
    /// `false` in both the original and the re-encoded valuation.
    /// Folded groundings only.
    pub(crate) fn encode_state_frozen(&self, state: &State) -> PropState {
        debug_assert_eq!(self.mode, GroundMode::Folded);
        let mut w = PropState::new();
        for p in self.schema.preds() {
            for tuple in state.relation(p).iter() {
                match self.lookup_state_letter(p, tuple) {
                    Some(a) => w.set(a, true),
                    None => debug_assert!(
                        false,
                        "spilled state mentions a tuple that was never encoded"
                    ),
                }
            }
        }
        w
    }

    /// Drops the first `k` stored trace states — the grounding-side
    /// half of a history truncation. The engine truncates every
    /// context's trace in lockstep with the history, keeping the
    /// invariant `trace.len() == history.len() - history.base()` for
    /// *live* constraints. A violated constraint's trace froze at its
    /// violation instant (the engine never steps it again), so the
    /// drain clamps: its leftover prefix is dead data either way. The
    /// dropped valuations' buffers are kept for the next appends'
    /// valuations, at most one truncation batch of them, so the pool
    /// never outgrows the resident window it came from.
    pub(crate) fn truncate_trace(&mut self, k: usize) {
        let k = k.min(self.trace.len());
        let room = k.saturating_sub(self.spare.len());
        let mut drained = self.trace.drain(..k);
        self.spare.extend(drained.by_ref().take(room));
    }

    /// Net-inserted tuples of `net` that have never occurred in any
    /// state, of the predicates the plan mentions — the
    /// occurrence-index delta of this append. Empty under the odometer
    /// strategy (no index is maintained). Sorted in `(pred, tuple)`
    /// order.
    pub(crate) fn newly_occurring(&self, net: Net<'_>) -> Vec<(PredId, Vec<Value>)> {
        let Some(plan) = &self.plan else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (p, tuple, present, _) in net.iter() {
            if present && plan.tracks(p) && !self.occ.get(&p).is_some_and(|s| s.contains(tuple)) {
                out.push((p, tuple.to_vec()));
            }
        }
        out
    }

    /// The semi-naive delta join of the indexed strategy: the
    /// instantiations that the new elements (digits from `old_len`)
    /// and the first-occurring `inserts` just made data-supported and
    /// that are not active yet. It reads only the delta: each stored
    /// open partial binding expanded with at least one new element, and
    /// each insert's unifications expanded over all of `M` — never the
    /// `|M|^k` join. An instantiation is flagged when an open partial
    /// produced it: exactly when one of its letters over the old
    /// elements occurred before this append.
    fn delta_join(
        &mut self,
        old_len: usize,
        inserts: &[(PredId, Vec<Value>)],
    ) -> Vec<(Vec<u32>, bool)> {
        let plan = self.plan.as_ref().expect("indexed strategy");
        let k = self.external.len();
        let msize = self.m.len();
        let mut cands = Vec::new();
        if msize > old_len {
            for partial in &self.open {
                expand(partial, old_len, msize, |f| cands.push((f, true)));
            }
        }
        for (p, tuple) in inserts {
            for pat in plan.patterns.iter().filter(|pat| pat.pred == *p) {
                let Some(partial) = unify(pat, tuple, &self.m_pos, k) else {
                    continue;
                };
                expand(&partial, 0, msize, |f| cands.push((f, false)));
                if partial.contains(&UNBOUND) {
                    self.open.insert(partial);
                }
            }
        }
        cands.sort_unstable_by(|a, b| a.0.iter().rev().cmp(b.0.iter().rev()));
        cands.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            kept.1 |= same && later.1;
            same
        });
        cands.retain(|c| !self.active.contains(&c.0));
        cands
    }

    /// Grows `M` and the occurrence index for the transaction whose
    /// net effect is `net`, before it is encoded — the one place an append re-grounds. `Ψ_D` only grows
    /// with `R_D` and the occurrence index: when `tx` brings new
    /// relevant elements or (under the indexed strategy) first-occurring
    /// tuples, this appends the new elements to `M` and returns the
    /// instantiations that just joined `Ψ_D` — every one mentioning a
    /// new element under the odometer, the [`Grounding::delta_join`]
    /// under the indexed strategy — without grounding them. Any other
    /// transaction returns `None` after one allocation-free check, the
    /// steady-state gate.
    pub(crate) fn grow(&mut self, net: Net<'_>) -> Result<Option<Growth>, GroundError> {
        if !self.grows(net) {
            return Ok(None);
        }
        let t = std::time::Instant::now();
        let delta = self.tx_delta(net);
        let old_len = self.m.len();
        for &v in &delta {
            self.m_pos.insert(v, self.m.len() as u32);
            self.m.push(GArg::Rel(v));
            self.known.insert(v);
        }
        let k = self.external.len();
        let msize = self.m.len();
        let fresh = if self.plan.is_some() {
            let inserts = self.newly_occurring(net);
            for (p, tuple) in &inserts {
                self.occ.entry(*p).or_default().insert(tuple.clone());
            }
            let t0 = std::time::Instant::now();
            let fresh = self.delta_join(old_len, &inserts);
            self.index_build += t0.elapsed();
            self.active.extend(fresh.iter().map(|f| f.0.clone()));
            self.stats.inst_enumerated += fresh.len();
            fresh
        } else {
            let mut fresh = Vec::new();
            if k > 0 && msize > old_len {
                expand(&vec![UNBOUND; k], old_len, msize, |f| fresh.push((f, true)));
            }
            fresh
        };
        self.stats.m_size = msize;
        self.stats.mappings = msize.pow(k as u32).max(1);
        self.stats.letters = self.arena.atom_count();
        if self.plan.is_none() {
            self.stats.inst_enumerated = self.stats.mappings;
        }
        self.stats.inst_pruned = self.stats.mappings - self.stats.inst_enumerated;
        Ok(Some(Growth {
            old_len,
            fresh,
            new_elements: msize > old_len,
            time: t.elapsed(),
        }))
    }

    /// Grounds the instantiation that binds the external variables to
    /// `args` (one per variable) and splits it into its `∧`-parts, each
    /// with its template key and its support letters, left uninterned:
    /// an argument may be a value outside `M`, whose letters are no
    /// letters of the grounding (the seed units' placeholders,
    /// [`crate::seed`]).
    ///
    /// The formula is built in a scratch arena of its own, so the
    /// grounding's arena and `Ψ_D` do not grow, and the template keys
    /// do not depend on what else the grounding holds: two argument
    /// lists with the same pattern of folded equalities ground to the
    /// same keys.
    pub(crate) fn ground_parts(&self, args: &[GArg]) -> Result<Vec<GroundPart>, GroundError> {
        debug_assert_eq!(args.len(), self.external.len());
        let mut arena = Arena::new();
        let mut letters: AtomInterner<LetterKey> = AtomInterner::new();
        let inst = {
            let map: HashMap<&str, GArg> = self
                .external
                .iter()
                .map(String::as_str)
                .zip(args.iter().copied())
                .collect();
            let mut ctx = GroundCtx::new(
                GroundMode::Folded,
                &self.schema,
                &self.consts,
                &mut arena,
                &mut letters,
            );
            ctx.instance(&self.matrix, &map)?
        };
        let keys: HashMap<AtomId, &LetterKey> = letters.iter().map(|(k, a)| (a, k)).collect();
        let mut parts = Vec::new();
        for part in split_units(&mut arena, inst) {
            let (key, atoms) =
                canonicalize(&arena, part).expect("grounding rewrites every past connective");
            let letters = atoms
                .iter()
                .map(|a| {
                    let LetterKey::Pred(pred, args) = keys[a] else {
                        unreachable!("folded groundings intern no equality letters")
                    };
                    let vals = args
                        .iter()
                        .map(|&g| {
                            garg_value(g, &self.consts).expect("folded letters are over values")
                        })
                        .collect();
                    (*pred, vals)
                })
                .collect();
            parts.push(GroundPart { key, letters });
        }
        Ok(parts)
    }

    /// The number of external quantifiers `k`.
    pub(crate) fn external_len(&self) -> usize {
        self.external.len()
    }

    /// The grounding's size statistics, with the tree and DAG sizes of
    /// the current `φ_D` computed now. The walk is `O(|φ_D|)`, so
    /// append paths do not call this; reports and snapshots do.
    pub fn stats(&self) -> GroundStats {
        GroundStats {
            formula_tree_size: self.arena.tree_size(self.formula),
            formula_dag_size: self.arena.dag_size(self.formula),
            ..self.stats
        }
    }

    /// Whether a growth can list an instantiation that mentions an old
    /// element and is flagged ([`Growth::fresh`]): always under the
    /// odometer, and under the indexed strategy when a pattern leaves a
    /// variable open, so a stored partial binding of old tuples can
    /// join a new element.
    pub(crate) fn flags_old(&self) -> bool {
        self.plan
            .as_ref()
            .is_none_or(|p| p.leaves_open(self.external.len()))
    }

    /// The effective enumeration strategy: [`GroundStrategy::Indexed`]
    /// exactly when the matrix passed the rigid-false-fold gate and the
    /// initial join pruned; otherwise the grounding behaves as (and
    /// reports) [`GroundStrategy::Odometer`].
    pub fn strategy(&self) -> GroundStrategy {
        if self.plan.is_some() {
            GroundStrategy::Indexed
        } else {
            GroundStrategy::Odometer
        }
    }

    /// The grounding mode used.
    pub fn mode(&self) -> GroundMode {
        self.mode
    }

    /// The schema the grounding was built against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Looks up the letter for a ground predicate fact, if it exists.
    pub fn pred_letter_id(&self, p: PredId, args: &[GArg]) -> Option<AtomId> {
        self.letters.get(&LetterKey::Pred(p, args.to_vec()))
    }

    /// Looks up the letter for a ground equality, if it exists (full
    /// mode; folded groundings constant-fold equalities away).
    pub fn eq_letter_id(&self, a: GArg, b: GArg) -> Option<AtomId> {
        self.letters.get(&LetterKey::Eq(a, b))
    }

    /// Number of interned propositional letters.
    pub fn letter_count(&self) -> usize {
        self.letters.len()
    }

    /// Decodes a propositional state back into a database state over the
    /// relevant elements — the "decoding" direction in the proof of
    /// Theorem 4.1. Letters with fresh or mismatching-rigid arguments
    /// are ignored (they are false in the canonical extension).
    pub fn prop_to_state(&self, w: &PropState) -> State {
        let mut s = State::empty(self.schema.clone());
        for (key, atom) in self.letters.iter() {
            let LetterKey::Pred(p, args) = key else {
                continue;
            };
            if !w.get(atom) {
                continue;
            }
            let vals: Option<Vec<Value>> =
                args.iter().map(|&a| garg_value(a, &self.consts)).collect();
            if let Some(tuple) = vals {
                let _ = s.insert(*p, tuple);
            }
        }
        s
    }

    /// Dumps everything a durable snapshot needs to rebuild this
    /// grounding bit-identically (see [`Grounding::restore`]). Only
    /// folded groundings are persisted: the engine grounds no other
    /// way.
    pub(crate) fn dump(&self) -> GroundingDump {
        debug_assert_eq!(self.mode, GroundMode::Folded);
        let mut letters: Vec<(LetterKey, AtomId)> =
            self.letters.iter().map(|(k, a)| (k.clone(), a)).collect();
        letters.sort_by_key(|&(_, a)| a);
        GroundingDump {
            consts: self.consts.clone(),
            letters,
            external: self.external.clone(),
            matrix: self.matrix.clone(),
            known: self.known.iter().copied().collect(),
            arena_nodes: self.arena.nodes().to_vec(),
            atom_names: self.arena.atom_names_in_order().to_vec(),
            formula: self.formula,
            trace: self.trace.clone(),
            m: self.m.clone(),
            stats: self.stats(),
            indexed: self.plan.is_some(),
            occ: self
                .occ
                .iter()
                .map(|(&p, tuples)| (p, tuples.iter().cloned().collect()))
                .collect(),
        }
    }

    /// Rebuilds a grounding from a [`Grounding::dump`]. The arena is
    /// rehydrated raw (no re-folding — ids stay bit-identical), the
    /// letter table re-attached (the fact memo starts empty and fills
    /// as facts arrive); every id in the dump is validated against the tables
    /// it references, so corrupt snapshot bytes surface as an error.
    pub(crate) fn restore(schema: Arc<Schema>, d: GroundingDump) -> Result<Grounding, String> {
        let mut arena = Arena::rehydrate(d.arena_nodes, d.atom_names).map_err(str::to_owned)?;
        let atom_count = arena.atom_count();
        let node_count = arena.dag_len();
        if d.formula.index() >= node_count {
            return Err("snapshot formula id out of range".to_owned());
        }
        for (key, a) in &d.letters {
            if a.index() >= atom_count {
                return Err("snapshot letter id out of range".to_owned());
            }
            let check_garg = |g: &GArg| match g {
                GArg::Const(c) if c.index() >= d.consts.len() => {
                    Err("snapshot letter constant out of range".to_owned())
                }
                _ => Ok(()),
            };
            match key {
                LetterKey::Pred(p, args) => {
                    if p.index() >= schema.pred_count() || args.len() != schema.arity(*p) {
                        return Err("snapshot letter predicate/arity mismatch".to_owned());
                    }
                    args.iter().try_for_each(check_garg)?;
                }
                LetterKey::Eq(a, b) => {
                    check_garg(a)?;
                    check_garg(b)?;
                }
                LetterKey::Past(_) => {}
            }
        }
        for w in &d.trace {
            // Bitset states are canonical (no trailing zero words), so
            // the highest set bit lives in the last word.
            let max_bit = w
                .words()
                .last()
                .map(|&word| (w.words().len() - 1) * 64 + (63 - word.leading_zeros() as usize));
            if max_bit.is_some_and(|b| b >= atom_count) {
                return Err("snapshot trace atom out of range".to_owned());
            }
        }
        for (key, a) in &d.letters {
            if let LetterKey::Past(_) = key {
                arena.mark_internal(*a);
            }
        }
        let letters = AtomInterner::from_pairs(d.letters).map_err(str::to_owned)?;
        let mut occ: BTreeMap<PredId, BTreeSet<Vec<Value>>> = BTreeMap::new();
        for (p, tuples) in d.occ {
            if p.index() >= schema.pred_count() {
                return Err("snapshot occurrence predicate out of range".to_owned());
            }
            let set = occ.entry(p).or_default();
            for t in tuples {
                if t.len() != schema.arity(p) {
                    return Err("snapshot occurrence tuple arity mismatch".to_owned());
                }
                set.insert(t);
            }
        }
        // The plan is a pure function of the persisted matrix, and the
        // active set is the join of the plan against the persisted
        // occurrence index — both are re-derived rather than re-earned:
        // no re-grounding, no walk over the trace.
        let m_pos = value_positions(&d.m);
        let k = d.external.len();
        let (plan, active, open) = if d.indexed {
            let patterns = index_patterns(&d.matrix, &d.external, &d.consts)
                .ok_or("snapshot marked indexed but the matrix is outside the indexed class")?;
            let plan = IndexPlan::new(patterns);
            occ.retain(|&p, _| plan.tracks(p));
            let (cands, open) = enumerate_active(&plan.patterns, &occ, &m_pos, d.m.len(), k, None)
                .expect("uncapped enumeration always succeeds");
            (
                Some(plan),
                cands.into_iter().collect::<HashSet<Vec<u32>>>(),
                open,
            )
        } else {
            occ.clear();
            (None, HashSet::new(), BTreeSet::new())
        };
        Ok(Grounding {
            arena,
            formula: d.formula,
            trace: d.trace,
            m: d.m,
            stats: GroundStats {
                formula_tree_size: 0,
                formula_dag_size: 0,
                ..d.stats
            },
            mode: GroundMode::Folded,
            schema,
            consts: d.consts,
            letters,
            external: d.external,
            matrix: d.matrix,
            known: d.known.into_iter().collect(),
            memo: FactMemo::default(),
            spare: Vec::new(),
            m_pos,
            plan,
            occ,
            open,
            active,
            index_build: std::time::Duration::ZERO,
            scratch: FastScratch::default(),
        })
    }
}

/// Owned snapshot of a [`Grounding`]'s complete internal state — what
/// the durability layer serialises per constraint. Produced by
/// [`Grounding::dump`], consumed by [`Grounding::restore`].
pub(crate) struct GroundingDump {
    pub consts: Vec<Value>,
    /// `(key, id)` pairs in id order.
    pub letters: Vec<(LetterKey, AtomId)>,
    pub external: Vec<String>,
    pub matrix: Formula,
    /// The known-value universe, sorted.
    pub known: Vec<Value>,
    pub arena_nodes: Vec<ticc_ptl::arena::Node>,
    pub atom_names: Vec<String>,
    pub formula: FormulaId,
    /// The propositional trace, one bitset state per instant.
    pub trace: Vec<PropState>,
    pub m: Vec<GArg>,
    pub stats: GroundStats,
    /// Whether the indexed strategy is in effect (the plan and active
    /// set are re-derived from the matrix and `occ` on restore).
    pub indexed: bool,
    /// The occurrence index: per predicate, the tuples that have
    /// appeared in some state, sorted. Empty under the odometer.
    pub occ: Vec<(PredId, Vec<Vec<Value>>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::{FactTable, NetFact};
    use ticc_fotl::parser::parse;
    use ticc_tdb::Transaction;

    /// The engine's fact table, for tests that drive a grounding
    /// directly: one per grounding, so fact ids stay consistent.
    #[derive(Default)]
    struct Facts(FactTable, Vec<NetFact>);

    impl Facts {
        /// `tx`'s net effect, resolved through this table.
        fn of<'a>(&'a mut self, tx: &'a Transaction) -> Net<'a> {
            self.1 = self.0.net(tx);
            Net::new(tx, &self.1)
        }
    }

    fn order_schema() -> Arc<Schema> {
        Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
    }

    fn history(spec: &[&[Value]]) -> History {
        let sc = order_schema();
        let mut h = History::new(sc.clone());
        for subs in spec {
            let mut s = State::empty(sc.clone());
            for &v in *subs {
                s.insert_named("Sub", vec![v]).unwrap();
            }
            h.push_state(s);
        }
        h
    }

    #[test]
    fn m_contains_relevant_plus_fresh() {
        let h = history(&[&[1, 3]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x y. G (Sub(x) -> !Fill(y))").unwrap();
        let g = ground(&h, &phi, GroundMode::Folded).unwrap();
        assert_eq!(
            g.m,
            vec![GArg::Rel(1), GArg::Rel(3), GArg::Fresh(0), GArg::Fresh(1)]
        );
        assert_eq!(g.stats.external_vars, 2);
        assert_eq!(g.stats.mappings, 16);
        assert_eq!(g.trace.len(), 1);
    }

    #[test]
    fn folded_tautology_collapses_to_true() {
        let h = history(&[&[1, 2]]);
        let sc = h.schema().clone();
        // (Sub(x) -> Sub(x)) folds to ⊤ in the arena, so every ground
        // instance and hence Ψ_D collapses.
        let phi = parse(&sc, "forall x y. G (x = y | (Sub(x) -> Sub(x)))").unwrap();
        let mut g = ground(&h, &phi, GroundMode::Folded).unwrap();
        let t = g.arena.tru();
        assert_eq!(g.formula, t);
        assert_eq!(g.stats.axiom_conjuncts, 0);
    }

    #[test]
    fn fresh_pred_letters_fold_to_false() {
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        // ∀x □¬Sub(x) — the z1 instance folds; the instance for 1 stays.
        let phi = parse(&sc, "forall x. G !Sub(x)").unwrap();
        let mut g = ground(&h, &phi, GroundMode::Folded).unwrap();
        assert_eq!(g.stats.letters, 1);
        let sub = sc.pred("Sub").unwrap();
        let a = g.pred_letter_id(sub, &[GArg::Rel(1)]).unwrap();
        assert!(g.trace[0].get(a));
        let w = g.state_to_prop(&State::empty(sc.clone())).unwrap();
        assert!(!w.get(a));
    }

    #[test]
    fn rejects_non_universal_and_open() {
        let h = history(&[&[]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> exists y. Fill(y))").unwrap();
        assert!(matches!(
            ground(&h, &phi, GroundMode::Folded),
            Err(GroundError::NotUniversal(_))
        ));
        let open = parse(&sc, "G Sub(x)").unwrap();
        assert!(matches!(
            ground(&h, &open, GroundMode::Folded),
            Err(GroundError::OpenFormula(_))
        ));
    }

    #[test]
    fn rejects_extended_vocabulary() {
        let h = history(&[&[]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x y. G (succ(x, y) -> !Sub(x))").unwrap();
        assert!(matches!(
            ground(&h, &phi, GroundMode::Folded),
            Err(GroundError::ExtendedVocabulary)
        ));
    }

    #[test]
    fn full_mode_emits_axioms() {
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> F Fill(x))").unwrap();
        let g = ground(&h, &phi, GroundMode::Full).unwrap();
        assert!(g.stats.axiom_conjuncts > 0);
        assert!(g.stats.letters > 2, "full mode materialises rigid letters");
        let gf = ground(&h, &phi, GroundMode::Folded).unwrap();
        assert!(gf.stats().formula_tree_size < g.stats().formula_tree_size);
    }

    #[test]
    fn full_mode_trace_sets_rigid_equalities() {
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X !Sub(x))").unwrap();
        let g = ground(&h, &phi, GroundMode::Full).unwrap();
        // (1=1) true, (1=z1) false in w0.
        if let Some(a) = g.eq_letter_id(GArg::Rel(1), GArg::Rel(1)) {
            assert!(g.trace[0].get(a));
        }
        if let Some(a) = g.eq_letter_id(GArg::Rel(1), GArg::Fresh(0)) {
            assert!(!g.trace[0].get(a));
        }
    }

    #[test]
    fn explicit_values_join_m() {
        let h = history(&[&[]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> x = 7)").unwrap();
        let g = ground(&h, &phi, GroundMode::Folded).unwrap();
        assert!(g.m.contains(&GArg::Rel(7)));
    }

    #[test]
    fn state_to_prop_detects_new_elements() {
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X !Sub(x))").unwrap();
        let mut g = ground(&h, &phi, GroundMode::Folded).unwrap();
        let mut s = State::empty(sc.clone());
        s.insert_named("Sub", vec![99]).unwrap();
        assert!(g.state_to_prop(&s).is_none(), "element 99 is outside M");
        let mut s2 = State::empty(sc.clone());
        s2.insert_named("Sub", vec![1]).unwrap();
        assert!(g.state_to_prop(&s2).is_some());
    }

    #[test]
    fn constants_resolve_in_folded_mode() {
        let sc = Schema::builder().pred("P", 1).constant("c").build();
        let mut h = History::new(sc.clone());
        h.set_constant(sc.constant("c").unwrap(), 5);
        let mut s = State::empty(sc.clone());
        s.insert_named("P", vec![5]).unwrap();
        h.push_state(s);
        let phi = parse(&sc, "forall x. G (P(x) -> x = c)").unwrap();
        let mut g = ground(&h, &phi, GroundMode::Folded).unwrap();
        // The only relevant element is 5 == c, so the 5-instance folds to
        // ⊤ and the z1-instance folds via P(z1) = ⊥.
        let t = g.arena.tru();
        assert_eq!(g.formula, t);
    }

    #[test]
    fn prop_to_state_roundtrips_folded_trace() {
        let h = history(&[&[1, 3]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X !Sub(x))").unwrap();
        let g = ground(&h, &phi, GroundMode::Folded).unwrap();
        let decoded = g.prop_to_state(&g.trace[0]);
        assert_eq!(&decoded, h.state(0));
        let _ = sc;
    }

    #[test]
    fn patch_state_matches_full_encode() {
        let mut facts = Facts::default();
        let h = history(&[&[1, 2]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut patched = ground(&h, &phi, GroundMode::Folded).unwrap();
        let mut rebuilt = ground(&h, &phi, GroundMode::Folded).unwrap();
        let sub = sc.pred("Sub").unwrap();
        let fill = sc.pred("Fill").unwrap();
        // Mixed churn over known elements, including an insert-then-
        // delete of a never-seen tuple (nets to absent: no letter may
        // be interned for it, matching what a full re-encode does).
        let tx = Transaction::new()
            .delete(sub, vec![1])
            .insert(fill, vec![2])
            .insert(fill, vec![1])
            .delete(fill, vec![1]);
        let mut state = h.state(0).clone();
        tx.apply_to(&mut state).unwrap();
        let w_patch = patched.patch_state(facts.of(&tx)).unwrap();
        let w_full = rebuilt.state_to_prop(&state).unwrap();
        assert_eq!(w_patch, w_full);
        assert_eq!(
            patched.patched_letters().len(),
            2,
            "Sub(1) cleared, Fill(2) set; Fill(1) netted out"
        );
        assert_eq!(
            patched.letter_count(),
            rebuilt.letter_count(),
            "fresh letters must be interned identically by both paths"
        );
        assert!(patched.fact_memo_len() > 0);
    }

    #[test]
    fn patch_state_blocks_on_new_elements_like_rebuild() {
        let mut facts = Facts::default();
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut g = ground(&h, &phi, GroundMode::Folded).unwrap();
        let sub = sc.pred("Sub").unwrap();
        let tx_new = Transaction::new().insert(sub, vec![99]);
        assert!(
            g.patch_state(facts.of(&tx_new)).is_none(),
            "99 is outside M"
        );
        assert_eq!(g.tx_delta(facts.of(&tx_new)), vec![99]);
        // Deleting an unknown tuple (or insert-then-delete of one) does
        // not grow the domain: still on the fast path.
        let tx_churn = Transaction::new()
            .delete(sub, vec![99])
            .insert(sub, vec![77])
            .delete(sub, vec![77]);
        assert!(g.patch_state(facts.of(&tx_churn)).is_some());
        assert!(g.tx_delta(facts.of(&tx_churn)).is_empty());
    }

    #[test]
    fn no_external_quantifiers_single_mapping() {
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "G (Sub(1) -> X !Sub(1))").unwrap();
        let g = ground(&h, &phi, GroundMode::Folded).unwrap();
        assert_eq!(g.stats.external_vars, 0);
        assert_eq!(g.stats.mappings, 1);
    }

    fn ground_indexed(h: &History, phi: &Formula) -> Grounding {
        super::ground_indexed(h, phi, GroundMode::Folded).unwrap()
    }

    #[test]
    fn indexed_prunes_sparse_join() {
        // M = {1, 3, z1, z2}: 16 mappings. Sub occurs on {1, 3} (the
        // x-candidates), Fill never occurs, so only the 2·4 maps with a
        // satisfiable Sub(x) survive; the other 8 fold to the canonical
        // rigid-false residue and are counted, not enumerated.
        let h = history(&[&[1, 3]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x y. G (Sub(x) -> !Fill(y))").unwrap();
        let g = ground_indexed(&h, &phi);
        assert_eq!(g.strategy(), GroundStrategy::Indexed);
        assert_eq!(g.stats.mappings, 16);
        assert_eq!(g.stats.inst_enumerated, 8);
        assert_eq!(g.stats.inst_pruned, 8);
    }

    #[test]
    fn indexed_gate_falls_back_outside_class() {
        let h = history(&[&[1, 3]]);
        let sc = h.schema().clone();
        // Equality atoms have no occurrence index: odometer.
        let eq = parse(&sc, "forall x y. G (x = y | (Sub(x) -> !Sub(y)))").unwrap();
        let g = ground_indexed(&h, &eq);
        assert_eq!(g.strategy(), GroundStrategy::Odometer);
        assert_eq!(g.stats.inst_pruned, 0);
        assert_eq!(g.stats.inst_enumerated, g.stats.mappings);
        // Unguarded matrix: with every atom rigidly false, F Sub(x)
        // folds to ⊥ (not ⊤), so pruning would change the verdict.
        let unguarded = parse(&sc, "forall x. F Sub(x)").unwrap();
        let g = ground_indexed(&h, &unguarded);
        assert_eq!(g.strategy(), GroundStrategy::Odometer);
        // The fallback is transparent: same Ψ_D as an explicit odometer
        // grounding, letter for letter.
        let odo = ground(&h, &unguarded, GroundMode::Folded).unwrap();
        assert_eq!(g.stats(), odo.stats());
        assert_eq!(g.letter_count(), odo.letter_count());
    }

    #[test]
    fn newly_occurring_tuples_activate_pruned_instantiations() {
        let mut facts = Facts::default();
        let h = history(&[&[1, 3]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x y. G (Sub(x) -> !Fill(y))").unwrap();
        let mut g = ground_indexed(&h, &phi);
        assert_eq!(g.stats.inst_enumerated, 8);
        let fill = sc.pred("Fill").unwrap();
        // Fill(3) over the known universe: no new relevant element, but
        // the tuple never occurred, so the 4 maps with y ↦ 3 become
        // supported — 2 of them were already active through Sub(x).
        let tx = Transaction::new().insert(fill, vec![3]);
        assert!(g.tx_delta(facts.of(&tx)).is_empty());
        assert_eq!(g.newly_occurring(facts.of(&tx)), vec![(fill, vec![3])]);
        let growth = g
            .grow(facts.of(&tx))
            .unwrap()
            .expect("a first occurrence grows Ψ_D");
        assert!(!growth.new_elements);
        assert_eq!(growth.fresh.len(), 2);
        // Their letters (Fill(3), and Sub(z_i) folded away) were false
        // at every earlier instant.
        assert!(growth.fresh.iter().all(|&(_, seen)| !seen));
        assert_eq!(g.stats.inst_enumerated, 10);
        assert_eq!(g.stats.inst_pruned, 6);
        // Same transaction again: the tuple is indexed now.
        assert!(g.newly_occurring(facts.of(&tx)).is_empty());
        assert!(g.grow(facts.of(&tx)).unwrap().is_none());
    }

    /// The occurrence index tracks only the predicates the plan's
    /// patterns mention: a first-occurring tuple of any other predicate
    /// supports no instantiation, so it passes the gate like any
    /// steady-state append.
    #[test]
    fn tuples_outside_the_plan_do_not_grow() {
        let mut facts = Facts::default();
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        let once = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut g = ground_indexed(&h, &once);
        assert_eq!(g.strategy(), GroundStrategy::Indexed);
        let fill = sc.pred("Fill").unwrap();
        let tx = Transaction::new().insert(fill, vec![1]);
        assert!(g.newly_occurring(facts.of(&tx)).is_empty());
        assert!(g.grow(facts.of(&tx)).unwrap().is_none());
        assert!(!g.occ.contains_key(&fill));
        // A new element still grows M, whichever predicate brings it.
        let tx = Transaction::new().insert(fill, vec![2]);
        let growth = g
            .grow(facts.of(&tx))
            .unwrap()
            .expect("a new element grows M");
        assert!(growth.new_elements && growth.fresh.is_empty());
    }

    /// The delta join reads only the delta, yet lists exactly what the
    /// full join gained: after every growth the active set equals the
    /// join of the plan against the occurrence index over the grown
    /// `M`, and an instantiation is flagged exactly when a letter of it
    /// over the old elements occurred before.
    #[test]
    fn delta_join_matches_the_full_join() {
        let mut facts = Facts::default();
        let h = history(&[&[1]]);
        let sc = h.schema().clone();
        let phi = parse(&sc, "forall x y. G (Sub(x) -> !Fill(y))").unwrap();
        let mut g = ground_indexed(&h, &phi);
        let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
        let txs = [
            Transaction::new().insert(fill, vec![5]),
            Transaction::new()
                .insert(sub, vec![6])
                .insert(fill, vec![7]),
            Transaction::new().insert(fill, vec![1]),
            Transaction::new().insert(sub, vec![5]).insert(sub, vec![8]),
        ];
        for tx in &txs {
            let (before, occ_before) = (g.active.clone(), g.occ.clone());
            let old_len = g.m.len();
            let growth = g.grow(facts.of(tx)).unwrap().expect("every step grows Ψ_D");
            let plan = g.plan.clone().unwrap();
            let full = enumerate_active(&plan.patterns, &g.occ, &g.m_pos, g.m.len(), 2, None)
                .unwrap()
                .0;
            let gained: Vec<Vec<u32>> = full.into_iter().filter(|f| !before.contains(f)).collect();
            let listed: Vec<Vec<u32>> = growth.fresh.iter().map(|f| f.0.clone()).collect();
            assert_eq!(listed, gained, "{tx:?}");
            for (f, seen) in &growth.fresh {
                let held = plan.patterns.iter().any(|pat| {
                    let tuple: Option<Vec<Value>> = pat
                        .terms
                        .iter()
                        .map(|t| match *t {
                            PatTerm::Val(v) => Some(v),
                            PatTerm::Digit(d) if (f[d] as usize) < old_len => {
                                match g.m[f[d] as usize] {
                                    GArg::Rel(v) => Some(v),
                                    _ => None,
                                }
                            }
                            PatTerm::Digit(_) => None,
                        })
                        .collect();
                    tuple.is_some_and(|t| occ_before.get(&pat.pred).is_some_and(|s| s.contains(&t)))
                });
                assert_eq!(*seen, held, "{f:?} after {tx:?}");
            }
        }
        assert_eq!(g.active.len(), g.stats.inst_enumerated);
    }

    /// The `Ψ_D` size gauges are computed when read: they equal the
    /// sizes of the current formula. A growth extends `M` but grounds
    /// nothing (the engine binds the new instantiations from its seed
    /// units), so the formula and its gauges stay as built.
    #[test]
    fn formula_size_gauges_follow_the_current_formula() {
        let mut facts = Facts::default();
        fn assert_current(g: &Grounding) -> GroundStats {
            let s = g.stats();
            assert_eq!(s.formula_tree_size, g.arena.tree_size(g.formula));
            assert_eq!(s.formula_dag_size, g.arena.dag_size(g.formula));
            s
        }
        let h = history(&[&[1, 3]]);
        let sc = h.schema().clone();
        let sub = sc.pred("Sub").unwrap();
        let once = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut g = ground(&h, &once, GroundMode::Folded).unwrap();
        let built = assert_current(&g);
        assert!(built.formula_tree_size > 0);
        for v in [10, 11, 12] {
            let tx = Transaction::new().insert(sub, vec![v]);
            let growth = g
                .grow(facts.of(&tx))
                .unwrap()
                .expect("a new element grows Ψ_D");
            assert_eq!(growth.fresh.len(), 1);
            let s = assert_current(&g);
            assert_eq!(s.formula_tree_size, built.formula_tree_size);
            assert_eq!(s.formula_dag_size, built.formula_dag_size);
            assert_eq!(s.m_size, g.m.len());
        }
    }
}

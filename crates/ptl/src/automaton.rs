//! Safety automata of progression residues, built lazily per template.
//!
//! Lemma 4.2 makes the state of one instance after a prefix a function
//! of that prefix alone, so each `∧`-part of a residue is a run of a
//! deterministic safety automaton whose states are its progression
//! residues. [`SafetyAutomaton`] builds that machine on demand: state 0
//! is the part's residue, a state's successor under a valuation of its
//! support letters (a *column*, one `u64`) is computed once by
//! progression and simplification and then memoised, and each state is
//! labelled once, when first reached, with whether its residue holds on
//! `∅^ω` (every letter false forever) and with its phase-2
//! satisfiability verdict. A step is then a short memo lookup, with no
//! formula construction and no satisfiability run, and Theorem 4.2's
//! exponential is paid only for the states runs actually reach.
//!
//! Two residues that differ only by a renaming of their support letters
//! progress in lockstep, so the machine is built from a *canonical*
//! key ([`TemplateKey`]) in which atoms are renumbered by first
//! occurrence: all isomorphic instantiations of one constraint share a
//! single automaton, each carrying only a `u32` state.
//!
//! A residue's *internal* letters ([`Arena::mark_internal`], the
//! grounding's stand-ins for past subformulas) are numbered after its
//! support and never enter a column: each state pins their values with
//! top-level literals ([`crate::progression::pins`]), so a unit's state
//! carries its past, and [`SafetyAutomaton::discover`] progresses under
//! the column plus those pinned values. [`split_units`] keeps the parts
//! that share an internal letter in one unit.
//!
//! Soundness leans on three facts. `progress` only reads the letters in
//! the residue's support, so a column over `2^support` loses nothing.
//! Progression distributes over `∧`, so the conjuncts [`split_units`]
//! returns can each step their own automaton, even when their supports
//! overlap, and their conjunction is the residue. And the conjunction's
//! phase-2 verdict follows from the per-state labels in the common
//! case: it is unsatisfiable if one unit is, and satisfiable if every
//! unit holds on `∅^ω` (one word satisfies them all), or if the units
//! that fail `∅^ω` share no letter with another unit (models over
//! disjoint alphabets combine pointwise). Only a unit that shares
//! letters, is satisfiable and fails `∅^ω` needs a joint satisfiability
//! test, which the engine runs on the reconstructed residue.

use crate::arena::{Arena, AtomId, FormulaId, Node};
use crate::lasso::Lasso;
use crate::progression::{pins, progress};
use crate::sat::{is_satisfiable_with, SatSolver};
use crate::simplify::simplify;
use crate::trace::PropState;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A node of a canonical (alpha-renamed) formula template. Child
/// references are indices into [`TemplateKey::nodes`] (strictly
/// decreasing, so the list is topologically sorted); atoms are
/// canonical indices in order of first occurrence, the support letters
/// `0..arity` first, then the internal letters. Past connectives are
/// excluded — progression rejects them anyway.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CanonNode {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// The `i`-th letter: a support letter below the key's `arity`,
    /// an internal letter from it on (first-occurrence order each).
    Atom(u32),
    /// Negation.
    Not(u32),
    /// Conjunction.
    And(u32, u32),
    /// Disjunction.
    Or(u32, u32),
    /// Next time.
    Next(u32),
    /// Until.
    Until(u32, u32),
    /// Release.
    Release(u32, u32),
}

/// The shape of a residue modulo letter renaming: a hash-consed node
/// list with atoms renumbered by first occurrence in a deterministic
/// traversal. Two residues are isomorphic (equal up to a support
/// bijection and a renaming of internal letters) iff they canonicalize
/// to the same key, and the bijection is recovered by pairing their
/// support vectors position-wise.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TemplateKey {
    /// Canonical nodes, children before parents.
    pub nodes: Vec<CanonNode>,
    /// Index of the root node.
    pub root: u32,
    /// Number of distinct support letters: canonical atoms
    /// `0..arity`, the bits of a column.
    pub arity: u32,
    /// Number of distinct internal letters: canonical atoms
    /// `arity..arity + internal`, which no column carries.
    pub internal: u32,
}

impl TemplateKey {
    /// Structural validity: the root and every child reference stay in
    /// range, children strictly precede parents (acyclic by
    /// construction), atom indices stay below `arity + internal`, and
    /// that sum is at most [`MAX_ARITY`]. Snapshot restore runs this
    /// before trusting decoded bytes.
    pub fn validate(&self) -> bool {
        (self.root as usize) < self.nodes.len()
            && self.arity.saturating_add(self.internal) <= MAX_ARITY
            && valid_table(&self.nodes, self.arity + self.internal)
    }
}

/// Canonicalizes `f`: returns its [`TemplateKey`] plus the concrete
/// support letters in first-occurrence order (`support[i]` is what
/// canonical atom `i` stands for). `f`'s internal letters are numbered
/// after the support and not returned: a template's internal letters
/// are its own. Returns `None` when `f` contains a past connective.
pub fn canonicalize(arena: &Arena, f: FormulaId) -> Option<(TemplateKey, Vec<AtomId>)> {
    enum Task {
        Visit(FormulaId),
        Build(FormulaId),
    }
    let mut nodes: Vec<CanonNode> = Vec::new();
    let mut memo: HashMap<FormulaId, u32> = HashMap::new();
    let mut atom_ix: HashMap<AtomId, u32> = HashMap::new();
    let mut support: Vec<AtomId> = Vec::new();
    let mut internal: Vec<AtomId> = Vec::new();
    // The nodes of internal atoms, numbered once the support is known.
    let mut internal_at: Vec<(usize, u32)> = Vec::new();
    let push = |nodes: &mut Vec<CanonNode>, n: CanonNode| -> u32 {
        nodes.push(n);
        (nodes.len() - 1) as u32
    };
    let mut stack = vec![Task::Visit(f)];
    while let Some(task) = stack.pop() {
        match task {
            Task::Visit(g) => {
                if memo.contains_key(&g) {
                    continue;
                }
                match arena.node(g) {
                    Node::True => {
                        let i = push(&mut nodes, CanonNode::True);
                        memo.insert(g, i);
                    }
                    Node::False => {
                        let i = push(&mut nodes, CanonNode::False);
                        memo.insert(g, i);
                    }
                    Node::Atom(a) => {
                        let list = if arena.is_internal(a) {
                            &mut internal
                        } else {
                            &mut support
                        };
                        let ca = *atom_ix.entry(a).or_insert_with(|| {
                            list.push(a);
                            (list.len() - 1) as u32
                        });
                        let i = push(&mut nodes, CanonNode::Atom(ca));
                        if arena.is_internal(a) {
                            internal_at.push((i as usize, ca));
                        }
                        memo.insert(g, i);
                    }
                    Node::Not(h) | Node::Next(h) => {
                        stack.push(Task::Build(g));
                        stack.push(Task::Visit(h));
                    }
                    Node::And(a, b) | Node::Or(a, b) | Node::Until(a, b) | Node::Release(a, b) => {
                        stack.push(Task::Build(g));
                        stack.push(Task::Visit(b));
                        stack.push(Task::Visit(a));
                    }
                    Node::Prev(_) | Node::Since(_, _) => return None,
                }
            }
            Task::Build(g) => {
                if memo.contains_key(&g) {
                    // A shared DAG node reached from two parents before
                    // its first Build ran; the first one won.
                    continue;
                }
                let cn = match arena.node(g) {
                    Node::Not(h) => CanonNode::Not(memo[&h]),
                    Node::Next(h) => CanonNode::Next(memo[&h]),
                    Node::And(a, b) => CanonNode::And(memo[&a], memo[&b]),
                    Node::Or(a, b) => CanonNode::Or(memo[&a], memo[&b]),
                    Node::Until(a, b) => CanonNode::Until(memo[&a], memo[&b]),
                    Node::Release(a, b) => CanonNode::Release(memo[&a], memo[&b]),
                    _ => unreachable!("leaves are built at visit time"),
                };
                let i = push(&mut nodes, cn);
                memo.insert(g, i);
            }
        }
    }
    let root = memo[&f];
    let arity = support.len() as u32;
    for (i, j) in internal_at {
        nodes[i] = CanonNode::Atom(arity + j);
    }
    let key = TemplateKey {
        nodes,
        root,
        arity,
        internal: internal.len() as u32,
    };
    Some((key, support))
}

/// The most letters a template may have, support and internal ones
/// together: a column is one `u64`, bit `i` the truth of support letter
/// `i`, and discovery steps under the column with the internal letters'
/// pinned values in the bits above it.
pub const MAX_ARITY: u32 = 64;

/// Bound on the `(state, column) → state` edges one template memoises.
/// Reaching it drops every edge (epoch eviction) — deterministic
/// regardless of hash order, which a pick-a-victim policy would not be.
/// States are never evicted: units hold their ids.
pub const EDGE_CAP: usize = 1 << 16;

/// Templates of at most this many letters keep their edges in one
/// dense table indexed by `state << arity | column` (at most 256
/// entries, 1 KiB, per state); wider ones keep a sorted vector per
/// state.
const DENSE_ARITY: u32 = 8;

/// Nodes a template arena may gather beyond twice its size at the last
/// compaction before [`SafetyAutomaton::discover`] compacts it again.
/// Progression and labelling leave intermediate nodes behind;
/// compaction keeps the arena proportional to the states' residues.
const COMPACT_SLACK: usize = 1 << 12;

/// A dense-table entry whose edge is not memoised.
const UNKNOWN: u32 = u32::MAX;

/// Whether `nodes` is a well-formed canonical-node table over `n`
/// letters: children strictly precede parents (acyclic by
/// construction) and atom indices stay below `n`.
fn valid_table(nodes: &[CanonNode], n: u32) -> bool {
    nodes.iter().enumerate().all(|(i, node)| match *node {
        CanonNode::True | CanonNode::False => true,
        CanonNode::Atom(a) => a < n,
        CanonNode::Not(g) | CanonNode::Next(g) => (g as usize) < i,
        CanonNode::And(a, b)
        | CanonNode::Or(a, b)
        | CanonNode::Until(a, b)
        | CanonNode::Release(a, b) => (a as usize) < i && (b as usize) < i,
    })
}

/// Interns a canonical-node table into `arena` through its folding
/// constructors, canonical atom `i` being `AtomId(i)`; returns each
/// node's id. Children precede parents, so one left-to-right pass
/// suffices. The one rebuild of canonical nodes: template keys and
/// restored residue tables both go through it.
fn intern_table(arena: &mut Arena, nodes: &[CanonNode]) -> Vec<FormulaId> {
    let mut ids: Vec<FormulaId> = Vec::with_capacity(nodes.len());
    for n in nodes {
        let id = match *n {
            CanonNode::True => arena.tru(),
            CanonNode::False => arena.fls(),
            CanonNode::Atom(a) => arena.atom_id(AtomId(a)),
            CanonNode::Not(g) => arena.not(ids[g as usize]),
            CanonNode::Next(g) => arena.next(ids[g as usize]),
            CanonNode::And(a, b) => arena.and(ids[a as usize], ids[b as usize]),
            CanonNode::Or(a, b) => arena.or(ids[a as usize], ids[b as usize]),
            CanonNode::Until(a, b) => arena.until(ids[a as usize], ids[b as usize]),
            CanonNode::Release(a, b) => arena.release(ids[a as usize], ids[b as usize]),
        };
        ids.push(id);
    }
    ids
}

/// A fresh template arena holding only `key`'s letters, so canonical
/// atom `i` *is* `AtomId(i)`, the ones past the support marked
/// internal.
fn letters(key: &TemplateKey) -> Arena {
    let mut arena = Arena::new();
    for i in 0..key.arity + key.internal {
        let a = arena.intern_atom(&format!("t{i}"));
        if i >= key.arity {
            arena.mark_internal(a);
        }
    }
    arena
}

/// Interns a residue table ([`SafetyAutomaton::residues`]) into
/// `arena` after checking that it is well formed over the arena's
/// letters; returns the ids of the residues `roots` names.
fn intern_residues(
    arena: &mut Arena,
    nodes: &[CanonNode],
    roots: &[u32],
) -> Result<Vec<FormulaId>, String> {
    if !valid_table(nodes, arena.atom_count() as u32) {
        return Err("malformed residue table".into());
    }
    let ids = intern_table(arena, nodes);
    roots
        .iter()
        .map(|&r| {
            ids.get(r as usize)
                .copied()
                .ok_or_else(|| "residue index out of range".into())
        })
        .collect()
}

/// A discovered state: its residue, its labels, and (in a template
/// wider than [`DENSE_ARITY`]) its memoised out-edges sorted by column.
struct TState {
    residue: FormulaId,
    /// The residue holds on `∅^ω`.
    holds_on_empty: bool,
    sat: bool,
    edges: Vec<(u64, u32)>,
}

/// Labels a newly reached residue: whether it holds on `∅^ω` (a cheap
/// lasso test that decides most states of a safety template) and, only
/// where that fails, its Büchi phase-2 verdict.
fn label(arena: &mut Arena, residue: FormulaId) -> TState {
    // Template residues are canonical-node formulas: past-free by
    // construction, so neither evaluation can fail.
    let empty = Lasso::new(Vec::new(), vec![PropState::new()]);
    let holds_on_empty = empty.eval(arena, residue).expect("past-free residue");
    let sat = holds_on_empty
        || is_satisfiable_with(arena, residue, SatSolver::Buchi)
            .expect("past-free residue")
            .satisfiable;
    TState {
        residue,
        holds_on_empty,
        sat,
        edges: Vec::new(),
    }
}

/// The safety automaton of one residue template, built lazily. State 0
/// is the key's root (in negation normal form); every other state is
/// discovered on first need, when [`SafetyAutomaton::discover`]
/// progresses and simplifies a state's residue under a column and the
/// result is new. Each state is labelled once, when discovered, with
/// whether its residue holds on `∅^ω` and its phase-2 verdict. The
/// `(state, column) → state` edges are memoised — in one dense table
/// for templates of at most 8 letters, where a lookup is a single load
/// on the append path's hottest loop, else per state in a sorted
/// vector — bounded by [`EDGE_CAP`] over the whole template. The
/// states are not bounded, and like a symbolic residue they grow with
/// what runs actually reach (Lemma 4.2 makes an instance's state a
/// function of its prefix, so Theorem 4.2's exponential is paid only
/// for reached states). The template arena holds the states' residues
/// plus the intermediate nodes of recent discoveries: once those
/// outgrow the residues it is compacted to the residues alone.
pub struct SafetyAutomaton {
    key: TemplateKey,
    /// The template's arena; atoms `0..arity` are interned first, so
    /// canonical atom `i` *is* `AtomId(i)`.
    arena: Arena,
    states: Vec<TState>,
    /// Residue → state id.
    index: HashMap<FormulaId, u32>,
    /// The memoised edges of a template of at most [`DENSE_ARITY`]
    /// letters: `state << arity | column` → successor, or [`UNKNOWN`].
    dense: Vec<u32>,
    /// Memoised edges over all states.
    edges: usize,
    /// Wall-clock spent discovering states and edges.
    discover_time: Duration,
    /// Arena size past which the next discovery compacts it.
    compact_at: usize,
}

impl SafetyAutomaton {
    /// The automaton of `key` with only state 0 discovered; `None` when
    /// the key is malformed or wider than [`MAX_ARITY`].
    pub fn new(key: &TemplateKey) -> Option<Self> {
        let t = Instant::now();
        let mut auto = Self::empty(key)?;
        let root = auto.root();
        auto.intern_state(root);
        auto.discover_time = t.elapsed();
        auto.compact_at = auto.compaction_mark();
        Some(auto)
    }

    /// An automaton over a fresh arena holding only `key`'s letters.
    fn empty(key: &TemplateKey) -> Option<Self> {
        if !key.validate() {
            return None;
        }
        Some(SafetyAutomaton {
            key: key.clone(),
            arena: letters(key),
            states: Vec::new(),
            index: HashMap::new(),
            dense: Vec::new(),
            edges: 0,
            discover_time: Duration::ZERO,
            compact_at: 0,
        })
    }

    /// The arena size at which to compact next: twice the current one
    /// plus [`COMPACT_SLACK`], so compaction costs amortised time.
    fn compaction_mark(&self) -> usize {
        2 * self.arena.nodes().len() + COMPACT_SLACK
    }

    /// The key's root in negation normal form — state 0's residue.
    /// Engine residues may carry negation over non-atoms; the Büchi
    /// solver requires NNF, and `nnf` preserves equivalence.
    fn root(&mut self) -> FormulaId {
        let ids = intern_table(&mut self.arena, &self.key.nodes);
        crate::nnf::nnf(&mut self.arena, ids[self.key.root as usize]).expect("past-free key")
    }

    /// The id of `residue`'s state, labelling and appending it if new.
    fn intern_state(&mut self, residue: FormulaId) -> u32 {
        if let Some(&s) = self.index.get(&residue) {
            return s;
        }
        let s = self.states.len() as u32;
        self.index.insert(residue, s);
        let state = label(&mut self.arena, residue);
        self.states.push(state);
        s
    }

    /// Rebuilds a persisted automaton: `nodes` is the canonical-node
    /// table of its states' residues ([`SafetyAutomaton::residues`])
    /// and `roots[s]` the table index of state `s`'s residue. Checks
    /// that the table is well formed, that the residues are distinct
    /// and that state 0 is the key's root, then labels every state, so
    /// state ids survive bit-identically. Edges are rediscovered on
    /// demand.
    pub fn restore(key: &TemplateKey, nodes: &[CanonNode], roots: &[u32]) -> Result<Self, String> {
        let mut auto = Self::empty(key).ok_or("malformed template key")?;
        let residues = intern_residues(&mut auto.arena, nodes, roots)?;
        let first = *residues.first().ok_or("template without states")?;
        if first != auto.root() {
            return Err("state 0 is not the key's root".into());
        }
        for r in residues {
            let fresh = auto.states.len();
            if auto.intern_state(r) as usize != fresh {
                return Err("duplicate residue".into());
            }
        }
        auto.compact_at = auto.compaction_mark();
        Ok(auto)
    }

    /// The discovered states as one canonical-node table holding their
    /// residues' sub-DAGs and nothing else (children before parents, in
    /// arena order), plus each state's residue as an index into it, in
    /// discovery order. Both the snapshot form and what compaction
    /// re-interns.
    pub fn residues(&self) -> (Vec<CanonNode>, Vec<u32>) {
        let nodes = self.arena.nodes();
        // Arena ids are topologically ordered: one backward pass marks
        // every node below a residue.
        let mut keep = vec![false; nodes.len()];
        for s in &self.states {
            keep[s.residue.index()] = true;
        }
        for i in (0..nodes.len()).rev() {
            if !keep[i] {
                continue;
            }
            match nodes[i] {
                Node::Not(g) | Node::Next(g) => keep[g.index()] = true,
                Node::And(a, b) | Node::Or(a, b) | Node::Until(a, b) | Node::Release(a, b) => {
                    keep[a.index()] = true;
                    keep[b.index()] = true;
                }
                _ => {}
            }
        }
        let mut at = vec![0u32; nodes.len()];
        let mut table = Vec::new();
        for (i, &n) in nodes.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let c = |g: FormulaId| at[g.index()];
            table.push(match n {
                Node::True => CanonNode::True,
                Node::False => CanonNode::False,
                Node::Atom(a) => CanonNode::Atom(a.0),
                Node::Not(g) => CanonNode::Not(c(g)),
                Node::Next(g) => CanonNode::Next(c(g)),
                Node::And(a, b) => CanonNode::And(c(a), c(b)),
                Node::Or(a, b) => CanonNode::Or(c(a), c(b)),
                Node::Until(a, b) => CanonNode::Until(c(a), c(b)),
                Node::Release(a, b) => CanonNode::Release(c(a), c(b)),
                Node::Prev(_) | Node::Since(_, _) => {
                    unreachable!("template residues are past-free")
                }
            });
            at[i] = (table.len() - 1) as u32;
        }
        let roots = self.states.iter().map(|s| at[s.residue.index()]).collect();
        (table, roots)
    }

    /// Rebuilds the arena from the states' residues alone, dropping the
    /// intermediate nodes discoveries left behind. The table keeps the
    /// residues' nodes in arena order, so re-interning them keeps their
    /// relative order, and with it the operand order `simplify` sorts
    /// by: a later rediscovery lands on the same states.
    fn compact(&mut self) {
        let (nodes, roots) = self.residues();
        self.arena = letters(&self.key);
        let residues = intern_residues(&mut self.arena, &nodes, &roots)
            .expect("a template's own residue table is well formed");
        self.index.clear();
        for (s, (state, r)) in self.states.iter_mut().zip(residues).enumerate() {
            state.residue = r;
            self.index.insert(r, s as u32);
        }
        self.compact_at = self.compaction_mark();
    }

    /// The canonical key this machine was built from.
    pub fn key(&self) -> &TemplateKey {
        &self.key
    }

    /// Number of support letters.
    pub fn support_len(&self) -> usize {
        self.key.arity as usize
    }

    /// Number of internal letters.
    pub fn internal_len(&self) -> usize {
        self.key.internal as usize
    }

    /// Number of states discovered so far.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Wall-clock spent discovering this automaton's states and edges.
    pub fn discover_time(&self) -> Duration {
        self.discover_time
    }

    /// The memoised successor of `state` under valuation `column` (bit
    /// `i` = truth of support letter `i`; no bit at or past the
    /// support's length), if that edge is known.
    #[inline]
    pub fn lookup(&self, state: u32, column: u64) -> Option<u32> {
        let arity = self.key.arity;
        if arity <= DENSE_ARITY {
            debug_assert!(column >> arity == 0, "column wider than the support");
            let next = *self
                .dense
                .get((state as usize) << arity | column as usize)?;
            return (next != UNKNOWN).then_some(next);
        }
        let edges = &self.states[state as usize].edges;
        let i = edges.partition_point(|e| e.0 < column);
        edges.get(i).filter(|e| e.0 == column).map(|e| e.1)
    }

    /// The successor of `state` under `column`, computed: progresses
    /// and simplifies the state's residue, interns the result as a
    /// state (labelling it if new) and memoises the edge. The internal
    /// letters take the values the residue pins. Returns the successor
    /// and the number of edges evicted to make room (all of them, once
    /// the template holds [`EDGE_CAP`]).
    pub fn discover(&mut self, state: u32, column: u64) -> (u32, usize) {
        let t = Instant::now();
        let residue = self.states[state as usize].residue;
        let w = PropState::from_words(vec![column]);
        let stepped = progress(&mut self.arena, residue, &w).expect("past-free residue");
        let next = simplify(&mut self.arena, stepped);
        let fresh = self.states.len() as u32;
        let next = self.intern_state(next);
        debug_assert!(
            next != fresh
                || pins_its_internal_letters(&self.arena, self.states[fresh as usize].residue),
            "a discovered state leaves an internal letter unpinned"
        );
        if self.arena.nodes().len() > self.compact_at {
            self.compact();
        }
        let mut evicted = 0;
        if self.edges >= EDGE_CAP {
            evicted = self.edges;
            self.dense.fill(UNKNOWN);
            for s in &mut self.states {
                s.edges.clear();
            }
            self.edges = 0;
        }
        let arity = self.key.arity;
        if arity <= DENSE_ARITY {
            self.dense.resize(self.states.len() << arity, UNKNOWN);
            let at = &mut self.dense[(state as usize) << arity | column as usize];
            if *at == UNKNOWN {
                *at = next;
                self.edges += 1;
            }
        } else {
            let edges = &mut self.states[state as usize].edges;
            if let Err(i) = edges.binary_search_by_key(&column, |e| e.0) {
                edges.insert(i, (column, next));
                self.edges += 1;
            }
        }
        self.discover_time += t.elapsed();
        (next, evicted)
    }

    /// Whether `state`'s residue is satisfiable (labelled at discovery;
    /// monotone — once false it stays false along every run, since an
    /// unsatisfiable formula progresses to an unsatisfiable one).
    #[inline]
    pub fn sat(&self, state: u32) -> bool {
        self.states[state as usize].sat
    }

    /// Whether `state`'s residue holds on `∅^ω`, the word with every
    /// letter false forever (labelled at discovery; implies
    /// [`SafetyAutomaton::sat`]).
    #[inline]
    pub fn holds_on_empty(&self, state: u32) -> bool {
        self.states[state as usize].holds_on_empty
    }

    /// Whether `state`'s residue is `⊤`: every continuation satisfies
    /// it, so a unit there constrains nothing.
    #[inline]
    pub fn is_true(&self, state: u32) -> bool {
        matches!(
            self.arena.node(self.states[state as usize].residue),
            Node::True
        )
    }

    /// Rebuilds the concrete residue of `state` inside `dst`, mapping
    /// canonical atom `i` to `letters[i]`: the support, then one
    /// internal letter of `dst` per internal letter of the template.
    /// `memo` must not be shared across different letter lists.
    pub fn reconstruct(
        &self,
        dst: &mut Arena,
        state: u32,
        letters: &[AtomId],
        memo: &mut HashMap<FormulaId, FormulaId>,
    ) -> FormulaId {
        debug_assert_eq!(letters.len(), (self.key.arity + self.key.internal) as usize);
        dst.translate_from(
            &self.arena,
            self.states[state as usize].residue,
            letters,
            memo,
        )
    }
}

/// Whether `residue` pins every internal letter it mentions.
fn pins_its_internal_letters(arena: &Arena, residue: FormulaId) -> bool {
    let mut pinned = HashSet::new();
    pins(arena, residue, |a, _| {
        pinned.insert(a);
    });
    arena
        .internal_atoms(residue)
        .iter()
        .all(|a| pinned.contains(a))
}

/// Splits a residue into independently steppable *units*: the
/// deduplicated conjuncts of its `∧`-spine, in first-occurrence order.
/// Units may share letters; progression distributes over `∧`, so each
/// steps exactly on its own, and their conjunction is the residue.
///
/// The split additionally distributes `□` and `○` back over `∧`
/// (`□(x∧y) ≡ □x∧□y`, `○(x∧y) ≡ ○x∧○y`) — undoing the box aggregation
/// [`simplify`] applies across instantiations — so a unit stays one
/// instantiation's obligation and its template stays small. `⊤` yields
/// no units.
///
/// Parts that share an internal letter are joined into one unit (their
/// conjunction, at the place of the first): an internal letter's
/// definition and its uses must step together, since the definition is
/// what pins its value.
pub fn split_units(arena: &mut Arena, f: FormulaId) -> Vec<FormulaId> {
    let mut parts = Vec::new();
    collect_parts(arena, f, &mut parts);
    let mut seen = HashSet::with_capacity(parts.len());
    parts.retain(|p| seen.insert(*p));
    if arena.has_internal() {
        join_internal(arena, &mut parts);
    }
    parts
}

/// Joins the parts that share an internal letter, transitively: each
/// class becomes the conjunction of its parts, in order, at the place
/// of its first part.
fn join_internal(arena: &mut Arena, parts: &mut Vec<FormulaId>) {
    fn root(class: &mut [usize], mut i: usize) -> usize {
        while class[i] != i {
            class[i] = class[class[i]];
            i = class[i];
        }
        i
    }
    let mut class: Vec<usize> = (0..parts.len()).collect();
    let mut first: HashMap<AtomId, usize> = HashMap::new();
    for (i, &p) in parts.iter().enumerate() {
        for a in arena.internal_atoms(p) {
            let j = *first.entry(a).or_insert(i);
            let (ri, rj) = (root(&mut class, i), root(&mut class, j));
            // The smaller index stays the root: classes keep the order
            // of their first parts.
            class[ri.max(rj)] = ri.min(rj);
        }
    }
    if first.is_empty() {
        return;
    }
    let mut members: Vec<Vec<FormulaId>> = vec![Vec::new(); parts.len()];
    for (i, &p) in parts.iter().enumerate() {
        members[root(&mut class, i)].push(p);
    }
    parts.clear();
    for m in members.into_iter().filter(|m| !m.is_empty()) {
        let unit = arena.and_all(m);
        parts.push(unit);
    }
}

/// Collects the atomic parts of `f`'s conjunctive spine, distributing
/// `□`/`○` over inner conjunctions. Iterative over the spine (which
/// grows with the instantiation count); recursion depth is bounded by
/// the constraint's modal nesting only.
fn collect_parts(arena: &mut Arena, f: FormulaId, out: &mut Vec<FormulaId>) {
    let tru = arena.tru();
    let fls = arena.fls();
    let mut stack = vec![f];
    while let Some(g) = stack.pop() {
        if g == tru {
            continue;
        }
        match arena.node(g) {
            Node::And(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            Node::Release(a, b) if a == fls => {
                let mut inner = Vec::new();
                collect_parts(arena, b, &mut inner);
                if inner.len() > 1 {
                    for p in inner {
                        // □□x ≡ □x: don't re-wrap an inner box.
                        let wrapped = match arena.node(p) {
                            Node::Release(a2, _) if a2 == fls => p,
                            _ => arena.always(p),
                        };
                        out.push(wrapped);
                    }
                } else {
                    out.push(g);
                }
            }
            Node::Next(b) => {
                let mut inner = Vec::new();
                collect_parts(arena, b, &mut inner);
                if inner.len() > 1 {
                    for p in inner {
                        let wrapped = arena.next(p);
                        out.push(wrapped);
                    }
                } else {
                    out.push(g);
                }
            }
            _ => out.push(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `□(a → ○□¬a)` — the once-only template over one letter.
    fn once_only(ar: &mut Arena, name: &str) -> FormulaId {
        let a = ar.atom(name);
        let na = ar.not(a);
        let always_na = ar.always(na);
        let nxt = ar.next(always_na);
        let imp = ar.implies(a, nxt);
        ar.always(imp)
    }

    #[test]
    fn isomorphic_residues_share_a_key() {
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let g = once_only(&mut ar, "q");
        let (kf, sf) = canonicalize(&ar, f).unwrap();
        let (kg, sg) = canonicalize(&ar, g).unwrap();
        assert_eq!(kf, kg);
        assert_eq!(kf.arity, 1);
        assert_ne!(sf, sg, "supports name the distinct concrete letters");
        assert!(kf.validate());
    }

    #[test]
    fn distinct_shapes_get_distinct_keys() {
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let q = ar.atom("q");
        let g = ar.always(q);
        let (kf, _) = canonicalize(&ar, f).unwrap();
        let (kg, _) = canonicalize(&ar, g).unwrap();
        assert_ne!(kf, kg);
    }

    #[test]
    fn past_operators_are_rejected() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let o = ar.once(p);
        assert!(canonicalize(&ar, o).is_none());
    }

    /// One step through the memo, discovering the edge on a miss.
    fn step(auto: &mut SafetyAutomaton, state: u32, col: u64) -> u32 {
        auto.lookup(state, col)
            .unwrap_or_else(|| auto.discover(state, col).0)
    }

    /// Discovers every state reachable over all `2^arity` columns (the
    /// eager construction, kept as a test oracle).
    fn explore(auto: &mut SafetyAutomaton) {
        let mut i = 0;
        while i < auto.state_count() as u32 {
            for col in 0..1u64 << auto.support_len() {
                step(auto, i, col);
            }
            i += 1;
        }
    }

    fn automaton_of(ar: &Arena, f: FormulaId) -> (SafetyAutomaton, Vec<AtomId>) {
        let (key, support) = canonicalize(ar, f).unwrap();
        (SafetyAutomaton::new(&key).unwrap(), support)
    }

    #[test]
    fn compiled_once_only_steps_to_violation() {
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let (mut auto, support) = automaton_of(&ar, f);
        assert_eq!(support.len(), 1);
        assert_eq!(auto.state_count(), 1, "only the root before any step");
        // Never seen: self-loop under ¬p, satisfiable.
        assert_eq!(step(&mut auto, 0, 0), 0);
        assert!(auto.sat(0));
        // Seen once: a new satisfiable state...
        let seen = step(&mut auto, 0, 1);
        assert_ne!(seen, 0);
        assert!(auto.sat(seen));
        // ...that self-loops under ¬p and dies under a re-submission.
        assert_eq!(step(&mut auto, seen, 0), seen);
        let dead = step(&mut auto, seen, 1);
        assert!(!auto.sat(dead));
        // Dead states are absorbing under every column.
        assert_eq!(step(&mut auto, dead, 0), dead);
        assert_eq!(step(&mut auto, dead, 1), dead);
        // Every edge taken is memoised.
        assert_eq!(auto.edges, 6);
        assert_eq!(auto.lookup(seen, 1), Some(dead));
    }

    #[test]
    fn compile_mirrors_symbolic_progression() {
        // Every discovered edge must land on the state whose residue the
        // symbolic pipeline (progress + simplify) computes.
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let (mut auto, support) = automaton_of(&ar, f);
        let mut state = 0u32;
        let mut residue = f;
        for col in [0u64, 1, 0, 1] {
            state = step(&mut auto, state, col);
            let w = if col == 1 {
                PropState::from_true_atoms([support[0]])
            } else {
                PropState::new()
            };
            let p = progress(&mut ar, residue, &w).unwrap();
            residue = simplify(&mut ar, p);
            let mut memo = HashMap::new();
            let back = auto.reconstruct(&mut ar, state, &support, &mut memo);
            let back = simplify(&mut ar, back);
            assert_eq!(back, residue, "edge under column {col} diverges");
        }
    }

    #[test]
    fn states_are_discovered_on_demand() {
        // A run discovers only the states it reaches: 64 letters, whose
        // eager construction would need 2^64 columns per state, cost
        // one state and one edge per distinct column taken.
        let mut ar = Arena::new();
        let parts: Vec<FormulaId> = (0..64)
            .map(|i| {
                let a = ar.atom(&format!("p{i}"));
                ar.not(a)
            })
            .collect();
        let any = ar.and_all(parts);
        let f = ar.always(any);
        let (mut auto, support) = automaton_of(&ar, f);
        assert_eq!(support.len(), 64);
        let live = step(&mut auto, 0, 0);
        assert_eq!(step(&mut auto, live, 0), live);
        let dead = step(&mut auto, live, 1 << 63);
        assert!(auto.sat(live) && !auto.sat(dead));
        assert!(auto.state_count() <= 3, "{} states", auto.state_count());
        assert_eq!(auto.edges, 3);
        // One letter more does not fit a column.
        let extra = ar.atom("p64");
        let wide = ar.and(f, extra);
        let (key, _) = canonicalize(&ar, wide).unwrap();
        assert_eq!(key.arity, 65);
        assert!(!key.validate());
        assert!(SafetyAutomaton::new(&key).is_none());
    }

    #[test]
    fn edge_memo_evicts_by_epoch_but_keeps_states() {
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let (mut auto, _) = automaton_of(&ar, f);
        let seen = step(&mut auto, 0, 1);
        let dead = step(&mut auto, seen, 1);
        assert_eq!(auto.edges, 2);
        // Stand in for a memo that has reached its cap: the next miss
        // drops every edge, then memoises its own.
        auto.edges = EDGE_CAP;
        assert_eq!(auto.discover(dead, 0), (dead, EDGE_CAP));
        assert_eq!(auto.edges, 1);
        assert_eq!(auto.lookup(0, 1), None, "old edges are gone");
        assert_eq!(auto.lookup(dead, 0), Some(dead));
        // States survive: rediscovering lands on the same ids.
        assert_eq!(auto.state_count(), 3);
        assert_eq!(step(&mut auto, 0, 1), seen);
        assert_eq!(step(&mut auto, seen, 1), dead);
        assert_eq!(auto.state_count(), 3);
    }

    #[test]
    fn restore_reproduces_the_discovered_states() {
        let mut ar = Arena::new();
        let f = crate::parser::parse(&mut ar, "G (a -> X X b)").unwrap();
        let (mut auto, _) = automaton_of(&ar, f);
        explore(&mut auto);
        let (nodes, roots) = auto.residues();
        let mut back = SafetyAutomaton::restore(auto.key(), &nodes, &roots).unwrap();
        assert_eq!(back.state_count(), auto.state_count());
        assert_eq!(back.residues(), (nodes.clone(), roots.clone()));
        for s in 0..auto.state_count() as u32 {
            assert_eq!(back.sat(s), auto.sat(s));
            assert_eq!(back.holds_on_empty(s), auto.holds_on_empty(s));
            for col in 0..4 {
                assert_eq!(step(&mut back, s, col), step(&mut auto, s, col));
            }
        }
        assert_eq!(back.state_count(), auto.state_count());
        // Corrupt tables are refused, never trusted.
        let key = auto.key();
        let dup = [roots.clone(), vec![roots[1]]].concat();
        assert!(SafetyAutomaton::restore(key, &nodes, &dup).is_err());
        let swapped = [vec![roots[1], roots[0]], roots[2..].to_vec()].concat();
        assert!(SafetyAutomaton::restore(key, &nodes, &swapped).is_err());
        let out = [roots.clone(), vec![nodes.len() as u32]].concat();
        assert!(SafetyAutomaton::restore(key, &nodes, &out).is_err());
        assert!(SafetyAutomaton::restore(key, &nodes, &[]).is_err());
        let mut cyclic = nodes.clone();
        cyclic.push(CanonNode::Not(cyclic.len() as u32));
        assert!(SafetyAutomaton::restore(key, &cyclic, &roots).is_err());
    }

    #[test]
    fn compaction_keeps_states_and_their_successors() {
        let mut ar = Arena::new();
        let f = crate::parser::parse(&mut ar, "G (a -> X (b U c))").unwrap();
        let (mut auto, _) = automaton_of(&ar, f);
        explore(&mut auto);
        let n = auto.state_count() as u32;
        let succ: Vec<Vec<u32>> = (0..n)
            .map(|s| (0..8).map(|c| auto.lookup(s, c).unwrap()).collect())
            .collect();
        let table = auto.residues();
        let size = auto.arena.nodes().len();
        // The next discovery compacts: only the residues' nodes remain.
        auto.compact_at = 0;
        auto.edges = EDGE_CAP;
        auto.discover(0, 0);
        assert!(auto.arena.nodes().len() < size, "{size} nodes before");
        assert!(auto.compact_at > auto.arena.nodes().len());
        assert_eq!(auto.residues(), table);
        // Rediscovering every edge in the compacted arena lands on the
        // states it did before.
        for s in 0..n {
            for c in 0..8 {
                assert_eq!(step(&mut auto, s, c), succ[s as usize][c as usize]);
            }
        }
        assert_eq!(auto.state_count() as u32, n);
        for s in 0..n {
            assert_eq!(auto.index[&auto.states[s as usize].residue], s);
        }
    }

    #[test]
    fn malformed_keys_are_refused() {
        let bad = TemplateKey {
            nodes: vec![CanonNode::Not(0)],
            root: 0,
            arity: 0,
            internal: 0,
        };
        assert!(!bad.validate());
        assert!(SafetyAutomaton::new(&bad).is_none());
    }

    #[test]
    fn split_undoes_box_aggregation_into_disjoint_units() {
        // simplify folds □c₁ ∧ □c₂ into □(c₁ ∧ c₂); the split must
        // recover one unit per letter.
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let g = once_only(&mut ar, "q");
        let and = ar.and(f, g);
        let folded = simplify(&mut ar, and);
        let units = split_units(&mut ar, folded);
        assert_eq!(units.len(), 2, "{units:?}");
        let (pa, qa) = (ar.find_atom("p").unwrap(), ar.find_atom("q").unwrap());
        assert_eq!(ar.atoms_of(units[0]), vec![pa]);
        assert_eq!(ar.atoms_of(units[1]), vec![qa]);
    }

    #[test]
    fn shared_letters_stay_separate_units() {
        // □¬p ∧ □(p → ○□¬p) ∧ □¬q: one unit per part, p shared by two.
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let p = ar.atom("p");
        let np = ar.not(p);
        let bnp = ar.always(np);
        let q = ar.atom("q");
        let nq = ar.not(q);
        let bnq = ar.always(nq);
        let all = ar.and_all([bnp, f, bnq]);
        let units = split_units(&mut ar, all);
        assert_eq!(units.len(), 3, "{units:?}");
        let pa = ar.find_atom("p").unwrap();
        let qa = ar.find_atom("q").unwrap();
        let supports: Vec<Vec<AtomId>> = units.iter().map(|&u| ar.atoms_of(u)).collect();
        assert_eq!(supports.iter().filter(|s| **s == vec![pa]).count(), 2);
        assert!(supports.contains(&vec![qa]));
        assert!(units.contains(&bnp) && units.contains(&f) && units.contains(&bnq));
    }

    #[test]
    fn split_deduplicates_parts() {
        // □a ∧ ○b ∧ □a, with the duplicate under a second ○-free spine.
        let mut ar = Arena::new();
        let a = ar.atom("a");
        let ga = ar.always(a);
        let b = ar.atom("b");
        let xb = ar.next(b);
        let left = ar.and(ga, xb);
        let both = ar.and(left, ga);
        assert_eq!(split_units(&mut ar, both), vec![ga, xb]);
    }

    /// One instance of the FIFO constraint, in negation normal form:
    /// `□(¬s ∨ f R (¬t ∨ f R (¬g ∨ f)))` over Sub(x), Fill(x), Sub(y),
    /// Fill(y).
    fn fifo_instance(ar: &mut Arena) -> FormulaId {
        let f = crate::parser::parse(ar, "G !(s & (!f U (t & (!f U (g & !f)))))").unwrap();
        crate::nnf::nnf(ar, f).unwrap()
    }

    #[test]
    fn fifo_instance_compiles_within_default_limits() {
        let mut ar = Arena::new();
        let f = fifo_instance(&mut ar);
        let (mut auto, support) = automaton_of(&ar, f);
        assert_eq!(support.len(), 4);
        explore(&mut auto);
        assert!(
            auto.state_count() <= 8,
            "ACI-normal residues keep the FIFO progression graph finite: {} states",
            auto.state_count()
        );
        // FIFO has no eventualities: every satisfiable state holds on
        // the empty word, so the engine never needs a joint test.
        for q in 0..auto.state_count() as u32 {
            assert_eq!(auto.sat(q), auto.holds_on_empty(q), "state {q}");
        }
    }

    #[test]
    fn holds_on_empty_labels_pending_obligations() {
        // □(a → ○b): the state after `a` owes `b` next, which fails on
        // ∅^ω but is satisfiable.
        let mut ar = Arena::new();
        let f = crate::parser::parse(&mut ar, "G (a -> X b)").unwrap();
        let f = crate::nnf::nnf(&mut ar, f).unwrap();
        let (mut auto, support) = automaton_of(&ar, f);
        assert!(auto.holds_on_empty(0) && auto.sat(0));
        let a_bit = 1
            << support
                .iter()
                .position(|&x| ar.atom_name(x) == "a")
                .unwrap();
        let owing = step(&mut auto, 0, a_bit);
        assert!(auto.sat(owing));
        assert!(!auto.holds_on_empty(owing));
        let dead = step(&mut auto, owing, 0);
        assert!(!auto.sat(dead) && !auto.holds_on_empty(dead));
    }

    /// `□(q → ℓ) ∧ ¬ℓ ∧ □(○ℓ ↔ p)` with `ℓ` internal, standing for `●p`.
    fn prev_p_guarded_by_q(ar: &mut Arena, p: &str, q: &str, l: &str) -> FormulaId {
        let f = crate::parser::parse(ar, &format!("G ({q} -> {l}) & !{l} & G (X {l} <-> {p})"))
            .unwrap();
        let la = ar.find_atom(l).unwrap();
        ar.mark_internal(la);
        f
    }

    #[test]
    fn internal_letters_follow_the_support_and_step_with_the_state() {
        let mut ar = Arena::new();
        let f = prev_p_guarded_by_q(&mut ar, "p", "q", "l");
        let g = prev_p_guarded_by_q(&mut ar, "r", "s", "m");
        let (kf, sf) = canonicalize(&ar, f).unwrap();
        let (kg, _) = canonicalize(&ar, g).unwrap();
        assert_eq!(kf, kg, "isomorphic up to the internal letter");
        assert_eq!((kf.arity, kf.internal), (2, 1));
        assert!(sf.iter().all(|&a| !ar.is_internal(a)));
        let mut auto = SafetyAutomaton::new(&kf).unwrap();
        let bit = |name: &str| 1u64 << sf.iter().position(|&a| ar.atom_name(a) == name).unwrap();
        // `q` at instant 0: `●p` is false there.
        let dead = step(&mut auto, 0, bit("q"));
        assert!(!auto.sat(dead));
        // `p`, then `q`: fine; `q` again without `p` before it: dead.
        let after_p = step(&mut auto, 0, bit("p"));
        let after_q = step(&mut auto, after_p, bit("q"));
        assert!(auto.sat(after_q));
        let twice = step(&mut auto, after_q, bit("q"));
        assert!(!auto.sat(twice));
    }

    #[test]
    fn parts_sharing_an_internal_letter_form_one_unit() {
        let mut ar = Arena::new();
        let f = prev_p_guarded_by_q(&mut ar, "p", "q", "l");
        let g = prev_p_guarded_by_q(&mut ar, "r", "s", "m");
        let both = ar.and(f, g);
        let folded = simplify(&mut ar, both);
        let units = split_units(&mut ar, folded);
        assert_eq!(units.len(), 2, "{units:?}");
        let (la, ma) = (ar.find_atom("l").unwrap(), ar.find_atom("m").unwrap());
        let mut letters: Vec<Vec<AtomId>> = units.iter().map(|&u| ar.internal_atoms(u)).collect();
        letters.sort();
        assert_eq!(letters, vec![vec![la], vec![ma]]);
    }

    #[test]
    fn split_of_constants_and_single_parts() {
        let mut ar = Arena::new();
        let t = ar.tru();
        assert!(split_units(&mut ar, t).is_empty());
        let fls = ar.fls();
        assert_eq!(split_units(&mut ar, fls), vec![fls]);
        let f = once_only(&mut ar, "p");
        assert_eq!(split_units(&mut ar, f), vec![f]);
    }

    #[test]
    fn next_distributes_over_units() {
        // ○(a ∧ b) (as simplify aggregates ○a ∧ ○b) splits back apart.
        let mut ar = Arena::new();
        let a = ar.atom("a");
        let b = ar.atom("b");
        let na = ar.next(a);
        let nb = ar.next(b);
        let and = ar.and(na, nb);
        let folded = simplify(&mut ar, and);
        let units = split_units(&mut ar, folded);
        assert_eq!(units.len(), 2, "{units:?}");
    }
}

//! Explicit safety automata compiled from progression residues.
//!
//! The transition cache in the engine layer materialises the residue's
//! safety automaton *lazily*, one `(residue, letter)` edge at a time,
//! and still pays a symbolic progression on every miss. This module
//! precomputes the whole machine once per *template*: the residue's
//! progression graph is subset-constructed over all valuations of its
//! support letters (the only letters progression can read), each state
//! is labelled up front with whether its residue holds on `∅^ω` (every
//! letter false forever) and with its phase-2 satisfiability verdict,
//! and the result is a dense `u32` transition table — an append
//! becomes one array lookup, with no formula construction and no
//! satisfiability run at all.
//!
//! Two residues that differ only by a renaming of their support letters
//! progress in lockstep, so the machine is compiled from a *canonical*
//! key ([`TemplateKey`]) in which atoms are renumbered by first
//! occurrence: all isomorphic instantiations of one constraint share a
//! single compiled automaton, each carrying only a `u32` state.
//!
//! Soundness leans on three facts. Determinization commutes with
//! progression on support-restricted valuations: `progress` only reads
//! the letters in the residue's support, so quotienting the alphabet to
//! `2^support` loses nothing ([`compile`] enumerates exactly those
//! columns). Progression distributes over `∧`, so the conjuncts
//! [`split_units`] returns can each step their own automaton, even
//! when their supports overlap, and their conjunction is the residue.
//! And the conjunction's phase-2 verdict follows from the per-state
//! labels in the common case: it is unsatisfiable if one unit is, and
//! satisfiable if every unit holds on `∅^ω` (one word satisfies them
//! all), or if the units that fail `∅^ω` share no letter with another
//! unit (models over disjoint alphabets combine pointwise). Only a
//! unit that shares letters, is satisfiable and fails `∅^ω` needs a
//! joint satisfiability test, which the engine runs on the
//! reconstructed residue.

use crate::arena::{Arena, AtomId, FormulaId, Node};
use crate::closure::Closure;
use crate::lasso::Lasso;
use crate::progression::progress;
use crate::sat::{is_satisfiable_with, SatError, SatSolver};
use crate::simplify::simplify;
use crate::trace::PropState;
use std::collections::{HashMap, HashSet};

/// A node of a canonical (alpha-renamed) formula template. Child
/// references are indices into [`TemplateKey::nodes`] (strictly
/// decreasing, so the list is topologically sorted); atoms are
/// canonical indices `0..arity` in order of first occurrence. Past
/// connectives are excluded — progression rejects them anyway.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CanonNode {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// The `i`-th support letter (first-occurrence order).
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
/// bijection) iff they canonicalize to the same key, and the bijection
/// is recovered by pairing their support vectors position-wise.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TemplateKey {
    /// Canonical nodes, children before parents.
    pub nodes: Vec<CanonNode>,
    /// Index of the root node.
    pub root: u32,
    /// Number of distinct support letters.
    pub arity: u32,
}

impl TemplateKey {
    /// Structural validity: the root and every child reference stay in
    /// range, children strictly precede parents (acyclic by
    /// construction), and atom indices stay below `arity`. Snapshot
    /// restore runs this before trusting decoded bytes.
    pub fn validate(&self) -> bool {
        if self.nodes.is_empty() || self.root as usize >= self.nodes.len() || self.arity > 32 {
            return false;
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let ok = match *n {
                CanonNode::True | CanonNode::False => true,
                CanonNode::Atom(a) => a < self.arity,
                CanonNode::Not(g) | CanonNode::Next(g) => (g as usize) < i,
                CanonNode::And(a, b)
                | CanonNode::Or(a, b)
                | CanonNode::Until(a, b)
                | CanonNode::Release(a, b) => (a as usize) < i && (b as usize) < i,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Canonicalizes `f`: returns its [`TemplateKey`] plus the concrete
/// support letters in first-occurrence order (`support[i]` is what
/// canonical atom `i` stands for). Returns `None` when `f` contains a
/// past connective.
pub fn canonicalize(arena: &Arena, f: FormulaId) -> Option<(TemplateKey, Vec<AtomId>)> {
    enum Task {
        Visit(FormulaId),
        Build(FormulaId),
    }
    let mut nodes: Vec<CanonNode> = Vec::new();
    let mut memo: HashMap<FormulaId, u32> = HashMap::new();
    let mut atom_ix: HashMap<AtomId, u32> = HashMap::new();
    let mut support: Vec<AtomId> = Vec::new();
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
                        let ca = *atom_ix.entry(a).or_insert_with(|| {
                            support.push(a);
                            (support.len() - 1) as u32
                        });
                        let i = push(&mut nodes, CanonNode::Atom(ca));
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
    Some((TemplateKey { nodes, root, arity }, support))
}

/// Budgets for [`compile`]: exceeding either makes compilation bail
/// (returning `Ok(None)`) so the caller falls back to the symbolic
/// path.
#[derive(Debug, Clone, Copy)]
pub struct CompileLimits {
    /// Maximum support size — the table has `2^support` columns per
    /// state, so this is capped hard.
    pub max_support: u32,
    /// Maximum number of reachable residue states.
    pub max_states: usize,
}

/// The default [`CompileLimits::max_support`]: no compiled unit has a
/// wider support, so callers may store supports inline at this width.
pub const MAX_SUPPORT: u32 = 8;

impl Default for CompileLimits {
    fn default() -> Self {
        CompileLimits {
            max_support: MAX_SUPPORT,
            max_states: 64,
        }
    }
}

/// A closure-size prior: the progression graph lives inside the
/// residue's closure-set powerset, and a closure this large never fits
/// a per-template state budget worth having.
const MAX_CLOSURE: usize = 64;

struct TState {
    residue: FormulaId,
    /// The residue holds on `∅^ω`.
    holds_on_empty: bool,
    sat: bool,
}

/// An explicit safety automaton for one residue template: every
/// reachable progression state over the support-restricted valuations,
/// a dense `state × column → state` table, and per state whether its
/// residue holds on `∅^ω` and its phase-2 satisfiability verdict.
/// States are numbered in BFS discovery order (columns ascending), so
/// compilation is a pure function of the key — recompiling after a
/// snapshot restore yields bit-identical state numbering.
pub struct SafetyAutomaton {
    key: TemplateKey,
    /// Private arena holding the template's residues; atoms `0..arity`
    /// are interned first, so canonical atom `i` *is* `AtomId(i)`.
    arena: Arena,
    states: Vec<TState>,
    /// `table[state * 2^arity + column]`, column bit `i` = truth of
    /// support letter `i`.
    table: Vec<u32>,
}

impl SafetyAutomaton {
    /// The canonical key this machine was compiled from.
    pub fn key(&self) -> &TemplateKey {
        &self.key
    }

    /// Number of support letters.
    pub fn support_len(&self) -> usize {
        self.key.arity as usize
    }

    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The successor of `state` under valuation `column`.
    #[inline]
    pub fn step(&self, state: u32, column: u32) -> u32 {
        self.table[(state as usize) << self.key.arity | column as usize]
    }

    /// Whether `state`'s residue is satisfiable (precomputed at
    /// compile time; monotone — once false it stays false along every
    /// run, since an unsatisfiable formula progresses to an
    /// unsatisfiable one).
    #[inline]
    pub fn sat(&self, state: u32) -> bool {
        self.states[state as usize].sat
    }

    /// Whether `state`'s residue holds on `∅^ω`, the word with every
    /// letter false forever (precomputed at compile time; implies
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
    /// canonical atom `i` to `support[i]`. `memo` must not be shared
    /// across different supports.
    pub fn reconstruct(
        &self,
        dst: &mut Arena,
        state: u32,
        support: &[AtomId],
        memo: &mut HashMap<FormulaId, FormulaId>,
    ) -> FormulaId {
        dst.translate_from(
            &self.arena,
            self.states[state as usize].residue,
            support,
            memo,
        )
    }
}

/// Compiles a template key into an explicit safety automaton. State 0
/// is the key's root residue. Returns `Ok(None)` when the key is
/// malformed or any budget is exceeded; propagates solver errors.
pub fn compile(
    key: &TemplateKey,
    solver: SatSolver,
    limits: CompileLimits,
) -> Result<Option<SafetyAutomaton>, SatError> {
    if !key.validate() || key.arity > limits.max_support.min(20) {
        return Ok(None);
    }
    let mut arena = Arena::new();
    let atoms: Vec<AtomId> = (0..key.arity)
        .map(|i| arena.intern_atom(&format!("t{i}")))
        .collect();
    // Rebuild the canonical nodes through the folding constructors;
    // children precede parents, so one left-to-right pass suffices.
    let mut ids: Vec<FormulaId> = Vec::with_capacity(key.nodes.len());
    for n in &key.nodes {
        let id = match *n {
            CanonNode::True => arena.tru(),
            CanonNode::False => arena.fls(),
            CanonNode::Atom(a) => arena.atom_id(atoms[a as usize]),
            CanonNode::Not(g) => {
                let g = ids[g as usize];
                arena.not(g)
            }
            CanonNode::Next(g) => {
                let g = ids[g as usize];
                arena.next(g)
            }
            CanonNode::And(a, b) => {
                let (a, b) = (ids[a as usize], ids[b as usize]);
                arena.and(a, b)
            }
            CanonNode::Or(a, b) => {
                let (a, b) = (ids[a as usize], ids[b as usize]);
                arena.or(a, b)
            }
            CanonNode::Until(a, b) => {
                let (a, b) = (ids[a as usize], ids[b as usize]);
                arena.until(a, b)
            }
            CanonNode::Release(a, b) => {
                let (a, b) = (ids[a as usize], ids[b as usize]);
                arena.release(a, b)
            }
        };
        ids.push(id);
    }
    let root = ids[key.root as usize];
    // Engine residues may carry negation over non-atoms (the symbolic
    // path tolerates them); the closure and the Büchi solver require
    // NNF, so normalise here. `nnf` is equivalence-preserving, so the
    // reconstructed residue stays semantically equal to the source.
    let root = crate::nnf::nnf(&mut arena, root).map_err(|_| SatError::Past)?;
    if Closure::of(&arena, root).len() > MAX_CLOSURE {
        return Ok(None);
    }
    let n_cols = 1usize << key.arity;
    let mut state_ix: HashMap<FormulaId, u32> = HashMap::new();
    let mut states: Vec<TState> = Vec::new();
    let mut table: Vec<u32> = Vec::new();
    // A residue that holds on ∅^ω is satisfiable; the lasso test is
    // cheap and decides most states of a safety template, so the
    // solver runs only where it fails.
    let empty = Lasso::new(Vec::new(), vec![PropState::new()]);
    let label = |arena: &mut Arena, residue: FormulaId| -> Result<TState, SatError> {
        let holds_on_empty = empty.eval(arena, residue).map_err(|_| SatError::Past)?;
        let sat = holds_on_empty || is_satisfiable_with(arena, residue, solver)?.satisfiable;
        Ok(TState {
            residue,
            holds_on_empty,
            sat,
        })
    };
    state_ix.insert(root, 0);
    states.push(label(&mut arena, root)?);
    let mut i = 0usize;
    while i < states.len() {
        let residue = states[i].residue;
        for col in 0..n_cols {
            let w = PropState::from_true_atoms(
                atoms
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| col >> bit & 1 == 1)
                    .map(|(_, &a)| a),
            );
            let stepped = progress(&mut arena, residue, &w).map_err(|_| SatError::Past)?;
            let next = simplify(&mut arena, stepped);
            let j = match state_ix.get(&next) {
                Some(&j) => j,
                None => {
                    if states.len() >= limits.max_states {
                        return Ok(None);
                    }
                    let j = states.len() as u32;
                    state_ix.insert(next, j);
                    states.push(label(&mut arena, next)?);
                    j
                }
            };
            table.push(j);
        }
        i += 1;
    }
    // Keep only the states' residues: the build arena also holds every
    // intermediate progression step, which the machine never reads
    // again, and a template lives as long as its engine.
    let mut kept = Arena::new();
    for i in 0..key.arity {
        kept.intern_atom(&format!("t{i}"));
    }
    let mut memo = HashMap::new();
    for s in &mut states {
        s.residue = kept.translate_from(&arena, s.residue, &atoms, &mut memo);
    }
    Ok(Some(SafetyAutomaton {
        key: key.clone(),
        arena: kept,
        states,
        table,
    }))
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
pub fn split_units(arena: &mut Arena, f: FormulaId) -> Vec<FormulaId> {
    let mut parts = Vec::new();
    collect_parts(arena, f, &mut parts);
    let mut seen = HashSet::with_capacity(parts.len());
    parts.retain(|p| seen.insert(*p));
    parts
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

    #[test]
    fn compiled_once_only_steps_to_violation() {
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let (key, support) = canonicalize(&ar, f).unwrap();
        assert_eq!(support.len(), 1);
        let auto = compile(&key, SatSolver::default(), CompileLimits::default())
            .unwrap()
            .expect("once-only compiles within default budgets");
        assert!(auto.state_count() >= 2 && auto.state_count() <= 8);
        // Never seen: self-loop under ¬p, satisfiable.
        assert_eq!(auto.step(0, 0), 0);
        assert!(auto.sat(0));
        // Seen once: a new satisfiable state...
        let seen = auto.step(0, 1);
        assert_ne!(seen, 0);
        assert!(auto.sat(seen));
        // ...that self-loops under ¬p and dies under a re-submission.
        assert_eq!(auto.step(seen, 0), seen);
        let dead = auto.step(seen, 1);
        assert!(!auto.sat(dead));
        // Dead states are absorbing under every column.
        assert_eq!(auto.step(dead, 0), dead);
        assert_eq!(auto.step(dead, 1), dead);
    }

    #[test]
    fn compile_mirrors_symbolic_progression() {
        // Every compiled edge must land on the state whose residue the
        // symbolic pipeline (progress + simplify) computes.
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let (key, support) = canonicalize(&ar, f).unwrap();
        let auto = compile(&key, SatSolver::default(), CompileLimits::default())
            .unwrap()
            .unwrap();
        let mut state = 0u32;
        let mut residue = f;
        for col in [0u32, 1, 0, 1] {
            state = auto.step(state, col);
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
    fn state_budget_bails() {
        let mut ar = Arena::new();
        let f = once_only(&mut ar, "p");
        let (key, _) = canonicalize(&ar, f).unwrap();
        let tight = CompileLimits {
            max_support: 8,
            max_states: 1,
        };
        assert!(compile(&key, SatSolver::default(), tight)
            .unwrap()
            .is_none());
        let narrow = CompileLimits {
            max_support: 0,
            max_states: 64,
        };
        assert!(compile(&key, SatSolver::default(), narrow)
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_keys_are_refused() {
        let bad = TemplateKey {
            nodes: vec![CanonNode::Not(0)],
            root: 0,
            arity: 0,
        };
        assert!(!bad.validate());
        assert!(
            compile(&bad, SatSolver::default(), CompileLimits::default())
                .unwrap()
                .is_none()
        );
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
        let (key, support) = canonicalize(&ar, f).unwrap();
        assert_eq!(support.len(), 4);
        let auto = compile(&key, SatSolver::default(), CompileLimits::default())
            .unwrap()
            .expect("ACI-normal residues keep the FIFO progression graph finite");
        assert!(auto.state_count() <= 8, "{} states", auto.state_count());
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
        let (key, support) = canonicalize(&ar, f).unwrap();
        let auto = compile(&key, SatSolver::default(), CompileLimits::default())
            .unwrap()
            .unwrap();
        assert!(auto.holds_on_empty(0) && auto.sat(0));
        let a_bit = 1
            << support
                .iter()
                .position(|&x| ar.atom_name(x) == "a")
                .unwrap();
        let owing = auto.step(0, a_bit);
        assert!(auto.sat(owing));
        assert!(!auto.holds_on_empty(owing));
        let dead = auto.step(owing, 0);
        assert!(!auto.sat(dead) && !auto.holds_on_empty(dead));
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

//! Hash-consed formula arena.
//!
//! Every distinct formula is stored exactly once and identified by a
//! [`FormulaId`]. Constructors perform constant folding and commutative
//! normalisation so that structurally equal formulas (up to trivial
//! boolean identities) share an id. Sharing is what makes the
//! Sistla–Wolfson prefix rewriting of Lemma 4.2 run in `O(t · |φ|)` time
//! in practice: each progression step is memoised per sub-DAG.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a propositional letter within an [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The dense index of the atom.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a hash-consed formula within an [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FormulaId(pub u32);

impl FormulaId {
    /// The dense index of the formula node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a formula node. Children are arena ids.
///
/// The future connectives `Next`/`Until` and the past connectives
/// `Prev`/`Since` are primitive, mirroring Section 2 of the paper.
/// `Release` is kept primitive as well so that negation normal form stays
/// within the arena (`¬(a U b) ≡ ¬a R ¬b`). Everything else (`◇`, `□`,
/// `◈` "once", `▣` "historically", implication) is derived sugar provided
/// by constructor methods.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A propositional letter.
    Atom(AtomId),
    /// Negation.
    Not(FormulaId),
    /// Conjunction.
    And(FormulaId, FormulaId),
    /// Disjunction.
    Or(FormulaId, FormulaId),
    /// "Next time": `○A` holds at `t` iff `A` holds at `t+1`.
    Next(FormulaId),
    /// `A until B`: some `s ≥ t` has `B`, and `A` holds on `[t, s)`.
    Until(FormulaId, FormulaId),
    /// `A release B`: dual of until; `B` holds up to and including the
    /// first position where `A` holds, or forever if `A` never holds.
    Release(FormulaId, FormulaId),
    /// "Previous time" (strong): `●A` holds at `t` iff `t > 0` and `A`
    /// holds at `t-1`.
    Prev(FormulaId),
    /// `A since B`: some `s ≤ t` has `B`, and `A` holds on `(s, t]`.
    Since(FormulaId, FormulaId),
}

/// A hash-consing arena of PTL formulas over a growable set of
/// propositional letters.
#[derive(Default)]
pub struct Arena {
    nodes: Vec<Node>,
    node_ids: HashMap<Node, FormulaId>,
    atom_names: Vec<String>,
    atom_ids: HashMap<String, AtomId>,
    /// Per atom, whether it is an *internal* letter
    /// ([`Arena::mark_internal`]); empty while no atom is.
    internal: Vec<bool>,
    /// How many [`Arena::intern`] calls returned an already-interned
    /// node instead of allocating — the hash-consing hit counter the
    /// grounding layer reads to quantify cross-instantiation structure
    /// sharing in `Ψ_D`.
    dedup_hits: u64,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the node for an id.
    #[inline]
    pub fn node(&self, id: FormulaId) -> Node {
        self.nodes[id.index()]
    }

    /// Number of distinct (hash-consed) formula nodes allocated.
    pub fn dag_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of constructor calls answered from the hash-cons table
    /// (an already-interned node was returned instead of allocating).
    /// A coarse gauge of structure sharing across formulas built in
    /// this arena; monotone, never reset.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Number of registered propositional letters.
    pub fn atom_count(&self) -> usize {
        self.atom_names.len()
    }

    /// The display name of an atom.
    pub fn atom_name(&self, a: AtomId) -> &str {
        &self.atom_names[a.index()]
    }

    /// Looks up an atom by name without creating it.
    pub fn find_atom(&self, name: &str) -> Option<AtomId> {
        self.atom_ids.get(name).copied()
    }

    /// Interns an atom name, returning its id (existing or fresh).
    pub fn intern_atom(&mut self, name: &str) -> AtomId {
        if let Some(&a) = self.atom_ids.get(name) {
            return a;
        }
        let a = AtomId(u32::try_from(self.atom_names.len()).expect("too many atoms"));
        self.atom_names.push(name.to_owned());
        self.atom_ids.insert(name.to_owned(), a);
        a
    }

    /// Marks `a` as an *internal* letter: one the formulas over this
    /// arena define themselves, not one a state valuates. A formula
    /// that mentions an internal letter `ℓ` standing for `●D` carries
    /// its definition `¬ℓ ∧ □(○ℓ ↔ D)`, so each of its progression
    /// residues pins `ℓ` with a top-level literal, and
    /// [`progress`](crate::progression::progress) reads `ℓ`'s value
    /// from that literal instead of from the state.
    pub fn mark_internal(&mut self, a: AtomId) {
        assert!(a.index() < self.atom_names.len(), "unknown atom id");
        if self.internal.len() <= a.index() {
            self.internal.resize(a.index() + 1, false);
        }
        self.internal[a.index()] = true;
    }

    /// Whether `a` is an internal letter ([`Arena::mark_internal`]).
    #[inline]
    pub fn is_internal(&self, a: AtomId) -> bool {
        self.internal.get(a.index()).copied().unwrap_or(false)
    }

    /// Whether any atom of this arena is an internal letter.
    #[inline]
    pub fn has_internal(&self) -> bool {
        !self.internal.is_empty()
    }

    fn intern(&mut self, node: Node) -> FormulaId {
        if let Some(&id) = self.node_ids.get(&node) {
            self.dedup_hits += 1;
            return id;
        }
        let id = FormulaId(u32::try_from(self.nodes.len()).expect("too many formulas"));
        self.nodes.push(node);
        self.node_ids.insert(node, id);
        id
    }

    /// The dense node table, in interning order. Together with
    /// [`Arena::atom_names_in_order`] this is a complete, canonical
    /// dump of the arena: rebuilding via [`Arena::rehydrate`] yields
    /// an arena in which every existing [`FormulaId`]/[`AtomId`] is
    /// bit-identical. (Durable snapshots rely on this to restore
    /// constraint residues without re-running the grounding pipeline.)
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The atom name table, in id order (dense).
    pub fn atom_names_in_order(&self) -> &[String] {
        &self.atom_names
    }

    /// Rebuilds an arena from a dump taken with [`Arena::nodes`] and
    /// [`Arena::atom_names_in_order`]. Internal-letter marks are not
    /// part of the dump: the caller re-marks them.
    ///
    /// Nodes are inserted *raw*, without re-running the folding
    /// constructors — the dump already reflects whatever folding
    /// produced it, and re-folding would renumber ids. The input is
    /// validated instead of trusted: children must reference earlier
    /// nodes, atom ids must be in range, and both tables must be
    /// duplicate-free (they are, in any genuine dump, because interning
    /// is what built them).
    pub fn rehydrate(nodes: Vec<Node>, atom_names: Vec<String>) -> Result<Arena, &'static str> {
        let mut arena = Arena::new();
        for (i, name) in atom_names.iter().enumerate() {
            let a = AtomId(u32::try_from(i).map_err(|_| "too many atoms")?);
            if arena.atom_ids.insert(name.clone(), a).is_some() {
                return Err("duplicate atom name in dump");
            }
            arena.atom_names.push(name.clone());
        }
        for (i, &node) in nodes.iter().enumerate() {
            let id = FormulaId(u32::try_from(i).map_err(|_| "too many formulas")?);
            let check_child = |c: FormulaId| {
                if c.index() < i {
                    Ok(())
                } else {
                    Err("node references a child at or after itself")
                }
            };
            match node {
                Node::True | Node::False => {}
                Node::Atom(a) => {
                    if a.index() >= arena.atom_names.len() {
                        return Err("atom id out of range");
                    }
                }
                Node::Not(x) | Node::Next(x) | Node::Prev(x) => check_child(x)?,
                Node::And(x, y)
                | Node::Or(x, y)
                | Node::Until(x, y)
                | Node::Release(x, y)
                | Node::Since(x, y) => {
                    check_child(x)?;
                    check_child(y)?;
                }
            }
            if arena.node_ids.insert(node, id).is_some() {
                return Err("duplicate node in dump");
            }
            arena.nodes.push(node);
        }
        Ok(arena)
    }

    /// The constant `true`.
    pub fn tru(&mut self) -> FormulaId {
        self.intern(Node::True)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> FormulaId {
        self.intern(Node::False)
    }

    /// An atomic formula for a named letter.
    pub fn atom(&mut self, name: &str) -> FormulaId {
        let a = self.intern_atom(name);
        self.intern(Node::Atom(a))
    }

    /// An atomic formula for an already-interned letter.
    pub fn atom_id(&mut self, a: AtomId) -> FormulaId {
        assert!(a.index() < self.atom_names.len(), "unknown atom id");
        self.intern(Node::Atom(a))
    }

    /// Negation, with folding: `¬⊤ = ⊥`, `¬⊥ = ⊤`, `¬¬A = A`.
    pub fn not(&mut self, f: FormulaId) -> FormulaId {
        match self.node(f) {
            Node::True => self.fls(),
            Node::False => self.tru(),
            Node::Not(g) => g,
            _ => self.intern(Node::Not(f)),
        }
    }

    /// Conjunction with unit/absorption folding and commutative
    /// normalisation (`a ∧ b` interned with `min(a,b)` first).
    pub fn and(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let (t, f) = (self.tru(), self.fls());
        if a == f || b == f {
            return f;
        }
        if a == t {
            return b;
        }
        if b == t {
            return a;
        }
        if a == b {
            return a;
        }
        // a ∧ ¬a = ⊥ (cheap complementation check through hash-consing).
        if self.node(a) == Node::Not(b) || self.node(b) == Node::Not(a) {
            return f;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node::And(x, y))
    }

    /// Disjunction with unit/absorption folding and commutative
    /// normalisation.
    pub fn or(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let (t, f) = (self.tru(), self.fls());
        if a == t || b == t {
            return t;
        }
        if a == f {
            return b;
        }
        if b == f {
            return a;
        }
        if a == b {
            return a;
        }
        if self.node(a) == Node::Not(b) || self.node(b) == Node::Not(a) {
            return t;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node::Or(x, y))
    }

    /// Implication `A ⇒ B`, desugared to `¬A ∨ B`.
    pub fn implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Biconditional `A ⇔ B`.
    pub fn iff(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let ab = self.implies(a, b);
        let ba = self.implies(b, a);
        self.and(ab, ba)
    }

    /// Conjunction of many formulas.
    pub fn and_all<I: IntoIterator<Item = FormulaId>>(&mut self, items: I) -> FormulaId {
        let mut acc = self.tru();
        for f in items {
            acc = self.and(acc, f);
        }
        acc
    }

    /// Disjunction of many formulas.
    pub fn or_all<I: IntoIterator<Item = FormulaId>>(&mut self, items: I) -> FormulaId {
        let mut acc = self.fls();
        for f in items {
            acc = self.or(acc, f);
        }
        acc
    }

    /// "Next time". `○⊤ = ⊤` and `○⊥ = ⊥` (time is infinite).
    pub fn next(&mut self, f: FormulaId) -> FormulaId {
        match self.node(f) {
            Node::True | Node::False => f,
            _ => self.intern(Node::Next(f)),
        }
    }

    /// `A until B`, folding `A U ⊤ = ⊤`, `A U ⊥ = ⊥`, `⊥ U B = B`,
    /// `A U A = A`.
    pub fn until(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match self.node(b) {
            Node::True | Node::False => return b,
            _ => {}
        }
        if a == b {
            return b;
        }
        if self.node(a) == Node::False {
            return b;
        }
        self.intern(Node::Until(a, b))
    }

    /// `A release B`, folding `A R ⊤ = ⊤`, `A R ⊥ = ⊥`, `⊤ R B = B`,
    /// `A R A = A`.
    pub fn release(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match self.node(b) {
            Node::True | Node::False => return b,
            _ => {}
        }
        if a == b {
            return b;
        }
        if self.node(a) == Node::True {
            return b;
        }
        self.intern(Node::Release(a, b))
    }

    /// "Sometime in the future" `◇A ≡ ⊤ U A`.
    pub fn eventually(&mut self, f: FormulaId) -> FormulaId {
        let t = self.tru();
        self.until(t, f)
    }

    /// "Always in the future" `□A ≡ ⊥ R A ≡ ¬◇¬A`.
    pub fn always(&mut self, f: FormulaId) -> FormulaId {
        let b = self.fls();
        self.release(b, f)
    }

    /// "Previous time" (strong). `●⊥ = ⊥`; note `●⊤ ≠ ⊤` (it is false at
    /// instant 0), so it is *not* folded.
    pub fn prev(&mut self, f: FormulaId) -> FormulaId {
        match self.node(f) {
            Node::False => f,
            _ => self.intern(Node::Prev(f)),
        }
    }

    /// `A since B`, folding `A S ⊤ = ⊤`, `A S ⊥ = ⊥`, `⊥ S B = B`,
    /// `A S A = A`.
    pub fn since(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match self.node(b) {
            Node::True | Node::False => return b,
            _ => {}
        }
        if a == b {
            return b;
        }
        if self.node(a) == Node::False {
            return b;
        }
        self.intern(Node::Since(a, b))
    }

    /// "Sometime in the past" `◈A ≡ ⊤ S A`.
    pub fn once(&mut self, f: FormulaId) -> FormulaId {
        let t = self.tru();
        self.since(t, f)
    }

    /// "Always in the past" `▣A ≡ ¬◈¬A`.
    pub fn historically(&mut self, f: FormulaId) -> FormulaId {
        let nf = self.not(f);
        let o = self.once(nf);
        self.not(o)
    }

    /// Bounded eventually `◇≤k A ≡ A ∨ ○A ∨ … ∨ ○^k A` (the metric
    /// operator of real-time extensions, desugared to a `○`-chain; cf.
    /// the Past Metric FOTL pointer in the paper's Section 5).
    pub fn eventually_within(&mut self, f: FormulaId, k: usize) -> FormulaId {
        let mut acc = f;
        let mut step = f;
        for _ in 0..k {
            step = self.next(step);
            acc = self.or(acc, step);
        }
        acc
    }

    /// Bounded always `□≤k A ≡ A ∧ ○A ∧ … ∧ ○^k A`.
    pub fn always_within(&mut self, f: FormulaId, k: usize) -> FormulaId {
        let mut acc = f;
        let mut step = f;
        for _ in 0..k {
            step = self.next(step);
            acc = self.and(acc, step);
        }
        acc
    }

    /// Bounded once `◈≤k A ≡ A ∨ ●A ∨ … ∨ ●^k A`.
    pub fn once_within(&mut self, f: FormulaId, k: usize) -> FormulaId {
        let mut acc = f;
        let mut step = f;
        for _ in 0..k {
            step = self.prev(step);
            acc = self.or(acc, step);
        }
        acc
    }

    /// Number of nodes in the DAG rooted at `f` (shared nodes counted
    /// once). This is the size measure relevant to the memoised
    /// algorithms in this crate.
    pub fn dag_size(&self, f: FormulaId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        let mut n = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            n += 1;
            match self.node(id) {
                Node::True | Node::False | Node::Atom(_) => {}
                Node::Not(g) | Node::Next(g) | Node::Prev(g) => stack.push(g),
                Node::And(a, b)
                | Node::Or(a, b)
                | Node::Until(a, b)
                | Node::Release(a, b)
                | Node::Since(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        n
    }

    /// Size of the formula as a tree (the `|φ|` of the paper's bounds),
    /// saturating at `usize::MAX`. Computed with memoisation over the DAG.
    pub fn tree_size(&self, f: FormulaId) -> usize {
        fn go(arena: &Arena, f: FormulaId, memo: &mut HashMap<FormulaId, usize>) -> usize {
            if let Some(&n) = memo.get(&f) {
                return n;
            }
            let n = match arena.node(f) {
                Node::True | Node::False | Node::Atom(_) => 1,
                Node::Not(g) | Node::Next(g) | Node::Prev(g) => {
                    go(arena, g, memo).saturating_add(1)
                }
                Node::And(a, b)
                | Node::Or(a, b)
                | Node::Until(a, b)
                | Node::Release(a, b)
                | Node::Since(a, b) => go(arena, a, memo)
                    .saturating_add(go(arena, b, memo))
                    .saturating_add(1),
            };
            memo.insert(f, n);
            n
        }
        go(self, f, &mut HashMap::new())
    }

    /// True if the DAG rooted at `f` contains a past connective
    /// (`●`/`since`). The satisfiability engines only accept future
    /// formulas, as does the paper's Lemma 4.2.
    pub fn has_past(&self, f: FormulaId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match self.node(id) {
                Node::Prev(_) | Node::Since(_, _) => return true,
                Node::True | Node::False | Node::Atom(_) => {}
                Node::Not(g) | Node::Next(g) => stack.push(g),
                Node::And(a, b) | Node::Or(a, b) | Node::Until(a, b) | Node::Release(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        false
    }

    /// True if the DAG rooted at `f` contains a future connective
    /// (`○`/`until`/`release`).
    pub fn has_future(&self, f: FormulaId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match self.node(id) {
                Node::Next(_) | Node::Until(_, _) | Node::Release(_, _) => return true,
                Node::True | Node::False | Node::Atom(_) => {}
                Node::Not(g) | Node::Prev(g) => stack.push(g),
                Node::And(a, b) | Node::Or(a, b) | Node::Since(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        false
    }

    /// The set of atoms occurring in the DAG rooted at `f`, in id order.
    pub fn atoms_of(&self, f: FormulaId) -> Vec<AtomId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut found = vec![false; self.atom_names.len()];
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match self.node(id) {
                Node::Atom(a) => found[a.index()] = true,
                Node::True | Node::False => {}
                Node::Not(g) | Node::Next(g) | Node::Prev(g) => stack.push(g),
                Node::And(a, b)
                | Node::Or(a, b)
                | Node::Until(a, b)
                | Node::Release(a, b)
                | Node::Since(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        found
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| AtomId(i as u32))
            .collect()
    }

    /// The internal letters ([`Arena::mark_internal`]) occurring in the
    /// DAG rooted at `f`, in no particular order. Walks only that DAG,
    /// unlike [`Arena::atoms_of`], so it suits small parts of a large
    /// arena.
    pub fn internal_atoms(&self, f: FormulaId) -> Vec<AtomId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            match self.node(id) {
                Node::Atom(a) if self.is_internal(a) => out.push(a),
                Node::True | Node::False | Node::Atom(_) => {}
                Node::Not(g) | Node::Next(g) | Node::Prev(g) => stack.push(g),
                Node::And(a, b)
                | Node::Or(a, b)
                | Node::Until(a, b)
                | Node::Release(a, b)
                | Node::Since(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        out
    }

    /// Rebuilds the DAG rooted at `root` of a *source* arena inside
    /// this arena, mapping source atom `AtomId(i)` to `atoms[i]` (which
    /// must already be interned here). Returns the translated root.
    ///
    /// The rebuild goes through this arena's folding constructors, so
    /// the result is in the same canonical form a direct construction
    /// would produce — translation commutes with construction, so moving
    /// a formula between arenas (as automaton compilation does) never
    /// perturbs `dag_size` or `tree_size`. `memo` caches source-id → destination-id across
    /// calls; reuse it when translating many roots from one source.
    ///
    /// Iterative (explicit work stack), so deeply right- or left-leaning
    /// source formulas cannot overflow the call stack.
    pub fn translate_from(
        &mut self,
        src: &Arena,
        root: FormulaId,
        atoms: &[AtomId],
        memo: &mut HashMap<FormulaId, FormulaId>,
    ) -> FormulaId {
        enum Task {
            Visit(FormulaId),
            Build(FormulaId),
        }
        let mut stack = vec![Task::Visit(root)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Visit(f) => {
                    if memo.contains_key(&f) {
                        continue;
                    }
                    match src.node(f) {
                        Node::True => {
                            let id = self.tru();
                            memo.insert(f, id);
                        }
                        Node::False => {
                            let id = self.fls();
                            memo.insert(f, id);
                        }
                        Node::Atom(a) => {
                            let id = self.atom_id(atoms[a.index()]);
                            memo.insert(f, id);
                        }
                        Node::Not(g) | Node::Next(g) | Node::Prev(g) => {
                            stack.push(Task::Build(f));
                            stack.push(Task::Visit(g));
                        }
                        Node::And(a, b)
                        | Node::Or(a, b)
                        | Node::Until(a, b)
                        | Node::Release(a, b)
                        | Node::Since(a, b) => {
                            stack.push(Task::Build(f));
                            stack.push(Task::Visit(a));
                            stack.push(Task::Visit(b));
                        }
                    }
                }
                Task::Build(f) => {
                    let id = match src.node(f) {
                        Node::True | Node::False | Node::Atom(_) => unreachable!(),
                        Node::Not(g) => {
                            let g = memo[&g];
                            self.not(g)
                        }
                        Node::Next(g) => {
                            let g = memo[&g];
                            self.next(g)
                        }
                        Node::Prev(g) => {
                            let g = memo[&g];
                            self.prev(g)
                        }
                        Node::And(a, b) => {
                            let (a, b) = (memo[&a], memo[&b]);
                            self.and(a, b)
                        }
                        Node::Or(a, b) => {
                            let (a, b) = (memo[&a], memo[&b]);
                            self.or(a, b)
                        }
                        Node::Until(a, b) => {
                            let (a, b) = (memo[&a], memo[&b]);
                            self.until(a, b)
                        }
                        Node::Release(a, b) => {
                            let (a, b) = (memo[&a], memo[&b]);
                            self.release(a, b)
                        }
                        Node::Since(a, b) => {
                            let (a, b) = (memo[&a], memo[&b]);
                            self.since(a, b)
                        }
                    };
                    memo.insert(f, id);
                }
            }
        }
        memo[&root]
    }

    /// Renders a formula using the crate's text syntax (parseable back by
    /// [`crate::parser::parse`]).
    pub fn display(&self, f: FormulaId) -> FormulaDisplay<'_> {
        FormulaDisplay { arena: self, f }
    }

    fn fmt_prec(&self, f: FormulaId, prec: u8, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence levels: 0 = or, 1 = and, 2 = until/since/release,
        // 3 = unary, 4 = atoms.
        let node = self.node(f);
        let my_prec = match node {
            Node::Or(_, _) => 0,
            Node::And(_, _) => 1,
            Node::Until(_, _) | Node::Release(_, _) | Node::Since(_, _) => 2,
            Node::Not(_) | Node::Next(_) | Node::Prev(_) => 3,
            Node::True | Node::False | Node::Atom(_) => 4,
        };
        let parens = my_prec < prec;
        if parens {
            write!(out, "(")?;
        }
        match node {
            Node::True => write!(out, "true")?,
            Node::False => write!(out, "false")?,
            Node::Atom(a) => write!(out, "{}", self.atom_name(a))?,
            Node::Not(g) => {
                write!(out, "!")?;
                self.fmt_prec(g, 3, out)?;
            }
            Node::Next(g) => {
                write!(out, "X ")?;
                self.fmt_prec(g, 3, out)?;
            }
            Node::Prev(g) => {
                write!(out, "Y ")?;
                self.fmt_prec(g, 3, out)?;
            }
            Node::And(a, b) => {
                self.fmt_prec(a, 2, out)?;
                write!(out, " & ")?;
                self.fmt_prec(b, 2, out)?;
            }
            Node::Or(a, b) => {
                self.fmt_prec(a, 1, out)?;
                write!(out, " | ")?;
                self.fmt_prec(b, 1, out)?;
            }
            Node::Until(a, b) => {
                // Render ◇/□ sugar for readability.
                if self.node(a) == Node::True {
                    write!(out, "F ")?;
                    self.fmt_prec(b, 3, out)?;
                } else {
                    self.fmt_prec(a, 3, out)?;
                    write!(out, " U ")?;
                    self.fmt_prec(b, 3, out)?;
                }
            }
            Node::Release(a, b) => {
                if self.node(a) == Node::False {
                    write!(out, "G ")?;
                    self.fmt_prec(b, 3, out)?;
                } else {
                    self.fmt_prec(a, 3, out)?;
                    write!(out, " R ")?;
                    self.fmt_prec(b, 3, out)?;
                }
            }
            Node::Since(a, b) => {
                if self.node(a) == Node::True {
                    write!(out, "O ")?;
                    self.fmt_prec(b, 3, out)?;
                } else {
                    self.fmt_prec(a, 3, out)?;
                    write!(out, " S ")?;
                    self.fmt_prec(b, 3, out)?;
                }
            }
        }
        if parens {
            write!(out, ")")?;
        }
        Ok(())
    }
}

/// Display adapter returned by [`Arena::display`].
pub struct FormulaDisplay<'a> {
    arena: &'a Arena,
    f: FormulaId,
}

impl fmt::Display for FormulaDisplay<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.arena.fmt_prec(self.f, 0, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let a = ar.and(p, q);
        let b = ar.and(q, p);
        assert_eq!(a, b, "commutative normalisation should share ∧ nodes");
        let c = ar.or(p, q);
        let d = ar.or(q, p);
        assert_eq!(c, d);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_folding() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let t = ar.tru();
        let f = ar.fls();
        assert_eq!(ar.and(p, t), p);
        assert_eq!(ar.and(p, f), f);
        assert_eq!(ar.or(p, f), p);
        assert_eq!(ar.or(p, t), t);
        let np = ar.not(p);
        assert_eq!(ar.not(np), p);
        assert_eq!(ar.and(p, np), f);
        assert_eq!(ar.or(p, np), t);
        assert_eq!(ar.next(t), t);
        assert_eq!(ar.next(f), f);
        assert_eq!(ar.until(p, t), t);
        assert_eq!(ar.until(p, f), f);
        assert_eq!(ar.until(f, p), p);
        assert_eq!(ar.release(t, p), p);
        assert_eq!(ar.since(f, p), p);
        assert_eq!(ar.since(p, t), t);
    }

    #[test]
    fn prev_true_not_folded() {
        // ●⊤ is false at instant 0, so it must stay a real node.
        let mut ar = Arena::new();
        let t = ar.tru();
        let pt = ar.prev(t);
        assert_ne!(pt, t);
        assert!(matches!(ar.node(pt), Node::Prev(_)));
    }

    #[test]
    fn sizes() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let u = ar.until(p, q);
        let big = ar.and(u, u);
        assert_eq!(big, u, "idempotence folds a ∧ a");
        let np = ar.not(p);
        let g = ar.and(u, np);
        assert_eq!(ar.dag_size(g), 5); // p, q, U, ¬p, ∧
        assert_eq!(ar.tree_size(g), 6); // p appears twice in the tree
    }

    #[test]
    fn atoms_of_collects_in_order() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let _r = ar.atom("r");
        let f = ar.and(q, p);
        let atoms = ar.atoms_of(f);
        assert_eq!(atoms, vec![AtomId(0), AtomId(1)]);
    }

    #[test]
    fn past_future_detection() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let fut = ar.eventually(p);
        let past = ar.once(p);
        assert!(ar.has_future(fut));
        assert!(!ar.has_past(fut));
        assert!(ar.has_past(past));
        assert!(!ar.has_future(past));
        let both = ar.and(fut, past);
        assert!(ar.has_future(both) && ar.has_past(both));
    }

    #[test]
    fn display_round_shape() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let f = ar.until(p, q);
        let g = ar.always(f);
        let s = format!("{}", ar.display(g));
        assert_eq!(s, "G (p U q)");
        let ev = ar.eventually(p);
        assert_eq!(format!("{}", ar.display(ev)), "F p");
    }
}

#[cfg(test)]
mod translate_tests {
    use super::*;

    #[test]
    fn translation_commutes_with_construction() {
        // Build in a worker arena with its own atom numbering, then
        // translate into a main arena that interned the same letters in
        // a different order: the result must equal a direct build.
        let mut w = Arena::new();
        let wp = w.atom("p");
        let wq = w.atom("q");
        let wu = w.until(wp, wq);
        let wg = w.always(wu);
        let wnp = w.not(wp);
        let wf = w.and(wg, wnp);

        let mut main = Arena::new();
        let mq = main.intern_atom("q");
        let mp = main.intern_atom("p");
        let remap = vec![mp, mq]; // worker AtomId(0)="p" → mp, …
        let mut memo = HashMap::new();
        let got = main.translate_from(&w, wf, &remap, &mut memo);

        let direct = {
            let p = main.atom_id(mp);
            let q = main.atom_id(mq);
            let u = main.until(p, q);
            let g = main.always(u);
            let np = main.not(p);
            main.and(g, np)
        };
        assert_eq!(got, direct);
        assert_eq!(main.dag_size(got), w.dag_size(wf));
        assert_eq!(main.tree_size(got), w.tree_size(wf));
    }

    #[test]
    fn translation_refolds_against_destination_state() {
        // ¬p exists in the destination before p ∧ ¬p arrives from the
        // worker: complementation folding must still fire.
        let mut w = Arena::new();
        let wp = w.atom("p");
        let wnp = w.not(wp);
        let wf = w.and(wp, wnp);
        assert_eq!(w.node(wf), Node::False, "source folds too");

        let mut main = Arena::new();
        let mp = main.intern_atom("p");
        let mut memo = HashMap::new();
        let got = main.translate_from(&w, wf, &[mp], &mut memo);
        assert_eq!(main.node(got), Node::False);
    }

    #[test]
    fn memo_reuse_across_roots() {
        let mut w = Arena::new();
        let wp = w.atom("p");
        let wx = w.next(wp);
        let wy = w.and(wp, wx);

        let mut main = Arena::new();
        let mp = main.intern_atom("p");
        let mut memo = HashMap::new();
        let a = main.translate_from(&w, wx, &[mp], &mut memo);
        let before = memo.len();
        let b = main.translate_from(&w, wy, &[mp], &mut memo);
        assert!(memo.len() > before);
        let expect = {
            let p = main.atom_id(mp);
            main.and(p, a)
        };
        assert_eq!(b, expect);
    }

    #[test]
    fn deep_chains_do_not_overflow() {
        let mut w = Arena::new();
        let mut f = w.atom("p");
        for _ in 0..200_000 {
            f = w.next(f);
        }
        let mut main = Arena::new();
        let mp = main.intern_atom("p");
        let mut memo = HashMap::new();
        let got = main.translate_from(&w, f, &[mp], &mut memo);
        assert_eq!(main.dag_size(got), w.dag_size(f));
    }
}

#[cfg(test)]
mod bounded_ops_tests {
    use super::*;

    #[test]
    fn bounded_operators_build_next_chains() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let f = ar.eventually_within(p, 2);
        let x1 = ar.next(p);
        let x2 = ar.next(x1);
        let expect = {
            let a = ar.or(p, x1);
            ar.or(a, x2)
        };
        assert_eq!(f, expect);
        assert_eq!(ar.eventually_within(p, 0), p);
        let g = ar.always_within(p, 1);
        let expect_g = ar.and(p, x1);
        assert_eq!(g, expect_g);
        let o = ar.once_within(p, 1);
        let y1 = ar.prev(p);
        let expect_o = ar.or(p, y1);
        assert_eq!(o, expect_o);
    }

    #[test]
    fn bounded_eventually_is_until_free_hence_probe_friendly() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let within = ar.eventually_within(q, 3);
        let imp = ar.implies(p, within);
        let g = ar.always(imp);
        let nnf = crate::nnf::nnf(&mut ar, g).unwrap();
        assert!(crate::safety::is_syntactically_safe(&mut ar, nnf).unwrap());
        let r = crate::sat::is_satisfiable(&mut ar, g).unwrap();
        assert!(r.satisfiable);
    }

    #[test]
    fn rehydrate_is_bit_identical() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q(7)");
        let u = ar.until(p, q);
        let g = ar.always(u);
        let y = ar.since(q, g);
        let dump_nodes = ar.nodes().to_vec();
        let dump_atoms = ar.atom_names_in_order().to_vec();

        let mut back = Arena::rehydrate(dump_nodes, dump_atoms).unwrap();
        assert_eq!(back.dag_len(), ar.dag_len());
        assert_eq!(back.atom_count(), ar.atom_count());
        for i in 0..ar.dag_len() {
            let id = FormulaId(i as u32);
            assert_eq!(back.node(id), ar.node(id), "node {i}");
        }
        // Interning the same structures lands on the same ids —
        // hash-consing picks up exactly where the original left off.
        let p2 = back.atom("p");
        let q2 = back.atom("q(7)");
        assert_eq!(p2, p);
        let u2 = back.until(p2, q2);
        assert_eq!(u2, u);
        let y2 = {
            let g2 = back.always(u2);
            back.since(q2, g2)
        };
        assert_eq!(y2, y);
        // And fresh letters allocate past the dump, not inside it.
        let fresh = back.intern_atom("r");
        assert_eq!(fresh.index(), ar.atom_count());
    }

    #[test]
    fn rehydrate_rejects_malformed_dumps() {
        // Child after itself.
        assert!(Arena::rehydrate(vec![Node::Not(FormulaId(0))], vec![]).is_err());
        // Atom id out of range.
        assert!(Arena::rehydrate(vec![Node::Atom(AtomId(0))], vec![]).is_err());
        // Duplicate node.
        assert!(Arena::rehydrate(vec![Node::True, Node::True], vec![]).is_err());
        // Duplicate atom name.
        assert!(Arena::rehydrate(vec![], vec!["p".into(), "p".into()]).is_err());
    }
}

//! On-the-fly tableau construction (GPVW) to a generalized Büchi
//! automaton.
//!
//! This is the production satisfiability engine: it realises the
//! `2^O(|ψ|)` bound of Lemma 4.2 but only materialises tableau nodes
//! reachable from the initial obligation, which in practice is a tiny
//! fraction of the closure-set powerset that the classic construction
//! ([`crate::tableau`]) enumerates. The algorithm follows Gerth, Peled,
//! Vardi & Wolper, *Simple on-the-fly automatic verification of linear
//! temporal logic* (PSTV 1995); input must be a future formula, which is
//! converted to NNF internally.
//!
//! **Until-free merging.** Grounded universal *safety* constraints are
//! until-free in NNF (`□`, release, `○`, booleans), so the automaton has
//! no acceptance sets. Nodes are then merged by their `next` obligations
//! alone: successor behaviour depends only on `next`, and each variant's
//! (consistent) `old` is kept **on the incoming edge** as the label
//! justifying that particular decomposition. This collapses the
//! per-disjunct branch blowup of large safety conjunctions from
//! exponential to (typically) linear, while keeping both the emptiness
//! verdict and extracted witnesses exact.

use crate::arena::{Arena, FormulaId, Node};
use crate::emptiness::FairGraph;
use crate::nnf::{nnf, NnfError};
use crate::trace::PropState;
use std::collections::{BTreeSet, HashMap};

/// Sentinel predecessor marking an initial node.
const INIT: u32 = u32::MAX;

/// An incoming edge: the predecessor (`INIT` for initial) and the
/// positive atoms required at *this* node's position by the variant
/// that produced the edge.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Predecessor node id, or `INIT`.
    pub from: u32,
    /// Positive literals of the producing variant's `old` set.
    pub label: PropState,
}

/// A node of the constructed automaton.
#[derive(Debug, Clone)]
pub struct BuchiNode {
    /// Incoming edges.
    pub incoming: Vec<Incoming>,
    /// Processed obligations of the variant that first created the node
    /// (consistent; used for acceptance in the non-merged mode).
    pub old: BTreeSet<FormulaId>,
    /// Obligations deferred to the next position (the merge key).
    pub next: BTreeSet<FormulaId>,
}

/// A generalized Büchi automaton equivalent (for nonemptiness) to an NNF
/// future formula.
pub struct Buchi {
    /// The automaton nodes.
    pub nodes: Vec<BuchiNode>,
    /// The `(a, b)` pairs of every `a U b` subformula: one acceptance set
    /// each (`u ∉ old ∨ b ∈ old`).
    pub untils: Vec<(FormulaId, FormulaId)>,
    /// The NNF root the automaton was built from.
    pub root: FormulaId,
    /// Whether until-free merging was applied.
    pub merged_by_next: bool,
}

struct Pending {
    incoming: Vec<u32>,
    new: BTreeSet<FormulaId>,
    old: BTreeSet<FormulaId>,
    next: BTreeSet<FormulaId>,
}

impl Buchi {
    /// Builds the automaton for `f` (any future formula; NNF conversion
    /// is applied first).
    pub fn build(arena: &mut Arena, f: FormulaId) -> Result<Self, NnfError> {
        let root = nnf(arena, f)?;
        let untils = collect_untils(arena, root);
        let merged_by_next = untils.is_empty();
        let mut nodes: Vec<BuchiNode> = Vec::new();
        let mut by_key: HashMap<(BTreeSet<FormulaId>, BTreeSet<FormulaId>), u32> = HashMap::new();
        let mut work: Vec<Pending> = vec![Pending {
            incoming: vec![INIT],
            new: BTreeSet::from([root]),
            old: BTreeSet::new(),
            next: BTreeSet::new(),
        }];

        while let Some(mut node) = work.pop() {
            loop {
                // Expansion order matters enormously for conjunction-
                // heavy inputs (e.g. the literal Axiom_D grounding):
                // process non-splitting formulas first so `old`
                // accumulates literals that let later disjunctions be
                // satisfied or pruned without branching.
                let picked = node
                    .new
                    .iter()
                    .find(|&&g| {
                        matches!(
                            arena.node(g),
                            Node::True
                                | Node::False
                                | Node::Atom(_)
                                | Node::Not(_)
                                | Node::And(_, _)
                                | Node::Next(_)
                        )
                    })
                    .or_else(|| node.new.iter().next())
                    .copied();
                let Some(f) = picked else {
                    // Fully expanded: merge or store, then enqueue the
                    // successor obligation.
                    let key = if merged_by_next {
                        (BTreeSet::new(), node.next.clone())
                    } else {
                        (node.old.clone(), node.next.clone())
                    };
                    let label = positive_label(arena, &node.old);
                    if let Some(&id) = by_key.get(&key) {
                        let target = &mut nodes[id as usize];
                        for &from in &node.incoming {
                            target.incoming.push(Incoming {
                                from,
                                label: label.clone(),
                            });
                        }
                    } else {
                        let id = u32::try_from(nodes.len()).expect("too many Büchi nodes");
                        by_key.insert(key, id);
                        let succ_new = node.next.clone();
                        nodes.push(BuchiNode {
                            incoming: node
                                .incoming
                                .iter()
                                .map(|&from| Incoming {
                                    from,
                                    label: label.clone(),
                                })
                                .collect(),
                            old: node.old,
                            next: node.next,
                        });
                        work.push(Pending {
                            incoming: vec![id],
                            new: succ_new,
                            old: BTreeSet::new(),
                            next: BTreeSet::new(),
                        });
                    }
                    break;
                };
                node.new.remove(&f);
                if node.old.contains(&f) {
                    continue;
                }
                match arena.node(f) {
                    Node::True => {}
                    Node::False => break, // contradictory node: drop
                    Node::Atom(_) => {
                        let neg = arena.not(f);
                        if node.old.contains(&neg) {
                            break;
                        }
                        node.old.insert(f);
                    }
                    Node::Not(g) => {
                        debug_assert!(matches!(arena.node(g), Node::Atom(_)), "input must be NNF");
                        if node.old.contains(&g) {
                            break;
                        }
                        node.old.insert(f);
                    }
                    Node::And(a, b) => {
                        node.old.insert(f);
                        node.new.insert(a);
                        node.new.insert(b);
                    }
                    Node::Or(a, b) => {
                        node.old.insert(f);
                        // Prune: already-satisfied disjunctions need no
                        // branch; a falsified disjunct forces the other.
                        if node.old.contains(&a) || node.old.contains(&b) {
                            continue;
                        }
                        let a_dead = falsified(arena, a, &node.old);
                        let b_dead = falsified(arena, b, &node.old);
                        match (a_dead, b_dead) {
                            (true, true) => break,
                            (true, false) => {
                                node.new.insert(b);
                            }
                            (false, true) => {
                                node.new.insert(a);
                            }
                            (false, false) => {
                                let mut other = Pending {
                                    incoming: node.incoming.clone(),
                                    new: node.new.clone(),
                                    old: node.old.clone(),
                                    next: node.next.clone(),
                                };
                                other.new.insert(b);
                                work.push(other);
                                node.new.insert(a);
                            }
                        }
                    }
                    Node::Next(g) => {
                        node.old.insert(f);
                        node.next.insert(g);
                    }
                    Node::Until(a, b) => {
                        // a U b ≡ b ∨ (a ∧ ○(a U b))
                        node.old.insert(f);
                        if node.old.contains(&b) {
                            continue; // discharged now
                        }
                        if falsified(arena, b, &node.old) {
                            // Only the continuation branch is viable.
                            node.new.insert(a);
                            node.next.insert(f);
                            continue;
                        }
                        let mut other = Pending {
                            incoming: node.incoming.clone(),
                            new: node.new.clone(),
                            old: node.old.clone(),
                            next: node.next.clone(),
                        };
                        other.new.insert(b);
                        work.push(other);
                        node.new.insert(a);
                        node.next.insert(f);
                    }
                    Node::Release(a, b) => {
                        // a R b ≡ b ∧ (a ∨ ○(a R b))
                        node.old.insert(f);
                        if falsified(arena, b, &node.old) {
                            break; // b is required either way
                        }
                        if node.old.contains(&a) {
                            // Released now; only b remains.
                            node.new.insert(b);
                            continue;
                        }
                        if falsified(arena, a, &node.old) {
                            // Only the continuation branch is viable.
                            node.new.insert(b);
                            node.next.insert(f);
                            continue;
                        }
                        let mut other = Pending {
                            incoming: node.incoming.clone(),
                            new: node.new.clone(),
                            old: node.old.clone(),
                            next: node.next.clone(),
                        };
                        other.new.insert(b);
                        other.next.insert(f);
                        work.push(other);
                        node.new.insert(a);
                        node.new.insert(b);
                    }
                    Node::Prev(_) | Node::Since(_, _) => unreachable!("NNF rejects past"),
                }
            }
        }

        Ok(Self {
            nodes,
            untils,
            root,
            merged_by_next,
        })
    }

    /// Number of automaton nodes (the headline statistic for E8).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the automaton has no nodes (trivially empty language).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of initial nodes.
    pub fn initial(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.incoming.iter().any(|e| e.from == INIT))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Converts to the shared fair-graph representation plus edge labels
    /// for witness extraction.
    pub fn to_fair_graph(&self, arena: &Arena) -> (FairGraph, EdgeLabels) {
        let n = self.nodes.len();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut labels = EdgeLabels::default();
        for (id, node) in self.nodes.iter().enumerate() {
            for e in &node.incoming {
                if e.from == INIT {
                    labels
                        .init
                        .entry(id as u32)
                        .or_insert_with(|| e.label.clone());
                } else {
                    succ[e.from as usize].push(id as u32);
                    labels
                        .edge
                        .entry((e.from, id as u32))
                        .or_insert_with(|| e.label.clone());
                }
            }
        }
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
        }
        let num_sets = self.untils.len();
        let words = num_sets.div_ceil(64).max(1);
        let mut accept = vec![vec![0u64; words]; n];
        for (set, &(a, b)) in self.untils.iter().enumerate() {
            let u = lookup_until(arena, a, b);
            for (id, node) in self.nodes.iter().enumerate() {
                let in_f = match u {
                    Some(u) => !node.old.contains(&u) || node.old.contains(&b),
                    // The until node was folded away entirely: vacuously
                    // accepting everywhere.
                    None => true,
                };
                if in_f {
                    accept[id][set / 64] |= 1 << (set % 64);
                }
            }
        }
        (
            FairGraph {
                succ,
                initial: self.initial(),
                num_sets,
                accept,
            },
            labels,
        )
    }
}

/// Per-edge witness labels produced by [`Buchi::to_fair_graph`].
#[derive(Default)]
pub struct EdgeLabels {
    /// Label to use at an initial node's first position.
    pub init: HashMap<u32, PropState>,
    /// Label to use at the target node's position when arriving along
    /// `(from, to)`.
    pub edge: HashMap<(u32, u32), PropState>,
}

impl EdgeLabels {
    /// The label for position `i` of a run `path[0], path[1], …`
    /// starting at an initial node.
    pub fn at(&self, path: &[u32], i: usize) -> PropState {
        if i == 0 {
            self.init[&path[0]].clone()
        } else {
            self.edge[&(path[i - 1], path[i])].clone()
        }
    }
}

/// A formula is *falsified* by `old` when it is a literal whose
/// complement is already asserted (cheap one-step refutation used to
/// prune branches).
fn falsified(arena: &mut Arena, f: FormulaId, old: &BTreeSet<FormulaId>) -> bool {
    match arena.node(f) {
        Node::Atom(_) => {
            let neg = arena.not(f);
            old.contains(&neg)
        }
        Node::Not(g) => old.contains(&g),
        Node::False => true,
        _ => false,
    }
}

fn positive_label(arena: &Arena, old: &BTreeSet<FormulaId>) -> PropState {
    PropState::from_true_atoms(old.iter().filter_map(|&f| match arena.node(f) {
        Node::Atom(a) => Some(a),
        _ => None,
    }))
}

fn lookup_until(arena: &Arena, a: FormulaId, b: FormulaId) -> Option<FormulaId> {
    // The arena does not expose its intern map immutably, so scan the
    // dense id space. Cheap in practice because untils lists are short.
    for i in 0..arena.dag_len() {
        let id = FormulaId(i as u32);
        if arena.node(id) == Node::Until(a, b) {
            return Some(id);
        }
    }
    None
}

fn collect_untils(arena: &Arena, root: FormulaId) -> Vec<(FormulaId, FormulaId)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(f) = stack.pop() {
        if !seen.insert(f) {
            continue;
        }
        match arena.node(f) {
            Node::True | Node::False | Node::Atom(_) => {}
            Node::Not(g) | Node::Next(g) | Node::Prev(g) => stack.push(g),
            Node::Until(a, b) => {
                out.push((a, b));
                stack.push(a);
                stack.push(b);
            }
            Node::And(a, b) | Node::Or(a, b) | Node::Release(a, b) | Node::Since(a, b) => {
                stack.push(a);
                stack.push(b);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emptiness::find_fair_lasso;

    fn sat(arena: &mut Arena, f: FormulaId) -> bool {
        let b = Buchi::build(arena, f).unwrap();
        let (g, _) = b.to_fair_graph(arena);
        find_fair_lasso(&g).is_some()
    }

    #[test]
    fn tautology_and_contradiction() {
        let mut ar = Arena::new();
        let t = ar.tru();
        let f = ar.fls();
        assert!(sat(&mut ar, t));
        assert!(!sat(&mut ar, f));
    }

    #[test]
    fn atom_is_satisfiable() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        assert!(sat(&mut ar, p));
        let np = ar.not(p);
        let both = ar.and(p, np);
        assert!(!sat(&mut ar, both));
    }

    #[test]
    fn eventually_vs_always_conflict() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let np = ar.not(p);
        let gp = ar.always(p);
        let fnp = ar.eventually(np);
        let conj = ar.and(gp, fnp);
        assert!(!sat(&mut ar, conj), "□p ∧ ◇¬p is unsatisfiable");
        assert!(sat(&mut ar, gp));
        assert!(sat(&mut ar, fnp));
    }

    #[test]
    fn until_needs_fulfilment() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let nq = ar.not(q);
        let u = ar.until(p, q);
        let gnq = ar.always(nq);
        let conj = ar.and(u, gnq);
        assert!(!sat(&mut ar, conj), "(p U q) ∧ □¬q is unsatisfiable");
        assert!(sat(&mut ar, u));
    }

    #[test]
    fn nested_until_release() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        // □(p ⇒ ◇q) ∧ ◇p is satisfiable.
        let fq = ar.eventually(q);
        let imp = ar.implies(p, fq);
        let g = ar.always(imp);
        let fp = ar.eventually(p);
        let conj = ar.and(g, fp);
        assert!(sat(&mut ar, conj));
        // □(p ⇒ ◇q) ∧ □p ∧ □¬q is not.
        let nq = ar.not(q);
        let gp = ar.always(p);
        let gnq = ar.always(nq);
        let c2 = ar.and_all([g, gp, gnq]);
        assert!(!sat(&mut ar, c2));
    }

    #[test]
    fn next_chains() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let np = ar.not(p);
        // ○○p ∧ ○○¬p unsat.
        let a = ar.next(p);
        let a = ar.next(a);
        let b = ar.next(np);
        let b = ar.next(b);
        let conj = ar.and(a, b);
        assert!(!sat(&mut ar, conj));
        // ○p ∧ ○○¬p sat.
        let c = ar.next(p);
        let conj2 = ar.and(c, b);
        assert!(sat(&mut ar, conj2));
    }

    #[test]
    fn infinitely_often_and_eventually_always_interact() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let np = ar.not(p);
        // □◇p ∧ ◇□¬p unsat.
        let fp = ar.eventually(p);
        let gfp = ar.always(fp);
        let gnp = ar.always(np);
        let fgnp = ar.eventually(gnp);
        let conj = ar.and(gfp, fgnp);
        assert!(!sat(&mut ar, conj));
        // □◇p ∧ □◇¬p sat (alternation).
        let fnp = ar.eventually(np);
        let gfnp = ar.always(fnp);
        let conj2 = ar.and(gfp, gfnp);
        assert!(sat(&mut ar, conj2));
    }

    #[test]
    fn labels_respect_literals() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let pa = ar.find_atom("p").unwrap();
        let g = ar.always(p);
        let b = Buchi::build(&mut ar, g).unwrap();
        assert!(b.merged_by_next, "□p is until-free");
        let (fg, labels) = b.to_fair_graph(&ar);
        let l = find_fair_lasso(&fg).unwrap();
        let mut path = l.stem.clone();
        path.extend(&l.cycle);
        for i in 0..path.len() {
            assert!(labels.at(&path, i).get(pa), "□p run must label p true");
        }
    }

    #[test]
    fn merged_mode_keeps_edge_labels_sound() {
        // R = (○(p ∧ □a)) ∨ ○□a — the shape where node-level labels
        // would be wrong under merging. The verdict must be sat and the
        // witness (checked in sat.rs / property tests) must satisfy R.
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let a = ar.atom("a");
        let ga = ar.always(a);
        let pga = ar.and(p, ga);
        let l = ar.next(pga);
        let r = ar.next(ga);
        let f = ar.or(l, r);
        let b = Buchi::build(&mut ar, f).unwrap();
        assert!(b.merged_by_next);
        let (fg, _) = b.to_fair_graph(&ar);
        assert!(find_fair_lasso(&fg).is_some());
    }

    #[test]
    fn until_free_merging_collapses_safety_conjunctions() {
        // ⋀_i □(p_i → ○□¬p_i): without merging the node count is
        // exponential in i; with merging it must stay manageable.
        let mut ar = Arena::new();
        let mut f = ar.tru();
        for i in 0..6 {
            let p = ar.atom(&format!("p{i}"));
            let np = ar.not(p);
            let gnp = ar.always(np);
            let xgnp = ar.next(gnp);
            let imp = ar.implies(p, xgnp);
            let g = ar.always(imp);
            f = ar.and(f, g);
        }
        let b = Buchi::build(&mut ar, f).unwrap();
        assert!(b.merged_by_next);
        assert!(
            b.len() <= 2 * 64 + 2,
            "next-merging should avoid the 2^6 old-set blowup, got {}",
            b.len()
        );
        let (g, _) = b.to_fair_graph(&ar);
        assert!(find_fair_lasso(&g).is_some());
    }
}

impl Buchi {
    /// Renders the automaton in Graphviz DOT format (for debugging and
    /// documentation). Nodes show their required literals; doubled
    /// circles mark members of every acceptance set; `initial` nodes get
    /// an arrow from a point pseudo-node.
    pub fn to_dot(&self, arena: &Arena) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph buchi {\n  rankdir=LR;\n  init [shape=point];\n");
        let num_sets = self.untils.len();
        let in_all_sets = |node: &BuchiNode| {
            self.untils
                .iter()
                .all(|&(a, b)| match lookup_until(arena, a, b) {
                    Some(u) => !node.old.contains(&u) || node.old.contains(&b),
                    None => true,
                })
        };
        for (id, node) in self.nodes.iter().enumerate() {
            let lits: Vec<String> = node
                .old
                .iter()
                .filter_map(|&f| match arena.node(f) {
                    Node::Atom(a) => Some(arena.atom_name(a).to_owned()),
                    Node::Not(g) => match arena.node(g) {
                        Node::Atom(a) => Some(format!("!{}", arena.atom_name(a))),
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            let shape = if num_sets == 0 || in_all_sets(node) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(
                out,
                "  n{id} [shape={shape}, label=\"{}\"];",
                lits.join(", ").replace('"', "'")
            );
        }
        for (id, node) in self.nodes.iter().enumerate() {
            let mut printed = std::collections::HashSet::new();
            for e in &node.incoming {
                if e.from == INIT {
                    if printed.insert(u32::MAX) {
                        let _ = writeln!(out, "  init -> n{id};");
                    }
                } else if printed.insert(e.from) {
                    let _ = writeln!(out, "  n{} -> n{id};", e.from);
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_output_is_well_formed() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let u = ar.until(p, q);
        let b = Buchi::build(&mut ar, u).unwrap();
        let dot = b.to_dot(&ar);
        assert!(dot.starts_with("digraph buchi {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("init ->"));
        assert!(dot.contains("doublecircle"), "q-discharged nodes accept");
        // Every node declared before any edge mentions it.
        for id in 0..b.len() {
            assert!(dot.contains(&format!("n{id} [shape=")));
        }
    }

    #[test]
    fn dot_labels_show_literals() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let np = ar.not(p);
        let g = ar.always(np);
        let b = Buchi::build(&mut ar, g).unwrap();
        let dot = b.to_dot(&ar);
        assert!(dot.contains("!p"), "{dot}");
    }
}

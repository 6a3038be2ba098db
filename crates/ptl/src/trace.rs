//! Propositional states and finite-trace evaluation.
//!
//! A *propositional state* is a mapping from the propositional letters to
//! `{true, false}` (Section 2 of the paper); a finite trace is a sequence
//! of such states, the propositional image `w_D` of a finite-time
//! temporal database. Evaluation over finite traces supports the past
//! connectives (used for `□ψ`-with-`ψ`-past monitoring, Proposition 2.1)
//! and a *strong* finite semantics for the future connectives (a witness
//! must exist inside the trace), used as a testing oracle.

use crate::arena::{Arena, AtomId, FormulaId, Node};
use std::collections::HashMap;

/// A truth assignment to the propositional letters, stored as a bitset.
///
/// Letters not explicitly set are false, matching the paper's convention
/// that predicates over irrelevant elements are false.
///
/// The representation is canonical — trailing all-zero words are
/// trimmed on clear — so two states are `==` (and hash alike) exactly
/// when they assign the same truth values, regardless of whether they
/// were built fresh or patched in place from a wider predecessor.
#[derive(PartialEq, Eq, Hash, Default, Debug)]
pub struct PropState {
    bits: Vec<u64>,
}

impl Clone for PropState {
    fn clone(&self) -> Self {
        Self {
            bits: self.bits.clone(),
        }
    }

    /// Copies `source` into this state's buffer, allocating only when
    /// the buffer is too small.
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
    }
}

impl PropState {
    /// An all-false state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a state from the atoms that should be true.
    pub fn from_true_atoms<I: IntoIterator<Item = AtomId>>(atoms: I) -> Self {
        let mut s = Self::new();
        for a in atoms {
            s.set(a, true);
        }
        s
    }

    /// Sets the truth value of a letter.
    pub fn set(&mut self, a: AtomId, v: bool) {
        let (w, b) = (a.index() / 64, a.index() % 64);
        if w >= self.bits.len() {
            if !v {
                return;
            }
            self.bits.resize(w + 1, 0);
        }
        if v {
            self.bits[w] |= 1 << b;
        } else {
            self.bits[w] &= !(1 << b);
            while self.bits.last() == Some(&0) {
                self.bits.pop();
            }
        }
    }

    /// Gets the truth value of a letter (false if never set).
    #[inline]
    pub fn get(&self, a: AtomId) -> bool {
        let (w, b) = (a.index() / 64, a.index() % 64);
        self.bits.get(w).is_some_and(|&x| x >> b & 1 == 1)
    }

    /// The raw bitset words, 64 letters per word, lowest ids first.
    /// Canonical: never ends in an all-zero word.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a state from raw bitset words (the [`Self::words`]
    /// layout). Trailing all-zero words are trimmed so the result is
    /// canonical regardless of the input.
    pub fn from_words(mut bits: Vec<u64>) -> Self {
        while bits.last() == Some(&0) {
            bits.pop();
        }
        Self { bits }
    }

    /// Iterates over the letters that are true, in increasing id order.
    pub fn true_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| AtomId((w * 64 + b) as u32))
        })
    }

    /// Number of true letters.
    pub fn count_true(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Renders the state as the set of true letter names.
    pub fn display<'a>(&'a self, arena: &'a Arena) -> String {
        let names: Vec<&str> = self.true_atoms().map(|a| arena.atom_name(a)).collect();
        format!("{{{}}}", names.join(", "))
    }
}

/// Evaluates `f` at position `t` of the finite trace `w` (`t < w.len()`).
///
/// * Past connectives use the paper's semantics verbatim (they only look
///   at positions `0..=t`, which the trace contains).
/// * Future connectives use the strong finite semantics: `○A` is false at
///   the last position; `A until B` needs a `B`-witness within the trace;
///   `A release B` holds if `B` holds up to the first `A∧B` position or
///   through the end of the trace (weak, as the dual of until).
///
/// # Panics
/// Panics if `t >= w.len()` or `w` is empty.
pub fn eval_finite(arena: &Arena, f: FormulaId, w: &[PropState], t: usize) -> bool {
    assert!(t < w.len(), "position out of range");
    let mut memo: HashMap<(FormulaId, usize), bool> = HashMap::new();
    eval_at(arena, f, w, t, &mut memo)
}

fn eval_at(
    arena: &Arena,
    f: FormulaId,
    w: &[PropState],
    t: usize,
    memo: &mut HashMap<(FormulaId, usize), bool>,
) -> bool {
    if let Some(&v) = memo.get(&(f, t)) {
        return v;
    }
    let v = match arena.node(f) {
        Node::True => true,
        Node::False => false,
        Node::Atom(a) => w[t].get(a),
        Node::Not(g) => !eval_at(arena, g, w, t, memo),
        Node::And(a, b) => eval_at(arena, a, w, t, memo) && eval_at(arena, b, w, t, memo),
        Node::Or(a, b) => eval_at(arena, a, w, t, memo) || eval_at(arena, b, w, t, memo),
        Node::Next(g) => t + 1 < w.len() && eval_at(arena, g, w, t + 1, memo),
        Node::Until(a, b) => {
            let mut ok = false;
            for s in t..w.len() {
                if eval_at(arena, b, w, s, memo) {
                    ok = true;
                    break;
                }
                if !eval_at(arena, a, w, s, memo) {
                    break;
                }
            }
            ok
        }
        Node::Release(a, b) => {
            // Dual of until on the finite trace: ¬(¬a U ¬b).
            let mut ok = true;
            for s in t..w.len() {
                if !eval_at(arena, b, w, s, memo) {
                    ok = false;
                    break;
                }
                if eval_at(arena, a, w, s, memo) {
                    break;
                }
            }
            ok
        }
        Node::Prev(g) => t > 0 && eval_at(arena, g, w, t - 1, memo),
        Node::Since(a, b) => {
            let mut ok = false;
            for s in (0..=t).rev() {
                if eval_at(arena, b, w, s, memo) {
                    ok = true;
                    break;
                }
                if !eval_at(arena, a, w, s, memo) {
                    break;
                }
            }
            ok
        }
    };
    memo.insert((f, t), v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(arena: &mut Arena, spec: &[&[&str]]) -> Vec<PropState> {
        spec.iter()
            .map(|names| {
                let atoms: Vec<AtomId> = names.iter().map(|n| arena.intern_atom(n)).collect();
                PropState::from_true_atoms(atoms)
            })
            .collect()
    }

    #[test]
    fn bitset_roundtrip() {
        let mut s = PropState::new();
        s.set(AtomId(3), true);
        s.set(AtomId(100), true);
        assert!(s.get(AtomId(3)));
        assert!(s.get(AtomId(100)));
        assert!(!s.get(AtomId(4)));
        assert_eq!(s.count_true(), 2);
        s.set(AtomId(3), false);
        assert!(!s.get(AtomId(3)));
        let trues: Vec<_> = s.true_atoms().collect();
        assert_eq!(trues, vec![AtomId(100)]);
    }

    #[test]
    fn clearing_canonicalises_representation() {
        // A state patched down from a wider predecessor must compare
        // equal to one built fresh — the monitor's incremental encoding
        // relies on this.
        let mut wide = PropState::new();
        wide.set(AtomId(2), true);
        wide.set(AtomId(200), true);
        wide.set(AtomId(200), false);
        let mut fresh = PropState::new();
        fresh.set(AtomId(2), true);
        assert_eq!(wide, fresh);
        let empty = PropState::new();
        let mut cleared = PropState::new();
        cleared.set(AtomId(500), true);
        cleared.set(AtomId(500), false);
        assert_eq!(cleared, empty);
    }

    #[test]
    fn unset_beyond_capacity_is_noop() {
        let mut s = PropState::new();
        s.set(AtomId(500), false);
        assert!(!s.get(AtomId(500)));
        assert_eq!(s.count_true(), 0);
    }

    #[test]
    fn until_on_finite_trace() {
        let mut ar = Arena::new();
        let w = trace(&mut ar, &[&["p"], &["p"], &["q"]]);
        let p = ar.atom("p");
        let q = ar.atom("q");
        let u = ar.until(p, q);
        assert!(eval_finite(&ar, u, &w, 0));
        assert!(eval_finite(&ar, u, &w, 2));
        // No q-witness if the trace stops early.
        assert!(!eval_finite(&ar, u, &w[..2], 0));
    }

    #[test]
    fn next_is_strong_at_trace_end() {
        let mut ar = Arena::new();
        let w = trace(&mut ar, &[&["p"], &["p"]]);
        let p = ar.atom("p");
        let x = ar.next(p);
        assert!(eval_finite(&ar, x, &w, 0));
        assert!(!eval_finite(&ar, x, &w, 1));
    }

    #[test]
    fn release_is_weak() {
        let mut ar = Arena::new();
        let w = trace(&mut ar, &[&["q"], &["q"], &["q"]]);
        let p = ar.atom("p");
        let q = ar.atom("q");
        let r = ar.release(p, q); // p never happens, q holds throughout
        assert!(eval_finite(&ar, r, &w, 0));
        let g = ar.always(q);
        assert!(eval_finite(&ar, g, &w, 0));
    }

    #[test]
    fn past_connectives_match_paper_semantics() {
        let mut ar = Arena::new();
        let w = trace(&mut ar, &[&["b"], &["a"], &["a"]]);
        let a = ar.atom("a");
        let b = ar.atom("b");
        // a since b: some s ≤ t with b at s and a on (s, t].
        let s = ar.since(a, b);
        assert!(eval_finite(&ar, s, &w, 0)); // s = t = 0
        assert!(eval_finite(&ar, s, &w, 2));
        // prev: strong at instant 0.
        let y = ar.prev(b);
        assert!(!eval_finite(&ar, y, &w, 0));
        assert!(eval_finite(&ar, y, &w, 1));
        // once / historically.
        let ob = ar.once(b);
        assert!(eval_finite(&ar, ob, &w, 2));
        let t = ar.tru();
        let pt = ar.prev(t);
        assert!(!eval_finite(&ar, pt, &w, 0), "●⊤ is false at instant 0");
        assert!(eval_finite(&ar, pt, &w, 1));
    }

    #[test]
    fn since_broken_chain() {
        let mut ar = Arena::new();
        let w = trace(&mut ar, &[&["b"], &[], &["a"]]);
        let a = ar.atom("a");
        let b = ar.atom("b");
        let s = ar.since(a, b);
        // At t=2: b last held at 0, but a fails at 1 ∈ (0, 2].
        assert!(!eval_finite(&ar, s, &w, 2));
    }
}

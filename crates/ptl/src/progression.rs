//! Prefix rewriting (formula progression) — phase 1 of Lemma 4.2.
//!
//! Given a future formula `ψ` and a propositional state `w`, `progress`
//! computes the formula `ψ'` such that for every infinite sequence `σ`:
//!
//! > `w · σ ⊨ ψ`  iff  `σ ⊨ ψ'`.
//!
//! This is exactly the rewriting described in the proof of Lemma 4.2 of
//! the paper (after Sistla & Wolfson): the state subscript is pushed
//! through the connectives, `a until b` is unfolded to
//! `[b]₀ ∨ ([a]₀ ∧ (a until b))₁`, atoms with subscript 0 are replaced by
//! their truth value in `w`, and the result is simplified. With the
//! hash-consed arena the simplification happens in the constructors, and
//! per-step memoisation makes each step linear in the formula DAG.
//!
//! An *internal* letter ([`Arena::mark_internal`]) is not read from the
//! state: it stands for `●D`, the formula carries its definition
//! `¬ℓ ∧ □(○ℓ ↔ D)`, and progressing the definition leaves the literal
//! `ℓ` or `¬ℓ` at the top level of every residue. [`pins`] reads those
//! literals, and [`progress`] steps with the values they pin.

use crate::arena::{Arena, AtomId, FormulaId, Node};
use crate::nnf::NnfError;
use crate::trace::PropState;
use std::collections::HashMap;

/// Progresses `f` through one propositional state.
///
/// Returns the obligation that the remaining (infinite) suffix must
/// satisfy. Returns an error for past connectives. An internal letter
/// takes the value `f` [`pins`], whatever `state` says of it.
pub fn progress(arena: &mut Arena, f: FormulaId, state: &PropState) -> Result<FormulaId, NnfError> {
    let mut memo = HashMap::new();
    if !arena.has_internal() {
        return go(arena, f, state, &mut memo);
    }
    let mut pinned = state.clone();
    pins(arena, f, |a, v| pinned.set(a, v));
    go(arena, f, &pinned, &mut memo)
}

/// Calls `pin` with each internal letter `f` pins and its value: a
/// literal `ℓ` (true) or `¬ℓ` (false) among `f`'s top-level
/// conjuncts, or among those of a top-level `□`'s operand, which holds
/// now as well (simplification may absorb the literal into a box).
/// Walks only the conjunctive spine, not the whole formula.
pub fn pins(arena: &Arena, f: FormulaId, mut pin: impl FnMut(AtomId, bool)) {
    let mut stack = vec![f];
    while let Some(g) = stack.pop() {
        match arena.node(g) {
            Node::And(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Node::Release(a, b) if arena.node(a) == Node::False => stack.push(b),
            Node::Atom(a) if arena.is_internal(a) => pin(a, true),
            Node::Not(x) => match arena.node(x) {
                Node::Atom(a) if arena.is_internal(a) => pin(a, false),
                _ => {}
            },
            _ => {}
        }
    }
}

/// Progresses `f` through every state of a finite trace, left to right.
///
/// Stops early (returning the constant) once the obligation collapses to
/// `⊤` or `⊥`: the former means every extension of the consumed prefix
/// satisfies the original formula, the latter that none does — i.e. a
/// *bad prefix* has been found.
pub fn progress_trace(
    arena: &mut Arena,
    f: FormulaId,
    trace: &[PropState],
) -> Result<FormulaId, NnfError> {
    let mut cur = f;
    let (t, fls) = (arena.tru(), arena.fls());
    for w in trace {
        if cur == t || cur == fls {
            break;
        }
        cur = progress(arena, cur, w)?;
    }
    Ok(cur)
}

fn go(
    arena: &mut Arena,
    f: FormulaId,
    state: &PropState,
    memo: &mut HashMap<FormulaId, FormulaId>,
) -> Result<FormulaId, NnfError> {
    if let Some(&r) = memo.get(&f) {
        return Ok(r);
    }
    let r = match arena.node(f) {
        Node::True => arena.tru(),
        Node::False => arena.fls(),
        Node::Atom(a) => {
            if state.get(a) {
                arena.tru()
            } else {
                arena.fls()
            }
        }
        Node::Not(g) => {
            let x = go(arena, g, state, memo)?;
            arena.not(x)
        }
        Node::And(a, b) => {
            let x = go(arena, a, state, memo)?;
            let y = go(arena, b, state, memo)?;
            arena.and(x, y)
        }
        Node::Or(a, b) => {
            let x = go(arena, a, state, memo)?;
            let y = go(arena, b, state, memo)?;
            arena.or(x, y)
        }
        Node::Next(g) => g,
        Node::Until(a, b) => {
            // a U b  ≡  b ∨ (a ∧ ○(a U b))
            let pb = go(arena, b, state, memo)?;
            let pa = go(arena, a, state, memo)?;
            let cont = arena.and(pa, f);
            arena.or(pb, cont)
        }
        Node::Release(a, b) => {
            // a R b  ≡  b ∧ (a ∨ ○(a R b))
            let pb = go(arena, b, state, memo)?;
            let pa = go(arena, a, state, memo)?;
            let cont = arena.or(pa, f);
            arena.and(pb, cont)
        }
        Node::Prev(_) | Node::Since(_, _) => return Err(NnfError::PastOperator),
    };
    memo.insert(f, r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::AtomId;

    fn st(atoms: &[AtomId]) -> PropState {
        PropState::from_true_atoms(atoms.iter().copied())
    }

    #[test]
    fn atom_progression_substitutes_truth_value() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let pa = ar.find_atom("p").unwrap();
        let t = ar.tru();
        let f = ar.fls();
        assert_eq!(progress(&mut ar, p, &st(&[pa])).unwrap(), t);
        assert_eq!(progress(&mut ar, p, &st(&[])).unwrap(), f);
    }

    #[test]
    fn next_unwraps() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let x = ar.next(p);
        assert_eq!(progress(&mut ar, x, &st(&[])).unwrap(), p);
    }

    #[test]
    fn until_unfolds_per_paper() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let (pa, qa) = (ar.find_atom("p").unwrap(), ar.find_atom("q").unwrap());
        let u = ar.until(p, q);
        // q true: until discharged.
        assert_eq!(progress(&mut ar, u, &st(&[qa])).unwrap(), ar.tru());
        // p true, q false: obligation persists unchanged.
        assert_eq!(progress(&mut ar, u, &st(&[pa])).unwrap(), u);
        // both false: bad prefix.
        assert_eq!(progress(&mut ar, u, &st(&[])).unwrap(), ar.fls());
    }

    #[test]
    fn always_persists_or_fails() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let pa = ar.find_atom("p").unwrap();
        let g = ar.always(p);
        assert_eq!(progress(&mut ar, g, &st(&[pa])).unwrap(), g);
        assert_eq!(progress(&mut ar, g, &st(&[])).unwrap(), ar.fls());
    }

    #[test]
    fn negation_commutes_with_progression() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let pa = ar.find_atom("p").unwrap();
        let u = ar.until(p, q);
        let nu = ar.not(u);
        let s = st(&[pa]);
        let a = progress(&mut ar, nu, &s).unwrap();
        let pu = progress(&mut ar, u, &s).unwrap();
        let b = ar.not(pu);
        assert_eq!(a, b);
    }

    #[test]
    fn progress_trace_early_exit_on_violation() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let pa = ar.find_atom("p").unwrap();
        let g = ar.always(p);
        let trace = vec![st(&[pa]), st(&[]), st(&[pa])];
        let r = progress_trace(&mut ar, g, &trace).unwrap();
        assert_eq!(r, ar.fls());
    }

    #[test]
    fn eventually_discharges_once_seen() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let pa = ar.find_atom("p").unwrap();
        let ev = ar.eventually(p);
        let trace = vec![st(&[]), st(&[]), st(&[pa])];
        let r = progress_trace(&mut ar, ev, &trace).unwrap();
        assert_eq!(r, ar.tru());
        // Without the witness the obligation persists.
        let r2 = progress_trace(&mut ar, ev, &trace[..2]).unwrap();
        assert_eq!(r2, ev);
    }

    #[test]
    fn release_unfolds() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let (pa, qa) = (ar.find_atom("p").unwrap(), ar.find_atom("q").unwrap());
        let r = ar.release(p, q);
        // q ∧ p: released now.
        assert_eq!(progress(&mut ar, r, &st(&[pa, qa])).unwrap(), ar.tru());
        // q only: obligation persists.
        assert_eq!(progress(&mut ar, r, &st(&[qa])).unwrap(), r);
        // ¬q: violated.
        assert_eq!(progress(&mut ar, r, &st(&[pa])).unwrap(), ar.fls());
    }

    /// `□(q → ℓ) ∧ ¬ℓ ∧ □(○ℓ ↔ p)`: `ℓ` is an internal letter standing
    /// for `●p`.
    fn prev_p_guarded_by_q(ar: &mut Arena) -> (FormulaId, AtomId, AtomId) {
        let p = ar.atom("p");
        let q = ar.atom("q");
        let l = ar.atom("l");
        let la = ar.find_atom("l").unwrap();
        ar.mark_internal(la);
        let use_l = ar.implies(q, l);
        let use_l = ar.always(use_l);
        let nl = ar.not(l);
        let xl = ar.next(l);
        let def = ar.iff(xl, p);
        let def = ar.always(def);
        let f = ar.and_all([use_l, nl, def]);
        (f, ar.find_atom("p").unwrap(), ar.find_atom("q").unwrap())
    }

    #[test]
    fn internal_letters_take_the_value_the_residue_pins() {
        let mut ar = Arena::new();
        let (f, pa, qa) = prev_p_guarded_by_q(&mut ar);
        let la = ar.find_atom("l").unwrap();
        let mut pinned = Vec::new();
        pins(&ar, f, |a, v| pinned.push((a, v)));
        assert_eq!(pinned, vec![(la, false)]);
        // The state's `l` is ignored: `l` is false at instant 0, so `q`
        // there is a bad prefix.
        let bad = progress(&mut ar, f, &st(&[qa, la])).unwrap();
        assert_eq!(crate::simplify::simplify(&mut ar, bad), ar.fls());
        // After `p`, the residue pins `l`, and `q` is fine next.
        let after_p = progress(&mut ar, f, &st(&[pa])).unwrap();
        let after_p = crate::simplify::simplify(&mut ar, after_p);
        let mut pinned = Vec::new();
        pins(&ar, after_p, |a, v| pinned.push((a, v)));
        assert_eq!(pinned, vec![(la, true)]);
        let ok = progress(&mut ar, after_p, &st(&[qa])).unwrap();
        assert_ne!(crate::simplify::simplify(&mut ar, ok), ar.fls());
    }

    #[test]
    fn rejects_past() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let o = ar.once(p);
        assert!(progress(&mut ar, o, &st(&[])).is_err());
    }
}

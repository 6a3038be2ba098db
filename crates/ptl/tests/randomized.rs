//! Deterministic randomized tests for the PTL engines.
//!
//! The live, always-on counterpart of the gated `properties.rs` suite:
//! the same semantic oracles, driven by the in-repo xoshiro PRNG
//! (`ticc_tdb::rng`) with fixed seeds instead of `proptest`, so they
//! run offline on every `cargo test`.
//!
//! * satisfiability witnesses actually satisfy the formula (lasso
//!   evaluation is an independent implementation of the semantics),
//! * the Büchi and tableau engines agree,
//! * progression is sound w.r.t. the semantics (`w·σ ⊨ f` iff
//!   `σ ⊨ progress(f, w)`),
//! * the Lemma 4.2 `extends` pipeline agrees with a naive encoding of
//!   the prefix as a `○`-chain formula,
//! * NNF and `simplify` preserve semantics; parse∘display is the
//!   identity.

use ticc_ptl::arena::{Arena, AtomId, FormulaId};
use ticc_ptl::lasso::Lasso;
use ticc_ptl::nnf::nnf;
use ticc_ptl::parser::parse;
use ticc_ptl::progression::progress;
use ticc_ptl::sat::{extends, is_satisfiable, is_satisfiable_with, SatSolver};
use ticc_ptl::trace::PropState;
use ticc_tdb::rng::Rng;

const ATOMS: &[&str] = &["p", "q", "r"];

/// Builds a random future formula directly in the arena.
fn gen_formula(rng: &mut Rng, ar: &mut Arena, depth: u32) -> FormulaId {
    if depth == 0 || rng.gen_bool(0.3) {
        return ar.atom(ATOMS[rng.gen_range_usize(0..ATOMS.len())]);
    }
    match rng.gen_range(0..8) {
        0 => {
            let a = gen_formula(rng, ar, depth - 1);
            ar.not(a)
        }
        1 => {
            let (a, b) = (
                gen_formula(rng, ar, depth - 1),
                gen_formula(rng, ar, depth - 1),
            );
            ar.and(a, b)
        }
        2 => {
            let (a, b) = (
                gen_formula(rng, ar, depth - 1),
                gen_formula(rng, ar, depth - 1),
            );
            ar.or(a, b)
        }
        3 => {
            let a = gen_formula(rng, ar, depth - 1);
            ar.next(a)
        }
        4 => {
            let (a, b) = (
                gen_formula(rng, ar, depth - 1),
                gen_formula(rng, ar, depth - 1),
            );
            ar.until(a, b)
        }
        5 => {
            let (a, b) = (
                gen_formula(rng, ar, depth - 1),
                gen_formula(rng, ar, depth - 1),
            );
            ar.release(a, b)
        }
        6 => {
            let a = gen_formula(rng, ar, depth - 1);
            ar.eventually(a)
        }
        _ => {
            let a = gen_formula(rng, ar, depth - 1);
            ar.always(a)
        }
    }
}

fn register_atoms(ar: &mut Arena) -> Vec<AtomId> {
    ATOMS.iter().map(|n| ar.intern_atom(n)).collect()
}

fn state_from_bits(bits: u8, atoms: &[AtomId]) -> PropState {
    PropState::from_true_atoms(
        atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| bits >> i & 1 == 1)
            .map(|(_, &a)| a),
    )
}

fn gen_states(rng: &mut Rng, atoms: &[AtomId], len: usize) -> Vec<PropState> {
    (0..len)
        .map(|_| state_from_bits(rng.gen_range(0..8) as u8, atoms))
        .collect()
}

fn gen_lasso(rng: &mut Rng, atoms: &[AtomId]) -> Lasso {
    let plen = rng.gen_range_usize(0..3);
    let clen = rng.gen_range_usize(1..4);
    let prefix = gen_states(rng, atoms, plen);
    let cycle = gen_states(rng, atoms, clen);
    Lasso::new(prefix, cycle)
}

#[test]
fn sat_witness_satisfies_formula() {
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..200 {
        let mut ar = Arena::new();
        let f = gen_formula(&mut rng, &mut ar, 4);
        let r = is_satisfiable(&mut ar, f).unwrap();
        if let Some(w) = r.witness {
            assert!(r.satisfiable);
            assert!(w.eval(&ar, f).unwrap(), "witness fails {}", ar.display(f));
        } else {
            assert!(!r.satisfiable);
        }
    }
}

#[test]
fn unsat_means_no_lasso_model() {
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..200 {
        let mut ar = Arena::new();
        let atoms = register_atoms(&mut ar);
        let f = gen_formula(&mut rng, &mut ar, 3);
        let r = is_satisfiable(&mut ar, f).unwrap();
        if !r.satisfiable {
            let l = gen_lasso(&mut rng, &atoms);
            assert!(
                !l.eval(&ar, f).unwrap(),
                "unsat formula {} has a model",
                ar.display(f)
            );
        }
    }
}

#[test]
fn engines_agree() {
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..200 {
        let mut ar = Arena::new();
        let f = gen_formula(&mut rng, &mut ar, 3);
        let b = is_satisfiable_with(&mut ar, f, SatSolver::Buchi).unwrap();
        // (an Err means the closure exceeded the tableau cap: skip)
        if let Ok(t) = is_satisfiable_with(&mut ar, f, SatSolver::Tableau) {
            assert_eq!(
                b.satisfiable,
                t.satisfiable,
                "engines disagree on {}",
                ar.display(f)
            );
        }
    }
}

#[test]
fn progression_is_sound() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..200 {
        let mut ar = Arena::new();
        let atoms = register_atoms(&mut ar);
        let f = gen_formula(&mut rng, &mut ar, 3);
        let w0 = state_from_bits(rng.gen_range(0..8) as u8, &atoms);
        let g = progress(&mut ar, f, &w0).unwrap();
        // word = w0 · rest; f on word iff g on rest.
        let rest = gen_lasso(&mut rng, &atoms);
        let mut full_prefix = vec![w0];
        full_prefix.extend(rest.prefix.iter().cloned());
        let word = Lasso::new(full_prefix, rest.cycle.clone());
        assert_eq!(
            word.eval(&ar, f).unwrap(),
            rest.eval(&ar, g).unwrap(),
            "progression unsound for {}",
            ar.display(f)
        );
    }
}

#[test]
fn nnf_preserves_semantics() {
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..200 {
        let mut ar = Arena::new();
        let atoms = register_atoms(&mut ar);
        let f = gen_formula(&mut rng, &mut ar, 3);
        let g = nnf(&mut ar, f).unwrap();
        let l = gen_lasso(&mut rng, &atoms);
        assert_eq!(l.eval(&ar, f).unwrap(), l.eval(&ar, g).unwrap());
    }
}

#[test]
fn extends_agrees_with_naive_prefix_encoding() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..150 {
        let mut ar = Arena::new();
        let atoms = register_atoms(&mut ar);
        let f = gen_formula(&mut rng, &mut ar, 3);
        let plen = rng.gen_range_usize(0..4);
        let prefix = gen_states(&mut rng, &atoms, plen);
        let fast = extends(&mut ar, &prefix, f).unwrap().satisfiable;
        // Naive: f ∧ ⋀_i ○^i (literal description of state i).
        let mut conj = f;
        for (i, st) in prefix.iter().enumerate() {
            let mut desc = ar.tru();
            for &a in &atoms {
                let at = ar.atom_id(a);
                let lit = if st.get(a) { at } else { ar.not(at) };
                desc = ar.and(desc, lit);
            }
            let mut wrapped = desc;
            for _ in 0..i {
                wrapped = ar.next(wrapped);
            }
            conj = ar.and(conj, wrapped);
        }
        let naive = is_satisfiable(&mut ar, conj).unwrap().satisfiable;
        assert_eq!(
            fast,
            naive,
            "Lemma 4.2 pipeline disagrees with naive encoding on {}",
            ar.display(f)
        );
    }
}

#[test]
fn parse_display_roundtrip() {
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..200 {
        let mut ar = Arena::new();
        let f = gen_formula(&mut rng, &mut ar, 4);
        let printed = format!("{}", ar.display(f));
        let g = parse(&mut ar, &printed).unwrap();
        assert_eq!(f, g, "roundtrip failed: {printed}");
    }
}

#[test]
fn finite_eval_agrees_with_lasso_on_safety_violations() {
    let mut rng = Rng::seed_from_u64(8);
    for _ in 0..200 {
        // If progression reaches ⊥ on a finite trace, no lasso extending
        // that trace may satisfy the formula.
        let mut ar = Arena::new();
        let atoms = register_atoms(&mut ar);
        let f = gen_formula(&mut rng, &mut ar, 3);
        let tlen = rng.gen_range_usize(1..5);
        let trace = gen_states(&mut rng, &atoms, tlen);
        if let Some(k) = ticc_ptl::safety::find_bad_prefix(&mut ar, f, &trace).unwrap() {
            let l = Lasso::new(trace[..=k].to_vec(), vec![PropState::new()]);
            assert!(!l.eval(&ar, f).unwrap());
        }
    }
}

#[test]
fn simplify_preserves_semantics_and_size() {
    let mut rng = Rng::seed_from_u64(9);
    for i in 0..400 {
        let mut ar = Arena::new();
        let atoms = register_atoms(&mut ar);
        let mut f = gen_formula(&mut rng, &mut ar, 4);
        if i % 2 == 1 {
            // A duplicate operand nested in two different junction
            // trees, `(d ∧ x) ∧ (y ∧ d)` or its `∨` dual, optionally
            // under a temporal operator — the shape progression
            // residues take.
            let d = gen_formula(&mut rng, &mut ar, 2);
            let x = gen_formula(&mut rng, &mut ar, 2);
            let y = gen_formula(&mut rng, &mut ar, 2);
            let (l, r) = if rng.gen_bool(0.5) {
                let l = ar.and(d, x);
                let r = ar.and(y, d);
                (l, r)
            } else {
                let l = ar.or(d, x);
                let r = ar.or(y, d);
                (l, r)
            };
            let j = if rng.gen_bool(0.5) {
                ar.and(l, r)
            } else {
                ar.or(l, r)
            };
            f = match rng.gen_range(0..3) {
                0 => j,
                1 => ar.always(j),
                _ => ar.and(f, j),
            };
        }
        let g = ticc_ptl::simplify::simplify(&mut ar, f);
        assert!(
            ar.tree_size(g) <= ar.tree_size(f),
            "simplify must not grow the formula"
        );
        assert_eq!(
            ticc_ptl::simplify::simplify(&mut ar, g),
            g,
            "simplify is not idempotent on {}",
            ar.display(f)
        );
        let l = gen_lasso(&mut rng, &atoms);
        assert_eq!(
            l.eval(&ar, f).unwrap(),
            l.eval(&ar, g).unwrap(),
            "simplify changed semantics of {}",
            ar.display(f)
        );
    }
}

//! Violation diagnostics.
//!
//! Potential satisfaction is prefix-antitone for safety constraints:
//! once no extension exists, no longer history can repair it. The
//! earliest-violation search grounds once over the full history (sound
//! by Lemma 4.1: extra relevant elements behave like fresh ones for the
//! shorter prefixes) and then progresses state by state, running the
//! phase-2 satisfiability test on each residue.

use crate::error::Error;
use crate::ground::{ground, GroundMode};
use std::collections::HashMap;
use ticc_fotl::Formula;
use ticc_ptl::progression::progress;
use ticc_ptl::sat::is_satisfiable;
use ticc_tdb::History;

/// Returns the smallest number of states `n ≥ 0` such that the prefix
/// `(D0, …, D_{n-1})` has **no** extension satisfying `phi` (`n == 0`
/// means `phi` itself is unsatisfiable), or `None` if the whole history
/// remains potentially satisfied.
pub fn earliest_violation(history: &History, phi: &Formula) -> Result<Option<usize>, Error> {
    let mut g = ground(history, phi, GroundMode::Folded)?;
    let mut residue = g.formula;
    let mut cache: HashMap<ticc_ptl::arena::FormulaId, bool> = HashMap::new();
    for n in 0..=history.len() {
        let sat = match cache.get(&residue) {
            Some(&s) => s,
            None => {
                let r = is_satisfiable(&mut g.arena, residue).map_err(Error::Sat)?;
                cache.insert(residue, r.satisfiable);
                r.satisfiable
            }
        };
        if !sat {
            return Ok(Some(n));
        }
        if n < history.len() {
            let w = g.trace[n].clone();
            residue = progress(&mut g.arena, residue, &w)
                .map_err(|_| Error::Sat(ticc_ptl::sat::SatError::Past))?;
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ticc_fotl::parser::parse;
    use ticc_tdb::{Schema, State, Value};

    fn history(spec: &[&[Value]]) -> History {
        let sc: Arc<Schema> = Schema::builder().pred("Sub", 1).build();
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
    fn finds_earliest_point() {
        let phi_src = "forall x. G (Sub(x) -> X G !Sub(x))";
        // States: Sub(1) | ∅ | Sub(1) again | ∅ — violation fixed after
        // the third state (prefix length 3).
        let h = history(&[&[1], &[], &[1], &[]]);
        let phi = parse(h.schema(), phi_src).unwrap();
        assert_eq!(earliest_violation(&h, &phi).unwrap(), Some(3));
    }

    #[test]
    fn none_when_satisfied() {
        let h = history(&[&[1], &[2], &[3]]);
        let phi = parse(h.schema(), "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        assert_eq!(earliest_violation(&h, &phi).unwrap(), None);
    }

    #[test]
    fn zero_for_unsatisfiable_formula() {
        let h = history(&[&[1]]);
        let phi = parse(h.schema(), "Sub(9) & G !Sub(9)").unwrap();
        assert_eq!(earliest_violation(&h, &phi).unwrap(), Some(0));
    }

    #[test]
    fn agrees_with_full_check() {
        use crate::extension::{check_potential_satisfaction, CheckOptions};
        let phi_src = "forall x. G (Sub(x) -> X G !Sub(x))";
        let h = history(&[&[1], &[1], &[2]]);
        let phi = parse(h.schema(), phi_src).unwrap();
        let earliest = earliest_violation(&h, &phi).unwrap().unwrap();
        // The prefix one shorter is satisfied; the prefix at the point
        // is not.
        let ok = h.prefix(earliest - 1);
        assert!(
            check_potential_satisfaction(&ok, &phi, &CheckOptions::default())
                .unwrap()
                .potentially_satisfied
        );
        let bad = h.prefix(earliest);
        assert!(
            !check_potential_satisfaction(&bad, &phi, &CheckOptions::default())
                .unwrap()
                .potentially_satisfied
        );
    }
}

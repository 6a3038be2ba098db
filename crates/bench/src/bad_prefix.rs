//! The bad-prefix baseline of E11: the weaker violation notion of
//! Lipeck–Saake and Sistla–Wolfson that the paper's §5 contrasts with
//! potential satisfaction. Progression only, no phase-2 test: a
//! violation is reported when the progressed residue reaches `⊥`,
//! which can be later than the instant the constraint became
//! unsatisfiable.

use std::sync::Arc;
use ticc_core::{ground, GroundError, GroundMode, Grounding};
use ticc_fotl::Formula;
use ticc_ptl::arena::FormulaId;
use ticc_ptl::progression::progress;
use ticc_ptl::simplify::simplify;
use ticc_tdb::{History, Schema, State};

/// A progression-only monitor over one constraint.
pub struct BadPrefixMonitor {
    g: Grounding,
    residue: FormulaId,
    len: usize,
    violated_at: Option<usize>,
}

impl BadPrefixMonitor {
    /// Grounds `phi` once, over the empty history of `schema`. The
    /// baseline never re-grounds, so appended states may mention only
    /// the elements `phi` itself names.
    pub fn new(schema: Arc<Schema>, phi: &Formula) -> Result<Self, GroundError> {
        let g = ground(&History::new(schema), phi, GroundMode::Folded)?;
        let residue = g.formula;
        Ok(Self {
            g,
            residue,
            len: 0,
            violated_at: None,
        })
    }

    /// Progresses the residue through `state` and returns the history
    /// length at which it first reached `⊥`, if it has.
    ///
    /// Panics if `state` mentions an element outside the grounding.
    pub fn append(&mut self, state: &State) -> Option<usize> {
        let w = self
            .g
            .state_to_prop(state)
            .expect("state mentions only elements of the constraint");
        let next = progress(&mut self.g.arena, self.residue, &w).expect("residue is future-only");
        self.residue = simplify(&mut self.g.arena, next);
        self.len += 1;
        if self.violated_at.is_none() && self.residue == self.g.arena.fls() {
            self.violated_at = Some(self.len);
        }
        self.violated_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_core::{CheckOptions, Engine, Status};
    use ticc_fotl::parser::parse;
    use ticc_tdb::Transaction;

    #[test]
    fn detects_w_states_after_potential_satisfaction() {
        let sc = Schema::builder().pred("Sub", 1).pred("Fill", 1).build();
        let sub = sc.pred("Sub").unwrap();
        for w in 1..=3usize {
            // After Sub(1) no extension exists, but the residue only
            // folds to ⊥ once the w-step obligation comes due.
            let ahead = (0..w).fold("Fill(1)".to_owned(), |f, _| format!("X ({f})"));
            let phi = parse(&sc, &format!("G (Sub(1) -> {ahead}) & G !Fill(1)")).unwrap();
            let mut monitor = Engine::new(sc.clone(), CheckOptions::default());
            let id = monitor.add_constraint("latent", phi.clone()).unwrap();
            let mut baseline = BadPrefixMonitor::new(sc.clone(), &phi).unwrap();
            let mut history = History::new(sc.clone());
            let mut detected = None;
            let txs = std::iter::once(Transaction::new().insert(sub, vec![1])).chain(
                std::iter::repeat_n(Transaction::new().delete(sub, vec![1]), w + 2),
            );
            for tx in txs {
                monitor.append(&tx).unwrap();
                history.apply(&tx).unwrap();
                detected = baseline.append(history.last().unwrap());
            }
            assert_eq!(monitor.status(id), Status::Violated { at: 1 }, "w = {w}");
            assert_eq!(detected, Some(1 + w), "w = {w}");
        }
    }
}

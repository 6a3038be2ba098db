//! Condition–action triggers (Section 2).
//!
//! The paper defines: a trigger *"if C then A"* fires at instant `t` for
//! a ground substitution `θ` of the free variables of `C` iff `¬Cθ` is
//! **not** potentially satisfied at `t` — i.e. every infinite extension
//! of the current history satisfies `Cθ`. Trigger firing is thus the
//! exact dual of constraint satisfaction: an integrity-checking trigger
//! with condition `C = ¬φ` fires precisely when the constraint `φ` is
//! violated.
//!
//! Substitutions range over the relevant elements `R_D` (a substitution
//! sending a variable to an irrelevant element is equivalent, by the
//! genericity argument of Lemma 4.1, to any other such substitution; a
//! trigger firing for one would fire for infinitely many, which we treat
//! as a modelling error rather than a feature).

use crate::engine::check_once;
use crate::error::Error;
use crate::extension::CheckOptions;
use crate::ground::GroundError;
use crate::obs::EngineStats;
use std::collections::BTreeMap;
use ticc_fotl::classify::{classify, FormulaClass};
use ticc_fotl::subst::{free_vars, substitute, Subst};
use ticc_fotl::{Formula, Term};
use ticc_tdb::{History, PredId, Transaction, Value};

/// The action part of a trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Record the firing only.
    Log,
    /// Insert a tuple (terms may mention the condition's free
    /// variables, instantiated by the firing substitution).
    Insert {
        /// Target predicate.
        pred: PredId,
        /// Argument terms.
        args: Vec<Term>,
    },
    /// Delete a tuple (same term conventions as `Insert`).
    Delete {
        /// Target predicate.
        pred: PredId,
        /// Argument terms.
        args: Vec<Term>,
    },
}

/// A condition–action trigger.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Display name.
    pub name: String,
    /// The condition `C`, a future quantifier-free formula with free
    /// variables.
    pub condition: Formula,
    /// The action `A`.
    pub action: Action,
}

/// A firing: trigger name plus the ground substitution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredTrigger {
    /// Index into the engine's trigger list.
    pub trigger: usize,
    /// Trigger name.
    pub name: String,
    /// The substitution `θ` (variable → element).
    pub substitution: BTreeMap<String, Value>,
}

/// Evaluates triggers against histories by the duality with potential
/// satisfaction.
#[derive(Default)]
pub struct TriggerEngine {
    triggers: Vec<Trigger>,
    opts: CheckOptions,
    stats: EngineStats,
}

impl TriggerEngine {
    /// An engine with the given check options.
    pub fn new(opts: CheckOptions) -> Self {
        Self {
            triggers: Vec::new(),
            opts,
            stats: EngineStats::default(),
        }
    }

    /// Cumulative observability counters across all evaluations.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Registers a trigger. The condition must be future-only and
    /// quantifier-free, so that `¬Cθ` is a universal sentence checkable
    /// by Theorem 4.2.
    pub fn add(&mut self, trigger: Trigger) -> Result<usize, Error> {
        if !trigger.condition.is_future() {
            return Err(Error::UnsupportedCondition(
                "condition must use future connectives only".into(),
            ));
        }
        if !trigger.condition.is_quantifier_free() {
            return Err(Error::UnsupportedCondition(
                "condition must be quantifier-free".into(),
            ));
        }
        // Sanity: the grounded negation classifies as universal.
        let neg = trigger.condition.clone().not();
        match classify(&neg) {
            FormulaClass::Universal { .. } | FormulaClass::Biquantified { .. } => {}
            FormulaClass::NotBiquantified(r) => {
                return Err(Error::UnsupportedCondition(format!("{r:?}")))
            }
        }
        self.triggers.push(trigger);
        Ok(self.triggers.len() - 1)
    }

    /// The registered triggers.
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Evaluates all triggers at the current instant: for each trigger
    /// and each substitution `θ : free(C) → R_D`, fires iff `¬Cθ` is not
    /// potentially satisfied. Firings come in trigger order, then
    /// substitution order.
    pub fn evaluate(&mut self, history: &History) -> Result<Vec<FiredTrigger>, Error> {
        let relevant: Vec<Value> = history.relevant().into_iter().collect();
        let mut fired = Vec::new();
        for (ti, trigger) in self.triggers.iter().enumerate() {
            let vars: Vec<String> = free_vars(&trigger.condition).into_iter().collect();
            for assignment in assignments(&relevant, vars.len()) {
                let theta: Subst = vars
                    .iter()
                    .zip(&assignment)
                    .map(|(v, &val)| (v.clone(), Term::Value(val)))
                    .collect();
                let neg = substitute(&trigger.condition, &theta).not();
                let shot = match check_once(history, &neg, &self.opts) {
                    Ok(s) => s,
                    Err(Error::Ground(GroundError::NotUniversal(c))) => {
                        return Err(Error::UnsupportedCondition(format!("{c:?}")))
                    }
                    Err(e) => return Err(e),
                };
                self.stats.grounds += 1;
                self.stats.sat_checks += 1;
                self.stats.ground_time += shot.ground_time;
                self.stats.sat_time += shot.decide_time;
                if !shot.result.satisfiable {
                    fired.push(FiredTrigger {
                        trigger: ti,
                        name: trigger.name.clone(),
                        substitution: vars.iter().cloned().zip(assignment).collect(),
                    });
                }
            }
        }
        Ok(fired)
    }

    /// Materialises the actions of a set of firings as one transaction
    /// (Log actions contribute nothing).
    pub fn actions(&self, fired: &[FiredTrigger]) -> Transaction {
        let mut tx = Transaction::new();
        for f in fired {
            let trigger = &self.triggers[f.trigger];
            match &trigger.action {
                Action::Log => {}
                Action::Insert { pred, args } => {
                    tx = tx.insert(*pred, instantiate(args, &f.substitution));
                }
                Action::Delete { pred, args } => {
                    tx = tx.delete(*pred, instantiate(args, &f.substitution));
                }
            }
        }
        tx
    }
}

fn instantiate(args: &[Term], theta: &BTreeMap<String, Value>) -> Vec<Value> {
    args.iter()
        .map(|t| match t {
            Term::Value(v) => *v,
            Term::Var(v) => *theta
                .get(v)
                .expect("action variable must occur in the condition"),
            Term::Const(_) => panic!("constants in actions must be pre-resolved to values"),
        })
        .collect()
}

/// All `vars`-length assignments over `domain` (empty vector when
/// `vars == 0`, giving exactly one empty assignment).
fn assignments(domain: &[Value], vars: usize) -> Vec<Vec<Value>> {
    let mut out = vec![vec![]];
    for _ in 0..vars {
        let mut next = Vec::with_capacity(out.len() * domain.len());
        for a in &out {
            for &d in domain {
                let mut b = a.clone();
                b.push(d);
                next.push(b);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ticc_fotl::parser::parse;
    use ticc_tdb::{Schema, State};

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .pred("Sub", 1)
            .pred("Fill", 1)
            .pred("Alert", 1)
            .build()
    }

    fn history(spec: &[(&[Value], &[Value])]) -> History {
        let sc = schema();
        let mut h = History::new(sc.clone());
        for (subs, fills) in spec {
            let mut s = State::empty(sc.clone());
            for &v in *subs {
                s.insert_named("Sub", vec![v]).unwrap();
            }
            for &v in *fills {
                s.insert_named("Fill", vec![v]).unwrap();
            }
            h.push_state(s);
        }
        h
    }

    #[test]
    fn duality_with_constraint_violation() {
        let sc = schema();
        // Trigger fires for x when "Sub(x) happened twice" is certain:
        // C(x) = ◇(Sub(x) ∧ ○◇Sub(x)); ¬C is the once-only constraint.
        let cond = parse(&sc, "F (Sub(x) & X F Sub(x))").unwrap();
        let mut engine = TriggerEngine::new(CheckOptions::default());
        engine
            .add(Trigger {
                name: "double-submit".into(),
                condition: cond,
                action: Action::Log,
            })
            .unwrap();

        // Clean history: nothing fires.
        let clean = history(&[(&[1], &[]), (&[2], &[])]);
        assert!(engine.evaluate(&clean).unwrap().is_empty());

        // Order 1 submitted twice: fires exactly for x=1.
        let dirty = history(&[(&[1], &[]), (&[2], &[]), (&[1], &[])]);
        let fired = engine.evaluate(&dirty).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].name, "double-submit");
        assert_eq!(fired[0].substitution.get("x"), Some(&1));
    }

    #[test]
    fn actions_materialise_with_substitution() {
        let sc = schema();
        let cond = parse(&sc, "F (Sub(x) & X F Sub(x))").unwrap();
        let alert = sc.pred("Alert").unwrap();
        let mut engine = TriggerEngine::new(CheckOptions::default());
        engine
            .add(Trigger {
                name: "alert-dup".into(),
                condition: cond,
                action: Action::Insert {
                    pred: alert,
                    args: vec![Term::var("x")],
                },
            })
            .unwrap();
        let dirty = history(&[(&[1], &[]), (&[1], &[])]);
        let fired = engine.evaluate(&dirty).unwrap();
        assert_eq!(fired.len(), 1);
        let tx = engine.actions(&fired);
        let mut s = State::empty(sc.clone());
        tx.apply_to(&mut s).unwrap();
        assert!(s.holds(alert, &[1]));
    }

    #[test]
    fn nullary_condition_fires_once() {
        let sc = schema();
        // Fires when order 5 is certainly submitted twice.
        let cond = parse(&sc, "F (Sub(5) & X F Sub(5))").unwrap();
        let mut engine = TriggerEngine::new(CheckOptions::default());
        engine
            .add(Trigger {
                name: "five-twice".into(),
                condition: cond,
                action: Action::Log,
            })
            .unwrap();
        let h = history(&[(&[5], &[]), (&[5], &[])]);
        let fired = engine.evaluate(&h).unwrap();
        assert_eq!(fired.len(), 1);
        assert!(fired[0].substitution.is_empty());
    }

    #[test]
    fn condition_not_yet_certain_does_not_fire() {
        let sc = schema();
        // C(x) = ◇Fill(x): some extension fills, some never does — ¬C is
        // potentially satisfied, so the trigger must NOT fire.
        let cond = parse(&sc, "F Fill(x)").unwrap();
        let mut engine = TriggerEngine::new(CheckOptions::default());
        engine
            .add(Trigger {
                name: "filled".into(),
                condition: cond,
                action: Action::Log,
            })
            .unwrap();
        let h = history(&[(&[1], &[])]);
        assert!(engine.evaluate(&h).unwrap().is_empty());
        // Once Fill(1) has actually happened, ◇Fill(1) holds in every
        // extension: fires.
        let h2 = history(&[(&[1], &[]), (&[], &[1])]);
        let fired = engine.evaluate(&h2).unwrap();
        assert!(fired.iter().any(|f| f.substitution.get("x") == Some(&1)));
    }

    #[test]
    fn rejects_unsupported_conditions() {
        let sc = schema();
        let mut engine = TriggerEngine::new(CheckOptions::default());
        let past = parse(&sc, "O Sub(x)").unwrap();
        assert!(engine
            .add(Trigger {
                name: "past".into(),
                condition: past,
                action: Action::Log,
            })
            .is_err());
        let quantified = parse(&sc, "exists y. F Sub(y)").unwrap();
        assert!(engine
            .add(Trigger {
                name: "q".into(),
                condition: quantified,
                action: Action::Log,
            })
            .is_err());
    }
}

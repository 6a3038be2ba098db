//! The binary-counter lower-bound family (Section 6).
//!
//! Section 6 argues that `|R_D|` cannot be removed from the exponent of
//! Theorem 4.2's bound: a single database state can seed a universal
//! safety constraint whose unique extension simulates an exponentially
//! long computation. This module realises that shape concretely with an
//! `n`-bit binary counter:
//!
//! * the schema has one monadic predicate `Bit`; constants `c0 … c_{n-1}`
//!   name the bit positions (so they are relevant in any history);
//! * the constraint forces, at every instant, the next state's `Bit` set
//!   to be the binary increment of the current one
//!   (`Bit'(ci) ⇔ Bit(ci) ⊕ ⋀_{j<i} Bit(cj)`, wrap-around at all-ones);
//! * optionally it additionally forbids the all-ones pattern
//!   (`□¬(Bit(c0) ∧ … ∧ Bit(c_{n-1}))`).
//!
//! Starting from the all-zeros state the extension is uniquely
//! determined; with the all-ones pattern forbidden, no extension exists
//! — but establishing that requires the decision procedure to explore
//! `~2^n` tableau states from an `O(n)`-sized input. Experiment E10
//! measures this forced exponential behaviour.

use std::sync::Arc;
use ticc_fotl::{Formula, Term};
use ticc_tdb::{History, Schema, State};

/// A generated counter instance.
pub struct CounterInstance {
    /// Schema with `Bit` and the position constants.
    pub schema: Arc<Schema>,
    /// Single-state history: the all-zeros counter.
    pub history: History,
    /// The universal (quantifier-free, hence `k = 0`) constraint.
    pub constraint: Formula,
    /// Number of bits.
    pub bits: usize,
}

fn iff(a: Formula, b: Formula) -> Formula {
    a.clone().implies(b.clone()).and(b.implies(a))
}

fn xor(a: Formula, b: Formula) -> Formula {
    (a.clone().and(b.clone().not())).or(a.not().and(b))
}

/// Builds the `n`-bit counter instance. With `forbid_full` the
/// constraint is violated (after the counter would reach all-ones);
/// without it, it is potentially satisfied forever.
pub fn counter_instance(bits: usize, forbid_full: bool) -> CounterInstance {
    assert!(bits >= 1, "need at least one bit");
    let mut sb = Schema::builder().pred("Bit", 1);
    for i in 0..bits {
        sb = sb.constant(&format!("c{i}"));
    }
    let schema = sb.build();
    let bit_p = schema.pred("Bit").unwrap();
    let bit = |i: usize| {
        Formula::pred(
            bit_p,
            vec![Term::Const(schema.constant(&format!("c{i}")).unwrap())],
        )
    };

    // Increment rules: ○Bit(ci) ⇔ Bit(ci) ⊕ ⋀_{j<i} Bit(cj).
    let mut rules = Vec::with_capacity(bits + 1);
    for i in 0..bits {
        let carry = Formula::and_all((0..i).map(bit));
        let rule = iff(bit(i).next(), xor(bit(i), carry));
        rules.push(rule.always());
    }
    if forbid_full {
        let full = Formula::and_all((0..bits).map(bit));
        rules.push(full.not().always());
    }
    let constraint = Formula::and_all(rules);

    // D0: all zeros. The positions are relevant through the constants.
    let mut history = History::new(schema.clone());
    for i in 0..bits {
        let c = schema.constant(&format!("c{i}")).unwrap();
        history.set_constant(c, i as u64);
    }
    history.push_state(State::empty(schema.clone()));

    CounterInstance {
        schema,
        history,
        constraint,
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::{check_potential_satisfaction, CheckOptions};
    use ticc_fotl::classify::{classify, FormulaClass};

    #[test]
    fn constraint_is_universal_with_zero_external_vars() {
        let inst = counter_instance(3, true);
        assert_eq!(
            classify(&inst.constraint),
            FormulaClass::Universal { external: 0 }
        );
        assert!(!inst.constraint.uses_extended_vocabulary());
    }

    #[test]
    fn without_forbid_the_counter_runs_forever() {
        let inst = counter_instance(3, false);
        let out =
            check_potential_satisfaction(&inst.history, &inst.constraint, &CheckOptions::default())
                .unwrap();
        assert!(out.potentially_satisfied);
        // The witness must follow the increment rule: decode and check
        // the first steps 000 → 100 → 010 (lsb-first displays).
        let w = out.witness.unwrap();
        let bit_p = inst.schema.pred("Bit").unwrap();
        let all: Vec<&ticc_tdb::State> = w.prefix.iter().chain(w.cycle.iter()).collect();
        if all.len() >= 2 {
            // After all-zeros D0, the first extension state has Bit(c0).
            assert!(all[0].holds(bit_p, &[0]), "bit 0 must flip first");
        }
    }

    #[test]
    fn forbidding_full_pattern_violates() {
        for bits in 1..=3 {
            let inst = counter_instance(bits, true);
            let out = check_potential_satisfaction(
                &inst.history,
                &inst.constraint,
                &CheckOptions::default(),
            )
            .unwrap();
            assert!(
                !out.potentially_satisfied,
                "{bits}-bit counter must reach all-ones eventually"
            );
        }
    }

    #[test]
    fn automaton_grows_exponentially_with_bits() {
        let small = counter_instance(2, true);
        let big = counter_instance(4, true);
        let s = check_potential_satisfaction(
            &small.history,
            &small.constraint,
            &CheckOptions::default(),
        )
        .unwrap();
        let b =
            check_potential_satisfaction(&big.history, &big.constraint, &CheckOptions::default())
                .unwrap();
        assert!(
            b.stats.sat.states > 2 * s.stats.sat.states,
            "state count must blow up: {} vs {}",
            s.stats.sat.states,
            b.stats.sat.states
        );
    }

    #[test]
    fn engine_steps_the_counter_on_lazily_built_templates() {
        use crate::engine::{Engine, Status};
        use ticc_tdb::Transaction;
        for bits in 4..=6usize {
            // The free-running counter, followed append by append: the
            // engine's status equals the one-shot check's at every
            // instant, every step runs on template automata, and the
            // templates discover states as the count reaches them.
            let inst = counter_instance(bits, false);
            let bit = inst.schema.pred("Bit").unwrap();
            let mut e = Engine::with_history(inst.history.clone(), CheckOptions::default());
            let id = e
                .add_constraint("counter", inst.constraint.clone())
                .unwrap();
            let mut states = vec![e.stats().automaton_states];
            // A full lap and the wrap-around, but half a lap at 6 bits:
            // every joint phase-2 test there is already a 2^6-state run.
            let appends = if bits < 6 { (1u64 << bits) + 2 } else { 1 << 5 };
            let mut value = 0u64;
            for step in 0..appends {
                let next = (value + 1) % (1 << bits);
                let mut tx = Transaction::new();
                for i in 0..bits as u64 {
                    match (value >> i & 1, next >> i & 1) {
                        (0, 1) => tx = tx.insert(bit, vec![i]),
                        (1, 0) => tx = tx.delete(bit, vec![i]),
                        _ => {}
                    }
                }
                e.append(&tx).unwrap();
                value = next;
                let once = check_potential_satisfaction(
                    e.history(),
                    &inst.constraint,
                    &CheckOptions::default(),
                )
                .unwrap();
                assert_eq!(
                    e.status(id) == Status::Satisfied,
                    once.potentially_satisfied,
                    "{bits} bits, step {step}"
                );
                states.push(e.stats().automaton_states);
            }
            assert_eq!(e.status(id), Status::Satisfied);
            let st = e.stats();
            assert_eq!(st.progress_steps, 0, "{st:?}");
            assert_eq!(st.automaton_appends, st.appends, "{st:?}");
            assert!(states.windows(2).all(|w| w[0] <= w[1]), "{states:?}");
            assert!(states.last() > states.first(), "{states:?}");
            // Forbidding all-ones leaves no extension from all-zeros:
            // both the engine and the one-shot check see the violation
            // at registration.
            let inst = counter_instance(bits, true);
            let mut e = Engine::with_history(inst.history.clone(), CheckOptions::default());
            let id = e
                .add_constraint("counter", inst.constraint.clone())
                .unwrap();
            assert_eq!(e.status(id), Status::Violated { at: 1 });
            let once = check_potential_satisfaction(
                &inst.history,
                &inst.constraint,
                &CheckOptions::default(),
            )
            .unwrap();
            assert!(!once.potentially_satisfied);
        }
    }
}

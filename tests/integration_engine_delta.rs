//! Delta re-grounding vs the reference's full re-grounding —
//! randomized equivalence.
//!
//! Production's delta path grounds only the instantiations mentioning
//! new relevant elements and replays them through the stored
//! propositional trace; the reference rebuilds the grounding over the
//! whole history. Progression distributes over conjunction and old
//! trace states assign `false` to every letter mentioning a new
//! element, so the two must produce *identical* observable behaviour:
//! the same violation events at the same instants, the same statuses,
//! and the same earliest-violation time. This suite streams staggered
//! new-element appends over randomized workloads and checks exactly
//! that, plus the `O(|Δ-part|)` complexity claim on the stats spine,
//! and that a compiled engine brings new instantiations up to date by
//! stepping their template automata, with no symbolic progression.

mod common;

use std::sync::Arc;
use ticc::core::engine::Engine;
use ticc::core::{CheckOptions, Status};
use ticc::fotl::parser::parse;
use ticc::tdb::rng::Rng;
use ticc::tdb::{Schema, Transaction, Value};

const ONCE_ONLY: &str = "forall x. G (Sub(x) -> X G !Sub(x))";

fn schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
}

/// One randomized streaming session: elements arrive staggered (each
/// step may introduce fresh elements, re-submit old ones, or delete
/// current facts), and both engines see the identical transactions.
struct Session {
    delta: Engine,
    full: Engine,
    id_delta: ticc::core::ConstraintId,
    id_full: ticc::core::ConstraintId,
    /// Sub-facts currently present.
    present: Vec<Value>,
    /// Every element that has ever appeared (the relevant set).
    seen: Vec<Value>,
    /// Fresh elements inserted while the constraint was still live —
    /// at `k = 1`, exactly the number of conjuncts the delta path must
    /// ground and replay.
    expected_delta_conjuncts: u64,
    /// Appends that found the constraint live: each is one
    /// constraint-step on either engine.
    constraint_steps: u64,
    next_fresh: Value,
}

impl Session {
    fn new() -> Self {
        let sc = schema();
        let phi = parse(&sc, ONCE_ONLY).unwrap();
        let mut delta = Engine::new(sc.clone(), CheckOptions::default());
        let mut full = Engine::new(sc.clone(), CheckOptions::reference());
        let id_delta = delta.add_constraint("once", phi.clone()).unwrap();
        let id_full = full.add_constraint("once", phi).unwrap();
        Session {
            delta,
            full,
            id_delta,
            id_full,
            present: Vec::new(),
            seen: Vec::new(),
            expected_delta_conjuncts: 0,
            constraint_steps: 0,
            next_fresh: 100,
        }
    }

    /// Builds one random transaction, applies it to both engines, and
    /// asserts the observable outcomes agree. Returns the events of the
    /// delta engine.
    fn step(&mut self, rng: &mut Rng) -> usize {
        let sub = self.delta.history().schema().pred("Sub").unwrap();
        let mut tx = Transaction::new();
        // Deletions: each present fact may be cleared.
        self.present.retain(|&v| {
            if rng.gen_bool(0.5) {
                tx = std::mem::take(&mut tx).delete(sub, vec![v]);
                false
            } else {
                true
            }
        });
        // Insertions: up to two elements, staggered between fresh ones
        // (growing R_D mid-stream) and re-submissions (provoking
        // violations of once-only).
        let mut fresh_this_step = 0u64;
        for _ in 0..rng.gen_range_usize(0..3) {
            let v = if self.seen.is_empty() || rng.gen_bool(0.45) {
                let v = self.next_fresh;
                self.next_fresh += 1;
                fresh_this_step += 1;
                v
            } else {
                self.seen[rng.gen_range_usize(0..self.seen.len())]
            };
            if !self.present.contains(&v) {
                self.present.push(v);
            }
            if !self.seen.contains(&v) {
                self.seen.push(v);
            }
            tx = std::mem::take(&mut tx).insert(sub, vec![v]);
        }

        let live_before = self.delta.status(self.id_delta) == Status::Satisfied;
        let de = self.delta.append(&tx).unwrap();
        let fe = self.full.append(&tx).unwrap();
        assert_eq!(de, fe, "event streams diverge");
        assert_eq!(
            self.delta.status(self.id_delta),
            self.full.status(self.id_full),
            "statuses diverge"
        );
        if live_before {
            self.expected_delta_conjuncts += fresh_this_step;
            self.constraint_steps += 1;
        }
        de.len()
    }
}

#[test]
fn delta_equals_full_on_randomized_staggered_histories() {
    let mut violating_runs = 0;
    let mut delta_runs = 0;
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0xd31a ^ seed);
        let mut s = Session::new();
        let steps = rng.gen_range_usize(4..9);
        let mut events = 0;
        for _ in 0..steps {
            events += s.step(&mut rng);
        }
        assert!(events <= 1, "once-only can be violated at most once");
        if events == 1 {
            violating_runs += 1;
            // Earliest violation: both engines agree on the status,
            // including the `at` instant, checked per step; re-assert
            // the terminal state here.
            let Status::Violated { at } = s.delta.status(s.id_delta) else {
                panic!("event without violated status");
            };
            assert_eq!(s.full.status(s.id_full), Status::Violated { at });
        }

        let ds = s.delta.stats();
        let fs = s.full.stats();
        // The delta engine never falls back to a full rebuild, and it
        // takes the delta path exactly when the full engine is forced
        // to rebuild.
        assert_eq!(ds.regrounds, 0, "seed {seed}");
        assert_eq!(ds.delta_grounds, fs.regrounds, "seed {seed}");
        assert_eq!(fs.delta_grounds, 0, "seed {seed}");
        // Conservation: every constraint-step is counted exactly once,
        // as a fast append or as a (delta or full) re-ground.
        assert_eq!(
            ds.fast_appends + ds.delta_grounds,
            s.constraint_steps,
            "seed {seed}: production step counters"
        );
        assert_eq!(
            fs.fast_appends + fs.regrounds,
            s.constraint_steps,
            "seed {seed}: reference step counters"
        );
        // O(|Δ-part|): at k = 1 each fresh element contributes exactly
        // one new instantiation, so the replayed-conjunct counter equals
        // the number of staggered arrivals — not the |M|^k total a full
        // rebuild re-derives each time.
        assert_eq!(ds.new_conjuncts, ds.replayed_conjuncts, "seed {seed}");
        assert_eq!(
            ds.replayed_conjuncts, s.expected_delta_conjuncts,
            "seed {seed}: replay must be linear in the delta part"
        );
        // The compiled engine replays templates, never progression:
        // built over the empty history, it makes no symbolic step.
        assert_eq!(ds.progress_steps, 0, "seed {seed}");
        assert_eq!(ds.replay_steps > 0, ds.delta_grounds > 0, "seed {seed}");
        if ds.delta_grounds > 0 {
            delta_runs += 1;
        }
    }
    // The workload must actually exercise both behaviours.
    assert!(delta_runs >= 100, "only {delta_runs}/120 runs delta-ground");
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

/// Floor of the compiled delta path: across delta re-grounds and
/// occurrence activations of a fully compiled production engine, the
/// symbolic progression counter stays put, and the template-replay
/// counter moves instead. The five shared-workload constraints cover
/// `k` from 0 to 2 and units that share letters; the reference pipeline
/// runs alongside so the appends checked are ones it agrees with.
#[test]
fn compiled_regrounds_step_templates_not_progression() {
    let sc = common::schema();
    let phis = [
        common::ONCE_ONLY,
        common::PAIR_ONCE,
        common::CAP,
        common::PAIR_GUARD,
        common::PAIR_NEXT,
    ]
    .map(|src| parse(&sc, src).unwrap());
    let (mut deltas, mut activations) = (0, 0);
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0x5e1f ^ seed);
        let mut driver = common::Driver::new(6, 0.3);
        let mut prod = Engine::new(sc.clone(), CheckOptions::default());
        let mut reference = Engine::new(sc.clone(), CheckOptions::reference());
        for (i, phi) in phis.iter().enumerate() {
            prod.add_constraint(format!("c{i}"), phi.clone()).unwrap();
            reference
                .add_constraint(format!("c{i}"), phi.clone())
                .unwrap();
        }
        for _ in 0..rng.gen_range_usize(6..14) {
            let tx = driver.step(&sc, &mut rng);
            let live = prod
                .constraints()
                .filter(|&id| prod.status(id) == Status::Satisfied)
                .count() as u64;
            let before = prod.stats();
            let events = prod.append(&tx).unwrap();
            assert_eq!(events, reference.append(&tx).unwrap(), "seed {seed}");
            let after = prod.stats();
            let compiled = after.automaton_appends - before.automaton_appends == live;
            if !compiled || after.new_conjuncts == before.new_conjuncts {
                continue;
            }
            assert_eq!(
                after.progress_steps, before.progress_steps,
                "seed {seed}: a compiled re-ground progressed symbolically"
            );
            // New instantiations can all fold to `⊤` (e.g. `x != y` at
            // `x = y`), leaving nothing to replay; count the appends
            // that did replay.
            if after.replay_steps == before.replay_steps {
                continue;
            }
            if after.delta_grounds > before.delta_grounds {
                deltas += 1;
            } else {
                activations += 1;
            }
        }
    }
    assert!(deltas >= 200, "only {deltas} compiled delta appends");
    assert!(
        activations >= 20,
        "only {activations} compiled activation appends"
    );
}

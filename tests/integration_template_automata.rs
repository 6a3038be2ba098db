//! Compiled template automata — u32-state stepping through shared
//! explicit machines must be observationally *identical* to the
//! reference's symbolic progression, not merely equivalent.
//!
//! Production subset-constructs each residue's progression graph over
//! support-restricted valuations at build time, hash-conses isomorphic
//! residues onto one template machine, and thereafter advances every
//! instantiation by a dense table lookup with the phase-2 verdict
//! precomputed per state. Both halves are pure shortcuts: the
//! automaton state must denote exactly the residue progression would
//! compute, and the per-state verdict must equal what phase 2 would
//! decide. The randomized sweep feeds 120 staggered sessions (fresh
//! elements arriving mid-stream — so delta re-grounding binds new
//! units into live compiled sets — plus deletions and re-submissions)
//! to two engines:
//!
//! - **compiled** — production (the default options),
//! - **reference** — `CheckOptions::reference()`,
//!
//! and asserts bit-identical event streams, per-append statuses,
//! earliest-violation instants, and trigger firings — plus
//! non-vacuity: the sweep must actually take automaton appends and
//! produce real violations. Directed cases pin down template sharing
//! (`templates_compiled < instantiations`), the state-budget fallback,
//! units sharing letters (staying compiled, with the joint phase-2
//! test deciding an odd cycle no single unit can see), and snapshot
//! round-trip lockstep.

mod common;

use common::{
    schema, sweep, triggers_agree_with_reference, Driver, CAP, ONCE_ONLY, PAIR_GUARD, PAIR_NEXT,
    PAIR_ONCE,
};
use ticc::core::{CheckOptions, Engine};
use ticc::fotl::parser::parse;
use ticc::tdb::rng::Rng;
use ticc::tdb::Transaction;

#[test]
fn compiled_and_symbolic_agree_on_randomized_sessions() {
    let configs = [CheckOptions::default(), CheckOptions::reference()];
    let mut total_auto_appends = 0u64;
    let mut total_auto_steps = 0u64;
    let mut total_joint_checks = 0u64;
    let violating_runs = sweep(0xe16a, &configs, 6, 0.3, 6..14, |seed, engines, ids| {
        let [auto, reference] = engines else {
            unreachable!()
        };
        // Compiling the residue never changes which letters and
        // instantiations the grounding interns.
        for id in ids {
            let ga = auto.context(*id).grounding().stats();
            let gr = reference.context(*id).grounding().stats();
            assert_eq!(ga.m_size, gr.m_size, "seed {seed}: |M| for {id:?}");
            assert_eq!(ga.mappings, gr.mappings, "seed {seed}: |M|^k for {id:?}");
        }

        // The automaton only ever *removes* work (progression, phase 2)
        // from the compiled side.
        let (sa, sr) = (auto.stats(), reference.stats());
        assert_eq!(sa.appends, sr.appends, "seed {seed}");
        assert_eq!(sa.grounds, sr.grounds, "seed {seed}");
        assert!(sa.sat_checks <= sr.sat_checks, "seed {seed}");
        assert_eq!(sr.automaton_appends, 0, "seed {seed}: reference compiled");
        total_auto_appends += sa.automaton_appends;
        total_auto_steps += sa.automaton_steps;
        // Shared letters no longer force the symbolic fallback: no
        // context of the sweep steps through the transition cache.
        assert_eq!(
            sa.cache.transition_hits + sa.cache.transition_misses,
            0,
            "seed {seed}: a context fell back to the symbolic path"
        );
        total_joint_checks += sa.sat_checks;
    });
    // Non-vacuity: the sweep must exercise the compiled path it claims
    // to verify, and produce real violations.
    assert!(total_auto_appends > 0, "no automaton appends in the sweep");
    assert!(total_auto_steps > 0, "no automaton steps in the sweep");
    // Every constraint compiles, so production's phase-2 runs are the
    // joint tests on shared units that `PAIR_NEXT` leaves open.
    assert!(total_joint_checks > 0, "no joint phase-2 test in the sweep");
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

#[test]
fn trigger_engine_agrees_compiled_vs_symbolic() {
    triggers_agree_with_reference(0x7e41, CheckOptions::default());
}

/// All instantiations of one constraint are isomorphic modulo letter
/// renaming, so they share one compiled machine: the template count
/// stays flat while the bound-instantiation count grows with `|M|`.
#[test]
fn isomorphic_instantiations_share_one_template() {
    let sc = schema();
    let sub = sc.pred("Sub").unwrap();
    let mut e = Engine::new(sc.clone(), CheckOptions::default());
    e.add_constraint("once", parse(&sc, ONCE_ONLY).unwrap())
        .unwrap();
    // Rotate: each element is submitted once and retracted before the
    // next arrives, so the constraint stays live while `|M|` grows.
    for v in 0..40u64 {
        let mut tx = Transaction::new().insert(sub, vec![1000 + v]);
        if v > 0 {
            tx = tx.delete(sub, vec![1000 + v - 1]);
        }
        e.append(&tx).unwrap();
    }
    let s = e.stats();
    assert!(s.automaton_insts >= 40, "{s:?}");
    assert!(
        s.templates_compiled < s.automaton_insts,
        "no sharing: {} templates for {} instantiations",
        s.templates_compiled,
        s.automaton_insts
    );
    assert!(s.templates_compiled <= 4, "{s:?}");
}

/// With a state budget too small for any machine the engine silently
/// stays symbolic — events identical to the reference, zero automaton
/// steps.
#[test]
fn state_budget_fallback_is_equivalent() {
    let sc = schema();
    let mut rng = Rng::seed_from_u64(0xb4d6e7);
    let tiny = CheckOptions::builder().automaton_state_budget(1).build();
    let mut small = Engine::new(sc.clone(), tiny);
    let mut def = Engine::new(sc.clone(), CheckOptions::reference());
    for (i, phi) in [ONCE_ONLY, PAIR_ONCE].iter().enumerate() {
        let p = parse(&sc, phi).unwrap();
        small.add_constraint(format!("c{i}"), p.clone()).unwrap();
        def.add_constraint(format!("c{i}"), p).unwrap();
    }
    let mut drv = Driver::new(5, 0.3);
    for step in 0..10 {
        let tx = drv.step(&sc, &mut rng);
        let a = small.append(&tx).unwrap();
        let b = def.append(&tx).unwrap();
        assert_eq!(a, b, "step {step}: budget fallback diverges");
    }
    // No machine fits one state, so nothing compiles and no unit ever
    // steps. (An append may still be accounted to the compiled path
    // while the context holds the trivial pre-data empty set.)
    assert_eq!(small.stats().templates_compiled, 0);
    assert_eq!(small.stats().automaton_steps, 0);
}

/// A delta block whose support letters intersect an already-bound
/// unit's binds as further units sharing those letters: the context
/// stays compiled, each unit steps on its own, and the verdict still
/// matches the reference's at every append.
#[test]
fn support_overlap_stays_compiled_and_exact() {
    let sc = schema();
    let sub = sc.pred("Sub").unwrap();
    let rep = sc.pred("Rep").unwrap();
    // Instantiations (x, y) and (x, y') share the letter Sub(x).
    let phi = parse(&sc, "forall x y. G (Rep(x, y) -> X G !Sub(x))").unwrap();
    let mut auto = Engine::new(sc.clone(), CheckOptions::default());
    let mut sym = Engine::new(sc.clone(), CheckOptions::reference());
    let a = auto.add_constraint("guard", phi.clone()).unwrap();
    let b = sym.add_constraint("guard", phi).unwrap();
    assert_eq!(a, b);
    let txs = [
        Transaction::new().insert(rep, vec![1, 2]),
        // Second pair with the same x: the fresh unit's Sub(1) letter
        // is shared with the bound one.
        Transaction::new().insert(rep, vec![1, 3]),
        // The violation must land on the compiled path.
        Transaction::new().insert(sub, vec![1]),
    ];
    for (step, tx) in txs.iter().enumerate() {
        let ea = auto.append(tx).unwrap();
        let es = sym.append(tx).unwrap();
        assert_eq!(ea, es, "step {step}: events diverge on shared letters");
        assert_eq!(auto.status(a), sym.status(a), "step {step}");
    }
    assert!(matches!(
        auto.status(a),
        ticc::core::Status::Violated { .. }
    ));
    let s = auto.stats();
    assert!(s.templates_compiled >= 1, "context decompiled: {s:?}");
    assert_eq!(s.automaton_appends, s.appends, "{s:?}");
}

/// Every instance of a directed odd-cycle constraint is satisfiable on
/// its own, but the three instances over {1, 2, 3} demand
/// `Q(1) ↔ ¬Q(2)`, `Q(2) ↔ ¬Q(3)` and `Q(1) ↔ ¬Q(3)` at once. The
/// units share letters and fail the `∅^ω` test, so only the joint
/// phase-2 check on their conjunction can see the violation — and it
/// must land at the same append as the reference's.
#[test]
fn joint_phase_two_flags_an_odd_cycle_across_shared_units() {
    let sc = ticc::tdb::Schema::builder()
        .pred("P", 1)
        .pred("Q", 1)
        .build();
    let p = sc.pred("P").unwrap();
    let q = sc.pred("Q").unwrap();
    let phi = parse(
        &sc,
        "forall x y. G ((P(x) & P(y) & x != y) -> X (Q(x) <-> !Q(y)))",
    )
    .unwrap();
    let mut auto = Engine::new(sc.clone(), CheckOptions::default());
    let mut sym = Engine::new(sc.clone(), CheckOptions::reference());
    let a = auto.add_constraint("odd", phi.clone()).unwrap();
    sym.add_constraint("odd", phi).unwrap();
    let txs = [
        Transaction::new().insert(q, vec![7]),
        Transaction::new().delete(q, vec![7]),
        Transaction::new(),
        Transaction::new()
            .insert(p, vec![1])
            .insert(p, vec![2])
            .insert(p, vec![3]),
        Transaction::new().insert(q, vec![1]),
    ];
    for (step, tx) in txs.iter().enumerate() {
        let ea = auto.append(tx).unwrap();
        assert_eq!(ea, sym.append(tx).unwrap(), "step {step}");
        assert_eq!(auto.status(a), sym.status(a), "step {step}");
    }
    assert_eq!(auto.status(a), ticc::core::Status::Violated { at: 4 });
    let s = auto.stats();
    assert!(s.templates_compiled >= 1, "context decompiled: {s:?}");
    assert!(s.sat_checks >= 1, "the joint test never ran: {s:?}");
}

/// Snapshot round trip under the compiled default: the restored engine
/// resumes u32-state stepping and stays in lockstep with the writer
/// and with a never-snapshotted reference twin.
#[test]
fn snapshot_roundtrip_stays_in_lockstep() {
    let sc = schema();
    let mut rng = Rng::seed_from_u64(0x54a9);
    let mut fwd = Engine::new(sc.clone(), CheckOptions::default());
    let mut reference = Engine::new(sc.clone(), CheckOptions::reference());
    for (i, phi) in [ONCE_ONLY, PAIR_ONCE, CAP, PAIR_GUARD, PAIR_NEXT]
        .iter()
        .enumerate()
    {
        let phi = parse(&sc, phi).unwrap();
        fwd.add_constraint(format!("c{i}"), phi.clone()).unwrap();
        reference.add_constraint(format!("c{i}"), phi).unwrap();
    }
    let mut drv = Driver::new(6, 0.3);
    for _ in 0..6 {
        let tx = drv.step(&sc, &mut rng);
        assert_eq!(fwd.append(&tx).unwrap(), reference.append(&tx).unwrap());
    }
    let bytes = fwd.snapshot_bytes(&[]);
    let (mut back, _) = Engine::restore_bytes(&bytes, CheckOptions::default()).unwrap();
    assert_eq!(
        fwd.stats().templates_compiled,
        back.stats().templates_compiled
    );
    assert!(back.stats().templates_compiled >= 1, "{:?}", back.stats());
    for step in 0..8 {
        let tx = drv.step(&sc, &mut rng);
        let a = fwd.append(&tx).unwrap();
        let b = back.append(&tx).unwrap();
        assert_eq!(a, b, "step {step}: restored engine diverges");
        assert_eq!(a, reference.append(&tx).unwrap(), "step {step}: reference");
    }
    for id in fwd.constraints() {
        assert_eq!(fwd.status(id), back.status(id));
        assert_eq!(fwd.status(id), reference.status(id));
    }
    assert_eq!(
        fwd.stats().automaton_appends,
        back.stats().automaton_appends
    );
    assert_eq!(fwd.stats().automaton_steps, back.stats().automaton_steps);
}

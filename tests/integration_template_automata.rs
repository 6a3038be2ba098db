//! Template automata — u32-state stepping through shared, lazily
//! built machines must be observationally *identical* to the
//! reference's symbolic progression, not merely equivalent.
//!
//! Production hash-conses isomorphic residues onto one template
//! machine, discovers each template's states as runs reach them
//! (progressing and labelling a state once, memoising its edges), and
//! advances every instantiation through that memo with the phase-2
//! verdict labelled per state. Both halves are pure shortcuts: the
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
//! (`templates_compiled < instantiations`), lazy discovery of a
//! template too large to enumerate, units sharing letters (staying
//! compiled, with the joint phase-2 test deciding an odd cycle no
//! single unit can see), and snapshot round-trip lockstep.

mod common;

use common::{
    constraint_steps, schema, sweep, triggers_agree_with_reference, Driver, CAP, ONCE_ONLY,
    PAIR_GUARD, PAIR_NEXT, PAIR_ONCE,
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
        // One stepping mechanism: every production constraint-step
        // runs on template automata, with no symbolic progression.
        assert_eq!(sa.progress_steps, 0, "seed {seed}");
        assert_eq!(
            sa.automaton_appends,
            constraint_steps(auto, ids),
            "seed {seed}: a constraint-step left the templates"
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

/// `forall x. G (Sub(x) -> (X Fill(x) | … | X^8 Fill(x)))`: a
/// bounded-response constraint whose template has far more states than
/// any run reaches. Production discovers only the reached ones and
/// stays on template automata for every append, event for event with
/// the reference, over 64 ids.
const DEADLINE: &str = "forall x. G (Sub(x) -> (X Fill(x) | X X Fill(x) | X X X Fill(x) \
     | X X X X Fill(x) | X X X X X Fill(x) | X X X X X X Fill(x) \
     | X X X X X X X Fill(x) | X X X X X X X X Fill(x)))";

#[test]
fn deadline_runs_on_templates_and_matches_the_reference() {
    let sc = ticc::tdb::Schema::builder()
        .pred("Sub", 1)
        .pred("Fill", 1)
        .build();
    let sub = sc.pred("Sub").unwrap();
    let fill = sc.pred("Fill").unwrap();
    let phi = parse(&sc, DEADLINE).unwrap();
    let mut violating_runs = 0;
    for seed in 0..5u64 {
        let mut rng = Rng::seed_from_u64(0xdead ^ seed);
        let mut auto = Engine::new(sc.clone(), CheckOptions::default());
        let mut reference = Engine::new(sc.clone(), CheckOptions::reference());
        let id = auto.add_constraint("deadline", phi.clone()).unwrap();
        reference.add_constraint("deadline", phi.clone()).unwrap();
        // Submit a fresh id each instant; fill each one `lag` instants
        // later, where `lag` is 1–8 (in time) or, in the last seeds,
        // occasionally 9 (too late).
        let late = seed >= 3;
        let mut due: Vec<(usize, u64)> = Vec::new();
        for t in 0..96usize {
            let id_now = (t % 64) as u64;
            let mut tx = Transaction::new();
            for &(_, v) in due.iter().filter(|(at, _)| *at == t) {
                tx = tx.insert(fill, vec![v]);
            }
            if t > 0 {
                tx = tx.delete(sub, vec![((t - 1) % 64) as u64]);
            }
            for &(_, v) in due.iter().filter(|(at, _)| *at + 1 == t) {
                tx = tx.delete(fill, vec![v]);
            }
            tx = tx.insert(sub, vec![id_now]);
            let lag = if late && rng.gen_bool(0.05) {
                9
            } else {
                rng.gen_range_usize(1..9)
            };
            due.push((t + lag, id_now));
            let a = auto.append(&tx).unwrap();
            let b = reference.append(&tx).unwrap();
            assert_eq!(a, b, "seed {seed} t {t}");
            assert_eq!(auto.status(id), reference.status(id), "seed {seed} t {t}");
        }
        let s = auto.stats();
        assert_eq!(s.progress_steps, 0, "seed {seed}: {s:?}");
        assert_eq!(
            s.automaton_appends,
            constraint_steps(&auto, &[id]),
            "seed {seed}"
        );
        if auto.status(id) == ticc::core::Status::Satisfied {
            assert!(s.automaton_insts >= 64, "seed {seed}: {s:?}");
        } else {
            violating_runs += 1;
        }
    }
    assert!(violating_runs >= 1, "no seed violates");
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
    assert!(s.templates_compiled >= 1, "no template bound: {s:?}");
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
    assert!(s.templates_compiled >= 1, "no template bound: {s:?}");
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
    // The restored templates keep discovering states exactly as the
    // writer's do.
    assert_eq!(fwd.stats().automaton_states, back.stats().automaton_states);
}

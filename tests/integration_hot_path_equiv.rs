//! Append hot path equivalence — incremental letter encoding plus the
//! safety-automaton transition cache must be observationally
//! *identical* to the reference's full re-encode and re-progression,
//! not merely equivalent.
//!
//! Production patches the previous propositional state in place from
//! the transaction and skips progression (and usually phase 2)
//! whenever a `(residue, support-fingerprint)` pair recurs. Both are
//! pure shortcuts: the patched state must equal a full re-encode, and
//! a cached transition must land on the same residue and verdict the
//! progression pipeline would compute. A one-state
//! `automaton_state_budget` compiles no template, so every context
//! takes this symbolic hot path instead of a compiled automaton. This
//! suite sweeps 120 randomized staggered sessions (fresh elements
//! arriving mid-stream — so delta re-grounding interleaves with the
//! hot path — plus deletions and re-submissions) through three engines
//! fed identical transactions:
//!
//! - **hot** — production at a one-state automaton budget,
//! - **reference** — `CheckOptions::reference()`,
//! - **hot ∥ 4** — the hot configuration under `Threads::Fixed(4)`,
//!
//! and asserts bit-identical event streams, per-append statuses,
//! earliest-violation instants, and trigger firings — plus
//! non-vacuity: the sweep must actually take transition hits, patch
//! letters incrementally, and delta re-ground.

mod common;

use common::{sweep, triggers_agree_with_reference};
use ticc::core::{CheckOptions, Threads};

fn hot(threads: Threads) -> CheckOptions {
    CheckOptions::builder()
        .threads(threads)
        .automaton_state_budget(1)
        .build()
}

#[test]
fn hot_and_rebuild_agree_on_randomized_sessions() {
    let configs = [
        hot(Threads::Off),
        CheckOptions::reference(),
        hot(Threads::Fixed(4)),
    ];
    let mut total_hits = 0u64;
    let mut total_patched = 0u64;
    let mut total_delta = 0u64;
    let violating_runs = sweep(0x5d07, &configs, 6, 0.3, 6..14, |seed, engines, ids| {
        let [hot, reference, par] = engines else {
            unreachable!()
        };
        // Incremental letter patching interns exactly the letters a
        // rebuild would: the pooled engine grounds bit-identically, and
        // the reference's odometer covers the same `|M|` and `|M|^k`.
        for id in ids {
            let gh = hot.context(*id).grounding().stats();
            assert_eq!(gh, par.context(*id).grounding().stats(), "seed {seed}");
            let gr = reference.context(*id).grounding().stats();
            assert_eq!(gh.m_size, gr.m_size, "seed {seed}: |M| for {id:?}");
            assert_eq!(gh.mappings, gr.mappings, "seed {seed}: |M|^k for {id:?}");
        }

        // The caches only ever *remove* work from the hot side.
        let (sh, sr, sp) = (hot.stats(), reference.stats(), par.stats());
        assert_eq!(sh.appends, sr.appends, "seed {seed}");
        assert_eq!(sh.grounds, sr.grounds, "seed {seed}");
        assert!(sh.sat_checks <= sr.sat_checks, "seed {seed}");
        assert_eq!(sr.encode_patched_atoms, 0, "seed {seed}: reference patches");
        assert_eq!(
            sr.cache.transition_hits + sr.cache.transition_misses,
            0,
            "seed {seed}: reference consults the cache"
        );
        // No template fits a one-state budget.
        assert_eq!(sh.templates_compiled, 0, "seed {seed}");
        assert_eq!(sh.automaton_steps, 0, "seed {seed}");
        // Worker-local caches: the parallel hot engine behaves exactly
        // like the sequential one, hit for hit.
        assert_eq!(
            sh.cache.transition_hits, sp.cache.transition_hits,
            "seed {seed}"
        );
        assert_eq!(
            sh.encode_patched_atoms, sp.encode_patched_atoms,
            "seed {seed}"
        );
        assert_eq!(sh.sat_checks, sp.sat_checks, "seed {seed}");
        total_hits += sh.cache.transition_hits;
        total_patched += sh.encode_patched_atoms;
        total_delta += sh.delta_grounds;
    });
    // Non-vacuity: the sweep must exercise every shortcut it claims to
    // verify, and produce real violations.
    assert!(total_hits > 0, "no transition cache hits across the sweep");
    assert!(total_patched > 0, "no incremental letter patches");
    assert!(total_delta > 0, "no delta re-grounds");
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

#[test]
fn trigger_engine_agrees_hot_vs_rebuild() {
    triggers_agree_with_reference(0x30c1, hot(Threads::Off));
}

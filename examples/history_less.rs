//! History-less checking of past constraints (the Section 5 thread).
//!
//! For `∀*□ψ` constraints with past connectives in `ψ`, potential
//! satisfaction needs no stored history: the grounding rewrites each
//! past subformula `●D` into an internal letter `ℓ` with the future
//! definition `¬ℓ ∧ □(○ℓ ↔ D)` (Chomicki's auxiliary-relation device,
//! ICDE 1992), so a unit's template state carries everything the past
//! contributes, and the engine runs the constraint like any other.
//! Under a `HistoryBudget::Window` it keeps only a window of states in
//! memory.
//!
//! The audit constraint here: *every filled order was submitted at some
//! point in the past* — `∀x □(Fill(x) → ◈Sub(x))`.
//!
//! Run with: `cargo run --example history_less`

use ticc::core::{CheckOptions, Engine, HistoryBudget, Status};
use ticc::fotl::parser::parse;
use ticc::tdb::{Schema, Transaction};

fn main() {
    let schema = Schema::builder().pred("Sub", 1).pred("Fill", 1).build();
    let (sub, fill) = (schema.pred("Sub").unwrap(), schema.pred("Fill").unwrap());
    let text = "forall x. G (Fill(x) -> O Sub(x))";
    println!("constraint: {text}   [past matrix]");

    let opts = CheckOptions::builder()
        .history_budget(HistoryBudget::Window(8))
        .build();
    let mut engine = Engine::new(schema.clone(), opts);
    let id = engine
        .add_constraint("audit", parse(&schema, text).unwrap())
        .unwrap();

    let mut tx = |subs: &[u64], fills: &[u64]| {
        let mut t = Transaction::new();
        for &v in subs {
            t = t.insert(sub, vec![v]);
        }
        for &v in fills {
            t = t.insert(fill, vec![v]);
        }
        engine.append(&t).unwrap();
        engine.status(id)
    };
    let stream: [(&[u64], &[u64]); 6] = [
        (&[1], &[]),
        (&[2], &[1]),
        (&[3], &[2]),
        (&[], &[3]),
        (&[4], &[]),
        (&[], &[4]),
    ];
    for (t, (subs, fills)) in stream.iter().enumerate() {
        let status = tx(subs, fills);
        println!("t={t}: +Sub{subs:?} +Fill{fills:?}  status = {status:?}");
    }

    // A long quiet period: the resident history stays within the
    // window, however many instants pass.
    for _ in 0..1_000 {
        engine.append(&Transaction::new()).unwrap();
    }
    let h = engine.history();
    let stats = engine.stats();
    println!(
        "\nafter 1000 more (empty) instants: {} instants, {} resident in memory, \
         {} spilled as {} distinct page(s)",
        h.len(),
        h.len() - h.base(),
        stats.history.spilled_instants,
        stats.history.spilled_distinct,
    );
    println!(
        "(the spill tier still keeps a 4-byte page index per spilled instant, \
         {} bytes here, until recovery stops replaying the cold prefix)",
        4 * stats.history.spilled_instants
    );

    // Now an audit failure: order 99 filled without ever being submitted.
    let status = {
        let t = Transaction::new().insert(fill, vec![99]);
        engine.append(&t).unwrap();
        engine.status(id)
    };
    match status {
        Status::Violated { at } => println!(
            "\nFill(99) without a prior Sub(99): VIOLATED at history length {at} \
             (decided from the units' template states, no history replay)"
        ),
        Status::Satisfied => unreachable!("Fill(99) has no prior Sub(99)"),
    }
}

//! Quickstart: register the paper's "an order can be submitted only
//! once" constraint and watch the monitor catch a violation at the
//! earliest possible moment.
//!
//! Run with: `cargo run --example quickstart`

use ticc::prelude::*;

fn main() {
    // Vocabulary: Sub(x) — "order x was submitted at this instant",
    //             Fill(x) — "order x was filled at this instant".
    let schema = Schema::builder().pred("Sub", 1).pred("Fill", 1).build();
    let sub = schema.pred("Sub").unwrap();
    let fill = schema.pred("Fill").unwrap();

    // The paper's first example constraint (Section 2):
    //     ∀x □(Sub(x) ⇒ ○□¬Sub(x))
    let phi = parse(&schema, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
    println!("constraint: forall x. G (Sub(x) -> X G !Sub(x))");

    let mut monitor = Engine::new(schema.clone(), CheckOptions::default());
    let id = monitor.add_constraint("submitted-once", phi).unwrap();

    // A little order-processing session. Each transaction produces the
    // next database state (events are cleared before the next instant).
    let steps: Vec<(&str, Transaction)> = vec![
        ("submit #1", Transaction::new().insert(sub, vec![1])),
        (
            "fill #1",
            Transaction::new()
                .delete(sub, vec![1])
                .insert(fill, vec![1]),
        ),
        (
            "submit #2",
            Transaction::new()
                .delete(fill, vec![1])
                .insert(sub, vec![2]),
        ),
        (
            "re-submit #1 (violation!)",
            Transaction::new().delete(sub, vec![2]).insert(sub, vec![1]),
        ),
        ("more work", Transaction::new().delete(sub, vec![1])),
    ];

    for (label, tx) in steps {
        let events = monitor.append(&tx).unwrap();
        let t = monitor.history().len() - 1;
        println!(
            "t={t}: {label:<28} state = {}",
            monitor.history().state(t).display()
        );
        for e in events {
            println!(
                "      *** constraint '{}' violated — no extension of the \
                 first {} states can satisfy it",
                e.name, e.at
            );
        }
    }

    match monitor.status(id) {
        Status::Violated { at } => {
            println!("\nfinal status: VIOLATED (unavoidable after {at} states)")
        }
        Status::Satisfied => println!("\nfinal status: potentially satisfied"),
    }
    let s = monitor.stats();
    println!(
        "engine stats: {} fast appends, {} delta regrounds, {} sat checks ({} cached)",
        s.fast_appends, s.delta_grounds, s.sat_checks, s.cache.sat_hits
    );
}

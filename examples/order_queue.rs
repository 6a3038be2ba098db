//! The paper's FIFO constraint on a generated customer-order workload.
//!
//! Section 2's second example: *"orders should be filled in the order
//! that they are submitted"*:
//!
//! ```text
//! ∀x∀y □¬( x ≠ y ∧ Sub(x) ∧
//!          ((¬Fill(x)) U (Sub(y) ∧ ((¬Fill(x)) U (Fill(y) ∧ ¬Fill(x))))) )
//! ```
//!
//! We generate a reproducible order stream, inject an out-of-order fill
//! halfway, and let the checker find the earliest violated prefix.
//!
//! Run with: `cargo run --example order_queue`

use ticc::prelude::{check_potential_satisfaction, earliest_violation, parse, CheckOptions};
use ticc::tdb::workload::{OrderViolation, OrderWorkload};

const FIFO: &str = "forall x y. G !(x != y & Sub(x) & \
                   ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))";

fn main() {
    let schema = OrderWorkload::schema();
    let phi = parse(&schema, FIFO).unwrap();
    println!("constraint: {FIFO}\n");

    // A clean FIFO workload.
    let clean = OrderWorkload {
        instants: 14,
        submit_prob: 0.7,
        fill_prob: 0.5,
        violation: None,
        seed: 42,
    }
    .generate();
    let out = check_potential_satisfaction(&clean, &phi, &CheckOptions::default()).unwrap();
    println!(
        "clean workload ({} states, {} relevant orders): potentially satisfied = {}",
        clean.len(),
        clean.relevant().len(),
        out.potentially_satisfied
    );
    println!(
        "  grounding: |M| = {}, {} instances, formula tree size {}",
        out.stats.ground.m_size, out.stats.ground.mappings, out.stats.ground.formula_tree_size
    );

    // Same stream with an out-of-order fill injected at instant 7.
    let dirty = OrderWorkload {
        instants: 14,
        submit_prob: 0.7,
        fill_prob: 0.5,
        violation: Some((OrderViolation::OutOfOrderFill, 7)),
        seed: 42,
    }
    .generate();
    for (t, s) in dirty.states().iter().enumerate() {
        println!("t={t:<2} {}", s.display());
    }
    let out = check_potential_satisfaction(&dirty, &phi, &CheckOptions::default()).unwrap();
    println!(
        "\ninjected out-of-order fill: potentially satisfied = {}",
        out.potentially_satisfied
    );
    if !out.potentially_satisfied {
        let at = earliest_violation(&dirty, &phi)
            .unwrap()
            .expect("violated overall, so some prefix is violated");
        println!(
            "earliest violated prefix: first {at} states \
             (the fill at t={} made the FIFO breach unavoidable)",
            at - 1
        );
    }
}

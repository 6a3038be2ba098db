//! Allocation count of the steady append path. A thread-local counting
//! global allocator compares the heap allocations of steady churn
//! appends on an engine checking the four-constraint order suite with
//! those of the same appends on an engine with no constraints: the
//! constraint sweep (net effect, fact lookups, memoised encoding,
//! template stepping, decision, window truncation) must add none.
//!
//! Each integration test file is its own binary, so the allocator here
//! counts only this file's tests; the counter is per thread, so tests
//! running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use ticc::core::{CheckOptions, Engine, HistoryBudget};
use ticc::fotl::parser::parse;
use ticc::tdb::{Schema, Transaction, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only bumps a
// thread-local `Cell<u64>`, which neither allocates nor panics
// (`try_with` skips the count while the thread is torn down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The order suite of the steady benchmark: FIFO fills, a response
/// obligation, a past-shaped constraint in future form, and a cap on
/// one order id (a constant).
const SUITE: [(&str, &str); 4] = [
    (
        "fifo",
        "forall x y. G !(x != y & Sub(x) & \
         ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))",
    ),
    ("resp", "forall x. G (Sub(x) -> X Fill(x))"),
    ("past", "forall x. !Fill(x) & G (!Sub(x) -> X !Fill(x))"),
    ("cap", "G !Sub(999)"),
];

/// Order ids in the churn.
const DOMAIN: Value = 8;
/// History window: truncation every 65 appends once warm.
const WINDOW: usize = 64;
/// Appends before counting: past the first truncation, so the
/// valuation buffers it frees are in circulation.
const WARM: usize = 2_000;
/// Appends counted.
const COUNTED: usize = 10_000;

fn schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
}

/// Steady submit→fill churn: step `i` submits order `v_i`, fills
/// `v_{i-1}` and retracts the facts of the step before. Consecutive
/// ids differ, so every state satisfies the whole suite.
fn churn(sc: &Schema, n: usize) -> Vec<Transaction> {
    let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
    let id = |i: usize| (i as Value * 5) % DOMAIN + 1;
    (0..n)
        .map(|i| {
            let mut tx = Transaction::new();
            if i >= 1 {
                tx = tx
                    .delete(sub, vec![id(i - 1)])
                    .insert(fill, vec![id(i - 1)]);
            }
            if i >= 2 {
                tx = tx.delete(fill, vec![id(i - 2)]);
            }
            tx.insert(sub, vec![id(i)])
        })
        .collect()
}

/// Allocations made by the counted appends of `engine`, after the
/// warm-up appends.
fn counted_allocations(mut engine: Engine, txs: &[Transaction]) -> u64 {
    let (warm, counted) = txs.split_at(WARM);
    for tx in warm {
        assert!(engine.append(tx).unwrap().is_empty());
    }
    assert!(engine.history().base() > 0, "the warm-up truncates");
    let before = allocations();
    for tx in counted {
        let events = engine.append(tx).unwrap();
        assert!(events.is_empty());
    }
    let made = allocations() - before;
    drop(engine);
    made
}

#[test]
fn the_constraint_sweep_allocates_nothing_on_steady_appends() {
    let sc = schema();
    let txs = churn(&sc, WARM + COUNTED);
    let opts = CheckOptions::builder()
        .history_budget(HistoryBudget::Window(WINDOW))
        .build();
    let bare = counted_allocations(Engine::new(sc.clone(), opts), &txs);
    let mut checked = Engine::new(sc.clone(), opts);
    for (name, src) in SUITE {
        checked
            .add_constraint(name, parse(&sc, src).unwrap())
            .unwrap();
    }
    let suite = counted_allocations(checked, &txs);
    assert!(bare > 0, "the history itself allocates per append");
    assert_eq!(
        suite,
        bare,
        "the constraint sweep made {} extra allocations over {COUNTED} steady appends",
        suite as i64 - bare as i64
    );
}

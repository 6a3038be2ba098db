//! The order schema (`Sub/1`, `Fill/1`), the constraint suites, and the
//! seeded traffic generators every workload draws from.
//!
//! Transactions are built as plain fact lists ([`Tx`]) so the same
//! stream can be applied in-process ([`Tx::to_engine`]) or sent as a
//! `ticc-wire-v1` request ([`Tx::to_wire`]).

use std::collections::HashSet;
use std::sync::Arc;

use ticc_tdb::{Schema, Transaction};

use crate::stats::Rng;

pub const FIFO: &str = "forall x y. G !(x != y & Sub(x) & \
                        ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))";
pub const RESP: &str = "forall x. G (Sub(x) -> X Fill(x))";
/// `forall x. G (Fill(x) -> Y Sub(x))` ("a fill answers the submission
/// of the previous instant") in future form: the engine accepts future
/// connectives only, and this sentence holds on exactly the same
/// histories.
pub const PAST: &str = "forall x. !Fill(x) & G (!Sub(x) -> X !Fill(x))";
pub const CAP: &str = "G !Sub(999)";
pub const ONCE: &str = "forall x. G (Sub(x) -> X G !Sub(x))";

/// The `steady_orders` suite, also carried by every served tenant.
pub const STEADY_SUITE: [(&str, &str); 4] =
    [("fifo", FIFO), ("resp", RESP), ("past", PAST), ("cap", CAP)];

/// The `domain_growth` suite.
pub const GROWTH_SUITE: [(&str, &str); 2] = [("once", ONCE), ("fifo", FIFO)];

/// The order id `cap` forbids; never drawn by a generator.
pub const FORBIDDEN: u64 = 999;

pub fn order_schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pred {
    Sub,
    Fill,
}

impl Pred {
    fn name(self) -> &'static str {
        match self {
            Pred::Sub => "Sub",
            Pred::Fill => "Fill",
        }
    }
}

/// One transaction as fact lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tx {
    pub insert: Vec<(Pred, u64)>,
    pub delete: Vec<(Pred, u64)>,
}

impl Tx {
    fn ins(mut self, p: Pred, v: u64) -> Self {
        self.insert.push((p, v));
        self
    }

    fn del(mut self, p: Pred, v: u64) -> Self {
        self.delete.push((p, v));
        self
    }

    pub fn to_engine(&self, schema: &Schema) -> Transaction {
        let pid = |p: Pred| schema.pred(p.name()).expect("order schema");
        let mut tx = Transaction::new();
        for &(p, v) in &self.delete {
            tx = tx.delete(pid(p), vec![v]);
        }
        for &(p, v) in &self.insert {
            tx = tx.insert(pid(p), vec![v]);
        }
        tx
    }

    /// The transaction's `"insert":[…],"delete":[…]` request fields.
    pub fn wire_fields(&self) -> String {
        let facts = |list: &[(Pred, u64)]| {
            list.iter()
                .map(|(p, v)| format!("\"{}({v})\"", p.name()))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            r#""insert":[{}],"delete":[{}]"#,
            facts(&self.insert),
            facts(&self.delete)
        )
    }

    /// The `append` request for `session`.
    pub fn to_wire(&self, session: &str) -> String {
        format!(
            r#"{{"op":"append","session":"{session}",{}}}"#,
            self.wire_fields()
        )
    }
}

/// Steady submit→fill churn over a fixed domain of `d` order ids.
///
/// Step `i` submits `v_i` and fills `v_{i-1}` (retracting the facts of
/// the step before), with `v_i` drawn from the domain and never equal
/// to `v_{i-1}`. Every state is `{Sub(v_i), Fill(v_{i-1})}`, which all
/// four constraints of [`STEADY_SUITE`] accept: each order is filled
/// exactly one instant after it is submitted, in submission order.
#[derive(Clone, Debug)]
pub struct Churn {
    domain: Vec<u64>,
    prev: Option<u64>,
    prevprev: Option<u64>,
    rng: Rng,
}

impl Churn {
    /// `d >= 3` distinct ids in `1..1000`, none of them [`FORBIDDEN`].
    pub fn new(rng: Rng, d: usize) -> Self {
        assert!(d >= 3, "the violation plans need three ids");
        let mut rng = rng;
        let mut domain = Vec::with_capacity(d);
        while domain.len() < d {
            let v = 1 + rng.below(998);
            if v != FORBIDDEN && !domain.contains(&v) {
                domain.push(v);
            }
        }
        Churn {
            domain,
            prev: None,
            prevprev: None,
            rng,
        }
    }

    fn pick(&mut self, not: &[Option<u64>]) -> u64 {
        loop {
            let v = self.domain[self.rng.below(self.domain.len() as u64) as usize];
            if !not.contains(&Some(v)) {
                return v;
            }
        }
    }

    fn fill_step(&self) -> Tx {
        let mut tx = Tx::default();
        if let Some(p) = self.prev {
            tx = tx.del(Pred::Sub, p).ins(Pred::Fill, p);
        }
        if let Some(pp) = self.prevprev {
            tx = tx.del(Pred::Fill, pp);
        }
        tx
    }

    pub fn next_tx(&mut self) -> Tx {
        let v = self.pick(&[self.prev]);
        let tx = self.fill_step().ins(Pred::Sub, v);
        self.prevprev = self.prev;
        self.prev = Some(v);
        tx
    }

    /// The final transaction, violating exactly `plan`'s constraint.
    /// Needs at least two steps of history.
    pub fn violation(&mut self, plan: SteadyViolation) -> Tx {
        let (Some(prev), Some(prevprev)) = (self.prev, self.prevprev) else {
            panic!("a violation plan needs two steps of churn first");
        };
        match plan {
            // An ordinary step that also submits the forbidden id.
            SteadyViolation::Cap => self.next_tx().ins(Pred::Sub, FORBIDDEN),
            // Retract the open submission without filling it.
            SteadyViolation::Resp => Tx::default().del(Pred::Sub, prev).del(Pred::Fill, prevprev),
            // Fill the open submission, plus one order that was not
            // submitted at the previous instant.
            SteadyViolation::Past => {
                let u = self.pick(&[Some(prev), Some(prevprev)]);
                self.fill_step().ins(Pred::Fill, u)
            }
        }
    }
}

/// Which `STEADY_SUITE` constraint a run's final append violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SteadyViolation {
    Cap,
    Resp,
    Past,
}

impl SteadyViolation {
    pub const ALL: [SteadyViolation; 3] = [Self::Cap, Self::Resp, Self::Past];

    /// A seeded choice among `plans`.
    pub fn pick(rng: &mut Rng, plans: &[SteadyViolation]) -> Self {
        plans[rng.below(plans.len() as u64) as usize]
    }

    pub fn constraint(self) -> &'static str {
        match self {
            Self::Cap => "cap",
            Self::Resp => "resp",
            Self::Past => "past",
        }
    }
}

/// Domain growth: every [`GROWTH_PERIOD`]th step submits a never-seen
/// order id, the next step fills it, and the steps between re-fill a
/// random earlier order (keeping `R_D` fixed; these mostly miss the
/// transition cache). Accepted by [`GROWTH_SUITE`]: every id is
/// submitted once and filled at the next instant, and a re-fill never
/// overtakes an open submission.
#[derive(Clone, Debug)]
pub struct Growth {
    rng: Rng,
    step: u64,
    seen: HashSet<u64>,
    filled: Vec<u64>,
    fill: Option<u64>,
    open: Option<u64>,
}

/// Steps per new order id: `|R_D|` grows by one per period.
pub const GROWTH_PERIOD: u64 = 10;

impl Growth {
    pub fn new(rng: Rng) -> Self {
        Growth {
            rng,
            step: 0,
            seen: HashSet::new(),
            filled: Vec::new(),
            fill: None,
            open: None,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        loop {
            let v = 1 + self.rng.below(1_000_000);
            if v != FORBIDDEN && self.seen.insert(v) {
                return v;
            }
        }
    }

    /// Retracts the current re-fill fact, if any.
    fn clear_fill(&mut self) -> Tx {
        match self.fill.take() {
            Some(f) => Tx::default().del(Pred::Fill, f),
            None => Tx::default(),
        }
    }

    pub fn next_tx(&mut self) -> Tx {
        let phase = self.step % GROWTH_PERIOD;
        self.step += 1;
        match phase {
            0 => {
                let n = self.fresh_id();
                self.open = Some(n);
                self.clear_fill().ins(Pred::Sub, n)
            }
            1 => {
                let n = self.open.take().expect("submitted at phase 0");
                self.filled.push(n);
                self.fill = Some(n);
                Tx::default().del(Pred::Sub, n).ins(Pred::Fill, n)
            }
            // Re-fill a random earlier order: a two-fact delta that
            // keeps `R_D` fixed.
            _ => {
                let cur = self.fill;
                if self.filled.len() < 2 {
                    return self.clear_fill();
                }
                let u = loop {
                    let u = self.filled[self.rng.below(self.filled.len() as u64) as usize];
                    if Some(u) != cur {
                        break u;
                    }
                };
                let tx = self.clear_fill().ins(Pred::Fill, u);
                self.fill = Some(u);
                tx
            }
        }
    }

    /// The closing transactions: only the last one violates, and it
    /// violates exactly `plan`'s constraint. Call at a period boundary.
    pub fn violation(&mut self, plan: GrowthViolation) -> Vec<Tx> {
        assert_eq!(self.step % GROWTH_PERIOD, 0, "call at a period boundary");
        assert!(!self.filled.is_empty(), "needs one filled order");
        match plan {
            // Re-submit an order that was already submitted once.
            GrowthViolation::Once => {
                let u = self.filled[self.rng.below(self.filled.len() as u64) as usize];
                vec![self.clear_fill().ins(Pred::Sub, u)]
            }
            // Submit a and b together, then fill b while a waits.
            GrowthViolation::Fifo => {
                let (a, b) = (self.fresh_id(), self.fresh_id());
                vec![
                    self.clear_fill().ins(Pred::Sub, a).ins(Pred::Sub, b),
                    Tx::default()
                        .del(Pred::Sub, a)
                        .del(Pred::Sub, b)
                        .ins(Pred::Fill, b),
                ]
            }
        }
    }
}

/// Which `GROWTH_SUITE` constraint a lap's final append violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthViolation {
    Once,
    Fifo,
}

impl GrowthViolation {
    pub fn pick(rng: &mut Rng) -> Self {
        if rng.below(2) == 0 {
            Self::Once
        } else {
            Self::Fifo
        }
    }

    pub fn constraint(self) -> &'static str {
        match self {
            Self::Once => "once",
            Self::Fifo => "fifo",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_reproducible_per_seed() {
        let mut a = Churn::new(Rng::new(5), 8);
        let mut b = Churn::new(Rng::new(5), 8);
        let mut c = Churn::new(Rng::new(6), 8);
        let (xa, xb, xc): (Vec<Tx>, Vec<Tx>, Vec<Tx>) = (
            (0..50).map(|_| a.next_tx()).collect(),
            (0..50).map(|_| b.next_tx()).collect(),
            (0..50).map(|_| c.next_tx()).collect(),
        );
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn growth_adds_one_id_per_period() {
        let mut g = Growth::new(Rng::new(1));
        for _ in 0..10 * GROWTH_PERIOD {
            g.next_tx();
        }
        assert_eq!(g.seen.len(), 10);
        assert_eq!(g.filled.len(), 10);
    }

    #[test]
    fn wire_form_lists_facts() {
        let tx = Tx::default().ins(Pred::Sub, 3).del(Pred::Fill, 2);
        assert_eq!(
            tx.to_wire("t0"),
            r#"{"op":"append","session":"t0","insert":["Sub(3)"],"delete":["Fill(2)"]}"#
        );
    }
}

//! History-less checking of past constraints (Section 5 / future work).
//!
//! Section 5 of the paper discusses *Past FOTL* (Chomicki, ICDE 1992) and
//! *history-less* constraint evaluation: methods whose cost does not
//! depend on the length of the database history. For constraints of the
//! form `∀x1 … xk □ψ` with `ψ` a **past**, quantifier-free formula, this
//! is achievable exactly — and, by Proposition 2.1, every such formula
//! defines a safety property, so potential satisfaction coincides with
//! "ψ has held at every instant so far":
//!
//! * the truth of every subformula of `ψ` at instant `t` is a function
//!   of its truth at `t-1` and the current state (the `since`/`●`
//!   recurrences), so only one vector of booleans per ground
//!   substitution needs to be carried — **no history is stored**;
//! * substitutions range over the elements seen so far plus `k`
//!   symbolic fresh elements (the `z1 … zk` genericity device of
//!   Theorem 4.1): unseen elements are interchangeable, so when an
//!   element first appears its substitution states are cloned from the
//!   corresponding fresh pattern.
//!
//! Per-append cost is `O((|seen|+k)^k · |ψ|)`; memory is independent of
//! `t`. Cross-checked against the reference evaluator
//! (`ticc_fotl::eval`) in the tests.

use crate::error::Error;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use ticc_fotl::classify::external_prefix;
use ticc_fotl::{Atom, Formula, Term};
use ticc_tdb::{Schema, State, Value};

/// A ground element for substitution: seen value or symbolic fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum GElem {
    Seen(Value),
    Fresh(usize),
}

/// Status of the monitored constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PastStatus {
    /// `ψ` has held at every instant so far.
    Satisfied,
    /// `ψ` failed at the recorded instant (0-based); by safety, the
    /// violation is permanent.
    Violated {
        /// The instant at which `ψ` first failed.
        at: usize,
    },
}

/// Indexed subformula DAG of the matrix.
struct SubIndex {
    /// Subformulas in topological (children-first) order.
    subs: Vec<Formula>,
    /// Formula → index.
    index: HashMap<Formula, usize>,
    /// Index of the matrix itself.
    root: usize,
}

impl SubIndex {
    fn build(matrix: &Formula) -> Self {
        let mut s = Self {
            subs: Vec::new(),
            index: HashMap::new(),
            root: 0,
        };
        s.root = s.add(matrix);
        s
    }

    fn add(&mut self, f: &Formula) -> usize {
        if let Some(&i) = self.index.get(f) {
            return i;
        }
        for c in f.children() {
            self.add(c);
        }
        let i = self.subs.len();
        self.subs.push(f.clone());
        self.index.insert(f.clone(), i);
        i
    }
}

/// The history-less monitor for one `∀x1 … xk □ψ` past constraint.
pub struct PastMonitor {
    schema: Arc<Schema>,
    consts: Vec<Value>,
    vars: Vec<String>,
    index: SubIndex,
    /// Per-substitution subformula truth vector at the previous instant.
    states: HashMap<Vec<GElem>, Vec<bool>>,
    seen: BTreeSet<Value>,
    t: usize,
    status: PastStatus,
}

impl PastMonitor {
    /// Compiles a `∀* □ψ` constraint (`ψ` past, quantifier-free).
    ///
    /// `const_values` interprets the schema's constant symbols (rigid).
    pub fn new(
        schema: Arc<Schema>,
        const_values: Vec<Value>,
        phi: &Formula,
    ) -> Result<Self, Error> {
        assert_eq!(const_values.len(), schema.const_count());
        let (vars, body) = external_prefix(phi);
        let vars: Vec<String> = vars.into_iter().map(str::to_owned).collect();
        // □ψ desugars to ¬(⊤ U ¬ψ): recognise that shape.
        let matrix = match body {
            Formula::Not(u) => match u.as_ref() {
                Formula::Until(t, nf) if **t == Formula::True => match nf.as_ref() {
                    Formula::Not(inner) => inner.as_ref().clone(),
                    other => other.clone().not(),
                },
                _ => return Err(Error::UnsupportedShape("expected □ψ after the ∀ prefix")),
            },
            _ => return Err(Error::UnsupportedShape("expected □ψ after the ∀ prefix")),
        };
        if !matrix.is_past() {
            return Err(Error::UnsupportedShape("matrix must be a past formula"));
        }
        if !matrix.is_quantifier_free() {
            return Err(Error::UnsupportedShape("matrix must be quantifier-free"));
        }
        if matrix.uses_extended_vocabulary() {
            return Err(Error::UnsupportedShape(
                "extended vocabulary is not supported",
            ));
        }
        let mut seen: BTreeSet<Value> = const_values.iter().copied().collect();
        collect_values(&matrix, &mut seen);
        let index = SubIndex::build(&matrix);
        Ok(Self {
            schema,
            consts: const_values,
            vars,
            index,
            states: HashMap::new(),
            seen,
            t: 0,
            status: PastStatus::Satisfied,
        })
    }

    /// Current status.
    pub fn status(&self) -> PastStatus {
        self.status
    }

    /// Number of instants consumed.
    pub fn instants(&self) -> usize {
        self.t
    }

    /// Number of tracked substitutions (memory gauge; grows with the
    /// active domain, never with `t`).
    pub fn tracked_substitutions(&self) -> usize {
        self.states.len()
    }

    /// Consumes the next database state; returns the status after it.
    pub fn append(&mut self, state: &State) -> PastStatus {
        if let PastStatus::Violated { .. } = self.status {
            self.t += 1;
            return self.status;
        }
        // Materialise substitution states for newly seen elements by
        // cloning the matching fresh patterns.
        let new_elems: Vec<Value> = state
            .active_domain()
            .into_iter()
            .filter(|v| !self.seen.contains(v))
            .collect();
        for &e in &new_elems {
            self.materialise(e);
            self.seen.insert(e);
        }

        // The substitution domain: seen ∪ fresh markers.
        let k = self.vars.len();
        let mut domain: Vec<GElem> = self.seen.iter().map(|&v| GElem::Seen(v)).collect();
        for i in 0..k {
            domain.push(GElem::Fresh(i));
        }

        let mut failed = false;
        for sub in vectors(&domain, k) {
            let prev = self.states.get(&sub);
            let cur = self.step(state, &sub, prev);
            if !cur[self.index.root] {
                failed = true;
            }
            self.states.insert(sub, cur);
        }
        if failed {
            self.status = PastStatus::Violated { at: self.t };
        }
        self.t += 1;
        self.status
    }

    /// Clones fresh-pattern states for a newly appearing element: the
    /// pattern with `e` is obtained from the pattern with an unused
    /// fresh marker in `e`'s positions.
    fn materialise(&mut self, e: Value) {
        if self.t == 0 {
            return; // no prior states to inherit
        }
        let k = self.vars.len();
        if k == 0 {
            return;
        }
        let mut domain: Vec<GElem> = self.seen.iter().map(|&v| GElem::Seen(v)).collect();
        domain.push(GElem::Seen(e));
        for i in 0..k {
            domain.push(GElem::Fresh(i));
        }
        for sub in vectors(&domain, k) {
            if !sub.contains(&GElem::Seen(e)) || self.states.contains_key(&sub) {
                continue;
            }
            // Replace every occurrence of e by an unused fresh marker.
            let used: BTreeSet<usize> = sub
                .iter()
                .filter_map(|g| match g {
                    GElem::Fresh(i) => Some(*i),
                    _ => None,
                })
                .collect();
            let spare = (0..k)
                .find(|i| !used.contains(i))
                .expect("a vector of length k containing e uses at most k-1 other fresh markers");
            let pattern: Vec<GElem> = sub
                .iter()
                .map(|&g| {
                    if g == GElem::Seen(e) {
                        GElem::Fresh(spare)
                    } else {
                        g
                    }
                })
                .collect();
            if let Some(st) = self.states.get(&pattern) {
                let st = st.clone();
                self.states.insert(sub, st);
            }
        }
    }

    /// Computes the subformula truth vector at the current instant.
    fn step(&self, state: &State, sub: &[GElem], prev: Option<&Vec<bool>>) -> Vec<bool> {
        let n = self.index.subs.len();
        let mut cur = vec![false; n];
        for i in 0..n {
            cur[i] = match &self.index.subs[i] {
                Formula::True => true,
                Formula::False => false,
                Formula::Atom(a) => self.atom(a, state, sub),
                Formula::Not(g) => !cur[self.index.index[g.as_ref()]],
                Formula::And(a, b) => {
                    cur[self.index.index[a.as_ref()]] && cur[self.index.index[b.as_ref()]]
                }
                Formula::Or(a, b) => {
                    cur[self.index.index[a.as_ref()]] || cur[self.index.index[b.as_ref()]]
                }
                Formula::Implies(a, b) => {
                    !cur[self.index.index[a.as_ref()]] || cur[self.index.index[b.as_ref()]]
                }
                Formula::Prev(g) => prev.is_some_and(|p| p[self.index.index[g.as_ref()]]),
                Formula::Since(a, b) => {
                    // a S b ≡ b ∨ (a ∧ ●(a S b))
                    cur[self.index.index[b.as_ref()]]
                        || (cur[self.index.index[a.as_ref()]] && prev.is_some_and(|p| p[i]))
                }
                other => unreachable!("non-past subformula {other:?} (checked in new)"),
            };
        }
        cur
    }

    fn term(&self, t: &Term, sub: &[GElem]) -> GElem {
        match t {
            Term::Var(v) => {
                let i = self
                    .vars
                    .iter()
                    .position(|w| w == v)
                    .expect("closed constraint: all variables externally bound");
                sub[i]
            }
            Term::Const(c) => GElem::Seen(self.consts[c.index()]),
            Term::Value(v) => GElem::Seen(*v),
        }
    }

    fn atom(&self, a: &Atom, state: &State, sub: &[GElem]) -> bool {
        match a {
            Atom::Eq(t1, t2) => self.term(t1, sub) == self.term(t2, sub),
            Atom::Pred(p, ts) => {
                let mut tuple = Vec::with_capacity(ts.len());
                for t in ts {
                    match self.term(t, sub) {
                        GElem::Seen(v) => tuple.push(v),
                        // Fresh elements satisfy no database predicate.
                        GElem::Fresh(_) => return false,
                    }
                }
                state.holds(*p, &tuple)
            }
            Atom::Leq(_, _) | Atom::Succ(_, _) | Atom::Zero(_) => {
                unreachable!("extended vocabulary rejected in new")
            }
        }
    }

    /// The schema this monitor was built against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }
}

fn collect_values(f: &Formula, out: &mut BTreeSet<Value>) {
    if let Formula::Atom(a) = f {
        for t in a.terms() {
            if let Term::Value(v) = t {
                out.insert(*v);
            }
        }
    }
    for c in f.children() {
        collect_values(c, out);
    }
}

/// All vectors of length `r` over `items`.
fn vectors(items: &[GElem], r: usize) -> Vec<Vec<GElem>> {
    let mut out = vec![vec![]];
    for _ in 0..r {
        let mut next = Vec::with_capacity(out.len() * items.len());
        for v in &out {
            for &a in items {
                let mut w = v.clone();
                w.push(a);
                next.push(w);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_fotl::eval::EvalOptions;
    use ticc_fotl::parser::parse;
    use ticc_tdb::History;

    fn order_schema() -> Arc<Schema> {
        Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
    }

    /// The audit constraint: every fill was preceded by a submission.
    const AUDIT: &str = "forall x. G (Fill(x) -> O Sub(x))";

    fn states(spec: &[(&[Value], &[Value])], sc: &Arc<Schema>) -> Vec<State> {
        spec.iter()
            .map(|(subs, fills)| {
                let mut s = State::empty(sc.clone());
                for &v in *subs {
                    s.insert_named("Sub", vec![v]).unwrap();
                }
                for &v in *fills {
                    s.insert_named("Fill", vec![v]).unwrap();
                }
                s
            })
            .collect()
    }

    #[test]
    fn audit_constraint_clean_and_dirty() {
        let sc = order_schema();
        let phi = parse(&sc, AUDIT).unwrap();
        let mut m = PastMonitor::new(sc.clone(), vec![], &phi).unwrap();
        // Clean: sub 1, fill 1, fill-of-1-again (still fine: O Sub(1)).
        for s in states(&[(&[1], &[]), (&[], &[1]), (&[], &[1])], &sc) {
            assert_eq!(m.append(&s), PastStatus::Satisfied);
        }
        // Dirty: fill 2 without any submission.
        let mut m2 = PastMonitor::new(sc.clone(), vec![], &phi).unwrap();
        let sts = states(&[(&[1], &[]), (&[], &[2])], &sc);
        assert_eq!(m2.append(&sts[0]), PastStatus::Satisfied);
        assert_eq!(m2.append(&sts[1]), PastStatus::Violated { at: 1 });
        // Permanent.
        assert_eq!(
            m2.append(&State::empty(sc.clone())),
            PastStatus::Violated { at: 1 }
        );
    }

    #[test]
    fn agrees_with_reference_evaluator_on_random_histories() {
        use ticc_tdb::rng::Rng;
        let sc = order_schema();
        let phi = parse(&sc, AUDIT).unwrap();
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut h = History::new(sc.clone());
            let mut m = PastMonitor::new(sc.clone(), vec![], &phi).unwrap();
            let mut reference_violation: Option<usize> = None;
            for t in 0..8 {
                let mut s = State::empty(sc.clone());
                for v in 0..3u64 {
                    if rng.gen_bool(0.3) {
                        s.insert_named("Sub", vec![v]).unwrap();
                    }
                    if rng.gen_bool(0.3) {
                        s.insert_named("Fill", vec![v]).unwrap();
                    }
                }
                h.push_state(s.clone());
                m.append(&s);
                if reference_violation.is_none() {
                    // ψ must hold at every instant ≤ t: check instant t.
                    let body = parse(&sc, "Fill(x) -> O Sub(x)").unwrap();
                    let f = Formula::forall("x", body);
                    let ok = ticc_fotl::eval::eval(
                        &h,
                        &f,
                        t,
                        &Default::default(),
                        &EvalOptions::default(),
                    )
                    .unwrap();
                    if !ok {
                        reference_violation = Some(t);
                    }
                }
            }
            let expected = match reference_violation {
                Some(at) => PastStatus::Violated { at },
                None => PastStatus::Satisfied,
            };
            assert_eq!(m.status(), expected, "seed {seed}");
        }
    }

    #[test]
    fn two_variable_past_constraint() {
        // ∀x∀y □((Fill(x) ∧ Fill(y)) → x = y): at most one fill per
        // instant.
        let sc = order_schema();
        let phi = parse(&sc, "forall x y. G (Fill(x) & Fill(y) -> x = y)").unwrap();
        let mut m = PastMonitor::new(sc.clone(), vec![], &phi).unwrap();
        let ok = states(&[(&[1, 2], &[]), (&[], &[1])], &sc);
        for s in ok {
            assert_eq!(m.append(&s), PastStatus::Satisfied);
        }
        let bad = states(&[(&[], &[1, 2])], &sc)[0].clone();
        assert_eq!(m.append(&bad), PastStatus::Violated { at: 2 });
    }

    #[test]
    fn since_chains_track_correctly() {
        // ∀x □(Fill(x) → (¬Sub(x)) S Sub(x)) — x was submitted and not
        // re-submitted since. A resubmission then fill trips it only if
        // the formula demands so; here resubmission RESETS the since, so
        // fill after resubmission is fine, but fill with NO submission
        // ever is a violation.
        let sc = order_schema();
        let phi = parse(&sc, "forall x. G (Fill(x) -> ((!Sub(x)) S Sub(x)))").unwrap();
        let mut m = PastMonitor::new(sc.clone(), vec![], &phi).unwrap();
        let seq = states(&[(&[1], &[]), (&[], &[1]), (&[1], &[]), (&[], &[1])], &sc);
        for s in seq {
            assert_eq!(m.append(&s), PastStatus::Satisfied);
        }
        assert_eq!(
            m.append(&states(&[(&[], &[9])], &sc)[0]),
            PastStatus::Violated { at: 4 }
        );
    }

    #[test]
    fn memory_grows_with_domain_not_history() {
        let sc = order_schema();
        let phi = parse(&sc, AUDIT).unwrap();
        let mut m = PastMonitor::new(sc.clone(), vec![], &phi).unwrap();
        let s = states(&[(&[1, 2], &[])], &sc)[0].clone();
        m.append(&s);
        let after_one = m.tracked_substitutions();
        for _ in 0..100 {
            m.append(&State::empty(sc.clone()));
        }
        assert_eq!(
            m.tracked_substitutions(),
            after_one,
            "memory must not grow with history length"
        );
        assert_eq!(m.instants(), 101);
    }

    #[test]
    fn rejects_unsupported_shapes() {
        let sc = order_schema();
        for src in [
            "forall x. G F Sub(x)",             // future matrix
            "forall x. F Sub(x)",               // not □ψ
            "forall x. G (exists y. O Sub(y))", // quantified matrix
        ] {
            let phi = parse(&sc, src).unwrap();
            assert!(
                PastMonitor::new(sc.clone(), vec![], &phi).is_err(),
                "{src} should be rejected"
            );
        }
        // Pure-FO matrix is fine (past includes present-only).
        let phi = parse(&sc, "forall x. G !Fill(x)").unwrap();
        assert!(PastMonitor::new(sc.clone(), vec![], &phi).is_ok());
    }

    #[test]
    fn fresh_pattern_materialisation_is_sound() {
        // Element 7 appears only at t=2; its past must look like a fresh
        // element's (never submitted), so Fill(7) at t=2 violates.
        let sc = order_schema();
        let phi = parse(&sc, AUDIT).unwrap();
        let mut m = PastMonitor::new(sc.clone(), vec![], &phi).unwrap();
        let seq = states(&[(&[1], &[]), (&[], &[1])], &sc);
        for s in seq {
            assert_eq!(m.append(&s), PastStatus::Satisfied);
        }
        assert_eq!(
            m.append(&states(&[(&[], &[7])], &sc)[0]),
            PastStatus::Violated { at: 2 }
        );
    }
}

//! Online-monitoring tests of [`Engine`](crate::engine::Engine): the
//! paper's intended deployment, where constraints are registered once
//! and every update decides potential satisfaction *at the earliest
//! possible time* — the property that distinguishes the method from
//! the weaker notions of Lipeck & Saake and Sistla & Wolfson
//! (Section 5).

mod tests {
    use crate::engine::{Engine, Status};
    use crate::error::Error;
    use crate::extension::CheckOptions;
    use std::sync::Arc;
    use ticc_fotl::parser::parse;
    use ticc_tdb::{Schema, Transaction, Value};

    fn order_schema() -> Arc<Schema> {
        Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
    }

    fn sub_tx(sc: &Schema, vals: &[Value]) -> Transaction {
        let sub = sc.pred("Sub").unwrap();
        let mut tx = Transaction::new();
        // Event semantics: clear previous Sub facts, insert new ones.
        for v in vals {
            tx = tx.insert(sub, vec![*v]);
        }
        tx
    }

    fn clear_tx(sc: &Schema, vals: &[Value]) -> Transaction {
        let sub = sc.pred("Sub").unwrap();
        let mut tx = Transaction::new();
        for v in vals {
            tx = tx.delete(sub, vec![*v]);
        }
        tx
    }

    #[test]
    fn detects_violation_online_at_earliest_time() {
        let sc = order_schema();
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let id = m.add_constraint("once-only", phi).unwrap();
        assert_eq!(m.status(id), Status::Satisfied);

        // t0: submit 1. t1: clear 1, submit 2. t2: resubmit 1 → violation.
        assert!(m.append(&sub_tx(&sc, &[1])).unwrap().is_empty());
        let tx1 = {
            let mut t = clear_tx(&sc, &[1]);
            for u in sub_tx(&sc, &[2]).updates() {
                t = match u {
                    ticc_tdb::Update::Insert(p, v) => t.insert(*p, v.clone()),
                    ticc_tdb::Update::Delete(p, v) => t.delete(*p, v.clone()),
                };
            }
            t
        };
        assert!(m.append(&tx1).unwrap().is_empty());
        let tx2 = {
            let mut t = clear_tx(&sc, &[2]);
            t = t.insert(sc.pred("Sub").unwrap(), vec![1]);
            t
        };
        let events = m.append(&tx2).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, 3);
        assert_eq!(m.status(id), Status::Violated { at: 3 });

        // A latent violation: after Sub(1) the obligation X Fill(1)
        // clashes with G !Fill(1), so no extension exists — though the
        // residue is not yet ⊥ (progression alone would only see it
        // one state later). Potential satisfaction detects at once.
        let phi = parse(&sc, "G (Sub(1) -> X Fill(1)) & G !Fill(1)").unwrap();
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        let id = m.add_constraint("latent", phi).unwrap();
        let events = m.append(&sub_tx(&sc, &[1])).unwrap();
        assert_eq!(events.len(), 1, "potential notion detects at once");
        assert_eq!(m.status(id), Status::Violated { at: 1 });
    }

    #[test]
    fn violations_are_permanent() {
        let sc = order_schema();
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let id = m.add_constraint("once-only", phi).unwrap();
        m.append(&sub_tx(&sc, &[1])).unwrap();
        // Sub(1) persists into the next snapshot (no delete): immediate
        // re-submission violation.
        let events = m.append(&Transaction::new()).unwrap();
        assert_eq!(events.len(), 1);
        // Further appends produce no duplicate events.
        assert!(m.append(&Transaction::new()).unwrap().is_empty());
        assert!(matches!(m.status(id), Status::Violated { .. }));
    }

    #[test]
    fn fast_path_used_when_domain_stable() {
        let sc = order_schema();
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        m.add_constraint("once-only", phi).unwrap();
        m.append(&sub_tx(&sc, &[1])).unwrap(); // new element 1 → reground
        m.append(&clear_tx(&sc, &[1])).unwrap(); // no new element → fast
        m.append(&Transaction::new()).unwrap(); // fast
        let st = m.stats();
        assert_eq!(st.regrounds + st.delta_grounds, 1);
        assert_eq!(st.fast_appends, 2);
        // The fast path steps the unit through its template: no
        // progression and no phase 2.
        assert_eq!(st.automaton_appends, 3, "{st:?}");
        assert_eq!(st.progress_steps, 0, "{st:?}");
        assert_eq!(st.sat_checks, 0, "{st:?}");
        // Once stable, the unit self-loops: dormant, it is not even
        // looked up.
        for _ in 0..5 {
            m.append(&Transaction::new()).unwrap();
        }
        let after = m.stats();
        assert_eq!(after.fast_appends, 7);
        assert_eq!(after.cache, st.cache, "{after:?}");
        assert_eq!(after.automaton_steps, st.automaton_steps);
        // The reference steps the residue symbolically and runs phase 2
        // on every append; a stable residue hits the satisfiability
        // memo.
        let mut r = Engine::new(sc.clone(), CheckOptions::reference());
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        r.add_constraint("once-only", phi).unwrap();
        r.append(&sub_tx(&sc, &[1])).unwrap();
        r.append(&clear_tx(&sc, &[1])).unwrap();
        let hits = r.stats().cache.sat_hits;
        r.append(&Transaction::new()).unwrap();
        r.append(&Transaction::new()).unwrap();
        assert!(r.stats().cache.sat_hits > hits, "{:?}", r.stats());
    }

    #[test]
    fn multiple_constraints_tracked_independently() {
        let sc = order_schema();
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        let once = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let never3 = parse(&sc, "G !Sub(3)").unwrap();
        let a = m.add_constraint("once-only", once).unwrap();
        let b = m.add_constraint("never-3", never3).unwrap();
        m.append(&sub_tx(&sc, &[1])).unwrap();
        let ev = m.append(&sub_tx(&sc, &[3])).unwrap();
        // Sub(1) persisted (no delete) → once-only violated; Sub(3) →
        // never-3 violated. Both fire on this append.
        assert_eq!(ev.len(), 2);
        assert!(matches!(m.status(a), Status::Violated { .. }));
        assert!(matches!(m.status(b), Status::Violated { .. }));
        assert_eq!(m.name(a), "once-only");
        assert_eq!(m.constraints().count(), 2);
    }

    #[test]
    fn unsatisfiable_constraint_violated_at_zero() {
        let sc = order_schema();
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        // Sub(7) must hold now and never hold: unsatisfiable. Note an
        // empty history means instant 0 hasn't happened yet, so the
        // obligation is on the first state; the conjunction is already
        // unsatisfiable as a formula.
        let phi = parse(&sc, "Sub(7) & G !Sub(7)").unwrap();
        let id = m.add_constraint("impossible", phi).unwrap();
        assert_eq!(m.status(id), Status::Violated { at: 0 });
    }

    #[test]
    fn rejects_non_universal_constraints() {
        let sc = order_schema();
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        let phi = parse(&sc, "forall x. G F Sub(x) & (exists y. F Sub(y))").unwrap();
        assert!(matches!(
            m.add_constraint("bad", phi),
            Err(Error::Ground(_))
        ));
    }
}

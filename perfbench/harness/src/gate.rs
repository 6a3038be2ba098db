//! Correctness gates. Every workload ends with a seeded violation and
//! must see exactly that event; every other append must report none.
//! A failed gate is counted in the run's `failed` total and clears
//! `correct`.

use ticc_server::json::{self, Json};

/// Errors unless no violation was reported.
pub fn expect_clean<'a>(events: impl IntoIterator<Item = (&'a str, usize)>) -> Result<(), String> {
    let events: Vec<_> = events.into_iter().collect();
    if events.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected violation(s): {events:?}"))
    }
}

/// Errors unless exactly one violation was reported, of `constraint`,
/// at history length `at`.
pub fn expect_violation<'a>(
    events: impl IntoIterator<Item = (&'a str, usize)>,
    constraint: &str,
    at: usize,
) -> Result<(), String> {
    let events: Vec<_> = events.into_iter().collect();
    match events.as_slice() {
        [(name, when)] if *name == constraint && *when == at => Ok(()),
        _ => Err(format!(
            "expected exactly one violation of '{constraint}' at {at}, got {events:?}"
        )),
    }
}

/// A parsed wire response that must carry `"ok": true`.
pub fn ok_response(text: &str) -> Result<Json, String> {
    let doc = json::parse(text).map_err(|e| format!("unparseable response ({e}): {text}"))?;
    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(doc)
    } else {
        Err(format!("request refused or failed: {text}"))
    }
}

/// The `(constraint, at)` events of an `append` response.
pub fn wire_events(doc: &Json) -> Vec<(&str, usize)> {
    doc.get("events")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            (
                e.get("constraint").and_then(Json::as_str).unwrap_or("?"),
                e.get("at").and_then(Json::as_u64).unwrap_or(0) as usize,
            )
        })
        .collect()
}

/// The `status` op's constraint list as rendered text, for equality
/// checks across a restart.
pub fn wire_statuses(doc: &Json) -> Result<String, String> {
    doc.get("constraints")
        .map(Json::render)
        .ok_or_else(|| format!("status response without constraints: {}", doc.render()))
}

/// Errors unless every tenant's statuses after a restart equal those
/// before it (tenant `i` is `names[i]`).
pub fn same_statuses(names: &[String], before: &[String], after: &[String]) -> Result<(), String> {
    if before.len() != after.len() {
        return Err(format!(
            "{} tenant status lists after restart, {} before",
            after.len(),
            before.len()
        ));
    }
    match (0..before.len()).find(|&i| before[i] != after[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "tenant {} statuses after restart differ: {} vs {} before",
            names[i], after[i], before[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orders::{
        order_schema, Churn, Growth, GrowthViolation, SteadyViolation, GROWTH_PERIOD, GROWTH_SUITE,
        STEADY_SUITE,
    };
    use crate::stats::Rng;
    use ticc_core::{CheckOptions, Engine};

    fn engine(suite: &[(&str, &str)]) -> Engine {
        let schema = order_schema();
        let mut e = Engine::new(schema.clone(), CheckOptions::default());
        for (name, src) in suite {
            e.add_constraint(*name, ticc_fotl::parse(&schema, src).unwrap())
                .unwrap();
        }
        e
    }

    /// Each steady plan's closing append violates exactly its planned
    /// constraint, and the gate refuses every other expectation.
    #[test]
    fn steady_plans_violate_exactly_their_constraint() {
        let schema = order_schema();
        for plan in SteadyViolation::ALL {
            let mut e = engine(&STEADY_SUITE);
            let mut churn = Churn::new(Rng::new(9), 8);
            for _ in 0..200 {
                let ev = e.append(&churn.next_tx().to_engine(&schema)).unwrap();
                expect_clean(ev.iter().map(|x| (x.name.as_str(), x.at))).unwrap();
            }
            let ev = e.append(&churn.violation(plan).to_engine(&schema)).unwrap();
            let at = e.history().len();
            let events = || ev.iter().map(|x| (x.name.as_str(), x.at));
            expect_violation(events(), plan.constraint(), at).unwrap();
            assert!(expect_violation(events(), plan.constraint(), at + 1).is_err());
            for other in SteadyViolation::ALL.iter().filter(|o| **o != plan) {
                assert!(expect_violation(events(), other.constraint(), at).is_err());
            }
            assert!(expect_clean(events()).is_err());
        }
    }

    #[test]
    fn growth_plans_violate_exactly_their_constraint() {
        let schema = order_schema();
        for plan in [GrowthViolation::Once, GrowthViolation::Fifo] {
            let mut e = engine(&GROWTH_SUITE);
            let mut gen = Growth::new(Rng::new(4));
            for _ in 0..5 * GROWTH_PERIOD {
                let ev = e.append(&gen.next_tx().to_engine(&schema)).unwrap();
                expect_clean(ev.iter().map(|x| (x.name.as_str(), x.at))).unwrap();
            }
            let closing = gen.violation(plan);
            let (last, lead) = closing.split_last().unwrap();
            for tx in lead {
                assert!(e.append(&tx.to_engine(&schema)).unwrap().is_empty());
            }
            let ev = e.append(&last.to_engine(&schema)).unwrap();
            let at = e.history().len();
            let events = || ev.iter().map(|x| (x.name.as_str(), x.at));
            expect_violation(events(), plan.constraint(), at).unwrap();
            let other = if plan == GrowthViolation::Once {
                "fifo"
            } else {
                "once"
            };
            assert!(expect_violation(events(), other, at).is_err());
        }
    }

    #[test]
    fn restart_gate_wants_equal_statuses() {
        let names = vec!["t00".to_owned(), "t01".to_owned()];
        let before = vec!["[a]".to_owned(), "[b]".to_owned()];
        assert!(same_statuses(&names, &before, &before).is_ok());
        let after = vec!["[a]".to_owned(), "[c]".to_owned()];
        let err = same_statuses(&names, &before, &after).unwrap_err();
        assert!(err.contains("t01"), "{err}");
        assert!(same_statuses(&names, &before, &before[..1]).is_err());
    }

    #[test]
    fn violation_gate_wants_exactly_the_planned_event() {
        assert!(expect_violation([("cap", 9)], "cap", 9).is_ok());
        assert!(expect_violation([("resp", 9)], "cap", 9).is_err());
        assert!(expect_violation([("cap", 8)], "cap", 9).is_err());
        assert!(expect_violation([("cap", 9), ("past", 9)], "cap", 9).is_err());
        assert!(expect_violation([], "cap", 9).is_err());
        assert!(expect_clean([("cap", 1)]).is_err());
        assert!(expect_clean([]).is_ok());
    }

    #[test]
    fn wire_gates_read_ok_and_events() {
        let doc =
            ok_response(r#"{"ok":true,"t":4,"events":[{"constraint":"cap","at":4}]}"#).unwrap();
        assert_eq!(wire_events(&doc), vec![("cap", 4)]);
        assert!(ok_response(r#"{"ok":false,"error":"backpressure"}"#).is_err());
        assert!(ok_response("not json").is_err());
    }
}

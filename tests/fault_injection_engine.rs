//! Engine-level crash recovery: kill a store-backed session at
//! *every* frame boundary of its log (and corrupt every frame) and
//! assert the reopened engine is exactly the engine that had only seen
//! the surviving prefix — then drive it forward and check it converges
//! with a twin that never crashed.

use std::sync::Arc;
use ticc::core::{CheckOptions, ConstraintId, Engine, OpenSummary, Session, Status};
use ticc::fotl::parser::parse;
use ticc::fotl::Formula;
use ticc::store::GROUP_MAGIC;
use ticc::tdb::{Schema, Transaction};

fn schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Rep", 2).build()
}

fn phis(sc: &Schema) -> Vec<Formula> {
    vec![
        parse(sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap(),
        parse(sc, "forall x y. G (Rep(x, y) -> X G !Rep(x, y))").unwrap(),
        parse(sc, "G !Sub(999)").unwrap(),
    ]
}

fn register(engine: &mut Engine, phis: &[Formula]) -> Vec<ConstraintId> {
    phis.iter()
        .enumerate()
        .map(|(i, phi)| engine.add_constraint(format!("c{i}"), phi.clone()).unwrap())
        .collect()
}

/// The session's transaction script: staggered arrivals, deletions,
/// re-submissions, and a final violation (Sub(11) re-submitted).
fn script(sc: &Schema) -> Vec<Transaction> {
    let sub = sc.pred("Sub").unwrap();
    let rep = sc.pred("Rep").unwrap();
    vec![
        Transaction::new().insert(sub, vec![10]),
        Transaction::new()
            .delete(sub, vec![10])
            .insert(sub, vec![11]),
        Transaction::new().insert(rep, vec![10, 11]),
        Transaction::new()
            .delete(sub, vec![11])
            .delete(rep, vec![10, 11]),
        Transaction::new().insert(sub, vec![12]),
        Transaction::new()
            .delete(sub, vec![12])
            .insert(sub, vec![11]),
    ]
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ticc-engine-fault-{tag}-{}.wal",
        std::process::id()
    ))
}

/// Offsets where each frame ends:
/// `[header, registration, snapshot, tx1, …, txN]`.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![GROUP_MAGIC.len()];
    let mut pos = GROUP_MAGIC.len();
    while pos + 5 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + 1 + len + 8;
        assert!(pos <= bytes.len(), "log parses cleanly");
        boundaries.push(pos);
    }
    assert_eq!(pos, bytes.len());
    boundaries
}

/// A never-crashed engine that saw the first `k` script transactions.
fn twin(sc: &Arc<Schema>, phis: &[Formula], txs: &[Transaction], k: usize) -> Engine {
    let mut e = Engine::new(sc.clone(), CheckOptions::default());
    register(&mut e, phis);
    for tx in &txs[..k] {
        e.append(tx).unwrap();
    }
    e
}

fn assert_matches_twin(label: &str, restored: &Engine, expected: &Engine, ids: &[ConstraintId]) {
    assert_eq!(
        restored.history().states(),
        expected.history().states(),
        "{label}: histories diverge"
    );
    for id in ids {
        assert_eq!(
            restored.status(*id),
            expected.status(*id),
            "{label}: status diverges for {id:?}"
        );
        assert_eq!(
            restored.context(*id).residue(),
            expected.context(*id).residue(),
            "{label}: residues diverge for {id:?}"
        );
    }
}

/// Opens the store-backed session at `path` (schema from its
/// checkpoint, if one survived).
fn open(path: &std::path::Path) -> Result<(Session, OpenSummary), ticc::core::Error> {
    Session::builder().store(path).open()
}

/// The recovered engine; `None` while the session is still defining
/// its schema (no checkpoint survived).
fn engine(session: &Session) -> Option<&Engine> {
    session.engine()
}

/// Builds the session log once; returns its raw bytes.
fn record_session(path: &std::path::Path, sc: &Arc<Schema>, phis: &[Formula]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (mut s, _) = Session::builder()
        .store(path)
        .pred("Sub", 1)
        .pred("Rep", 2)
        .open()
        .unwrap();
    for (i, phi) in phis.iter().enumerate() {
        s.add_constraint(&format!("c{i}"), phi.clone()).unwrap();
    }
    s.checkpoint().unwrap();
    for tx in script(sc) {
        s.append(&tx).unwrap();
    }
    drop(s);
    std::fs::read(path).unwrap()
}

#[test]
fn crash_at_every_frame_boundary_recovers_the_exact_prefix() {
    let sc = schema();
    let phis = phis(&sc);
    let txs = script(&sc);
    let path = temp_path("boundary");
    let bytes = record_session(&path, &sc, &phis);
    let boundaries = frame_boundaries(&bytes);
    assert_eq!(
        boundaries.len(),
        3 + txs.len(),
        "header + registration + snapshot + txs"
    );

    // Crash exactly at each boundary, and torn mid-frame right after.
    let mut cuts: Vec<(usize, usize)> = Vec::new(); // (cut, intact frames)
    for (j, &b) in boundaries.iter().enumerate() {
        cuts.push((b, j));
        let next = boundaries.get(j + 1).copied().unwrap_or(bytes.len());
        if next > b + 3 {
            cuts.push((b + 3, j)); // torn frame: same surviving prefix
        }
    }
    for (cut, intact) in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (mut session, summary) = open(&path).unwrap();
        if intact < 2 {
            // Not even the snapshot survived: a fresh session, still
            // defining its schema.
            assert!(!summary.resumed, "cut {cut}");
            assert!(engine(&session).is_none(), "cut {cut}");
            assert_eq!(session.constraints().count(), 0, "cut {cut}");
            continue;
        }
        let k = intact - 2; // surviving tx frames
        assert!(summary.resumed, "cut {cut}");
        assert_eq!(summary.replayed, k, "cut {cut}");
        let mut expected = twin(&sc, &phis, &txs, k);
        let ids: Vec<ConstraintId> = expected.constraints().collect();
        let restored = engine(&session).unwrap();
        assert_matches_twin(&format!("cut {cut}"), restored, &expected, &ids);

        // Continue correctly: feed both the lost suffix, compare.
        for (step, tx) in txs[k..].iter().enumerate() {
            let a = session.append(tx).unwrap().events;
            let b = expected.append(tx).unwrap();
            assert_eq!(a, b, "cut {cut} step {step}: events diverge");
        }
        let restored = engine(&session).unwrap();
        assert_matches_twin(&format!("cut {cut} (resumed)"), restored, &expected, &ids);
        assert!(
            matches!(restored.status(ids[0]), Status::Violated { .. }),
            "cut {cut}: resumed session reaches the scripted violation"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupting_each_frame_recovers_the_preceding_prefix() {
    let sc = schema();
    let phis = phis(&sc);
    let txs = script(&sc);
    let path = temp_path("corrupt");
    let bytes = record_session(&path, &sc, &phis);
    let boundaries = frame_boundaries(&bytes);

    for j in 1..boundaries.len() {
        let (start, end) = (boundaries[j - 1], boundaries[j]);
        let mid = (start + end) / 2;
        let mut mutated = bytes.clone();
        mutated[mid] ^= 0x41;
        std::fs::write(&path, &mutated).unwrap();
        let (session, summary) = open(&path).unwrap();
        assert!(summary.truncated_bytes > 0, "frame {j}");
        let intact = j - 1; // frames before the corrupted one
        if intact < 2 {
            assert!(!summary.resumed, "frame {j}");
            assert!(engine(&session).is_none(), "frame {j}");
            continue;
        }
        let k = intact - 2;
        assert_eq!(summary.replayed, k, "frame {j}");
        let expected = twin(&sc, &phis, &txs, k);
        let ids: Vec<ConstraintId> = expected.constraints().collect();
        let restored = engine(&session).unwrap();
        assert_matches_twin(&format!("frame {j}"), restored, &expected, &ids);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupting_every_byte_never_panics_and_yields_a_prefix() {
    let sc = schema();
    let phis = phis(&sc);
    // Small session to keep the byte sweep fast.
    let path = temp_path("bytes");
    let _ = std::fs::remove_file(&path);
    let (mut s, _) = Session::builder()
        .store(&path)
        .pred("Sub", 1)
        .pred("Rep", 2)
        .open()
        .unwrap();
    s.add_constraint("c0", phis[0].clone()).unwrap();
    s.add_trigger("resub", parse(&sc, "F (Sub(x) & X F Sub(x))").unwrap())
        .unwrap();
    s.checkpoint().unwrap();
    let sub = sc.pred("Sub").unwrap();
    s.append(&Transaction::new().insert(sub, vec![10])).unwrap();
    s.append(&Transaction::new().delete(sub, vec![10])).unwrap();
    drop(s);
    let bytes = std::fs::read(&path).unwrap();
    let full = twin(&sc, &phis[..1], &script(&sc), 0);

    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0x55;
        std::fs::write(&path, &mutated).unwrap();
        match open(&path) {
            Err(_) => {} // header damage or an undecodable snapshot: fine
            Ok((session, _)) => {
                let Some(restored) = engine(&session) else {
                    continue; // no checkpoint survived: nothing to check
                };
                let len = restored.history().len();
                assert!(len <= 2, "byte {i}: recovered beyond the session");
                // Whatever survived is a true prefix of the session.
                for (t, state) in restored.history().states().iter().enumerate() {
                    let _ = (t, state); // states decoded without panic
                }
                if restored.constraints().count() > 0 {
                    let id = full.constraints().next().unwrap();
                    let _ = restored.status(id);
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

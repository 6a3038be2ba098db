//! Group-commit fault injection: crash the shared log at every byte
//! offset and assert the acknowledgement contract — a synced
//! (acknowledged) append is never lost, an unacknowledged one may be.
//!
//! The protocol argument (see `group.rs` docs): frames hit the file in
//! sequence order and an ack means some `sync_data` covered the
//! frame's sequence number and everything before it. So if we record
//! the file length `L_i` observed right after ack `i`, any crash image
//! of length ≥ `L_i` must recover every append acked by point `i`.
//! Truncating the real file at *every* byte position exercises both
//! sides: prefixes past an ack point keep its appends, prefixes inside
//! the torn tail lose only unacked ones.

use std::collections::BTreeSet;

use ticc_store::codec::tx_from_bytes;
use ticc_store::{GroupWal, StoreError, GROUP_MAGIC};
use ticc_tdb::{Schema, Transaction, Value};

fn schema() -> std::sync::Arc<Schema> {
    Schema::builder().pred("P", 1).build()
}

fn tx(sc: &Schema, v: Value) -> Transaction {
    Transaction::new().insert(sc.pred("P").unwrap(), vec![v])
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ticc-group-fault-{tag}-{}.wal", std::process::id()))
}

/// Recovers the set of `(session name, inserted value)` pairs from a
/// crash image written at `path`.
fn recovered_set(path: &std::path::Path, sc: &Schema) -> BTreeSet<(String, Value)> {
    let (_, rec) = GroupWal::open(path).unwrap();
    let mut out = BTreeSet::new();
    for s in &rec.sessions {
        for raw in &s.suffix {
            let tx = tx_from_bytes(raw, sc).unwrap();
            for up in tx.updates() {
                if let ticc_tdb::Update::Insert(_, tuple) = up {
                    out.insert((s.name.clone(), tuple[0]));
                }
            }
        }
    }
    out
}

#[test]
fn no_acked_append_is_lost_at_any_crash_point() {
    let sc = schema();
    let path = temp_path("acked");
    let _ = std::fs::remove_file(&path);

    // Interleave two sessions; sync (= acknowledge) every append and
    // record the file length at each ack together with everything
    // acked so far.
    let mut acked_at: Vec<(u64, BTreeSet<(String, Value)>)> = Vec::new();
    {
        let wal = GroupWal::create(&path).unwrap();
        let a = wal.register("alice").unwrap();
        let b = wal.register("bob").unwrap();
        let mut acked = BTreeSet::new();
        for v in 0..6u64 {
            let (id, name) = if v % 2 == 0 { (a, "alice") } else { (b, "bob") };
            wal.append_tx(id, &tx(&sc, v), true).unwrap();
            acked.insert((name.to_owned(), v));
            let len = std::fs::metadata(&path).unwrap().len();
            acked_at.push((len, acked.clone()));
        }
        // One final *unacked* append: enqueue without sync, then
        // flush the bytes but treat them as never acknowledged.
        wal.append_tx(a, &tx(&sc, 99), false).unwrap();
        wal.flush().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let all_acked = &acked_at.last().unwrap().1;

    // Below the 9-byte magic there is no log to speak of: an empty
    // image reopens fresh, a partial header is rejected outright.
    std::fs::write(&path, b"").unwrap();
    assert!(GroupWal::open(&path).is_ok());
    for cut in 1..9 {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(matches!(
            GroupWal::open(&path),
            Err(StoreError::NotAStore(_))
        ));
    }

    for cut in 9..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let got = recovered_set(&path, &sc);
        // Ack contract: every append acked while the file was ≤ cut
        // bytes long must be recovered.
        for (len, acked) in &acked_at {
            if *len <= cut as u64 {
                assert!(
                    acked.is_subset(&got),
                    "cut {cut}: acked appends (file len {len}) lost: {:?}",
                    acked.difference(&got).collect::<Vec<_>>()
                );
            }
        }
        // And nothing is invented: recovery only ever surfaces appends
        // we actually made.
        for (name, v) in &got {
            assert!(
                all_acked.contains(&(name.clone(), *v)) || *v == 99,
                "cut {cut}: recovered unknown append {name}/{v}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corruption_inside_an_unacked_window_never_touches_acked_frames() {
    let sc = schema();
    let path = temp_path("corrupt");
    let _ = std::fs::remove_file(&path);

    let acked_len;
    {
        let wal = GroupWal::create(&path).unwrap();
        let a = wal.register("alice").unwrap();
        for v in 0..3u64 {
            wal.append_tx(a, &tx(&sc, v), true).unwrap();
        }
        acked_len = std::fs::metadata(&path).unwrap().len() as usize;
        // An unacked tail window.
        wal.append_tx(a, &tx(&sc, 50), false).unwrap();
        wal.append_tx(a, &tx(&sc, 51), false).unwrap();
        wal.flush().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let acked: BTreeSet<(String, Value)> = (0..3u64).map(|v| ("alice".to_owned(), v)).collect();

    // Flip every byte of the unacked tail in turn: the acked prefix
    // must survive every variant.
    for pos in acked_len..bytes.len() {
        let mut broken = bytes.clone();
        broken[pos] ^= 0xff;
        std::fs::write(&path, &broken).unwrap();
        let got = recovered_set(&path, &sc);
        assert!(
            acked.is_subset(&got),
            "corrupt byte {pos}: acked appends lost"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reopen_after_crash_appends_cleanly() {
    let sc = schema();
    let path = temp_path("reopen");
    let _ = std::fs::remove_file(&path);
    {
        let wal = GroupWal::create(&path).unwrap();
        let a = wal.register("alice").unwrap();
        wal.append_tx(a, &tx(&sc, 1), true).unwrap();
    }
    // Torn tail: half a frame of garbage, as a crash mid-write leaves.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0x55; 9]).unwrap();
    }
    let (wal, rec) = GroupWal::open(&path).unwrap();
    assert_eq!(rec.truncated_bytes, 9);
    assert_eq!(rec.sessions.len(), 1);
    let a = wal.register("alice").unwrap();
    wal.append_tx(a, &tx(&sc, 2), true).unwrap();
    drop(wal);
    let (_, rec2) = GroupWal::open(&path).unwrap();
    assert_eq!(rec2.truncated_bytes, 0);
    assert_eq!(rec2.sessions[0].suffix.len(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fresh_log_in_a_new_directory_recovers_its_session() {
    // `create` (and `open` of a zero-length file) syncs the header and
    // the new directory entry; a log made in a directory that did not
    // exist a moment ago reopens with everything appended to it.
    let sc = schema();
    let dir = std::env::temp_dir().join(format!("ticc-group-fresh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir(&dir).unwrap();
    let path = dir.join("fresh.wal");
    {
        let wal = GroupWal::create(&path).unwrap();
        let a = wal.register("alice").unwrap();
        wal.append_tx(a, &tx(&sc, 1), true).unwrap();
        wal.append_snapshot(a, b"snap").unwrap();
        wal.append_tx(a, &tx(&sc, 2), true).unwrap();
    }
    let (_, rec) = GroupWal::open(&path).unwrap();
    assert_eq!(rec.truncated_bytes, 0);
    assert_eq!(rec.sessions.len(), 1);
    let s = &rec.sessions[0];
    assert_eq!(s.name, "alice");
    assert_eq!(s.snapshot.as_deref(), Some(&b"snap"[..]));
    assert_eq!(s.suffix.len(), 1);
    assert_eq!(recovered_set(&path, &sc), [("alice".to_owned(), 2)].into());
    // A zero-length file (a crash between create(2) and the header)
    // opens as an empty log, durable the same way.
    let empty = dir.join("empty.wal");
    std::fs::File::create(&empty).unwrap();
    {
        let (wal, rec) = GroupWal::open(&empty).unwrap();
        assert!(rec.sessions.is_empty());
        let b = wal.register("bob").unwrap();
        wal.append_tx(b, &tx(&sc, 7), true).unwrap();
    }
    assert_eq!(recovered_set(&empty, &sc), [("bob".to_owned(), 7)].into());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leader_follower_stress_preserves_per_session_order() {
    // The leader/follower contract under real contention: whoever wins
    // the io lock writes *everyone's* pending frames, and followers
    // return without touching the file. Twelve writers (well past the
    // window size a single leader drains in one go) hammer the log
    // with a mix of synced and unsynced appends; afterwards the file
    // must hold every session's appends in that session's issue order
    // — batches are strict prefix-extensions in sequence order, so a
    // session's frames can never be reordered by losing the leader
    // election.
    const WRITERS: usize = 12;
    const EACH: u64 = 50;
    let sc = schema();
    let path = temp_path("stress");
    let _ = std::fs::remove_file(&path);

    let wal = std::sync::Arc::new(GroupWal::create(&path).unwrap());
    let ids: Vec<u32> = (0..WRITERS)
        .map(|i| wal.register(&format!("w{i}")).unwrap())
        .collect();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(WRITERS));
    std::thread::scope(|scope| {
        for (i, &id) in ids.iter().enumerate() {
            let wal = std::sync::Arc::clone(&wal);
            let sc = std::sync::Arc::clone(&sc);
            let barrier = std::sync::Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for v in 0..EACH {
                    // Writer + step packed into the value, so recovery
                    // can replay each session's order from one file.
                    let value = (i as u64) * 1000 + v;
                    // Every 5th append is unsynced: it must still ride
                    // a later window and land in order.
                    let sync = v % 5 != 4;
                    wal.append_tx(id, &tx(&sc, value), sync).unwrap();
                }
            });
        }
    });
    wal.flush().unwrap();
    assert_eq!(wal.pending_bytes(), 0, "flush drains the queue");

    let stats = wal.stats();
    let synced = WRITERS as u64 * EACH * 4 / 5;
    assert_eq!(stats.frames, WRITERS as u64 * (EACH + 1));
    assert_eq!(stats.windows, stats.fsyncs);
    // Group commit must have amortized: with 12 writers contending,
    // followers pile onto the leader's window, so the fsync count
    // stays below one-per-synced-append.
    assert!(
        stats.fsyncs < synced,
        "no batching: {} fsyncs for {synced} synced appends",
        stats.fsyncs
    );
    assert!(stats.max_batch >= 2);
    assert!(stats.batched_frames >= 2);

    drop(wal);
    let (_, rec) = GroupWal::open(&path).unwrap();
    assert_eq!(rec.sessions.len(), WRITERS);
    for s in &rec.sessions {
        let i: u64 = s.name.strip_prefix('w').unwrap().parse().unwrap();
        let values: Vec<Value> = s
            .suffix
            .iter()
            .map(|raw| {
                let tx = tx_from_bytes(raw, &sc).unwrap();
                match tx.updates().first().unwrap() {
                    ticc_tdb::Update::Insert(_, tuple) => tuple[0],
                    other => panic!("unexpected update {other:?}"),
                }
            })
            .collect();
        let expect: Vec<Value> = (0..EACH).map(|v| (i * 1000 + v) as Value).collect();
        assert_eq!(values, expect, "session {} out of order or lossy", s.name);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn non_group_file_is_rejected_not_truncated() {
    let path = temp_path("reject");
    std::fs::write(&path, b"TICCSTOR1 definitely a per-session store").unwrap();
    match GroupWal::open(&path) {
        Err(StoreError::NotAStore(msg)) => assert!(msg.contains("TICCGRP01")),
        other => panic!("expected NotAStore, got {other:?}"),
    }
    // The reject must not have modified the file.
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"TICCSTOR1 definitely a per-session store"
    );
    let _ = std::fs::remove_file(&path);
}

/// One recovered session, comparable across opens.
type SessionImage = (u32, String, Option<Vec<u8>>, Vec<Vec<u8>>);

fn sessions_of(rec: &ticc_store::GroupRecovered) -> Vec<SessionImage> {
    rec.sessions
        .iter()
        .map(|s| (s.id, s.name.clone(), s.snapshot.clone(), s.suffix.clone()))
        .collect()
}

/// A three-session log with interleaved transactions and snapshots;
/// returns its bytes and every frame boundary (header first).
fn three_session_log(path: &std::path::Path, sc: &Schema) -> (Vec<u8>, Vec<usize>) {
    let _ = std::fs::remove_file(path);
    let wal = GroupWal::create(path).unwrap();
    let len = || std::fs::metadata(path).unwrap().len() as usize;
    let mut boundaries = vec![GROUP_MAGIC.len()];
    let mut ids = Vec::new();
    for name in ["alice", "bob", "carol"] {
        ids.push(wal.register(name).unwrap());
        boundaries.push(len());
    }
    for v in 0..12u64 {
        let id = ids[(v % 3) as usize];
        if v % 4 == 3 {
            wal.append_snapshot(id, format!("snap-{v}").as_bytes())
                .unwrap();
        } else {
            wal.append_tx(id, &tx(sc, v), false).unwrap();
            wal.flush().unwrap();
        }
        boundaries.push(len());
    }
    drop(wal);
    (std::fs::read(path).unwrap(), boundaries)
}

#[test]
fn compaction_recovers_the_same_sessions_at_every_frame_boundary() {
    let sc = schema();
    let path = temp_path("compact-cuts");
    let (bytes, boundaries) = three_session_log(&path, &sc);
    // Every boundary, and a torn frame just past each one.
    let cuts = boundaries
        .iter()
        .flat_map(|&b| [b, (b + 3).min(bytes.len())]);
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (wal, before) = GroupWal::open(&path).unwrap();
        let expected = sessions_of(&before);
        let valid = std::fs::metadata(&path).unwrap().len();
        wal.compact().unwrap();
        let compacted = std::fs::metadata(&path).unwrap().len();
        assert!(
            compacted <= valid,
            "cut {cut}: compaction grew the log ({valid} -> {compacted})"
        );
        drop(wal);
        let (_, after) = GroupWal::open(&path).unwrap();
        assert_eq!(after.truncated_bytes, 0, "cut {cut}");
        assert_eq!(sessions_of(&after), expected, "cut {cut}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_compact_tmp_is_ignored_and_overwritten() {
    let sc = schema();
    let path = temp_path("stale-tmp");
    let (bytes, _) = three_session_log(&path, &sc);
    let tmp = {
        let mut p = path.clone().into_os_string();
        p.push(".compact.tmp");
        std::path::PathBuf::from(p)
    };
    // A crash mid-compaction leaves a half-written temp file beside the
    // log: it must not be read, and the next compaction replaces it.
    std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();
    let (wal, rec) = GroupWal::open(&path).unwrap();
    assert_eq!(rec.truncated_bytes, 0);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "log untouched by open"
    );
    let expected = sessions_of(&rec);
    wal.compact().unwrap();
    assert!(!tmp.exists(), "compaction renames its temp file away");
    drop(wal);
    let (_, after) = GroupWal::open(&path).unwrap();
    assert_eq!(sessions_of(&after), expected);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn appends_racing_compaction_are_all_recovered() {
    const WRITERS: usize = 4;
    const EACH: u64 = 60;
    let sc = schema();
    let path = temp_path("compact-race");
    let _ = std::fs::remove_file(&path);
    let wal = std::sync::Arc::new(GroupWal::create(&path).unwrap());
    let ids: Vec<u32> = (0..WRITERS)
        .map(|i| wal.register(&format!("w{i}")).unwrap())
        .collect();
    // A snapshotting session gives compaction something to drop.
    let snap = wal.register("snap").unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    // Writers log the first half of their appends, then everyone meets
    // here: the first compaction rewrites those while the second half
    // is being appended.
    let halfway = std::sync::Barrier::new(WRITERS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let (wal, sc, halfway) = (&wal, &sc, &halfway);
                scope.spawn(move || {
                    for v in 0..EACH {
                        if v == EACH / 2 {
                            halfway.wait();
                        }
                        let value = (i as u64) * 1000 + v;
                        wal.append_tx(id, &tx(sc, value), v % 3 != 2).unwrap();
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            halfway.wait();
            // Keep compacting until the writers are done.
            for k in 0u64.. {
                wal.append_snapshot(snap, &k.to_le_bytes()).unwrap();
                wal.append_tx(snap, &tx(&sc, k), false).unwrap();
                wal.compact().unwrap();
                if done.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    wal.flush().unwrap();
    drop(wal);
    let (_, rec) = GroupWal::open(&path).unwrap();
    assert_eq!(rec.truncated_bytes, 0);
    assert_eq!(rec.sessions.len(), WRITERS + 1);
    for s in rec.sessions.iter().filter(|s| s.name != "snap") {
        let i: u64 = s.name.strip_prefix('w').unwrap().parse().unwrap();
        let values: Vec<Value> = s
            .suffix
            .iter()
            .map(|raw| match tx_from_bytes(raw, &sc).unwrap().updates()[0] {
                ticc_tdb::Update::Insert(_, ref tuple) => tuple[0],
                ref other => panic!("unexpected update {other:?}"),
            })
            .collect();
        let expect: Vec<Value> = (0..EACH).map(|v| (i * 1000 + v) as Value).collect();
        assert_eq!(values, expect, "session {} lost or reordered txs", s.name);
    }
    let s = rec.sessions.iter().find(|s| s.name == "snap").unwrap();
    assert!(s.snapshot.is_some());
    assert_eq!(s.suffix.len(), 1, "only the tx after the newest snapshot");
    let _ = std::fs::remove_file(&path);
}

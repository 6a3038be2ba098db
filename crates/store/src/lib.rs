//! `ticc-store` — durability for the temporal integrity checker.
//!
//! The paper's Theorem 4.1 makes checking *history-less*: after each
//! transaction the monitor needs only the current state plus bounded
//! auxiliary information (per-constraint residues over the relevant
//! domain `R_D`). This crate turns that bound into an operational
//! restart-cost guarantee. A store file is an append-only write-ahead
//! log of transactions interleaved with periodic **engine snapshots**
//! of exactly that auxiliary state; reopening after a crash costs
//! `O(|snapshot| + |suffix|)` — decode the newest snapshot, replay
//! only the transactions logged after it — instead of re-checking all
//! `t` states from scratch.
//!
//! The crate is deliberately low in the dependency stack (tdb + the
//! logics, no engine): it defines the *file format* and the
//! vocabulary codecs, while `ticc-core` owns what goes inside a
//! snapshot. Layers:
//!
//! - [`encode`] — LEB128 varints, length-prefixed strings, and a
//!   bounds-checked decoder ([`Enc`]/[`Dec`]); every decode failure is
//!   a [`StoreError::Corrupt`], never a panic.
//! - [`codec`] — canonical codecs for [`Schema`](ticc_tdb::Schema),
//!   [`Transaction`](ticc_tdb::Transaction) (binary and the shell's
//!   `Pred(v, …)` text grammar), and FOTL formulas.
//! - [`frame`] — the checksummed `[len][tag][payload][checksum]`
//!   frame every log record travels in.
//! - [`recovery`] — the scanner: walks frames, stops at the first
//!   torn/corrupt one (the log truncates the file back to it), and
//!   surfaces each session's newest snapshot and transaction suffix.
//! - [`group`] — the log ([`GroupWal`]): one `TICCGRP01` file
//!   multiplexing session-tagged frames, one fsync per commit window
//!   regardless of how many sessions' appends it covers, and atomic
//!   [`GroupWal::compact`]. A single-tenant store is a group log with
//!   one registered session.
//! - [`segment`] — the cold-state spill segment ([`SegmentFile`]):
//!   an append-only `TICCSEG1` page file the engine evicts cold
//!   history states into under a bounded `HistoryBudget`. Checksummed
//!   like the WAL but never fsynced — it is a memory-relief tier, not
//!   a durability one.

pub mod codec;
pub mod encode;
pub mod frame;
pub mod group;
pub mod recovery;
pub mod segment;

pub use encode::{Dec, Enc, StoreError};
pub use frame::{frame_checksum, MAX_PAYLOAD};
pub use group::{GroupRecovered, GroupStats, GroupWal, RecoveredSession, GROUP_MAGIC};
pub use segment::{page_checksum, SegmentFile, SEG_MAGIC};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ticc_tdb::{Schema, Transaction};

    fn schema() -> Arc<Schema> {
        Schema::builder().pred("P", 1).build()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ticc-store-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn create_append_reopen_round_trip() {
        let sc = schema();
        let p = sc.pred("P").unwrap();
        let path = tmp("roundtrip.wal");
        let _ = std::fs::remove_file(&path);

        let wal = GroupWal::create(&path).unwrap();
        let id = wal.register("s").unwrap();
        wal.append_snapshot(id, b"snap-0").unwrap();
        let tx1 = Transaction::new().insert(p, vec![1]);
        let tx2 = Transaction::new().delete(p, vec![1]).insert(p, vec![2]);
        wal.append_tx(id, &tx1, false).unwrap();
        wal.append_tx(id, &tx2, true).unwrap();
        assert_eq!(wal.stats().frames, 4, "registration + snapshot + 2 txs");
        assert!(wal.stats().fsyncs >= 2, "snapshot + fsynced tx");
        drop(wal);

        let (_, rec) = GroupWal::open(&path).unwrap();
        let s = &rec.sessions[0];
        assert_eq!(s.snapshot.as_deref(), Some(&b"snap-0"[..]));
        assert_eq!(s.suffix.len(), 2);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(codec::tx_from_bytes(&s.suffix[0], &sc).unwrap(), tx1);
        assert_eq!(codec::tx_from_bytes(&s.suffix[1], &sc).unwrap(), tx2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let sc = schema();
        let p = sc.pred("P").unwrap();
        let path = tmp("torn.wal");
        let _ = std::fs::remove_file(&path);

        let wal = GroupWal::create(&path).unwrap();
        let id = wal.register("s").unwrap();
        wal.append_snapshot(id, b"snap").unwrap();
        wal.append_tx(id, &Transaction::new().insert(p, vec![1]), true)
            .unwrap();
        drop(wal);

        // Simulate a crash mid-append: half a frame of garbage.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0x55; 7]).unwrap();
        }

        let (wal, rec) = GroupWal::open(&path).unwrap();
        assert_eq!(rec.truncated_bytes, 7);
        assert_eq!(rec.sessions[0].suffix.len(), 1);
        // The log is writable again and the new frame is intact.
        wal.append_tx(id, &Transaction::new().insert(p, vec![2]), true)
            .unwrap();
        drop(wal);
        let (_, rec2) = GroupWal::open(&path).unwrap();
        assert_eq!(rec2.sessions[0].suffix.len(), 2);
        assert_eq!(rec2.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_leaves_single_snapshot() {
        let sc = schema();
        let p = sc.pred("P").unwrap();
        let path = tmp("compact.wal");
        let _ = std::fs::remove_file(&path);

        let wal = GroupWal::create(&path).unwrap();
        let id = wal.register("s").unwrap();
        wal.append_snapshot(id, b"old").unwrap();
        for i in 0..10 {
            wal.append_tx(id, &Transaction::new().insert(p, vec![i]), false)
                .unwrap();
        }
        wal.append_snapshot(id, b"fresh-snapshot").unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        wal.compact().unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        // Appends after compaction land after the new snapshot.
        wal.append_tx(id, &Transaction::new().insert(p, vec![99]), true)
            .unwrap();
        drop(wal);

        let (_, rec) = GroupWal::open(&path).unwrap();
        let s = &rec.sessions[0];
        assert_eq!(s.snapshot.as_deref(), Some(&b"fresh-snapshot"[..]));
        assert_eq!(s.suffix.len(), 1);
        assert_eq!(rec.frames, 3, "registration + snapshot + tx");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let path = tmp("never-created.wal");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(GroupWal::open(&path), Err(StoreError::Io(_))));
    }

    #[test]
    fn open_non_store_file_is_friendly() {
        let path = tmp("not-a-store.wal");
        std::fs::write(&path, b"hello world, definitely not a WAL").unwrap();
        match GroupWal::open(&path) {
            Err(StoreError::NotAStore(msg)) => assert!(msg.contains("TICCGRP01")),
            other => panic!("expected NotAStore, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_length_file_is_a_fresh_store() {
        let path = tmp("empty.wal");
        std::fs::write(&path, b"").unwrap();
        let (_, rec) = GroupWal::open(&path).unwrap();
        assert_eq!(rec.frames, 0);
        assert!(rec.sessions.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), GROUP_MAGIC);
        let _ = std::fs::remove_file(&path);
    }
}

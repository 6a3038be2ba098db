//! WAL fault injection against real files: truncate and corrupt the
//! log at every frame boundary (and every byte of a small log) and
//! assert recovery always yields an intact prefix — never a panic,
//! never a half-applied frame.

use ticc_store::codec::{tx_from_bytes, tx_to_bytes};
use ticc_store::{GroupRecovered, GroupWal, StoreError, GROUP_MAGIC};
use ticc_tdb::{Schema, Transaction};

fn schema() -> std::sync::Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Rep", 2).build()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ticc-store-fault-{tag}-{}.wal", std::process::id()))
}

/// Writes a one-session log — registration, one snapshot frame and
/// `txs` transaction frames; returns the raw file bytes and the frame
/// boundaries (byte offsets where each frame *ends*, starting with the
/// header).
fn build_log(tag: &str, txs: &[Transaction]) -> (std::path::PathBuf, Vec<u8>, Vec<usize>) {
    let path = temp_path(tag);
    let _ = std::fs::remove_file(&path);
    let wal = GroupWal::create(&path).unwrap();
    let len = || std::fs::metadata(&path).unwrap().len() as usize;
    let mut boundaries = vec![GROUP_MAGIC.len()];
    let id = wal.register("s").unwrap();
    boundaries.push(len());
    wal.append_snapshot(id, b"pretend-snapshot-payload")
        .unwrap();
    boundaries.push(len());
    for tx in txs {
        wal.append_tx(id, tx, false).unwrap();
        wal.flush().unwrap();
        boundaries.push(len());
    }
    drop(wal);
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes, boundaries)
}

fn sample_txs(sc: &Schema) -> Vec<Transaction> {
    let sub = sc.pred("Sub").unwrap();
    let rep = sc.pred("Rep").unwrap();
    vec![
        Transaction::new().insert(sub, vec![1]),
        Transaction::new()
            .insert(rep, vec![1, 2])
            .delete(sub, vec![1]),
        Transaction::new().insert(sub, vec![3]),
        Transaction::new()
            .delete(rep, vec![1, 2])
            .insert(sub, vec![4]),
    ]
}

/// Asserts `rec` holds exactly the first `intact` frames of the log
/// [`build_log`] wrote (registration, snapshot, then `txs`).
fn assert_prefix(rec: &GroupRecovered, intact: usize, txs: &[Transaction], label: &str) {
    assert_eq!(
        rec.frames as usize, intact,
        "{label}: wrong surviving prefix"
    );
    if intact == 0 {
        assert!(rec.sessions.is_empty(), "{label}");
        return;
    }
    let s = &rec.sessions[0];
    assert_eq!(s.snapshot.is_some(), intact >= 2, "{label}");
    assert_eq!(s.suffix.len(), intact.saturating_sub(2), "{label}");
    for (tx, payload) in txs.iter().zip(&s.suffix) {
        assert_eq!(tx_to_bytes(tx), *payload, "{label}");
    }
}

#[test]
fn truncation_at_and_between_every_frame_boundary_recovers_prefix() {
    let sc = schema();
    let txs = sample_txs(&sc);
    let (path, bytes, boundaries) = build_log("trunc", &txs);

    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        if cut == 0 {
            // Empty file: opens as a fresh log, header rewritten.
            let (_wal, recovered) = GroupWal::open(&path).unwrap();
            assert!(recovered.sessions.is_empty());
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                GROUP_MAGIC.len()
            );
            continue;
        }
        if cut < GROUP_MAGIC.len() {
            // Short header: not a log.
            assert!(
                matches!(GroupWal::open(&path), Err(StoreError::NotAStore(_))),
                "cut {cut}"
            );
            continue;
        }
        let (wal, recovered) = GroupWal::open(&path).unwrap();
        // The valid prefix is the largest boundary ≤ cut.
        let frames_intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let expected_end = *boundaries
            .iter()
            .filter(|&&b| b <= cut)
            .max()
            .unwrap_or(&GROUP_MAGIC.len());
        assert_eq!(
            recovered.truncated_bytes,
            (cut - expected_end) as u64,
            "cut {cut}"
        );
        assert_prefix(&recovered, frames_intact, &txs, &format!("cut {cut}"));
        if let Some(s) = recovered.sessions.first() {
            for (tx, payload) in txs.iter().zip(&s.suffix) {
                let back = tx_from_bytes(payload, &sc).unwrap();
                assert_eq!(back.updates(), tx.updates(), "cut {cut}");
            }
        }
        // The file was truncated to the valid prefix on disk.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            expected_end,
            "cut {cut}"
        );
        drop(wal);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupting_any_byte_recovers_a_strict_prefix() {
    let sc = schema();
    let txs = sample_txs(&sc);
    let (path, bytes, boundaries) = build_log("corrupt", &txs);

    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0x41;
        std::fs::write(&path, &mutated).unwrap();
        if i < GROUP_MAGIC.len() {
            assert!(
                matches!(GroupWal::open(&path), Err(StoreError::NotAStore(_))),
                "byte {i}"
            );
            // A rejected file is left exactly as it was.
            assert_eq!(std::fs::read(&path).unwrap(), mutated, "byte {i}");
            continue;
        }
        let (_wal, recovered) = GroupWal::open(&path).unwrap();
        // The corrupted byte lives in some frame; every frame before it
        // survives, that frame and everything after is discarded.
        let intact = boundaries.iter().filter(|&&b| b <= i).count() - 1;
        assert_prefix(&recovered, intact, &txs, &format!("byte {i}"));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn recovered_store_accepts_further_appends() {
    let sc = schema();
    let txs = sample_txs(&sc);
    let (path, bytes, boundaries) = build_log("resume", &txs);

    // Tear mid-way through the last frame, reopen, append a fresh
    // transaction: the log must contain the intact prefix plus the new
    // frame, nothing else.
    let cut = (boundaries[boundaries.len() - 2] + boundaries[boundaries.len() - 1]) / 2;
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let (wal, recovered) = GroupWal::open(&path).unwrap();
    assert_eq!(recovered.sessions[0].suffix.len(), txs.len() - 1);
    let id = wal.register("s").unwrap();
    assert_eq!(id, recovered.sessions[0].id, "registration survives");
    let sub = sc.pred("Sub").unwrap();
    let fresh = Transaction::new().insert(sub, vec![99]);
    wal.append_tx(id, &fresh, true).unwrap();
    drop(wal);

    let (_wal, after) = GroupWal::open(&path).unwrap();
    assert_eq!(after.truncated_bytes, 0, "clean log after recovery+append");
    let s = &after.sessions[0];
    assert_eq!(s.suffix.len(), txs.len());
    assert_eq!(s.suffix.last().unwrap(), &tx_to_bytes(&fresh));
    let _ = std::fs::remove_file(&path);
}

//! Crash recovery: the group-log scanner.
//!
//! `scan_group` walks the byte image of a group log frame by frame,
//! verifying each checksum, and stops at the first frame that does not
//! check out — a torn tail from a crash mid-write, flipped bits, or a
//! length field pointing past the end of the file all look the same
//! from here. Everything before that point is the *valid prefix*; the
//! log truncates the file back to it, so the invariant ("every byte on
//! disk is part of an intact frame") is restored before any new
//! append.
//!
//! The scanner also folds the recovery semantics a session needs: per
//! registered session, the payload of its **newest intact snapshot**
//! frame, and the raw transaction payloads that follow it (the
//! *suffix* the session replays through the engine's append path).
//! Transactions before a session's last snapshot are already covered
//! by it and are skipped. Compaction ([`crate::GroupWal::compact`])
//! rewrites the log from exactly this summary.

use std::collections::HashMap;

use crate::encode::{Dec, StoreError};
use crate::frame::next_frame;
use crate::group::{
    GroupRecovered, RecoveredSession, GROUP_MAGIC, TAG_SESSION_OPEN, TAG_SESSION_SNAPSHOT,
    TAG_SESSION_TX,
};

/// Scans a group-log image: per-session newest snapshot + suffix, and
/// the byte offset where the valid prefix ends. Fails only when the
/// image is not a group log at all (missing/short/incorrect magic);
/// frame-level damage is handled by stopping early.
pub(crate) fn scan_group(bytes: &[u8]) -> Result<(GroupRecovered, usize), StoreError> {
    if bytes.len() < GROUP_MAGIC.len() || &bytes[..GROUP_MAGIC.len()] != GROUP_MAGIC {
        return Err(StoreError::NotAStore(
            "missing TICCGRP01 header (is this a ticc group log?)".to_owned(),
        ));
    }
    let mut by_id: HashMap<u32, RecoveredSession> = HashMap::new();
    let mut frames = 0u64;
    let mut pos = GROUP_MAGIC.len();
    while let Some(frame) = next_frame(bytes, pos) {
        let payload = &bytes[frame.payload.clone()];
        let mut d = Dec::new(payload);
        match frame.tag {
            TAG_SESSION_OPEN => {
                let id = d.u32()?;
                let name = d.str()?.to_owned();
                d.finish()?;
                by_id.entry(id).or_insert(RecoveredSession {
                    id,
                    name,
                    snapshot: None,
                    suffix: Vec::new(),
                });
            }
            TAG_SESSION_TX => {
                let id = d.u32()?;
                let tx = d.bytes()?.to_vec();
                d.finish()?;
                if let Some(s) = by_id.get_mut(&id) {
                    s.suffix.push(tx);
                }
            }
            TAG_SESSION_SNAPSHOT => {
                let id = d.u32()?;
                let snap = d.bytes()?.to_vec();
                d.finish()?;
                if let Some(s) = by_id.get_mut(&id) {
                    s.snapshot = Some(snap);
                    s.suffix.clear();
                }
            }
            _ => {
                // Unknown tag: a future format or garbage that
                // happened to checksum — stop here either way.
                break;
            }
        }
        frames += 1;
        pos = frame.end;
    }
    let mut sessions: Vec<RecoveredSession> = by_id.into_values().collect();
    sessions.sort_by_key(|s| s.id);
    Ok((
        GroupRecovered {
            sessions,
            frames,
            truncated_bytes: 0,
        },
        pos,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Enc;
    use crate::frame::encode_frame_into;

    /// A session-0 frame: `tag` over `LEB 0 ++ bytes(body)` (or the
    /// registration payload `LEB 0 ++ str "s"`).
    fn frame(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(0);
        if tag == TAG_SESSION_OPEN {
            e.str("s");
        } else {
            e.bytes(body);
        }
        let mut f = Vec::new();
        encode_frame_into(&mut f, tag, &e.into_bytes()).unwrap();
        f
    }

    /// Header + registration of session 0, then `frames`.
    fn image(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut img = GROUP_MAGIC.to_vec();
        img.extend_from_slice(&frame(TAG_SESSION_OPEN, &[]));
        for (tag, p) in frames {
            img.extend_from_slice(&frame(*tag, p));
        }
        img
    }

    fn registered_len() -> usize {
        GROUP_MAGIC.len() + frame(TAG_SESSION_OPEN, &[]).len()
    }

    #[test]
    fn empty_store_scans_clean() {
        let (rec, valid_end) = scan_group(GROUP_MAGIC).unwrap();
        assert_eq!(valid_end, GROUP_MAGIC.len());
        assert_eq!(rec.frames, 0);
        assert!(rec.sessions.is_empty());
    }

    #[test]
    fn bad_magic_is_not_a_store() {
        assert!(scan_group(b"GARBAGE??").is_err());
        assert!(scan_group(b"TICC").is_err());
        assert!(scan_group(&[]).is_err());
    }

    #[test]
    fn newest_snapshot_wins_and_suffix_follows_it() {
        let img = image(&[
            (TAG_SESSION_TX, vec![1]),
            (TAG_SESSION_SNAPSHOT, vec![10]),
            (TAG_SESSION_TX, vec![2]),
            (TAG_SESSION_SNAPSHOT, vec![20]),
            (TAG_SESSION_TX, vec![3]),
            (TAG_SESSION_TX, vec![4]),
        ]);
        let (rec, valid_end) = scan_group(&img).unwrap();
        assert_eq!(valid_end, img.len());
        assert_eq!(rec.frames, 7);
        let s = &rec.sessions[0];
        assert_eq!(s.snapshot.as_deref(), Some(&[20u8][..]));
        assert_eq!(s.suffix, vec![vec![3], vec![4]]);
    }

    #[test]
    fn torn_tail_truncates_to_frame_boundary() {
        let full = image(&[
            (TAG_SESSION_SNAPSHOT, vec![7; 30]),
            (TAG_SESSION_TX, vec![1, 2, 3]),
        ]);
        let boundary = registered_len() + frame(TAG_SESSION_SNAPSHOT, &[7; 30]).len();
        // Every truncation point inside the last frame recovers
        // exactly the frames before it.
        for cut in boundary..full.len() {
            let (rec, valid_end) = scan_group(&full[..cut]).unwrap();
            assert_eq!(valid_end, boundary, "cut at {cut}");
            assert_eq!(rec.frames, 2);
            assert!(rec.sessions[0].snapshot.is_some());
            assert!(rec.sessions[0].suffix.is_empty());
        }
    }

    #[test]
    fn corrupt_frame_stops_the_scan_there() {
        let img = image(&[
            (TAG_SESSION_TX, vec![1]),
            (TAG_SESSION_TX, vec![2]),
            (TAG_SESSION_TX, vec![3]),
        ]);
        let frame_len = frame(TAG_SESSION_TX, &[1]).len();
        let first_end = registered_len() + frame_len;
        // Flip one byte in the middle frame: only the frames before it
        // survive, regardless of which byte is hit.
        for offset in 0..frame_len {
            let mut broken = img.clone();
            broken[first_end + offset] ^= 0xff;
            let (rec, valid_end) = scan_group(&broken).unwrap();
            assert!(rec.frames <= 2, "byte {offset}: corrupt frame accepted");
            assert_eq!(valid_end, first_end, "byte {offset}");
            assert_eq!(rec.sessions[0].suffix, vec![vec![1]], "byte {offset}");
        }
    }

    #[test]
    fn absurd_length_field_is_a_stop_not_an_allocation() {
        let mut img = GROUP_MAGIC.to_vec();
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        img.push(TAG_SESSION_TX);
        img.extend_from_slice(&[0; 64]);
        let (rec, valid_end) = scan_group(&img).unwrap();
        assert_eq!(valid_end, GROUP_MAGIC.len());
        assert_eq!(rec.frames, 0);
    }

    #[test]
    fn corrupt_latest_snapshot_falls_back_to_the_previous_one() {
        let mut img = image(&[
            (TAG_SESSION_SNAPSHOT, vec![10; 16]),
            (TAG_SESSION_TX, vec![2]),
            (TAG_SESSION_SNAPSHOT, vec![20; 16]),
        ]);
        // Corrupt the last frame (the newest snapshot).
        let last = img.len() - 1;
        img[last] ^= 0xff;
        let (rec, _) = scan_group(&img).unwrap();
        let s = &rec.sessions[0];
        assert_eq!(s.snapshot.as_deref(), Some(&[10u8; 16][..]));
        assert_eq!(s.suffix, vec![vec![2]]);
    }

    #[test]
    fn encoded_garbage_after_valid_prefix_is_ignored() {
        let mut img = image(&[(TAG_SESSION_SNAPSHOT, vec![1, 2, 3])]);
        let valid = img.len();
        let mut e = Enc::new();
        e.str("not a frame");
        img.extend_from_slice(&e.into_bytes());
        let (rec, valid_end) = scan_group(&img).unwrap();
        assert_eq!(valid_end, valid);
        assert_eq!(rec.frames, 2);
    }
}

//! The write-ahead log: one file, any number of sessions, one fsync
//! per commit window.
//!
//! `fsync` is per-*file*, so amortizing it across sessions requires
//! the sessions to share a file. A [`GroupWal`] is a single
//! append-only log multiplexing frames from any number of sessions,
//! each identified by a small integer id registered up front. It is
//! also the only log format: a single-tenant store (`ticc-shell
//! --store`, `SessionBuilder::store`) is a group log with one
//! registered session.
//!
//! ```text
//! TICCGRP01                                   9-byte magic + format version
//! [u32 len][16][LEB id, name][u64 checksum]   session registration
//! [u32 len][17][LEB id, tx bytes][u64 cksum]  one session transaction
//! [u32 len][18][LEB id, snapshot][u64 cksum]  one session snapshot
//! ```
//!
//! Frames use the [`crate::frame`] shape (`[len][tag][payload]
//! [checksum]`); session-scoped payloads carry the session id as a
//! canonical LEB128 prefix. Transaction payloads are the canonical
//! [`crate::codec::tx_to_bytes`] encoding. Recovery is
//! [`crate::recovery`]'s scanner: per session, the newest snapshot
//! plus the transactions logged after it.
//!
//! ## Commit windows
//!
//! Writers never hold the file while they wait. An append encodes its
//! frame, takes the *queue* lock just long enough to push the bytes
//! onto a pending buffer (acquiring a sequence number), then — if it
//! needs durability — takes the *io* lock. Whoever wins the io lock is
//! the window's **leader**: it swaps out the entire pending buffer
//! (its own frame plus every frame enqueued behind it), issues one
//! `write_all` and one `sync_data`, and publishes the durable sequence
//! number. Every append that lost the io race finds, on acquiring the
//! lock in turn, that the leader already made its frame durable and
//! returns immediately. Under load the window grows to whatever
//! enqueued during the previous fsync — the classic group commit — so
//! the fsync count scales with windows, not appends.
//!
//! The queue assigns sequence numbers under one lock in enqueue order,
//! and batches are written in io-lock acquisition order, each batch a
//! strict prefix-extension of the file: frames hit disk in exactly the
//! order their sequence numbers were assigned. An acknowledged
//! (synced) append is therefore covered by some `sync_data` that also
//! covered every frame ordered before it — a crash can only tear
//! frames *after* the last acknowledged window, which recovery
//! truncates like any torn tail.
//!
//! Non-durable appends (`Durability::Wal`-style) enqueue and
//! drain through the same path without requesting the fsync, so the
//! bytes still reach the kernel promptly and survive process crashes.
//!
//! ## Compaction
//!
//! [`GroupWal::compact`] rewrites the log as what recovery would find
//! in it — per registered session, its registration, its newest
//! snapshot and the suffix after it — into `<path>.compact.tmp`,
//! syncs it, renames it over the log and syncs the directory, all
//! under the io lock. A crash before the rename leaves the old log in
//! place (the stale temp file is ignored by [`GroupWal::open`] and
//! overwritten by the next compaction); a crash after it leaves the
//! compacted log. Either way recovery returns the same sessions.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::encode::{Enc, StoreError};
use crate::frame::encode_frame_into;
use crate::recovery::scan_group;
use ticc_tdb::Transaction;

/// Magic + format version: the first 9 bytes of every group log.
pub const GROUP_MAGIC: &[u8; 9] = b"TICCGRP01";

/// Frame tag: payload is `LEB id ++ str name`, registering a session.
pub const TAG_SESSION_OPEN: u8 = 16;
/// Frame tag: payload is `LEB id ++ bytes(tx)`, one session transaction.
pub const TAG_SESSION_TX: u8 = 17;
/// Frame tag: payload is `LEB id ++ bytes(snapshot)`, one session snapshot.
pub const TAG_SESSION_SNAPSHOT: u8 = 18;

/// Counters for the group-commit layer, surfaced by the server's
/// `stats` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Frames enqueued this process (registrations included).
    pub frames: u64,
    /// Commit windows: batches published by a `sync_data`.
    pub windows: u64,
    /// `fsync` calls issued (== `windows` plus explicit flushes).
    pub fsyncs: u64,
    /// Frames that shared a window with at least one other frame —
    /// the group-commit win; `frames - batched_frames` paid a
    /// dedicated write.
    pub batched_frames: u64,
    /// Largest number of frames a single window committed.
    pub max_batch: u64,
    /// Frame bytes written this process (header excluded).
    pub bytes_written: u64,
    /// Sessions found by the last recovery.
    pub recovered_sessions: u64,
    /// Bytes of torn/corrupt tail discarded by the last recovery.
    pub truncated_bytes: u64,
}

/// One session's recovered contents: the newest intact snapshot (if
/// any) and the raw transaction payloads logged after it.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The session's id in this log.
    pub id: u32,
    /// The name the session was registered under.
    pub name: String,
    /// Newest intact snapshot payload, if one was logged.
    pub snapshot: Option<Vec<u8>>,
    /// Raw transaction payloads after that snapshot (oldest first);
    /// decode with [`crate::codec::tx_from_bytes`].
    pub suffix: Vec<Vec<u8>>,
}

/// What recovery found in the valid prefix of a group log.
#[derive(Debug, Default)]
pub struct GroupRecovered {
    /// Recovered sessions, ordered by id.
    pub sessions: Vec<RecoveredSession>,
    /// Intact frames in the valid prefix.
    pub frames: u64,
    /// Bytes of torn/corrupt tail the open discarded.
    pub truncated_bytes: u64,
}

/// Queue side: pending frames and the sequence bookkeeping. Held only
/// for memcpy-scale critical sections, never across io.
#[derive(Debug)]
struct Queue {
    /// Encoded frames not yet handed to a writer.
    pending: Vec<u8>,
    /// Frames inside `pending`.
    pending_frames: u64,
    /// Sequence number of the newest enqueued frame.
    next_seq: u64,
    /// Highest sequence covered by a `sync_data`.
    durable_seq: u64,
    /// Highest sequence handed to `write_all` (durable or not).
    written_seq: u64,
    /// Registered session names. The queue lock is the registration
    /// authority: ids are unique and stable for the life of the file.
    names: HashMap<String, u32>,
    next_session: u32,
    stats: GroupStats,
    /// Set on the first io error; the log refuses further appends
    /// (its tail state is unknown) and reports this message.
    failed: Option<String>,
}

/// Io side: the file. Held across `write_all`/`sync_data`; acquiring
/// it is the leader election.
#[derive(Debug)]
struct Io {
    file: std::fs::File,
}

/// A shared multi-session group-commit log. All methods take `&self`;
/// the type is `Sync` and meant to live in an `Arc` shared by every
/// session bound to it.
#[derive(Debug)]
pub struct GroupWal {
    path: PathBuf,
    queue: Mutex<Queue>,
    io: Mutex<Io>,
}

impl GroupWal {
    /// Creates a fresh group log at `path` (truncating any existing
    /// file) and writes the header. The header and the file's
    /// directory entry are both synced, so a crash after `create`
    /// cannot lose a log that already acknowledged appends.
    pub fn create(path: impl AsRef<Path>) -> Result<GroupWal, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(GROUP_MAGIC)?;
        file.sync_data()?;
        sync_parent_dir(&path)?;
        Ok(GroupWal::from_parts(
            path,
            file,
            GroupStats::default(),
            HashMap::new(),
            0,
        ))
    }

    /// Opens an existing group log: scans every frame, truncates any
    /// torn/corrupt tail, and returns the log (positioned at the end
    /// of the valid prefix) plus each session's snapshot + suffix.
    pub fn open(path: impl AsRef<Path>) -> Result<(GroupWal, GroupRecovered), StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            // A crash can land between create(2) and the header write.
            file.write_all(GROUP_MAGIC)?;
            file.sync_data()?;
            sync_parent_dir(&path)?;
            let wal = GroupWal::from_parts(path, file, GroupStats::default(), HashMap::new(), 0);
            return Ok((wal, GroupRecovered::default()));
        }
        let (recovered, valid_end) = scan_group(&bytes)?;
        let truncated = (bytes.len() - valid_end) as u64;
        if truncated > 0 {
            file.set_len(valid_end as u64)?;
            file.sync_data()?;
        }
        file.seek(std::io::SeekFrom::Start(valid_end as u64))?;
        let mut recovered = recovered;
        recovered.truncated_bytes = truncated;
        let stats = GroupStats {
            recovered_sessions: recovered.sessions.len() as u64,
            truncated_bytes: truncated,
            ..GroupStats::default()
        };
        let names: HashMap<String, u32> = recovered
            .sessions
            .iter()
            .map(|s| (s.name.clone(), s.id))
            .collect();
        let next_session = recovered
            .sessions
            .iter()
            .map(|s| s.id + 1)
            .max()
            .unwrap_or(0);
        Ok((
            GroupWal::from_parts(path, file, stats, names, next_session),
            recovered,
        ))
    }

    /// Opens `path` if it exists, creates it otherwise.
    pub fn open_or_create(
        path: impl AsRef<Path>,
    ) -> Result<(GroupWal, GroupRecovered), StoreError> {
        if path.as_ref().exists() {
            GroupWal::open(path)
        } else {
            Ok((GroupWal::create(path)?, GroupRecovered::default()))
        }
    }

    fn from_parts(
        path: PathBuf,
        file: std::fs::File,
        stats: GroupStats,
        names: HashMap<String, u32>,
        next_session: u32,
    ) -> GroupWal {
        GroupWal {
            path,
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                pending_frames: 0,
                next_seq: 0,
                durable_seq: 0,
                written_seq: 0,
                names,
                next_session,
                stats,
                failed: None,
            }),
            io: Mutex::new(Io { file }),
        }
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Group-commit counters since this log was opened.
    pub fn stats(&self) -> GroupStats {
        self.queue.lock().expect("group queue lock").stats
    }

    /// Bytes currently enqueued but not yet handed to a writer — the
    /// admission-control gauge: a server sheds load when this grows
    /// past its cap instead of queueing without bound.
    pub fn pending_bytes(&self) -> usize {
        self.queue.lock().expect("group queue lock").pending.len()
    }

    /// Sessions registered in this log (recovered ones included).
    pub fn session_count(&self) -> usize {
        self.queue.lock().expect("group queue lock").names.len()
    }

    /// Registers `name`, returning its stable session id — the
    /// existing id if the name is already known (from this process or
    /// recovery), a fresh one (logged as a registration frame)
    /// otherwise. The frame is written promptly but made durable by
    /// the session's first synced append.
    pub fn register(&self, name: &str) -> Result<u32, StoreError> {
        {
            let mut q = self.queue.lock().expect("group queue lock");
            if let Some(msg) = &q.failed {
                return Err(StoreError::Io(std::io::Error::other(msg.clone())));
            }
            if let Some(&id) = q.names.get(name) {
                return Ok(id);
            }
            let id = q.next_session;
            q.next_session += 1;
            q.names.insert(name.to_owned(), id);
            let mut frame = Vec::new();
            encode_frame_into(&mut frame, TAG_SESSION_OPEN, &registration(id, name))?;
            q.pending.extend_from_slice(&frame);
            q.pending_frames += 1;
            q.next_seq += 1;
            q.stats.frames += 1;
        }
        self.drain(None)?;
        let q = self.queue.lock().expect("group queue lock");
        Ok(q.names[name])
    }

    /// Appends one transaction frame for session `id`. With `sync`,
    /// the frame — and every frame enqueued before it — is durable
    /// before this returns; the fsync is shared with whatever else the
    /// commit window picked up.
    pub fn append_tx(&self, id: u32, tx: &Transaction, sync: bool) -> Result<(), StoreError> {
        let payload = session_payload(id, &crate::codec::tx_to_bytes(tx));
        self.append(TAG_SESSION_TX, &payload, sync)
    }

    /// Appends one snapshot frame for session `id` (always synced: a
    /// snapshot exists to be found after a crash).
    pub fn append_snapshot(&self, id: u32, snapshot: &[u8]) -> Result<(), StoreError> {
        self.append(TAG_SESSION_SNAPSHOT, &session_payload(id, snapshot), true)
    }

    /// Forces everything enqueued so far onto disk.
    pub fn flush(&self) -> Result<(), StoreError> {
        let target = {
            let q = self.queue.lock().expect("group queue lock");
            if let Some(msg) = &q.failed {
                return Err(StoreError::Io(std::io::Error::other(msg.clone())));
            }
            if q.durable_seq >= q.next_seq {
                return Ok(());
            }
            q.next_seq
        };
        self.drain(Some(target))
    }

    fn append(&self, tag: u8, payload: &[u8], sync: bool) -> Result<(), StoreError> {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, tag, payload)?;
        let my_seq;
        {
            let mut q = self.queue.lock().expect("group queue lock");
            if let Some(msg) = &q.failed {
                return Err(StoreError::Io(std::io::Error::other(msg.clone())));
            }
            q.pending.extend_from_slice(&frame);
            q.pending_frames += 1;
            q.next_seq += 1;
            my_seq = q.next_seq;
            q.stats.frames += 1;
        }
        self.drain(if sync { Some(my_seq) } else { None })
    }

    /// Rewrites the log to hold, per registered session, only its
    /// registration (id unchanged), its newest snapshot and the
    /// transactions logged after it — exactly what [`GroupWal::open`]
    /// would recover, in fewer bytes. Runs under the io lock: pending
    /// frames are drained into the old file first, and appends racing
    /// the rewrite queue up and land in the compacted file. On return
    /// everything enqueued before the call is durable. A poisoned log
    /// refuses to compact; a failure before the rename leaves the log
    /// as it was, one after it poisons the log.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut io = self.io.lock().expect("group io lock");
        let (batch, end_seq) = {
            let mut q = self.queue.lock().expect("group queue lock");
            if let Some(msg) = &q.failed {
                return Err(StoreError::Io(std::io::Error::other(msg.clone())));
            }
            q.pending_frames = 0;
            (std::mem::take(&mut q.pending), q.next_seq)
        };
        if let Err(e) = io.file.write_all(&batch) {
            return Err(self.poison(e.into()));
        }
        {
            let mut q = self.queue.lock().expect("group queue lock");
            q.written_seq = q.written_seq.max(end_seq);
            q.stats.bytes_written += batch.len() as u64;
        }
        // Until the rename, a failure leaves the old log in place and
        // the handle on it: report it, poison nothing.
        let image = compacted_image(&std::fs::read(&self.path)?)?;
        let tmp = self.compact_tmp_path();
        if let Err(e) = write_synced(&tmp, &image) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // From the rename on, a failure leaves unknown which file the
        // path names and where the handle points: poison.
        let swapped = std::fs::rename(&tmp, &self.path)
            .map_err(StoreError::from)
            .and_then(|()| sync_parent_dir(&self.path))
            .and_then(|()| {
                let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
                file.seek(std::io::SeekFrom::End(0))?;
                Ok(file)
            });
        match swapped {
            Ok(file) => io.file = file,
            Err(e) => return Err(self.poison(e)),
        }
        let mut q = self.queue.lock().expect("group queue lock");
        q.durable_seq = q.durable_seq.max(end_seq);
        q.stats.bytes_written += image.len() as u64;
        // The temp file's sync and the directory's.
        q.stats.fsyncs += 2;
        Ok(())
    }

    /// Marks the log failed (every later append, flush and compaction
    /// reports `e`) and hands `e` back.
    fn poison(&self, e: StoreError) -> StoreError {
        self.queue.lock().expect("group queue lock").failed = Some(e.to_string());
        e
    }

    /// Where [`GroupWal::compact`] builds the rewritten log before
    /// renaming it over the original.
    fn compact_tmp_path(&self) -> PathBuf {
        let mut p = self.path.clone().into_os_string();
        p.push(".compact.tmp");
        PathBuf::from(p)
    }

    /// The write path. `need_durable: Some(seq)` blocks until `seq` is
    /// covered by a `sync_data` (becoming the window leader if nobody
    /// beat us to it); `None` drains pending bytes to the kernel
    /// without syncing.
    fn drain(&self, need_durable: Option<u64>) -> Result<(), StoreError> {
        let mut io = self.io.lock().expect("group io lock");
        let (batch, batch_frames, end_seq, fsync) = {
            let mut q = self.queue.lock().expect("group queue lock");
            if let Some(msg) = &q.failed {
                return Err(StoreError::Io(std::io::Error::other(msg.clone())));
            }
            match need_durable {
                // The previous leader's window covered us.
                Some(seq) if q.durable_seq >= seq => return Ok(()),
                None if q.pending.is_empty() => return Ok(()),
                _ => {}
            }
            let batch = std::mem::take(&mut q.pending);
            let batch_frames = std::mem::replace(&mut q.pending_frames, 0);
            (batch, batch_frames, q.next_seq, need_durable.is_some())
        };
        // Io happens outside the queue lock: appenders keep enqueueing
        // into the next window while this one writes.
        let res = (|| -> Result<(), StoreError> {
            if !batch.is_empty() {
                io.file.write_all(&batch)?;
            }
            if fsync {
                io.file.sync_data()?;
            }
            Ok(())
        })();
        let mut q = self.queue.lock().expect("group queue lock");
        match res {
            Ok(()) => {
                q.written_seq = q.written_seq.max(end_seq);
                q.stats.bytes_written += batch.len() as u64;
                if fsync {
                    q.durable_seq = q.durable_seq.max(q.written_seq);
                    q.stats.fsyncs += 1;
                    q.stats.windows += 1;
                    if batch_frames > 1 {
                        q.stats.batched_frames += batch_frames;
                    }
                    q.stats.max_batch = q.stats.max_batch.max(batch_frames);
                }
                Ok(())
            }
            Err(e) => {
                // The file's tail state is unknown; poison the log so
                // every session sees the failure rather than silently
                // diverging from disk.
                q.failed = Some(e.to_string());
                Err(e)
            }
        }
    }
}

/// The compacted form of a log image: header, then per recovered
/// session (in id order) its registration, newest snapshot and suffix.
fn compacted_image(bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
    let (recovered, _) = scan_group(bytes)?;
    let mut out = GROUP_MAGIC.to_vec();
    for s in &recovered.sessions {
        encode_frame_into(&mut out, TAG_SESSION_OPEN, &registration(s.id, &s.name))?;
        for (tag, body) in s
            .snapshot
            .iter()
            .map(|b| (TAG_SESSION_SNAPSHOT, b))
            .chain(s.suffix.iter().map(|b| (TAG_SESSION_TX, b)))
        {
            encode_frame_into(&mut out, tag, &session_payload(s.id, body))?;
        }
    }
    Ok(out)
}

/// A registration payload: `LEB id ++ str name`.
fn registration(id: u32, name: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(id);
    e.str(name);
    e.into_bytes()
}

/// A transaction or snapshot payload: `LEB id ++ bytes(body)`.
fn session_payload(id: u32, body: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(id);
    e.bytes(body);
    e.into_bytes()
}

/// Creates (or truncates) `path`, writes `bytes` and syncs them.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    Ok(())
}

/// Makes a rename inside `path`'s directory durable.
fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_tdb::{Schema, Transaction, Value};

    fn schema() -> std::sync::Arc<Schema> {
        Schema::builder().pred("P", 1).build()
    }

    fn tx(sc: &Schema, v: Value) -> Transaction {
        Transaction::new().insert(sc.pred("P").unwrap(), vec![v])
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ticc-group-{name}-{}.wal", std::process::id()))
    }

    #[test]
    fn register_is_stable_and_recovers() {
        let path = tmp("register");
        let _ = std::fs::remove_file(&path);
        let sc = schema();
        {
            let wal = GroupWal::create(&path).unwrap();
            assert_eq!(wal.register("alice").unwrap(), 0);
            assert_eq!(wal.register("bob").unwrap(), 1);
            assert_eq!(wal.register("alice").unwrap(), 0);
            wal.append_tx(0, &tx(&sc, 1), true).unwrap();
        }
        let (wal, rec) = GroupWal::open(&path).unwrap();
        assert_eq!(rec.sessions.len(), 2);
        assert_eq!(rec.sessions[0].name, "alice");
        assert_eq!(rec.sessions[0].suffix.len(), 1);
        assert_eq!(rec.sessions[1].name, "bob");
        assert!(rec.sessions[1].suffix.is_empty());
        // Ids survive reopen; new names extend past them.
        assert_eq!(wal.register("bob").unwrap(), 1);
        assert_eq!(wal.register("carol").unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_clears_the_session_suffix_only() {
        let path = tmp("snap");
        let _ = std::fs::remove_file(&path);
        let sc = schema();
        {
            let wal = GroupWal::create(&path).unwrap();
            let a = wal.register("a").unwrap();
            let b = wal.register("b").unwrap();
            wal.append_tx(a, &tx(&sc, 1), false).unwrap();
            wal.append_tx(b, &tx(&sc, 2), false).unwrap();
            wal.append_snapshot(a, b"A-SNAP").unwrap();
            wal.append_tx(a, &tx(&sc, 3), true).unwrap();
        }
        let (_, rec) = GroupWal::open(&path).unwrap();
        let a = &rec.sessions[0];
        assert_eq!(a.snapshot.as_deref(), Some(&b"A-SNAP"[..]));
        assert_eq!(a.suffix.len(), 1, "only the post-snapshot tx remains");
        let b = &rec.sessions[1];
        assert!(b.snapshot.is_none());
        assert_eq!(b.suffix.len(), 1, "b's suffix untouched by a's snapshot");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_synced_appends_share_fsyncs() {
        let path = tmp("concurrent");
        let _ = std::fs::remove_file(&path);
        let sc = schema();
        let wal = std::sync::Arc::new(GroupWal::create(&path).unwrap());
        const THREADS: usize = 8;
        const EACH: u64 = 40;
        let ids: Vec<u32> = (0..THREADS)
            .map(|i| wal.register(&format!("s{i}")).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for &id in &ids {
                let wal = std::sync::Arc::clone(&wal);
                let sc = std::sync::Arc::clone(&sc);
                scope.spawn(move || {
                    for v in 0..EACH {
                        wal.append_tx(id, &tx(&sc, v), true).unwrap();
                    }
                });
            }
        });
        let stats = wal.stats();
        let total = (THREADS as u64) * EACH;
        assert_eq!(stats.frames, total + THREADS as u64);
        // Group commit must have amortized at least some windows: a
        // synced append blocks in the kernel, so concurrent appenders
        // pile onto the next window.
        assert!(
            stats.fsyncs < total,
            "no batching: {} fsyncs for {total} synced appends",
            stats.fsyncs
        );
        assert!(stats.max_batch >= 2);
        drop(wal);
        let (_, rec) = GroupWal::open(&path).unwrap();
        assert_eq!(rec.sessions.len(), THREADS);
        for s in &rec.sessions {
            assert_eq!(s.suffix.len(), EACH as usize, "session {} lost txs", s.name);
        }
        let _ = std::fs::remove_file(&path);
    }
}

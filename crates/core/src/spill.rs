//! The cold-state pager: where truncated history instants live.
//!
//! When the engine truncates the in-memory `History` prefix behind
//! its [`HistoryBudget`](crate::HistoryBudget) window, the dropped states
//! are not gone — the rare slow paths (seed catch-up on growth, full
//! materialisation for `add_constraint`, explain, triggers) can still
//! ask for instant `t < base`. The [`HistoryPager`] serves them: it
//! dedups each spilled state by its canonical encoding (churn
//! workloads cycle through a handful of databases, so millions of
//! instants collapse to a few pages), appends distinct states to a
//! checksummed [`SegmentFile`] in temp storage, and lazily loads +
//! caches pages on demand.
//!
//! The segment is a **memory-relief tier, not a durability one**: a
//! snapshot copies the spilled pages it needs, so it stays fully
//! self-contained at any horizon and is the source of truth after a
//! crash (replaying the logged suffix re-truncates exactly as the
//! original run did), and the pager file can live in `temp_dir` and
//! die with the process.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::Error;
use crate::snapshot::{state_decode, state_encode};
use ticc_store::{Dec, Enc, SegmentFile};
use ticc_tdb::rng::splitmix64;
use ticc_tdb::{Schema, State};

/// Pages cached in memory at once; the cache is cleared wholesale
/// when full (loads cluster on a handful of hot pages, so anything
/// fancier buys nothing).
const CACHE_CAP: usize = 256;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn spill_path() -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("ticc-spill-{}-{}.seg", std::process::id(), seq));
    p
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0x5449_4343_5350_4c31; // "TICCSPL1"
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        acc ^= u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        acc = splitmix64(&mut acc);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        acc ^= u64::from_le_bytes(last);
        acc = splitmix64(&mut acc);
    }
    acc ^= bytes.len() as u64;
    splitmix64(&mut acc)
}

/// The spill tier for truncated history instants: a deduped,
/// checksummed, lazily-loaded page file.
///
/// Loads take `&self` (positioned reads + an interior-mutable cache),
/// so the constraint sweep can fault cold states in through a shared
/// borrow while it steps the entries mutably; spills take the pager
/// mutably. The pager is `Send` but not `Sync`: an engine moves
/// between threads, it is never stepped from two at once.
#[derive(Debug)]
pub struct HistoryPager {
    seg: SegmentFile,
    schema: Arc<Schema>,
    /// Page id of each spilled instant: `per_instant[t]` for
    /// `t < base`.
    per_instant: Vec<u32>,
    /// Dedup index: content hash → candidate page ids (verified
    /// against [`HistoryPager::raw`] on collision).
    dedup: HashMap<u64, Vec<u32>>,
    /// Canonical bytes of every distinct page. Dedup verification runs
    /// on the append hot path — churn workloads re-spill the same few
    /// states over and over — so it must not fault pages in from disk.
    /// O(distinct states), the same order the checkpoint's distinct
    /// table pays anyway.
    raw: HashMap<u32, Vec<u8>>,
    /// Decoded-page cache, cleared wholesale at [`CACHE_CAP`].
    cache: RefCell<HashMap<u32, Arc<State>>>,
    /// Pages faulted back in from disk (cache misses).
    loads: Cell<u64>,
}

impl HistoryPager {
    /// The backing segment file.
    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        self.seg.path()
    }

    /// Creates an empty pager for `schema`, backed by a fresh temp
    /// segment file (removed on drop).
    pub fn new(schema: Arc<Schema>) -> Result<HistoryPager, Error> {
        let seg = SegmentFile::create(spill_path())?;
        Ok(HistoryPager {
            seg,
            schema,
            per_instant: Vec::new(),
            dedup: HashMap::new(),
            raw: HashMap::new(),
            cache: RefCell::new(HashMap::new()),
            loads: Cell::new(0),
        })
    }

    /// Spills the next instant (instants must be spilled in temporal
    /// order, so the `i`-th call covers instant `i`). Dedups against
    /// already-spilled states; only novel states cost a page append.
    pub fn spill(&mut self, state: &State) -> Result<(), Error> {
        let mut e = Enc::new();
        state_encode(&mut e, &self.schema, state);
        self.spill_encoded(&e.into_bytes())
    }

    /// [`HistoryPager::spill`] for a state already in canonical
    /// encoded form (the snapshot-restore path re-spills decoded
    /// distinct states without round-tripping through `State`).
    pub fn spill_encoded(&mut self, bytes: &[u8]) -> Result<(), Error> {
        let h = hash_bytes(bytes);
        if let Some(candidates) = self.dedup.get(&h) {
            for &id in candidates {
                if self.raw[&id] == bytes {
                    self.per_instant.push(id);
                    return Ok(());
                }
            }
        }
        let id = self.seg.append(bytes)?;
        self.dedup.entry(h).or_default().push(id);
        self.raw.insert(id, bytes.to_vec());
        self.per_instant.push(id);
        Ok(())
    }

    /// Rolls the instant index back to `n` entries (undoing spills
    /// whose batch failed part-way). Appended pages stay in the
    /// segment and the dedup table — re-spilling the same states later
    /// reuses them for free.
    pub fn rollback_to(&mut self, n: usize) {
        self.per_instant.truncate(n);
    }

    /// Loads the state of spilled instant `t`, faulting its page in
    /// from the segment if it is not cached.
    pub fn load(&self, t: usize) -> Result<Arc<State>, Error> {
        let id = *self
            .per_instant
            .get(t)
            .ok_or_else(|| Error::Store(format!("instant {t} is not in the spill tier")))?;
        if let Some(s) = self.cache.borrow().get(&id) {
            return Ok(Arc::clone(s));
        }
        let bytes = self.seg.read(id)?;
        let mut d = Dec::new(&bytes);
        let state = state_decode(&mut d, &self.schema)?;
        d.finish().map_err(Error::from)?;
        self.loads.set(self.loads.get() + 1);
        let state = Arc::new(state);
        let mut cache = self.cache.borrow_mut();
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(id, Arc::clone(&state));
        Ok(state)
    }

    /// Raw canonical bytes of distinct page `id` (cache-bypassing;
    /// the snapshot encoder streams these straight into the
    /// distinct-state table).
    pub fn page_bytes(&self, id: u32) -> Result<Vec<u8>, Error> {
        self.seg.read(id).map_err(Error::from)
    }

    /// Page id of spilled instant `t`.
    pub fn page_of(&self, t: usize) -> Option<u32> {
        self.per_instant.get(t).copied()
    }

    /// Number of spilled instants (equals the history's `base`).
    pub fn spilled_instants(&self) -> usize {
        self.per_instant.len()
    }

    /// Number of distinct spilled states (segment pages).
    pub fn distinct(&self) -> usize {
        self.seg.pages()
    }

    /// Size of the spill segment file, in bytes.
    pub fn bytes(&self) -> u64 {
        self.seg.bytes()
    }

    /// Pages faulted back in from disk so far.
    pub fn loads(&self) -> u64 {
        self.loads.get()
    }
}

impl Drop for HistoryPager {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.seg.path());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_tdb::Transaction;

    fn schema() -> Arc<Schema> {
        Schema::builder().pred("P", 1).pred("Q", 2).build()
    }

    fn state_with(schema: &Arc<Schema>, vals: &[u64]) -> State {
        let p = schema.pred("P").unwrap();
        let mut s = State::empty(schema.clone());
        let mut tx = Transaction::new();
        for &v in vals {
            tx = tx.insert(p, vec![v]);
        }
        tx.apply_to(&mut s).unwrap();
        s
    }

    #[test]
    fn spill_dedups_and_loads_round_trip() {
        let sc = schema();
        let mut pager = HistoryPager::new(sc.clone()).unwrap();
        let a = state_with(&sc, &[1]);
        let b = state_with(&sc, &[1, 2]);
        // a, b, a, a, b: 5 instants, 2 distinct pages.
        for s in [&a, &b, &a, &a, &b] {
            pager.spill(s).unwrap();
        }
        assert_eq!(pager.spilled_instants(), 5);
        assert_eq!(pager.distinct(), 2);
        assert_eq!(*pager.load(0).unwrap(), a);
        assert_eq!(*pager.load(1).unwrap(), b);
        assert_eq!(*pager.load(3).unwrap(), a);
        // Instants 0 and 3 share a page: the second access was served
        // from cache, so only two faults happened in total.
        assert_eq!(pager.loads(), 2);
        assert!(pager.load(5).is_err());
        let path = pager.seg.path().to_path_buf();
        assert!(path.exists());
        drop(pager);
        assert!(!path.exists(), "temp segment removed on drop");
    }

    #[test]
    fn encoded_respill_matches_state_spill() {
        let sc = schema();
        let a = state_with(&sc, &[7, 8]);
        let mut e = Enc::new();
        state_encode(&mut e, &sc, &a);
        let bytes = e.into_bytes();
        let mut pager = HistoryPager::new(sc.clone()).unwrap();
        pager.spill(&a).unwrap();
        pager.spill_encoded(&bytes).unwrap();
        assert_eq!(pager.distinct(), 1, "encoded form dedups against spilled");
        assert_eq!(pager.page_bytes(0).unwrap(), bytes);
        assert_eq!(*pager.load(1).unwrap(), a);
    }
}

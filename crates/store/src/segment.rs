//! The cold-state spill segment: an append-only page file for
//! history instants evicted from memory by a bounded
//! `HistoryBudget`.
//!
//! ## On-disk layout
//!
//! ```text
//! TICCSEG1                                        8-byte magic + version
//! [u32 LE len][u32 LE id][payload][u64 LE checksum]   page 0
//! [u32 LE len][u32 LE id][payload][u64 LE checksum]   page 1
//! …
//! ```
//!
//! Pages carry opaque payloads (the engine stores its deduped
//! `state_encode` bytes) and sequential ids assigned at append time.
//! The checksum folds length, id, and payload through splitmix64 —
//! the same discipline as the WAL's [`frame_checksum`] — so a torn
//! write is detected on open and the file is truncated back to the
//! longest intact prefix, and a flipped bit inside a page surfaces as
//! a [`StoreError::Corrupt`] on [`SegmentFile::read`] instead of a
//! silently wrong state.
//!
//! Unlike the WAL, a segment is *not* a durability artifact: every
//! engine snapshot carries the spilled pages it needs, and replaying
//! the logged suffix re-spills whatever was truncated after it, so a
//! lost segment costs a rebuild from the snapshot, never correctness.
//! That is why appends do not fsync and the engine keeps segments in
//! temp storage.
//!
//! [`frame_checksum`]: crate::frame::frame_checksum

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::encode::StoreError;
use crate::frame::MAX_PAYLOAD;
use ticc_tdb::rng::splitmix64;

/// Magic + format version: the first 8 bytes of every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"TICCSEG1";

/// Folds a page's length, id, and payload through splitmix64.
pub fn page_checksum(id: u32, payload: &[u8]) -> u64 {
    let mut acc: u64 = 0x5449_4343_5345_4721; // "TICCSEG!"
    let mut mix = |word: u64| {
        acc ^= word;
        acc = splitmix64(&mut acc);
    };
    mix(payload.len() as u64);
    mix(u64::from(id));
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        mix(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        mix(u64::from_le_bytes(last));
    }
    acc
}

/// An open spill segment: sequential-id page appends, random-access
/// checksummed reads.
///
/// Reads take `&self` (they go through a positioned read on unix), so
/// a segment shared behind an `Arc` can serve concurrent page loads
/// from pool workers while the owner keeps appending through `&mut`.
#[derive(Debug)]
pub struct SegmentFile {
    file: File,
    path: PathBuf,
    /// Byte offset of each page header, indexed by page id.
    offsets: Vec<u64>,
    /// Append position (end of the valid prefix).
    end: u64,
    /// Bytes of torn/corrupt tail discarded when the file was opened.
    truncated_bytes: u64,
}

impl SegmentFile {
    /// Creates a fresh segment at `path`, truncating any existing
    /// file.
    pub fn create(path: impl AsRef<Path>) -> Result<SegmentFile, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(SEG_MAGIC)?;
        Ok(SegmentFile {
            file,
            path,
            offsets: Vec::new(),
            end: SEG_MAGIC.len() as u64,
            truncated_bytes: 0,
        })
    }

    /// Opens an existing segment: scans every page, truncates any
    /// torn/corrupt tail, and positions for appending. Page ids must
    /// be sequential from zero — anything else is treated as the
    /// start of a torn tail.
    pub fn open(path: impl AsRef<Path>) -> Result<SegmentFile, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(SEG_MAGIC)?;
            return Ok(SegmentFile {
                file,
                path,
                offsets: Vec::new(),
                end: SEG_MAGIC.len() as u64,
                truncated_bytes: 0,
            });
        }
        if bytes.len() < SEG_MAGIC.len() || &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
            return Err(StoreError::NotAStore(format!(
                "'{}' is not a ticc segment file",
                path.display()
            )));
        }
        let mut offsets = Vec::new();
        let mut pos = SEG_MAGIC.len();
        while let Some(total) = page_len_at(&bytes, pos, offsets.len() as u32) {
            offsets.push(pos as u64);
            pos += total;
        }
        let truncated = (bytes.len() - pos) as u64;
        if truncated > 0 {
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok(SegmentFile {
            file,
            path,
            offsets,
            end: pos as u64,
            truncated_bytes: truncated,
        })
    }

    /// The file this segment pages to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages in the valid prefix.
    pub fn pages(&self) -> usize {
        self.offsets.len()
    }

    /// Total file size of the valid prefix, in bytes.
    pub fn bytes(&self) -> u64 {
        self.end
    }

    /// Bytes of torn/corrupt tail discarded when this segment was
    /// opened.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// Appends one page and returns its id (sequential from zero). No
    /// fsync: segments are a memory-relief tier, not a durability one.
    pub fn append(&mut self, payload: &[u8]) -> Result<u32, StoreError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_PAYLOAD)
            .ok_or_else(|| {
                StoreError::Corrupt(format!("segment page of {} bytes too large", payload.len()))
            })?;
        let id = u32::try_from(self.offsets.len())
            .map_err(|_| StoreError::Corrupt("segment page id space exhausted".into()))?;
        let mut page = Vec::with_capacity(4 + 4 + payload.len() + 8);
        page.extend_from_slice(&len.to_le_bytes());
        page.extend_from_slice(&id.to_le_bytes());
        page.extend_from_slice(payload);
        page.extend_from_slice(&page_checksum(id, payload).to_le_bytes());
        self.file.write_all(&page)?;
        self.offsets.push(self.end);
        self.end += page.len() as u64;
        Ok(id)
    }

    /// Reads page `id` back, verifying its checksum. Takes `&self`:
    /// the read is positioned (`pread`) and never disturbs the append
    /// cursor.
    pub fn read(&self, id: u32) -> Result<Vec<u8>, StoreError> {
        let off = *self
            .offsets
            .get(id as usize)
            .ok_or_else(|| StoreError::Corrupt(format!("segment page {id} out of range")))?;
        let mut header = [0u8; 8];
        read_exact_at(&self.file, &mut header, off)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let stored_id = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if stored_id != id || len > MAX_PAYLOAD as usize {
            return Err(StoreError::Corrupt(format!(
                "segment page {id} has a corrupt header"
            )));
        }
        let mut body = vec![0u8; len + 8];
        read_exact_at(&self.file, &mut body, off + 8)?;
        let payload = &body[..len];
        let stored_sum = u64::from_le_bytes(body[len..].try_into().expect("8 bytes"));
        if stored_sum != page_checksum(id, payload) {
            return Err(StoreError::Corrupt(format!(
                "segment page {id} failed its checksum"
            )));
        }
        Ok(payload.to_vec())
    }
}

/// Validates the page at `pos` (length bounds, sequential id,
/// checksum) and returns its total on-disk length, or `None` where
/// the valid prefix ends.
fn page_len_at(bytes: &[u8], pos: usize, expect_id: u32) -> Option<usize> {
    let header = bytes.get(pos..pos + 8)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let id = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD || id != expect_id {
        return None;
    }
    let len = len as usize;
    let payload = bytes.get(pos + 8..pos + 8 + len)?;
    let sum_bytes = bytes.get(pos + 8 + len..pos + 8 + len + 8)?;
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if stored != page_checksum(id, payload) {
        return None;
    }
    Some(8 + len + 8)
}

#[cfg(target_family = "unix")]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> Result<(), StoreError> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off).map_err(StoreError::Io)
}

#[cfg(not(target_family = "unix"))]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> Result<(), StoreError> {
    // Portable fallback: clone the handle so the append cursor of the
    // original file stays put.
    let mut f = file.try_clone().map_err(StoreError::Io)?;
    f.seek(SeekFrom::Start(off)).map_err(StoreError::Io)?;
    f.read_exact(buf).map_err(StoreError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ticc-seg-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn pages_round_trip_with_sequential_ids() {
        let path = tmp("roundtrip");
        let mut seg = SegmentFile::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (0..17u8).map(|i| vec![i; (i as usize) * 3 + 1]).collect();
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(seg.append(p).unwrap(), i as u32);
        }
        assert_eq!(seg.pages(), 17);
        // Interleave reads with an append: &self reads must not move
        // the append cursor.
        assert_eq!(seg.read(3).unwrap(), payloads[3]);
        assert_eq!(seg.append(b"tail").unwrap(), 17);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&seg.read(i as u32).unwrap(), p);
        }
        assert_eq!(seg.read(17).unwrap(), b"tail");
        assert!(seg.read(18).is_err(), "past-the-end reads error");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_recovers_and_truncates_a_torn_tail() {
        let path = tmp("torn");
        let mut seg = SegmentFile::create(&path).unwrap();
        for i in 0..5u8 {
            seg.append(&[i; 40]).unwrap();
        }
        let full = seg.bytes();
        drop(seg);
        // Tear the last page at every possible byte boundary: the
        // first four pages must always survive.
        let bytes = std::fs::read(&path).unwrap();
        let fourth_end = {
            let seg = SegmentFile::open(&path).unwrap();
            let _ = seg;
            // Recompute: magic + 4 pages of (8 + 40 + 8).
            (SEG_MAGIC.len() + 4 * 56) as u64
        };
        for cut in fourth_end..full {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let seg = SegmentFile::open(&path).unwrap();
            assert_eq!(seg.pages(), 4, "cut at {cut}");
            assert_eq!(seg.truncated_bytes(), cut - fourth_end);
            assert_eq!(seg.bytes(), fourth_end);
            for i in 0..4u8 {
                assert_eq!(seg.read(i as u32).unwrap(), vec![i; 40]);
            }
        }
        // Appends continue after recovery with the right next id.
        std::fs::write(&path, &bytes[..(fourth_end + 13) as usize]).unwrap();
        let mut seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.append(b"after-recovery").unwrap(), 4);
        assert_eq!(seg.read(4).unwrap(), b"after-recovery");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_page_reads_error_instead_of_lying() {
        let path = tmp("corrupt");
        let mut seg = SegmentFile::create(&path).unwrap();
        seg.append(&[1u8; 64]).unwrap();
        seg.append(&[2u8; 64]).unwrap();
        drop(seg);
        // Flip one payload byte of page 0 on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = SEG_MAGIC.len() + 8 + 10;
        bytes[victim] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // Scan-on-open stops at the corrupt page (it guards the whole
        // suffix), so the file recovers to zero pages…
        let seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.pages(), 0);
        drop(seg);
        // …and a page corrupted *after* open (bit rot under a live
        // handle) fails its checksum at read time.
        std::fs::write(&path, &bytes).unwrap();
        let reopened = {
            // Rebuild the index against the intact image, then rot it.
            let intact: Vec<u8> = {
                let mut b = std::fs::read(&path).unwrap();
                b[victim] ^= 0xff;
                b
            };
            std::fs::write(&path, &intact).unwrap();
            let seg = SegmentFile::open(&path).unwrap();
            let mut rotted = intact;
            rotted[victim] ^= 0xff;
            std::fs::write(&path, &rotted).unwrap();
            seg
        };
        assert_eq!(reopened.pages(), 2);
        let err = reopened.read(0).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "want a checksum error, got: {err}"
        );
        assert_eq!(reopened.read(1).unwrap(), [2u8; 64]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_non_segment_files() {
        let path = tmp("notaseg");
        std::fs::write(&path, b"definitely not a segment").unwrap();
        let err = SegmentFile::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::NotAStore(_)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_is_a_fresh_segment() {
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        let mut seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.pages(), 0);
        assert_eq!(seg.append(b"first").unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}

//! The checksummed frame every log record travels in.
//!
//! ```text
//! [u32 LE payload_len][u8 tag][payload][u64 LE checksum]
//! ```
//!
//! The checksum folds the length, tag, and payload through splitmix64
//! ([`frame_checksum`]), so a torn write — a crash mid-`write(2)` — or
//! flipped bits anywhere in a frame are detected on the next open, and
//! recovery truncates the file back to the longest prefix of intact
//! frames. Writers emit each batch of frames with a single
//! `write_all`, which keeps the only possible failure mode "tail
//! garbage", exactly what the frame scanner reports as no frame.

use crate::encode::StoreError;
use ticc_tdb::rng::splitmix64;

/// Upper bound on a single frame payload (64 MiB). A length field
/// beyond this is treated as corruption by the scanner — it bounds
/// allocation on garbage input.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Folds a frame's length, tag, and payload through splitmix64.
pub fn frame_checksum(tag: u8, payload: &[u8]) -> u64 {
    let mut acc: u64 = 0x5449_4343_5354_4f52; // "TICCSTOR"
    let mut mix = |word: u64| {
        acc ^= word;
        acc = splitmix64(&mut acc);
    };
    mix(payload.len() as u64);
    mix(u64::from(tag));
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

/// Appends one encoded frame (`[len][tag][payload][checksum]`) to
/// `buf`.
pub(crate) fn encode_frame_into(
    buf: &mut Vec<u8>,
    tag: u8,
    payload: &[u8],
) -> Result<(), StoreError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_PAYLOAD)
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "frame payload of {} bytes too large",
                payload.len()
            ))
        })?;
    buf.reserve(4 + 1 + payload.len() + 8);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&frame_checksum(tag, payload).to_le_bytes());
    Ok(())
}

/// One intact frame located by [`next_frame`].
#[derive(Debug)]
pub(crate) struct RawFrame {
    /// The frame's tag byte.
    pub tag: u8,
    /// Byte range of the payload inside the scanned image.
    pub payload: std::ops::Range<usize>,
    /// Offset of the first byte after the frame (payload + checksum).
    pub end: usize,
}

/// Decodes the frame starting at `pos`, verifying the length bound and
/// checksum. `None` means no intact frame starts there — a torn tail,
/// flipped bits, or end of file all look the same — and scans stop and
/// truncate to `pos`.
pub(crate) fn next_frame(bytes: &[u8], pos: usize) -> Option<RawFrame> {
    // Header: 4-byte length + 1-byte tag.
    if bytes.len().saturating_sub(pos) < 5 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return None;
    }
    let len = len as usize;
    let tag = bytes[pos + 4];
    let body = pos + 5;
    // Payload + 8-byte checksum must fit.
    if bytes.len() - body < len + 8 {
        return None;
    }
    let payload = body..body + len;
    let stored = u64::from_le_bytes(
        bytes[payload.end..payload.end + 8]
            .try_into()
            .expect("8 bytes"),
    );
    if stored != frame_checksum(tag, &bytes[payload.clone()]) {
        return None;
    }
    Some(RawFrame {
        tag,
        end: payload.end + 8,
        payload,
    })
}

//! `ticc-wire-v1` — the server's length-prefixed JSON frame protocol.
//!
//! Every frame, in both directions, is
//!
//! ```text
//! [u32 LE payload length][payload: one compact JSON document, UTF-8]
//! ```
//!
//! Requests are objects with an `"op"` field; responses always carry
//! `"ok"` (`true` plus op-specific fields, or `false` plus `"error"`
//! and a stable machine-readable `"code"`). The protocol itself is
//! versioned through the `hello` handshake: the client's first frame
//! must be `{"op":"hello","schema":"ticc-wire-v1"}`, and a server that
//! does not speak that schema refuses with code `unsupported-schema`
//! rather than guessing.
//!
//! | op           | request fields                                        | success fields |
//! |--------------|-------------------------------------------------------|----------------|
//! | `hello`      | `schema`                                              | `schema`, `server` |
//! | `open`       | `session`, opt. `preds` `[[name,arity],…]`, `consts` `[[name,value],…]`, `constraints`/`triggers` `[[name,src],…]`, per-tenant knobs `history_window`, `max_inflight`, `max_pending_bytes` | `session`, `resumed`, `states`, `constraints` |
//! | `append`     | `session`, opt. `insert`/`delete` (arrays of `"Pred(v,…)"` facts in the store codec's text grammar; inserts apply first) and/or ordered `ops` `[["+"\|"-", fact],…]` | `t`, `events`, `fired` |
//! | `append_batch` | `session`, `txs` (array of transaction objects, each the `append` shape) — commits consecutive states in one constraint sweep and one group-commit window | `results` (array of `{t, events, fired}`) |
//! | `status`     | `session`                                             | `constraints` array |
//! | `stats`      | `session`                                             | `stats` (a `ticc-engine-stats-v4` object with the `server` object filled in) |
//! | `checkpoint` | `session`                                             | `bytes` |
//! | `close`      | `session`                                             | `session` (checkpoints, parks the checkpoint for reopen, unregisters) |
//! | `shutdown`   | opt. `checkpoint` (default `true`)                    | — (server stops accepting, drains, exits) |
//!
//! Error codes: `unsupported-schema`, `parse` (unreadable frame),
//! `bad-frame` (readable JSON, wrong shape), `unknown-session`,
//! `session-limit`, `backpressure` (global admission control refused
//! the append; retry later), `quota` (this *session's* per-tenant
//! inflight/byte quota refused the append; retry later), `engine`
//! (the constraint pipeline itself failed). Backpressure and quota
//! are explicit, immediate responses — the server never queues
//! unboundedly.

use std::io::{self, Read, Write};

use crate::json::{self, Json};

/// The one wire schema this build speaks.
pub const WIRE_SCHEMA: &str = "ticc-wire-v1";

/// Hard ceiling a frame length prefix may claim, independent of the
/// configurable per-server limit (keeps a corrupt prefix from
/// allocating gigabytes).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Reads one frame. `Ok(None)` is a clean EOF *between* frames;
/// mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > max_bytes.min(MAX_FRAME_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes} byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Incremental frame decoder for the event-driven serving core:
/// nonblocking reads deliver bytes in arbitrary chunks (a frame can
/// arrive split across reads, or many frames in one read), so the
/// decoder accumulates bytes and yields complete frames as they
/// materialise. The buffer is compacted as frames are consumed;
/// steady-state decoding reuses its capacity.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder (no buffer allocated until bytes arrive).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds freshly read bytes into the decoder.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed frames at the front of the
        // buffer are dead weight the next read would otherwise pile
        // on top of.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame's payload, `Ok(None)` if more
    /// bytes are needed, or an error when the length prefix exceeds
    /// `max_bytes` (the connection is beyond recovery — framing can no
    /// longer be trusted).
    pub fn next_frame(&mut self, max_bytes: usize) -> Result<Option<Vec<u8>>, String> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > max_bytes.min(MAX_FRAME_BYTES) {
            return Err(format!(
                "frame of {len} bytes exceeds the {max_bytes} byte limit"
            ));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A success response scaffold: `{"ok":true, …fields}`.
pub fn ok(fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(fields);
    json::obj(pairs)
}

/// An error response: `{"ok":false,"code":…,"error":…}`.
pub fn err(code: &str, message: impl Into<String>) -> Json {
    json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", json::s(code)),
        ("error", Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"hello\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"{\"op\":\"hello\"}"[..])
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"second"[..])
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversize_and_torn_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x41; 100]).unwrap();
        let mut r = &buf[..];
        assert!(read_frame(&mut r, 10).is_err(), "over the limit");
        // Mid-frame EOF: length says 100, only 50 bytes follow.
        let mut torn = buf[..54].to_vec();
        torn.truncate(54);
        assert!(read_frame(&mut &torn[..], 1024).is_err());
    }

    #[test]
    fn response_scaffolds_render_stable_shapes() {
        let o = ok(vec![("t", Json::U64(3))]);
        assert_eq!(o.render(), "{\"ok\":true,\"t\":3}");
        let e = err("backpressure", "429 too many staged bytes");
        assert_eq!(
            e.render(),
            "{\"ok\":false,\"code\":\"backpressure\",\"error\":\"429 too many staged bytes\"}"
        );
    }
}

//! The length-prefixed frame layer: every message on a connection —
//! either direction — is one [`Frame`], a fixed 16-byte header followed
//! by an opaque payload the [`wire`](crate::wire) layer encodes.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"LGCP"
//! 4       1     version (currently 2)
//! 5       1     kind    (FrameKind discriminant)
//! 6       2     reserved (senders write 0; receivers ignore)
//! 8       4     request id (LE; echoed on the response)
//! 12      4     payload length (LE; at most MAX_PAYLOAD)
//! 16      …     payload
//! ```
//!
//! The reader is defensive by construction: every failure mode of a
//! hostile or broken peer — wrong magic, unknown version or kind, a
//! length field past [`MAX_PAYLOAD`], a stream that ends mid-header or
//! mid-payload — comes back as a typed [`ProtocolError`], never a panic
//! and never an unbounded allocation (the payload buffer is only
//! reserved after the length check). See `crates/server/PROTOCOL.md`
//! for the full spec and versioning rules.

use std::fmt;
use std::io::{self, Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"LGCP";

/// Protocol version this build speaks. A peer announcing a different
/// version is rejected with [`ProtocolError::UnsupportedVersion`].
/// (2 since the `QUERY` algorithm parameters lost their direction suffix:
/// a version-1 body would otherwise misparse.)
pub const VERSION: u8 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame payload (32 MiB). Large enough for any
/// realistic diffusion result, small enough that a hostile length field
/// cannot make the server reserve unbounded memory.
pub const MAX_PAYLOAD: usize = 32 << 20;

/// Frame type. Requests are `0x01..=0x7f`, responses `0x80..=0xff`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: run a clustering query (payload: tenant +
    /// priority class + query + optional budget).
    Query = 0x01,
    /// Client → server: render the metrics page (empty payload).
    Metrics = 0x02,
    /// Client → server: list registered graph names (empty payload).
    List = 0x03,
    /// Client → server: liveness check (empty payload).
    Ping = 0x04,
    /// Server → client: a completed [`ClusterResult`](lgc_core::ClusterResult).
    Result = 0x81,
    /// Server → client: a typed [`WireError`](crate::wire::WireError)
    /// (possibly carrying a partial result and a retry hint).
    Error = 0x82,
    /// Server → client: the metrics page as UTF-8 text.
    MetricsText = 0x83,
    /// Server → client: sorted graph names.
    Names = 0x84,
    /// Server → client: liveness answer (empty payload).
    Pong = 0x85,
}

impl FrameKind {
    /// Decodes a kind byte; `None` for values this version doesn't know.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Query,
            0x02 => FrameKind::Metrics,
            0x03 => FrameKind::List,
            0x04 => FrameKind::Ping,
            0x81 => FrameKind::Result,
            0x82 => FrameKind::Error,
            0x83 => FrameKind::MetricsText,
            0x84 => FrameKind::Names,
            0x85 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// One decoded frame: kind, request id, raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// Request id; responses echo the request's id so a pipelining
    /// client can match out-of-order completions.
    pub id: u32,
    /// Opaque payload (decoded by the [`wire`](crate::wire) layer).
    pub payload: Vec<u8>,
}

/// Everything that can go wrong between the socket and a decoded
/// request/response. Framing-level variants (`BadMagic`,
/// `UnsupportedVersion`, `Truncated`, `Oversized`) mean stream sync is
/// lost and the connection must close; `Malformed` payloads inside a
/// well-formed frame leave the connection usable.
#[derive(Debug)]
pub enum ProtocolError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header announced a protocol version this build doesn't speak.
    UnsupportedVersion(u8),
    /// The header's kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The header's payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Announced payload length.
        len: u64,
        /// The configured maximum.
        max: u64,
    },
    /// The stream ended mid-header or mid-payload.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A well-formed frame carried a payload the wire layer rejects.
    Malformed {
        /// What the decoder was parsing when it failed.
        context: &'static str,
    },
    /// An I/O error on the underlying stream.
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Closed => write!(f, "connection closed"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (speak {VERSION})")
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame payload of {len} B exceeds the {max} B maximum")
            }
            ProtocolError::Truncated { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            ProtocolError::Malformed { context } => {
                write!(f, "malformed payload while decoding {context}")
            }
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl ProtocolError {
    /// `true` when stream sync is lost and the connection must close
    /// (the reader cannot tell where the next frame starts).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ProtocolError::Malformed { .. })
    }
}

/// Reads exactly `buf.len()` bytes, reporting a clean close (`Ok(false)`
/// only when `allow_eof` and zero bytes were read) vs a mid-read
/// truncation.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    allow_eof: bool,
    context: &'static str,
) -> Result<bool, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && allow_eof {
                    Ok(false)
                } else {
                    Err(ProtocolError::Truncated { context })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame. A peer that closes the connection *between* frames
/// yields [`ProtocolError::Closed`]; closing mid-frame is `Truncated`.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header, true, "frame header")? {
        return Err(ProtocolError::Closed);
    }
    if header[0..4] != MAGIC {
        return Err(ProtocolError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion(header[4]));
    }
    let kind = FrameKind::from_u8(header[5]).ok_or(ProtocolError::UnknownKind(header[5]))?;
    // header[6..8]: reserved — ignored on read (see PROTOCOL.md).
    let id = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let len = u32::from_le_bytes([header[12], header[13], header[14], header[15]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized {
            len: len as u64,
            max: MAX_PAYLOAD as u64,
        });
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, false, "frame payload")?;
    Ok(Frame { kind, id, payload })
}

/// Writes one frame (header + payload). The caller flushes.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, id: u32, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_PAYLOAD, "oversized outgoing frame");
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = kind as u8;
    // header[6..8] reserved: zero.
    header[8..12].copy_from_slice(&id.to_le_bytes());
    header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(kind: FrameKind, id: u32, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, id, payload).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn frame_roundtrip() {
        let f = roundtrip(FrameKind::Query, 7, b"hello");
        assert_eq!(f.kind, FrameKind::Query);
        assert_eq!(f.id, 7);
        assert_eq!(f.payload, b"hello");
        let f = roundtrip(FrameKind::Pong, u32::MAX, &[]);
        assert_eq!(f.kind, FrameKind::Pong);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn clean_close_vs_truncation() {
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new())),
            Err(ProtocolError::Closed)
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ping, 1, b"xyz").unwrap();
        for cut in 1..buf.len() {
            let e = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(
                matches!(e, ProtocolError::Truncated { .. }),
                "cut at {cut}: {e}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_and_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ping, 1, &[]).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(ProtocolError::BadMagic(_))
        ));

        // A future version and the previous one alike.
        for v in [9, VERSION - 1] {
            let mut bad = buf.clone();
            bad[4] = v;
            assert!(matches!(
                read_frame(&mut Cursor::new(bad)),
                Err(ProtocolError::UnsupportedVersion(got)) if got == v
            ));
        }

        let mut bad = buf.clone();
        bad[5] = 0x55;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(ProtocolError::UnknownKind(0x55))
        ));

        let mut bad = buf;
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn reserved_bytes_are_ignored_on_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::List, 3, &[]).unwrap();
        buf[6] = 0xab; // a future minor revision setting a flag
        buf[7] = 0xcd;
        let f = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(f.kind, FrameKind::List);
        assert_eq!(f.id, 3);
    }

    #[test]
    fn fatality_split() {
        assert!(ProtocolError::BadMagic(*b"nope").is_fatal());
        assert!(ProtocolError::Truncated { context: "x" }.is_fatal());
        assert!(!ProtocolError::Malformed { context: "x" }.is_fatal());
    }
}

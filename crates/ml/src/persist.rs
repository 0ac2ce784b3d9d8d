//! Versioned binary persistence for fitted models.
//!
//! The format is deliberately hand-rolled (the workspace has no
//! serde): little-endian scalars, `u64` length prefixes on every
//! variable-length field, and a fixed frame around each artifact —
//!
//! ```text
//! +---------+-----------+--------+----------------+-----------------+----------+
//! | "MPCP"  | version   | kind   | payload_len    |     payload     | checksum |
//! | 4 bytes | u32 LE    | u8     | u64 LE         | payload_len B   | u64 LE   |
//! +---------+-----------+--------+----------------+-----------------+----------+
//! ```
//!
//! The checksum is FNV-1a 64 over the payload only, so header
//! corruption and payload corruption are distinguishable: a flipped
//! magic byte is [`CodecError::BadMagic`], a bumped version is
//! [`CodecError::UnknownVersion`] (detected *before* any payload is
//! touched, which is what makes forward-compat refusals cheap and
//! safe), and a flipped payload byte is [`CodecError::ChecksumMismatch`].
//! Truncation anywhere is [`CodecError::Truncated`]. Decoding never
//! panics; structural invariants the in-memory types rely on (tree
//! child indices, basis sizes, column counts) are re-validated by each
//! model's [`Persist::decode`] and reported as [`CodecError::Invalid`].
//!
//! Floats round-trip through [`f64::to_bits`]/[`f64::from_bits`], so a
//! decoded model reproduces its in-memory predictions bit-identically
//! (asserted by the differential round-trip suite).

use std::fmt;

/// Leading magic bytes of every artifact.
pub const MAGIC: [u8; 4] = *b"MPCP";

/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;

/// Artifact kind tag: a single fitted [`crate::Model`].
pub const KIND_MODEL: u8 = 1;

/// Artifact kind tag: a whole selector bundle (written by `mpcp-core`).
pub const KIND_SELECTOR: u8 = 2;

/// Frame kind tag: one request message on the `mpcp served` wire.
pub const KIND_NET_REQUEST: u8 = 3;

/// Frame kind tag: one response message on the `mpcp served` wire.
pub const KIND_NET_RESPONSE: u8 = 4;

/// Frame kind tag: the header frame of a campaign results store.
pub const KIND_CAMPAIGN_HEADER: u8 = 5;

/// Frame kind tag: one columnar result chunk in a campaign store.
pub const KIND_CAMPAIGN_CHUNK: u8 = 6;

/// Fixed byte length of the header that precedes every payload:
/// magic (4) + version `u32` (4) + kind `u8` (1) + payload length
/// `u64` (8) + FNV-1a checksum `u64` (8).
pub const FRAME_HEADER_LEN: usize = 25;

/// Why a byte stream could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before a field could be read in full.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// The leading magic bytes are not `b"MPCP"`.
    BadMagic,
    /// The format version is newer (or older) than this build supports.
    UnknownVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The artifact-kind byte does not match what the caller expected
    /// (e.g. a bare model file passed where a selector was required).
    WrongKind {
        /// Kind the caller asked to decode.
        expected: u8,
        /// Kind found in the header.
        found: u8,
    },
    /// The payload checksum does not match its header.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// The bytes decode structurally but violate a model invariant
    /// (out-of-range child index, inconsistent column counts, …).
    Invalid {
        /// Human-readable description of the violated invariant.
        what: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, needed } => {
                write!(f, "truncated artifact: needed {needed} byte(s) at offset {offset}")
            }
            CodecError::BadMagic => write!(f, "not an MPCP artifact (bad magic bytes)"),
            CodecError::UnknownVersion { found, supported } => {
                write!(f, "unknown format version {found} (this build supports {supported})")
            }
            CodecError::WrongKind { expected, found } => {
                write!(f, "wrong artifact kind {found} (expected {expected})")
            }
            CodecError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            CodecError::Invalid { what } => write!(f, "invalid artifact payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// Shorthand for an [`CodecError::Invalid`] with a formatted reason.
    pub fn invalid(what: impl Into<String>) -> CodecError {
        CodecError::Invalid { what: what.into() }
    }
}

/// FNV-1a 64-bit hash of `bytes` — small, dependency-free, and plenty
/// for corruption detection (this is an integrity check, not a MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Growable little-endian byte sink used by [`Persist::encode`].
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consume the writer, yielding the written bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` widened to `u64` (never lossy).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` via its IEEE-754 bit pattern (exact round-trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Append a length-prefixed raw byte column.
    pub fn put_u8s(&mut self, vs: &[u8]) {
        self.put_len(vs.len());
        self.buf.extend_from_slice(vs);
    }
}

/// Bounded little-endian cursor used by [`Persist::decode`]. Every read
/// is checked: running past the end yields [`CodecError::Truncated`],
/// never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { offset: self.pos, needed: n });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `u64` length prefix and narrow it to `usize`, additionally
    /// capping it by the bytes actually remaining (`elem_size` bytes per
    /// element) so corrupt lengths cannot trigger huge allocations.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, CodecError> {
        let raw = self.get_u64()?;
        let len = usize::try_from(raw)
            .map_err(|_| CodecError::invalid(format!("length {raw} exceeds address space")))?;
        let bytes_needed = len
            .checked_mul(elem_size.max(1))
            .ok_or_else(|| CodecError::invalid(format!("length {raw} overflows")))?;
        if elem_size > 0 && self.remaining() < bytes_needed {
            return Err(CodecError::Truncated { offset: self.pos, needed: bytes_needed });
        }
        Ok(len)
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::invalid(format!("bool byte {b}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, CodecError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::invalid("string is not valid UTF-8"))
    }

    /// Read a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.get_len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `u32` vector.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let len = self.get_len(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `u64` vector.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.get_len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed raw byte column.
    pub fn get_u8s(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_len(1)?;
        Ok(self.take(len)?.to_vec())
    }
}

/// Binary persistence for a fitted model component.
///
/// `encode` writes the component's full state; `decode` reads it back
/// and re-validates every structural invariant the in-memory type (or
/// its unsafe batch kernels) rely on. `decode(encode(x))` must
/// reproduce `x`'s predictions bit-identically.
pub trait Persist: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);
    /// Decode a value previously written by [`Persist::encode`].
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Encode `value` inside a checksummed frame of the given `kind`.
pub fn encode_framed<T: Persist>(kind: u8, value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    append_framed(&mut out, kind, value);
    out
}

/// Validate a frame of the given `kind` and return its payload slice.
///
/// Header fields are checked in order — magic, version, kind, length,
/// checksum — so each class of corruption maps to its own typed error.
pub fn unframe(bytes: &[u8], kind: u8) -> Result<&[u8], CodecError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnknownVersion { found: version, supported: FORMAT_VERSION });
    }
    let found_kind = r.get_u8()?;
    if found_kind != kind {
        return Err(CodecError::WrongKind { expected: kind, found: found_kind });
    }
    let len = r.get_len(1)?;
    let expected = r.get_u64()?;
    let payload = r.take(len)?;
    if r.remaining() != 0 {
        return Err(CodecError::invalid(format!("{} trailing byte(s) after payload", r.remaining())));
    }
    let found = fnv1a64(payload);
    if found != expected {
        return Err(CodecError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

/// Validated header of one frame, as read off a byte stream by
/// [`read_frame_header`]. Tells a streaming reader how many payload
/// bytes to pull before handing them to [`check_frame_payload`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Kind byte found in the header (already matched by the reader).
    pub kind: u8,
    /// Number of payload bytes that follow the header.
    pub payload_len: usize,
    /// FNV-1a 64 checksum the payload must hash to.
    pub checksum: u64,
}

/// Parse and validate exactly [`FRAME_HEADER_LEN`] header bytes without
/// touching the payload. This is the streaming counterpart of
/// [`unframe`]: a socket reader pulls the fixed-size header first, asks
/// this function how long the payload is, then reads that many bytes
/// and verifies them with [`check_frame_payload`]. Header fields are
/// checked in the same order as [`unframe`] — magic, version, kind — so
/// each corruption class maps to the same typed error.
pub fn read_frame_header(header: &[u8; FRAME_HEADER_LEN], kind: u8) -> Result<FrameHeader, CodecError> {
    let mut r = ByteReader::new(header);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnknownVersion { found: version, supported: FORMAT_VERSION });
    }
    let found_kind = r.get_u8()?;
    if found_kind != kind {
        return Err(CodecError::WrongKind { expected: kind, found: found_kind });
    }
    let raw_len = r.get_u64()?;
    let payload_len = usize::try_from(raw_len)
        .map_err(|_| CodecError::invalid(format!("payload length {raw_len} exceeds address space")))?;
    let checksum = r.get_u64()?;
    Ok(FrameHeader { kind: found_kind, payload_len, checksum })
}

/// Verify `payload` against a header returned by [`read_frame_header`].
pub fn check_frame_payload(header: &FrameHeader, payload: &[u8]) -> Result<(), CodecError> {
    if payload.len() != header.payload_len {
        return Err(CodecError::Truncated { offset: payload.len(), needed: header.payload_len });
    }
    let found = fnv1a64(payload);
    if found != header.checksum {
        return Err(CodecError::ChecksumMismatch { expected: header.checksum, found });
    }
    Ok(())
}

/// Append a framed encoding of `value` to an existing byte stream.
///
/// Frames are self-delimiting (the header carries the payload length),
/// so concatenating frames yields a valid multi-frame stream that
/// [`FrameScanner`] can walk — this is the append primitive of the
/// campaign store's checkpoint files and of the daemon's reply buffer.
/// The payload is encoded in place behind a header whose length and
/// checksum are filled in afterwards, so appending allocates nothing
/// once `out` has the capacity.
pub fn append_framed<T: Persist>(out: &mut Vec<u8>, kind: u8, value: &T) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&[0u8; 16]); // payload length + checksum
    let mut w = ByteWriter { buf: std::mem::take(out) };
    value.encode(&mut w);
    *out = w.buf;
    let payload_start = start + FRAME_HEADER_LEN;
    let len = (out.len() - payload_start) as u64;
    let sum = fnv1a64(&out[payload_start..]);
    out[start + 9..start + 17].copy_from_slice(&len.to_le_bytes());
    out[start + 17..payload_start].copy_from_slice(&sum.to_le_bytes());
}

/// Streaming cursor over a concatenation of checksummed frames, as
/// written by [`append_framed`] — the read side of an append-only store
/// file.
///
/// [`FrameScanner::next_frame`] distinguishes three cases a resuming
/// reader must treat differently:
///
/// * a complete valid frame — returned as its payload slice;
/// * a clean end of stream (scanner exactly at the end) — `Ok(None)`;
/// * anything else — a typed [`CodecError`]. In particular, a tail that
///   holds *part* of a frame (a crash mid-append) is
///   [`CodecError::Truncated`], and [`FrameScanner::offset`] still
///   points at the start of that torn frame, which is exactly where a
///   recovering writer should truncate the file to.
#[derive(Debug)]
pub struct FrameScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    /// A scanner over `bytes`, positioned at the first frame.
    pub fn new(bytes: &'a [u8]) -> FrameScanner<'a> {
        FrameScanner { bytes, pos: 0 }
    }

    /// Byte offset of the next unread frame (= the end of the last
    /// successfully validated one).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Read and validate the next frame, requiring kind `kind`.
    ///
    /// Returns the payload slice, `Ok(None)` at a clean end of stream,
    /// or a typed error (leaving [`FrameScanner::offset`] at the start
    /// of the bad frame).
    pub fn next_frame(&mut self, kind: u8) -> Result<Option<&'a [u8]>, CodecError> {
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        if rest.len() < FRAME_HEADER_LEN {
            return Err(CodecError::Truncated { offset: self.pos, needed: FRAME_HEADER_LEN });
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&rest[..FRAME_HEADER_LEN]);
        let h = read_frame_header(&header, kind)?;
        let body = &rest[FRAME_HEADER_LEN..];
        if body.len() < h.payload_len {
            return Err(CodecError::Truncated {
                offset: self.pos + FRAME_HEADER_LEN,
                needed: h.payload_len,
            });
        }
        let payload = &body[..h.payload_len];
        check_frame_payload(&h, payload)?;
        self.pos += FRAME_HEADER_LEN + h.payload_len;
        Ok(Some(payload))
    }
}

/// Decode a framed value of the given `kind`, requiring the payload to
/// be consumed exactly.
pub fn decode_framed<T: Persist>(kind: u8, bytes: &[u8]) -> Result<T, CodecError> {
    let payload = unframe(bytes, kind)?;
    decode_payload(payload)
}

/// Decode a value from an already-validated payload slice (e.g. one
/// returned by [`FrameScanner::next_frame`]), requiring the payload to
/// be consumed exactly.
pub fn decode_payload<T: Persist>(payload: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(payload);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::invalid(format!(
            "{} undecoded byte(s) at end of payload",
            r.remaining()
        )));
    }
    Ok(value)
}

/// Encode an `Option<T>` as a presence byte plus the value.
pub fn put_opt<T: Persist>(w: &mut ByteWriter, v: &Option<T>) {
    match v {
        None => w.put_u8(0),
        Some(inner) => {
            w.put_u8(1);
            inner.encode(w);
        }
    }
}

/// Decode an `Option<T>` written by [`put_opt`].
pub fn get_opt<T: Persist>(r: &mut ByteReader<'_>) -> Result<Option<T>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(T::decode(r)?)),
        b => Err(CodecError::invalid(format!("option tag {b}"))),
    }
}

/// Encode a slice of `T` with a length prefix.
pub fn put_seq<T: Persist>(w: &mut ByteWriter, vs: &[T]) {
    w.put_len(vs.len());
    for v in vs {
        v.encode(w);
    }
}

/// Decode a vector written by [`put_seq`].
pub fn get_seq<T: Persist>(r: &mut ByteReader<'_>) -> Result<Vec<T>, CodecError> {
    // Elements are variable-size; 1 byte/element is the conservative
    // lower bound used for the allocation cap.
    let len = r.get_len(1)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny component exercising every writer/reader primitive.
    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u8,
        b: u32,
        c: u64,
        d: f64,
        e: bool,
        s: String,
        v: Vec<f64>,
        u: Vec<u32>,
        o: Option<Box<Sample>>,
    }

    impl Persist for Sample {
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u8(self.a);
            w.put_u32(self.b);
            w.put_u64(self.c);
            w.put_f64(self.d);
            w.put_bool(self.e);
            w.put_str(&self.s);
            w.put_f64s(&self.v);
            w.put_u32s(&self.u);
            match &self.o {
                None => w.put_u8(0),
                Some(inner) => {
                    w.put_u8(1);
                    inner.encode(w);
                }
            }
        }

        fn decode(r: &mut ByteReader<'_>) -> Result<Sample, CodecError> {
            Ok(Sample {
                a: r.get_u8()?,
                b: r.get_u32()?,
                c: r.get_u64()?,
                d: r.get_f64()?,
                e: r.get_bool()?,
                s: r.get_string()?,
                v: r.get_f64s()?,
                u: r.get_u32s()?,
                o: match r.get_u8()? {
                    0 => None,
                    1 => Some(Box::new(Sample::decode(r)?)),
                    b => return Err(CodecError::invalid(format!("option tag {b}"))),
                },
            })
        }
    }

    fn sample() -> Sample {
        Sample {
            a: 7,
            b: 0xDEAD_BEEF,
            c: u64::MAX - 3,
            d: -0.1234e-200,
            e: true,
            s: "αβγ selector".to_string(),
            v: vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.5e300],
            u: vec![0, 1, u32::MAX],
            o: Some(Box::new(Sample {
                a: 0,
                b: 0,
                c: 0,
                d: f64::from_bits(0x7ff8_0000_0000_1234), // NaN with payload
                e: false,
                s: String::new(),
                v: vec![],
                u: vec![],
                o: None,
            })),
        }
    }

    #[test]
    fn primitives_round_trip_bitwise() {
        let s = sample();
        let bytes = encode_framed(KIND_MODEL, &s);
        let back: Sample = decode_framed(KIND_MODEL, &bytes).unwrap();
        // NaN payloads defeat PartialEq; compare via bits where needed.
        assert_eq!(back.a, s.a);
        assert_eq!(back.b, s.b);
        assert_eq!(back.c, s.c);
        assert_eq!(back.d.to_bits(), s.d.to_bits());
        assert_eq!(back.s, s.s);
        assert_eq!(
            back.v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            s.v.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.u, s.u);
        let (bo, so) = (back.o.unwrap(), s.o.unwrap());
        assert_eq!(bo.d.to_bits(), so.d.to_bits());
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let bytes = encode_framed(KIND_MODEL, &sample());
        for cut in 0..bytes.len() {
            let err = decode_framed::<Sample>(KIND_MODEL, &bytes[..cut]).unwrap_err();
            match err {
                CodecError::Truncated { .. }
                | CodecError::BadMagic
                | CodecError::UnknownVersion { .. }
                | CodecError::WrongKind { .. }
                | CodecError::ChecksumMismatch { .. }
                | CodecError::Invalid { .. } => {}
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_framed(KIND_MODEL, &sample());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x5A;
            assert!(
                decode_framed::<Sample>(KIND_MODEL, &corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn header_corruption_maps_to_its_own_error() {
        let bytes = encode_framed(KIND_MODEL, &sample());
        let mut m = bytes.clone();
        m[0] = b'X';
        assert_eq!(decode_framed::<Sample>(KIND_MODEL, &m).unwrap_err(), CodecError::BadMagic);
        let mut v = bytes.clone();
        v[4] = 0xFE; // bump version field
        assert_eq!(
            decode_framed::<Sample>(KIND_MODEL, &v).unwrap_err(),
            CodecError::UnknownVersion { found: 0xFE, supported: FORMAT_VERSION }
        );
        let mut k = bytes.clone();
        k[8] = KIND_SELECTOR;
        assert_eq!(
            decode_framed::<Sample>(KIND_MODEL, &k).unwrap_err(),
            CodecError::WrongKind { expected: KIND_MODEL, found: KIND_SELECTOR }
        );
        let mut p = bytes.clone();
        let last = p.len() - 1;
        p[last] ^= 1; // payload bit
        assert!(matches!(
            decode_framed::<Sample>(KIND_MODEL, &p).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_framed(KIND_MODEL, &sample());
        bytes.push(0);
        assert!(matches!(
            decode_framed::<Sample>(KIND_MODEL, &bytes).unwrap_err(),
            CodecError::Invalid { .. }
        ));
    }

    #[test]
    fn corrupt_length_prefix_cannot_allocate_unbounded() {
        // A huge length prefix inside the payload must fail bounded (the
        // reader caps requested lengths by remaining bytes) rather than
        // attempt a ~u64::MAX allocation. Bypass the checksum by hashing
        // the corrupted payload ourselves.
        let mut payload = ByteWriter::new();
        payload.put_u64(u64::MAX / 2); // absurd f64 vector length
        let payload = payload.into_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(KIND_MODEL);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let payload_slice = unframe(&bytes, KIND_MODEL).unwrap();
        let mut r = ByteReader::new(payload_slice);
        assert!(matches!(
            r.get_f64s(),
            Err(CodecError::Truncated { .. } | CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn fnv_vectors() {
        // Reference values for the empty string and "a" (FNV-1a 64).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streaming_header_agrees_with_unframe() {
        let bytes = encode_framed(KIND_NET_REQUEST, &sample());
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&bytes[..FRAME_HEADER_LEN]);
        let h = read_frame_header(&header, KIND_NET_REQUEST).unwrap();
        assert_eq!(h.kind, KIND_NET_REQUEST);
        assert_eq!(h.payload_len, bytes.len() - FRAME_HEADER_LEN);
        let payload = &bytes[FRAME_HEADER_LEN..];
        check_frame_payload(&h, payload).unwrap();
        assert_eq!(h.checksum, fnv1a64(payload));
    }

    #[test]
    fn streaming_header_corruption_maps_to_typed_errors() {
        let bytes = encode_framed(KIND_NET_RESPONSE, &sample());
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&bytes[..FRAME_HEADER_LEN]);

        let mut m = header;
        m[0] = b'X';
        assert_eq!(read_frame_header(&m, KIND_NET_RESPONSE).unwrap_err(), CodecError::BadMagic);

        let mut v = header;
        v[4] = 0xFE;
        assert_eq!(
            read_frame_header(&v, KIND_NET_RESPONSE).unwrap_err(),
            CodecError::UnknownVersion { found: 0xFE, supported: FORMAT_VERSION }
        );

        // A response frame where a request was expected is WrongKind —
        // this is how a served connection rejects a confused peer.
        assert_eq!(
            read_frame_header(&header, KIND_NET_REQUEST).unwrap_err(),
            CodecError::WrongKind { expected: KIND_NET_REQUEST, found: KIND_NET_RESPONSE }
        );

        let h = read_frame_header(&header, KIND_NET_RESPONSE).unwrap();
        let mut payload = bytes[FRAME_HEADER_LEN..].to_vec();
        payload[0] ^= 0x5A;
        assert!(matches!(
            check_frame_payload(&h, &payload),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            check_frame_payload(&h, &payload[..payload.len() - 1]),
            Err(CodecError::Truncated { .. })
        ));
    }

    /// A minimal Persist value for frame-stream tests.
    #[derive(Debug, PartialEq)]
    struct Blob {
        tag: u64,
        data: Vec<u8>,
        wide: Vec<u64>,
    }

    impl Persist for Blob {
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u64(self.tag);
            w.put_u8s(&self.data);
            w.put_u64s(&self.wide);
        }

        fn decode(r: &mut ByteReader<'_>) -> Result<Blob, CodecError> {
            Ok(Blob { tag: r.get_u64()?, data: r.get_u8s()?, wide: r.get_u64s()? })
        }
    }

    fn blob(i: u64) -> Blob {
        Blob {
            tag: i,
            data: (0..=(i as u8).wrapping_mul(3)).collect(),
            wide: vec![u64::MAX - i, 0, i << 40],
        }
    }

    #[test]
    fn u64_and_u8_columns_round_trip() {
        let b = blob(5);
        let bytes = encode_framed(KIND_CAMPAIGN_CHUNK, &b);
        let back: Blob = decode_framed(KIND_CAMPAIGN_CHUNK, &bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn appended_frame_is_header_then_payload_after_existing_bytes() {
        let b = blob(7);
        let mut w = ByteWriter::new();
        b.encode(&mut w);
        let payload = w.into_bytes();
        let mut want = b"prefix".to_vec();
        want.extend_from_slice(&MAGIC);
        want.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        want.push(KIND_CAMPAIGN_CHUNK);
        want.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        want.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        want.extend_from_slice(&payload);
        let mut got = b"prefix".to_vec();
        append_framed(&mut got, KIND_CAMPAIGN_CHUNK, &b);
        assert_eq!(got, want);
        assert_eq!(encode_framed(KIND_CAMPAIGN_CHUNK, &b), want[6..]);
    }

    #[test]
    fn frame_scanner_walks_an_appended_stream() {
        let mut stream = Vec::new();
        for i in 0..4 {
            append_framed(&mut stream, KIND_CAMPAIGN_CHUNK, &blob(i));
        }
        let mut scan = FrameScanner::new(&stream);
        for i in 0..4 {
            let payload = scan.next_frame(KIND_CAMPAIGN_CHUNK).unwrap().unwrap();
            assert_eq!(decode_payload::<Blob>(payload).unwrap(), blob(i));
        }
        assert_eq!(scan.next_frame(KIND_CAMPAIGN_CHUNK).unwrap(), None);
        assert_eq!(scan.offset(), stream.len());
    }

    #[test]
    fn frame_scanner_truncation_points_at_the_torn_frame() {
        let mut stream = Vec::new();
        append_framed(&mut stream, KIND_CAMPAIGN_CHUNK, &blob(1));
        let first_end = stream.len();
        append_framed(&mut stream, KIND_CAMPAIGN_CHUNK, &blob(2));
        // Cut at exactly the frame boundary: that is a clean EOF.
        let mut scan = FrameScanner::new(&stream[..first_end]);
        assert!(scan.next_frame(KIND_CAMPAIGN_CHUNK).unwrap().is_some());
        assert_eq!(scan.next_frame(KIND_CAMPAIGN_CHUNK).unwrap(), None);
        // Cut the second frame at every interior byte: the scanner must
        // yield the first frame, then a typed error with offset() still
        // at the start of the torn frame (the recovery truncation point).
        for cut in first_end + 1..stream.len() {
            let mut scan = FrameScanner::new(&stream[..cut]);
            assert!(scan.next_frame(KIND_CAMPAIGN_CHUNK).unwrap().is_some());
            let err = scan.next_frame(KIND_CAMPAIGN_CHUNK).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }),
                "cut at {cut}: {err}"
            );
            assert_eq!(scan.offset(), first_end, "cut at {cut}");
        }
    }

    #[test]
    fn frame_scanner_rejects_wrong_kind_and_corruption() {
        let mut stream = Vec::new();
        append_framed(&mut stream, KIND_CAMPAIGN_HEADER, &blob(1));
        let mut scan = FrameScanner::new(&stream);
        assert_eq!(
            scan.next_frame(KIND_CAMPAIGN_CHUNK).unwrap_err(),
            CodecError::WrongKind { expected: KIND_CAMPAIGN_CHUNK, found: KIND_CAMPAIGN_HEADER }
        );
        // A flipped payload byte is a checksum mismatch, not a panic.
        let last = stream.len() - 1;
        stream[last] ^= 0x5A;
        let mut scan = FrameScanner::new(&stream);
        assert!(matches!(
            scan.next_frame(KIND_CAMPAIGN_HEADER).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
        assert_eq!(scan.offset(), 0);
    }

    #[test]
    fn display_messages_name_the_failure() {
        assert!(format!("{}", CodecError::BadMagic).contains("magic"));
        let e = CodecError::UnknownVersion { found: 9, supported: 1 };
        assert!(format!("{e}").contains("version 9"));
        let e = CodecError::Truncated { offset: 3, needed: 8 };
        assert!(format!("{e}").contains("offset 3"));
    }
}

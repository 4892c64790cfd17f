//! Wire codecs: how frames are laid out on the byte stream.
//!
//! Both codecs stream. A message is encoded straight to frame bytes through
//! the vendored serde's `Serializer`, and decoded straight from the frame's
//! bytes through its `Deserializer`, with no value tree in between. The
//! [`WireMode`] selects one of two layouts:
//!
//! * [`WireMode::Json`] — the debug codec: `LEN JSON\n` with an ASCII
//!   decimal length prefix. Greppable and `nc`-able; every frame carries
//!   exactly the values a binary frame would.
//! * [`WireMode::Binary`] — the default compact format: a 4-byte
//!   little-endian payload length, then a per-frame key table and a tagged
//!   value stream with varint integers. Object keys are interned per frame
//!   (a telemetry snapshot repeats `"count"`/`"bucket"` hundreds of
//!   times), floats cross bit-exactly, and encoding is deterministic: the
//!   same message always produces the same bytes.
//!
//! Which codec a connection uses is negotiated in the handshake (see the
//! [module docs](super)); the handshake frames themselves are always
//! JSON-lines, so negotiation works before any agreement exists.
//!
//! Decoding tells two failures apart: bytes that are not a well-formed
//! frame (the connection is beyond recovery) and a well-formed frame that
//! does not have the expected message's shape. Malformed bytes anywhere in
//! a frame are reported first.

use serde::de::IgnoredAny;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Token, MAX_DEPTH};
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::io::Read;
use std::ops::Range;

/// Hard cap on a single frame's payload (a workload spec fits comfortably;
/// anything bigger is a corrupt length prefix).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Hard cap on a server-bound frame's payload. Every hello and request is
/// under 1 KiB; only client-bound frames (telemetry, journal pages, the
/// server hello carrying the workload) need [`MAX_FRAME`]. A server refuses
/// a longer length prefix before buffering its payload, so one hostile
/// frame cannot make it buffer and decode megabytes.
pub const MAX_REQUEST_FRAME: usize = 64 * 1024;

/// The negotiated framing of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireMode {
    /// Length-prefixed JSON lines (`LEN JSON\n`) — the debug mode, and
    /// what a hello naming no mode is granted.
    Json,
    /// Compact length-prefixed binary frames with per-frame key interning.
    Binary,
}

impl WireMode {
    /// The handshake token naming this mode (`"json"` / `"binary"`).
    pub fn name(self) -> &'static str {
        match self {
            WireMode::Json => "json",
            WireMode::Binary => "binary",
        }
    }

    /// Appends one complete frame carrying `msg` to `out`.
    ///
    /// # Errors
    ///
    /// An encoded payload larger than [`MAX_FRAME`]; `out` is unchanged.
    pub fn encode<T: Serialize + ?Sized>(self, msg: &T, out: &mut Vec<u8>) -> Result<(), String> {
        match self {
            WireMode::Json => {
                let json =
                    serde_json::to_string(msg).map_err(|e| format!("serialize frame: {e}"))?;
                if json.len() > MAX_FRAME {
                    return Err(format!("frame too large: {} bytes", json.len()));
                }
                out.reserve(json.len() + 12);
                out.extend_from_slice(json.len().to_string().as_bytes());
                out.push(b' ');
                out.extend_from_slice(json.as_bytes());
                out.push(b'\n');
                Ok(())
            }
            WireMode::Binary => BinaryEncoder::encode(msg, out),
        }
    }

    /// Decodes one complete frame from the front of `buf` as a `T`,
    /// returning it and the bytes consumed — `None` when the buffer holds
    /// only a partial frame (read more and retry).
    ///
    /// # Errors
    ///
    /// A malformed frame (bad prefix, a declared length over `max_len`,
    /// undecodable payload), or a well-formed frame that is not a `T`.
    /// Callers pass [`MAX_FRAME`], or [`MAX_REQUEST_FRAME`] for
    /// server-bound frames; an over-long prefix fails as soon as it is
    /// read, before its payload arrives.
    pub fn decode<T: Deserialize>(
        self,
        buf: &[u8],
        max_len: usize,
    ) -> Result<Option<(T, usize)>, String> {
        let Some((payload, consumed)) = self.frame(buf, max_len)? else {
            return Ok(None);
        };
        let msg = self.decode_payload(&buf[payload])??;
        Ok(Some((msg, consumed)))
    }

    /// Where the first complete frame in `buf` keeps its payload, and how
    /// many bytes the whole frame spans — `None` while it is incomplete.
    fn frame(self, buf: &[u8], max_len: usize) -> Result<Option<(Range<usize>, usize)>, String> {
        match self {
            WireMode::Json => json_frame(buf, max_len),
            WireMode::Binary => {
                if buf.len() < 4 {
                    return Ok(None);
                }
                let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if len > max_len {
                    return Err(format!("malformed frame: {len} bytes exceeds maximum"));
                }
                if buf.len() < 4 + len {
                    return Ok(None);
                }
                Ok(Some((4..4 + len, 4 + len)))
            }
        }
    }

    /// Decodes one frame payload as a `T`. The outer error is a malformed
    /// payload; the inner one a well-formed payload that is not a `T`.
    pub(crate) fn decode_payload<T: Deserialize>(
        self,
        payload: &[u8],
    ) -> Result<Result<T, String>, String> {
        let malformed = |e: serde::Error| match self {
            WireMode::Json => format!("malformed frame payload: {e}"),
            WireMode::Binary => e.to_string(),
        };
        match FrameDecoder::decode(self, payload) {
            Ok(msg) => Ok(Ok(msg)),
            // Malformed bytes anywhere in the frame outrank a shape
            // mismatch found before them.
            Err(shape) => match FrameDecoder::decode::<IgnoredAny>(self, payload) {
                Ok(_) => Ok(Err(shape.to_string())),
                Err(e) => Err(malformed(e)),
            },
        }
    }
}

/// One frame payload's decoder, in either layout. Every message type's
/// reader is compiled once, against this, for both codecs; the layout is
/// one well-predicted branch per token.
enum FrameDecoder<'de> {
    Json(serde_json::Deserializer<'de>),
    Binary(BinaryDecoder<'de>),
}

impl<'de> FrameDecoder<'de> {
    /// Decodes a whole payload as one `T`.
    fn decode<T: Deserialize>(wire: WireMode, payload: &'de [u8]) -> Result<T, serde::Error> {
        let mut decoder = match wire {
            WireMode::Json => FrameDecoder::Json(serde_json::Deserializer::from_str(
                std::str::from_utf8(payload).map_err(|_| malformed("payload is not UTF-8"))?,
            )),
            WireMode::Binary => FrameDecoder::Binary(BinaryDecoder::new(payload)?),
        };
        let msg = T::deserialize(&mut decoder)?;
        match &mut decoder {
            FrameDecoder::Json(d) => d.end()?,
            FrameDecoder::Binary(d) => d.end()?,
        }
        Ok(msg)
    }
}

impl<'de> Deserializer<'de> for FrameDecoder<'de> {
    fn peek_null(&mut self) -> Result<bool, serde::Error> {
        match self {
            FrameDecoder::Json(d) => d.peek_null(),
            FrameDecoder::Binary(d) => d.peek_null(),
        }
    }

    fn next(&mut self) -> Result<Token<'de>, serde::Error> {
        match self {
            FrameDecoder::Json(d) => d.next(),
            FrameDecoder::Binary(d) => d.next(),
        }
    }

    fn next_element(&mut self) -> Result<bool, serde::Error> {
        match self {
            FrameDecoder::Json(d) => d.next_element(),
            FrameDecoder::Binary(d) => d.next_element(),
        }
    }

    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, serde::Error> {
        match self {
            FrameDecoder::Json(d) => d.next_key(),
            FrameDecoder::Binary(d) => d.next_key(),
        }
    }
}

impl fmt::Display for WireMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for WireMode {
    type Err = String;

    fn from_str(s: &str) -> Result<WireMode, String> {
        match s {
            "json" => Ok(WireMode::Json),
            "binary" => Ok(WireMode::Binary),
            other => Err(format!(
                "invalid wire mode '{other}': expected json or binary"
            )),
        }
    }
}

/// One frame carrying `msg`, as a fresh byte vector.
///
/// # Errors
///
/// See [`WireMode::encode`].
pub fn encode_frame<T: Serialize + ?Sized>(mode: WireMode, msg: &T) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    mode.encode(msg, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// JSON lines: `LEN JSON\n`.
// ---------------------------------------------------------------------------

/// Payload range and frame length of a `LEN JSON\n` frame: ASCII decimal
/// payload length, one space, a single-line JSON document, one `\n`.
fn json_frame(buf: &[u8], max_len: usize) -> Result<Option<(Range<usize>, usize)>, String> {
    if buf.is_empty() {
        return Ok(None);
    }
    // Decimal length prefix terminated by one space.
    let mut len = 0usize;
    let mut i = 0usize;
    loop {
        let Some(&b) = buf.get(i) else {
            // Prefix still arriving; 9 digits already bound MAX_FRAME.
            return if i <= 9 {
                Ok(None)
            } else {
                Err("malformed frame: unterminated length prefix".to_string())
            };
        };
        match b {
            b'0'..=b'9' if i < 9 => {
                len = len * 10 + usize::from(b - b'0');
                i += 1;
            }
            b' ' if i > 0 => {
                i += 1;
                break;
            }
            _ => return Err("malformed frame: bad length prefix".to_string()),
        }
    }
    if len > max_len {
        return Err(format!("malformed frame: {len} bytes exceeds maximum"));
    }
    let total = i + len + 1;
    if buf.len() < total {
        return Ok(None);
    }
    if buf[i + len] != b'\n' {
        return Err("malformed frame: missing newline terminator".to_string());
    }
    Ok(Some((i..i + len, total)))
}

// ---------------------------------------------------------------------------
// Binary frames: 4-byte LE length, key table, tagged values.
// ---------------------------------------------------------------------------

/// Value tags of the binary payload.
mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const INT: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const STR: u8 = 5;
    pub const ARRAY: u8 = 6;
    pub const OBJECT: u8 = 7;
}

/// The binary frame encoder.
///
/// Frame layout (all integers little-endian / LEB128 varints):
///
/// ```text
/// u32     payload length (bytes after this prefix)
/// varint  key count K
/// K ×     varint key length + UTF-8 key bytes   (first-use order)
/// value   tagged:
///   0x00 null   0x01 false   0x02 true
///   0x03 int    zigzag LEB128 (i128)
///   0x04 float  8-byte LE IEEE-754 bits
///   0x05 str    varint length + UTF-8 bytes
///   0x06 array  varint count + values
///   0x07 object varint count + (varint key index + value) pairs
/// ```
///
/// Interning object keys per frame makes histogram-heavy telemetry frames
/// roughly 3× smaller than their JSON twins; zigzag varints keep small
/// ids/counters at one byte; floats cross bit-exactly (JSON renders them
/// as text). Encoding is deterministic — fields keep their order and keys
/// are interned as they are first written — so equal messages produce
/// byte-identical frames.
///
/// The key table precedes the values it indexes, so the values stream into
/// a scratch buffer while their keys are interned, and the frame is
/// assembled once both are complete. Each thread reuses one encoder.
#[derive(Default)]
struct BinaryEncoder {
    /// The tagged values.
    body: Vec<u8>,
    /// Interned keys in first-use order, as ranges of `key_text`.
    keys: Vec<Range<usize>>,
    key_text: Vec<u8>,
}

thread_local! {
    static ENCODER: Cell<BinaryEncoder> = const {
        Cell::new(BinaryEncoder { body: Vec::new(), keys: Vec::new(), key_text: Vec::new() })
    };
}

/// A scratch buffer that grew past this (a journal page, a telemetry
/// snapshot) is dropped after use rather than kept by the thread.
const SCRATCH_KEEP: usize = 64 * 1024;

impl BinaryEncoder {
    fn encode<T: Serialize + ?Sized>(msg: &T, out: &mut Vec<u8>) -> Result<(), String> {
        let mut encoder = ENCODER.with(Cell::take);
        msg.serialize(&mut encoder);
        let result = encoder.write_frame(out);
        if encoder.body.capacity() <= SCRATCH_KEEP {
            encoder.body.clear();
            encoder.keys.clear();
            encoder.key_text.clear();
            ENCODER.with(|cell| cell.set(encoder));
        }
        result
    }

    fn intern(&mut self, key: &str) -> usize {
        let text = &self.key_text;
        if let Some(index) = self
            .keys
            .iter()
            .position(|range| &text[range.clone()] == key.as_bytes())
        {
            return index;
        }
        let start = self.key_text.len();
        self.key_text.extend_from_slice(key.as_bytes());
        self.keys.push(start..self.key_text.len());
        self.keys.len() - 1
    }

    /// Length prefix, key table, then the buffered values.
    fn write_frame(&self, out: &mut Vec<u8>) -> Result<(), String> {
        let table: usize = varint_len(self.keys.len() as u64)
            + self
                .keys
                .iter()
                .map(|range| varint_len(range.len() as u64) + range.len())
                .sum::<usize>();
        let len = table + self.body.len();
        if len > MAX_FRAME {
            return Err(format!("frame too large: {len} bytes"));
        }
        out.reserve(len + 4);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        write_varint(out, self.keys.len() as u64);
        for range in &self.keys {
            write_varint(out, range.len() as u64);
            out.extend_from_slice(&self.key_text[range.clone()]);
        }
        out.extend_from_slice(&self.body);
        Ok(())
    }
}

impl Serializer for BinaryEncoder {
    fn null(&mut self) {
        self.body.push(tag::NULL);
    }

    fn bool(&mut self, v: bool) {
        self.body.push(if v { tag::TRUE } else { tag::FALSE });
    }

    fn int(&mut self, v: i128) {
        self.body.push(tag::INT);
        write_varint128(&mut self.body, zigzag(v));
    }

    fn float(&mut self, v: f64) {
        self.body.push(tag::FLOAT);
        self.body.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.body.push(tag::STR);
        write_varint(&mut self.body, v.len() as u64);
        self.body.extend_from_slice(v.as_bytes());
    }

    fn begin_array(&mut self, len: usize) {
        self.body.push(tag::ARRAY);
        write_varint(&mut self.body, len as u64);
    }

    fn end_array(&mut self) {}

    fn begin_object(&mut self, len: usize) {
        self.body.push(tag::OBJECT);
        write_varint(&mut self.body, len as u64);
    }

    fn key(&mut self, key: &str) {
        let index = self.intern(key);
        write_varint(&mut self.body, index as u64);
    }

    fn end_object(&mut self) {}
}

fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

fn write_varint(out: &mut Vec<u8>, v: u64) {
    write_varint128(out, u128::from(v));
}

fn write_varint128(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

fn malformed(what: &str) -> serde::Error {
    serde::Error(format!("malformed frame: {what}"))
}

/// The binary frame decoder: a cursor over one payload. The key table is
/// validated once, up front, into slices of the payload; strings borrow
/// from it too. Every declared count is checked against the bytes left
/// before anything is allocated for it, and nesting is capped at
/// [`MAX_DEPTH`].
struct BinaryDecoder<'de> {
    buf: &'de [u8],
    pos: usize,
    keys: Vec<&'de str>,
    /// Entries left in each open array or object, innermost last.
    open: Vec<usize>,
}

impl<'de> BinaryDecoder<'de> {
    /// A decoder over one payload, its key table read and validated.
    fn new(payload: &'de [u8]) -> Result<BinaryDecoder<'de>, serde::Error> {
        let mut decoder = BinaryDecoder {
            buf: payload,
            pos: 0,
            keys: Vec::new(),
            open: Vec::new(),
        };
        let key_count = decoder.count("key table")?;
        decoder.keys.reserve_exact(key_count);
        for _ in 0..key_count {
            let key = decoder.string()?;
            decoder.keys.push(key);
        }
        Ok(decoder)
    }

    /// Checks that the value read spans the whole payload.
    fn end(&self) -> Result<(), serde::Error> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed("trailing bytes after value"))
        }
    }

    fn byte(&mut self) -> Result<u8, serde::Error> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| malformed("payload truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'de [u8], serde::Error> {
        if self.buf.len() - self.pos < n {
            return Err(malformed("payload truncated"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, serde::Error> {
        let v = self.varint128()?;
        u64::try_from(v).map_err(|_| malformed("varint exceeds u64"))
    }

    fn varint128(&mut self) -> Result<u128, serde::Error> {
        let mut v = 0u128;
        for shift in (0..=126).step_by(7) {
            let byte = self.byte()?;
            v |= u128::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(malformed("varint too long"))
    }

    /// A declared count, which must not exceed the bytes left: every
    /// element takes at least one byte, so allocation stays bounded by
    /// the input size.
    fn count(&mut self, what: &str) -> Result<usize, serde::Error> {
        let n = self.varint()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(malformed(&format!("{what} count overruns payload")));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<&'de str, serde::Error> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| malformed("string is not UTF-8"))
    }

    /// Steps the innermost container: `false` (and closed) once it has no
    /// entries left.
    fn advance(&mut self) -> Result<bool, serde::Error> {
        let left = self
            .open
            .last_mut()
            .ok_or_else(|| malformed("no array or object is open"))?;
        if *left == 0 {
            self.open.pop();
            Ok(false)
        } else {
            *left -= 1;
            Ok(true)
        }
    }
}

impl<'de> Deserializer<'de> for BinaryDecoder<'de> {
    fn peek_null(&mut self) -> Result<bool, serde::Error> {
        Ok(self.buf.get(self.pos) == Some(&tag::NULL))
    }

    fn next(&mut self) -> Result<Token<'de>, serde::Error> {
        if self.open.len() > MAX_DEPTH {
            return Err(malformed("value nesting too deep"));
        }
        Ok(match self.byte()? {
            tag::NULL => Token::Null,
            tag::FALSE => Token::Bool(false),
            tag::TRUE => Token::Bool(true),
            tag::INT => Token::Int(unzigzag(self.varint128()?)),
            tag::FLOAT => {
                let bytes: [u8; 8] = self.take(8)?.try_into().expect("8-byte take");
                Token::Float(f64::from_bits(u64::from_le_bytes(bytes)))
            }
            tag::STR => Token::Str(Cow::Borrowed(self.string()?)),
            tag::ARRAY => {
                let n = self.count("array")?;
                self.open.push(n);
                Token::Array
            }
            tag::OBJECT => {
                let n = self.count("object")?;
                self.open.push(n);
                Token::Object
            }
            other => return Err(malformed(&format!("unknown value tag {other}"))),
        })
    }

    fn next_element(&mut self) -> Result<bool, serde::Error> {
        self.advance()
    }

    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, serde::Error> {
        if !self.advance()? {
            return Ok(None);
        }
        let index = self.varint()? as usize;
        let key = self
            .keys
            .get(index)
            .ok_or_else(|| malformed("key index out of range"))?;
        Ok(Some(Cow::Borrowed(key)))
    }
}

// ---------------------------------------------------------------------------
// Incremental frame buffers.
// ---------------------------------------------------------------------------

/// Per-connection receive buffer: bytes accumulate as the socket delivers
/// them and complete frames are peeled off the front. Partial frames
/// survive across reads, so a readiness loop never loses sync.
#[derive(Debug, Default)]
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    pub(crate) fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        // Reclaim the frames already taken before growing.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (> 0 mid-frame).
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Peels one complete frame of at most `max_len` payload bytes off
    /// the front, if present, returning its payload.
    pub(crate) fn take_frame(
        &mut self,
        wire: WireMode,
        max_len: usize,
    ) -> Result<Option<&[u8]>, String> {
        let Some((payload, consumed)) = wire.frame(&self.buf[self.start..], max_len)? else {
            return Ok(None);
        };
        let base = self.start;
        self.start += consumed;
        Ok(Some(&self.buf[base + payload.start..base + payload.end]))
    }
}

/// What one poll of a blocking frame stream produced.
#[derive(Debug)]
pub(crate) enum FrameEvent<T> {
    /// A complete, well-formed frame: the message, or why it is not a `T`.
    Frame(Result<T, String>),
    /// No bytes arrived within one read timeout, at a frame boundary.
    Idle,
    /// Clean EOF at a frame boundary.
    Closed,
}

/// Blocking incremental frame reader over any byte stream — the client
/// side's receive path. Partial frames survive read timeouts (the buffer
/// keeps them); only EOF or a prolonged stall *inside* a frame is a
/// truncation error. The mode is swappable mid-stream: handshakes are
/// always JSON-lines, the negotiated codec takes over afterwards.
pub(crate) struct FrameReader<R: Read> {
    pub(crate) src: R,
    pub(crate) wire: WireMode,
    buffer: FrameBuffer,
    /// Consecutive mid-frame read timeouts tolerated before the frame is
    /// declared truncated.
    pub(crate) max_stalls: usize,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(src: R, wire: WireMode, max_stalls: usize) -> FrameReader<R> {
        FrameReader {
            src,
            wire,
            buffer: FrameBuffer::new(),
            max_stalls: max_stalls.max(1),
        }
    }

    /// Reads until a complete frame, idle timeout (at a boundary), EOF, or
    /// error. A peer that closes or stalls mid-frame is a truncation, and
    /// a malformed frame is an error.
    pub(crate) fn read_frame<T: Deserialize>(&mut self) -> Result<FrameEvent<T>, String> {
        let mut stalls = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        let wire = self.wire;
        loop {
            if let Some(payload) = self.buffer.take_frame(wire, MAX_FRAME)? {
                return wire.decode_payload(payload).map(FrameEvent::Frame);
            }
            match self.src.read(&mut chunk) {
                Ok(0) => {
                    return if self.buffer.buffered() == 0 {
                        Ok(FrameEvent::Closed)
                    } else {
                        Err("truncated frame: connection closed mid-frame".to_string())
                    };
                }
                Ok(n) => {
                    stalls = 0;
                    self.buffer.extend(&chunk[..n]);
                }
                Err(e) if super::endpoint::is_timeout(&e) => {
                    if self.buffer.buffered() == 0 {
                        return Ok(FrameEvent::Idle);
                    }
                    stalls += 1;
                    if stalls >= self.max_stalls {
                        return Err("truncated frame: peer stalled mid-frame".to_string());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }
}

/// Writes one frame carrying `msg` in `wire`'s layout and flushes,
/// building it in `scratch` (cleared first, so a caller can reuse it).
pub(crate) fn write_frame<W: std::io::Write, T: Serialize + ?Sized>(
    w: &mut W,
    wire: WireMode,
    msg: &T,
    scratch: &mut Vec<u8>,
) -> Result<(), String> {
    scratch.clear();
    wire.encode(msg, scratch)?;
    w.write_all(scratch)
        .and_then(|()| w.flush())
        .map_err(|e| format!("write failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn roundtrip(wire: WireMode, value: &Value) -> Value {
        let out = encode_frame(wire, value).unwrap();
        let (back, consumed) = wire
            .decode::<Value>(&out, MAX_FRAME)
            .unwrap()
            .expect("complete frame");
        assert_eq!(consumed, out.len(), "whole frame consumed");
        back
    }

    fn sample() -> Value {
        let mut inner = Value::object();
        inner.insert("count", Value::Int(42));
        inner.insert("count2", Value::Int(-7));
        inner.insert("rate", Value::Float(1.5e-3));
        let mut outer = Value::object();
        outer.insert("name", Value::Str("fleet".to_string()));
        outer.insert("none", Value::Null);
        outer.insert("flag", Value::Bool(true));
        outer.insert(
            "rows",
            Value::Array(vec![inner.clone(), inner, Value::Bool(false)]),
        );
        outer
    }

    #[test]
    fn both_codecs_roundtrip_a_nested_value() {
        let value = sample();
        assert_eq!(roundtrip(WireMode::Json, &value), value);
        assert_eq!(roundtrip(WireMode::Binary, &value), value);
    }

    #[test]
    fn binary_encoding_is_deterministic_and_compact() {
        let value = sample();
        let a = encode_frame(WireMode::Binary, &value).unwrap();
        let b = encode_frame(WireMode::Binary, &value).unwrap();
        let j = encode_frame(WireMode::Json, &value).unwrap();
        assert_eq!(a, b, "same value, same bytes");
        assert!(
            a.len() < j.len(),
            "key-interned binary ({}) beats JSON ({}) on repeated keys",
            a.len(),
            j.len()
        );
    }

    #[test]
    fn binary_floats_cross_bit_exactly() {
        for f in [0.1f64, -0.0, f64::MAX, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let back = roundtrip(WireMode::Binary, &Value::Float(f));
            let Value::Float(g) = back else {
                panic!("float came back as {back:?}");
            };
            assert_eq!(f.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn binary_ints_cover_extremes() {
        for i in [0i128, -1, 1, i128::MAX, i128::MIN, u64::MAX as i128] {
            assert_eq!(roundtrip(WireMode::Binary, &Value::Int(i)), Value::Int(i));
        }
    }

    #[test]
    fn varint_len_matches_the_encoding() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "{v}");
        }
    }

    #[test]
    fn partial_frames_decode_to_none() {
        for wire in [WireMode::Binary, WireMode::Json] {
            let out = encode_frame(wire, &sample()).unwrap();
            for cut in 0..out.len() {
                assert!(
                    wire.decode::<Value>(&out[..cut], MAX_FRAME)
                        .unwrap()
                        .is_none(),
                    "{wire}: prefix of {cut} bytes must be incomplete, not an error"
                );
            }
        }
    }

    #[test]
    fn malformed_binary_frames_are_typed_errors_not_panics() {
        let decode = |buf: &[u8]| WireMode::Binary.decode::<Value>(buf, MAX_FRAME);
        // Oversized declared length.
        let mut buf = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert!(decode(&buf).is_err());
        // Unknown tag.
        let mut buf = 2u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0, 99]);
        assert!(decode(&buf).is_err());
        // Key index out of range.
        let mut payload = vec![0u8]; // zero keys
        payload.push(tag::OBJECT);
        payload.push(1); // one field
        payload.push(5); // key index 5
        payload.push(tag::NULL);
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&payload);
        assert!(decode(&buf).is_err());
        // Truncation inside the payload declared length is impossible by
        // construction (decode waits for the whole payload), but trailing
        // garbage after the value is rejected.
        let mut out = encode_frame(WireMode::Binary, &Value::Null).unwrap();
        let len = out.len();
        out.extend_from_slice(&[0]);
        out[0..4].copy_from_slice(&((len - 4 + 1) as u32).to_le_bytes());
        assert!(decode(&out).is_err());
    }

    #[test]
    fn malformed_bytes_are_reported_before_a_shape_mismatch() {
        // A well-formed frame of the wrong shape is a shape error ...
        let frame = encode_frame(WireMode::Binary, &Value::Str("x".into())).unwrap();
        let payload = &frame[4..];
        let shape = WireMode::Binary.decode_payload::<u64>(payload).unwrap();
        assert_eq!(shape.unwrap_err(), "expected integer, got string");
        // ... and one whose bytes also break later is malformed.
        let value = Value::Array(vec![Value::Str("x".into()), Value::Int(1)]);
        let mut frame = encode_frame(WireMode::Binary, &value).unwrap();
        *frame.last_mut().unwrap() = 0x80; // an unterminated varint
        let err = WireMode::Binary
            .decode_payload::<Vec<u64>>(&frame[4..])
            .unwrap_err();
        assert!(err.starts_with("malformed frame"), "{err}");
    }

    #[test]
    fn json_codec_rejects_garbage_prefixes() {
        let decode = |buf: &[u8]| WireMode::Json.decode::<Value>(buf, MAX_FRAME);
        assert!(decode(b"xx {}\n").is_err());
        assert!(decode(b"2 {}x").is_err());
        assert!(decode(b"99999999 x").is_err());
        // Length lies beyond the payload: incomplete, the reader's
        // EOF/stall handling turns it into a truncation.
        assert!(decode(b"10 {}\n").unwrap().is_none());
    }

    #[test]
    fn both_codecs_refuse_a_length_over_the_cap_from_its_prefix_alone() {
        // Only the length prefix has arrived: a declared length at the cap
        // waits for its payload, one byte over fails at once.
        let cap = MAX_REQUEST_FRAME;
        let binary = |buf: &[u8]| WireMode::Binary.decode::<Value>(buf, cap);
        let json = |buf: &[u8]| WireMode::Json.decode::<Value>(buf, cap);
        assert!(binary(&(cap as u32).to_le_bytes()).unwrap().is_none());
        let err = binary(&(cap as u32 + 1).to_le_bytes()).unwrap_err();
        assert!(err.contains("exceeds maximum"), "{err}");
        assert!(json(format!("{cap} ").as_bytes()).unwrap().is_none());
        let err = json(format!("{} ", cap + 1).as_bytes()).unwrap_err();
        assert!(err.contains("exceeds maximum"), "{err}");
    }

    #[test]
    fn frame_buffer_survives_chunked_delivery_of_mixed_frames() {
        let mut wire = Vec::new();
        for i in 0..3 {
            let mut value = Value::object();
            value.insert("seq", Value::Int(i));
            WireMode::Binary.encode(&value, &mut wire).unwrap();
        }
        let mut buffer = FrameBuffer::new();
        let mut seen = Vec::new();
        for byte in wire {
            buffer.extend(&[byte]);
            while let Some(payload) = buffer.take_frame(WireMode::Binary, MAX_FRAME).unwrap() {
                let value: Value = WireMode::Binary.decode_payload(payload).unwrap().unwrap();
                seen.push(value.get_field("seq").unwrap().clone());
            }
        }
        assert_eq!(
            seen,
            vec![Value::Int(0), Value::Int(1), Value::Int(2)],
            "one-byte-at-a-time delivery yields every frame in order"
        );
        assert_eq!(buffer.buffered(), 0);
    }

    #[test]
    fn zigzag_is_an_involution_at_the_edges() {
        for i in [0i128, 1, -1, i128::MAX, i128::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }
}

//! Wire codecs: how frames are laid out on the byte stream.
//!
//! The transport is codec-agnostic: both ends speak [`Value`] trees and a
//! [`WireCodec`] turns them into frames. Two codecs exist —
//!
//! * [`JsonLinesCodec`] — the debug codec: `LEN JSON\n` with an ASCII
//!   decimal length prefix. Greppable and `nc`-able; every frame carries
//!   exactly the value tree a binary frame would.
//! * [`BinaryCodec`] — the default compact format: a 4-byte
//!   little-endian payload length, then a per-frame key table and a tagged
//!   value tree with varint integers. Object keys are interned per frame
//!   (a telemetry snapshot repeats `"count"`/`"bucket"` hundreds of
//!   times), floats cross bit-exactly, and encoding is deterministic: the
//!   same value always produces the same bytes.
//!
//! Which codec a connection uses is negotiated in the handshake (see the
//! [module docs](super)); the handshake frames themselves are always
//! JSON-lines, so negotiation works before any agreement exists.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::Read;

/// Hard cap on a single frame's payload (a workload spec fits comfortably;
/// anything bigger is a corrupt length prefix).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Hard cap on a server-bound frame's payload. Every hello and request is
/// under 1 KiB; only client-bound frames (telemetry, journal pages, the
/// server hello carrying the workload) need [`MAX_FRAME`]. A server refuses
/// a longer length prefix before buffering its payload, so one hostile
/// frame cannot make it buffer and decode megabytes.
pub const MAX_REQUEST_FRAME: usize = 64 * 1024;

/// Nesting depth cap while decoding binary values — bounds stack use on
/// adversarial input.
const MAX_DEPTH: usize = 256;

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

    /// The codec implementing this mode.
    pub fn codec(self) -> &'static dyn WireCodec {
        match self {
            WireMode::Json => &JsonLinesCodec,
            WireMode::Binary => &BinaryCodec,
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

/// One frame layout over the byte stream. Object-safe: both sides hold a
/// `&'static dyn WireCodec` chosen at handshake and encode/decode
/// [`Value`] trees through it; typed messages convert via
/// [`encode_message`] / [`decode_message`].
pub trait WireCodec: Send + Sync + fmt::Debug {
    /// Which [`WireMode`] this codec implements.
    fn mode(&self) -> WireMode;

    /// Appends one complete frame carrying `value` to `out`.
    ///
    /// # Errors
    ///
    /// A rendered payload larger than [`MAX_FRAME`].
    fn encode_value(&self, value: &Value, out: &mut Vec<u8>) -> Result<(), String>;

    /// Decodes one complete frame from the front of `buf`, returning the
    /// carried value and the bytes consumed — `None` when the buffer holds
    /// only a partial frame (read more and retry).
    ///
    /// # Errors
    ///
    /// A malformed frame (bad prefix, a declared length over `max_len`,
    /// undecodable payload); the connection is beyond recovery. Callers
    /// pass [`MAX_FRAME`], or [`MAX_REQUEST_FRAME`] for server-bound
    /// frames; an over-long prefix fails as soon as it is read, before its
    /// payload arrives.
    fn decode_value(&self, buf: &[u8], max_len: usize) -> Result<Option<(Value, usize)>, String>;
}

/// Serializes `msg` and appends one frame in `codec`'s layout.
///
/// # Errors
///
/// See [`WireCodec::encode_value`].
pub fn encode_message<T: Serialize>(
    codec: &dyn WireCodec,
    msg: &T,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    codec.encode_value(&msg.serialize(), out)
}

/// One frame carrying `msg`, as a fresh byte vector.
///
/// # Errors
///
/// See [`WireCodec::encode_value`].
pub fn encode_frame<T: Serialize>(codec: &dyn WireCodec, msg: &T) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    encode_message(codec, msg, &mut out)?;
    Ok(out)
}

/// Parses a decoded frame value into a typed message.
///
/// # Errors
///
/// The value does not have the message's shape.
pub fn decode_message<T: Deserialize>(value: &Value) -> Result<T, String> {
    T::deserialize(value).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// JSON lines: `LEN JSON\n`.
// ---------------------------------------------------------------------------

/// The debug codec: ASCII decimal payload length, one
/// space, a single-line JSON document, one `\n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonLinesCodec;

impl WireCodec for JsonLinesCodec {
    fn mode(&self) -> WireMode {
        WireMode::Json
    }

    fn encode_value(&self, value: &Value, out: &mut Vec<u8>) -> Result<(), String> {
        let json = serde_json::to_string(value).map_err(|e| format!("serialize frame: {e}"))?;
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

    fn decode_value(&self, buf: &[u8], max_len: usize) -> Result<Option<(Value, usize)>, String> {
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
        let payload = std::str::from_utf8(&buf[i..i + len])
            .map_err(|_| "malformed frame: payload is not UTF-8".to_string())?;
        let value: Value =
            serde_json::from_str(payload).map_err(|e| format!("malformed frame payload: {e}"))?;
        Ok(Some((value, total)))
    }
}

// ---------------------------------------------------------------------------
// Binary frames: 4-byte LE length, key table, tagged value tree.
// ---------------------------------------------------------------------------

/// Value-tree tags of the binary payload.
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

/// The default compact codec.
///
/// Frame layout (all integers little-endian / LEB128 varints):
///
/// ```text
/// u32     payload length (bytes after this prefix)
/// varint  key count K
/// K ×     varint key length + UTF-8 key bytes   (first-use order)
/// value   tagged tree:
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
/// as text). Encoding is deterministic — object keys keep insertion order
/// and the key table is first-visit ordered — so equal values produce
/// byte-identical frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

impl WireCodec for BinaryCodec {
    fn mode(&self) -> WireMode {
        WireMode::Binary
    }

    fn encode_value(&self, value: &Value, out: &mut Vec<u8>) -> Result<(), String> {
        let mut keys: Vec<&str> = Vec::new();
        collect_keys(value, &mut keys);
        let mut payload = Vec::with_capacity(256);
        write_varint(&mut payload, keys.len() as u64);
        for key in &keys {
            write_varint(&mut payload, key.len() as u64);
            payload.extend_from_slice(key.as_bytes());
        }
        write_value(&mut payload, value, &keys);
        if payload.len() > MAX_FRAME {
            return Err(format!("frame too large: {} bytes", payload.len()));
        }
        out.reserve(payload.len() + 4);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(())
    }

    fn decode_value(&self, buf: &[u8], max_len: usize) -> Result<Option<(Value, usize)>, String> {
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
        let mut cursor = Cursor {
            buf: &buf[4..4 + len],
            pos: 0,
        };
        let key_count = cursor.varint()? as usize;
        if key_count > len {
            return Err("malformed frame: key table overruns payload".to_string());
        }
        let mut keys = Vec::with_capacity(key_count);
        for _ in 0..key_count {
            keys.push(cursor.string()?);
        }
        let value = read_value(&mut cursor, &keys, 0)?;
        if cursor.pos != cursor.buf.len() {
            return Err("malformed frame: trailing bytes after value".to_string());
        }
        Ok(Some((value, 4 + len)))
    }
}

/// First-visit-ordered object keys of the whole tree.
fn collect_keys<'v>(value: &'v Value, keys: &mut Vec<&'v str>) {
    match value {
        Value::Array(items) => {
            for item in items {
                collect_keys(item, keys);
            }
        }
        Value::Object(fields) => {
            for (key, item) in fields {
                if !keys.contains(&key.as_str()) {
                    keys.push(key);
                }
                collect_keys(item, keys);
            }
        }
        _ => {}
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
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

fn write_value(out: &mut Vec<u8>, value: &Value, keys: &[&str]) {
    match value {
        Value::Null => out.push(tag::NULL),
        Value::Bool(false) => out.push(tag::FALSE),
        Value::Bool(true) => out.push(tag::TRUE),
        Value::Int(i) => {
            out.push(tag::INT);
            write_varint128(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(tag::STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(tag::ARRAY);
            write_varint(out, items.len() as u64);
            for item in items {
                write_value(out, item, keys);
            }
        }
        Value::Object(fields) => {
            out.push(tag::OBJECT);
            write_varint(out, fields.len() as u64);
            for (key, item) in fields {
                let index = keys
                    .iter()
                    .position(|k| k == key)
                    .expect("collect_keys visited every key");
                write_varint(out, index as u64);
                write_value(out, item, keys);
            }
        }
    }
}

struct Cursor<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or("malformed frame: payload truncated")?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("malformed frame: payload truncated".to_string());
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let v = self.varint128()?;
        u64::try_from(v).map_err(|_| "malformed frame: varint exceeds u64".to_string())
    }

    fn varint128(&mut self) -> Result<u128, String> {
        let mut v = 0u128;
        for shift in (0..=126).step_by(7) {
            let byte = self.byte()?;
            v |= u128::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("malformed frame: varint too long".to_string())
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| "malformed frame: string is not UTF-8".to_string())
    }
}

fn read_value(cursor: &mut Cursor<'_>, keys: &[String], depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err("malformed frame: value nesting too deep".to_string());
    }
    match cursor.byte()? {
        tag::NULL => Ok(Value::Null),
        tag::FALSE => Ok(Value::Bool(false)),
        tag::TRUE => Ok(Value::Bool(true)),
        tag::INT => Ok(Value::Int(unzigzag(cursor.varint128()?))),
        tag::FLOAT => {
            let bytes: [u8; 8] = cursor.take(8)?.try_into().expect("8-byte take");
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(bytes))))
        }
        tag::STR => Ok(Value::Str(cursor.string()?)),
        tag::ARRAY => {
            let count = cursor.varint()? as usize;
            // One byte minimum per element bounds allocation by input size.
            if count > cursor.buf.len() - cursor.pos {
                return Err("malformed frame: array count overruns payload".to_string());
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(read_value(cursor, keys, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        tag::OBJECT => {
            let count = cursor.varint()? as usize;
            if count > cursor.buf.len() - cursor.pos {
                return Err("malformed frame: object count overruns payload".to_string());
            }
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                let index = cursor.varint()? as usize;
                let key = keys
                    .get(index)
                    .ok_or("malformed frame: key index out of range")?
                    .clone();
                fields.push((key, read_value(cursor, keys, depth + 1)?));
            }
            Ok(Value::Object(fields))
        }
        other => Err(format!("malformed frame: unknown value tag {other}")),
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
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (> 0 mid-frame).
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Peels one complete frame of at most `max_len` payload bytes off
    /// the front, if present.
    pub(crate) fn take_frame(
        &mut self,
        codec: &dyn WireCodec,
        max_len: usize,
    ) -> Result<Option<Value>, String> {
        match codec.decode_value(&self.buf[self.start..], max_len)? {
            Some((value, consumed)) => {
                self.start += consumed;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                } else if self.start > 64 * 1024 {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                Ok(Some(value))
            }
            None => Ok(None),
        }
    }
}

/// What one poll of a blocking frame stream produced.
#[derive(Debug)]
pub(crate) enum FrameEvent {
    /// A complete frame's value.
    Frame(Value),
    /// No bytes arrived within one read timeout, at a frame boundary.
    Idle,
    /// Clean EOF at a frame boundary.
    Closed,
}

/// Blocking incremental frame reader over any byte stream — the client
/// side's receive path. Partial frames survive read timeouts (the buffer
/// keeps them); only EOF or a prolonged stall *inside* a frame is a
/// truncation error. The codec is swappable mid-stream: handshakes are
/// always JSON-lines, the negotiated codec takes over afterwards.
pub(crate) struct FrameReader<R: Read> {
    pub(crate) src: R,
    pub(crate) codec: &'static dyn WireCodec,
    buffer: FrameBuffer,
    /// Consecutive mid-frame read timeouts tolerated before the frame is
    /// declared truncated.
    pub(crate) max_stalls: usize,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(src: R, codec: &'static dyn WireCodec, max_stalls: usize) -> FrameReader<R> {
        FrameReader {
            src,
            codec,
            buffer: FrameBuffer::new(),
            max_stalls: max_stalls.max(1),
        }
    }

    /// Reads until a complete frame, idle timeout (at a boundary), EOF, or
    /// error. A peer that closes or stalls mid-frame is a truncation.
    pub(crate) fn read_frame(&mut self) -> Result<FrameEvent, String> {
        let mut stalls = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(value) = self.buffer.take_frame(self.codec, MAX_FRAME)? {
                return Ok(FrameEvent::Frame(value));
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

/// Serializes `msg` and writes one frame in `codec`'s layout, flushing.
pub(crate) fn write_frame<W: std::io::Write, T: Serialize>(
    w: &mut W,
    codec: &dyn WireCodec,
    msg: &T,
) -> Result<(), String> {
    let frame = encode_frame(codec, msg)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| format!("write failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &dyn WireCodec, value: &Value) -> Value {
        let mut out = Vec::new();
        codec.encode_value(value, &mut out).unwrap();
        let (back, consumed) = codec
            .decode_value(&out, MAX_FRAME)
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
        assert_eq!(roundtrip(&JsonLinesCodec, &value), value);
        assert_eq!(roundtrip(&BinaryCodec, &value), value);
    }

    #[test]
    fn binary_encoding_is_deterministic_and_compact() {
        let value = sample();
        let (mut a, mut b, mut j) = (Vec::new(), Vec::new(), Vec::new());
        BinaryCodec.encode_value(&value, &mut a).unwrap();
        BinaryCodec.encode_value(&value, &mut b).unwrap();
        JsonLinesCodec.encode_value(&value, &mut j).unwrap();
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
            let back = roundtrip(&BinaryCodec, &Value::Float(f));
            let Value::Float(g) = back else {
                panic!("float came back as {back:?}");
            };
            assert_eq!(f.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn binary_ints_cover_extremes() {
        for i in [0i128, -1, 1, i128::MAX, i128::MIN, u64::MAX as i128] {
            assert_eq!(roundtrip(&BinaryCodec, &Value::Int(i)), Value::Int(i));
        }
    }

    #[test]
    fn partial_frames_decode_to_none() {
        let mut out = Vec::new();
        BinaryCodec.encode_value(&sample(), &mut out).unwrap();
        for cut in 0..out.len() {
            assert!(
                BinaryCodec
                    .decode_value(&out[..cut], MAX_FRAME)
                    .unwrap()
                    .is_none(),
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
        let mut out = Vec::new();
        JsonLinesCodec.encode_value(&sample(), &mut out).unwrap();
        for cut in 0..out.len() {
            assert!(JsonLinesCodec
                .decode_value(&out[..cut], MAX_FRAME)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn malformed_binary_frames_are_typed_errors_not_panics() {
        // Oversized declared length.
        let mut buf = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert!(BinaryCodec.decode_value(&buf, MAX_FRAME).is_err());
        // Unknown tag.
        let mut buf = 2u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0, 99]);
        assert!(BinaryCodec.decode_value(&buf, MAX_FRAME).is_err());
        // Key index out of range.
        let mut payload = vec![0u8]; // zero keys
        payload.push(tag::OBJECT);
        payload.push(1); // one field
        payload.push(5); // key index 5
        payload.push(tag::NULL);
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&payload);
        assert!(BinaryCodec.decode_value(&buf, MAX_FRAME).is_err());
        // Truncation inside the payload declared length is impossible by
        // construction (decode waits for the whole payload), but trailing
        // garbage after the value is rejected.
        let mut out = Vec::new();
        BinaryCodec.encode_value(&Value::Null, &mut out).unwrap();
        let len = out.len();
        out.extend_from_slice(&[0]);
        out[0..4].copy_from_slice(&((len - 4 + 1) as u32).to_le_bytes());
        assert!(BinaryCodec.decode_value(&out, MAX_FRAME).is_err());
    }

    #[test]
    fn json_codec_rejects_garbage_prefixes() {
        assert!(JsonLinesCodec.decode_value(b"xx {}\n", MAX_FRAME).is_err());
        assert!(JsonLinesCodec.decode_value(b"2 {}x", MAX_FRAME).is_err());
        assert!(JsonLinesCodec
            .decode_value(b"99999999 x", MAX_FRAME)
            .is_err());
        // Length lies beyond the payload: incomplete, the reader's
        // EOF/stall handling turns it into a truncation.
        assert!(JsonLinesCodec
            .decode_value(b"10 {}\n", MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn both_codecs_refuse_a_length_over_the_cap_from_its_prefix_alone() {
        // Only the length prefix has arrived: a declared length at the cap
        // waits for its payload, one byte over fails at once.
        let cap = MAX_REQUEST_FRAME;
        let at = (cap as u32).to_le_bytes();
        assert!(BinaryCodec.decode_value(&at, cap).unwrap().is_none());
        let over = (cap as u32 + 1).to_le_bytes();
        let err = BinaryCodec.decode_value(&over, cap).unwrap_err();
        assert!(err.contains("exceeds maximum"), "{err}");
        let at = format!("{cap} ");
        assert!(JsonLinesCodec
            .decode_value(at.as_bytes(), cap)
            .unwrap()
            .is_none());
        let over = format!("{} ", cap + 1);
        let err = JsonLinesCodec
            .decode_value(over.as_bytes(), cap)
            .unwrap_err();
        assert!(err.contains("exceeds maximum"), "{err}");
    }

    #[test]
    fn frame_buffer_survives_chunked_delivery_of_mixed_frames() {
        let mut wire = Vec::new();
        for i in 0..3 {
            let mut value = Value::object();
            value.insert("seq", Value::Int(i));
            BinaryCodec.encode_value(&value, &mut wire).unwrap();
        }
        let mut buffer = FrameBuffer::new();
        let mut seen = Vec::new();
        for byte in wire {
            buffer.extend(&[byte]);
            while let Some(value) = buffer.take_frame(&BinaryCodec, MAX_FRAME).unwrap() {
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

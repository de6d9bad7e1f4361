//! Deterministic binary wire codec for the Canon node runtime.
//!
//! This crate is the serialization boundary the ROADMAP's "wire-format RPC"
//! item asks for: a hand-rolled, dependency-free, fixed-layout binary codec
//! that canon-node's message vocabulary encodes through before anything
//! resembling a socket ever sees it. Hand-rolled rather than MiniCBOR or
//! serde because the build environment is offline and, more importantly,
//! because the workspace's determinism story demands byte-for-byte
//! reproducible output: no schema negotiation, no map-ordering freedom, no
//! float canonicalization questions — every value has exactly one encoding.
//!
//! # Layout primitives
//!
//! * **fixed-width integers** — `u64` little-endian, 8 bytes. Used for
//!   identifier-space points (node ids, keys, stored values): those are
//!   uniform 64-bit hashes, so a varint would *lengthen* them.
//! * **varints** — LEB128, 1–10 bytes, value bits little-endian in groups
//!   of 7 with the high bit as continuation. Used for counters (sequence
//!   numbers, ticks, hop counts, lengths), which take a byte or a few
//!   where a fixed-width integer would take eight.
//! * **length-prefixed byte slices** — varint length + raw bytes. The
//!   decoder returns a borrowed subslice (zero-copy).
//! * **one-byte variant tags** — every `enum` encodes an explicit tag
//!   byte; decoders reject unknown tags with [`WireError::BadTag`].
//!
//! # Cost
//!
//! A hop of the node runtime reads every message it receives — a request
//! it only routes as far as its head, borrowing the rest
//! ([`Decoder::rest`], [`Decoder::take`]) to pass on as bytes, anything
//! else decoded whole — so the common case is kept to straight-line
//! code: [`Decoder`] is a cursor
//! over the unread tail of the input (`&[u8]`), and every read is one
//! checked split of that tail (`split_first`, `split_first_chunk`,
//! `split_at_checked`) — the bounds check *is* the advance. A one-byte
//! varint is read and written inline; longer ones go through an
//! out-of-line loop (marked `#[cold]`) on both sides of the codec. They
//! are not rare on the serving path: a node's per-sender `seq` takes two
//! bytes from its 128th send on, and wall-clock ticks of 20 µs take
//! three after about 0.33 s. An inline two-byte path was measured
//! in-process at −1.6% of a burst's time, inside the noise, so the loop
//! stays where it is until a paired serving run shows a gain.
//!
//! # Totality
//!
//! Every decode is **total**: arbitrary input bytes produce `Ok` or a
//! [`WireError`], never a panic. The three failure modes are truncation
//! (ran out of bytes), an unknown variant tag, and trailing garbage after
//! a complete value ([`from_bytes`] enforces full consumption).
//!
//! # Determinism
//!
//! Encoding is a pure function of the value: [`to_bytes`] called twice on
//! equal values yields identical byte strings, and
//! `to_bytes(from_bytes(b)) == b` for every `b` that decodes at all —
//! there are no redundant encodings. The round-trip property tests in
//! canon-node pin both directions for the whole message vocabulary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use canon_id::NodeId;

/// Why a decode failed. Decoding is total: every input produces a value
/// or one of these, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// An enum tag byte (or an overlong varint) had no valid meaning;
    /// `ty` names the type being decoded.
    BadTag {
        /// The type whose decoder rejected the byte.
        ty: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A complete value was decoded but input bytes remained.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadTag { ty, tag } => write!(f, "bad tag {tag:#04x} for {ty}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializes values into a byte buffer. Append-only; the buffer may
/// already hold earlier data (frames concatenate several values).
#[derive(Debug)]
pub struct Encoder<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Encoder<'a> {
    /// An encoder appending to `buf`.
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Encoder<'a> {
        Encoder { buf }
    }

    /// Bytes written so far (including any the buffer held before this
    /// encoder was created) — callers diff this to size sub-encodings.
    #[inline]
    pub fn written(&self) -> usize {
        self.buf.len()
    }

    /// Appends one raw byte — the variant-tag primitive.
    #[inline]
    pub fn tag(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends a `u64` as 8 little-endian bytes (identifier-space points:
    /// node ids, keys, values — uniform hashes that varints would bloat).
    #[inline]
    pub fn u64_fixed(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` as a LEB128 varint (1–10 bytes; counters and
    /// lengths).
    #[inline]
    pub fn varint(&mut self, v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
        } else {
            self.varint_multi(v);
        }
    }

    /// [`Encoder::varint`] for values of two bytes or more.
    #[cold]
    fn varint_multi(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Appends a length-prefixed byte slice (varint length + raw bytes).
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a `bool` as a 0/1 tag byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.tag(u8::from(v));
    }

    /// Encodes a value through its [`WireEncode`] impl.
    #[inline]
    pub fn encode<T: WireEncode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }
}

/// Deserializes values from a byte slice. Zero-copy: [`Decoder::bytes`]
/// returns subslices of the input rather than owned buffers.
///
/// The decoder is a cursor that shrinks from the front: each read splits
/// what it consumed off `rest`, so a bounds check and an advance are one
/// slice split, and there is no position to add to an offset.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// A decoder reading from the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The bytes not yet consumed, borrowed from the input: a reader that
    /// keeps a value's encoding as well as its fields slices it off this.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Reads `len` raw bytes, borrowing from the input.
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let (out, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(out)
    }

    /// Reads one raw byte — the variant-tag primitive.
    #[inline]
    pub fn tag(&mut self) -> Result<u8, WireError> {
        let (&b, rest) = self.rest.split_first().ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(b)
    }

    /// Reads a `u64` from 8 little-endian bytes.
    #[inline]
    pub fn u64_fixed(&mut self) -> Result<u64, WireError> {
        let (raw, rest) = self
            .rest
            .split_first_chunk::<8>()
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(u64::from_le_bytes(*raw))
    }

    /// Reads a LEB128 varint. Overlong encodings (an 11th continuation
    /// byte, or bits beyond the 64th) are rejected as [`WireError::BadTag`]
    /// so every value has exactly one encoding.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        match self.rest.split_first() {
            Some((&b, rest)) if b < 0x80 => {
                self.rest = rest;
                Ok(u64::from(b))
            }
            _ => self.varint_multi(),
        }
    }

    /// [`Decoder::varint`] for anything but a single-byte value: the
    /// multi-byte loop, and the errors.
    #[cold]
    fn varint_multi(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.tag()?;
            let bits = u64::from(b & 0x7f);
            // The 10th byte (shift 63) may only carry the final bit.
            if shift == 63 && bits > 1 {
                return Err(WireError::BadTag {
                    ty: "varint",
                    tag: b,
                });
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                // Reject non-canonical zero continuation groups ("0x80 0x00"
                // style padding) so encodings are unique.
                if b == 0 && shift != 0 {
                    return Err(WireError::BadTag {
                        ty: "varint",
                        tag: b,
                    });
                }
                return Ok(v);
            }
        }
        Err(WireError::BadTag {
            ty: "varint",
            tag: 0x80,
        })
    }

    /// Reads a varint, requiring it to fit a `u32`.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| WireError::BadTag {
            ty: "u32",
            tag: 0xff,
        })
    }

    /// Reads a length-prefixed byte slice, borrowing from the input.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| WireError::Truncated)?;
        self.take(len)
    }

    /// Reads a `bool` from a 0/1 tag byte.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag { ty: "bool", tag: t }),
        }
    }

    /// Decodes a value through its [`WireDecode`] impl.
    #[inline]
    pub fn decode<T: WireDecode>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Asserts the input is fully consumed ([`WireError::TrailingBytes`]
    /// otherwise).
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Deterministic serialization into an [`Encoder`].
pub trait WireEncode {
    /// Appends this value's unique encoding.
    fn encode(&self, e: &mut Encoder<'_>);
}

/// Total deserialization from a [`Decoder`]: every input yields `Ok` or a
/// [`WireError`], never a panic.
pub trait WireDecode: Sized {
    /// Reads one value.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: WireEncode + ?Sized>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    v.encode(&mut Encoder::new(&mut buf));
    buf
}

/// Decodes exactly one value, rejecting trailing bytes.
#[inline]
pub fn from_bytes<T: WireDecode>(b: &[u8]) -> Result<T, WireError> {
    let mut d = Decoder::new(b);
    let v = T::decode(&mut d)?;
    d.finish()?;
    Ok(v)
}

impl WireEncode for u8 {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        e.tag(*self);
    }
}

impl WireDecode for u8 {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.tag()
    }
}

impl WireEncode for u32 {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        e.varint(u64::from(*self));
    }
}

impl WireDecode for u32 {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.varint_u32()
    }
}

impl WireEncode for u64 {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        e.varint(*self);
    }
}

impl WireDecode for u64 {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.varint()
    }
}

impl WireEncode for bool {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        e.bool(*self);
    }
}

impl WireDecode for bool {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.bool()
    }
}

/// Node identifiers are identifier-space points: fixed 8-byte LE (a varint
/// would average 9.2 bytes on uniform hashes).
impl WireEncode for NodeId {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        e.u64_fixed(self.raw());
    }
}

impl WireDecode for NodeId {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(NodeId::new(d.u64_fixed()?))
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, e: &mut Encoder<'_>) {
        match self {
            None => e.tag(0),
            Some(v) => {
                e.tag(1);
                v.encode(e);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.tag()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            t => Err(WireError::BadTag {
                ty: "Option",
                tag: t,
            }),
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, e: &mut Encoder<'_>) {
        e.varint(self.len() as u64);
        for item in self {
            item.encode(e);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = d.varint()?;
        // Every element consumes at least one byte, so a claimed length
        // beyond the remaining input is truncation — checked *before*
        // allocating, so adversarial lengths cannot balloon memory.
        let len = usize::try_from(len).map_err(|_| WireError::Truncated)?;
        if len > d.remaining() {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, e: &mut Encoder<'_>) {
        self.0.encode(e);
        self.1.encode(e);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
        assert_eq!(to_bytes(&back), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn primitives_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1] {
            roundtrip(v);
        }
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(NodeId::new(0xdead_beef_cafe_f00d));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(42u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip((NodeId::new(7), 99u64));
    }

    #[test]
    fn varint_layout_is_leb128() {
        assert_eq!(to_bytes(&0u64), [0x00]);
        assert_eq!(to_bytes(&127u64), [0x7f]);
        assert_eq!(to_bytes(&128u64), [0x80, 0x01]);
        assert_eq!(to_bytes(&300u64), [0xac, 0x02]);
        assert_eq!(to_bytes(&u64::MAX).len(), 10);
    }

    #[test]
    fn fixed_u64_is_little_endian() {
        let mut buf = Vec::new();
        Encoder::new(&mut buf).u64_fixed(0x0102_0304_0506_0708);
        assert_eq!(buf, [8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(Decoder::new(&buf).u64_fixed(), Ok(0x0102_0304_0506_0708u64));
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let full = to_bytes(&(NodeId::new(5), u64::MAX));
        for cut in 0..full.len() {
            let r: Result<(NodeId, u64), _> = from_bytes(&full[..cut]);
            assert_eq!(r, Err(WireError::Truncated), "cut at {cut}");
        }
        assert_eq!(Decoder::new(&[]).tag(), Err(WireError::Truncated));
        assert_eq!(
            Decoder::new(&[1, 2, 3]).u64_fixed(),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            from_bytes::<bool>(&[2]),
            Err(WireError::BadTag { ty: "bool", tag: 2 })
        );
        assert_eq!(
            from_bytes::<Option<u64>>(&[9]),
            Err(WireError::BadTag {
                ty: "Option",
                tag: 9
            })
        );
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // 11 continuation bytes: walks off the 64-bit end.
        let overlong = [0x80u8; 11];
        assert!(matches!(
            from_bytes::<u64>(&overlong),
            Err(WireError::BadTag { ty: "varint", .. })
        ));
        // Non-canonical padding: 0 encoded in two groups.
        assert!(matches!(
            from_bytes::<u64>(&[0x80, 0x00]),
            Err(WireError::BadTag { ty: "varint", .. })
        ));
        // 10th byte may only carry the 64th bit.
        let mut max = [0xffu8; 10];
        max[9] = 0x01;
        assert_eq!(from_bytes::<u64>(&max), Ok(u64::MAX));
        max[9] = 0x02;
        assert!(matches!(
            from_bytes::<u64>(&max),
            Err(WireError::BadTag { ty: "varint", .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert_eq!(from_bytes::<u64>(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn length_prefixed_slices_are_zero_copy() {
        let mut buf = Vec::new();
        Encoder::new(&mut buf).bytes(b"hello");
        let mut d = Decoder::new(&buf);
        let s = d.bytes().expect("slice");
        assert_eq!(s, b"hello");
        // The returned slice borrows the input buffer directly.
        assert_eq!(s.as_ptr(), buf[1..].as_ptr());
        assert!(d.finish().is_ok());
    }

    #[test]
    fn oversized_length_claims_fail_before_allocating() {
        // Vec claims u64::MAX elements with 2 bytes of payload behind it.
        let mut bytes = to_bytes(&u64::MAX);
        bytes.extend_from_slice(&[1, 2]);
        assert_eq!(from_bytes::<Vec<u64>>(&bytes), Err(WireError::Truncated));
        // A slice length beyond the remaining input likewise.
        let mut buf = Vec::new();
        Encoder::new(&mut buf).varint(1 << 40);
        assert_eq!(Decoder::new(&buf).bytes(), Err(WireError::Truncated));
    }

    #[test]
    fn decoding_is_total_over_arbitrary_bytes() {
        // A deterministic byte soup: every prefix must decode or error,
        // never panic.
        let mut soup = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..4096 {
            x = x.wrapping_mul(0xd129_42ea_69b9_fead).rotate_left(17);
            soup.push((x >> 56) as u8);
        }
        for start in 0..64 {
            let tail = &soup[start..];
            let _ = from_bytes::<u64>(tail);
            let _ = from_bytes::<Vec<u64>>(tail);
            let _ = from_bytes::<Option<(NodeId, u64)>>(tail);
            let _ = from_bytes::<bool>(tail);
        }
    }
}

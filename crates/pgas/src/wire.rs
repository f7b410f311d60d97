//! Byte-level message codec for the process transport.
//!
//! The in-process mailbox path moves `M` values between ranks by `memcpy`
//! (`Vec::append`), so it never needs a serialized form. The process
//! transport does: every coalesced (src, dst) bucket crosses a socket as one
//! CRC64-sealed frame (see [`crate::mailbox::frame`]) whose payload is the
//! concatenation of the bucket's messages encoded through [`WireCodec`].
//!
//! Decoding follows the same hostile-input discipline as the frame parser:
//! every read is bounds-checked against the remaining buffer, and no
//! allocation is sized from an untrusted length without first capping it by
//! the bytes actually present. A frame that passed its CRC can still be
//! structurally hostile to a *different* message schema (version skew, a
//! buggy peer), so `decode` returns `None` rather than trusting anything.

use crate::crc::Crc64;

/// Bounds-checked little-endian reader over a received payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed? Decoders check this to reject padded
    /// or over-long payloads.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes consumed so far — where a failed read stopped.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Borrow the next `n` raw bytes.
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub fn read_u8(&mut self) -> Option<u8> {
        self.read_bytes(1).map(|s| s[0])
    }

    pub fn read_bool(&mut self) -> Option<bool> {
        match self.read_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None, // a canonical encoder only ever writes 0 or 1
        }
    }

    #[inline]
    pub fn read_u32(&mut self) -> Option<u32> {
        self.read_bytes(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    #[inline]
    pub fn read_u64(&mut self) -> Option<u64> {
        self.read_bytes(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    pub fn read_u128(&mut self) -> Option<u128> {
        self.read_bytes(16)
            .map(|s| u128::from_le_bytes(s.try_into().expect("16 bytes")))
    }

    pub fn read_f32(&mut self) -> Option<f32> {
        self.read_u32().map(f32::from_bits)
    }

    #[inline]
    pub fn read_f64(&mut self) -> Option<f64> {
        self.read_u64().map(f64::from_bits)
    }

    /// Read a length prefix for a sequence whose elements occupy at least
    /// `elem_floor` encoded bytes each. A length that could not possibly fit
    /// in the remaining buffer is rejected before any allocation, and the
    /// reader stays at the length word.
    pub fn read_len(&mut self, elem_floor: usize) -> Option<usize> {
        let at = self.pos;
        let len = self.read_u64()?;
        let floor = elem_floor.max(1) as u64;
        if len > self.remaining() as u64 / floor {
            self.pos = at;
            return None;
        }
        Some(len as usize)
    }
}

/// Little-endian writer helpers mirroring [`WireReader`]: a sink takes bytes,
/// the typed writers are the same for every sink.
pub trait WireWrite {
    fn put_bytes(&mut self, bytes: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }
    fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }
    /// A run of words, the bytes of one `put_u32` per word. Sinks override
    /// it to take a whole per-voxel field without a call per word.
    fn put_u32s(&mut self, words: impl IntoIterator<Item = u32>) {
        for w in words {
            self.put_u32(w);
        }
    }
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }
    fn put_u128(&mut self, v: u128) {
        self.put_bytes(&v.to_le_bytes());
    }
    /// Floats travel as their bit pattern — bitwise identity is the
    /// contract, so `-0.0` and `0.0` encode differently on purpose.
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl WireWrite for Vec<u8> {
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Digesting is encoding into the checksum: a [`Payload::digest`] defined as
/// `self.encode(crc)` covers exactly the bytes that cross the wire, with one
/// field walk per message type.
///
/// [`Payload::digest`]: crate::crc::Payload::digest
impl WireWrite for Crc64 {
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
    fn put_u32s(&mut self, words: impl IntoIterator<Item = u32>) {
        self.update_u32s(words);
    }
}

/// A message type that can cross a process boundary. Encoding must be
/// canonical (one byte sequence per value) so a round-tripped bucket is
/// bit-identical to the staged one — the process transport's counter and
/// trajectory identity with the in-process path depends on it.
pub trait WireCodec: Sized {
    /// Append this message's canonical encoding.
    fn encode<W: WireWrite>(&self, out: &mut W);
    /// Decode one message; `None` on any structural violation.
    fn decode(r: &mut WireReader<'_>) -> Option<Self>;
}

/// Encode a whole (src, dst) bucket as one contiguous payload.
pub fn encode_bucket<M: WireCodec>(bucket: &[M]) -> Vec<u8> {
    let mut out = Vec::new();
    for m in bucket {
        m.encode(&mut out);
    }
    out
}

/// Decode a bucket payload that claims `count` messages. Fails if the
/// payload holds more, fewer, or structurally invalid messages.
pub fn decode_bucket<M: WireCodec>(count: u64, payload: &[u8]) -> Option<Vec<M>> {
    // Every message encodes to at least one byte, so a count the payload
    // cannot possibly hold is rejected before any allocation or iteration —
    // a hostile count must not even drive loop trips.
    if count > payload.len() as u64 {
        return None;
    }
    let mut r = WireReader::new(payload);
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(M::decode(&mut r)?);
    }
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// One fixed-width field of a [`wire_cell!`](crate::wire_cell) struct: its
/// canonical encoding is its [`WireCodec`]; this adds the encoded width and
/// the single-bit flip the seeded corruption plans apply.
pub trait WireField: WireCodec {
    /// Encoded bytes.
    const LEN: usize;
    /// Bits a corruption can flip: every encoded bit, except that a
    /// canonical `bool` has one.
    const BITS: u64;
    /// Flip bit `bit < BITS`; applying it twice restores the value.
    fn flip_bit(&mut self, bit: u64);
}

macro_rules! wire_scalar {
    ($($t:ty: $len:literal bytes, $bits:literal bits, $put:ident, $read:ident,
       |$v:ident, $bit:ident| $flipped:expr;)*) => {$(
        impl WireCodec for $t {
            fn encode<W: WireWrite>(&self, out: &mut W) {
                out.$put(*self);
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Option<Self> {
                r.$read()
            }
        }
        impl WireField for $t {
            const LEN: usize = $len;
            const BITS: u64 = $bits;
            fn flip_bit(&mut self, $bit: u64) {
                let $v = *self;
                *self = $flipped;
            }
        }
    )*};
}

wire_scalar! {
    u8: 1 bytes, 8 bits, put_u8, read_u8, |v, bit| v ^ (1 << bit);
    u32: 4 bytes, 32 bits, put_u32, read_u32, |v, bit| v ^ (1 << bit);
    u64: 8 bytes, 64 bits, put_u64, read_u64, |v, bit| v ^ (1 << bit);
    u128: 16 bytes, 128 bits, put_u128, read_u128, |v, bit| v ^ (1 << bit);
    f32: 4 bytes, 32 bits, put_f32, read_f32, |v, bit| f32::from_bits(v.to_bits() ^ (1 << bit));
    f64: 8 bytes, 64 bits, put_f64, read_f64, |v, bit| f64::from_bits(v.to_bits() ^ (1 << bit));
    bool: 1 bytes, 1 bits, put_bool, read_bool, |v, _bit| !v;
}

/// Append a length-prefixed sequence of cells.
pub fn encode_seq<C: WireCodec, W: WireWrite>(cells: &[C], out: &mut W) {
    out.put_u64(cells.len() as u64);
    for c in cells {
        c.encode(out);
    }
}

impl WireReader<'_> {
    /// Read a sequence written by [`encode_seq`] whose elements encode to
    /// `elem_len` bytes each ([`read_len`](Self::read_len) bounds the count).
    pub fn read_seq<C: WireCodec>(&mut self, elem_len: usize) -> Option<Vec<C>> {
        let n = self.read_len(elem_len)?;
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(C::decode(self)?);
        }
        Some(cells)
    }
}

/// Declare a fixed-layout wire cell once. From the field list this emits the
/// `pub struct` (`Debug, Clone, Copy, PartialEq`), its `ENCODED_LEN`, its
/// [`WireCodec`] (fields in declaration order) and the seeded single-bit
/// `flip`, so a field cannot be encoded but not decoded, or sized but not
/// corruptible. Every field type is a [`WireField`].
#[macro_export]
macro_rules! wire_cell {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $f:ident: $t:ty),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $f: $t),+
        }

        impl $name {
            /// Bytes of one encoded cell.
            pub const ENCODED_LEN: usize = 0 $(+ <$t as $crate::wire::WireField>::LEN)+;
            /// Flippable bits of each field, in declaration order.
            pub const FIELD_BITS: &'static [u64] =
                &[$(<$t as $crate::wire::WireField>::BITS),+];

            /// Flip bit `bit` of field number `field`; self-inverse.
            pub fn flip_at(&mut self, field: usize, bit: u64) {
                let mut i = 0;
                $(
                    if i == field {
                        $crate::wire::WireField::flip_bit(&mut self.$f, bit);
                    }
                    i += 1;
                )+
                assert!(field < i, "cell has {i} fields, not {field}");
            }

            /// One seeded corruption: draws the field, then the bit in it.
            pub fn flip(&mut self, rng: &mut $crate::fault::SplitMix64) {
                let field = (rng.next_u64() % Self::FIELD_BITS.len() as u64) as usize;
                self.flip_at(field, rng.next_u64() % Self::FIELD_BITS[field]);
            }
        }

        impl $crate::wire::WireCodec for $name {
            fn encode<W: $crate::wire::WireWrite>(&self, out: &mut W) {
                $($crate::wire::WireCodec::encode(&self.$f, out);)+
            }
            fn decode(r: &mut $crate::wire::WireReader<'_>) -> Option<Self> {
                Some($name {
                    $($f: <$t as $crate::wire::WireCodec>::decode(r)?),+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrips() {
        let bucket: Vec<u64> = vec![0, 1, u64::MAX, 0xDEAD_BEEF];
        let payload = encode_bucket(&bucket);
        assert_eq!(payload.len(), 32);
        let back: Vec<u64> = decode_bucket(4, &payload).expect("clean payload");
        assert_eq!(back, bucket);
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let payload = encode_bucket(&[7u64, 8, 9]);
        assert!(decode_bucket::<u64>(2, &payload).is_none(), "undercount");
        assert!(decode_bucket::<u64>(4, &payload).is_none(), "overcount");
        assert!(
            decode_bucket::<u64>(3, &payload[..20]).is_none(),
            "truncated"
        );
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        // A u64::MAX claim against a tiny payload must fail fast — no OOM
        // from the capacity hint and no 2^64 decode-loop trips.
        assert!(decode_bucket::<u64>(u64::MAX, &[0u8; 8]).is_none());
        assert!(decode_bucket::<u8>(u64::MAX, &[]).is_none());
    }

    #[test]
    fn read_len_caps_by_remaining_bytes() {
        let mut buf = Vec::new();
        buf.put_u64(1 << 40);
        let mut r = WireReader::new(&buf);
        assert!(r.read_len(16).is_none(), "impossible length rejected");
        let mut buf = Vec::new();
        buf.put_u64(2);
        buf.put_u32(1);
        buf.put_u32(2);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_len(4), Some(2));
        assert_eq!(r.read_u32(), Some(1));
        assert_eq!(r.read_u32(), Some(2));
        assert!(r.is_exhausted());
    }

    #[test]
    fn non_canonical_bool_is_rejected() {
        let mut r = WireReader::new(&[2]);
        assert!(r.read_bool().is_none());
    }
}

//! Zero-dependency CRC64 and the [`Payload`] integrity trait.
//!
//! Silent data corruption (SDC) defense needs a cheap, collision-resistant
//! digest that both sides of a transfer can compute without a reference run.
//! This module implements CRC-64/XZ (reflected ECMA-182 polynomial
//! `0xC96C5795D7870F42`, init/xorout `!0`) with a compile-time 256-entry
//! table — no external crates, suitable for the offline container.
//!
//! [`Payload`] is the hook that lets the runtime digest and (for fault
//! injection) bit-flip application message types without knowing their
//! layout. Plain-old-data `Copy` types get a blanket no-op impl — they are
//! treated as *opaque* by the SDC layer (never targeted by the injector,
//! contributing nothing to batch digests). Real message types (`CpuMsg`,
//! `GpuMsg`) override all three methods so every wire bit is covered.

/// Reflected ECMA-182 polynomial (CRC-64/XZ).
const POLY: u64 = 0xC96C_5795_D787_0F42;

const fn build_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u64; 256] = build_table();

/// Streaming CRC-64/XZ. Feed bytes with [`Crc64::update`] or any
/// [`WireWrite`](crate::wire::WireWrite) writer, read the digest with
/// [`Crc64::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s = TABLE[((s ^ b as u64) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// Same bytes as [`WireWrite::put_u64`](crate::wire::WireWrite::put_u64),
    /// for callers that do not import the trait.
    pub fn write_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Same bytes as [`WireWrite::put_f64`](crate::wire::WireWrite::put_f64).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// One-shot CRC-64/XZ of a byte slice.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.finish()
}

/// Integrity hooks for metered message types: digest the wire content into a
/// batch checksum, and (for SDC fault injection) flip one seeded bit.
///
/// The defaults make a type *opaque*: it digests to nothing and reports no
/// corruptible bits, so the payload-corruption injector skips it. The
/// blanket impl below gives every `Copy` POD that behavior for free —
/// mirroring the [`WireSize`](crate::counters::WireSize) blanket — while
/// application message types override all three methods.
pub trait Payload {
    /// Fold this message's wire content into `crc`. Must cover every bit
    /// [`Payload::corrupt`] can touch, or corruption passes silently.
    fn digest(&self, _crc: &mut Crc64) {}

    /// Flip one bit of the wire content, chosen deterministically from
    /// `seed`. XOR semantics: applying the same seed twice restores the
    /// original bytes (that is how an in-barrier retransmit is modeled).
    fn corrupt(&mut self, _seed: u64) {}

    /// Does this message expose bits the injector may flip? The injector
    /// only targets messages answering `true`.
    fn corruptible(&self) -> bool {
        false
    }
}

impl<T: Copy> Payload for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_xz_check_value() {
        // The canonical CRC-64/XZ check: crc("123456789").
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let mut c = Crc64::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc64(&data));
    }

    #[test]
    fn typed_writers_match_byte_stream() {
        use crate::wire::WireWrite;
        let mut a = Crc64::new();
        a.write_u64(0xDEAD_BEEF_0123_4567);
        a.put_f32(1.5);
        a.put_u8(9);
        let mut b = Crc64::new();
        b.update(&0xDEAD_BEEF_0123_4567u64.to_le_bytes());
        b.update(&1.5f32.to_bits().to_le_bytes());
        b.update(&[9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let mut data = vec![0u8; 64];
        let clean = crc64(&data);
        for bit in [0usize, 13, 255, 511] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc64(&data), clean, "bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc64(&data), clean);
    }

    #[test]
    fn copy_types_are_opaque_payloads() {
        let x = 42u64;
        assert!(!x.corruptible());
        let mut c = Crc64::new();
        x.digest(&mut c);
        assert_eq!(c.finish(), Crc64::new().finish());
    }
}

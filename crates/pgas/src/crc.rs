//! Zero-dependency CRC64 and the [`Payload`] integrity trait.
//!
//! Silent data corruption (SDC) defense needs a cheap, collision-resistant
//! digest that both sides of a transfer can compute without a reference run.
//! This module implements CRC-64/XZ (reflected ECMA-182 polynomial
//! `0xC96C5795D7870F42`, init/xorout `!0`) by slicing-by-8 (Kounavis &
//! Berry, ISCC 2005): eight compile-time 256-entry tables fold one
//! little-endian 8-byte word into the state per round, so the digest costs
//! one round per word instead of eight dependent lookups. No external
//! crates, suitable for the offline container.
//!
//! [`Payload`] is the hook that lets the runtime digest and (for fault
//! injection) bit-flip application message types without knowing their
//! layout. Plain-old-data `Copy` types get a blanket no-op impl — they are
//! treated as *opaque* by the SDC layer (never targeted by the injector,
//! contributing nothing to batch digests). Real message types (`CpuMsg`,
//! `GpuMsg`) override all three methods so every wire bit is covered.

/// Reflected ECMA-182 polynomial (CRC-64/XZ).
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// `TABLES[0]` is the classic bytewise table. `TABLES[k][b]` advances the
/// CRC of byte `b` through `k` further zero bytes, so the eight lookups of
/// one word's bytes XOR into the state after the whole word.
const fn build_tables() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
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
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u64; 256]; 8] = build_tables();
const TABLE: &[u64; 256] = &TABLES[0];

/// One bytewise step.
#[inline(always)]
fn byte_round(s: u64, b: u8) -> u64 {
    TABLE[((s ^ b as u64) & 0xFF) as usize] ^ (s >> 8)
}

/// Fold the next 8 stream bytes, given as one little-endian word.
#[inline(always)]
fn word_round(s: u64, word: u64) -> u64 {
    let x = s ^ word;
    let t = |k: usize, shift: u32| TABLES[k][((x >> shift) & 0xFF) as usize];
    t(7, 0) ^ t(6, 8) ^ t(5, 16) ^ t(4, 24) ^ t(3, 32) ^ t(2, 40) ^ t(1, 48) ^ t(0, 56)
}

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
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            s = word_round(s, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            s = byte_round(s, b);
        }
        self.state = s;
    }

    /// The bytes of `words` as consecutive [`put_u32`] calls would feed
    /// them, two words per 8-byte round and no byte buffer between.
    ///
    /// [`put_u32`]: crate::wire::WireWrite::put_u32
    pub(crate) fn update_u32s(&mut self, words: impl IntoIterator<Item = u32>) {
        let mut s = self.state;
        let mut words = words.into_iter();
        while let Some(lo) = words.next() {
            match words.next() {
                Some(hi) => s = word_round(s, u64::from(lo) | u64::from(hi) << 32),
                None => {
                    for b in lo.to_le_bytes() {
                        s = byte_round(s, b);
                    }
                }
            }
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

/// The bytewise table loop, one lookup per byte: the reference the sliced
/// [`Crc64::update`] is tested and timed against. The product never calls it.
pub fn crc64_bytewise(bytes: &[u8]) -> u64 {
    !bytes.iter().fold(!0u64, |s, &b| byte_round(s, b))
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

    /// Deterministic bytes with no period of 8, so a word-sized slip in the
    /// sliced loop changes the digest.
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn sliced_update_equals_the_bytewise_reference() {
        let data = noise(88, 1);
        for len in 0..=80 {
            for start in 0..8 {
                let s = &data[start..start + len];
                assert_eq!(crc64(s), crc64_bytewise(s), "len {len} at offset {start}");
            }
        }
        // A streamed buffer cut at seeded points: every piece leaves the
        // state at an arbitrary phase of the 8-byte rounds.
        let big = noise(4099, 2);
        let mut rng = crate::SplitMix64::new(3);
        for _ in 0..64 {
            let mut c = Crc64::new();
            let mut at = 0;
            while at < big.len() {
                let end = (at + (rng.next_u64() % 40) as usize).min(big.len());
                c.update(&big[at..end]);
                at = end;
            }
            assert_eq!(c.finish(), crc64_bytewise(&big));
        }
    }

    #[test]
    fn word_runs_equal_one_put_u32_per_word() {
        use crate::wire::WireWrite;
        let mut rng = crate::SplitMix64::new(4);
        for count in [0usize, 1, 2, 3, 8, 9, 64, 65] {
            let words: Vec<u32> = (0..count).map(|_| rng.next_u64() as u32).collect();
            // A prefix of 0..3 bytes puts the run at every phase of a round.
            for prefix in 0..4 {
                let head = noise(prefix, count as u64);
                let (mut crc_run, mut crc_each) = (Crc64::new(), Crc64::new());
                let (mut vec_run, mut vec_each) = (head.clone(), head.clone());
                crc_run.update(&head);
                crc_each.update(&head);
                crc_run.put_u32s(words.iter().copied());
                vec_run.put_u32s(words.iter().copied());
                for &w in &words {
                    crc_each.put_u32(w);
                    vec_each.put_u32(w);
                }
                assert_eq!(crc_run.finish(), crc_each.finish(), "{count} words");
                assert_eq!(vec_run, vec_each, "{count} words");
                assert_eq!(crc_run.finish(), crc64_bytewise(&vec_each));
            }
        }
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

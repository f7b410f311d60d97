//! Length-prefixed wire codec for a coalesced batch, hardened against
//! truncated and hostile frames.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [count: u64][payload_len: u64][payload: payload_len bytes][crc: u64]
//! ```
//!
//! The trailer CRC is CRC-64/XZ over everything before it (header +
//! payload), so truncation, extension, and any bit flip are all detected.
//! The parser follows the same hostile-input discipline as
//! `checkpoint::restore_run`: every length is bounds-checked with `checked_add`
//! before use and nothing is allocated from an untrusted length — the
//! decoded payload is a *borrow* into the input buffer.
//!
//! The durable checkpoint files written by the driver wrap their payload in
//! exactly this frame, so the parser is load-bearing for crash restart, not
//! just for tests.

use crate::crc::crc64;

/// Frame header: message count + payload length, 8 bytes each.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Frame trailer: the CRC-64/XZ of header + payload.
pub const FRAME_TRAILER_BYTES: usize = 8;

/// Why a frame failed to decode. `Corrupt` means the structure was sound
/// but the trailer CRC mismatched — the content cannot be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than header + trailer, or fewer than the declared
    /// payload requires.
    Truncated { need: u64, have: u64 },
    /// Bytes left over after the declared payload and trailer — a frame is
    /// exact, so trailing garbage means the length field lies.
    TrailingBytes { extra: u64 },
    /// Declared payload length overflows the addressable frame size.
    LengthOverflow { payload_len: u64 },
    /// Trailer CRC mismatch: the frame was damaged in flight or at rest.
    Corrupt { expected: u64, got: u64 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "frame has {extra} trailing byte(s)")
            }
            FrameError::LengthOverflow { payload_len } => {
                write!(f, "frame payload length {payload_len} overflows")
            }
            FrameError::Corrupt { expected, got } => write!(
                f,
                "frame CRC mismatch: expected {expected:#018x}, got {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Why a frame failed to *stream* in: either the underlying reader failed
/// (including a clean truncation, surfaced as
/// [`std::io::ErrorKind::UnexpectedEof`]) or the bytes that did arrive
/// violate the frame structure.
#[derive(Debug)]
pub enum FrameStreamError {
    /// The reader failed or the stream ended mid-frame.
    Io(std::io::Error),
    /// The frame arrived whole but is structurally or cryptographically bad.
    Frame(FrameError),
}

impl std::fmt::Display for FrameStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameStreamError::Io(e) => write!(f, "frame stream i/o: {e}"),
            FrameStreamError::Frame(e) => write!(f, "frame stream: {e}"),
        }
    }
}

impl std::error::Error for FrameStreamError {}

impl From<std::io::Error> for FrameStreamError {
    fn from(e: std::io::Error) -> Self {
        FrameStreamError::Io(e)
    }
}

impl From<FrameError> for FrameStreamError {
    fn from(e: FrameError) -> Self {
        FrameStreamError::Frame(e)
    }
}

/// Fill `buf` from `r`, looping over arbitrarily short reads. Unlike
/// `Read::read_exact` the partial-read behavior is pinned here, because the
/// process transport's correctness argument depends on it: a `read` that
/// returns fewer bytes than asked (a TCP segment boundary, a signal) must
/// never be mistaken for end-of-stream, and a genuine EOF mid-fill must
/// surface as a typed error, never as a short buffer silently treated as
/// complete. A failure also reports how many bytes had been filled, so a
/// deadline that struck before the first byte (the stream is still aligned)
/// can be told from one that struck mid-message.
pub(crate) fn fill_exact<R: std::io::Read>(
    r: &mut R,
    buf: &mut [u8],
) -> Result<(), (std::io::Error, usize)> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                let e = std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!(
                        "stream ended {} bytes into a {}-byte fill",
                        filled,
                        buf.len()
                    ),
                );
                return Err((e, filled));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err((e, filled)),
        }
    }
    Ok(())
}

/// Read exactly one frame from a byte stream, returning `(count, payload)`.
///
/// The in-memory [`decode`] requires the whole frame resident up front; this
/// is its streaming sibling for sockets and files, hardened the same way:
/// the declared payload length is validated against `max_payload` *before*
/// any allocation, a short read never panics or mis-frames (the fill loop
/// tolerates arbitrary split points), and a truncated stream surfaces as
/// [`FrameStreamError::Io`] with [`std::io::ErrorKind::UnexpectedEof`]. On
/// success the stream is positioned exactly after the frame's CRC trailer,
/// so self-delimiting frames can be read back-to-back.
pub fn read_frame<R: std::io::Read>(
    r: &mut R,
    max_payload: u64,
) -> Result<(u64, Vec<u8>), FrameStreamError> {
    let mut frame = vec![0u8; FRAME_HEADER_BYTES];
    fill_exact(r, &mut frame).map_err(|(e, _)| e)?;
    let payload_len = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    if payload_len > max_payload {
        return Err(FrameError::LengthOverflow { payload_len }.into());
    }
    frame.resize(
        FRAME_HEADER_BYTES + payload_len as usize + FRAME_TRAILER_BYTES,
        0,
    );
    fill_exact(r, &mut frame[FRAME_HEADER_BYTES..]).map_err(|(e, _)| e)?;
    let (count, payload) = decode(&frame)?;
    Ok((count, payload.to_vec()))
}

/// Encode `payload` (carrying `count` logical messages) as one frame.
pub fn encode(count: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len() + FRAME_TRAILER_BYTES);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode one frame, returning `(count, payload)`. The payload borrows from
/// `bytes`; no allocation is driven by untrusted lengths.
pub fn decode(bytes: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    let have = bytes.len() as u64;
    let floor = (FRAME_HEADER_BYTES + FRAME_TRAILER_BYTES) as u64;
    if have < floor {
        return Err(FrameError::Truncated { need: floor, have });
    }
    let count = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    // `floor + payload_len` with checked_add: a hostile length near u64::MAX
    // must not wrap into a small "need".
    let need = match floor.checked_add(payload_len) {
        Some(n) => n,
        None => return Err(FrameError::LengthOverflow { payload_len }),
    };
    if have < need {
        return Err(FrameError::Truncated { need, have });
    }
    if have > need {
        return Err(FrameError::TrailingBytes { extra: have - need });
    }
    // Structure is sound; payload_len fits in usize because the whole frame
    // is already resident in memory.
    let body_end = FRAME_HEADER_BYTES + payload_len as usize;
    let expected = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let got = crc64(&bytes[..body_end]);
    if got != expected {
        return Err(FrameError::Corrupt { expected, got });
    }
    Ok((count, &bytes[FRAME_HEADER_BYTES..body_end]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SplitMix64;

    #[test]
    fn roundtrips() {
        for len in [0usize, 1, 7, 256, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let frame = encode(len as u64 / 3, &payload);
            assert_eq!(frame.len(), FRAME_HEADER_BYTES + len + FRAME_TRAILER_BYTES);
            let (count, body) = decode(&frame).expect("clean frame decodes");
            assert_eq!(count, len as u64 / 3);
            assert_eq!(body, payload.as_slice());
        }
    }

    #[test]
    fn rejects_truncation_extension_and_overflow() {
        let frame = encode(3, &[1, 2, 3, 4, 5]);
        assert!(matches!(
            decode(&frame[..frame.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            decode(&frame[..4]),
            Err(FrameError::Truncated { .. })
        ));
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            decode(&long),
            Err(FrameError::TrailingBytes { extra: 1 })
        ));
        // A hostile length near u64::MAX must not wrap the bounds check.
        let mut hostile = frame.clone();
        hostile[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode(&hostile),
            Err(FrameError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode(2, b"integrity matters");
        for bit in 0..frame.len() * 8 {
            let mut dam = frame.clone();
            dam[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&dam).is_err(),
                "bit flip at {bit} decoded successfully"
            );
        }
    }

    /// Fuzz-style seeded hammering alongside the batch-bytes pin test:
    /// random blobs, random truncations and random flips must never panic
    /// and never validate as the original frame.
    #[test]
    fn fuzz_decode_never_panics() {
        let mut rng = SplitMix64::new(0x5DC_F4A2);
        let payload: Vec<u8> = (0..500).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let frame = encode(17, &payload);
        for _ in 0..2000 {
            let mut blob = frame.clone();
            match rng.next_u64() % 3 {
                0 => {
                    let cut = (rng.next_u64() as usize) % (blob.len() + 1);
                    blob.truncate(cut);
                }
                1 => {
                    let flips = 1 + rng.next_u64() % 4;
                    for _ in 0..flips {
                        let bit = (rng.next_u64() as usize) % (blob.len() * 8);
                        blob[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                _ => {
                    let len = (rng.next_u64() as usize) % 64;
                    blob = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
                }
            }
            if blob == frame {
                continue; // flips cancelled out — genuinely clean
            }
            if let Ok((count, body)) = decode(&blob) {
                // A 64-bit CRC collision within 2000 structured mutations
                // would be astronomically unlikely; treat it as failure.
                panic!("damaged frame validated: count={count}, len={}", body.len());
            }
        }
        // And the pristine frame still decodes after all that.
        assert!(decode(&frame).is_ok());
    }

    /// A reader that hands out at most `chunk` bytes per `read` call and can
    /// cut the stream dead at `cutoff` — the adversarial substrate for the
    /// streaming-reader fuzz below.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        cutoff: usize,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let end = self.data.len().min(self.cutoff);
            if self.pos >= end {
                return Ok(0);
            }
            let n = buf.len().min(self.chunk).min(end - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Satellite pin: the streaming reader must decode identically no matter
    /// where the transport splits its reads — every chunk size from 1 byte
    /// up, including pathological 1-byte trickles across both length fields.
    #[test]
    fn read_frame_is_split_point_invariant() {
        let payload: Vec<u8> = (0..313).map(|i| (i * 7 % 256) as u8).collect();
        let frame = encode(11, &payload);
        for chunk in [1usize, 2, 3, 5, 7, 15, 16, 17, 64, 1024] {
            let mut r = Chunked {
                data: &frame,
                pos: 0,
                chunk,
                cutoff: usize::MAX,
            };
            let (count, body) = read_frame(&mut r, 1 << 20)
                .unwrap_or_else(|e| panic!("chunk {chunk}: clean frame failed: {e}"));
            assert_eq!(count, 11);
            assert_eq!(body, payload);
        }
    }

    /// Truncating the stream at *every* byte offset must yield a typed
    /// `UnexpectedEof` — never a panic, never a short frame passed off as
    /// complete, never a mis-framed success.
    #[test]
    fn read_frame_rejects_every_truncation_point() {
        let frame = encode(3, b"cut me anywhere");
        for cutoff in 0..frame.len() {
            for chunk in [1usize, 4, 64] {
                let mut r = Chunked {
                    data: &frame,
                    pos: 0,
                    chunk,
                    cutoff,
                };
                match read_frame(&mut r, 1 << 20) {
                    Err(FrameStreamError::Io(e)) => {
                        assert_eq!(
                            e.kind(),
                            std::io::ErrorKind::UnexpectedEof,
                            "cutoff {cutoff}: wrong error kind"
                        );
                    }
                    Err(other) => panic!("cutoff {cutoff}: wrong error class: {other}"),
                    Ok(_) => panic!("cutoff {cutoff}: truncated stream decoded"),
                }
            }
        }
    }

    /// Seeded hammering of the streaming reader: random flips, truncations
    /// and hostile length fields through random chunk sizes never panic and
    /// never validate damaged bytes; back-to-back frames stay delimited.
    #[test]
    fn read_frame_fuzz_never_panics_or_misframes() {
        let mut rng = SplitMix64::new(0x00D_FACE);
        let payload: Vec<u8> = (0..257).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let frame = encode(9, &payload);
        for _ in 0..2000 {
            let mut blob = frame.clone();
            match rng.next_u64() % 3 {
                0 => {
                    let cut = (rng.next_u64() as usize) % (blob.len() + 1);
                    blob.truncate(cut);
                }
                1 => {
                    let bit = (rng.next_u64() as usize) % (blob.len() * 8);
                    blob[bit / 8] ^= 1 << (bit % 8);
                }
                _ => {
                    // Hostile declared length (possibly huge) with the rest
                    // of the frame left as-is.
                    let lie = rng.next_u64();
                    blob[8..16].copy_from_slice(&lie.to_le_bytes());
                }
            }
            if blob == frame {
                continue;
            }
            let chunk = 1 + (rng.next_u64() as usize) % 64;
            let mut r = Chunked {
                data: &blob,
                pos: 0,
                chunk,
                cutoff: usize::MAX,
            };
            // The cap mirrors the transport's: no allocation beyond it.
            if let Ok((count, body)) = read_frame(&mut r, 1 << 20) {
                assert!(
                    count == 9 && body == payload,
                    "damaged stream validated differently: count={count}"
                );
            }
        }
        // Two pristine frames back-to-back: the reader must stop exactly at
        // the trailer so the second frame decodes from the same stream.
        let mut two = frame.clone();
        let second = encode(1, b"next");
        two.extend_from_slice(&second);
        let mut r = Chunked {
            data: &two,
            pos: 0,
            chunk: 3,
            cutoff: usize::MAX,
        };
        let (c1, b1) = read_frame(&mut r, 1 << 20).expect("first frame");
        assert_eq!((c1, b1.as_slice()), (9, payload.as_slice()));
        let (c2, b2) = read_frame(&mut r, 1 << 20).expect("second frame");
        assert_eq!((c2, b2.as_slice()), (1, b"next".as_slice()));
    }
}

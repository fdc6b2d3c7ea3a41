//! Content hashing for the extraction cache: a fast 256-bit fingerprint
//! for cache keys and the CRC-32 used for frame checksums.
//!
//! The cache key ([`ContentHash::of`]) sits on the request hot path —
//! every document submitted to `rbd batch --store` or `rbd serve --store`
//! is hashed before anything else happens — so it uses
//! [`fingerprint256`], a 4-lane mixing hash that runs at memory speed.
//! It is **not** cryptographic: accidental collisions are negligible at
//! 256 bits, but an adversary who can choose document bytes could in
//! principle construct a colliding pair and poison their own cache entry.
//! For the extraction cache that trade is sound — the cache only ever
//! replays an extraction of *some* submitted document, and a collision
//! costs a wrong cache answer, not memory unsafety or data loss. Frame
//! integrity only needs corruption *detection* (a torn or bit-flipped
//! frame), which the much cheaper CRC-32 provides.

use std::fmt;

/// Multiplicative constants for the fingerprint lanes (the xxHash64
/// primes: odd, high-entropy, empirically strong mixers).
const FP1: u64 = 0x9E37_79B1_85EB_CA87;
const FP2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const FP3: u64 = 0x1656_67B1_9E37_79F9;
const FP4: u64 = 0x27D4_EB2F_1656_67C5;
const FP5: u64 = 0x85EB_CA77_C2B2_AE63;

/// One lane step: absorb a 64-bit word and diffuse it across the lane.
#[inline]
fn fp_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(FP2))
        .rotate_left(31)
        .wrapping_mul(FP1)
}

/// Final per-word avalanche (xxHash64 finalizer): every input bit reaches
/// every output bit of the word.
#[inline]
fn fp_avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(FP2);
    x ^= x >> 29;
    x = x.wrapping_mul(FP3);
    x ^= x >> 32;
    x
}

/// A fast 256-bit content fingerprint: four parallel 64-bit lanes over
/// 32-byte stripes, cross-mixed and avalanched at the end so every output
/// bit depends on every input bit and on the length.
///
/// Non-cryptographic — see the module docs for when that is (and is not)
/// the right trade.
#[must_use]
pub fn fingerprint256(bytes: &[u8]) -> [u8; 32] {
    let mut lanes = [FP1.wrapping_add(FP2), FP2, FP4, 0u64.wrapping_sub(FP1)];
    let mut chunks = bytes.chunks_exact(32);
    for stripe in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().unwrap_or([0; 8]));
            *lane = fp_round(*lane, w);
        }
    }
    // Zero-padded final stripe; the absorbed length keeps distinct-length
    // inputs distinct even when the padding collides.
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 32];
        last[..tail.len()].copy_from_slice(tail);
        for (lane, word) in lanes.iter_mut().zip(last.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().unwrap_or([0; 8]));
            *lane = fp_round(*lane, w);
        }
    }
    lanes[0] ^= (bytes.len() as u64).wrapping_mul(FP5);
    // Cross-mixing rounds: each round feeds every lane its neighbor, and a
    // change needs three hops to travel the ring (lane 0 → 3 → 2 → 1), so
    // four rounds guarantee every output word depends on every input word
    // with a round to spare.
    for _ in 0..4 {
        lanes[0] = fp_round(lanes[0], lanes[1]);
        lanes[1] = fp_round(lanes[1], lanes[2]);
        lanes[2] = fp_round(lanes[2], lanes[3]);
        lanes[3] = fp_round(lanes[3], lanes[0]);
    }
    let mut out = [0u8; 32];
    for (slot, lane) in out.chunks_exact_mut(8).zip(lanes) {
        slot.copy_from_slice(&fp_avalanche(lane).to_le_bytes());
    }
    out
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
///
/// Bitwise rather than table-driven: frames are checksummed once on append
/// and once on read, far off any per-byte hot path, and the bitwise form
/// needs no lookup table or narrowing casts.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            k += 1;
        }
    }
    !crc
}

/// The cache key: a 256-bit fingerprint of a document's raw bytes
/// ([`fingerprint256`]; not cryptographic — see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub [u8; 32]);

impl ContentHash {
    /// Hashes `bytes` into a key.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        ContentHash(fingerprint256(bytes))
    }

    /// Lowercase hex rendering (64 characters).
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for &b in &self.0 {
            s.push(hex_digit(b >> 4));
            s.push(hex_digit(b & 0x0F));
        }
        s
    }

    /// Parses the 64-character hex rendering back; `None` on any other
    /// length or a non-hex character.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = s.as_bytes();
        if bytes.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            out[i] = hex_value(pair[0])?
                .checked_mul(16)?
                .checked_add(hex_value(pair[1])?)?;
        }
        Some(ContentHash(out))
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({})", self.to_hex())
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

fn hex_digit(nibble: u8) -> char {
    char::from_digit(u32::from(nibble), 16).unwrap_or('0')
}

fn hex_value(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn hex_round_trips() {
        let h = ContentHash::of(b"some document");
        let parsed = ContentHash::from_hex(&h.to_hex()).expect("round trip");
        assert_eq!(h, parsed);
        assert_eq!(ContentHash::from_hex("zz"), None);
        assert_eq!(ContentHash::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn one_byte_difference_changes_the_key() {
        let a = ContentHash::of(b"<html><b>x</b></html>");
        let b = ContentHash::of(b"<html><b>y</b></html>");
        assert_ne!(a, b);
    }

    /// Every single-byte flip at every position of a multi-stripe input
    /// must change all four output words — the cross-mix rounds at work.
    #[test]
    fn fingerprint_diffuses_across_all_lanes() {
        let base: Vec<u8> = (0..100u8).collect();
        let h0 = fingerprint256(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 1;
            let h1 = fingerprint256(&m);
            for word in 0..4 {
                assert_ne!(
                    h0[word * 8..word * 8 + 8],
                    h1[word * 8..word * 8 + 8],
                    "flip at byte {i} left output word {word} unchanged"
                );
            }
        }
    }

    /// Zero padding alone must not collide distinct lengths.
    #[test]
    fn fingerprint_separates_lengths_and_empty_input() {
        let a = fingerprint256(b"a");
        let b = fingerprint256(b"a\0");
        assert_ne!(a, b);
        assert_ne!(fingerprint256(b""), fingerprint256(&[0u8; 32]));
        assert_ne!(fingerprint256(&[0u8; 31]), fingerprint256(&[0u8; 32]));
    }
}

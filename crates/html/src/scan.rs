//! Chunked (SWAR) delimiter scanning for the tokenizer hot path.
//!
//! The tokenizer spends most of its time finding the next `<` — and, inside
//! a text run, noticing whether an `&` occurred before it; squeezing record
//! text spends its time finding where an already-squeezed ASCII run ends.
//! These helpers do that eight bytes at a time with
//! SIMD-within-a-register arithmetic (Mycroft's zero-byte trick), falling
//! back to a plain byte loop or a padded word for the sub-word remainder. Everything here is panic-free: no indexing, no
//! unwraps, and only widening casts.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// A mask whose high bit is set in every lane of `word` equal to `needle`.
#[inline]
fn lanes_eq(word: u64, needle: u8) -> u64 {
    let x = word ^ (LO.wrapping_mul(u64::from(needle)));
    x.wrapping_sub(LO) & !x & HI
}

/// Loads an 8-byte chunk as a little-endian word. The chunk always comes
/// from `chunks_exact(8)`, so the fallback value is unreachable; it exists
/// so the load is total without indexing.
#[inline]
fn load_word(chunk: &[u8]) -> u64 {
    let arr: [u8; 8] = chunk.try_into().unwrap_or([0; 8]);
    u64::from_le_bytes(arr)
}

/// Byte offset (within the word) of the first set lane in `mask`.
#[inline]
fn first_lane(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// Index of the first occurrence of `needle` at or after `from`.
pub(crate) fn find_byte(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
    let tail = haystack.get(from..).unwrap_or(&[]);
    let mut offset = 0usize;
    let mut chunks = tail.chunks_exact(8);
    for chunk in &mut chunks {
        let mask = lanes_eq(load_word(chunk), needle);
        if mask != 0 {
            return Some(from + offset + first_lane(mask));
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| from + offset + i)
}

/// Index of the first occurrence of the `needle` byte string at or after
/// `from`. Word-scans for the first byte, then confirms the rest.
pub(crate) fn find_sub(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    let (&first, rest) = needle.split_first()?;
    let mut at = from;
    while let Some(hit) = find_byte(haystack, first, at) {
        let after = haystack.get(hit + 1..hit + 1 + rest.len());
        match after {
            Some(tail) if tail == rest => return Some(hit),
            Some(_) => at = hit + 1,
            // Not enough bytes left for the needle: no later hit can fit.
            None => return None,
        }
    }
    None
}

/// Scans a text run starting at `from`: returns the index of the next `<`
/// (or `bytes.len()`) and whether an `&` occurred strictly before it. One
/// fused pass feeds both the token boundary and the "does this run need
/// entity decoding" decision.
pub(crate) fn scan_text_run(bytes: &[u8], from: usize) -> (usize, bool) {
    let tail = bytes.get(from..).unwrap_or(&[]);
    let mut amp = false;
    let mut offset = 0usize;
    let mut chunks = tail.chunks_exact(8);
    for chunk in &mut chunks {
        let word = load_word(chunk);
        let lt = lanes_eq(word, b'<');
        let amps = lanes_eq(word, b'&');
        if lt != 0 {
            let lane = first_lane(lt);
            // Only lanes strictly before the `<` count; `lane` is at most 7
            // so the shift distance is at most 56.
            let before = (1u64 << (lane * 8)) - 1;
            amp |= amps & before != 0;
            return (from + offset + lane, amp);
        }
        amp |= amps != 0;
        offset += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b == b'<' {
            return (from + offset + i, amp);
        }
        amp |= b == b'&';
    }
    (bytes.len(), amp)
}

/// A mask whose high bit is set in every lane of `word` that may end an
/// already-squeezed ASCII run: a byte `<= 0x20` or `>= 0x80`, except a
/// `' '` whose next lane is printable ASCII (`0x21..=0x7f`). A space in the
/// top lane has no next lane in the word, so it stays set.
#[inline]
fn run_breaks(word: u64) -> u64 {
    // Adding 0x5f to a lane's low seven bits carries into its high bit
    // exactly when they are >= 0x21, and never into the next lane.
    let printable = (word & !HI).wrapping_add(LO.wrapping_mul(0x5f)) & !word & HI;
    let lone_space = lanes_eq(word, b' ') & (printable >> 8);
    (printable ^ HI) & !lone_space
}

/// Index of the first byte at or after `from` that may end an
/// already-squeezed ASCII run (see [`run_breaks`]; words are counted from
/// `from`), or `bytes.len()`. Every byte before it is printable ASCII or a
/// space followed by printable ASCII.
pub(crate) fn find_run_break(bytes: &[u8], from: usize) -> usize {
    let tail = bytes.get(from..).unwrap_or(&[]);
    let mut offset = 0usize;
    let mut chunks = tail.chunks_exact(8);
    for chunk in &mut chunks {
        let mask = run_breaks(load_word(chunk));
        if mask != 0 {
            return from + offset + first_lane(mask);
        }
        offset += 8;
    }
    // The remainder, padded with NULs: the lane after its last byte always
    // breaks, so a trailing space does too.
    let mut last = [0u8; 8];
    for (lane, &b) in last.iter_mut().zip(chunks.remainder()) {
        *lane = b;
    }
    let lane = first_lane(run_breaks(u64::from_le_bytes(last)));
    (from + offset + lane).min(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_find(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
        haystack
            .get(from..)
            .unwrap_or(&[])
            .iter()
            .position(|&b| b == needle)
            .map(|i| i + from)
    }

    #[test]
    fn find_byte_matches_naive_scan() {
        let hay = b"abc<def&ghi<<&&jklmnopqrstuvwxyz0123456789<&end";
        for from in 0..=hay.len() {
            for needle in [b'<', b'&', b'z', b'\0'] {
                assert_eq!(
                    find_byte(hay, needle, from),
                    naive_find(hay, needle, from),
                    "needle {needle} from {from}"
                );
            }
        }
    }

    #[test]
    fn find_byte_past_end_is_none() {
        assert_eq!(find_byte(b"abc", b'a', 10), None);
        assert_eq!(find_byte(b"", b'a', 0), None);
    }

    #[test]
    fn find_byte_hits_every_lane() {
        for i in 0..24 {
            let mut hay = vec![b'.'; 24];
            if let Some(slot) = hay.get_mut(i) {
                *slot = b'<';
            }
            assert_eq!(find_byte(&hay, b'<', 0), Some(i), "lane {i}");
        }
    }

    #[test]
    fn find_sub_basics() {
        let hay = b"xx]]x]]>yy]]>";
        assert_eq!(find_sub(hay, b"]]>", 0), Some(5));
        assert_eq!(find_sub(hay, b"]]>", 6), Some(10));
        assert_eq!(find_sub(hay, b"]]>", 11), None);
        assert_eq!(find_sub(hay, b"", 0), None);
        assert_eq!(find_sub(b"ab", b"abc", 0), None);
    }

    #[test]
    fn scan_text_run_reports_amp_only_before_lt() {
        // '&' after the '<' must not set the flag.
        let (end, amp) = scan_text_run(b"hello<b>&amp;", 0);
        assert_eq!(end, 5);
        assert!(!amp);
        // '&' before the '<' in the same word.
        let (end, amp) = scan_text_run(b"a&b<c", 0);
        assert_eq!(end, 3);
        assert!(amp);
        // '&' in an earlier word than the '<'.
        let (end, amp) = scan_text_run(b"a&bcdefghijklmnop<q", 0);
        assert_eq!(end, 17);
        assert!(amp);
    }

    #[test]
    fn scan_text_run_to_eof() {
        let (end, amp) = scan_text_run(b"no markup at all", 0);
        assert_eq!(end, 16);
        assert!(!amp);
        let (end, amp) = scan_text_run(b"fish & chips", 0);
        assert_eq!(end, 12);
        assert!(amp);
        assert_eq!(scan_text_run(b"", 0), (0, false));
    }

    #[test]
    fn scan_text_run_exhaustive_against_naive() {
        let src = b"ab&cd<ef&&gh<<ij&k_lmnopqrstu&vwxyz<0123456789&<end&";
        for from in 0..=src.len() {
            let naive_end = src
                .iter()
                .enumerate()
                .skip(from)
                .find(|&(_, &b)| b == b'<')
                .map_or(src.len(), |(i, _)| i);
            let naive_amp = src.get(from..naive_end).unwrap_or(&[]).contains(&b'&');
            assert_eq!(
                scan_text_run(src, from),
                (naive_end, naive_amp),
                "from {from}"
            );
        }
    }

    /// The byte loop `find_run_break` must equal: the first byte `<= 0x20`
    /// or `>= 0x80`, skipping a space whose next byte is printable ASCII
    /// and in the same eight-byte word (counted from `from`).
    fn naive_run_break(bytes: &[u8], from: usize) -> usize {
        let printable = |b: u8| (0x21..=0x7f).contains(&b);
        (from..bytes.len())
            .find(|&i| {
                let b = bytes.get(i).copied().unwrap_or(0);
                let next = bytes.get(i + 1).copied().unwrap_or(0);
                let lone_space = b == b' ' && (i - from) % 8 != 7 && printable(next);
                !printable(b) && !lone_space
            })
            .unwrap_or(bytes.len())
    }

    /// Every pair of byte values, at every lane position of two words and
    /// a remainder, from two different word alignments.
    #[test]
    fn find_run_break_exhaustive_against_naive() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                for pos in 0..19 {
                    let mut buf = [b'x'; 21];
                    for (i, slot) in buf.iter_mut().enumerate() {
                        if i == pos {
                            *slot = a;
                        } else if i == pos + 1 {
                            *slot = b;
                        }
                    }
                    for from in [0, 3] {
                        assert_eq!(
                            find_run_break(&buf, from),
                            naive_run_break(&buf, from),
                            "bytes {a:#04x} {b:#04x} at {pos} from {from}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn find_run_break_every_from_and_length() {
        let src = b"Ann B. Smith  died\tMay 1, 1998.\x0b\x7f\x01x \xc2\xa0 y z ";
        for end in 0..=src.len() {
            let bytes = src.get(..end).unwrap_or(&[]);
            for from in 0..=end + 1 {
                assert_eq!(
                    find_run_break(bytes, from),
                    naive_run_break(bytes, from),
                    "from {from} of {end} bytes"
                );
            }
        }
    }

    #[test]
    fn find_run_break_basics() {
        // A lone space inside a word is skipped; one in the top lane stops.
        assert_eq!(find_run_break(b"ab cd ef", 0), 8);
        assert_eq!(find_run_break(b"abcdefg hij", 0), 7);
        // Doubled space, trailing space, tab, NUL, non-ASCII.
        assert_eq!(find_run_break(b"ab  cd", 0), 2);
        assert_eq!(find_run_break(b"ab ", 0), 2);
        assert_eq!(find_run_break(b"abc\tdef", 0), 3);
        assert_eq!(find_run_break(b"abcdefghij\0", 0), 10);
        assert_eq!(find_run_break("abcdefghé".as_bytes(), 0), 8);
        assert_eq!(find_run_break(b"", 0), 0);
        assert_eq!(find_run_break(b"abc", 9), 3);
    }
}

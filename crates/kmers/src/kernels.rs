//! Word-parallel compute kernels over the 2-bit packed representations.
//!
//! The communication layers (PRs 2–6) removed the wire bottlenecks, leaving
//! wall clock dominated by scalar per-base loops: reverse complement and
//! canonical comparison walked one 2-bit code at a time, and every codec
//! (k-mer ↔ ASCII, `PackedSeq`, the supermer wire format) shuffled single
//! bases. This module replaces those loops with packed arithmetic:
//!
//! * [`revcomp_words`] — XOR-complement plus a 2-bit reversal built from
//!   mask/shift swaps and a byte swap, O(words) instead of O(k);
//! * [`lex_cmp_words`] — locates the first differing base with one XOR and a
//!   trailing-zeros count per 64-bit word;
//! * [`encode_words`] / [`pack_ascii`] / [`unpack_ascii`] — bulk ASCII↔2-bit
//!   translation, 8 bases per `u64` step (validation vectorised further by
//!   [`mhm_simd`]) and 4 bases per table lookup on decode;
//! * [`shift_right_bases`] — whole-value base shifts for suffix/prefix
//!   derivation.
//!
//! Each operation has one body, which the pipeline calls directly (the byte
//! scans inside pick their instruction set from [`mhm_simd::level`]), and a
//! per-base scalar twin (`*_scalar`) kept in tree only as the property-test
//! oracle and the `ablation_simd` timing baseline.
//!
//! Layout contract (shared with [`crate::kmer::Kmer`], `dbg::PackedSeq` and
//! the supermer wire records): base `i` of a sequence occupies bits
//! `2i..2i+2` of the little-endian 2-bit stream, i.e. bits `2(i%32)` of word
//! `i/32`, or bits `2(i%4)` of byte `i/4`.

use mhm_simd::{encode8, find_non_acgt, valid_acgt_mask8};
use seqio::alphabet::{decode_base, encode_base};
use std::cmp::Ordering;

/// ASCII expansion of one packed byte (4 bases), indexable by byte value.
static DECODE_LUT: [[u8; 4]; 256] = {
    let mut lut = [[0u8; 4]; 256];
    let bases = [b'A', b'C', b'G', b'T'];
    let mut v = 0usize;
    while v < 256 {
        let mut j = 0usize;
        while j < 4 {
            lut[v][j] = bases[(v >> (2 * j)) & 3];
            j += 1;
        }
        v += 1;
    }
    lut
};

/// Reverses the 32 2-bit groups of a word: pair swap, nibble swap, byte swap.
#[inline]
pub(crate) fn rev2_u64(x: u64) -> u64 {
    let x = ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333);
    let x = ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    x.swap_bytes()
}

/// Shifts the 256-bit little-endian value right by `bits` (zero fill).
#[inline]
fn shr_bits(w: &[u64; 4], bits: usize) -> [u64; 4] {
    debug_assert!(bits < 256);
    let ws = bits / 64;
    let bs = bits % 64;
    let mut out = [0u64; 4];
    for (i, o) in out.iter_mut().enumerate() {
        let src = i + ws;
        let mut v = if src < 4 { w[src] } else { 0 };
        if bs > 0 {
            v >>= bs;
            if src + 1 < 4 {
                v |= w[src + 1] << (64 - bs);
            }
        }
        *o = v;
    }
    out
}

/// Folds 8 per-byte 2-bit codes (one code in the low bits of each byte of
/// `code`) into a contiguous 16-bit little-endian 2-bit stream.
#[inline]
fn fold8_codes(code: u64) -> u16 {
    let t = (code | (code >> 6)) & 0x000F_000F_000F_000F;
    let t = (t | (t >> 12)) & 0x0000_00FF_0000_00FF;
    (t | (t >> 24)) as u16
}

// --- reverse complement ----------------------------------------------------

/// Scalar oracle for [`revcomp_words`]: one base at a time, exactly the
/// pre-kernel implementation.
pub fn revcomp_words_scalar(words: &[u64; 4], k: usize) -> [u64; 4] {
    let mut out = [0u64; 4];
    for i in 0..k {
        let code = (words[i / 32] >> (2 * (i % 32))) & 0b11;
        let bit = 2 * (k - 1 - i);
        out[bit / 64] |= (3 - code) << (bit % 64);
    }
    out
}

/// Word-parallel reverse complement of a `k`-base 2-bit stream (bits beyond
/// `2k` must be zero, as [`crate::kmer::Kmer`] guarantees): complement every
/// word, reverse all 128 2-bit groups — which parks the real bases in the top
/// `2k` bits — then shift them back down to bit 0. The complemented padding
/// lands in the low bits and is shifted out exactly, so the result keeps the
/// bits-beyond-`2k`-are-zero invariant.
pub fn revcomp_words(words: &[u64; 4], k: usize) -> [u64; 4] {
    debug_assert!((1..=128).contains(&k));
    let rev = [
        rev2_u64(!words[3]),
        rev2_u64(!words[2]),
        rev2_u64(!words[1]),
        rev2_u64(!words[0]),
    ];
    shr_bits(&rev, 2 * (128 - k))
}

// --- lexicographic comparison ----------------------------------------------

/// Scalar oracle for [`lex_cmp_words`]: compares one base code at a time.
pub fn lex_cmp_words_scalar(a: &[u64; 4], b: &[u64; 4], k: usize) -> Ordering {
    for i in 0..k {
        let ca = (a[i / 32] >> (2 * (i % 32))) & 0b11;
        let cb = (b[i / 32] >> (2 * (i % 32))) & 0b11;
        match ca.cmp(&cb) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Word-level lexicographic comparison of two equal-length 2-bit streams
/// with zeroed padding: base 0 lives in the least-significant bits, so the first differing base of
/// the first differing word is found with one XOR and a trailing-zeros count
/// (rounded down to the 2-bit group boundary).
pub fn lex_cmp_words(a: &[u64; 4], b: &[u64; 4]) -> Ordering {
    for (&x, &y) in a.iter().zip(b) {
        if x != y {
            let sh = (x ^ y).trailing_zeros() & !1;
            return ((x >> sh) & 3).cmp(&((y >> sh) & 3));
        }
    }
    Ordering::Equal
}

// --- ASCII -> k-mer words --------------------------------------------------

/// Scalar oracle for [`encode_words`]: per-base [`encode_base`] and bit
/// placement, exactly the pre-kernel `Kmer::from_bytes` loop.
pub fn encode_words_scalar(seq: &[u8]) -> Option<[u64; 4]> {
    debug_assert!(seq.len() <= 128);
    let mut words = [0u64; 4];
    for (i, &b) in seq.iter().enumerate() {
        let code = encode_base(b)?;
        let bit = 2 * i;
        words[bit / 64] |= (code as u64) << (bit % 64);
    }
    Some(words)
}

/// Bulk ASCII → 2-bit words (`seq.len() <= 128`): one vectorised validation
/// sweep, then 8 bases per `u64` step. Returns `None` on any non-ACGT byte.
pub fn encode_words(seq: &[u8]) -> Option<[u64; 4]> {
    debug_assert!(seq.len() <= 128);
    if find_non_acgt(seq).is_some() {
        return None;
    }
    let mut words = [0u64; 4];
    let mut chunks = seq.chunks_exact(8);
    for (ci, chunk) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        let bit = ci * 16;
        words[bit / 64] |= (fold8_codes(encode8(w)) as u64) << (bit % 64);
    }
    let rem = chunks.remainder();
    let base = 2 * (seq.len() - rem.len());
    for (j, &b) in rem.iter().enumerate() {
        let code = encode_base(b).expect("validated above");
        let bit = base + 2 * j;
        words[bit / 64] |= (code as u64) << (bit % 64);
    }
    Some(words)
}

// --- ASCII -> packed byte stream -------------------------------------------

/// Scalar oracle for [`pack_ascii`]: the pre-kernel `PackedSeq::from_bytes`
/// loop. `data` must be zeroed and hold at least `seq.len().div_ceil(4)`
/// bytes; non-ACGT bytes keep code 0 and are reported to `on_invalid` in
/// position order.
pub fn pack_ascii_scalar(seq: &[u8], data: &mut [u8], mut on_invalid: impl FnMut(usize, u8)) {
    debug_assert!(data.len() >= seq.len().div_ceil(4));
    for (i, &b) in seq.iter().enumerate() {
        let code = match encode_base(b) {
            Some(c) => c,
            None => {
                on_invalid(i, b);
                0
            }
        };
        data[i / 4] |= code << ((i % 4) * 2);
    }
}

/// Word-parallel ASCII → packed 2-bit stream (4 bases/byte): a vectorised
/// validation probe picks between a check-free fast loop and a masked slow
/// path that reports the exceptions. `data` must be zeroed and sized for
/// `seq`; invalid bytes are reported in position order.
pub fn pack_ascii(seq: &[u8], data: &mut [u8], mut on_invalid: impl FnMut(usize, u8)) {
    debug_assert!(data.len() >= seq.len().div_ceil(4));
    let all_valid = find_non_acgt(seq).is_none();
    let mut chunks = seq.chunks_exact(8);
    for (ci, chunk) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        let mut codes = encode8(w);
        if !all_valid {
            let valid = valid_acgt_mask8(w);
            if valid != 0xFF {
                for (j, &b) in chunk.iter().enumerate() {
                    if valid & (1 << j) == 0 {
                        on_invalid(ci * 8 + j, b);
                        codes &= !(0xFFu64 << (8 * j));
                    }
                }
            }
        }
        let bits = fold8_codes(codes);
        data[ci * 2] = bits as u8;
        data[ci * 2 + 1] = (bits >> 8) as u8;
    }
    let rem = chunks.remainder();
    let base = seq.len() - rem.len();
    for (j, &b) in rem.iter().enumerate() {
        let i = base + j;
        let code = match encode_base(b) {
            Some(c) => c,
            None => {
                on_invalid(i, b);
                0
            }
        };
        data[i / 4] |= code << ((i % 4) * 2);
    }
}

// --- packed byte stream -> ASCII -------------------------------------------

/// Scalar oracle for [`unpack_ascii`]: per-base shift/mask/[`decode_base`],
/// the pre-kernel `PackedSeq::unpack` loop.
pub fn unpack_ascii_scalar(data: &[u8], start: usize, end: usize, out: &mut Vec<u8>) {
    debug_assert!(start <= end && data.len() * 4 >= end);
    for i in start..end {
        out.push(decode_base((data[i / 4] >> ((i % 4) * 2)) & 3));
    }
}

/// Appends bases `start..end` of the little-endian 2-bit stream `data` to
/// `out` as ASCII: 4 bases per 256-entry table lookup, with per-base
/// handling only at the unaligned edges of the window.
pub fn unpack_ascii(data: &[u8], start: usize, end: usize, out: &mut Vec<u8>) {
    debug_assert!(start <= end && data.len() * 4 >= end);
    out.reserve(end - start);
    let mut i = start;
    while i < end && !i.is_multiple_of(4) {
        out.push(DECODE_LUT[data[i / 4] as usize][i % 4]);
        i += 1;
    }
    while i + 4 <= end {
        out.extend_from_slice(&DECODE_LUT[data[i / 4] as usize]);
        i += 4;
    }
    while i < end {
        out.push(DECODE_LUT[data[i / 4] as usize][i % 4]);
        i += 1;
    }
}

// --- base shifts -----------------------------------------------------------

/// Drops the first `n` bases of a 2-bit stream (a whole-value right shift by
/// `2n` bits), used by suffix derivation and window sliding. Pure word
/// arithmetic, so it has no scalar twin.
#[inline]
pub fn shift_right_bases(words: &[u64; 4], n: usize) -> [u64; 4] {
    shr_bits(words, 2 * n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_words(seq: &[u8]) -> [u64; 4] {
        encode_words_scalar(seq).expect("valid test sequence")
    }

    fn pseudo_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    #[test]
    fn revcomp_matches_scalar_across_k() {
        for k in 1..=128 {
            let s = pseudo_seq(k, k as u64 * 31);
            let w = seq_words(&s);
            assert_eq!(revcomp_words(&w, k), revcomp_words_scalar(&w, k), "k={k}");
        }
    }

    #[test]
    fn lex_cmp_matches_scalar() {
        for k in [1usize, 2, 31, 32, 33, 64, 65, 127, 128] {
            for seed in 0..20u64 {
                let a = pseudo_seq(k, seed * 7 + 1);
                let mut b = a.clone();
                if seed % 3 != 0 {
                    let p = (seed as usize * 13) % k;
                    b[p] = b"ACGT"[(seed as usize + 1) % 4];
                }
                let (wa, wb) = (seq_words(&a), seq_words(&b));
                assert_eq!(
                    lex_cmp_words(&wa, &wb),
                    lex_cmp_words_scalar(&wa, &wb, k),
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn encode_words_variants_agree_and_reject() {
        for k in 1..=128 {
            let s = pseudo_seq(k, k as u64 + 5);
            assert_eq!(encode_words(&s), encode_words_scalar(&s), "k={k}");
            let mut bad = s.clone();
            bad[k / 2] = b'N';
            assert_eq!(encode_words(&bad), None);
            assert_eq!(encode_words_scalar(&bad), None);
        }
    }

    #[test]
    fn pack_unpack_roundtrip_with_exceptions() {
        for len in [0usize, 1, 5, 8, 9, 31, 64, 100] {
            let mut s = pseudo_seq(len, len as u64 * 3 + 1);
            for i in (3..len).step_by(11) {
                s[i] = b'N';
            }
            let mut data_w = vec![0u8; len.div_ceil(4)];
            let mut data_s = vec![0u8; len.div_ceil(4)];
            let mut exc_w = Vec::new();
            let mut exc_s = Vec::new();
            pack_ascii(&s, &mut data_w, |i, b| exc_w.push((i, b)));
            pack_ascii_scalar(&s, &mut data_s, |i, b| exc_s.push((i, b)));
            assert_eq!(data_w, data_s, "len={len}");
            assert_eq!(exc_w, exc_s, "len={len}");
            for (start, end) in [(0, len), (1.min(len), len), (len / 3, 2 * len / 3)] {
                let mut out_w = Vec::new();
                let mut out_s = Vec::new();
                unpack_ascii(&data_w, start, end, &mut out_w);
                unpack_ascii_scalar(&data_s, start, end, &mut out_s);
                assert_eq!(out_w, out_s, "len={len} window={start}..{end}");
            }
        }
    }

    #[test]
    fn shift_right_bases_drops_leading_bases() {
        let s = pseudo_seq(100, 9);
        let w = seq_words(&s);
        for n in [0usize, 1, 3, 32, 63, 64, 99] {
            let shifted = shift_right_bases(&w, n);
            assert_eq!(shifted, seq_words(&s[n..]), "n={n}");
        }
    }
}

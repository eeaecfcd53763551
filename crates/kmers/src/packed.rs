//! Word-level access to 2-bit packed sequences (the layout of
//! [`crate::kernels`]: base `i` in bits `2*(i%4)` of byte `i/4`).
//!
//! * [`load_bases`] — the 32 bases starting at any base offset as one word:
//!   an unaligned `u64` load, a shift and one more byte;
//! * [`revcomp_codes`] — the reverse complement of a whole packed sequence,
//!   32 bases per complement-and-reverse word step;
//! * [`for_each_canonical`] — the canonical k-mers, as table keys of any
//!   width ([`crate::KmerKey`]), at every `stride`-th offset, skipping the windows
//!   that hold an exception. A k ≤ 32 is one word load, a shift and a mask
//!   per window, with the reverse complement
//!   from `rev2(!w) >> (64 − 2k)` and the strand picked by the trailing-zeros
//!   rule of [`crate::kernels::lex_cmp_words`]; a longer k rolls a
//!   forward/reverse pair along each run of windows at stride 1 and loads each
//!   window with [`Kmer::from_packed`] otherwise.
//!
//! Like [`crate::kernels::shift_right_bases`] these are pure word arithmetic
//! with no per-base scalar twin; their oracles are the per-offset
//! `Kmer::from_bytes` loops in the tests.

use crate::kernels::rev2_u64;
use crate::key::KmerKey;
use crate::kmer::{Kmer, StrandPair};
use seqio::PackedReadView;
use std::ops::RangeInclusive;

/// The eight code bytes at `byte` as a little-endian word; bytes past the end
/// of `codes` read as 0. Within the last eight bytes of a slice of at least
/// eight, the word is the slice's last eight bytes shifted down: one load, as
/// everywhere else. Reads and supermer records are short slices, so their
/// last words take this path often.
#[inline]
fn load_u64(codes: &[u8], byte: usize) -> u64 {
    if let Some(bytes) = codes.get(byte..byte + 8) {
        return u64::from_le_bytes(bytes.try_into().expect("eight-byte slice"));
    }
    let len = codes.len();
    if len >= 8 && byte < len {
        let last = u64::from_le_bytes(codes[len - 8..].try_into().expect("eight-byte slice"));
        return last >> (8 * (byte + 8 - len));
    }
    let rest = codes.get(byte..).unwrap_or_default();
    rest.iter()
        .enumerate()
        .fold(0, |word, (i, &b)| word | u64::from(b) << (8 * i))
}

/// Bases `pos..pos + 32` of a packed stream as one word, base `pos` in the low
/// bits; bases past the end of `codes` read as 0 (`A`).
#[inline]
pub fn load_bases(codes: &[u8], pos: usize) -> u64 {
    load_bits(codes, 2 * pos)
}

/// Bits `bit..bit + 64` of the little-endian bit stream `bytes` as one word,
/// bit `bit` in the low bit; bits past the end of `bytes` read as 0. An
/// unaligned `u64` load, a shift and one more byte.
#[inline]
pub(crate) fn load_bits(bytes: &[u8], bit: usize) -> u64 {
    let byte = bit / 8;
    let shift = bit % 8;
    let lo = load_u64(bytes, byte);
    if shift == 0 {
        lo
    } else {
        let next = bytes.get(byte + 8).copied().unwrap_or(0);
        (lo >> shift) | (u64::from(next) << (64 - shift))
    }
}

/// The low `2n` bits set (`n ≤ 32` bases).
#[inline]
fn base_mask(n: usize) -> u64 {
    if n >= 32 {
        u64::MAX
    } else {
        (1u64 << (2 * n)) - 1
    }
}

/// Writes the reverse complement of the `len`-base packed sequence `codes`
/// into `out`, in the same layout, zero-padded to whole 8-byte words so that
/// [`load_bases`] never reads past it on the fast path.
pub fn revcomp_codes(codes: &[u8], len: usize, out: &mut Vec<u8>) {
    let words = len.div_ceil(32);
    out.clear();
    out.resize(words * 8, 0);
    for (j, chunk) in out.chunks_exact_mut(8).enumerate() {
        // Output bases 32j.. are the complements of input bases hi-1, hi-2, …
        let hi = len - 32 * j;
        let lo = hi.saturating_sub(32);
        let n = hi - lo;
        let w = load_bases(codes, lo) & base_mask(n);
        let rc = rev2_u64(!w) >> (64 - 2 * n);
        chunk.copy_from_slice(&rc.to_le_bytes());
    }
}

/// The canonical form of the `k`-base word `w` (`k ≤ 32`, bits past `2k`
/// zero) and whether it is the reverse complement — [`Kmer::canonical`]'s
/// rule, decided by the lowest differing base of the two strands.
#[inline]
fn canonical_word<K: KmerKey>(w: u64, k: usize) -> (K, bool) {
    let rc = rev2_u64(!w) >> (64 - 2 * k);
    let diff = w ^ rc;
    let was_rc = diff != 0 && {
        let sh = diff.trailing_zeros() & !1;
        (rc >> sh) & 3 < (w >> sh) & 3
    };
    (K::of_words(&[if was_rc { rc } else { w }], k), was_rc)
}

/// Calls `emit(canonical k-mer, was reverse-complemented, offset)` for the
/// k-mer at every `stride`-th offset of the packed sequence `view`
/// (`0, stride, 2·stride, …`), in ascending order, skipping every window that
/// holds one of the view's exceptions. Equals
/// `Kmer::from_bytes(&seq[o..o + k]).map(Kmer::canonical)` per offset on the
/// unpacked sequence.
///
/// Each canonical k-mer is emitted as a table key of width `K`, which must
/// hold k: a k ≤ 32 key is the masked window word itself, and `K = Kmer`
/// gives the k-mers.
///
/// # Panics
/// Panics if `k` is not in `1..=K::MAX_K` or `stride` is 0.
pub fn for_each_canonical<K: KmerKey>(
    view: &PackedReadView<'_>,
    k: usize,
    stride: usize,
    mut emit: impl FnMut(K, bool, usize),
) {
    assert!(
        (1..=K::MAX_K).contains(&k),
        "k must be in 1..={}, got {k}",
        K::MAX_K
    );
    assert!(stride > 0, "stride must be positive");
    if view.len < k {
        return;
    }
    // The exceptions cut the sequence into runs of valid bases; a window is
    // cut iff it lies inside one run.
    let ends = view.exceptions.iter().map(|&(pos, _)| pos as usize);
    let mut run_start = 0usize;
    for run_end in ends.chain([view.len]) {
        if run_end >= run_start + k {
            let offsets = run_start.next_multiple_of(stride)..=run_end - k;
            cut_run(view.codes, k, stride, offsets, &mut emit);
        }
        run_start = run_end + 1;
    }
}

/// [`for_each_canonical`] over the offsets of one run of valid bases.
fn cut_run<K: KmerKey>(
    codes: &[u8],
    k: usize,
    stride: usize,
    offsets: RangeInclusive<usize>,
    emit: &mut impl FnMut(K, bool, usize),
) {
    if offsets.is_empty() {
        return;
    }
    if k <= 28 {
        // 64 bits from the window's byte hold at least 29 bases.
        let mask = base_mask(k);
        for offset in offsets.step_by(stride) {
            let w = (load_u64(codes, offset / 4) >> (2 * (offset % 4))) & mask;
            let (kmer, was_rc) = canonical_word(w, k);
            emit(kmer, was_rc, offset);
        }
    } else if k <= 32 {
        let mask = base_mask(k);
        for offset in offsets.step_by(stride) {
            let (kmer, was_rc) = canonical_word(load_bases(codes, offset) & mask, k);
            emit(kmer, was_rc, offset);
        }
    } else if stride == 1 {
        match k.div_ceil(32) {
            2 => roll::<2, K>(codes, k, offsets, emit),
            3 => roll::<3, K>(codes, k, offsets, emit),
            _ => roll::<4, K>(codes, k, offsets, emit),
        }
    } else {
        for offset in offsets.step_by(stride) {
            let (kmer, was_rc) = Kmer::from_packed(codes, offset, k).canonical();
            emit(K::of_kmer(&kmer), was_rc, offset);
        }
    }
}

/// Every offset of a run at stride 1 for a k of `N` words: one reverse
/// complement for the run, then a few word shifts per base.
fn roll<const N: usize, K: KmerKey>(
    codes: &[u8],
    k: usize,
    offsets: RangeInclusive<usize>,
    emit: &mut impl FnMut(K, bool, usize),
) {
    let first = *offsets.start();
    let mut pair = StrandPair::<N>::at(codes, first, k);
    for offset in offsets {
        if offset > first {
            let at = offset + k - 1;
            pair.push((codes[at / 4] >> (2 * (at % 4))) & 3);
        }
        let (key, was_rc) = pair.canonical_key::<K>();
        emit(key, was_rc, offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedSeq;
    use seqio::alphabet::revcomp;

    fn bases(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
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
    fn load_bases_equals_per_base_codes_at_every_offset() {
        for len in [0usize, 1, 5, 31, 32, 33, 64, 100] {
            let seq = bases(len, len as u64);
            let packed = PackedSeq::from_bytes(&seq);
            let view = packed.view();
            for pos in 0..len + 40 {
                let w = load_bases(view.codes, pos);
                for i in 0..32 {
                    let expect = if pos + i < len {
                        view.code_at(pos + i)
                    } else {
                        0
                    };
                    assert_eq!((w >> (2 * i)) & 3, u64::from(expect), "{len} @ {pos}+{i}");
                }
            }
        }
    }

    #[test]
    fn revcomp_codes_equals_the_packed_ascii_revcomp() {
        let mut out = Vec::new();
        for len in [0usize, 1, 3, 4, 31, 32, 33, 63, 64, 65, 150, 257] {
            let seq = bases(len, 3 * len as u64 + 1);
            let packed = PackedSeq::from_bytes(&seq);
            revcomp_codes(packed.view().codes, len, &mut out);
            let expect = PackedSeq::from_bytes(&revcomp(&seq));
            assert_eq!(&out[..len.div_ceil(4)], expect.view().codes, "len {len}");
            assert!(out[len.div_ceil(4)..].iter().all(|&b| b == 0), "padding");
            assert_eq!(out.len() % 8, 0);
        }
    }
}

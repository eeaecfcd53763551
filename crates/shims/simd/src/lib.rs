//! `std::arch` facade: runtime-dispatched byte kernels for the compute hot
//! loops (no crates.io access, so this plays the role a `memchr`/`simdutf`
//! style dependency would).
//!
//! The facade owns two things:
//!
//! * **Dispatch.** [`level`] detects the best available instruction set once
//!   (AVX2 → SSE2 → word-parallel SWAR) and caches it; every dispatched
//!   function selects its body from that level alone.
//! * **Byte primitives.** Validating/locating non-ACGT bytes
//!   ([`find_non_acgt`]), plus the SWAR helpers the bulk 2-bit packer folds
//!   eight bases with ([`valid_acgt_mask8`], [`encode8`]). Higher-level
//!   kernels (packed k-mer arithmetic, the 2-bit wire codecs) live in
//!   `kmers::kernels` and build on these.
//!
//! Every dispatched function has a `_scalar` twin that is part of the public
//! API: the property tests use it as the oracle, and the `ablation_simd`
//! harness times the pair to produce the scalar-vs-kernel ratios in
//! `BENCH_simd.json`.

use std::sync::OnceLock;

/// The instruction set a dispatched kernel will use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Word-parallel SWAR on `u64` (8 bytes per step, any target).
    Word,
    /// SSE2 128-bit vectors (16 bytes per step; baseline on `x86_64`).
    Sse2,
    /// AVX2 256-bit vectors (32 bytes per step; runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Short human-readable name, used by benches and harness output.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Word => "word",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The best instruction set available on this machine, detected once; the
/// level every dispatched kernel runs at.
#[inline]
pub fn level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            // SSE2 is part of the x86_64 baseline, but keep the check so the
            // selection logic reads uniformly.
            if std::arch::is_x86_feature_detected!("sse2") {
                return SimdLevel::Sse2;
            }
        }
        SimdLevel::Word
    })
}

// --- SWAR helpers ----------------------------------------------------------

const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
const HI1: u64 = 0x8080_8080_8080_8080;

/// High bit of each byte set iff that byte of `v` is non-zero. Exact per
/// byte: `(v & 0x7f) + 0x7f` never carries across byte lanes.
#[inline]
fn nonzero_high(v: u64) -> u64 {
    (((v & LO7) + LO7) | v) & HI1
}

/// High bit of each byte set iff that byte of `v` is zero.
#[inline]
fn zero_high(v: u64) -> u64 {
    !nonzero_high(v) & HI1
}

#[inline]
fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// High bit of each byte set iff that byte is an upper- or lower-case
/// A/C/G/T.
#[inline]
fn valid_acgt_high(w: u64) -> u64 {
    // Clearing bit 5 maps lower-case onto upper-case for ASCII letters.
    let up = w & splat(0xDF);
    zero_high(up ^ splat(b'A'))
        | zero_high(up ^ splat(b'C'))
        | zero_high(up ^ splat(b'G'))
        | zero_high(up ^ splat(b'T'))
}

/// Bit `i` set iff byte `i` of `w` is an upper- or lower-case A/C/G/T.
/// Lets packers locate exception positions chunk by chunk. The multiply
/// gathers the 8 per-byte high bits into bits 56..64: with the i-th set bit
/// of the constant at `7i`, the byte-`j` flag (bit `8j+7`) lands on bit
/// `56+j` exactly once, and no two partial products collide below bit 64.
#[inline]
pub fn valid_acgt_mask8(w: u64) -> u8 {
    (valid_acgt_high(w).wrapping_mul(0x0002_0408_1020_4081) >> 56) as u8
}

/// Per-byte 2-bit codes of 8 ASCII bases packed in a little-endian `u64`:
/// `x = (b >> 1) & 3` maps A→0 C→1 G→3 T→2 case-insensitively, and
/// `x ^ ((x >> 1) & 1)` swaps G/T into the canonical `A=0 C=1 G=2 T=3`
/// coding. **Unchecked**: bytes outside ACGT produce unspecified codes, so
/// callers validate first ([`valid_acgt_mask8`], [`find_non_acgt`]).
#[inline]
pub fn encode8(w: u64) -> u64 {
    let x = (w >> 1) & splat(0x03);
    x ^ ((x >> 1) & splat(0x01))
}

// --- find_non_acgt ---------------------------------------------------------

/// Scalar twin of [`find_non_acgt`]: index of the first byte that is not an
/// unambiguous base (case-insensitive), or `None` if the slice is clean.
pub fn find_non_acgt_scalar(seq: &[u8]) -> Option<usize> {
    seq.iter()
        .position(|&b| !matches!(b, b'A' | b'C' | b'G' | b'T' | b'a' | b'c' | b'g' | b't'))
}

fn find_non_acgt_word(seq: &[u8]) -> Option<usize> {
    let mut chunks = seq.chunks_exact(8);
    for (ci, chunk) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        let invalid = !valid_acgt_high(w) & HI1;
        if invalid != 0 {
            return Some(ci * 8 + invalid.trailing_zeros() as usize / 8);
        }
    }
    let tail_at = seq.len() - chunks.remainder().len();
    find_non_acgt_scalar(chunks.remainder()).map(|i| tail_at + i)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure SSE2 is available (x86_64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn find_non_acgt_sse2(seq: &[u8]) -> Option<usize> {
        let n = seq.len();
        let mut i = 0usize;
        while i + 16 <= n {
            let v = _mm_loadu_si128(seq.as_ptr().add(i) as *const __m128i);
            let up = _mm_and_si128(v, _mm_set1_epi8(0xDFu8 as i8));
            let valid = _mm_or_si128(
                _mm_or_si128(
                    _mm_cmpeq_epi8(up, _mm_set1_epi8(b'A' as i8)),
                    _mm_cmpeq_epi8(up, _mm_set1_epi8(b'C' as i8)),
                ),
                _mm_or_si128(
                    _mm_cmpeq_epi8(up, _mm_set1_epi8(b'G' as i8)),
                    _mm_cmpeq_epi8(up, _mm_set1_epi8(b'T' as i8)),
                ),
            );
            let invalid = !_mm_movemask_epi8(valid) & 0xFFFF;
            if invalid != 0 {
                return Some(i + invalid.trailing_zeros() as usize);
            }
            i += 16;
        }
        super::find_non_acgt_scalar(&seq[i..]).map(|j| i + j)
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn find_non_acgt_avx2(seq: &[u8]) -> Option<usize> {
        let n = seq.len();
        let mut i = 0usize;
        while i + 32 <= n {
            let v = _mm256_loadu_si256(seq.as_ptr().add(i) as *const __m256i);
            let up = _mm256_and_si256(v, _mm256_set1_epi8(0xDFu8 as i8));
            let valid = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'A' as i8)),
                    _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'C' as i8)),
                ),
                _mm256_or_si256(
                    _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'G' as i8)),
                    _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'T' as i8)),
                ),
            );
            let invalid = !_mm256_movemask_epi8(valid) as u32;
            if invalid != 0 {
                return Some(i + invalid.trailing_zeros() as usize);
            }
            i += 32;
        }
        find_non_acgt_sse2(&seq[i..]).map(|j| i + j)
    }
}

/// Index of the first byte that is not an unambiguous A/C/G/T base
/// (case-insensitive), or `None` if the whole slice is clean. The stretch
/// scanner of supermer extraction and the bulk 2-bit encoders use this to
/// find their ambiguity boundaries without a per-byte match.
pub fn find_non_acgt(seq: &[u8]) -> Option<usize> {
    match level() {
        SimdLevel::Word => find_non_acgt_word(seq),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::find_non_acgt_sse2(seq) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::find_non_acgt_avx2(seq) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => find_non_acgt_word(seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic byte stream mixing bases, Ns and junk.
    fn noisy_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 23 {
                    0 => b'N',
                    1 => b'x',
                    2..=5 => b"acgt"[(state >> 8) as usize % 4],
                    _ => b"ACGT"[(state >> 8) as usize % 4],
                }
            })
            .collect()
    }

    #[test]
    fn find_non_acgt_agrees_with_scalar_at_every_length() {
        for len in 0..70 {
            for seed in 1..8u64 {
                let s = noisy_seq(len, seed * 977);
                let expect = find_non_acgt_scalar(&s);
                assert_eq!(find_non_acgt_word(&s), expect, "word len={len} seed={seed}");
                assert_eq!(find_non_acgt(&s), expect, "dispatch len={len} seed={seed}");
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    assert_eq!(x86::find_non_acgt_sse2(&s), expect, "sse2 len={len}");
                    if std::arch::is_x86_feature_detected!("avx2") {
                        assert_eq!(x86::find_non_acgt_avx2(&s), expect, "avx2 len={len}");
                    }
                }
            }
        }
        assert_eq!(find_non_acgt(b"ACGTacgt"), None);
        assert_eq!(find_non_acgt(b"ACGTNCGT"), Some(4));
    }

    #[test]
    fn valid_acgt_mask8_matches_per_byte_check() {
        for seed in 1..200u64 {
            let s = noisy_seq(8, seed * 131);
            let w = u64::from_le_bytes(s.clone().try_into().expect("8 bytes"));
            let mut expect = 0u8;
            for (j, &b) in s.iter().enumerate() {
                if matches!(b.to_ascii_uppercase(), b'A' | b'C' | b'G' | b'T') {
                    expect |= 1 << j;
                }
            }
            assert_eq!(valid_acgt_mask8(w), expect, "seed={seed} seq={s:?}");
        }
        assert_eq!(valid_acgt_mask8(u64::from_le_bytes(*b"ACGTacgt")), 0xFF);
        assert_eq!(valid_acgt_mask8(u64::from_le_bytes(*b"NNNNNNNN")), 0x00);
    }
}

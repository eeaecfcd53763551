//! 2-bit packed k-mers with runtime-chosen k (k ≤ 127).
//!
//! Bases are packed little-endian: base `i` of the k-mer occupies bits
//! `2*i .. 2*i+2` of the 256-bit integer formed by `words[0]` (least
//! significant) through `words[3]`. All bits beyond `2*k` are kept at zero so
//! that equality and hashing can operate directly on the words.

use crate::kernels;
use crate::key::KmerKey;
use crate::packed::load_bases;
use seqio::alphabet::decode_base;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum supported k. Four 64-bit words hold 128 two-bit codes; we cap at
/// 127 so that iterative assembly k-ranges such as 21..=99 always fit with
/// headroom for the (k+s)-mer extraction step.
pub const MAX_K: usize = 127;

/// A DNA k-mer packed two bits per base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kmer {
    words: [u64; 4],
    k: u16,
}

impl Kmer {
    /// Creates the all-`A` k-mer of length `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > MAX_K`.
    pub fn zero(k: usize) -> Self {
        assert!(k > 0 && k <= MAX_K, "k must be in 1..={MAX_K}, got {k}");
        Kmer {
            words: [0; 4],
            k: k as u16,
        }
    }

    /// Builds a k-mer from ASCII bases. Returns `None` if the slice is empty,
    /// longer than [`MAX_K`], or contains a non-ACGT base.
    pub fn from_bytes(seq: &[u8]) -> Option<Self> {
        if seq.is_empty() || seq.len() > MAX_K {
            return None;
        }
        let words = kernels::encode_words(seq)?;
        Some(Kmer {
            words,
            k: seq.len() as u16,
        })
    }

    /// Builds a k-mer from bases `start..start + k` of a little-endian 2-bit
    /// packed stream (base `i` in bits `2*(i%4)` of byte `i/4`). This is the
    /// exact in-memory layout of `words`, shared with `dbg::PackedSeq` data
    /// and the supermer wire records, so the conversion is a five-word load
    /// (`2k` bits plus up to 6 bits of in-byte offset), a shift and a mask —
    /// which is what lets a caller pack a sequence once and cut every window
    /// out of the packing.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > MAX_K`, or `data` ends before base
    /// `start + k`.
    pub fn from_packed(data: &[u8], start: usize, k: usize) -> Self {
        assert!(k > 0 && k <= MAX_K, "k must be in 1..={MAX_K}, got {k}");
        let byte = start / 4;
        let end = (start + k).div_ceil(4);
        assert!(
            data.len() >= end,
            "packed stream holds {} bytes, bases {start}..{} need {end}",
            data.len(),
            start + k
        );
        let bytes: [u8; 40] = match data.get(byte..byte + 40) {
            Some(full) => full.try_into().expect("40-byte slice"),
            None => {
                let mut padded = [0u8; 40];
                padded[..data.len() - byte].copy_from_slice(&data[byte..]);
                padded
            }
        };
        let mut loaded = [0u64; 5];
        for (i, w) in loaded.iter_mut().enumerate() {
            *w = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8-byte chunk"));
        }
        let shift = 2 * (start % 4);
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = loaded[i] >> shift;
            if shift > 0 {
                *w |= loaded[i + 1] << (64 - shift);
            }
        }
        let mut km = Kmer { words, k: k as u16 };
        km.mask_to_k();
        km
    }

    /// The k-mer of length `k` whose packed words are `words` (bits past
    /// `2k` must be zero).
    #[inline]
    pub(crate) fn from_words(words: [u64; 4], k: usize) -> Self {
        debug_assert!(k > 0 && k <= MAX_K);
        Kmer { words, k: k as u16 }
    }

    /// The k of this k-mer.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Returns the 2-bit code of base `i` (0-based from the left/5' end).
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        debug_assert!(i < self.k());
        let bit = 2 * i;
        ((self.words[bit / 64] >> (bit % 64)) & 0b11) as u8
    }

    /// Sets the 2-bit code of base `i`.
    #[inline]
    pub fn set_code(&mut self, i: usize, code: u8) {
        debug_assert!(i < self.k());
        debug_assert!(code < 4);
        let bit = 2 * i;
        let w = bit / 64;
        let off = bit % 64;
        self.words[w] = (self.words[w] & !(0b11 << off)) | ((code as u64) << off);
    }

    /// ASCII base at position `i`.
    #[inline]
    pub fn base_at(&self, i: usize) -> u8 {
        decode_base(self.code_at(i))
    }

    /// First (leftmost / 5') base code.
    #[inline]
    pub fn first_code(&self) -> u8 {
        self.code_at(0)
    }

    /// Last (rightmost / 3') base code.
    #[inline]
    pub fn last_code(&self) -> u8 {
        self.code_at(self.k() - 1)
    }

    /// Shifts the whole 256-bit value right by two bits (dropping base 0).
    fn shr2(&mut self) {
        for i in 0..4 {
            let carry = if i + 1 < 4 {
                self.words[i + 1] & 0b11
            } else {
                0
            };
            self.words[i] = (self.words[i] >> 2) | (carry << 62);
        }
    }

    /// Shifts the whole 256-bit value left by two bits (making room at base 0).
    fn shl2(&mut self) {
        for i in (0..4).rev() {
            let carry = if i > 0 { self.words[i - 1] >> 62 } else { 0 };
            self.words[i] = (self.words[i] << 2) | carry;
        }
    }

    /// Clears any bits at positions ≥ 2k, restoring the packing invariant.
    fn mask_to_k(&mut self) {
        let bits = 2 * self.k();
        for w in 0..4 {
            let lo = w * 64;
            if bits <= lo {
                self.words[w] = 0;
            } else if bits < lo + 64 {
                let keep = bits - lo;
                self.words[w] &= (1u64 << keep) - 1;
            }
        }
    }

    /// Returns the k-mer obtained by dropping the first base and appending
    /// `code` at the right — the "move one base along the read" operation used
    /// by rolling extraction and graph walks.
    #[inline]
    pub fn extended_right(&self, code: u8) -> Kmer {
        let mut out = *self;
        out.shr2();
        out.set_code(self.k() - 1, code);
        out.mask_to_k();
        out
    }

    /// Returns the k-mer obtained by dropping the last base and prepending
    /// `code` at the left.
    #[inline]
    pub fn extended_left(&self, code: u8) -> Kmer {
        let mut out = *self;
        out.shl2();
        out.mask_to_k();
        out.set_code(0, code);
        out
    }

    /// Reverse complement of this k-mer.
    pub fn revcomp(&self) -> Kmer {
        Kmer {
            words: kernels::revcomp_words(&self.words, self.k()),
            k: self.k,
        }
    }

    /// Lexicographic comparison by base sequence (A < C < G < T).
    fn lex_cmp(&self, other: &Kmer) -> Ordering {
        debug_assert_eq!(self.k, other.k);
        kernels::lex_cmp_words(&self.words, &other.words)
    }

    /// Compares the first base against the first base of the (unbuilt)
    /// reverse complement, which is the complement of the last base. For
    /// random k-mers this single comparison decides canonicity ~75% of the
    /// time, skipping the reverse-complement construction entirely.
    #[inline]
    fn first_base_vs_rc(&self) -> Ordering {
        self.first_code().cmp(&(3 - self.last_code()))
    }

    /// Returns the canonical form (the lexicographically smaller of the k-mer
    /// and its reverse complement) and whether the reverse complement was
    /// chosen.
    pub fn canonical(&self) -> (Kmer, bool) {
        match self.first_base_vs_rc() {
            Ordering::Less => (*self, false),
            Ordering::Greater => (self.revcomp(), true),
            Ordering::Equal => {
                let rc = self.revcomp();
                if rc.lex_cmp(self) == Ordering::Less {
                    (rc, true)
                } else {
                    (*self, false)
                }
            }
        }
    }

    /// True if this k-mer is its own canonical representative. Uses the same
    /// first-base early exit as [`Kmer::canonical`] without materialising the
    /// winner.
    pub fn is_canonical(&self) -> bool {
        match self.first_base_vs_rc() {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.revcomp().lex_cmp(self) != Ordering::Less,
        }
    }

    /// True if the k-mer is a palindrome (equal to its reverse complement);
    /// only possible for even k.
    pub fn is_palindrome(&self) -> bool {
        *self == self.revcomp()
    }

    /// Writes the ASCII representation into a new vector via the bulk decode
    /// kernel (the words' little-endian bytes *are* the packed stream).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.k());
        kernels::unpack_ascii(&self.packed_le_bytes(), 0, self.k(), &mut out);
        out
    }

    /// The words as a little-endian packed 2-bit stream (base `i` in bits
    /// `2*(i%4)` of byte `i/4`) — the same layout `from_packed` consumes.
    #[inline]
    pub(crate) fn packed_le_bytes(&self) -> [u8; 32] {
        let mut bytes = [0u8; 32];
        for (i, w) in self.words.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    /// The packed words (bits beyond `2k` zero), for kernel-level callers.
    #[inline]
    pub(crate) fn words(&self) -> &[u64; 4] {
        &self.words
    }

    /// The (k-1)-base suffix as a new (k-1)-mer; used to key contig-end
    /// joins. A whole-value base shift — no per-base loop.
    pub fn suffix(&self) -> Kmer {
        assert!(self.k() > 1);
        Kmer {
            words: kernels::shift_right_bases(&self.words, 1),
            k: self.k - 1,
        }
    }

    /// The (k-1)-base prefix as a new (k-1)-mer: same words, one base fewer,
    /// re-masked — O(1) in the base count.
    pub fn prefix(&self) -> Kmer {
        assert!(self.k() > 1);
        let mut out = Kmer {
            words: self.words,
            k: self.k - 1,
        };
        out.mask_to_k();
        out
    }

    /// A stable 64-bit mixing hash of the packed representation, used by the
    /// distributed hash tables to choose an owner rank independently of the
    /// `std` hasher.
    pub fn owner_hash(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (self.k as u64);
        for &w in &self.words {
            h ^= w;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
            h ^= h >> 29;
        }
        h
    }
}

/// A k-mer and its reverse complement rolled along a sequence together: one
/// reverse complement to start, then a few word shifts per base, and one
/// comparison to pick the canonical strand. `N` is the number of words k
/// needs (`k.div_ceil(32)`), so a k ≤ 32 rolls in single registers. Pure word
/// arithmetic, like [`kernels::shift_right_bases`]: it has no scalar twin.
///
/// Supermer expansion and the aligner's seed cut roll it along packed
/// sequence; the traversal rolls it along a graph walk
/// ([`StrandPair::of_kmer`], [`StrandPair::push`]), building a [`Kmer`] only
/// where it needs one.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct StrandPair<const N: usize> {
    fwd: [u64; N],
    rc: [u64; N],
    k: u16,
    /// Bit offset of base k−1 within word N−1.
    top: u32,
}

impl<const N: usize> StrandPair<N> {
    /// Starts at the `k`-mer at base `start` of the packed stream `codes`
    /// (k must need exactly `N` words): `N` word loads, and the reverse
    /// complement word by word — complement, reverse the 2-bit groups, and
    /// shift the `N`-word value down past the complemented padding.
    #[inline]
    pub(crate) fn at(codes: &[u8], start: usize, k: usize) -> Self {
        debug_assert_eq!(k.div_ceil(32), N);
        let top_bases = k - 32 * (N - 1);
        let mut fwd: [u64; N] = std::array::from_fn(|i| load_bases(codes, start + 32 * i));
        if top_bases < 32 {
            fwd[N - 1] &= (1u64 << (2 * top_bases)) - 1;
        }
        let rev: [u64; N] = std::array::from_fn(|i| kernels::rev2_u64(!fwd[N - 1 - i]));
        let shift = 2 * (32 - top_bases) as u32;
        let rc = std::array::from_fn(|i| {
            let carry = match rev.get(i + 1) {
                Some(&next) if shift > 0 => next << (64 - shift),
                _ => 0,
            };
            (rev[i] >> shift) | carry
        });
        StrandPair {
            fwd,
            rc,
            k: k as u16,
            top: (2 * (k - 1) % 64) as u32,
        }
    }

    /// The pair of `kmer`, whose k must need exactly `N` words.
    #[inline]
    pub fn of_kmer(kmer: &Kmer) -> Self {
        let k = kmer.k();
        debug_assert_eq!(k.div_ceil(32), N);
        let rc = kmer.revcomp();
        StrandPair {
            fwd: std::array::from_fn(|i| kmer.words[i]),
            rc: std::array::from_fn(|i| rc.words[i]),
            k: k as u16,
            top: (2 * (k - 1) % 64) as u32,
        }
    }

    /// The forward k-mer.
    pub fn to_kmer(&self) -> Kmer {
        let mut words = [0u64; 4];
        words[..N].copy_from_slice(&self.fwd);
        Kmer::from_words(words, self.k as usize)
    }

    /// The 2-bit code of the forward k-mer's first base.
    #[inline]
    pub fn first_code(&self) -> u8 {
        (self.fwd[0] & 3) as u8
    }

    /// Slides one base right: `code` enters the forward k-mer at its right
    /// end and, complemented, the reverse complement at its left end.
    #[inline]
    pub fn push(&mut self, code: u8) {
        for i in 0..N {
            let carry = if i + 1 < N { self.fwd[i + 1] << 62 } else { 0 };
            self.fwd[i] = (self.fwd[i] >> 2) | carry;
        }
        self.fwd[N - 1] |= (code as u64) << self.top;
        for i in (0..N).rev() {
            let carry = if i > 0 { self.rc[i - 1] >> 62 } else { 0 };
            self.rc[i] = (self.rc[i] << 2) | carry;
        }
        self.rc[0] |= (3 - code) as u64;
        self.rc[N - 1] &= u64::MAX >> (62 - self.top);
    }

    /// The canonical k-mer — the lexicographically smaller strand — as a
    /// table key of any width that holds k, and whether it is the reverse
    /// complement (the rule of [`Kmer::canonical`]).
    #[inline]
    pub fn canonical_key<K: KmerKey>(&self) -> (K, bool) {
        let was_rc = self
            .fwd
            .iter()
            .zip(&self.rc)
            .find(|(f, r)| f != r)
            .is_some_and(|(&f, &r)| {
                let sh = (f ^ r).trailing_zeros() & !1;
                (r >> sh) & 3 < (f >> sh) & 3
            });
        let winner = if was_rc { &self.rc } else { &self.fwd };
        (K::of_words(winner, self.k as usize), was_rc)
    }
}

impl PartialOrd for Kmer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Kmer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.k.cmp(&other.k).then_with(|| self.lex_cmp(other))
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base_at(i) as char)?;
        }
        Ok(())
    }
}

impl FromStr for Kmer {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Kmer::from_bytes(s.as_bytes()).ok_or_else(|| format!("invalid k-mer string: {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::alphabet::encode_base;

    #[test]
    fn from_bytes_and_display_roundtrip() {
        for s in [
            "A",
            "ACGT",
            "GATTACA",
            "TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT",
        ] {
            let km: Kmer = s.parse().unwrap();
            assert_eq!(km.to_string(), s);
            assert_eq!(km.k(), s.len());
        }
    }

    #[test]
    fn from_bytes_rejects_invalid() {
        assert!(Kmer::from_bytes(b"").is_none());
        assert!(Kmer::from_bytes(b"ACGN").is_none());
        assert!(Kmer::from_bytes(&[b'A'; MAX_K + 1]).is_none());
        assert!(Kmer::from_bytes(&[b'A'; MAX_K]).is_some());
    }

    /// A pair started from a `Kmer` and rolled base by base reads, at every
    /// step, what `Kmer::extended_right` and `Kmer::canonical` give, at each
    /// word count.
    #[test]
    fn a_pair_rolled_from_a_kmer_walks_like_the_kmer() {
        fn roll<const N: usize>(seq: &[u8], k: usize) {
            let mut km = Kmer::from_bytes(&seq[..k]).expect("ACGT");
            let mut pair = StrandPair::<N>::of_kmer(&km);
            for &b in &seq[k..] {
                assert_eq!(pair.to_kmer(), km, "k = {k}");
                assert_eq!(pair.first_code(), km.first_code(), "k = {k}");
                let (canon, was_rc) = km.canonical();
                assert_eq!(pair.canonical_key::<Kmer>(), (canon, was_rc), "k = {k}");
                let code = encode_base(b).expect("ACGT");
                km = km.extended_right(code);
                pair.push(code);
                assert!(pair == StrandPair::<N>::of_kmer(&km), "k = {k}");
            }
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let seq: Vec<u8> = (0..MAX_K + 40)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state >> 40) as usize % 4]
            })
            .collect();
        for k in [1, 21, 32, 33, 64, 65, 96, 97, MAX_K] {
            match k.div_ceil(32) {
                1 => roll::<1>(&seq, k),
                2 => roll::<2>(&seq, k),
                3 => roll::<3>(&seq, k),
                _ => roll::<4>(&seq, k),
            }
        }
    }

    #[test]
    fn extended_right_slides_window() {
        let km: Kmer = "ACGTA".parse().unwrap();
        let next = km.extended_right(encode_base(b'G').unwrap());
        assert_eq!(next.to_string(), "CGTAG");
    }

    #[test]
    fn extended_left_slides_window() {
        let km: Kmer = "ACGTA".parse().unwrap();
        let prev = km.extended_left(encode_base(b'T').unwrap());
        assert_eq!(prev.to_string(), "TACGT");
    }

    #[test]
    fn extension_works_across_word_boundaries() {
        // 80 bases spans words 0..2 (boundary at base 32 and 64).
        let s: String = std::iter::repeat_n("ACGT", 20).collect();
        let km: Kmer = s.parse().unwrap();
        let next = km.extended_right(encode_base(b'T').unwrap());
        let expect: String = s[1..].to_string() + "T";
        assert_eq!(next.to_string(), expect);
        let prev = km.extended_left(encode_base(b'G').unwrap());
        let expect_l: String = "G".to_string() + &s[..s.len() - 1];
        assert_eq!(prev.to_string(), expect_l);
    }

    #[test]
    fn revcomp_matches_string_revcomp() {
        let s = "ACGTTGCAACGGTACCGGTTAACC";
        let km: Kmer = s.parse().unwrap();
        let rc = km.revcomp();
        let expect = String::from_utf8(seqio::alphabet::revcomp(s.as_bytes())).unwrap();
        assert_eq!(rc.to_string(), expect);
        assert_eq!(rc.revcomp(), km);
    }

    #[test]
    fn canonical_is_min_of_pair() {
        let km: Kmer = "TTTT".parse().unwrap();
        let (canon, was_rc) = km.canonical();
        assert_eq!(canon.to_string(), "AAAA");
        assert!(was_rc);
        let km2: Kmer = "AAAA".parse().unwrap();
        let (canon2, was_rc2) = km2.canonical();
        assert_eq!(canon2, canon);
        assert!(!was_rc2);
        assert!(km2.is_canonical());
        assert!(!km.is_canonical());
    }

    #[test]
    fn palindromes_detected() {
        let km: Kmer = "ACGT".parse().unwrap();
        assert!(km.is_palindrome());
        let km2: Kmer = "AAGT".parse().unwrap();
        assert!(!km2.is_palindrome());
    }

    #[test]
    fn prefix_suffix() {
        let km: Kmer = "ACGTT".parse().unwrap();
        assert_eq!(km.prefix().to_string(), "ACGT");
        assert_eq!(km.suffix().to_string(), "CGTT");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a: Kmer = "AACT".parse().unwrap();
        let b: Kmer = "AAGA".parse().unwrap();
        assert!(a < b);
        let c: Kmer = "AACT".parse().unwrap();
        assert_eq!(a.cmp(&c), std::cmp::Ordering::Equal);
    }

    #[test]
    fn owner_hash_differs_for_different_kmers() {
        let a: Kmer = "ACGTACGTACGTACGTACGTA".parse().unwrap();
        let b: Kmer = "ACGTACGTACGTACGTACGTC".parse().unwrap();
        assert_ne!(a.owner_hash(), b.owner_hash());
        assert_eq!(a.owner_hash(), a.owner_hash());
    }

    #[test]
    fn from_packed_matches_from_bytes_at_every_offset_and_k() {
        // 4 in-byte offsets x every k, at a start deep enough that both the
        // 40-byte fast load and the zero-padded tail are exercised, in a
        // stream whose other bases are all `T` (all-ones bits) so anything
        // the shift or the mask lets through shows.
        let s: Vec<u8> = (0..MAX_K + 3)
            .map(|i| b"ACGT"[(i * 5 + i / 7 + 2) % 4])
            .collect();
        for lead in 0..8usize {
            for k in 1..=MAX_K {
                for trail in [0usize, 200] {
                    let mut seq = vec![b'T'; lead];
                    seq.extend_from_slice(&s[..k]);
                    seq.resize(lead + k + trail, b'T');
                    let mut packed = vec![0u8; seq.len().div_ceil(4)];
                    kernels::pack_ascii(&seq, &mut packed, |_, _| unreachable!());
                    if trail == 0 && (lead + k) % 4 != 0 {
                        // Garbage in the last byte beyond the final base.
                        *packed.last_mut().unwrap() |= 0xFF << (2 * ((lead + k) % 4));
                    }
                    assert_eq!(
                        Kmer::from_packed(&packed, lead, k),
                        Kmer::from_bytes(&s[..k]).unwrap(),
                        "start={lead} k={k} trail={trail}"
                    );
                }
            }
        }
        let km = Kmer::from_bytes(&s[..100]).unwrap();
        assert_eq!(Kmer::from_packed(&km.packed_le_bytes(), 0, 100), km);
    }

    #[test]
    #[should_panic(expected = "packed stream holds")]
    fn from_packed_rejects_a_window_past_the_end() {
        let _ = Kmer::from_packed(&[0u8; 8], 30, 3);
    }

    #[test]
    fn long_kmer_roundtrip_at_max_k() {
        let s: String = (0..MAX_K)
            .map(|i| ['A', 'C', 'G', 'T'][(i * 7 + 3) % 4])
            .collect();
        let km: Kmer = s.parse().unwrap();
        assert_eq!(km.to_string(), s);
        assert_eq!(km.revcomp().revcomp(), km);
    }
}

//! Canonical m-mer minimizers and supermer extraction (§II-B communication
//! optimisation).
//!
//! Shipping every canonical k-mer of every read to its owner rank costs
//! ~32 bytes per k-mer occurrence. Consecutive k-mers of a read overlap in
//! k−1 bases, so almost all of those bytes are redundant. A *minimizer*
//! scheme removes the redundancy: the minimizer of a k-mer is its smallest
//! canonical m-mer (m ≤ k) in a pseudo-random order, and a **supermer** is
//! a maximal run of consecutive k-mers of a read that share the same
//! minimizer. A supermer of s k-mers spans s+k−1 bases and is shipped as
//! packed 2-bit sequence plus a one-bit-per-base quality sidecar and the two
//! boundary extension bases — ~(s+k−1)/4 bytes instead of ~32·s. Because a
//! k-mer and its reverse complement contain the same set of canonical m-mers,
//! the minimizer is strand-invariant, so routing supermers by minimizer sends
//! *every* occurrence of a canonical k-mer to the same destination: the owner
//! can count locally without any further communication.
//!
//! Reads arrive 2-bit packed ([`seqio::PackedReadView`], the read store's own
//! bytes), and nothing on the way to the counts table goes back to ASCII —
//! the super-k-mer layout of KMC 3. The pieces, in pipeline order:
//!
//! * [`cut_supermers`] — cuts one read's supermers from its codes, read 32
//!   bases per 64-bit load: a rolling canonical m-mer and a window minimum
//!   kept in a ring of the last k−m+1 m-mer ranks, rescanned only when the
//!   minimum leaves the window (O(1) amortised per base). Each [`Supermer`]
//!   carries the codes of its boundary bases, which the cutter has in hand;
//! * [`encode_packed_supermer`] — appends one supermer's wire record to a
//!   byte buffer (an exchange buffer, or the run of its bin tag when the
//!   record stays on the rank that cut it): the read's packed bits and its
//!   high-quality mask, each written as shifted, masked 64-bit words, and the
//!   minimizer's bin tag ([`minimizer_tag`]);
//! * [`SupermerBlobIter`] / [`expand_supermer`] — the receive side: frames
//!   records out of a byte run and expands each back into exactly the
//!   [`CanonicalKmerExt`] observations the per-k-mer extraction
//!   ([`crate::extract::kmers_with_exts_iter`]) would have produced, rolling
//!   the forward and the reverse-complement k-mer in lockstep and the
//!   extension bases and quality bits out of sliding 64-bit words;
//! * [`kmer_minimizer`] / [`minimizer_shard`] — the canonical minimizer of a
//!   single (canonical) k-mer and its deterministic shard assignment, used by
//!   the minimizer-based `dht` partitioner so that table ownership agrees
//!   with supermer routing.
//!
//! [`SupermerIter`] and [`encode_supermer`] are the same cut and the same
//! record for a caller holding an ASCII read.
//!
//! M-mers are ranked by a bijective mix of the canonical m-mer's packed
//! value (a multiply by an odd constant, then an xor-shift), not in
//! lexicographic order. Under a random order the minimizer changes at about
//! 2/(w+1) of the window steps, w = k−m+1 m-mers per k-mer; the
//! lexicographic order does worse, because small m-mers (runs of `A`, `AC`
//! repeats) crowd together and end supermers early (Marçais et al.,
//! *Bioinformatics* 2017; KMC 2 orders its signatures for the same reason).
//! Fewer, longer supermers mean fewer wire records, fewer header bytes and
//! fewer per-record costs on both sides of the exchange.
//!
//! Minimizer length is capped at [`MAX_MINIMIZER_LEN`] so an m-mer fits one
//! `u64` (2 bits per base, base 0 in the high bits).

use crate::ext::ExtPair;
use crate::extract::CanonicalKmerExt;
use crate::kernels;
use crate::key::KmerKey;
use crate::kmer::{Kmer, StrandPair, MAX_K};
use crate::packed::{load_bases, load_bits};
use crate::packed_seq::PackedSeq;
use seqio::alphabet::encode_base;
use seqio::PackedReadView;
use std::ops::Range;

/// Largest supported minimizer length: 31 bases pack into 62 bits of a `u64`.
pub const MAX_MINIMIZER_LEN: usize = 31;

/// Largest supermer length in bases: the wire record stores the length in a
/// `u16`. [`cut_supermers`] splits longer same-minimizer runs (possible in
/// pathological homopolymer stretches of very long reads) into consecutive
/// supermers, which expand to identical observations.
pub const MAX_SUPERMER_BASES: usize = u16::MAX as usize;

/// Slots of the cutter's ring of m-mer ranks: a power of two above the
/// largest window, k − m + 1 ≤ [`MAX_K`].
const RING: usize = MAX_K + 1;

/// Mixes a packed minimizer value into a well-spread 64-bit hash
/// (splitmix64 finaliser). Exposed so that routing (sender side) and the
/// partitioner (owner side) agree byte-for-byte.
#[inline]
pub fn mix_minimizer(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard (owner rank) of a minimizer value among `ranks` shards.
#[inline]
pub fn minimizer_shard(value: u64, ranks: usize) -> usize {
    debug_assert!(ranks > 0);
    (mix_minimizer(value) % ranks as u64) as usize
}

/// The bin tag a wire record carries: the top eight bits of the mixed
/// minimizer. [`minimizer_shard`] spends the same mixed value modulo the rank
/// count, and every record a rank receives agrees in that residue, so the tag
/// takes the high bits, which the residue does not fix. The receiver bins
/// records by tag without recomputing a minimizer.
#[inline]
pub fn minimizer_tag(value: u64) -> u8 {
    (mix_minimizer(value) >> 56) as u8
}

/// The rank of a canonical m-mer's packed value in the minimizer order: a
/// multiply by an odd constant then an xor-shift, each a bijection of `u64`,
/// so distinct m-mers never tie and the minimum of a window is one m-mer.
/// A homopolymer of `A` (value 0) keeps rank 0.
#[inline(always)]
fn mmer_order(canonical: u64) -> u64 {
    let y = canonical.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    y ^ (y >> 29)
}

/// Packed-m-mer helper: rolls a forward value (base 0 in the high bits) and
/// the reverse-complement value in lockstep, and ranks the smaller of the
/// two — the canonical m-mer — by [`mmer_order`].
#[derive(Clone, Copy)]
struct MmerRoller {
    m: usize,
    mask: u64,
    fwd: u64,
    rc: u64,
    /// Valid bases currently rolled in (saturates at `m`).
    filled: usize,
}

impl MmerRoller {
    fn new(m: usize) -> Self {
        assert!(
            (1..=MAX_MINIMIZER_LEN).contains(&m),
            "minimizer length must be in 1..={MAX_MINIMIZER_LEN}, got {m}"
        );
        MmerRoller {
            m,
            mask: (1u64 << (2 * m)) - 1,
            fwd: 0,
            rc: 0,
            filled: 0,
        }
    }

    /// Rolls one 2-bit base code in; returns the canonical m-mer's rank once
    /// `m` bases have been consumed.
    #[inline]
    fn push(&mut self, code: u8) -> Option<u64> {
        let value = self.roll(code);
        self.filled = (self.filled + 1).min(self.m);
        (self.filled == self.m).then_some(value)
    }

    /// Rolls one 2-bit base code in and returns the [`mmer_order`] rank of
    /// the last `m` bases' canonical m-mer, for a caller that counts the
    /// first `m − 1` itself.
    #[inline(always)]
    fn roll(&mut self, code: u8) -> u64 {
        self.fwd = ((self.fwd << 2) | code as u64) & self.mask;
        self.rc = (self.rc >> 2) | (((3 - code) as u64) << (2 * (self.m - 1)));
        mmer_order(self.fwd.min(self.rc))
    }
}

/// The 2-bit codes of a packed sequence from a given base on, one per
/// [`BaseStream::next`], out of one 64-bit word loaded per 32 bases.
struct BaseStream<'a> {
    codes: &'a [u8],
    /// Base offset of the next load.
    next: usize,
    word: u64,
    /// Codes of `word` not yet read.
    left: u32,
}

impl<'a> BaseStream<'a> {
    fn new(codes: &'a [u8], from: usize) -> Self {
        BaseStream {
            codes,
            next: from,
            word: 0,
            left: 0,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> u8 {
        if self.left == 0 {
            self.word = load_bases(self.codes, self.next);
            self.next += 32;
            self.left = 32;
        }
        let code = (self.word & 0b11) as u8;
        self.word >>= 2;
        self.left -= 1;
        code
    }
}

/// The canonical minimizer value of a single k-mer: the smallest rank of a
/// canonical m-mer over its k−m+1 windows, in the module's hash order (not
/// the lexicographic one). Strand-invariant, so it can be computed on the
/// canonical key and still agree with the read-orientation routing of
/// [`cut_supermers`], which ranks m-mers with the same roller.
///
/// # Panics
/// Panics if `m` is 0, larger than [`MAX_MINIMIZER_LEN`], or larger than the
/// k-mer's length.
pub fn kmer_minimizer(kmer: &Kmer, m: usize) -> u64 {
    let k = kmer.k();
    assert!(m <= k, "minimizer length {m} exceeds k {k}");
    let mut roller = MmerRoller::new(m);
    let mut best = u64::MAX;
    // Feed the roller straight from the packed words — a local 2-bit shift
    // per base instead of the div/mod addressing of `code_at`.
    let mut remaining = k;
    for &w in kmer.words() {
        let mut v = w;
        let n = remaining.min(32);
        for _ in 0..n {
            if let Some(val) = roller.push((v & 0b11) as u8) {
                best = best.min(val);
            }
            v >>= 2;
        }
        remaining -= n;
        if remaining == 0 {
            break;
        }
    }
    best
}

/// One supermer of a read: a maximal run of consecutive k-mer windows (all
/// inside one ambiguity-free stretch) sharing the same minimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supermer {
    /// Offset of the first base of the supermer within the read.
    pub start: usize,
    /// Length in bases: `kmers + k - 1`.
    pub len: usize,
    /// Number of k-mer windows covered.
    pub kmers: usize,
    /// The shared minimizer: the smallest hash-order rank of the windows'
    /// canonical m-mers (the routing key, as [`kmer_minimizer`] computes
    /// it).
    pub minimizer: u64,
    /// 2-bit code of the read base just before the supermer; `None` at the
    /// read's start and next to an exception.
    pub left: Option<u8>,
    /// 2-bit code of the read base just after the supermer; `None` at the
    /// read's end and next to an exception.
    pub right: Option<u8>,
}

/// Cuts the supermers of one packed read and calls `emit` with each, in read
/// order. The windows are those of [`crate::extract::kmer_positions`]
/// (windows holding an exception are skipped), grouped into maximal
/// same-minimizer runs of at most [`MAX_SUPERMER_BASES`] bases. O(len)
/// amortised time, the codes read 32 bases per word; no allocation.
///
/// # Panics
/// Panics unless `1 <= m <= k <= MAX_K` and `m <= MAX_MINIMIZER_LEN`.
pub fn cut_supermers(
    read: &PackedReadView<'_>,
    k: usize,
    m: usize,
    mut emit: impl FnMut(Supermer),
) {
    assert!(
        (1..=MAX_K).contains(&k),
        "k must be in 1..={MAX_K}, got {k}"
    );
    assert!(m >= 1 && m <= k, "minimizer length must be in 1..=k");
    let mut ring = [0u64; RING];
    let mut stretch_start = 0usize;
    let exceptions = read.exceptions.iter().map(|&(pos, _)| pos as usize);
    for stretch_end in exceptions.chain(std::iter::once(read.len)) {
        if stretch_end >= stretch_start + k {
            cut_stretch(read, stretch_start..stretch_end, k, m, &mut ring, &mut emit);
        }
        stretch_start = stretch_end + 1;
    }
}

/// Cuts one ambiguity-free stretch of at least `k` bases, its codes read 32
/// bases per word load. `ring[p % RING]` holds the rank of the canonical
/// m-mer at `p` for the current window's k−m+1 m-mers; `min` is the smallest
/// of them and `min_pos` the rightmost position holding it, so the ring is
/// rescanned only once that position leaves the window. The first window's
/// m-mers are rolled in before the window loop, which then handles one
/// window per base. A supermer's right boundary base is the one whose window
/// starts the next; at the stretch's ends there is none.
fn cut_stretch(
    read: &PackedReadView<'_>,
    stretch: Range<usize>,
    k: usize,
    m: usize,
    ring: &mut [u64; RING],
    emit: &mut impl FnMut(Supermer),
) {
    let max_kmers = MAX_SUPERMER_BASES.saturating_sub(k - 1).max(1);
    let mut codes = BaseStream::new(read.codes, stretch.start);
    let mut roller = MmerRoller::new(m);
    for _ in 1..m {
        roller.roll(codes.next());
    }
    let (mut min, mut min_pos) = (u64::MAX, 0usize);
    for mpos in stretch.start..=stretch.start + k - m {
        let value = roller.roll(codes.next());
        ring[mpos % RING] = value;
        if value <= min {
            (min, min_pos) = (value, mpos);
        }
    }
    let mut run = Supermer {
        start: stretch.start,
        len: k,
        kmers: 1,
        minimizer: min,
        left: None,
        right: None,
    };
    for pos in stretch.start + k..stretch.end {
        let code = codes.next();
        let value = roller.roll(code);
        let mpos = pos + 1 - m;
        ring[mpos % RING] = value;
        if value <= min {
            (min, min_pos) = (value, mpos);
        }
        let window = pos + 1 - k;
        if min_pos < window {
            min = u64::MAX;
            for p in window..=mpos {
                if ring[p % RING] <= min {
                    (min, min_pos) = (ring[p % RING], p);
                }
            }
        }
        if run.minimizer == min && run.kmers < max_kmers {
            run.kmers += 1;
            run.len += 1;
        } else {
            let next = Supermer {
                start: window,
                len: k,
                kmers: 1,
                minimizer: min,
                left: Some(read.code_at(window - 1)),
                right: None,
            };
            let done = std::mem::replace(&mut run, next);
            emit(Supermer {
                right: Some(code),
                ..done
            });
        }
    }
    emit(run);
}

/// The supermers of an ASCII read, collected: packs `seq` (non-ACGT bytes
/// become exceptions) and runs [`cut_supermers`] over the packing.
pub fn supermers(seq: &[u8], k: usize, m: usize) -> Vec<Supermer> {
    let mut out = Vec::new();
    cut_supermers(&PackedSeq::from_bytes(seq).view(), k, m, |sm| out.push(sm));
    out
}

/// Iterator over the supermers of an ASCII read ([`supermers`]), for callers
/// that hold ASCII; k-mer analysis cuts from the read store's packing.
pub struct SupermerIter(std::vec::IntoIter<Supermer>);

impl SupermerIter {
    /// Cuts `seq`. `m` must be in `1..=min(k, MAX_MINIMIZER_LEN)`.
    pub fn new(seq: &[u8], k: usize, m: usize) -> Self {
        SupermerIter(supermers(seq, k, m).into_iter())
    }
}

impl Iterator for SupermerIter {
    type Item = Supermer;

    fn next(&mut self) -> Option<Supermer> {
        self.0.next()
    }
}

// --- Wire format -----------------------------------------------------------
//
// One record, appended to a per-owner byte buffer:
//
//   [len lo] [len hi]                u16 length L in bases
//   [ends]                           bit0 has-left, bit1 left-hq,
//                                    bit2 has-right, bit3 right-hq,
//                                    bits 4-5 left base code, bits 6-7 right
//   [tag]                            minimizer_tag of the shared minimizer
//   [ceil(L/4) packed 2-bit bases]   base i in bits 2*(i%4) of byte i/4
//   [ceil(L/8) hq bits]              base i high-quality in bit i%8 of byte i/8
//
// The boundary bases are the read bases immediately before/after the supermer
// (absent at read ends and next to ambiguous bases), so the receive side can
// reconstruct the first window's left extension and the last window's right
// extension; interior extensions are implicit in the packed sequence. Bits
// past L in the last packed byte and the last hq byte are zero. The packed
// bases and the hq bits are the read's own bit streams from the record's
// first base on, so the packed encoder writes each as whole 64-bit words
// (one load, shift and mask per word) and trims the last one. Records are
// self-delimiting and carry their bin tag, so a byte run of them can be
// filed by tag and read in place by the receive side.

/// Number of wire bytes one supermer of `len` bases occupies.
#[inline]
pub fn supermer_wire_bytes(len: usize) -> usize {
    4 + len.div_ceil(4) + len.div_ceil(8)
}

/// The four header bytes of a record of `len` bases under `minimizer`, with
/// the given boundary bases (`(code, high quality)`).
fn record_header(
    len: usize,
    minimizer: u64,
    left: Option<(u8, bool)>,
    right: Option<(u8, bool)>,
) -> [u8; 4] {
    assert!(len <= MAX_SUPERMER_BASES, "supermer too long for the wire");
    let mut ends = 0u8;
    if let Some((code, hq)) = left {
        ends |= 1 | (u8::from(hq) << 1) | (code << 4);
    }
    if let Some((code, hq)) = right {
        ends |= (1 << 2) | (u8::from(hq) << 3) | (code << 6);
    }
    let [lo, hi] = (len as u16).to_le_bytes();
    [lo, hi, ends, minimizer_tag(minimizer)]
}

/// Appends the record header of `sm` with the given boundary bases, then its
/// zeroed body, and returns the body split into the packed bases and the hq
/// bits.
fn push_record<'o>(
    out: &'o mut Vec<u8>,
    sm: &Supermer,
    left: Option<(u8, bool)>,
    right: Option<(u8, bool)>,
) -> (&'o mut [u8], &'o mut [u8]) {
    out.extend_from_slice(&record_header(sm.len, sm.minimizer, left, right));
    let base = out.len();
    out.resize(base + sm.len.div_ceil(4) + sm.len.div_ceil(8), 0);
    out[base..].split_at_mut(sm.len.div_ceil(4))
}

/// Appends bits `from..from + n` of the little-endian bit stream `src` to
/// `out` as `n.div_ceil(8)` bytes whose bits past `n` are zero: one load,
/// shift and mask and one 8-byte store per 64 bits, then the overshoot of the
/// last store trimmed. `out` needs 7 bytes of spare capacity to never grow
/// for the overshoot.
#[inline]
fn append_bits(out: &mut Vec<u8>, src: &[u8], from: usize, n: usize) {
    let end = out.len() + n.div_ceil(8);
    for done in (0..n).step_by(64) {
        let mut word = load_bits(src, from + done);
        if n - done < 64 {
            word &= (1u64 << (n - done)) - 1;
        }
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(end);
}

/// Appends the wire record of `sm`, a supermer [`cut_supermers`] cut from
/// `read`, to `out` and returns the number of bytes written. `hq` is the
/// read's high-quality mask ([`PackedReadView::hq_mask`]), so the receive
/// side never needs the Phred scores themselves. The boundary bases come
/// with `sm`, their quality bits from `hq`; the bases and the mask are the
/// read's bit streams shifted to the record's first base, written a 64-bit
/// word at a time.
pub fn encode_packed_supermer(
    out: &mut Vec<u8>,
    read: &PackedReadView<'_>,
    hq: &[u8],
    sm: &Supermer,
) -> usize {
    let hq_at = |i: usize| (hq[i / 8] >> (i % 8)) & 1 == 1;
    let left = sm.left.map(|code| (code, hq_at(sm.start - 1)));
    let right = sm.right.map(|code| (code, hq_at(sm.start + sm.len)));
    let bytes = supermer_wire_bytes(sm.len);
    out.reserve(bytes + 7);
    out.extend_from_slice(&record_header(sm.len, sm.minimizer, left, right));
    append_bits(out, read.codes, 2 * sm.start, 2 * sm.len);
    append_bits(out, hq, sm.start, sm.len);
    bytes
}

/// The ASCII form of [`encode_packed_supermer`]: appends the wire record of
/// `sm` (a supermer of `seq`) to `out`, returning the number of bytes
/// written. `qual` must be empty (all bases high quality) or as long as
/// `seq`; a base is high quality when its score is at least `hq_threshold`.
pub fn encode_supermer(
    out: &mut Vec<u8>,
    seq: &[u8],
    qual: &[u8],
    hq_threshold: u8,
    sm: &Supermer,
) -> usize {
    assert!(
        qual.is_empty() || qual.len() == seq.len(),
        "quality must be empty or match sequence length"
    );
    let before = out.len();
    let hq_at = |i: usize| qual.is_empty() || qual[i] >= hq_threshold;
    let boundary = |i: Option<usize>| -> Option<(u8, bool)> {
        let i = i?;
        encode_base(*seq.get(i)?).map(|c| (c, hq_at(i)))
    };
    let left = boundary(sm.start.checked_sub(1));
    let right = boundary(Some(sm.start + sm.len));
    let (packed, hq_bits) = push_record(out, sm, left, right);
    kernels::pack_ascii(&seq[sm.start..sm.start + sm.len], packed, |_, b| {
        panic!("supermer bases are unambiguous, got {:?}", b as char)
    });
    for i in 0..sm.len {
        hq_bits[i / 8] |= u8::from(hq_at(sm.start + i)) << (i % 8);
    }
    out.len() - before
}

/// A decoded supermer record, borrowing the wire blob.
#[derive(Debug, Clone, Copy)]
pub struct SupermerRecord<'a> {
    /// Length in bases.
    pub len: usize,
    /// Left boundary base (2-bit code, high-quality flag), if present.
    pub left: Option<(u8, bool)>,
    /// Right boundary base, if present.
    pub right: Option<(u8, bool)>,
    /// [`minimizer_tag`] of the minimizer all of the record's k-mers share.
    pub tag: u8,
    packed: &'a [u8],
    hq: &'a [u8],
    /// The record's body and whatever follows it in the buffer: word loads
    /// of the bases and the hq bits read from here, so that they take the
    /// one-load path of a long slice. What they pick up past the record is
    /// never used.
    body: &'a [u8],
}

impl SupermerRecord<'_> {
    /// The 2-bit code of base `i`.
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        (self.packed[i / 4] >> (2 * (i % 4))) & 0b11
    }

    /// The high-quality flag of base `i`.
    #[inline]
    pub fn hq_at(&self, i: usize) -> bool {
        self.hq[i / 8] & (1 << (i % 8)) != 0
    }

    /// The record's first k-mer window, in read orientation. The wire's
    /// packed layout is the k-mer word layout, so this is a straight copy +
    /// mask instead of k `set_code` calls. Every window of a supermer shares
    /// its minimizer, so [`kmer_minimizer`] of this one is the record's.
    #[inline]
    pub fn first_kmer(&self, k: usize) -> Kmer {
        assert!(self.len >= k, "supermer shorter than k");
        Kmer::from_packed(self.packed, 0, k)
    }
}

/// Frames [`SupermerRecord`]s out of a byte run of whole records: an
/// aggregated wire blob, or one tag's run on the rank that counts it.
pub struct SupermerBlobIter<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> SupermerBlobIter<'a> {
    /// Iterates the records of `buf` (a concatenation of encoded supermers).
    pub fn new(buf: &'a [u8]) -> Self {
        SupermerBlobIter { buf, off: 0 }
    }

    /// Byte offset in `buf` of the record the next [`Iterator::next`] call
    /// frames; `SupermerBlobIter::new(&buf[offset..])` resumes there.
    pub fn offset(&self) -> usize {
        self.off
    }
}

impl<'a> Iterator for SupermerBlobIter<'a> {
    type Item = SupermerRecord<'a>;

    fn next(&mut self) -> Option<SupermerRecord<'a>> {
        if self.off >= self.buf.len() {
            return None;
        }
        let rest = &self.buf[self.off..];
        assert!(rest.len() >= 4, "truncated supermer record header");
        let len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
        let ends = rest[2];
        let packed_len = len.div_ceil(4);
        let hq_len = len.div_ceil(8);
        assert!(
            rest.len() >= 4 + packed_len + hq_len,
            "truncated supermer record body"
        );
        let record = SupermerRecord {
            len,
            left: (ends & 1 != 0).then_some(((ends >> 4) & 0b11, ends & 0b10 != 0)),
            right: (ends & 0b100 != 0).then_some((ends >> 6, ends & 0b1000 != 0)),
            tag: rest[3],
            packed: &rest[4..4 + packed_len],
            hq: &rest[4 + packed_len..4 + packed_len + hq_len],
            body: &rest[4..],
        };
        self.off += supermer_wire_bytes(len);
        Some(record)
    }
}

/// Expands one supermer record into the canonical k-mer observations it
/// encodes, calling `emit` once per window — exactly the observations
/// [`crate::extract::kmers_with_exts_iter`] produces for the covered windows
/// of the original read. [`expand_supermer_keys`] with [`Kmer`] keys.
#[inline(always)]
pub fn expand_supermer(
    record: &SupermerRecord<'_>,
    k: usize,
    mut emit: impl FnMut(CanonicalKmerExt),
) {
    expand_supermer_keys::<Kmer>(
        record,
        k,
        #[inline(always)]
        |kmer, exts| emit(CanonicalKmerExt { kmer, exts }),
    );
}

/// [`expand_supermer`] with each canonical k-mer as a table key of width `K`
/// (which must hold k), built straight from the rolled words. The forward
/// k-mer and its reverse complement roll along the record together, so the
/// record costs one reverse complement, not one per window, and each
/// window's canonical form is one comparison.
///
/// Always inlined, with `expand_words`, so that the window loop lands in
/// its caller, where an `emit` marked `#[inline(always)]` — the per-window
/// counting of k-mer analysis — is inlined into it whatever else the
/// caller's crate holds.
#[inline(always)]
pub fn expand_supermer_keys<K: KmerKey>(
    record: &SupermerRecord<'_>,
    k: usize,
    emit: impl FnMut(K, ExtPair),
) {
    assert!(k <= K::MAX_K, "a {k}-mer does not fit its key");
    match k.div_ceil(32) {
        1 => expand_words::<1, K>(record, k, emit),
        2 => expand_words::<2, K>(record, k, emit),
        3 => expand_words::<3, K>(record, k, emit),
        _ => expand_words::<4, K>(record, k, emit),
    }
}

/// [`expand_supermer_keys`] for a k of `N` words. Window `w`'s left
/// extension is base `w − 1`, the base it rolls in is `w + k − 1` and its
/// right extension is `w + k`; the three base streams and the two quality
/// streams are each loaded as one 64-bit word per 32 windows and shifted
/// along, so the window loop reads no memory. The first and the last window
/// take a boundary base from the header, so they are handled outside it.
#[inline(always)]
fn expand_words<const N: usize, K: KmerKey>(
    record: &SupermerRecord<'_>,
    k: usize,
    mut emit: impl FnMut(K, ExtPair),
) {
    assert!(record.len >= k, "supermer shorter than k");
    let (body, hq) = (record.body, 8 * record.packed.len());
    let mut pair = StrandPair::<N>::at(body, 0, k);
    let base = |i: usize| (record.code_at(i), record.hq_at(i));
    let last = record.len - k;
    if last == 0 {
        emit_window(&pair, record.left, record.right, &mut emit);
        return;
    }
    emit_window(&pair, record.left, Some(base(k)), &mut emit);
    let mut w = 1;
    while w < last {
        let n = (last - w).min(32);
        let mut lefts = load_bases(body, w - 1);
        let mut left_hq = load_bits(body, hq + w - 1);
        let mut incoming = load_bases(body, w + k - 1);
        let mut rights = load_bases(body, w + k);
        let mut right_hq = load_bits(body, hq + w + k);
        for _ in 0..n {
            pair.push((incoming & 0b11) as u8);
            let left = ((lefts & 0b11) as u8, left_hq & 1 == 1);
            let right = ((rights & 0b11) as u8, right_hq & 1 == 1);
            emit_window(&pair, Some(left), Some(right), &mut emit);
            (lefts, incoming, rights) = (lefts >> 2, incoming >> 2, rights >> 2);
            (left_hq, right_hq) = (left_hq >> 1, right_hq >> 1);
        }
        w += n;
    }
    pair.push(record.code_at(record.len - 1));
    emit_window(&pair, Some(base(last - 1)), record.right, &mut emit);
}

/// Emits the window `pair` holds, with extensions `left` and `right` in read
/// orientation, as its canonical key and the extensions seen from it. The
/// strand is a coin flip per window, so both orientations of the extensions
/// are made and one is picked by index, not by a branch.
#[inline(always)]
fn emit_window<const N: usize, K: KmerKey>(
    pair: &StrandPair<N>,
    left: Option<(u8, bool)>,
    right: Option<(u8, bool)>,
    emit: &mut impl FnMut(K, ExtPair),
) {
    let exts = ExtPair { left, right };
    let (key, was_rc) = pair.canonical_key::<K>();
    emit(key, [exts, exts.revcomp()][usize::from(was_rc)]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{kmer_positions, kmers_with_exts};
    use seqio::ReadPacker;

    /// The supermers of `seq` by definition: every window's minimizer
    /// recomputed from scratch, consecutive windows with equal minimizers
    /// grouped, runs capped at [`MAX_SUPERMER_BASES`], and the boundary bases
    /// read off the ASCII.
    fn oracle_supermers(seq: &[u8], k: usize, m: usize) -> Vec<Supermer> {
        let max_kmers = MAX_SUPERMER_BASES - (k - 1);
        let boundary = |i: Option<usize>| encode_base(*seq.get(i?)?);
        let mut out: Vec<Supermer> = Vec::new();
        for (pos, km) in kmer_positions(seq, k) {
            let minimizer = kmer_minimizer(&km, m);
            match out.last_mut() {
                Some(sm)
                    if sm.start + sm.kmers == pos
                        && sm.minimizer == minimizer
                        && sm.kmers < max_kmers =>
                {
                    sm.kmers += 1;
                    sm.len += 1;
                }
                _ => out.push(Supermer {
                    start: pos,
                    len: k,
                    kmers: 1,
                    minimizer,
                    left: None,
                    right: None,
                }),
            }
        }
        for sm in &mut out {
            sm.left = boundary(sm.start.checked_sub(1));
            sm.right = boundary(Some(sm.start + sm.len));
        }
        out
    }

    // --- The byte-wise kernels the word kernels replaced (oracles) ---------

    /// The cut one `code_at` per base, with the boundary bases looked up in
    /// the read afterwards.
    fn cut_bytewise(read: &PackedReadView<'_>, k: usize, m: usize) -> Vec<Supermer> {
        let mut ring = [0u64; RING];
        let mut out = Vec::new();
        let mut stretch_start = 0usize;
        let exceptions = read.exceptions.iter().map(|&(pos, _)| pos as usize);
        for stretch_end in exceptions.chain(std::iter::once(read.len)) {
            if stretch_end >= stretch_start + k {
                cut_stretch_bytewise(read, stretch_start..stretch_end, k, m, &mut ring, &mut out);
            }
            stretch_start = stretch_end + 1;
        }
        let boundary = |i: Option<usize>| i.filter(|&i| read.is_acgt(i)).map(|i| read.code_at(i));
        for sm in &mut out {
            sm.left = boundary(sm.start.checked_sub(1));
            sm.right = boundary(Some(sm.start + sm.len));
        }
        out
    }

    fn cut_stretch_bytewise(
        read: &PackedReadView<'_>,
        stretch: Range<usize>,
        k: usize,
        m: usize,
        ring: &mut [u64; RING],
        out: &mut Vec<Supermer>,
    ) {
        let max_kmers = MAX_SUPERMER_BASES.saturating_sub(k - 1).max(1);
        let mut roller = MmerRoller::new(m);
        let (mut min, mut min_pos) = (u64::MAX, 0usize);
        let mut run: Option<Supermer> = None;
        for pos in stretch.clone() {
            let Some(value) = roller.push(read.code_at(pos)) else {
                continue;
            };
            let mpos = pos + 1 - m;
            ring[mpos % RING] = value;
            if value <= min {
                (min, min_pos) = (value, mpos);
            }
            if pos + 1 < stretch.start + k {
                continue;
            }
            let window = pos + 1 - k;
            if min_pos < window {
                min = u64::MAX;
                for p in window..=mpos {
                    if ring[p % RING] <= min {
                        (min, min_pos) = (ring[p % RING], p);
                    }
                }
            }
            match &mut run {
                Some(sm) if sm.minimizer == min && sm.kmers < max_kmers => {
                    sm.kmers += 1;
                    sm.len += 1;
                }
                _ => {
                    let next = Supermer {
                        start: window,
                        len: k,
                        kmers: 1,
                        minimizer: min,
                        left: None,
                        right: None,
                    };
                    out.extend(run.replace(next));
                }
            }
        }
        out.extend(run);
    }

    /// Copies bits `from..from + n` of the little-endian bit stream `src` to
    /// the start of `dst` (`n.div_ceil(8)` bytes) and zeroes `dst`'s bits
    /// past `n`: eight bytes per step while eight fit, then byte by byte with
    /// a carry.
    fn copy_bits(src: &[u8], from: usize, n: usize, dst: &mut [u8]) {
        debug_assert_eq!(dst.len(), n.div_ceil(8));
        let (src, shift) = (&src[from / 8..], from % 8);
        let mut j = 0;
        while j + 8 < src.len() && j + 8 <= dst.len() {
            let word = u64::from_le_bytes(src[j..j + 8].try_into().expect("8-byte chunk"));
            let carry = (u64::from(src[j + 8]) << 1) << (63 - shift);
            dst[j..j + 8].copy_from_slice(&((word >> shift) | carry).to_le_bytes());
            j += 8;
        }
        for (i, d) in dst.iter_mut().enumerate().skip(j) {
            let carry = src
                .get(i + 1)
                .map_or(0, |&b| (u16::from(b) << 8 >> shift) as u8);
            *d = (src[i] >> shift) | carry;
        }
        if !n.is_multiple_of(8) {
            *dst.last_mut().expect("n > 0") &= (1u8 << (n % 8)) - 1;
        }
    }

    /// The encoder with the boundary bases looked up in the read (a binary
    /// search of its exceptions each) and the body written by [`copy_bits`].
    fn encode_bytewise(
        out: &mut Vec<u8>,
        read: &PackedReadView<'_>,
        hq: &[u8],
        sm: &Supermer,
    ) -> usize {
        let before = out.len();
        let boundary = |i: Option<usize>| {
            i.filter(|&i| read.is_acgt(i))
                .map(|i| (read.code_at(i), (hq[i / 8] >> (i % 8)) & 1 == 1))
        };
        let left = boundary(sm.start.checked_sub(1));
        let right = boundary(Some(sm.start + sm.len));
        let (packed, hq_bits) = push_record(out, sm, left, right);
        copy_bits(read.codes, 2 * sm.start, 2 * sm.len, packed);
        copy_bits(hq, sm.start, sm.len, hq_bits);
        out.len() - before
    }

    /// The extensions of the window at `w`, base by base: the bases either
    /// side of it, from the record or, at its ends, from the boundary bases.
    fn exts_at(record: &SupermerRecord<'_>, w: usize, k: usize) -> ExtPair {
        let left = if w > 0 {
            Some((record.code_at(w - 1), record.hq_at(w - 1)))
        } else {
            record.left
        };
        let right = if w + k < record.len {
            Some((record.code_at(w + k), record.hq_at(w + k)))
        } else {
            record.right
        };
        ExtPair { left, right }
    }

    /// The expansion with one `code_at` per rolled base and [`exts_at`]'s
    /// four lookups per window.
    fn expand_bytewise<K: KmerKey>(record: &SupermerRecord<'_>, k: usize) -> Vec<(K, ExtPair)> {
        fn words<const N: usize, K: KmerKey>(
            record: &SupermerRecord<'_>,
            k: usize,
        ) -> Vec<(K, ExtPair)> {
            let mut pair = StrandPair::<N>::at(record.packed, 0, k);
            (0..=record.len - k)
                .map(|w| {
                    if w > 0 {
                        pair.push(record.code_at(w + k - 1));
                    }
                    let exts = exts_at(record, w, k);
                    let (key, was_rc) = pair.canonical_key::<K>();
                    (key, if was_rc { exts.revcomp() } else { exts })
                })
                .collect()
        }
        match k.div_ceil(32) {
            1 => words::<1, K>(record, k),
            2 => words::<2, K>(record, k),
            3 => words::<3, K>(record, k),
            _ => words::<4, K>(record, k),
        }
    }

    /// The expansion this module shipped before the rolling one: a fresh
    /// canonical form, hence a reverse complement, in every window.
    fn expand_per_window(record: &SupermerRecord<'_>, k: usize) -> Vec<CanonicalKmerExt> {
        let mut km = record.first_kmer(k);
        (0..=record.len - k)
            .map(|w| {
                if w > 0 {
                    km = km.extended_right(record.code_at(w + k - 1));
                }
                let (kmer, was_rc) = km.canonical();
                let exts = exts_at(record, w, k);
                CanonicalKmerExt {
                    kmer,
                    exts: if was_rc { exts.revcomp() } else { exts },
                }
            })
            .collect()
    }

    /// Pseudo-random bases (an LCG).
    fn random_bases(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    /// Everything the packed path makes of `(seq, qual)` equals what the
    /// ASCII oracles make of it: the cut, the wire bytes, and the expansion.
    fn check_packed_equals_ascii(seq: &[u8], qual: &[u8], k: usize, m: usize) {
        let what = format!("len={} k={k} m={m}", seq.len());
        let threshold = 20;
        let mut packer = ReadPacker::default();
        let read = packer.pack(seq, qual);
        // The store's packing (`PackedSeq`) and the slice sources' agree.
        let store = PackedSeq::from_bytes(seq);
        assert_eq!(
            (read.codes, read.exceptions),
            (store.view().codes, store.view().exceptions),
            "{what}"
        );
        let mut cut = Vec::new();
        cut_supermers(&read, k, m, |sm| cut.push(sm));
        assert_eq!(cut, oracle_supermers(seq, k, m), "{what}");

        let mut hq = Vec::new();
        read.hq_mask(threshold, &mut hq);
        let (mut packed_blob, mut ascii_blob) = (Vec::new(), Vec::new());
        for sm in &cut {
            let wrote = encode_packed_supermer(&mut packed_blob, &read, &hq, sm);
            assert_eq!(wrote, supermer_wire_bytes(sm.len), "{what}");
            encode_supermer(&mut ascii_blob, seq, qual, threshold, sm);
        }
        assert_eq!(packed_blob, ascii_blob, "wire bytes, {what}");

        let mut rolled = Vec::new();
        let mut per_window = Vec::new();
        for (record, sm) in SupermerBlobIter::new(&packed_blob).zip(&cut) {
            assert_eq!(record.tag, minimizer_tag(sm.minimizer), "{what}");
            let first = record.first_kmer(k);
            assert_eq!(kmer_minimizer(&first, m), sm.minimizer, "{what}");
            expand_supermer(&record, k, |obs| rolled.push(obs));
            per_window.extend(expand_per_window(&record, k));
        }
        assert_eq!(rolled, per_window, "{what}");
        assert_eq!(rolled, kmers_with_exts(seq, qual, k, threshold), "{what}");
    }

    #[test]
    fn packed_cut_wire_and_expansion_equal_the_ascii_oracles() {
        let ks = [3usize, 21, 31, 33, 43, 63, 65, 127];
        let ms = [1usize, 7, 15, 31];
        // N runs at both ends and next to each other, a non-N exception
        // beside an N, and lower-case bases.
        let mut noisy = b"NNN".to_vec();
        noisy.extend(random_bases(260, 1));
        noisy.extend(b"NNxN");
        noisy.extend(random_bases(140, 2).to_ascii_lowercase());
        noisy.push(b'N');
        noisy.extend(random_bases(90, 3));
        noisy.extend(b"NN");
        // Quality runs longer than 255 and runs straddling the threshold.
        let qual: Vec<u8> = (0..noisy.len())
            .map(|i| match i {
                0..=299 => 35,
                300..=330 => [19, 20, 21][i % 3],
                _ if i % 40 < 3 => 20,
                _ => 19,
            })
            .collect();
        for &k in &ks {
            for &m in ms.iter().filter(|&&m| m <= k) {
                check_packed_equals_ascii(&noisy, &qual, k, m);
                check_packed_equals_ascii(&noisy, &[], k, m);
                for len in [0, k - 1, k, k + 1] {
                    let seq = random_bases(len, (k * 31 + m) as u64);
                    let qual: Vec<u8> = (0..len).map(|i| 10 + (i % 23) as u8).collect();
                    check_packed_equals_ascii(&seq, &qual, k, m);
                }
            }
        }
    }

    /// The word kernels — cut, encoder, expander — each equal their
    /// byte-wise oracle on `(seq, qual)`. Returns the supermers cut.
    fn check_word_kernels(seq: &[u8], qual: &[u8], k: usize, m: usize) -> Vec<Supermer> {
        let what = format!("len={} k={k} m={m}", seq.len());
        let mut packer = ReadPacker::default();
        let read = packer.pack(seq, qual);
        let mut cut = Vec::new();
        cut_supermers(&read, k, m, |sm| cut.push(sm));
        assert_eq!(cut, cut_bytewise(&read, k, m), "cut, {what}");

        let mut hq = Vec::new();
        read.hq_mask(20, &mut hq);
        let (mut words, mut bytewise) = (Vec::new(), Vec::new());
        for sm in &cut {
            let wrote = encode_packed_supermer(&mut words, &read, &hq, sm);
            assert_eq!(
                wrote,
                encode_bytewise(&mut bytewise, &read, &hq, sm),
                "{what}"
            );
        }
        assert_eq!(words, bytewise, "wire bytes, {what}");

        for record in SupermerBlobIter::new(&words) {
            let mut rolled = Vec::new();
            expand_supermer_keys::<Kmer>(&record, k, |key, exts| rolled.push((key, exts)));
            assert_eq!(
                rolled,
                expand_bytewise::<Kmer>(&record, k),
                "expansion, {what}"
            );
        }
        cut
    }

    /// Scores in runs of 1–40 bases, each run high or low quality at a
    /// threshold of 20, some on the threshold itself.
    fn quality_runs(len: usize, mut state: u64) -> Vec<u8> {
        let mut qual = Vec::with_capacity(len);
        while qual.len() < len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let run = 1 + (state >> 40) as usize % 40;
            let score = [35, 20, 19, 5][(state >> 33) as usize % 4];
            qual.extend(std::iter::repeat_n(score, run.min(len - qual.len())));
        }
        qual
    }

    #[test]
    fn word_kernels_equal_their_byte_wise_oracles() {
        for k in [3, 15, 21, 31, 33, 43, 63, 65, MAX_K] {
            let m = k.min(15);
            let (mut starts_mod8, mut ends_mod8) = ([false; 8], [false; 8]);
            let (mut at_read_start, mut at_read_end) = (false, false);
            for offset in 0..32 {
                // An exception at `offset` mod 32 past a stretch of at least
                // k bases, a second one beside it, and at least k clean
                // bases on to the read's end.
                let first = 32 * (k / 32 + 1) + offset;
                let len = first + 2 + k + 40 + 3 * offset;
                let mut seq = random_bases(len, (k * 32 + offset) as u64);
                seq[first] = b'N';
                seq[first + 1] = b'R';
                let qual = quality_runs(len, (k * 32 + offset) as u64);
                for sm in check_word_kernels(&seq, &qual, k, m) {
                    starts_mod8[sm.start % 8] = true;
                    ends_mod8[(sm.start + sm.len) % 8] = true;
                    at_read_start |= sm.start == 0 && sm.left.is_none();
                    at_read_end |= sm.start + sm.len == len && sm.right.is_none();
                }
                check_word_kernels(&seq, &[], k, m);
            }
            assert!(
                starts_mod8.iter().all(|&s| s),
                "k={k}: starts {starts_mod8:?}"
            );
            assert!(ends_mod8.iter().all(|&s| s), "k={k}: ends {ends_mod8:?}");
            assert!(
                at_read_start && at_read_end,
                "k={k}: no record at a read end"
            );
        }
    }

    #[test]
    fn append_bits_equals_copy_bits_at_every_span() {
        let src: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        for from in 0..24 {
            for n in 1..=200usize {
                let mut dst = vec![0xA5; n.div_ceil(8)];
                copy_bits(&src, from, n, &mut dst);
                let mut out = vec![0x5A; from % 3];
                append_bits(&mut out, &src, from, n);
                assert_eq!(out[from % 3..], dst[..], "from={from} n={n}");
            }
        }
    }

    #[test]
    fn a_70kb_homopolymer_splits_at_the_wire_limit_on_both_paths() {
        let seq = vec![b'A'; 70_000];
        let qual: Vec<u8> = (0..seq.len()).map(|i| [35, 5][i / 300 % 2]).collect();
        for (k, m) in [(21, 15), (127, 31)] {
            check_packed_equals_ascii(&seq, &qual, k, m);
            check_word_kernels(&seq, &qual, k, m);
            let cut = supermers(&seq, k, m);
            assert_eq!(cut.len(), 2, "k={k}");
            assert_eq!(cut[0].len, MAX_SUPERMER_BASES);
        }
    }

    #[test]
    fn supermers_tile_the_kmer_windows_exactly() {
        let seq = b"ACGGTTACGGATCCGANTTACAGGCATTACAGGT";
        for (k, m) in [(5usize, 3usize), (7, 5), (11, 7), (9, 9)] {
            let sms = supermers(seq, k, m);
            let mut covered = Vec::new();
            for sm in &sms {
                assert_eq!(sm.len, sm.kmers + k - 1);
                for w in 0..sm.kmers {
                    covered.push(sm.start + w);
                }
            }
            let expect: Vec<usize> = kmer_positions(seq, k).iter().map(|&(p, _)| p).collect();
            assert_eq!(covered, expect, "k={k} m={m}");
        }
    }

    #[test]
    fn runs_share_their_minimizer_and_breaks_are_real() {
        let seq = b"ACGGTTACGGATCCGATTACAGGCATTACAGGTCCGATCAG";
        let (k, m) = (9usize, 5usize);
        let sms = supermers(seq, k, m);
        // Each window's minimizer recomputed from scratch must match its
        // supermer's minimizer, and adjacent supermers must differ.
        for sm in &sms {
            for w in 0..sm.kmers {
                let km = Kmer::from_bytes(&seq[sm.start + w..sm.start + w + k]).unwrap();
                assert_eq!(kmer_minimizer(&km, m), sm.minimizer);
            }
        }
        for pair in sms.windows(2) {
            if pair[0].start + pair[0].kmers == pair[1].start {
                assert_ne!(pair[0].minimizer, pair[1].minimizer);
            }
        }
    }

    #[test]
    fn minimizer_is_strand_invariant() {
        let seq = b"ACGGTTACGGATCCGATTACAGG";
        for (k, m) in [(11usize, 5usize), (15, 7)] {
            for (pos, km) in kmer_positions(seq, k) {
                let rc = km.revcomp();
                assert_eq!(
                    kmer_minimizer(&km, m),
                    kmer_minimizer(&rc, m),
                    "pos={pos} k={k} m={m}"
                );
            }
        }
    }

    #[test]
    fn supermers_compress_long_reads() {
        // On a homopolymer-free pseudo-random read the average supermer covers
        // several k-mers, so the wire bytes undercut 32 bytes/k-mer by a lot.
        let seq: Vec<u8> = (0..600)
            .map(|i| [b'A', b'C', b'G', b'T'][((i * 2654435761usize) >> 7) % 4])
            .collect();
        let (k, m) = (21usize, 15usize);
        let sms = supermers(&seq, k, m);
        let kmer_count: usize = sms.iter().map(|s| s.kmers).sum();
        assert_eq!(kmer_count, seq.len() - k + 1);
        let wire: usize = sms.iter().map(|s| supermer_wire_bytes(s.len)).sum();
        assert!(
            wire * 4 < kmer_count * 32,
            "supermer encoding should be at least 4x smaller: {wire} bytes for {kmer_count} kmers"
        );
    }

    #[test]
    fn hash_ordered_minimizers_change_at_the_random_order_density() {
        // LCG-random 150 bp reads at k = 21, m = 12: w = 10 m-mers per
        // window, and a random order moves the minimizer at about 2/(w+1)
        // of the window steps (Marçais et al. 2017). Each read's first
        // window starts a record too.
        let (k, m, len) = (21usize, 12usize, 150usize);
        let w = k - m + 1;
        let (mut records, mut steps) = (0usize, 0usize);
        for read in 0..2_000u64 {
            let cut = supermers(&random_bases(len, 0x5EED + 7_919 * read), k, m);
            assert_eq!(cut.iter().map(|sm| sm.kmers).sum::<usize>(), len - k + 1);
            records += cut.len() - 1;
            steps += len - k;
        }
        let density = records as f64 / steps as f64;
        let random = 2.0 / (w + 1) as f64;
        println!("{records} records in {steps} window steps: {density:.4} (2/(w+1) = {random:.4})");
        assert!(
            (density - random).abs() < 0.05 * random,
            "records per window step {density:.4}, a random order's {random:.4}"
        );
    }

    #[test]
    fn oversize_same_minimizer_runs_split_and_still_roundtrip() {
        // A >u16::MAX homopolymer: every window shares the poly-A minimizer,
        // so without splitting the single run would overflow the wire
        // header's u16 length.
        let seq = vec![b'A'; MAX_SUPERMER_BASES + 5_000];
        let (k, m) = (21usize, 15usize);
        let sms = supermers(&seq, k, m);
        assert!(sms.len() >= 2, "oversize run must be split");
        assert!(sms.iter().all(|s| s.len <= MAX_SUPERMER_BASES));
        assert_eq!(
            sms.iter().map(|s| s.kmers).sum::<usize>(),
            seq.len() - k + 1
        );
        // Consecutive pieces tile the read without gaps.
        for pair in sms.windows(2) {
            assert_eq!(pair[0].start + pair[0].kmers, pair[1].start);
        }
        // And the codec roundtrip still reproduces the per-k-mer stream.
        let mut blob = Vec::new();
        for sm in &sms {
            encode_supermer(&mut blob, &seq, &[], 20, sm);
        }
        let mut decoded = 0usize;
        for rec in SupermerBlobIter::new(&blob) {
            expand_supermer(&rec, k, |obs| {
                assert_eq!(obs.kmer.to_string(), "A".repeat(k));
                decoded += 1;
            });
        }
        assert_eq!(decoded, seq.len() - k + 1);
    }

    #[test]
    fn copy_bits_shifts_any_span_to_the_start() {
        let src: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        let bit = |buf: &[u8], i: usize| (buf[i / 8] >> (i % 8)) & 1;
        for from in 0..24 {
            for n in 1..=200usize {
                let mut dst = vec![0xA5; n.div_ceil(8)];
                copy_bits(&src, from, n, &mut dst);
                for i in 0..dst.len() * 8 {
                    let want = if i < n { bit(&src, from + i) } else { 0 };
                    assert_eq!(bit(&dst, i), want, "from={from} n={n} bit {i}");
                }
            }
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let values: Vec<u64> = (0..1000).map(|i| i * 7919).collect();
        let ranks = 5;
        let mut counts = vec![0usize; ranks];
        for &v in &values {
            let s = minimizer_shard(v, ranks);
            assert_eq!(s, minimizer_shard(v, ranks));
            counts[s] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "skewed shards: {counts:?}");
    }

    #[test]
    #[should_panic]
    fn m_larger_than_k_rejected() {
        let _ = supermers(b"ACGTACGT", 5, 6);
    }
}

//! Canonical m-mer minimizers and supermer extraction (§II-B communication
//! optimisation).
//!
//! Shipping every canonical k-mer of every read to its owner rank costs
//! ~32 bytes per k-mer occurrence. Consecutive k-mers of a read overlap in
//! k−1 bases, so almost all of those bytes are redundant. A *minimizer*
//! scheme removes the redundancy: the minimizer of a k-mer is its
//! lexicographically smallest canonical m-mer (m ≤ k), and a **supermer** is
//! a maximal run of consecutive k-mers of a read that share the same
//! minimizer. A supermer of s k-mers spans s+k−1 bases and is shipped as
//! packed 2-bit sequence plus a one-bit-per-base quality sidecar and the two
//! boundary extension bases — ~(s+k−1)/4 bytes instead of ~32·s. Because a
//! k-mer and its reverse complement contain the same set of canonical m-mers,
//! the minimizer is strand-invariant, so routing supermers by minimizer sends
//! *every* occurrence of a canonical k-mer to the same destination: the owner
//! can count locally without any further communication.
//!
//! The pieces, in pipeline order:
//!
//! * [`SupermerIter`] — streaming iterator over the supermers of one read
//!   (window minimizers are computed with a monotonic deque, O(1) amortised
//!   per base);
//! * [`encode_supermer`] — appends one supermer's wire record to a byte
//!   buffer (the per-owner aggregation buffers of the exchange);
//! * [`SupermerBlobIter`] / [`expand_supermer`] — the receive side: frames
//!   records out of an aggregated blob and expands each back into exactly the
//!   [`CanonicalKmerExt`] observations the per-k-mer extraction
//!   ([`crate::extract::kmers_with_exts_iter`]) would have produced;
//! * [`kmer_minimizer`] / [`minimizer_shard`] — the canonical minimizer of a
//!   single (canonical) k-mer and its deterministic shard assignment, used by
//!   the minimizer-based `dht` partitioner so that table ownership agrees
//!   with supermer routing.
//!
//! Minimizer length is capped at [`MAX_MINIMIZER_LEN`] so an m-mer fits one
//! `u64` (2 bits per base, base 0 in the high bits so that integer order
//! equals lexicographic order).

use crate::ext::ExtPair;
use crate::extract::CanonicalKmerExt;
use crate::kernels;
use crate::kmer::Kmer;
use mhm_simd::{encode_codes, find_non_acgt};
use seqio::alphabet::encode_base;
use std::collections::VecDeque;

/// Largest supported minimizer length: 31 bases pack into 62 bits of a `u64`.
pub const MAX_MINIMIZER_LEN: usize = 31;

/// Largest supermer length in bases: the wire record stores the length in a
/// `u16`. [`SupermerIter`] splits longer same-minimizer runs (possible in
/// pathological homopolymer stretches of very long reads) into consecutive
/// supermers, which expand to identical observations.
pub const MAX_SUPERMER_BASES: usize = u16::MAX as usize;

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

/// Packed-m-mer helper: rolls a forward value (base 0 in the high bits, so
/// integer comparison is lexicographic comparison) and the reverse-complement
/// value in lockstep.
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
            mask: if 2 * m == 64 {
                u64::MAX
            } else {
                (1u64 << (2 * m)) - 1
            },
            fwd: 0,
            rc: 0,
            filled: 0,
        }
    }

    /// Rolls one 2-bit base code in; returns the canonical m-mer value once
    /// `m` bases have been consumed.
    #[inline]
    fn push(&mut self, code: u8) -> Option<u64> {
        self.fwd = ((self.fwd << 2) | code as u64) & self.mask;
        self.rc = (self.rc >> 2) | (((3 - code) as u64) << (2 * (self.m - 1)));
        self.filled = (self.filled + 1).min(self.m);
        (self.filled == self.m).then(|| self.fwd.min(self.rc))
    }
}

/// The canonical minimizer value of a single k-mer: the minimum canonical
/// m-mer value over its k−m+1 windows. Strand-invariant, so it can be
/// computed on the canonical key and still agree with the read-orientation
/// routing of [`SupermerIter`].
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
    /// The shared canonical minimizer value (routing key).
    pub minimizer: u64,
}

/// Streaming supermer iterator over one read. Yields the same k-mer windows
/// as [`crate::extract::kmer_positions`] (windows containing non-ACGT bases
/// are skipped), grouped into maximal same-minimizer runs. Window minimizers
/// are maintained with a monotonic deque, so the whole read is processed in
/// O(len) time and O(k) transient space.
pub struct SupermerIter<'a> {
    seq: &'a [u8],
    k: usize,
    m: usize,
    /// Next read position to scan for the current ambiguity-free stretch.
    cursor: usize,
    /// Start of the current ambiguity-free stretch (the origin of `codes`).
    stretch_start: usize,
    /// Exclusive end of the current ambiguity-free stretch (cursor..stretch_end
    /// is all-ACGT once a stretch is entered).
    stretch_end: usize,
    /// Bulk-encoded 2-bit codes of the current stretch, one byte per base
    /// (`codes[i]` is read position `stretch_start + i`), filled once per
    /// stretch by the vectorised encoder.
    codes: Vec<u8>,
    /// Next k-mer window position to emit within the stretch.
    window: usize,
    /// Monotonic deque of `(m-window position, canonical value)`, values
    /// non-decreasing front to back.
    deque: VecDeque<(usize, u64)>,
    roller: MmerRoller,
    /// Lookahead: the next window's `(position, minimizer)` when the previous
    /// [`Iterator::next`] call already computed it to detect its run's end.
    pending: Option<(usize, u64)>,
}

impl<'a> SupermerIter<'a> {
    /// Creates the iterator. `m` must be in `1..=min(k, MAX_MINIMIZER_LEN)`.
    pub fn new(seq: &'a [u8], k: usize, m: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(m >= 1 && m <= k, "minimizer length must be in 1..=k");
        SupermerIter {
            seq,
            k,
            m,
            cursor: 0,
            stretch_start: 0,
            stretch_end: 0,
            codes: Vec::new(),
            window: 0,
            deque: VecDeque::new(),
            roller: MmerRoller::new(m),
            pending: None,
        }
    }

    /// Advances to the next ambiguity-free stretch of at least k bases.
    /// Returns false when the read is exhausted. The stretch boundary is
    /// located with the vectorised non-ACGT probe and its bases are
    /// bulk-translated to 2-bit codes in one pass, so the per-base work of
    /// the scan loop reduces to a table-free byte load.
    fn enter_stretch(&mut self) -> bool {
        let n = self.seq.len();
        loop {
            // Skip invalid bases (invalid runs are rare and short).
            while self.cursor < n && encode_base(self.seq[self.cursor]).is_none() {
                self.cursor += 1;
            }
            if self.cursor + self.k > n {
                return false;
            }
            let start = self.cursor;
            let end = match find_non_acgt(&self.seq[start..]) {
                Some(i) => start + i,
                None => n,
            };
            if end - start >= self.k {
                self.stretch_start = start;
                self.stretch_end = end;
                self.codes.clear();
                self.codes.resize(end - start, 0);
                encode_codes(&self.seq[start..end], &mut self.codes);
                self.window = start;
                self.deque.clear();
                self.roller = MmerRoller::new(self.m);
                // Prime the roller up to (but excluding) the first window's
                // final base; `window_minimizer` pushes exactly that one.
                for pos in start..start + self.k - 1 {
                    self.push_mmer(pos);
                }
                return true;
            }
            self.cursor = end;
        }
    }

    /// Feeds base at `pos` into the roller; when an m-window completes, pushes
    /// its canonical value onto the monotonic deque.
    fn push_mmer(&mut self, pos: usize) {
        let code = self.codes[pos - self.stretch_start];
        if let Some(value) = self.roller.push(code) {
            let mpos = pos + 1 - self.m;
            while matches!(self.deque.back(), Some(&(_, v)) if v >= value) {
                self.deque.pop_back();
            }
            self.deque.push_back((mpos, value));
        }
    }

    /// The minimizer of the k-mer window starting at `w`: minimum canonical
    /// m-mer over m-window positions `w ..= w+k-m`.
    fn window_minimizer(&mut self, w: usize) -> u64 {
        // Complete the window's last m-mer (ending at w+k-1).
        self.push_mmer(w + self.k - 1);
        while matches!(self.deque.front(), Some(&(p, _)) if p < w) {
            self.deque.pop_front();
        }
        self.deque.front().expect("window has at least one m-mer").1
    }
}

impl Iterator for SupermerIter<'_> {
    type Item = Supermer;

    fn next(&mut self) -> Option<Supermer> {
        // First window of this supermer: either the lookahead left over from
        // the previous call, or a freshly computed one (entering the next
        // ambiguity-free stretch if the current one is exhausted).
        let (start, minimizer) = match self.pending.take() {
            Some(pm) => pm,
            None => {
                if self.window + self.k > self.stretch_end {
                    self.cursor = self.stretch_end.max(self.cursor);
                    if !self.enter_stretch() {
                        return None;
                    }
                }
                let w = self.window;
                (w, self.window_minimizer(w))
            }
        };
        // Cap the run so the supermer's base length always fits the u16 wire
        // header; an oversize same-minimizer run (a pathological homopolymer
        // stretch) is split into back-to-back supermers, which expand to the
        // same observations and route to the same owner.
        let max_kmers = MAX_SUPERMER_BASES.saturating_sub(self.k - 1).max(1);
        let mut kmers = 1usize;
        while kmers < max_kmers && start + kmers + self.k <= self.stretch_end {
            let next_w = start + kmers;
            let next_min = self.window_minimizer(next_w);
            if next_min != minimizer {
                self.pending = Some((next_w, next_min));
                break;
            }
            kmers += 1;
        }
        self.window = start + kmers;
        Some(Supermer {
            start,
            len: kmers + self.k - 1,
            kmers,
            minimizer,
        })
    }
}

/// Convenience: all supermers of a read, collected.
pub fn supermers(seq: &[u8], k: usize, m: usize) -> Vec<Supermer> {
    SupermerIter::new(seq, k, m).collect()
}

// --- Wire format -----------------------------------------------------------
//
// One record, appended to a per-owner byte buffer:
//
//   [len lo] [len hi]                u16 length L in bases
//   [flags]                          bit0 has-left, bit1 left-hq,
//                                    bit2 has-right, bit3 right-hq
//   [bounds]                         bits 0-1 left base code, bits 2-3 right
//   [ceil(L/4) packed 2-bit bases]   base i in bits 2*(i%4) of byte i/4
//   [ceil(L/8) hq bits]              base i high-quality in bit i%8 of byte i/8
//
// The boundary bases are the read bases immediately before/after the supermer
// (absent at read ends and next to ambiguous bases), so the receive side can
// reconstruct the first window's left extension and the last window's right
// extension; interior extensions are implicit in the packed sequence.

/// Number of wire bytes one supermer of `len` bases occupies.
#[inline]
pub fn supermer_wire_bytes(len: usize) -> usize {
    4 + len.div_ceil(4) + len.div_ceil(8)
}

/// Appends the wire record of `sm` (a supermer of `seq`) to `out`, returning
/// the number of bytes written. `qual` must be empty (all bases high quality)
/// or as long as `seq`; `hq_threshold` is applied on the sender so the
/// receive side never needs the Phred scores themselves.
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
    assert!(
        sm.len <= u16::MAX as usize,
        "supermer too long for the wire"
    );
    let before = out.len();
    let hq_at = |i: usize| qual.is_empty() || qual[i] >= hq_threshold;
    let boundary = |i: Option<usize>| -> Option<(u8, bool)> {
        let i = i?;
        encode_base(*seq.get(i)?).map(|c| (c, hq_at(i)))
    };
    let left = boundary(sm.start.checked_sub(1));
    let right = boundary(Some(sm.start + sm.len));

    out.extend_from_slice(&(sm.len as u16).to_le_bytes());
    let mut flags = 0u8;
    let mut bounds = 0u8;
    if let Some((c, hq)) = left {
        flags |= 1 | (u8::from(hq) << 1);
        bounds |= c;
    }
    if let Some((c, hq)) = right {
        flags |= (1 << 2) | (u8::from(hq) << 3);
        bounds |= c << 2;
    }
    out.push(flags);
    out.push(bounds);

    let base = out.len();
    out.resize(base + sm.len.div_ceil(4) + sm.len.div_ceil(8), 0);
    let (packed, hq_bits) = out[base..].split_at_mut(sm.len.div_ceil(4));
    kernels::pack_ascii(&seq[sm.start..sm.start + sm.len], packed, |_, b| {
        panic!("supermer bases are unambiguous, got {:?}", b as char)
    });
    if qual.is_empty() {
        // All bases high quality: whole bytes of ones, tail bits masked.
        hq_bits.fill(0xFF);
        if !sm.len.is_multiple_of(8) {
            *hq_bits.last_mut().expect("len > 0") = (1u8 << (sm.len % 8)) - 1;
        }
    } else {
        for (i, hb) in hq_bits.iter_mut().enumerate() {
            let mut bits = 0u8;
            for j in 0..8.min(sm.len - i * 8) {
                bits |= u8::from(qual[sm.start + i * 8 + j] >= hq_threshold) << j;
            }
            *hb = bits;
        }
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
    packed: &'a [u8],
    hq: &'a [u8],
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

/// Frames [`SupermerRecord`]s out of one aggregated wire blob.
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
        let flags = rest[2];
        let bounds = rest[3];
        let packed_len = len.div_ceil(4);
        let hq_len = len.div_ceil(8);
        assert!(
            rest.len() >= 4 + packed_len + hq_len,
            "truncated supermer record body"
        );
        let record = SupermerRecord {
            len,
            left: (flags & 1 != 0).then_some((bounds & 0b11, flags & 0b10 != 0)),
            right: (flags & 0b100 != 0).then_some(((bounds >> 2) & 0b11, flags & 0b1000 != 0)),
            packed: &rest[4..4 + packed_len],
            hq: &rest[4 + packed_len..4 + packed_len + hq_len],
        };
        self.off += supermer_wire_bytes(len);
        Some(record)
    }
}

/// Expands one supermer record into the canonical k-mer observations it
/// encodes, calling `emit` once per window — exactly the observations
/// [`crate::extract::kmers_with_exts_iter`] produces for the covered windows
/// of the original read.
pub fn expand_supermer(
    record: &SupermerRecord<'_>,
    k: usize,
    mut emit: impl FnMut(CanonicalKmerExt),
) {
    let mut km = record.first_kmer(k);
    let windows = record.len - k + 1;
    for w in 0..windows {
        if w > 0 {
            km = km.extended_right(record.code_at(w + k - 1));
        }
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
        let exts = ExtPair { left, right };
        let (canon, was_rc) = km.canonical();
        let exts = if was_rc { exts.revcomp() } else { exts };
        emit(CanonicalKmerExt { kmer: canon, exts });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{kmer_positions, kmers_with_exts};

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
    fn roundtrip_reproduces_per_kmer_observations() {
        let seq = b"ACGGTTACGGATNCCGATTACAGGCATTACAGGTCCGATCAG";
        let qual: Vec<u8> = (0..seq.len()).map(|i| 10 + ((i * 7) % 35) as u8).collect();
        for (k, m) in [(7usize, 3usize), (9, 5), (13, 13)] {
            let mut blob = Vec::new();
            for sm in SupermerIter::new(seq, k, m) {
                encode_supermer(&mut blob, seq, &qual, 20, &sm);
            }
            let mut decoded = Vec::new();
            for rec in SupermerBlobIter::new(&blob) {
                expand_supermer(&rec, k, |obs| decoded.push(obs));
            }
            let expect = kmers_with_exts(seq, &qual, k, 20);
            assert_eq!(decoded, expect, "k={k} m={m}");
        }
    }

    #[test]
    fn roundtrip_with_empty_quality() {
        let seq = b"ACGGTTACGGATCCGATTACAGG";
        let (k, m) = (9usize, 5usize);
        let mut blob = Vec::new();
        for sm in SupermerIter::new(seq, k, m) {
            encode_supermer(&mut blob, seq, &[], 20, &sm);
        }
        let mut decoded = Vec::new();
        for rec in SupermerBlobIter::new(&blob) {
            expand_supermer(&rec, k, |obs| decoded.push(obs));
        }
        assert_eq!(decoded, kmers_with_exts(seq, &[], k, 20));
    }

    #[test]
    fn wire_bytes_match_encoding() {
        let seq = b"ACGGTTACGGATCCGATTACAGG";
        let (k, m) = (11usize, 7usize);
        let mut blob = Vec::new();
        for sm in SupermerIter::new(seq, k, m) {
            let wrote = encode_supermer(&mut blob, seq, &[], 20, &sm);
            assert_eq!(wrote, supermer_wire_bytes(sm.len));
        }
        assert_eq!(
            SupermerBlobIter::new(&blob).count(),
            supermers(seq, k, m).len()
        );
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

//! Borrowed 2-bit views of reads.
//!
//! The read store keeps every read 2-bit packed (four bases per byte, base
//! `i` in bits `2*(i%4)` of byte `i/4`, the layout of the `kmers` crate's
//! k-mer words) with an exception list for non-ACGT bytes and run-length
//! encoded Phred scores. A [`PackedReadView`] borrows those three parts as
//! they lie, so a consumer that works on 2-bit codes — k-mer analysis — never
//! sees ASCII. [`ReadPacker`] produces the same view from an ASCII
//! [`crate::Read`] into buffers it reuses from read to read.

use crate::alphabet::encode_base;

/// One read as 2-bit codes, exceptions and quality runs, borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedReadView<'a> {
    /// Length in bases.
    pub len: usize,
    /// 2-bit codes (`A=0, C=1, G=2, T=3`), four bases per byte, base `i` in
    /// bits `2*(i%4)` of byte `i/4`; an exception's code is 0.
    pub codes: &'a [u8],
    /// `(position, raw byte)` of every base that is not an upper- or
    /// lower-case A/C/G/T, ascending.
    pub exceptions: &'a [(u32, u8)],
    /// `(score, run)` pairs covering the read from its first base; a run
    /// longer than 255 repeats the pair. Empty means every base is high
    /// quality.
    pub qual_runs: &'a [(u8, u8)],
}

impl PackedReadView<'_> {
    /// The 2-bit code of base `i` (0 at an exception).
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        (self.codes[i / 4] >> (2 * (i % 4))) & 0b11
    }

    /// True if base `i` exists and is one of A/C/G/T.
    #[inline]
    pub fn is_acgt(&self, i: usize) -> bool {
        i < self.len
            && self
                .exceptions
                .binary_search_by_key(&(i as u32), |&(pos, _)| pos)
                .is_err()
    }

    /// Writes the read's high-quality mask into `out`: bit `i%8` of byte
    /// `i/8` is set iff base `i` scores at least `threshold` (every base, when
    /// the view has no quality runs). Bits past the read are zero. One pass
    /// over the runs, not over the bases.
    pub fn hq_mask(&self, threshold: u8, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.len.div_ceil(8), 0);
        if self.qual_runs.is_empty() {
            set_bits(out, 0, self.len);
            return;
        }
        let mut pos = 0usize;
        for &(score, run) in self.qual_runs {
            let end = pos + run as usize;
            if score >= threshold {
                set_bits(out, pos, end);
            }
            pos = end;
        }
        debug_assert_eq!(pos, self.len, "quality runs must cover the read");
    }
}

/// Sets bits `from..to` of a little-endian bit mask.
fn set_bits(mask: &mut [u8], from: usize, to: usize) {
    let mut i = from;
    while i < to && !i.is_multiple_of(8) {
        mask[i / 8] |= 1 << (i % 8);
        i += 1;
    }
    while i + 8 <= to {
        mask[i / 8] = 0xFF;
        i += 8;
    }
    while i < to {
        mask[i / 8] |= 1 << (i % 8);
        i += 1;
    }
}

/// Appends the run-length encoding of `qual` to `runs`: `(score, run)` pairs,
/// a run longer than 255 split into repeats of the pair.
pub fn push_quality_runs(qual: &[u8], runs: &mut Vec<(u8, u8)>) {
    let first = runs.len();
    for &q in qual {
        match runs[first..].last_mut() {
            Some((lq, run)) if *lq == q && *run < u8::MAX => *run += 1,
            _ => runs.push((q, 1)),
        }
    }
}

/// A read a 2-bit consumer can see as a [`PackedReadView`] of its bases (no
/// quality runs): a packed read lends its own bytes, an ASCII [`crate::Read`]
/// packs itself into the caller's reused [`ReadPacker`] — case folded, every
/// other non-ACGT byte kept as an exception, the read store's packing.
pub trait AsPackedRead {
    /// The read's bases as 2-bit codes and exceptions.
    fn packed<'a>(&'a self, packer: &'a mut ReadPacker) -> PackedReadView<'a>;
}

impl AsPackedRead for crate::Read {
    fn packed<'a>(&'a self, packer: &'a mut ReadPacker) -> PackedReadView<'a> {
        packer.pack(&self.seq, &[])
    }
}

impl<T: AsPackedRead + ?Sized> AsPackedRead for &T {
    fn packed<'a>(&'a self, packer: &'a mut ReadPacker) -> PackedReadView<'a> {
        (**self).packed(packer)
    }
}

/// [`CODE_OF`]'s mark for a byte that is not an upper- or lower-case A/C/G/T.
const NOT_ACGT: u8 = 4;

/// [`encode_base`] as a table: every byte's 2-bit code, or [`NOT_ACGT`].
static CODE_OF: [u8; 256] = {
    let mut table = [NOT_ACGT; 256];
    let mut b = 0;
    while b < 256 {
        if let Some(code) = encode_base(b as u8) {
            table[b] = code;
        }
        b += 1;
    }
    table
};

/// Packs ASCII reads into [`PackedReadView`]s, reusing its buffers from one
/// read to the next.
#[derive(Debug, Default)]
pub struct ReadPacker {
    codes: Vec<u8>,
    exceptions: Vec<(u32, u8)>,
    qual_runs: Vec<(u8, u8)>,
}

impl ReadPacker {
    /// Packs `seq` (any case; non-ACGT bytes become exceptions) with `qual`,
    /// which must be empty (every base high quality) or as long as `seq`.
    pub fn pack(&mut self, seq: &[u8], qual: &[u8]) -> PackedReadView<'_> {
        assert!(
            qual.is_empty() || qual.len() == seq.len(),
            "quality must be empty or match sequence length"
        );
        assert!(seq.len() <= u32::MAX as usize, "sequence too long to pack");
        self.codes.clear();
        self.codes.resize(seq.len().div_ceil(4), 0);
        self.exceptions.clear();
        for (at, (bases, byte)) in seq.chunks(4).zip(&mut self.codes).enumerate() {
            for (j, &b) in bases.iter().enumerate() {
                match CODE_OF[b as usize] {
                    NOT_ACGT => self.exceptions.push(((4 * at + j) as u32, b)),
                    code => *byte |= code << (2 * j),
                }
            }
        }
        self.qual_runs.clear();
        push_quality_runs(qual, &mut self.qual_runs);
        PackedReadView {
            len: seq.len(),
            codes: &self.codes,
            exceptions: &self.exceptions,
            qual_runs: &self.qual_runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::decode_base;

    fn unpack(view: &PackedReadView<'_>) -> Vec<u8> {
        let mut seq: Vec<u8> = (0..view.len)
            .map(|i| decode_base(view.code_at(i)))
            .collect();
        for &(pos, b) in view.exceptions {
            seq[pos as usize] = b;
        }
        seq
    }

    #[test]
    fn packer_keeps_codes_exceptions_and_runs() {
        let mut packer = ReadPacker::default();
        let view = packer.pack(b"NACgtNNxT", &[2, 2, 30, 30, 30, 9, 9, 9, 40]);
        assert_eq!(view.len, 9);
        assert_eq!(
            view.exceptions,
            &[(0, b'N'), (5, b'N'), (6, b'N'), (7, b'x')]
        );
        assert_eq!(unpack(&view), b"NACGTNNxT");
        assert_eq!(view.qual_runs, &[(2, 2), (30, 3), (9, 3), (40, 1)]);
        let acgt: Vec<bool> = (0..10).map(|i| view.is_acgt(i)).collect();
        assert_eq!(
            acgt,
            [false, true, true, true, true, false, false, false, true, false]
        );
        // The buffers are reused: a shorter read leaves nothing behind.
        let view = packer.pack(b"GA", &[]);
        assert_eq!(
            (view.codes, view.exceptions, view.qual_runs),
            (&[0b0010][..], &[][..], &[][..])
        );
    }

    #[test]
    fn quality_runs_split_at_255() {
        let mut runs = vec![(7, 7)];
        push_quality_runs(&[35; 600], &mut runs);
        assert_eq!(runs, [(7, 7), (35, 255), (35, 255), (35, 90)]);
    }

    #[test]
    fn hq_mask_follows_the_runs() {
        let len = 700;
        let qual: Vec<u8> = (0..len)
            .map(|i| {
                if (13..300).contains(&i) || i % 97 == 5 {
                    30
                } else {
                    10
                }
            })
            .collect();
        let seq = vec![b'A'; len];
        let mut packer = ReadPacker::default();
        let mut mask = vec![0xAB; 3];
        for threshold in [0u8, 10, 11, 30, 31] {
            packer.pack(&seq, &qual).hq_mask(threshold, &mut mask);
            assert_eq!(mask.len(), len.div_ceil(8));
            for (i, &q) in qual.iter().enumerate() {
                assert_eq!(
                    mask[i / 8] >> (i % 8) & 1 == 1,
                    q >= threshold,
                    "{i} @ {threshold}"
                );
            }
            assert_eq!(mask[len / 8] >> (len % 8), 0, "bits past the read");
        }
        // No runs: every base is high quality.
        packer.pack(&seq[..11], &[]).hq_mask(u8::MAX, &mut mask);
        assert_eq!(mask, [0xFF, 0b111]);
    }
}

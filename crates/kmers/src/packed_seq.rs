//! A 2-bit-packed DNA sequence with an exception list for rare non-ACGT
//! bytes, built on the bulk [`crate::kernels`] codecs.
//!
//! This is the shared packed representation of both distributed sequence
//! stores: the contig store (`dbg::ContigStore`) packs assembled contigs with
//! it, and the read store (`readstore::ReadStore`) packs read sequences. It
//! lives here — below both — because packing and unpacking go through the
//! word-parallel/SIMD kernels of this crate.

use seqio::PackedReadView;

/// A 2-bit-packed DNA sequence with an exception list for rare non-ACGT
/// bytes, so packing is lossless for any input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSeq {
    /// 2-bit codes, four bases per byte, least-significant pair first.
    data: Vec<u8>,
    len: u32,
    /// `(position, raw byte)` of bases that are not A/C/G/T (sorted).
    exceptions: Vec<(u32, u8)>,
}

impl PackedSeq {
    /// Packs a raw sequence via the bulk 2-bit encode kernel; the exception
    /// callback keeps the list sorted because invalid bytes are reported in
    /// position order.
    pub fn from_bytes(seq: &[u8]) -> Self {
        assert!(seq.len() <= u32::MAX as usize, "sequence too long to pack");
        let mut data = vec![0u8; seq.len().div_ceil(4)];
        let mut exceptions = Vec::new();
        crate::kernels::pack_ascii(seq, &mut data, |i, b| exceptions.push((i as u32, b)));
        PackedSeq {
            data,
            len: seq.len() as u32,
            exceptions,
        }
    }

    /// Unpacked length in bases.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the sequence holds no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident size of the packed representation in bytes (the unit of the
    /// stores' memory accounting and of the reader cache bounds).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() + self.exceptions.len() * std::mem::size_of::<(u32, u8)>() + 4
    }

    /// Unpacks the whole sequence.
    pub fn unpack(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        crate::kernels::unpack_ascii(&self.data, 0, self.len(), &mut out);
        for &(pos, b) in &self.exceptions {
            out[pos as usize] = b;
        }
        out
    }

    /// The raw representation — `(length in bases, 2-bit code bytes,
    /// sorted exception list)` — for serializers (e.g. checkpoint shard
    /// files). Round-trips through [`PackedSeq::from_parts`].
    pub fn to_parts(&self) -> (usize, &[u8], &[(u32, u8)]) {
        (self.len as usize, &self.data, &self.exceptions)
    }

    /// The sequence as a [`PackedReadView`] with no quality runs (every base
    /// high quality) — the same bytes, borrowed.
    pub fn view(&self) -> PackedReadView<'_> {
        PackedReadView {
            len: self.len as usize,
            codes: &self.data,
            exceptions: &self.exceptions,
            qual_runs: &[],
        }
    }

    /// Rebuilds a sequence from the raw representation produced by
    /// [`PackedSeq::to_parts`]. Validates the invariants a deserializer
    /// could violate (code-byte count, exception positions in bounds and
    /// sorted) so a corrupt input fails loudly here rather than as garbage
    /// bases downstream.
    pub fn from_parts(len: usize, data: Vec<u8>, exceptions: Vec<(u32, u8)>) -> Self {
        assert!(len <= u32::MAX as usize, "sequence too long to pack");
        assert_eq!(data.len(), len.div_ceil(4), "packed byte count mismatch");
        assert!(
            exceptions.windows(2).all(|w| w[0].0 < w[1].0)
                && exceptions.last().is_none_or(|&(p, _)| (p as usize) < len),
            "exception list must be sorted and in bounds"
        );
        PackedSeq {
            data,
            len: len as u32,
            exceptions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random sequence with occasional N bytes.
    fn seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(31) {
                    b'N'
                } else {
                    b"ACGT"[(state % 4) as usize]
                }
            })
            .collect()
    }

    #[test]
    fn packed_seq_roundtrips() {
        for len in [0usize, 1, 3, 4, 5, 63, 64, 257] {
            let s = seq(len, len as u64 + 1);
            let p = PackedSeq::from_bytes(&s);
            assert_eq!(p.len(), len);
            assert_eq!(p.unpack(), s);
            assert!(p.packed_bytes() <= len / 4 + 1 + 16 + 8 * len / 16);
        }
    }

    #[test]
    fn parts_round_trip_is_lossless() {
        for len in [0usize, 1, 4, 63, 257] {
            let s = seq(len, len as u64 + 11);
            let p = PackedSeq::from_bytes(&s);
            let (n, data, exceptions) = p.to_parts();
            let q = PackedSeq::from_parts(n, data.to_vec(), exceptions.to_vec());
            assert_eq!(q, p);
            assert_eq!(q.unpack(), s);
        }
    }

    #[test]
    #[should_panic(expected = "packed byte count mismatch")]
    fn from_parts_rejects_wrong_byte_count() {
        PackedSeq::from_parts(10, vec![0u8; 2], Vec::new());
    }

    #[test]
    #[should_panic(expected = "sorted and in bounds")]
    fn from_parts_rejects_out_of_bounds_exception() {
        PackedSeq::from_parts(4, vec![0u8; 1], vec![(9, b'N')]);
    }
}

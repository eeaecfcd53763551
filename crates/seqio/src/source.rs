//! Streaming read sources.
//!
//! K-mer analysis consumes reads as a *stream* of 2-bit views: it never needs
//! random access, only (possibly repeated) in-order passes over this rank's
//! share of the input, and it works on base codes, not ASCII. [`ReadSource`]
//! abstracts that contract. The distributed read store hands out views of its
//! packed blocks as they lie; the ASCII source here, a slice of [`Read`]s,
//! packs each read into one reused [`ReadPacker`] first.

use crate::packed::{PackedReadView, ReadPacker};
use crate::read::Read;

/// A multi-pass stream of this rank's reads as [`PackedReadView`]s.
///
/// `for_each_read` may be called several times; every call must replay the
/// same reads in the same order. A view lives only for its call of `f`.
pub trait ReadSource {
    /// Calls `f` once per read, in stream order.
    fn for_each_read(&mut self, f: &mut dyn FnMut(PackedReadView<'_>));
}

/// A slice of reads already in memory.
impl ReadSource for &[Read] {
    fn for_each_read(&mut self, f: &mut dyn FnMut(PackedReadView<'_>)) {
        let mut packer = ReadPacker::default();
        for read in self.iter() {
            f(packer.pack(&read.seq, &read.qual));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::ReadLibrary;

    type Owned = (usize, Vec<u8>, Vec<(u32, u8)>, Vec<(u8, u8)>);

    fn owned(view: PackedReadView<'_>) -> Owned {
        (
            view.len,
            view.codes.to_vec(),
            view.exceptions.to_vec(),
            view.qual_runs.to_vec(),
        )
    }

    fn packed(read: &Read) -> Owned {
        owned(ReadPacker::default().pack(&read.seq, &read.qual))
    }

    fn lib() -> ReadLibrary {
        let mut lib = ReadLibrary::new_paired("lib", 200, 20);
        lib.push_pair(
            Read::with_uniform_quality("a/1", b"ACGTACGT", 35),
            Read::with_uniform_quality("a/2", b"TTGGCCAA", 35),
        );
        lib.push_pair(
            Read::with_uniform_quality("b/1", b"ACNT", 35),
            Read::with_uniform_quality("b/2", b"GG", 30),
        );
        lib
    }

    #[test]
    fn slice_source_streams_in_order() {
        let lib = lib();
        let mut src: &[Read] = &lib.reads;
        let mut seen = Vec::new();
        src.for_each_read(&mut |r| seen.push(owned(r)));
        let expect: Vec<Owned> = lib.reads.iter().map(packed).collect();
        assert_eq!(seen, expect);
        // Second pass replays identically.
        let mut again = Vec::new();
        src.for_each_read(&mut |r| again.push(owned(r)));
        assert_eq!(again, seen);
    }
}

//! Streaming read sources.
//!
//! K-mer analysis consumes reads as a *stream*: it never needs random access,
//! only (possibly repeated) in-order passes over this rank's share of the
//! input. [`ReadSource`] abstracts that contract so the analysis can run
//! unchanged over a replicated slice of [`Read`]s, over id-keyed borrows from
//! a [`ReadLibrary`], or over the owned blocks of a distributed read store
//! that unpacks one block at a time — the bounded-memory ingestion path.

use crate::read::{Read, ReadId, ReadLibrary};

/// A multi-pass stream of this rank's reads.
///
/// `for_each_read` may be called several times; every call must replay the
/// same reads in the same order. Implementations backed by packed storage
/// materialise at most a bounded window of unpacked reads at a time.
pub trait ReadSource {
    /// Calls `f` once per read, in stream order.
    fn for_each_read(&mut self, f: &mut dyn FnMut(&Read));
}

/// The replicated baseline: a slice of reads already in memory.
impl ReadSource for &[Read] {
    fn for_each_read(&mut self, f: &mut dyn FnMut(&Read)) {
        for read in self.iter() {
            f(read);
        }
    }
}

/// Id-keyed borrows from a replicated [`ReadLibrary`]: streams the reads
/// named by `ids` without cloning them.
pub struct LibraryReads<'a> {
    lib: &'a ReadLibrary,
    ids: &'a [ReadId],
}

impl<'a> LibraryReads<'a> {
    pub fn new(lib: &'a ReadLibrary, ids: &'a [ReadId]) -> Self {
        LibraryReads { lib, ids }
    }
}

impl ReadSource for LibraryReads<'_> {
    fn for_each_read(&mut self, f: &mut dyn FnMut(&Read)) {
        for &id in self.ids {
            f(self.lib.read(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> ReadLibrary {
        let mut lib = ReadLibrary::new_paired("lib", 200, 20);
        lib.push_pair(
            Read::with_uniform_quality("a/1", b"ACGTACGT", 35),
            Read::with_uniform_quality("a/2", b"TTGGCCAA", 35),
        );
        lib.push_pair(
            Read::with_uniform_quality("b/1", b"ACGT", 35),
            Read::with_uniform_quality("b/2", b"GG", 35),
        );
        lib
    }

    #[test]
    fn slice_source_streams_in_order() {
        let lib = lib();
        let mut src: &[Read] = &lib.reads;
        let mut seen = Vec::new();
        src.for_each_read(&mut |r| seen.push(r.name.clone()));
        assert_eq!(seen, ["a/1", "a/2", "b/1", "b/2"]);
        // Second pass replays identically.
        let mut again = Vec::new();
        src.for_each_read(&mut |r| again.push(r.name.clone()));
        assert_eq!(again, seen);
    }

    #[test]
    fn library_ids_source_borrows_by_id() {
        let lib = lib();
        let ids = [2u64, 3, 0];
        let mut src = LibraryReads::new(&lib, &ids);
        let mut seen = Vec::new();
        src.for_each_read(&mut |r| seen.push(r.name.clone()));
        assert_eq!(seen, ["b/1", "b/2", "a/1"]);
    }
}

//! Sequencing reads, read pairs and read libraries.
//!
//! MetaHipMer's input is a set of *paired-end* short-read libraries: each DNA
//! template fragment of a known approximate length (the *insert size*) is
//! sequenced from both ends, producing two reads whose relative placement
//! carries long-range information used by scaffolding (span links) and local
//! assembly (projecting unaligned mates into gaps).

use crate::alphabet;

/// Identifier of a read inside a [`ReadLibrary`]. The pairing convention is
/// positional: reads `2*i` and `2*i + 1` are mates of pair `i`.
pub type ReadId = u64;

/// Relative orientation of the two reads of a pair on the template.
/// Illumina paired-end libraries are forward–reverse (the second read is the
/// reverse complement of template sequence downstream of the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOrientation {
    /// Forward–reverse (standard paired-end).
    ForwardReverse,
    /// Reverse–forward (mate-pair style libraries).
    ReverseForward,
}

/// A single sequencing read: a name, the base calls and per-base Phred quality
/// scores (raw, not ASCII-offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// Read name (as it would appear in a FASTQ header, without the leading `@`).
    pub name: String,
    /// Base calls (`ACGTN`, upper-case ASCII).
    pub seq: Vec<u8>,
    /// Phred quality scores, one per base (value, not ASCII character).
    pub qual: Vec<u8>,
}

impl Read {
    /// Creates a read, normalising the sequence to upper-case `ACGTN`.
    pub fn new(name: impl Into<String>, seq: &[u8], qual: &[u8]) -> Self {
        assert_eq!(
            seq.len(),
            qual.len(),
            "sequence and quality must have equal length"
        );
        Read {
            name: name.into(),
            seq: alphabet::normalize(seq),
            qual: qual.to_vec(),
        }
    }

    /// Creates a read with a flat quality score for every base.
    pub fn with_uniform_quality(name: impl Into<String>, seq: &[u8], q: u8) -> Self {
        let qual = vec![q; seq.len()];
        Read::new(name, seq, &qual)
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the read holds no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A pair of mated reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPair {
    pub r1: Read,
    pub r2: Read,
}

/// A read library: a flat vector of reads with positional pairing plus the
/// library metadata (insert size distribution, orientation) that scaffolding
/// and local assembly need.
///
/// Reads `2*i` and `2*i + 1` are the two ends of template `i`. Unpaired
/// libraries are represented by setting `paired = false`, in which case every
/// read stands alone.
#[derive(Debug, Clone)]
pub struct ReadLibrary {
    /// Library name (used in reports).
    pub name: String,
    /// All reads, pair-interleaved when `paired`.
    pub reads: Vec<Read>,
    /// Whether reads are pair-interleaved.
    pub paired: bool,
    /// Mean insert size (outer distance between pair ends) in bases.
    pub insert_size: usize,
    /// Standard deviation of the insert size.
    pub insert_sd: usize,
    /// Pair orientation.
    pub orientation: PairOrientation,
}

impl ReadLibrary {
    /// Creates an empty paired-end library with the given insert-size model.
    pub fn new_paired(name: impl Into<String>, insert_size: usize, insert_sd: usize) -> Self {
        ReadLibrary {
            name: name.into(),
            reads: Vec::new(),
            paired: true,
            insert_size,
            insert_sd,
            orientation: PairOrientation::ForwardReverse,
        }
    }

    /// Creates an empty unpaired library.
    pub fn new_unpaired(name: impl Into<String>) -> Self {
        ReadLibrary {
            name: name.into(),
            reads: Vec::new(),
            paired: false,
            insert_size: 0,
            insert_sd: 0,
            orientation: PairOrientation::ForwardReverse,
        }
    }

    /// Appends a read pair. Panics if the library is unpaired.
    pub fn push_pair(&mut self, r1: Read, r2: Read) {
        assert!(self.paired, "cannot push a pair into an unpaired library");
        self.reads.push(r1);
        self.reads.push(r2);
    }

    /// Appends a single read. Panics if the library is paired (pairs must stay
    /// interleaved).
    pub fn push_read(&mut self, r: Read) {
        assert!(!self.paired, "paired libraries must use push_pair");
        self.reads.push(r);
    }

    /// Number of reads in the library.
    pub fn num_reads(&self) -> usize {
        self.reads.len()
    }

    /// Number of pairs (0 for unpaired libraries).
    pub fn num_pairs(&self) -> usize {
        if self.paired {
            self.reads.len() / 2
        } else {
            0
        }
    }

    /// Total number of bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(|r| r.len()).sum()
    }

    /// Returns the mate's read id for a given read id, or `None` for unpaired
    /// libraries.
    pub fn mate_of(&self, id: ReadId) -> Option<ReadId> {
        if !self.paired {
            return None;
        }
        Some(id ^ 1)
    }

    /// Returns the read with the given id.
    pub fn read(&self, id: ReadId) -> &Read {
        &self.reads[id as usize]
    }

    /// Iterates over `(ReadId, &Read)`.
    pub fn iter(&self) -> impl Iterator<Item = (ReadId, &Read)> {
        self.reads.iter().enumerate().map(|(i, r)| (i as ReadId, r))
    }

    /// Iterates over read pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (&Read, &Read)> {
        self.reads.chunks_exact(2).map(|c| (&c[0], &c[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_read(name: &str, seq: &[u8]) -> Read {
        Read::with_uniform_quality(name, seq, 35)
    }

    #[test]
    fn read_construction_normalises() {
        let r = Read::new("r1", b"acgtx", &[30; 5]);
        assert_eq!(r.seq, b"ACGTN".to_vec());
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic]
    fn read_rejects_mismatched_quality() {
        let _ = Read::new("r1", b"ACGT", &[30; 3]);
    }

    #[test]
    fn library_pairing_conventions() {
        let mut lib = ReadLibrary::new_paired("lib", 300, 30);
        lib.push_pair(mk_read("a/1", b"ACGT"), mk_read("a/2", b"TTTT"));
        lib.push_pair(mk_read("b/1", b"GGGG"), mk_read("b/2", b"CCCC"));
        assert_eq!(lib.num_reads(), 4);
        assert_eq!(lib.num_pairs(), 2);
        assert_eq!(lib.mate_of(0), Some(1));
        assert_eq!(lib.mate_of(1), Some(0));
        assert_eq!(lib.mate_of(2), Some(3));
        assert_eq!(lib.total_bases(), 16);
        assert_eq!(lib.pairs().count(), 2);
    }

    #[test]
    fn unpaired_library_has_no_mates() {
        let mut lib = ReadLibrary::new_unpaired("u");
        lib.push_read(mk_read("a", b"ACGT"));
        assert_eq!(lib.mate_of(0), None);
        assert_eq!(lib.num_pairs(), 0);
    }
}

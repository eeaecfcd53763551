//! Sequence I/O and core sequence types for the MetaHipMer reproduction.
//!
//! This crate provides the low-level building blocks that every other crate in
//! the workspace consumes:
//!
//! * [`alphabet`] — the DNA alphabet (A/C/G/T/N), 2-bit encoding helpers,
//!   complements and reverse complements;
//! * [`read`] — sequencing [`read::Read`]s, read pairs and
//!   [`read::ReadLibrary`]s with insert-size metadata;
//! * [`fasta`] / [`fastq`] — parsing and writing of the standard text formats;
//! * [`mod@reference`] — named reference genomes used by the simulator and the
//!   quality-evaluation crate;
//! * [`qc`] — light-weight quality trimming (the BBtools pre-processing step of
//!   the paper is outside the evaluated pipeline; this is only used by tests
//!   and examples that want slightly dirty data);
//! * [`packed`] / [`source`] — the borrowed 2-bit view of a read and the
//!   streaming [`ReadSource`] of such views that k-mer analysis consumes.
//!
//! Sequences are stored as ASCII bytes (`Vec<u8>` of `ACGTN`), which keeps the
//! formats trivially round-trippable; [`PackedReadView`] is the one 2-bit
//! layout the packed stores and the k-mer layer share.

pub mod alphabet;
pub mod fasta;
pub mod fastq;
pub mod packed;
pub mod qc;
pub mod read;
pub mod reference;
pub mod source;

pub use alphabet::{
    complement, decode_base, encode_base, is_valid_base, revcomp, revcomp_in_place,
};
pub use fasta::{parse_fasta, write_fasta, FastaRecord};
pub use fastq::{parse_fastq, write_fastq, FastqBlockIter, FastqError, FastqRecord};
pub use packed::{push_quality_runs, AsPackedRead, PackedReadView, ReadPacker};
pub use read::{PairOrientation, Read, ReadId, ReadLibrary, ReadPair};
pub use reference::{ReferenceGenome, ReferenceSet};
pub use source::ReadSource;

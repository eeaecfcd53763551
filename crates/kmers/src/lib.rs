//! Packed k-mer types and extraction for the MetaHipMer reproduction.
//!
//! A *k-mer* is a length-`k` substring of a read or contig. The de Bruijn
//! graph used throughout the pipeline has k-mers as vertices, so this crate is
//! the innermost data-structure layer of the whole assembler:
//!
//! * [`kmer::Kmer`] — a 2-bit-packed k-mer supporting k up to
//!   [`kmer::MAX_K`] (127), with reverse complement, canonicalisation and O(1)
//!   amortised rolling extension;
//! * [`key`] — [`KmerKey`], the table key as wide as k needs (one word for
//!   k ≤ 32, two for k ≤ 64, a [`Kmer`] beyond), with a mixing hash;
//! * [`ext`] — extension codes and counters. Each k-mer observed in the reads
//!   keeps counts of which base precedes and follows it; the counts are later
//!   turned into the `[ACGT]`, `F`ork or e`X`tensionless codes that drive the
//!   graph traversal (§II-C of the paper);
//! * [`extract`] — iterators that slide a window over reads/contigs and emit
//!   canonical k-mers together with their observed extensions and quality
//!   categories;
//! * [`minimizer`] — canonical m-mer minimizers, the supermer cutter over
//!   2-bit reads and the packed supermer wire codec that k-mer analysis uses
//!   to ship whole runs of overlapping k-mers in ~(s+k−1)/4 bytes instead of
//!   ~32 bytes per k-mer;
//! * [`packed`] — word loads, reverse complements and strided canonical
//!   k-mer cuts straight from 2-bit packed sequences (the aligner's seeds);
//! * [`kernels`] — the word-parallel/SIMD compute kernels behind the hot
//!   loops of all of the above (reverse complement, canonical comparison and
//!   the bulk ASCII↔2-bit codecs), one body each over the [`mhm_simd`] byte
//!   scans, with per-base scalar twins as property-test oracles.

pub mod ext;
pub mod extract;
pub mod kernels;
pub mod key;
pub mod kmer;
pub mod minimizer;
pub mod packed;
pub mod packed_seq;

pub use ext::{Ext, ExtCounts, ExtPair, KmerCounts};
pub use extract::{
    canonical_kmers, kmer_positions, kmers_with_exts, kmers_with_exts_iter, CanonicalKmerExt,
    KmersWithExtsIter,
};
pub use key::{KeyWidth, Kmer32, Kmer64, KmerKey};
pub use kmer::{Kmer, StrandPair, MAX_K};
pub use minimizer::{
    cut_supermers, encode_packed_supermer, encode_supermer, expand_supermer, expand_supermer_keys,
    kmer_minimizer, minimizer_shard, minimizer_tag, supermer_wire_bytes, supermers, Supermer,
    SupermerBlobIter, SupermerIter, SupermerRecord, MAX_MINIMIZER_LEN,
};
pub use packed_seq::PackedSeq;

//! MetaHipMer: the end-to-end metagenome assembly pipeline (the paper's
//! primary contribution).
//!
//! The pipeline follows Algorithm 1 (iterative contig generation) and
//! Algorithm 3 (scaffolding) of the paper:
//!
//! ```text
//! for k = k_min .. k_max step s:
//!     k-mer analysis                      (dbg::analysis)
//!     merge k-mers from previous contigs  (dbg::merge)
//!     de Bruijn graph traversal           (dbg::graph, dbg::traversal)
//!     bubble merging + hair removal       (dbg::bubble)
//!     iterative graph pruning             (dbg::pruning)
//!     align reads to contigs              (aligner)
//!     local assembly (mer-walking)        (local_assembly, work stealing)
//!     read localisation                   (aligner::localize)
//! scaffolding                             (scaffolding)
//! ```
//!
//! Every stage runs SPMD over the `pgas` runtime; per-stage wall-clock and
//! communication statistics are collected so the experiment harnesses can
//! reproduce the paper's scaling figures.
//!
//! The crate exposes two entry points: [`MetaHipMer`], the full metagenome
//! pipeline, and [`MetaHipMer::hipmer_mode`], the single-genome configuration
//! (single k, global extension threshold, no metagenome-specific passes) used
//! as the HipMer comparison row of Table I.

pub mod checkpoint;
pub mod config;
pub mod local_assembly;
pub mod pipeline;
pub mod timing;

pub use config::AssemblyConfig;
pub use local_assembly::{
    extend_contigs_locally_ref, LocalAssemblyParams, MerWalker, PackedPool, PoolWriter,
};
pub use pipeline::{AssemblyOutput, MetaHipMer};
pub use timing::StageTimings;

/// FNV-1a over the sorted sequences, each closed by a `0xFF` byte (the rule
/// of the benchmark runner's scaffold digest): how the unit tests pin an
/// output to the value measured before a change.
#[cfg(test)]
pub(crate) fn sequence_digest(seqs: &[Vec<u8>]) -> u64 {
    let mut sorted: Vec<&Vec<u8>> = seqs.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sorted {
        for &b in s.iter().chain(&[0xFFu8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

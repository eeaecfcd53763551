//! Parallel k-mer analysis and the distributed de Bruijn graph.
//!
//! This crate implements stages 1–4 (and 8) of MetaHipMer's iterative contig
//! generation (Figure 1 of the paper):
//!
//! 1. [`analysis`] — **k-mer analysis**: exact counting, one in-cache
//!    minimizer bin at a time, with high-quality extension counting (§II-B),
//!    straight into the graph: singleton (mostly erroneous) k-mers below the
//!    ε cut never enter it, and each survivor is stored reduced. The
//!    minimizer-partitioned tables ([`table`]) are keyed by one word up to
//!    k = 32, two up to k = 64, a whole k-mer beyond;
//! 2. [`graph`] — the **distributed de Bruijn graph**: one 8-byte vertex per
//!    k-mer, its extension counts reduced to `[ACGT]/F/X` codes under either
//!    the HipMer global threshold or the MetaHipMer depth-dependent
//!    threshold `thq = max(t_base, e·d)` (§II-C);
//! 3. [`traversal`] — the **parallel contig traversal**: owner-local segment
//!    compaction, then one gather of the cross-rank segments, stitched on
//!    rank 0 (§II-C/D);
//! 4. [`bubble`] — **bubble merging and hair removal** on the contig graph
//!    (§II-D);
//! 5. [`pruning`] — the **iterative graph pruning** of Algorithm 2 (§II-E);
//!    [`contig_graph::clean_contigs`] runs 4 and 5 as one pass over one
//!    contig adjacency, decided on rank 0, which holds the traversed set;
//! 6. [`merge`] — **k-mer set merging** across iterations: the previous
//!    iteration's contigs are cut into (k+s)-mer supermers, shipped through
//!    k-mer analysis's send loop and counted in its bins as confident k-mers,
//!    after the reads' ε cut (§II-H).
//!
//! The shared [`types::Contig`] / [`types::ContigSet`] types produced here are
//! consumed by the aligner, the scaffolder and the evaluation crates.

pub mod analysis;
pub mod bubble;
pub mod contig_graph;
pub mod graph;
pub mod merge;
pub mod pruning;
mod segment;
pub mod store;
pub mod table;
pub mod traversal;
pub mod types;

pub use analysis::{
    kmer_analysis, kmer_analysis_from, kmer_graph_from, KmerAnalysis, KmerAnalysisParams,
    SUPERMER_BATCH_UNIT,
};
pub use bubble::{merge_bubbles_and_remove_hair, BubbleParams, BubbleReport};
pub use contig_graph::{clean_contigs, CleanReport, ContigAdjacency};
pub use graph::{build_graph, KmerGraph, KmerVertex, ThresholdPolicy};
pub use merge::inject_contig_kmers_ref;
pub use pruning::{prune_iteratively, PruningParams, PruningReport};
pub use store::{ContigMeta, ContigReader, ContigStore, ContigStoreParams, ContigsRef, PackedSeq};
pub use table::{KmerCountsMap, KmerTable};
pub use traversal::{traverse_contigs, TraversalParams};
pub use types::{Contig, ContigId, ContigSet};

/// The largest k (and alignment seed length) a packed k-mer can hold.
pub use kmers::MAX_K;

/// Word-level access to 2-bit packed sequences ([`PackedSeq`]'s code layout).
pub use kmers::packed;

#[cfg(test)]
mod per_hop;

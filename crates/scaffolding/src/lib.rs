//! MetaHipMer scaffolding (Algorithm 3, §III).
//!
//! Scaffolding stitches contigs into longer sequences using the long-range
//! information carried by read pairs:
//!
//! 1. [`links`] — alignments are scanned for **splints** (single reads
//!    bridging two contig ends) and **spans** (read pairs whose mates align to
//!    different contigs); both are aggregated into links between *contig ends*
//!    in a distributed hash table keyed by the contig-end pair (§III-B);
//! 2. [`traversal`] — the contig graph defined by those links is partitioned
//!    into connected components (a Shiloach–Vishkin-style label-propagation
//!    pass, §III-C), components are dealt to ranks, and each component is
//!    walked by decreasing contig length with the paper's heuristics:
//!    extendable-end checks, suspension of short repeat contigs that spans
//!    jump over, and aggressive extension through contigs recognised as
//!    ribosomal by the profile HMM;
//! 3. [`gap_closing`] — gaps between adjacent contigs of a scaffold are closed
//!    with the cheapest method that succeeds (negative-gap overlap merging,
//!    re-insertion of suspended repeat contigs, read-k-mer bridging) and
//!    otherwise padded with `N`s sized by the span gap estimate; gaps are
//!    dealt round-robin over ranks for load balance (§III-D).

pub mod gap_closing;
pub mod links;
pub mod traversal;
pub mod types;

pub use gap_closing::{close_gaps_ref, GapClosingParams, GapClosingReport};
pub use links::{build_links_ref, ContigEndRef, End, LinkData, LinkKey, LinkSet};
pub use traversal::{traverse_contig_graph_ref, ScaffoldTraversalParams};
pub use types::{Scaffold, ScaffoldEntry, ScaffoldSet};

use aligner::AlignmentSet;
use dbg::ContigsRef;
use pgas::Ctx;
use readstore::ReadsRef;
use rrna_hmm::RrnaDetector;

/// End-to-end scaffolding parameters.
#[derive(Debug, Clone, Default)]
pub struct ScaffoldParams {
    pub links: links::LinkParams,
    pub traversal: ScaffoldTraversalParams,
    pub gap_closing: GapClosingParams,
}

/// Runs the full scaffolding stage against the stores. Collective.
/// `alignments` are the calling rank's read-to-contig alignments (each rank
/// aligned the reads it owns).
pub fn scaffold_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    alignments: &AlignmentSet,
    reads: ReadsRef<'_>,
    rrna: Option<&RrnaDetector>,
    params: &ScaffoldParams,
) -> (ScaffoldSet, GapClosingReport) {
    let link_set = build_links_ref(ctx, contigs, alignments, reads, &params.links);
    let gapped = traverse_contig_graph_ref(ctx, contigs, &link_set, rrna, &params.traversal);
    close_gaps_ref(ctx, contigs, gapped, &link_set, &params.gap_closing)
}

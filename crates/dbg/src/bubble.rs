//! Bubble merging and hair removal (§II-D).
//!
//! Single-nucleotide polymorphisms between closely related strains create
//! *bubbles*: pairs of contigs of (nearly) the same length that connect to the
//! same fork k-mers on both sides. Sequencing errors create *hair*: short
//! dead-end contigs dangling off a real path. Bubbles are merged into one
//! contig (keeping the deeper branch and accumulating depth) and hair is
//! removed.
//!
//! The bubble-contig graph is the [`crate::contig_graph::ContigAdjacency`]
//! structure. The contig set and the adjacency are replicated, so every rank
//! makes the same decisions from them alone; this pass runs inside
//! [`crate::contig_graph::clean_contigs`], before pruning.

use crate::contig_graph::{clean_contigs, ContigAdjacency};
use crate::graph::KmerGraph;
use crate::types::{ContigId, ContigSet};
use kmers::Kmer;
use pgas::Ctx;

/// Parameters of bubble merging and hair removal.
#[derive(Debug, Clone, Copy)]
pub struct BubbleParams {
    /// Bubble branches longer than `2k` are only merged when this is set
    /// (MetaHipMer's optional long-bubble merging, which trades strain
    /// variation for contiguity).
    pub merge_long_bubbles: bool,
    /// Two branches form a bubble when their lengths differ by at most this
    /// relative amount.
    pub len_tolerance: f64,
    /// Remove dead-end dangling contigs ("hair") shorter than `2k`.
    pub remove_hair: bool,
}

impl Default for BubbleParams {
    fn default() -> Self {
        BubbleParams {
            merge_long_bubbles: false,
            len_tolerance: 0.05,
            remove_hair: true,
        }
    }
}

/// What happened during the pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BubbleReport {
    pub bubbles_merged: usize,
    pub hair_removed: usize,
}

/// Collectively merges bubbles and removes hair, returning the cleaned contig
/// set (identical on every rank) and a report: [`clean_contigs`] without
/// pruning. The pipeline runs the one pass; this entry point stays for the
/// staged benchmark (`perfbench/src/staged.rs`), which times the two steps
/// apart.
pub fn merge_bubbles_and_remove_hair(
    ctx: &Ctx,
    contigs: &ContigSet,
    graph: &KmerGraph,
    params: &BubbleParams,
) -> (ContigSet, BubbleReport) {
    let (cleaned, report) = clean_contigs(ctx, contigs, graph, Some(params), None);
    (cleaned, report.bubble)
}

/// The decision pass, the same on every rank: clears `alive` for every
/// merged or removed contig and adds each bubble winner's absorbed depth to
/// its entry of `depths`.
pub(crate) fn decide(
    contigs: &ContigSet,
    adjacency: &ContigAdjacency,
    params: &BubbleParams,
    alive: &mut [bool],
    depths: &mut [f64],
) -> BubbleReport {
    let k = contigs.k;
    let mut absorbed = vec![0.0f64; contigs.len()];
    let mut report = BubbleReport::default();

    // ---- Bubbles: group contigs by their unordered anchor pair --------------
    let mut keyed: Vec<((Kmer, Kmer), ContigId)> = contigs
        .contigs
        .iter()
        .filter_map(|c| {
            let ends = &adjacency.ends[c.id as usize];
            let (l, r) = (ends.left_anchor?, ends.right_anchor?);
            Some((if l <= r { (l, r) } else { (r, l) }, c.id))
        })
        .collect();
    keyed.sort_unstable();
    for group in keyed.chunk_by(|a, b| a.0 == b.0) {
        if group.len() < 2 {
            continue;
        }
        // Candidates sorted deepest first; the deepest surviving branch absorbs
        // similar-length shallower branches.
        let mut sorted: Vec<ContigId> = group.iter().map(|&(_, id)| id).collect();
        sorted.sort_by(|&a, &b| {
            let (ca, cb) = (&contigs.contigs[a as usize], &contigs.contigs[b as usize]);
            cb.depth
                .partial_cmp(&ca.depth)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let winner = sorted[0];
        let winner_len = contigs.contigs[winner as usize].len();
        for &loser in &sorted[1..] {
            let loser_c = &contigs.contigs[loser as usize];
            let long = loser_c.len() > 2 * k || winner_len > 2 * k;
            if long && !params.merge_long_bubbles {
                continue;
            }
            let len_diff =
                (loser_c.len() as f64 - winner_len as f64).abs() / winner_len.max(1) as f64;
            if len_diff <= params.len_tolerance {
                alive[loser as usize] = false;
                absorbed[winner as usize] += loser_c.depth;
                report.bubbles_merged += 1;
            }
        }
    }

    // ---- Hair: short dead-end contigs dangling off one anchor ----------------
    if params.remove_hair {
        for c in &contigs.contigs {
            if alive[c.id as usize] && c.len() < 2 * k && adjacency.anchor_count(c.id) == 1 {
                alive[c.id as usize] = false;
                report.hair_removed += 1;
            }
        }
    }

    for (depth, extra) in depths.iter_mut().zip(absorbed) {
        *depth += extra;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, ThresholdPolicy};
    use crate::traversal::{traverse_contigs, TraversalParams};
    use pgas::Team;
    use seqio::Read;

    /// Assemble reads and run the bubble/hair pass; returns per-rank results.
    fn run_pass(
        read_specs: &[(&str, usize)],
        k: usize,
        ranks: usize,
        params: BubbleParams,
    ) -> (ContigSet, ContigSet, BubbleReport) {
        let reads: Vec<Read> = read_specs
            .iter()
            .flat_map(|(s, copies)| {
                let s = s.to_string();
                (0..*copies)
                    .map(move |i| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
                    .collect::<Vec<_>>()
            })
            .collect();
        let team = Team::single_node(ranks);
        let out = team.run(|ctx| {
            let range = ctx.block_range(reads.len());
            let aparams = KmerAnalysisParams {
                k,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads[range], &aparams);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            let contigs = traverse_contigs(ctx, &graph, k, &TraversalParams::default());
            let (cleaned, report) = merge_bubbles_and_remove_hair(ctx, &contigs, &graph, &params);
            (contigs, cleaned, report)
        });
        for o in &out[1..] {
            assert_eq!(o.1, out[0].1, "cleaned set must agree across ranks");
            assert_eq!(o.2, out[0].2);
        }
        out[0].clone()
    }

    const LEFT: &str = "ACGGTCAGGTTCAAGGACTCCGTA";
    const RIGHT: &str = "TCAGCATTAGCGTAGGACCTTGAC";

    #[test]
    fn snp_bubble_is_merged() {
        // Two haplotypes identical except one SNP in the middle: the two
        // middle branches form a bubble between the shared flanks.
        let mid_a = "GGCATTACGGATACCAGGATCCAG";
        let mid_b = "GGCATTACGGATGCCAGGATCCAG"; // one substitution
        let hap_a = format!("{LEFT}{mid_a}{RIGHT}");
        let hap_b = format!("{LEFT}{mid_b}{RIGHT}");
        // The major haplotype is 2x deeper than the minor one; the minor depth
        // (4) exceeds the dynamic extension-threshold budget so the junction
        // k-mers genuinely fork and a bubble forms.
        let (before, after, report) =
            run_pass(&[(&hap_a, 8), (&hap_b, 4)], 15, 2, BubbleParams::default());
        assert!(report.bubbles_merged >= 1, "no bubble merged: {report:?}");
        assert!(after.len() < before.len());
        // The surviving branch carries the major haplotype's sequence.
        let merged_has_major = after.contigs.iter().any(|c| {
            let s = String::from_utf8(c.seq.clone()).unwrap();
            let r = String::from_utf8(seqio::alphabet::revcomp(&c.seq)).unwrap();
            s.contains("ACGGATACCAGG") || r.contains("ACGGATACCAGG")
        });
        assert!(merged_has_major);
        let minor_still_there = after.contigs.iter().any(|c| {
            let s = String::from_utf8(c.seq.clone()).unwrap();
            let r = String::from_utf8(seqio::alphabet::revcomp(&c.seq)).unwrap();
            s.contains("ACGGATGCCAGG") || r.contains("ACGGATGCCAGG")
        });
        assert!(!minor_still_there, "minor branch should have been absorbed");
    }

    #[test]
    fn hair_is_removed() {
        // A main path plus a short erroneous dead-end branch hanging off it.
        let main = format!("{LEFT}GGCATTACGGATACCAGGATCCAG{RIGHT}");
        // The hair shares the first 20 bases then diverges for a short tail.
        let hair = format!("{}TTTTTTAAAAAT", &main[..20]);
        let (before, after, report) =
            run_pass(&[(&main, 6), (&hair, 2)], 15, 2, BubbleParams::default());
        assert!(report.hair_removed >= 1, "no hair removed: {report:?}");
        assert!(after.total_bases() < before.total_bases());
        // The hair tail must be gone.
        assert!(after.contigs.iter().all(|c| {
            let s = String::from_utf8(c.seq.clone()).unwrap();
            !s.contains("TTTTTTAAAAAT") && !s.contains("ATTTTTAAAAAA")
        }));
    }

    #[test]
    fn clean_assembly_untouched() {
        let seq = format!("{LEFT}GGCATTACGGATACCAGGATCCAG{RIGHT}");
        let (before, after, report) = run_pass(&[(&seq, 4)], 15, 1, BubbleParams::default());
        assert_eq!(report, BubbleReport::default());
        assert_eq!(before, after);
    }

    #[test]
    fn hair_removal_can_be_disabled() {
        let main = format!("{LEFT}GGCATTACGGATACCAGGATCCAG{RIGHT}");
        let hair = format!("{}TTTTTTAAAAAT", &main[..20]);
        let params = BubbleParams {
            remove_hair: false,
            ..Default::default()
        };
        let (before, after, report) = run_pass(&[(&main, 6), (&hair, 2)], 15, 1, params);
        assert_eq!(report.hair_removed, 0);
        assert_eq!(before.len(), after.len());
    }
}

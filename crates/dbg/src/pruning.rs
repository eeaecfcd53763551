//! Iterative graph pruning (Algorithm 2, §II-E).
//!
//! Short contigs whose depth is far below that of their neighbourhood are
//! probably artefacts of erroneous edges and are removed. The depth cutoff τ
//! starts at 1 and grows geometrically (τ ← τ·(1+α)) until it exceeds the
//! maximum contig depth; a contig is removed when it is short (≤ 2k) **and**
//! its depth is at most min(τ, β × neighbourhood depth).
//!
//! The paper's contigs are distributed, so it detects convergence with an
//! all-reduce over a per-rank "pruned anything" flag. Here the contig set and
//! its adjacency are replicated: every rank evaluates every live contig each
//! round and reaches the same removals with no communication. The rounds run
//! inside [`crate::contig_graph::clean_contigs`], after bubble merging.

use crate::contig_graph::{clean_contigs, ContigAdjacency};
use crate::graph::KmerGraph;
use crate::types::{ContigId, ContigSet};
use pgas::Ctx;

/// Parameters of iterative pruning.
#[derive(Debug, Clone, Copy)]
pub struct PruningParams {
    /// Geometric growth factor of the depth cutoff (τ ← τ·(1+α)).
    pub alpha: f64,
    /// Neighbourhood-depth factor β.
    pub beta: f64,
    /// Hard cap on the number of iterations (safety net; the geometric
    /// schedule normally terminates long before this).
    pub max_rounds: usize,
}

impl Default for PruningParams {
    fn default() -> Self {
        PruningParams {
            alpha: 0.25,
            beta: 0.5,
            max_rounds: 200,
        }
    }
}

/// Summary of a pruning run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruningReport {
    /// Contigs removed in total.
    pub removed: usize,
    /// Iterations executed.
    pub rounds: usize,
}

/// Collectively prunes the contig set, returning the surviving contigs
/// (identical on every rank) and a report: [`clean_contigs`] without bubble
/// merging. The pipeline runs the one pass; this entry point stays for the
/// staged benchmark (`perfbench/src/staged.rs`), which times the two steps
/// apart.
pub fn prune_iteratively(
    ctx: &Ctx,
    contigs: &ContigSet,
    graph: &KmerGraph,
    params: &PruningParams,
) -> (ContigSet, PruningReport) {
    let (pruned, report) = clean_contigs(ctx, contigs, graph, None, Some(params));
    (pruned, report.pruning)
}

/// The pruning rounds over the live contigs (`alive`) at their `depths`, the
/// same on every rank: clears the mask of every pruned contig. Each round
/// judges every live contig against the mask as it stood when the round
/// began.
pub(crate) fn prune(
    contigs: &ContigSet,
    adjacency: &ContigAdjacency,
    params: &PruningParams,
    alive: &mut [bool],
    depths: &[f64],
) -> PruningReport {
    assert!(params.alpha > 0.0, "alpha must be positive");
    let k = contigs.k;
    let short = |i: usize| contigs.contigs[i].len() <= 2 * k;
    let max_live_depth = |alive: &[bool], only_short: bool| {
        (0..alive.len())
            .filter(|&i| alive[i] && (!only_short || short(i)))
            .map(|i| depths[i])
            .fold(0.0, f64::max)
    };
    let mut report = PruningReport::default();

    let max_depth = max_live_depth(alive, false);
    let mut tau = 1.0f64;
    while tau < max_depth && report.rounds < params.max_rounds {
        report.rounds += 1;
        let removals: Vec<usize> = (0..alive.len())
            .filter(|&i| alive[i] && short(i))
            .filter(|&i| {
                let neighborhood = adjacency.neighbor_mean_depth(depths, i as ContigId, alive);
                depths[i] <= tau.min(params.beta * neighborhood)
            })
            .collect();
        for &i in &removals {
            alive[i] = false;
        }
        report.removed += removals.len();
        // Converged at the current cutoff; the remaining rounds with larger τ
        // can still prune, so only stop early once τ has passed every
        // surviving short contig's depth.
        if removals.is_empty() && tau > max_live_depth(alive, true) {
            break;
        }
        tau *= 1.0 + params.alpha;
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

    fn assemble_and_prune(
        read_specs: &[(&str, usize)],
        k: usize,
        ranks: usize,
    ) -> (ContigSet, ContigSet, PruningReport) {
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
            let (pruned, report) =
                prune_iteratively(ctx, &contigs, &graph, &PruningParams::default());
            (contigs, pruned, report)
        });
        for o in &out[1..] {
            assert_eq!(o.1, out[0].1);
            assert_eq!(o.2, out[0].2);
        }
        out[0].clone()
    }

    const LEFT: &str = "ACGGTCAGGTTCAAGGACTCCGTA";
    const RIGHT: &str = "TCAGCATTAGCGTAGGACCTTGAC";

    #[test]
    fn shallow_short_branch_next_to_deep_path_is_pruned() {
        // Deep main path (20x) and a shallow short branch (4x) hanging off a
        // fork in its middle — the classic erroneous-edge artefact. The branch
        // depth is above the dynamic extension-threshold budget so the junction
        // truly forks, but far below the neighbourhood depth.
        let main = format!("{LEFT}GGCATTACGGATACCAGGATCCAG{RIGHT}");
        let branch = format!("{}ACAGATTTACAGG", &main[..30]);
        let (before, after, report) = assemble_and_prune(&[(&main, 20), (&branch, 4)], 15, 2);
        assert!(report.removed >= 1, "nothing pruned: {report:?}");
        assert!(after.len() < before.len());
        // The deep path's pieces survive.
        let deep_bases: usize = after
            .contigs
            .iter()
            .filter(|c| c.depth > 10.0)
            .map(|c| c.len())
            .sum();
        assert!(deep_bases > 40);
        // The shallow branch tail is gone.
        assert!(after.contigs.iter().all(|c| {
            let s = String::from_utf8(c.seq.clone()).unwrap();
            let r = String::from_utf8(seqio::alphabet::revcomp(&c.seq)).unwrap();
            !s.contains("ACAGATTTACAGG") && !r.contains("ACAGATTTACAGG")
        }));
    }

    #[test]
    fn uniform_clean_assembly_is_untouched() {
        let seq = format!("{LEFT}GGCATTACGGATACCAGGATCCAG{RIGHT}");
        let (before, after, report) = assemble_and_prune(&[(&seq, 8)], 15, 1);
        assert_eq!(report.removed, 0);
        assert_eq!(before, after);
        assert!(report.rounds >= 1);
    }

    #[test]
    fn low_coverage_isolated_genome_is_not_pruned() {
        // A genome covered only 2x but with no deep neighbours must survive:
        // pruning is relative to the neighbourhood, not absolute.
        let lonely = "TTGACCGATTACAGGACCGATACCGATTAGGACCAGTTAGACC";
        let deep = format!("{LEFT}GGCATTACGGATACCAGGATCCAG{RIGHT}");
        let (_, after, _) = assemble_and_prune(&[(lonely, 2), (&deep, 20)], 15, 2);
        let lonely_present = after.contigs.iter().any(|c| {
            let s = String::from_utf8(c.seq.clone()).unwrap();
            let r = String::from_utf8(seqio::alphabet::revcomp(&c.seq)).unwrap();
            s.contains("CCGATTACAGGACCGATACC") || r.contains("CCGATTACAGGACCGATACC")
        });
        assert!(
            lonely_present,
            "isolated low-coverage contig must not be pruned"
        );
    }
}

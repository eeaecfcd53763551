//! Iterative graph pruning (Algorithm 2, §II-E).
//!
//! Short contigs whose depth is far below that of their neighbourhood are
//! probably artefacts of erroneous edges and are removed. The depth cutoff τ
//! starts at 1 and grows geometrically (τ ← τ·(1+α)) until it exceeds the
//! maximum contig depth; a contig is removed when it is short (≤ 2k) **and**
//! its depth is at most min(τ, β × neighbourhood depth). Convergence is
//! detected with an all-reduce over a per-rank "pruned anything" flag, exactly
//! as described in the paper.

use crate::contig_graph::{build_adjacency, ANCHOR_LOOKUP_BATCH};
use crate::graph::KmerGraph;
use crate::types::{ContigId, ContigSet};
use pgas::Ctx;
use std::collections::HashSet;

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
/// (identical on every rank) and a report.
pub fn prune_iteratively(
    ctx: &Ctx,
    contigs: &ContigSet,
    graph: &KmerGraph,
    params: &PruningParams,
) -> (ContigSet, PruningReport) {
    assert!(params.alpha > 0.0, "alpha must be positive");
    let adjacency = build_adjacency(ctx, contigs, graph, ANCHOR_LOOKUP_BATCH);
    let n = contigs.len();
    let mut alive = vec![true; n];
    let mut report = PruningReport::default();
    let k = contigs.k;

    let max_depth = contigs.max_depth();
    let mut tau = 1.0f64;
    while tau < max_depth && report.rounds < params.max_rounds {
        report.rounds += 1;
        // Each rank evaluates its block of contigs against the current τ.
        let my_range = ctx.block_range(n);
        let mut my_removals: Vec<ContigId> = Vec::new();
        for idx in my_range {
            if !alive[idx] {
                continue;
            }
            let c = &contigs.contigs[idx];
            if c.len() > 2 * k {
                continue;
            }
            let neighborhood = adjacency.neighbor_mean_depth(contigs, c.id, &alive);
            let cutoff = tau.min(params.beta * neighborhood);
            if c.depth <= cutoff {
                my_removals.push(c.id);
            }
        }
        let pruned_any = ctx.allreduce_any(!my_removals.is_empty());
        // Share removals so every rank updates the same alive mask.
        let gathered = ctx.gather(my_removals);
        let all_removals = ctx.broadcast(|| gathered);
        for id in &all_removals {
            if alive[*id as usize] {
                alive[*id as usize] = false;
                report.removed += 1;
            }
        }
        if !pruned_any {
            // Converged at the current cutoff; the remaining rounds with larger
            // τ can still prune, so only stop early once τ has passed every
            // surviving short contig's depth.
            let max_short_depth = contigs
                .contigs
                .iter()
                .filter(|c| alive[c.id as usize] && c.len() <= 2 * k)
                .map(|c| c.depth)
                .fold(0.0, f64::max);
            if tau > max_short_depth {
                break;
            }
        }
        tau *= 1.0 + params.alpha;
    }

    let removed_set: HashSet<ContigId> = contigs
        .contigs
        .iter()
        .filter(|c| !alive[c.id as usize])
        .map(|c| c.id)
        .collect();
    let pruned = contigs.without(&removed_set);
    ctx.barrier();
    (pruned, report)
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

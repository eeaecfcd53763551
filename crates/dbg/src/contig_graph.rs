//! Contig-end anchors, contig adjacency and the one clean-up pass over them.
//!
//! Several stages (bubble merging, hair removal, iterative pruning) need to
//! know how contigs connect to each other through the fork k-mers that
//! terminated the traversal. For a contig's end we call the k-mer *just
//! outside* the contig (reached through the end k-mer's extension) the end's
//! **anchor**; two contigs that share an anchor are neighbours in the contig
//! graph, the "bubble-contig graph" of §II-D.
//!
//! The paper keeps that graph in a distributed hash table because its contigs
//! are distributed. Here the traversed contig set lives on rank 0 (where
//! [`crate::traverse_contigs`] gathers it), so the graph is built there: rank
//! 0 resolves the end k-mers of every contig against the k-mer graph in one
//! collective lookup that the other ranks serve, groups the anchors into
//! neighbours, and [`clean_contigs`] decides bubbles, hair and pruning there
//! with no further communication.

use crate::bubble::{self, BubbleParams, BubbleReport};
use crate::graph::{lookup_oriented_many, KmerGraph, OrientedVertex};
use crate::pruning::{self, PruningParams, PruningReport};
use crate::types::{Contig, ContigId, ContigSet};
use kmers::{Ext, Kmer};
use pgas::Ctx;

/// Aggregation batch of the anchor lookups behind the contig graph: at most
/// this many travel in one message to an owner. The adjacency does not
/// depend on it.
const ANCHOR_LOOKUP_BATCH: usize = 4096;

/// The anchors of one contig (in the contig's stored orientation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContigEnds {
    pub left_anchor: Option<Kmer>,
    pub right_anchor: Option<Kmer>,
}

/// Anchor information and adjacency for the contig set a rank holds.
#[derive(Debug, Clone, Default)]
pub struct ContigAdjacency {
    /// Indexed by contig id.
    pub ends: Vec<ContigEnds>,
    /// For every contig, the ids of the other contigs sharing at least one
    /// anchor k-mer with it, in ascending order.
    pub neighbors: Vec<Vec<ContigId>>,
}

impl ContigAdjacency {
    /// Mean of `depths` over a contig's (alive) neighbours; 0 when it has
    /// none.
    pub fn neighbor_mean_depth(&self, depths: &[f64], id: ContigId, alive: &[bool]) -> f64 {
        let ns = &self.neighbors[id as usize];
        let mut sum = 0.0;
        let mut n = 0usize;
        for &other in ns {
            if alive[other as usize] {
                sum += depths[other as usize];
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Number of anchors a contig has (0, 1 or 2).
    pub fn anchor_count(&self, id: ContigId) -> usize {
        let e = &self.ends[id as usize];
        usize::from(e.left_anchor.is_some()) + usize::from(e.right_anchor.is_some())
    }
}

fn left_anchor_of(first: &Kmer, v: &OrientedVertex) -> Option<Kmer> {
    match v.left {
        Ext::Base(c) => Some(first.extended_left(c).canonical().0),
        _ => None,
    }
}

fn right_anchor_of(last: &Kmer, v: &OrientedVertex) -> Option<Kmer> {
    match v.right {
        Ext::Base(c) => Some(last.extended_right(c).canonical().0),
        _ => None,
    }
}

/// A contig's slots in the batched anchor lookup: for each end that has a
/// query, the index of that query and the end k-mer itself.
type EndQuerySlots = (Option<(usize, Kmer)>, Option<(usize, Kmer)>);

/// Anchor computation: the end k-mers of every contig the rank holds are
/// resolved in one aggregated round trip, in id order.
fn resolve_ends(
    ctx: &Ctx,
    graph: &KmerGraph,
    contigs: &ContigSet,
    lookup_batch: usize,
) -> Vec<ContigEnds> {
    let k = contigs.k;
    // `positions` maps each contig to its query slots in `queries`.
    let mut queries: Vec<Kmer> = Vec::with_capacity(2 * contigs.len());
    let mut positions: Vec<EndQuerySlots> = Vec::with_capacity(contigs.len());
    for c in &contigs.contigs {
        if c.seq.len() < k {
            positions.push((None, None));
            continue;
        }
        let first = Kmer::from_bytes(&c.seq[..k]).map(|f| {
            queries.push(f);
            (queries.len() - 1, f)
        });
        let last = Kmer::from_bytes(&c.seq[c.seq.len() - k..]).map(|l| {
            queries.push(l);
            (queries.len() - 1, l)
        });
        positions.push((first, last));
    }
    let vertices = lookup_oriented_many(ctx, graph, &queries, lookup_batch);
    positions
        .into_iter()
        .map(|(first, last)| ContigEnds {
            left_anchor: first
                .and_then(|(slot, f)| vertices[slot].as_ref().and_then(|v| left_anchor_of(&f, v))),
            right_anchor: last
                .and_then(|(slot, l)| vertices[slot].as_ref().and_then(|v| right_anchor_of(&l, v))),
        })
        .collect()
}

/// Collectively builds anchors and adjacency for the contig set the calling
/// rank holds (in the pipeline, rank 0 holds them all and the other ranks
/// hold none and only serve the lookup).
///
/// The anchor k-mers are read from the graph in a single aggregated
/// request–response round trip of messages of at most `lookup_batch` (> 0)
/// lookups; the adjacency does not depend on the size. The rank then groups
/// the anchors into neighbours locally.
pub fn build_adjacency(
    ctx: &Ctx,
    contigs: &ContigSet,
    graph: &KmerGraph,
    lookup_batch: usize,
) -> ContigAdjacency {
    let ends = resolve_ends(ctx, graph, contigs, lookup_batch);
    let neighbors = neighbors_of(&ends);
    ContigAdjacency { ends, neighbors }
}

/// Every contig's neighbours: the other contigs with an anchor equal to one
/// of its own, found by sorting all anchors.
fn neighbors_of(ends: &[ContigEnds]) -> Vec<Vec<ContigId>> {
    let mut anchors: Vec<(Kmer, ContigId)> = ends
        .iter()
        .zip(0..)
        .flat_map(|(e, id)| {
            [e.left_anchor, e.right_anchor]
                .into_iter()
                .flatten()
                .map(move |a| (a, id))
        })
        .collect();
    anchors.sort_unstable();
    let mut neighbors: Vec<Vec<ContigId>> = vec![Vec::new(); ends.len()];
    for group in anchors.chunk_by(|a, b| a.0 == b.0) {
        for &(_, a) in group {
            neighbors[a as usize].extend(group.iter().map(|&(_, b)| b).filter(|&b| b != a));
        }
    }
    for ns in &mut neighbors {
        ns.sort_unstable();
        ns.dedup();
    }
    neighbors
}

/// What one [`clean_contigs`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanReport {
    pub bubble: BubbleReport,
    pub pruning: PruningReport,
}

/// Collectively cleans the contig set the calling rank holds with one
/// [`ContigAdjacency`]: merges bubbles and removes hair when `bubble` is
/// given (§II-D), then prunes iteratively when `pruning` is given (§II-E),
/// reading the depths that bubble winners absorbed. Only the anchor lookups
/// cross ranks; every decision is made by the holding rank alone. In the
/// pipeline rank 0 holds the traversed set, so rank 0 returns the cleaned
/// set and its report, and every other rank an empty set and an empty
/// report.
///
/// Survivors keep their order and are renumbered from 0, so a set in
/// [`ContigSet::from_sequences`] order stays in that order.
pub fn clean_contigs(
    ctx: &Ctx,
    contigs: &ContigSet,
    graph: &KmerGraph,
    bubble: Option<&BubbleParams>,
    pruning: Option<&PruningParams>,
) -> (ContigSet, CleanReport) {
    let adjacency = build_adjacency(ctx, contigs, graph, ANCHOR_LOOKUP_BATCH);
    let mut alive = vec![true; contigs.len()];
    let mut depths: Vec<f64> = contigs.contigs.iter().map(|c| c.depth).collect();
    let mut report = CleanReport::default();
    if let Some(params) = bubble {
        report.bubble = bubble::decide(contigs, &adjacency, params, &mut alive, &mut depths);
    }
    if let Some(params) = pruning {
        report.pruning = pruning::prune(contigs, &adjacency, params, &mut alive, &depths);
    }
    let survivors = contigs
        .contigs
        .iter()
        .zip(depths)
        .zip(alive)
        .filter(|&(_, alive)| alive)
        .zip(0..)
        .map(|(((c, depth), _), id)| Contig {
            id,
            seq: c.seq.clone(),
            depth,
        })
        .collect();
    let cleaned = ContigSet {
        contigs: survivors,
        k: contigs.k,
    };
    (cleaned, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::bubble::merge_bubbles_and_remove_hair;
    use crate::graph::{build_graph, lookup_oriented, ThresholdPolicy};
    use crate::per_hop::tests::{graph_of, lasso_vertices, stress_reads};
    use crate::pruning::prune_iteratively;
    use crate::store::ContigStore;
    use crate::traversal::{traverse_contigs, TraversalParams};
    use crate::types::tests::rank_zero_set;
    use pgas::Team;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqio::Read;

    /// The end anchors of one contig from two per-key graph reads: the oracle
    /// the aggregated lookup in [`build_adjacency`] must agree with.
    fn contig_ends(ctx: &Ctx, graph: &KmerGraph, seq: &[u8], k: usize) -> ContigEnds {
        if seq.len() < k {
            return ContigEnds::default();
        }
        let first = Kmer::from_bytes(&seq[..k]);
        let last = Kmer::from_bytes(&seq[seq.len() - k..]);
        let left_anchor = first
            .and_then(|f| lookup_oriented(ctx, graph, &f).and_then(|v| left_anchor_of(&f, &v)));
        let right_anchor = last
            .and_then(|l| lookup_oriented(ctx, graph, &l).and_then(|v| right_anchor_of(&l, &v)));
        ContigEnds {
            left_anchor,
            right_anchor,
        }
    }

    /// Build a forked structure (two sequences sharing a middle segment) and
    /// return (contigs, adjacency) for inspection.
    fn forked_assembly(ranks: usize) -> (ContigSet, ContigAdjacency) {
        let common = "GGCATTACGGATACCAGGATCCAG";
        let a = format!("ACGGTCAGGTTCAAGGACT{common}TACCGGTTAACCGGTATTC");
        let b = format!("TTTTGAGGCCACAAAATTT{common}CTCTCGAGAGAGGCGCGAT");
        let reads: Vec<Read> = [&a, &b]
            .iter()
            .flat_map(|s| {
                (0..3).map(move |i| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            })
            .collect();
        let team = Team::single_node(ranks);
        let out = team.run(|ctx| {
            let range = ctx.block_range(reads.len());
            let params = KmerAnalysisParams {
                k: 15,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads[range], &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            let contigs = traverse_contigs(ctx, &graph, 15, &TraversalParams::default());
            let adj = build_adjacency(ctx, &contigs, &graph, 4096);
            (contigs, adj)
        });
        // Rank 0 holds the contigs and builds their adjacency; the other
        // ranks hold none and only serve the anchor lookups.
        for (c, a2) in &out[1..] {
            assert_eq!(c, &ContigSet::new(15));
            assert!(a2.ends.is_empty() && a2.neighbors.is_empty());
        }
        out[0].clone()
    }

    #[test]
    fn fork_contigs_are_adjacent_through_their_anchors() {
        let (contigs, adj) = forked_assembly(2);
        assert_eq!(adj.ends.len(), contigs.len());
        // The shared-middle contig must have at least two neighbours (the
        // flanking contigs on one side at minimum).
        let middle_id = contigs
            .contigs
            .iter()
            .find(|c| {
                let s = String::from_utf8(c.seq.clone()).unwrap();
                let r = String::from_utf8(seqio::alphabet::revcomp(&c.seq)).unwrap();
                s.contains("GGATACCAGGATCC") || r.contains("GGATACCAGGATCC")
            })
            .map(|c| c.id)
            .expect("shared middle contig exists");
        assert!(
            adj.neighbors[middle_id as usize].len() >= 2,
            "middle contig should neighbour the flanks: {:?}",
            adj.neighbors
        );
        // Flank contigs neighbour the middle contig.
        let some_flank = contigs
            .contigs
            .iter()
            .find(|c| c.id != middle_id)
            .unwrap()
            .id;
        assert!(
            adj.neighbors[some_flank as usize].contains(&middle_id)
                || adj.neighbors[middle_id as usize].contains(&some_flank)
        );
    }

    #[test]
    fn batched_and_fine_grained_anchor_lookups_agree() {
        let common = "GGCATTACGGATACCAGGATCCAG";
        let a = format!("ACGGTCAGGTTCAAGGACT{common}TACCGGTTAACCGGTATTC");
        let b = format!("TTTTGAGGCCACAAAATTT{common}CTCTCGAGAGAGGCGCGAT");
        let reads: Vec<Read> = [&a, &b]
            .iter()
            .flat_map(|s| {
                (0..3).map(move |i| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            })
            .collect();
        let team = Team::single_node(3);
        team.run(|ctx| {
            let range = ctx.block_range(reads.len());
            let params = KmerAnalysisParams {
                k: 15,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads[range], &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            let contigs = traverse_contigs(ctx, &graph, 15, &TraversalParams::default());
            let fine_ends: Vec<ContigEnds> = contigs
                .contigs
                .iter()
                .map(|c| contig_ends(ctx, &graph, &c.seq, contigs.k))
                .collect();
            assert_eq!(
                fine_ends
                    .iter()
                    .any(|e| e.left_anchor.is_some() || e.right_anchor.is_some()),
                ctx.rank() == 0,
                "only rank 0 holds contigs, and some of them have anchors"
            );
            let one = build_adjacency(ctx, &contigs, &graph, 1);
            assert_eq!(one.ends, fine_ends);
            for batch in [2usize, 3, 4096] {
                let batched = build_adjacency(ctx, &contigs, &graph, batch);
                assert_eq!(batched.ends, fine_ends, "batch={batch}");
                assert_eq!(batched.neighbors, one.neighbors, "batch={batch}");
            }
        });
    }

    #[test]
    fn adjacency_identical_across_rank_counts() {
        let (c1, a1) = forked_assembly(1);
        let (c3, a3) = forked_assembly(3);
        assert_eq!(c1, c3);
        assert_eq!(a1.ends, a3.ends);
        assert_eq!(a1.neighbors, a3.neighbors);
    }

    #[test]
    fn isolated_contig_has_no_anchors() {
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACG";
        let reads: Vec<Read> = (0..3)
            .map(|i| Read::with_uniform_quality(format!("r{i}"), seq.as_bytes(), 35))
            .collect();
        let team = Team::single_node(2);
        let out = team.run(|ctx| {
            let range = ctx.block_range(reads.len());
            let params = KmerAnalysisParams {
                k: 15,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads[range], &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            let contigs = traverse_contigs(ctx, &graph, 15, &TraversalParams::default());
            build_adjacency(ctx, &contigs, &graph, 4096)
        });
        let adj = &out[0];
        assert_eq!(adj.ends.len(), 1);
        assert_eq!(adj.anchor_count(0), 0);
        assert!(adj.neighbors[0].is_empty());
    }

    #[test]
    fn neighbor_mean_depth_respects_alive_mask() {
        let (contigs, adj) = forked_assembly(1);
        if contigs.len() < 2 {
            return;
        }
        let depths: Vec<f64> = contigs.contigs.iter().map(|c| c.depth).collect();
        let alive_all = vec![true; contigs.len()];
        let alive_none = vec![false; contigs.len()];
        for c in &contigs.contigs {
            let with = adj.neighbor_mean_depth(&depths, c.id, &alive_all);
            let without = adj.neighbor_mean_depth(&depths, c.id, &alive_none);
            assert!(with >= 0.0);
            assert_eq!(without, 0.0);
        }
    }

    /// The graph of `reads` counted at `k` (kept at two observations, with a
    /// short minimizer so consecutive k-mers often change owner).
    fn graph_of_reads(ctx: &Ctx, reads: &[Read], k: usize) -> KmerGraph {
        let params = KmerAnalysisParams {
            k,
            min_count: 2,
            minimizer_len: 7,
            ..Default::default()
        };
        let range = ctx.block_range(reads.len());
        let res = kmer_analysis(ctx, &reads[range], &params);
        build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default())
    }

    fn covered(seqs: &[(String, usize)]) -> Vec<Read> {
        seqs.iter()
            .flat_map(|(s, copies)| {
                (0..*copies)
                    .map(move |i| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            })
            .collect()
    }

    /// At 1–4 ranks, one [`clean_contigs`] pass equals bubble merging
    /// followed by pruning of its output (each with its own adjacency), set
    /// and report, on rank 0, and both leave the other ranks empty-handed;
    /// and the survivors are in [`ContigSet::from_sequences`] order. Returns
    /// the summed reports.
    fn one_pass_equals_bubble_then_prune(
        k: usize,
        graph: impl Fn(&Ctx) -> KmerGraph + Sync,
        bubble: &BubbleParams,
        prune: &PruningParams,
    ) -> CleanReport {
        let mut sum = CleanReport::default();
        for ranks in 1..=4 {
            let out = Team::single_node(ranks).run(|ctx| {
                let graph = graph(ctx);
                let set = traverse_contigs(ctx, &graph, k, &TraversalParams::default());
                let one = clean_contigs(ctx, &set, &graph, Some(bubble), Some(prune));
                let (merged, b) = merge_bubbles_and_remove_hair(ctx, &set, &graph, bubble);
                let (pruned, p) = prune_iteratively(ctx, &merged, &graph, prune);
                let two = (
                    pruned,
                    CleanReport {
                        bubble: b,
                        pruning: p,
                    },
                );
                (one, two)
            });
            let nothing = (ContigSet::new(k), CleanReport::default());
            for (one, two) in &out[1..] {
                assert_eq!((one, two), (&nothing, &nothing), "k={k} ranks={ranks}");
            }
            let (one, two) = &out[0];
            assert_eq!(one, two, "k={k} ranks={ranks}");
            let resorted = ContigSet::from_sequences(
                k,
                one.0
                    .contigs
                    .iter()
                    .map(|c| (c.seq.clone(), c.depth))
                    .collect(),
            );
            assert_eq!(
                resorted, one.0,
                "k={k} ranks={ranks}: survivors out of order"
            );
            let r = one.1;
            sum.bubble.bubbles_merged += r.bubble.bubbles_merged;
            sum.bubble.hair_removed += r.bubble.hair_removed;
            sum.pruning.removed += r.pruning.removed;
        }
        sum
    }

    /// A SNP bubble, a hair and a shallow branch on one deep path.
    fn planted_reads() -> Vec<Read> {
        let left = "ACGGTCAGGTTCAAGGACTCCGTA";
        let right = "TCAGCATTAGCGTAGGACCTTGAC";
        let main = format!("{left}GGCATTACGGATACCAGGATCCAG{right}");
        covered(&[
            (main.clone(), 20),
            (format!("{left}GGCATTACGGATGCCAGGATCCAG{right}"), 8),
            (format!("{}TTTTTTAAAAAT", &main[..20]), 4),
            (format!("{}ACAGATTTACAGG", &main[..30]), 4),
        ])
    }

    /// Between collectives only rank 0 holds a contig set: at 1–4 ranks the
    /// traversal, the clean-up pass and the store's materialisation each
    /// return the 1-rank set on rank 0 and an empty set with the same k on
    /// every other rank.
    #[test]
    fn contig_sets_are_held_on_rank_zero_only() {
        let reads = planted_reads();
        let run = |ranks: usize| {
            let out = Team::single_node(ranks).run(|ctx| {
                let graph = graph_of_reads(ctx, &reads, 15);
                let traversed = traverse_contigs(ctx, &graph, 15, &TraversalParams::default());
                let bubble = BubbleParams::default();
                let prune = PruningParams::default();
                let (cleaned, _) =
                    clean_contigs(ctx, &traversed, &graph, Some(&bubble), Some(&prune));
                let store = ContigStore::build(ctx, &cleaned, &Default::default());
                let materialized = store.materialize(ctx);
                [traversed, cleaned, materialized]
            });
            let mut stages: [Vec<ContigSet>; 3] = Default::default();
            for sets in out {
                for (stage, set) in stages.iter_mut().zip(sets) {
                    stage.push(set);
                }
            }
            stages.map(rank_zero_set)
        };
        let one = run(1);
        let [traversed, cleaned, materialized] = &one;
        assert!(
            cleaned.len() < traversed.len(),
            "the clean-up pass did nothing"
        );
        assert_eq!(materialized, cleaned);
        for ranks in 2..=4 {
            assert_eq!(run(ranks), one, "{ranks} ranks");
        }
    }

    #[test]
    fn one_clean_up_pass_equals_bubble_merging_then_pruning() {
        let bubbles = [
            BubbleParams::default(),
            BubbleParams {
                merge_long_bubbles: true,
                len_tolerance: 0.3,
                remove_hair: true,
            },
        ];
        let prunes = [
            PruningParams::default(),
            PruningParams {
                alpha: 0.5,
                beta: 1.0,
                max_rounds: 200,
            },
        ];
        let common = "GGCATTACGGATACCAGGATCCAG";
        let forked = covered(&[
            (format!("ACGGTCAGGTTCAAGGACT{common}TACCGGTTAACCGGTATTC"), 3),
            (format!("TTTTGAGGCCACAAAATTT{common}CTCTCGAGAGAGGCGCGAT"), 3),
        ]);
        let planted = planted_reads();
        let mut rng = StdRng::seed_from_u64(20261019);
        let mut sum = CleanReport::default();
        for bubble in &bubbles {
            for prune in &prunes {
                let mut runs = Vec::new();
                runs.push(one_pass_equals_bubble_then_prune(
                    15,
                    |ctx| graph_of_reads(ctx, &forked, 15),
                    bubble,
                    prune,
                ));
                runs.push(one_pass_equals_bubble_then_prune(
                    15,
                    |ctx| graph_of_reads(ctx, &planted, 15),
                    bubble,
                    prune,
                ));
                for k in [11, 15, 21] {
                    let stress = stress_reads(&mut rng, k);
                    runs.push(one_pass_equals_bubble_then_prune(
                        k,
                        |ctx| graph_of_reads(ctx, &stress, k),
                        bubble,
                        prune,
                    ));
                    let (verts, _) = lasso_vertices(&mut rng, k, 20);
                    runs.push(one_pass_equals_bubble_then_prune(
                        k,
                        |ctx| graph_of(ctx, &verts),
                        bubble,
                        prune,
                    ));
                }
                for r in runs {
                    sum.bubble.bubbles_merged += r.bubble.bubbles_merged;
                    sum.bubble.hair_removed += r.bubble.hair_removed;
                    sum.pruning.removed += r.pruning.removed;
                }
            }
        }
        // Each step had work to do somewhere.
        assert!(sum.bubble.bubbles_merged > 0, "{sum:?}");
        assert!(sum.bubble.hair_removed > 0, "{sum:?}");
        assert!(sum.pruning.removed > 0, "{sum:?}");
    }
}

//! Contig-end anchors and contig adjacency.
//!
//! Several stages (bubble merging, hair removal, iterative pruning) need to
//! know how contigs connect to each other through the fork k-mers that
//! terminated the traversal. For a contig's end we call the k-mer *just
//! outside* the contig (reached through the end k-mer's extension) the end's
//! **anchor**; two contigs that share an anchor are neighbours in the contig
//! graph. The anchor index is a distributed hash table keyed by anchor k-mer,
//! exactly the "bubble-contig graph" construction of §II-D.

use crate::graph::{lookup_oriented_many, KmerGraph, OrientedVertex};
use crate::types::{ContigId, ContigSet};
use dht::{bulk_merge, DistMap};
use kmers::{Ext, Kmer};
use pgas::Ctx;
use std::sync::Arc;

/// Aggregation batch of the anchor lookups behind the contig graph that
/// bubble merging and pruning build: at most this many travel in one message
/// to an owner. The adjacency does not depend on it.
pub(crate) const ANCHOR_LOOKUP_BATCH: usize = 4096;

/// Which end of a contig an anchor belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// The anchors of one contig (in the contig's stored orientation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContigEnds {
    pub left_anchor: Option<Kmer>,
    pub right_anchor: Option<Kmer>,
}

/// Anchor information and adjacency for a whole contig set. Identical on every
/// rank after construction.
#[derive(Debug, Clone, Default)]
pub struct ContigAdjacency {
    /// Indexed by contig id.
    pub ends: Vec<ContigEnds>,
    /// For every contig, the ids of contigs sharing at least one anchor k-mer.
    pub neighbors: Vec<Vec<ContigId>>,
}

impl ContigAdjacency {
    /// Mean depth of a contig's (alive) neighbours; 0 when it has none.
    pub fn neighbor_mean_depth(&self, contigs: &ContigSet, id: ContigId, alive: &[bool]) -> f64 {
        let ns = &self.neighbors[id as usize];
        let mut sum = 0.0;
        let mut n = 0usize;
        for &other in ns {
            if alive[other as usize] {
                sum += contigs.contigs[other as usize].depth;
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

/// A contig's slots in the batched anchor lookup: its id plus, for each end
/// that has a query, the index of that query and the end k-mer itself.
type EndQuerySlots = (ContigId, Option<(usize, Kmer)>, Option<(usize, Kmer)>);

/// Anchor computation: the end k-mers of the rank's whole contig block are
/// resolved in one aggregated round trip.
fn block_ends(
    ctx: &Ctx,
    graph: &KmerGraph,
    contigs: &ContigSet,
    my_range: std::ops::Range<usize>,
    lookup_batch: usize,
) -> Vec<(ContigId, ContigEnds)> {
    let k = contigs.k;
    // queries[2 * i] is contig i's first k-mer, queries[2 * i + 1] its last
    // (when present) — `positions` maps each contig to its query slots.
    let mut queries: Vec<Kmer> = Vec::with_capacity(2 * my_range.len());
    let mut positions: Vec<EndQuerySlots> = Vec::with_capacity(my_range.len());
    for idx in my_range {
        let c = &contigs.contigs[idx];
        if c.seq.len() < k {
            positions.push((c.id, None, None));
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
        positions.push((c.id, first, last));
    }
    let vertices = lookup_oriented_many(ctx, graph, &queries, lookup_batch);
    positions
        .into_iter()
        .map(|(id, first, last)| {
            let left_anchor = first
                .and_then(|(slot, f)| vertices[slot].as_ref().and_then(|v| left_anchor_of(&f, v)));
            let right_anchor = last
                .and_then(|(slot, l)| vertices[slot].as_ref().and_then(|v| right_anchor_of(&l, v)));
            (
                id,
                ContigEnds {
                    left_anchor,
                    right_anchor,
                },
            )
        })
        .collect()
}

/// Collectively builds anchors and adjacency for a contig set.
///
/// The anchor k-mers of the rank's whole block are read from the graph in a
/// single aggregated request–response round trip of messages of at most
/// `lookup_batch` (> 0) lookups; the adjacency does not depend on the size.
pub fn build_adjacency(
    ctx: &Ctx,
    contigs: &ContigSet,
    graph: &KmerGraph,
    lookup_batch: usize,
) -> ContigAdjacency {
    let n = contigs.len();
    let my_range = ctx.block_range(n);

    // --- Anchors for this rank's block of contigs ----------------------------
    let my_ends = block_ends(ctx, graph, contigs, my_range, lookup_batch);

    // --- Distributed anchor index: anchor k-mer -> [(contig, side)] ----------
    let index: Arc<DistMap<Kmer, Vec<(ContigId, Side)>>> = DistMap::shared(ctx);
    let items = my_ends.iter().flat_map(|(id, ends)| {
        let mut v = Vec::new();
        if let Some(a) = ends.left_anchor {
            v.push((a, vec![(*id, Side::Left)]));
        }
        if let Some(a) = ends.right_anchor {
            v.push((a, vec![(*id, Side::Right)]));
        }
        v
    });
    bulk_merge(ctx, &index, items, 1024, |a, mut b| a.append(&mut b));

    // --- Neighbour pairs from locally owned anchor buckets -------------------
    let mut my_pairs: Vec<(ContigId, ContigId)> = Vec::new();
    index.for_each_local(ctx, |_, members| {
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                let (a, b) = (members[i].0, members[j].0);
                if a != b {
                    my_pairs.push((a, b));
                }
            }
        }
    });

    // --- Gather ends and pairs on rank 0, broadcast the result ----------------
    let all_ends = ctx.gather(my_ends);
    let all_pairs = ctx.gather(my_pairs);
    ctx.broadcast(|| {
        let mut ends = vec![ContigEnds::default(); n];
        for (id, e) in all_ends {
            ends[id as usize] = e;
        }
        let mut neighbors: Vec<Vec<ContigId>> = vec![Vec::new(); n];
        for (a, b) in all_pairs {
            neighbors[a as usize].push(b);
            neighbors[b as usize].push(a);
        }
        for ns in &mut neighbors {
            ns.sort_unstable();
            ns.dedup();
        }
        ContigAdjacency { ends, neighbors }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, lookup_oriented, ThresholdPolicy};
    use crate::traversal::{traverse_contigs, TraversalParams};
    use pgas::Team;
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
        // All ranks agree.
        for (c, a2) in &out[1..] {
            assert_eq!(c, &out[0].0);
            assert_eq!(a2.ends, out[0].1.ends);
            assert_eq!(a2.neighbors, out[0].1.neighbors);
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
            assert!(fine_ends
                .iter()
                .any(|e| e.left_anchor.is_some() || e.right_anchor.is_some()));
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
        let alive_all = vec![true; contigs.len()];
        let alive_none = vec![false; contigs.len()];
        for c in &contigs.contigs {
            let with = adj.neighbor_mean_depth(&contigs, c.id, &alive_all);
            let without = adj.neighbor_mean_depth(&contigs, c.id, &alive_none);
            assert!(with >= 0.0);
            assert_eq!(without, 0.0);
        }
    }
}

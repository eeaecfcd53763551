//! Parallel de Bruijn graph traversal: turning UU k-mer paths into contigs.
//!
//! Contigs are maximal paths of k-mers that have a unique high-quality
//! extension on both sides (§II-C). [`traverse_contigs`] generates them by
//! **segment compaction + stitching** (the `segment` module): each rank first
//! compacts its *owned* shard entirely in memory through a direct
//! [`dht::DistMap::local_view`], emitting maximal owner-local segments and
//! finishing there every path that never crosses an ownership boundary.
//! The segments left go to rank 0 in one gather, whatever the chain
//! lengths, and rank 0 stitches them into their paths and cycles, where the
//! contig set is gathered anyway. At one rank nothing is stitched.
//! Communication is `O(owner crossings)` aggregated records, not the
//! `O(contig length)` fine-grained lookups of the paper's §II-D walker.
//!
//! Ownership of each path is decided *deterministically*, so the contig set
//! is identical for any rank count (which both simplifies testing and removes
//! the need for the paper's serial clean-up of aborted speculative
//! traversals). The §II-D per-hop walker survives as the test-only reference
//! the unit tests hold the segment traversal to, hairpins and Möbius cycles
//! included; it is not compiled into the library.

use crate::graph::KmerGraph;
use crate::types::ContigSet;
use kmers::Ext;
use pgas::Ctx;

/// Parameters of the traversal.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraversalParams {
    /// Minimum contig length (in bases) to emit. Contigs shorter than this are
    /// dropped immediately.
    pub min_contig_len: usize,
}

/// True if the vertex may be part of a contig: fork vertices (an `F` on either
/// side) belong to multiple paths and are excluded; dead-end sides (`X`) are
/// fine — they simply terminate the contig.
pub(crate) fn eligible(left: Ext, right: Ext) -> bool {
    left != Ext::Fork && right != Ext::Fork
}

/// Traverses the graph and returns the contig set on rank 0, and an empty
/// set with the same k on every other rank. Collective. The traversal claims
/// every eligible vertex in the graph and takes a claimed vertex as already
/// walked, so it needs a graph whose claims are clear, as building it leaves
/// them.
///
/// # Panics
/// Panics if `k` is even: an even-length k-mer can be its own reverse
/// complement, which the emitter rules of the traversal exclude.
pub fn traverse_contigs(
    ctx: &Ctx,
    graph: &KmerGraph,
    k: usize,
    params: &TraversalParams,
) -> ContigSet {
    assert!(
        k % 2 == 1,
        "traverse_contigs needs an odd k (an even-length k-mer can be its own reverse \
         complement), got k = {k}"
    );
    let local = crate::segment::segment_contigs(ctx, graph, k, params);
    ContigSet::from_sequences(k, ctx.gather(local))
}

pub(crate) fn push_contig(
    local: &mut Vec<(Vec<u8>, f64)>,
    bases: Vec<u8>,
    depth_sum: f64,
    vcount: usize,
    params: &TraversalParams,
) {
    if bases.len() < params.min_contig_len {
        return;
    }
    let depth = if vcount == 0 {
        0.0
    } else {
        depth_sum / vcount as f64
    };
    local.push((bases, depth));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, ThresholdPolicy};
    use crate::per_hop::per_hop_contig_set;
    use crate::types::tests::rank_zero_set;
    use pgas::Team;
    use seqio::alphabet::revcomp;
    use seqio::Read;

    /// The traversal under test (`segment`) or its reference walker.
    fn traverse(
        ctx: &Ctx,
        graph: &KmerGraph,
        k: usize,
        params: &TraversalParams,
        segment: bool,
    ) -> ContigSet {
        if segment {
            traverse_contigs(ctx, graph, k, params)
        } else {
            per_hop_contig_set(ctx, graph, k, params)
        }
    }

    fn assemble_with(seqs: &[&str], k: usize, ranks: usize, segment: bool) -> ContigSet {
        let reads: Vec<Read> = seqs
            .iter()
            .cycle()
            .take(seqs.len() * 3) // 3x coverage so min_count=2 passes
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            .collect();
        let team = Team::single_node(ranks);
        let sets = team.run(|ctx| {
            let range = ctx.block_range(reads.len());
            let params = KmerAnalysisParams {
                k,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads[range], &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            traverse(ctx, &graph, k, &TraversalParams::default(), segment)
        });
        rank_zero_set(sets)
    }

    /// Runs the traversal and its reference walker, asserts they agree,
    /// returns the traversal's set.
    fn assemble(seqs: &[&str], k: usize, ranks: usize) -> ContigSet {
        let seg = assemble_with(seqs, k, ranks, true);
        let hop = assemble_with(seqs, k, ranks, false);
        assert_eq!(
            seg, hop,
            "segment traversal must match the per-hop reference"
        );
        seg
    }

    #[test]
    fn single_sequence_reassembles_exactly() {
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACGGATACCAGGATCCAGATCACCAGT";
        let set = assemble(&[seq], 21, 2);
        assert_eq!(set.len(), 1, "expected one contig, got {}", set.len());
        let contig = &set.contigs[0];
        let fwd = seq.as_bytes().to_vec();
        let rc = revcomp(&fwd);
        assert!(contig.seq == fwd || contig.seq == rc);
        assert!((contig.depth - 3.0).abs() < 1e-9);
    }

    #[test]
    fn result_independent_of_rank_count() {
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACGGATACCAGGATCCAGATCACCAGT";
        let one = assemble(&[seq], 15, 1);
        let four = assemble(&[seq], 15, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn two_separate_sequences_give_two_contigs() {
        let a = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACG";
        let b = "TTTTGGGGCCCCAAAATTTCTCTCTAGAGAGGCGCGAT";
        let set = assemble(&[a, b], 15, 2);
        assert_eq!(set.len(), 2);
        let lens: Vec<usize> = set.contigs.iter().map(|c| c.len()).collect();
        assert!(lens.contains(&a.len()));
        assert!(lens.contains(&b.len()));
    }

    #[test]
    fn fork_splits_contigs() {
        // Two sequences share a common middle segment, creating fork vertices
        // at both of its ends: the traversal must stop at the forks.
        let common = "GGCATTACGGATACCAGGATCCAG";
        let a = format!("ACGGTCAGGTTCAAGGACT{common}TACCGGTTAACCGGTATTC");
        let b = format!("TTTTGAGGCCACAAAATTT{common}CTCTCGAGAGAGGCGCGAT");
        let set = assemble(&[&a, &b], 15, 2);
        // Expected pieces: 4 unique flanks + 1 shared middle, all shorter than
        // the full sequences.
        assert!(
            set.len() >= 4,
            "expected the fork to split contigs, got {}",
            set.len()
        );
        assert!(set.contigs.iter().all(|c| c.len() < a.len()));
        // The shared middle must appear in exactly one contig.
        let middles = set
            .contigs
            .iter()
            .filter(|c| {
                let s = String::from_utf8(c.seq.clone()).unwrap();
                let r = String::from_utf8(revcomp(&c.seq)).unwrap();
                s.contains("GGATACCAGGATCC") || r.contains("GGATACCAGGATCC")
            })
            .count();
        assert_eq!(middles, 1);
    }

    #[test]
    fn circular_sequence_is_recovered_as_single_contig() {
        // A circular template: reads tile the doubled sequence so every
        // junction-spanning k-mer is observed.
        let circle = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACGGATACCA";
        let doubled = format!("{circle}{circle}");
        let window = 30;
        let reads: Vec<&str> = (0..circle.len()).map(|i| &doubled[i..i + window]).collect();
        let set = assemble(&reads, 15, 2);
        assert_eq!(set.len(), 1, "cycle should yield one contig");
        // A k-mer cycle of L vertices is emitted as a contig of L + k - 1 bases.
        assert_eq!(set.contigs[0].len(), circle.len() + 15 - 1);
    }

    #[test]
    fn min_contig_len_filters_short_output() {
        let seq = "ACGGTCAGGTTCAAGGACTTACGG";
        let reads: Vec<Read> = (0..3)
            .map(|i| Read::with_uniform_quality(format!("r{i}"), seq.as_bytes(), 35))
            .collect();
        for segment in [true, false] {
            let team = Team::single_node(1);
            let sets = team.run(|ctx| {
                let params = KmerAnalysisParams {
                    k: 15,
                    min_count: 2,
                    ..Default::default()
                };
                let res = kmer_analysis(ctx, &reads, &params);
                let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
                let params = TraversalParams {
                    min_contig_len: 1000,
                };
                traverse(ctx, &graph, 15, &params, segment)
            });
            assert!(sets[0].is_empty());
        }
    }

    #[test]
    fn segment_traversal_claims_all_eligible_vertices() {
        // The traversal must leave the graph state its reference walker
        // leaves behind: every eligible vertex claimed, every fork vertex
        // unclaimed. Two sequences sharing a middle plant the forks; a
        // circle adds a fully-local cycle at one rank.
        let common = "GGCATTACGGATACCAGGATCCAG";
        let a = format!("ACGGTCAGGTTCAAGGACT{common}TACCGGTTAACCGGTATTC");
        let b = format!("TTTTGAGGCCACAAAATTT{common}CTCTCGAGAGAGGCGCGAT");
        let circle = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACGGATACCA";
        let doubled = format!("{circle}{circle}");
        let mut seqs: Vec<&str> = vec![&a, &b];
        seqs.extend((0..circle.len()).map(|i| &doubled[i..i + 30]));
        let reads: Vec<Read> = seqs
            .iter()
            .cycle()
            .take(seqs.len() * 3)
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            .collect();
        for segment in [true, false] {
            for ranks in [1usize, 2, 3] {
                let counts = Team::single_node(ranks).run(|ctx| {
                    let params = KmerAnalysisParams {
                        k: 15,
                        min_count: 2,
                        ..Default::default()
                    };
                    let range = ctx.block_range(reads.len());
                    let res = kmer_analysis(ctx, &reads[range], &params);
                    let graph =
                        build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
                    traverse(ctx, &graph, 15, &TraversalParams::default(), segment);
                    let mut forks = 0u64;
                    graph.for_each_local(ctx, |kmer, v| {
                        let ok = eligible(v.left(), v.right());
                        assert_eq!(
                            v.used(),
                            ok,
                            "{kmer} (eligible: {ok}) has used = {}",
                            v.used()
                        );
                        forks += u64::from(!ok);
                    });
                    ctx.allreduce_sum_u64(forks)
                });
                assert!(
                    counts[0] > 0,
                    "the graph has no fork vertex to leave unclaimed"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "got k = 12")]
    fn traverse_contigs_on_even_k_fails_naming_k() {
        Team::single_node(1).run(|ctx| {
            let graph = build_graph(
                ctx,
                &ctx.share(|| crate::table::KmerTable::new(1, 12, 7)),
                ThresholdPolicy::metahipmer_default(),
            );
            traverse_contigs(ctx, &graph, 12, &TraversalParams::default())
        });
    }
}

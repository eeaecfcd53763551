//! Merging k-mer sets across iterations of the multi-k loop (§II-H).
//!
//! When the pipeline moves from k to k+s, k-mers from low-coverage organisms
//! often fail the (k+s)-mer admission thresholds even though they were
//! assembled confidently at the smaller k. MetaHipMer therefore extracts all
//! (k+s)-mers from the previous iteration's contigs and injects them into the
//! new k-mer set as error-free, high-quality-extension k-mers. Injection uses
//! the same aggregated update-only hash-table phase as k-mer analysis, and
//! duplicates (k-mers present in both sets) simply merge their counts.

use crate::analysis::KmerCountsMap;
use crate::store::ContigsRef;
use crate::types::ContigSet;
use dht::bulk_merge;
use kmers::{kmers_with_exts_iter, KmerCounts};
use pgas::Ctx;

/// Collectively injects the (new_k)-mers of a replicated `contigs` set into
/// `counts`.
pub fn inject_contig_kmers(
    ctx: &Ctx,
    counts: &KmerCountsMap,
    contigs: &ContigSet,
    new_k: usize,
    weight: u32,
) -> usize {
    inject_contig_kmers_ref(ctx, counts, ContigsRef::Local(contigs), new_k, weight)
}

/// Collectively injects the (new_k)-mers of the previous iteration's contigs
/// into `counts`.
///
/// `weight` is the pseudo-count given to each injected k-mer occurrence; it
/// must be at least the analysis ε so injected k-mers survive the depth
/// filter. Extensions observed inside the contigs are recorded as high
/// quality (contig bases are error-free by construction of the previous
/// iteration).
///
/// With a replicated set every rank extracts from a block of the contigs;
/// with the distributed store every rank extracts from the contigs it owns —
/// an owner-local read pass. The merged counts are identical either way
/// because the per-k-mer merge is commutative.
pub fn inject_contig_kmers_ref(
    ctx: &Ctx,
    counts: &KmerCountsMap,
    contigs: ContigsRef<'_>,
    new_k: usize,
    weight: u32,
) -> usize {
    assert!(weight >= 1);
    let mut injected = 0usize;
    let observe = |obs: kmers::CanonicalKmerExt| {
        let mut kc = KmerCounts::default();
        for _ in 0..weight {
            kc.observe(obs.exts);
        }
        (obs.kmer, kc)
    };
    match contigs {
        ContigsRef::Local(set) => {
            let my_range = ctx.block_range(set.len());
            // Streamed straight into the aggregated exchange: the
            // allocation-free extraction iterator avoids both a per-contig
            // Vec and the collected item list.
            let items = set.contigs[my_range]
                .iter()
                .flat_map(|c| kmers_with_exts_iter(&c.seq, &[], new_k, 0))
                .map(|obs| {
                    injected += 1;
                    observe(obs)
                });
            bulk_merge(ctx, counts, items, 4096, |a, b| a.merge(&b));
        }
        ContigsRef::Store(store) => {
            // Unpack this rank's owned contigs once (O(shard) bytes), then
            // stream the extracted k-mers lazily into the aggregated
            // exchange like the replicated arm — a collected per-k-mer item
            // list would transiently dwarf the packed shard.
            let mut owned: Vec<Vec<u8>> = Vec::new();
            store
                .map()
                .for_each_local(ctx, |_, packed| owned.push(packed.unpack()));
            let items = owned
                .iter()
                .flat_map(|seq| kmers_with_exts_iter(seq, &[], new_k, 0))
                .map(|obs| {
                    injected += 1;
                    observe(obs)
                });
            bulk_merge(ctx, counts, items, 4096, |a, b| a.merge(&b));
        }
    }
    ctx.allreduce_sum_u64(injected as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, ThresholdPolicy};
    use crate::traversal::{traverse_contigs, TraversalParams};
    use dht::DistMap;
    use pgas::Team;
    use seqio::Read;
    use std::sync::Arc;

    #[test]
    fn injection_preserves_low_coverage_kmers_at_larger_k() {
        // A sequence covered only 2x: at k=31 with min_count=2 it still counts,
        // but pretend the next iteration's analysis missed it (we start from an
        // empty counts table) — injection from the k=21 contigs must supply the
        // 31-mers.
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACGGATACCAGGATCCAGATCACCAGT";
        let reads: Vec<Read> = (0..2)
            .map(|i| Read::with_uniform_quality(format!("r{i}"), seq.as_bytes(), 35))
            .collect();
        let team = Team::single_node(2);
        let out = team.run(|ctx| {
            let range = ctx.block_range(reads.len());
            let params = KmerAnalysisParams {
                k: 21,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads[range], &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            let contigs = traverse_contigs(ctx, &graph, 21, &TraversalParams::default());
            assert_eq!(contigs.len(), 1);

            // Fresh, empty counts table for k=31 ("nothing admitted").
            let new_counts: Arc<DistMap<kmers::Kmer, KmerCounts>> = DistMap::shared(ctx);
            let injected = inject_contig_kmers(ctx, &new_counts, &contigs, 31, 2);
            ctx.barrier();
            (injected, new_counts.len(), {
                // Build a graph on the injected set: the sequence must
                // re-assemble into the same single contig at k=31.
                let graph31 = build_graph(ctx, &new_counts, ThresholdPolicy::metahipmer_default());
                traverse_contigs(ctx, &graph31, 31, &TraversalParams::default())
            })
        });
        let (injected, table_len, contigs31) = &out[0];
        let expected = seq.len() - 31 + 1;
        assert_eq!(*injected, expected);
        assert_eq!(*table_len, expected);
        assert_eq!(contigs31.len(), 1);
        assert_eq!(contigs31.contigs[0].len(), seq.len());
    }

    #[test]
    fn duplicate_kmers_merge_counts() {
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATG";
        let team = Team::single_node(1);
        team.run(|ctx| {
            let contigs = ContigSet::from_sequences(15, vec![(seq.as_bytes().to_vec(), 5.0)]);
            let counts: Arc<DistMap<kmers::Kmer, KmerCounts>> = DistMap::shared(ctx);
            inject_contig_kmers(ctx, &counts, &contigs, 15, 2);
            inject_contig_kmers(ctx, &counts, &contigs, 15, 3);
            // Every k-mer now has count 5 and there are no duplicates.
            assert_eq!(counts.len(), seq.len() - 15 + 1);
            counts.for_each_local(ctx, |_, v| assert_eq!(v.count, 5));
        });
    }
}

//! Merging k-mer sets across iterations of the multi-k loop (§II-H).
//!
//! When the pipeline moves from k to k+s, k-mers from low-coverage organisms
//! often fail the (k+s)-mer admission thresholds even though they were
//! assembled confidently at the smaller k. MetaHipMer therefore extracts all
//! (k+s)-mers from the previous iteration's contigs and injects them into the
//! new k-mer set as error-free, high-quality-extension k-mers. Injection uses
//! the same aggregated update-only phase as k-mer analysis: the contigs are
//! cut into 2-bit supermers and shipped by minimizer through analysis's send
//! loop (`ship_contig_supermers`), so every injected k-mer arrives at the
//! rank that owns it in the k-mer table.
//!
//! The pipeline merges while it counts: [`crate::kmer_graph_from`] ships the
//! contigs' supermers next to the reads' and counts both in the same
//! minimizer bins, so a k-mer's contig windows join its read count (when
//! that reached ε) before the bin is reduced into the graph.
//! [`inject_contig_kmers_ref`] merges into a full counts table after the
//! fact, for callers that hold one; the two give the same vertices.

use crate::analysis::{ship_supermers, TagRuns, TAGS};
use crate::store::ContigsRef;
use crate::table::{with_keys, KmerCountsMap};
use dht::DistMap;
use kmers::minimizer::expand_supermer_keys;
use kmers::{KmerCounts, KmerKey};
use pgas::Ctx;
use seqio::PackedReadView;

/// Collectively injects the (new_k)-mers of the previous iteration's contigs
/// into `counts`, a table made by [`crate::kmer_analysis_from`] at `new_k`,
/// and returns the number of k-mer windows injected by the whole team.
///
/// Every window of every contig adds `weight` observations of the k-mer with
/// the extensions seen inside the contig, recorded as high quality (contig
/// bases are error-free by construction of the previous iteration). The
/// pipeline injects after analysis's ε cut, so the weight decides the depth
/// an injected k-mer brings into graph construction, not whether it survives.
///
/// Every rank cuts the contigs it owns in the store in place — an
/// owner-local read pass. The supermers are cut with the table's own
/// minimizer length, so each lands on its k-mers' owner, which expands it
/// into its shard. The merged counts do not depend on the rank count because
/// the per-k-mer merge is commutative.
///
/// The contigs are cut as the store packed them: lower case folds into its
/// 2-bit code, every other byte but A/C/G/T is an exception, and windows
/// holding an exception are skipped, as [`kmers::kmers_with_exts_iter`]
/// skips them. Pipeline contigs are upper-case ACGT in any case: the
/// traversal spells them from 2-bit k-mers, and local assembly extends them
/// only with decoded 2-bit votes.
pub fn inject_contig_kmers_ref(
    ctx: &Ctx,
    counts: &KmerCountsMap,
    contigs: ContigsRef<'_>,
    new_k: usize,
    weight: u32,
) -> usize {
    assert!(weight >= 1);
    assert_eq!(counts.k(), new_k, "the counts table holds another k");
    let filed = ship_contig_supermers(ctx, contigs, new_k, counts.minimizer_len());
    let injected = with_keys!(counts, map => merge_windows(ctx, map, &filed, new_k, weight));
    ctx.barrier();
    ctx.allreduce_sum_u64(injected as u64) as usize
}

/// The send side of injection, shared with [`crate::kmer_graph_from`]:
/// every rank cuts the contigs it owns in the store into supermers of
/// `k`-mers under minimizer length `m`, every base high quality, and files
/// them on their owners. Returns this rank's runs. Collective.
pub(crate) fn ship_contig_supermers(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    k: usize,
    m: usize,
) -> TagRuns {
    let ContigsRef::Store(store) = contigs;
    let for_each_contig = |each: &mut dyn FnMut(PackedReadView<'_>)| {
        store
            .map()
            .for_each_local(ctx, |_, packed| each(packed.view()))
    };
    ship_supermers(ctx, for_each_contig, k, m, 0, 4096)
}

/// The receive side of injection: expands the supermer records `filed`
/// holds, in place, and merges `weight` observations of every window into
/// this rank's shard through one held view of it. Returns the number of
/// windows merged.
fn merge_windows<K: KmerKey>(
    ctx: &Ctx,
    counts: &DistMap<K, KmerCounts>,
    filed: &TagRuns,
    k: usize,
    weight: u32,
) -> usize {
    let mut shard = counts.local_view(ctx);
    let mut injected = 0usize;
    for record in filed.records(0..TAGS) {
        expand_supermer_keys::<K>(&record, k, |key, exts| {
            debug_assert_eq!(counts.owner_of(&key), ctx.rank(), "misrouted supermer");
            shard.entry(key).or_default().observe_n(exts, weight);
            injected += 1;
        });
    }
    injected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, kmer_analysis_from, kmer_graph_from, KmerAnalysisParams};
    use crate::graph::{build_graph, KmerGraph, KmerVertex, ThresholdPolicy};
    use crate::store::ContigStore;
    use crate::table::KmerTable;
    use crate::traversal::{traverse_contigs, TraversalParams};
    use crate::types::ContigSet;
    use dht::FxHashMap;
    use kmers::minimizer::MAX_SUPERMER_BASES;
    use kmers::{kmers_with_exts_iter, Kmer};
    use pgas::Team;
    use seqio::Read;

    /// An empty counts table of k-mer analysis's shape at `k`.
    fn empty_table(ctx: &Ctx, k: usize) -> KmerCountsMap {
        let m = KmerAnalysisParams {
            k,
            ..Default::default()
        }
        .effective_minimizer_len();
        ctx.share(|| KmerTable::new(ctx.ranks(), k, m))
    }

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
            // Rank 0 holds the traversed set; the store build reads it there.
            assert_eq!(contigs.len(), usize::from(ctx.rank() == 0));

            // Fresh, empty counts table for k=31 ("nothing admitted").
            let new_counts = empty_table(ctx, 31);
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let injected =
                inject_contig_kmers_ref(ctx, &new_counts, ContigsRef::Store(&store), 31, 2);
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
            let counts = empty_table(ctx, 15);
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            inject_contig_kmers_ref(ctx, &counts, ContigsRef::Store(&store), 15, 2);
            inject_contig_kmers_ref(ctx, &counts, ContigsRef::Store(&store), 15, 3);
            // Every k-mer now has count 5 and there are no duplicates.
            assert_eq!(counts.len(), seq.len() - 15 + 1);
            counts.for_each_local(ctx, |_, v| assert_eq!(v.count, 5));
        });
    }

    #[test]
    #[should_panic(expected = "holds another k")]
    fn a_table_of_another_k_is_refused() {
        Team::single_node(1).run(|ctx| {
            let counts = empty_table(ctx, 21);
            let contigs = ContigSet::from_sequences(15, vec![(b"ACGT".repeat(10), 1.0)]);
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            inject_contig_kmers_ref(ctx, &counts, ContigsRef::Store(&store), 15, 1);
        });
    }

    /// Pseudo-random bases (an LCG, so the tests need no seed plumbing).
    fn random_bases(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    /// The reference: analysis's table of `reads` (if any) as a serial count
    /// cut at ε, then `weight` observations of every window of every contig
    /// from the per-k-mer extraction; and the number of windows.
    fn serial_injection(
        reads: &[Read],
        params: &KmerAnalysisParams,
        contigs: &[Vec<u8>],
        weight: u32,
    ) -> (Vec<(Kmer, KmerCounts)>, usize) {
        let mut table: FxHashMap<Kmer, KmerCounts> = FxHashMap::default();
        for read in reads {
            for obs in kmers_with_exts_iter(&read.seq, &read.qual, params.k, params.hq_threshold) {
                table.entry(obs.kmer).or_default().observe(obs.exts);
            }
        }
        table.retain(|_, c| c.count >= params.min_count);
        let mut windows = 0;
        for seq in contigs {
            for obs in kmers_with_exts_iter(seq, &[], params.k, 0) {
                let entry = table.entry(obs.kmer).or_default();
                for _ in 0..weight {
                    entry.observe(obs.exts);
                }
                windows += 1;
            }
        }
        let mut all: Vec<_> = table.into_iter().collect();
        all.sort_by_key(|e| e.0);
        (all, windows)
    }

    /// Injects `seqs` from a store with `weight` at `ranks` ranks, into an
    /// empty table or into analysis's table of `reads`, and holds the table
    /// and the returned count to [`serial_injection`].
    fn check_injection(
        seqs: &[Vec<u8>],
        reads: &[Read],
        params: &KmerAnalysisParams,
        weight: u32,
        ranks: usize,
    ) {
        let (expect, windows) = serial_injection(reads, params, seqs, weight);
        let set =
            ContigSet::from_sequences(params.k, seqs.iter().map(|s| (s.clone(), 1.0)).collect());
        let out = Team::single_node(ranks).run(|ctx| {
            let counts = if reads.is_empty() {
                empty_table(ctx, params.k)
            } else {
                kmer_analysis(ctx, &reads[ctx.block_range(reads.len())], params).counts
            };
            let store = ContigStore::build(ctx, &set, &Default::default());
            let injected =
                inject_contig_kmers_ref(ctx, &counts, ContigsRef::Store(&store), params.k, weight);
            ctx.barrier();
            (injected, counts.local_entries(ctx))
        });
        let what = format!("weight {weight}, {} reads, {ranks} ranks", reads.len());
        let mut got = Vec::new();
        for (injected, entries) in out {
            assert_eq!(injected, windows, "{what}");
            got.extend(entries);
        }
        got.sort_by_key(|e| e.0);
        assert!(got == expect, "{what}: the table is not the serial one");
    }

    #[test]
    fn injection_equals_the_per_kmer_extraction() {
        let k = 33;
        let genome = random_bases(2_000, 31);
        // Upper-case ACGT and N, which is all a pipeline contig holds (and
        // more): contigs shorter than k and exactly k, N singles and runs (at
        // the ends, shorter and longer than k, a contig of nothing else), and
        // overlapping pieces of one genome on both strands, so windows merge
        // across contigs and with the reads.
        let mut with_n = random_bases(600, 4);
        with_n[0] = b'N';
        with_n[100] = b'N';
        with_n[200..210].fill(b'N');
        with_n[300..300 + 2 * k].fill(b'N');
        with_n[599] = b'N';
        let mut seqs = vec![
            random_bases(k - 1, 1),
            random_bases(k, 2),
            with_n,
            b"N".repeat(2 * k),
        ];
        for i in 0..6 {
            let piece = &genome[i * 250..i * 250 + 500];
            seqs.push(if i % 2 == 1 {
                seqio::alphabet::revcomp(piece)
            } else {
                piece.to_vec()
            });
        }
        let reads: Vec<Read> = (0..40)
            .map(|i| {
                let start = i * 47;
                Read::with_uniform_quality(format!("r{i}"), &genome[start..start + 100], 30)
            })
            .collect();
        let params = KmerAnalysisParams {
            k,
            min_count: 2,
            ..Default::default()
        };
        for weight in 1..=3 {
            for reads in [&[][..], &reads] {
                for ranks in 1..=4 {
                    check_injection(&seqs, reads, &params, weight, ranks);
                }
            }
        }
    }

    #[test]
    fn contigs_longer_than_a_wire_record_are_injected_whole() {
        // A random contig and a poly-A one, each cut into several records
        // (the poly-A one has a single minimizer throughout).
        let seqs = vec![random_bases(70_000, 3), vec![b'A'; 70_000]];
        assert!(seqs[0].len() > MAX_SUPERMER_BASES);
        let params = KmerAnalysisParams {
            k: 21,
            ..Default::default()
        };
        for ranks in 1..=4 {
            let weight = 1 + ranks as u32 % 3;
            check_injection(&seqs, &[], &params, weight, ranks);
        }
    }

    /// Every vertex of `graph` this rank owns, sorted.
    fn vertices_of(ctx: &Ctx, graph: &KmerGraph) -> Vec<(Kmer, KmerVertex)> {
        let mut out = graph.vertices.local_entries(ctx);
        out.sort_by_key(|e| e.0);
        out
    }

    /// The whole graph of a `ranks`-rank team, sorted, and the team's
    /// counters: counted straight into the graph, or through the staged
    /// calls (analysis, injection, `build_graph`).
    fn team_graph(
        reads: &[Read],
        contigs: &ContigSet,
        params: &KmerAnalysisParams,
        weight: u32,
        ranks: usize,
        staged: bool,
    ) -> (Vec<(Kmer, KmerVertex)>, pgas::StatsSnapshot) {
        let policy = ThresholdPolicy::metahipmer_default();
        let team = Team::single_node(ranks);
        let stores = team.run(|ctx| ContigStore::build(ctx, contigs, &Default::default()));
        let before = team.stats_total();
        let mut all: Vec<_> = team
            .run(|ctx| {
                let mut source = &reads[ctx.block_range(reads.len())];
                let store = ContigsRef::Store(&stores[ctx.rank()]);
                let graph = if staged {
                    let counts = kmer_analysis_from(ctx, &mut source, params).counts;
                    inject_contig_kmers_ref(ctx, &counts, store, params.k, weight);
                    build_graph(ctx, &counts, policy)
                } else {
                    kmer_graph_from(ctx, &mut source, Some(store), params, weight, policy)
                };
                vertices_of(ctx, &graph)
            })
            .into_iter()
            .flatten()
            .collect();
        all.sort_by_key(|e| e.0);
        (all, team.stats_total().delta_from(&before))
    }

    #[test]
    fn counting_into_the_graph_equals_analysis_then_injection_then_reduction() {
        let genome = random_bases(2_400, 43);
        // Reads off the first 1,600 bases at uneven depth (a stretch read
        // once, so its k-mers sit below ε), on both strands, with errors and
        // low-quality bases; contigs over both ends of the read-covered
        // stretch and beyond it (contig-only k-mers), on both strands, one
        // with an N.
        let mut state = 7u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut reads = Vec::new();
        for i in 0..70 {
            let start = if i % 10 == 0 { 1_300 } else { next(1_200) };
            let mut seq = genome[start..start + 100].to_vec();
            if i % 6 == 1 {
                let at = next(100);
                seq[at] = if seq[at] == b'A' { b'C' } else { b'A' };
            }
            if i % 2 == 1 {
                seq = seqio::alphabet::revcomp(&seq);
            }
            let qual: Vec<u8> = (0..seq.len())
                .map(|j| if j % 17 == 3 { 10 } else { 35 })
                .collect();
            reads.push(Read::new(format!("r{i}"), &seq, &qual));
        }
        let mut with_n = genome[600..900].to_vec();
        with_n[150] = b'N';
        let seqs = vec![
            genome[1_250..2_100].to_vec(),
            seqio::alphabet::revcomp(&genome[100..500]),
            with_n,
            genome[2_200..2_400].to_vec(),
        ];
        for k in [21, 33, 65] {
            let contigs =
                ContigSet::from_sequences(k, seqs.iter().map(|s| (s.clone(), 1.0)).collect());
            // Contig windows without a read observation, and with fewer
            // than ε (2 or 3).
            let mut read_counts: FxHashMap<Kmer, u32> = FxHashMap::default();
            for read in &reads {
                for obs in kmers_with_exts_iter(&read.seq, &read.qual, k, 20) {
                    *read_counts.entry(obs.kmer).or_default() += 1;
                }
            }
            let (mut contig_only, mut thin) = (0, [0; 4]);
            for seq in &seqs {
                for obs in kmers_with_exts_iter(seq, &[], k, 0) {
                    match read_counts.get(&obs.kmer) {
                        None => contig_only += 1,
                        Some(&n) if n < 3 => thin[n as usize] += 1,
                        Some(_) => {}
                    }
                }
            }
            assert!(
                contig_only > 0 && thin[1] > 0 && thin[2] > 0,
                "k = {k}: {thin:?}"
            );
            for min_count in 1..=3 {
                let params = KmerAnalysisParams {
                    k,
                    min_count,
                    ..Default::default()
                };
                for weight in 1..=3 {
                    for ranks in 1..=4 {
                        let what =
                            format!("k = {k}, ε = {min_count}, weight {weight}, {ranks} ranks");
                        let (want, staged) =
                            team_graph(&reads, &contigs, &params, weight, ranks, true);
                        let (got, direct) =
                            team_graph(&reads, &contigs, &params, weight, ranks, false);
                        assert!(got == want, "{what}: the graphs differ");
                        assert_eq!(direct.kmer_observations, staged.kmer_observations, "{what}");
                        assert_eq!(
                            direct.kmer_table_inserts, staged.kmer_table_inserts,
                            "{what}"
                        );
                        assert_eq!(direct.supermer_bytes, staged.supermer_bytes, "{what}");
                        assert!(got.len() > direct.kmer_table_inserts as usize, "{what}");
                    }
                }
            }
        }
    }
}

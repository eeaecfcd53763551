//! Parallel k-mer analysis (§II-B).
//!
//! Every rank processes its slice of the reads, extracts canonical k-mers with
//! their left/right extension observations, and routes them to owner ranks
//! with aggregated messages. Owners count in their local shard of a
//! distributed hash table. Two refinements from the paper are reproduced:
//!
//! * **supermer routing**: instead of shipping every canonical k-mer as a
//!   ~32-byte packed struct, each read is decomposed once into *supermers*
//!   (maximal runs of consecutive k-mers sharing a canonical minimizer, see
//!   [`kmers::minimizer`]) which travel as packed 2-bit sequence with a
//!   quality/extension sidecar, ~(s+k−1)/4 bytes per s k-mers. The counts
//!   table is partitioned by minimizer ([`MinimizerPartitioner`]), so every
//!   occurrence of a k-mer arrives at its owner and exact counting and
//!   heavy-hitter sketching both happen on the receive side of a *single*
//!   exchange;
//! * a **streaming heavy-hitter sketch** identifies k-mers with enormous
//!   counts (ubiquitous in metagenomes because of highly abundant organisms);
//!   the counting itself remains exact. Per-rank sketches are combined with a
//!   deterministic binomial-tree reduction rather than funnelling every
//!   sketch to rank 0. The paper *acts* on the list (ubiquitous k-mers are
//!   combined at the sender so their owner is no hot spot); here nothing
//!   does yet — [`KmerAnalysis::heavy_hitters`] has no consumer outside this
//!   module's tests, and ROADMAP item 1 carries the decision to wire it that
//!   way or stop offering.
//!
//! The paper's third refinement, **Bloom-filter admission** (a k-mer enters
//! the table only once it has probably been seen twice, so singleton error
//! k-mers never take table space), is *not* reproduced: counting here is
//! exact, so every observation goes straight into the table and singletons
//! leave at the ε cut, after which the shard gives their capacity back
//! ([`DistMap::retain_local`]). A filter that really bounds peak memory has
//! to change counts and is a quality-gated roadmap item.
//!
//! The counts table is exactly what a serial count over
//! [`kmers::kmers_with_exts_iter`] filtered at `min_count` gives, for every
//! `min_count >= 1` and at any rank count — the `supermer_equivalence` test
//! holds it to that.

use dht::{DistMap, Partitioner, SpaceSaving};
use kmers::minimizer::{
    encode_supermer, expand_supermer, kmer_minimizer, minimizer_shard, SupermerBlobIter,
    SupermerIter, MAX_MINIMIZER_LEN,
};
use kmers::{Kmer, KmerCounts};
use pgas::{BlobAggregator, Ctx};
use seqio::{Read, ReadSource};
use std::sync::Arc;

/// The distributed k-mer → counts table produced by analysis.
pub type KmerCountsMap = Arc<DistMap<Kmer, KmerCounts>>;

/// Routes a canonical k-mer to the shard of its canonical minimizer, so that
/// table ownership agrees with supermer routing: every k-mer expanded from a
/// supermer is owned by the rank the supermer was shipped to. Because the
/// canonical minimizer is strand-invariant, the partitioner can be evaluated
/// on canonical keys while senders route read-orientation supermers.
#[derive(Debug, Clone, Copy)]
pub struct MinimizerPartitioner {
    m: usize,
}

impl MinimizerPartitioner {
    /// Creates a partitioner for minimizer length `m`
    /// (`1..=`[`MAX_MINIMIZER_LEN`]).
    pub fn new(m: usize) -> Self {
        assert!(
            (1..=MAX_MINIMIZER_LEN).contains(&m),
            "minimizer length must be in 1..={MAX_MINIMIZER_LEN}, got {m}"
        );
        MinimizerPartitioner { m }
    }

    /// The minimizer length.
    pub fn m(&self) -> usize {
        self.m
    }
}

impl Partitioner<Kmer> for MinimizerPartitioner {
    fn owner_of(&self, key: &Kmer, ranks: usize) -> usize {
        minimizer_shard(kmer_minimizer(key, self.m.min(key.k())), ranks)
    }
}

/// Parameters of k-mer analysis.
#[derive(Debug, Clone)]
pub struct KmerAnalysisParams {
    /// k-mer length (must be odd so no k-mer is its own reverse complement).
    pub k: usize,
    /// Minimum count ε for a k-mer to be kept (the paper uses ε ≈ 2–3).
    pub min_count: u32,
    /// Phred threshold above which an extension base counts as high quality.
    pub hq_threshold: u8,
    /// Capacity of the per-rank heavy-hitter sketch (0 disables it).
    pub heavy_hitter_capacity: usize,
    /// Aggregation batch size of the supermer exchange, in packed k-mers
    /// (multiplied by the packed k-mer size to obtain the byte batch).
    pub batch: usize,
    /// Minimizer length m for supermer routing; clamped to
    /// `min(k, `[`MAX_MINIMIZER_LEN`]`)`.
    pub minimizer_len: usize,
}

impl Default for KmerAnalysisParams {
    fn default() -> Self {
        KmerAnalysisParams {
            k: 21,
            min_count: 2,
            hq_threshold: 20,
            heavy_hitter_capacity: 64,
            batch: 4096,
            minimizer_len: 15,
        }
    }
}

impl KmerAnalysisParams {
    /// The effective minimizer length: `minimizer_len` clamped into
    /// `1..=min(k, MAX_MINIMIZER_LEN)`.
    pub fn effective_minimizer_len(&self) -> usize {
        self.minimizer_len.clamp(1, self.k.min(MAX_MINIMIZER_LEN))
    }
}

/// The result of k-mer analysis.
pub struct KmerAnalysis {
    /// Distributed table of canonical k-mers that passed the ε filter.
    pub counts: KmerCountsMap,
    /// Heavy hitters detected by the streaming sketch, with estimated counts
    /// (same list on every rank).
    pub heavy_hitters: Vec<(Kmer, u64)>,
}

/// Runs k-mer analysis over this rank's slice of the reads. Collective: every
/// rank must call with its own `reads` slice. Returns the shared distributed
/// counts table (identical `Arc` on every rank).
pub fn kmer_analysis(ctx: &Ctx, reads: &[Read], params: &KmerAnalysisParams) -> KmerAnalysis {
    let mut source: &[Read] = reads;
    kmer_analysis_from(ctx, &mut source, params)
}

/// Runs k-mer analysis over a streaming [`ReadSource`] — the distributed
/// read store's ingest path, where this rank's reads are unpacked one at a
/// time from owned packed blocks instead of living in a replicated slice.
/// Collective: every rank must call with its own source. One extraction pass
/// per read, one aggregated supermer shipment per owner, and all per-k-mer
/// work (exact counting, heavy-hitter sketching) on the receive side, cut at
/// `min_count` once the stream ends. The result is independent of how reads
/// are distributed over ranks (counts are global sums), which is what keeps
/// distributed-read assemblies byte-identical to the replicated baseline.
pub fn kmer_analysis_from(
    ctx: &Ctx,
    source: &mut dyn ReadSource,
    params: &KmerAnalysisParams,
) -> KmerAnalysis {
    assert!(params.k >= 3, "k must be at least 3");
    assert!(
        params.k % 2 == 1,
        "k must be odd so canonical k-mers are unambiguous"
    );
    assert!(params.min_count >= 1);
    let k = params.k;
    let m = params.effective_minimizer_len();
    let ranks = ctx.ranks();
    let counts: KmerCountsMap =
        ctx.share(|| DistMap::with_partitioner(ranks, Arc::new(MinimizerPartitioner::new(m))));

    // --- Send side: one streaming supermer pass over this rank's reads ------
    let batch_bytes = params
        .batch
        .saturating_mul(std::mem::size_of::<Kmer>())
        .max(64);
    let mut agg = BlobAggregator::new(ctx, batch_bytes);
    source.for_each_read(&mut |read| {
        for sm in SupermerIter::new(&read.seq, k, m) {
            let dest = minimizer_shard(sm.minimizer, ranks);
            let wrote = agg.push_with(dest, |buf| {
                encode_supermer(buf, &read.seq, &read.qual, params.hq_threshold, &sm)
            });
            ctx.record_supermer_bytes(wrote);
        }
    });
    let blobs = agg.finish();

    // --- Receive side: expansion, counting, sketching -----------------------
    let mut sketch = (params.heavy_hitter_capacity > 0)
        .then(|| SpaceSaving::<Kmer>::new(params.heavy_hitter_capacity));
    for blob in &blobs {
        for record in SupermerBlobIter::new(blob) {
            expand_supermer(&record, k, |obs| {
                debug_assert_eq!(counts.owner_of(&obs.kmer), ctx.rank(), "misrouted supermer");
                if let Some(s) = sketch.as_mut() {
                    s.offer(obs.kmer, 1);
                }
                let mut c = KmerCounts::default();
                c.observe(obs.exts);
                counts.merge_local(ctx, obs.kmer, c, |a, b| a.merge(&b));
            });
        }
    }
    ctx.barrier();

    let heavy_hitters = match sketch {
        Some(s) => merge_heavy_hitters(ctx, s, params),
        None => Vec::new(),
    };

    counts.retain_local(ctx, |_, v| v.count >= params.min_count);
    ctx.barrier();

    KmerAnalysis {
        counts,
        heavy_hitters,
    }
}

/// A sketch on the wire: its total, then its counters, as plain records —
/// so the exchange accounts for what moves and not for a struct header.
#[derive(Clone)]
enum SketchRecord {
    Total(u64),
    Counter { key: Kmer, count: u64, error: u64 },
}

/// Combines the per-rank sketches with a deterministic binomial-tree
/// reduction — round `2^i` merges rank `q·2^(i+1) + 2^i` into rank
/// `q·2^(i+1)` — and broadcasts from rank 0 the heavy hitters whose
/// estimated count is at least `min_count × 64` (a scale-free proxy for
/// "orders of magnitude more frequent than the ε cutoff"). Each round
/// every receiving rank merges at most one sketch, so no rank ever funnels
/// all `P` sketches the way the old gather-on-rank-0 scheme did, and the
/// merge order (hence the resulting list) is independent of thread timing.
fn merge_heavy_hitters(
    ctx: &Ctx,
    sketch: SpaceSaving<Kmer>,
    params: &KmerAnalysisParams,
) -> Vec<(Kmer, u64)> {
    let mut acc = sketch;
    let mut stride = 1usize;
    while stride < ctx.ranks() {
        let mut outgoing: Vec<Vec<SketchRecord>> = vec![Vec::new(); ctx.ranks()];
        let rank = ctx.rank();
        if rank % (2 * stride) == stride {
            // This rank's subtree is fully merged; hand it to the parent.
            let done = std::mem::replace(&mut acc, SpaceSaving::new(1));
            outgoing[rank - stride] = std::iter::once(SketchRecord::Total(done.total()))
                .chain(
                    done.counters()
                        .map(|(key, count, error)| SketchRecord::Counter { key, count, error }),
                )
                .collect();
        }
        // At most one sketch arrives per round.
        let mut total = 0;
        let mut counters = Vec::new();
        for record in ctx.exchange(outgoing) {
            match record {
                SketchRecord::Total(t) => total += t,
                SketchRecord::Counter { key, count, error } => counters.push((key, count, error)),
            }
        }
        acc.merge_counters(counters, total);
        stride *= 2;
    }
    let merged: Vec<(Kmer, u64)> = if ctx.rank() == 0 {
        let mut hh = acc.heavy_hitters(params.min_count as u64 * 64);
        // `heavy_hitters` sorts by estimate only; break ties by key so the
        // list is a pure function of the merged sketch.
        hh.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hh
    } else {
        Vec::new()
    };
    ctx.broadcast(|| merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;
    use seqio::Read;

    fn reads_from(seqs: &[&str]) -> Vec<Read> {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            .collect()
    }

    /// Partition reads across ranks the way the pipeline does.
    fn my_slice<'a>(ctx: &Ctx, reads: &'a [Read]) -> &'a [Read] {
        let range = ctx.block_range(reads.len());
        &reads[range]
    }

    #[test]
    fn counts_match_naive_counting() {
        // 3 identical reads: every k-mer appears 3 times.
        let reads = reads_from(&["ACGTACGGTTCAGGCA"; 3]);
        let team = Team::single_node(2);
        let k = 7;
        let params = KmerAnalysisParams {
            k,
            min_count: 2,
            ..Default::default()
        };
        let out = team.run(|ctx| {
            let res = kmer_analysis(ctx, my_slice(ctx, &reads), &params);
            ctx.barrier();
            (res.counts.len(), {
                let mut all = Vec::new();
                res.counts.for_each_local(ctx, |_, v| all.push(v.count));
                all
            })
        });
        let expected_kmers = 16 - k + 1;
        assert_eq!(out[0].0, expected_kmers);
        let counts: Vec<u32> = out.iter().flat_map(|(_, c)| c.clone()).collect();
        assert_eq!(counts.len(), expected_kmers);
        assert!(counts.iter().all(|&c| c == 3));
    }

    #[test]
    fn min_count_filters_singletons() {
        // One read seen twice plus one singleton read: the singleton's unique
        // k-mers must be filtered out by ε = 2.
        let mut reads = reads_from(&["ACGTACGGTTCAGGCAT", "ACGTACGGTTCAGGCAT"]);
        reads.extend(reads_from(&["GGGGGCCCCCAAAAATTTTT"]));
        let team = Team::single_node(2);
        let params = KmerAnalysisParams {
            k: 9,
            min_count: 2,
            ..Default::default()
        };
        let total = team.run(|ctx| {
            let res = kmer_analysis(ctx, my_slice(ctx, &reads), &params);
            ctx.barrier();
            res.counts.len()
        });
        // The duplicated read contributes 17-9+1 = 9 distinct canonical
        // k-mers. Two of the singleton read's windows happen to be
        // canonical pairs of each other (GGGGGCCCC/GGGGCCCCC and
        // AAAAATTTT/AAAATTTTT), so those two canonical k-mers reach count
        // 2 within a single read and survive the ε filter as well.
        assert_eq!(total[0], 9 + 2);
    }

    #[test]
    fn no_kmers_gives_an_empty_table_on_every_rank() {
        // An empty community, and k above every read length: no supermer is
        // ever shipped, so every rank must still get through the exchange,
        // the sketch reduction and the ε cut with nothing to show for it.
        let inputs = [
            Vec::new(),
            reads_from(&["ACGTACGT", "TTGACCA", "G", "ACGTTGCATGCATGCAAGTCA"]),
        ];
        for reads in &inputs {
            for ranks in 1..=3usize {
                let params = KmerAnalysisParams {
                    k: 23,
                    min_count: 1,
                    ..Default::default()
                };
                let out = Team::single_node(ranks).run(|ctx| {
                    let res = kmer_analysis(ctx, my_slice(ctx, reads), &params);
                    (res.counts.len(), res.heavy_hitters)
                });
                for (len, hh) in out {
                    assert_eq!(len, 0, "{ranks} ranks");
                    assert!(hh.is_empty(), "{ranks} ranks: {hh:?}");
                }
            }
        }
    }

    #[test]
    fn extensions_recorded_for_interior_kmers() {
        let reads = reads_from(&["AAACCCGGGTTTACG"; 2]);
        let team = Team::single_node(1);
        let params = KmerAnalysisParams {
            k: 5,
            min_count: 2,
            ..Default::default()
        };
        team.run(|ctx| {
            let res = kmer_analysis(ctx, &reads, &params);
            // Interior k-mer CCCGG; its reverse complement CCGGG also
            // occurs in the read, so the canonical entry is observed twice
            // per read.
            let km: Kmer = "CCCGG".parse().unwrap();
            let (canon, _) = km.canonical();
            let entry = res
                .counts
                .get_cloned(ctx, &canon)
                .expect("interior k-mer present");
            assert_eq!(entry.count, 4);
            assert!(entry.left.total() > 0);
            assert!(entry.right.total() > 0);
        });
    }

    #[test]
    fn heavy_hitters_surface_dominant_kmer() {
        // A single k-mer repeated a huge number of times (a homopolymer run)
        // among diverse reads.
        let mut seqs: Vec<String> = vec!["A".repeat(40); 50];
        seqs.push("ACGGTCAGGTTCAAGGACT".to_string());
        let reads: Vec<Read> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            .collect();
        let team = Team::single_node(2);
        let params = KmerAnalysisParams {
            k: 15,
            min_count: 2,
            heavy_hitter_capacity: 8,
            ..Default::default()
        };
        let hh = team.run(|ctx| {
            let res = kmer_analysis(ctx, my_slice(ctx, &reads), &params);
            ctx.barrier();
            res.heavy_hitters
        });
        let poly_a: Kmer = "AAAAAAAAAAAAAAA".parse().unwrap();
        for rank_hh in &hh {
            assert!(
                rank_hh.iter().any(|(k, _)| *k == poly_a),
                "poly-A heavy hitter not reported: {rank_hh:?}"
            );
        }
    }

    #[test]
    fn heavy_hitter_list_is_rank_count_invariant() {
        // Capacity comfortably above the distinct-k-mer count keeps every
        // per-rank sketch exact, so the tree reduction must give the same
        // list on 1–8 ranks.
        let mut seqs = vec!["ACGGTCAGGTTCAAGGACTTACGGTACCAGT".to_string(); 6];
        seqs.extend(vec!["TTTTTTTTTTTTTTTTTTTTTTTTT".to_string(); 9]);
        let reads: Vec<Read> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            .collect();
        let params = KmerAnalysisParams {
            k: 15,
            min_count: 1,
            heavy_hitter_capacity: 256,
            ..Default::default()
        };
        let mut lists: Vec<Vec<(Kmer, u64)>> = Vec::new();
        for ranks in 1..=8usize {
            let team = Team::single_node(ranks);
            let hh = team.run(|ctx| {
                let res = kmer_analysis(ctx, my_slice(ctx, &reads), &params);
                ctx.barrier();
                res.heavy_hitters
            });
            // Identical on every rank…
            for rank_hh in &hh[1..] {
                assert_eq!(rank_hh, &hh[0]);
            }
            assert!(!hh[0].is_empty(), "expected at least the poly-T hitter");
            lists.push(hh.into_iter().next().unwrap());
        }
        // …and identical across rank counts.
        for list in &lists[1..] {
            assert_eq!(list, &lists[0]);
        }
    }

    #[test]
    #[should_panic]
    fn even_k_rejected() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let params = KmerAnalysisParams {
                k: 10,
                ..Default::default()
            };
            let _ = kmer_analysis(ctx, &[], &params);
        });
    }
}

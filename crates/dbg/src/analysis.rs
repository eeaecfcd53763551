//! Parallel k-mer analysis (§II-B).
//!
//! Every rank processes its slice of the reads, extracts canonical k-mers with
//! their left/right extension observations, and routes them to owner ranks
//! with aggregated messages. Owners count what they receive and keep the
//! k-mers that reach ε in their local shard of a distributed hash table. Two
//! refinements carry the stage:
//!
//! * **supermer routing**: instead of shipping every canonical k-mer as a
//!   ~32-byte packed struct, each read is decomposed once into *supermers*
//!   (maximal runs of consecutive k-mers sharing a canonical minimizer, see
//!   [`kmers::minimizer`]) which travel as packed 2-bit sequence with a
//!   quality/extension sidecar, ~(s+k−1)/4 bytes per s k-mers. The reads
//!   arrive 2-bit packed ([`seqio::PackedReadView`], the read store's own
//!   bytes); supermers are cut from the codes and each record is a bit copy
//!   of its span of the read, so the send side never touches ASCII. The
//!   counts table is partitioned by minimizer ([`crate::table`]), so
//!   every occurrence of a k-mer arrives at its owner in a *single*
//!   exchange;
//! * **minimizer-binned counting**: every occurrence of a canonical k-mer,
//!   anywhere in the input, has the same minimizer, so the received records
//!   fall into *bins* by minimizer whose counts are final. Each record
//!   carries its minimizer's bin tag, so the owner files records into bins
//!   without recomputing a minimizer, counts one bin at a time in a small
//!   scratch table that stays in cache, moves the k-mers that reached ε into
//!   its shard — one insert per surviving k-mer, none for the rest — and
//!   reuses the scratch for the next bin (the disk-bin scheme of KMC 2, with
//!   memory in the role of the disk). Bins span blobs, which is why
//!   `agg.finish()` materialising everything a rank receives before the
//!   first record is counted is a requirement here, not an oversight.
//!
//! This gives the paper's **Bloom-filter admission** its purpose without its
//! mechanism: the filter exists so that singleton error k-mers — most of the
//! distinct k-mers of a metagenome — never take table space, at the price of
//! a probabilistic first sighting. Here counting is exact *and* no k-mer
//! below ε ever enters a shard; the garbage lives only as long as its bin.
//!
//! The paper's **heavy hitters** (k-mers of highly abundant organisms, which
//! it detects with a streaming sketch and combines at the sender so their
//! owner is no hot spot) need no special treatment either. Supermers already
//! carry a run of a hot k-mer's occurrences in a quarter byte each, and on
//! the owner a hot k-mer is the *cheapest* one to count: every further
//! observation hits the same scratch entry, in L1. An estimate of what the
//! exact per-bin counts already say would have no reader.
//!
//! The counts table is exactly what a serial count over
//! [`kmers::kmers_with_exts_iter`] filtered at `min_count` gives, for every
//! `min_count >= 1`, at any rank count and whatever the number of bins — the
//! `supermer_equivalence` test holds it to that.

use crate::table::{with_keys, KmerCountsMap, KmerTable};
use dht::{DistMap, FxHashMap};
use kmers::minimizer::{
    cut_supermers, encode_packed_supermer, expand_supermer_keys, minimizer_shard,
    supermer_wire_bytes, SupermerBlobIter, MAX_MINIMIZER_LEN,
};
use kmers::{KmerCounts, KmerKey};
use pgas::{BlobAggregator, Counter, Ctx};
use seqio::{PackedReadView, Read, ReadSource};

/// K-mer observations one counting bin is sized for. A bin's distinct k-mers
/// are at most its observations, so the scratch table of a typical bin holds
/// a few thousand 48- to 80-byte entries (the key as wide as k needs, see
/// [`crate::table`]) — inside the L2 cache, where the one
/// table all observations used to probe was DRAM-bound. The bin count follows
/// from the received volume, up to [`TAGS`]. Run time measured within noise
/// of this from a quarter to sixteen times the value; one bin for everything
/// is as slow as the unbinned table was — the gain is locality, not the
/// missing inserts.
const BIN_OBSERVATIONS: usize = 4096;

/// Bytes per unit of [`KmerAnalysisParams::batch`]: a supermer blob is cut
/// at about `batch × SUPERMER_BATCH_UNIT` bytes. Forty bytes was the size of
/// a packed k-mer when k-mers travelled one by one; the constant keeps every
/// configured batch, and with it the exchange's message count, where it was
/// whatever the k-mer types weigh.
pub const SUPERMER_BATCH_UNIT: usize = 40;

/// Distinct wire tags ([`kmers::minimizer_tag`] is one byte), hence the most
/// bins a rank can count in: at [`BIN_OBSERVATIONS`] that is ~1M observations
/// received per rank before bins grow past their budget.
const TAGS: usize = 256;

/// Parameters of k-mer analysis.
#[derive(Debug, Clone)]
pub struct KmerAnalysisParams {
    /// k-mer length (must be odd so no k-mer is its own reverse complement).
    pub k: usize,
    /// Minimum count ε for a k-mer to be kept (the paper uses ε ≈ 2–3).
    pub min_count: u32,
    /// Phred threshold above which an extension base counts as high quality.
    pub hq_threshold: u8,
    /// Aggregation batch size of the supermer exchange, in units of
    /// [`SUPERMER_BATCH_UNIT`] bytes.
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
}

/// Runs k-mer analysis over this rank's slice of the reads. Collective: every
/// rank must call with its own `reads` slice. Returns the shared distributed
/// counts table (identical `Arc` on every rank).
pub fn kmer_analysis(ctx: &Ctx, reads: &[Read], params: &KmerAnalysisParams) -> KmerAnalysis {
    let mut source: &[Read] = reads;
    kmer_analysis_from(ctx, &mut source, params)
}

/// Runs k-mer analysis over a streaming [`ReadSource`] — the distributed
/// read store's ingest path, where this rank's reads are read as 2-bit views
/// of its owned packed blocks instead of living in a replicated slice.
/// Collective: every rank must call with its own source. One extraction pass
/// per read, one aggregated supermer shipment per owner, and all per-k-mer
/// work on the receive side, where each minimizer bin is counted exactly and
/// cut at `min_count` before anything enters the table. The result is
/// independent of how reads are distributed over ranks (counts are global
/// sums), which is what keeps assemblies byte-identical across rank counts.
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
    let counts: KmerCountsMap = ctx.share(|| KmerTable::new(ranks, k, m));

    let blobs = ship_supermers(
        ctx,
        |each| source.for_each_read(each),
        k,
        m,
        params.hq_threshold,
        params.batch,
    );
    with_keys!(counts, map => count_binned(ctx, blobs, map, params, BIN_OBSERVATIONS));
    ctx.barrier();

    KmerAnalysis { counts }
}

/// The send side of both supermer stages, k-mer analysis and contig k-mer
/// injection ([`crate::merge`]): cuts every sequence `for_each_seq` hands out
/// into supermers of `k`-mers under minimizer length `m`, ships each record
/// to the shard of its minimizer in blobs of about `batch` units of
/// [`SUPERMER_BATCH_UNIT`] bytes, and returns the blobs this rank was sent.
/// Collective.
pub(crate) fn ship_supermers(
    ctx: &Ctx,
    for_each_seq: impl FnOnce(&mut dyn FnMut(PackedReadView<'_>)),
    k: usize,
    m: usize,
    hq_threshold: u8,
    batch: usize,
) -> Vec<Vec<u8>> {
    let ranks = ctx.ranks();
    let batch_bytes = batch.saturating_mul(SUPERMER_BATCH_UNIT).max(64);
    let mut agg = BlobAggregator::new(ctx, batch_bytes);
    let mut hq = Vec::new();
    let mut wrote = 0u64;
    for_each_seq(&mut |seq| {
        seq.hq_mask(hq_threshold, &mut hq);
        cut_supermers(&seq, k, m, |sm| {
            let dest = minimizer_shard(sm.minimizer, ranks);
            let bytes = agg.push_with(dest, |buf| encode_packed_supermer(buf, &seq, &hq, &sm));
            wrote += bytes as u64;
        });
    });
    ctx.record(Counter::supermer_bytes, wrote);
    agg.finish()
}

/// The bin of a record's [`kmers::minimizer_tag`] among `bins` (at most
/// [`TAGS`]): bins are runs of consecutive tags.
fn tag_bin(tag: u8, bins: usize) -> usize {
    (tag as usize * bins) / TAGS
}

/// The receive side: counts the supermer records of `blobs` (everything this
/// rank was sent) one minimizer bin at a time, and inserts the k-mers that
/// reach `params.min_count` into this rank's shard of `counts`. The number of
/// bins is the received volume over `bin_observations`, capped at [`TAGS`];
/// the table does not depend on it. The scratch is keyed like the table, so
/// the two share one key hash and a bin's survivors drain into the table in
/// its own bucket order.
fn count_binned<K: KmerKey>(
    ctx: &Ctx,
    blobs: Vec<Vec<u8>>,
    counts: &DistMap<K, KmerCounts>,
    params: &KmerAnalysisParams,
    bin_observations: usize,
) {
    let k = params.k;

    // One framing pass: the bytes each tag's records take, and the volume.
    let mut starts = [0usize; TAGS + 1];
    let mut observations = 0usize;
    for record in blobs.iter().flat_map(|blob| SupermerBlobIter::new(blob)) {
        starts[record.tag as usize + 1] += supermer_wire_bytes(record.len);
        observations += record.len - k + 1;
    }
    for t in 0..TAGS {
        starts[t + 1] += starts[t];
    }
    // Every record moves to its tag's run of one buffer, which orders the
    // records by bin too, so each bin is read front to back; each blob is
    // freed once it has been moved.
    let mut sorted = vec![0u8; starts[TAGS]];
    let mut next = starts;
    for blob in blobs {
        let mut records = SupermerBlobIter::new(&blob);
        loop {
            let from = records.offset();
            let Some(record) = records.next() else { break };
            let bytes = &blob[from..records.offset()];
            let to = &mut next[record.tag as usize];
            sorted[*to..*to + bytes.len()].copy_from_slice(bytes);
            *to += bytes.len();
        }
    }

    let bins = observations.div_ceil(bin_observations).clamp(1, TAGS);
    // Bin b ends where its last tag does.
    let mut bin_ends = vec![0usize; bins];
    for tag in 0..TAGS {
        bin_ends[tag_bin(tag as u8, bins)] = starts[tag + 1];
    }

    let mut scratch: FxHashMap<K, KmerCounts> = FxHashMap::default();
    let mut bin_start = 0;
    for bin_end in bin_ends {
        let mut observed = 0u64;
        for record in SupermerBlobIter::new(&sorted[bin_start..bin_end]) {
            // Pinned into the window loop of `expand_supermer_keys` (itself always
            // inlined): left to the optimiser, whether it is inlined there
            // turns on unrelated code, and is worth ~20% of the analysis.
            expand_supermer_keys::<K>(
                &record,
                k,
                #[inline(always)]
                |key, exts| {
                    debug_assert_eq!(counts.owner_of(&key), ctx.rank(), "misrouted supermer");
                    observed += 1;
                    scratch.entry(key).or_default().observe(exts);
                },
            );
        }
        // The bin's counts are final: its survivors enter the table, the
        // rest never do.
        let mut inserted = 0u64;
        for (key, tally) in scratch.drain() {
            if tally.count >= params.min_count {
                let previous = counts.insert_local(ctx, key, tally);
                debug_assert!(previous.is_none(), "one k-mer counted in two bins");
                inserted += 1;
            }
        }
        ctx.record(Counter::kmer_observations, observed);
        ctx.record(Counter::kmer_table_inserts, inserted);
        bin_start = bin_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmers::minimizer::{expand_supermer, kmer_minimizer};
    use kmers::Kmer;
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
        // ever shipped, so every rank must still get through the exchange and
        // its one empty bin with nothing to show for it.
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
                    kmer_analysis(ctx, my_slice(ctx, reads), &params)
                        .counts
                        .len()
                });
                for len in out {
                    assert_eq!(len, 0, "{ranks} ranks");
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
            assert!(entry.left.total_hq() > 0);
            assert!(entry.right.total_hq() > 0);
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

    /// Overlapping reads off one pseudo-random genome, both strands, some
    /// split by an `N`: the same canonical k-mers reached through different
    /// reads, orientations and supermer boundaries.
    fn overlapping_reads() -> Vec<Read> {
        let genome = random_bases(400, 18);
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for (i, start) in (0..genome.len() - 90).step_by(13).enumerate() {
            let mut seq = genome[start..start + 90 - i % 7].to_vec();
            if i % 3 == 1 {
                seq = seqio::alphabet::revcomp(&seq);
            }
            if i % 4 == 2 {
                seq[40 + i % 11] = b'N';
            }
            seqs.push(seq);
        }
        seqs.iter()
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s, 10 + (i % 30) as u8))
            .collect()
    }

    /// The reference: every observation of every read counted serially, cut
    /// at `min_count`, sorted by key.
    fn serial_table(reads: &[Read], params: &KmerAnalysisParams) -> Vec<(Kmer, KmerCounts)> {
        let mut table: FxHashMap<Kmer, KmerCounts> = FxHashMap::default();
        for read in reads {
            for obs in
                kmers::kmers_with_exts_iter(&read.seq, &read.qual, params.k, params.hq_threshold)
            {
                table.entry(obs.kmer).or_default().observe(obs.exts);
            }
        }
        let mut all: Vec<_> = table
            .into_iter()
            .filter(|(_, c)| c.count >= params.min_count)
            .collect();
        all.sort_by_key(|e| e.0);
        all
    }

    /// The whole table of a `ranks`-rank analysis, sorted by key, and the
    /// team's summed counters.
    fn team_table(
        reads: &[Read],
        ranks: usize,
        params: &KmerAnalysisParams,
    ) -> (Vec<(Kmer, KmerCounts)>, pgas::StatsSnapshot) {
        let team = Team::single_node(ranks);
        let mut all: Vec<_> = team
            .run(|ctx| {
                kmer_analysis(ctx, my_slice(ctx, reads), params)
                    .counts
                    .local_entries(ctx)
            })
            .into_iter()
            .flatten()
            .collect();
        all.sort_by_key(|e| e.0);
        (all, team.stats_total())
    }

    #[test]
    fn one_dominant_minimizer_is_still_exact() {
        // Hundreds of poly-A reads: one minimizer, hence one bin (on one
        // rank), holds almost every observation, far above the bin budget.
        let mut reads = reads_from(&[&*"A".repeat(60); 300]);
        reads.extend(overlapping_reads());
        for min_count in 1..=3 {
            let params = KmerAnalysisParams {
                min_count,
                ..Default::default()
            };
            let expect = serial_table(&reads, &params);
            let poly_a = expect
                .iter()
                .find(|(kmer, _)| kmer.to_string() == "A".repeat(21));
            assert_eq!(poly_a.expect("poly-A survives").1.count, 300 * 40);
            for ranks in 1..=4 {
                let (got, _) = team_table(&reads, ranks, &params);
                assert_eq!(got, expect, "ε={min_count}, {ranks} ranks");
            }
        }
    }

    #[test]
    fn only_survivors_are_inserted() {
        let mut reads = overlapping_reads();
        reads.extend(reads_from(&["ACGTNACGT", "GATTACA"]));
        for k in [11, 21] {
            let windows: usize = reads
                .iter()
                .map(|r| kmers::kmer_positions(&r.seq, k).len())
                .sum();
            for min_count in 1..=3 {
                let params = KmerAnalysisParams {
                    k,
                    min_count,
                    ..Default::default()
                };
                for ranks in 1..=4 {
                    let (table, stats) = team_table(&reads, ranks, &params);
                    let what = format!("k={k} ε={min_count}, {ranks} ranks");
                    assert_eq!(stats.kmer_observations, windows as u64, "{what}");
                    assert_eq!(stats.kmer_table_inserts, table.len() as u64, "{what}");
                    assert!(table.iter().all(|(_, c)| c.count >= min_count), "{what}");
                }
            }
        }
    }

    /// The wire records the send side makes of one read.
    fn records_of(read: &Read, k: usize, m: usize) -> Vec<u8> {
        let mut packer = seqio::ReadPacker::default();
        let view = packer.pack(&read.seq, &read.qual);
        let mut hq = Vec::new();
        view.hq_mask(20, &mut hq);
        let mut blob = Vec::new();
        cut_supermers(&view, k, m, |sm| {
            encode_packed_supermer(&mut blob, &view, &hq, &sm);
        });
        blob
    }

    #[test]
    fn bin_of_a_kmer_does_not_depend_on_the_record_it_arrived_in() {
        let (k, m, bins) = (21, 9, 64);
        let mut bin_of: FxHashMap<Kmer, usize> = FxHashMap::default();
        let mut revisits = 0;
        for read in overlapping_reads() {
            for record in SupermerBlobIter::new(&records_of(&read, k, m)) {
                // What `count_binned` files the whole record under, read off
                // its tag…
                let bin = tag_bin(record.tag, bins);
                expand_supermer(&record, k, |obs| {
                    // …is the bin of each of its k-mers, whichever record,
                    // read or strand delivers them.
                    let tag = kmers::minimizer_tag(kmer_minimizer(&obs.kmer, m));
                    assert_eq!(tag_bin(tag, bins), bin);
                    if let Some(before) = bin_of.insert(obs.kmer, bin) {
                        assert_eq!(before, bin);
                        revisits += 1;
                    }
                });
            }
        }
        assert!(revisits > bin_of.len(), "the reads were meant to overlap");
        let used: dht::FxHashSet<usize> = bin_of.values().copied().collect();
        assert!(used.len() > bins / 2, "only {} bins used", used.len());
    }

    #[test]
    fn the_table_is_the_same_whatever_the_bin_count() {
        let reads = overlapping_reads();
        let params = KmerAnalysisParams {
            k: 17,
            min_count: 2,
            minimizer_len: 7,
            ..Default::default()
        };
        let expect = serial_table(&reads, &params);
        // Everything one rank receives, spread over three blobs so that bins
        // span blobs.
        let mut blobs = vec![Vec::new(); 3];
        for (i, read) in reads.iter().enumerate() {
            blobs[i % 3].extend(records_of(read, params.k, 7));
        }
        Team::single_node(1).run(|ctx| {
            // As many bins as tags … one bin for everything.
            for bin_observations in [1, 50, 1000, usize::MAX] {
                let counts = KmerTable::new(1, params.k, 7);
                with_keys!(counts, map => {
                    count_binned(ctx, blobs.clone(), map, &params, bin_observations)
                });
                let mut got = counts.local_entries(ctx);
                got.sort_by_key(|e| e.0);
                assert_eq!(got, expect, "{bin_observations} observations per bin");
            }
        });
    }

    #[test]
    fn every_key_width_counts_what_the_kmer_keyed_path_counts() {
        let reads = overlapping_reads();
        for k in [31, 33, 63, 65] {
            let params = KmerAnalysisParams {
                k,
                min_count: 2,
                ..Default::default()
            };
            let m = params.effective_minimizer_len();
            let expect = serial_table(&reads, &params);
            assert!(expect.len() > 100, "k = {k}: too few k-mers survive");
            let blobs: Vec<Vec<u8>> = reads.iter().map(|r| records_of(r, k, m)).collect();
            Team::single_node(1).run(|ctx| {
                let table = KmerTable::new(1, k, m);
                with_keys!(table, map => {
                    count_binned(ctx, blobs.clone(), map, &params, BIN_OBSERVATIONS)
                });
                let mut got = table.local_entries(ctx);
                got.sort_by_key(|e| e.0);
                let wide: DistMap<Kmer, KmerCounts> = DistMap::new(1);
                count_binned(ctx, blobs.clone(), &wide, &params, BIN_OBSERVATIONS);
                let mut by_kmer = wide.local_entries(ctx);
                by_kmer.sort_by_key(|e| e.0);
                assert_eq!(by_kmer, expect, "k = {k}, Kmer keys");
                assert_eq!(got, expect, "k = {k}, {:?} keys", kmers::KeyWidth::of(k));
            });
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

//! Property test of the supermer-routed single-pass k-mer analysis: over
//! randomised reads (with sequencing errors, ambiguous bases and mixed base
//! qualities), team widths of 1–8 ranks, and ε from 1 to 3, the
//! minimizer-partitioned analysis must produce a counts table — keys,
//! occurrence counts *and* per-side extension tallies — identical to a
//! serial count over `kmers::kmers_with_exts_iter`, whether the reads come
//! as an ASCII slice or as the packed views of a distributed read store.

use dbg::{kmer_analysis, kmer_analysis_from, KmerAnalysisParams};
use dht::FxHashMap;
use kmers::{kmers_with_exts_iter, Kmer, KmerCounts};
use pgas::{Ctx, Team};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use readstore::{ReadStore, ReadStoreParams};
use seqio::{Read, ReadLibrary};

/// A random read: mostly sampled from a couple of shared "genomes" (so many
/// k-mers recur and survive ε=2), with point errors, occasional Ns and a mix
/// of high/low base qualities.
fn random_reads(rng: &mut StdRng, genomes: &[Vec<u8>], n: usize) -> Vec<Read> {
    let bases = [b'A', b'C', b'G', b'T'];
    (0..n)
        .map(|i| {
            let g = &genomes[rng.gen_range(0..genomes.len())];
            let len = rng.gen_range(40..120usize).min(g.len());
            let start = rng.gen_range(0..=g.len() - len);
            let mut seq: Vec<u8> = g[start..start + len].to_vec();
            // Sprinkle errors and ambiguous bases.
            for b in seq.iter_mut() {
                let roll = rng.gen_range(0..100u32);
                if roll < 2 {
                    *b = bases[rng.gen_range(0..4)];
                } else if roll < 3 {
                    *b = b'N';
                }
            }
            let qual: Vec<u8> = (0..seq.len()).map(|_| rng.gen_range(5..45u8)).collect();
            Read::new(format!("r{i}"), &seq, &qual)
        })
        .collect()
}

/// Runs analysis on `ranks` ranks and gathers the whole table, sorted by key.
fn run_table(reads: &[Read], ranks: usize, params: &KmerAnalysisParams) -> Vec<(Kmer, KmerCounts)> {
    let team = Team::single_node(ranks);
    let mut all: Vec<(Kmer, KmerCounts)> = team
        .run(move |ctx: &Ctx| {
            let range = ctx.block_range(reads.len());
            let res = kmer_analysis(ctx, &reads[range], params);
            ctx.barrier();
            res.counts.local_entries(ctx)
        })
        .into_iter()
        .flatten()
        .collect();
    all.sort_by_key(|a| a.0);
    all
}

/// The same, with the reads packed into a [`ReadStore`] of small blocks and
/// each rank analysing its owned blocks' packed views.
fn run_table_from_store(
    reads: &[Read],
    ranks: usize,
    params: &KmerAnalysisParams,
) -> Vec<(Kmer, KmerCounts)> {
    let mut library = ReadLibrary::new_unpaired("store");
    library.reads = reads.to_vec();
    let store_params = ReadStoreParams {
        block_reads: 5,
        ..Default::default()
    };
    let team = Team::single_node(ranks);
    let mut all: Vec<(Kmer, KmerCounts)> = team
        .run(|ctx: &Ctx| {
            let store = ReadStore::build(ctx, &library, &store_params);
            let res = kmer_analysis_from(ctx, &mut store.owned_reads(ctx), params);
            ctx.barrier();
            res.counts.local_entries(ctx)
        })
        .into_iter()
        .flatten()
        .collect();
    all.sort_by_key(|a| a.0);
    all
}

/// The reference: every canonical k-mer observation of every read counted
/// serially, then cut at `min_count`, sorted by key.
fn naive_table(reads: &[Read], params: &KmerAnalysisParams) -> Vec<(Kmer, KmerCounts)> {
    let mut table: FxHashMap<Kmer, KmerCounts> = FxHashMap::default();
    for read in reads {
        for obs in kmers_with_exts_iter(&read.seq, &read.qual, params.k, params.hq_threshold) {
            table.entry(obs.kmer).or_default().observe(obs.exts);
        }
    }
    let mut all: Vec<(Kmer, KmerCounts)> = table
        .into_iter()
        .filter(|(_, c)| c.count >= params.min_count)
        .collect();
    all.sort_by_key(|a| a.0);
    all
}

#[test]
fn supermer_analysis_matches_naive_counting_on_randomised_reads() {
    let mut rng = StdRng::seed_from_u64(20260728);
    for trial in 0..6 {
        let genomes: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                (0..rng.gen_range(150..400usize))
                    .map(|_| [b'A', b'C', b'G', b'T'][rng.gen_range(0..4)])
                    .collect()
            })
            .collect();
        let n_reads = rng.gen_range(20..80);
        let reads = random_reads(&mut rng, &genomes, n_reads);
        let k = *[7usize, 11, 17, 21].get(rng.gen_range(0..4)).unwrap();
        let m = rng.gen_range(3..=k.min(19));
        let params = KmerAnalysisParams {
            k,
            min_count: rng.gen_range(1..=3u32),
            minimizer_len: m,
            batch: *[1usize, 7, 4096].get(rng.gen_range(0..3)).unwrap(),
            ..Default::default()
        };
        let reference = naive_table(&reads, &params);
        assert!(!reference.is_empty(), "trial {trial}: nothing survived ε");
        for ranks in 1..=8usize {
            let got = run_table(&reads, ranks, &params);
            assert_eq!(
                got, reference,
                "supermer table diverged: trial={trial} ranks={ranks} k={k} m={m} eps={}",
                params.min_count
            );
        }
    }
}

#[test]
fn a_read_store_source_gives_the_table_a_read_slice_gives() {
    let mut rng = StdRng::seed_from_u64(20261015);
    let genomes: Vec<Vec<u8>> = (0..2)
        .map(|_| {
            (0..600)
                .map(|_| [b'A', b'C', b'G', b'T'][rng.gen_range(0..4)])
                .collect()
        })
        .collect();
    let mut reads = random_reads(&mut rng, &genomes, 90);
    // Reads the store must carry through untouched: empty, all-`N`, shorter
    // than k, and long quality runs.
    reads.push(Read::new("empty", b"", b""));
    reads.push(Read::with_uniform_quality("all-n", &[b'N'; 40], 30));
    reads.push(Read::with_uniform_quality("short", b"ACGTACG", 30));
    reads.push(Read::with_uniform_quality("long", &genomes[0][..600], 38));
    for (k, m) in [(21usize, 15usize), (31, 7), (43, 15)] {
        let params = KmerAnalysisParams {
            k,
            min_count: 2,
            minimizer_len: m,
            ..Default::default()
        };
        let reference = run_table(&reads, 1, &params);
        assert_eq!(reference, naive_table(&reads, &params), "k={k}");
        for ranks in 1..=8usize {
            assert_eq!(
                run_table_from_store(&reads, ranks, &params),
                reference,
                "store source diverged: ranks={ranks} k={k} m={m}"
            );
        }
    }
}

#[test]
fn counts_stay_exact_on_palindromes_and_ambiguous_bases() {
    // Reverse-complement pairs inside one read, an `N` that splits a read,
    // and a duplicated read: every surviving count includes each observation.
    let reads: Vec<Read> = [
        "ACGTACGGTTCAGGCATTACGGATCCAGTT",
        "ACGTACGGTTCAGGCATTACGGATCCAGTT",
        "TTGACCGGATNACCAGGTTCCAGGAACCTT",
        "TTGACCGGATAACCAGGTTCCAGGAACCTT",
        "GGGGGCCCCCAAAAATTTTTGGGGGCCCCC",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
    .collect();
    let params = KmerAnalysisParams {
        k: 11,
        min_count: 2,
        ..Default::default()
    };
    let reference = naive_table(&reads, &params);
    assert!(!reference.is_empty());
    assert_eq!(run_table(&reads, 3, &params), reference);
}

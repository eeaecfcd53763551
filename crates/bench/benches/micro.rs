//! Criterion micro-benchmarks of the distributed substrates: the update-only
//! hash-table phase, k-mer analysis, contig k-mer injection, the extraction
//! hot loops (rolling minimizer, supermer grouping), the graph traversal,
//! the contig clean-up pass, alignment, the Bloom filter, local assembly (one mer-walk, and the whole
//! stage on store-backed pools) and rRNA classification.
//! `cargo bench -p mhm_bench` runs them all.

use aligner::{align_reads_ref, build_seed_index_ref, AlignParams};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dbg::{
    build_graph, clean_contigs, inject_contig_kmers_ref, kmer_analysis,
    merge_bubbles_and_remove_hair, prune_iteratively, traverse_contigs, BubbleParams,
    KmerAnalysisParams, PruningParams, ThresholdPolicy, TraversalParams,
};
use dht::{bulk_merge, DistBloom, DistMap, FxHashMap};
use kmers::{
    cut_supermers, encode_packed_supermer, encode_supermer, expand_supermer, expand_supermer_keys,
    kmer_minimizer, kmers_with_exts, kmers_with_exts_iter, Ext, Kmer, Kmer32, KmerCounts,
    SupermerBlobIter, SupermerIter,
};
use mgsim::{CommunityParams, ReadSimParams};
use mhm_core::local_assembly::extend_contigs_locally_ref;
use mhm_core::{LocalAssemblyParams, MerWalker, PoolWriter};
use pgas::Team;
use readstore::{ReadStore, ReadStoreParams, ReadsRef};
use rrna_hmm::RrnaDetector;
use seqio::{Read, ReadPacker};
use std::sync::Arc;

// What the replicated contig set and read library, the reference of the
// local-assembly and alignment set-ups, produced at commit b7c4a00 (the
// parent of the change that removed them): the same at 1 and 4 ranks.
// Properties of the bench inputs: change `community` or the bench reads and
// they must be re-derived, not edited.

/// [`mhm_bench::scaffold_digest`] of the 25 contigs local assembly extends.
const LOCAL_ASSEMBLY_DIGEST: u64 = 0x9909_a3e7_66bc_9f0e;
/// [`mhm_bench::scaffold_digest`] of the 2,228 alignments of the store set-up,
/// each rendered by `Debug`.
const ALIGNMENTS_DIGEST: u64 = 0xe1b4_3b13_c073_ac36;

/// The bench community: three 5–6 kb genomes and paired 100 bp reads at 12×.
fn community() -> (seqio::ReferenceSet, seqio::ReadLibrary) {
    let (refs, _) = mgsim::generate_community(&CommunityParams {
        num_taxa: 3,
        genome_len_range: (5_000, 6_000),
        seed: 99,
        ..Default::default()
    });
    let lib = mgsim::simulate_reads(
        &refs,
        &ReadSimParams {
            read_len: 100,
            seed: 100,
            ..Default::default()
        }
        .with_target_coverage(&refs, 12.0),
    );
    (refs, lib)
}

fn dataset() -> (Vec<Read>, dbg::ContigSet) {
    let (refs, lib) = community();
    let contigs = dbg::ContigSet::from_sequences(
        31,
        refs.genomes.iter().map(|g| (g.seq.clone(), 10.0)).collect(),
    );
    (lib.reads, contigs)
}

fn bench_dht_phases(c: &mut Criterion) {
    let team = Team::single_node(4);
    c.bench_function("dht/update_only_bulk_merge_100k", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
                bulk_merge(
                    ctx,
                    &map,
                    (0..25_000u64).map(|k| (k % 5_000, 1)),
                    2048,
                    |a, v| *a += v,
                );
            })
        })
    });
    c.bench_function("dht/bloom_insert_40k", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let bloom = ctx.share(|| DistBloom::new(ctx.ranks(), 40_000, 0.01));
                for i in 0..10_000u64 {
                    bloom.insert_and_check(ctx, &(i ^ (ctx.rank() as u64) << 32));
                }
            })
        })
    });
}

/// A pseudo-random `ACGT` sequence (xorshift; the benches need no `rand`).
fn random_bases(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b"ACGT"[(x & 3) as usize]
        })
        .collect()
}

fn bench_local_assembly(c: &mut Criterion) {
    // A 100-base contig in the middle of a 500-base stretch covered ~30x by
    // 150 error-free 100 bp reads: `extend_one` indexes the pool and walks
    // ~200 bases out of each end, 400 in all, at the default mer sizes.
    let genome = random_bases(900, 0x9E3779B97F4A7C15);
    let contig = &genome[400..500];
    let mut packer = ReadPacker::default();
    let mut writer = PoolWriter::default();
    for i in 0..150 {
        let start = 200 + i * 400 / 149;
        writer.push(&packer.pack(&genome[start..start + 100], &[]), true);
    }
    let pool = writer.finish();
    let mut walker = MerWalker::new(&LocalAssemblyParams::default());
    let extended = walker.extend_one(contig, &pool);
    assert!(
        extended.len() >= 490 && genome.windows(extended.len()).any(|w| w == extended),
        "the bench pool no longer carries the walk to both ends"
    );
    c.bench_function("local_assembly/extend_one", |b| {
        b.iter(|| walker.extend_one(contig, &pool).len())
    });

    // The stage as the pipeline runs it: contigs cut from the bench community
    // with unassembled flanks between them, served from a `ContigStore`, each
    // rank's share of the reads aligned to them, and the pools fetched from a
    // `ReadStore`. The set-up checks that every rank count extends the same
    // contigs, the ones the replicated baseline extended.
    let (refs, library) = community();
    let contigs = dbg::ContigSet::from_sequences(
        31,
        refs.genomes
            .iter()
            .flat_map(|g| g.seq.chunks(700).filter(|p| p.len() > 300))
            .map(|piece| (piece[50..piece.len() - 50].to_vec(), 10.0))
            .collect(),
    );
    let params = LocalAssemblyParams::default();
    for (ranks, id) in [
        (1usize, "local_assembly/store_pools_1rank"),
        (4, "local_assembly/store_pools_4ranks"),
    ] {
        let team = Team::single_node(ranks);
        let (contig_store, store) = team
            .run(|ctx| {
                (
                    dbg::ContigStore::build(ctx, &contigs, &Default::default()),
                    ReadStore::build(ctx, &library, &ReadStoreParams::default()),
                )
            })
            .pop()
            .expect("one pair of stores per rank");
        let source = dbg::ContigsRef::Store(&contig_store);
        let alignments = team.run(|ctx| {
            let index = build_seed_index_ref(ctx, source, 21);
            let mine = ctx
                .block_range(library.num_reads())
                .map(|i| (i as u64, &library.reads[i]));
            align_reads_ref(ctx, mine, source, &index, &AlignParams::default())
        });
        let extend = |ctx: &pgas::Ctx| {
            let reads = ReadsRef::Store(&store);
            extend_contigs_locally_ref(ctx, source, &alignments[ctx.rank()], reads, &params).0
        };
        let extended = team.run(extend);
        assert!(extended.iter().all(|set| *set == extended[0]));
        let grown = extended[0]
            .contigs
            .iter()
            .filter(|c| !contigs.contigs.iter().any(|d| d.seq == c.seq))
            .count();
        assert!(grown * 2 > contigs.len(), "set-up: most contigs grow");
        let seqs: Vec<Vec<u8>> = extended[0].contigs.iter().map(|c| c.seq.clone()).collect();
        assert_eq!(
            (seqs.len(), mhm_bench::scaffold_digest(&seqs)),
            (25, LOCAL_ASSEMBLY_DIGEST),
            "store pools, {ranks} ranks"
        );
        c.bench_function(id, |b| b.iter(|| team.run(|ctx| extend(ctx).len())));
    }
}

fn bench_extraction_hot_loops(c: &mut Criterion) {
    // A 100 kb pseudo-random sequence: long enough that the rolling minimum
    // and the supermer run-grouping dominate, not setup.
    let seq = random_bases(100_000, 0x9E3779B97F4A7C15);
    c.bench_function("kmers/rolling_minimizer_100kb", |b| {
        // The ASCII adapter: one packing of the read, then one O(len) pass
        // that keeps every window's canonical minimizer in a rescanned ring.
        b.iter(|| {
            SupermerIter::new(&seq, 21, 15)
                .map(|s| s.minimizer)
                .sum::<u64>()
        })
    });
    c.bench_function("kmers/kmer_minimizer_1k_windows", |b| {
        // The per-k-mer recomputation (owner-side routing checks).
        let kmers: Vec<Kmer> = (0..1000)
            .map(|i| Kmer::from_bytes(&seq[i..i + 21]).unwrap())
            .collect();
        b.iter(|| kmers.iter().map(|km| kmer_minimizer(km, 15)).sum::<u64>())
    });
    c.bench_function("kmers/supermer_iter_100kb", |b| {
        b.iter(|| {
            SupermerIter::new(&seq, 21, 15)
                .map(|s| s.kmers)
                .sum::<usize>()
        })
    });
    // The k-mer analysis path: the cut straight from a packing, as the read
    // store holds it, with nothing to pack first.
    let packed = dbg::PackedSeq::from_bytes(&seq);
    let mut cut = Vec::new();
    cut_supermers(&packed.view(), 21, 15, |sm| cut.push(sm));
    assert!(
        cut == SupermerIter::new(&seq, 21, 15).collect::<Vec<_>>(),
        "the packed cut and the ASCII adapter disagree"
    );
    c.bench_function("kmers/supermer_cut_packed_100kb", |b| {
        b.iter(|| {
            let mut kmers = 0usize;
            cut_supermers(&packed.view(), 21, 15, |sm| kmers += sm.kmers);
            kmers
        })
    });

    // The word kernels on either side of the exchange, on the records of the
    // same sequence with an N every 5 kb and quality in runs of 37 bases
    // either side of the threshold: the encoder writes what the ASCII encoder
    // writes, and the expansion gives what the per-k-mer extraction gives.
    let mut noisy = seq.clone();
    for i in (2_500..noisy.len()).step_by(5_000) {
        noisy[i] = b'N';
    }
    let qual: Vec<u8> = (0..noisy.len()).map(|i| [35, 12][i / 37 % 2]).collect();
    let mut packer = ReadPacker::default();
    let read = packer.pack(&noisy, &qual);
    let mut hq = Vec::new();
    read.hq_mask(20, &mut hq);
    let mut cut = Vec::new();
    cut_supermers(&read, 21, 15, |sm| cut.push(sm));
    let (mut wire, mut ascii) = (Vec::new(), Vec::new());
    for sm in &cut {
        encode_packed_supermer(&mut wire, &read, &hq, sm);
        encode_supermer(&mut ascii, &noisy, &qual, 20, sm);
    }
    assert!(
        wire == ascii,
        "the packed encoder and the ASCII encoder disagree"
    );
    let mut expanded = Vec::new();
    for record in SupermerBlobIter::new(&wire) {
        expand_supermer(&record, 21, |obs| expanded.push(obs));
    }
    assert!(
        expanded == kmers_with_exts(&noisy, &qual, 21, 20),
        "the expansion and the per-k-mer extraction disagree"
    );
    let mut out = Vec::with_capacity(wire.len());
    c.bench_function("kmers/supermer_encode_packed_100kb", |b| {
        b.iter(|| {
            out.clear();
            for sm in &cut {
                encode_packed_supermer(&mut out, &read, &hq, sm);
            }
            out.len()
        })
    });
    c.bench_function("kmers/supermer_expand_100kb", |b| {
        b.iter(|| {
            let mut windows = 0usize;
            for record in SupermerBlobIter::new(&wire) {
                expand_supermer_keys::<Kmer32>(&record, 21, |key, exts| {
                    criterion::black_box((key, exts));
                    windows += 1;
                });
            }
            windows
        })
    });
}

fn bench_compute_kernels(c: &mut Criterion) {
    // 1 Mb pseudo-random sequence for the bulk codecs, plus a sprinkling of
    // Ns so the pack path exercises its exception handling.
    let seq: Vec<u8> = {
        let mut x = 0xD1B54A32D192ED03u64;
        (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                [b'A', b'C', b'G', b'T'][(x & 3) as usize]
            })
            .collect()
    };
    let mut noisy = seq.clone();
    for i in (0..noisy.len()).step_by(997) {
        noisy[i] = b'N';
    }
    let packed = dbg::PackedSeq::from_bytes(&seq);
    c.bench_function("kernels/pack_1mb", |b| {
        b.iter(|| dbg::PackedSeq::from_bytes(&noisy).packed_bytes())
    });
    c.bench_function("kernels/unpack_1mb", |b| b.iter(|| packed.unpack().len()));

    // k=95 spans three words of the packed representation.
    let kmers_95: Vec<Kmer> = (0..2_000)
        .map(|i| Kmer::from_bytes(&seq[i * 97..i * 97 + 95]).unwrap())
        .collect();
    c.bench_function("kernels/revcomp_2k_k95", |b| {
        b.iter(|| {
            kmers_95
                .iter()
                .map(|km| km.revcomp().first_code() as u64)
                .sum::<u64>()
        })
    });
    c.bench_function("kernels/canonical_2k_k95", |b| {
        b.iter(|| {
            kmers_95
                .iter()
                .map(|km| km.canonical().0.first_code() as u64)
                .sum::<u64>()
        })
    });
}

fn bench_read_store(c: &mut Criterion) {
    let (reads, _) = dataset();
    let lib = {
        let mut lib = seqio::ReadLibrary::new_unpaired("bench");
        lib.reads = reads.clone();
        lib
    };
    // The ingestion hot loop: 2-bit packing + quality run-length encoding.
    c.bench_function("readstore/pack_reads", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|r| readstore::PackedRead::from_read(r).packed_bytes())
                .sum::<usize>()
        })
    });
    // The consumer hot loop: unpacking sequence + qualities back out.
    let packed: Vec<readstore::PackedRead> =
        reads.iter().map(readstore::PackedRead::from_read).collect();
    c.bench_function("readstore/unpack_reads", |b| {
        b.iter(|| packed.iter().map(|p| p.unpack().seq.len()).sum::<usize>())
    });
    // A full cold-cache fill: every rank fetches every foreign block once
    // through the aggregated collective path.
    let team = Team::single_node(4);
    c.bench_function("readstore/block_fetch_fill_4ranks", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let store =
                    readstore::ReadStore::build(ctx, &lib, &readstore::ReadStoreParams::default());
                let mut reader = store.reader(ctx);
                let ids: Vec<u64> = (0..store.num_blocks() as u64).collect();
                reader
                    .get_many(ctx, &ids)
                    .iter()
                    .flatten()
                    .map(|blk| blk.packed_bytes())
                    .sum::<usize>()
            })
        })
    });
}

/// The serial count of every k-mer observation of `reads`, cut at ε.
fn serial_table(reads: &[Read], params: &KmerAnalysisParams) -> FxHashMap<Kmer, KmerCounts> {
    let mut table: FxHashMap<Kmer, KmerCounts> = FxHashMap::default();
    for read in reads {
        for obs in kmers_with_exts_iter(&read.seq, &read.qual, params.k, params.hq_threshold) {
            table.entry(obs.kmer).or_default().observe(obs.exts);
        }
    }
    table.retain(|_, tally| tally.count >= params.min_count);
    table
}

fn bench_pipeline_stages(c: &mut Criterion) {
    let (reads, contigs) = dataset();
    let team = Team::single_node(4);
    let params = KmerAnalysisParams {
        k: 21,
        ..Default::default()
    };
    // The table is the serial count of the bench reads cut at ε, and nothing
    // else was ever inserted into it: at one k per key width (one word, two
    // words, a whole `Kmer`).
    for k in [21, 43, 71] {
        let params = KmerAnalysisParams {
            k,
            ..Default::default()
        };
        let serial = serial_table(&reads, &params);
        let before = team.stats_total();
        let table: FxHashMap<Kmer, KmerCounts> = team
            .run(|ctx| {
                let range = ctx.block_range(reads.len());
                kmer_analysis(ctx, &reads[range], &params)
                    .counts
                    .local_entries(ctx)
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(!serial.is_empty(), "no k = {k} k-mer survives ε");
        assert!(
            table == serial,
            "the k = {k} counts table is not the serial count"
        );
        let inserts = team.stats_total().delta_from(&before).kmer_table_inserts;
        assert_eq!(inserts, serial.len() as u64, "k = {k}");
    }
    c.bench_function("dbg/kmer_analysis_k21", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let range = ctx.block_range(reads.len());
                kmer_analysis(ctx, &reads[range], &params).counts.len()
            })
        })
    });
    // Bubble merging, hair removal and pruning as the pipeline runs them: one
    // `clean_contigs` pass over one contig adjacency, at 4 ranks. The set-up
    // holds the pass, at 1 and 4 ranks, to bubble merging followed by pruning
    // of its output, set and report, and requires bubbles and pruning to act
    // (the bench reads grow no hair at k = 21).
    {
        let (bubble, prune) = (BubbleParams::default(), PruningParams::default());
        let prepare = |team: &Arc<Team>| {
            team.run(|ctx| {
                let range = ctx.block_range(reads.len());
                let counts = kmer_analysis(ctx, &reads[range], &params).counts;
                let graph = build_graph(ctx, &counts, ThresholdPolicy::metahipmer_default());
                let set = traverse_contigs(ctx, &graph, 21, &TraversalParams::default());
                (counts, set)
            })
            .pop()
            .unwrap()
        };
        let clean = |ctx: &pgas::Ctx, (counts, set): &(dbg::KmerCountsMap, dbg::ContigSet)| {
            let graph = build_graph(ctx, counts, ThresholdPolicy::metahipmer_default());
            clean_contigs(ctx, set, &graph, Some(&bubble), Some(&prune))
        };
        for team in [Team::single_node(1), Arc::clone(&team)] {
            let prepared = prepare(&team);
            for ((one, report), (two, bubbles, pruning)) in team.run(|ctx| {
                let (counts, set) = &prepared;
                let graph = build_graph(ctx, counts, ThresholdPolicy::metahipmer_default());
                let (merged, b) = merge_bubbles_and_remove_hair(ctx, set, &graph, &bubble);
                let (pruned, p) = prune_iteratively(ctx, &merged, &graph, &prune);
                (clean(ctx, &prepared), (pruned, b, p))
            }) {
                assert!(
                    one == two && report.bubble == bubbles && report.pruning == pruning,
                    "the one clean-up pass differs from bubble merging then pruning"
                );
                assert!(
                    bubbles.bubbles_merged > 0 && pruning.removed > 0,
                    "bubble merging or pruning had nothing to do: {bubbles:?} {pruning:?}"
                );
            }
        }
        let team = Arc::clone(&team);
        c.bench_function("dbg/contig_cleanup", move |b| {
            b.iter_batched(
                || prepare(&team),
                |prepared| team.run(|ctx| clean(ctx, &prepared).0.len()),
                BatchSize::LargeInput,
            )
        });
    }
    // The contig traversal alone over a prebuilt counts table, so hot-loop
    // regressions in it show up without running the full pipeline. The set-up
    // holds the 4-rank contig set to the 1-rank one and checks that the
    // traversal claims exactly the eligible (fork-free) vertices.
    {
        let traverse_checked = |team: &Arc<Team>| {
            team.run(|ctx| {
                let range = ctx.block_range(reads.len());
                let analysis = kmer_analysis(ctx, &reads[range], &params);
                let graph =
                    build_graph(ctx, &analysis.counts, ThresholdPolicy::metahipmer_default());
                let set = traverse_contigs(ctx, &graph, 21, &TraversalParams::default());
                graph.for_each_local(ctx, |kmer, v| {
                    let eligible = v.left != Ext::Fork && v.right != Ext::Fork;
                    assert_eq!(v.used, eligible, "{kmer}: claim differs from eligibility");
                });
                set
            })
            .pop()
            .unwrap()
        };
        let one = traverse_checked(&Team::single_node(1));
        assert!(
            !one.is_empty(),
            "the traversal bench graph yields no contigs"
        );
        assert!(
            traverse_checked(&team) == one,
            "the 4-rank contig set differs from the 1-rank one"
        );
        let reads = reads.clone();
        let team = Arc::clone(&team);
        c.bench_function("dbg/traversal_segment_k21", move |b| {
            b.iter_batched(
                || {
                    team.run(|ctx| {
                        let range = ctx.block_range(reads.len());
                        kmer_analysis(ctx, &reads[range], &params)
                    })
                    .pop()
                    .unwrap()
                },
                |analysis| {
                    team.run(|ctx| {
                        let graph = build_graph(
                            ctx,
                            &analysis.counts,
                            ThresholdPolicy::metahipmer_default(),
                        );
                        traverse_contigs(ctx, &graph, 21, &TraversalParams::default()).len()
                    })
                },
                BatchSize::LargeInput,
            )
        });
    }
    // Contig k-mer injection alone, from a contig store into the k=43 table
    // of the bench reads, at 4 ranks. The set-up holds the injected table to
    // the serial one: the reads' count cut at ε, plus `weight` observations
    // of every contig window.
    {
        let params = KmerAnalysisParams {
            k: 43,
            ..Default::default()
        };
        let weight = params.min_count;
        let mut serial = serial_table(&reads, &params);
        for contig in &contigs.contigs {
            for obs in kmers_with_exts_iter(&contig.seq, &[], params.k, 0) {
                serial
                    .entry(obs.kmer)
                    .or_default()
                    .observe_n(obs.exts, weight);
            }
        }
        let prepare = |ctx: &pgas::Ctx| {
            let range = ctx.block_range(reads.len());
            let counts = kmer_analysis(ctx, &reads[range], &params).counts;
            (
                counts,
                dbg::ContigStore::build(ctx, &contigs, &Default::default()),
            )
        };
        let inject =
            |ctx: &pgas::Ctx, (counts, store): &(dbg::KmerCountsMap, Arc<dbg::ContigStore>)| {
                inject_contig_kmers_ref(
                    ctx,
                    counts,
                    dbg::ContigsRef::Store(store),
                    params.k,
                    weight,
                )
            };
        let table: FxHashMap<Kmer, KmerCounts> = team
            .run(|ctx| {
                let prepared = prepare(ctx);
                inject(ctx, &prepared);
                prepared.0.local_entries(ctx)
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(
            table == serial,
            "the injected table is not the serial count plus the contig windows"
        );
        let team = Arc::clone(&team);
        c.bench_function("dbg/kmer_merging_k43", move |b| {
            b.iter_batched(
                || team.run(prepare).pop().unwrap(),
                |prepared| team.run(|ctx| inject(ctx, &prepared)),
                BatchSize::LargeInput,
            )
        });
    }
    let contig_store = team
        .run(|ctx| dbg::ContigStore::build(ctx, &contigs, &Default::default()))
        .pop()
        .expect("one store per rank");
    c.bench_function("aligner/align_2k_reads", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let source = dbg::ContigsRef::Store(&contig_store);
                let index = build_seed_index_ref(ctx, source, 15);
                ctx.barrier();
                let range = ctx.block_range(reads.len().min(2000));
                let my = range.map(|i| (i as u64, reads[i].clone()));
                align_reads_ref(
                    ctx,
                    my,
                    source,
                    &index,
                    &AlignParams {
                        seed_len: 15,
                        ..Default::default()
                    },
                )
                .alignments
                .len()
            })
        })
    });
    // The path the pipeline runs: the same reads streamed packed out of a
    // `ReadStore`, contigs read from a `ContigStore`. The set-up checks that
    // every rank count aligns what 1 rank does, which is what the replicated
    // baseline aligned.
    let library = {
        let mut lib = seqio::ReadLibrary::new_unpaired("bench");
        lib.reads = reads[..reads.len().min(2000)].to_vec();
        lib
    };
    let params = AlignParams {
        seed_len: 15,
        ..Default::default()
    };
    let my_ids = |ctx: &pgas::Ctx| ctx.block_range(library.num_reads()).map(|i| i as u64);
    let align_store = |ctx: &pgas::Ctx| {
        let reads =
            readstore::ReadStore::build(ctx, &library, &readstore::ReadStoreParams::default());
        let store = dbg::ContigStore::build(ctx, &contigs, &Default::default());
        let source = dbg::ContigsRef::Store(&store);
        let index = build_seed_index_ref(ctx, source, params.seed_len);
        ctx.barrier();
        let set = align_reads_ref(
            ctx,
            reads.stream(ctx, my_ids(ctx).collect()),
            source,
            &index,
            &params,
        );
        // The stores are dropped only after the slowest rank's last fetch.
        ctx.barrier();
        set.alignments
    };
    let one_rank: Vec<aligner::Alignment> = Team::single_node(1).run(align_store).concat();
    let rendered: Vec<Vec<u8>> = one_rank
        .iter()
        .map(|a| format!("{a:?}").into_bytes())
        .collect();
    assert_eq!(
        (one_rank.len(), mhm_bench::scaffold_digest(&rendered)),
        (2228, ALIGNMENTS_DIGEST),
        "store path, 1 rank"
    );
    for (ranks, id) in [
        (1usize, "aligner/align_store_2k_reads_1rank"),
        (4, "aligner/align_store_2k_reads_4ranks"),
    ] {
        let team = Team::single_node(ranks);
        // Each rank aligns a block of the reads in id order, so the ranks'
        // alignments in rank order are the 1-rank list.
        assert_eq!(
            team.run(align_store).concat(),
            one_rank,
            "store path, {ranks} ranks"
        );
        c.bench_function(id, |b| b.iter(|| team.run(align_store).len()));
    }
}

fn bench_rrna_hmm(c: &mut Criterion) {
    // What scaffolding asks of the detector: ~100 kb of unrelated contigs of
    // 150-10,000 bases against a 400-base profile, three of them carrying a
    // copy of the consensus (3%, 10% and 25% diverged; the 10% one on the
    // reverse strand). Only the first two are rRNA by the default threshold.
    let consensus = random_bases(400, 0xD1B54A32D192ED03);
    let detector = RrnaDetector::from_consensus(&consensus);
    let mut x = 0x2545F4914F6CDD1Du64;
    let mut next = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let mut contigs: Vec<Vec<u8>> = Vec::new();
    while contigs.iter().map(Vec::len).sum::<usize>() < 100_000 {
        let len = 150 + next(9_851) as usize;
        contigs.push(random_bases(len, next(u64::MAX)));
    }
    let planted = [(1usize, 3u64, false), (4, 10, true), (7, 25, false)];
    for (slot, percent, reverse) in planted {
        let mut copy = consensus.clone();
        for base in &mut copy {
            if next(100) < percent {
                *base = match *base {
                    b'A' => b'C',
                    b'C' => b'G',
                    b'G' => b'T',
                    _ => b'A',
                };
            }
        }
        if reverse {
            copy = seqio::alphabet::revcomp(&copy);
        }
        let at = contigs[slot].len() / 2;
        contigs[slot].splice(at..at, copy);
    }
    for (slot, contig) in contigs.iter().enumerate() {
        let hit = detector.is_hit(contig);
        assert_eq!(
            hit,
            detector.score(contig) >= detector.threshold,
            "contig {slot}: the filtered decision is not the exact one"
        );
        assert_eq!(hit, slot == 1 || slot == 4, "contig {slot}");
    }
    c.bench_function("rrna_hmm/is_hit_100kb", |b| {
        b.iter(|| contigs.iter().filter(|c| detector.is_hit(c)).count())
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dht_phases, bench_local_assembly, bench_extraction_hot_loops, bench_compute_kernels, bench_read_store, bench_pipeline_stages, bench_rrna_hmm
}
criterion_main!(benches);

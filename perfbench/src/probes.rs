//! Micro-throughput probes of the layers under the pipeline.
//!
//! Every probe works on data derived from the workload's own reads (their
//! bases, k-mers, supermers and k-mer hashes, with the duplicate structure
//! they really have) and runs on a team of the traced run's rank count, each
//! rank on its block of the reads. A rate is the work of all ranks divided
//! by the slowest rank's time. Preparation of a probe's input is not timed.

use dht::{bulk_merge, CachedView, DistBloom, DistMap, FxHashSet};
use kmers::{
    canonical_kmers, encode_supermer, expand_supermer, Kmer, SupermerBlobIter, SupermerIter,
};
use pgas::{Aggregator, BlobAggregator, Ctx, Team};
use readstore::{PackedRead, ReadStore, ReadStoreParams};
use seqio::{FastqRecord, Read, ReadId, ReadLibrary};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Reads a probe run works on at most: enough that a probe lasts tens of
/// milliseconds, few enough that all sixteen fit beside a traced run.
const MAX_PROBE_READS: usize = 12_000;
/// The first k of the default schedule and the default minimizer length.
const K: usize = 21;
const M: usize = 15;
/// Aggregation batch of the k-mer analysis and lookup layers.
const BATCH: usize = 4096;
/// The Phred threshold k-mer analysis applies to extension bases.
const HQ_THRESHOLD: u8 = 20;

/// What one rank measured: `units` of work in `seconds`.
#[derive(Debug, Clone, Copy)]
struct Sample {
    units: f64,
    seconds: f64,
}

fn timed<R>(units: impl FnOnce(&R) -> f64, f: impl FnOnce() -> R) -> Sample {
    let start = Instant::now();
    let out = black_box(f());
    let seconds = start.elapsed().as_secs_f64();
    Sample {
        units: units(&out),
        seconds,
    }
}

/// How a probe's per-rank samples become its metric.
#[derive(Clone, Copy)]
enum Shape {
    /// Millions of units per second: all ranks' units over the slowest rank.
    MillionsPerSecond,
    /// Microseconds per unit on the slowest rank.
    MicrosecondsEach,
}

struct Probe {
    metric: &'static str,
    shape: Shape,
    run: fn(&Ctx, &ReadLibrary) -> Sample,
}

const PROBES: [Probe; 16] = [
    Probe {
        metric: "seqio.fastq_parse_mb_s",
        shape: Shape::MillionsPerSecond,
        run: fastq_parse,
    },
    Probe {
        metric: "readstore.pack_mb_s",
        shape: Shape::MillionsPerSecond,
        run: readstore_pack,
    },
    Probe {
        metric: "readstore.stream_mb_s",
        shape: Shape::MillionsPerSecond,
        run: readstore_stream,
    },
    Probe {
        metric: "kmers.supermer_extract_mb_s",
        shape: Shape::MillionsPerSecond,
        run: supermer_extract,
    },
    Probe {
        metric: "kmers.supermer_expand_mkmers_s",
        shape: Shape::MillionsPerSecond,
        run: supermer_expand,
    },
    Probe {
        metric: "kmers.canonical_mkmers_s",
        shape: Shape::MillionsPerSecond,
        run: canonical,
    },
    Probe {
        metric: "dht.bulk_merge_mitems_s",
        shape: Shape::MillionsPerSecond,
        run: dht_bulk_merge,
    },
    Probe {
        metric: "dht.get_many_mitems_s",
        shape: Shape::MillionsPerSecond,
        run: dht_get_many,
    },
    Probe {
        metric: "dht.cached_view_hit_mitems_s",
        shape: Shape::MillionsPerSecond,
        run: cached_view_hit,
    },
    Probe {
        metric: "dht.cached_view_miss_mitems_s",
        shape: Shape::MillionsPerSecond,
        run: cached_view_miss,
    },
    Probe {
        metric: "dht.bloom_insert_mitems_s",
        shape: Shape::MillionsPerSecond,
        run: bloom_insert,
    },
    Probe {
        metric: "pgas.exchange_mb_s",
        shape: Shape::MillionsPerSecond,
        run: pgas_exchange,
    },
    Probe {
        metric: "pgas.aggregator_mitems_s",
        shape: Shape::MillionsPerSecond,
        run: pgas_aggregator,
    },
    Probe {
        metric: "pgas.blob_aggregator_mb_s",
        shape: Shape::MillionsPerSecond,
        run: pgas_blob_aggregator,
    },
    Probe {
        metric: "pgas.rpc_mitems_s",
        shape: Shape::MillionsPerSecond,
        run: pgas_rpc,
    },
    Probe {
        metric: "pgas.barrier_us",
        shape: Shape::MicrosecondsEach,
        run: pgas_barrier,
    },
];

/// Runs every probe on a fresh team of `ranks` ranks over (a prefix of)
/// `library`. Each probe is one op: `Err` carries what went wrong.
pub fn run_all(library: &ReadLibrary, ranks: usize) -> Vec<(&'static str, Result<f64, String>)> {
    // An even count, so that a paired library stays paired.
    let used = MAX_PROBE_READS.min(library.reads.len()) & !1;
    let input = ReadLibrary {
        name: library.name.clone(),
        reads: library.reads[..used].to_vec(),
        ..*library
    };
    PROBES
        .iter()
        .map(|probe| {
            let team = Team::single_node(ranks);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                team.try_run(|ctx| (probe.run)(ctx, &input))
            }));
            let value = match outcome {
                Ok(Ok(samples)) => Ok(reduce(probe.shape, &samples)),
                Ok(Err(fault)) => Err(format!("rank fault: {fault}")),
                Err(_) => Err("panicked".to_string()),
            };
            (probe.metric, value)
        })
        .collect()
}

fn reduce(shape: Shape, samples: &[Sample]) -> f64 {
    let units: f64 = samples.iter().map(|s| s.units).sum();
    let slowest = samples.iter().map(|s| s.seconds).fold(0.0, f64::max);
    match shape {
        Shape::MillionsPerSecond => units / slowest / 1e6,
        Shape::MicrosecondsEach => slowest * 1e6 / (units / samples.len() as f64),
    }
}

// --- inputs derived from this rank's block of the reads ----------------------

fn my_reads<'a>(ctx: &Ctx, library: &'a ReadLibrary) -> &'a [Read] {
    &library.reads[ctx.block_range(library.reads.len())]
}

fn bases(reads: &[Read]) -> f64 {
    reads.iter().map(Read::len).sum::<usize>() as f64
}

/// The canonical k-mers of this rank's reads, duplicates kept.
fn my_kmers(ctx: &Ctx, library: &ReadLibrary) -> Vec<Kmer> {
    my_reads(ctx, library)
        .iter()
        .flat_map(|r| canonical_kmers(&r.seq, K))
        .collect()
}

fn my_distinct_kmers(ctx: &Ctx, library: &ReadLibrary) -> Vec<Kmer> {
    let distinct: FxHashSet<Kmer> = my_kmers(ctx, library).into_iter().collect();
    distinct.into_iter().collect()
}

fn my_hashes(ctx: &Ctx, library: &ReadLibrary) -> Vec<u64> {
    my_kmers(ctx, library)
        .iter()
        .map(Kmer::owner_hash)
        .collect()
}

/// This rank's reads as the supermer wire blob k-mer analysis would ship.
fn my_supermer_blob(ctx: &Ctx, library: &ReadLibrary) -> Vec<u8> {
    let mut blob = Vec::new();
    for read in my_reads(ctx, library) {
        for sm in SupermerIter::new(&read.seq, K, M) {
            encode_supermer(&mut blob, &read.seq, &read.qual, HQ_THRESHOLD, &sm);
        }
    }
    blob
}

/// A k-mer count table holding every rank's k-mers (collective).
fn counted(ctx: &Ctx, library: &ReadLibrary) -> Arc<DistMap<Kmer, u32>> {
    let map: Arc<DistMap<Kmer, u32>> = DistMap::shared(ctx);
    let items = my_kmers(ctx, library).into_iter().map(|km| (km, 1u32));
    bulk_merge(ctx, &map, items, BATCH, |a, v| *a += v);
    map
}

// --- the probes ---------------------------------------------------------------

fn fastq_parse(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let records: Vec<FastqRecord> = my_reads(ctx, library)
        .iter()
        .map(|r| FastqRecord {
            name: r.name.clone(),
            seq: r.seq.clone(),
            qual: r.qual.clone(),
        })
        .collect();
    let text = seqio::write_fastq(&records);
    ctx.barrier();
    timed(
        |_| text.len() as f64,
        || seqio::parse_fastq(&text).expect("rendered FASTQ parses"),
    )
}

fn readstore_pack(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let reads = my_reads(ctx, library);
    ctx.barrier();
    timed(
        |_| bases(reads),
        || {
            reads
                .iter()
                .map(|r| PackedRead::from_read(r).packed_bytes())
                .sum::<usize>()
        },
    )
}

fn readstore_stream(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let store = ReadStore::build(ctx, library, &ReadStoreParams::default());
    // The other ranks' half of the library, so blocks arrive by one-sided
    // fetch as they do when alignment streams a localised distribution.
    let other = (ctx.rank() + 1) % ctx.ranks();
    let ids: Vec<ReadId> = pgas::team::block_range_for(other, ctx.ranks(), library.reads.len())
        .map(|i| i as ReadId)
        .collect();
    ctx.barrier();
    let sample = timed(
        |streamed: &usize| *streamed as f64,
        || store.stream(ctx, ids).map(|(_, read)| read.len()).sum(),
    );
    ctx.barrier();
    sample
}

fn supermer_extract(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let reads = my_reads(ctx, library);
    ctx.barrier();
    timed(|_| bases(reads), || my_supermer_blob(ctx, library).len())
}

fn supermer_expand(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let blob = my_supermer_blob(ctx, library);
    ctx.barrier();
    timed(
        |kmers: &u64| *kmers as f64,
        || {
            let mut kmers = 0u64;
            for record in SupermerBlobIter::new(&blob) {
                expand_supermer(&record, K, |obs| {
                    black_box(obs);
                    kmers += 1;
                });
            }
            kmers
        },
    )
}

fn canonical(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let reads = my_reads(ctx, library);
    ctx.barrier();
    timed(
        |kmers: &usize| *kmers as f64,
        || {
            reads
                .iter()
                .map(|r| canonical_kmers(&r.seq, K).len())
                .sum::<usize>()
        },
    )
}

fn dht_bulk_merge(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let kmers = my_kmers(ctx, library);
    let map: Arc<DistMap<Kmer, u32>> = DistMap::shared(ctx);
    let n = kmers.len() as f64;
    ctx.barrier();
    timed(
        |_| n,
        || {
            let items = kmers.into_iter().map(|km| (km, 1u32));
            bulk_merge(ctx, &map, items, BATCH, |a, v| *a += v)
        },
    )
}

fn dht_get_many(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let map = counted(ctx, library);
    let keys = my_kmers(ctx, library);
    ctx.barrier();
    timed(
        |_| keys.len() as f64,
        || map.get_many(ctx, &keys, BATCH).len(),
    )
}

/// A view big enough that nothing is evicted, over this rank's distinct
/// k-mers: the first pass over them misses every time, a second pass hits
/// every time.
fn cached_view_pass(ctx: &Ctx, library: &ReadLibrary, warm: bool) -> Sample {
    let map = counted(ctx, library);
    let keys = my_distinct_kmers(ctx, library);
    let mut view = CachedView::new(&map, keys.len() + 1, BATCH);
    if warm {
        view.get_many(ctx, &keys);
    }
    ctx.barrier();
    timed(|_| keys.len() as f64, || view.get_many(ctx, &keys).len())
}

fn cached_view_miss(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    cached_view_pass(ctx, library, false)
}

fn cached_view_hit(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    cached_view_pass(ctx, library, true)
}

fn bloom_insert(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let kmers = my_kmers(ctx, library);
    let total = ctx.allreduce_sum_u64(kmers.len() as u64) as usize;
    let bloom = ctx.share(|| DistBloom::new(ctx.ranks(), total / ctx.ranks() + 16, 0.01));
    ctx.barrier();
    let sample = timed(
        |_| kmers.len() as f64,
        || {
            kmers
                .iter()
                .filter(|km| bloom.insert_and_check(ctx, *km))
                .count()
        },
    );
    ctx.barrier();
    sample
}

fn pgas_exchange(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let hashes = my_hashes(ctx, library);
    let ranks = ctx.ranks();
    let per_dest = hashes.len() / ranks;
    let outgoing: Vec<Vec<u64>> = (0..ranks)
        .map(|d| hashes[d * per_dest..(d + 1) * per_dest].to_vec())
        .collect();
    ctx.barrier();
    timed(
        |_| (per_dest * ranks * std::mem::size_of::<u64>()) as f64,
        || ctx.exchange(outgoing).len(),
    )
}

fn pgas_aggregator(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let hashes = my_hashes(ctx, library);
    let ranks = ctx.ranks() as u64;
    ctx.barrier();
    timed(
        |_| hashes.len() as f64,
        || {
            let mut agg: Aggregator<u64> = Aggregator::new(ctx, BATCH);
            for &h in &hashes {
                agg.push((h % ranks) as usize, h);
            }
            agg.finish().len()
        },
    )
}

fn pgas_blob_aggregator(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let reads = my_reads(ctx, library);
    let ranks = ctx.ranks();
    ctx.barrier();
    timed(
        |_| bases(reads),
        || {
            let mut agg = BlobAggregator::new(ctx, BATCH * 8);
            for (i, read) in reads.iter().enumerate() {
                agg.push_record(i % ranks, &read.seq);
            }
            agg.finish().len()
        },
    )
}

fn pgas_rpc(ctx: &Ctx, library: &ReadLibrary) -> Sample {
    let hashes = my_hashes(ctx, library);
    let ranks = ctx.ranks() as u64;
    ctx.barrier();
    timed(
        |_| hashes.len() as f64,
        || {
            let requests = hashes.iter().map(|&h| ((h % ranks) as usize, h));
            ctx.exchange_map(requests, BATCH, |h: u64| h.rotate_left(7))
                .len()
        },
    )
}

fn pgas_barrier(ctx: &Ctx, _library: &ReadLibrary) -> Sample {
    const ROUNDS: usize = 2_000;
    ctx.barrier();
    timed(
        |_| ROUNDS as f64,
        || {
            for _ in 0..ROUNDS {
                ctx.barrier();
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_use_all_work_over_the_slowest_rank() {
        let samples = [
            Sample {
                units: 3e6,
                seconds: 1.0,
            },
            Sample {
                units: 1e6,
                seconds: 2.0,
            },
        ];
        assert_eq!(reduce(Shape::MillionsPerSecond, &samples), 2.0);
        // 2e6 barriers per rank in 2 s on the slowest rank: 1 us each.
        assert_eq!(reduce(Shape::MicrosecondsEach, &samples), 1.0);
    }

    #[test]
    fn every_probe_metric_is_in_the_catalogue() {
        for probe in &PROBES {
            assert!(
                crate::metrics::unit_of(probe.metric).is_some(),
                "{}",
                probe.metric
            );
        }
    }
}

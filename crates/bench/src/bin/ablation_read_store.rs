//! Ablation: distributed read store vs a full `ReadLibrary` replica per rank.
//!
//! Reads are the largest input of an assembly run, and every stage touches
//! them: k-mer analysis streams them, alignment walks them, local assembly
//! and scaffolding read them back by id. The replicated baseline gives each
//! rank its own copy of the whole library — O(total input) read bytes per
//! rank, the other half of the single-node memory ceiling the paper's PGAS
//! design removes (the contig half is `ablation_contig_store`). The
//! distributed store packs reads 2-bit with run-length-encoded qualities
//! (names dropped), shards fixed-size blocks by owner rank, and serves every
//! consumer through per-rank byte-bounded caches — streaming owned blocks
//! for k-mer analysis, one-sided block fetches for alignment, and one
//! aggregated collective fetch for local-assembly pools — so per-rank read
//! residency drops to `total/ranks + cache bound`.
//!
//! This harness runs the same assembly with the store on and off at 1, 2, 4
//! and 8 ranks and exits non-zero unless, at every rank count:
//!
//! * the scaffolds are **byte-identical** across the two modes, and
//! * every rank's peak resident read bytes (`read_bytes_resident`, owned
//!   shard + reader caches, packed) stay within `replicated_total/ranks +
//!   cache_bytes` — the ~6x packing margin (2 bits/base vs seq + qual +
//!   name) absorbs block-hash shard imbalance — and
//! * the peak-residency ratio (replicated / distributed, the memory-scaling
//!   figure of merit) does not drift below `max(1.8, ranks/2)` — at one
//!   rank the win is pure packing; at higher rank counts sharding compounds
//!   it, diluted on this tiny dataset by the fixed cache bound.
//!
//! The measured numbers are written to `BENCH_read_mem.json` so the memory
//! trajectory accumulates across commits; the ratio assertion doubles as the
//! CI drift guard on that file's contents.

use baselines::{Assembler, MetaHipMerAssembler};
use mhm_bench::{fmt, print_table, scaffold_digest, scaled_eval_params, team};
use mhm_core::AssemblyConfig;
use std::io::Write;

/// Per-rank reader cache bound used for the run (small enough that the
/// shard, not the cache, dominates residency at every rank count).
const CACHE_BYTES: usize = 32 << 10;

fn run() {
    let ds = mgsim::mg64_sim(mgsim::Mg64Scale::Tiny, 20260809);
    let eval = scaled_eval_params();

    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    for ranks in [1usize, 2, 4, 8] {
        let mut outputs = Vec::new();
        let mut per_rank_stats = Vec::new();
        for distributed in [false, true] {
            let cfg = AssemblyConfig {
                use_distributed_reads: distributed,
                read_cache_bytes: CACHE_BYTES,
                ..Default::default()
            };
            let team = team(ranks);
            let assembler = MetaHipMerAssembler { config: cfg };
            outputs.push(assembler.assemble(&team, &ds.library, Some(&ds.rrna_consensus)));
            per_rank_stats.push(team.stats_per_rank());
        }
        let (rep, dist) = (&outputs[0], &outputs[1]);
        let rep_resident: Vec<u64> = per_rank_stats[0]
            .iter()
            .map(|s| s.read_bytes_resident)
            .collect();
        let dist_resident: Vec<u64> = per_rank_stats[1]
            .iter()
            .map(|s| s.read_bytes_resident)
            .collect();
        let rep_max = *rep_resident.iter().max().unwrap();
        let dist_max = *dist_resident.iter().max().unwrap();
        let fetch_bytes: u64 = per_rank_stats[1].iter().map(|s| s.read_fetch_bytes).sum();
        let ratio = rep_max as f64 / dist_max.max(1) as f64;
        rows.push(vec![
            ranks.to_string(),
            rep_max.to_string(),
            dist_max.to_string(),
            (rep_max / ranks as u64 + CACHE_BYTES as u64).to_string(),
            fetch_bytes.to_string(),
            fmt(ratio, 1),
        ]);

        // ---- The hard claims, per rank count --------------------------------
        let (seq_rep, seq_dist) = (rep.sequences(), dist.sequences());
        assert_eq!(
            seq_rep, seq_dist,
            "scaffolds must be byte-identical across read-store modes at {ranks} ranks"
        );
        let bound = rep_max / ranks as u64 + CACHE_BYTES as u64;
        for (rank, &resident) in dist_resident.iter().enumerate() {
            assert!(
                resident <= bound,
                "rank {rank}/{ranks}: resident read bytes {resident} exceed \
                 total/ranks + cache = {bound}"
            );
        }
        let min_ratio = (ranks as f64 / 2.0).max(1.8);
        assert!(
            ratio >= min_ratio,
            "memory ratio drifted below {min_ratio:.0}x at {ranks} ranks: \
             {ratio:.1}x ({rep_max} -> {dist_max})"
        );
        let report = asm_metrics::evaluate(&seq_dist, &ds.refs, &eval);
        println!(
            "ranks={ranks}: {ratio:.1}x less resident read memory per rank \
             ({rep_max} -> {dist_max} bytes, bound {bound}), {}",
            report.summary_line()
        );
        snapshots.push(format!(
            "    {{\"ranks\": {ranks}, \"resident_replicated_max\": {rep_max}, \
             \"resident_distributed_max\": {dist_max}, \"residency_bound\": {bound}, \
             \"cache_bytes\": {CACHE_BYTES}, \"mem_ratio\": {ratio:.2}, \
             \"read_fetch_bytes\": {fetch_bytes}, \
             \"scaffold_digest\": \"{:016x}\", \"scaffolds\": {}}}",
            scaffold_digest(&seq_dist),
            seq_dist.len(),
        ));
    }
    print_table(
        "Ablation — distributed read store",
        &[
            "Ranks",
            "Resident (replica)",
            "Resident (store)",
            "Bound",
            "Fetch bytes",
            "Ratio",
        ],
        &rows,
    );

    // ---- Snapshot for the memory trajectory ---------------------------------
    let snapshot = format!(
        "{{\n  \"bench\": \"ablation_read_store\",\n  \"dataset\": \"mg64_tiny\",\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        snapshots.join(",\n")
    );
    let path = "BENCH_read_mem.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(snapshot.as_bytes())) {
        Ok(()) => println!("Wrote {path}"),
        Err(e) => eprintln!("Could not write {path}: {e}"),
    }
}

fn main() {
    // Exit non-zero even when a failure happens on a spawned rank thread
    // whose join result nobody inspects (see mhm_bench::harness_exit_code).
    mhm_bench::run_harness(run);
}

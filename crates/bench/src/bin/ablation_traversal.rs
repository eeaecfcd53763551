//! Traffic guard of the default pipeline configuration on `mg64_tiny`.
//!
//! Contig generation is the latency-bound stage of the paper's pipeline: the
//! §II-D per-hop walker touches one remote vertex per k-mer per walk, from
//! both ends of every path. The segment traversal compacts each rank's owned
//! shard entirely in memory and stitches the owner-local segments with a
//! handful of aggregated endpoint-exchange rounds (predecessor resolution,
//! pointer jumping, segment shipping), so its traversal-stage traffic is
//! `O(owner crossings)` aggregated messages instead of `O(contig length)`
//! fine-grained lookups. K-mer analysis likewise ships packed supermers, not
//! one packed k-mer struct per observation.
//!
//! Both baselines lost their ablations and are retired (the walker survives
//! only as `dbg`'s test-only reference), so this harness no longer runs them.
//! It assembles the dataset once per rank count (1, 2, 4, 8) with
//! `AssemblyConfig::default()` and exits non-zero unless the
//! *graph-traversal-stage traffic* (fine-grained accesses plus aggregated
//! messages — each would be one network message on real hardware), the
//! graph-traversal-stage bytes and the k-mer-analysis-stage bytes stay under
//! the retired baselines' frozen numbers, and the scaffolds are
//! byte-identical at every rank count. The measured numbers are written to
//! `BENCH_traversal.json` so the perf trajectory accumulates across commits.

use baselines::{Assembler, MetaHipMerAssembler};
use mhm_bench::{print_table, scaffold_digest, scaled_eval_params, team};
use mhm_core::AssemblyConfig;
use pgas::StatsSnapshot;
use std::io::Write;

// The last numbers of the retired baselines, measured at commit a84ffc4 (the
// parent of the change that removed them) on this harness's dataset,
// `mg64_sim(Tiny, 20260614)`. They barely move with the rank count (walker
// traffic 1,943,757–1,944,145 at 1–8 ranks, its bytes not at all) and are
// properties of that dataset: change the dataset and they must be
// re-derived, not scaled.

/// A fifth of the per-hop walker's `graph_traversal` traffic (1,943,757
/// events at 1 rank): the ≥5× claim of the segment traversal.
const TRAVERSAL_TRAFFIC_BOUND: u64 = 388_751;
/// The per-hop walker's `graph_traversal` bytes. The stitch rounds only
/// re-ship still-unresolved chain heads, so the segment path has to move
/// fewer bytes than that at every rank count (at 2+ ranks it once blew up to
/// 36.9–86.5 MB because cross-rank cycles chased until the round cap).
const TRAVERSAL_BYTES_BOUND: u64 = 33_775_560;
/// A quarter of the per-k-mer analysis's `kmer_analysis` bytes (682,852,704
/// at 1 rank): the ≥4× claim of supermer routing.
const KMER_ANALYSIS_BYTES_BOUND: u64 = 170_713_176;

/// Events that cross (or would cross) the network: one per fine-grained
/// access, one per aggregated message — the same metric the batched-lookup
/// ablation uses.
fn traffic(s: &StatsSnapshot) -> u64 {
    s.fine_grained_ops() + s.msgs_sent
}

fn run() {
    let ds = mgsim::mg64_sim(mgsim::Mg64Scale::Tiny, 20260614);
    let eval = scaled_eval_params();
    let assembler = MetaHipMerAssembler {
        config: AssemblyConfig::default(),
    };

    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    let mut digests = Vec::new();
    for ranks in [1usize, 2, 4, 8] {
        let out = assembler.assemble(&team(ranks), &ds.library, Some(&ds.rrna_consensus));
        let traversal = out.stage_stats("graph_traversal");
        let analysis = out.stage_stats("kmer_analysis");
        let traversal_traffic = traffic(&traversal);
        rows.push(vec![
            ranks.to_string(),
            traversal_traffic.to_string(),
            traversal.bytes_sent.to_string(),
            traversal.traversal_rounds.to_string(),
            traversal.stitch_bytes.to_string(),
            analysis.bytes_sent.to_string(),
        ]);

        // ---- The hard claims, per rank count --------------------------------
        assert!(
            traversal_traffic <= TRAVERSAL_TRAFFIC_BOUND,
            "graph_traversal traffic must stay <= {TRAVERSAL_TRAFFIC_BOUND} at {ranks} ranks, \
             got {traversal_traffic}"
        );
        assert!(
            traversal.bytes_sent <= TRAVERSAL_BYTES_BOUND,
            "graph_traversal bytes must stay <= {TRAVERSAL_BYTES_BOUND} at {ranks} ranks, got {}",
            traversal.bytes_sent
        );
        assert!(
            analysis.bytes_sent <= KMER_ANALYSIS_BYTES_BOUND,
            "kmer_analysis bytes must stay <= {KMER_ANALYSIS_BYTES_BOUND} at {ranks} ranks, \
             got {}",
            analysis.bytes_sent
        );
        let seqs = out.sequences();
        let digest = scaffold_digest(&seqs);
        digests.push(digest);
        let report = asm_metrics::evaluate(&seqs, &ds.refs, &eval);
        println!(
            "ranks={ranks}: traversal traffic {traversal_traffic}, {}",
            report.summary_line()
        );
        snapshots.push(format!(
            "    {{\"ranks\": {ranks}, \"traversal_traffic\": {traversal_traffic}, \
             \"traversal_bytes\": {}, \"stitch_rounds\": {}, \"stitch_bytes\": {}, \
             \"kmer_analysis_bytes\": {}, \"scaffold_digest\": \"{digest:016x}\", \
             \"scaffolds\": {}}}",
            traversal.bytes_sent,
            traversal.traversal_rounds,
            traversal.stitch_bytes,
            analysis.bytes_sent,
            seqs.len(),
        ));
    }
    print_table(
        "Traffic guard — default configuration on mg64_tiny",
        &[
            "Ranks",
            "Traversal traffic",
            "Traversal bytes",
            "Stitch rounds",
            "Stitch bytes",
            "K-mer-analysis bytes",
        ],
        &rows,
    );
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "scaffolds must be byte-identical at every rank count, got digests {digests:016x?}"
    );

    // ---- Snapshot for the perf trajectory -----------------------------------
    let snapshot = format!(
        "{{\n  \"bench\": \"ablation_traversal\",\n  \"dataset\": \"mg64_tiny\",\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        snapshots.join(",\n")
    );
    let path = "BENCH_traversal.json";
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

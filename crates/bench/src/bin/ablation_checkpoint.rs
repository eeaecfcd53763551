//! Ablation: checkpoint/restart with elastic rank-count resume under an
//! injected rank fault.
//!
//! Long assemblies die — node failures, walltime limits, preemption — and
//! without checkpoints every k iteration already completed dies with them.
//! The `core::checkpoint` subsystem serialises the cross-iteration state
//! (contig shards, read-store block map, read-localisation targets,
//! iteration position) at each k boundary into a versioned, CRC-checked,
//! atomically committed on-disk format, and restores it onto a team of any
//! rank count by re-routing every shard entry through the tables'
//! partitioners.
//!
//! This harness turns "kill after iteration i, restart elsewhere, identical
//! output" into a CI-checked property instead of a hope. It runs, on the
//! same dataset:
//!
//! 1. an uninterrupted baseline (2 ranks, no checkpointing) — the golden
//!    scaffolds;
//! 2. the same run with checkpointing on — must be byte-identical, and the
//!    measured `checkpoint_write` stage is the write overhead;
//! 3. a run with a [`pgas::FaultPlan`] armed to kill rank 1 just after the
//!    iteration-0 commit (aimed with the manifest's collective barrier
//!    stamp) — must fail, leaving a committed checkpoint behind;
//! 4. resumes of that dead run at 2x the ranks, at half, and at the same
//!    count — each must complete with scaffolds byte-identical to the
//!    baseline, and the measured `checkpoint_restore` stage is the restore
//!    overhead.
//!
//! Local assembly is disabled for the same reason the pipeline's
//! rank-invariance test disables it: its dynamically scheduled extension
//! walk is the one stage whose output is not a pure function of the rank
//! count, and the property checked here is cross-rank-count byte equality.
//!
//! The timings land in `BENCH_checkpoint.json` (write overhead, restore
//! seconds per resume rank count, checkpoint size on disk) so the
//! fault-tolerance cost trajectory accumulates across commits.

use mhm_bench::{fmt, print_table, scaffold_digest, scaled_eval_params};
use mhm_core::{checkpoint, AssemblyConfig, MetaHipMer};
use pgas::{FaultPlan, Team};
use std::io::Write;
use std::path::Path;

/// Total bytes of every file under a committed checkpoint directory.
fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(meta) = e.metadata() {
                if meta.is_file() {
                    total += meta.len();
                } else if meta.is_dir() {
                    total += dir_bytes(&e.path());
                }
            }
        }
    }
    total
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mhm_ablation_ckpt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const WRITER_RANKS: usize = 2;

fn run() {
    let ds = mgsim::mg64_sim(mgsim::Mg64Scale::Tiny, 20260809);
    let eval = scaled_eval_params();
    let cfg = AssemblyConfig {
        local_assembly: false,
        ..Default::default()
    };
    assert!(
        cfg.k_values().len() >= 2,
        "need at least one k boundary to checkpoint at"
    );

    // ---- 1. Uninterrupted baseline ------------------------------------------
    let baseline = MetaHipMer::new(cfg.clone()).assemble(
        &Team::single_node(WRITER_RANKS),
        &ds.library,
        Some(&ds.rrna_consensus),
    );
    let golden_seqs = baseline.sequences();
    let golden = scaffold_digest(&golden_seqs);
    let report = asm_metrics::evaluate(&golden_seqs, &ds.refs, &eval);
    println!(
        "baseline: {} scaffolds, digest {golden:016x}, {:.2}s, {}",
        golden_seqs.len(),
        baseline.total_seconds,
        report.summary_line()
    );

    // ---- 2. Same run, checkpointing on: overhead + byte equality ------------
    let clean_dir = scratch("clean");
    let mut ckpt_cfg = cfg.clone();
    ckpt_cfg.checkpoint_dir = Some(clean_dir.clone());
    let written = MetaHipMer::new(ckpt_cfg).assemble(
        &Team::single_node(WRITER_RANKS),
        &ds.library,
        Some(&ds.rrna_consensus),
    );
    assert_eq!(
        scaffold_digest(&written.sequences()),
        golden,
        "checkpointing changed the assembly"
    );
    let write_seconds = written.stage_seconds("checkpoint_write");
    assert!(write_seconds > 0.0, "checkpoint_write stage not recorded");
    let write_frac = write_seconds / written.total_seconds.max(1e-9);
    let (manifest, clean_ckpt) = checkpoint::find_latest(&clean_dir, cfg.fingerprint())
        .expect("checkpoint committed by the clean run");
    let ckpt_bytes = dir_bytes(&clean_ckpt);
    println!(
        "checkpointed: write {write_seconds:.3}s ({:.1}% of {:.2}s), {} bytes on disk, \
         commit at barrier {}",
        100.0 * write_frac,
        written.total_seconds,
        ckpt_bytes,
        manifest.barriers_at_commit
    );

    // ---- 3. Kill rank 1 right after the iteration-0 commit ------------------
    // Barrier counts are deterministic and rank-uniform, so the clean run's
    // commit stamp aims a fresh run's fault precisely past the commit.
    let fault_dir = scratch("fault");
    let mut fault_cfg = cfg.clone();
    fault_cfg.checkpoint_dir = Some(fault_dir.clone());
    let team = Team::single_node(WRITER_RANKS);
    team.set_fault_plan(Some(FaultPlan {
        rank: 1,
        after_barriers: manifest.barriers_at_commit + 16,
    }));
    let fault = MetaHipMer::new(fault_cfg.clone())
        .try_assemble(&team, &ds.library, Some(&ds.rrna_consensus))
        .expect_err("armed fault must kill the run");
    println!("fault run: {fault} (as planned)");
    assert_eq!(fault.rank, 1);
    let (fault_manifest, _) = checkpoint::find_latest(&fault_dir, cfg.fingerprint())
        .expect("iteration-0 checkpoint must have committed before the kill");
    assert_eq!(fault_manifest.next_iter, 1);

    // ---- 4. Elastic resumes of the dead run ---------------------------------
    let mut rows = Vec::new();
    let mut resume_snapshots = Vec::new();
    for ranks in [2 * WRITER_RANKS, WRITER_RANKS / 2, WRITER_RANKS] {
        let mut resume_cfg = fault_cfg.clone();
        resume_cfg.resume = true;
        let resumed = MetaHipMer::new(resume_cfg).assemble(
            &Team::single_node(ranks),
            &ds.library,
            Some(&ds.rrna_consensus),
        );
        let digest = scaffold_digest(&resumed.sequences());
        assert_eq!(
            digest, golden,
            "resume at {ranks} ranks diverged from the uninterrupted run"
        );
        let restore_seconds = resumed.stage_seconds("checkpoint_restore");
        assert!(
            restore_seconds > 0.0,
            "resume at {ranks} ranks did not restore from the checkpoint"
        );
        println!(
            "resume at {ranks} ranks (writer had {WRITER_RANKS}): restore {restore_seconds:.3}s, \
             total {:.2}s, digest {digest:016x} == baseline",
            resumed.total_seconds
        );
        rows.push(vec![
            ranks.to_string(),
            fmt(restore_seconds, 3),
            fmt(resumed.total_seconds, 2),
            "identical".to_string(),
        ]);
        resume_snapshots.push(format!(
            "    {{\"ranks\": {ranks}, \"restore_seconds\": {restore_seconds:.4}, \
             \"total_seconds\": {:.4}, \"scaffold_digest\": \"{digest:016x}\", \
             \"byte_identical\": true}}",
            resumed.total_seconds
        ));
    }
    print_table(
        "Ablation — checkpoint/restart with elastic resume",
        &["Resume ranks", "Restore (s)", "Total (s)", "Scaffolds"],
        &rows,
    );

    // ---- Snapshot for the fault-tolerance cost trajectory -------------------
    let snapshot = format!(
        "{{\n  \"bench\": \"ablation_checkpoint\",\n  \"dataset\": \"mg64_tiny\",\n  \
         \"writer_ranks\": {WRITER_RANKS},\n  \
         \"baseline_seconds\": {:.4},\n  \"checkpointed_seconds\": {:.4},\n  \
         \"write_seconds\": {write_seconds:.4},\n  \"write_overhead_frac\": {write_frac:.4},\n  \
         \"checkpoint_bytes\": {ckpt_bytes},\n  \
         \"barriers_at_commit\": {},\n  \
         \"fault\": {{\"rank\": {}, \"after_barriers\": {}}},\n  \
         \"scaffold_digest\": \"{golden:016x}\",\n  \"resumes\": [\n{}\n  ]\n}}\n",
        baseline.total_seconds,
        written.total_seconds,
        manifest.barriers_at_commit,
        fault.rank,
        manifest.barriers_at_commit + 16,
        resume_snapshots.join(",\n")
    );
    let path = "BENCH_checkpoint.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(snapshot.as_bytes())) {
        Ok(()) => println!("Wrote {path}"),
        Err(e) => eprintln!("Could not write {path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}

fn main() {
    // Exit non-zero even when a failure happens on a spawned rank thread
    // whose join result nobody inspects (see mhm_bench::harness_exit_code).
    mhm_bench::run_harness(run);
}

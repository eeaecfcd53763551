//! Shared experiment-harness utilities.
//!
//! Every table and figure of the paper's evaluation section has a matching
//! binary in `src/bin/` (see DESIGN.md §3 for the index); this library holds
//! the pieces they share: dataset construction, timed assembly runs over a
//! sweep of rank counts, and table formatting. Absolute numbers differ from
//! the paper (laptop-scale simulated data instead of Cori + SRA datasets); the
//! harnesses reproduce the *shape* of each result, and EXPERIMENTS.md records
//! the comparison.

use asm_metrics::{evaluate, AssemblyReport, EvalParams};
use baselines::Assembler;
use mgsim::SimDataset;
use mhm_core::AssemblyOutput;
use pgas::{Team, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Scale factor for harness runs, read from `MHM_SCALE` (1 = default small).
/// Larger values enlarge the simulated datasets proportionally.
pub fn scale() -> usize {
    std::env::var("MHM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Ranks per simulated node for harness runs, read from `MHM_RANKS_PER_NODE`
/// (0 = default = all ranks on one node, the historical harness behaviour).
pub fn ranks_per_node() -> usize {
    std::env::var("MHM_RANKS_PER_NODE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The topology for a harness run over `ranks` ranks, honouring
/// [`ranks_per_node`]: `0` keeps everything on one node, any other value
/// groups ranks that many to a node (the last node may be partial).
pub fn topology(ranks: usize) -> Topology {
    match ranks_per_node() {
        0 => Topology::single_node(ranks),
        rpn => Topology::new(ranks, rpn),
    }
}

/// A team over [`topology`], so every harness exercises the node structure
/// requested by the environment instead of hard-wiring a single node.
pub fn team(ranks: usize) -> Arc<Team> {
    Team::new(topology(ranks))
}

/// Rank counts to sweep for scaling experiments, bounded by the machine's
/// available parallelism.
pub fn rank_sweep(max: usize) -> Vec<usize> {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut out = Vec::new();
    let mut r = 1;
    while r <= max.min(hw.max(2)) {
        out.push(r);
        r *= 2;
    }
    out
}

/// One timed assembly run.
pub struct RunResult {
    pub assembler: String,
    pub ranks: usize,
    pub seconds: f64,
    pub output: AssemblyOutput,
    pub report: AssemblyReport,
}

/// Runs one assembler on one dataset with the given number of ranks and
/// evaluates the result against the dataset's references.
pub fn run_assembler(
    assembler: &dyn Assembler,
    dataset: &SimDataset,
    ranks: usize,
    eval: &EvalParams,
) -> RunResult {
    let team = team(ranks);
    let start = Instant::now();
    let output = assembler.assemble(&team, &dataset.library, Some(&dataset.rrna_consensus));
    let seconds = start.elapsed().as_secs_f64();
    let report = evaluate(&output.sequences(), &dataset.refs, eval);
    RunResult {
        assembler: assembler.name().to_string(),
        ranks,
        seconds,
        output,
        report,
    }
}

/// Evaluation parameters scaled to the simulated communities (thresholds are
/// ~10³ smaller than the paper's 5 k/25 k/50 k because the genomes are ~10³
/// smaller).
pub fn scaled_eval_params() -> EvalParams {
    EvalParams {
        min_block: 200,
        length_thresholds: vec![1_000, 2_500, 5_000],
        ..Default::default()
    }
}

/// Prints a Markdown-style table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// FNV-1a digest over the sorted scaffold sequences (each closed by a `0xFF`
/// separator): the compact fingerprint of byte-identity the harnesses
/// compare across runs and write into their JSON snapshots.
pub fn scaffold_digest(seqs: &[Vec<u8>]) -> u64 {
    let mut sorted: Vec<&Vec<u8>> = seqs.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sorted {
        for &b in s.iter().chain(&[0xFFu8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs a harness body and computes the exit code it earned: `0` when it
/// completed cleanly, `1` when it panicked **or** when any thread panicked
/// with an unclaimed payload while it ran. The second clause is the
/// important one: an assertion failing inside a spawned rank thread whose
/// `join()` result is discarded would otherwise print a backtrace and let
/// the process exit `0`, turning a red harness green in CI. The
/// process-global counter behind [`pgas::unexpected_panics`] is bumped by
/// the panic hook itself, so no join-result plumbing can mask it.
pub fn harness_exit_code(body: impl FnOnce()) -> i32 {
    pgas::install_panic_accounting();
    let masked_before = pgas::unexpected_panics();
    let direct_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err();
    let masked = pgas::unexpected_panics() - masked_before;
    if direct_panic {
        eprintln!("harness: FAILED (panic propagated to main)");
        1
    } else if masked > 0 {
        eprintln!("harness: FAILED ({masked} rank-thread panic(s) were not propagated to main)");
        1
    } else {
        0
    }
}

/// Entry point wrapper for the `ablation_*`/figure binaries: runs `body`
/// via [`harness_exit_code`] and exits with the earned code.
pub fn run_harness(body: impl FnOnce()) -> ! {
    std::process::exit(harness_exit_code(body))
}

/// Parallel efficiency of a timing series relative to its first entry.
pub fn efficiency(ranks: &[usize], seconds: &[f64]) -> Vec<f64> {
    assert_eq!(ranks.len(), seconds.len());
    if ranks.is_empty() {
        return Vec::new();
    }
    let (r0, t0) = (ranks[0] as f64, seconds[0]);
    ranks
        .iter()
        .zip(seconds)
        .map(|(&r, &t)| (t0 * r0) / (t * r as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_relative_to_first_point() {
        let e = efficiency(&[1, 2, 4], &[8.0, 4.0, 4.0]);
        assert!((e[0] - 1.0).abs() < 1e-12);
        assert!((e[1] - 1.0).abs() < 1e-12);
        assert!((e[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_sweep_is_powers_of_two() {
        let s = rank_sweep(8);
        assert!(!s.is_empty());
        assert_eq!(s[0], 1);
        for w in s.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn scaffold_digest_ignores_order_but_not_content_or_boundaries() {
        let (a, b) = (b"ACGT".to_vec(), b"GG".to_vec());
        // The empty set is the FNV offset basis.
        assert_eq!(scaffold_digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            scaffold_digest(&[a.clone(), b.clone()]),
            scaffold_digest(&[b.clone(), a.clone()])
        );
        assert_ne!(scaffold_digest(&[a.clone(), b]), scaffold_digest(&[a]));
        // Where one scaffold ends and the next begins is part of the digest.
        assert_ne!(
            scaffold_digest(&[b"ACGTGG".to_vec()]),
            scaffold_digest(&[b"ACGT".to_vec(), b"GG".to_vec()])
        );
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    /// The three cases run sequentially inside one test because the masked
    /// case bumps a process-global counter: interleaving them across test
    /// threads would let one case's panic land in another's delta window.
    #[test]
    fn harness_exit_code_propagates_masked_rank_thread_panics() {
        assert_eq!(harness_exit_code(|| {}), 0, "clean body must exit 0");

        // A worker panic whose join result is deliberately discarded — the
        // regression this guards against: the process used to exit 0 here.
        let masked = harness_exit_code(|| {
            let handle = std::thread::spawn(|| panic!("worker assertion failed"));
            let _ = handle.join();
        });
        assert_eq!(masked, 1, "masked rank-thread panic must exit 1");

        let direct = harness_exit_code(|| panic!("harness assertion failed"));
        assert_eq!(direct, 1, "direct panic must exit 1");
    }
}

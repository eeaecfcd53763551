//! Shared experiment-harness utilities.
//!
//! Every table and figure of the paper's evaluation section, and every
//! ablation guard, is one row of the experiment runner (`src/main.rs`; the
//! README's "Experiment harnesses" section lists them). This library holds
//! what the rows share: the dataset registry ([`datasets`]), one timed
//! assembly run and the digest-checked sweep over rank counts and variants,
//! snapshot writing and table formatting. Absolute numbers differ from the
//! paper (laptop-scale simulated data instead of Cori + SRA datasets); the
//! rows reproduce the *shape* of each result.

pub mod datasets;

use asm_metrics::EvalParams;
use datasets::Dataset;
use mhm_core::{AssemblyConfig, AssemblyOutput, MetaHipMer};
use pgas::StatsSnapshot;
use std::fmt::Debug;
use std::io::Write;

/// Scale factor for harness runs, read from `MHM_SCALE` (1 = default small).
/// Larger values enlarge the simulated datasets proportionally.
pub fn scale() -> usize {
    std::env::var("MHM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// The machine's available parallelism capped at `max` ranks.
pub fn ranks_up_to(max: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(max)
}

/// Rank counts to sweep for scaling experiments: powers of two up to `max`,
/// bounded by the machine's available parallelism (but always reaching 2).
pub fn rank_sweep(max: usize) -> Vec<usize> {
    let top = max.min(ranks_up_to(usize::MAX).max(2));
    std::iter::successors(Some(1), |r| Some(r * 2))
        .take_while(|&r| r <= top)
        .collect()
}

/// One assembly of a dataset.
pub struct Run {
    pub ranks: usize,
    pub output: AssemblyOutput,
    /// Each rank's communication counters over the whole run.
    pub per_rank: Vec<StatsSnapshot>,
    /// [`scaffold_digest`] of the output.
    pub digest: u64,
}

impl Run {
    /// The per-rank counters summed over the team.
    pub fn total(&self) -> StatsSnapshot {
        self.per_rank
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.add(s))
    }
}

/// Assembles `ds` once per `(ranks, variant)` point with the configuration
/// `setup(variant)` returns, keeping every run, and panics unless all of them
/// assembled byte-identical scaffolds. Prints the one assembly's evaluation.
pub fn sweep<V: Copy + Debug>(
    ds: &Dataset,
    points: impl IntoIterator<Item = (usize, V)>,
    setup: impl Fn(V) -> AssemblyConfig,
) -> Vec<(V, Run)> {
    let runs: Vec<(V, Run)> = points
        .into_iter()
        .map(|(ranks, variant)| (variant, ds.run(&MetaHipMer::new(setup(variant)), ranks)))
        .collect();
    let (first_variant, first) = &runs[0];
    for (variant, run) in &runs {
        assert_eq!(
            run.digest, first.digest,
            "scaffolds at {} ranks, {variant:?} differ from those at {} ranks, {first_variant:?}",
            run.ranks, first.ranks
        );
    }
    println!(
        "{}: digest {:016x} identical across all {} runs ({} scaffolds), {}",
        ds.name,
        first.digest,
        runs.len(),
        first.output.scaffolds.len(),
        ds.evaluate(&first.output).summary_line()
    );
    runs
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

/// One row of results: `(column, value)` pairs in column order. The same
/// record prints as a table row ([`print_table`]) and, where its values are
/// rendered JSON (text quoted), goes into a snapshot ([`json_records`]).
pub type Record = Vec<(&'static str, String)>;

/// Writes a `BENCH_*.json` snapshot: `bench` (the row), the `dataset`'s
/// registry name (or what else the row ran on), then `fields` in order. A
/// write failure is reported, not fatal.
pub fn write_snapshot(path: &str, bench: &str, dataset: &str, fields: Record) {
    let mut json = format!("{{\n  \"bench\": \"{bench}\",\n  \"dataset\": \"{dataset}\"");
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("Wrote {path}"),
        Err(e) => eprintln!("Could not write {path}: {e}"),
    }
}

/// Records as a JSON array of objects, one per line, indented to sit inside
/// a [`write_snapshot`] field.
pub fn json_records(records: &[Record]) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|record| {
            let fields: Vec<String> = record
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    format!("[\n{}\n  ]", lines.join(",\n"))
}

/// Prints records as a Markdown table headed by their columns, JSON quotes
/// stripped.
pub fn print_table(title: &str, records: &[Record]) {
    println!("\n## {title}\n");
    let Some(first) = records.first() else {
        return;
    };
    let header: Vec<&str> = first.iter().map(|(column, _)| *column).collect();
    println!("| {} |", header.join(" | "));
    println!("|{}|", vec!["---"; header.len()].join("|"));
    for record in records {
        let cells: Vec<&str> = record.iter().map(|(_, v)| v.trim_matches('"')).collect();
        println!("| {} |", cells.join(" | "));
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

    #[test]
    fn records_render_as_json_objects_in_column_order() {
        let records = vec![
            vec![("ranks", "1".to_string()), ("digest", "\"ab\"".to_string())],
            vec![("ranks", "2".to_string()), ("digest", "\"cd\"".to_string())],
        ];
        assert_eq!(
            json_records(&records),
            "[\n    {\"ranks\": 1, \"digest\": \"ab\"},\n    {\"ranks\": 2, \"digest\": \"cd\"}\n  ]"
        );
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

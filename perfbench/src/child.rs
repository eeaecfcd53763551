//! One repetition: what a single fresh process does and reports.
//!
//! A repetition of the timed run is one user job: set the input up, assemble
//! it once on [`TIMED_RANKS`], look at the result. A repetition of the traced
//! run assembles the same input three ways (plain on `TIMED_RANKS`, plain on
//! [`TRACED_RANKS`], staged with spans on `TRACED_RANKS`) and probes the
//! layers underneath. Either way the process prints a
//! [`Report`] and the parent folds the reports of all repetitions together.

use crate::probes;
use crate::staged;
use crate::trace;
use crate::workloads::{digest_sequences, Dataset, Workload, TIMED_RANKS, TRACED_RANKS};
use asm_metrics::EvalParams;
use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which repetition to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end metrics.
    Timed,
    /// The staged driver with spans, plus probes: the per-layer metrics.
    Traced,
}

impl Mode {
    /// Ranks of the team this mode's metrics are measured on.
    pub fn ranks(self) -> usize {
        match self {
            Mode::Timed => TIMED_RANKS,
            Mode::Traced => TRACED_RANKS,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// What one repetition measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub input_digest: u64,
    /// Digest of the scaffolds `try_assemble` produced (absent if it failed).
    pub scaffold_digest: Option<u64>,
    /// Ops attempted: each `try_assemble`, staged run and probe is one.
    pub attempted: u64,
    /// One line per failed op or failed output check.
    pub failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// The line protocol between a repetition's process and the parent.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "metric {name} {value:e}");
        }
        let _ = writeln!(out, "input_digest {:016x}", self.input_digest);
        if let Some(d) = self.scaffold_digest {
            let _ = writeln!(out, "scaffold_digest {d:016x}");
        }
        let _ = writeln!(out, "attempted {}", self.attempted);
        for f in &self.failures {
            let _ = writeln!(out, "failure {}", f.replace('\n', " "));
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parses [`Report::to_lines`]; a report without its `end` line (the
    /// process died half way) is an error.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut ended = false;
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("bad digest {s}: {e}"));
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "metric" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad metric line: {line}"))?;
                    let value: f64 = value
                        .parse()
                        .map_err(|e| format!("bad metric value in {line}: {e}"))?;
                    report.metric(name, value);
                }
                "input_digest" => report.input_digest = hex(rest)?,
                "scaffold_digest" => report.scaffold_digest = Some(hex(rest)?),
                "attempted" => {
                    report.attempted = rest
                        .parse()
                        .map_err(|e| format!("bad attempted count {rest}: {e}"))?;
                }
                "failure" => report.failures.push(rest.to_string()),
                "end" => ended = true,
                _ => {} // the repetition's human-readable chatter
            }
        }
        if ended {
            Ok(report)
        } else {
            Err("report is truncated (no `end` line)".to_string())
        }
    }
}

/// Runs one repetition in this process.
pub fn run(workload: &Workload, seed: u64, mode: Mode, trace_out: Option<&Path>) -> Report {
    pgas::install_panic_accounting();
    let setup_start = Instant::now();
    let dataset = workload.build(seed);
    let team = Team::single_node(mode.ranks());
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut report = Report {
        input_digest: dataset.input_digest,
        ..Report::default()
    };
    let reference = match mode {
        Mode::Timed => {
            report.metric("setup_s", setup_s);
            let reference = assemble(&mut report, &team, &dataset);
            if let Some(a) = &reference {
                report.metric("wall_s", a.wall_s);
                report.metric("bases_per_s", dataset.input_bases() as f64 / a.wall_s);
                report.metric("cpu_s", a.cpu_s);
                match peak_rss_mb() {
                    Ok(mb) => report.metric("peak_rss_mb", mb),
                    Err(e) => report.failures.push(format!("peak_rss_mb: {e}")),
                }
            }
            reference
        }
        Mode::Traced => traced(&mut report, &dataset, &team, trace_out),
    };
    if let Some(a) = &reference {
        report.scaffold_digest = Some(a.digest);
        quality(&mut report, workload, &dataset, &a.sequences);
    }
    report
}

/// A finished `try_assemble`.
struct Assembled {
    sequences: Vec<Vec<u8>>,
    digest: u64,
    wall_s: f64,
    cpu_s: f64,
}

/// One op: `MetaHipMer::try_assemble` on `team`, timed from outside. A rank
/// fault, a panic, or a panic swallowed on a rank thread fails the op.
fn assemble(report: &mut Report, team: &Arc<Team>, dataset: &Dataset) -> Option<Assembled> {
    report.attempted += 1;
    let assembler = MetaHipMer::new(AssemblyConfig::default());
    let panics_before = pgas::unexpected_panics();
    let cpu_before = cpu_seconds();
    let start = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assembler.try_assemble(team, &dataset.library, Some(&dataset.rrna_consensus))
    }));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_after = cpu_seconds();
    let what = format!("try_assemble at {} rank(s)", team.ranks());
    let output = match outcome {
        Ok(Ok(output)) => output,
        Ok(Err(fault)) => {
            report.failures.push(format!("{what}: rank fault: {fault}"));
            return None;
        }
        Err(_) => {
            report.failures.push(format!("{what}: panicked"));
            return None;
        }
    };
    if pgas::unexpected_panics() != panics_before {
        report
            .failures
            .push(format!("{what}: a rank thread panicked unseen"));
        return None;
    }
    let cpu_s = match (cpu_before, cpu_after) {
        (Ok(before), Ok(after)) => after - before,
        (Err(e), _) | (_, Err(e)) => {
            report.failures.push(format!("cpu_s: {e}"));
            f64::NAN
        }
    };
    let sequences = output.sequences();
    Some(Assembled {
        digest: digest_sequences(&sequences),
        sequences,
        wall_s,
        cpu_s,
    })
}

/// Evaluates the assembly against the generating references and holds it to
/// the workload's quality floor.
fn quality(report: &mut Report, workload: &Workload, dataset: &Dataset, sequences: &[Vec<u8>]) {
    // Thresholds ~10^3 smaller than the paper's 5k/25k/50k, as the genomes are.
    let params = EvalParams {
        min_block: 200,
        length_thresholds: vec![1_000, 2_500, 5_000],
        ..Default::default()
    };
    let eval = asm_metrics::evaluate(sequences, &dataset.refs, &params);
    let genome_fraction_pct = 100.0 * eval.genome_fraction;
    report.metric("asm_metrics.genome_fraction_pct", genome_fraction_pct);
    report.metric("asm_metrics.misassemblies", eval.misassemblies as f64);
    report.metric("asm_metrics.nga50_mean", eval.mean_nga50());
    if genome_fraction_pct < workload.genome_fraction_floor_pct {
        report.failures.push(format!(
            "genome fraction {genome_fraction_pct:.2}% is under the floor of {:.2}%",
            workload.genome_fraction_floor_pct
        ));
    }
    if eval.misassemblies as u64 > workload.misassemblies_ceiling {
        report.failures.push(format!(
            "{} misassemblies are over the ceiling of {}",
            eval.misassemblies, workload.misassemblies_ceiling
        ));
    }
}

/// A traced repetition: the same input assembled plainly on `TIMED_RANKS`,
/// plainly on `team` (`TRACED_RANKS`), and by the staged driver, then the
/// probes. Returns the plain run on `team`.
fn traced(
    report: &mut Report,
    dataset: &Dataset,
    team: &Arc<Team>,
    trace_out: Option<&Path>,
) -> Option<Assembled> {
    let cfg = AssemblyConfig::default();
    let ranks = team.ranks();

    // The timed run's rank count goes first, so that the process's cold start
    // (first touch of every page) falls on neither side of the traced/plain
    // pair.
    let timed = assemble(report, &Team::single_node(TIMED_RANKS), dataset);
    let reference = assemble(report, team, dataset)?;

    // The scaffolds must not depend on the rank count, and the pair of times
    // is the strong-scaling efficiency between the two rank counts.
    if let Some(timed) = &timed {
        if timed.digest != reference.digest {
            report.failures.push(format!(
                "scaffolds depend on the rank count: digest {:016x} at {TIMED_RANKS} rank(s), \
                 {:016x} at {ranks}",
                timed.digest, reference.digest
            ));
        }
        report.metric(
            "core.strong_scaling_eff",
            (TIMED_RANKS as f64 * timed.wall_s) / (ranks as f64 * reference.wall_s),
        );
    }

    // The staged run: same input, fresh team, spans around every layer call.
    report.attempted += 1;
    let staged_team = Team::single_node(ranks);
    let panics_before = pgas::unexpected_panics();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        staged::run(
            &staged_team,
            &cfg,
            &dataset.library,
            Some(&dataset.rrna_consensus),
        )
    }));
    match outcome {
        Ok(Ok(run)) if pgas::unexpected_panics() == panics_before => {
            let digest = digest_sequences(&run.scaffolds.sequences());
            if digest != reference.digest {
                report.failures.push(format!(
                    "staged driver is not the real pipeline: scaffold digest {digest:016x} != \
                     try_assemble's {:016x}",
                    reference.digest
                ));
            }
            staged_metrics(report, &run, &staged_team, reference.wall_s);
            if let Some(path) = trace_out {
                if let Err(e) = std::fs::write(path, trace::chrome_json(&run.spans)) {
                    report
                        .failures
                        .push(format!("writing trace to {}: {e}", path.display()));
                }
            }
        }
        Ok(Ok(_)) => report
            .failures
            .push("staged run: a rank thread panicked unseen".to_string()),
        Ok(Err(fault)) => report
            .failures
            .push(format!("staged run: rank fault: {fault}")),
        Err(_) => report.failures.push("staged run: panicked".to_string()),
    }

    for (metric, outcome) in probes::run_all(&dataset.library, ranks) {
        report.attempted += 1;
        match outcome {
            Ok(value) => report.metric(metric, value),
            Err(e) => report.failures.push(format!("probe {metric}: {e}")),
        }
    }
    Some(reference)
}

/// Per-layer metrics of one staged run.
fn staged_metrics(
    report: &mut Report,
    run: &staged::StagedRun,
    team: &Team,
    reference_wall_s: f64,
) {
    let mut stage_sum_s = 0.0;
    let mut wait_sum_s = 0.0;
    for span in crate::metrics::SPANS {
        let t = trace::totals(&run.spans, span);
        report.metric(&format!("{span}.busy_s"), t.busy_s);
        report.metric(&format!("{span}.wait_s"), t.wait_s);
        report.metric(&format!("{span}.bytes"), t.bytes as f64);
        report.metric(&format!("{span}.msgs"), t.msgs as f64);
        stage_sum_s += t.busy_s;
        wait_sum_s += t.wait_s;
    }
    report.metric("core.stage_sum_s", stage_sum_s);
    report.metric(
        "core.trace_overhead_pct",
        100.0 * (run.wall_s - reference_wall_s) / reference_wall_s,
    );
    report.metric("core.wait_share_pct", 100.0 * wait_sum_s / run.wall_s);

    let work: Vec<f64> = run.local_assembly_work.iter().map(|&w| w as f64).collect();
    report.metric(
        "core.local_assembly_imbalance",
        1.0 / pgas::stats::load_balance_ratio(&work),
    );

    // Peaks are read per rank and reduced with max here, which is what the
    // counters mean (`StageTimings::reduce` sums them).
    let per_rank = team.stats_per_rank();
    let peak = |f: fn(&pgas::StatsSnapshot) -> u64| per_rank.iter().map(f).max().unwrap_or(0);
    report.metric(
        "core.read_resident_peak_bytes",
        peak(|s| s.read_bytes_resident) as f64,
    );
    report.metric(
        "core.contig_resident_peak_bytes",
        peak(|s| s.contig_bytes_resident) as f64,
    );
    let total = team.stats_total();
    report.metric("dht.cache_hit_pct", 100.0 * total.cache_hit_rate());
    report.metric("pgas.steals", total.steals as f64);
}

/// Linux reports process times in ticks of `USER_HZ`, which is 100 on every
/// architecture Linux supports (it is ABI, unlike the kernel's own `HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all its threads, living and
/// joined) has used, from `/proc/self/stat`.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after its ')'.
    let after_comm = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("no command field in /proc/self/stat")?;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) of the whole line are 11 and 12 here.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("field {} of /proc/self/stat is not a tick count", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_line_protocol() {
        let report = Report {
            metrics: vec![
                ("wall_s".to_string(), 1.234_567_890_123),
                ("x.bytes".to_string(), 1.0e12),
            ],
            input_digest: 0xdead_beef,
            scaffold_digest: Some(7),
            attempted: 19,
            failures: vec!["probe x: panicked".to_string()],
        };
        let text = format!("some chatter\n{}", report.to_lines());
        assert_eq!(Report::parse(&text), Ok(report.clone()));
        let cut = &text[..text.len() - "end\n".len()];
        assert!(Report::parse(cut).is_err());
        assert!(Report::parse("metric wall_s fast\nend\n").is_err());
    }

    #[test]
    fn process_accounting_is_readable_and_moves() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds().unwrap() > before);
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}

//! `perf`: the repo's performance ledger (see README.md beside this crate).
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (BENCHMARK.json's contract)
//! perf [--seed N] [--seconds S]                        every workload, timed then traced, as a report
//! perf --selfcheck                                     the timed suite twice; B must be within bounds of A
//! perf --quick                                         tiny inputs, one repetition, in-process: a smoke test
//! ```
//!
//! A run is a closed loop of repetitions, one at a time, each a fresh child
//! process (`perf --child ...`) as a user's batch job is; the parent only
//! waits, so the load is the assembly's ranks and nothing else: one rank in a
//! timed run, two in a traced run (`workloads::TIMED_RANKS`, `TRACED_RANKS`).

mod child;
mod metrics;
mod probes;
mod staged;
mod stats;
mod trace;
mod workloads;

use child::{Mode, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Workload, COMMUNITY_SEED, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, for runs that do not pass `--seconds`.
const DEFAULT_SECONDS: f64 = 36.0;
/// A timed run never reports a median of fewer repetitions than this.
const MIN_TIMED_REPS: usize = 3;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    selfcheck: bool,
    quick: bool,
    child: Option<Mode>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--selfcheck" => args.selfcheck = true,
            "--quick" => args.quick = true,
            "--child" => {
                let v = value()?;
                args.child =
                    Some(Mode::parse(&v).ok_or_else(|| format!("--child {v}: unknown mode"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(COMMUNITY_SEED);
    let workload = match args.workload.as_deref().map(|n| (n, workloads::find(n))) {
        None => None,
        Some((_, Some(w))) => Some(w),
        Some((name, None)) => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("perf: unknown workload {name}; known: {}", known.join(", "));
            return ExitCode::from(2);
        }
    };

    if let Some(mode) = args.child {
        let Some(workload) = workload else {
            eprintln!("perf: --child needs --workload");
            return ExitCode::from(2);
        };
        let report = child::run(workload, seed, mode, args.trace_out.as_deref());
        print!("{}", report.to_lines());
        return ExitCode::SUCCESS;
    }

    if !args.quick {
        // Numbers taken with the kernels pinned to their scalar twins or with
        // the conformance checker recording every collective are numbers of a
        // different program.
        for var in ["MHM_FORCE_SCALAR", "MHM_CONFORMANCE"] {
            if std::env::var_os(var).is_some() {
                eprintln!("perf: refusing to time with {var} set");
                return ExitCode::from(2);
            }
        }
    }
    let plan = Plan {
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        quick: args.quick,
    };
    print_header(&plan);

    match workload {
        Some(workload) => {
            // The contract of BENCHMARK.json: one workload, one mode, and the
            // result as one JSON object on the last line. A failed check is
            // reported in that object, not in the exit code.
            let mode = if args.trace {
                Mode::Traced
            } else {
                Mode::Timed
            };
            let m = measure(workload, &plan, mode, args.trace_out.as_deref());
            m.print();
            println!("{}", m.result_json(mode));
            ExitCode::SUCCESS
        }
        None if args.selfcheck => exit_code(selfcheck(&plan)),
        None => exit_code(suite(&plan, args.trace_out.as_deref())),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What every run of one invocation shares.
struct Plan {
    seed: u64,
    /// How long one run of one workload in one mode measures.
    seconds: f64,
    quick: bool,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_header(plan: &Plan) {
    println!(
        "perf: host nproc {}, simd {}, config fingerprint {:016x}, seed {}, {} s per run{}",
        nproc(),
        mhm_simd::level().name(),
        mhm_core::AssemblyConfig::default().fingerprint(),
        plan.seed,
        plan.seconds,
        if plan.quick {
            ", QUICK (tiny inputs: not a measurement)"
        } else {
            ""
        },
    );
}

/// All repetitions of one workload in one mode.
struct Measurement {
    workload: &'static Workload,
    reports: Vec<Report>,
    attempted: u64,
    failures: Vec<String>,
}

/// Runs repetitions of `workload`, one at a time, until `plan.seconds` are
/// used: a further repetition starts only while at least half of it is
/// expected to fit. Repetitions that assembled the same reads must agree on
/// the scaffolds.
fn measure(
    workload: &'static Workload,
    plan: &Plan,
    mode: Mode,
    trace_out: Option<&std::path::Path>,
) -> Measurement {
    println!(
        "\n== {} ({}, {} rank(s){}) ==\n   {}",
        workload.name,
        mode.name(),
        mode.ranks(),
        if mode.ranks() > nproc() {
            ", OVERSUBSCRIBED: its times measure the scheduler"
        } else {
            ""
        },
        workload.why
    );
    let min_reps = match (plan.quick, mode) {
        (true, _) | (false, Mode::Traced) => 1,
        (false, Mode::Timed) => MIN_TIMED_REPS as u64,
    };
    let mut m = Measurement {
        workload,
        reports: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    let mut died_in_a_row = 0;
    for rep in 1u64.. {
        let rep_start = Instant::now();
        // Only the first repetition writes the trace file.
        let out = trace_out.filter(|_| rep == 1);
        let seed = input_seed(plan.seed, mode, rep);
        let outcome = if plan.quick {
            Ok(child::run(&workload.quick(), seed, mode, out))
        } else {
            spawn_child(workload, seed, mode, out)
        };
        match outcome {
            Ok(report) => {
                m.attempted += report.attempted;
                m.failures.extend(report.failures.iter().cloned());
                m.reports.push(report);
                died_in_a_row = 0;
            }
            Err(e) => {
                m.attempted += 1;
                m.failures.push(format!("repetition did not report: {e}"));
                died_in_a_row += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let last = rep_start.elapsed().as_secs_f64();
        let time_is_up = rep >= min_reps && elapsed + 0.5 * last >= plan.seconds;
        // A program that cannot run is not going to start running.
        if plan.quick || time_is_up || died_in_a_row == 3 {
            break;
        }
    }
    m.failures
        .extend(same_input_different_scaffolds(&m.reports));
    m
}

/// The seed of the reads repetition `rep` (1-based) assembles.
///
/// The work in an assembly moves by several percent with the draw of the
/// reads alone. A timed run therefore gives every repetition its own draw,
/// `seed + (rep - 1) * 1_000_003`, so that its medians are medians over
/// inputs as well as over the host's noise, and two runs with different
/// seeds differ by less than either draw would. A traced run assembles the
/// `seed` draw in every repetition, and there the scaffolds of all
/// repetitions must agree.
fn input_seed(seed: u64, mode: Mode, rep: u64) -> u64 {
    match mode {
        Mode::Timed => seed.wrapping_add((rep - 1).wrapping_mul(1_000_003)),
        Mode::Traced => seed,
    }
}

/// What a run reports for a metric, from the values its repetitions measured:
/// their median, except that a run's peak memory is that of its hungriest
/// repetition. (An assembly of `skewed2` peaks at either ~96 or ~155 MB,
/// depending on the draw of the reads, so the median over a handful of draws
/// jumps between the two and the maximum does not.)
fn over_repetitions(name: &str, values: &[f64]) -> f64 {
    if name == "peak_rss_mb" {
        values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        stats::median(values)
    }
}

/// One failure line per pair of reports that assembled the same reads into
/// different scaffolds.
fn same_input_different_scaffolds<'a>(
    reports: impl IntoIterator<Item = &'a Report>,
) -> Vec<String> {
    let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
    let mut failures = Vec::new();
    for report in reports {
        let Some(scaffolds) = report.scaffold_digest else {
            continue;
        };
        let first = *seen.entry(report.input_digest).or_insert(scaffolds);
        if first != scaffolds {
            failures.push(format!(
                "the same reads ({:016x}) assembled into different scaffolds: {first:016x} and \
                 {scaffolds:016x}",
                report.input_digest
            ));
        }
    }
    failures
}

/// Runs one repetition as a fresh process of this executable.
fn spawn_child(
    workload: &Workload,
    seed: u64,
    mode: Mode,
    trace_out: Option<&std::path::Path>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode.name(), "--workload", workload.name])
        .args(["--seed", &seed.to_string()]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    // `output` waits for the child to end and collects what it printed.
    let output = cmd.output().map_err(|e| format!("spawning: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Report::parse(&String::from_utf8_lossy(&output.stdout))
}

impl Measurement {
    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Every value a metric took, one per repetition that measured it.
    fn samples(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for report in &self.reports {
            for (name, value) in &report.metrics {
                out.entry(name).or_default().push(*value);
            }
        }
        out
    }

    /// What the run reports for `name`, if any repetition measured it.
    fn value(&self, name: &str) -> Option<f64> {
        self.samples().get(name).map(|v| over_repetitions(name, v))
    }

    /// Every metric by name, with unit, value, quartiles and sample count.
    fn print(&self) {
        for (rep, r) in self.reports.iter().enumerate() {
            println!(
                "rep {}: input_digest {:016x}  scaffold_digest {}",
                rep + 1,
                r.input_digest,
                r.scaffold_digest
                    .map_or("-".to_string(), |d| format!("{d:016x}"))
            );
        }
        println!(
            "{:<40} {:>10} {:>14} {:>14} {:>14} {:>8} {:>3}",
            "metric", "unit", "value", "q1", "q3", "spread", "n"
        );
        let samples = self.samples();
        let known = metrics::end_to_end()
            .into_iter()
            .chain(metrics::per_layer());
        for (name, unit) in known {
            let Some(values) = samples.get(name.as_str()) else {
                continue;
            };
            let (q1, q3) = stats::quartiles(values);
            println!(
                "{:<40} {:>10} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>3}",
                name,
                unit,
                over_repetitions(&name, values),
                q1,
                q3,
                100.0 * stats::iqr_spread(values),
                values.len()
            );
        }
        let fail_pct = 100.0 * self.failed() as f64 / self.attempted.max(1) as f64;
        println!(
            "ops attempted {}, failed {}, fail_pct {fail_pct:.2} %",
            self.attempted,
            self.failed()
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }

    /// The result object of `BENCHMARK.json`'s contract: the run's value of
    /// every end-to-end metric (timed) or every per-layer metric (traced).
    fn result_json(&self, mode: Mode) -> String {
        let names = match mode {
            Mode::Timed => metrics::end_to_end(),
            Mode::Traced => metrics::per_layer(),
        };
        let samples = self.samples();
        let mut missing = 0;
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = samples
                    .get(name.as_str())
                    .map(|v| over_repetitions(name, v));
                let value = match value {
                    Some(v) if v.is_finite() => v.to_string(),
                    _ => {
                        missing += 1;
                        "null".to_string()
                    }
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && missing == 0,
            self.attempted.max(1),
            self.failed(),
            body.join(", ")
        )
    }
}

/// Every workload, timed then traced, as a report. Returns whether every op
/// and every output check passed.
fn suite(plan: &Plan, trace_out: Option<&std::path::Path>) -> bool {
    let mut ok = true;
    for workload in &WORKLOADS {
        let t = measure(workload, plan, Mode::Timed, None);
        t.print();
        // One trace file per workload: `out.json` -> `out.<workload>.json`.
        let out = trace_out.map(|p| p.with_extension(format!("{}.json", workload.name)));
        let l = measure(workload, plan, Mode::Traced, out.as_deref());
        l.print();
        ok &= t.failures.is_empty() && l.failures.is_empty();
    }
    println!(
        "\nperf: {}",
        if ok { "all checks passed" } else { "FAILED" }
    );
    ok
}

/// A/A: the timed suite twice on the same code. Every end-to-end metric of
/// set B must be within its bound of set A on every workload. (The per-layer
/// metrics carry no bounds, so the traced runs are not repeated here.)
fn selfcheck(plan: &Plan) -> bool {
    let sets: Vec<Vec<Measurement>> = (0..2)
        .map(|_| {
            WORKLOADS
                .iter()
                .map(|w| {
                    let m = measure(w, plan, Mode::Timed, None);
                    m.print();
                    m
                })
                .collect()
        })
        .collect();
    let mut ok = true;
    println!("\n== selfcheck: set B against set A ==");
    println!(
        "{:<14} {:<14} {:<7} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "better", "A", "B", "worse by", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        ok &= a.failures.is_empty() && b.failures.is_empty();
        for metric in &metrics::END_TO_END {
            let (Some(va), Some(vb)) = (a.value(metric.name), b.value(metric.name)) else {
                println!("{:<14} {:<14} missing", a.workload.name, metric.name);
                ok = false;
                continue;
            };
            let worse = stats::worsening(va, vb, metric.better);
            let verdict = if stats::within_bound(va, vb, metric.better, metric.bound) {
                "ok"
            } else {
                ok = false;
                "OUT OF BOUND"
            };
            println!(
                "{:<14} {:<14} {:<7} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {verdict}",
                a.workload.name,
                metric.name,
                metric.better.name(),
                va,
                vb,
                100.0 * worse,
                100.0 * metric.bound
            );
        }
    }
    println!("\nperf selfcheck: {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan {
            seed: 11,
            seconds: 1.0,
            quick: true,
        }
    }

    /// The whole harness on tiny inputs, in-process: dataset registry, timed
    /// repetition, staged driver against the real pipeline, rank-count
    /// invariance, all probes, trace export and the result writer.
    #[test]
    fn quick_mode_covers_every_path_and_every_metric() {
        let workload = workloads::find("wetlands").expect("registered");
        let timed = measure(workload, &plan(), Mode::Timed, None);
        assert_eq!(timed.failures, Vec::<String>::new());
        let json = timed.result_json(Mode::Timed);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for m in &metrics::END_TO_END {
            assert!(timed.value(m.name).is_some_and(|v| v > 0.0), "{}", m.name);
        }

        let dir = std::env::temp_dir().join(format!("perf-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let traced = measure(workload, &plan(), Mode::Traced, Some(&trace_path));
        assert_eq!(traced.failures, Vec::<String>::new());
        // try_assemble on 1 rank and on 2 + staged run + 16 probes.
        assert_eq!(traced.attempted, 19);
        for (name, _) in metrics::per_layer() {
            assert!(traced.value(&name).is_some(), "{name} not measured");
        }
        let json = traced.result_json(Mode::Traced);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 19, \"failed\": 0,"));
        assert!(!json.contains("null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The spans account for the run they wrap.
        let sum = traced.value("core.stage_sum_s").unwrap();
        assert!(sum > 0.0 && traced.value("dbg.kmer_analysis.busy_s").unwrap() < sum);
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"name\": \"scaffolding.gap_closing\""));
        assert_eq!(
            trace.matches("\"thread_name\"").count(),
            workloads::TRACED_RANKS
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_repetition_that_dies_is_a_failed_op() {
        let mut m = Measurement {
            workload: &WORKLOADS[0],
            reports: Vec::new(),
            attempted: 1,
            failures: vec!["repetition did not report: signal 9".to_string()],
        };
        let json = m.result_json(Mode::Timed);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
        assert!(json.contains("\"wall_s\": {\"value\": null, \"unit\": \"s\"}"));
        // And a run that measured everything but failed a check is not correct.
        m.reports.push(Report {
            metrics: metrics::END_TO_END
                .iter()
                .map(|e| (e.name.to_string(), 1.5))
                .collect(),
            ..Report::default()
        });
        let json = m.result_json(Mode::Timed);
        assert!(json.starts_with("{\"correct\": false,"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_run_reports_medians_and_the_largest_peak() {
        let values = [96.0, 155.0, 97.0, 95.0, 99.0];
        assert_eq!(over_repetitions("peak_rss_mb", &values), 155.0);
        assert_eq!(over_repetitions("wall_s", &values), 97.0);
    }

    #[test]
    fn arguments_of_the_contract_parse() {
        let argv = "perf --workload skewed2 --seed 7 --seconds 12 --trace 1";
        let args = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(args.workload.as_deref(), Some("skewed2"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(12.0), true)
        );
        for bad in [
            "perf --trace 2",
            "perf --seconds 0",
            "perf --seed",
            "perf --nope",
        ] {
            assert!(
                parse_args(bad.split(' ').map(String::from)).is_err(),
                "{bad}"
            );
        }
    }
}

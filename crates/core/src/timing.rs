//! Per-stage wall-clock and communication accounting.

use pgas::{Ctx, Reduction, StatsSnapshot};
use std::time::Instant;

/// Accumulates per-stage wall-clock seconds and communication statistics for
/// one rank. The pipeline reduces these across ranks at the end (max for
/// time — the slowest rank defines the stage — sum for communication counts,
/// max for the two running-peak gauges; see [`StageTimings::reduce`]).
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    stages: Vec<(String, f64, StatsSnapshot)>,
}

impl StageTimings {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, attributing its wall-clock and communication delta to `stage`
    /// (accumulating if the stage was already recorded).
    pub fn time<R>(&mut self, ctx: &Ctx, stage: &str, f: impl FnOnce() -> R) -> R {
        let before_stats = ctx.stats().snapshot();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let delta = ctx.stats().snapshot().delta_from(&before_stats);
        match self.stages.iter_mut().find(|(name, _, _)| name == stage) {
            Some((_, t, s)) => {
                *t += secs;
                *s = s.add(&delta);
            }
            None => self.stages.push((stage.to_string(), secs, delta)),
        }
        out
    }

    /// Collective: reduces the per-rank timings into `(stage, seconds,
    /// stats)` rows, identical on every rank. Stage sets must match across
    /// ranks (they do: the pipeline is SPMD). Per field:
    ///
    /// * seconds — **max**: the slowest rank defines the stage;
    /// * counters declared [`Reduction::Max`] (`contig_bytes_resident`,
    ///   `read_bytes_resident`) — **max**: each is a per-rank running peak (a
    ///   stage's delta is how far that rank's peak rose during it), and
    ///   memory is provisioned per rank, so the row holds the largest rise on
    ///   any rank;
    /// * counters declared [`Reduction::Sum`] (all others) — **sum**: events
    ///   and bytes, counted once on the rank that caused them.
    pub fn reduce(&self, ctx: &Ctx) -> Vec<(String, f64, StatsSnapshot)> {
        let mut out = Vec::with_capacity(self.stages.len());
        for (name, secs, stats) in &self.stages {
            let max_secs = ctx.allreduce_max_f64(*secs);
            let reduced = stats.map_counters(|kind, v| match kind {
                Reduction::Sum => ctx.allreduce_sum_u64(v),
                Reduction::Max => ctx.allreduce_max_u64(v),
            });
            out.push((name.clone(), max_secs, reduced));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::{Counter, Team};

    #[test]
    fn time_accumulates_per_stage() {
        let team = Team::single_node(2);
        let rows = team.run(|ctx| {
            let mut t = StageTimings::new();
            let x = t.time(ctx, "a", || 21 + 21);
            assert_eq!(x, 42);
            t.time(ctx, "a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.time(ctx, "b", || ());
            t.reduce(ctx)
        });
        for r in &rows {
            let names: Vec<&str> = r.iter().map(|(n, _, _)| n.as_str()).collect();
            assert_eq!(names, ["a", "b"], "a repeated stage accumulates in place");
            assert!(r[0].1 >= 0.005, "stage a holds both calls' seconds");
        }
    }

    #[test]
    fn reduce_takes_max_time_sums_counts_and_maxes_peaks() {
        let team = Team::single_node(2);
        let reduced = team.run(|ctx| {
            let mut t = StageTimings::new();
            t.time(ctx, "phase", || {
                if ctx.rank() == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                // One remote-ish access per rank.
                ctx.record_access((ctx.rank() + 1) % ctx.ranks());
                // Each rank's resident peak rises by a different amount.
                ctx.record(
                    Counter::contig_bytes_resident,
                    1000 * (ctx.rank() as u64 + 1),
                );
                ctx.record(Counter::read_bytes_resident, 700 - 200 * ctx.rank() as u64);
            });
            t.reduce(ctx)
        });
        for r in &reduced {
            assert_eq!(r.len(), 1);
            let (name, secs, stats) = &r[0];
            assert_eq!(name, "phase");
            assert!(*secs >= 0.02, "max across ranks should include the sleep");
            assert_eq!(stats.local_ops + stats.remote_ops, 2);
            assert_eq!(
                stats.contig_bytes_resident, 2000,
                "peak of rank 1, not 3000"
            );
            assert_eq!(stats.read_bytes_resident, 700, "peak of rank 0, not 1200");
        }
    }
}

//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Everything is kept in memory (one `Vec` per rank thread, no locks) and
//! turned into metrics or written out only after the traced run has ended.

use pgas::Ctx;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A group (the whole run, one k-iteration): no metrics of its own.
    Group,
    /// One call into a layer, followed by a driver-inserted barrier.
    Call,
}

/// One span on one rank (spans are kept in one list per rank). Times are
/// nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    /// Index of this span on its rank, in opening order. The pipeline is
    /// SPMD, so span `id` on every rank is the same call.
    pub id: usize,
    /// The enclosing span on the same rank.
    pub parent: Option<usize>,
    /// The k-iteration the span belongs to, when inside one.
    pub k_iteration: Option<usize>,
    pub start_ns: u64,
    /// When the wrapped call returned.
    pub end_ns: u64,
    /// When the barrier after the call released this rank (`end_ns` for
    /// groups): `wait_end_ns - end_ns` is the end-of-stage skew this rank sat
    /// out.
    pub wait_end_ns: u64,
    /// `bytes_sent` / `msgs_sent` of this rank inside the call.
    pub bytes: u64,
    pub msgs: u64,
}

/// Per-rank span recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open group spans, innermost last.
    stack: Vec<usize>,
    k_iteration: Option<usize>,
}

impl Recorder {
    /// All ranks of a run share `epoch`, so their tracks line up.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            k_iteration: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, kind: Kind) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            kind,
            id,
            parent: self.stack.last().copied(),
            k_iteration: self.k_iteration,
            start_ns: now,
            end_ns: now,
            wait_end_ns: now,
            bytes: 0,
            msgs: 0,
        });
        id
    }

    /// Runs `f` inside a group span; `k_iteration` tags every span inside.
    pub fn group<R>(
        &mut self,
        name: &'static str,
        k_iteration: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let outer = self.k_iteration;
        self.k_iteration = k_iteration.or(outer);
        let id = self.open(name, Kind::Group);
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.k_iteration = outer;
        let now = self.now();
        self.spans[id].end_ns = now;
        self.spans[id].wait_end_ns = now;
        out
    }

    /// Runs one call into a layer inside a span, then parks in a barrier the
    /// pipeline does not have: the time a rank spends there is how much
    /// earlier it finished the call than the slowest rank.
    pub fn call<R>(&mut self, ctx: &Ctx, name: &'static str, f: impl FnOnce() -> R) -> R {
        let before = ctx.stats().snapshot();
        let id = self.open(name, Kind::Call);
        let out = f();
        let end = self.now();
        let sent = ctx.stats().snapshot().delta_from(&before);
        ctx.barrier();
        let wait_end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.wait_end_ns = wait_end;
        span.bytes = sent.bytes_sent;
        span.msgs = sent.msgs_sent;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Busy/wait/traffic totals of one span name over a whole traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Sum over calls of the slowest rank's time inside the call.
    pub busy_s: f64,
    /// Sum over calls of the mean time ranks were parked after the call.
    pub wait_s: f64,
    /// Exact counts, summed over ranks and calls.
    pub bytes: u64,
    pub msgs: u64,
}

/// Folds the per-rank span lists of one run into per-name totals.
///
/// # Panics
/// Panics if the ranks did not record the same sequence of spans (the
/// pipeline is SPMD, so they must).
pub fn totals(per_rank: &[Vec<Span>], name: &str) -> SpanTotals {
    let mut out = SpanTotals::default();
    let Some(first) = per_rank.first() else {
        return out;
    };
    for (id, span) in first.iter().enumerate() {
        if span.kind != Kind::Call || span.name != name {
            continue;
        }
        let same_call: Vec<&Span> = per_rank.iter().map(|spans| &spans[id]).collect();
        assert!(
            same_call.iter().all(|s| s.name == name),
            "ranks disagree on span {id}"
        );
        let busy = same_call.iter().map(|s| s.end_ns - s.start_ns).max();
        let waited: u64 = same_call.iter().map(|s| s.wait_end_ns - s.end_ns).sum();
        out.busy_s += busy.unwrap_or(0) as f64 * 1e-9;
        out.wait_s += waited as f64 * 1e-9 / same_call.len() as f64;
        out.bytes += same_call.iter().map(|s| s.bytes).sum::<u64>();
        out.msgs += same_call.iter().map(|s| s.msgs).sum::<u64>();
    }
    out
}

/// Renders the spans as Chrome trace-event JSON (load in `chrome://tracing`
/// or <https://ui.perfetto.dev>): one track per rank, a complete event per
/// span, and a `<name>.wait` event for the barrier after each call.
pub fn chrome_json(per_rank: &[Vec<Span>]) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut events = Vec::new();
    for (rank, spans) in per_rank.iter().enumerate() {
        events.push(format!(
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {rank}, \
             \"args\": {{\"name\": \"rank {rank}\"}}}}"
        ));
        for s in spans {
            let mut args = format!("\"id\": {}", s.id);
            if let Some(parent) = s.parent {
                let _ = write!(args, ", \"parent\": {parent}");
            }
            if let Some(k) = s.k_iteration {
                let _ = write!(args, ", \"k_iteration\": {k}");
            }
            if s.kind == Kind::Call {
                let _ = write!(args, ", \"bytes\": {}, \"msgs\": {}", s.bytes, s.msgs);
            }
            events.push(format!(
                "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{}\", \"pid\": 1, \"tid\": {rank}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}",
                s.name,
                if s.kind == Kind::Call {
                    "call"
                } else {
                    "group"
                },
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
            ));
            if s.kind == Kind::Call {
                events.push(format!(
                    "{{\"ph\": \"X\", \"name\": \"{}.wait\", \"cat\": \"wait\", \"pid\": 1, \
                     \"tid\": {rank}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"parent\": {}}}}}",
                    s.name,
                    us(s.end_ns),
                    us(s.wait_end_ns - s.end_ns),
                    s.id,
                ));
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;

    fn record(ranks: usize) -> Vec<Vec<Span>> {
        let epoch = Instant::now();
        Team::single_node(ranks).run(|ctx| {
            let mut rec = Recorder::new(epoch);
            rec.group("core.assemble", None, |rec| {
                for iter in 0..2 {
                    rec.group("core.k_iteration", Some(iter), |rec| {
                        rec.call(ctx, "a.slow_on_rank_0", || {
                            if ctx.rank() == 0 {
                                std::thread::sleep(std::time::Duration::from_millis(10));
                            }
                        });
                        rec.call(ctx, "a.talks", || {
                            ctx.exchange(vec![vec![0u64; 4]; ctx.ranks()]).len()
                        });
                    });
                }
            });
            rec.into_spans()
        })
    }

    #[test]
    fn busy_is_the_slowest_rank_and_wait_is_the_mean_skew() {
        let spans = record(2);
        let slow = totals(&spans, "a.slow_on_rank_0");
        assert!(slow.busy_s >= 0.020, "two 10 ms calls: {slow:?}");
        // Rank 1 sat out ~10 ms per call, rank 0 nothing: mean ~5 ms per call.
        assert!(
            slow.wait_s >= 0.008 && slow.wait_s < slow.busy_s,
            "{slow:?}"
        );
        assert_eq!(slow.bytes, 0);
        let talks = totals(&spans, "a.talks");
        // 2 calls x 2 ranks x 2 destinations x 4 u64.
        assert_eq!(talks.bytes, 2 * 2 * 2 * 4 * 8);
        assert!(talks.msgs > 0);
        assert_eq!(totals(&spans, "nobody"), SpanTotals::default());
    }

    #[test]
    fn spans_nest_and_carry_the_iteration() {
        let spans = record(1);
        let rank0 = &spans[0];
        assert_eq!(rank0[0].name, "core.assemble");
        assert_eq!(rank0[0].parent, None);
        let iter1 = rank0
            .iter()
            .find(|s| s.name == "core.k_iteration" && s.k_iteration == Some(1))
            .expect("second iteration recorded");
        assert_eq!(iter1.parent, Some(0));
        let inside: Vec<_> = rank0
            .iter()
            .filter(|s| s.parent == Some(iter1.id))
            .collect();
        assert_eq!(inside.len(), 2);
        assert!(inside.iter().all(|s| s.k_iteration == Some(1)
            && s.start_ns >= iter1.start_ns
            && s.wait_end_ns <= iter1.end_ns));
    }

    #[test]
    fn chrome_export_has_a_track_per_rank_and_balanced_json() {
        let json = chrome_json(&record(2));
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert_eq!(json.matches("\"name\": \"a.talks\"").count(), 4);
        assert_eq!(json.matches("\"name\": \"a.talks.wait\"").count(), 4);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}

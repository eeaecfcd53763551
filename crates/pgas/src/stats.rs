//! Per-rank communication and memory-system accounting.
//!
//! UPC runs on a real interconnect; our ranks are threads, so wall-clock alone
//! would hide communication effects such as the read-localisation optimisation
//! of §II-I (whose benefit is *fewer off-node seed lookups* and *better cache
//! reuse*). Every simulated remote operation is therefore counted here, and the
//! experiment harnesses report these counters next to the timings.
//!
//! A counter is one row of the `counters!` table below: its doc, its name
//! and its [`Reduction`]. The row yields the [`CommStats`] cell, the
//! [`StatsSnapshot`] field and the [`Counter`] key, and code records into it
//! with [`Ctx::record`], which applies the row's reduction. The traffic
//! counters split by topology or credited to a serving rank are written by
//! [`Ctx::record_message`], [`Ctx::record_access`] and
//! [`Ctx::record_rpc_response_from`].

use crate::Ctx;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter's per-rank values combine into one team-wide figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Events and bytes, counted once on the rank that caused them:
    /// [`Ctx::record`] adds.
    Sum,
    /// A per-rank running peak; memory is provisioned per rank, so the
    /// team-wide figure is the largest rank's: [`Ctx::record`] raises the
    /// peak.
    Max,
}

impl Reduction {
    /// Folds `value` into one rank's `cell`.
    #[inline]
    fn apply(self, cell: &AtomicU64, value: u64) {
        match self {
            Reduction::Sum => cell.fetch_add(value, Ordering::Relaxed),
            Reduction::Max => cell.fetch_max(value, Ordering::Relaxed),
        };
    }
}

/// Generates [`CommStats`], [`StatsSnapshot`], the [`Counter`] keys,
/// [`Ctx::record`] and every per-counter list over them from the one table at
/// the bottom of this macro's invocation: `doc, name: Sum | Max`. Adding a
/// counter is adding a row.
macro_rules! counters {
    ($( $(#[$doc:meta])* $name:ident: $kind:ident, )*) => {
        /// The key of one [`CommStats`] counter, named as its field: what
        /// [`Ctx::record`] writes.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( $(#[$doc])* $name, )*
        }

        impl Ctx<'_> {
            /// Records `value` in this rank's `counter`, reduced as the
            /// counter's row declares: added to a `Sum` row, raising the
            /// running peak of a `Max` row.
            #[inline]
            pub fn record(&self, counter: Counter, value: u64) {
                let stats = self.stats();
                match counter {
                    $( Counter::$name => Reduction::$kind.apply(&stats.$name, value), )*
                }
            }
        }

        /// Atomic per-rank counters. Padded to a cache line to avoid false
        /// sharing between ranks that update their own counters concurrently.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct CommStats {
            $( $(#[$doc])* pub $name: AtomicU64, )*
        }

        impl CommStats {
            /// Resets every counter to zero.
            pub fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )*
            }

            /// Takes a plain-value snapshot of the counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )*
                }
            }

            /// Overwrites every counter with the snapshot's value.
            #[cfg(test)]
            fn store(&self, values: &StatsSnapshot) {
                $( self.$name.store(values.$name, Ordering::Relaxed); )*
            }
        }

        /// A plain-value copy of [`CommStats`], summable across ranks.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl StatsSnapshot {
            /// Element-wise sum of two snapshots. (Summing the per-rank
            /// residency peaks gives the team-wide resident total: each
            /// rank's peak is its own shard + cache.)
            pub fn add(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name + other.$name, )*
                }
            }

            /// Difference (`self - other`), saturating at zero; used to
            /// measure a phase by snapshotting before and after. (A
            /// running-max gauge only grows between resets, so its delta is
            /// how much the peak rose during the phase.)
            pub fn delta_from(&self, before: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.saturating_sub(before.$name), )*
                }
            }

            /// A snapshot with `f(kind, value)` in place of every counter,
            /// called in declaration order with the counter's [`Reduction`] —
            /// how a cross-rank reduction learns which counters sum and which
            /// take the maximum.
            pub fn map_counters(&self, mut f: impl FnMut(Reduction, u64) -> u64) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: f(Reduction::$kind, self.$name), )*
                }
            }
        }

        impl Counter {
            /// Every key, in declaration order.
            #[cfg(test)]
            const ALL: &'static [Counter] = &[$( Counter::$name, )*];
        }
    };
}

counters! {
    /// Aggregated messages sent (one per flushed batch).
    msgs_sent: Sum,
    /// Payload bytes across all sent messages.
    bytes_sent: Sum,
    /// Payload bytes of messages whose destination rank shares the sender's
    /// simulated node (shared-memory transfers; a subset of `bytes_sent`).
    on_node_bytes: Sum,
    /// Payload bytes of messages that crossed a node boundary (interconnect
    /// transfers; `on_node_bytes + off_node_bytes == bytes_sent`).
    off_node_bytes: Sum,
    /// Aggregated messages whose destination shares the sender's node
    /// (`on_node_msgs + off_node_msgs == msgs_sent`).
    on_node_msgs: Sum,
    /// Aggregated messages that crossed a node boundary — the interconnect
    /// injection count the two-level exchange reduces.
    off_node_msgs: Sum,
    /// Fine-grained operations that targeted data owned by a rank on another
    /// simulated node.
    remote_ops: Sum,
    /// Fine-grained operations that stayed within the simulated node.
    local_ops: Sum,
    /// Global atomic operations (compare-and-swap, fetch-add on shared state).
    atomic_ops: Sum,
    /// Software-cache hits (read-only phase of the distributed hash tables).
    cache_hits: Sum,
    /// Software-cache misses.
    cache_misses: Sum,
    /// Work blocks obtained through the dynamic work-stealing counter beyond
    /// the rank's initial block.
    steals: Sum,
    /// Completed aggregated request–response round trips (batched lookups).
    rpc_round_trips: Sum,
    /// Payload bytes of the response legs of aggregated request–response
    /// exchanges (a subset of `bytes_sent`, recorded on the serving rank).
    rpc_resp_bytes: Sum,
    /// Software-cache evictions (entries displaced by the capacity bound).
    cache_evictions: Sum,
    /// Bytes of the packed supermer records cut by supermer-routed k-mer
    /// analysis and contig k-mer injection, recorded on the cutting rank:
    /// the records it files in its own shard as well as those it ships, so
    /// not a subset of `bytes_sent` (a rank's own records never travel).
    supermer_bytes: Sum,
    /// Canonical k-mer observations (one per k-mer window of a received
    /// supermer) counted by k-mer analysis, recorded on the owning rank.
    kmer_observations: Sum,
    /// Entries k-mer analysis inserted into its shard of the counts table:
    /// one per k-mer that reached the ε cut-off, none for the rest.
    kmer_table_inserts: Sum,
    /// Collective rounds performed by the segment-stitching contig traversal:
    /// one per call on a multi-rank team (the gather of the cross-rank
    /// segments to rank 0), none at one rank, where no segment crosses an
    /// ownership boundary. Recorded on rank 0 only, so a summed snapshot
    /// reads as "rounds".
    traversal_rounds: Sum,
    /// Bytes of the cross-rank segments traversal gathers to rank 0,
    /// recorded on the sender: each record's `size_of` plus the bases it
    /// carries. Rank 0's own segments are not counted. Not a subset of
    /// `bytes_sent`, which counts a record's `size_of` but not its bases.
    stitch_bytes: Sum,
    /// Peak contig bytes resident on this rank: the owned shard of the
    /// distributed contig store plus the rank's reader cache (packed bytes).
    contig_bytes_resident: Max,
    /// Packed contig bytes fetched from remote shards of the distributed
    /// contig store (cache-miss fills; a measure of contig read traffic).
    contig_fetch_bytes: Sum,
    /// Peak read bytes resident on this rank: the owned shard of the
    /// distributed read store plus the rank's reader cache (packed bytes).
    read_bytes_resident: Max,
    /// Packed read-block bytes fetched from remote shards of the distributed
    /// read store (cache-miss fills; a measure of read fetch traffic).
    read_fetch_bytes: Sum,
    /// Dynamic-programming cells (profile length × columns scanned, over the
    /// strands scanned) the rRNA detector's 16-bit upper-bound pass filled
    /// during scaffold traversal. A contig is classified only when the walk
    /// reads its verdict at a fork, once, by the rank that walks its
    /// component — so the team's sum does not depend on the rank count.
    hmm_bound_cells: Sum,
    /// Cells its exact pass filled: on the strands the bound could not
    /// reject (every strand scanned when the filter stands aside).
    hmm_exact_cells: Sum,
    /// Seed lookups alignment resolved against the seed index (one per
    /// sampled read seed), recorded once per read block on the aligning rank.
    seed_lookups: Sum,
    /// The subset of `seed_lookups` whose seed another rank owns — the ones
    /// that go through the software cache and, on a miss, over the wire.
    seed_lookups_remote: Sum,
    /// Seed hits (contig positions) those lookups returned.
    seed_hits: Sum,
    /// Candidate placements alignment compared against a contig window.
    align_candidates_verified: Sum,
}

impl StatsSnapshot {
    /// Total fine-grained (per-key) global accesses, local and remote. The
    /// quantity the lookup-aggregation ablation compares against `msgs_sent`.
    pub fn fine_grained_ops(&self) -> u64 {
        self.remote_ops + self.local_ops
    }

    /// Fraction of fine-grained operations that crossed a node boundary.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.remote_ops + self.local_ops;
        if total == 0 {
            0.0
        } else {
            self.remote_ops as f64 / total as f64
        }
    }

    /// Fraction of sent payload bytes that crossed a node boundary — the
    /// quantity the topology ablation tracks (interconnect pressure).
    pub fn off_node_byte_fraction(&self) -> f64 {
        let total = self.on_node_bytes + self.off_node_bytes;
        if total == 0 {
            0.0
        } else {
            self.off_node_bytes as f64 / total as f64
        }
    }

    /// Software-cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Load-balance ratio: average work divided by maximum work across ranks, in
/// `(0, 1]`; 1.0 means perfectly balanced. This is the quantity the paper
/// quotes for the local-assembly stage ("improves load balance from about 0.33
/// to 0.55").
pub fn load_balance_ratio(per_rank_work: &[f64]) -> f64 {
    if per_rank_work.is_empty() {
        return 1.0;
    }
    let max = per_rank_work.iter().cloned().fold(f64::MIN, f64::max);
    if max <= 0.0 {
        return 1.0;
    }
    let avg = per_rank_work.iter().sum::<f64>() / per_rank_work.len() as f64;
    avg / max
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot holding a distinct non-zero value in every counter, and
    /// how many counters there are.
    fn distinct() -> (StatsSnapshot, u64) {
        let mut n = 0;
        let snap = StatsSnapshot::default().map_counters(|_, zero| {
            assert_eq!(zero, 0);
            n += 1;
            n
        });
        (snap, n)
    }

    #[test]
    fn every_counter_round_trips_through_snapshot_add_delta_and_reset() {
        let (a, n) = distinct();
        assert!(n >= 30, "the table lost counters: {n}");
        let stats = CommStats::default();
        stats.store(&a);
        assert_eq!(stats.snapshot(), a);
        let doubled = a.add(&a);
        assert_eq!(doubled, a.map_counters(|_, v| 2 * v));
        assert_eq!(doubled.delta_from(&a), a);
        assert_eq!(a.delta_from(&doubled), StatsSnapshot::default());
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn the_running_peaks_reduce_by_max_and_everything_else_by_sum() {
        let (a, _) = distinct();
        let maxed = a.map_counters(|kind, v| match kind {
            Reduction::Sum => 0,
            Reduction::Max => v,
        });
        let peaks = StatsSnapshot {
            contig_bytes_resident: a.contig_bytes_resident,
            read_bytes_resident: a.read_bytes_resident,
            ..Default::default()
        };
        assert_eq!(maxed, peaks);
    }

    #[test]
    fn every_row_reduces_as_declared() {
        let team = crate::Team::single_node(2);
        team.run(|ctx| {
            if ctx.rank() == 1 {
                for &counter in Counter::ALL {
                    ctx.record(counter, 5);
                    ctx.record(counter, 3);
                }
            }
        });
        let expected = StatsSnapshot::default().map_counters(|kind, _| match kind {
            Reduction::Sum => 8,
            Reduction::Max => 5,
        });
        let per_rank = team.stats_per_rank();
        assert_eq!(per_rank[1], expected);
        assert_eq!(per_rank[0], StatsSnapshot::default());
    }

    #[test]
    fn ratios() {
        let s = StatsSnapshot {
            remote_ops: 30,
            local_ops: 70,
            cache_hits: 9,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((s.remote_fraction() - 0.3).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().remote_fraction(), 0.0);
        assert_eq!(StatsSnapshot::default().cache_hit_rate(), 0.0);
        let b = StatsSnapshot {
            on_node_bytes: 300,
            off_node_bytes: 100,
            ..Default::default()
        };
        assert!((b.off_node_byte_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().off_node_byte_fraction(), 0.0);
    }

    #[test]
    fn load_balance() {
        assert!((load_balance_ratio(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((load_balance_ratio(&[4.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(load_balance_ratio(&[]), 1.0);
        assert_eq!(load_balance_ratio(&[0.0, 0.0]), 1.0);
    }
}

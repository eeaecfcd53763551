//! A simulated PGAS (UPC-like) SPMD runtime.
//!
//! MetaHipMer is written in Unified Parallel C: `THREADS` ranks execute the
//! same program, share a partitioned global address space, and communicate
//! with one-sided puts/gets, remote atomics and collectives. This crate
//! reproduces that execution model on a single machine:
//!
//! * a [`Topology`] groups P *ranks* into simulated *nodes* (so that on-node
//!   vs off-node traffic can be distinguished, exactly the quantity the
//!   paper's read-localisation optimisation targets);
//! * a [`Team`] runs an SPMD closure on every rank — rank 0 on the calling
//!   thread and its stack, as UPC's launched program is `MYTHREAD == 0`, and
//!   ranks 1.. on an OS thread each — and provides the collectives the
//!   pipeline needs: barrier, broadcast/share and all-reduce;
//! * one aggregated transport ([`exchange`]): every exchange ships through a
//!   single routed lane (direct deposit, or node-leader routing on a
//!   multi-node topology) behind five faces — [`Ctx::exchange`] and its
//!   gather-to-rank-0 form [`Ctx::gather`]; [`Aggregator`], UPC's
//!   "aggregated, asynchronous one-sided messages" (use case 1 of §II-A);
//!   [`BlobAggregator`] for variable-length byte records; and the request
//!   and reply legs of [`RpcAggregator`] / [`Ctx::exchange_map`], the
//!   batched-gets side of the paper's communication optimisation (use
//!   case 3), with round trips and response bytes accounted;
//! * per-rank [`stats::CommStats`] account for every simulated remote access,
//!   message, atomic and software-cache hit so experiments can report
//!   communication volumes alongside wall-clock times. Each rank's counters
//!   are written by that rank only — a one-sided read is booked by its
//!   reader — so a stage's counts do not depend on which rank happened to
//!   be in which stage when another rank's read landed;
//! * [`work::DynamicBlocks`] implements the single-global-atomic dynamic
//!   work-stealing scheme of §II-G.
//!
//! The runtime intentionally exposes the same *use sites* as UPC code: all
//! higher-level crates (distributed hash tables, k-mer analysis, alignment,
//! scaffolding) are written against `Ctx` the way the paper's algorithms are
//! written against UPC, so the parallel structure of the original is preserved
//! even though ranks are threads rather than processes.

pub mod conformance;
pub mod exchange;
pub mod stats;
pub mod team;
pub mod topology;
pub mod work;

pub use conformance::{OpKind, OpRecord};
pub use exchange::{Aggregator, BlobAggregator, RpcAggregator};
pub use stats::{CommStats, Counter, Reduction, StatsSnapshot};
pub use team::{
    install_panic_accounting, unexpected_panics, Ctx, FaultPlan, LocalPhaseGuard, RankFault, Team,
};
pub use topology::Topology;
pub use work::DynamicBlocks;

//! MetaHipMer-rs: a facade crate re-exporting the whole workspace.
//!
//! This crate exists so that examples, integration tests and downstream users
//! can depend on a single package and reach every layer of the reproduction:
//!
//! * [`mhm_core`] — the MetaHipMer pipeline (iterative contig generation,
//!   local assembly, scaffolding) — the paper's primary contribution;
//! * [`pgas`] / [`dht`] — the UPC-substitute SPMD runtime and distributed
//!   hash tables it runs on;
//! * [`seqio`] / [`kmers`] / [`readstore`] — sequences, reads and packed
//!   k-mers, plus the block-sharded distributed read store;
//! * [`mgsim`] — the synthetic community and read simulator (the paper's
//!   MGSim / WGSim);
//! * [`mod@dbg`] / [`aligner`] / [`scaffolding`] / [`rrna_hmm`] — the pipeline
//!   stages as reusable libraries;
//! * [`asm_metrics`] — the metaQUAST-substitute quality evaluation.
//!
//! See `examples/quickstart.rs` for the three-line end-to-end use.

pub use aligner;
pub use asm_metrics;
pub use dbg;
pub use dht;
pub use kmers;
pub use mgsim;
pub use mhm_core;
pub use pgas;
pub use readstore;
pub use rrna_hmm;
pub use scaffolding;
pub use seqio;

pub use mhm_core::{AssemblyConfig, MetaHipMer};

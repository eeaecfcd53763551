//! Distributed hash tables and related distributed data structures.
//!
//! §II-A of the paper identifies four distributed hash-table *use cases* that
//! cover the pipeline's computational patterns. This crate provides the data
//! structures and the matching access disciplines:
//!
//! | Paper use case | API here |
//! |---|---|
//! | 1. Global update-only (commutative inserts, batched) | [`DistMap`] + [`bulk_merge`] (aggregated per-owner batches applied locally) |
//! | 2. Global reads & writes (atomics instead of locks) | None: no stage writes remote entries one at a time. Contig traversal is owner-local segment compaction, which claims vertices in place through [`DistMap::local_view`] (use case 4) |
//! | 3. Global read-only with reuse | [`CachedView`] ([`SoftwareCache`] + batched miss fill) and the bulk read API [`DistMap::get_many`] over the `pgas` request–response layer |
//! | 4. Local reads & writes after deterministic routing | [`bulk_merge`] / [`DistMap::for_each_local`] / [`DistMap::local_view`] (whose [`LocalShardView::insert`] / [`LocalShardView::entry`] write the owner's shard under one held lock set) |
//!
//! The read side mirrors the write side's aggregation: just as `bulk_merge`
//! buffers inserts per owner and ships them in large messages, `get_many`
//! buffers *lookup requests* per owner, the owners answer from their shards,
//! and the responses return in a second aggregated all-to-all
//! ([`pgas::RpcAggregator`]) — the UPC "aggregated gets" of the paper. For
//! dynamically scheduled loops that cannot reach a collective in lockstep
//! (work stealing), [`DistMap::get_many_onesided`] provides the one-sided
//! aggregated variant.
//!
//! Key→owner assignment is pluggable: every [`DistMap`] routes through a
//! [`Partitioner`] ([`HashPartitioner`] by default), so phases that know
//! their access pattern — supermer-routed k-mer analysis partitions its
//! counts table by minimizer — can choose owners while every consumer keeps
//! working unchanged through [`DistMap::owner_of`].
//!
//! The partitioned Bloom filter ([`DistBloom`]) is used by no pipeline
//! stage; it stays only because the performance ledger's
//! `dht.bloom_insert_mitems_s` probe names `DistBloom::new`/`insert_and_check`.

pub mod bloom;
pub mod cache;
pub mod dist_map;
pub mod fxhash;
pub mod partition;

pub use bloom::DistBloom;
pub use cache::{CachedView, ReadTable, Residency, SoftwareCache};
pub use dist_map::{bulk_merge, DistMap, LocalShardView};
pub use fxhash::{fx_hash_one, FxHashMap, FxHashSet, FxHasher};
pub use partition::{HashPartitioner, Partitioner, TablePartitioner};

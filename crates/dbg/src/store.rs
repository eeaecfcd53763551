//! The distributed contig store (§II-F/III of the paper, memory side).
//!
//! Every pipeline stage downstream of contig generation reads contig
//! sequences: alignment verifies candidate placements against contig windows,
//! scaffolding measures link geometry, gap closing splices flank sequences,
//! and local assembly walks outward from contig ends. HipMer keeps those
//! sequences in the PGAS global address space — each rank owns a shard and
//! fetches foreign contigs on demand through aggregated, software-cached
//! lookups — which is exactly what lets it assemble metagenomes that do not
//! fit in one node's memory. This module is that layer:
//!
//! * [`PackedSeq`] — a 2-bit-packed sequence (4 bases/byte) with a tiny
//!   exception list for non-ACGT bytes, sliceable by window without unpacking
//!   the whole contig;
//! * [`ContigStore`] — contig id → [`PackedSeq`], sharded over the ranks by a
//!   [`dht::DistMap`] (size-balanced owner table, so no rank holds more than
//!   its fair share plus one contig), plus a small *replicated*
//!   per-contig metadata table (length and depth — O(#contigs), not
//!   O(bases)) that answers the geometry queries every stage makes;
//! * [`ContigReader`] — a rank's read-through view of the store: the typed
//!   face of a byte-weighted, foreign-only [`dht::CachedView`], whose one
//!   miss-fill loop fetches through [`dht::DistMap::get_many`] on collective
//!   paths and [`dht::DistMap::get_many_onesided`] inside dynamically
//!   scheduled (work-stealing) loops;
//! * [`ContigsRef`] — the handle consumers take on a [`ContigStore`].
//!
//! Residency accounting: the store records each rank's peak resident contig
//! bytes (owned shard + reader caches, packed) in
//! `CommStats::contig_bytes_resident` and every cache-miss fill in
//! `CommStats::contig_fetch_bytes`, which is what the `ablation_contig_store`
//! harness asserts the `total/ranks + cache bound` memory ceiling on.

use crate::types::{Contig, ContigId, ContigSet};
use dht::{CachedView, DistMap, Residency, TablePartitioner};
use pgas::{Counter, Ctx};
use std::sync::Arc;

// The packed representation is shared with the distributed read store, so it
// lives in `kmers` next to the codec kernels it is built on.
pub use kmers::PackedSeq;

/// Replicated per-contig metadata: O(#contigs) and cheap, unlike the
/// sequence bytes it describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContigMeta {
    /// Sequence length in bases.
    pub len: u32,
    /// Mean k-mer depth.
    pub depth: f64,
}

/// Construction parameters of a [`ContigStore`].
#[derive(Debug, Clone, Copy)]
pub struct ContigStoreParams {
    /// Per-rank reader cache bound in *packed* bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Per-owner request batch handed to the aggregated lookup layer.
    pub batch: usize,
}

impl Default for ContigStoreParams {
    fn default() -> Self {
        ContigStoreParams {
            cache_bytes: 1 << 20,
            batch: 1024,
        }
    }
}

/// The sharded table under the size-balanced owner assignment of
/// [`balanced_owners_from_lens`] — the one way [`ContigStore::build`] and
/// [`ContigStore::restore`] construct their map. Collective.
fn balanced_map(
    ctx: &Ctx,
    lens: impl IntoIterator<Item = u32>,
) -> Arc<DistMap<ContigId, PackedSeq>> {
    let ranks = ctx.ranks();
    ctx.share(|| {
        let owners = balanced_owners_from_lens(lens, ranks);
        DistMap::with_partitioner(ranks, Arc::new(TablePartitioner::new(owners)))
    })
}

/// Size-balanced owner table, keyed only by contig lengths in id order:
/// contigs are dealt to the rank with the least packed bytes so far (ties to
/// the lowest rank). `ContigSet::from_sequences` assigns ids longest-first,
/// so id order is the greedy longest-first order that bounds every shard by
/// total/ranks + one contig. Deterministic given the lengths, so every rank
/// computes the same table. Exposed so a checkpoint restore on a *different*
/// rank count can recompute, from the replicated metadata alone, exactly the
/// table `ContigStore::build` would have produced there — the property
/// elastic resume's byte-identical guarantee rests on.
pub fn balanced_owners_from_lens(lens: impl IntoIterator<Item = u32>, ranks: usize) -> Vec<u32> {
    let mut owners = Vec::new();
    let mut load = vec![0usize; ranks];
    for len in lens {
        let owner = (0..ranks).min_by_key(|&r| (load[r], r)).unwrap_or(0);
        owners.push(owner as u32);
        load[owner] += (len as usize).div_ceil(4) + 4;
    }
    owners
}

/// The distributed contig store: packed sequences sharded by owner rank plus
/// replicated per-contig metadata. Built collectively; shared by the team.
pub struct ContigStore {
    map: Arc<DistMap<ContigId, PackedSeq>>,
    meta: Vec<ContigMeta>,
    k: usize,
    cache_bytes: usize,
    batch: usize,
}

impl ContigStore {
    /// Collectively builds the store from a (transiently replicated) contig
    /// set: every rank packs and stores exactly the contigs it owns — an
    /// owner-local update phase with no wire traffic — then records its
    /// owned packed bytes in the residency accounting. The pipeline drops
    /// the replicated set right after this returns.
    pub fn build(ctx: &Ctx, set: &ContigSet, params: &ContigStoreParams) -> Arc<ContigStore> {
        let map = balanced_map(ctx, set.contigs.iter().map(|c| c.len() as u32));
        let mine: Vec<(ContigId, PackedSeq)> = set
            .contigs
            .iter()
            .filter(|c| map.owner_of(&c.id) == ctx.rank())
            .map(|c| (c.id, PackedSeq::from_bytes(&c.seq)))
            .collect();
        map.apply_local_batch(ctx, mine, |v| v, |a, b| *a = b);
        ctx.barrier();
        let store = ctx.share(|| ContigStore {
            map: Arc::clone(&map),
            meta: set
                .contigs
                .iter()
                .map(|c| ContigMeta {
                    len: c.len() as u32,
                    depth: c.depth,
                })
                .collect(),
            k: set.k,
            cache_bytes: params.cache_bytes,
            batch: params.batch,
        });
        ctx.record(
            Counter::contig_bytes_resident,
            store.owned_packed_bytes(ctx) as u64,
        );
        ctx.barrier();
        store
    }

    /// Collectively rebuilds a store from checkpointed state: the replicated
    /// metadata table plus whatever slice of the packed entries each rank
    /// recovered from the shard files of the *writing* run. The entries are
    /// re-routed to their new owners through the freshly computed partitioner
    /// (`bulk_merge`), so the rank count may differ from the writer's — the
    /// resulting store is identical to one `build` would have produced on
    /// this team, because the balanced owner table depends only on the
    /// lengths in id order. Each rank then verifies its restored shard
    /// against the metadata and clears the verification reader's cache so
    /// the resumed run starts as cold as a fresh build.
    pub fn restore(
        ctx: &Ctx,
        k: usize,
        meta: Vec<ContigMeta>,
        params: &ContigStoreParams,
        entries: Vec<(ContigId, PackedSeq)>,
    ) -> Arc<ContigStore> {
        let map = balanced_map(ctx, meta.iter().map(|m| m.len));
        dht::bulk_merge(ctx, &map, entries, params.batch, |a, b| *a = b);
        let store = ctx.share(|| ContigStore {
            map: Arc::clone(&map),
            meta,
            k,
            cache_bytes: params.cache_bytes,
            batch: params.batch,
        });
        // Verify the restored shards: every contig must be present with the
        // length the manifest promised (a shard file swapped between
        // checkpoints would pass its own CRC but fail here).
        let mut reader = store.reader(ctx);
        let my = ctx.block_range(store.num_contigs());
        let ids: Vec<ContigId> = (my.start as u64..my.end as u64).collect();
        let got = reader.get_many(ctx, &ids);
        for (id, p) in ids.iter().zip(&got) {
            let expect = store.meta(*id).map(|m| m.len as usize);
            assert_eq!(
                p.as_ref().map(|p| p.len()),
                expect,
                "restored contig {id} does not match checkpoint metadata"
            );
        }
        reader.clear_cache();
        ctx.record(
            Counter::contig_bytes_resident,
            store.owned_packed_bytes(ctx) as u64,
        );
        ctx.barrier();
        store
    }

    /// The k the contigs were assembled with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of contigs in the store.
    pub fn num_contigs(&self) -> usize {
        self.meta.len()
    }

    /// True if the store holds no contigs.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Metadata of one contig.
    pub fn meta(&self, id: ContigId) -> Option<ContigMeta> {
        self.meta.get(id as usize).copied()
    }

    /// Total assembled bases across all shards.
    pub fn total_bases(&self) -> usize {
        self.meta.iter().map(|m| m.len as usize).sum()
    }

    /// The sharded sequence table (for owner-local passes).
    pub fn map(&self) -> &Arc<DistMap<ContigId, PackedSeq>> {
        &self.map
    }

    /// Packed bytes of the calling rank's owned shard.
    pub fn owned_packed_bytes(&self, ctx: &Ctx) -> usize {
        let mut owned = 0usize;
        self.map
            .for_each_local(ctx, |_, v| owned += v.packed_bytes());
        owned
    }

    /// Creates this rank's cached read-through view.
    pub fn reader(&self, ctx: &Ctx) -> ContigReader<'_> {
        CachedView::new_weighted(
            &self.map,
            self.cache_bytes,
            self.batch,
            PackedSeq::packed_bytes,
            Residency {
                owned: self.owned_packed_bytes(ctx),
                fetched: Counter::contig_fetch_bytes,
                resident: Counter::contig_bytes_resident,
            },
        )
    }

    /// Collectively regathers the full replicated [`ContigSet`] (rank 0
    /// collects the owned shards, orders by id, broadcast). Used to
    /// materialise the pipeline's final output; the hot paths never call it.
    pub fn materialize(&self, ctx: &Ctx) -> ContigSet {
        let mut local: Vec<(ContigId, Vec<u8>)> = Vec::new();
        self.map
            .for_each_local(ctx, |id, v| local.push((*id, v.unpack())));
        let mut gathered = ctx.gather(local);
        ctx.broadcast(|| {
            gathered.sort_by_key(|(id, _)| *id);
            ContigSet {
                contigs: gathered
                    .into_iter()
                    .map(|(id, seq)| Contig {
                        id,
                        seq,
                        depth: self.meta[id as usize].depth,
                    })
                    .collect(),
                k: self.k,
            }
        })
    }
}

/// A per-rank cached read-through view of a [`ContigStore`]: lookups are
/// served from a byte-bounded FIFO cache of packed *foreign* contigs when
/// possible, and the misses of a batch travel to their owners in one
/// aggregated round — collectively through [`CachedView::get_many`], or
/// one-sided through [`CachedView::get_many_onesided`] inside work-stealing
/// loops. Each fill adds the foreign bytes it moved to
/// `CommStats::contig_fetch_bytes` and raises the rank's resident peak
/// ([`CachedView::resident_bytes`]: owned shard plus cache, packed). Create
/// one per phase with [`ContigStore::reader`]; it is not shared between ranks.
pub type ContigReader<'s> = CachedView<'s, ContigId, PackedSeq>;

/// The contig handle every pipeline stage takes: the sharded
/// [`ContigStore`], O(total/ranks + cache) contig bytes per rank. Stages read
/// geometry (length, depth, count) from the store's replicated metadata and
/// sequences through a [`ContigReader`].
#[derive(Clone, Copy)]
pub enum ContigsRef<'a> {
    /// Sequences are sharded; reads go through a [`ContigReader`].
    Store(&'a ContigStore),
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;

    /// Deterministic pseudo-random sequence with occasional N bytes.
    fn seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(31) {
                    b'N'
                } else {
                    b"ACGT"[(state % 4) as usize]
                }
            })
            .collect()
    }

    #[test]
    fn balanced_owners_bound_the_heaviest_rank() {
        let set = ContigSet::from_sequences(
            21,
            (0..40)
                .map(|i| (seq(40 + (i * 37) % 400, i as u64), 1.0))
                .collect(),
        );
        for ranks in [1usize, 2, 3, 5, 8] {
            let owners =
                balanced_owners_from_lens(set.contigs.iter().map(|c| c.len() as u32), ranks);
            let mut load = vec![0usize; ranks];
            let mut max_item = 0usize;
            for c in &set.contigs {
                let w = c.len().div_ceil(4) + 4;
                load[owners[c.id as usize] as usize] += w;
                max_item = max_item.max(w);
            }
            let total: usize = load.iter().sum();
            let bound = total / ranks + max_item;
            assert!(
                load.iter().all(|&l| l <= bound),
                "ranks={ranks} load={load:?} bound={bound}"
            );
        }
    }

    #[test]
    fn store_serves_exact_sequences_through_every_path() {
        let set = ContigSet::from_sequences(
            21,
            (0..12)
                .map(|i| (seq(60 + i * 13, 100 + i as u64), 2.0))
                .collect(),
        );
        for ranks in [1usize, 3, 4] {
            let team = Team::single_node(ranks);
            let set2 = set.clone();
            team.run(|ctx| {
                let store = ContigStore::build(
                    ctx,
                    &set2,
                    &ContigStoreParams {
                        cache_bytes: 1 << 16,
                        ..Default::default()
                    },
                );
                assert_eq!(store.num_contigs(), set2.len());
                assert_eq!(store.total_bases(), set2.total_bases());
                let mut reader = store.reader(ctx);
                let ids: Vec<ContigId> = (0..set2.len() as u64).chain([999, 3, 3]).collect();
                let got = reader.get_many(ctx, &ids);
                for (id, p) in ids.iter().zip(&got) {
                    match set2.get(*id) {
                        Some(c) => assert_eq!(p.as_ref().unwrap().unpack(), c.seq),
                        None => assert!(p.is_none()),
                    }
                }
                // Cold again, so the one-sided fill fetches rather than hits.
                reader.clear_cache();
                let one = reader.get_many_onesided(ctx, &ids);
                assert_eq!(one, got);
                ctx.barrier();
                // Materialise reproduces the original set exactly.
                let back = store.materialize(ctx);
                assert_eq!(back, set2);
            });
        }
    }

    #[test]
    fn restore_on_a_different_rank_count_matches_a_fresh_build() {
        let set = ContigSet::from_sequences(
            21,
            (0..15)
                .map(|i| (seq(50 + i * 17, 900 + i as u64), 1.5))
                .collect(),
        );
        let params = ContigStoreParams::default();
        // "Write" at 3 ranks: export each rank's owned shard entries.
        let writer = Team::single_node(3);
        let set2 = set.clone();
        let shards: Vec<Vec<(ContigId, PackedSeq)>> = writer.run(|ctx| {
            let store = ContigStore::build(ctx, &set2, &params);
            store.map().local_entries(ctx)
        });
        let meta: Vec<ContigMeta> = set
            .contigs
            .iter()
            .map(|c| ContigMeta {
                len: c.len() as u32,
                depth: c.depth,
            })
            .collect();
        // Restore at 2x and 1/3 the writer's rank count: each new rank takes
        // a block of the old shard files; entries re-route to the new owners.
        for new_ranks in [6usize, 1, 3] {
            let team = Team::single_node(new_ranks);
            let meta = meta.clone();
            let shards = &shards;
            let set = &set;
            team.run(|ctx| {
                let mut mine = Vec::new();
                for old in ctx.block_range(shards.len()) {
                    mine.extend(shards[old].iter().cloned());
                }
                let restored = ContigStore::restore(ctx, 21, meta.clone(), &params, mine);
                // Same owner table a fresh build would compute on this team...
                let fresh = ContigStore::build(ctx, set, &params);
                for id in 0..set.len() as u64 {
                    assert_eq!(restored.map().owner_of(&id), fresh.map().owner_of(&id));
                }
                assert_eq!(
                    restored.owned_packed_bytes(ctx),
                    fresh.owned_packed_bytes(ctx)
                );
                // ...and the same sequences.
                assert_eq!(restored.materialize(ctx), *set);
            });
        }
    }

    #[test]
    fn resident_accounting_stays_within_shard_plus_cache() {
        let set = ContigSet::from_sequences(
            21,
            (0..20).map(|i| (seq(200, 500 + i as u64), 2.0)).collect(),
        );
        let ranks = 4usize;
        let cache_bytes = 256usize;
        let team = Team::single_node(ranks);
        let total_packed: usize = set
            .contigs
            .iter()
            .map(|c| PackedSeq::from_bytes(&c.seq).packed_bytes())
            .sum();
        let max_packed: usize = set
            .contigs
            .iter()
            .map(|c| PackedSeq::from_bytes(&c.seq).packed_bytes())
            .max()
            .unwrap();
        team.run(|ctx| {
            ctx.stats().reset();
            let store = ContigStore::build(
                ctx,
                &set,
                &ContigStoreParams {
                    cache_bytes,
                    ..Default::default()
                },
            );
            let mut reader = store.reader(ctx);
            let ids: Vec<ContigId> = (0..set.len() as u64).collect();
            let _ = reader.get_many(ctx, &ids);
            let _ = reader.get_many_onesided(ctx, &ids);
            ctx.barrier();
            let peak = ctx.stats().snapshot().contig_bytes_resident as usize;
            let bound = total_packed / ctx.ranks() + max_packed + cache_bytes;
            assert!(peak > 0, "residency must be recorded");
            assert!(peak <= bound, "peak {peak} > bound {bound}");
            assert!(ctx.stats().snapshot().contig_fetch_bytes > 0);
        });
    }
}

//! The core distributed hash table.
//!
//! Keys are assigned to an *owner rank* by a pluggable [`Partitioner`]
//! (deterministically, so all ranks agree; hashing by default), and each
//! owner's shard is further split into sub-shards so that concurrent
//! fine-grained accesses from different ranks rarely contend on the same
//! lock — the moral equivalent of UPC's per-bucket locks / remote atomics.
//! All accesses go through a [`pgas::Ctx`] so that on-node vs off-node
//! traffic is accounted.

use crate::fxhash::{fx_hash_one, FxHashMap};
use crate::partition::{HashPartitioner, Partitioner};
use parking_lot::Mutex;
use pgas::{Aggregator, Counter, Ctx, RpcAggregator};
use std::hash::Hash;
use std::sync::Arc;

/// Number of sub-shards per owner rank; a power of two so the sub-shard index
/// can be taken from independent hash bits.
const SUB_SHARDS: usize = 16;

/// Sub-shard (lock stripe) of a key within its owner's shard: taken from the
/// upper hash bits so striping is independent of the owner selection and of
/// the partitioner. The single source of truth for every access path.
#[inline]
fn sub_of_hash(h: u64) -> usize {
    ((h >> 48) as usize) % SUB_SHARDS
}

/// [`sub_of_hash`] for callers that have not already hashed the key.
#[inline]
fn sub_of<K: Hash>(key: &K) -> usize {
    sub_of_hash(fx_hash_one(key))
}

struct Shard<K, V> {
    subs: Vec<Mutex<FxHashMap<K, V>>>,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            subs: (0..SUB_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }
}

/// A hash map partitioned across the ranks of a team.
pub struct DistMap<K, V> {
    shards: Vec<Shard<K, V>>,
    partitioner: Arc<dyn Partitioner<K>>,
}

impl<K, V> DistMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Creates a map distributed over `ranks` owner shards with the default
    /// [`HashPartitioner`]. Typically invoked collectively via
    /// `ctx.share(|| DistMap::new(ctx.ranks()))`.
    pub fn new(ranks: usize) -> Self {
        DistMap::with_partitioner(ranks, Arc::new(HashPartitioner))
    }

    /// Creates a map whose owner assignment is delegated to `partitioner`
    /// (which must be deterministic and identical on every rank; see
    /// [`Partitioner`]).
    pub fn with_partitioner(ranks: usize, partitioner: Arc<dyn Partitioner<K>>) -> Self {
        assert!(ranks > 0);
        DistMap {
            shards: (0..ranks).map(|_| Shard::new()).collect(),
            partitioner,
        }
    }

    /// Collective convenience constructor: builds one shared map for the team.
    pub fn shared(ctx: &Ctx) -> Arc<Self> {
        ctx.share(|| DistMap::new(ctx.ranks()))
    }

    /// The owner rank of a key (deterministic across ranks).
    #[inline]
    pub fn owner_of(&self, key: &K) -> usize {
        let owner = self.partitioner.owner_of(key, self.shards.len());
        debug_assert!(owner < self.shards.len());
        owner
    }

    #[inline]
    fn slot(&self, key: &K) -> (usize, usize) {
        // One hash serves both decisions: the partitioner gets it as a hint
        // (the default hash partitioner derives the owner straight from it)
        // and the sub-shard comes from the upper bits so lock striping is
        // independent of the owner selection (and of the partitioner).
        let h = fx_hash_one(key);
        let owner = self.partitioner.owner_of_hashed(key, h, self.shards.len());
        debug_assert!(owner < self.shards.len());
        (owner, sub_of_hash(h))
    }

    /// Inserts a value, returning the previous value if any. Fine-grained
    /// global write (use case 2).
    pub fn insert(&self, ctx: &Ctx, key: K, value: V) -> Option<V> {
        let (owner, sub) = self.slot(&key);
        ctx.record_access(owner);
        self.shards[owner].subs[sub].lock().insert(key, value)
    }

    /// Clones the value for a key, if present. Fine-grained global read.
    pub fn get_cloned(&self, ctx: &Ctx, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let (owner, sub) = self.slot(key);
        ctx.record_access(owner);
        self.shards[owner].subs[sub].lock().get(key).cloned()
    }

    /// Shard probe without any traffic accounting, answering with `f` of the
    /// value: the owner-side half of the batched lookups.
    fn probe<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let (owner, sub) = self.slot(key);
        self.shards[owner].subs[sub].lock().get(key).map(f)
    }

    /// Collective batched read (use case 3 of §II-A): every key's lookup is
    /// buffered per owner rank, shipped in aggregated messages of at most
    /// `batch` requests, answered from the owner's shard, and the values
    /// travel back in a second aggregated all-to-all. Returns the results in
    /// key order (duplicates and absent keys are fine). Every rank must call
    /// this in the same phase, even with an empty `keys` slice — it replaces a
    /// loop of [`DistMap::get_cloned`] calls with one round trip.
    pub fn get_many(&self, ctx: &Ctx, keys: &[K], batch: usize) -> Vec<Option<V>>
    where
        V: Clone,
    {
        self.get_many_with(ctx, keys, batch, V::clone)
    }

    /// [`DistMap::get_many`] whose owners reply with `f` of each value: the
    /// responses travel, and are accounted, as `Option<R>`. Collective.
    pub fn get_many_with<R>(
        &self,
        ctx: &Ctx,
        keys: &[K],
        batch: usize,
        f: impl Fn(&V) -> R,
    ) -> Vec<Option<R>>
    where
        R: Send + Sync + 'static,
    {
        self.get_many_as(ctx, keys, batch, K::clone, f)
    }

    /// [`DistMap::get_many_with`] for requests that travel as `Q`, not as the
    /// key: `key` names the key a request reads, on both sides. The requests
    /// are accounted at `Q`'s size, so a table can store narrower keys than
    /// its callers send. Collective.
    pub fn get_many_as<Q, R>(
        &self,
        ctx: &Ctx,
        requests: &[Q],
        batch: usize,
        key: impl Fn(&Q) -> K,
        f: impl Fn(&V) -> R,
    ) -> Vec<Option<R>>
    where
        Q: Clone + Send + Sync + 'static,
        R: Send + Sync + 'static,
    {
        let mut rpc: RpcAggregator<Q, Option<R>> = RpcAggregator::new(ctx, batch);
        for request in requests {
            rpc.push(self.owner_of(&key(request)), request.clone());
        }
        rpc.finish(|request| self.probe(&key(&request), &f))
    }

    /// [`DistMap::get_many`] for a caller that reads the keys it owns from
    /// its own shard ([`DistMap::local_view`]): those come back `None`,
    /// without a copy of the value. Every message and byte is what `get_many`
    /// records — the transport accounts a response by its type's size, not
    /// its content. Collective.
    pub fn get_many_foreign(&self, ctx: &Ctx, keys: &[K], batch: usize) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let mut rpc: RpcAggregator<K, Option<V>> = RpcAggregator::new(ctx, batch);
        for key in keys {
            rpc.push(self.owner_of(key), key.clone());
        }
        rpc.finish_by_origin(|origin, key| {
            if origin == ctx.rank() {
                None
            } else {
                self.probe(&key, V::clone)
            }
        })
    }

    /// One-sided aggregated batched read: like [`DistMap::get_many`] but
    /// **not** collective — the calling rank groups the keys by owner,
    /// records one aggregated request and one aggregated response per
    /// contacted owner, and reads the shards directly (the simulation's
    /// analogue of UPC's one-sided `upc_memget` over a remote bucket block,
    /// which needs no CPU involvement from the owner). Use it inside
    /// dynamically scheduled loops (work stealing) where ranks cannot reach a
    /// collective in lockstep; prefer [`DistMap::get_many`] everywhere else.
    #[track_caller]
    pub fn get_many_onesided(&self, ctx: &Ctx, keys: &[K]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let mut per_owner = vec![0usize; self.shards.len()];
        for key in keys {
            per_owner[self.owner_of(key)] += 1;
        }
        // Conformance: refuse to probe a shard whose owner is inside a
        // `local_view` phase — the probe would both break the view's snapshot
        // semantics and block on the sub-shard locks the view holds. Checked
        // before any probe so the violation is reported, not deadlocked on.
        for (owner, &count) in per_owner.iter().enumerate() {
            if count > 0 {
                ctx.check_one_sided_target(owner, self.phase_token());
            }
        }
        let out = keys.iter().map(|key| self.probe(key, V::clone)).collect();
        for (owner, &count) in per_owner.iter().enumerate() {
            if count > 0 {
                // Request leg: this rank sends the key batch to the owner.
                ctx.record_message(owner, count * std::mem::size_of::<K>());
                // Response leg: the values travel owner -> requester, so the
                // message is attributed to the serving rank.
                ctx.record_rpc_response_from(owner, count * std::mem::size_of::<Option<V>>());
            }
        }
        if !keys.is_empty() {
            ctx.record(Counter::rpc_round_trips, 1);
        }
        out
    }

    /// Local-phase token for this map (see [`Ctx::begin_local_phase`]): the
    /// shared allocation's address, identical on every rank because the map
    /// is `Arc`-shared across the team.
    fn phase_token(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Total number of entries across all shards. Not a collective; intended
    /// for use after a barrier.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.subs.iter())
            .map(|m| m.lock().len())
            .sum()
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry owned by the calling rank (use case 4). Only sound
    /// when other ranks are not mutating this rank's shard (the usual pattern:
    /// barrier, then owner-local processing).
    pub fn for_each_local(&self, ctx: &Ctx, mut f: impl FnMut(&K, &V)) {
        for sub in &self.shards[ctx.rank()].subs {
            for (k, v) in sub.lock().iter() {
                f(k, v);
            }
        }
    }

    /// A direct, random-access view of the calling rank's own shard: locks
    /// every sub-shard once and holds the guards for the view's lifetime, so
    /// repeated [`LocalShardView::get`] / [`LocalShardView::get_mut`] probes
    /// pay neither `Ctx` accounting nor per-access mutex churn. This is the
    /// keyed, mutable complement of [`DistMap::for_each_local`] (use case 4),
    /// built for owner-local graph algorithms such as the segment-compaction
    /// traversal, which chases keys around its own shard and claims each
    /// vertex in place as it walks it. A caller that mutates while scanning
    /// snapshots one sub-shard at a time ([`LocalShardView::sub_shard`]).
    /// Mutations are plain writes to the owner's table, visible to every
    /// access path once the view drops.
    ///
    /// Only sound under the usual owner-local pattern: barrier, then every
    /// rank touches exclusively its own shard. While the view is alive, any
    /// other access to this rank's shard (from this rank or another)
    /// deadlocks — drop the view before going back through `Ctx` paths. With
    /// conformance checking enabled the view registers a *local phase*, so
    /// one-sided probes against this shard fail with a diagnostic naming both
    /// call sites instead of blocking on the held locks.
    #[track_caller]
    pub fn local_view(&self, ctx: &Ctx) -> LocalShardView<'_, K, V> {
        let phase = ctx.begin_local_phase(self.phase_token());
        LocalShardView {
            subs: self.shards[ctx.rank()]
                .subs
                .iter()
                .map(|m| m.lock())
                .collect(),
            _phase: phase,
        }
    }

    /// Clones every entry owned by the calling rank into a vector.
    pub fn local_entries(&self, ctx: &Ctx) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        for sub in &self.shards[ctx.rank()].subs {
            out.extend(sub.lock().iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Number of entries owned by the calling rank.
    pub fn local_len(&self, ctx: &Ctx) -> usize {
        self.shards[ctx.rank()]
            .subs
            .iter()
            .map(|m| m.lock().len())
            .sum()
    }

    /// Applies a batch of `(key, value)` items that are already known to be
    /// owned by the calling rank, merging duplicates with `merge`, in item
    /// order. This is the receive side of the update-only phase. Each
    /// sub-shard is locked once for the whole batch (in index order, as
    /// [`DistMap::local_view`] locks them), not once per item.
    pub fn apply_local_batch(
        &self,
        ctx: &Ctx,
        items: Vec<(K, V)>,
        default: impl Fn(V) -> V,
        merge: impl Fn(&mut V, V),
    ) {
        if items.is_empty() {
            return;
        }
        let mut subs: Vec<_> = self.shards[ctx.rank()]
            .subs
            .iter()
            .map(|m| m.lock())
            .collect();
        for (key, value) in items {
            let sub = &mut subs[sub_of(&key)];
            match sub.get_mut(&key) {
                Some(existing) => merge(existing, value),
                None => {
                    sub.insert(key, default(value));
                }
            }
        }
    }
}

/// The view returned by [`DistMap::local_view`]: the calling rank's sub-shard
/// maps, locked once for the lifetime of the view. Dropping the view releases
/// the locks and ends the conformance local phase.
pub struct LocalShardView<'a, K, V> {
    subs: Vec<parking_lot::MutexGuard<'a, FxHashMap<K, V>>>,
    _phase: pgas::LocalPhaseGuard,
}

impl<K, V> LocalShardView<'_, K, V>
where
    K: Hash + Eq,
{
    /// Looks up a key in the viewed shard. The key must be owned by the
    /// viewing rank (a foreign key is simply absent from this shard, so the
    /// caller is expected to have checked `owner_of` first).
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.subs[sub_of(key)].get(key)
    }

    /// Mutable access to a key's value in the viewed shard, under the same
    /// ownership caveat as [`LocalShardView::get`].
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.subs[sub_of(key)].get_mut(key)
    }

    /// Inserts a key owned by the viewing rank into the viewed shard,
    /// returning the previous value if any: the receive side of a routed
    /// exchange that has already combined what it received (k-mer analysis
    /// inserts each surviving k-mer once). No lock is taken and no traffic
    /// recorded — the exchange that delivered the key accounted it.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.subs[sub_of(&key)].insert(key, value)
    }

    /// The entry of a key owned by the viewing rank, for an in-place upsert
    /// (contig k-mer injection merges its windows this way).
    #[inline]
    pub fn entry(&mut self, key: K) -> std::collections::hash_map::Entry<'_, K, V> {
        self.subs[sub_of(&key)].entry(key)
    }

    /// Number of sub-shards (lock stripes) the view holds.
    pub fn sub_shards(&self) -> usize {
        self.subs.len()
    }

    /// Iterates over the entries of sub-shard `i` only (unordered). A caller
    /// that mutates through [`LocalShardView::get_mut`] while scanning
    /// snapshots the keys it needs one sub-shard at a time, so the snapshot
    /// never exceeds 1/16 of the shard.
    pub fn sub_shard(&self, i: usize) -> impl Iterator<Item = (&K, &V)> {
        self.subs[i].iter()
    }

    /// Number of entries in the viewed shard.
    pub fn len(&self) -> usize {
        self.subs.iter().map(|m| m.len()).sum()
    }

    /// True if the viewed shard is empty.
    pub fn is_empty(&self) -> bool {
        self.subs.iter().all(|m| m.is_empty())
    }
}

/// The full update-only phase (use case 1 + 4): every rank streams `(K, V)`
/// items into per-owner aggregation buffers; after the exchange each owner
/// merges the received items into its local shard with `merge` (which must be
/// commutative and associative for the result to be insertion-order
/// independent, as the paper requires).
///
/// Collective: every rank must call it, even with an empty iterator.
pub fn bulk_merge<K, V>(
    ctx: &Ctx,
    map: &DistMap<K, V>,
    items: impl IntoIterator<Item = (K, V)>,
    batch: usize,
    merge: impl Fn(&mut V, V) + Copy,
) where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    let mut agg: Aggregator<(K, V)> = Aggregator::new(ctx, batch);
    for (k, v) in items {
        let owner = map.owner_of(&k);
        agg.push(owner, (k, v));
    }
    let received = agg.finish();
    map.apply_local_batch(ctx, received, |v| v, merge);
    ctx.barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;

    #[test]
    fn insert_get_roundtrip() {
        let team = Team::single_node(4);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, String>> = DistMap::shared(ctx);
            // Each rank inserts its own keys.
            for i in 0..100u64 {
                if i as usize % ctx.ranks() == ctx.rank() {
                    map.insert(ctx, i, format!("v{i}"));
                }
            }
            ctx.barrier();
            // Every rank can read every key.
            for i in 0..100u64 {
                assert_eq!(map.get_cloned(ctx, &i), Some(format!("v{i}")));
            }
            assert_eq!(map.get_cloned(ctx, &1000), None);
            assert_eq!(map.len(), 100);
        });
    }

    #[test]
    fn owner_assignment_agrees_across_ranks_and_spreads() {
        let team = Team::single_node(5);
        let owners = team.run(|ctx| {
            let map: Arc<DistMap<u64, ()>> = DistMap::shared(ctx);
            (0..1000u64).map(|k| map.owner_of(&k)).collect::<Vec<_>>()
        });
        for o in &owners[1..] {
            assert_eq!(o, &owners[0]);
        }
        let mut counts = vec![0usize; 5];
        for &o in &owners[0] {
            counts[o] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "skewed owners: {counts:?}");
    }

    #[test]
    fn bulk_merge_counts_words() {
        let team = Team::single_node(4);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            // Every rank contributes the same keys; counts should sum.
            let items = (0..200u64).map(|k| (k % 20, 1u64));
            bulk_merge(ctx, &map, items, 16, |a, b| *a += b);
            if ctx.rank() == 0 {
                assert_eq!(map.len(), 20);
            }
            ctx.barrier();
            for k in 0..20u64 {
                // 200/20 = 10 per rank, times 4 ranks.
                assert_eq!(map.get_cloned(ctx, &k), Some(40));
            }
        });
    }

    #[test]
    fn get_many_matches_per_key_reads_including_absent_and_duplicates() {
        let team = Team::single_node(4);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..100u64).map(|k| (k, k * 3)), 16, |a, b| {
                *a += b
            });
            // Present, absent and duplicate keys, different per rank.
            let keys: Vec<u64> = (0..60u64)
                .map(|i| (i * 7 + ctx.rank() as u64 * 13) % 150)
                .collect();
            let got = map.get_many(ctx, &keys, 8);
            let expect: Vec<Option<u64>> = keys.iter().map(|k| map.get_cloned(ctx, k)).collect();
            assert_eq!(got, expect);
            let odd = map.get_many_with(ctx, &keys, 8, |v| v % 2 == 1);
            let expect: Vec<Option<bool>> = expect.iter().map(|v| v.map(|v| v % 2 == 1)).collect();
            assert_eq!(odd, expect);
        });
    }

    #[test]
    fn get_many_with_ships_the_projection_not_the_value() {
        let bytes = |project: bool| {
            let team = Team::single_node(3);
            team.run(|ctx| {
                let map: Arc<DistMap<u64, [u64; 8]>> = DistMap::shared(ctx);
                bulk_merge(ctx, &map, (0..90u64).map(|k| (k, [k; 8])), 8, |a, b| {
                    a[0] += b[0]
                });
                let keys: Vec<u64> = (0..90u64).collect();
                if project {
                    map.get_many_with(ctx, &keys, 8, |v| v[1] as u32);
                } else {
                    map.get_many(ctx, &keys, 8);
                }
            });
            team.stats_total().bytes_sent
        };
        assert!(bytes(true) < bytes(false));
    }

    #[test]
    fn get_many_onesided_matches_per_key_reads_and_aggregates_messages() {
        let team = Team::single_node(4);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..64u64).map(|k| (k, k + 1)), 16, |a, b| {
                *a += b
            });
            ctx.barrier();
            ctx.stats().reset();
            let keys: Vec<u64> = (0..64u64).chain([500, 501]).collect();
            let got = map.get_many_onesided(ctx, &keys);
            let expect: Vec<Option<u64>> = keys
                .iter()
                .map(|k| if *k < 64 { Some(4 * (*k + 1)) } else { None })
                .collect();
            assert_eq!(got, expect);
            let snap = ctx.stats().snapshot();
            // At most a request + a response per contacted owner.
            assert!(snap.msgs_sent <= 2 * ctx.ranks() as u64);
            assert_eq!(snap.rpc_round_trips, 1);
            assert!(snap.rpc_resp_bytes > 0);
        });
    }

    /// Owner = key % ranks: a deliberately non-hash partitioner.
    struct ModuloPartitioner;
    impl crate::partition::Partitioner<u64> for ModuloPartitioner {
        fn owner_of(&self, key: &u64, ranks: usize) -> usize {
            (*key % ranks as u64) as usize
        }
    }

    #[test]
    fn custom_partitioner_drives_ownership_through_every_access_path() {
        let team = Team::single_node(3);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> =
                ctx.share(|| DistMap::with_partitioner(ctx.ranks(), Arc::new(ModuloPartitioner)));
            for k in 0..90u64 {
                assert_eq!(map.owner_of(&k), (k % 3) as usize);
            }
            bulk_merge(ctx, &map, (0..90u64).map(|k| (k, k + 1)), 8, |a, b| *a += b);
            // bulk_merge routed by the partitioner, so local iteration must
            // see exactly the keys congruent to this rank.
            let mut local = Vec::new();
            map.for_each_local(ctx, |k, _| local.push(*k));
            assert_eq!(local.len(), 30);
            assert!(local.iter().all(|k| *k % 3 == ctx.rank() as u64));
            // Fine-grained and batched reads agree.
            let keys: Vec<u64> = (0..100u64).collect();
            let got = map.get_many(ctx, &keys, 16);
            for (k, v) in keys.iter().zip(got) {
                assert_eq!(v, map.get_cloned(ctx, k));
                // Every one of the 3 ranks contributed (k, k+1) once.
                assert_eq!(v, (*k < 90).then_some(3 * (*k + 1)));
            }
        });
    }

    #[test]
    fn local_iteration_covers_exactly_owned_keys() {
        let team = Team::single_node(3);
        let counts = team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..300u64).map(|k| (k, 1)), 32, |a, b| *a += b);
            let mut local = 0usize;
            map.for_each_local(ctx, |_, _| local += 1);
            assert_eq!(local, map.local_len(ctx));
            local
        });
        assert_eq!(counts.iter().sum::<usize>(), 300);
    }

    #[test]
    fn view_inserts_are_traffic_free_and_visible_to_every_rank() {
        let team = Team::single_node(3);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            // Every rank inserts the keys it owns, without any traffic.
            ctx.stats().reset();
            let mut view = map.local_view(ctx);
            for k in (0..90u64).filter(|k| map.owner_of(k) == ctx.rank()) {
                assert_eq!(view.insert(k, k), None);
            }
            if map.owner_of(&1000) == ctx.rank() {
                assert_eq!(view.insert(1000, 7), None);
                assert_eq!(view.insert(1000, 8), Some(7));
                *view.entry(1000).or_insert(0) += 1;
                assert_eq!(view.get(&1000), Some(&9));
                assert_eq!(view.insert(1000, 1000), Some(9));
            }
            drop(view);
            assert_eq!(ctx.stats().snapshot(), pgas::StatsSnapshot::default());
            ctx.barrier();
            for k in 0..90u64 {
                assert_eq!(map.get_cloned(ctx, &k), Some(k));
            }
        });
    }

    #[test]
    #[should_panic(expected = "local_view phase holds it")]
    fn one_sided_get_during_local_view_is_caught() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..64u64).map(|k| (k, k)), 8, |a, b| *a += b);
            let held = ctx.share(|| AtomicBool::new(false));
            if ctx.rank() == 0 {
                let view = map.local_view(ctx);
                held.store(true, Ordering::SeqCst);
                // Wait for rank 1's probe to fire; its panic poisons the
                // barrier, so this collateral abort is swallowed by try_run.
                ctx.barrier();
                drop(view);
            } else {
                while !held.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                // Seeded violation: one-sided batched get while rank 0's
                // local_view phase holds its shard.
                let keys: Vec<u64> = (0..64).collect();
                let _ = map.get_many_onesided(ctx, &keys);
            }
        });
    }

    #[test]
    fn view_mutations_persist_and_the_mutable_view_still_blocks_one_sided_probes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..64u64).map(|k| (k, k)), 8, |a, b| *a += b);
            let held = ctx.share(|| AtomicBool::new(false));
            let view = if ctx.rank() == 0 {
                let mut view = map.local_view(ctx);
                // Snapshot one sub-shard at a time, then write through the
                // view, the pattern the segment traversal's claims follow.
                let mut seen = 0;
                for s in 0..view.sub_shards() {
                    let keys: Vec<u64> = view.sub_shard(s).map(|(k, _)| *k).collect();
                    for k in keys {
                        *view.get_mut(&k).expect("snapshotted key is present") += 1000;
                        seen += 1;
                    }
                }
                assert_eq!(seen, view.len());
                assert_eq!(view.get_mut(&500), None);
                held.store(true, Ordering::SeqCst);
                Some(view)
            } else {
                while !held.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let keys: Vec<u64> = (0..64).collect();
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    map.get_many_onesided(ctx, &keys)
                }))
                .expect_err("a one-sided probe must be refused while the view lives");
                let msg = refused
                    .downcast_ref::<String>()
                    .expect("the refusal carries a formatted message");
                assert!(msg.contains("local_view phase holds it"), "{msg}");
                None
            };
            // Rank 0 ends the phase only after rank 1's probe was refused.
            ctx.barrier();
            drop(view);
            ctx.barrier();
            // Both ranks merged (k, k) once; rank 0's writes sit on top.
            for k in 0..64u64 {
                let bump = if map.owner_of(&k) == 0 { 1000 } else { 0 };
                assert_eq!(map.get_cloned(ctx, &k), Some(2 * k + bump), "key {k}");
            }
        });
    }

    #[test]
    fn one_sided_get_is_legal_again_after_the_view_drops() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..64u64).map(|k| (k, k)), 8, |a, b| *a += b);
            {
                let view = map.local_view(ctx);
                let _ = view.len();
            }
            ctx.barrier();
            let keys: Vec<u64> = (0..64).collect();
            let got = map.get_many_onesided(ctx, &keys);
            assert!(got.iter().all(|v| v.is_some()));
        });
    }
}

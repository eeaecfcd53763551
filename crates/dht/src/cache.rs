//! Software caching for the global read-only hash-table phase (use case 3).
//!
//! During read-to-contig alignment the seed index is read-only, and reads
//! mapped to the same contig region look up mostly the same seeds. merAligner
//! therefore caches remote hash-table entries on the requesting rank; the
//! cache never needs invalidation because the phase is read-only. The paper's
//! read-localisation optimisation exists precisely to raise this cache's hit
//! rate, so the hit/miss/eviction counters recorded here feed Figure 3.
//!
//! Two layers live here:
//!
//! * [`SoftwareCache`] — the bounded per-rank store itself. The capacity is a
//!   hard bound enforced by FIFO eviction (the access pattern is streaming —
//!   reads processed one after another — so insertion order approximates
//!   recency without per-access bookkeeping); evictions are counted in
//!   `CommStats::cache_evictions`.
//! * [`CachedView`] — a cache coupled to the table it fills from, and the one
//!   way a pipeline stage reads a remote table: lookups are served from the
//!   cache when possible and **all distinct misses of a batch are fetched in
//!   one aggregated round**, the merAligner pattern of buffering requests per
//!   owner and receiving batched responses.
//!
//! A view has two *fills*, one *admission rule* and one *table*, and nothing
//! else varies:
//!
//! * [`CachedView::get_many`] fetches the misses through the table's
//!   collective [`ReadTable::get_many`]; [`CachedView::get_many_onesided`]
//!   fetches them through [`DistMap::get_many_onesided`], for dynamically
//!   scheduled loops (work stealing, per-rank streams) that cannot reach a
//!   collective in lockstep. The classify → fetch → admit → resolve loop
//!   around the fetch is the same code.
//! * The admission rule is fixed by the constructor. [`CachedView::new`]
//!   and [`CachedView::over`] bound the cache by entry count and admit every
//!   fetched key. (The seed index reads through `over`; its cache holds
//!   foreign seeds only because the aligner resolves the seeds its rank owns
//!   from its shard by reference and hands the view what is left.)
//!   [`CachedView::new_weighted`] (the contig and read stores) bounds the
//!   cache by the values' weight and admits *foreign* keys only: an owned
//!   block is already resident in the rank's shard, so caching it would spend
//!   the byte budget on a second copy and count those bytes twice in the
//!   residency figure the view reports through its [`Residency`].
//! * The table is anything that implements [`ReadTable`]: who owns a key,
//!   and a collective batched fetch. [`DistMap`] is the default (and the only
//!   one with a one-sided fill); the aligner's flat seed index is the other.
//!   The view is generic over it so that a table with its own layout — one
//!   shard per rank, probed on the owner inside the RPC handler, answering
//!   with a value that is not what it stores — reads through this loop
//!   instead of growing a miss-fill loop and a cache of its own.

use crate::dist_map::DistMap;
use crate::fxhash::FxHashMap;
use pgas::{Counter, Ctx};
use std::collections::VecDeque;
use std::hash::Hash;

/// The weight function of a weighted [`SoftwareCache`].
type Weigher<V> = Box<dyn Fn(&V) -> usize + Send + Sync>;

/// A per-rank, bounded cache of [`DistMap`] lookups.
///
/// Negative results (key absent) are cached too — repeated lookups of absent
/// seeds are common when reads carry sequencing errors.
///
/// The bound is expressed in *weight units*: by default every entry weighs 1,
/// so `capacity` is an entry count; [`SoftwareCache::new_weighted`] supplies a
/// per-value weigher (e.g. packed bytes for the distributed contig store) and
/// `capacity` then bounds the total resident weight instead.
pub struct SoftwareCache<K, V> {
    entries: FxHashMap<K, Option<V>>,
    /// Insertion order, oldest first; drives FIFO eviction.
    order: VecDeque<K>,
    /// Maximum total weight (entries for the default weigher).
    capacity: usize,
    /// Weight of a cached value; `None` weighs every entry as 1.
    weigher: Option<Weigher<V>>,
    /// Current total weight of the cached entries.
    weight: usize,
}

impl<K, V> SoftwareCache<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates a cache bounded to `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        SoftwareCache {
            entries: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
            weigher: None,
            weight: 0,
        }
    }

    /// Creates a cache whose bound is the total *weight* of the cached values
    /// as measured by `weigher` (cached absences weigh 1). Values heavier than
    /// the whole capacity are never cached — they would evict everything else
    /// and still break the bound.
    pub fn new_weighted(
        capacity: usize,
        weigher: impl Fn(&V) -> usize + Send + Sync + 'static,
    ) -> Self {
        SoftwareCache {
            weigher: Some(Box::new(weigher)),
            ..SoftwareCache::new(capacity)
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current total weight of the cached entries (equals [`Self::len`] for
    /// the default entry-count weigher). The resident-bytes figure of a
    /// byte-weighted cache.
    pub fn resident_weight(&self) -> usize {
        self.weight
    }

    /// The weight `value` has as an entry of this cache: the weigher's figure
    /// for a present value (at least 1), 1 for an absence or without a
    /// weigher.
    pub fn weight_of(&self, value: &Option<V>) -> usize {
        match (value, &self.weigher) {
            (Some(v), Some(w)) => w(v).max(1),
            _ => 1,
        }
    }

    /// Empties the cache: every entry (values and cached absences) is
    /// dropped and the resident weight returns to zero, while the capacity,
    /// the weigher and the rank's eviction/hit/miss counters are untouched —
    /// a clear is a deliberate reset (e.g. after checkpoint-restore
    /// verification reads), not an eviction, so it must not inflate the
    /// eviction statistics the ablation harnesses compare.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.weight = 0;
    }

    /// Non-recording probe: `Some(&cached)` if the key is cached (the inner
    /// `Option` distinguishes a cached value from a cached absence), `None`
    /// if the cache holds nothing for it.
    pub fn peek(&self, key: &K) -> Option<&Option<V>> {
        if self.capacity == 0 {
            return None;
        }
        self.entries.get(key)
    }

    /// Inserts a fetched result, evicting the oldest entries while the total
    /// weight exceeds the capacity (evictions are recorded in the rank's
    /// statistics). Re-inserting a cached key refreshes the value in place —
    /// the key keeps its original queue position and no duplicate order entry
    /// is enqueued (a duplicate would inflate `cache_evictions` and evict live
    /// keys early).
    pub fn insert(&mut self, ctx: &Ctx, key: K, value: Option<V>) {
        mhm_sched::yield_point("dht::cache::insert");
        if self.capacity == 0 {
            return;
        }
        let w = self.weight_of(&value);
        if w > self.capacity {
            // Oversized value: drop any cached copy and do not cache it. The
            // key's order entry must go too — left behind, a later re-insert
            // of the same key would enqueue a duplicate, and the stale front
            // copy would then evict the live entry prematurely.
            if let Some(old) = self.entries.remove(&key) {
                self.weight -= self.weight_of(&old);
                self.order.retain(|k| k != &key);
            }
            return;
        }
        if let Some(slot) = self.entries.get_mut(&key) {
            // Refresh in place; the key keeps its original queue position.
            let old_w = match (slot.as_ref(), &self.weigher) {
                (Some(v), Some(weigh)) => weigh(v).max(1),
                _ => 1,
            };
            self.weight = self.weight - old_w + w;
            *slot = value;
        } else {
            self.order.push_back(key.clone());
            self.entries.insert(key, value);
            self.weight += w;
        }
        while self.weight > self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    if let Some(old) = self.entries.remove(&oldest) {
                        self.weight -= self.weight_of(&old);
                        ctx.record(Counter::cache_evictions, 1);
                    }
                }
                None => break,
            }
        }
    }
}

/// Where a weight-bounded [`CachedView`] accounts for what it moves and
/// holds: the counter pair of the store it reads (`contig_*` or `read_*`)
/// and the bytes the rank holds besides the cache.
#[derive(Clone, Copy)]
pub struct Residency {
    /// Weight resident on this rank outside the cache — its owned shard.
    pub owned: usize,
    /// The `Sum` counter each fill adds the weight of the foreign values it
    /// fetched to.
    pub fetched: Counter,
    /// The `Max` counter each fill raises to `owned` plus the cache's weight.
    pub resident: Counter,
}

/// A read-only distributed table a [`CachedView`] can fill from.
pub trait ReadTable<K, V> {
    /// The owner rank of a key (deterministic across ranks).
    fn owner_of(&self, key: &K) -> usize;

    /// **Collective** batched read: the values of `keys`, in key order,
    /// fetched from their owners in aggregated messages of at most `batch`
    /// requests. Duplicates and absent keys are fine; an empty `keys` slice
    /// still participates.
    fn get_many(&self, ctx: &Ctx, keys: &[K], batch: usize) -> Vec<Option<V>>;
}

impl<K, V> ReadTable<K, V> for DistMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn owner_of(&self, key: &K) -> usize {
        DistMap::owner_of(self, key)
    }

    fn get_many(&self, ctx: &Ctx, keys: &[K], batch: usize) -> Vec<Option<V>> {
        DistMap::get_many(self, ctx, keys, batch)
    }
}

/// A per-rank read-only view of a distributed table through a
/// [`SoftwareCache`] that fills **all** cache misses of a batch in a single
/// aggregated round. Create one per phase; it is not shared between ranks.
/// See the module documentation for the fills, the admission rule and the
/// table parameter.
pub struct CachedView<'m, K, V, T = DistMap<K, V>> {
    map: &'m T,
    cache: SoftwareCache<K, V>,
    /// Per-owner request batch size handed to the RPC layer.
    batch: usize,
    /// `None`: every fetched key is admitted. `Some`: foreign keys only, and
    /// each fill is reported here ([`CachedView::new_weighted`]).
    residency: Option<Residency>,
    /// The miss-fill loop's bookkeeping, cleared and reused by every batch.
    scratch: MissScratch<K>,
}

/// The distinct misses of one batch: the keys to fetch, each key's index
/// among them, how many keys of the batch resolve to each, and the batch
/// positions waiting for a fetched value.
struct MissScratch<K> {
    misses: Vec<K>,
    index: FxHashMap<K, usize>,
    uses: Vec<u32>,
    pending: Vec<(usize, usize)>,
}

impl<'m, K, V> CachedView<'m, K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates a view with a cache of `capacity` entries that admits every
    /// fetched key, batching requests into aggregated messages of at most
    /// `batch` lookups per owner.
    pub fn new(map: &'m DistMap<K, V>, capacity: usize, batch: usize) -> Self {
        CachedView::over(map, capacity, batch)
    }

    /// Creates a view whose cache is bounded to `capacity` units of
    /// `weigher`'s weight and admits foreign keys only; every fill reports
    /// the weight it fetched and the rank's resident weight to `residency`.
    pub fn new_weighted(
        map: &'m DistMap<K, V>,
        capacity: usize,
        batch: usize,
        weigher: impl Fn(&V) -> usize + Send + Sync + 'static,
        residency: Residency,
    ) -> Self {
        CachedView {
            cache: SoftwareCache::new_weighted(capacity, weigher),
            residency: Some(residency),
            ..CachedView::over(map, capacity, batch)
        }
    }

    /// **Collective** [`CachedView::get_many`] of a weighted, foreign-only
    /// view for a caller that reads the keys its rank owns from its own shard
    /// ([`DistMap::local_view`]): those come back `None`, never copied. Hits,
    /// misses, traffic and residency are recorded exactly as by `get_many`
    /// (an owned key is never admitted either way).
    ///
    /// # Panics
    /// Panics on a view that admits every key, whose cache would keep the
    /// `None`s.
    pub fn get_many_foreign(&mut self, ctx: &Ctx, keys: &[K]) -> Vec<Option<V>> {
        assert!(
            self.residency.is_some(),
            "get_many_foreign needs a foreign-only view"
        );
        let batch = self.batch;
        self.get_many_with(ctx, keys, |map, misses| {
            map.get_many_foreign(ctx, misses, batch)
        })
    }

    /// One-sided batched lookup for dynamically scheduled loops (work
    /// stealing, per-rank streams) that cannot reach a collective in
    /// lockstep: like [`CachedView::get_many`], but the misses are read
    /// through [`DistMap::get_many_onesided`]. Not collective.
    pub fn get_many_onesided(&mut self, ctx: &Ctx, keys: &[K]) -> Vec<Option<V>> {
        self.get_many_with(ctx, keys, |map, misses| map.get_many_onesided(ctx, misses))
    }
}

impl<'m, K, V, T> CachedView<'m, K, V, T>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    T: ReadTable<K, V>,
{
    /// [`CachedView::new`] over any [`ReadTable`]. (A constructor of its own
    /// because `new` names `DistMap`, so that an `&Arc<DistMap>` coerces.)
    pub fn over(table: &'m T, capacity: usize, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        CachedView {
            map: table,
            cache: SoftwareCache::new(capacity),
            batch,
            residency: None,
            scratch: MissScratch {
                misses: Vec::new(),
                index: FxHashMap::default(),
                uses: Vec::new(),
                pending: Vec::new(),
            },
        }
    }

    /// The underlying cache (for introspection).
    pub fn cache(&self) -> &SoftwareCache<K, V> {
        &self.cache
    }

    /// Weight resident on this view's rank right now: the cache plus, for a
    /// weighted view, the owned shard its [`Residency`] names.
    pub fn resident_bytes(&self) -> usize {
        self.residency.map_or(0, |r| r.owned) + self.cache.resident_weight()
    }

    /// Drops every cached entry (capacity and eviction accounting are
    /// untouched), returning the view to the cold state it was created in.
    /// Used after restore-time verification reads so a resumed run starts
    /// with the same cold cache a fresh build would.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// **Collective** batched lookup: serves cache hits locally, fetches
    /// every distinct miss of the batch in **one** aggregated round trip
    /// through [`ReadTable::get_many`], and returns the results in key order.
    /// Duplicate keys within the batch cost one fetch (and count as hits
    /// beyond the first occurrence); absent keys are fine. Every rank must
    /// call this in the same phase; an empty `keys` slice still participates
    /// in the collective.
    pub fn get_many(&mut self, ctx: &Ctx, keys: &[K]) -> Vec<Option<V>> {
        let batch = self.batch;
        self.get_many_with(ctx, keys, |map, misses| map.get_many(ctx, misses, batch))
    }

    /// The one miss-fill loop: classify each key as cached or to be fetched,
    /// `fetch` the distinct misses, admit what the view's rule allows, and
    /// resolve every key from the cache or the fetch. A fetched value is
    /// copied into the cache if admitted and into the result once per
    /// duplicate of its key; its last use takes the fetched value itself.
    fn get_many_with(
        &mut self,
        ctx: &Ctx,
        keys: &[K],
        fetch: impl FnOnce(&T, &[K]) -> Vec<Option<V>>,
    ) -> Vec<Option<V>> {
        let CachedView {
            map,
            cache,
            residency,
            scratch,
            ..
        } = self;
        let MissScratch {
            misses,
            index,
            uses,
            pending,
        } = scratch;
        misses.clear();
        index.clear();
        uses.clear();
        pending.clear();
        // Cache hits are resolved now; every other key waits in `pending`
        // for the fetch of `misses[i]`.
        let mut out: Vec<Option<V>> = Vec::with_capacity(keys.len());
        let mut hits = 0u64;
        for (at, key) in keys.iter().enumerate() {
            if let Some(cached) = cache.peek(key) {
                hits += 1;
                out.push(cached.clone());
                continue;
            }
            let i = match index.get(key) {
                Some(&i) => {
                    hits += 1; // duplicate of an in-flight fetch: no extra traffic
                    uses[i] += 1;
                    i
                }
                None => {
                    index.insert(key.clone(), misses.len());
                    misses.push(key.clone());
                    uses.push(1);
                    misses.len() - 1
                }
            };
            pending.push((at, i));
            out.push(None);
        }
        ctx.record(Counter::cache_hits, hits);
        ctx.record(Counter::cache_misses, misses.len() as u64);
        let mut fetched = fetch(map, misses);
        // Under foreign-only admission, keys this rank owns — answered from
        // its own shard with no wire traffic — stay out of the cache and out
        // of the fetched weight.
        let foreign_only = residency.is_some();
        let mut fetched_weight = 0usize;
        for (key, value) in misses.iter().zip(&fetched) {
            if foreign_only {
                if map.owner_of(key) == ctx.rank() {
                    continue;
                }
                if value.is_some() {
                    fetched_weight += cache.weight_of(value);
                }
            }
            cache.insert(ctx, key.clone(), value.clone());
        }
        if let Some(residency) = residency {
            ctx.record(residency.fetched, fetched_weight as u64);
            let resident = residency.owned + cache.resident_weight();
            ctx.record(residency.resident, resident as u64);
        }
        for &(at, i) in pending.iter() {
            uses[i] -= 1;
            out[at] = if uses[i] == 0 {
                fetched[i].take()
            } else {
                fetched[i].clone()
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;
    use std::sync::Arc;

    // Helper: clear only this rank's counters so assertions are per-rank.
    fn team_reset_guard(ctx: &pgas::Ctx) {
        ctx.stats().reset();
        ctx.barrier();
    }

    #[test]
    fn eviction_enforces_the_bound_fifo_and_is_counted() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            for i in 0..100u64 {
                map.insert(ctx, i, i);
            }
            ctx.stats().reset();
            let mut view = CachedView::new(&map, 10, 16);
            for i in 0..100u64 {
                assert_eq!(view.get_many(ctx, &[i]), vec![Some(i)]);
                assert!(view.cache().len() <= 10, "capacity bound violated at {i}");
            }
            let cache = view.cache();
            assert_eq!(cache.len(), 10);
            // FIFO: the ten most recent keys survive, the oldest are gone.
            for i in 90..100u64 {
                assert!(cache.peek(&i).is_some(), "recent key {i} evicted");
            }
            for i in 0..10u64 {
                assert!(cache.peek(&i).is_none(), "old key {i} not evicted");
            }
            let stats = ctx.stats().snapshot();
            assert_eq!(stats.cache_evictions, 90);
            assert_eq!(stats.cache_misses, 100);
        });
    }

    #[test]
    fn reinserting_a_cached_key_does_not_grow_the_queue() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let mut cache: SoftwareCache<u64, u64> = SoftwareCache::new(4);
            for round in 0..5u64 {
                for k in 0..4u64 {
                    cache.insert(ctx, k, Some(round));
                }
            }
            assert_eq!(cache.len(), 4);
            assert_eq!(ctx.stats().snapshot().cache_evictions, 0);
            assert_eq!(cache.peek(&3), Some(&Some(4)));
        });
    }

    #[test]
    fn reinserting_one_key_capacity_plus_one_times_never_evicts() {
        // Regression guard for the FIFO order queue: re-inserting an
        // already-present key must not enqueue a duplicate order entry, so
        // hammering a single key `capacity + 1` times causes zero evictions
        // and the cache holds exactly one entry.
        let team = Team::single_node(1);
        team.run(|ctx| {
            let capacity = 8usize;
            let mut cache: SoftwareCache<u64, u64> = SoftwareCache::new(capacity);
            for round in 0..=capacity as u64 {
                cache.insert(ctx, 42, Some(round));
            }
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.resident_weight(), 1);
            assert_eq!(ctx.stats().snapshot().cache_evictions, 0);
            assert_eq!(cache.peek(&42), Some(&Some(capacity as u64)));
        });
    }

    #[test]
    fn clear_empties_the_cache_but_leaves_eviction_counters_alone() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let mut cache: SoftwareCache<u64, usize> =
                SoftwareCache::new_weighted(100, |v: &usize| *v);
            for k in 0..10u64 {
                cache.insert(ctx, k, Some(30)); // only three fit; seven evict
            }
            let evictions_before = ctx.stats().snapshot().cache_evictions;
            assert_eq!(evictions_before, 7);
            cache.clear();
            assert_eq!(cache.len(), 0);
            assert!(cache.is_empty());
            assert_eq!(cache.resident_weight(), 0);
            assert!(cache.peek(&9).is_none(), "cleared entries must be gone");
            // The regression this guards: a clear is not an eviction, so the
            // counter must survive unchanged...
            assert_eq!(ctx.stats().snapshot().cache_evictions, evictions_before);
            // ...and the cache must behave exactly like a fresh one after:
            // full capacity available, FIFO order rebuilt from scratch.
            for k in 100..110u64 {
                cache.insert(ctx, k, Some(30));
            }
            assert_eq!(cache.len(), 3);
            assert!(cache.peek(&109).is_some());
            assert!(cache.peek(&100).is_none());
            assert_eq!(ctx.stats().snapshot().cache_evictions, evictions_before + 7);
        });
    }

    #[test]
    fn weighted_cache_bounds_total_weight_not_entries() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            // Weight = value itself; capacity 100 weight units.
            let mut cache: SoftwareCache<u64, usize> =
                SoftwareCache::new_weighted(100, |v: &usize| *v);
            for k in 0..10u64 {
                cache.insert(ctx, k, Some(30));
            }
            // Only three 30-unit values fit under 100.
            assert!(
                cache.resident_weight() <= 100,
                "{}",
                cache.resident_weight()
            );
            assert_eq!(cache.len(), 3);
            // FIFO: the newest three survive.
            assert!(cache.peek(&9).is_some());
            assert!(cache.peek(&0).is_none());
            assert_eq!(ctx.stats().snapshot().cache_evictions, 7);
            // Cached absences weigh one unit.
            cache.insert(ctx, 100, None);
            assert_eq!(cache.resident_weight(), 91);
            // A refresh to a heavier value adjusts the weight in place.
            cache.insert(ctx, 9, Some(35));
            assert!(cache.resident_weight() <= 100);
            assert_eq!(cache.peek(&9), Some(&Some(35)));
        });
    }

    #[test]
    fn weighted_cache_skips_oversized_values() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let mut cache: SoftwareCache<u64, usize> =
                SoftwareCache::new_weighted(50, |v: &usize| *v);
            cache.insert(ctx, 1, Some(10));
            cache.insert(ctx, 2, Some(500)); // heavier than the whole cache
            assert!(cache.peek(&2).is_none(), "oversized value must not cache");
            assert_eq!(cache.peek(&1), Some(&Some(10)));
            assert_eq!(cache.resident_weight(), 10);
            // Refreshing a cached key with an oversized value drops it.
            cache.insert(ctx, 1, Some(500));
            assert!(cache.peek(&1).is_none());
            assert_eq!(cache.resident_weight(), 0);
            assert_eq!(cache.len(), 0);
            // The drop also removed the key's order entry: re-inserting and
            // then filling the cache must evict in true FIFO order with no
            // phantom evictions from a stale duplicate.
            ctx.stats().reset();
            cache.insert(ctx, 1, Some(20));
            cache.insert(ctx, 2, Some(20));
            cache.insert(ctx, 3, Some(20)); // evicts 1 (60 > 50)
            assert!(cache.peek(&1).is_none());
            assert_eq!(ctx.stats().snapshot().cache_evictions, 1);
            assert_eq!(cache.peek(&2), Some(&Some(20)));
            assert_eq!(cache.peek(&3), Some(&Some(20)));
        });
    }

    #[test]
    fn cached_view_batch_fills_all_misses_in_one_round_trip() {
        let team = Team::single_node(4);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            if ctx.rank() == 0 {
                for i in 0..50u64 {
                    map.insert(ctx, i, i + 1);
                }
            }
            ctx.barrier();
            team_reset_guard(ctx);
            let mut view = CachedView::new(&map, 1024, 16);
            // Batch with duplicates and absent keys.
            let keys: Vec<u64> = (0..40u64).map(|i| i % 25).chain([200, 201]).collect();
            let got = view.get_many(ctx, &keys);
            for (k, v) in keys.iter().zip(&got) {
                assert_eq!(*v, if *k < 50 { Some(*k + 1) } else { None });
            }
            let stats = ctx.stats().snapshot();
            assert_eq!(stats.rpc_round_trips, 1, "expected one aggregated fill");
            assert_eq!(stats.cache_misses, 27, "25 distinct present + 2 absent");
            assert_eq!(stats.cache_hits, 15, "duplicates served without traffic");
            // A second batch over the same keys is traffic-free except the
            // (empty) collective round.
            let again = view.get_many(ctx, &keys);
            assert_eq!(again, got);
            let stats2 = ctx.stats().snapshot();
            assert_eq!(stats2.cache_misses, 27);
            assert_eq!(stats2.cache_hits, 15 + keys.len() as u64);
        });
    }

    /// Keys below this hold `3 * key` in [`check_view`]'s table; the rest are
    /// absent.
    const PRESENT: u64 = 200;
    /// Bytes the weighted views of [`check_view`] pretend their rank owns.
    const OWNED: usize = 1000;

    fn weigh(v: &u64) -> usize {
        (*v % 5) as usize + 1
    }

    /// Reads four batches through one view — `weighted` means byte-bounded
    /// and foreign-only — and checks every value, counter and bound against
    /// per-key reads of the table.
    fn check_view(ctx: &Ctx, what: &str, weighted: bool, capacity: usize, onesided: bool) {
        let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
        if ctx.rank() == 0 {
            for k in 0..PRESENT {
                map.insert(ctx, k, k * 3);
            }
        }
        ctx.barrier();
        ctx.stats().reset();
        let residency = Residency {
            owned: OWNED,
            fetched: Counter::contig_fetch_bytes,
            resident: Counter::contig_bytes_resident,
        };
        let mut view = if weighted {
            CachedView::new_weighted(&map, capacity, 7, weigh, residency)
        } else {
            CachedView::new(&map, capacity, 7)
        };
        let read = |view: &mut CachedView<u64, u64>, keys: &[u64]| {
            let before = ctx.stats().snapshot();
            let got = if onesided {
                view.get_many_onesided(ctx, keys)
            } else {
                view.get_many(ctx, keys)
            };
            let after = ctx.stats().snapshot();
            (
                got,
                after.cache_hits - before.cache_hits,
                after.cache_misses - before.cache_misses,
                (after.contig_fetch_bytes - before.contig_fetch_bytes) as usize,
            )
        };
        let is_mine = |k: &u64| map.owner_of(k) == ctx.rank();
        let mut peak = 0usize;
        for round in 0..4u64 {
            let at = format!("{what}, {} ranks, round {round}", ctx.ranks());
            // ~70 distinct keys a round, several times what either capacity
            // holds: duplicates inside the batch, keys past the table's end,
            // and a different set on every rank.
            let start = round * 45 + ctx.rank() as u64 * 11;
            let keys: Vec<u64> = (0..100u64)
                .map(|i| (start + i % 70) % (PRESENT + 30))
                .chain([PRESENT + 500, start % PRESENT])
                .collect();
            let oracle: Vec<Option<u64>> = keys.iter().map(|k| map.get_cloned(ctx, k)).collect();
            let mut missing: Vec<u64> = keys.clone();
            missing.retain(|k| view.cache().peek(k).is_none());
            missing.sort_unstable();
            missing.dedup();
            let (got, hits, misses, fetched) = read(&mut view, &keys);
            assert_eq!(got, oracle, "{at}");
            assert_eq!(
                misses,
                missing.len() as u64,
                "{at}: a duplicate costs one fetch"
            );
            assert_eq!(hits, (keys.len() - missing.len()) as u64, "{at}");
            let resident = view.cache().resident_weight();
            assert!(resident <= capacity, "{at}: {resident} over the bound");
            peak = peak.max(resident);
            if weighted {
                let foreign: usize = missing
                    .iter()
                    .filter(|k| !is_mine(k) && **k < PRESENT)
                    .map(|k| weigh(&(k * 3)))
                    .sum();
                assert_eq!(fetched, foreign, "{at}: fetched weight");
                assert_eq!(view.resident_bytes(), OWNED + resident, "{at}");
                let owned_resident = (0..PRESENT + 30)
                    .filter(|k| is_mine(k) && view.cache().peek(k).is_some())
                    .count();
                assert_eq!(owned_resident, 0, "{at}: an owned key is cached");
            }
        }
        if weighted {
            let recorded = ctx.stats().snapshot().contig_bytes_resident as usize;
            assert!(
                (OWNED + peak..=OWNED + capacity).contains(&recorded),
                "{what}"
            );
        }
        // Absences are cached like values: the second read of an absent key
        // the view admits is a hit.
        let admits = capacity > 0 && !(weighted && ctx.ranks() == 1);
        let absent = (PRESENT + 1000..)
            .find(|k| !(admits && weighted && is_mine(k)))
            .expect("some absent key is foreign");
        assert_eq!(read(&mut view, &[absent]), (vec![None], 0, 1, 0), "{what}");
        let again = (vec![None], u64::from(admits), u64::from(!admits), 0);
        assert_eq!(read(&mut view, &[absent]), again, "{what}: absence cached");
    }

    /// A value that counts its clones on the cloning thread.
    #[derive(Debug, PartialEq)]
    struct Counted(u64);

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|n| n.set(n.get() + 1));
            Counted(self.0)
        }
    }

    fn residency() -> Residency {
        Residency {
            owned: OWNED,
            fetched: Counter::contig_fetch_bytes,
            resident: Counter::contig_bytes_resident,
        }
    }

    #[test]
    fn a_fetched_value_is_copied_into_the_cache_and_once_per_duplicate() {
        // Rank 0 reads one-sided, so every probe clones on its own thread.
        Team::single_node(2).run(|ctx| {
            let map: Arc<DistMap<u64, Counted>> = DistMap::shared(ctx);
            if ctx.rank() == 0 {
                for k in 0..40u64 {
                    map.insert(ctx, k, Counted(k));
                }
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                let foreign: Vec<u64> = (0..40).filter(|k| map.owner_of(k) == 1).collect();
                let owned = (0..40)
                    .find(|k| map.owner_of(k) == 0)
                    .expect("an owned key");
                let mut view =
                    CachedView::new_weighted(&map, 1000, 16, |_: &Counted| 1, residency());
                let cached = foreign[2];
                view.get_many_onesided(ctx, &[cached]);
                let (f0, f1) = (foreign[0], foreign[1]);
                let keys = [f0, f1, f0, cached, owned, f0, owned];
                let before = (CLONES.with(|n| n.get()), ctx.stats().snapshot());
                let got = view.get_many_onesided(ctx, &keys);
                let clones = CLONES.with(|n| n.get()) - before.0;
                let stats = ctx.stats().snapshot().delta_from(&before.1);
                let values: Vec<u64> = got.iter().map(|v| v.as_ref().expect("present").0).collect();
                assert_eq!(values, keys);
                assert_eq!((stats.cache_hits, stats.cache_misses), (4, 3));
                // One probe per distinct miss (f0, f1, owned), one copy into
                // the cache per admitted one (f0, f1: the owned key stays
                // out), one per duplicate beyond a key's last use (f0 twice,
                // owned once) and one per cache hit.
                assert_eq!(clones, 3 + 2 + 3 + 1);
            }
            ctx.barrier();
        });
    }

    #[test]
    fn get_many_foreign_records_what_get_many_does_and_copies_no_owned_value() {
        for ranks in 1..=3usize {
            Team::single_node(ranks).run(|ctx| {
                let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
                if ctx.rank() == 0 {
                    for k in 0..PRESENT {
                        map.insert(ctx, k, k * 3);
                    }
                }
                ctx.barrier();
                let keys: Vec<u64> = (0..120u64)
                    .map(|i| (i * 7 + ctx.rank() as u64) % (PRESENT + 20))
                    .collect();
                let read = |foreign_only: bool| {
                    ctx.barrier();
                    ctx.stats().reset();
                    ctx.barrier();
                    let mut view = CachedView::new_weighted(&map, 40, 7, weigh, residency());
                    let mut got = Vec::new();
                    for batch in keys.chunks(30) {
                        got.extend(if foreign_only {
                            view.get_many_foreign(ctx, batch)
                        } else {
                            view.get_many(ctx, batch)
                        });
                    }
                    (got, ctx.stats().snapshot())
                };
                let (all, all_stats) = read(false);
                let (foreign, foreign_stats) = read(true);
                assert_eq!(foreign_stats, all_stats, "{ranks} ranks");
                for ((key, a), f) in keys.iter().zip(&all).zip(&foreign) {
                    let mine = map.owner_of(key) == ctx.rank();
                    assert_eq!(*f, if mine { None } else { *a }, "key {key}");
                }
            });
        }
    }

    #[test]
    fn every_view_matches_a_per_key_oracle() {
        // (what, byte-weighted and foreign-only, capacity, one-sided fill)
        let cases = [
            ("entries, admits every key, collective", false, 16, false),
            (
                "weighted, foreign-only, collective: stores",
                true,
                40,
                false,
            ),
            ("weighted, foreign-only, one-sided: stores", true, 40, true),
            ("capacity 0", false, 0, false),
            ("weighted capacity 0, one-sided", true, 0, true),
        ];
        for ranks in 1..=4usize {
            for (what, weighted, capacity, onesided) in cases {
                Team::single_node(ranks)
                    .run(|ctx| check_view(ctx, what, weighted, capacity, onesided));
            }
        }
    }
}

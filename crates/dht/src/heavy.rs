//! Streaming heavy-hitter detection (Space-Saving sketch).
//!
//! §II-B: metagenomes contain k-mers that occur millions of times (from highly
//! abundant organisms). Routing all of their occurrences to a single owner
//! rank would create severe load imbalance, so HipMer/MetaHipMer first
//! identify such "heavy hitters" with a streaming summary and treat them
//! specially (their counts are accumulated locally and combined once).
//! [`SpaceSaving`] is the classic counter-based summary used for this purpose:
//! it never misses a key whose true frequency exceeds `N / capacity`.
//!
//! **Why a heap.** A k-mer stream is dominated by keys seen once, so at
//! capacity almost every offer is a miss that evicts the minimum counter.
//! The counters therefore sit in slots ordered by an indexed binary min-heap:
//! finding and replacing the minimum costs O(log capacity) compares, not a
//! walk over every counter, and a hit only sifts the bumped counter down.
//!
//! **Why `(count, slot)`.** Space-Saving leaves open which of several minimal
//! counters goes. Ordering the heap by `(count, slot)` — a total order, a key
//! keeps its slot until it is evicted and the evicting key takes the slot
//! over — makes the evicted counter a function of the offer sequence alone,
//! not of a hash map's iteration order or of how the heap happened to be
//! arranged, so a test can hold the heap to a plain scan for that minimum.

use crate::fxhash::FxHashMap;
use std::hash::Hash;

/// One tracked key.
#[derive(Debug, Clone)]
struct Counter<K> {
    key: K,
    count: u64,
    /// How much of `count` may belong to keys evicted from this slot.
    error: u64,
}

/// A Space-Saving (Metwally et al.) top-k frequency sketch.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    capacity: usize,
    /// The counters; a key keeps its slot until it is evicted, and the key
    /// that evicts it takes the slot over.
    slots: Vec<Counter<K>>,
    /// key -> slot
    slot_of: FxHashMap<K, usize>,
    /// Slots as a binary min-heap on `(count, slot)`.
    heap: Vec<usize>,
    /// slot -> position in `heap`
    heap_pos: Vec<usize>,
    total: u64,
}

impl<K: Hash + Eq + Clone> SpaceSaving<K> {
    /// Creates a sketch tracking at most `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SpaceSaving {
            capacity,
            slots: Vec::new(),
            slot_of: FxHashMap::default(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            total: 0,
        }
    }

    /// Number of items offered so far (sum of weights).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of tracked keys (≤ capacity).
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Offers one occurrence of `key` with the given weight.
    pub fn offer(&mut self, key: K, weight: u64) {
        self.total += weight;
        if let Some(&slot) = self.slot_of.get(&key) {
            self.slots[slot].count += weight;
            self.sift_down(self.heap_pos[slot]);
            return;
        }
        if self.slots.len() < self.capacity {
            self.push_slot(Counter {
                key,
                count: weight,
                error: 0,
            });
            return;
        }
        // Evict the minimum counter and take over its count as error bound;
        // among equal counts the lowest slot goes.
        let slot = self.heap[0];
        let evicted = &mut self.slots[slot];
        let min_count = evicted.count;
        self.slot_of.remove(&evicted.key);
        *evicted = Counter {
            key: key.clone(),
            count: min_count + weight,
            error: min_count,
        };
        self.slot_of.insert(key, slot);
        self.sift_down(0);
    }

    /// The tracked counters as plain `(key, count, error)` records in slot
    /// order — with [`total`](Self::total), everything
    /// [`merge_counters`](Self::merge_counters) needs to merge this sketch
    /// somewhere else (another rank, say).
    pub fn counters(&self) -> impl Iterator<Item = (K, u64, u64)> + '_ {
        self.slots.iter().map(|c| (c.key.clone(), c.count, c.error))
    }

    /// Merges another sketch into this one (used to combine per-rank sketches).
    pub fn merge(&mut self, other: &SpaceSaving<K>) {
        self.merge_counters(other.counters(), other.total);
    }

    /// Merges a sketch given as its [`counters`](Self::counters) and its
    /// [`total`](Self::total): counts and errors of shared keys add up, and
    /// the largest `capacity` counters stay (among equal counts this sketch's
    /// own, then the incoming ones in the order given).
    pub fn merge_counters(
        &mut self,
        counters: impl IntoIterator<Item = (K, u64, u64)>,
        total: u64,
    ) {
        for (key, count, error) in counters {
            match self.slot_of.get(&key) {
                Some(&slot) => {
                    self.slots[slot].count += count;
                    self.slots[slot].error += error;
                }
                None => {
                    self.slot_of.insert(key.clone(), self.slots.len());
                    self.slots.push(Counter { key, count, error });
                }
            }
        }
        self.total += total;
        // Every count may have grown and new slots are not in the heap yet:
        // drop the smallest counters down to capacity and re-seat the rest.
        let mut merged = std::mem::take(&mut self.slots);
        merged.sort_by_key(|c| std::cmp::Reverse(c.count));
        merged.truncate(self.capacity);
        self.slot_of.clear();
        self.heap.clear();
        self.heap_pos.clear();
        for counter in merged {
            self.push_slot(counter);
        }
    }

    /// Returns every tracked key whose *guaranteed* count (count − error)
    /// meets `threshold`, sorted by estimated count descending.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut out: Vec<(K, u64)> = self
            .slots
            .iter()
            .filter(|c| c.count.saturating_sub(c.error) >= threshold)
            .map(|c| (c.key.clone(), c.count))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1));
        out
    }

    /// The estimated count of a key (0 if untracked).
    pub fn estimate(&self, key: &K) -> u64 {
        self.slot_of
            .get(key)
            .map_or(0, |&slot| self.slots[slot].count)
    }

    /// Seats a counter for an untracked key in a new slot.
    fn push_slot(&mut self, counter: Counter<K>) {
        let slot = self.slots.len();
        self.slot_of.insert(counter.key.clone(), slot);
        self.slots.push(counter);
        self.heap_pos.push(self.heap.len());
        self.heap.push(slot);
        self.sift_up(self.heap.len() - 1);
    }

    /// Heap order of a slot.
    fn rank(&self, slot: usize) -> (u64, usize) {
        (self.slots[slot].count, slot)
    }

    fn swap_heap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a]] = a;
        self.heap_pos[self.heap[b]] = b;
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.rank(self.heap[parent]) <= self.rank(self.heap[pos]) {
                break;
            }
            self.swap_heap(parent, pos);
            pos = parent;
        }
    }

    /// Restores heap order after the counter at `pos` grew.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let mut least = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < self.heap.len()
                    && self.rank(self.heap[child]) < self.rank(self.heap[least])
                {
                    least = child;
                }
            }
            if least == pos {
                return;
            }
            self.swap_heap(pos, least);
            pos = least;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eviction the heap replaces, kept as the oracle: a miss at capacity
    /// scans every counter for the minimum by `(count, slot)`.
    struct ScanningSketch {
        capacity: usize,
        /// `(key, count, error)` by slot.
        slots: Vec<(u64, u64, u64)>,
    }

    impl ScanningSketch {
        fn offer(&mut self, key: u64, weight: u64) {
            if let Some(hit) = self.slots.iter_mut().find(|c| c.0 == key) {
                hit.1 += weight;
            } else if self.slots.len() < self.capacity {
                self.slots.push((key, weight, 0));
            } else {
                let slot = (0..self.slots.len())
                    .min_by_key(|&slot| (self.slots[slot].1, slot))
                    .unwrap();
                let min_count = self.slots[slot].1;
                self.slots[slot] = (key, min_count + weight, min_count);
            }
        }
    }

    /// `(key, weight)` offers shaped like a k-mer stream: three hot keys, a
    /// warm band and a long tail of keys seen once, weights 1–3.
    fn skewed_stream(len: usize) -> Vec<(u64, u64)> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut singleton = 1_000_000u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = match state % 100 {
                    0..=14 => state % 3,         // three hot keys
                    15..=29 => 10 + state % 200, // warm band
                    _ => {
                        singleton += 1;
                        singleton
                    }
                };
                (key, 1 + (state >> 40) % 3)
            })
            .collect()
    }

    /// What has to hold between the four index structures after any
    /// operation.
    fn assert_invariants(ss: &SpaceSaving<u64>) {
        let n = ss.tracked();
        assert!(n <= ss.capacity);
        assert_eq!(ss.heap.len(), n);
        assert_eq!(ss.heap_pos.len(), n);
        assert_eq!(ss.slot_of.len(), n);
        for (slot, counter) in ss.slots.iter().enumerate() {
            assert_eq!(ss.slot_of[&counter.key], slot);
            assert!(counter.error <= counter.count);
        }
        for pos in 0..n {
            assert_eq!(ss.heap_pos[ss.heap[pos]], pos);
            if pos > 0 {
                let parent = ss.heap[(pos - 1) / 2];
                assert!(ss.rank(parent) <= ss.rank(ss.heap[pos]), "heap order");
            }
        }
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(100);
        for i in 0..50u32 {
            for _ in 0..=i {
                ss.offer(i, 1);
            }
        }
        for i in 0..50u32 {
            assert_eq!(ss.estimate(&i), (i + 1) as u64);
        }
        assert_eq!(ss.tracked(), 50);
    }

    #[test]
    fn finds_true_heavy_hitter_in_noise() {
        let mut ss = SpaceSaving::new(16);
        // One key occurs 10_000 times among 20_000 distinct noise keys.
        for i in 0..10_000u64 {
            ss.offer(u64::MAX, 1);
            ss.offer(i, 1);
            ss.offer(10_000 + i, 1);
        }
        let hh = ss.heavy_hitters(5_000);
        assert!(
            hh.iter().any(|(k, _)| *k == u64::MAX),
            "missed the heavy hitter"
        );
        assert!(ss.estimate(&u64::MAX) >= 10_000);
        assert_eq!(ss.tracked(), 16);
    }

    #[test]
    fn merge_combines_sketches() {
        let mut a = SpaceSaving::new(8);
        let mut b = SpaceSaving::new(8);
        for _ in 0..500 {
            a.offer("hot", 1);
            b.offer("hot", 1);
            b.offer("warm", 1);
        }
        a.merge(&b);
        assert_eq!(a.total(), 1500);
        assert!(a.estimate(&"hot") >= 1000);
        assert!(a.estimate(&"warm") >= 500);
        let hh = a.heavy_hitters(900);
        assert_eq!(hh[0].0, "hot");
    }

    #[test]
    fn weights_respected() {
        let mut ss = SpaceSaving::new(4);
        ss.offer(1u8, 10);
        ss.offer(2u8, 3);
        assert_eq!(ss.estimate(&1), 10);
        assert_eq!(ss.total(), 13);
    }

    /// Space-Saving's guarantees against exact counts on the skewed stream.
    #[test]
    fn estimates_bracket_exact_counts_on_a_skewed_stream() {
        let stream = skewed_stream(60_000);
        let mut exact: FxHashMap<u64, u64> = FxHashMap::default();
        for &(key, weight) in &stream {
            *exact.entry(key).or_default() += weight;
        }
        let n: u64 = exact.values().sum();
        for capacity in [1usize, 7, 64] {
            let mut ss = SpaceSaving::new(capacity);
            for &(key, weight) in &stream {
                ss.offer(key, weight);
            }
            assert_eq!(ss.total(), n);
            assert_eq!(ss.tracked(), capacity);
            for (key, count, error) in ss.counters() {
                let truth = exact[&key];
                assert!(count >= truth, "estimate under the true count");
                assert!(
                    count - error <= truth,
                    "guaranteed count over the true count"
                );
                assert_eq!(ss.estimate(&key), count);
            }
            for (key, &truth) in &exact {
                if truth > n / capacity as u64 {
                    assert!(
                        ss.estimate(key) > 0,
                        "key with count {truth} of {n} untracked"
                    );
                }
            }
        }
    }

    #[test]
    fn offer_evicts_what_a_full_scan_would() {
        let stream = skewed_stream(20_000);
        for capacity in [1usize, 2, 7, 64] {
            let mut ss = SpaceSaving::new(capacity);
            let mut scan = ScanningSketch {
                capacity,
                slots: Vec::new(),
            };
            for (i, &(key, weight)) in stream.iter().enumerate() {
                ss.offer(key, weight);
                scan.offer(key, weight);
                assert!(
                    ss.counters().eq(scan.slots.iter().copied()),
                    "capacity {capacity}: counters differ after offer {i}"
                );
            }
            assert_eq!(ss.tracked(), capacity);
        }
    }

    #[test]
    fn heap_invariants_hold_after_offers_and_merges() {
        let stream = skewed_stream(9_000);
        let sketch_of = |capacity: usize, offers: &[(u64, u64)]| {
            let mut ss = SpaceSaving::new(capacity);
            for &(key, weight) in offers {
                ss.offer(key, weight);
                assert_invariants(&ss);
            }
            ss
        };
        let (first, rest) = stream.split_at(3_000);
        let (second, third) = rest.split_at(3_000);
        // Overlapping: both saw the hot keys and the warm band.
        let mut a = sketch_of(64, first);
        let b = sketch_of(64, second);
        a.merge(&b);
        assert_invariants(&a);
        assert_eq!(a.tracked(), 64);
        assert_eq!(
            a.total(),
            first.iter().chain(second).map(|o| o.1).sum::<u64>()
        );
        // Disjoint, and fewer keys than capacity on both sides.
        let mut c = sketch_of(7, &[(1, 5), (2, 1)]);
        c.merge(&sketch_of(7, &[(3, 2), (4, 9), (5, 1)]));
        assert_invariants(&c);
        assert_eq!(c.tracked(), 5);
        // Into the one-counter placeholder the binomial-tree reduction
        // leaves behind on a rank that handed its sketch on.
        let mut placeholder = SpaceSaving::new(1);
        placeholder.merge(&a);
        assert_invariants(&placeholder);
        assert_eq!(placeholder.tracked(), 1);
        assert_eq!(placeholder.total(), a.total());
        let top = a.heavy_hitters(0)[0];
        assert_eq!(placeholder.estimate(&top.0), top.1);
        // Merged sketches keep taking offers.
        for mut merged in [a, c, placeholder] {
            for &(key, weight) in third {
                merged.offer(key, weight);
                assert_invariants(&merged);
            }
        }
    }

    #[test]
    fn merged_sketch_keeps_the_largest_counters_and_stays_usable() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        for (key, n) in [(1u32, 50), (2, 40), (3, 5), (4, 4)] {
            a.offer(key, n);
        }
        for (key, n) in [(1u32, 10), (5, 30), (6, 5), (7, 1)] {
            b.offer(key, n);
        }
        a.merge(&b);
        assert_eq!(a.tracked(), 4);
        assert_eq!(a.total(), 145);
        // 3 and 6 tie at 5: the receiving sketch's own key stays.
        let mut kept: Vec<(u32, u64)> = a.heavy_hitters(0);
        kept.sort_unstable();
        assert_eq!(kept, vec![(1, 60), (2, 40), (3, 5), (5, 30)]);
        // Offers after a merge evict the merged minimum.
        a.offer(9, 1);
        assert_eq!(a.estimate(&3), 0);
        assert_eq!(a.estimate(&9), 6);
        assert_eq!(a.tracked(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::<u32>::new(0);
    }
}

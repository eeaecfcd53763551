//! Streaming heavy-hitter detection (Space-Saving sketch).
//!
//! §II-B: metagenomes contain k-mers that occur millions of times (from highly
//! abundant organisms). Routing all of their occurrences to a single owner
//! rank would create severe load imbalance, so HipMer/MetaHipMer first
//! identify such "heavy hitters" with a streaming summary and treat them
//! specially (their counts are accumulated locally and combined once).
//! [`SpaceSaving`] is the classic counter-based summary used for this purpose:
//! it never misses a key whose true frequency exceeds `N / capacity`.

use crate::fxhash::FxHashMap;
use std::hash::Hash;

/// A Space-Saving (Metwally et al.) top-k frequency sketch.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    capacity: usize,
    /// key -> (count, overestimation error)
    counters: FxHashMap<K, (u64, u64)>,
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
            counters: FxHashMap::default(),
            total: 0,
        }
    }

    /// Number of items offered so far (sum of weights).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of tracked keys (≤ capacity).
    pub fn tracked(&self) -> usize {
        self.counters.len()
    }

    /// Offers one occurrence of `key` with the given weight.
    pub fn offer(&mut self, key: K, weight: u64) {
        self.total += weight;
        if let Some(entry) = self.counters.get_mut(&key) {
            entry.0 += weight;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, (weight, 0));
            return;
        }
        // Evict the minimum counter and take over its count as error bound.
        let (min_key, min_count) = self
            .counters
            .iter()
            .min_by_key(|(_, &(c, _))| c)
            .map(|(k, &(c, _))| (k.clone(), c))
            // lint: allow(unwrap): this branch only runs when len == capacity > 0
            .expect("sketch is non-empty at capacity");
        self.counters.remove(&min_key);
        self.counters.insert(key, (min_count + weight, min_count));
    }

    /// Merges another sketch into this one (used to combine per-rank sketches).
    pub fn merge(&mut self, other: &SpaceSaving<K>) {
        for (k, &(count, err)) in &other.counters {
            match self.counters.get_mut(k) {
                Some(entry) => {
                    entry.0 += count;
                    entry.1 += err;
                }
                None => {
                    self.counters.insert(k.clone(), (count, err));
                }
            }
        }
        self.total += other.total;
        // Re-trim to capacity by dropping the smallest counters.
        if self.counters.len() > self.capacity {
            let mut entries: Vec<(K, (u64, u64))> = self.counters.drain().collect();
            entries.sort_by_key(|e| std::cmp::Reverse(e.1 .0));
            entries.truncate(self.capacity);
            self.counters = entries.into_iter().collect();
        }
    }

    /// Returns every tracked key whose *guaranteed* count (count − error)
    /// meets `threshold`, sorted by estimated count descending.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut out: Vec<(K, u64)> = self
            .counters
            .iter()
            .filter(|(_, &(c, e))| c.saturating_sub(e) >= threshold)
            .map(|(k, &(c, _))| (k.clone(), c))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1));
        out
    }

    /// The estimated count of a key (0 if untracked).
    pub fn estimate(&self, key: &K) -> u64 {
        self.counters.get(key).map(|&(c, _)| c).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Space-Saving's guarantees against exact counts, on a stream of a few
    /// hot keys, a warm band and a long tail of keys seen once (the shape of
    /// a k-mer stream), offered with mixed weights.
    #[test]
    fn estimates_bracket_exact_counts_on_a_skewed_stream() {
        for capacity in [1usize, 7, 64] {
            let mut ss = SpaceSaving::new(capacity);
            let mut exact: FxHashMap<u64, u64> = FxHashMap::default();
            let mut state = 0x9E3779B97F4A7C15u64;
            let mut singleton = 1_000_000u64;
            for _ in 0..60_000 {
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
                let weight = 1 + (state >> 40) % 3;
                ss.offer(key, weight);
                *exact.entry(key).or_default() += weight;
            }
            let n: u64 = exact.values().sum();
            assert_eq!(ss.total(), n);
            assert_eq!(ss.tracked(), capacity);
            for (key, &(count, error)) in &ss.counters {
                let truth = exact[key];
                assert!(count >= truth, "estimate under the true count");
                assert!(
                    count - error <= truth,
                    "guaranteed count over the true count"
                );
                assert_eq!(ss.estimate(key), count);
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
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::<u32>::new(0);
    }
}

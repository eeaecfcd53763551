//! Distributed Bloom filter.
//!
//! K-mer analysis on metagenomes would explode in memory if every erroneous
//! singleton k-mer were given a full hash-table entry. HipMer/MetaHipMer avoid
//! this with a distributed Bloom filter: a k-mer is only inserted into the
//! counting table once the filter reports it has (probably) been seen before,
//! so the vast majority of error k-mers (which appear exactly once) never take
//! up table space.
//!
//! **No pipeline stage uses this filter.** K-mer analysis here counts exactly
//! and drops singletons at the ε cut (see `dbg::analysis`), so admission
//! changed nothing and was removed. The type is kept only because the
//! performance ledger's `dht.bloom_insert_mitems_s` probe names
//! [`DistBloom::new`] and [`DistBloom::insert_and_check`]; once that probe is
//! dropped (ROADMAP [bench]) this module can go.

use crate::fxhash::fx_hash_one;
use pgas::Ctx;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

/// A partitioned Bloom filter with atomically updated bit words.
pub struct DistBloom {
    /// One bit array per owner shard.
    shards: Vec<Vec<AtomicU64>>,
    bits_per_shard: usize,
    hashes: usize,
}

impl DistBloom {
    /// Creates a filter partitioned over `ranks` shards, sized for
    /// `expected_items_per_shard` items at roughly the given false-positive
    /// rate.
    pub fn new(ranks: usize, expected_items_per_shard: usize, fp_rate: f64) -> Self {
        assert!(ranks > 0);
        let n = expected_items_per_shard.max(16) as f64;
        let fp = fp_rate.clamp(1e-6, 0.5);
        // Standard Bloom sizing: m = -n ln p / (ln 2)^2 ; k = m/n ln 2.
        let m =
            (-(n * fp.ln()) / (std::f64::consts::LN_2 * std::f64::consts::LN_2)).ceil() as usize;
        let bits_per_shard = m.next_power_of_two().max(64);
        let hashes = ((bits_per_shard as f64 / n) * std::f64::consts::LN_2)
            .round()
            .max(1.0) as usize;
        let words = bits_per_shard / 64;
        DistBloom {
            shards: (0..ranks)
                .map(|_| (0..words).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            bits_per_shard,
            hashes: hashes.min(8),
        }
    }

    /// The owner shard of a key (same convention as [`crate::DistMap`]).
    pub fn owner_of<K: Hash>(&self, key: &K) -> usize {
        (fx_hash_one(key) % self.shards.len() as u64) as usize
    }

    fn probes<K: Hash>(&self, key: &K) -> impl Iterator<Item = usize> + '_ {
        // Double hashing: position_i = h1 + i*h2 (Kirsch–Mitzenmacher).
        let h = fx_hash_one(key);
        let h1 = h & 0xFFFF_FFFF;
        let h2 = (h >> 32) | 1; // odd so it is coprime with the power-of-two size
        let mask = (self.bits_per_shard - 1) as u64;
        (0..self.hashes)
            .map(move |i| ((h1.wrapping_add(h2.wrapping_mul(i as u64))) & mask) as usize)
    }

    /// Inserts a key and returns whether it was (probably) present before —
    /// the "second occurrence" signal the paper uses to admit k-mers into the
    /// counting table. Atomic with respect to concurrent inserts.
    pub fn insert_and_check<K: Hash>(&self, ctx: &Ctx, key: &K) -> bool {
        let owner = self.owner_of(key);
        ctx.record_access(owner);
        let shard = &self.shards[owner];
        let mut all_set = true;
        for bit in self.probes(key) {
            let word = bit / 64;
            let mask = 1u64 << (bit % 64);
            let prev = shard[word].fetch_or(mask, Ordering::Relaxed);
            if prev & mask == 0 {
                all_set = false;
            }
        }
        all_set
    }

    /// Membership test without inserting.
    pub fn maybe_contains<K: Hash>(&self, ctx: &Ctx, key: &K) -> bool {
        let owner = self.owner_of(key);
        ctx.record_access(owner);
        let shard = &self.shards[owner];
        self.probes(key).all(|bit| {
            let word = bit / 64;
            let mask = 1u64 << (bit % 64);
            shard[word].load(Ordering::Relaxed) & mask != 0
        })
    }

    /// Total bits per shard (for introspection/tests).
    pub fn bits_per_shard(&self) -> usize {
        self.bits_per_shard
    }

    /// Number of probe positions per key.
    pub fn num_hashes(&self) -> usize {
        self.hashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;
    use std::sync::Arc;

    #[test]
    fn inserted_keys_are_found() {
        let team = Team::single_node(2);
        team.run(|ctx| {
            let bloom = ctx.share(|| DistBloom::new(ctx.ranks(), 10_000, 0.01));
            if ctx.rank() == 0 {
                for i in 0..1000u64 {
                    bloom.insert_and_check(ctx, &i);
                }
            }
            ctx.barrier();
            for i in 0..1000u64 {
                assert!(bloom.maybe_contains(ctx, &i), "false negative for {i}");
            }
        });
    }

    #[test]
    fn second_insert_reports_seen() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let bloom = DistBloom::new(1, 1000, 0.01);
            assert!(!bloom.insert_and_check(ctx, &42u64));
            assert!(bloom.insert_and_check(ctx, &42u64));
        });
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let bloom = DistBloom::new(1, 10_000, 0.01);
            for i in 0..10_000u64 {
                bloom.insert_and_check(ctx, &i);
            }
            let fps = (100_000u64..200_000u64)
                .filter(|i| bloom.maybe_contains(ctx, i))
                .count();
            let rate = fps as f64 / 100_000.0;
            assert!(rate < 0.05, "false positive rate too high: {rate}");
        });
    }

    #[test]
    fn concurrent_inserts_never_lose_bits() {
        let team = Team::single_node(4);
        let bloom_handle = {
            let team2 = Arc::clone(&team);
            team2.run(|ctx| {
                let bloom = ctx.share(|| DistBloom::new(ctx.ranks(), 50_000, 0.01));
                // All ranks insert an interleaved key range concurrently.
                for i in (ctx.rank() as u64..40_000).step_by(ctx.ranks()) {
                    bloom.insert_and_check(ctx, &i);
                }
                ctx.barrier();
                // Everything must now be visible to every rank.

                (0..40_000u64)
                    .filter(|i| !bloom.maybe_contains(ctx, i))
                    .count()
            })
        };
        assert!(bloom_handle.iter().all(|&m| m == 0));
    }

    #[test]
    fn sizing_monotonic_in_fp_rate() {
        let tight = DistBloom::new(1, 10_000, 0.001);
        let loose = DistBloom::new(1, 10_000, 0.1);
        assert!(tight.bits_per_shard() >= loose.bits_per_shard());
        assert!(tight.num_hashes() >= 1 && tight.num_hashes() <= 8);
    }
}

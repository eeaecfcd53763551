//! Pluggable key→owner-rank assignment for the distributed hash tables.
//!
//! Every [`crate::DistMap`] routes a key to its owner rank through a
//! [`Partitioner`]. The default, [`HashPartitioner`], spreads keys uniformly
//! by hashing — the right choice when accesses are independent. Some phases,
//! however, know more about their access pattern than a hash does: k-mer
//! analysis routes *supermers* (runs of overlapping k-mers sharing a
//! minimizer) and needs every k-mer of a supermer to be owned by the same
//! rank, so its counts table is built with a minimizer-based partitioner
//! (see `dbg::KmerTable`). Because every access path of `DistMap`
//! goes through [`crate::DistMap::owner_of`], consumers of a table — graph
//! construction, injection, batched lookups, cached views — keep working
//! unchanged whatever the partitioner.
//!
//! Implementations must be **deterministic and identical on every rank**:
//! ranks compute owners independently and the table is only consistent if
//! they all agree. The sub-map a key takes within its owner's shard stays
//! hash-based regardless of the partitioner.

use crate::fxhash::fx_hash_one;
use std::hash::Hash;

/// Deterministic key→owner assignment shared by all ranks of a team.
pub trait Partitioner<K>: Send + Sync {
    /// The owner rank of `key` among `ranks` ranks (must be `< ranks`).
    fn owner_of(&self, key: &K, ranks: usize) -> usize;
}

/// The default partitioner: owner = `fx_hash(key) % ranks`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    #[inline]
    fn owner_of(&self, key: &K, ranks: usize) -> usize {
        (fx_hash_one(key) % ranks as u64) as usize
    }
}

/// An explicit owner table for dense `u64` key spaces (contig ids): key `i`
/// is owned by `owners[i]`. Keys beyond the table fall back to hashing, so a
/// map keyed this way still behaves for stray ids. The table is computed once
/// (identically on every rank, e.g. size-balanced longest-first assignment of
/// contigs) and shared; it costs O(#keys) small ints, not O(payload).
#[derive(Debug, Clone)]
pub struct TablePartitioner {
    owners: std::sync::Arc<Vec<u32>>,
}

impl TablePartitioner {
    /// Wraps an owner table. Every entry must be a valid rank of the team the
    /// table is used with; `owner_of` clamps by modulo as a defence.
    pub fn new(owners: Vec<u32>) -> Self {
        TablePartitioner {
            owners: std::sync::Arc::new(owners),
        }
    }

    /// The owner table.
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }
}

impl Partitioner<u64> for TablePartitioner {
    #[inline]
    fn owner_of(&self, key: &u64, ranks: usize) -> usize {
        match self.owners.get(*key as usize) {
            Some(&o) => o as usize % ranks.max(1),
            None => (fx_hash_one(key) % ranks as u64) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_stable_and_spreads() {
        let p = HashPartitioner;
        let ranks = 7;
        let mut counts = vec![0usize; ranks];
        for key in 0..7_000u64 {
            let owner = p.owner_of(&key, ranks);
            assert_eq!(owner, p.owner_of(&key, ranks));
            assert!(owner < ranks);
            counts[owner] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "skewed: {counts:?}");
    }

    #[test]
    fn table_partitioner_follows_the_table_and_falls_back_to_hash() {
        let p = TablePartitioner::new(vec![2, 0, 1, 1]);
        assert_eq!(p.owner_of(&0u64, 3), 2);
        assert_eq!(p.owner_of(&1u64, 3), 0);
        assert_eq!(p.owner_of(&2u64, 3), 1);
        assert_eq!(p.owner_of(&3u64, 3), 1);
        // Out-of-table keys route by hash, deterministically and in range.
        for key in 4..100u64 {
            let o = p.owner_of(&key, 3);
            assert!(o < 3);
            assert_eq!(o, HashPartitioner.owner_of(&key, 3));
        }
        // A table entry beyond the rank count is clamped, not out of range.
        let clamped = TablePartitioner::new(vec![9]);
        assert!(clamped.owner_of(&0u64, 4) < 4);
        assert_eq!(clamped.owners(), &[9]);
    }
}

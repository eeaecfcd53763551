//! Dynamic work distribution.
//!
//! §II-G of the paper: statically assigning contigs to processors for local
//! assembly causes severe load imbalance because walk costs are unpredictable,
//! so MetaHipMer lets each processor grab blocks of work through a single
//! global atomic counter. [`DynamicBlocks`] is that counter.

use crate::stats::Counter;
use crate::team::Ctx;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared block dealer over the index range `0..total`.
///
/// Construct one per phase (collectively via [`Ctx::share`]) and have every
/// rank repeatedly call [`DynamicBlocks::next_block`] until it returns `None`.
#[derive(Debug)]
pub struct DynamicBlocks {
    next: AtomicUsize,
    total: usize,
    block: usize,
}

impl DynamicBlocks {
    /// Creates a dealer over `0..total` handing out blocks of `block` items.
    ///
    /// # Panics
    /// Panics if `block == 0`.
    pub fn new(total: usize, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        DynamicBlocks {
            next: AtomicUsize::new(0),
            total,
            block,
        }
    }

    /// Grabs the next block of work. The first block a rank grabs is "its
    /// own"; subsequent grabs are counted as steals in the rank's statistics
    /// (`is_first` lets the caller tell the two apart).
    pub fn next_block(&self, ctx: &Ctx, is_first: bool) -> Option<Range<usize>> {
        ctx.record(Counter::atomic_ops, 1);
        let start = self.next.fetch_add(self.block, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        if !is_first {
            ctx.record(Counter::steals, 1);
        }
        Some(start..(start + self.block).min(self.total))
    }

    /// Total number of items being dealt.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Convenience driver: repeatedly grabs blocks and calls `work` on every
    /// index until the pool is exhausted. Returns how many items this rank
    /// processed.
    pub fn drive(&self, ctx: &Ctx, mut work: impl FnMut(usize)) -> usize {
        let mut processed = 0usize;
        let mut first = true;
        while let Some(range) = self.next_block(ctx, first) {
            first = false;
            for i in range {
                work(i);
                processed += 1;
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn every_item_processed_exactly_once() {
        let team = Team::single_node(4);
        let total = 1003usize;
        let seen = Arc::new(Mutex::new(vec![0u32; total]));
        let seen2 = Arc::clone(&seen);
        let processed = team.run(move |ctx| {
            let blocks = ctx.share(|| DynamicBlocks::new(total, 16));
            blocks.drive(ctx, |i| {
                seen2.lock()[i] += 1;
            })
        });
        assert_eq!(processed.iter().sum::<usize>(), total);
        assert!(seen.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn empty_pool_returns_none_immediately() {
        let team = Team::single_node(2);
        let processed = team.run(|ctx| {
            let blocks = ctx.share(|| DynamicBlocks::new(0, 8));
            blocks.drive(ctx, |_| panic!("no work expected"))
        });
        assert!(processed.iter().all(|&p| p == 0));
    }

    #[test]
    fn work_stealing_balances_skewed_costs() {
        // One rank's "own" region contains all the expensive items; dynamic
        // blocks let the other ranks take over the tail.
        let team = Team::single_node(4);
        let total = 64usize;
        let processed = team.run(|ctx| {
            let blocks = ctx.share(|| DynamicBlocks::new(total, 1));
            let mut count = 0usize;
            let mut first = true;
            while let Some(range) = blocks.next_block(ctx, first) {
                first = false;
                for _i in range {
                    // Rank 0 is slow for every item; others are fast.
                    if ctx.rank() == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    count += 1;
                }
            }
            count
        });
        let total_done: usize = processed.iter().sum();
        assert_eq!(total_done, total);
        // The fast ranks must have done the lion's share.
        assert!(
            processed[0] < total / 2,
            "slow rank did {} items",
            processed[0]
        );
        assert!(team.stats_total().steals > 0);
    }
}

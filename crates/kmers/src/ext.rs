//! K-mer extensions and extension counters.
//!
//! K-mer analysis (§II-B of the paper) keeps, for every k-mer, a count of how
//! often each base is observed with high base-call quality immediately before
//! (left) and after (right) the k-mer in the reads. The de Bruijn graph
//! traversal then reduces these counts to an *extension code*: a concrete
//! base when there is a single confident extension, `F`ork when multiple
//! extensions are supported, or e`X`tensionless when none is.

/// The reduced extension of a k-mer on one side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ext {
    /// A single confident extension with the given 2-bit base code.
    Base(u8),
    /// Multiple contradictory extensions (a fork vertex in the graph).
    Fork,
    /// No observed extension (a dead end).
    None,
}

impl Ext {
    /// True if this extension lets the traversal continue.
    pub fn is_extendable(self) -> bool {
        matches!(self, Ext::Base(_))
    }
}

/// Raw observation of one k-mer instance in a read: the bases before/after it
/// (if any) and whether each had high base-call quality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtPair {
    /// 2-bit code of the base preceding the k-mer, if the k-mer is not at the
    /// start of the read; the bool is the high-quality flag.
    pub left: Option<(u8, bool)>,
    /// Same for the base following the k-mer.
    pub right: Option<(u8, bool)>,
}

impl ExtPair {
    /// Swaps sides and complements bases: the extension pair seen from the
    /// reverse-complement orientation of the k-mer.
    pub fn revcomp(self) -> ExtPair {
        let flip = |o: Option<(u8, bool)>| o.map(|(c, hq)| (3 - c, hq));
        ExtPair {
            left: flip(self.right),
            right: flip(self.left),
        }
    }
}

/// Per-side extension counters: high-quality observations of each base (the
/// only ones the reduction reads; a low-quality observation is not kept).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtCounts {
    pub hq: [u32; 4],
}

impl ExtCounts {
    /// Records one observation.
    pub fn add(&mut self, code: u8, high_quality: bool) {
        if high_quality {
            self.hq[code as usize] = self.hq[code as usize].saturating_add(1);
        }
    }

    /// Merges another counter into this one (commutative, used by the
    /// update-only distributed hash-table phase).
    pub fn merge(&mut self, other: &ExtCounts) {
        for i in 0..4 {
            self.hq[i] = self.hq[i].saturating_add(other.hq[i]);
        }
    }

    /// Total high-quality observations.
    pub fn total_hq(&self) -> u32 {
        self.hq.iter().sum()
    }

    /// Reduces the counts to an extension code.
    ///
    /// The most common high-quality extension is chosen; it is reported as a
    /// concrete base only if the number of *contradicting* high-quality
    /// observations is at most `max_contradictions` (the `thq` threshold of
    /// §II-C — global in HipMer, depth-dependent in MetaHipMer). If there are
    /// no high-quality observations at all the extension is `None`.
    pub fn reduce(&self, max_contradictions: u32) -> Ext {
        let total = self.total_hq();
        if total == 0 {
            return Ext::None;
        }
        let best = (0..4).max_by_key(|&i| self.hq[i]).expect("four elements");
        if total - self.hq[best] <= max_contradictions {
            Ext::Base(best as u8)
        } else {
            Ext::Fork
        }
    }
}

/// The full per-k-mer record accumulated by k-mer analysis: an occurrence
/// count plus left and right extension counters. The de Bruijn graph keeps
/// only what the record reduces to (the count and one extension code per
/// side), so a record lives in counting scratch and in the tables of the
/// staged stage calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KmerCounts {
    /// Number of (canonical) occurrences of the k-mer across the reads.
    pub count: u32,
    pub left: ExtCounts,
    pub right: ExtCounts,
}

impl KmerCounts {
    /// Records one canonical-orientation observation with its extensions.
    #[inline]
    pub fn observe(&mut self, exts: ExtPair) {
        self.observe_n(exts, 1);
    }

    /// Records `n` observations with the same extensions: `n` calls of
    /// [`KmerCounts::observe`] in one saturating add per counter.
    #[inline]
    pub fn observe_n(&mut self, exts: ExtPair, n: u32) {
        self.count = self.count.saturating_add(n);
        if let Some((c, true)) = exts.left {
            self.left.hq[c as usize] = self.left.hq[c as usize].saturating_add(n);
        }
        if let Some((c, true)) = exts.right {
            self.right.hq[c as usize] = self.right.hq[c as usize].saturating_add(n);
        }
    }

    /// Merges another record (commutative).
    pub fn merge(&mut self, other: &KmerCounts) {
        self.count = self.count.saturating_add(other.count);
        self.left.merge(&other.left);
        self.right.merge(&other.right);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_bases_are_extendable() {
        assert!(Ext::Base(2).is_extendable());
        assert!(!Ext::Fork.is_extendable());
        assert!(!Ext::None.is_extendable());
    }

    #[test]
    fn counts_reduce_unique_extension() {
        let mut c = ExtCounts::default();
        for _ in 0..10 {
            c.add(2, true);
        }
        assert_eq!(c.reduce(0), Ext::Base(2));
        assert_eq!(c.total_hq(), 10);
    }

    #[test]
    fn counts_reduce_fork_when_contradictions_exceed_threshold() {
        let mut c = ExtCounts::default();
        for _ in 0..10 {
            c.add(2, true);
        }
        for _ in 0..3 {
            c.add(1, true);
        }
        assert_eq!(c.reduce(2), Ext::Fork);
        assert_eq!(c.reduce(3), Ext::Base(2));
        assert_eq!(c.reduce(100), Ext::Base(2));
    }

    #[test]
    fn counts_reduce_none_without_hq_observations() {
        let mut c = ExtCounts::default();
        c.add(0, false);
        c.add(1, false);
        assert_eq!(c.reduce(10), Ext::None);
        assert_eq!(c.total_hq(), 0);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = ExtCounts::default();
        a.add(0, true);
        a.add(1, true);
        let mut b = ExtCounts::default();
        b.add(0, true);
        b.add(3, true);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.hq, [2, 1, 0, 1]);
    }

    #[test]
    fn extpair_revcomp_swaps_and_complements() {
        let p = ExtPair {
            left: Some((0, true)),   // A on the left
            right: Some((1, false)), // C on the right
        };
        let r = p.revcomp();
        assert_eq!(r.left, Some((2, false))); // complement of C = G, moved to left
        assert_eq!(r.right, Some((3, true))); // complement of A = T, moved to right
        assert_eq!(r.revcomp(), p);
    }

    #[test]
    fn kmer_counts_observe_and_merge() {
        let mut k1 = KmerCounts::default();
        k1.observe(ExtPair {
            left: Some((0, true)),
            right: None,
        });
        let mut k2 = KmerCounts::default();
        k2.observe(ExtPair {
            left: Some((0, true)),
            right: Some((2, true)),
        });
        k1.merge(&k2);
        assert_eq!(k1.count, 2);
        assert_eq!(k1.left.hq[0], 2);
        assert_eq!(k1.right.hq[2], 1);
    }

    #[test]
    fn observe_n_is_n_observations() {
        let exts = [
            ExtPair {
                left: Some((1, true)),
                right: Some((3, false)),
            },
            ExtPair {
                left: None,
                right: Some((2, true)),
            },
            ExtPair::default(),
        ];
        for e in exts {
            for n in [0u32, 1, 2, 7, 100] {
                let mut one_by_one = KmerCounts::default();
                for _ in 0..n {
                    one_by_one.observe(e);
                }
                let mut at_once = KmerCounts::default();
                at_once.observe_n(e, n);
                assert_eq!(at_once, one_by_one, "{e:?} x {n}");
            }
            // Every counter saturates at `u32::MAX`, as repeated adds do.
            let mut near = KmerCounts::default();
            near.observe_n(e, u32::MAX - 1);
            let mut stepped = near;
            for _ in 0..3 {
                stepped.observe(e);
            }
            near.observe_n(e, 3);
            assert_eq!(near, stepped, "{e:?} saturating");
            assert_eq!(near.count, u32::MAX);
        }
    }

    /// Every counting scratch entry is a `(key, KmerCounts)`, the key one of
    /// [`crate::KmerKey`]'s widths: a field added here grows all of them. The
    /// two-word key is `[u64; 2]`, not `u128`: `u128` is 16-aligned on
    /// x86-64 (checked with rustc 1.95), so its entry would pad to 64 bytes.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn entry_layout_is_pinned() {
        use crate::{Kmer, Kmer32, Kmer64};
        use std::mem::size_of;
        assert_eq!(size_of::<KmerCounts>(), 36);
        assert_eq!(size_of::<(Kmer, KmerCounts)>(), 80);
        assert_eq!(size_of::<(u64, KmerCounts)>(), 48);
        assert_eq!(size_of::<([u64; 2], KmerCounts)>(), 56);
        assert_eq!(size_of::<(Kmer32, KmerCounts)>(), 48);
        assert_eq!(size_of::<(Kmer64, KmerCounts)>(), 56);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(size_of::<(u128, KmerCounts)>(), 64);
    }
}

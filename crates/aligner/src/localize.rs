//! Read localisation (§II-I).
//!
//! After the first iteration's alignments are known, read pairs are reassigned
//! to ranks so that all reads aligning to the same contig live on the same
//! rank (`rank = contig mod P`). Reads mapped to the same contig are similar,
//! so the next alignment round's seed lookups hit the per-rank software cache
//! instead of generating off-node traffic, and the next k-mer-analysis round's
//! incoming k-mer batches are clustered (better local cache reuse). Pairs with
//! no alignment keep a deterministic hash-based home rank.

use crate::align::Alignment;
use dht::fx_hash_one;
use pgas::Ctx;
use seqio::ReadId;

/// Which rank owns which read pairs (single reads, for an unpaired library).
/// `per_rank[r]` lists the pair indices assigned to rank `r`; the distribution
/// is identical on every rank after [`localize_reads`] (it is broadcast).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadDistribution {
    pub per_rank: Vec<Vec<u64>>,
    /// The rank-count-independent form of a localised distribution:
    /// `targets[pair]` is the contig the pair follows (`u64::MAX` for
    /// unaligned pairs, which take a hash home). Empty for the initial
    /// block distribution. A checkpoint persists this vector instead of
    /// `per_rank` so a resume at a different rank count can rebuild the
    /// placement with [`ReadDistribution::from_targets`].
    pub targets: Vec<u64>,
}

impl ReadDistribution {
    /// The initial block distribution of `num_pairs` pairs over `ranks` ranks
    /// (what the pipeline uses before any alignment exists).
    pub fn block(num_pairs: usize, ranks: usize) -> Self {
        let mut per_rank = vec![Vec::new(); ranks];
        for (r, pairs) in per_rank.iter_mut().enumerate() {
            let range = pgas::team::block_range_for(r, ranks, num_pairs);
            *pairs = range.map(|p| p as u64).collect();
        }
        ReadDistribution {
            per_rank,
            targets: Vec::new(),
        }
    }

    /// Rebuilds the localised placement from its rank-count-independent
    /// form: pair `p` goes to rank `targets[p] % ranks`, or to a
    /// deterministic hash home when `targets[p]` is `u64::MAX`. For a
    /// given `targets` vector the result is a pure function of `ranks`,
    /// which is what makes checkpoint resume elastic.
    pub fn from_targets(targets: Vec<u64>, ranks: usize) -> Self {
        let mut per_rank = vec![Vec::new(); ranks];
        for (pair, contig) in targets.iter().enumerate() {
            let rank = if *contig == u64::MAX {
                // Unaligned pair: deterministic hash home.
                (fx_hash_one(&(pair as u64)) % ranks as u64) as usize
            } else {
                (*contig % ranks as u64) as usize
            };
            per_rank[rank].push(pair as u64);
        }
        ReadDistribution { per_rank, targets }
    }

    /// Total number of pairs across all ranks.
    pub fn total_pairs(&self) -> usize {
        self.per_rank.iter().map(|v| v.len()).sum()
    }

    /// The pairs owned by a rank.
    pub fn pairs_of(&self, rank: usize) -> &[u64] {
        &self.per_rank[rank]
    }

    /// Read ids (2 per pair) owned by a rank.
    pub fn read_ids_of(&self, rank: usize) -> Vec<ReadId> {
        self.per_rank[rank]
            .iter()
            .flat_map(|&p| [2 * p, 2 * p + 1])
            .collect()
    }

    /// Load-balance ratio of the distribution (1.0 = perfectly even).
    pub fn balance(&self) -> f64 {
        let sizes: Vec<f64> = self.per_rank.iter().map(|v| v.len() as f64).collect();
        pgas::stats::load_balance_ratio(&sizes)
    }
}

/// Collectively computes the localised distribution of a paired library:
/// [`localize_reads`] with pairs as the units.
pub fn localize_pairs(
    ctx: &Ctx,
    num_pairs: usize,
    local_alignments: &[Alignment],
) -> ReadDistribution {
    localize_reads(ctx, num_pairs, local_alignments, true)
}

/// Collectively computes the localised distribution of a library's units —
/// read pairs when `paired` (read `r` is in pair `r / 2`), single reads
/// otherwise: each unit goes to rank `(contig of its best alignment) mod P`.
/// `local_alignments` are the alignments this rank produced for the units it
/// currently owns.
pub fn localize_reads(
    ctx: &Ctx,
    num_units: usize,
    local_alignments: &[Alignment],
    paired: bool,
) -> ReadDistribution {
    // For every locally known unit, pick the contig of the best alignment of
    // any of its reads (deterministic: highest matches, ties to lower contig
    // id).
    let mut best: std::collections::HashMap<u64, (usize, u64)> = std::collections::HashMap::new();
    for a in local_alignments {
        let unit = if paired { a.read_id / 2 } else { a.read_id };
        let entry = best.entry(unit).or_insert((0, u64::MAX));
        let key = (a.matches, u64::MAX - a.contig);
        let cur = (entry.0, u64::MAX - entry.1);
        if key > cur {
            *entry = (a.matches, a.contig);
        }
    }
    let assignments: Vec<(u64, u64)> = best
        .into_iter()
        .map(|(unit, (_m, contig))| (unit, contig))
        .collect();

    // Gather all assignments on rank 0 and build the full distribution.
    let gathered = ctx.gather(assignments);
    ctx.broadcast(|| {
        let mut targets = vec![u64::MAX; num_units];
        for (unit, contig) in gathered {
            if (unit as usize) < num_units {
                targets[unit as usize] = contig;
            }
        }
        ReadDistribution::from_targets(targets, ctx.ranks())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;

    #[test]
    fn block_distribution_covers_all_pairs() {
        let dist = ReadDistribution::block(10, 3);
        assert_eq!(dist.total_pairs(), 10);
        assert_eq!(dist.per_rank.len(), 3);
        assert_eq!(dist.pairs_of(0), &[0, 1, 2, 3]);
        assert_eq!(dist.read_ids_of(1), vec![8, 9, 10, 11, 12, 13]);
        assert!(dist.balance() > 0.7);
    }

    #[test]
    fn pairs_with_same_contig_land_on_same_rank() {
        let team = Team::single_node(4);
        let num_pairs = 40usize;
        let dists = team.run(|ctx| {
            // This rank aligned its block of pairs; pair p maps to contig p % 5.
            let range = ctx.block_range(num_pairs);
            let alignments: Vec<Alignment> = range
                .map(|p| Alignment {
                    read_id: 2 * p as u64,
                    contig: (p % 5) as u64,
                    forward: true,
                    contig_offset: 0,
                    aligned_len: 100,
                    matches: 100,
                })
                .collect();
            localize_pairs(ctx, num_pairs, &alignments)
        });
        for d in &dists[1..] {
            assert_eq!(d, &dists[0], "distribution must be identical on all ranks");
        }
        let dist = &dists[0];
        assert_eq!(dist.total_pairs(), num_pairs);
        // All pairs of contig c sit on rank c % 4 together.
        for c in 0..5u64 {
            let expected_rank = (c % 4) as usize;
            for p in 0..num_pairs as u64 {
                if p % 5 == c {
                    assert!(
                        dist.per_rank[expected_rank].contains(&p),
                        "pair {p} (contig {c}) not on rank {expected_rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_targets_is_elastic_across_rank_counts() {
        // targets is the rank-count-independent form: rebuilding it at any
        // rank count covers every pair exactly once, keeps same-contig pairs
        // together, and a localised distribution round-trips through it.
        let targets: Vec<u64> = (0..24u64)
            .map(|p| if p % 7 == 0 { u64::MAX } else { p % 5 })
            .collect();
        for ranks in [1usize, 2, 3, 4, 8] {
            let dist = ReadDistribution::from_targets(targets.clone(), ranks);
            assert_eq!(dist.total_pairs(), 24, "ranks={ranks}");
            assert_eq!(dist.per_rank.len(), ranks);
            for c in 0..5u64 {
                let home = (c % ranks as u64) as usize;
                for (p, t) in targets.iter().enumerate() {
                    if *t == c {
                        assert!(dist.per_rank[home].contains(&(p as u64)));
                    }
                }
            }
        }
        // The team-computed distribution carries the same targets vector it
        // was built from.
        let team = Team::single_node(3);
        let dists = team.run(|ctx| {
            let alignments: Vec<Alignment> = ctx
                .block_range(12)
                .map(|p| Alignment {
                    read_id: 2 * p as u64,
                    contig: (p % 5) as u64,
                    forward: true,
                    contig_offset: 0,
                    aligned_len: 100,
                    matches: 100,
                })
                .collect();
            localize_pairs(ctx, 12, &alignments)
        });
        let rebuilt = ReadDistribution::from_targets(dists[0].targets.clone(), 3);
        assert_eq!(rebuilt, dists[0]);
        let widened = ReadDistribution::from_targets(dists[0].targets.clone(), 6);
        assert_eq!(widened.total_pairs(), 12);
    }

    #[test]
    fn unaligned_pairs_are_spread_deterministically() {
        let team = Team::single_node(3);
        let dists = team.run(|ctx| localize_pairs(ctx, 30, &[]));
        assert_eq!(dists[0], dists[1]);
        assert_eq!(dists[0].total_pairs(), 30);
        // Hash distribution should not put everything on one rank.
        assert!(dists[0].per_rank.iter().all(|v| !v.is_empty()));
    }

    #[test]
    fn mate_alignment_decides_when_first_read_unaligned() {
        let team = Team::single_node(2);
        let dists = team.run(|ctx| {
            let alignments = if ctx.rank() == 0 {
                vec![Alignment {
                    read_id: 1, // second mate of pair 0
                    contig: 7,
                    forward: false,
                    contig_offset: 3,
                    aligned_len: 80,
                    matches: 80,
                }]
            } else {
                Vec::new()
            };
            localize_pairs(ctx, 2, &alignments)
        });
        let dist = &dists[0];
        // Pair 0 follows contig 7 -> rank 7 % 2 = 1.
        assert!(dist.per_rank[1].contains(&0));
    }
}

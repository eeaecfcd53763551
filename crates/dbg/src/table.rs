//! The k-mer tables of one k, keyed as wide as k needs.
//!
//! A [`KmerTable`] maps canonical k-mers to a value: [`KmerCounts`] in the
//! table [`crate::kmer_analysis_from`] fills, the 8-byte reduced vertex
//! ([`KmerVertex`]) in the de Bruijn graph ([`crate::graph`]), which the
//! pipeline counts straight into ([`crate::kmer_graph_from`]). The table is a
//! [`DistMap`] whose key is the narrowest [`KmerKey`] that holds k — one word
//! up to k = 32, two up to 64, a whole [`Kmer`] beyond ([`KeyWidth::of`]) —
//! so a graph entry takes 16, 24 or 48 bytes and a counts entry 48, 56 or 80.
//! The width is chosen once, when the table is made; the stage code that
//! touches entries (counting, injection, Level 1 of the traversal) is
//! generic over the key and is entered through one `match` on the table
//! (`with_keys!`). Every public method takes and returns [`Kmer`], and
//! batched lookups travel as [`Kmer`] requests, so neither a caller nor the
//! graph's traffic sees the width.
//!
//! The table is partitioned by minimizer, so table ownership agrees with
//! supermer routing whatever the key width.

use crate::graph::KmerVertex;
use dht::{DistMap, Partitioner};
use kmers::minimizer::{kmer_minimizer, minimizer_shard, MAX_MINIMIZER_LEN};
use kmers::{KeyWidth, Kmer, Kmer32, Kmer64, KmerCounts, KmerKey};
use pgas::Ctx;
use std::sync::Arc;

/// The distributed k-mer → counts table produced by analysis.
pub type KmerCountsMap = Arc<KmerTable<KmerCounts>>;

/// Routes a canonical k-mer to the shard of its canonical minimizer, so that
/// table ownership agrees with supermer routing: every k-mer expanded from a
/// supermer is owned by the rank the supermer was shipped to. Because the
/// canonical minimizer is strand-invariant, the partitioner can be evaluated
/// on canonical keys while senders route read-orientation supermers.
#[derive(Debug, Clone, Copy)]
struct MinimizerPartitioner {
    k: usize,
    m: usize,
}

impl MinimizerPartitioner {
    fn owner_of_kmer(&self, kmer: &Kmer, ranks: usize) -> usize {
        minimizer_shard(kmer_minimizer(kmer, self.m), ranks)
    }
}

impl<K: KmerKey> Partitioner<K> for MinimizerPartitioner {
    fn owner_of(&self, key: &K, ranks: usize) -> usize {
        self.owner_of_kmer(&key.to_kmer(self.k), ranks)
    }
}

/// The table's shards under its key width.
pub(crate) enum Keyed<V> {
    One(DistMap<Kmer32, V>),
    Two(DistMap<Kmer64, V>),
    Wide(DistMap<Kmer, V>),
}

/// Runs `$body` with `$map` bound to the table's [`DistMap`] at its key
/// width: the one `match` a stage makes to enter its key-generic code.
macro_rules! with_keys {
    ($table:expr, $map:ident => $body:expr) => {
        match $table.keyed() {
            $crate::table::Keyed::One($map) => $body,
            $crate::table::Keyed::Two($map) => $body,
            $crate::table::Keyed::Wide($map) => $body,
        }
    };
}
pub(crate) use with_keys;

/// A table of one k: canonical k-mer → `V`, distributed over the ranks by
/// minimizer. See the module documentation.
pub struct KmerTable<V> {
    k: usize,
    ranks: usize,
    partitioner: MinimizerPartitioner,
    width: KeyWidth,
    keyed: Keyed<V>,
}

impl<V: Copy + Send + Sync + 'static> KmerTable<V> {
    /// An empty table of `k`-mers over `ranks` shards, partitioned by
    /// minimizers of length `m` (`1..=min(k, MAX_MINIMIZER_LEN)`). Typically
    /// built collectively via `ctx.share(|| KmerTable::new(ctx.ranks(), k, m))`.
    pub fn new(ranks: usize, k: usize, m: usize) -> Self {
        KmerTable::with_width(ranks, k, m, KeyWidth::of(k))
    }

    /// [`KmerTable::new`] at a key width of the caller's choice, which must
    /// hold k: the tests hold each width to the `Kmer`-keyed table.
    fn with_width(ranks: usize, k: usize, m: usize, width: KeyWidth) -> Self {
        assert!(
            (1..=k.min(MAX_MINIMIZER_LEN)).contains(&m),
            "minimizer length must be in 1..={}, got {m}",
            k.min(MAX_MINIMIZER_LEN)
        );
        let partitioner = MinimizerPartitioner { k, m };
        let keyed = match width {
            KeyWidth::One => Keyed::One(DistMap::with_partitioner(ranks, Arc::new(partitioner))),
            KeyWidth::Two => Keyed::Two(DistMap::with_partitioner(ranks, Arc::new(partitioner))),
            KeyWidth::Wide => Keyed::Wide(DistMap::with_partitioner(ranks, Arc::new(partitioner))),
        };
        KmerTable {
            k,
            ranks,
            partitioner,
            width,
            keyed,
        }
    }

    pub(crate) fn keyed(&self) -> &Keyed<V> {
        &self.keyed
    }

    /// The k of every k-mer in the table.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimizer length the table is partitioned by; a caller routing
    /// supermers to the table's owners cuts them with it.
    pub fn minimizer_len(&self) -> usize {
        self.partitioner.m
    }

    /// The owner rank of a canonical k-mer (deterministic across ranks).
    pub fn owner_of(&self, kmer: &Kmer) -> usize {
        debug_assert_eq!(kmer.k(), self.k);
        self.partitioner.owner_of_kmer(kmer, self.ranks)
    }

    /// Total number of entries across all shards. Not a collective; intended
    /// for use after a barrier.
    pub fn len(&self) -> usize {
        with_keys!(self, map => map.len())
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries owned by the calling rank.
    pub fn local_len(&self, ctx: &Ctx) -> usize {
        with_keys!(self, map => map.local_len(ctx))
    }

    /// The value of a canonical k-mer, if present. Fine-grained global read.
    pub fn get_cloned(&self, ctx: &Ctx, kmer: &Kmer) -> Option<V> {
        with_keys!(self, map => map.get_cloned(ctx, &KmerKey::of_kmer(kmer)))
    }

    /// Visits every entry owned by the calling rank, under the caveat of
    /// [`DistMap::for_each_local`].
    pub fn for_each_local(&self, ctx: &Ctx, mut f: impl FnMut(&Kmer, &V)) {
        let k = self.k;
        with_keys!(self, map => map.for_each_local(ctx, |key, v| f(&key.to_kmer(k), v)))
    }

    /// Clones every entry owned by the calling rank into a vector.
    pub fn local_entries(&self, ctx: &Ctx) -> Vec<(Kmer, V)> {
        let mut out = Vec::with_capacity(self.local_len(ctx));
        self.for_each_local(ctx, |kmer, v| out.push((*kmer, *v)));
        out
    }

    /// Collective batched read of canonical k-mers, each owner replying with
    /// `f` of the value ([`DistMap::get_many_with`]). The requests travel,
    /// and are accounted, as [`Kmer`]s whatever the key width.
    pub fn get_many_with<R>(
        &self,
        ctx: &Ctx,
        kmers: &[Kmer],
        batch: usize,
        f: impl Fn(&V) -> R,
    ) -> Vec<Option<R>>
    where
        R: Send + Sync + 'static,
    {
        with_keys!(self, map => map.get_many_as(ctx, kmers, batch, KmerKey::of_kmer, &f))
    }

    /// A table shaped like this one (k, minimizer length, key width) that
    /// holds `f` of every entry: each rank maps the entries it owns into its
    /// own shard, with no traffic. Collective.
    pub(crate) fn map<W: Copy + Send + Sync + 'static>(
        &self,
        ctx: &Ctx,
        f: impl Fn(&V) -> W,
    ) -> Arc<KmerTable<W>> {
        fn copy<K: KmerKey, V, W>(
            ctx: &Ctx,
            from: &DistMap<K, V>,
            to: &DistMap<K, W>,
            f: impl Fn(&V) -> W,
        ) where
            V: Send + Sync + 'static,
            W: Send + Sync + 'static,
        {
            let mut shard = to.local_view(ctx);
            from.for_each_local(ctx, |key, v| {
                shard.insert(*key, f(v));
            });
        }
        let out: Arc<KmerTable<W>> =
            ctx.share(|| KmerTable::with_width(self.ranks, self.k, self.partitioner.m, self.width));
        match (&self.keyed, &out.keyed) {
            (Keyed::One(from), Keyed::One(to)) => copy(ctx, from, to, f),
            (Keyed::Two(from), Keyed::Two(to)) => copy(ctx, from, to, f),
            (Keyed::Wide(from), Keyed::Wide(to)) => copy(ctx, from, to, f),
            _ => unreachable!("a table and its map share a key width"),
        }
        ctx.barrier();
        out
    }
}

impl KmerTable<KmerCounts> {
    /// Merges `(k-mer, counts)` items owned by the calling rank into its
    /// shard ([`DistMap::apply_local_batch`]).
    #[cfg(test)]
    pub(crate) fn merge_local(&self, ctx: &Ctx, items: Vec<(Kmer, KmerCounts)>) {
        with_keys!(self, map => map.apply_local_batch(
            ctx,
            items.iter().map(|(kmer, c)| (KmerKey::of_kmer(kmer), *c)).collect(),
            |c| c,
            |slot, c| slot.merge(&c),
        ))
    }
}

/// The graph's vertex table: canonical k-mer → reduced vertex.
pub(crate) type VertexTable = KmerTable<KmerVertex>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, lookup_oriented_many, KmerGraph, ThresholdPolicy};
    use crate::traversal::{traverse_contigs, TraversalParams};
    use kmers::kmer_positions;
    use pgas::Team;
    use seqio::Read;

    /// Reads off both strands of a pseudo-random genome, with a variant copy
    /// of one stretch (forks) and a few substitutions (tips).
    fn reads() -> Vec<Read> {
        let mut state = 0x5EED_2026u64;
        let mut genome: Vec<u8> = (0..700)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        let stretch = genome[100..240].to_vec();
        genome.extend_from_slice(&stretch);
        let variant = genome.len() - 70;
        genome[variant] = if genome[variant] == b'A' { b'C' } else { b'A' };
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for (i, start) in (0..genome.len() - 110).step_by(9).enumerate() {
            let mut seq = genome[start..start + 110].to_vec();
            if i % 11 == 5 {
                seq[55] = if seq[55] == b'G' { b'T' } else { b'G' };
            }
            if i % 2 == 1 {
                seq = seqio::alphabet::revcomp(&seq);
            }
            seqs.push(seq.clone());
            seqs.push(seq);
        }
        seqs.iter()
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s, 35))
            .collect()
    }

    fn claims(ctx: &Ctx, graph: &KmerGraph) -> Vec<(Kmer, bool)> {
        let mut out = Vec::new();
        graph.for_each_local(ctx, |kmer, v| out.push((*kmer, v.used())));
        out.sort();
        out
    }

    #[test]
    fn every_key_width_reads_and_walks_like_the_kmer_keyed_table() {
        let reads = reads();
        let policy = ThresholdPolicy::metahipmer_default();
        let traversal = TraversalParams::default();
        for k in [31, 33, 63, 65] {
            let params = KmerAnalysisParams {
                k,
                min_count: 2,
                ..Default::default()
            };
            for ranks in [1usize, 3] {
                let out = Team::single_node(ranks).run(|ctx| {
                    let mine = &reads[ctx.block_range(reads.len())];
                    let counts = kmer_analysis(ctx, mine, &params).counts;
                    let m = counts.minimizer_len();
                    let wide: KmerCountsMap =
                        ctx.share(|| KmerTable::with_width(ctx.ranks(), k, m, KeyWidth::Wide));
                    wide.merge_local(ctx, counts.local_entries(ctx));
                    ctx.barrier();
                    assert_eq!(wide.len(), counts.len());
                    let (narrow, wide) = (
                        build_graph(ctx, &counts, policy),
                        build_graph(ctx, &wide, policy),
                    );
                    // Every window of this rank's reads, both orientations,
                    // plus a k-mer in no read.
                    let mut queries: Vec<Kmer> = mine
                        .iter()
                        .flat_map(|r| kmer_positions(&r.seq, k))
                        .flat_map(|(_, kmer)| [kmer, kmer.revcomp()])
                        .collect();
                    queries.push(Kmer::from_bytes(&vec![b'T'; k]).expect("ACGT"));
                    assert_eq!(
                        lookup_oriented_many(ctx, &narrow, &queries, 64),
                        lookup_oriented_many(ctx, &wide, &queries, 64),
                        "k = {k}, {ranks} ranks: lookups"
                    );
                    let contigs = (
                        traverse_contigs(ctx, &narrow, k, &traversal),
                        traverse_contigs(ctx, &wide, k, &traversal),
                    );
                    (contigs, claims(ctx, &narrow), claims(ctx, &wide))
                });
                let mut claimed = [0usize; 2];
                for (rank, ((narrow, wide), narrow_claims, wide_claims)) in
                    out.into_iter().enumerate()
                {
                    // Only rank 0 holds the contigs.
                    assert_eq!(narrow.is_empty(), rank > 0, "k = {k}, rank {rank}");
                    assert!(narrow == wide, "k = {k}, {ranks} ranks: contigs differ");
                    assert_eq!(narrow_claims, wide_claims, "k = {k}, {ranks} ranks");
                    for (_, used) in narrow_claims {
                        claimed[usize::from(used)] += 1;
                    }
                }
                assert!(claimed.iter().all(|&n| n > 0), "k = {k}: {claimed:?}");
            }
        }
    }
}

//! The distributed seed index over a contig set: built once, then only read.
//!
//! merAligner's observation (Georganas et al., IPDPS '15; the paper's §II-F)
//! is that the seed index has two separate phases, and this module is shaped
//! by them:
//!
//! * **Build** ([`build_seed_index_ref`]) — a global update-only phase. Every
//!   rank cuts the seeds of the contigs it indexes straight from their 2-bit
//!   codes ([`kmers::packed::for_each_canonical`] at stride 1) and ships
//!   one fixed-size `(seed, hit)` record per contig position to the seed's
//!   owner through a [`pgas::Aggregator`]. A seed is a key as wide as the
//!   seed length needs ([`kmers::KmerKey`]: one word up to 32 bases, two up
//!   to 64), and its owner is its key's mixing hash modulo the rank count.
//!   The owner then groups what it received *once* into
//!   three flat arrays — `keys`, `offsets`, `hits` — behind an open-addressed
//!   slot table sized to the distinct seeds, sorting each seed's run by
//!   `(contig, pos)` and capping it at [`SeedIndex::MAX_HITS_PER_SEED`].
//! * **Read** — the index is immutable. A rank holds **only its own shard**:
//!   a seed it owns resolves to `&[SeedHit]` straight out of `hits`
//!   ([`SeedIndex::lookup`]); a seed another rank owns is probed *on the
//!   owner*, inside the handler of the collective batched lookup
//!   ([`dht::ReadTable::get_many`]), and travels back as a [`RemoteHits`].
//!   There is no shared table, no lock and no allocation per seed.
//!
//! The cap keeps the 32 *smallest* hits of a seed, not the first 32 to
//! arrive, and a sorted run's prefix does not depend on the order the records
//! came in. The index content is therefore the same for every rank count
//! (each of which indexes different contig subsets per rank) — a property of
//! one sort, where a table merged incrementally would have to maintain it on
//! every arrival.
//!
//! A [`SeedHit`] is 8 bytes: the contig id as a `u32`, and a `u32` holding
//! `pos << 1 | forward`. So contig ids must stay below 2³² and positions
//! below 2³¹. The build refuses a contig past either limit, naming it, as it
//! refuses a shard whose 32-bit offsets would overflow. The index holds one
//! hit per contig position (up to the cap) and ships one 16-byte record per
//! contig position (24 bytes with a two-word seed) while it is built.

use dbg::{ContigId, ContigsRef};
use kmers::packed::for_each_canonical;
use kmers::{KeyWidth, Kmer, Kmer32, Kmer64, KmerKey};
use pgas::{Aggregator, Ctx, RpcAggregator};
use seqio::PackedReadView;
use std::sync::Arc;

/// One occurrence of a seed k-mer in a contig: the contig's id and
/// `pos << 1 | forward`, two `u32`s. The order is `(contig, pos)`: one contig
/// position holds one seed, so no two hits differ only in the strand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeedHit {
    contig: u32,
    pos_strand: u32,
}

// An index hit is 8 bytes, not the 16 of a `ContigId`, a `u32` and a `bool`:
// the index holds one per contig position.
const _: () = assert!(std::mem::size_of::<SeedHit>() == 8);
// A build record of a one-word seed is 16 bytes, not 24: the build ships and
// buffers one per contig position.
const _: () = assert!(std::mem::size_of::<(Kmer32, SeedHit)>() == 16);
// A cached or remote answer is 24 bytes, not 40: the software cache holds one
// per foreign seed, and a lookup's reply carries one per seed.
const _: () = assert!(std::mem::size_of::<Option<RemoteHits>>() == 24);

impl SeedHit {
    /// The occurrence of a seed at `pos` of `contig`; `forward` is true if
    /// the canonical seed appears there in the contig's orientation, false
    /// if the contig holds its reverse complement.
    ///
    /// # Panics
    /// If `contig` ≥ 2³² or `pos` ≥ 2³¹, naming both: a hit holds neither.
    pub fn new(contig: ContigId, pos: usize, forward: bool) -> Self {
        assert!(
            contig <= u64::from(u32::MAX) && pos < 1 << 31,
            "seed index: contig {contig} at position {pos} does not fit a seed hit \
             (contig ids below 2^32, positions below 2^31)"
        );
        SeedHit {
            contig: contig as u32,
            pos_strand: (pos as u32) << 1 | u32::from(forward),
        }
    }

    /// The contig containing the seed.
    pub fn contig(self) -> ContigId {
        ContigId::from(self.contig)
    }

    /// Position of the seed's first base in the contig.
    pub fn pos(self) -> u32 {
        self.pos_strand >> 1
    }

    /// True if the canonical seed appears in the contig in forward
    /// orientation at [`SeedHit::pos`].
    pub fn forward(self) -> bool {
        self.pos_strand & 1 == 1
    }
}

/// The hit list of a seed as it crosses a rank boundary and sits in the
/// requester's software cache. Most seeds occur once or twice, so up to two
/// hits travel inline; longer lists are shared. Cloning never allocates.
#[derive(Debug, Clone)]
pub enum RemoteHits {
    /// `hits[..len]`, `len` in `1..=2`.
    Inline { len: u8, hits: [SeedHit; 2] },
    /// Three or more hits.
    Shared(Arc<[SeedHit]>),
}

impl RemoteHits {
    /// Wraps a non-empty hit list; `None` for an empty one (an absent seed).
    fn of(hits: &[SeedHit]) -> Option<Self> {
        match *hits {
            [] => None,
            [a] => Some(RemoteHits::Inline {
                len: 1,
                hits: [a, a],
            }),
            [a, b] => Some(RemoteHits::Inline {
                len: 2,
                hits: [a, b],
            }),
            _ => Some(RemoteHits::Shared(hits.into())),
        }
    }

    /// The hits, sorted by `(contig, pos)`.
    pub fn as_slice(&self) -> &[SeedHit] {
        match self {
            RemoteHits::Inline { len, hits } => &hits[..*len as usize],
            RemoteHits::Shared(hits) => hits,
        }
    }
}

/// The owner rank of the seed with this [`KmerKey::key_hash`] value.
fn owner_of_hash(hash: u64, ranks: usize) -> usize {
    (hash % ranks as u64) as usize
}

/// One rank's shard of the seed index: canonical seed k-mer → occurrences,
/// for the seeds this rank owns. Seeds occurring more than
/// [`SeedIndex::MAX_HITS_PER_SEED`] times are truncated (they are repetitive
/// and carry no placement information), the same defence merAligner uses
/// against high-frequency seeds. See the module documentation for the layout.
///
/// The shard's keys are as wide as the seed length needs ([`KeyWidth::of`]):
/// one word up to 32 bases, two up to 64, a [`Kmer`] beyond. The public
/// methods take and return [`Kmer`]; alignment enters the shard at its key
/// width once per call.
pub struct SeedIndex {
    /// The seed length the index was built with.
    pub seed_len: usize,
    keyed: Keyed,
}

/// A [`SeedIndex`]'s shard at its key width.
pub(crate) enum Keyed {
    One(SeedShard<Kmer32>),
    Two(SeedShard<Kmer64>),
    Wide(SeedShard<Kmer>),
}

/// Runs `$body` with `$shard` bound to the index's [`SeedShard`] at its key
/// width.
macro_rules! with_seed_keys {
    ($index:expr, $shard:ident => $body:expr) => {
        match $index.keyed() {
            $crate::seed_index::Keyed::One($shard) => $body,
            $crate::seed_index::Keyed::Two($shard) => $body,
            $crate::seed_index::Keyed::Wide($shard) => $body,
        }
    };
}
pub(crate) use with_seed_keys;

impl SeedIndex {
    /// Hits beyond this per seed are dropped.
    pub const MAX_HITS_PER_SEED: usize = 32;

    pub(crate) fn keyed(&self) -> &Keyed {
        &self.keyed
    }

    /// The owner rank of a canonical seed.
    pub fn owner_of(&self, seed: &Kmer) -> usize {
        with_seed_keys!(self, shard => shard.owner_of(&KmerKey::of_kmer(seed)))
    }

    /// The hits of a canonical seed this rank owns, by reference into its
    /// shard and sorted by `(contig, pos)` (empty if the seed occurs in no
    /// contig) — or `Err(owner)` for a seed another rank owns.
    pub fn lookup(&self, seed: &Kmer) -> Result<&[SeedHit], usize> {
        with_seed_keys!(self, shard => shard.lookup(&KmerKey::of_kmer(seed)))
    }

    /// Every seed of this rank's shard with its hits (unordered).
    pub fn local_entries(&self) -> impl Iterator<Item = (Kmer, &[SeedHit])> {
        let k = self.seed_len;
        let entries: Vec<(Kmer, &[SeedHit])> = with_seed_keys!(self, shard => {
            shard
                .local_entries()
                .map(|(key, hits)| (key.to_kmer(k), hits))
                .collect()
        });
        entries.into_iter()
    }
}

/// A [`SeedIndex`] shard keyed by `K`.
pub(crate) struct SeedShard<K> {
    rank: usize,
    ranks: usize,
    /// Open-addressed, linearly probed: `1 + index into keys`, 0 = empty.
    /// A power-of-two length at most half full, addressed by the hash's top
    /// `64 - slot_shift` bits (the owner is taken from its low bits).
    slots: Vec<u32>,
    slot_shift: u32,
    keys: Vec<K>,
    /// The hits of `keys[i]` are `hits[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    hits: Vec<SeedHit>,
}

impl<K: KmerKey> SeedShard<K> {
    /// The owner rank of a seed.
    fn owner_of(&self, seed: &K) -> usize {
        owner_of_hash(seed.key_hash(), self.ranks)
    }

    /// [`SeedIndex::lookup`] at the shard's key width. One hash decides the
    /// owner and the slot.
    #[inline]
    pub(crate) fn lookup(&self, seed: &K) -> Result<&[SeedHit], usize> {
        let hash = seed.key_hash();
        let owner = owner_of_hash(hash, self.ranks);
        if owner != self.rank {
            return Err(owner);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.slot_of(hash);
        loop {
            match self.slots[slot] {
                0 => return Ok(&[]),
                at => {
                    let i = at as usize - 1;
                    if self.keys[i] == *seed {
                        let run = self.offsets[i] as usize..self.offsets[i + 1] as usize;
                        return Ok(&self.hits[run]);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn local_entries(&self) -> impl Iterator<Item = (&K, &[SeedHit])> {
        self.keys
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(key, w)| (key, &self.hits[w[0] as usize..w[1] as usize]))
    }

    fn slot_of(&self, hash: u64) -> usize {
        (hash >> self.slot_shift) as usize
    }

    /// The slot count that keeps a table of `keys` keys at most half full.
    fn slot_count(keys: usize) -> usize {
        (2 * keys).next_power_of_two().max(2)
    }

    /// Replaces the slot table with an empty one of `capacity` slots (a
    /// power of two) and files every key in it.
    fn set_slots(&mut self, capacity: usize) {
        self.slots = vec![0; capacity];
        self.slot_shift = 64 - capacity.trailing_zeros();
        let mask = capacity - 1;
        for (i, key) in self.keys.iter().enumerate() {
            let mut slot = self.slot_of(key.key_hash());
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = i as u32 + 1;
        }
    }

    /// Groups the records this rank received into its shard.
    fn from_records(ctx: &Ctx, records: Vec<(K, SeedHit)>) -> Self {
        assert!(
            records.len() < u32::MAX as usize / 2,
            "seed index shard of {} records overflows its 32-bit offsets",
            records.len()
        );
        let mut index = SeedShard {
            rank: ctx.rank(),
            ranks: ctx.ranks(),
            slots: Vec::new(),
            slot_shift: 0,
            keys: Vec::new(),
            offsets: Vec::new(),
            hits: Vec::new(),
        };
        // Pass 1: name each record's key and count the records per key, in a
        // table with room for every record to be a distinct key.
        let capacity = Self::slot_count(records.len());
        index.set_slots(capacity);
        let mask = capacity - 1;
        let mut key_of: Vec<u32> = Vec::with_capacity(records.len());
        let mut counts: Vec<u32> = Vec::new();
        for (seed, _) in &records {
            let mut slot = index.slot_of(seed.key_hash());
            let i = loop {
                match index.slots[slot] {
                    0 => {
                        index.keys.push(*seed);
                        counts.push(0);
                        index.slots[slot] = index.keys.len() as u32;
                        break index.keys.len() - 1;
                    }
                    at if index.keys[at as usize - 1] == *seed => break at as usize - 1,
                    _ => slot = (slot + 1) & mask,
                }
            };
            counts[i] += 1;
            key_of.push(i as u32);
        }
        // The keys are known now: lookups get a table sized to them.
        index.set_slots(Self::slot_count(index.keys.len()));
        // Pass 2: scatter the hits into one run per key.
        let mut next: Vec<u32> = Vec::with_capacity(counts.len());
        let mut total = 0u32;
        for &count in &counts {
            next.push(total);
            total += count;
        }
        let mut hits: Vec<SeedHit> = match records.first() {
            Some(&(_, filler)) => vec![filler; records.len()],
            None => Vec::new(),
        };
        for ((_, hit), &key) in records.iter().zip(&key_of) {
            hits[next[key as usize] as usize] = *hit;
            next[key as usize] += 1;
        }
        drop(records);
        // Pass 3: sort each run, keep its smallest hits, close the gaps.
        index.offsets.reserve_exact(counts.len() + 1);
        index.offsets.push(0);
        let (mut lo, mut kept) = (0usize, 0usize);
        for &count in &counts {
            let hi = lo + count as usize;
            hits[lo..hi].sort_unstable();
            let keep = (hi - lo).min(SeedIndex::MAX_HITS_PER_SEED);
            hits.copy_within(lo..lo + keep, kept);
            kept += keep;
            index.offsets.push(kept as u32);
            lo = hi;
        }
        hits.truncate(kept);
        index.hits = hits;
        index.hits.shrink_to_fit();
        index
    }
}

impl<K: KmerKey> dht::ReadTable<K, RemoteHits> for SeedShard<K> {
    fn owner_of(&self, seed: &K) -> usize {
        SeedShard::owner_of(self, seed)
    }

    /// Every rank's requests are answered by the owner's own
    /// [`SeedShard::lookup`], run inside the RPC handler.
    fn get_many(&self, ctx: &Ctx, seeds: &[K], batch: usize) -> Vec<Option<RemoteHits>> {
        let mut rpc: RpcAggregator<K, Option<RemoteHits>> = RpcAggregator::new(ctx, batch);
        for seed in seeds {
            rpc.push(self.owner_of(seed), *seed);
        }
        rpc.finish(|seed| RemoteHits::of(self.lookup(&seed).unwrap_or_default()))
    }
}

/// Collectively builds the seed index over the contig store; every rank gets
/// its own shard.
///
/// Every rank indexes exactly the contigs it owns, read packed in place (an
/// owner-local read pass — no sequence ever travels for indexing, and none
/// is unpacked). The seeds are cut from the 2-bit codes, one record per
/// contig position reaches the seed's owner in aggregated messages (global
/// update-only phase), and the owners group them into the same deterministic
/// index at every rank count.
pub fn build_seed_index_ref(ctx: &Ctx, contigs: ContigsRef<'_>, seed_len: usize) -> SeedIndex {
    assert!(
        seed_len >= 3 && seed_len % 2 == 1 && seed_len <= kmers::MAX_K,
        "seed length must be odd and in 3..={}, got {seed_len}",
        kmers::MAX_K
    );
    let keyed = match KeyWidth::of(seed_len) {
        KeyWidth::One => Keyed::One(build_shard(ctx, contigs, seed_len)),
        KeyWidth::Two => Keyed::Two(build_shard(ctx, contigs, seed_len)),
        KeyWidth::Wide => Keyed::Wide(build_shard(ctx, contigs, seed_len)),
    };
    SeedIndex { seed_len, keyed }
}

/// [`build_seed_index_ref`] at key width `K`.
fn build_shard<K: KmerKey>(ctx: &Ctx, contigs: ContigsRef<'_>, seed_len: usize) -> SeedShard<K> {
    let mut agg: Aggregator<(K, SeedHit)> = Aggregator::new(ctx, 4096);
    let mut ship = |contig: ContigId, seq: &PackedReadView<'_>| {
        for_each_canonical::<K>(seq, seed_len, 1, |canon, was_rc, pos| {
            let hit = SeedHit::new(contig, pos, !was_rc);
            agg.push(owner_of_hash(canon.key_hash(), ctx.ranks()), (canon, hit));
        });
    };
    // The records stream into the exchange straight from the shard's packed
    // contigs.
    let ContigsRef::Store(store) = contigs;
    store
        .map()
        .for_each_local(ctx, |id, packed| ship(*id, &packed.view()));
    SeedShard::from_records(ctx, agg.finish())
}

/// The serial oracle of the index content: every position of every contig,
/// each seed's hits sorted and truncated the way the incrementally merged
/// table this index replaced kept them.
#[cfg(test)]
pub(crate) fn serial_index(
    contigs: &dbg::ContigSet,
    seed_len: usize,
) -> std::collections::BTreeMap<Kmer, Vec<SeedHit>> {
    let mut map: std::collections::BTreeMap<Kmer, Vec<SeedHit>> = Default::default();
    for c in &contigs.contigs {
        for (pos, km) in kmers::kmer_positions(&c.seq, seed_len) {
            let (canon, was_rc) = km.canonical();
            map.entry(canon)
                .or_default()
                .push(SeedHit::new(c.id, pos, !was_rc));
        }
    }
    for hits in map.values_mut() {
        hits.sort_unstable_by_key(|h| (h.contig(), h.pos()));
        hits.truncate(SeedIndex::MAX_HITS_PER_SEED);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbg::{ContigSet, ContigStore};
    use dht::ReadTable;
    use pgas::Team;

    /// The collective batched lookup of canonical seeds, run at the index's
    /// key width as alignment runs it.
    fn get_many(ctx: &Ctx, index: &SeedIndex, seeds: &[Kmer]) -> Vec<Option<RemoteHits>> {
        with_seed_keys!(index, shard => {
            let keys: Vec<_> = seeds.iter().map(KmerKey::of_kmer).collect();
            shard.get_many(ctx, &keys, 16)
        })
    }

    /// The seed index of `contigs`, built from a store over them.
    fn index_of(ctx: &Ctx, contigs: &ContigSet, seed_len: usize) -> SeedIndex {
        let store = ContigStore::build(ctx, contigs, &Default::default());
        build_seed_index_ref(ctx, ContigsRef::Store(&store), seed_len)
    }

    fn contig_set(seqs: &[&str], k: usize) -> ContigSet {
        ContigSet::from_sequences(
            k,
            seqs.iter().map(|s| (s.as_bytes().to_vec(), 10.0)).collect(),
        )
    }

    #[test]
    fn every_seed_of_every_contig_is_indexed() {
        let contigs = contig_set(
            &[
                "ACGGTCAGGTTCAAGGACTTACGGACCATG",
                "TTGACCGATTACAGGACCGATACCGATTAG",
            ],
            15,
        );
        let team = Team::single_node(3);
        let totals = team.run(|ctx| {
            let index = index_of(ctx, &contigs, 15);
            let hits: usize = index.local_entries().map(|(_, v)| v.len()).sum();
            ctx.allreduce_sum_u64(hits as u64)
        });
        // Each 30-base contig contributes 16 seed positions.
        assert_eq!(totals[0], 32);
    }

    #[test]
    fn seed_lookup_finds_contig_and_position() {
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATG";
        let contigs = contig_set(&[seq], 15);
        let team = Team::single_node(2);
        team.run(|ctx| {
            let index = index_of(ctx, &contigs, 15);
            // Look up the seed at position 5 of the contig (in storage
            // orientation the contig may be reverse-complemented).
            let stored = &contigs.contigs[0].seq;
            let seed = Kmer::from_bytes(&stored[5..20]).unwrap();
            let (canon, was_rc) = seed.canonical();
            let expected = [SeedHit::new(0, 5, !was_rc)];
            // Every rank sees it through the collective lookup; the owner
            // also by reference, everyone else not at all.
            let got = get_many(ctx, &index, &[canon]);
            assert_eq!(got[0].as_ref().expect("seed present").as_slice(), expected);
            let owner = index.owner_of(&canon);
            if owner == ctx.rank() {
                assert_eq!(index.lookup(&canon), Ok(&expected[..]));
            } else {
                assert_eq!(index.lookup(&canon), Err(owner));
            }
        });
    }

    /// The index content as a sorted list, gathered from every rank's shard.
    fn gathered(ctx: &Ctx, index: &SeedIndex) -> Vec<(Kmer, Vec<SeedHit>)> {
        let mine: Vec<(Kmer, Vec<SeedHit>)> = index
            .local_entries()
            .map(|(k, v)| (k, v.to_vec()))
            .collect();
        for (seed, _) in &mine {
            assert_eq!(
                index.owner_of(seed),
                ctx.rank(),
                "a foreign seed in the shard"
            );
        }
        let mut all = ctx.exchange((0..ctx.ranks()).map(|_| mine.clone()).collect());
        all.sort_by_key(|e| e.0);
        all
    }

    fn oracle(contigs: &ContigSet, seed_len: usize) -> Vec<(Kmer, Vec<SeedHit>)> {
        serial_index(contigs, seed_len).into_iter().collect()
    }

    #[test]
    fn index_content_equals_the_serial_oracle_on_every_rank_count() {
        // Shared stretches between contigs (multi-hit seeds across contigs),
        // an N run, a contig shorter than a seed and a tandem repeat far past
        // the cap.
        let unit = "ACGGTCAGGTTCAAGGACT";
        let shared = "TTGACCGATTACAGGACCGATACCGATTAGGACCAGT";
        let repeat = unit.repeat(40);
        let with_n = format!("{shared}NNNN{unit}GATTACA{shared}");
        let seqs = [
            repeat.as_str(),
            with_n.as_str(),
            "ACGT",
            &format!("CCATG{shared}GGCATTACGGATACCAGGATC"),
            &format!("{unit}{unit}TTTTGACA"),
        ];
        let contigs = contig_set(&seqs, 15);
        let expected = oracle(&contigs, 15);
        assert!(
            expected
                .iter()
                .any(|(_, v)| v.len() == SeedIndex::MAX_HITS_PER_SEED),
            "test setup: some seed reaches the cap"
        );
        for ranks in [1usize, 2, 3, 5] {
            let per_rank =
                Team::single_node(ranks).run(|ctx| gathered(ctx, &index_of(ctx, &contigs, 15)));
            for held in per_rank {
                assert_eq!(held, expected, "{ranks} ranks");
            }
        }
    }

    #[test]
    fn slot_table_is_sized_to_the_distinct_keys_not_the_records() {
        // A tandem repeat of 404 positions over 19 distinct seeds, and a
        // contig of 16: at 1 rank 420 records over 35 keys, which a table
        // sized to the records would give 1,024 slots and one sized to the
        // keys 128.
        let unit = "ACGGTCAGGTTCAAGGACT";
        let repeat = unit.repeat(22);
        let contigs = contig_set(&[&repeat, "TTGACCGATTACAGGACCGATACCGATTAG"], 15);
        let expected = serial_index(&contigs, 15);
        for ranks in [1usize, 2, 3] {
            Team::single_node(ranks).run(|ctx| {
                let index = index_of(ctx, &contigs, 15);
                let (keys, slots) =
                    with_seed_keys!(index, shard => (shard.keys.len(), shard.slots.len()));
                let records = contigs
                    .contigs
                    .iter()
                    .flat_map(|c| kmers::kmer_positions(&c.seq, 15))
                    .filter(|(_, km)| index.owner_of(&km.canonical().0) == ctx.rank())
                    .count();
                assert_eq!(
                    slots,
                    (2 * keys).next_power_of_two().max(2),
                    "{ranks} ranks"
                );
                if ranks == 1 {
                    assert_eq!((keys, records), (35, 420));
                    assert_eq!((slots, (2 * records).next_power_of_two()), (128, 1024));
                }
                for (seed, hits) in &expected {
                    match index.lookup(seed) {
                        Ok(got) => assert_eq!(got, &hits[..], "{seed} at {ranks} ranks"),
                        Err(owner) => assert_ne!(owner, ctx.rank()),
                    }
                }
                let absent = Kmer::from_bytes(b"AAAAAAAAAAAAAAA").unwrap();
                if index.owner_of(&absent) == ctx.rank() {
                    assert_eq!(index.lookup(&absent), Ok(&[][..]));
                }
            });
        }
    }

    #[test]
    fn every_key_width_holds_and_serves_what_the_kmer_keyed_oracle_does() {
        let unit = "ACGGTCAGGTTCAAGGACT";
        let shared = "TTGACCGATTACAGGACCGATACCGATTAGGACCAGTCCATGGCATTACGGATACCAG";
        let repeat = unit.repeat(40);
        let seqs = [
            repeat.as_str(),
            &format!("{shared}NNNN{unit}GATTACA{shared}{unit}"),
            &format!("CCATG{shared}GGCATTACGGATACCAGGATC{unit}{shared}"),
        ];
        for seed_len in [31, 33, 63, 65] {
            let contigs = contig_set(&seqs, seed_len);
            let expected = oracle(&contigs, seed_len);
            assert!(expected.len() > 60, "seed {seed_len}: too few seeds");
            let queries: Vec<Kmer> = expected.iter().map(|(seed, _)| *seed).collect();
            for ranks in [1usize, 3] {
                let per_rank = Team::single_node(ranks).run(|ctx| {
                    let index = index_of(ctx, &contigs, seed_len);
                    let served: Vec<Vec<SeedHit>> = get_many(ctx, &index, &queries)
                        .into_iter()
                        .map(|hits| hits.map_or(Vec::new(), |h| h.as_slice().to_vec()))
                        .collect();
                    (gathered(ctx, &index), served)
                });
                for (held, served) in per_rank {
                    assert_eq!(held, expected, "seed {seed_len}, {ranks} ranks: content");
                    let want: Vec<Vec<SeedHit>> = expected.iter().map(|e| e.1.clone()).collect();
                    assert_eq!(served, want, "seed {seed_len}, {ranks} ranks: lookups");
                }
            }
        }
    }

    #[test]
    fn repetitive_seeds_are_capped_at_the_smallest_positions() {
        // A single contig consisting of a tandem repeat: every seed occurs 40
        // times (39 for the last few) and keeps its 32 leftmost positions,
        // whatever order the records arrived in.
        let unit = "ACGGTCAGGTTCAAGGACT";
        let repeat: String = unit.repeat(40);
        let contigs = contig_set(&[&repeat], 15);
        let team = Team::single_node(2);
        team.run(|ctx| {
            let index = index_of(ctx, &contigs, 15);
            for (seed, hits) in index.local_entries() {
                assert_eq!(hits.len(), SeedIndex::MAX_HITS_PER_SEED, "{seed}");
                let first = hits[0].pos();
                assert!((first as usize) < unit.len(), "{seed}: leftmost copy kept");
                for (i, hit) in hits.iter().enumerate() {
                    assert_eq!(
                        hit.pos() as usize,
                        first as usize + i * unit.len(),
                        "{seed}"
                    );
                }
            }
            let seeds = ctx.allreduce_sum_u64(index.local_entries().count() as u64);
            assert_eq!(seeds as usize, unit.len(), "one seed per repeat phase");
        });
    }

    #[test]
    fn remote_hits_round_trip_every_length() {
        let hit = |pos| SeedHit::new(7, pos, pos % 2 == 0);
        assert!(RemoteHits::of(&[]).is_none());
        for len in 1..=5usize {
            let hits: Vec<SeedHit> = (0..len).map(hit).collect();
            let remote = RemoteHits::of(&hits).expect("non-empty");
            assert_eq!(remote.clone().as_slice(), hits);
        }
    }

    #[test]
    fn a_hit_holds_the_largest_contig_id_and_position() {
        let hit = SeedHit::new(u64::from(u32::MAX), (1 << 31) - 1, true);
        assert_eq!(hit.contig(), u64::from(u32::MAX));
        assert_eq!(hit.pos(), (1 << 31) - 1);
        assert!(hit.forward());
        assert!(!SeedHit::new(0, 0, false).forward());
    }

    #[test]
    #[should_panic(expected = "seed index: contig 4294967296 at position 0 does not fit")]
    fn a_contig_id_of_two_to_the_32_is_refused() {
        SeedHit::new(1 << 32, 0, true);
    }

    #[test]
    #[should_panic(expected = "seed index: contig 3 at position 2147483648 does not fit")]
    fn a_position_of_two_to_the_31_is_refused() {
        SeedHit::new(3, 1 << 31, false);
    }

    #[test]
    #[should_panic]
    fn even_seed_length_rejected() {
        let contigs = contig_set(&["ACGGTCAGGTTCAAGGACT"], 15);
        let team = Team::single_node(1);
        team.run(|ctx| {
            let _ = index_of(ctx, &contigs, 16);
        });
    }
}

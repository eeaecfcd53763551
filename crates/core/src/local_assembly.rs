//! Local assembly: mer-walking contig extension with dynamic work stealing
//! (§II-G).
//!
//! For every contig, the reads that align near its ends (plus mates of
//! aligned reads that themselves did not align, projected outward by the
//! library insert size) are gathered into a local pool. The contig end is then
//! extended base by base: at each step the pool reads containing the last `m`
//! assembled bases are looked up, and the bases observed immediately after
//! form votes. A unanimous-enough vote extends the contig; a conflicted
//! vote *upshifts* the mer size `m` (more context disambiguates repeats); no
//! votes *downshift* it (less context rescues thin coverage). The walk
//! terminates when it encounters a fork after downshifting or a dead end after
//! upshifting, as in the paper.
//!
//! The paper "stores the reads of a contig in a hash table"; here that is the
//! seed index of a [`MerWalker`], built once per contig pool. Every position
//! of every pool read is filed under the `s`-base seed starting there
//! (`s = min(8, min_mer, mer_size)`, a direct-addressed table of 4^s bucket
//! heads with the hits chained behind them), so a vote round packs the first
//! `s` bases of the context, walks one bucket and compares the full `m` raw
//! bytes at each hit. Three properties keep it to one index per pool:
//!
//! * `s` is no longer than the smallest mer the shift schedule reaches, so
//!   the same index answers every mer size;
//! * a read window equals the reverse complement of a context exactly when
//!   its own reverse complement equals the context, so the left walk looks
//!   up the reverse complement of its context in the same index and votes
//!   the complement of the base *before* each hit — no pool is ever
//!   reverse-complemented;
//! * the seed code is two bits of the *raw* byte, so `N` and lower case merely
//!   share a bucket with some base and are told apart by the comparison.
//!
//! The index is scratch owned by the walker (256 KiB of heads plus 12 bytes
//! per pool base of the largest pool seen), cleared bucket by bucket between
//! contigs; a contig costs time linear in its pool bases plus bases walked.
//!
//! Because the cost of a walk is unpredictable, contigs are dealt to ranks in
//! blocks through the shared atomic counter of [`pgas::DynamicBlocks`].

use aligner::AlignmentSet;
use dbg::{ContigSet, ContigsRef};
use dht::{bulk_merge, DistMap, FxHashMap, FxHashSet};
use pgas::{Ctx, DynamicBlocks};
use readstore::ReadsRef;
use seqio::alphabet::{complement, decode_base, encode_base, revcomp};
use seqio::{ReadId, ReadLibrary};
use std::sync::Arc;

/// Parameters of local assembly.
#[derive(Debug, Clone, Copy)]
pub struct LocalAssemblyParams {
    /// Initial mer size used for walking.
    pub mer_size: usize,
    /// Step L by which the mer size is shifted up/down.
    pub shift: usize,
    /// Smallest mer size before a downshift terminates the walk.
    pub min_mer: usize,
    /// Largest mer size before an upshift terminates the walk.
    pub max_mer: usize,
    /// Minimum votes for an extension base to be accepted.
    pub min_votes: usize,
    /// Maximum number of contradicting votes tolerated for an extension.
    pub max_contradictions: usize,
    /// Maximum bases added per contig end (safety bound).
    pub max_extension: usize,
    /// Reads whose alignment ends within this distance of a contig end (or
    /// whose projected mate lands beyond it) join the end's read pool.
    pub end_window: usize,
    /// Work-stealing block size (contigs per grab): a grabbed block's read
    /// pools and contig sequences are fetched in one aggregated message pair
    /// per owner.
    pub block_size: usize,
}

impl Default for LocalAssemblyParams {
    fn default() -> Self {
        LocalAssemblyParams {
            mer_size: 19,
            shift: 4,
            min_mer: 11,
            max_mer: 33,
            min_votes: 2,
            max_contradictions: 1,
            max_extension: 400,
            end_window: 150,
            block_size: 16,
        }
    }
}

/// Extends every contig of a replicated set at both ends. Collective.
pub fn extend_contigs_locally(
    ctx: &Ctx,
    contigs: &ContigSet,
    alignments: &AlignmentSet,
    library: &ReadLibrary,
    params: &LocalAssemblyParams,
) -> (ContigSet, usize) {
    extend_contigs_locally_ref(
        ctx,
        ContigsRef::Local(contigs),
        alignments,
        ReadsRef::Local(library),
        params,
    )
}

/// Extends every contig at both ends using locally gathered reads. Collective.
/// Returns the extended contig set (identical on every rank) and the per-rank
/// number of contigs processed (the Figure-5 load-balance signal).
///
/// Against the distributed contig store, a grabbed block's contig sequences
/// travel in the same kind of *one-sided* aggregated batch as its read pools
/// ([`dbg::ContigReader::get_many_onesided`]) — the steal loop cannot reach a
/// collective in lockstep — so the walks themselves stay communication-free.
///
/// Against the distributed *read* store, pool membership is decided from the
/// replicated length table alone; the sequences of pool members (aligned
/// reads near contig ends plus their projected mates) are then fetched in one
/// collective aggregated round before the steal loop starts, so the loop
/// itself touches no read storage.
pub fn extend_contigs_locally_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    alignments: &AlignmentSet,
    reads: ReadsRef<'_>,
    params: &LocalAssemblyParams,
) -> (ContigSet, usize) {
    let entries = pool_entries(contigs, alignments, reads, params);

    // ---- Fetch pool member sequences, then build the pools ------------------
    // Distributed read store: one collective aggregated fetch for every pool
    // member this rank named (block-deduplicated); the replicated baseline
    // borrows straight from the library. Collective — every rank reaches this
    // point with its own (possibly empty) id set.
    let fetched: FxHashMap<ReadId, seqio::Read> = match reads {
        ReadsRef::Local(_) => FxHashMap::default(),
        ReadsRef::Store(store) => {
            let ids: Vec<ReadId> = entries.iter().map(|&(_, id, _)| id).collect();
            store.fetch_reads(ctx, &ids)
        }
    };
    let seq_of = |id: ReadId| -> &[u8] {
        match reads {
            ReadsRef::Local(lib) => &lib.read(id).seq,
            ReadsRef::Store(_) => &fetched.get(&id).expect("pool read fetched").seq,
        }
    };
    let mut pools: FxHashMap<u64, Vec<Vec<u8>>> = FxHashMap::default();
    for &(contig, id, forward) in &entries {
        pools
            .entry(contig)
            .or_default()
            .push(oriented_seq(seq_of(id), forward));
    }
    drop(entries);

    // ---- Store each contig's read pool in a global hash table ----------------
    // "Each thread reads a portion of the reads file, and stores the reads into
    // a global hash table. Then each thread processes a local subset of
    // contigs, and extracts the reads relevant to each contig to local
    // storage." (§II-G). The pool table is a distributed hash table populated
    // with the usual aggregated update-only phase.
    let pool_table: Arc<DistMap<u64, Vec<Vec<u8>>>> = DistMap::shared(ctx);
    bulk_merge(ctx, &pool_table, pools, 1024, |a, mut b| a.append(&mut b));

    // ---- Walk contigs with dynamic work stealing ----------------------------
    // Once a contig's reads are extracted to local storage the walk itself
    // needs no communication; blocks of contigs are grabbed through the shared
    // atomic counter so ranks with cheap walks steal from slower ones. A
    // grabbed block's read pools — and, with a distributed contig store, its
    // contig sequences — are fetched with one *one-sided* aggregated batch
    // per block (the steal loop cannot reach a collective in lockstep, so the
    // two-sided `get_many` is not usable here).
    let blocks = ctx.share(|| DynamicBlocks::new(contigs.num_contigs(), params.block_size));
    let mut reader = contigs.store().map(|s| s.reader(ctx));
    let mut walker = MerWalker::new(params);
    let mut extended_local: Vec<(u64, Vec<u8>, f64)> = Vec::new();
    let mut processed = 0usize;
    let mut first = true;
    while let Some(range) = blocks.next_block(ctx, first) {
        first = false;
        // Contig ids are dense (`ContigSet::from_sequences` numbers them
        // 0..n in order), so the block range is the id range.
        let ids: Vec<u64> = range.clone().map(|idx| idx as u64).collect();
        let pools = pool_table.get_many_onesided(ctx, &ids);
        let block_seqs: Option<Vec<Vec<u8>>> = reader.as_mut().map(|reader| {
            reader
                .get_many_onesided(ctx, &ids)
                .into_iter()
                .map(|p| p.expect("contig present in store").unpack())
                .collect()
        });
        for ((j, idx), pool) in range.enumerate().zip(pools) {
            let id = idx as u64;
            processed += 1;
            let pool = pool.unwrap_or_default();
            let seq: &[u8] = match (&contigs, &block_seqs) {
                (ContigsRef::Local(set), _) => &set.contigs[idx].seq,
                (ContigsRef::Store(_), Some(seqs)) => &seqs[j],
                (ContigsRef::Store(_), None) => unreachable!("store sources fetch blocks"),
            };
            let depth = contigs.depth_of(id).expect("contig exists");
            let new_seq = walker.extend_one(seq, &pool);
            extended_local.push((id, new_seq, depth));
        }
    }
    ctx.barrier();

    // ---- Gather the extended contigs into a new deterministic set ------------
    let gathered = ctx.gather(extended_local);
    let set = ctx.broadcast(|| {
        let seqs = gathered.into_iter().map(|(_, seq, depth)| (seq, depth));
        ContigSet::from_sequences(contigs.k(), seqs.collect())
    });
    (set, processed)
}

/// Decides pool membership from metadata only. Each entry is one pool push:
/// (contig, read id, orientation). Pool order must be deterministic and
/// identical to the replicated baseline's, so decisions are recorded in
/// alignment order before any sequence bytes move.
fn pool_entries(
    contigs: ContigsRef<'_>,
    alignments: &AlignmentSet,
    reads: ReadsRef<'_>,
    params: &LocalAssemblyParams,
) -> Vec<(u64, ReadId, bool)> {
    // Every (read, contig) pair this rank aligned: a mate in this set is
    // already in the contig's pool through its own alignment.
    let aligned: FxHashSet<(ReadId, u64)> = if reads.paired() {
        alignments
            .alignments
            .iter()
            .map(|a| (a.read_id, a.contig))
            .collect()
    } else {
        FxHashSet::default()
    };
    let mut entries = Vec::new();
    for a in &alignments.alignments {
        let Some(contig_len) = contigs.len_of(a.contig) else {
            continue;
        };
        let read_len = reads.len_of(a.read_id);
        let near_head = a.contig_offset < params.end_window as i64;
        let near_tail =
            a.contig_offset + read_len as i64 > contig_len as i64 - params.end_window as i64;
        if !(near_head || near_tail) {
            continue;
        }
        entries.push((a.contig, a.read_id, a.forward));
        // Project the unaligned mate outward: if the mate did not align to this
        // contig it likely lies in the unassembled flank, so add it (in the
        // orientation implied by the library) to the pool as well.
        if let Some(mate_id) = reads.mate_of(a.read_id) {
            if !aligned.contains(&(mate_id, a.contig)) {
                // FR library: the mate points back toward the read, so in
                // contig orientation it appears reverse-complemented
                // relative to the aligned read's orientation.
                entries.push((a.contig, mate_id, !a.forward));
            }
        }
    }
    entries
}

fn oriented_seq(seq: &[u8], forward: bool) -> Vec<u8> {
    if forward {
        seq.to_vec()
    } else {
        revcomp(seq)
    }
}

/// Longest seed the index keys on: 4^8 direct-addressed buckets (256 KiB).
const MAX_SEED_LEN: usize = 8;

/// Two bits of a raw byte that tell `A`, `C`, `G` and `T` apart. Every other
/// byte (`N`, lower case, ...) shares a code with one of them, which only
/// costs a failed comparison: hits are verified on their raw bytes.
#[inline]
fn seed_code(b: u8) -> usize {
    ((b >> 1) & 3) as usize
}

/// Which end of the contig a walk extends.
#[derive(Debug, Clone, Copy)]
enum Direction {
    Right,
    Left,
}

/// One indexed occurrence of a seed, chained to the previous one of its bucket.
#[derive(Debug, Clone, Copy)]
struct SeedHit {
    /// Index + 1 of the next hit in the bucket; 0 ends the chain.
    next: u32,
    read: u32,
    pos: u32,
}

/// The seed index of one contig's read pool: every position of every read,
/// filed under the packed [`seed_code`]s of the `seed_len` bytes starting
/// there.
#[derive(Debug)]
struct PoolIndex {
    seed_len: usize,
    /// Per bucket, index + 1 of its most recent hit; 0 if empty.
    heads: Vec<u32>,
    hits: Vec<SeedHit>,
    /// Buckets in use, so that re-indexing clears only those.
    used: Vec<u32>,
}

impl PoolIndex {
    fn new(seed_len: usize) -> Self {
        PoolIndex {
            seed_len,
            heads: vec![0; 1 << (2 * seed_len)],
            hits: Vec::new(),
            used: Vec::new(),
        }
    }

    /// Replaces the indexed pool.
    fn index(&mut self, pool: &[Vec<u8>]) {
        for bucket in self.used.drain(..) {
            self.heads[bucket as usize] = 0;
        }
        self.hits.clear();
        let bases: usize = pool.iter().map(Vec::len).sum();
        assert!(
            pool.len() < u32::MAX as usize && bases < u32::MAX as usize,
            "read pool of {bases} bases exceeds the index's 32-bit positions"
        );
        let mask = self.heads.len() - 1;
        for (r, read) in pool.iter().enumerate() {
            let mut key = 0usize;
            for (i, &b) in read.iter().enumerate() {
                key = (key << 2 | seed_code(b)) & mask;
                if i + 1 < self.seed_len {
                    continue;
                }
                let head = &mut self.heads[key];
                if *head == 0 {
                    self.used.push(key as u32);
                }
                self.hits.push(SeedHit {
                    next: *head,
                    read: r as u32,
                    pos: (i + 1 - self.seed_len) as u32,
                });
                *head = self.hits.len() as u32;
            }
        }
    }

    /// Votes on the base that follows the context of a walk, indexed by its
    /// 2-bit code in walk orientation. `needle` is the context as it reads in
    /// the pool's orientation: the context itself for a right walk, its
    /// reverse complement for a left walk. Every occurrence of `needle` in a
    /// pool read votes the base after it (right), or the complement of the
    /// base before it (left).
    fn votes(&self, pool: &[Vec<u8>], needle: &[u8], direction: Direction) -> [usize; 4] {
        let mut votes = [0usize; 4];
        let mer = needle.len();
        if mer < self.seed_len {
            // Only the empty context is shorter than a seed (a seed is at
            // most the smallest mer size a walk reaches); it matches nothing.
            return votes;
        }
        let key = needle[..self.seed_len]
            .iter()
            .fold(0usize, |key, &b| key << 2 | seed_code(b));
        let mut at = self.heads[key];
        while at != 0 {
            let hit = self.hits[at as usize - 1];
            at = hit.next;
            let read = &pool[hit.read as usize];
            let pos = hit.pos as usize;
            if read.get(pos..pos + mer) != Some(needle) {
                continue;
            }
            let voter = match direction {
                Direction::Right => read.get(pos + mer).copied(),
                Direction::Left => pos.checked_sub(1).map(|before| complement(read[before])),
            };
            if let Some(code) = voter.and_then(encode_base) {
                votes[code as usize] += 1;
            }
        }
        votes
    }
}

/// Extends contigs from their read pools, one contig at a time. Owns the
/// seed index and the context buffers, all reused from contig to contig.
#[derive(Debug)]
pub struct MerWalker {
    params: LocalAssemblyParams,
    index: PoolIndex,
    /// The bases a walk sees, in walk orientation: the contig's last bases
    /// followed by the bases added so far.
    context: Vec<u8>,
    /// Reverse complement of the current context of a left walk.
    needle: Vec<u8>,
}

impl MerWalker {
    /// A walker for the given parameters.
    pub fn new(params: &LocalAssemblyParams) -> Self {
        let seed_len = MAX_SEED_LEN.min(params.min_mer).min(params.mer_size).max(1);
        MerWalker {
            params: *params,
            index: PoolIndex::new(seed_len),
            context: Vec::new(),
            needle: Vec::new(),
        }
    }

    /// Extends one contig sequence at both ends using its read pool (reads
    /// in contig orientation).
    pub fn extend_one(&mut self, contig_seq: &[u8], pool: &[Vec<u8>]) -> Vec<u8> {
        if pool.is_empty() {
            return contig_seq.to_vec();
        }
        self.index.index(pool);
        // A walk never looks further back than the largest mer it can reach.
        let reach = self.params.mer_size.max(self.params.max_mer);
        let mut seq = contig_seq.to_vec();
        // Right (tail) extension on the forward strand ...
        self.context.clear();
        self.context
            .extend_from_slice(&seq[seq.len().saturating_sub(reach)..]);
        let seeded = self.context.len();
        self.walk(pool, Direction::Right);
        seq.extend_from_slice(&self.context[seeded..]);
        // ... then the left extension as a right extension of the reverse
        // complement (of the contig *with* its new tail, which matters when
        // the contig is shorter than a mer).
        self.context.clear();
        self.context.extend(
            seq[..reach.min(seq.len())]
                .iter()
                .rev()
                .map(|&b| complement(b)),
        );
        let seeded = self.context.len();
        self.walk(pool, Direction::Left);
        let added = &self.context[seeded..];
        let mut out = Vec::with_capacity(added.len() + seq.len());
        out.extend(added.iter().rev().map(|&b| complement(b)));
        out.extend_from_slice(&seq);
        out
    }

    /// Mer-walks from the end of `self.context`, appending the new bases to
    /// it.
    fn walk(&mut self, pool: &[Vec<u8>], direction: Direction) {
        let params = self.params;
        let seeded = self.context.len();
        let mut mer = params.mer_size;
        let mut shifted_up = false;
        let mut shifted_down = false;
        while self.context.len() - seeded < params.max_extension {
            // Current context: the last `mer` bases of the assembled sequence.
            let Some(from) = self.context.len().checked_sub(mer) else {
                break;
            };
            let context = &self.context[from..];
            let needle = match direction {
                Direction::Right => context,
                Direction::Left => {
                    self.needle.clear();
                    self.needle
                        .extend(context.iter().rev().map(|&b| complement(b)));
                    &self.needle
                }
            };
            let votes = self.index.votes(pool, needle, direction);
            let total: usize = votes.iter().sum();
            let (best, best_votes) = votes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(i, &v)| (i, v))
                .expect("four vote slots");
            let contradictions = total - best_votes;
            if total == 0 {
                // Dead end: downshift, or stop if we already upshifted / hit
                // bottom (a zero shift would retry the same mer forever).
                if shifted_up || mer <= params.min_mer || params.shift == 0 {
                    break;
                }
                mer = mer.saturating_sub(params.shift).max(params.min_mer);
                shifted_down = true;
                continue;
            }
            if best_votes >= params.min_votes && contradictions <= params.max_contradictions {
                self.context.push(decode_base(best as u8));
                continue;
            }
            // Fork: upshift, or stop if we already downshifted / hit the ceiling.
            if shifted_down || mer >= params.max_mer || params.shift == 0 {
                break;
            }
            mer = mer.saturating_add(params.shift).min(params.max_mer);
            shifted_up = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligner::Alignment;
    use pgas::Team;
    use seqio::Read;

    fn genome(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    /// The substring-scan voter the seed index replaced, kept as the
    /// reference the index is checked against: every occurrence of `context`
    /// in a pool read votes the base after it.
    fn oracle_votes(pool: &[Vec<u8>], context: &[u8]) -> [usize; 4] {
        let mer = context.len();
        let mut votes = [0usize; 4];
        for read in pool {
            if read.len() <= mer {
                continue;
            }
            let mut start = 0usize;
            while let Some(pos) = find_sub(&read[start..], context) {
                let abs = start + pos;
                if abs + mer < read.len() {
                    if let Some(code) = encode_base(read[abs + mer]) {
                        votes[code as usize] += 1;
                    }
                }
                start = abs + 1;
                if start >= read.len() {
                    break;
                }
            }
        }
        votes
    }

    /// Naive substring search.
    fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() || haystack.len() < needle.len() {
            return None;
        }
        haystack.windows(needle.len()).position(|w| w == needle)
    }

    /// The reference right walk: allocates its context and scans the pool on
    /// every step. (Needs `shift > 0` to terminate.)
    fn oracle_walk(seq: &[u8], pool: &[Vec<u8>], params: &LocalAssemblyParams) -> Vec<u8> {
        let mut added: Vec<u8> = Vec::new();
        let mut mer = params.mer_size;
        let mut shifted_up = false;
        let mut shifted_down = false;
        while added.len() < params.max_extension {
            if seq.len() + added.len() < mer {
                break;
            }
            let mut context: Vec<u8> = Vec::with_capacity(mer);
            if added.len() >= mer {
                context.extend_from_slice(&added[added.len() - mer..]);
            } else {
                context.extend_from_slice(&seq[seq.len() - (mer - added.len())..]);
                context.extend_from_slice(&added);
            }
            let votes = oracle_votes(pool, &context);
            let total: usize = votes.iter().sum();
            let (best, best_votes) = votes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(i, &v)| (i, v))
                .unwrap();
            if total == 0 {
                if shifted_up || mer <= params.min_mer {
                    break;
                }
                mer = mer.saturating_sub(params.shift).max(params.min_mer);
                shifted_down = true;
                continue;
            }
            if best_votes >= params.min_votes && total - best_votes <= params.max_contradictions {
                added.push(decode_base(best as u8));
                continue;
            }
            if shifted_down || mer >= params.max_mer {
                break;
            }
            mer = (mer + params.shift).min(params.max_mer);
            shifted_up = true;
        }
        added
    }

    /// The reference `extend_one`: the left walk is a right walk over
    /// reverse-complemented copies of the contig and of every pool read.
    fn oracle_extend_one(
        contig_seq: &[u8],
        pool: &[Vec<u8>],
        params: &LocalAssemblyParams,
    ) -> Vec<u8> {
        if pool.is_empty() {
            return contig_seq.to_vec();
        }
        let mut seq = contig_seq.to_vec();
        let right = oracle_walk(&seq, pool, params);
        seq.extend_from_slice(&right);
        let mut rc = revcomp(&seq);
        let rc_pool: Vec<Vec<u8>> = pool.iter().map(|r| revcomp(r)).collect();
        let left = oracle_walk(&rc, &rc_pool, params);
        rc.extend_from_slice(&left);
        revcomp(&rc)
    }

    /// The indexed right walk on its own, with the oracle's signature.
    fn walk_extension(seq: &[u8], pool: &[Vec<u8>], params: &LocalAssemblyParams) -> Vec<u8> {
        let mut walker = MerWalker::new(params);
        walker.index.index(pool);
        walker.context.extend_from_slice(seq);
        walker.walk(pool, Direction::Right);
        walker.context[seq.len()..].to_vec()
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A ~400-base reference with homopolymer runs (self-overlapping matches)
    /// and a two-copy repeat, and a pool of reads drawn from it: substitution
    /// errors, `N`s, lower-case stretches, reads shorter than a seed or no
    /// longer than a mer, exact duplicates.
    fn messy_pool(seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let mut reference = genome(120, seed);
        reference.extend(std::iter::repeat_n(b'A', 20 + rng.below(30)));
        let repeat = genome(45, seed + 1000);
        reference.extend_from_slice(&repeat);
        reference.extend(std::iter::repeat_n(b'G', 10 + rng.below(10)));
        reference.extend_from_slice(&genome(60, seed + 2000));
        reference.extend_from_slice(&repeat);
        reference.extend_from_slice(&genome(80, seed + 3000));
        let mut pool: Vec<Vec<u8>> = Vec::new();
        for _ in 0..120 {
            let len = match rng.below(10) {
                0 => 1 + rng.below(12),
                1 => 12 + rng.below(25),
                _ => 40 + rng.below(50),
            };
            let start = rng.below(reference.len() - len + 1);
            let mut read = reference[start..start + len].to_vec();
            for b in read.iter_mut() {
                match rng.below(100) {
                    0 => *b = b"ACGT"[rng.below(4)],
                    1 => *b = b'N',
                    _ => {}
                }
            }
            if rng.below(8) == 0 {
                let from = rng.below(read.len());
                let to = (from + 1 + rng.below(10)).min(read.len());
                read[from..to].make_ascii_lowercase();
            }
            if rng.below(6) == 0 {
                pool.push(read.clone());
            }
            pool.push(read);
        }
        (reference, pool)
    }

    /// The defaults; a schedule whose smallest mer is shorter than
    /// [`MAX_SEED_LEN`] and whose shift does not divide its range; one where
    /// ties between vote counts decide; and two that `validate` refuses but
    /// a direct caller can pass: `mer_size > max_mer` and `mer_size < min_mer`.
    fn param_sets() -> Vec<LocalAssemblyParams> {
        vec![
            LocalAssemblyParams::default(),
            LocalAssemblyParams {
                mer_size: 7,
                shift: 2,
                min_mer: 3,
                max_mer: 12,
                ..Default::default()
            },
            LocalAssemblyParams {
                min_votes: 1,
                max_contradictions: 3,
                max_extension: 60,
                ..Default::default()
            },
            LocalAssemblyParams {
                mer_size: 40,
                max_mer: 36,
                ..Default::default()
            },
            LocalAssemblyParams {
                mer_size: 6,
                shift: 3,
                min_mer: 10,
                max_mer: 16,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn indexed_votes_equal_scanned_votes_in_both_directions() {
        let mut voted = [0usize; 2];
        for seed in 1..=6u64 {
            let (reference, pool) = messy_pool(seed);
            let rc_pool: Vec<Vec<u8>> = pool.iter().map(|r| revcomp(r)).collect();
            let rc_reference = revcomp(&reference);
            let mut rng = XorShift(seed ^ 0xABCDEF);
            for params in param_sets() {
                let mut walker = MerWalker::new(&params);
                walker.index.index(&pool);
                // Every mer size the shift schedule can reach, and the ones
                // between them.
                let smallest = params.min_mer.min(params.mer_size);
                let largest = params.max_mer.max(params.mer_size);
                for mer in smallest..=largest {
                    // Contexts cut from the reference, from reads (with their
                    // `N`s and lower case) and from both reverse complements.
                    let mut contexts: Vec<Vec<u8>> = Vec::new();
                    for _ in 0..40 {
                        let source: &[u8] = match rng.below(4) {
                            0 => &reference,
                            1 => &rc_reference,
                            2 => &pool[rng.below(pool.len())],
                            _ => &rc_pool[rng.below(pool.len())],
                        };
                        if source.len() >= mer {
                            let at = rng.below(source.len() - mer + 1);
                            contexts.push(source[at..at + mer].to_vec());
                        }
                    }
                    contexts.push(vec![b'A'; mer]);
                    contexts.push(vec![b'N'; mer]);
                    for context in &contexts {
                        let right = oracle_votes(&pool, context);
                        assert_eq!(
                            walker.index.votes(&pool, context, Direction::Right),
                            right,
                            "right votes, seed {seed}, mer {mer}"
                        );
                        let left = oracle_votes(&rc_pool, context);
                        assert_eq!(
                            walker
                                .index
                                .votes(&pool, &revcomp(context), Direction::Left),
                            left,
                            "left votes, seed {seed}, mer {mer}"
                        );
                        voted[0] += usize::from(right != [0; 4]);
                        voted[1] += usize::from(left != [0; 4]);
                    }
                }
            }
        }
        assert!(
            voted.iter().all(|&n| n > 1000),
            "contexts that drew votes (right, left): {voted:?}"
        );
    }

    #[test]
    fn extend_one_equals_the_scanning_reference() {
        let mut extended = 0usize;
        for seed in 1..=8u64 {
            let (reference, pool) = messy_pool(seed);
            let mut contigs: Vec<Vec<u8>> = vec![
                reference[100..260].to_vec(),
                reference[30..130].to_vec(),
                reference[200..215].to_vec(), // shorter than the default mer
                Vec::new(),
                revcomp(&reference[100..260]),
            ];
            let mut with_n = reference[60..200].to_vec();
            with_n[5] = b'N';
            with_n[130] = b'n';
            contigs.push(with_n);
            for params in param_sets() {
                // One walker for all contigs, each pool indexed after a
                // larger one: nothing may leak through the reused scratch.
                let mut walker = MerWalker::new(&params);
                for contig in &contigs {
                    for pool in [&pool[..], &pool[..pool.len() / 3], &[]] {
                        let got = walker.extend_one(contig, pool);
                        assert_eq!(
                            got,
                            oracle_extend_one(contig, pool, &params),
                            "seed {seed}, contig of {} bases, {params:?}",
                            contig.len()
                        );
                        extended += usize::from(got.len() > contig.len());
                    }
                }
            }
        }
        assert!(extended > 50, "only {extended} walks extended anything");
    }

    #[test]
    fn reindexing_leaves_no_hit_of_the_previous_pool() {
        let (_, big) = messy_pool(3);
        let small = vec![genome(70, 77), genome(12, 78), b"ACGTN".to_vec()];
        let mut walker = MerWalker::new(&LocalAssemblyParams::default());
        walker.index.index(&big);
        walker.index.index(&small);
        assert_eq!(
            walker.index.hits.len(),
            small
                .iter()
                .map(|r| (r.len() + 1).saturating_sub(walker.index.seed_len))
                .sum::<usize>()
        );
        let live = walker.index.heads.iter().filter(|&&h| h != 0).count();
        assert_eq!(live, walker.index.used.len());
        // Contexts of the first pool find nothing, in either direction ...
        for read in big.iter().filter(|r| r.len() > 19) {
            let context = &read[..19];
            assert_eq!(oracle_votes(&small, context), [0; 4], "pools overlap");
            for direction in [Direction::Right, Direction::Left] {
                assert_eq!(walker.index.votes(&small, context, direction), [0; 4]);
            }
        }
        // ... and the second pool's own still vote.
        let context = &small[0][10..29];
        let votes = walker.index.votes(&small, context, Direction::Right);
        assert_eq!(votes, oracle_votes(&small, context));
        assert_eq!(votes.iter().sum::<usize>(), 1);
    }

    #[test]
    fn a_zero_shift_walk_returns() {
        let g = genome(300, 5);
        let params = LocalAssemblyParams {
            shift: 0,
            ..Default::default()
        };
        // Dead end at the initial mer: the tail runs out of reads.
        let pool: Vec<Vec<u8>> = (150..230)
            .step_by(7)
            .map(|i| g[i..i + 60].to_vec())
            .collect();
        let added = walk_extension(&g[..200], &pool, &params);
        assert!(!added.is_empty() && g[200..].starts_with(&added));
        // Fork at the initial mer: two well-covered continuations.
        let mut other = g[..140].to_vec();
        other.extend_from_slice(&genome(60, 99));
        let mut pool = Vec::new();
        for i in (100..140).step_by(5) {
            pool.push(g[i..i + 50].to_vec());
            pool.push(other[i..i + 50].to_vec());
        }
        let mut walker = MerWalker::new(&params);
        let out = walker.extend_one(&g[60..120], &pool);
        assert!(out.len() < 60 + 30, "walk crossed a fork: {}", out.len());
    }

    #[test]
    fn only_mates_not_aligned_to_the_same_contig_are_projected() {
        let contigs =
            ContigSet::from_sequences(21, vec![(genome(300, 21), 10.0), (genome(300, 22), 10.0)]);
        let mut lib = ReadLibrary::new_paired("lib", 200, 20);
        for pair in 0..3 {
            lib.push_pair(
                Read::with_uniform_quality(format!("p{pair}/1"), &genome(60, 30 + pair), 35),
                Read::with_uniform_quality(format!("p{pair}/2"), &genome(60, 40 + pair), 35),
            );
        }
        let aln = |read_id, contig, forward, contig_offset| Alignment {
            read_id,
            contig,
            forward,
            contig_offset,
            aligned_len: 60,
            matches: 60,
        };
        let alignments = AlignmentSet {
            alignments: vec![
                // Pair 0: both mates on contig 0 — each enters through its
                // own alignment, neither is projected a second time.
                aln(0, 0, true, 10),
                aln(1, 0, false, 150),
                // Pair 1: read 2 on contig 0, its mate only on contig 1 —
                // each is projected into the other's contig.
                aln(2, 0, false, 230),
                aln(3, 1, true, 0),
                // Pair 2: read 4 mid-contig (outside both end windows) adds
                // nothing; its mate is unaligned.
                aln(4, 1, true, 120),
            ],
        };
        let params = LocalAssemblyParams {
            end_window: 100,
            ..Default::default()
        };
        let entries = pool_entries(
            ContigsRef::Local(&contigs),
            &alignments,
            ReadsRef::Local(&lib),
            &params,
        );
        assert_eq!(
            entries,
            vec![
                (0, 0, true),
                (0, 1, false),
                (0, 2, false),
                (0, 3, true),
                (1, 3, true),
                (1, 2, false),
            ]
        );
    }

    #[test]
    fn walk_extension_recovers_truncated_tail() {
        let g = genome(300, 5);
        let contig_end = &g[..200];
        // Reads covering the region around position 180..280.
        let pool: Vec<Vec<u8>> = (150..230)
            .step_by(7)
            .map(|i| g[i..i + 60].to_vec())
            .collect();
        let added = walk_extension(contig_end, &pool, &LocalAssemblyParams::default());
        assert!(!added.is_empty(), "no extension recovered");
        // Everything added must match the true genome continuation.
        let truth = &g[200..200 + added.len()];
        assert_eq!(added.as_slice(), truth);
    }

    #[test]
    fn walk_stops_without_reads() {
        let g = genome(200, 6);
        let added = walk_extension(&g, &[], &LocalAssemblyParams::default());
        assert!(added.is_empty());
    }

    #[test]
    fn walk_stops_at_genuine_fork() {
        let g = genome(200, 7);
        let contig_end = &g[..120];
        // Two divergent continuations after position 140, both well covered:
        // a fork the walk should not blindly cross.
        let mut variant_a = g[..170].to_vec();
        let mut variant_b = g[..140].to_vec();
        variant_b.extend_from_slice(&genome(60, 99));
        variant_a.truncate(200);
        let mut pool = Vec::new();
        for i in (100..140).step_by(5) {
            pool.push(variant_a[i..(i + 50).min(variant_a.len())].to_vec());
            pool.push(variant_b[i..(i + 50).min(variant_b.len())].to_vec());
        }
        let added = walk_extension(contig_end, &pool, &LocalAssemblyParams::default());
        // It may extend through the shared region (up to ~20 bases) but must
        // stop around the divergence point rather than picking a side forever.
        assert!(
            added.len() <= 30,
            "walk crossed a fork: {} bases",
            added.len()
        );
        // Whatever was added matches the shared prefix.
        let truth = &g[120..120 + added.len().min(20)];
        assert_eq!(&added[..added.len().min(20)], truth);
    }

    #[test]
    fn extend_contigs_locally_grows_contig_toward_covered_flank() {
        let g = genome(600, 8);
        // The contig covers only the middle of the genome.
        let contig_seq = g[150..450].to_vec();
        let contigs = ContigSet::from_sequences(21, vec![(contig_seq.clone(), 12.0)]);
        let stored_forward = contigs.contigs[0].seq == contig_seq;
        // Paired reads tile the whole genome.
        let mut lib = ReadLibrary::new_paired("lib", 200, 20);
        let mut alignments = AlignmentSet::default();
        let read_len = 60usize;
        for (pair, i) in (0..g.len() - 200).step_by(9).enumerate() {
            let pair = pair as u64;
            let r1 = &g[i..i + read_len];
            let r2 = revcomp(&g[i + 200 - read_len..i + 200]);
            lib.push_pair(
                Read::with_uniform_quality(format!("p{pair}/1"), r1, 35),
                Read::with_uniform_quality(format!("p{pair}/2"), &r2, 35),
            );
            // Hand-build alignments of any read that lies fully inside the
            // contig region (150..450), in contig coordinates.
            for (mate, start, fwd_on_genome) in [(0u64, i, true), (1u64, i + 200 - read_len, false)]
            {
                if start >= 150 && start + read_len <= 450 {
                    let contig_off = (start - 150) as i64;
                    let (forward, contig_offset) = if stored_forward {
                        (fwd_on_genome, contig_off)
                    } else {
                        (!fwd_on_genome, 300 - contig_off - read_len as i64)
                    };
                    alignments.alignments.push(Alignment {
                        read_id: 2 * pair + mate,
                        contig: 0,
                        forward,
                        contig_offset,
                        aligned_len: read_len,
                        matches: read_len,
                    });
                }
            }
        }
        let team = Team::single_node(2);
        let lib2 = lib.clone();
        let out = team.run(|ctx| {
            // Each rank contributes the alignments of "its" pairs only.
            let range = ctx.block_range(lib2.num_pairs());
            let mine = AlignmentSet {
                alignments: alignments
                    .alignments
                    .iter()
                    .filter(|a| range.contains(&((a.read_id / 2) as usize)))
                    .copied()
                    .collect(),
            };
            extend_contigs_locally(ctx, &contigs, &mine, &lib2, &LocalAssemblyParams::default())
        });
        for (set, _) in &out[1..] {
            assert_eq!(set, &out[0].0);
        }
        let extended = &out[0].0;
        assert_eq!(extended.len(), 1);
        assert!(
            extended.contigs[0].len() > contigs.contigs[0].len() + 20,
            "contig was not extended: {} -> {}",
            contigs.contigs[0].len(),
            extended.contigs[0].len()
        );
        // The extension must match the real genome (no junk bases).
        let ext = String::from_utf8(extended.contigs[0].seq.clone()).unwrap();
        let fwd = String::from_utf8(g.clone()).unwrap();
        let rc = String::from_utf8(revcomp(&g)).unwrap();
        assert!(
            fwd.contains(&ext) || rc.contains(&ext),
            "extended contig is not a substring of the genome"
        );
    }
}

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
//! seed index of a [`MerWalker`], built once per contig pool. A pool is one
//! 2-bit packed buffer, a [`PackedPool`]: its members in contig orientation,
//! written straight from the read store's packed blocks (a reverse member
//! through a word-parallel reverse complement), and a one-bit gap mask over
//! the same slots that marks the exceptions (`N`s) and the slots between
//! members. Every slot whose `s`-base seed is gap-free is filed under that
//! seed (`s = min(8, min_mer, mer_size)`, the codes rolled into a key; a
//! direct-addressed table of 4^s bucket heads, of which a small pool uses
//! only as many as it has slots, with the start slots chained behind them),
//! so a vote round packs the context, walks one bucket and compares the full
//! `m` codes at each hit, 32 bases per word. Three properties keep it
//! to one index per pool:
//!
//! * `s` is no longer than the smallest mer the shift schedule reaches, so
//!   the same index answers every mer size;
//! * a read window equals the reverse complement of a context exactly when
//!   its own reverse complement equals the context, so the left walk looks
//!   up the reverse complement of its context in the same index and votes
//!   the complement of the base *before* each hit — the pool is written in
//!   one orientation only;
//! * a window or voter that holds a gap neither matches nor votes, so members
//!   never run into one another and an `N` carries no evidence. Pool reads
//!   are upper-case `ACGTN` (reads are normalised when they are made, and the
//!   store folds case) and contexts are `ACGT` (traversal spells contigs from
//!   2-bit k-mers, and votes decode to `ACGT`), so on them this is exactly a
//!   comparison of the bytes.
//!
//! The index is scratch owned by the walker (256 KiB of heads plus a 4-byte
//! chain link per slot of the largest pool seen), of which a contig clears
//! only the heads its pool used; a contig costs time linear in its pool
//! bases plus bases walked.
//!
//! Because the cost of a walk is unpredictable, contigs are dealt to ranks in
//! blocks through the shared atomic counter of [`pgas::DynamicBlocks`].

use aligner::AlignmentSet;
use dbg::packed::{load_bases, load_u64, revcomp_codes};
use dbg::{ContigSet, ContigStore, ContigsRef};
use dht::{bulk_merge, DistMap, FxHashSet};
use pgas::{Ctx, DynamicBlocks};
use readstore::{ReadStore, ReadsRef};
use seqio::alphabet::{complement, decode_base};
use seqio::{PackedReadView, ReadId};
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

/// Extends every contig at both ends using locally gathered reads. Collective.
/// Returns the extended contig set (identical on every rank) and the per-rank
/// number of contigs processed (the Figure-5 load-balance signal).
///
/// A grabbed block's contig sequences travel from the contig store in the
/// same kind of *one-sided* aggregated batch as its read pools
/// ([`dbg::ContigReader::get_many_onesided`]) — the steal loop cannot reach a
/// collective in lockstep — so the walks themselves stay communication-free.
///
/// Pool membership is decided from the read store's replicated length table
/// alone; the pool members (aligned reads near contig ends plus their
/// projected mates) are then fetched in one collective aggregated round
/// before the steal loop starts, as handles on their packed blocks, so the
/// loop itself touches no read storage. Each pool is written as one
/// [`PackedPool`], and no pool read is unpacked or allocated.
pub fn extend_contigs_locally_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    alignments: &AlignmentSet,
    reads: ReadsRef<'_>,
    params: &LocalAssemblyParams,
) -> (ContigSet, usize) {
    let (ContigsRef::Store(contigs), ReadsRef::Store(reads)) = (contigs, reads);
    let mut entries = pool_entries(contigs, alignments, reads, params);
    // Grouped by contig. The order of a pool's members is immaterial: a
    // vote is a count over the whole pool.
    entries.sort_unstable_by_key(|&(contig, _, _)| contig);

    // ---- Fetch pool members, then write the pools ---------------------------
    // One collective aggregated fetch for every pool member this rank named
    // (block-deduplicated), each handed out as a handle on its packed block.
    // Collective — every rank reaches this point with its own (possibly
    // empty) id set.
    let ids: Vec<ReadId> = entries.iter().map(|&(_, id, _)| id).collect();
    let fetched = reads.fetch_packed(ctx, &ids);
    let mut handles = fetched.iter();
    let mut writer = PoolWriter::default();
    let mut pools: Vec<(u64, PackedPool)> = Vec::new();
    for members in entries.chunk_by(|a, b| a.0 == b.0) {
        for &(_, _, forward) in members {
            let read = handles
                .next()
                .and_then(Option::as_ref)
                .expect("pool read fetched");
            writer.push(&read.view(), forward);
        }
        pools.push((members[0].0, writer.finish()));
    }
    drop(fetched);
    drop(entries);

    // ---- Store each contig's read pool in a global hash table ----------------
    // "Each thread reads a portion of the reads file, and stores the reads into
    // a global hash table. Then each thread processes a local subset of
    // contigs, and extracts the reads relevant to each contig to local
    // storage." (§II-G). The pool table is a distributed hash table populated
    // with the usual aggregated update-only phase.
    let pool_table: Arc<DistMap<u64, PackedPool>> = DistMap::shared(ctx);
    bulk_merge(ctx, &pool_table, pools, 1024, PackedPool::append);

    // ---- Walk contigs with dynamic work stealing ----------------------------
    // Once a contig's reads are extracted to local storage the walk itself
    // needs no communication; blocks of contigs are grabbed through the shared
    // atomic counter so ranks with cheap walks steal from slower ones. A
    // grabbed block's read pools and contig sequences are fetched with one
    // *one-sided* aggregated batch each (the steal loop cannot reach a
    // collective in lockstep, so the two-sided `get_many` is not usable here).
    let blocks = ctx.share(|| DynamicBlocks::new(contigs.num_contigs(), params.block_size));
    let mut reader = contigs.reader(ctx);
    let mut walker = MerWalker::new(params);
    let mut extended_local: Vec<(u64, Vec<u8>, f64)> = Vec::new();
    let mut processed = 0usize;
    let mut first = true;
    while let Some(range) = blocks.next_block(ctx, first) {
        first = false;
        // Contig ids are dense (`ContigSet::from_sequences` numbers them
        // 0..n in order), so the block range is the id range.
        let ids: Vec<u64> = range.map(|idx| idx as u64).collect();
        let pools = pool_table.get_many_onesided(ctx, &ids);
        let seqs = reader.get_many_onesided(ctx, &ids);
        for ((id, seq), pool) in ids.into_iter().zip(seqs).zip(pools) {
            processed += 1;
            let seq = seq.expect("contig present in store").unpack();
            let depth = contigs.meta(id).expect("contig exists").depth;
            let new_seq = walker.extend_one(&seq, &pool.unwrap_or_default());
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
/// (contig, read id, orientation). Pool order must be deterministic, so
/// decisions are recorded in alignment order before any sequence bytes move.
fn pool_entries(
    contigs: &ContigStore,
    alignments: &AlignmentSet,
    reads: &ReadStore,
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
        let Some(contig_len) = contigs.meta(a.contig).map(|m| m.len) else {
            continue;
        };
        let read_len = reads
            .len_of(a.read_id)
            .unwrap_or_else(|| panic!("read {} out of range", a.read_id));
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

/// One contig's read pool, 2-bit packed in one buffer: the members in contig
/// orientation, one after another, each starting at a multiple of 8 slots
/// and followed by at least one gap slot. The buffer holds the slots' codes
/// (four per byte, the layout of [`dbg::PackedSeq`]) followed by their gap
/// mask (eight per byte): a slot is a gap if it holds an exception (a
/// non-`ACGT` base) or lies past the end of its member.
///
/// Pools travel through the pool table one value per contig, and the
/// transport accounts a value by its `size_of`; a pool keeps the size of the
/// `Vec<Vec<u8>>` of ASCII reads it replaced, so every recorded byte stays
/// what it was.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedPool {
    bytes: Vec<u8>,
}

const _: () = assert!(
    std::mem::size_of::<PackedPool>() == std::mem::size_of::<Vec<Vec<u8>>>()
        && std::mem::size_of::<Option<PackedPool>>() == std::mem::size_of::<Option<Vec<Vec<u8>>>>()
);

impl PackedPool {
    /// True if the pool has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of slots (a multiple of 8): three bytes hold eight.
    fn slots(&self) -> usize {
        self.bytes.len() / 3 * 8
    }

    /// The codes and the gap mask of every slot.
    fn parts(&self) -> (&[u8], &[u8]) {
        self.bytes.split_at(self.slots() / 4)
    }

    /// Appends the members of `other` (the pool table's merge).
    pub(crate) fn append(&mut self, other: PackedPool) {
        let (codes, gaps) = other.parts();
        let at = self.slots() / 4;
        self.bytes.splice(at..at, codes.iter().copied());
        self.bytes.extend_from_slice(gaps);
    }
}

/// Writes [`PackedPool`]s member by member, reusing its buffers from one pool
/// to the next: a member is copied as packed codes, or reverse complemented
/// word by word, and never unpacked.
#[derive(Debug, Default)]
pub struct PoolWriter {
    codes: Vec<u8>,
    gaps: Vec<u8>,
    /// Reverse-complement scratch.
    rc: Vec<u8>,
}

impl PoolWriter {
    /// Appends `read` to the pool being written, as it is (`forward`) or
    /// reverse complemented. Its exceptions become gaps.
    pub fn push(&mut self, read: &PackedReadView<'_>, forward: bool) {
        let len = read.len;
        let code_bytes = len.div_ceil(4);
        let slots = (len + 1).next_multiple_of(8);
        let codes = if forward {
            &read.codes[..code_bytes]
        } else {
            revcomp_codes(read.codes, len, &mut self.rc);
            &self.rc[..code_bytes]
        };
        self.codes.extend_from_slice(codes);
        self.codes
            .resize(self.codes.len() + slots / 4 - code_bytes, 0);
        // The slots past the read are gaps: from bit `len % 8` of its last
        // byte on.
        let from = self.gaps.len();
        self.gaps.resize(from + slots / 8, 0xFF);
        let gaps = &mut self.gaps[from..];
        gaps[..len / 8].fill(0);
        gaps[len / 8] = 0xFF << (len % 8);
        for &(pos, _) in read.exceptions {
            let pos = pos as usize;
            let slot = if forward { pos } else { len - 1 - pos };
            gaps[slot / 8] |= 1 << (slot % 8);
        }
    }

    /// The pool written since the last call, in one allocation.
    pub fn finish(&mut self) -> PackedPool {
        let mut bytes = Vec::with_capacity(self.codes.len() + self.gaps.len());
        bytes.extend_from_slice(&self.codes);
        bytes.extend_from_slice(&self.gaps);
        self.codes.clear();
        self.gaps.clear();
        PackedPool { bytes }
    }
}

/// True if none of slots `from..from + n` of a gap mask is set; slots past
/// the end of the mask read as clear.
#[inline]
fn gap_free(gaps: &[u8], from: usize, n: usize) -> bool {
    let (mut at, end) = (from, from + n);
    while at < end {
        // At least 57 of the word's bits lie at or after `at`.
        let take = (end - at).min(56);
        if (load_u64(gaps, at / 8) >> (at % 8)) & ((1u64 << take) - 1) != 0 {
            return false;
        }
        at += take;
    }
    true
}

/// The 2-bit code of an upper-case `A`, `C`, `G` or `T`; 4 for any other byte.
static CONTEXT_CODE: [u8; 256] = {
    let mut table = [4u8; 256];
    table[b'A' as usize] = 0;
    table[b'C' as usize] = 1;
    table[b'G' as usize] = 2;
    table[b'T' as usize] = 3;
    table
};

/// Longest seed the index keys on: 4^8 direct-addressed buckets (256 KiB).
const MAX_SEED_LEN: usize = 8;

/// Which end of the contig a walk extends.
#[derive(Debug, Clone, Copy)]
enum Direction {
    Right,
    Left,
}

/// The seed index of one contig's read pool: every gap-free window of
/// `seed_len` slots, filed under its codes (first base in the high bits, so
/// the four seeds that can follow one share a cache line of heads) and
/// chained by the slot it starts at.
///
/// A pool of fewer slots than there are seeds uses only as many buckets as
/// the power of two at or above its slot count, addressed by the low bits of
/// the key (the seed's last bases): a small pool's heads stay in cache and
/// cost no more to clear than to fill. Seeds that share a bucket are told
/// apart by the comparison every hit goes through anyway.
#[derive(Debug)]
struct PoolIndex {
    seed_len: usize,
    /// Per bucket, 1 + the start slot of its last seed; 0 if empty. 4^s long;
    /// the first `buckets` are in use.
    heads: Vec<u32>,
    /// Buckets of the indexed pool (a power of two).
    buckets: usize,
    /// Per start slot of a seed, 1 + the start slot of the previous seed of
    /// its bucket; 0 ends the chain. Sized to the largest pool seen; a slot
    /// no chain reaches is never read, so nothing is cleared.
    next: Vec<u32>,
}

impl PoolIndex {
    fn new(seed_len: usize) -> Self {
        PoolIndex {
            seed_len,
            heads: vec![0; 1 << (2 * seed_len)],
            buckets: 1,
            next: Vec::new(),
        }
    }

    /// Replaces the indexed pool.
    fn index(&mut self, pool: &PackedPool) {
        self.heads[..self.buckets].fill(0);
        let slots = pool.slots();
        assert!(
            slots < u32::MAX as usize,
            "read pool of {slots} slots exceeds the index's 32-bit positions"
        );
        self.buckets = slots.next_power_of_two().min(self.heads.len());
        if self.next.len() < slots {
            self.next.resize(slots, 0);
        }
        let (codes, gaps) = pool.parts();
        let seed_len = self.seed_len;
        let (heads, next) = (&mut self.heads[..self.buckets], &mut self.next[..slots]);
        let key_mask = heads.len() - 1;
        let mut key = 0usize;
        // The first slot of the current gap-free run.
        let mut run_start = 0usize;
        let mut file = |key: usize, start: usize| {
            let head = &mut heads[key];
            next[start] = *head;
            *head = start as u32 + 1;
        };
        for (g, &gap_bits) in gaps.iter().enumerate() {
            let group = usize::from(codes[2 * g]) | usize::from(codes[2 * g + 1]) << 8;
            if gap_bits == 0 && 8 * g + 1 >= run_start + seed_len {
                // Every slot of the group ends a seed.
                for j in 0..8 {
                    key = (key << 2 | (group >> (2 * j) & 3)) & key_mask;
                    file(key, 8 * g + j + 1 - seed_len);
                }
                continue;
            }
            for j in 0..8 {
                let slot = 8 * g + j;
                key = (key << 2 | (group >> (2 * j) & 3)) & key_mask;
                if gap_bits >> j & 1 != 0 {
                    run_start = slot + 1;
                    continue;
                }
                if slot + 1 >= run_start + seed_len {
                    file(key, slot + 1 - seed_len);
                }
            }
        }
    }

    /// Votes on the base that follows the context of a walk, indexed by its
    /// 2-bit code in walk orientation. Every gap-free occurrence of the
    /// needle's span in the pool — its context as it reads in the pool's
    /// orientation, plus the voter slot beside it — votes the voter's base:
    /// the base after the context (right), or the complement of the base
    /// before it (left).
    fn votes(&self, pool: &PackedPool, needle: &Needle) -> [usize; 4] {
        let mut votes = [0usize; 4];
        if needle.span <= self.seed_len {
            // Only the empty context is shorter than a seed (a seed is at
            // most the smallest mer size a walk reaches); it matches nothing.
            return votes;
        }
        let (codes, gaps) = pool.parts();
        let first = needle.first;
        let context = needle.words[0] >> (2 * first);
        let seed =
            (0..self.seed_len).fold(0, |key, i| key << 2 | (context >> (2 * i) & 3) as usize);
        let key = seed & (self.buckets - 1);
        let mut next = self.heads[key];
        let (links, span) = (&self.next[..], needle.span);
        if span <= 29 {
            // One word from the span's first byte holds it whole.
            let (want, mask) = (needle.words[0], needle.masks[0]);
            let span_bits = (1u64 << span) - 1;
            let (voter, complement) = (2 * needle.voter, needle.complement);
            while next != 0 {
                let at = next as usize - 1;
                next = links[at];
                let Some(start) = at.checked_sub(first) else {
                    continue;
                };
                let word = load_u64(codes, start / 4) >> (2 * (start % 4));
                if (word ^ want) & mask != 0
                    || (load_u64(gaps, start / 8) >> (start % 8)) & span_bits != 0
                {
                    continue;
                }
                votes[((word >> voter ^ complement) & 3) as usize] += 1;
            }
            return votes;
        }
        while next != 0 {
            let at = next as usize - 1;
            next = links[at];
            let Some(start) = at.checked_sub(first) else {
                continue;
            };
            let equal = needle
                .words
                .iter()
                .zip(&needle.masks)
                .enumerate()
                .all(|(w, (&want, &mask))| (load_bases(codes, start + 32 * w) ^ want) & mask == 0);
            if equal && gap_free(gaps, start, span) {
                let code = load_bases(codes, start + needle.voter);
                votes[((code ^ needle.complement) & 3) as usize] += 1;
            }
        }
        votes
    }
}

/// The context of a walk packed as the pool reads it, with the slot of its
/// voter beside it: the `span` of slots every hit has to match.
#[derive(Debug, Default)]
struct Needle {
    /// The span's codes, 32 slots per word, slot 0 in the low bits.
    words: Vec<u64>,
    /// Per word, the bits that must match: all but the voter's.
    masks: Vec<u64>,
    /// Context plus voter slots.
    span: usize,
    /// The voter's slot: after the context (right walk), or before it (left).
    voter: usize,
    /// The context's first slot: 0 (right walk), or 1, after the voter (left).
    first: usize,
    /// XOR that turns the voter's code into the voted one: 3 (complement)
    /// for a left walk, 0 for a right one.
    complement: u64,
}

impl Needle {
    /// Packs `context` as it reads in the pool's orientation — itself for a
    /// right walk, its reverse complement for a left one. Returns `false`,
    /// with the needle unspecified, if the context holds a byte that is not an
    /// upper-case `A`, `C`, `G` or `T`: such a context matches nothing.
    fn pack(&mut self, context: &[u8], direction: Direction) -> bool {
        let mer = context.len();
        self.span = mer + 1;
        let words = self.span.div_ceil(32);
        self.words.clear();
        self.words.resize(words, 0);
        self.masks.clear();
        self.masks.extend((0..words).map(|w| {
            let slots = (self.span - 32 * w).min(32);
            u64::MAX >> (64 - 2 * slots)
        }));
        (self.voter, self.first, self.complement) = match direction {
            Direction::Right => (mer, 0, 0),
            Direction::Left => (0, 1, 3),
        };
        self.masks[self.voter / 32] &= !(3u64 << (2 * (self.voter % 32)));
        // Every code is 0..=3; a byte that is not an upper-case base sets bit 2.
        let mut bad = 0u8;
        let complement = self.complement;
        let mut put = |slot: usize, b: u8| {
            let code = CONTEXT_CODE[b as usize];
            bad |= code;
            self.words[slot / 32] |= (u64::from(code & 3) ^ complement) << (2 * (slot % 32));
        };
        match direction {
            Direction::Right => context.iter().enumerate().for_each(|(i, &b)| put(i, b)),
            Direction::Left => context
                .iter()
                .enumerate()
                .for_each(|(i, &b)| put(mer - i, b)),
        }
        bad & 4 == 0
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
    /// The current context packed in the pool's orientation.
    needle: Needle,
}

impl MerWalker {
    /// A walker for the given parameters.
    pub fn new(params: &LocalAssemblyParams) -> Self {
        let seed_len = MAX_SEED_LEN.min(params.min_mer).min(params.mer_size).max(1);
        MerWalker {
            params: *params,
            index: PoolIndex::new(seed_len),
            context: Vec::new(),
            needle: Needle::default(),
        }
    }

    /// Extends one contig sequence at both ends using its read pool (members
    /// in contig orientation).
    pub fn extend_one(&mut self, contig_seq: &[u8], pool: &PackedPool) -> Vec<u8> {
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
    fn walk(&mut self, pool: &PackedPool, direction: Direction) {
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
            let votes = if self.needle.pack(&self.context[from..], direction) {
                self.index.votes(pool, &self.needle)
            } else {
                [0; 4]
            };
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
    use seqio::alphabet::{encode_base, is_valid_base, normalize, revcomp};
    use seqio::{Read, ReadLibrary, ReadPacker};

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
    /// in a pool read votes the base after it. A context that holds anything
    /// but upper-case `ACGT` votes nothing — the walker's rule, under which an
    /// `N` carries no evidence; pipeline contexts are `ACGT`, so there the
    /// line never fires.
    fn oracle_votes(pool: &[Vec<u8>], context: &[u8]) -> [usize; 4] {
        let mer = context.len();
        let mut votes = [0usize; 4];
        if !context.iter().all(|&b| is_valid_base(b)) {
            return votes;
        }
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

    /// A pool member as the store holds it: its bases as read, and whether
    /// they are in contig orientation (`false`: their reverse complement is).
    type Member = (Vec<u8>, bool);

    /// The members in contig orientation as every pool read is: normalised
    /// to upper-case `ACGTN` ([`seqio::Read::new`] normalises, the store
    /// folds case). The oracle's pool.
    fn oriented(members: &[Member]) -> Vec<Vec<u8>> {
        members
            .iter()
            .map(|(read, forward)| {
                let read = normalize(read);
                if *forward {
                    read
                } else {
                    revcomp(&read)
                }
            })
            .collect()
    }

    /// The members packed as the pipeline writes them: each read packed
    /// as it lies (lower case folded, anything else non-`ACGT` an exception)
    /// and pushed with its orientation.
    fn packed(members: &[Member]) -> PackedPool {
        let mut packer = ReadPacker::default();
        let mut writer = PoolWriter::default();
        for (read, forward) in members {
            writer.push(&packer.pack(read, &[]), *forward);
        }
        writer.finish()
    }

    /// Forward members of contig orientation.
    fn forward(pool: &[Vec<u8>]) -> Vec<Member> {
        pool.iter().map(|read| (read.clone(), true)).collect()
    }

    /// The index's votes on the `context` of a walk.
    fn index_votes(
        walker: &mut MerWalker,
        pool: &PackedPool,
        context: &[u8],
        direction: Direction,
    ) -> [usize; 4] {
        if !walker.needle.pack(context, direction) {
            return [0; 4];
        }
        walker.index.votes(pool, &walker.needle)
    }

    /// The indexed right walk on its own, with the oracle's signature.
    fn walk_extension(seq: &[u8], pool: &[Vec<u8>], params: &LocalAssemblyParams) -> Vec<u8> {
        let pool = packed(&forward(pool));
        let mut walker = MerWalker::new(params);
        walker.index.index(&pool);
        walker.context.extend_from_slice(seq);
        walker.walk(&pool, Direction::Right);
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
    /// errors, single `N`s and runs of them, lower-case stretches, reads
    /// shorter than a seed or no longer than a mer, exact duplicates, and
    /// about half the members held reverse complemented.
    fn messy_pool(seed: u64) -> (Vec<u8>, Vec<Member>) {
        let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let mut reference = genome(120, seed);
        reference.extend(std::iter::repeat_n(b'A', 20 + rng.below(30)));
        let repeat = genome(45, seed + 1000);
        reference.extend_from_slice(&repeat);
        reference.extend(std::iter::repeat_n(b'G', 10 + rng.below(10)));
        reference.extend_from_slice(&genome(60, seed + 2000));
        reference.extend_from_slice(&repeat);
        reference.extend_from_slice(&genome(80, seed + 3000));
        let mut pool: Vec<Member> = Vec::new();
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
            if rng.below(10) == 0 {
                let from = rng.below(read.len());
                let to = (from + 2 + rng.below(5)).min(read.len());
                read[from..to].fill(b'N');
            }
            let member = if rng.below(2) == 0 {
                (read, true)
            } else {
                (revcomp(&read), false)
            };
            if rng.below(6) == 0 {
                pool.push(member.clone());
            }
            pool.push(member);
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
        let mut unvoted_n = 0usize;
        for seed in 1..=6u64 {
            let (reference, members) = messy_pool(seed);
            let pool = oriented(&members);
            let packed_pool = packed(&members);
            // The pool table's merge writes the same buffer.
            let mut halves = packed(&members[..members.len() / 2]);
            halves.append(packed(&members[members.len() / 2..]));
            assert_eq!(halves, packed_pool);
            let rc_pool: Vec<Vec<u8>> = pool.iter().map(|r| revcomp(r)).collect();
            let rc_reference = revcomp(&reference);
            let mut rng = XorShift(seed ^ 0xABCDEF);
            for params in param_sets() {
                let mut walker = MerWalker::new(&params);
                walker.index.index(&packed_pool);
                // Every mer size the shift schedule can reach, and the ones
                // between them.
                let smallest = params.min_mer.min(params.mer_size);
                let largest = params.max_mer.max(params.mer_size);
                for mer in smallest..=largest {
                    // Contexts cut from the reference, from reads (with their
                    // `N`s) and from both reverse complements.
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
                            index_votes(&mut walker, &packed_pool, context, Direction::Right),
                            right,
                            "right votes, seed {seed}, mer {mer}"
                        );
                        let left = oracle_votes(&rc_pool, context);
                        assert_eq!(
                            index_votes(&mut walker, &packed_pool, context, Direction::Left),
                            left,
                            "left votes, seed {seed}, mer {mer}"
                        );
                        voted[0] += usize::from(right != [0; 4]);
                        voted[1] += usize::from(left != [0; 4]);
                        unvoted_n += usize::from(context.contains(&b'N'));
                    }
                }
            }
        }
        assert!(
            voted.iter().all(|&n| n > 1000),
            "contexts that drew votes (right, left): {voted:?}"
        );
        assert!(unvoted_n > 100, "contexts holding an N: {unvoted_n}");
    }

    #[test]
    fn extend_one_equals_the_scanning_reference() {
        let mut extended = 0usize;
        for seed in 1..=8u64 {
            let (reference, members) = messy_pool(seed);
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
            let third = members.len() / 3;
            let pools = [&members[..], &members[..third], &[]];
            let oracle_pools = pools.map(oriented);
            let packed_pools = pools.map(packed);
            for params in param_sets() {
                // One walker for all contigs, each pool indexed after a
                // larger one: nothing may leak through the reused scratch.
                let mut walker = MerWalker::new(&params);
                for contig in &contigs {
                    for (pool, oracle_pool) in packed_pools.iter().zip(&oracle_pools) {
                        let got = walker.extend_one(contig, pool);
                        assert_eq!(
                            got,
                            oracle_extend_one(contig, oracle_pool, &params),
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
        let (_, big_members) = messy_pool(3);
        let big = oriented(&big_members);
        let small = vec![genome(70, 77), genome(12, 78), b"ACGTN".to_vec()];
        let small_pool = packed(&forward(&small));
        let mut walker = MerWalker::new(&LocalAssemblyParams::default());
        walker.index.index(&packed(&big_members));
        walker.index.index(&small_pool);
        // The chains hold exactly the second pool's seeds, each once.
        let index = &walker.index;
        assert!(index.heads[index.buckets..].iter().all(|&h| h == 0));
        let mut seeds = Vec::new();
        for &head in &index.heads[..index.buckets] {
            let mut next = head;
            while next != 0 {
                seeds.push(next as usize - 1);
                next = index.next[next as usize - 1];
            }
        }
        seeds.sort_unstable();
        let mut want = Vec::new();
        let mut start = 0;
        for read in &small {
            let windows = (read.len() + 1).saturating_sub(index.seed_len);
            want.extend(start..start + windows);
            start += (read.len() + 1).next_multiple_of(8);
        }
        assert_eq!(seeds, want);
        // Contexts of the first pool find nothing, in either direction ...
        for read in big.iter().filter(|r| r.len() > 19) {
            let context = &read[..19];
            assert_eq!(oracle_votes(&small, context), [0; 4], "pools overlap");
            for direction in [Direction::Right, Direction::Left] {
                assert_eq!(
                    index_votes(&mut walker, &small_pool, context, direction),
                    [0; 4]
                );
            }
        }
        // ... and the second pool's own still vote.
        let context = &small[0][10..29];
        let votes = index_votes(&mut walker, &small_pool, context, Direction::Right);
        assert_eq!(votes, oracle_votes(&small, context));
        assert_eq!(votes.iter().sum::<usize>(), 1);
    }

    /// A simulated two-genome community: paired reads with single `N`s and
    /// runs of them, and contigs cut from the genomes with unassembled flanks
    /// between them for the walks to extend into.
    fn community() -> (ContigSet, ReadLibrary) {
        let (refs, _) = mgsim::generate_community(&mgsim::CommunityParams {
            num_taxa: 2,
            genome_len_range: (3_000, 4_000),
            seed: 5,
            ..Default::default()
        });
        let mut library = mgsim::simulate_reads(
            &refs,
            &mgsim::ReadSimParams {
                seed: 6,
                ..Default::default()
            }
            .with_target_coverage(&refs, 10.0),
        );
        for (i, read) in library.reads.iter_mut().enumerate() {
            let len = read.seq.len();
            if i % 7 == 0 {
                read.seq[i % len] = b'N';
            }
            if i % 23 == 0 {
                let at = i % (len - 5);
                read.seq[at..at + 4].fill(b'N');
            }
        }
        let pieces = refs.genomes.iter().flat_map(|g| {
            g.seq
                .chunks(700)
                .filter(|piece| piece.len() > 300)
                .map(|piece| (piece[50..piece.len() - 50].to_vec(), 10.0))
        });
        (ContigSet::from_sequences(21, pieces.collect()), library)
    }

    /// The extended set of [`community`] at commit b7c4a00, where the
    /// replicated contig set and read library were the reference: 11
    /// contigs. Re-derive it if `community` changes.
    const COMMUNITY_EXTENDED_DIGEST: u64 = 0xaa9a_ba9f_1d0a_9a84;

    #[test]
    fn extension_does_not_depend_on_ranks_or_blocks() {
        let (contigs, library) = community();
        let mut sets = Vec::new();
        for (block_reads, block_size) in [(4usize, 1usize), (64, 16)] {
            let params = LocalAssemblyParams {
                block_size,
                ..Default::default()
            };
            for ranks in 1..=4usize {
                sets.extend(Team::single_node(ranks).run(|ctx| {
                    let store = ContigStore::build(ctx, &contigs, &Default::default());
                    let source = ContigsRef::Store(&store);
                    let index = aligner::build_seed_index_ref(ctx, source, 21);
                    let mine = ctx
                        .block_range(library.num_reads())
                        .map(|i| (i as ReadId, &library.reads[i]));
                    let alignments =
                        aligner::align_reads_ref(ctx, mine, source, &index, &Default::default());
                    let reads = ReadStore::build(
                        ctx,
                        &library,
                        &readstore::ReadStoreParams {
                            block_reads,
                            ..Default::default()
                        },
                    );
                    let reads = ReadsRef::Store(&reads);
                    extend_contigs_locally_ref(ctx, source, &alignments, reads, &params).0
                }));
            }
        }
        assert!(sets.iter().all(|set| *set == sets[0]));
        let seqs: Vec<Vec<u8>> = sets[0].contigs.iter().map(|c| c.seq.clone()).collect();
        assert_eq!(seqs.len(), 11);
        assert_eq!(crate::sequence_digest(&seqs), COMMUNITY_EXTENDED_DIGEST);
        let grown = sets[0]
            .contigs
            .iter()
            .filter(|c| !contigs.contigs.iter().any(|d| d.seq == c.seq))
            .count();
        assert!(
            grown * 2 > contigs.len(),
            "set-up: {grown} of {} contigs grew",
            contigs.len()
        );
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
        let out = walker.extend_one(&g[60..120], &packed(&forward(&pool)));
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
        let entries = Team::single_node(1).run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let reads = ReadStore::build(ctx, &lib, &Default::default());
            pool_entries(&store, &alignments, &reads, &params)
        });
        assert_eq!(
            entries[0],
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
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let reads = ReadStore::build(ctx, &lib2, &Default::default());
            extend_contigs_locally_ref(
                ctx,
                ContigsRef::Store(&store),
                &mine,
                ReadsRef::Store(&reads),
                &LocalAssemblyParams::default(),
            )
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

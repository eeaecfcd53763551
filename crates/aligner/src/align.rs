//! Seed-and-extend alignment of reads onto contigs.
//!
//! Reads and contigs stay 2-bit packed from the store to the verdict: a read
//! arrives as a [`PackedReadView`] (the read store's bytes as they lie; an
//! ASCII read is packed once into a reused [`ReadPacker`], case folded with
//! its non-ACGT bytes as exceptions, the store's own packing). Reads are
//! processed in blocks, and a block is a few flat passes over arrays that
//! live across blocks — nothing is allocated per read:
//!
//! 1. **Cut.** Every read's seeds are cut straight from its packed words
//!    ([`kmers::packed::for_each_canonical`]: one word load, shift and
//!    mask per seed up to 32 bases, the canonical strand by one XOR) into one
//!    flat array, until the block holds [`AlignParams::lookup_batch`] seeds.
//!    A seed is an index key as wide as the seed length needs (one word up to
//!    32 bases, two up to 64), so are the shard's probes and the requests
//!    for foreign seeds.
//! 2. **Resolve.** One tight loop then looks every seed of the block up, so
//!    the probes' cache misses overlap instead of queueing behind the cutter.
//!    A seed this rank owns resolves *by reference* to its run in the rank's
//!    [`SeedIndex`] shard and never enters a cache (on one rank that is every
//!    seed, on *p* ranks one in *p*). The seeds other ranks own are resolved
//!    together through a [`dht::CachedView`] over the index: cache hits
//!    locally, every miss of the block to its owner in one aggregated
//!    request–response round trip — the paper's batched lookups (use case 3
//!    of §II-A) in front of merAligner's software cache, which holds only
//!    what crossed a rank boundary.
//! 3. **Votes.** A read's hits become one `u128` key per placement, ordered
//!    as `(contig, offset, strand)`; sorting the keys and counting runs ranks
//!    the candidates.
//! 4. **Verification.** The best candidates are compared, ungapped, against
//!    their contig windows on the packed codes: XOR and popcount over 32
//!    bases at a time, corrected at the exceptions of either side. Contigs
//!    this rank owns are read in place from its store shard, and the others
//!    arrive in a second aggregated round against the store; the read's
//!    reverse complement is derived on its codes only if a reverse candidate
//!    is reached.
//!
//! Alignment is therefore **collective**: every rank must call
//! [`align_reads_ref`] in the same phase, even with no reads.
//! [`AlignParams::lookup_batch`] sizes the blocks and the messages; the
//! alignments — and the assembly built from them — depend neither on it nor
//! on the cache capacity or the rank count.

use crate::seed_index::{with_seed_keys, RemoteHits, SeedHit, SeedIndex, SeedShard};
use dbg::{ContigId, ContigsRef, PackedSeq};
use dht::{CachedView, FxHashMap, LocalShardView};
use kmers::packed::{for_each_canonical, load_bases, revcomp_codes};
use kmers::KmerKey;
use pgas::{Counter, Ctx};
use seqio::alphabet::{complement, decode_base};
use seqio::{AsPackedRead, PackedReadView, ReadId, ReadPacker};
use std::ops::Range;

/// Parameters of the aligner.
#[derive(Debug, Clone, Copy)]
pub struct AlignParams {
    /// Seed (k-mer) length used for the index and the lookups.
    pub seed_len: usize,
    /// Distance between consecutive seed positions sampled from each read.
    pub stride: usize,
    /// Maximum number of candidate placements verified per read.
    pub max_candidates: usize,
    /// Minimum number of aligned bases for an alignment to be reported.
    pub min_aligned_len: usize,
    /// Minimum fraction of matching bases within the aligned region.
    pub min_identity: f64,
    /// Capacity of the per-rank software seed cache, in entries: seeds owned
    /// by *other* ranks (a rank's own seeds are read from its shard by
    /// reference and are never cached). 0 disables caching.
    pub cache_capacity: usize,
    /// Aggregated-lookup batch size (> 0): roughly how many seed lookups are
    /// resolved per request–response round trip, and at most how many travel
    /// in one message to an owner.
    pub lookup_batch: usize,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams {
            seed_len: 21,
            stride: 7,
            max_candidates: 4,
            min_aligned_len: 30,
            min_identity: 0.9,
            cache_capacity: 1 << 16,
            lookup_batch: 4096,
        }
    }
}

/// One read-to-contig alignment.
///
/// `contig_offset` is the contig coordinate at which position 0 of the
/// *oriented* read (the read itself if `forward`, its reverse complement
/// otherwise) would lie; it may be negative or beyond the contig end when the
/// read hangs over a contig boundary — exactly the situation splint detection
/// and gap closing are interested in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alignment {
    pub read_id: ReadId,
    pub contig: ContigId,
    pub forward: bool,
    pub contig_offset: i64,
    /// Number of read bases inside the contig boundaries.
    pub aligned_len: usize,
    /// Number of matching bases within the aligned region.
    pub matches: usize,
}

impl Alignment {
    /// Identity within the aligned region.
    pub fn identity(&self) -> f64 {
        if self.aligned_len == 0 {
            0.0
        } else {
            self.matches as f64 / self.aligned_len as f64
        }
    }
}

/// The alignments produced by one rank for the reads it processed.
#[derive(Debug, Clone, Default)]
pub struct AlignmentSet {
    pub alignments: Vec<Alignment>,
}

impl AlignmentSet {
    /// Groups the alignments by read id.
    pub fn by_read(&self) -> FxHashMap<ReadId, Vec<&Alignment>> {
        let mut map: FxHashMap<ReadId, Vec<&Alignment>> = FxHashMap::default();
        for a in &self.alignments {
            map.entry(a.read_id).or_default().push(a);
        }
        map
    }

    /// The best (most matches) alignment of each read.
    pub fn best_per_read(&self) -> FxHashMap<ReadId, Alignment> {
        let mut map: FxHashMap<ReadId, Alignment> = FxHashMap::default();
        for a in &self.alignments {
            map.entry(a.read_id)
                .and_modify(|cur| {
                    if a.matches > cur.matches {
                        *cur = *a;
                    }
                })
                .or_insert(*a);
        }
        map
    }
}

/// Aligns the reads `(read_id, read)` of this rank against the distributed
/// contig store.
///
/// **Collective**: every rank must call it in the same phase (an empty read
/// set is fine). Reads are processed in blocks whose foreign seeds are
/// resolved together — cache hits locally, all misses of the block in one
/// request–response round trip — and the foreign contigs named by the block's
/// surviving candidates are fetched in a second aggregated round. Ranks with fewer reads keep participating in the
/// remaining rounds with empty batches.
///
/// The alignments do not depend on the rank count: seed voting never touches
/// sequence bytes, and verification reads exactly the candidate windows
/// whichever rank or transport delivered them.
///
/// Reads arrive as anything [`AsPackedRead`]: the handles a read-store
/// stream yields (read in place), or `Read` / `&Read` (packed once into a
/// reused buffer), so no sequence is copied to align it.
pub fn align_reads_ref<R: AsPackedRead>(
    ctx: &Ctx,
    reads: impl IntoIterator<Item = (ReadId, R)>,
    contigs: ContigsRef<'_>,
    index: &SeedIndex,
    params: &AlignParams,
) -> AlignmentSet {
    let reads = reads.into_iter();
    let seed_len = index.seed_len;
    with_seed_keys!(index, shard => align_keyed(ctx, reads, contigs, shard, seed_len, params))
}

/// [`align_reads_ref`] against an index shard keyed by `K`: the seeds are cut,
/// probed and shipped at the key width.
fn align_keyed<K: KmerKey, R: AsPackedRead>(
    ctx: &Ctx,
    mut reads: impl Iterator<Item = (ReadId, R)>,
    contigs: ContigsRef<'_>,
    index: &SeedShard<K>,
    seed_len: usize,
    params: &AlignParams,
) -> AlignmentSet {
    let mut view: CachedView<K, RemoteHits, SeedShard<K>> =
        CachedView::over(index, params.cache_capacity, params.lookup_batch);
    let ContigsRef::Store(store) = contigs;
    let mut reader = store.reader(ctx);
    let mut out = AlignmentSet::default();
    // Everything below lives across blocks and is only ever cleared.
    let mut block: Vec<(ReadId, R)> = Vec::new();
    let mut packer = ReadPacker::default();
    let mut cut: Vec<CutSeed<K>> = Vec::new();
    let mut seeds: Vec<Seed> = Vec::new();
    let mut foreign: Vec<K> = Vec::new();
    // Per read of the block: its length, its seeds, then (after voting) its
    // candidates.
    let mut read_lens: Vec<usize> = Vec::new();
    let mut seed_spans: Vec<Range<usize>> = Vec::new();
    let mut cand_spans: Vec<Range<usize>> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut votes = Votes::default();
    // The block's distinct candidate contigs in first-seen order, and each
    // one's slot in that order.
    let mut contig_ids: Vec<ContigId> = Vec::new();
    let mut contig_slots: FxHashMap<ContigId, usize> = FxHashMap::default();
    let mut verifier = Verifier::default();
    loop {
        // Pass 1: pull one block of reads from the stream — enough to fill
        // roughly one batch of seed lookups — and cut their seeds. Only the
        // current block is held in memory.
        block.clear();
        cut.clear();
        read_lens.clear();
        seed_spans.clear();
        while cut.len() < params.lookup_batch {
            let Some((read_id, read)) = reads.next() else {
                break;
            };
            let lo = cut.len();
            let packed = read.packed(&mut packer);
            for_each_canonical::<K>(&packed, seed_len, params.stride, |kmer, read_rc, offset| {
                cut.push(CutSeed {
                    kmer,
                    read_rc,
                    offset,
                })
            });
            read_lens.push(packed.len);
            seed_spans.push(lo..cut.len());
            block.push((read_id, read));
        }
        // Everyone must agree to stop; a rank that is done keeps serving the
        // collective with empty batches until the slowest rank finishes.
        if !ctx.allreduce_any(!block.is_empty()) {
            break;
        }
        // Pass 2: resolve the whole block's seeds in one tight loop; the
        // foreign ones keep their cut order.
        seeds.clear();
        foreign.clear();
        seeds.extend(cut.iter().map(|seed| Seed {
            read_rc: seed.read_rc,
            offset: seed.offset,
            hits: index.lookup(&seed.kmer).map_err(|_owner| {
                foreign.push(seed.kmer);
                foreign.len() - 1
            }),
        }));
        let fetched = view.get_many(ctx, &foreign);
        candidates.clear();
        cand_spans.clear();
        let mut hits_returned = 0u64;
        for (span, &read_len) in seed_spans.iter().zip(&read_lens) {
            let lo = candidates.len();
            hits_returned += votes.rank(
                read_len,
                seed_len,
                seeds[span.clone()]
                    .iter()
                    .map(|seed| (seed, seed.hits_among(&fetched))),
                params.max_candidates,
                &mut candidates,
            );
            cand_spans.push(lo..candidates.len());
        }
        // One aggregated fetch for every contig named by a surviving
        // candidate anywhere in the block (collective — ranks with an empty
        // block fetch an empty id set). The contigs this rank owns are read
        // in place from its shard, whose locks are held until the block is
        // verified.
        contig_ids.clear();
        contig_slots.clear();
        for cand in &candidates {
            contig_slots.entry(cand.contig).or_insert_with(|| {
                contig_ids.push(cand.contig);
                contig_ids.len() - 1
            });
        }
        let windows = Windows {
            slots: &contig_slots,
            values: reader.get_many_foreign(ctx, &contig_ids),
            owned: store.map().local_view(ctx),
        };
        let mut verified = 0u64;
        for ((read_id, read), span) in block.iter().zip(&cand_spans) {
            if span.is_empty() {
                continue;
            }
            verified += verifier.verify_candidates(
                *read_id,
                &read.packed(&mut packer),
                params,
                &candidates[span.clone()],
                &windows,
                &mut out,
            );
        }
        // Releases the shard before the next collective.
        drop(windows);
        ctx.record(Counter::seed_lookups, seeds.len() as u64);
        ctx.record(Counter::seed_lookups_remote, foreign.len() as u64);
        ctx.record(Counter::seed_hits, hits_returned);
        ctx.record(Counter::align_candidates_verified, verified);
    }
    out
}

/// Candidate placement of a read on a contig. The field order is the
/// tie-break order among equally voted candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(test, derive(Hash))]
struct Candidate {
    contig: ContigId,
    contig_offset: i64,
    forward: bool,
}

/// Added to a placement's contig offset (|offset| < 2³², since read and
/// contig positions are 32-bit) so that it sorts as an unsigned number.
const OFFSET_BIAS: i64 = 1 << 40;

impl Candidate {
    /// The placement as one integer with `Candidate`'s order:
    /// `contig << 64 | (offset + 2⁴⁰) << 1 | forward`.
    #[inline]
    fn key(contig: ContigId, contig_offset: i64, forward: bool) -> u128 {
        debug_assert!(contig_offset.unsigned_abs() < OFFSET_BIAS as u64);
        (u128::from(contig) << 64)
            | (((contig_offset + OFFSET_BIAS) as u128) << 1)
            | u128::from(forward)
    }

    /// The placement a [`Candidate::key`] encodes.
    fn of_key(key: u128) -> Candidate {
        Candidate {
            contig: (key >> 64) as ContigId,
            contig_offset: ((key as u64) >> 1) as i64 - OFFSET_BIAS,
            forward: key & 1 == 1,
        }
    }
}

/// One seed as the cutter emits it: the canonical k-mer as an index key,
/// whether that is the read's reverse complement, and the seed's offset in
/// the read.
struct CutSeed<K> {
    kmer: K,
    read_rc: bool,
    offset: usize,
}

/// One resolved seed of a read: whether canonicalisation reverse-complemented
/// it, its offset in the read, and its hits — borrowed from this rank's shard
/// of the index, or the block's `i`-th foreign lookup.
struct Seed<'i> {
    read_rc: bool,
    offset: usize,
    hits: Result<&'i [SeedHit], usize>,
}

impl<'i> Seed<'i> {
    /// The seed's hits, given the answers to the block's foreign lookups.
    fn hits_among(&self, fetched: &'i [Option<RemoteHits>]) -> &'i [SeedHit] {
        match self.hits {
            Ok(owned) => owned,
            Err(i) => fetched[i].as_ref().map_or(&[], RemoteHits::as_slice),
        }
    }
}

/// Ranks one read's candidate placements by seed votes.
#[derive(Default)]
struct Votes {
    /// One [`Candidate::key`] per (seed, hit) of the read.
    placements: Vec<u128>,
    /// `(votes, key)` per distinct placement.
    tally: Vec<(u32, u128)>,
}

impl Votes {
    /// Appends the read's `max_candidates` best-voted placements to `out` —
    /// most votes first, ties by `(contig, contig_offset, forward)` — and
    /// returns how many hits voted. `slen` is the seed length the seeds were
    /// sampled with (the index's, not the params'). Voting never touches
    /// contig sequence bytes.
    fn rank<'a>(
        &mut self,
        read_len: usize,
        slen: usize,
        seeds: impl Iterator<Item = (&'a Seed<'a>, &'a [SeedHit])>,
        max_candidates: usize,
        out: &mut Vec<Candidate>,
    ) -> u64 {
        self.placements.clear();
        for (seed, hits) in seeds {
            // The seed's start in the reverse-complemented read.
            let rc_offset = (read_len - slen - seed.offset) as i64;
            for hit in hits {
                // forward placement: the read (as given) matches the contig
                // strand iff the seed orientations agree.
                let forward = hit.forward != seed.read_rc;
                let seed_at = if forward {
                    seed.offset as i64
                } else {
                    rc_offset
                };
                self.placements.push(Candidate::key(
                    hit.contig,
                    hit.pos as i64 - seed_at,
                    forward,
                ));
            }
        }
        self.placements.sort_unstable();
        self.tally.clear();
        for &key in &self.placements {
            match self.tally.last_mut() {
                Some((votes, last)) if *last == key => *votes += 1,
                _ => self.tally.push((1, key)),
            }
        }
        // Distinct keys, so the order is total and unstable selection and
        // sorting are deterministic.
        let best_first = |a: &(u32, u128), b: &(u32, u128)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        if max_candidates > 0 && self.tally.len() > max_candidates {
            self.tally
                .select_nth_unstable_by(max_candidates - 1, best_first);
            self.tally.truncate(max_candidates);
        }
        self.tally.sort_unstable_by(best_first);
        out.extend(
            self.tally
                .iter()
                .take(max_candidates)
                .map(|&(_, key)| Candidate::of_key(key)),
        );
        self.placements.len() as u64
    }
}

/// Where verification reads contig bases from: the packed contigs one block
/// fetched from other ranks, `values[slots[contig]]`, and this rank's own
/// store shard.
struct Windows<'a> {
    slots: &'a FxHashMap<ContigId, usize>,
    values: Vec<Option<PackedSeq>>,
    owned: LocalShardView<'a, ContigId, PackedSeq>,
}

impl Windows<'_> {
    /// The packed contig `id`, if the store holds it.
    fn get(&self, id: ContigId) -> Option<&PackedSeq> {
        let fetched = self.slots.get(&id).and_then(|&i| self.values[i].as_ref());
        fetched.or_else(|| self.owned.get(&id))
    }
}

/// The buffers verification reuses from read to read: the current read's
/// reverse complement.
#[derive(Default)]
struct Verifier {
    rc_codes: Vec<u8>,
    rc_exceptions: Vec<(u32, u8)>,
}

impl Verifier {
    /// Verifies one read's candidates (already cut to `max_candidates`, best
    /// first): report at most one placement per contig per read (the
    /// best-voted one), accept if long and identical enough. The read is
    /// reverse-complemented, on its codes, if and when a reverse candidate is
    /// reached. Returns the number of windows compared.
    fn verify_candidates(
        &mut self,
        read_id: ReadId,
        read: &PackedReadView<'_>,
        params: &AlignParams,
        candidates: &[Candidate],
        windows: &Windows<'_>,
        out: &mut AlignmentSet,
    ) -> u64 {
        let Verifier {
            rc_codes,
            rc_exceptions,
        } = self;
        let first_of_read = out.alignments.len();
        let mut have_revcomp = false;
        let mut compared = 0u64;
        for cand in candidates {
            let reported = &out.alignments[first_of_read..];
            if reported.iter().any(|a| a.contig == cand.contig) {
                continue;
            }
            let Some(contig) = windows.get(cand.contig) else {
                continue;
            };
            let oriented = if cand.forward {
                *read
            } else {
                if !have_revcomp {
                    revcomp_codes(read.codes, read.len, rc_codes);
                    rc_exceptions.clear();
                    rc_exceptions.extend(
                        read.exceptions
                            .iter()
                            .rev()
                            .map(|&(pos, b)| (read.len as u32 - 1 - pos, complement(b))),
                    );
                    have_revcomp = true;
                }
                PackedReadView {
                    len: read.len,
                    codes: rc_codes,
                    exceptions: rc_exceptions,
                    qual_runs: &[],
                }
            };
            compared += 1;
            let (aligned_len, matches) =
                verify_packed(&oriented, &contig.view(), cand.contig_offset);
            if aligned_len >= params.min_aligned_len
                && matches as f64 >= params.min_identity * aligned_len as f64
            {
                out.alignments.push(Alignment {
                    read_id,
                    contig: cand.contig,
                    forward: cand.forward,
                    contig_offset: cand.contig_offset,
                    aligned_len,
                    matches,
                });
            }
        }
        compared
    }
}

/// Counts aligned/matching bases of the packed `oriented_read` placed at
/// `offset` on the packed `contig`. Ungapped. An `N` never counts as a match — not even
/// against another `N`: ambiguous bases carry no evidence, and letting `N`
/// runs in low-quality read tails "match" contig `N`s would manufacture
/// identity.
///
/// The count equals the number of equal, non-`N` byte pairs on the unpacked
/// bytes: equal codes are counted 32 bases per XOR and popcount, and each
/// position that is an exception on either side is then corrected to whether
/// its raw bytes are equal and not `N`.
fn verify_packed(
    oriented_read: &PackedReadView<'_>,
    contig: &PackedReadView<'_>,
    offset: i64,
) -> (usize, usize) {
    let start = offset.max(0);
    let end = (offset + oriented_read.len as i64).min(contig.len as i64);
    if end <= start {
        return (0, 0);
    }
    let n = (end - start) as usize;
    let at_read = (start - offset) as usize;
    let at_contig = start as usize;
    let mut matches = 0usize;
    for i in (0..n).step_by(32) {
        let x =
            load_bases(oriented_read.codes, at_read + i) ^ load_bases(contig.codes, at_contig + i);
        // One bit per base, set where both bits of the codes agree.
        let mut eq = !(x | (x >> 1)) & 0x5555_5555_5555_5555;
        if n - i < 32 {
            eq &= (1u64 << (2 * (n - i))) - 1;
        }
        matches += eq.count_ones() as usize;
    }
    // Exceptions of both sides, as overlap positions; a position that is one
    // on both sides is corrected once.
    let mut read_ex = exceptions_in(oriented_read.exceptions, at_read, n).peekable();
    let mut contig_ex = exceptions_in(contig.exceptions, at_contig, n).peekable();
    loop {
        let t = match (read_ex.peek(), contig_ex.peek()) {
            (None, None) => break,
            (Some(&(a, _)), None) => a,
            (None, Some(&(b, _))) => b,
            (Some(&(a, _)), Some(&(b, _))) => a.min(b),
        };
        let (read_code, contig_code) = (
            oriented_read.code_at(at_read + t),
            contig.code_at(at_contig + t),
        );
        let read_byte = read_ex
            .next_if(|&(p, _)| p == t)
            .map_or(decode_base(read_code), |(_, b)| b);
        let contig_byte = contig_ex
            .next_if(|&(p, _)| p == t)
            .map_or(decode_base(contig_code), |(_, b)| b);
        let counted = read_code == contig_code;
        let is_match = read_byte == contig_byte && read_byte != b'N';
        matches = matches + usize::from(is_match) - usize::from(counted);
    }
    (n, matches)
}

/// The exceptions at positions `from..from + n`, as `(position - from, byte)`.
fn exceptions_in(
    exceptions: &[(u32, u8)],
    from: usize,
    n: usize,
) -> impl Iterator<Item = (usize, u8)> + '_ {
    let lo = exceptions.partition_point(|&(pos, _)| (pos as usize) < from);
    exceptions[lo..]
        .iter()
        .map(move |&(pos, b)| (pos as usize - from, b))
        .take_while(move |&(t, _)| t < n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed_index::{build_seed_index_ref, serial_index};
    use dbg::{ContigSet, ContigStore};
    use dht::DistMap;
    use kmers::{KeyWidth, Kmer, Kmer32, Kmer64};
    use pgas::Team;
    use readstore::{PackedRead, ReadStore, ReadStoreParams};
    use seqio::alphabet::{revcomp, revcomp_in_place};
    use seqio::{Read, ReadLibrary};

    const GENOME: &str = "ACGGTCAGGTTCAAGGACTTACGGACCATGGCATTACGGATACCAGGATCCAGATCACCAGTTTGACCGATTACAGGACCGATACCGATTAGGACCAGT";

    fn contigs_of(seqs: &[&str]) -> ContigSet {
        ContigSet::from_sequences(
            21,
            seqs.iter().map(|s| (s.as_bytes().to_vec(), 10.0)).collect(),
        )
    }

    fn params() -> AlignParams {
        AlignParams {
            seed_len: 15,
            stride: 4,
            min_aligned_len: 20,
            ..Default::default()
        }
    }

    /// A small deterministic generator for the randomised tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bases(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| b"ACGT"[self.below(4)]).collect()
        }
    }

    // --- the code this module replaced, kept as oracles ----------------------

    /// Verification on unpacked bytes: the equal-and-not-N byte count over
    /// the overlap of `oriented_read` placed at `offset` on a contig of length
    /// `contig_len`, read from `window` (which starts at contig coordinate
    /// `window_start`).
    fn verify_window(
        oriented_read: &[u8],
        window: &[u8],
        window_start: i64,
        contig_len: i64,
        offset: i64,
    ) -> (usize, usize) {
        let read_len = oriented_read.len() as i64;
        let start = offset.max(0);
        let end = (offset + read_len).min(contig_len);
        if end <= start {
            return (0, 0);
        }
        let contig = &window[(start - window_start) as usize..(end - window_start) as usize];
        let read = &oriented_read[(start - offset) as usize..(end - offset) as usize];
        let matches = contig
            .iter()
            .zip(read)
            .filter(|&(&c, &r)| c == r && c != b'N')
            .count();
        ((end - start) as usize, matches)
    }

    /// The per-offset seed sampler: one `Kmer::from_bytes` per window.
    fn collect_seeds_oracle(seq: &[u8], slen: usize, stride: usize) -> Vec<(Kmer, bool, usize)> {
        let mut seeds = Vec::new();
        let mut offset = 0usize;
        while offset + slen <= seq.len() {
            if let Some(seed) = Kmer::from_bytes(&seq[offset..offset + slen]) {
                let (canon, read_rc) = seed.canonical();
                seeds.push((canon, read_rc, offset));
            }
            offset += stride;
        }
        seeds
    }

    /// Voting through a hash map per read; returns *every* candidate, best
    /// first.
    fn vote_candidates_oracle(
        read_len: usize,
        slen: usize,
        seeds: &[(bool, usize)],
        hits: &[&[SeedHit]],
    ) -> Vec<Candidate> {
        let mut votes: FxHashMap<Candidate, usize> = FxHashMap::default();
        for (&(read_rc, offset), hit_list) in seeds.iter().zip(hits) {
            for hit in *hit_list {
                let forward = hit.forward != read_rc;
                let contig_offset = if forward {
                    hit.pos as i64 - offset as i64
                } else {
                    hit.pos as i64 - (read_len - slen - offset) as i64
                };
                let cand = Candidate {
                    contig: hit.contig,
                    forward,
                    contig_offset,
                };
                *votes.entry(cand).or_insert(0) += 1;
            }
        }
        let mut candidates: Vec<(Candidate, usize)> = votes.into_iter().collect();
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1).then_with(|| {
                (a.0.contig, a.0.contig_offset, a.0.forward).cmp(&(
                    b.0.contig,
                    b.0.contig_offset,
                    b.0.forward,
                ))
            })
        });
        candidates.into_iter().map(|(c, _)| c).collect()
    }

    /// The read loop as it was, without its transport: per-offset seeds, a
    /// serial index, hash-map votes, both orientations of the read
    /// materialised up front.
    fn align_reads_oracle(
        reads: &[(ReadId, Read)],
        contigs: &ContigSet,
        slen: usize,
        params: &AlignParams,
    ) -> Vec<Alignment> {
        let index = serial_index(contigs, slen);
        let mut out = Vec::new();
        for (read_id, read) in reads {
            let seq = &read.seq;
            let seeds = collect_seeds_oracle(seq, slen, params.stride);
            let hits: Vec<&[SeedHit]> = seeds
                .iter()
                .map(|(canon, _, _)| index.get(canon).map_or(&[][..], Vec::as_slice))
                .collect();
            let placed: Vec<(bool, usize)> = seeds.iter().map(|&(_, rc, at)| (rc, at)).collect();
            let candidates = vote_candidates_oracle(seq.len(), slen, &placed, &hits);
            if candidates.is_empty() {
                continue;
            }
            let oriented_fwd = seq.clone();
            let oriented_rev = revcomp(seq);
            let mut reported_contigs: Vec<ContigId> = Vec::new();
            for cand in candidates.into_iter().take(params.max_candidates) {
                if reported_contigs.contains(&cand.contig) {
                    continue;
                }
                let Some(contig) = contigs.get(cand.contig) else {
                    continue;
                };
                let oriented = if cand.forward {
                    &oriented_fwd
                } else {
                    &oriented_rev
                };
                let (aligned_len, matches) = verify_window(
                    oriented,
                    &contig.seq,
                    0,
                    contig.len() as i64,
                    cand.contig_offset,
                );
                if aligned_len >= params.min_aligned_len
                    && matches as f64 >= params.min_identity * aligned_len as f64
                {
                    reported_contigs.push(cand.contig);
                    out.push(Alignment {
                        read_id: *read_id,
                        contig: cand.contig,
                        forward: cand.forward,
                        contig_offset: cand.contig_offset,
                        aligned_len,
                        matches,
                    });
                }
            }
        }
        out
    }

    /// The seeds [`for_each_canonical`] cuts at key width `K`, as k-mers.
    fn cut_as_kmers<K: KmerKey>(
        view: &PackedReadView<'_>,
        slen: usize,
        stride: usize,
    ) -> Vec<(Kmer, bool, usize)> {
        let mut out = Vec::new();
        for_each_canonical::<K>(view, slen, stride, |key, rc, at| {
            out.push((key.to_kmer(slen), rc, at))
        });
        out
    }

    // --- the three rewritten pieces against them -----------------------------

    #[test]
    fn packed_window_seeds_equal_per_offset_from_bytes() {
        let mut rng = Rng(0x5EED_0001);
        let mut packer = ReadPacker::default();
        let mut with_seeds = 0usize;
        for len in 0..=300usize {
            let mut seq = rng.bases(len);
            // Plant Ns: none, a few singles, or a run — the mix changes with
            // the length so every seed length meets every kind.
            for _ in 0..[0, 1, 3, 0][len % 4] {
                let at = rng.below(len.max(1)).min(len.saturating_sub(1));
                if len > 0 {
                    seq[at] = b'N';
                }
            }
            if len % 7 == 3 {
                let at = rng.below(len);
                for b in &mut seq[at..(at + 9).min(len)] {
                    *b = b'N';
                }
            }
            // Lower case is folded and other bytes are exceptions, by every
            // packer and by the per-offset oracle alike.
            if len % 5 == 1 {
                let at = rng.below(len);
                seq[at] = [b'a', b'c', b'g', b't', b'R', b'x'][rng.below(6)];
            }
            // Two packings of one read: the ASCII adapter's reused buffers,
            // and a read-store block's own bytes (word loads near the end run
            // past the last code byte of both).
            let stored = PackedRead::from_read(&Read {
                name: String::new(),
                seq: seq.clone(),
                qual: vec![30; len],
            });
            for stride in 1..=9usize {
                for slen in [3usize, 15, 21, 27, 28, 29, 31, 33, 63, 65, 127] {
                    let expected = collect_seeds_oracle(&seq, slen, stride);
                    let mut from_packer = Vec::new();
                    for_each_canonical::<Kmer>(
                        &packer.pack(&seq, &[]),
                        slen,
                        stride,
                        |k, rc, at| from_packer.push((k, rc, at)),
                    );
                    assert_eq!(
                        from_packer, expected,
                        "packer: len={len} stride={stride} slen={slen}"
                    );
                    let view = stored.view();
                    let keyed = match KeyWidth::of(slen) {
                        KeyWidth::One => cut_as_kmers::<Kmer32>(&view, slen, stride),
                        KeyWidth::Two => cut_as_kmers::<Kmer64>(&view, slen, stride),
                        KeyWidth::Wide => cut_as_kmers::<Kmer>(&view, slen, stride),
                    };
                    assert_eq!(
                        keyed, expected,
                        "keys: len={len} stride={stride} slen={slen}"
                    );
                    let mut from_store = Vec::new();
                    for_each_canonical::<Kmer>(&stored.view(), slen, stride, |k, rc, at| {
                        from_store.push((k, rc, at))
                    });
                    assert_eq!(
                        from_store, expected,
                        "store: len={len} stride={stride} slen={slen}"
                    );
                    with_seeds += usize::from(!expected.is_empty());
                }
            }
        }
        assert!(with_seeds > 12_000, "test setup: most cases yield seeds");
    }

    #[test]
    fn sorted_run_votes_equal_the_hash_map_votes() {
        let mut rng = Rng(0xB0A7_0002);
        let mut votes = Votes::default();
        let (mut negative, mut wide) = (0usize, 0usize);
        for case in 0..400usize {
            let read_len = 40 + rng.below(200);
            let slen = [15usize, 21, 33][case % 3];
            // Few contigs and positions on a coarse grid: many placements
            // coincide (votes pile up, ties between placements are common),
            // and seeds carry 0..=5 hits each.
            let seeds: Vec<Seed> = (0..rng.below(30))
                .map(|_| Seed {
                    read_rc: rng.below(2) == 0,
                    offset: 7 * rng.below((read_len - slen) / 7 + 1),
                    hits: Err(0),
                })
                .collect();
            // Contig ids past 32 bits, and hits left of the seed's offset in
            // the read: placements with negative offsets.
            let contig_ids: [ContigId; 3] = [0, 1 << 32, u64::MAX - 1];
            let hits: Vec<Vec<SeedHit>> = seeds
                .iter()
                .map(|seed| {
                    (0..rng.below(6))
                        .map(|_| SeedHit {
                            contig: contig_ids[rng.below(3)],
                            pos: (seed.offset + 7 * rng.below(4)).saturating_sub(7 * rng.below(3))
                                as u32,
                            forward: rng.below(2) == 0,
                        })
                        .collect()
                })
                .collect();
            let placed: Vec<(bool, usize)> = seeds.iter().map(|s| (s.read_rc, s.offset)).collect();
            let hit_slices: Vec<&[SeedHit]> = hits.iter().map(Vec::as_slice).collect();
            let expected = vote_candidates_oracle(read_len, slen, &placed, &hit_slices);
            negative += expected.iter().filter(|c| c.contig_offset < 0).count();
            wide += expected
                .iter()
                .filter(|c| c.contig > u32::MAX as u64)
                .count();
            for max_candidates in [0usize, 1, 4, 1000] {
                let mut got = vec![];
                let voted = votes.rank(
                    read_len,
                    slen,
                    seeds.iter().zip(hit_slices.iter().copied()),
                    max_candidates,
                    &mut got,
                );
                assert_eq!(voted as usize, hits.iter().map(Vec::len).sum::<usize>());
                let keep = expected.len().min(max_candidates);
                assert_eq!(got, expected[..keep], "case {case}, top {max_candidates}");
            }
        }
        assert!(
            negative > 100 && wide > 1000,
            "test setup: {negative} / {wide}"
        );
    }

    /// Random bases in either case, with `N` runs and single IUPAC codes or
    /// stray bytes planted.
    fn noisy(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut seq = rng.bases(len);
        for b in &mut seq {
            if rng.below(8) == 0 {
                *b = b.to_ascii_lowercase();
            }
        }
        for _ in 0..rng.below(3) {
            let at = rng.below(len);
            let run = 1 + rng.below(12);
            for b in &mut seq[at..(at + run).min(len)] {
                *b = b'N';
            }
        }
        for _ in 0..rng.below(3) {
            seq[rng.below(len)] = [b'R', b'Y', b'x', b'n', b'-'][rng.below(5)];
        }
        seq
    }

    #[test]
    fn verify_packed_equals_the_unpacked_byte_count() {
        let everything = AlignParams {
            min_aligned_len: 0,
            min_identity: 0.0,
            ..Default::default()
        };
        Team::single_node(1).run(|ctx| {
            let mut rng = Rng(0x7E21_F1ED);
            let mut verifier = Verifier::default();
            let mut packer = ReadPacker::default();
            let (mut corrected, mut clamped_left, mut clamped_right) = (0usize, 0usize, 0usize);
            for case in 0..1500usize {
                let contig_len = 1 + rng.below(300);
                let read_len = 1 + rng.below(160);
                let contigs =
                    ContigSet::from_sequences(21, vec![(noisy(&mut rng, contig_len), 1.0)]);
                let stored = &contigs.contigs[0].seq;
                let contig = PackedSeq::from_bytes(stored);
                let read_bytes = noisy(&mut rng, read_len);
                let read = packer.pack(&read_bytes, &[]);
                // Placements overhanging either end, inside, and disjoint.
                let offset = rng.below(contig_len + read_len + 20) as i64 - read_len as i64 - 10;
                clamped_left += usize::from(offset < 0);
                clamped_right += usize::from(offset + read_len as i64 > contig_len as i64);
                corrected += read.exceptions.len() + contig.view().exceptions.len();
                // The store's two sources: a contig another rank sent, and
                // one read in place from this rank's shard.
                let slots: FxHashMap<ContigId, usize> = [(0, 0)].into_iter().collect();
                let sent: DistMap<ContigId, PackedSeq> = DistMap::new(1);
                let shard: DistMap<ContigId, PackedSeq> = DistMap::new(1);
                shard.insert(ctx, 0, contig.clone());
                let sources = [
                    Windows {
                        slots: &slots,
                        values: vec![Some(contig.clone())],
                        owned: sent.local_view(ctx),
                    },
                    Windows {
                        slots: &slots,
                        values: vec![None],
                        owned: shard.local_view(ctx),
                    },
                ];
                for forward in [true, false] {
                    // The oracle: both sides unpacked from their packings, the
                    // read reverse-complemented in place.
                    let mut oriented = PackedSeq::from_bytes(&read_bytes).unpack();
                    if !forward {
                        revcomp_in_place(&mut oriented);
                    }
                    let unpacked = contig.unpack();
                    let expected =
                        verify_window(&oriented, &unpacked, 0, contig_len as i64, offset);
                    let candidate = [Candidate {
                        contig: 0,
                        contig_offset: offset,
                        forward,
                    }];
                    for windows in &sources {
                        let mut out = AlignmentSet::default();
                        let compared = verifier.verify_candidates(
                            7,
                            &read,
                            &everything,
                            &candidate,
                            windows,
                            &mut out,
                        );
                        assert_eq!(compared, 1);
                        let a = out.alignments[0];
                        assert_eq!(
                            (a.aligned_len, a.matches),
                            expected,
                            "case {case}, forward {forward}, offset {offset}"
                        );
                    }
                }
            }
            assert!(corrected > 1500 && clamped_left > 300 && clamped_right > 300);
        });
    }

    /// Contigs cut from one hidden genome with a planted repeat, a tandem
    /// repeat and an N run; reads drawn across the contig ends (overhangs),
    /// from both strands, with substitutions and N runs, some longer than
    /// `MAX_K`, some unrelated.
    fn hard_case() -> (ContigSet, Vec<(ReadId, Read)>) {
        let mut rng = Rng(0xA119_0003);
        let mut genome = rng.bases(1500);
        let repeat = genome[100..190].to_vec();
        genome[700..790].copy_from_slice(&repeat);
        genome[1250..1340].copy_from_slice(&repeat);
        let unit = genome[400..419].to_vec();
        for copy in 1..12 {
            genome[400 + 19 * copy..419 + 19 * copy].copy_from_slice(&unit);
        }
        for b in &mut genome[950..962] {
            *b = b'N';
        }
        let contigs = ContigSet::from_sequences(
            21,
            [0..520, 560..1100, 1130..1500]
                .into_iter()
                .map(|r| (genome[r].to_vec(), 10.0))
                .collect(),
        );
        let reads = (0..90u64)
            .map(|i| {
                let len = [36, 60, 100, 150, 210][rng.below(5)];
                let mut seq = if i % 15 == 14 {
                    rng.bases(len)
                } else {
                    let at = rng.below(genome.len() - len);
                    genome[at..at + len].to_vec()
                };
                for _ in 0..rng.below(4) {
                    let at = rng.below(len);
                    seq[at] = b"ACGT"[rng.below(4)];
                }
                if i % 6 == 0 {
                    let at = rng.below(len);
                    for b in &mut seq[at..(at + 5).min(len)] {
                        *b = b'N';
                    }
                }
                if i % 2 == 1 {
                    seq = revcomp(&seq);
                }
                (i, Read::with_uniform_quality(format!("r{i}"), &seq, 35))
            })
            .collect();
        (contigs, reads)
    }

    #[test]
    fn alignments_equal_the_replaced_loop_at_every_seed_key_width() {
        let (contigs, reads) = hard_case();
        for seed_len in [31, 33, 63, 65] {
            let params = AlignParams {
                seed_len,
                stride: 4,
                min_aligned_len: 20,
                min_identity: 0.8,
                ..Default::default()
            };
            let expected = align_reads_oracle(&reads, &contigs, seed_len, &params);
            assert!(expected.len() > 40, "seed {seed_len}: most reads align");
            for ranks in [1usize, 3] {
                let got: Vec<Alignment> = Team::single_node(ranks)
                    .run(|ctx| {
                        let store = ContigStore::build(ctx, &contigs, &Default::default());
                        let source = ContigsRef::Store(&store);
                        let index = build_seed_index_ref(ctx, source, seed_len);
                        let mine: Vec<(ReadId, Read)> = reads
                            .iter()
                            .filter(|(id, _)| *id as usize % ctx.ranks() == ctx.rank())
                            .cloned()
                            .collect();
                        align_reads_ref(ctx, mine, source, &index, &params).alignments
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                let mut got = got;
                got.sort_by_key(|a| a.read_id);
                assert_eq!(got, expected, "seed {seed_len}, {ranks} ranks");
            }
        }
    }

    #[test]
    fn alignments_equal_the_replaced_loop_at_every_rank_count_batch_and_cache() {
        let (contigs, reads) = hard_case();
        let base = AlignParams {
            seed_len: 15,
            stride: 4,
            min_aligned_len: 20,
            min_identity: 0.8,
            ..Default::default()
        };
        let expected = align_reads_oracle(&reads, &contigs, 15, &base);
        let mut library = ReadLibrary::new_unpaired("hard");
        for (_, read) in &reads {
            library.push_read(read.clone());
        }
        assert!(expected.len() > 60, "test setup: most reads align");
        assert!(expected.iter().any(|a| !a.forward));
        assert!(expected.iter().any(|a| a.contig_offset < 0));
        assert!(expected.iter().any(|a| a.matches < a.aligned_len));
        let by_read = |set: &[Alignment], id: ReadId| -> Vec<Alignment> {
            set.iter().filter(|a| a.read_id == id).copied().collect()
        };
        for ranks in 1..=4usize {
            Team::single_node(ranks).run(|ctx| {
                let store = dbg::ContigStore::build(
                    ctx,
                    &contigs,
                    &dbg::ContigStoreParams {
                        cache_bytes: 128, // force evictions and refetches
                        ..Default::default()
                    },
                );
                let source = ContigsRef::Store(&store);
                let index = build_seed_index_ref(ctx, source, 15);
                let read_store = ReadStore::build(
                    ctx,
                    &library,
                    &ReadStoreParams {
                        block_reads: 7,
                        cache_bytes: 512,
                        batch: 16,
                    },
                );
                // Deal the reads unevenly; the alignments of a read do not
                // depend on which rank aligns it.
                let mine: Vec<(ReadId, Read)> = reads
                    .iter()
                    .filter(|(id, _)| (*id as usize * 7 / 5) % ctx.ranks() == ctx.rank())
                    .cloned()
                    .collect();
                let mine_ids: Vec<ReadId> = mine.iter().map(|(id, _)| *id).collect();
                let expected_mine: Vec<Alignment> = mine
                    .iter()
                    .flat_map(|(id, _)| by_read(&expected, *id))
                    .collect();
                for lookup_batch in [1usize, 4, 4096] {
                    for cache_capacity in [0usize, 8, 65_536] {
                        let p = AlignParams {
                            lookup_batch,
                            cache_capacity,
                            ..base
                        };
                        let at =
                            format!("{ranks} ranks, batch {lookup_batch}, cache {cache_capacity}");
                        let dist = align_reads_ref(
                            ctx,
                            mine.iter().map(|(id, read)| (*id, read)),
                            source,
                            &index,
                            &p,
                        );
                        assert_eq!(dist.alignments, expected_mine, "store, {at}");
                        let streamed = align_reads_ref(
                            ctx,
                            read_store.stream(ctx, mine_ids.clone()),
                            source,
                            &index,
                            &p,
                        );
                        assert_eq!(streamed.alignments, expected_mine, "read stream, {at}");
                    }
                }
                // The stores are dropped only after the slowest rank's last
                // one-sided fetch.
                ctx.barrier();
            });
        }
    }

    #[test]
    fn work_counters_do_not_depend_on_the_rank_count() {
        let (contigs, reads) = hard_case();
        let counted: Vec<[u64; 4]> = [1usize, 2, 4]
            .into_iter()
            .map(|ranks| {
                let team = Team::single_node(ranks);
                team.run(|ctx| {
                    let store = ContigStore::build(ctx, &contigs, &Default::default());
                    let source = ContigsRef::Store(&store);
                    let index = build_seed_index_ref(ctx, source, 15);
                    let mine: Vec<&(ReadId, Read)> = reads
                        .iter()
                        .filter(|(id, _)| *id as usize % ctx.ranks() == ctx.rank())
                        .collect();
                    let mine = mine.into_iter().map(|(id, read)| (*id, read));
                    align_reads_ref(ctx, mine, source, &index, &params());
                });
                let total = team.stats_total();
                [
                    total.seed_lookups,
                    total.seed_hits,
                    total.align_candidates_verified,
                    total.seed_lookups_remote,
                ]
            })
            .collect();
        let [lookups, hits, verified, remote] = counted[0];
        assert!(lookups > 1000 && hits > lookups / 2 && verified > 60);
        assert_eq!(remote, 0, "one rank owns every seed");
        for (at, c) in counted.iter().enumerate().skip(1) {
            assert_eq!(c[..3], counted[0][..3], "rank count #{at}");
            assert!(c[3] > 0 && c[3] < lookups, "some seeds are foreign: {c:?}");
        }
    }

    // --- behaviour ------------------------------------------------------------

    #[test]
    fn perfect_read_aligns_at_correct_position() {
        let contigs = contigs_of(&[GENOME]);
        let team = Team::single_node(2);
        team.run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let source = ContigsRef::Store(&store);
            let index = build_seed_index_ref(ctx, source, 15);
            let read = Read::with_uniform_quality("r0", &GENOME.as_bytes()[30..80], 35);
            let set = align_reads_ref(ctx, [(0u64, read)], source, &index, &params());
            assert_eq!(set.alignments.len(), 1);
            let a = &set.alignments[0];
            assert_eq!(a.contig, 0);
            assert!(a.forward);
            assert_eq!(a.contig_offset, 30);
            assert_eq!(a.aligned_len, 50);
            assert_eq!(a.matches, 50);
            assert!((a.identity() - 1.0).abs() < 1e-12);
        });
    }

    #[test]
    fn reverse_complement_read_aligns_reverse() {
        let contigs = contigs_of(&[GENOME]);
        let team = Team::single_node(1);
        team.run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let source = ContigsRef::Store(&store);
            let index = build_seed_index_ref(ctx, source, 15);
            let rc = revcomp(&GENOME.as_bytes()[20..70]);
            let read = Read::with_uniform_quality("r0", &rc, 35);
            let set = align_reads_ref(ctx, [(0u64, read)], source, &index, &params());
            assert_eq!(set.alignments.len(), 1);
            let a = &set.alignments[0];
            assert!(!a.forward);
            assert_eq!(a.contig_offset, 20);
            assert_eq!(a.aligned_len, 50);
            assert_eq!(a.matches, 50);
        });
    }

    #[test]
    fn read_with_errors_still_aligns_with_lower_identity() {
        let contigs = contigs_of(&[GENOME]);
        let team = Team::single_node(1);
        team.run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let source = ContigsRef::Store(&store);
            let index = build_seed_index_ref(ctx, source, 15);
            let mut bases = GENOME.as_bytes()[10..90].to_vec();
            bases[40] = if bases[40] == b'A' { b'C' } else { b'A' };
            bases[60] = if bases[60] == b'G' { b'T' } else { b'G' };
            let read = Read::with_uniform_quality("r0", &bases, 35);
            let set = align_reads_ref(ctx, [(0u64, read)], source, &index, &params());
            assert_eq!(set.alignments.len(), 1);
            let a = &set.alignments[0];
            assert_eq!(a.aligned_len, 80);
            assert_eq!(a.matches, 78);
            assert_eq!(a.contig_offset, 10);
        });
    }

    #[test]
    fn read_spanning_two_contigs_reports_both() {
        // Split the genome into two contigs; a read straddling the junction
        // must produce partial alignments to both (the splint situation).
        let left = &GENOME[..50];
        let right = &GENOME[50..];
        let contigs = contigs_of(&[left, right]);
        let team = Team::single_node(1);
        team.run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let source = ContigsRef::Store(&store);
            let index = build_seed_index_ref(ctx, source, 15);
            let read = Read::with_uniform_quality("r0", &GENOME.as_bytes()[26..76], 35);
            let set = align_reads_ref(ctx, [(0u64, read)], source, &index, &params());
            assert_eq!(set.alignments.len(), 2, "got {:?}", set.alignments);
            let contigs_hit: Vec<ContigId> = set.alignments.iter().map(|a| a.contig).collect();
            assert!(contigs_hit.contains(&0));
            assert!(contigs_hit.contains(&1));
            for a in &set.alignments {
                assert!(a.aligned_len >= 20);
                assert_eq!(a.matches, a.aligned_len, "no errors were injected");
            }
        });
    }

    #[test]
    fn unrelated_read_does_not_align() {
        let contigs = contigs_of(&[GENOME]);
        let team = Team::single_node(1);
        team.run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let source = ContigsRef::Store(&store);
            let index = build_seed_index_ref(ctx, source, 15);
            let read =
                Read::with_uniform_quality("r0", b"TTTTTTTTTTGGGGGGGGGGCCCCCCCCCCAAAAAAAAAA", 35);
            let set = align_reads_ref(ctx, [(0u64, read)], source, &index, &params());
            assert!(set.alignments.is_empty());
        });
    }

    #[test]
    fn cache_serves_repeated_foreign_seeds_and_never_sees_owned_ones() {
        let contigs = contigs_of(&[GENOME]);
        // Many reads from the same region: their seeds overlap heavily.
        let reads: Vec<(ReadId, Read)> = (0..20)
            .map(|i| {
                (
                    i as ReadId,
                    Read::with_uniform_quality(format!("r{i}"), &GENOME.as_bytes()[20..70], 35),
                )
            })
            .collect();
        // The contig reader caches nothing, so each of the ten blocks adds
        // one miss, for contig 0, on every rank; the rest is the seed view's.
        let no_cache = dbg::ContigStoreParams {
            cache_bytes: 0,
            ..Default::default()
        };
        const BLOCKS: u64 = 10;
        for ranks in [1usize, 2, 3] {
            Team::single_node(ranks).run(|ctx| {
                let store = ContigStore::build(ctx, &contigs, &no_cache);
                let source = ContigsRef::Store(&store);
                let index = build_seed_index_ref(ctx, source, 15);
                ctx.stats().reset();
                // Every rank aligns all twenty reads, two per block.
                let p = AlignParams {
                    lookup_batch: 16,
                    ..params()
                };
                let set = align_reads_ref(ctx, reads.clone(), source, &index, &p);
                assert_eq!(set.alignments.len(), 20);
                let stats = ctx.stats().snapshot();
                assert_eq!(stats.seed_lookups, 20 * 9);
                let (hits, misses) = (stats.cache_hits, stats.cache_misses - BLOCKS);
                if ranks == 1 {
                    assert_eq!((hits, misses), (0, 0), "{stats:?}");
                    assert_eq!(stats.seed_lookups_remote, 0);
                    return;
                }
                // Each distinct foreign seed is fetched once — by the first
                // block that needs it — and every later lookup is a hit.
                assert_eq!(hits + misses, stats.seed_lookups_remote);
                assert_eq!(misses * 20, stats.seed_lookups_remote);
                let foreign = ctx.allreduce_sum_u64(misses);
                assert_eq!(
                    foreign,
                    9 * (ranks as u64 - 1),
                    "nine seeds, each foreign to all but its owner"
                );
            });
        }
    }

    #[test]
    fn n_bases_never_count_as_matches_even_against_n() {
        // A contig whose middle is an N run (e.g. an earlier gap fill), and a
        // low-quality read whose tail is also Ns over the same region: the
        // self-matching N run must not manufacture identity.
        let mut contig_seq = GENOME.as_bytes().to_vec();
        for b in &mut contig_seq[60..75] {
            *b = b'N';
        }
        let contigs = ContigSet::from_sequences(21, vec![(contig_seq.clone(), 10.0)]);
        let stored = &contigs.contigs[0].seq;
        // Read covering 40..90 of the stored orientation, with the same N run.
        let read_bases = stored[40..90].to_vec();
        let n_in_read = read_bases.iter().filter(|&&b| b == b'N').count();
        assert!(n_in_read >= 10, "test setup: read must contain the N run");
        let team = Team::single_node(1);
        team.run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let source = ContigsRef::Store(&store);
            let index = build_seed_index_ref(ctx, source, 15);
            let read = Read::with_uniform_quality("r0", &read_bases, 35);
            // Drop the identity floor so the placement is reported and the
            // match count itself can be inspected.
            let p = AlignParams {
                min_identity: 0.5,
                ..params()
            };
            let set = align_reads_ref(ctx, [(0u64, read)], source, &index, &p);
            assert_eq!(set.alignments.len(), 1, "{:?}", set.alignments);
            let a = &set.alignments[0];
            assert_eq!(a.aligned_len, 50);
            assert_eq!(
                a.matches,
                50 - n_in_read,
                "N positions must not count as matches"
            );
        });
    }

    #[test]
    fn best_per_read_and_by_read_helpers() {
        let a0 = Alignment {
            read_id: 1,
            contig: 0,
            forward: true,
            contig_offset: 0,
            aligned_len: 50,
            matches: 48,
        };
        let a1 = Alignment {
            read_id: 1,
            contig: 2,
            forward: false,
            contig_offset: 5,
            aligned_len: 30,
            matches: 30,
        };
        let set = AlignmentSet {
            alignments: vec![a0, a1],
        };
        assert_eq!(set.by_read()[&1].len(), 2);
        assert_eq!(set.best_per_read()[&1], a0);
    }
}

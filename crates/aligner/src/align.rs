//! Seed-and-extend alignment of reads onto contigs.
//!
//! Seed lookups against the distributed seed index are aggregated: the seeds
//! of a whole block of reads are gathered, cache hits are served locally, and
//! every miss of the block travels to its owner rank in one aggregated
//! request–response round trip ([`dht::CachedView`]) — the paper's batched
//! lookups (use case 3 of §II-A). Alignment is therefore **collective**:
//! every rank must call [`align_reads`] in the same phase, even with no
//! reads. [`AlignParams::lookup_batch`] sizes the blocks and the messages;
//! the alignments — and the assembly built from them — do not depend on it.

use crate::seed_index::{SeedHit, SeedIndex};
use dbg::{ContigId, ContigSet, ContigsRef, PackedSeq};
use dht::{CachedView, FxHashMap};
use kmers::Kmer;
use pgas::Ctx;
use seqio::alphabet::revcomp;
use seqio::{Read, ReadId};

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
    /// Capacity of the per-rank software seed cache (entries).
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

    /// True if the oriented read extends past the left end (coordinate 0) of
    /// the contig.
    pub fn overhangs_left(&self) -> bool {
        self.contig_offset < 0
    }

    /// True if the oriented read extends past the right end of a contig of the
    /// given length.
    pub fn overhangs_right(&self, contig_len: usize, read_len: usize) -> bool {
        self.contig_offset + read_len as i64 > contig_len as i64
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

/// Aligns the reads `(read_id, read)` of this rank against a replicated
/// contig set using the shared seed index. Returns this rank's alignments.
/// See [`align_reads_ref`] for the collectivity contract.
pub fn align_reads<R: std::borrow::Borrow<Read>>(
    ctx: &Ctx,
    reads: impl IntoIterator<Item = (ReadId, R)>,
    contigs: &ContigSet,
    index: &SeedIndex,
    params: &AlignParams,
) -> AlignmentSet {
    align_reads_ref(ctx, reads, ContigsRef::Local(contigs), index, params)
}

/// Aligns the reads `(read_id, read)` of this rank against either a
/// replicated contig set or the distributed contig store.
///
/// **Collective**: every rank must call it in the same phase (an empty read
/// set is fine). Reads are processed in blocks whose seeds are resolved
/// together — cache hits locally, all misses of the block in one
/// request–response round trip — and, against a distributed store, the contig
/// windows named by the block's surviving candidates are fetched in a second
/// aggregated round. Ranks with fewer reads keep participating in the
/// remaining rounds with empty batches.
///
/// The alignments are byte-identical whichever contig source is used: seed
/// voting never touches sequence bytes, and verification reads exactly the
/// candidate windows whichever transport delivered them.
///
/// Reads arrive as any borrowable form (`Read`, `&Read`, or the values an
/// on-demand read-store stream unpacks), so neither the replicated baseline
/// nor the distributed read store has to clone sequences to align them.
pub fn align_reads_ref<R: std::borrow::Borrow<Read>>(
    ctx: &Ctx,
    reads: impl IntoIterator<Item = (ReadId, R)>,
    contigs: ContigsRef<'_>,
    index: &SeedIndex,
    params: &AlignParams,
) -> AlignmentSet {
    let mut reads = reads.into_iter();
    let mut view: CachedView<Kmer, Vec<SeedHit>> =
        CachedView::new(&index.map, params.cache_capacity, params.lookup_batch);
    let mut reader = contigs.store().map(|s| s.reader(ctx));
    let mut out = AlignmentSet::default();
    loop {
        // Pull one block of reads from the stream: enough to fill roughly one
        // batch of seed lookups. Only the current block is held in memory.
        let mut block: Vec<(ReadId, R)> = Vec::new();
        let mut seeds: Vec<Seed> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        while seeds.len() < params.lookup_batch {
            let Some((read_id, read)) = reads.next() else {
                break;
            };
            let lo = seeds.len();
            collect_seeds(
                &read.borrow().seq,
                index.seed_len,
                params.stride,
                &mut seeds,
            );
            spans.push((lo, seeds.len()));
            block.push((read_id, read));
        }
        // Everyone must agree to stop; a rank that is done keeps serving the
        // collective with empty batches until the slowest rank finishes.
        if !ctx.allreduce_any(!block.is_empty()) {
            break;
        }
        let keys: Vec<Kmer> = seeds.iter().map(|s| s.canon).collect();
        let resolved = view.get_many(ctx, &keys);
        let candidates: Vec<Vec<Candidate>> = block
            .iter()
            .zip(&spans)
            .map(|((_, read), &(lo, hi))| {
                vote_candidates(
                    &read.borrow().seq,
                    index.seed_len,
                    &seeds[lo..hi],
                    &resolved[lo..hi],
                )
            })
            .collect();
        match contigs {
            ContigsRef::Local(set) => {
                for ((read_id, read), cands) in block.iter().zip(candidates) {
                    verify_candidates_local(*read_id, read.borrow(), set, params, cands, &mut out);
                }
            }
            ContigsRef::Store(_) => {
                // One aggregated fetch for every contig named by a surviving
                // candidate anywhere in the block (collective — ranks with an
                // empty block fetch an empty id set).
                let reader = reader.as_mut().expect("reader exists for store sources");
                let mut ids: Vec<ContigId> = Vec::new();
                let mut seen: FxHashMap<ContigId, usize> = FxHashMap::default();
                for cands in &candidates {
                    for cand in cands.iter().take(params.max_candidates) {
                        seen.entry(cand.contig).or_insert_with(|| {
                            ids.push(cand.contig);
                            ids.len() - 1
                        });
                    }
                }
                let values = reader.get_many(ctx, &ids);
                let fetched: FxHashMap<ContigId, Option<PackedSeq>> =
                    ids.into_iter().zip(values).collect();
                for ((read_id, read), cands) in block.iter().zip(candidates) {
                    verify_candidates_fetched(
                        *read_id,
                        read.borrow(),
                        &fetched,
                        params,
                        cands,
                        &mut out,
                    );
                }
            }
        }
    }
    out
}

/// Candidate placement of a read on a contig.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Candidate {
    contig: ContigId,
    forward: bool,
    contig_offset: i64,
}

/// One sampled seed of a read: its canonical k-mer, whether canonicalisation
/// reverse-complemented it, and its offset in the read.
#[derive(Debug, Clone, Copy)]
struct Seed {
    canon: Kmer,
    read_rc: bool,
    offset: usize,
}

/// Appends the seeds of a read, sampled at the configured stride.
fn collect_seeds(seq: &[u8], slen: usize, stride: usize, seeds: &mut Vec<Seed>) {
    if seq.len() < slen {
        return;
    }
    let mut offset = 0usize;
    while offset + slen <= seq.len() {
        if let Some(seed) = Kmer::from_bytes(&seq[offset..offset + slen]) {
            let (canon, read_rc) = seed.canonical();
            seeds.push(Seed {
                canon,
                read_rc,
                offset,
            });
        }
        offset += stride.max(1);
    }
}

/// Turns one read's resolved seed hits into the sorted candidate list
/// (best-voted first, deterministic tie-break). `hits[i]` is the index answer
/// for `seeds[i]`; `slen` is the seed length the seeds were sampled with (the
/// index's, not the params'). Voting never touches contig sequence bytes, so
/// it is shared verbatim by the replicated and distributed-store paths.
fn vote_candidates(
    seq: &[u8],
    slen: usize,
    seeds: &[Seed],
    hits: &[Option<Vec<SeedHit>>],
) -> Vec<Candidate> {
    let mut votes: FxHashMap<Candidate, usize> = FxHashMap::default();
    for (seed, hit_list) in seeds.iter().zip(hits) {
        let Some(hit_list) = hit_list else { continue };
        for hit in hit_list {
            // forward placement: the read (as given) matches the contig
            // strand iff the seed orientations agree.
            let forward = hit.forward != seed.read_rc;
            let contig_offset = if forward {
                hit.pos as i64 - seed.offset as i64
            } else {
                // The reverse-complemented read aligns forward; in the
                // oriented (rc) read the seed starts at
                // len - slen - offset.
                hit.pos as i64 - (seq.len() - slen - seed.offset) as i64
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

/// A contig window handed to verification: the bytes, the contig coordinate
/// the window starts at, and the full contig length.
type ContigWindow<'a> = (std::borrow::Cow<'a, [u8]>, i64, usize);

/// Verifies the top candidates of one read against a replicated contig set
/// (windows borrow the stored sequences; nothing is copied).
fn verify_candidates_local(
    read_id: ReadId,
    read: &Read,
    contigs: &ContigSet,
    params: &AlignParams,
    candidates: Vec<Candidate>,
    out: &mut AlignmentSet,
) {
    verify_candidates(read_id, read, params, candidates, out, |id, _, _| {
        contigs
            .get(id)
            .map(|c| (std::borrow::Cow::Borrowed(c.seq.as_slice()), 0, c.len()))
    });
}

/// Verifies the top candidates of one read against pre-fetched packed
/// contigs, unpacking only the window each placement can touch.
fn verify_candidates_fetched(
    read_id: ReadId,
    read: &Read,
    fetched: &FxHashMap<ContigId, Option<PackedSeq>>,
    params: &AlignParams,
    candidates: Vec<Candidate>,
    out: &mut AlignmentSet,
) {
    verify_candidates(
        read_id,
        read,
        params,
        candidates,
        out,
        |id, offset, rlen| {
            let packed = fetched.get(&id).and_then(|p| p.as_ref())?;
            let start = offset.max(0) as usize;
            let end = (offset + rlen as i64).max(0) as usize;
            let window = packed.window(start, end.saturating_sub(start));
            Some((std::borrow::Cow::Owned(window), start as i64, packed.len()))
        },
    );
}

/// Shared verification loop: report at most one placement per contig per
/// read (the best-voted one), accept if long and identical enough.
/// `window_of(contig, offset, read_len)` yields the contig window covering
/// the placement `[offset, offset + read_len)` (clamped), or `None` for an
/// unknown contig.
fn verify_candidates<'a>(
    read_id: ReadId,
    read: &Read,
    params: &AlignParams,
    candidates: Vec<Candidate>,
    out: &mut AlignmentSet,
    mut window_of: impl FnMut(ContigId, i64, usize) -> Option<ContigWindow<'a>>,
) {
    if candidates.is_empty() {
        return;
    }
    let seq = &read.seq;
    let oriented_fwd = seq.clone();
    let oriented_rev = revcomp(seq);
    let mut reported_contigs: Vec<ContigId> = Vec::new();
    for cand in candidates.into_iter().take(params.max_candidates) {
        if reported_contigs.contains(&cand.contig) {
            continue;
        }
        let Some((window, window_start, contig_len)) =
            window_of(cand.contig, cand.contig_offset, seq.len())
        else {
            continue;
        };
        let oriented: &[u8] = if cand.forward {
            &oriented_fwd
        } else {
            &oriented_rev
        };
        let (aligned_len, matches) = verify_window(
            oriented,
            &window,
            window_start,
            contig_len as i64,
            cand.contig_offset,
        );
        if aligned_len >= params.min_aligned_len
            && matches as f64 >= params.min_identity * aligned_len as f64
        {
            reported_contigs.push(cand.contig);
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
}

/// Counts aligned/matching bases of `oriented_read` placed at `offset` on a
/// contig of length `contig_len`, reading contig bases from `window` (which
/// starts at contig coordinate `window_start` and must cover the overlap).
/// Ungapped. An `N` never counts as a match — not even against another `N`:
/// ambiguous bases carry no evidence, and letting `N` runs in low-quality
/// read tails "match" contig `N`s would manufacture identity.
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
    // Both sides of the overlap are contiguous slices, so the per-base loop
    // reduces to the vectorised equal-and-not-N byte count. (A byte equal to
    // an excluded `N` implies both are `N`, so excluding on one side only is
    // exact.)
    let contig = &window[(start - window_start) as usize..(end - window_start) as usize];
    let read = &oriented_read[(start - offset) as usize..(end - offset) as usize];
    let matches = mhm_simd::match_count_except(contig, read, b'N');
    ((end - start) as usize, matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed_index::{build_seed_index, build_seed_index_ref};
    use pgas::Team;

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

    #[test]
    fn perfect_read_aligns_at_correct_position() {
        let contigs = contigs_of(&[GENOME]);
        let team = Team::single_node(2);
        team.run(|ctx| {
            let index = build_seed_index(ctx, &contigs, 15);
            ctx.barrier();
            let read = Read::with_uniform_quality("r0", &GENOME.as_bytes()[30..80], 35);
            let set = align_reads(ctx, vec![(0u64, read)], &contigs, &index, &params());
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
            let index = build_seed_index(ctx, &contigs, 15);
            let rc = revcomp(&GENOME.as_bytes()[20..70]);
            let read = Read::with_uniform_quality("r0", &rc, 35);
            let set = align_reads(ctx, vec![(0u64, read)], &contigs, &index, &params());
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
            let index = build_seed_index(ctx, &contigs, 15);
            let mut bases = GENOME.as_bytes()[10..90].to_vec();
            bases[40] = if bases[40] == b'A' { b'C' } else { b'A' };
            bases[60] = if bases[60] == b'G' { b'T' } else { b'G' };
            let read = Read::with_uniform_quality("r0", &bases, 35);
            let set = align_reads(ctx, vec![(0u64, read)], &contigs, &index, &params());
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
            let index = build_seed_index(ctx, &contigs, 15);
            let read = Read::with_uniform_quality("r0", &GENOME.as_bytes()[26..76], 35);
            let set = align_reads(ctx, vec![(0u64, read)], &contigs, &index, &params());
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
            let index = build_seed_index(ctx, &contigs, 15);
            let read =
                Read::with_uniform_quality("r0", b"TTTTTTTTTTGGGGGGGGGGCCCCCCCCCCAAAAAAAAAA", 35);
            let set = align_reads(ctx, vec![(0u64, read)], &contigs, &index, &params());
            assert!(set.alignments.is_empty());
        });
    }

    #[test]
    fn cache_reuse_reduces_misses_for_similar_reads() {
        let contigs = contigs_of(&[GENOME]);
        let team = Team::single_node(1);
        team.run(|ctx| {
            let index = build_seed_index(ctx, &contigs, 15);
            ctx.stats().reset();
            // Many reads from the same region: their seeds overlap heavily.
            let reads: Vec<(ReadId, Read)> = (0..20)
                .map(|i| {
                    (
                        i as ReadId,
                        Read::with_uniform_quality(format!("r{i}"), &GENOME.as_bytes()[20..70], 35),
                    )
                })
                .collect();
            let set = align_reads(ctx, reads, &contigs, &index, &params());
            assert_eq!(set.alignments.len(), 20);
            let stats = ctx.stats().snapshot();
            assert!(
                stats.cache_hits > stats.cache_misses,
                "expected cache reuse: {stats:?}"
            );
        });
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
            let index = build_seed_index(ctx, &contigs, 15);
            let read = Read::with_uniform_quality("r0", &read_bases, 35);
            // Drop the identity floor so the placement is reported and the
            // match count itself can be inspected.
            let p = AlignParams {
                min_identity: 0.5,
                ..params()
            };
            let set = align_reads(ctx, vec![(0u64, read)], &contigs, &index, &p);
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
    fn distributed_store_alignments_match_replicated_at_either_batch_size() {
        let contigs = contigs_of(&[&GENOME[..50], &GENOME[40..]]);
        for ranks in [1usize, 3] {
            let team = Team::single_node(ranks);
            let contigs2 = contigs.clone();
            team.run(|ctx| {
                let store = dbg::ContigStore::build(
                    ctx,
                    &contigs2,
                    &dbg::ContigStoreParams {
                        cache_bytes: 128, // force evictions and refetches
                        ..Default::default()
                    },
                );
                let index = build_seed_index_ref(ctx, ContigsRef::Store(&store), 15);
                let index_local = build_seed_index(ctx, &contigs2, 15);
                ctx.barrier();
                let my_reads: Vec<(ReadId, Read)> = (0..24)
                    .filter(|i| i % ctx.ranks() == ctx.rank())
                    .map(|i| {
                        let lo = (i * 3) % 45;
                        (
                            i as ReadId,
                            Read::with_uniform_quality(
                                format!("r{i}"),
                                &GENOME.as_bytes()[lo..lo + 50],
                                35,
                            ),
                        )
                    })
                    .collect();
                for lookup_batch in [1usize, 4096] {
                    let p = AlignParams {
                        lookup_batch,
                        ..params()
                    };
                    let local = align_reads_ref(
                        ctx,
                        my_reads.clone(),
                        ContigsRef::Local(&contigs2),
                        &index_local,
                        &p,
                    );
                    let dist = align_reads_ref(
                        ctx,
                        my_reads.clone(),
                        ContigsRef::Store(&store),
                        &index,
                        &p,
                    );
                    assert_eq!(
                        local.alignments, dist.alignments,
                        "store alignments diverged (ranks={ranks}, batch={lookup_batch})"
                    );
                }
                ctx.barrier();
            });
        }
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
        assert!(!a1.overhangs_left());
        assert!(Alignment {
            contig_offset: -3,
            ..a0
        }
        .overhangs_left());
        assert!(a0.overhangs_right(40, 50));
        assert!(!a0.overhangs_right(100, 50));
    }
}

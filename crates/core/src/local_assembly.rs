//! Local assembly: mer-walking contig extension with dynamic work stealing
//! (§II-G).
//!
//! For every contig, the reads that align near its ends (plus mates of
//! aligned reads that themselves did not align, projected outward by the
//! library insert size) are gathered into a local pool. The contig end is then
//! extended base by base: at each step the pool is scanned for reads whose
//! last `m` assembled bases occur in them, and the bases observed immediately
//! after form votes. A unanimous-enough vote extends the contig; a conflicted
//! vote *upshifts* the mer size `m` (more context disambiguates repeats); no
//! votes *downshift* it (less context rescues thin coverage). The walk
//! terminates when it encounters a fork after downshifting or a dead end after
//! upshifting, as in the paper.
//!
//! Because the cost of a walk is unpredictable, contigs are dealt to ranks in
//! blocks through the shared atomic counter of [`pgas::DynamicBlocks`].

use aligner::AlignmentSet;
use dbg::{ContigSet, ContigsRef};
use dht::{bulk_merge, DistMap, FxHashMap, FxHashSet};
use pgas::{Ctx, DynamicBlocks};
use readstore::ReadsRef;
use seqio::alphabet::revcomp;
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
    /// Work-stealing block size (contigs per grab).
    pub block_size: usize,
    /// Aggregated-lookup batch size for pool-table fetches: `> 1` fetches a
    /// grabbed block's pools in one aggregated message pair per owner instead
    /// of one fine-grained read per contig; `1` keeps the per-contig reads.
    pub lookup_batch: usize,
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
            lookup_batch: 4096,
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
            store.reader(ctx).fetch_reads(ctx, &ids, false)
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
    let ranks = ctx.ranks();
    let pool_table: Arc<DistMap<u64, Vec<Vec<u8>>>> = DistMap::shared(ctx);
    bulk_merge(ctx, &pool_table, pools, 1024, |a, mut b| a.append(&mut b));

    // ---- Walk contigs with dynamic work stealing ----------------------------
    // Once a contig's reads are extracted to local storage the walk itself
    // needs no communication; blocks of contigs are grabbed through the shared
    // atomic counter so ranks with cheap walks steal from slower ones. A
    // grabbed block's read pools — and, with a distributed contig store, its
    // contig sequences — are fetched with one *one-sided* aggregated batch
    // per block (the steal loop cannot reach a collective in lockstep, so the
    // two-sided `get_many` is not usable here) instead of one fine-grained
    // read per contig.
    let blocks = ctx.share(|| DynamicBlocks::new(contigs.num_contigs(), params.block_size));
    let mut reader = contigs.store().map(|s| s.reader(ctx));
    let mut extended_local: Vec<(u64, Vec<u8>, f64)> = Vec::new();
    let mut processed = 0usize;
    let mut first = true;
    while let Some(range) = blocks.next_block(ctx, first) {
        first = false;
        // Contig ids are dense (`ContigSet::from_sequences` numbers them
        // 0..n in order), so the block range is the id range.
        let ids: Vec<u64> = range.clone().map(|idx| idx as u64).collect();
        let pools: Vec<Option<Vec<Vec<u8>>>> = if params.lookup_batch > 1 {
            pool_table.get_many_onesided(ctx, &ids)
        } else {
            ids.iter()
                .map(|id| pool_table.get_cloned(ctx, id))
                .collect()
        };
        let block_seqs: Option<Vec<Vec<u8>>> = reader.as_mut().map(|reader| {
            let fetched = if params.lookup_batch > 1 {
                reader.get_many_onesided(ctx, &ids)
            } else {
                ids.iter().map(|id| reader.get(ctx, *id)).collect()
            };
            fetched
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
            let new_seq = extend_one(seq, &pool, params);
            extended_local.push((id, new_seq, depth));
        }
    }
    ctx.barrier();

    // ---- Gather the extended contigs into a new deterministic set ------------
    let mut out: Vec<Vec<(u64, Vec<u8>, f64)>> = vec![Vec::new(); ranks];
    out[0] = extended_local;
    let gathered = ctx.exchange(out);
    let set = if ctx.rank() == 0 {
        ContigSet::from_sequences(
            contigs.k(),
            gathered
                .into_iter()
                .map(|(_, seq, depth)| (seq, depth))
                .collect(),
        )
    } else {
        ContigSet::new(contigs.k())
    };
    (ctx.broadcast(|| set), processed)
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

/// Extends one contig sequence at both ends using its read pool (reads in
/// contig orientation).
pub fn extend_one(contig_seq: &[u8], pool: &[Vec<u8>], params: &LocalAssemblyParams) -> Vec<u8> {
    if pool.is_empty() {
        return contig_seq.to_vec();
    }
    // Right (tail) extension on the forward strand, then left extension done as
    // a right extension of the reverse complement.
    let mut seq = contig_seq.to_vec();
    let right = walk_extension(&seq, pool, params);
    seq.extend_from_slice(&right);
    let mut rc = revcomp(&seq);
    let rc_pool: Vec<Vec<u8>> = pool.iter().map(|r| revcomp(r)).collect();
    let left = walk_extension(&rc, &rc_pool, params);
    rc.extend_from_slice(&left);
    revcomp(&rc)
}

/// Mer-walks rightwards from the end of `seq`, returning the appended bases.
fn walk_extension(seq: &[u8], pool: &[Vec<u8>], params: &LocalAssemblyParams) -> Vec<u8> {
    let mut added: Vec<u8> = Vec::new();
    let mut mer = params.mer_size;
    let mut shifted_up = false;
    let mut shifted_down = false;
    while added.len() < params.max_extension {
        // Current context: the last `mer` bases of the assembled sequence.
        let ctx_len = seq.len() + added.len();
        if ctx_len < mer {
            break;
        }
        let mut context: Vec<u8> = Vec::with_capacity(mer);
        if added.len() >= mer {
            context.extend_from_slice(&added[added.len() - mer..]);
        } else {
            let need_from_seq = mer - added.len();
            context.extend_from_slice(&seq[seq.len() - need_from_seq..]);
            context.extend_from_slice(&added);
        }
        // Vote on the next base.
        let mut votes = [0usize; 4];
        for read in pool {
            if read.len() <= mer {
                continue;
            }
            let mut start = 0usize;
            while let Some(pos) = find_sub(&read[start..], &context) {
                let abs = start + pos;
                if abs + mer < read.len() {
                    if let Some(code) = seqio::alphabet::encode_base(read[abs + mer]) {
                        votes[code as usize] += 1;
                    }
                }
                start = abs + 1;
                if start >= read.len() {
                    break;
                }
            }
        }
        let total: usize = votes.iter().sum();
        let (best, best_votes) = votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(i, &v)| (i, v))
            .expect("four vote slots");
        let contradictions = total - best_votes;
        if total == 0 {
            // Dead end: downshift, or stop if we already upshifted / hit bottom.
            if shifted_up || mer <= params.min_mer {
                break;
            }
            mer = mer.saturating_sub(params.shift).max(params.min_mer);
            shifted_down = true;
            continue;
        }
        if best_votes >= params.min_votes && contradictions <= params.max_contradictions {
            added.push(seqio::alphabet::decode_base(best as u8));
            continue;
        }
        // Fork: upshift, or stop if we already downshifted / hit the ceiling.
        if shifted_down || mer >= params.max_mer {
            break;
        }
        mer = (mer + params.shift).min(params.max_mer);
        shifted_up = true;
    }
    added
}

/// Naive substring search (pools and contexts are tiny).
fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
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

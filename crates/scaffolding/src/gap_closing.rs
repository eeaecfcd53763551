//! Gap closing with load balancing (§III-D).
//!
//! After traversal, adjacent contigs of a scaffold are separated by gaps whose
//! sizes are only estimates. Several closure methods of very different cost
//! are tried in order; because the successful method is unpredictable, gap
//! work is dealt out round-robin across ranks (we deal whole scaffolds
//! round-robin, which at the scale of this reproduction breaks up the
//! per-scaffold cost correlation the paper describes — the original deals
//! individual gaps).
//!
//! Closure methods, in order:
//! 1. **suspended-repeat re-insertion** — if the traversal suspended a short
//!    repeat contig over this junction, its sequence is what belongs in the
//!    gap;
//! 2. **overlap merging** — if the gap estimate is non-positive, the flanks
//!    are checked for a direct sequence overlap and merged;
//! 3. **N padding** — otherwise the gap is filled with `N`s sized by the span
//!    gap estimate (at least one), exactly how scaffolders mark unclosed gaps.

use crate::links::LinkSet;
use crate::types::{Scaffold, ScaffoldSet};
use dbg::{ContigId, ContigsRef};
use dht::FxHashMap;
use pgas::Ctx;
use seqio::alphabet::revcomp;

/// Parameters of gap closing.
#[derive(Debug, Clone, Copy)]
pub struct GapClosingParams {
    /// Minimum exact overlap (bases) accepted when merging flanks of a
    /// non-positive gap.
    pub min_overlap: usize,
    /// Largest overlap searched for.
    pub max_overlap: usize,
    /// Unclosed gaps are padded with at least this many `N`s.
    pub min_n_fill: usize,
    /// Unclosed gaps are padded with at most this many `N`s.
    pub max_n_fill: usize,
    /// Anchor k-mer length of the inexact (mismatch-tolerant) overlap merge.
    pub merge_k: usize,
    /// Minimum base identity of an inexact overlap for the merge to apply.
    pub min_merge_identity: f64,
}

impl Default for GapClosingParams {
    fn default() -> Self {
        GapClosingParams {
            min_overlap: 15,
            max_overlap: 700,
            min_n_fill: 1,
            max_n_fill: 500,
            merge_k: 16,
            min_merge_identity: 0.85,
        }
    }
}

/// Outcome counters of the gap-closing stage (summed over all ranks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GapClosingReport {
    pub gaps_total: usize,
    pub closed_by_suspended: usize,
    pub closed_by_overlap: usize,
    pub filled_with_n: usize,
}

/// Returns the length of the longest suffix of `a` equal to a prefix of `b`,
/// searched between `min` and `max` bases.
fn best_overlap(a: &[u8], b: &[u8], min: usize, max: usize) -> Option<usize> {
    let max = max.min(a.len()).min(b.len());
    (min..=max).rev().find(|&o| a[a.len() - o..] == b[..o])
}

/// Mismatch-tolerant overlap join: anchors the prefix of `piece` onto the tail
/// of `seq` with exact k-mer hits, verifies each candidate diagonal base by
/// base, and returns `(seq_keep, piece_start)` — join as
/// `seq[..seq_keep] + piece[piece_start..]`.
///
/// Adjacent contigs routinely overlap *inexactly*: local assembly extends
/// contigs into their neighbours' territory, and strain-collapsed or
/// error-containing copies differ by substitutions, so the exact
/// [`best_overlap`] check fails and the duplicate material would otherwise be
/// concatenated twice into the scaffold. The per-diagonal score also trims a
/// low-quality extension tail of `seq` when the true junction lies before its
/// end (walk extensions can wander at forks).
fn fuzzy_overlap_join(
    seq: &[u8],
    piece: &[u8],
    params: &GapClosingParams,
) -> Option<(usize, usize)> {
    let k = params.merge_k;
    // The anchor k-mer must fit inside the searched window.
    let window = params.max_overlap.max(k);
    if seq.len() < k || piece.len() < k {
        return None;
    }
    // Index the k-mers of piece's prefix window by content (first occurrence).
    let piece_window = &piece[..window.min(piece.len())];
    let mut piece_kmers: std::collections::HashMap<&[u8], usize> = std::collections::HashMap::new();
    for p in 0..=piece_window.len().saturating_sub(k) {
        piece_kmers.entry(&piece_window[p..p + k]).or_insert(p);
    }
    // Scan seq's tail window and vote on alignment diagonals: a hit of seq
    // position q against piece position p implies piece[0] sits at seq
    // coordinate q - p.
    let tail_start = seq.len().saturating_sub(window);
    let mut diagonals: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
    for q in tail_start..=seq.len().saturating_sub(k) {
        if let Some(&p) = piece_kmers.get(&seq[q..q + k]) {
            if q >= p {
                *diagonals.entry(q - p).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(usize, u32)> = diagonals.into_iter().collect();
    ranked.sort_unstable_by_key(|&(d, votes)| (std::cmp::Reverse(votes), d));

    let mut best: Option<(usize, usize, usize)> = None; // (matches, seq_keep, piece_start)
    for &(s, _) in ranked.iter().take(4) {
        // piece[j] pairs with seq[s + j]; walk the diagonal accumulating a
        // local-alignment-style prefix score and remember its maximum, which
        // marks the junction (everything past it on `seq` is divergent tail).
        let overlap = (seq.len() - s).min(piece.len());
        if overlap < params.min_overlap {
            continue;
        }
        let mut score = 0i64;
        let mut matches = 0usize;
        let (mut best_score, mut best_j, mut best_matches) = (0i64, 0usize, 0usize);
        for j in 0..overlap {
            if piece[j] == seq[s + j] {
                score += 1;
                matches += 1;
            } else {
                score -= 3;
            }
            if score > best_score {
                best_score = score;
                best_j = j + 1;
                best_matches = matches;
            }
        }
        if best_j < params.min_overlap {
            continue;
        }
        if (best_matches as f64) < params.min_merge_identity * best_j as f64 {
            continue;
        }
        if best.map(|(m, _, _)| best_matches > m).unwrap_or(true) {
            best = Some((best_matches, s + best_j, best_j));
        }
    }
    best.map(|(_, seq_keep, piece_start)| (seq_keep, piece_start))
}

/// Materialises one scaffold's sequence, closing its gaps. `seq_of` yields a
/// contig's stored sequence (from the local replica or from a prefetched
/// batch of the distributed store).
fn close_scaffold(
    scaffold: &mut Scaffold,
    seq_of: &mut dyn FnMut(ContigId) -> Vec<u8>,
    params: &GapClosingParams,
    report: &mut GapClosingReport,
) {
    let mut seq: Vec<u8> = Vec::new();
    for (i, entry) in scaffold.entries.iter().enumerate() {
        let piece = {
            let stored = seq_of(entry.contig);
            if entry.forward {
                stored
            } else {
                revcomp(&stored)
            }
        };
        if i == 0 {
            seq = piece;
            continue;
        }
        // We are closing the gap between the previous entry and this one.
        let prev = &scaffold.entries[i - 1];
        report.gaps_total += 1;
        if let Some(suspended) = prev.suspended_after {
            // Method 1: the suspended repeat belongs in this gap. Its stored
            // orientation is unknown, so pick the orientation that overlaps
            // best with the flank (falling back to stored orientation).
            let repeat = seq_of(suspended);
            let fwd_overlap = best_overlap(&seq, &repeat, params.min_overlap, params.max_overlap);
            let rc = revcomp(&repeat);
            let rc_overlap = best_overlap(&seq, &rc, params.min_overlap, params.max_overlap);
            let repeat_oriented = if rc_overlap.unwrap_or(0) > fwd_overlap.unwrap_or(0) {
                rc
            } else {
                repeat
            };
            let trim = fwd_overlap.max(rc_overlap).unwrap_or(0);
            seq.extend_from_slice(&repeat_oriented[trim..]);
            // Then join the repeat to the incoming piece, overlap if possible.
            match best_overlap(&seq, &piece, params.min_overlap, params.max_overlap) {
                Some(o) => seq.extend_from_slice(&piece[o..]),
                None => {
                    seq.extend(std::iter::repeat_n(b'N', params.min_n_fill));
                    seq.extend_from_slice(&piece);
                }
            }
            report.closed_by_suspended += 1;
            continue;
        }
        // Method 2: overlap merging. Attempted for every gap — the gap
        // estimate is span-noise-limited, while an anchored sequence overlap
        // is direct evidence, so finding one overrides a positive estimate.
        let gap = prev.gap_after.unwrap_or(0);
        if let Some(o) = best_overlap(&seq, &piece, params.min_overlap, params.max_overlap) {
            seq.extend_from_slice(&piece[o..]);
            report.closed_by_overlap += 1;
            continue;
        }
        if let Some((seq_keep, piece_start)) = fuzzy_overlap_join(&seq, &piece, params) {
            seq.truncate(seq_keep);
            seq.extend_from_slice(&piece[piece_start..]);
            report.closed_by_overlap += 1;
            continue;
        }
        // Method 3: N padding sized by the gap estimate.
        let n = (gap.max(params.min_n_fill as i64) as usize).min(params.max_n_fill);
        seq.extend(std::iter::repeat_n(b'N', n));
        seq.extend_from_slice(&piece);
        report.filled_with_n += 1;
    }
    scaffold.seq = seq;
}

/// Collectively closes the gaps of all scaffolds and materialises their
/// sequences. Scaffolds are dealt round-robin over ranks; the finished set is
/// identical on every rank.
///
/// Each rank fetches the contigs of one scaffold at a time from the contig
/// store with a *one-sided* aggregated batch
/// ([`dbg::ContigReader::get_many_onesided`]) — ranks close different
/// scaffold counts, so the two-sided collective fetch cannot be kept in
/// lockstep here.
pub fn close_gaps_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    gapped: Vec<Scaffold>,
    _links: &LinkSet,
    params: &GapClosingParams,
) -> (ScaffoldSet, GapClosingReport) {
    let mut local_report = GapClosingReport::default();
    let mut my_done: Vec<Scaffold> = Vec::new();
    let ContigsRef::Store(store) = contigs;
    let mut reader = store.reader(ctx);
    for (i, mut scaffold) in gapped.into_iter().enumerate() {
        if i % ctx.ranks() != ctx.rank() {
            continue;
        }
        // All contigs this scaffold touches: entries plus suspended repeats,
        // fetched in one aggregated batch.
        let mut ids: Vec<ContigId> = Vec::new();
        for e in &scaffold.entries {
            ids.push(e.contig);
            ids.extend(e.suspended_after);
        }
        ids.sort_unstable();
        ids.dedup();
        let fetched = reader.get_many_onesided(ctx, &ids);
        let seqs: FxHashMap<ContigId, Vec<u8>> = ids
            .iter()
            .zip(fetched)
            .filter_map(|(id, p)| p.map(|p| (*id, p.unpack())))
            .collect();
        let mut seq_of =
            |id: ContigId| -> Vec<u8> { seqs.get(&id).expect("contig exists").clone() };
        close_scaffold(&mut scaffold, &mut seq_of, params, &mut local_report);
        my_done.push(scaffold);
    }
    // Gather the finished scaffolds and the report.
    let mut scaffolds = ctx.gather(my_done);
    let set = ctx.broadcast(|| {
        scaffolds.sort_by_key(|s| s.id);
        ScaffoldSet { scaffolds }
    });
    let report = GapClosingReport {
        gaps_total: ctx.allreduce_sum_u64(local_report.gaps_total as u64) as usize,
        closed_by_suspended: ctx.allreduce_sum_u64(local_report.closed_by_suspended as u64)
            as usize,
        closed_by_overlap: ctx.allreduce_sum_u64(local_report.closed_by_overlap as u64) as usize,
        filled_with_n: ctx.allreduce_sum_u64(local_report.filled_with_n as u64) as usize,
    };
    (set, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScaffoldEntry;
    use dbg::{ContigSet, ContigStore};
    use pgas::Team;

    /// Closes `gapped` over a store of `contigs` at the default parameters.
    fn close(
        ctx: &Ctx,
        contigs: &ContigSet,
        gapped: Vec<Scaffold>,
    ) -> (ScaffoldSet, GapClosingReport) {
        let store = ContigStore::build(ctx, contigs, &Default::default());
        let links = LinkSet::default();
        let params = GapClosingParams::default();
        close_gaps_ref(ctx, ContigsRef::Store(&store), gapped, &links, &params)
    }

    fn contigs_from(seqs: &[&Vec<u8>]) -> ContigSet {
        ContigSet::from_sequences(21, seqs.iter().map(|s| (s.to_vec(), 10.0)).collect())
    }

    fn entry(contig: u64, forward: bool, gap: Option<i64>) -> ScaffoldEntry {
        ScaffoldEntry {
            contig,
            forward,
            gap_after: gap,
            suspended_after: None,
        }
    }

    #[test]
    fn best_overlap_finds_longest_match() {
        assert_eq!(best_overlap(b"AAACCCGGG", b"CCGGGTTTT", 3, 10), Some(5));
        assert_eq!(best_overlap(b"AAACCCGGG", b"TTTTTTT", 3, 10), None);
        assert_eq!(best_overlap(b"ACGT", b"ACGT", 4, 10), Some(4));
        assert_eq!(best_overlap(b"ACGT", b"ACGT", 5, 10), None);
    }

    #[test]
    fn positive_gap_filled_with_n() {
        // Two long contigs with an estimated 7-base gap.
        let a = vec![b'A'; 100];
        let c = vec![b'C'; 80];
        let contigs = contigs_from(&[&a, &c]);
        let gapped = vec![Scaffold {
            id: 0,
            entries: vec![entry(0, true, Some(7)), entry(1, true, None)],
            seq: Vec::new(),
        }];
        let team = Team::single_node(2);
        let out = team.run(|ctx| close(ctx, &contigs, gapped.clone()));
        let (set, report) = &out[0];
        assert_eq!(report.gaps_total, 1);
        assert_eq!(report.filled_with_n, 1);
        let seq = &set.scaffolds[0].seq;
        assert_eq!(seq.len(), 100 + 7 + 80);
        assert_eq!(seq.iter().filter(|&&b| b == b'N').count(), 7);
    }

    #[test]
    fn negative_gap_merged_by_overlap() {
        // contig 0 ends with the 30 bases contig 1 starts with.
        let shared = b"ACGGTCAGGTTCAAGGACTTACGGACCATG".to_vec();
        let mut a = vec![b'A'; 70];
        a.extend_from_slice(&shared);
        let mut b = shared.clone();
        b.extend_from_slice(&[b'C'; 70]);
        let contigs = contigs_from(&[&a, &b]);
        // Contig storage canonicalises orientation; find which stored contig
        // matches `a` and in which orientation so the entries are correct.
        let stored_a = &contigs.contigs[0];
        let a_forward = stored_a.seq == a;
        let stored_b = &contigs.contigs[1];
        let b_forward = stored_b.seq == b;
        let gapped = vec![Scaffold {
            id: 0,
            entries: vec![
                ScaffoldEntry {
                    contig: 0,
                    forward: a_forward,
                    gap_after: Some(-30),
                    suspended_after: None,
                },
                ScaffoldEntry {
                    contig: 1,
                    forward: b_forward,
                    gap_after: None,
                    suspended_after: None,
                },
            ],
            seq: Vec::new(),
        }];
        let team = Team::single_node(1);
        let out = team.run(|ctx| close(ctx, &contigs, gapped.clone()));
        let (set, report) = &out[0];
        assert_eq!(report.closed_by_overlap, 1);
        assert_eq!(set.scaffolds[0].seq.len(), 70 + 30 + 70);
        assert!(!set.scaffolds[0].seq.contains(&b'N'));
    }

    #[test]
    fn suspended_repeat_reinserted() {
        // Scaffold 0 -> 1 with repeat contig 2 suspended in between; all three
        // abut exactly in the original genome.
        let left: Vec<u8> = (0..80).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
        let repeat: Vec<u8> = (0..50).map(|i| b"ACGT"[(i * 5 + 2) % 4]).collect();
        let right: Vec<u8> = (0..80).map(|i| b"ACGT"[(i * 11 + 3) % 4]).collect();
        // Give the flanks the repeat boundaries so overlap joining works:
        let mut a = left.clone();
        a.extend_from_slice(&repeat[..20]); // contig 0 ends inside the repeat
        let mut c = repeat[30..].to_vec(); // contig 1 starts inside the repeat
        c.extend_from_slice(&right);
        let contigs = ContigSet::from_sequences(
            21,
            vec![(a.clone(), 10.0), (c.clone(), 10.0), (repeat.clone(), 30.0)],
        );
        // Identify ids after canonical sorting (lengths: a=100, c=100, repeat=50).
        let id_of = |seq: &Vec<u8>| {
            contigs
                .contigs
                .iter()
                .find(|x| x.seq == *seq || x.seq == revcomp(seq))
                .unwrap()
                .id
        };
        let (ida, idc, idr) = (id_of(&a), id_of(&c), id_of(&repeat));
        let fwd = |id: u64, seq: &Vec<u8>| contigs.get(id).unwrap().seq == *seq;
        let gapped = vec![Scaffold {
            id: 0,
            entries: vec![
                ScaffoldEntry {
                    contig: ida,
                    forward: fwd(ida, &a),
                    gap_after: Some(10),
                    suspended_after: Some(idr),
                },
                ScaffoldEntry {
                    contig: idc,
                    forward: fwd(idc, &c),
                    gap_after: None,
                    suspended_after: None,
                },
            ],
            seq: Vec::new(),
        }];
        let team = Team::single_node(1);
        let out = team.run(|ctx| close(ctx, &contigs, gapped.clone()));
        let (set, report) = &out[0];
        assert_eq!(report.closed_by_suspended, 1);
        let seq = &set.scaffolds[0].seq;
        // The repeat sequence must now be present in full.
        let s = String::from_utf8(seq.clone()).unwrap();
        let r = String::from_utf8(repeat.clone()).unwrap();
        let rrc = String::from_utf8(revcomp(&repeat)).unwrap();
        assert!(s.contains(&r) || s.contains(&rrc), "repeat not re-inserted");
    }

    #[test]
    fn round_robin_distribution_is_rank_count_invariant() {
        let a = vec![b'A'; 60];
        let b = vec![b'C'; 50];
        let contigs = contigs_from(&[&a, &b]);
        let gapped: Vec<Scaffold> = (0..5)
            .map(|i| Scaffold {
                id: i,
                entries: vec![entry(0, true, Some(3)), entry(1, true, None)],
                seq: Vec::new(),
            })
            .collect();
        let mut results = Vec::new();
        for ranks in [1, 2, 3] {
            let team = Team::single_node(ranks);
            let gapped2 = gapped.clone();
            let out = team.run(|ctx| close(ctx, &contigs, gapped2.clone()));
            results.push(out[0].clone());
        }
        assert_eq!(results[0].0, results[1].0);
        assert_eq!(results[1].0, results[2].0);
        assert_eq!(results[0].1, results[2].1);
        assert_eq!(results[0].1.gaps_total, 5);
    }
}

//! Sliding-window k-mer extraction from reads and contigs.
//!
//! Extraction skips any window containing an ambiguous base and emits
//! *canonical* k-mers (the lexicographic minimum of the k-mer and its reverse
//! complement) so that both strands of the template map to the same hash-table
//! key, exactly as the UPC implementation does.

use crate::ext::ExtPair;
use crate::kmer::Kmer;
use seqio::alphabet::encode_base;

/// Yields `(position, k-mer)` for every valid window of `seq`, in read
/// orientation (not canonicalised). Windows containing non-ACGT bases are
/// skipped.
pub fn kmer_positions(seq: &[u8], k: usize) -> Vec<(usize, Kmer)> {
    let mut out = Vec::new();
    if seq.len() < k || k == 0 {
        return out;
    }
    let mut i = 0usize;
    while i + k <= seq.len() {
        // Find the next window free of ambiguous bases.
        if let Some(bad) = first_invalid(&seq[i..i + k]) {
            i += bad + 1;
            continue;
        }
        let mut km = Kmer::from_bytes(&seq[i..i + k]).expect("validated window");
        out.push((i, km));
        // Roll forward while the incoming base stays valid.
        let mut j = i + k;
        while j < seq.len() {
            match encode_base(seq[j]) {
                Some(code) => {
                    km = km.extended_right(code);
                    out.push((j + 1 - k, km));
                    j += 1;
                }
                None => break,
            }
        }
        i = j + 1;
    }
    out
}

fn first_invalid(window: &[u8]) -> Option<usize> {
    window.iter().position(|&b| encode_base(b).is_none())
}

/// Yields the canonical k-mers of a sequence (positions dropped, duplicates
/// kept). Convenience for graph construction from contigs.
pub fn canonical_kmers(seq: &[u8], k: usize) -> Vec<Kmer> {
    kmer_positions(seq, k)
        .into_iter()
        .map(|(_, km)| km.canonical().0)
        .collect()
}

/// A canonical k-mer observation together with its (canonicalised) extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalKmerExt {
    pub kmer: Kmer,
    pub exts: ExtPair,
}

/// Extracts canonical k-mers with left/right extension observations from a
/// read. Thin collecting wrapper over [`kmers_with_exts_iter`], kept for
/// call sites (mostly tests) that want a `Vec`.
///
/// `qual` may be empty (all bases are then treated as high quality); otherwise
/// it must be as long as `seq`, and an extension base is flagged high quality
/// when its Phred score is at least `hq_threshold`.
pub fn kmers_with_exts(
    seq: &[u8],
    qual: &[u8],
    k: usize,
    hq_threshold: u8,
) -> Vec<CanonicalKmerExt> {
    kmers_with_exts_iter(seq, qual, k, hq_threshold).collect()
}

/// Allocation-free streaming form of [`kmers_with_exts`]: yields the same
/// observations in the same order, rolling the window forward base by base
/// without materialising a per-read `Vec`. No pipeline stage extracts k-mers
/// from ASCII: k-mer analysis and contig k-mer injection cut 2-bit supermers
/// ([`crate::minimizer`]). This is the reference both are held to.
pub fn kmers_with_exts_iter<'a>(
    seq: &'a [u8],
    qual: &'a [u8],
    k: usize,
    hq_threshold: u8,
) -> KmersWithExtsIter<'a> {
    assert!(
        qual.is_empty() || qual.len() == seq.len(),
        "quality must be empty or match sequence length"
    );
    KmersWithExtsIter {
        seq,
        qual,
        k,
        hq_threshold,
        pos: 0,
        km: None,
    }
}

/// Iterator behind [`kmers_with_exts_iter`].
pub struct KmersWithExtsIter<'a> {
    seq: &'a [u8],
    qual: &'a [u8],
    k: usize,
    hq_threshold: u8,
    /// Start of the next window to emit.
    pos: usize,
    /// The rolling k-mer for the window at `pos` (`None` when the iterator
    /// must first locate the next ambiguity-free window).
    km: Option<Kmer>,
}

impl KmersWithExtsIter<'_> {
    #[inline]
    fn hq_at(&self, i: usize) -> bool {
        self.qual.is_empty() || self.qual[i] >= self.hq_threshold
    }
}

impl Iterator for KmersWithExtsIter<'_> {
    type Item = CanonicalKmerExt;

    fn next(&mut self) -> Option<CanonicalKmerExt> {
        let (k, n) = (self.k, self.seq.len());
        if k == 0 || n < k {
            return None;
        }
        // Locate the next valid window if the previous one ended a run.
        if self.km.is_none() {
            loop {
                if self.pos + k > n {
                    return None;
                }
                match first_invalid(&self.seq[self.pos..self.pos + k]) {
                    Some(bad) => self.pos += bad + 1,
                    None => {
                        self.km = Some(
                            Kmer::from_bytes(&self.seq[self.pos..self.pos + k])
                                .expect("validated window"),
                        );
                        break;
                    }
                }
            }
        }
        let pos = self.pos;
        let km = self.km.expect("window primed above");
        // Advance the rolling state for the following call.
        let j = pos + k;
        match self.seq.get(j).copied().and_then(encode_base) {
            Some(code) => {
                self.km = Some(km.extended_right(code));
                self.pos = pos + 1;
            }
            None => {
                // Either the read ended or base `j` is ambiguous; the next
                // candidate window starts beyond it.
                self.km = None;
                self.pos = j + 1;
            }
        }
        // Emit the observation for (pos, km).
        let left = if pos > 0 {
            encode_base(self.seq[pos - 1]).map(|c| (c, self.hq_at(pos - 1)))
        } else {
            None
        };
        let right = if pos + k < n {
            encode_base(self.seq[pos + k]).map(|c| (c, self.hq_at(pos + k)))
        } else {
            None
        };
        let exts = ExtPair { left, right };
        let (canon, was_rc) = km.canonical();
        let exts = if was_rc { exts.revcomp() } else { exts };
        Some(CanonicalKmerExt { kmer: canon, exts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_simple() {
        let kms = kmer_positions(b"ACGTAC", 4);
        let strings: Vec<String> = kms.iter().map(|(_, k)| k.to_string()).collect();
        assert_eq!(strings, vec!["ACGT", "CGTA", "GTAC"]);
        assert_eq!(kms[0].0, 0);
        assert_eq!(kms[2].0, 2);
    }

    #[test]
    fn positions_skip_ambiguous_windows() {
        let kms = kmer_positions(b"ACGTNACGTT", 4);
        let strings: Vec<String> = kms.iter().map(|(_, k)| k.to_string()).collect();
        assert_eq!(strings, vec!["ACGT", "ACGT", "CGTT"]);
        assert_eq!(kms[1].0, 5);
    }

    #[test]
    fn positions_short_sequence_empty() {
        assert!(kmer_positions(b"ACG", 4).is_empty());
        assert!(kmer_positions(b"", 4).is_empty());
    }

    #[test]
    fn rolling_matches_fresh_construction() {
        let seq = b"ACGGTTACGGATCCGATTACAGGCATTACA";
        for k in [3usize, 5, 11, 21] {
            let rolled = kmer_positions(seq, k);
            for (pos, km) in rolled {
                let fresh = Kmer::from_bytes(&seq[pos..pos + k]).unwrap();
                assert_eq!(km, fresh, "k={k} pos={pos}");
            }
        }
    }

    #[test]
    fn canonical_kmers_strand_invariant() {
        let seq = b"ACGGTTACGGATCCGATTACAGG";
        let rc = seqio::alphabet::revcomp(seq);
        for k in [5usize, 7, 11] {
            let mut fwd = canonical_kmers(seq, k);
            let mut rev = canonical_kmers(&rc, k);
            fwd.sort();
            rev.sort();
            assert_eq!(fwd, rev, "k={k}");
        }
    }

    #[test]
    fn exts_reflect_neighbouring_bases() {
        // Sequence: A [CGT] T  with k = 3.
        let obs = kmers_with_exts(b"ACGTT", &[], 3, 20);
        // First kmer ACG: canonical is ACG (rc = CGT, ACG < CGT), left none, right T.
        assert_eq!(obs[0].kmer.to_string(), "ACG");
        assert_eq!(obs[0].exts.left, None);
        assert_eq!(obs[0].exts.right, Some((3, true)));
        // Second kmer CGT: canonical is ACG (rc of CGT) -> exts swap/complement.
        assert_eq!(obs[1].kmer.to_string(), "ACG");
        // original: left = A(0), right = T(3); revcomp: left = comp(T)=A? no:
        // revcomp swaps: new left = comp(right)=A(0), new right = comp(left)=T(3).
        assert_eq!(obs[1].exts.left, Some((0, true)));
        assert_eq!(obs[1].exts.right, Some((3, true)));
    }

    #[test]
    fn exts_respect_quality_threshold() {
        let seq = b"ACGTT";
        let qual = [10u8, 30, 30, 30, 10];
        let obs = kmers_with_exts(seq, &qual, 3, 20);
        // first kmer ACG at pos 0: right ext is base T at pos 3 (q=30) -> hq
        assert_eq!(obs[0].exts.right, Some((3, true)));
        // kmer at pos 2 (GTT, canonical AAC): original left = C at pos1 (q=30 hq),
        // right = none (end); after rc: left = none... check at least quality flags propagate:
        let any_low = obs.iter().any(|o| {
            o.exts.left.map(|(_, hq)| !hq).unwrap_or(false)
                || o.exts.right.map(|(_, hq)| !hq).unwrap_or(false)
        });
        assert!(
            any_low,
            "position-0/4 bases have low quality and should appear"
        );
    }

    #[test]
    fn empty_quality_means_all_high_quality() {
        let obs = kmers_with_exts(b"ACGTACGT", &[], 4, 20);
        for o in obs {
            if let Some((_, hq)) = o.exts.left {
                assert!(hq);
            }
            if let Some((_, hq)) = o.exts.right {
                assert!(hq);
            }
        }
    }
}

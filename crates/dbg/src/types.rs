//! Contigs and contig sets: the output of de Bruijn graph traversal and the
//! currency passed between all later pipeline stages.

use seqio::alphabet::revcomp;

/// Identifier of a contig inside a [`ContigSet`].
pub type ContigId = u64;

/// A contiguous assembled sequence with its mean k-mer depth (coverage).
#[derive(Debug, Clone, PartialEq)]
pub struct Contig {
    pub id: ContigId,
    /// The assembled bases (canonical orientation: lexicographically not
    /// larger than its reverse complement, so contig identity is
    /// strand-independent).
    pub seq: Vec<u8>,
    /// Mean depth of the k-mers making up the contig.
    pub depth: f64,
}

impl Contig {
    /// Creates a contig, canonicalising its orientation.
    pub fn new(id: ContigId, seq: Vec<u8>, depth: f64) -> Self {
        let rc = revcomp(&seq);
        let seq = if rc < seq { rc } else { seq };
        Contig { id, seq, depth }
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the contig holds no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A set of contigs produced with a particular k.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContigSet {
    pub contigs: Vec<Contig>,
    /// The k-mer size the contigs were assembled with.
    pub k: usize,
}

impl ContigSet {
    /// Creates an empty set for the given k.
    pub fn new(k: usize) -> Self {
        ContigSet {
            contigs: Vec::new(),
            k,
        }
    }

    /// Builds a set from raw `(sequence, depth)` pairs, canonicalising and
    /// sorting the contigs (longest first, ties by sequence) so that contig
    /// ids are deterministic regardless of the rank count or traversal order.
    pub fn from_sequences(k: usize, seqs: Vec<(Vec<u8>, f64)>) -> Self {
        let mut contigs: Vec<Contig> = seqs
            .into_iter()
            .map(|(seq, depth)| Contig::new(0, seq, depth))
            .collect();
        contigs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.seq.cmp(&b.seq)));
        for (i, c) in contigs.iter_mut().enumerate() {
            c.id = i as ContigId;
        }
        ContigSet { contigs, k }
    }

    /// Number of contigs.
    pub fn len(&self) -> usize {
        self.contigs.len()
    }

    /// True if the set holds no contigs.
    pub fn is_empty(&self) -> bool {
        self.contigs.is_empty()
    }

    /// Total assembled bases.
    pub fn total_bases(&self) -> usize {
        self.contigs.iter().map(|c| c.len()).sum()
    }

    /// The contig with the given id.
    pub fn get(&self, id: ContigId) -> Option<&Contig> {
        self.contigs.get(id as usize)
    }

    /// N50: the length L such that contigs of length ≥ L cover at least half
    /// the total assembled bases. Returns 0 for an empty set.
    pub fn n50(&self) -> usize {
        let total = self.total_bases();
        if total == 0 {
            return 0;
        }
        let mut lens: Vec<usize> = self.contigs.iter().map(|c| c.len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0usize;
        for l in lens {
            acc += l;
            if 2 * acc >= total {
                return l;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contig_canonical_orientation() {
        let a = Contig::new(0, b"TTTT".to_vec(), 1.0);
        assert_eq!(a.seq, b"AAAA".to_vec());
        let b = Contig::new(0, b"AAAA".to_vec(), 1.0);
        assert_eq!(a.seq, b.seq);
        let c = Contig::new(0, b"ACGTT".to_vec(), 2.0);
        assert_eq!(c.seq, b"AACGT".to_vec()); // revcomp(ACGTT) = AACGT < ACGTT
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn from_sequences_assigns_deterministic_ids() {
        let seqs = vec![
            (b"AC".to_vec(), 1.0),
            (b"ACGTACGT".to_vec(), 2.0),
            (b"GGGG".to_vec(), 3.0),
        ];
        let set = ContigSet::from_sequences(21, seqs.clone());
        assert_eq!(set.k, 21);
        assert_eq!(set.contigs[0].len(), 8);
        assert_eq!(set.contigs[1].len(), 4);
        assert_eq!(set.contigs[2].len(), 2);
        assert_eq!(set.contigs[0].id, 0);
        // Shuffled input produces the same ordering.
        let mut shuffled = seqs;
        shuffled.reverse();
        let set2 = ContigSet::from_sequences(21, shuffled);
        assert_eq!(set, set2);
    }

    #[test]
    fn n50_computation() {
        let set = ContigSet::from_sequences(
            31,
            vec![
                (vec![b'A'; 100], 1.0),
                (vec![b'C'; 50], 1.0),
                (vec![b'G'; 50], 1.0),
            ],
        );
        // total 200; largest contig (100) already covers half.
        assert_eq!(set.n50(), 100);
        assert_eq!(ContigSet::new(31).n50(), 0);
        let even = ContigSet::from_sequences(
            31,
            vec![
                (vec![b'A'; 60], 1.0),
                (vec![b'C'; 50], 1.0),
                (vec![b'G'; 40], 1.0),
            ],
        );
        // total 150, cumulative 60 -> 110 >= 75 at the second contig (50).
        assert_eq!(even.n50(), 50);
    }

    #[test]
    fn stats_helpers() {
        let set = ContigSet::from_sequences(21, vec![(vec![b'A'; 30], 2.0), (vec![b'C'; 20], 8.0)]);
        assert_eq!(set.total_bases(), 50);
        assert!(set.get(0).is_some());
        assert!(set.get(5).is_none());
    }
}

//! Named reference genomes.
//!
//! The simulator (`mgsim`) produces [`ReferenceGenome`]s and the evaluation
//! crate (`asm_metrics`) anchors assemblies back onto them, mirroring how the
//! paper evaluates MG64 against its 64 known reference genomes with metaQUAST.

/// A single reference genome with optional annotations of planted features.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceGenome {
    /// Genome/organism name.
    pub name: String,
    /// The full genome sequence.
    pub seq: Vec<u8>,
    /// Relative abundance of the organism in the community (arbitrary units,
    /// normalised by [`ReferenceSet::normalized_abundances`]).
    pub abundance: f64,
    /// Half-open intervals of planted ribosomal-RNA-like conserved regions,
    /// used to score rRNA recovery.
    pub rrna_regions: Vec<(usize, usize)>,
}

impl ReferenceGenome {
    /// Creates a reference genome with no annotations and unit abundance.
    pub fn new(name: impl Into<String>, seq: Vec<u8>) -> Self {
        ReferenceGenome {
            name: name.into(),
            seq,
            abundance: 1.0,
            rrna_regions: Vec::new(),
        }
    }

    /// Genome length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the genome is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A set of reference genomes forming a (synthetic) community.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReferenceSet {
    pub genomes: Vec<ReferenceGenome>,
}

impl ReferenceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a genome and returns its index.
    pub fn push(&mut self, g: ReferenceGenome) -> usize {
        self.genomes.push(g);
        self.genomes.len() - 1
    }

    /// Number of genomes in the community.
    pub fn len(&self) -> usize {
        self.genomes.len()
    }

    /// True if the set holds no genomes.
    pub fn is_empty(&self) -> bool {
        self.genomes.is_empty()
    }

    /// Total bases across all genomes.
    pub fn total_bases(&self) -> usize {
        self.genomes.iter().map(|g| g.len()).sum()
    }

    /// Abundances normalised to sum to 1. Returns an empty vector for an empty
    /// set.
    pub fn normalized_abundances(&self) -> Vec<f64> {
        let total: f64 = self.genomes.iter().map(|g| g.abundance).sum();
        if total <= 0.0 {
            return vec![0.0; self.genomes.len()];
        }
        self.genomes.iter().map(|g| g.abundance / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> ReferenceSet {
        let mut s = ReferenceSet::new();
        let mut a = ReferenceGenome::new("a", vec![b'A'; 1000]);
        a.abundance = 3.0;
        let mut b = ReferenceGenome::new("b", vec![b'C'; 500]);
        b.abundance = 1.0;
        s.push(a);
        s.push(b);
        s
    }

    #[test]
    fn abundances_normalise() {
        let s = set();
        let p = s.normalized_abundances();
        assert!((p[0] - 0.75).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn totals() {
        let s = set();
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bases(), 1500);
        assert!(!s.is_empty());
    }

    #[test]
    fn zero_abundance_handled() {
        let mut s = ReferenceSet::new();
        let mut g = ReferenceGenome::new("z", vec![b'A'; 10]);
        g.abundance = 0.0;
        s.push(g);
        assert_eq!(s.normalized_abundances(), vec![0.0]);
    }
}

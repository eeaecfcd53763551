//! Preset datasets mirroring the paper's experimental inputs (at laptop scale).
//!
//! | Preset | Paper dataset | Purpose |
//! |---|---|---|
//! | [`mg64_sim`] | MG64 (64-genome synthetic community, SRA SRX200676) | `Small`/`Standard`: quality comparison (Table I); `Tiny`: read-localisation study (Figure 3) and every ablation guard |
//! | [`wetlands_sim`] | Twitchell Wetlands (7.5 G reads) subsets | Strong scaling (Figures 4–5), grand-challenge full-vs-subset comparison |
//! | [`weak_scaling_dataset`] | MGSim weak-scaling series (5/10/20/40 taxa) | Table II |
//! | [`two_species_skewed`] | — (design ablation) | Dynamic vs global extension-threshold ablation |
//!
//! Genome lengths and read counts are scaled down by roughly 10³–10⁴× compared
//! to the real datasets so every experiment completes in seconds to minutes on
//! one machine. `mhm_bench`'s dataset registry (`crates/bench/src/datasets.rs`)
//! names the exact preset, scale and seed each experiment row runs on.

use crate::community::{generate_community, CommunityParams};
use crate::reads::{simulate_reads, ReadSimParams};
use seqio::{ReadLibrary, ReferenceSet};

/// A fully materialised simulated dataset.
#[derive(Debug, Clone)]
pub struct SimDataset {
    /// The reference community the reads were drawn from.
    pub refs: ReferenceSet,
    /// The simulated paired-end read library.
    pub library: ReadLibrary,
    /// The rRNA-like conserved consensus planted into every genome (empty if
    /// planting was disabled); used to build the profile HMM.
    pub rrna_consensus: Vec<u8>,
}

impl SimDataset {
    /// Total number of reads.
    pub fn num_reads(&self) -> usize {
        self.library.num_reads()
    }

    /// Total sequenced bases.
    pub fn total_bases(&self) -> usize {
        self.library.total_bases()
    }
}

/// Size presets for the MG64-substitute community.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mg64Scale {
    /// 16 genomes of ~8–15 kbp, ~15× mean coverage. Fast enough for unit and
    /// integration tests (a few seconds end to end).
    Tiny,
    /// 64 genomes of ~8–15 kbp, ~15× coverage. The default for the quality
    /// benchmarks (Table I, Figure 6).
    Small,
    /// 64 genomes of ~20–40 kbp, ~20× coverage. Closer to the paper's
    /// contiguity regime; used when more signal is wanted.
    Standard,
}

/// Builds the MG64-substitute dataset: a 64-genome community with log-normal
/// abundances, strain variants, planted rRNA operons and one nearly-absent
/// genome, sequenced as 2×100 bp pairs with ~0.5% error.
pub fn mg64_sim(scale: Mg64Scale, seed: u64) -> SimDataset {
    let (num_taxa, len_range, coverage) = match scale {
        Mg64Scale::Tiny => (16usize, (8_000usize, 15_000usize), 15.0),
        Mg64Scale::Small => (60, (8_000, 15_000), 15.0),
        Mg64Scale::Standard => (60, (20_000, 40_000), 20.0),
    };
    // Strain variants bring the genome count to 64 for the non-tiny scales
    // (60 taxa + 4 strains), mirroring the mixture of distinct organisms and
    // close relatives in the real MG64 community.
    let strains = if matches!(scale, Mg64Scale::Tiny) {
        2
    } else {
        4
    };
    let cparams = CommunityParams {
        num_taxa,
        genome_len_range: len_range,
        abundance_sigma: 1.3,
        strain_variants: strains,
        strain_snp_rate: 0.01,
        rrna_len: 400,
        rrna_divergence: 0.02,
        repeats_per_genome: 2,
        repeat_len: 250,
        rare_taxon_abundance: Some(2e-3),
        seed,
    };
    let (refs, consensus) = generate_community(&cparams);
    let rparams = ReadSimParams {
        read_len: 100,
        insert_size: 300,
        insert_sd: 30,
        error_rate: 0.005,
        seed: seed.wrapping_add(1),
        ..Default::default()
    }
    .with_target_coverage(&refs, coverage);
    let library = simulate_reads(&refs, &rparams);
    SimDataset {
        refs,
        library,
        rrna_consensus: consensus,
    }
}

/// Builds a Wetlands-substitute dataset. `lanes` scales the number of taxa and
/// the read count the way the paper's 3-lane subset relates to the full
/// 21-lane sample: more lanes sample more of the community more deeply.
pub fn wetlands_sim(lanes: usize, seed: u64) -> SimDataset {
    let lanes = lanes.max(1);
    let num_taxa = 10 + 6 * lanes;
    let cparams = CommunityParams {
        num_taxa,
        genome_len_range: (10_000, 25_000),
        abundance_sigma: 1.8,
        strain_variants: lanes.min(8),
        strain_snp_rate: 0.012,
        rrna_len: 400,
        rrna_divergence: 0.03,
        repeats_per_genome: 3,
        repeat_len: 300,
        rare_taxon_abundance: None,
        seed,
    };
    let (refs, consensus) = generate_community(&cparams);
    // A fixed per-lane sequencing budget: deeper community sampling with more
    // lanes, but per-taxon coverage stays modest (soil metagenomes are never
    // saturated, which is exactly why assembling more lanes recovers more).
    let pairs_per_lane = 6_000usize;
    let rparams = ReadSimParams {
        read_len: 100,
        insert_size: 280,
        insert_sd: 30,
        error_rate: 0.008,
        num_pairs: pairs_per_lane * lanes,
        seed: seed.wrapping_add(lanes as u64),
        ..Default::default()
    };
    let library = simulate_reads(&refs, &rparams);
    SimDataset {
        refs,
        library,
        rrna_consensus: consensus,
    }
}

/// Builds one dataset of the weak-scaling series (Table II): `taxa` genomic
/// taxa and a read count proportional to `taxa`, so that doubling the rank
/// count and the taxa count together keeps the work per rank constant.
pub fn weak_scaling_dataset(taxa: usize, seed: u64) -> SimDataset {
    let cparams = CommunityParams {
        num_taxa: taxa.max(1),
        genome_len_range: (10_000, 20_000),
        abundance_sigma: 1.2,
        strain_variants: 0,
        strain_snp_rate: 0.01,
        rrna_len: 400,
        rrna_divergence: 0.02,
        repeats_per_genome: 2,
        repeat_len: 200,
        rare_taxon_abundance: None,
        seed,
    };
    let (refs, consensus) = generate_community(&cparams);
    let rparams = ReadSimParams {
        read_len: 100,
        insert_size: 300,
        insert_sd: 30,
        error_rate: 0.006,
        seed: seed.wrapping_add(17),
        ..Default::default()
    }
    .with_target_coverage(&refs, 15.0);
    let library = simulate_reads(&refs, &rparams);
    SimDataset {
        refs,
        library,
        rrna_consensus: consensus,
    }
}

/// A two-genome community where one genome is ~100× more abundant than the
/// other: the scenario of §II-C where a single global extension threshold
/// cannot serve both the high- and the low-coverage organism. Used by the
/// threshold ablation bench and by tests of the dynamic-threshold logic.
pub fn two_species_skewed(seed: u64) -> SimDataset {
    let cparams = CommunityParams {
        num_taxa: 2,
        genome_len_range: (15_000, 15_000),
        abundance_sigma: 1e-6, // abundances set below via rare_taxon_abundance
        strain_variants: 0,
        strain_snp_rate: 0.0,
        rrna_len: 0,
        rrna_divergence: 0.0,
        repeats_per_genome: 0,
        repeat_len: 0,
        rare_taxon_abundance: Some(0.01),
        seed,
    };
    let (mut refs, consensus) = generate_community(&cparams);
    refs.genomes[0].abundance = 1.0; // ~100x the rare taxon's 0.01
    let rparams = ReadSimParams {
        read_len: 100,
        insert_size: 300,
        insert_sd: 30,
        error_rate: 0.01,
        seed: seed.wrapping_add(5),
        ..Default::default()
    }
    .with_target_coverage(&refs, 60.0);
    let library = simulate_reads(&refs, &rparams);
    SimDataset {
        refs,
        library,
        rrna_consensus: consensus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mg64_small_has_64_genomes() {
        let ds = mg64_sim(Mg64Scale::Small, 1);
        assert_eq!(ds.refs.len(), 64);
        assert_eq!(ds.rrna_consensus.len(), 400);
        assert!(ds.num_reads() > 10_000);
        // The rare genome must be nearly absent from the reads.
        let rare_name = &ds.refs.genomes[59].name;
        let rare_reads = ds
            .library
            .reads
            .iter()
            .filter(|r| r.name.contains(rare_name.as_str()))
            .count();
        assert!(
            (rare_reads as f64) < 0.01 * ds.num_reads() as f64,
            "rare taxon got {rare_reads} reads"
        );
    }

    #[test]
    fn mg64_tiny_is_small_enough_for_tests() {
        let ds = mg64_sim(Mg64Scale::Tiny, 2);
        assert_eq!(ds.refs.len(), 18);
        assert!(ds.num_reads() < 60_000);
    }

    #[test]
    fn wetlands_scales_with_lanes() {
        let small = wetlands_sim(1, 3);
        let big = wetlands_sim(3, 3);
        assert!(big.refs.len() > small.refs.len());
        assert!(big.num_reads() > 2 * small.num_reads());
    }

    #[test]
    fn weak_scaling_reads_proportional_to_taxa() {
        let a = weak_scaling_dataset(5, 4);
        let b = weak_scaling_dataset(10, 4);
        let ratio = b.num_reads() as f64 / a.num_reads() as f64;
        assert!(ratio > 1.5 && ratio < 2.6, "read ratio {ratio}");
    }

    #[test]
    fn two_species_skew_is_extreme() {
        let ds = two_species_skewed(9);
        let p = ds.refs.normalized_abundances();
        assert!(p[0] / p[1] > 50.0, "abundance ratio too small: {:?}", p);
    }
}

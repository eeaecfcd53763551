//! MGSim: synthetic metagenome community and short-read simulator.
//!
//! The paper's weak-scaling study uses a tool called MGSim that the authors
//! wrote for exactly this purpose: sample multiple genomes, assign each a
//! relative abundance drawn from a log-normal distribution, and generate
//! Illumina-like paired-end reads with the WGSim read simulator. This crate
//! reimplements that tool (and the WGSim read model it wraps) and additionally
//! uses it to stand in for the paper's real datasets (MG64, Twitchell
//! Wetlands), which are terabyte-scale SRA downloads: the presets keep each
//! dataset's shape (taxa, abundance skew, strains, coverage regime) at a
//! size one machine assembles in seconds to minutes.
//!
//! The simulator deliberately plants every genomic feature the MetaHipMer
//! algorithms are designed around:
//!
//! * very uneven species abundance (log-normal), driving the dynamic
//!   extension-threshold logic and the iterative multi-k contig generation;
//! * sequencing errors at a configurable rate, driving the ε cut on k-mer
//!   counts, hair removal and graph pruning;
//! * intra-genome repeats, driving repeat suspension during scaffolding;
//! * strain variants (SNP-divergent genome copies), driving bubble merging;
//! * a conserved rRNA-like operon shared (with small divergence) by every
//!   genome, driving the HMM-guided ribosomal-region traversal.

pub mod community;
pub mod genome;
pub mod presets;
pub mod reads;

pub use community::{generate_community, CommunityParams};
pub use genome::{random_genome, GenomeFeatures, GenomeParams};
pub use presets::{
    mg64_sim, two_species_skewed, weak_scaling_dataset, wetlands_sim, Mg64Scale, SimDataset,
};
pub use reads::{simulate_reads, ReadSimParams};

//! The workload registry: three pinned inputs, each chosen to load a different
//! part of the pipeline (see `why`, and the interaction table in README.md).
//!
//! The generator parameters are written out here as literals — descended from
//! the `mgsim::presets`, not calls to them — so that a preset edited for some
//! figure harness cannot silently change what the ledger measures.
//!
//! A workload's *community* (genomes, abundances) is part of its definition:
//! it is always generated at [`COMMUNITY_SEED`]. The `--seed` argument draws
//! the *reads* from that community. Re-drawing the community per seed moves
//! the work of an assembly by tens of percent (the coverage of every genome
//! follows the lengths of the few most abundant ones), which no 10% bound can
//! hold; re-sequencing the same sample moves it by a few percent.

use mgsim::{CommunityParams, ReadSimParams};
use seqio::{ReadLibrary, ReferenceSet};

/// The seed every workload's community is generated at, and the default
/// `--seed` for its reads.
pub const COMMUNITY_SEED: u64 = 20260614;

/// Ranks (= OS threads) of the team a timed run assembles on. One, because
/// the end-to-end metrics carry bounds and must repeat: the benchmark's host
/// is a 2-vCPU share of a bigger machine, and an assembly that keeps both
/// vCPUs busy repeated there only within 29-43% (README, "Steadiness"), one
/// that leaves a vCPU idle within the bounds.
pub const TIMED_RANKS: usize = 1;
/// Ranks of the team a traced run assembles on. The per-layer metrics carry
/// no bounds, and waiting, messages and imbalance exist only between ranks.
pub const TRACED_RANKS: usize = 2;

/// One benchmark workload: the generator parameters of its input.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what this input stresses.
    pub why: &'static str,
    community: CommunityParams,
    /// Overrides the first genome's abundance (the 100:1 skew of §II-C).
    first_abundance: Option<f64>,
    reads: ReadSimParams,
    /// Added to `--seed` for the read simulator, as the presets do.
    read_seed_offset: u64,
    /// An op fails when the assembly's genome fraction (%) drops below this.
    /// Every repetition assembles its own draw of the reads, so the floor sits
    /// six standard deviations (over 40 draws, at the commit that added the
    /// benchmark) under the mean: no draw fails by chance, a loss of quality
    /// a user would notice does.
    pub genome_fraction_floor_pct: f64,
    /// An op fails when the assembly has more misassemblies than this: a
    /// count the same 40 draws (means 0.6 to 2.3, Poisson-like) put beyond
    /// one in a million.
    pub misassemblies_ceiling: u64,
}

const WETLANDS_COMMUNITY: CommunityParams = CommunityParams {
    num_taxa: 12,
    genome_len_range: (10_000, 25_000),
    abundance_sigma: 1.8,
    strain_variants: 1,
    strain_snp_rate: 0.012,
    rrna_len: 400,
    rrna_divergence: 0.03,
    repeats_per_genome: 3,
    repeat_len: 300,
    rare_taxon_abundance: None,
    seed: COMMUNITY_SEED,
};

const WETLANDS_READS: ReadSimParams = ReadSimParams {
    read_len: 100,
    insert_size: 280,
    insert_sd: 30,
    error_rate: 0.008,
    num_pairs: 7_500,
    qual_good: 38,
    qual_bad: 8,
    low_qual_fraction: 0.01,
    seed: 0, // replaced by the run's seed
};

/// The registry, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wetlands",
        why: "Headline (paper Fig. 4/5): log-normal sigma=1.8 community, unsaturated coverage, singleton-heavy k-mer spectrum, balanced stage mix",
        community: WETLANDS_COMMUNITY,
        first_abundance: None,
        reads: WETLANDS_READS,
        read_seed_offset: 3,
        genome_fraction_floor_pct: 43.0,
        misassemblies_ceiling: 14,
    },
    Workload {
        name: "skewed2",
        why: "Two genomes at 100:1 abundance: local assembly dominates and the k-mer table is update/heavy-hitter-heavy, the opposite use of the counting layer",
        community: CommunityParams {
            num_taxa: 2,
            genome_len_range: (15_000, 15_000),
            abundance_sigma: 1e-6,
            strain_variants: 0,
            strain_snp_rate: 0.0,
            rrna_len: 0,
            rrna_divergence: 0.0,
            repeats_per_genome: 0,
            repeat_len: 0,
            rare_taxon_abundance: Some(0.01),
            seed: COMMUNITY_SEED,
        },
        first_abundance: Some(1.0),
        reads: ReadSimParams {
            read_len: 100,
            insert_size: 300,
            insert_sd: 30,
            error_rate: 0.01,
            num_pairs: 6_000,
            qual_good: 38,
            qual_bad: 8,
            low_qual_fraction: 0.01,
            seed: 0, // replaced by the run's seed
        },
        read_seed_offset: 5,
        genome_fraction_floor_pct: 44.0,
        misassemblies_ceiling: 8,
    },
    Workload {
        name: "uniform10",
        why: "Ten even taxa at ~15x, no strains: long contigs, so scaffolding's share is largest and local assembly's smallest; a links/gap-closing win shows here",
        community: CommunityParams {
            num_taxa: 10,
            genome_len_range: (6_000, 12_000),
            abundance_sigma: 1.2,
            strain_variants: 0,
            strain_snp_rate: 0.01,
            rrna_len: 400,
            rrna_divergence: 0.02,
            repeats_per_genome: 2,
            repeat_len: 200,
            rare_taxon_abundance: None,
            seed: COMMUNITY_SEED,
        },
        first_abundance: None,
        reads: ReadSimParams {
            read_len: 100,
            insert_size: 300,
            insert_sd: 30,
            error_rate: 0.006,
            num_pairs: 6_750,
            qual_good: 38,
            qual_bad: 8,
            low_qual_fraction: 0.01,
            seed: 0, // replaced by the run's seed
        },
        read_seed_offset: 17,
        genome_fraction_floor_pct: 81.0,
        misassemblies_ceiling: 14,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated input: what the program under test receives, plus the truth
/// the outputs are checked against.
pub struct Dataset {
    pub refs: ReferenceSet,
    pub library: ReadLibrary,
    pub rrna_consensus: Vec<u8>,
    /// FNV-1a digest of every read's name, bases and qualities.
    pub input_digest: u64,
}

impl Dataset {
    pub fn input_bases(&self) -> usize {
        self.library.total_bases()
    }
}

impl Workload {
    /// The same workload shrunk to a fraction of a second, for `--quick` and
    /// the smoke test: every code path, no claim about speed or quality.
    pub fn quick(&self) -> Workload {
        let mut w = self.clone();
        w.community.num_taxa = w.community.num_taxa.min(3);
        w.community.strain_variants = w.community.strain_variants.min(1);
        w.community.genome_len_range = (4_000, 5_000);
        w.reads.num_pairs = 1_200;
        w.genome_fraction_floor_pct = 0.0;
        w.misassemblies_ceiling = u64::MAX;
        w
    }

    /// Generates the input for `seed`: the community, reads drawn from it
    /// with `seed`, the FASTQ rendering of the reads, and the library parsed
    /// back from that FASTQ through `seqio` (the path a user's files take).
    /// This is the work `setup_s` times.
    ///
    /// # Panics
    /// Panics if the FASTQ round trip changes the reads.
    pub fn build(&self, seed: u64) -> Dataset {
        let (mut refs, rrna_consensus) = mgsim::generate_community(&self.community);
        if let Some(abundance) = self.first_abundance {
            refs.genomes[0].abundance = abundance;
        }
        let generated = mgsim::simulate_reads(
            &refs,
            &ReadSimParams {
                seed: seed.wrapping_add(self.read_seed_offset),
                ..self.reads.clone()
            },
        );
        let fastq = seqio::fastq::library_to_fastq(&generated);
        let library = seqio::fastq::library_from_fastq(
            &generated.name,
            &fastq,
            generated.insert_size,
            generated.insert_sd,
        )
        .expect("FASTQ rendered by seqio parses back");
        let input_digest = digest_reads(&library);
        assert_eq!(
            digest_reads(&generated),
            input_digest,
            "the FASTQ render/parse round trip changed the reads"
        );
        Dataset {
            refs,
            library,
            rrna_consensus,
            input_digest,
        }
    }
}

/// 64-bit FNV-1a over a sequence of byte strings, each terminated so that
/// moving a byte between neighbours changes the digest.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn digest_reads(library: &ReadLibrary) -> u64 {
    let mut h = Fnv::new();
    for read in &library.reads {
        h.write(read.name.as_bytes());
        h.write(&read.seq);
        h.write(&read.qual);
    }
    h.finish()
}

/// Digest of an assembly: its sequences in sorted order, so that it is the
/// same for every rank count and scaffold numbering.
pub fn digest_sequences(seqs: &[Vec<u8>]) -> u64 {
    let mut sorted: Vec<&Vec<u8>> = seqs.iter().collect();
    sorted.sort();
    let mut h = Fnv::new();
    for seq in sorted {
        h.write(seq);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_input_and_seed_changes_reads_not_the_community() {
        let w = WORKLOADS[0].quick();
        let (a, b, c) = (w.build(7), w.build(7), w.build(8));
        assert_eq!(a.input_digest, b.input_digest);
        assert_ne!(a.input_digest, c.input_digest);
        assert_eq!(a.refs, c.refs);
        assert_eq!(a.library.num_pairs(), 1_200);
        assert_eq!(a.input_bases(), 1_200 * 2 * 100);
    }

    #[test]
    fn sequence_digest_ignores_order() {
        let a = digest_sequences(&[b"ACGT".to_vec(), b"TT".to_vec()]);
        let b = digest_sequences(&[b"TT".to_vec(), b"ACGT".to_vec()]);
        assert_eq!(a, b);
        assert_ne!(a, digest_sequences(&[b"ACGTT".to_vec(), b"T".to_vec()]));
    }
}

//! Rank-count invariance of the distributed contig store: the assembly must
//! be byte-identical at every rank count, and to what the replicated
//! baseline it replaced produced, while the per-rank resident contig bytes
//! drop to a shard plus a bounded cache.

use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;
use seqio::ReadLibrary;

fn dataset(seed: u64) -> (ReadLibrary, Vec<u8>) {
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 2,
        genome_len_range: (3_500, 4_500),
        abundance_sigma: 0.4,
        strain_variants: 0,
        rrna_len: 300,
        repeats_per_genome: 1,
        repeat_len: 120,
        seed,
        ..Default::default()
    });
    let reads = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            read_len: 90,
            insert_size: 280,
            insert_sd: 25,
            error_rate: 0.003,
            seed: seed + 1,
            ..Default::default()
        }
        .with_target_coverage(&refs, 20.0),
    );
    (reads, consensus)
}

fn assemble(cfg: AssemblyConfig, ranks: usize, lib: &ReadLibrary, rrna: &[u8]) -> Vec<Vec<u8>> {
    let team = Team::single_node(ranks);
    let out = MetaHipMer::new(cfg).assemble(&team, lib, Some(rrna));
    let mut seqs = out.sequences();
    seqs.sort();
    seqs
}

/// FNV-1a over the sorted sequences, each closed by a `0xFF` byte (the rule
/// of the benchmark runner's scaffold digest).
fn digest(seqs: &[Vec<u8>]) -> u64 {
    let mut sorted: Vec<&Vec<u8>> = seqs.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sorted {
        for &b in s.iter().chain(&[0xFFu8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

// What the replicated contig set, every contig on every rank, produced at
// commit b7c4a00 (the parent of the change that removed it) on these
// datasets. Properties of the datasets: change `dataset` and they must be
// re-derived, not edited.

/// The assembly of `dataset(20260729)`: 8 scaffolds, the same at 1, 2, 3
/// and 8 ranks.
const INVARIANCE_DIGEST: u64 = 0xbf42_1f93_3cdc_df12;
/// The assembly of `dataset(77)` at 4 ranks: 11 scaffolds.
const RESIDENCY_DIGEST: u64 = 0x4f84_febc_bda8_0f42;
/// The largest per-rank resident contig bytes of the replicated set on
/// `dataset(77)` at 4 ranks.
const REPLICATED_CONTIG_BYTES: u64 = 8_789;

#[test]
fn distributed_contigs_are_rank_count_invariant() {
    let (lib, rrna) = dataset(20260729);
    let baseline = assemble(AssemblyConfig::small_test(), 1, &lib, &rrna);
    assert_eq!(baseline.len(), 8);
    assert_eq!(
        digest(&baseline),
        INVARIANCE_DIGEST,
        "the 1-rank assembly moved from the replicated baseline's"
    );
    for ranks in [1usize, 2, 3, 8] {
        let cfg = AssemblyConfig {
            // Small cache so eviction/refetch paths run in-test.
            contig_cache_bytes: 4 << 10,
            ..AssemblyConfig::small_test()
        };
        let distributed = assemble(cfg, ranks, &lib, &rrna);
        assert_eq!(
            distributed, baseline,
            "distributed contigs changed the assembly at {ranks} ranks"
        );
    }
}

#[test]
fn distributed_contigs_shrink_per_rank_residency() {
    let (lib, rrna) = dataset(77);
    let cfg = AssemblyConfig {
        contig_cache_bytes: 4 << 10,
        ..AssemblyConfig::small_test()
    };
    let team = Team::single_node(4);
    let out = MetaHipMer::new(cfg).assemble(&team, &lib, Some(&rrna));
    let seqs = out.sequences();
    assert_eq!(seqs.len(), 11);
    assert_eq!(digest(&seqs), RESIDENCY_DIGEST);
    let stats = team.stats_per_rank();
    let max_on = stats.iter().map(|s| s.contig_bytes_resident).max().unwrap();
    assert!(max_on > 0, "residency must be recorded");
    // Sharding + 2-bit packing: each rank holds well under half of the
    // replicated footprint (the precise total/ranks + cache bound is asserted
    // by the ablation_contig_store harness).
    assert!(
        2 * max_on <= REPLICATED_CONTIG_BYTES,
        "per-rank residency did not shrink: {max_on} vs replicated {REPLICATED_CONTIG_BYTES}"
    );
    // The store actually served remote reads.
    assert!(stats.iter().any(|s| s.contig_fetch_bytes > 0));
}

//! Rank-count invariance of the distributed contig store: with
//! `use_distributed_contigs` on the assembly must be byte-identical to the
//! replicated baseline at every rank count, while the per-rank resident
//! contig bytes drop to a shard plus a bounded cache.

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

#[test]
fn distributed_contigs_are_rank_count_invariant() {
    let (lib, rrna) = dataset(20260729);
    let baseline_cfg = AssemblyConfig {
        use_distributed_contigs: false,
        ..AssemblyConfig::small_test()
    };
    let baseline = assemble(baseline_cfg.clone(), 1, &lib, &rrna);
    assert!(!baseline.is_empty(), "baseline produced no scaffolds");
    for ranks in [1usize, 2, 3, 8] {
        // Replicated baseline at this rank count.
        let replicated = assemble(baseline_cfg.clone(), ranks, &lib, &rrna);
        assert_eq!(
            replicated, baseline,
            "replicated baseline not rank-invariant at {ranks} ranks"
        );
        let cfg = AssemblyConfig {
            use_distributed_contigs: true,
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
    let ranks = 4usize;
    let run = |use_store: bool| {
        let cfg = AssemblyConfig {
            use_distributed_contigs: use_store,
            contig_cache_bytes: 4 << 10,
            ..AssemblyConfig::small_test()
        };
        let team = Team::single_node(ranks);
        let out = MetaHipMer::new(cfg).assemble(&team, &lib, Some(&rrna));
        let per_rank = team.stats_per_rank();
        (out, per_rank)
    };
    let (out_off, stats_off) = run(false);
    let (out_on, stats_on) = run(true);
    let mut seqs_off = out_off.sequences();
    let mut seqs_on = out_on.sequences();
    seqs_off.sort();
    seqs_on.sort();
    assert_eq!(seqs_on, seqs_off);
    let max_off = stats_off
        .iter()
        .map(|s| s.contig_bytes_resident)
        .max()
        .unwrap();
    let max_on = stats_on
        .iter()
        .map(|s| s.contig_bytes_resident)
        .max()
        .unwrap();
    assert!(max_off > 0 && max_on > 0, "residency must be recorded");
    // Sharding + 2-bit packing: each rank holds well under half of the
    // replicated footprint (the precise total/ranks + cache bound is asserted
    // by the ablation_contig_store harness).
    assert!(
        2 * max_on <= max_off,
        "per-rank residency did not shrink: {max_on} vs replicated {max_off}"
    );
    // The store actually served remote reads.
    assert!(stats_on.iter().any(|s| s.contig_fetch_bytes > 0));
}

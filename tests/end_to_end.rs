//! Cross-crate integration tests: the full pipeline from simulated reads to
//! evaluated scaffolds.

use asm_metrics::{evaluate, EvalParams};
use mgsim::{CommunityParams, ReadSimParams};
use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;
use seqio::ReferenceSet;

fn community(taxa: usize, seed: u64) -> (ReferenceSet, seqio::ReadLibrary, Vec<u8>) {
    let (refs, consensus) = mgsim::generate_community(&CommunityParams {
        num_taxa: taxa,
        genome_len_range: (5_000, 7_000),
        abundance_sigma: 0.8,
        strain_variants: 1,
        rrna_len: 300,
        seed,
        ..Default::default()
    });
    let reads = mgsim::simulate_reads(
        &refs,
        &ReadSimParams {
            read_len: 100,
            insert_size: 300,
            error_rate: 0.004,
            seed: seed + 1,
            ..Default::default()
        }
        .with_target_coverage(&refs, 20.0),
    );
    (refs, reads, consensus)
}

fn eval_params() -> EvalParams {
    EvalParams {
        min_block: 200,
        length_thresholds: vec![1_000, 2_500],
        ..Default::default()
    }
}

#[test]
fn metahipmer_assembles_a_small_community_accurately() {
    let (refs, library, consensus) = community(4, 2026);
    let team = Team::single_node(4);
    let out =
        MetaHipMer::new(AssemblyConfig::small_test()).assemble(&team, &library, Some(&consensus));
    let report = evaluate(&out.sequences(), &refs, &eval_params());
    assert!(
        report.genome_fraction > 0.85,
        "genome fraction {:.3} too low ({})",
        report.genome_fraction,
        report.summary_line()
    );
    assert!(
        report.misassemblies <= 3,
        "too many misassemblies: {}",
        report.misassemblies
    );
    // Contiguity: scaffolds should be much longer than reads.
    assert!(
        out.scaffolds.n50() > 1_000,
        "N50 {} too small",
        out.scaffolds.n50()
    );
    // rRNA regions are planted in every genome; most should be recovered.
    assert!(
        report.rrna_recovered * 2 >= report.rrna_total,
        "rRNA recovery too low: {}/{}",
        report.rrna_recovered,
        report.rrna_total
    );
}

#[test]
fn pipeline_stage_accounting_is_complete() {
    let (_refs, library, consensus) = community(3, 2027);
    let team = Team::single_node(2);
    let out =
        MetaHipMer::new(AssemblyConfig::small_test()).assemble(&team, &library, Some(&consensus));
    for stage in [
        "kmer_analysis",
        "graph_traversal",
        "alignment",
        "scaffolding",
    ] {
        assert!(
            out.stage_seconds(stage) > 0.0,
            "stage {stage} has no recorded time"
        );
    }
    // Communication happened and was accounted.
    let total_msgs: u64 = out.stages.iter().map(|(_, _, s)| s.msgs_sent).sum();
    assert!(total_msgs > 0, "no aggregated messages were recorded");
    assert_eq!(out.local_assembly_work.len(), 2);
}

#[test]
fn read_localization_improves_cache_hit_rate_without_changing_the_assembly() {
    let (_refs, library, consensus) = community(4, 2028);
    let team = Team::single_node(4);
    let mut with = AssemblyConfig::small_test();
    with.read_localization = true;
    let mut without = AssemblyConfig::small_test();
    without.read_localization = false;
    let out_with = MetaHipMer::new(with).assemble(&team, &library, Some(&consensus));
    let out_without = MetaHipMer::new(without).assemble(&team, &library, Some(&consensus));
    // Same assembly either way (localisation is a performance optimisation).
    let mut a = out_with.sequences();
    let mut b = out_without.sequences();
    a.sort();
    b.sort();
    assert_eq!(a, b, "read localisation must not change the result");
    // The alignment stage should see a cache hit rate at least as good.
    let hit_with = out_with.stage_stats("alignment").cache_hit_rate();
    let hit_without = out_without.stage_stats("alignment").cache_hit_rate();
    assert!(
        hit_with + 1e-9 >= hit_without,
        "localisation should not lower cache reuse: with={hit_with:.3} without={hit_without:.3}"
    );
}

#[test]
fn metahipmer_covers_at_least_what_hipmer_mode_covers_on_uneven_coverage() {
    // A strongly skewed two-species community (the §II-C scenario).
    let ds = mgsim::two_species_skewed(2029);
    let team = Team::single_node(2);
    let eval = eval_params();
    let mhm = MetaHipMer::new(AssemblyConfig::small_test()).assemble(
        &team,
        &ds.library,
        Some(&ds.rrna_consensus),
    );
    let hip = MetaHipMer::hipmer_mode(AssemblyConfig::small_test()).assemble(
        &team,
        &ds.library,
        Some(&ds.rrna_consensus),
    );
    let mhm_report = evaluate(&mhm.sequences(), &ds.refs, &eval);
    let hip_report = evaluate(&hip.sequences(), &ds.refs, &eval);
    // Within anchoring noise at this tiny scale; the full-size comparison is
    // made by the runner's `table1_quality` row.
    assert!(
        mhm_report.genome_fraction >= hip_report.genome_fraction - 0.03,
        "MetaHipMer ({:.3}) must cover at least as much as HipMer ({:.3})",
        mhm_report.genome_fraction,
        hip_report.genome_fraction
    );
}

//! A stage's traffic is a property of the input, not of the schedule: three
//! assemblies of one community on a 4-rank, 2-node team must book the same
//! messages and bytes, split the same way across the node boundary, in every
//! stage. Each one-sided read is booked by the rank that makes it, in that
//! rank's current stage, so which rank happens to serve it does not matter.
//!
//! Local assembly is the one stage whose traffic follows its work-stealing
//! schedule itself (§II-G): which rank extends a contig decides whether that
//! rank's one-sided reads of the contig and its read pool cross the node
//! boundary, and whether the extended contig travels to rank 0 in the final
//! gather (rank 0's own share does not, and a rank that extended nothing
//! sends no message). Its one-sided reads are the same whoever makes them,
//! so for that stage the round trips and response bytes must be equal.

use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::{StatsSnapshot, Team, Topology};
use seqio::ReadLibrary;

fn dataset() -> (ReadLibrary, Vec<u8>) {
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 3,
        genome_len_range: (3_000, 4_000),
        abundance_sigma: 0.6,
        strain_variants: 0,
        rrna_len: 300,
        repeats_per_genome: 1,
        repeat_len: 120,
        seed: 20261022,
        ..Default::default()
    });
    let reads = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            read_len: 90,
            insert_size: 280,
            insert_sd: 25,
            error_rate: 0.003,
            seed: 20261023,
            ..Default::default()
        }
        .with_target_coverage(&refs, 20.0),
    );
    (reads, consensus)
}

/// What a stage row must repeat: `[msgs_sent, bytes_sent, on_node_bytes,
/// off_node_bytes]`, or for local assembly `[rpc_round_trips,
/// rpc_resp_bytes]`.
fn booked(stage: &str, s: &StatsSnapshot) -> Vec<u64> {
    if stage == "local_assembly" {
        vec![s.rpc_round_trips, s.rpc_resp_bytes]
    } else {
        vec![s.msgs_sent, s.bytes_sent, s.on_node_bytes, s.off_node_bytes]
    }
}

/// Every stage row's [`booked`] counts, and the sorted scaffolds.
type Run = (Vec<(String, Vec<u64>)>, Vec<Vec<u8>>);

fn assemble(lib: &ReadLibrary, rrna: &[u8]) -> Run {
    let team = Team::new(Topology::new(4, 2));
    let cfg = AssemblyConfig {
        // A small contig cache, so the one-sided contig fetches run.
        contig_cache_bytes: 4 << 10,
        ..AssemblyConfig::small_test()
    };
    let out = MetaHipMer::new(cfg).assemble(&team, lib, Some(rrna));
    let traffic = out
        .stages
        .iter()
        .map(|(name, _, s)| (name.clone(), booked(name, s)))
        .collect();
    let mut seqs = out.sequences();
    seqs.sort();
    (traffic, seqs)
}

#[test]
fn every_stage_books_the_same_traffic_on_every_run() {
    let (lib, rrna) = dataset();
    let first = assemble(&lib, &rrna);
    assert!(!first.1.is_empty(), "the community assembles");
    let local_assembly = first.0.iter().find(|(n, _)| n == "local_assembly");
    assert!(
        local_assembly.is_some_and(|(_, c)| c[1] > 0),
        "local assembly reads one-sided"
    );
    assert!(
        first.0.iter().any(|(_, c)| c.len() == 4 && c[3] > 0),
        "the 2-node team sends off-node traffic"
    );
    for run in 1..3 {
        let again = assemble(&lib, &rrna);
        assert_eq!(again.1, first.1, "run {run}: the scaffolds moved");
        assert_eq!(
            again.0.len(),
            first.0.len(),
            "run {run}: the stage list moved"
        );
        let moved: Vec<String> = first
            .0
            .iter()
            .zip(&again.0)
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("{}: {:?} then {:?}", a.0, a.1, b.1))
            .collect();
        assert!(
            moved.is_empty(),
            "run {run}: stages booked different traffic:\n{}",
            moved.join("\n")
        );
    }
}

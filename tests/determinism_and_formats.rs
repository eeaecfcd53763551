//! Integration tests for determinism across rank counts and for the sequence
//! I/O round trips used when persisting assemblies.

use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;
use seqio::{parse_fasta, write_fasta, FastaRecord};

#[test]
fn assembly_identical_for_one_two_and_four_ranks() {
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 3,
        genome_len_range: (4_000, 5_000),
        seed: 99,
        ..Default::default()
    });
    let library = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            read_len: 90,
            seed: 100,
            ..Default::default()
        }
        .with_target_coverage(&refs, 18.0),
    );
    let mut cfg = AssemblyConfig::small_test();
    cfg.local_assembly = false; // keep runtime low; determinism of the rest is the point
    let assembler = MetaHipMer::new(cfg);
    let mut previous: Option<Vec<Vec<u8>>> = None;
    for ranks in [1usize, 2, 4] {
        let out = assembler.assemble(&Team::single_node(ranks), &library, Some(&consensus));
        let mut seqs = out.sequences();
        seqs.sort();
        if let Some(prev) = &previous {
            assert_eq!(
                prev, &seqs,
                "assembly changed between rank counts (ranks={ranks})"
            );
        }
        previous = Some(seqs);
    }
}

#[test]
fn lookup_batching_on_or_off_yields_identical_scaffolds() {
    // Alignment's seed-lookup batch is a size, not a mode: the same seed
    // must produce byte-identical scaffolds with one key per aggregated
    // message (batch size 1), with a small batch, and with the default large
    // batch — every one through the same aggregated, cached read path.
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 2,
        genome_len_range: (4_000, 5_000),
        seed: 77,
        ..Default::default()
    });
    let library = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            read_len: 90,
            seed: 78,
            ..Default::default()
        }
        .with_target_coverage(&refs, 18.0),
    );
    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for batch in [1usize, 4, 4096] {
        let mut cfg = AssemblyConfig::small_test();
        cfg.align.lookup_batch = batch;
        let out = MetaHipMer::new(cfg).assemble(&Team::single_node(3), &library, Some(&consensus));
        let seqs = out.sequences();
        match &baseline {
            None => baseline = Some(seqs),
            Some(expect) => assert_eq!(
                expect, &seqs,
                "lookup batch size {batch} changed the scaffolds"
            ),
        }
    }
}

#[test]
fn scaffolds_round_trip_through_fasta() {
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 2,
        genome_len_range: (4_000, 4_500),
        seed: 123,
        ..Default::default()
    });
    let library = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            read_len: 90,
            seed: 124,
            ..Default::default()
        }
        .with_target_coverage(&refs, 20.0),
    );
    let out = MetaHipMer::new(AssemblyConfig::small_test()).assemble(
        &Team::single_node(2),
        &library,
        Some(&consensus),
    );
    let records: Vec<FastaRecord> = out
        .scaffolds
        .scaffolds
        .iter()
        .map(|s| FastaRecord {
            id: format!("scaffold_{}", s.id),
            description: format!("contigs={} length={}", s.num_contigs(), s.len()),
            seq: s.seq.clone(),
        })
        .collect();
    let text = write_fasta(&records, 80);
    let back = parse_fasta(&text).expect("written FASTA parses");
    assert_eq!(back.len(), records.len());
    for (a, b) in back.iter().zip(&records) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.id, b.id);
    }
}

//! Checkpoint/restart properties, end to end: the on-disk format round-trips
//! across rank counts, torn/corrupt state is refused, and a run killed by an
//! injected fault resumes — at a different rank count — to byte-identical
//! final scaffolds.

use mhm_core::checkpoint::{self, Manifest, ShardData};
use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::{FaultPlan, Team};
use seqio::ReadLibrary;
use std::fs;
use std::path::PathBuf;

/// A unique scratch directory (removed by the test that created it).
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhm_ckpt_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small two-genome community (the same shape the pipeline tests use).
fn small_dataset(seed: u64) -> (ReadLibrary, Vec<u8>) {
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 2,
        genome_len_range: (4_000, 5_000),
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
        .with_target_coverage(&refs, 22.0),
    );
    (reads, consensus)
}

/// The configuration every run in this file shares: two k iterations (so
/// there is a boundary to checkpoint at) and no local assembly, the same
/// restriction the rank-invariance pipeline test applies.
fn base_config() -> AssemblyConfig {
    let mut cfg = AssemblyConfig::small_test();
    cfg.local_assembly = false;
    cfg
}

fn sorted_sequences(out: &mhm_core::AssemblyOutput) -> Vec<Vec<u8>> {
    let mut seqs = out.sequences();
    seqs.sort();
    seqs
}

#[test]
fn kill_after_iteration_then_elastic_resume_is_byte_identical() {
    let (library, consensus) = small_dataset(71);
    let cfg = base_config();
    assert_eq!(cfg.k_values().len(), 2, "need a k boundary to cut at");

    // Uninterrupted baseline at 2 ranks.
    let baseline =
        MetaHipMer::new(cfg.clone()).assemble(&Team::single_node(2), &library, Some(&consensus));
    let golden = sorted_sequences(&baseline);
    assert!(!golden.is_empty());

    // Checkpointing must not change the assembly, and the commit must land.
    let dir = tempdir("elastic");
    let mut ckpt_cfg = cfg.clone();
    ckpt_cfg.checkpoint_dir = Some(dir.clone());
    let ckpt_run = MetaHipMer::new(ckpt_cfg.clone()).assemble(
        &Team::single_node(2),
        &library,
        Some(&consensus),
    );
    assert_eq!(sorted_sequences(&ckpt_run), golden);
    assert!(ckpt_run.stage_seconds("checkpoint_write") > 0.0);
    let (manifest, _) =
        checkpoint::find_latest(&dir, cfg.fingerprint()).expect("checkpoint committed");
    assert_eq!(manifest.next_iter, 1);
    assert_eq!(manifest.ranks, 2);
    assert!(manifest.barriers_at_commit > 0);

    // Kill rank 1 shortly after the iteration-0 commit. Barrier counts are
    // deterministic and rank-uniform, so the clean run's commit stamp aims
    // the fault of a fresh run precisely: the checkpoint exists, the final
    // scaffolds never do.
    let fault_dir = tempdir("elastic_fault");
    let mut fault_cfg = cfg.clone();
    fault_cfg.checkpoint_dir = Some(fault_dir.clone());
    let team = Team::single_node(2);
    team.set_fault_plan(Some(FaultPlan {
        rank: 1,
        after_barriers: manifest.barriers_at_commit + 16,
    }));
    let fault = MetaHipMer::new(fault_cfg.clone())
        .try_assemble(&team, &library, Some(&consensus))
        .expect_err("the armed fault must kill the run");
    assert_eq!(fault.rank, 1);
    let (fault_manifest, _) =
        checkpoint::find_latest(&fault_dir, cfg.fingerprint()).expect("commit preceded the kill");
    assert_eq!(fault_manifest.next_iter, 1);

    // Elastic resume: restart at 2x the ranks, at half, and at the writer's
    // own count — every one must complete with byte-identical scaffolds.
    for ranks in [4usize, 1, 2] {
        let mut resume_cfg = fault_cfg.clone();
        resume_cfg.resume = true;
        let resumed = MetaHipMer::new(resume_cfg).assemble(
            &Team::single_node(ranks),
            &library,
            Some(&consensus),
        );
        assert_eq!(
            sorted_sequences(&resumed),
            golden,
            "resume at {ranks} ranks diverged from the uninterrupted run"
        );
        assert!(
            resumed.stage_seconds("checkpoint_restore") > 0.0,
            "resume at {ranks} ranks did not restore"
        );
        assert_eq!(
            resumed.stage_seconds("read_ingestion"),
            0.0,
            "resume must restore reads from shards, not re-ingest"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&fault_dir).unwrap();
}

#[test]
fn a_checkpoint_without_a_read_store_header_is_refused_by_its_path() {
    // The format still carries the read-store header as an option, but the
    // pipeline has no reads to resume from without it: such a checkpoint is
    // refused by name instead of resumed.
    let (library, consensus) = small_dataset(73);
    let dir = tempdir("headerless");
    let mut cfg = base_config();
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.resume = true;
    let manifest = Manifest {
        fingerprint: cfg.fingerprint(),
        ranks: 1,
        next_iter: 1,
        num_pairs: library.num_pairs(),
        barriers_at_commit: 0,
        contig_k: 21,
        contig_meta: Vec::new(),
        targets: None,
        read_header: None,
        conformance: Vec::new(),
    };
    Team::single_node(1).run(|ctx| {
        checkpoint::commit(ctx, &dir, manifest.clone(), &ShardData::default());
    });
    let (_, path) = checkpoint::find_latest(&dir, cfg.fingerprint()).expect("committed");
    let refused = std::panic::catch_unwind(|| {
        MetaHipMer::new(cfg).assemble(&Team::single_node(1), &library, Some(&consensus))
    })
    .expect_err("a headerless checkpoint must not resume");
    let message = refused
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        message.contains(&path.display().to_string()) && message.contains("read-store header"),
        "{message}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_state_round_trips_across_any_rank_count() {
    // Format property: state committed by an R-rank team is recovered
    // entirely — every entry exactly once — by a team of any other size
    // reading its shard slice, and the commit is atomic (no staging residue).
    let dir = tempdir("roundtrip");
    let writer_ranks = 3;
    let team = Team::single_node(writer_ranks);
    let all_entries: Vec<(u64, Vec<u8>)> = (0..17u64)
        .map(|id| {
            let base = [b'A', b'C', b'G', b'T'][(id % 4) as usize];
            (id, vec![base; 40 + (id as usize % 13)])
        })
        .collect();
    let entries = all_entries.clone();
    let dir_for_team = dir.clone();
    team.run(move |ctx| {
        let mine: Vec<(u64, dbg::PackedSeq)> = entries
            .iter()
            .filter(|(id, _)| id % ctx.ranks() as u64 == ctx.rank() as u64)
            .map(|(id, seq)| (*id, dbg::PackedSeq::from_bytes(seq)))
            .collect();
        let manifest = Manifest {
            fingerprint: 42,
            ranks: ctx.ranks(),
            next_iter: 1,
            num_pairs: 0,
            barriers_at_commit: 0,
            contig_k: 21,
            contig_meta: Vec::new(),
            targets: None,
            read_header: None,
            conformance: Vec::new(),
        };
        checkpoint::commit(
            ctx,
            &dir_for_team,
            manifest,
            &ShardData {
                contigs: mine,
                read_blocks: Vec::new(),
            },
        );
    });
    // Atomicity: the committed directory exists, no staging dir survives.
    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, vec!["ckpt_1".to_string()]);

    let (manifest, path) = checkpoint::find_latest(&dir, 42).expect("committed");
    for ranks in [1usize, 2, 3, 5, 8] {
        let mut recovered: Vec<(u64, Vec<u8>)> = (0..ranks)
            .flat_map(|r| {
                checkpoint::load_shards_for_rank(&path, r, ranks, manifest.ranks)
                    .unwrap()
                    .contigs
                    .into_iter()
                    .map(|(id, seq)| (id, seq.unpack()))
            })
            .collect();
        recovered.sort();
        let mut expect = all_entries.clone();
        expect.sort();
        assert_eq!(recovered, expect, "reader team of {ranks} ranks");
    }

    // A flipped byte in any shard is refused, not decoded.
    let shard_path = path.join("shard_1.bin");
    let mut bytes = fs::read(&shard_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&shard_path, &bytes).unwrap();
    assert!(checkpoint::load_shard(&path, 1).is_err());

    // A truncated manifest disqualifies the whole checkpoint at discovery.
    let manifest_path = path.join("manifest.bin");
    let bytes = fs::read(&manifest_path).unwrap();
    fs::write(&manifest_path, &bytes[..bytes.len() - 3]).unwrap();
    assert!(checkpoint::find_latest(&dir, 42).is_none());
    fs::remove_dir_all(&dir).unwrap();
}

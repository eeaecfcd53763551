//! Degenerate but legal configurations and inputs (ROADMAP [robust]): caches of
//! zero bytes, minimizer lengths outside `1..=min(k, MAX_MINIMIZER_LEN)`,
//! lookup batches of one, two-read blocks and a partial last node must
//! assemble what the default configuration assembles, libraries with fewer
//! reads than ranks — or fewer final contigs than ranks — must finish — no
//! panic, no rank left waiting in a collective — and an rRNA consensus that
//! carries no signal (all `N`) or hardly any (three bases) must classify, not
//! divide by zero.

use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;
use seqio::ReadLibrary;
use std::sync::mpsc;
use std::time::Duration;

/// The first `pairs` read pairs of the shared test community.
fn first_pairs(pairs: usize) -> (ReadLibrary, Vec<u8>) {
    let data = mgsim::presets::weak_scaling_dataset(3, 20261001);
    let mut library = data.library;
    assert!(library.paired && library.num_pairs() >= pairs);
    library.reads.truncate(2 * pairs);
    (library, data.rrna_consensus)
}

/// Sorted scaffolds of one assembly on `ranks` ranks under `cfg`'s topology.
fn assemble(
    cfg: AssemblyConfig,
    ranks: usize,
    library: &ReadLibrary,
    rrna: Option<&[u8]>,
) -> Vec<Vec<u8>> {
    let team = Team::new(cfg.topology(ranks));
    let mut seqs = MetaHipMer::new(cfg)
        .try_assemble(&team, library, rrna)
        .expect("every rank returns Ok")
        .sequences();
    seqs.sort();
    seqs
}

/// Runs `assembly` on a thread of its own and waits five minutes for it: a
/// rank stuck in a collective would otherwise hang the suite.
fn under_watchdog<T: Send + 'static>(
    what: String,
    assembly: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(assembly());
    });
    finished
        .recv_timeout(Duration::from_secs(300))
        .unwrap_or_else(|e| panic!("{what}: {e}"))
}

#[test]
fn fewer_reads_than_ranks_and_stripped_down_configs_still_finish_on_every_rank() {
    type Tweak = fn(&mut AssemblyConfig);
    // (what, pairs, ranks, tweak, scaffolds expected): nothing to assemble
    // from at most two pairs, and 200 pairs leave most of eight ranks' stages
    // empty. Then the single-k, global-threshold, uncapped-bubble,
    // single-link and contigs-only shapes of the pipeline, which must still
    // assemble something.
    let cases: [(&str, usize, usize, Tweak, bool); 10] = [
        ("default", 0, 3, |_| {}, false),
        ("default", 1, 1, |_| {}, false),
        ("default", 1, 4, |_| {}, false),
        ("default", 2, 8, |_| {}, false),
        ("default", 200, 8, |_| {}, true),
        ("k_min = k_max", 2_000, 2, |cfg| cfg.k_min = cfg.k_max, true),
        (
            "global thq = 1",
            2_000,
            2,
            |cfg| cfg.threshold = dbg::ThresholdPolicy::Global { thq: 1 },
            true,
        ),
        (
            "long bubbles, len_tolerance = 0.1",
            2_000,
            2,
            |cfg| {
                cfg.bubble.merge_long_bubbles = true;
                cfg.bubble.len_tolerance = 0.1;
            },
            true,
        ),
        (
            "splint, span and link support 1",
            2_000,
            2,
            |cfg| {
                cfg.scaffold.links.min_splint_support = 1;
                cfg.scaffold.links.min_span_support = 1;
                cfg.scaffold.traversal.min_link_support = 1;
            },
            true,
        ),
        (
            "no scaffolding, local assembly or localisation",
            2_000,
            2,
            |cfg| {
                cfg.scaffolding = false;
                cfg.local_assembly = false;
                cfg.read_localization = false;
            },
            true,
        ),
    ];
    for (what, pairs, ranks, tweak, assembles) in cases {
        let case = format!("{what}: {pairs} pairs on {ranks} ranks");
        let seqs = under_watchdog(case.clone(), move || {
            let (library, rrna) = first_pairs(pairs);
            let mut cfg = AssemblyConfig::small_test();
            tweak(&mut cfg);
            assemble(cfg, ranks, &library, Some(&rrna))
        });
        assert_eq!(!seqs.is_empty(), assembles, "{case}");
    }
}

#[test]
fn fewer_final_contigs_than_ranks_assemble_the_one_rank_scaffolds() {
    // One short error-free genome: the final contig set is smaller than the
    // team, so the size-balanced contig store leaves most of eight ranks with
    // no contig to own while they still align, walk and scaffold.
    let (refs, rrna) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 1,
        genome_len_range: (3_000, 3_000),
        repeats_per_genome: 0,
        seed: 20261003,
        ..Default::default()
    });
    let params = mgsim::ReadSimParams {
        error_rate: 0.0,
        seed: 20261004,
        ..Default::default()
    }
    .with_target_coverage(&refs, 30.0);
    let library = mgsim::simulate_reads(&refs, &params);
    let run = |ranks: usize| {
        let (library, rrna) = (library.clone(), rrna.clone());
        under_watchdog(format!("one short genome on {ranks} ranks"), move || {
            let cfg = AssemblyConfig::small_test();
            let team = Team::new(cfg.topology(ranks));
            let out = MetaHipMer::new(cfg)
                .try_assemble(&team, &library, Some(&rrna))
                .expect("every rank returns Ok");
            let mut seqs = out.sequences();
            seqs.sort();
            (out.contigs.len(), seqs)
        })
    };
    let (contigs, one_rank) = run(1);
    assert!(
        (1..8).contains(&contigs),
        "{contigs} final contigs do not undercut 8 ranks"
    );
    assert!(!one_rank.is_empty(), "the genome assembled into nothing");
    assert!(
        run(8) == (contigs, one_rank),
        "8 ranks changed the assembly"
    );
}

#[test]
fn unit_batches_tiny_blocks_and_a_partial_node_assemble_the_default_scaffolds() {
    let (library, rrna) = first_pairs(2_000);
    let default = assemble(AssemblyConfig::small_test(), 2, &library, Some(&rrna));
    assert!(!default.is_empty(), "default produced no scaffolds");
    type Tweak = fn(AssemblyConfig) -> AssemblyConfig;
    let degenerate: [(&str, usize, Tweak); 3] = [
        ("align.lookup_batch = 1", 2, |mut cfg| {
            cfg.align.lookup_batch = 1;
            cfg
        }),
        ("ranks_per_node = 2 on 3 ranks", 3, |mut cfg| {
            cfg.ranks_per_node = 2;
            cfg
        }),
        ("read_block_reads = 2", 2, |mut cfg| {
            cfg.read_block_reads = 2;
            cfg
        }),
    ];
    for (what, ranks, tweak) in degenerate {
        let got = assemble(
            tweak(AssemblyConfig::small_test()),
            ranks,
            &library,
            Some(&rrna),
        );
        assert!(got == default, "{what} changed the assembly");
    }
}

#[test]
fn zero_byte_caches_and_clamped_minimizers_assemble_the_default_scaffolds() {
    let data = mgsim::presets::weak_scaling_dataset(3, 20261001);
    let on_two_ranks = |cfg| assemble(cfg, 2, &data.library, Some(&data.rrna_consensus));
    let default = on_two_ranks(AssemblyConfig::small_test());
    assert!(!default.is_empty(), "default produced no scaffolds");
    type Tweak = fn(&mut AssemblyConfig);
    let degenerate: [(&str, Tweak); 5] = [
        ("contig_cache_bytes = 0", |cfg| cfg.contig_cache_bytes = 0),
        ("read_cache_bytes = 0", |cfg| cfg.read_cache_bytes = 0),
        ("align.cache_capacity = 0", |cfg| {
            cfg.align.cache_capacity = 0
        }),
        ("minimizer_len = 0", |cfg| cfg.minimizer_len = 0),
        ("minimizer_len = 99", |cfg| cfg.minimizer_len = 99),
    ];
    for (what, set) in degenerate {
        let mut cfg = AssemblyConfig::small_test();
        set(&mut cfg);
        assert!(on_two_ranks(cfg) == default, "{what} changed the assembly");
    }
}

#[test]
fn rrna_consensi_without_signal_classify_without_panicking() {
    let (library, _) = first_pairs(2_000);
    let on = |ranks, rrna| assemble(AssemblyConfig::small_test(), ranks, &library, rrna);
    // All `N`: every emission is at background odds, so the profile has no
    // scale for its 16-bit bound, every contig scores 0 and none is a hit.
    let undetected = on(2, None);
    assert!(!undetected.is_empty(), "no scaffolds without a detector");
    assert!(
        on(2, Some(&[b'N'; 300])) == undetected,
        "an all-N consensus changed the assembly"
    );
    // Three bases: nearly every contig holds the consensus, so nearly every
    // contig is a hit, at any rank count.
    assert!(
        on(1, Some(b"ACG")) == on(2, Some(b"ACG")),
        "a 3-base consensus assembles differently on 1 and 2 ranks"
    );
}

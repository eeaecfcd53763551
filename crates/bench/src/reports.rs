//! The report rows of the experiment runner: one per table or figure of the
//! paper's evaluation (§IV) and two design ablations. They print tables and
//! assert nothing beyond what [`sweep`] checks; absolute numbers are this
//! host's, the shape is the paper's.

use aligner::{align_reads_ref, build_seed_index_ref, AlignParams};
use dbg::{ContigSet, ContigStore, ContigsRef, ThresholdPolicy};
use mhm_bench::datasets::{self, Dataset};
use mhm_bench::{efficiency, fmt, print_table, rank_sweep, ranks_up_to, sweep, Record};
use mhm_core::{AssemblyConfig, AssemblyOutput, MetaHipMer};
use pgas::stats::load_balance_ratio;
use pgas::DynamicBlocks;
use std::sync::atomic::{AtomicU64, Ordering};

/// `fig3_read_localization`: the read-localisation optimisation's effect on
/// the alignment and k-mer analysis stages (Figure 3).
///
/// Expected shape: with localisation the alignment stage speeds up (most at
/// small node counts — the paper reports 2.2× at 16 nodes) and the software
/// cache hit rate rises; k-mer analysis improves by a smaller factor.
pub fn fig3_read_localization() {
    let ds = datasets::mg64_tiny();
    let points = rank_sweep(8)
        .into_iter()
        .flat_map(|r| [(r, false), (r, true)]);
    let runs = sweep(&ds, points, |localized| AssemblyConfig {
        read_localization: localized,
        ..Default::default()
    });
    let records: Vec<Record> = runs
        .chunks(2)
        .map(|pair| {
            let (off, on) = (&pair[0].1.output, &pair[1].1.output);
            let (a_off, a_on) = (
                off.stage_seconds("alignment"),
                on.stage_seconds("alignment"),
            );
            let (k_off, k_on) = (
                off.stage_seconds("kmer_analysis"),
                on.stage_seconds("kmer_analysis"),
            );
            let hits = |out: &AssemblyOutput| out.stage_stats("alignment").cache_hit_rate();
            vec![
                ("Ranks", pair[0].1.ranks.to_string()),
                ("Align (s) off", fmt(a_off, 2)),
                ("Align (s) on", fmt(a_on, 2)),
                ("Align speedup", fmt(a_off / a_on.max(1e-9), 2)),
                ("K-mer (s) off", fmt(k_off, 2)),
                ("K-mer (s) on", fmt(k_on, 2)),
                ("K-mer speedup", fmt(k_off / k_on.max(1e-9), 2)),
                ("Cache hit % off", fmt(100.0 * hits(off), 1)),
                ("Cache hit % on", fmt(100.0 * hits(on), 1)),
            ]
        })
        .collect();
    print_table("Figure 3 — read localisation impact", &records);
}

/// The stages Figure 5 splits the runtime into.
const FIG5_STAGES: [&str; 7] = [
    "kmer_analysis",
    "graph_traversal",
    "bubble_pruning",
    "alignment",
    "local_assembly",
    "read_localization",
    "scaffolding",
];

/// `fig4_strong_scaling`: strong scaling of the whole pipeline on the 3-lane
/// Wetlands subset (Figure 4), and the same runs' runtime share per stage
/// (Figure 5).
///
/// Expected shape: near-ideal scaling at small rank counts, declining
/// efficiency as local-assembly load imbalance and fixed costs grow (the
/// paper: 61% from 32 to 1024 nodes); alignment dominates at small
/// concurrency (~50% in the paper) and the local-assembly share grows with
/// it.
pub fn fig4_strong_scaling() {
    let ds = datasets::wetlands(3);
    println!(
        "{}: {} genomes, {} read pairs",
        ds.name,
        ds.sim.refs.len(),
        ds.sim.library.num_pairs()
    );
    let runs = sweep(&ds, rank_sweep(16).into_iter().map(|r| (r, ())), |()| {
        AssemblyConfig::default()
    });
    let ranks: Vec<usize> = runs.iter().map(|(_, run)| run.ranks).collect();
    let seconds: Vec<f64> = runs
        .iter()
        .map(|(_, run)| run.output.total_seconds)
        .collect();
    let scaling: Vec<Record> = efficiency(&ranks, &seconds)
        .iter()
        .zip(ranks.iter().zip(&seconds))
        .map(|(e, (r, t))| {
            vec![
                ("Ranks", r.to_string()),
                ("Time (s)", fmt(*t, 2)),
                ("Efficiency %", fmt(100.0 * e, 1)),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 4 — strong scaling ({})", ds.name),
        &scaling,
    );
    let shares: Vec<Record> = runs
        .iter()
        .map(|(_, run)| {
            let out = &run.output;
            let total: f64 = FIG5_STAGES.iter().map(|s| out.stage_seconds(s)).sum();
            let work: Vec<f64> = out.local_assembly_work.iter().map(|&w| w as f64).collect();
            let mut record = vec![("Ranks", run.ranks.to_string())];
            record.extend(
                FIG5_STAGES.map(|s| (s, fmt(100.0 * out.stage_seconds(s) / total.max(1e-9), 1))),
            );
            record.push(("local-assembly balance", fmt(load_balance_ratio(&work), 2)));
            record
        })
        .collect();
    print_table("Figure 5 — runtime fraction per stage (%)", &shares);
}

/// `table1_quality`: assembly quality on the 64-genome MG64 (Table I),
/// MetaHipMer against HipMer — the same pipeline in
/// [`MetaHipMer::hipmer_mode`], the single-genome configuration of §II-C.
///
/// Columns mirror the paper: assembled bases above three (scaled) length
/// thresholds, misassemblies, rRNA recovery, genome fraction and runtime.
/// Expected shape: HipMer trails on coverage, contiguity and rRNA.
pub fn table1_quality() {
    let ds = datasets::mg64();
    println!(
        "{}: {} genomes, {} read pairs, {} Mbp of reads",
        ds.name,
        ds.sim.refs.len(),
        ds.sim.library.num_pairs(),
        ds.sim.total_bases() / 1_000_000
    );
    let ranks = ranks_up_to(8);
    let records: Vec<Record> = [
        ("MetaHipMer", MetaHipMer::new(AssemblyConfig::default())),
        ("HipMer", MetaHipMer::hipmer_mode(AssemblyConfig::default())),
    ]
    .into_iter()
    .map(|(name, assembler)| {
        let run = ds.run(&assembler, ranks);
        let r = ds.evaluate(&run.output);
        let kbp_at = |len| (r.length_at(len).unwrap_or(0) / 1000).to_string();
        vec![
            ("Assembler", name.to_string()),
            ("kbp >=1k", kbp_at(1_000)),
            ("kbp >=2.5k", kbp_at(2_500)),
            ("kbp >=5k", kbp_at(5_000)),
            ("MSA", r.misassemblies.to_string()),
            ("rRNA", format!("{}/{}", r.rrna_recovered, r.rrna_total)),
            ("Gen. frac. %", fmt(100.0 * r.genome_fraction, 1)),
            ("Runtime (s)", fmt(run.output.total_seconds, 1)),
        ]
    })
    .collect();
    print_table(
        &format!("Table I — assembly quality on {}", ds.name),
        &records,
    );
}

/// `table2_weak_scaling`: weak scaling over the MGSim series (Table II):
/// taxa and reads double with the rank count.
///
/// Expected shape: the assembly rate per rank drops slightly from the first
/// to the second point and then stays roughly flat (the paper: 0.16 → 0.12
/// kbases/s/node, ~75% efficiency from 128 to 1024 nodes).
pub fn table2_weak_scaling() {
    let mut records: Vec<Record> = Vec::new();
    let mut first_rate = None;
    for (step, ranks) in rank_sweep(8).into_iter().enumerate() {
        let ds = datasets::weak_scaling(step);
        let run = ds.run(&MetaHipMer::new(AssemblyConfig::default()), ranks);
        let kbases = ds.sim.total_bases() as f64 / 1000.0;
        let rate = kbases / run.output.total_seconds / ranks as f64;
        let first = *first_rate.get_or_insert(rate);
        records.push(vec![
            ("Ranks", ranks.to_string()),
            ("Reads", ds.sim.num_reads().to_string()),
            ("Genomic taxa", ds.sim.refs.len().to_string()),
            ("KBases/s/rank", fmt(rate, 2)),
            ("Weak-scaling efficiency %", fmt(100.0 * rate / first, 1)),
            (
                "Gen. frac. %",
                fmt(100.0 * ds.evaluate(&run.output).genome_fraction, 1),
            ),
        ]);
    }
    print_table("Table II — weak scaling (MGSim series)", &records);
}

/// Fraction of the dataset's reads with at least one alignment to the
/// assembly.
fn fraction_mapping_back(ds: &Dataset, assembly: &[Vec<u8>], ranks: usize) -> f64 {
    let contigs =
        ContigSet::from_sequences(31, assembly.iter().map(|s| (s.clone(), 1.0)).collect());
    let library = &ds.sim.library;
    let mapped: u64 = AssemblyConfig::default()
        .team(ranks)
        .run(|ctx| {
            let store = ContigStore::build(ctx, &contigs, &Default::default());
            let source = ContigsRef::Store(&store);
            let index = build_seed_index_ref(ctx, source, 15);
            ctx.barrier();
            let range = ctx.block_range(library.num_reads());
            let reads = range.map(|i| (i as u64, library.read(i as u64).clone()));
            let aligned = align_reads_ref(
                ctx,
                reads,
                source,
                &index,
                &AlignParams {
                    seed_len: 15,
                    stride: 7,
                    ..Default::default()
                },
            );
            let distinct: std::collections::HashSet<u64> =
                aligned.alignments.iter().map(|a| a.read_id).collect();
            ctx.allreduce_sum_u64(distinct.len() as u64)
        })
        .into_iter()
        .next()
        .unwrap();
    mapped as f64 / library.num_reads() as f64
}

/// `grand_challenge`: the full 21-lane Wetlands assembly against its 3-lane
/// subset (§IV-C).
///
/// Expected shape: the full, deeper and more complex sample assembles much
/// longer, and a far larger fraction of all reads maps back to it (the
/// paper: 18× longer, 42% vs 7.6% of reads mapping back).
pub fn grand_challenge() {
    let ranks = ranks_up_to(8);
    let mut records: Vec<Record> = Vec::new();
    let mut lens = Vec::new();
    for ds in [datasets::wetlands(3), datasets::wetlands(21)] {
        let run = ds.run(&MetaHipMer::new(AssemblyConfig::default()), ranks);
        let total = run.output.scaffolds.total_bases();
        lens.push(total);
        let map_back = fraction_mapping_back(&ds, &run.output.sequences(), ranks);
        records.push(vec![
            ("Dataset", ds.name.clone()),
            ("Reads", ds.sim.library.num_reads().to_string()),
            ("Assembly length (bp)", total.to_string()),
            ("Time (s)", fmt(run.output.total_seconds, 1)),
            ("Reads mapping back %", fmt(100.0 * map_back, 1)),
            (
                "Gen. frac. %",
                fmt(100.0 * ds.evaluate(&run.output).genome_fraction, 1),
            ),
        ]);
    }
    print_table("Grand challenge — full Wetlands-sim vs subset", &records);
    println!(
        "\nFull assembly is {:.1}x longer than the subset assembly",
        lens[1] as f64 / lens[0].max(1) as f64
    );
}

/// `ablation_thresholds`: the metagenome dynamic extension threshold
/// `thq = max(t_base, e·d)` against HipMer's single global threshold on two
/// genomes ~100× apart in abundance (§II-C).
///
/// Expected shape: the dynamic threshold keeps the abundant genome in few
/// long contigs *and* covers the rare one; a global threshold fragments one
/// of the two depending on where it is set.
pub fn ablation_thresholds() {
    let ds = datasets::two_species();
    let ranks = ranks_up_to(4);
    let records: Vec<Record> = [
        (
            "dynamic max(2, 0.05 d)",
            ThresholdPolicy::metahipmer_default(),
        ),
        ("global thq=2", ThresholdPolicy::Global { thq: 2 }),
        ("global thq=16", ThresholdPolicy::Global { thq: 16 }),
    ]
    .into_iter()
    .map(|(name, threshold)| {
        let cfg = AssemblyConfig {
            threshold,
            ..Default::default()
        };
        let report = ds.evaluate(&ds.run(&MetaHipMer::new(cfg), ranks).output);
        let (abundant, rare) = (&report.per_genome[0], &report.per_genome[1]);
        vec![
            ("Policy", name.to_string()),
            ("Seqs", report.num_seqs.to_string()),
            ("N50", report.n50.to_string()),
            (
                "Abundant gen. frac. %",
                fmt(100.0 * abundant.genome_fraction, 1),
            ),
            ("Abundant NGA50", abundant.nga50.to_string()),
            ("Rare gen. frac. %", fmt(100.0 * rare.genome_fraction, 1)),
            ("Rare NGA50", rare.nga50.to_string()),
        ]
    })
    .collect();
    print_table(
        &format!("Ablation — extension threshold policy on {}", ds.name),
        &records,
    );
}

/// Simulated per-contig walk cost: a few contigs are 100x more expensive.
fn cost(i: usize) -> u64 {
    if i.is_multiple_of(97) {
        200
    } else {
        2
    }
}

fn busy(units: u64, sink: &AtomicU64) {
    let mut acc = 0u64;
    for i in 0..units * 2_000 {
        acc = acc.wrapping_add(i).rotate_left(3);
    }
    sink.fetch_add(acc, Ordering::Relaxed);
}

/// `ablation_work_stealing`: dynamic block dealing for local assembly
/// against a static block partition, on a synthetic workload with heavily
/// skewed per-item costs (§II-G; the paper reports the load balance rising
/// from ~0.33 to ~0.55 at scale).
pub fn ablation_work_stealing() {
    let items = 2_000usize;
    let ranks = ranks_up_to(8);
    let sink = AtomicU64::new(0);
    let records: Vec<Record> = [("static blocks", false), ("dynamic work stealing", true)]
        .into_iter()
        .map(|(name, dynamic)| {
            let team = AssemblyConfig::default().team(ranks);
            let start = std::time::Instant::now();
            let work = team.run(|ctx| {
                let mut my_cost = 0u64;
                if dynamic {
                    let blocks = ctx.share(|| DynamicBlocks::new(items, 8));
                    blocks.drive(ctx, |i| {
                        busy(cost(i), &sink);
                        my_cost += cost(i);
                    });
                } else {
                    for i in ctx.block_range(items) {
                        busy(cost(i), &sink);
                        my_cost += cost(i);
                    }
                }
                ctx.barrier();
                my_cost as f64
            });
            vec![
                ("Strategy", name.to_string()),
                ("Wall-clock (s)", fmt(start.elapsed().as_secs_f64(), 3)),
                ("Load balance (avg/max)", fmt(load_balance_ratio(&work), 2)),
                ("Steals", team.stats_total().steals.to_string()),
            ]
        })
        .collect();
    print_table("Ablation — local-assembly work distribution", &records);
}

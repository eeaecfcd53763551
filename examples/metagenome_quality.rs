//! Assemble the MG64-substitute community (the paper's quality benchmark) and
//! compare MetaHipMer against its HipMer single-genome mode — the
//! experiment that motivates metagenome-specific assembly (Table I, bottom
//! row).
//!
//! Run with `cargo run --release --example metagenome_quality`.

use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;

fn main() {
    let dataset = mgsim::mg64_sim(mgsim::Mg64Scale::Tiny, 7);
    println!(
        "MG64-sim (tiny): {} genomes, {} read pairs",
        dataset.refs.len(),
        dataset.library.num_pairs()
    );
    let team = Team::single_node(4);
    let eval = asm_metrics::EvalParams {
        min_block: 200,
        length_thresholds: vec![1_000, 2_500, 5_000],
        ..Default::default()
    };
    for (name, assembler) in [
        ("MetaHipMer", MetaHipMer::new(AssemblyConfig::default())),
        ("HipMer", MetaHipMer::hipmer_mode(AssemblyConfig::default())),
    ] {
        let out = assembler.assemble(&team, &dataset.library, Some(&dataset.rrna_consensus));
        let report = asm_metrics::evaluate(&out.sequences(), &dataset.refs, &eval);
        println!(
            "{:<12} scaffolds={:<4} N50={:<6} genome-fraction={:>5.1}%  misassemblies={}  rRNA={}/{}",
            name,
            out.scaffolds.len(),
            out.scaffolds.n50(),
            100.0 * report.genome_fraction,
            report.misassemblies,
            report.rrna_recovered,
            report.rrna_total,
        );
        // Per-genome coverage of the five least-abundant genomes: this is
        // where the metagenome-specific algorithms earn their keep.
        let mut per = report.per_genome.clone();
        per.sort_by_key(|a| a.covered);
        for g in per.iter().take(5) {
            println!(
                "    {:<14} {:>6} bp  covered {:>5.1}%  NGA50 {}",
                g.name,
                g.genome_len,
                100.0 * g.genome_fraction,
                g.nga50
            );
        }
    }
}

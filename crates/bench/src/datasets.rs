//! The dataset registry: every simulated input a row of the runner
//! assembles, named once. The name is what tables print and what every
//! `BENCH_*.json` snapshot records as its `"dataset"` ([`crate::write_snapshot`]
//! reads it from here), so a label cannot disagree with the data it labels.
//! Every community is drawn at [`SEED`]; `MHM_SCALE` ([`crate::scale`])
//! enlarges the ones whose rows are about size.

use crate::{scaffold_digest, scale, scaled_eval_params, Run};
use mgsim::{Mg64Scale, SimDataset};
use mhm_core::{AssemblyOutput, MetaHipMer};

/// The seed of every registry dataset (the weak-scaling series adds its step).
pub const SEED: u64 = 20260614;

/// A simulated dataset under its registry name.
pub struct Dataset {
    pub name: String,
    pub sim: SimDataset,
}

impl Dataset {
    fn new(name: impl Into<String>, sim: SimDataset) -> Self {
        Dataset {
            name: name.into(),
            sim,
        }
    }

    /// Assembles the dataset with `assembler` on a team of `ranks` built from
    /// its configuration (`AssemblyConfig::team`).
    pub fn run(&self, assembler: &MetaHipMer, ranks: usize) -> Run {
        let team = assembler.config.team(ranks);
        let output = assembler.assemble(&team, &self.sim.library, Some(&self.sim.rrna_consensus));
        Run {
            ranks,
            digest: scaffold_digest(&output.sequences()),
            per_rank: team.stats_per_rank(),
            output,
        }
    }

    /// Evaluates an assembly against the dataset's references.
    pub fn evaluate(&self, output: &AssemblyOutput) -> asm_metrics::AssemblyReport {
        asm_metrics::evaluate(&output.sequences(), &self.sim.refs, &scaled_eval_params())
    }
}

/// The 18-genome MG64 community every CI guard runs on. The default
/// configuration assembles it into 615 scaffolds, digest `ac1504b5c8e93641`,
/// at every rank count.
pub fn mg64_tiny() -> Dataset {
    Dataset::new("mg64_tiny", mgsim::mg64_sim(Mg64Scale::Tiny, SEED))
}

/// Table I's 64-genome MG64: `Small`, or `Standard` when `MHM_SCALE` > 1.
pub fn mg64() -> Dataset {
    if scale() > 1 {
        Dataset::new("mg64_standard", mgsim::mg64_sim(Mg64Scale::Standard, SEED))
    } else {
        Dataset::new("mg64_small", mgsim::mg64_sim(Mg64Scale::Small, SEED))
    }
}

/// Wetlands at `lanes × MHM_SCALE` lanes: 3 is the paper's subset (Figures
/// 4–5 and the grand challenge's baseline), 21 the full sample.
pub fn wetlands(lanes: usize) -> Dataset {
    let lanes = lanes * scale();
    Dataset::new(
        format!("wetlands_{lanes}lane"),
        mgsim::wetlands_sim(lanes, SEED),
    )
}

/// Two genomes ~100× apart in abundance (the §II-C threshold scenario).
pub fn two_species() -> Dataset {
    Dataset::new("two_species_skewed", mgsim::two_species_skewed(SEED))
}

/// Step `step` of Table II's weak-scaling series: `5 · MHM_SCALE · 2^step`
/// taxa and proportionally many reads.
pub fn weak_scaling(step: usize) -> Dataset {
    let taxa = (5 * scale()) << step;
    Dataset::new(
        format!("weak_scaling_{taxa}taxa"),
        mgsim::weak_scaling_dataset(taxa, SEED + step as u64),
    )
}

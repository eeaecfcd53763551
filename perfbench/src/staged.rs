//! The staged driver: `mhm_core::pipeline`'s `assemble_rank`, re-driven from
//! the outside with a span around every call into a layer.
//!
//! It calls the public functions `core::pipeline` calls, in its order, each
//! from exactly one call site here, for the one configuration the benchmark
//! runs (the default: sharded reads and contigs, local assembly, scaffolding,
//! no checkpointing). `scaffold_ref` is opened into its three public parts,
//! which the pipeline's own `StageTimings` cannot see. The caller proves this
//! is the real pipeline by comparing the scaffold digest with
//! `MetaHipMer::try_assemble`'s on the same input.

use crate::trace::{Recorder, Span};
use aligner::{
    align_reads_ref, build_seed_index_ref, localize_pairs, AlignmentSet, ReadDistribution,
};
use dbg::{
    build_graph, inject_contig_kmers_ref, kmer_analysis_from, merge_bubbles_and_remove_hair,
    prune_iteratively, traverse_contigs, ContigSet, ContigStore, ContigsRef,
};
use mhm_core::local_assembly::extend_contigs_locally_ref;
use mhm_core::AssemblyConfig;
use pgas::{Ctx, RankFault, Team};
use readstore::{ReadStore, ReadsRef};
use rrna_hmm::RrnaDetector;
use scaffolding::{build_links_ref, close_gaps_ref, traverse_contig_graph_ref, ScaffoldSet};
use seqio::{ReadId, ReadLibrary};
use std::sync::Arc;
use std::time::Instant;

/// What one traced run produced.
pub struct StagedRun {
    pub scaffolds: ScaffoldSet,
    /// Spans per rank, in rank order.
    pub spans: Vec<Vec<Span>>,
    /// Contigs each rank walked during local assembly.
    pub local_assembly_work: Vec<usize>,
    /// Wall seconds of the whole traced run, spans and barriers included.
    pub wall_s: f64,
}

/// Runs the staged pipeline on `team`, as `MetaHipMer::try_assemble` would.
///
/// # Panics
/// Panics if `cfg` is not the kind of configuration the staged driver mirrors.
pub fn run(
    team: &Arc<Team>,
    cfg: &AssemblyConfig,
    library: &ReadLibrary,
    rrna_consensus: Option<&[u8]>,
) -> Result<StagedRun, RankFault> {
    assert!(
        cfg.use_distributed_contigs
            && cfg.use_distributed_reads
            && cfg.local_assembly
            && cfg.scaffolding
            && cfg.checkpoint_dir.is_none(),
        "the staged driver mirrors the default pipeline configuration only"
    );
    let detector = rrna_consensus
        .filter(|c| !c.is_empty())
        .map(RrnaDetector::from_consensus);
    team.set_hierarchical_exchange(cfg.use_hierarchical_exchange);
    let epoch = Instant::now();
    let per_rank = team.try_run(|ctx| {
        let mut rec = Recorder::new(epoch);
        let (scaffolds, work) = rec.group("core.assemble", None, |rec| {
            assemble_rank(ctx, cfg, library, detector.as_ref(), rec)
        });
        (scaffolds, work, rec.into_spans())
    })?;
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut scaffolds = None;
    let mut spans = Vec::new();
    let mut local_assembly_work = Vec::new();
    for (set, work, rank_spans) in per_rank {
        scaffolds.get_or_insert(set);
        local_assembly_work.push(work);
        spans.push(rank_spans);
    }
    Ok(StagedRun {
        scaffolds: scaffolds.expect("at least one rank"),
        spans,
        local_assembly_work,
        wall_s,
    })
}

/// Shards a freshly produced contig set, as the pipeline's holder does.
fn store_contigs(
    ctx: &Ctx,
    cfg: &AssemblyConfig,
    set: ContigSet,
    rec: &mut Recorder,
) -> Arc<ContigStore> {
    rec.call(ctx, "dbg.contig_store_build", || {
        ContigStore::build(ctx, &set, &cfg.contig_store_params())
    })
}

/// One alignment round: seed index over the current contigs, then this
/// rank's reads streamed from the store against it.
fn align(
    ctx: &Ctx,
    cfg: &AssemblyConfig,
    reads: &ReadStore,
    ids: Vec<ReadId>,
    contigs: &ContigStore,
    rec: &mut Recorder,
) -> AlignmentSet {
    let contigs = ContigsRef::Store(contigs);
    // The span's barrier stands in for the pipeline's own between the two.
    let index = rec.call(ctx, "aligner.seed_index_build", || {
        build_seed_index_ref(ctx, contigs, cfg.align.seed_len)
    });
    rec.call(ctx, "aligner.align", || {
        align_reads_ref(ctx, reads.stream(ctx, ids), contigs, &index, &cfg.align)
    })
}

fn read_ids_of(ctx: &Ctx, library: &ReadLibrary, distribution: &ReadDistribution) -> Vec<ReadId> {
    if library.paired {
        distribution.read_ids_of(ctx.rank())
    } else {
        distribution.pairs_of(ctx.rank()).to_vec()
    }
}

fn assemble_rank(
    ctx: &Ctx,
    cfg: &AssemblyConfig,
    library: &ReadLibrary,
    rrna: Option<&RrnaDetector>,
    rec: &mut Recorder,
) -> (ScaffoldSet, usize) {
    let num_pairs = if library.paired {
        library.num_pairs()
    } else {
        library.num_reads()
    };
    let mut distribution = ReadDistribution::block(num_pairs, ctx.ranks());
    let mut contigs: Option<Arc<ContigStore>> = None;
    let mut local_work = 0usize;

    let reads = rec.call(ctx, "readstore.build", || {
        ReadStore::build(ctx, library, &cfg.read_store_params())
    });

    let k_values = cfg.k_values();
    for (iter, &k) in k_values.iter().enumerate() {
        let extended = rec.group("core.k_iteration", Some(iter), |rec| {
            let my_read_ids = read_ids_of(ctx, library, &distribution);

            let analysis = rec.call(ctx, "dbg.kmer_analysis", || {
                let mut source = reads.owned_reads(ctx);
                kmer_analysis_from(ctx, &mut source, &cfg.analysis_params(k))
            });
            if let Some(prev) = &contigs {
                rec.call(ctx, "dbg.kmer_merging", || {
                    inject_contig_kmers_ref(
                        ctx,
                        &analysis.counts,
                        ContigsRef::Store(prev),
                        k,
                        cfg.min_kmer_count,
                    )
                });
            }

            let graph = rec.call(ctx, "dbg.graph_build", || {
                build_graph(ctx, &analysis.counts, cfg.threshold)
            });
            let mut current = rec.call(ctx, "dbg.traversal", || {
                traverse_contigs(ctx, &graph, k, &cfg.traversal_params())
            });
            if cfg.bubble_merging {
                current = rec.call(ctx, "dbg.bubble_merge", || {
                    merge_bubbles_and_remove_hair(ctx, &current, &graph, &cfg.bubble).0
                });
            }
            if cfg.pruning {
                current = rec.call(ctx, "dbg.pruning", || {
                    prune_iteratively(ctx, &current, &graph, &cfg.prune).0
                });
            }
            let cleaned = store_contigs(ctx, cfg, current, rec);

            let alignments = align(ctx, cfg, &reads, my_read_ids, &cleaned, rec);

            let (set, work) = rec.call(ctx, "core.local_assembly", || {
                extend_contigs_locally_ref(
                    ctx,
                    ContigsRef::Store(&cleaned),
                    &alignments,
                    ReadsRef::Store(&reads),
                    &cfg.local,
                )
            });
            local_work += work;
            let extended = store_contigs(ctx, cfg, set, rec);

            if cfg.read_localization && iter + 1 != k_values.len() {
                distribution = rec.call(ctx, "aligner.localize", || {
                    localize_pairs(ctx, num_pairs, &alignments.alignments)
                });
            }
            extended
        });
        contigs = Some(extended);
    }

    let final_contigs = contigs.expect("the k schedule has at least one iteration");
    assert!(
        !final_contigs.is_empty(),
        "contig generation produced nothing to scaffold"
    );
    // Local assembly changed the contigs, so scaffolding re-aligns the reads.
    let ids = read_ids_of(ctx, library, &distribution);
    let alignments = align(ctx, cfg, &reads, ids, &final_contigs, rec);
    let contigs_ref = ContigsRef::Store(&final_contigs);
    let links = rec.call(ctx, "scaffolding.links", || {
        build_links_ref(
            ctx,
            contigs_ref,
            &alignments,
            ReadsRef::Store(&reads),
            &cfg.scaffold.links,
        )
    });
    let gapped = rec.call(ctx, "scaffolding.traversal", || {
        traverse_contig_graph_ref(ctx, contigs_ref, &links, rrna, &cfg.scaffold.traversal)
    });
    let scaffolds = rec.call(ctx, "scaffolding.gap_closing", || {
        close_gaps_ref(ctx, contigs_ref, gapped, &links, &cfg.scaffold.gap_closing).0
    });
    // The output contract owes callers the full contig set, regathered once.
    rec.call(ctx, "dbg.contig_materialize", || {
        final_contigs.materialize(ctx)
    });
    (scaffolds, local_work)
}

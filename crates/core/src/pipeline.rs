//! The MetaHipMer pipeline: iterative contig generation + scaffolding.

use crate::checkpoint;
use crate::config::AssemblyConfig;
use crate::local_assembly::extend_contigs_locally_ref;
use crate::timing::StageTimings;
use aligner::{
    align_reads_ref, build_seed_index_ref, localize_reads, AlignmentSet, ReadDistribution,
};
use dbg::{
    build_graph, clean_contigs, inject_contig_kmers_ref, kmer_analysis_from, traverse_contigs,
    ContigMeta, ContigSet, ContigStore, ContigsRef, ThresholdPolicy,
};
use pgas::{Ctx, RankFault, StatsSnapshot, Team};
use readstore::{ReadStore, ReadsRef};
use rrna_hmm::RrnaDetector;
use scaffolding::{scaffold_ref, Scaffold, ScaffoldEntry, ScaffoldSet};
use seqio::{ReadId, ReadLibrary};
use std::sync::Arc;
use std::time::Instant;

/// Aligns `ids` (in order), streamed one-sided out of the read store with
/// no per-read copy, against the current contigs.
fn align(
    ctx: &Ctx,
    reads: &ReadStore,
    ids: Vec<ReadId>,
    contigs: &ContigStore,
    params: &aligner::AlignParams,
) -> AlignmentSet {
    let contigs = ContigsRef::Store(contigs);
    let index = build_seed_index_ref(ctx, contigs, params.seed_len);
    ctx.barrier();
    align_reads_ref(ctx, reads.stream(ctx, ids), contigs, &index, params)
}

/// Everything a MetaHipMer run produces.
#[derive(Debug, Clone)]
pub struct AssemblyOutput {
    /// The final gap-closed scaffolds (the assembly).
    pub scaffolds: ScaffoldSet,
    /// The final contigs (before scaffolding).
    pub contigs: ContigSet,
    /// Per-stage `(name, max-seconds-across-ranks, summed communication)`.
    pub stages: Vec<(String, f64, StatsSnapshot)>,
    /// End-to-end wall-clock seconds (max across ranks).
    pub total_seconds: f64,
    /// Per-rank contigs processed during local assembly (load-balance signal).
    pub local_assembly_work: Vec<usize>,
}

impl AssemblyOutput {
    /// The assembly as plain sequences (input to `asm_metrics::evaluate`).
    pub fn sequences(&self) -> Vec<Vec<u8>> {
        self.scaffolds.sequences()
    }

    /// Seconds attributed to one stage.
    pub fn stage_seconds(&self, stage: &str) -> f64 {
        self.stages
            .iter()
            .find(|(n, _, _)| n == stage)
            .map(|(_, s, _)| *s)
            .unwrap_or(0.0)
    }

    /// Communication snapshot of one stage.
    pub fn stage_stats(&self, stage: &str) -> StatsSnapshot {
        self.stages
            .iter()
            .find(|(n, _, _)| n == stage)
            .map(|(_, _, s)| *s)
            .unwrap_or_default()
    }
}

/// The MetaHipMer assembler.
#[derive(Debug, Clone, Default)]
pub struct MetaHipMer {
    pub config: AssemblyConfig,
}

impl MetaHipMer {
    /// Creates an assembler with the given configuration.
    ///
    /// # Panics
    /// Panics with the [`AssemblyConfig::validate`] message if the
    /// configuration is inconsistent, so a bad field fails here by name
    /// instead of as an obscure panic mid-assembly.
    pub fn new(config: AssemblyConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid assembly configuration: {msg}");
        }
        MetaHipMer { config }
    }

    /// The HipMer (single-genome) configuration used as a Table I baseline:
    /// one k value, a global extension threshold, and none of the
    /// metagenome-specific passes.
    pub fn hipmer_mode(mut config: AssemblyConfig) -> Self {
        config.k_min = config.k_max;
        config.threshold = ThresholdPolicy::hipmer_default();
        config.bubble_merging = false;
        config.pruning = false;
        config.read_localization = false;
        MetaHipMer::new(config)
    }

    /// Assembles a read library on a team of ranks. This is the library-level
    /// entry point used by examples, tests and benches; it drives the SPMD
    /// region internally and returns rank 0's (identical) output.
    pub fn assemble(
        &self,
        team: &Arc<Team>,
        library: &ReadLibrary,
        rrna_consensus: Option<&[u8]>,
    ) -> AssemblyOutput {
        match self.try_assemble(team, library, rrna_consensus) {
            Ok(out) => out,
            Err(fault) => panic!("SPMD rank panicked: {fault}"),
        }
    }

    /// [`MetaHipMer::assemble`], but an injected rank fault (a
    /// [`pgas::FaultPlan`] armed on the team) surfaces as `Err` instead of a
    /// panic. With `checkpoint_dir` set, the state committed before the
    /// fault survives on disk, and a follow-up run with `resume` — on a team
    /// of *any* rank count — completes the assembly with byte-identical
    /// scaffolds. This is the entry point of the fault-injection harness.
    pub fn try_assemble(
        &self,
        team: &Arc<Team>,
        library: &ReadLibrary,
        rrna_consensus: Option<&[u8]>,
    ) -> Result<AssemblyOutput, RankFault> {
        let detector = rrna_consensus
            .filter(|c| !c.is_empty())
            .map(RrnaDetector::from_consensus);
        let outputs = team.try_run(|ctx| self.assemble_rank(ctx, library, detector.as_ref()))?;
        Ok(outputs.into_iter().next().expect("at least one rank"))
    }

    /// The SPMD body: every rank calls this with its own context. Returns the
    /// same output on every rank.
    pub fn assemble_rank(
        &self,
        ctx: &Ctx,
        library: &ReadLibrary,
        rrna: Option<&RrnaDetector>,
    ) -> AssemblyOutput {
        let cfg = &self.config;
        let start = Instant::now();
        let mut timings = StageTimings::new();
        let num_pairs = if library.paired {
            library.num_pairs()
        } else {
            library.num_reads()
        };
        let mut distribution = ReadDistribution::block(num_pairs, ctx.ranks());
        let mut contigs: Option<Arc<ContigStore>> = None;
        let mut last_alignments = AlignmentSet::default();
        let mut local_work = 0usize;
        let mut start_iter = 0usize;

        // With `resume` set, pick up from the newest checkpoint whose
        // configuration fingerprint matches. Discovery is per-rank but
        // deterministic (no writer runs concurrently), so every rank agrees
        // on the checkpoint before any collective call.
        let resume_from = if cfg.resume {
            cfg.checkpoint_dir
                .as_deref()
                .and_then(|dir| checkpoint::find_latest(dir, cfg.fingerprint()))
        } else {
            None
        };

        // The input reads are materialised exactly once for the whole run:
        // restored from checkpoint shards on resume, otherwise packed into the
        // block-sharded read store, O(total/ranks + cache) bytes per rank.
        let reads = if let Some((manifest, path)) = resume_from {
            let (reads, restored_contigs, restored_distribution) =
                timings.time(ctx, "checkpoint_restore", || {
                    self.restore_checkpoint(ctx, num_pairs, manifest, &path)
                });
            start_iter = restored_contigs.1;
            contigs = Some(restored_contigs.0);
            distribution = restored_distribution;
            reads
        } else {
            timings.time(ctx, "read_ingestion", || {
                ReadStore::build(ctx, library, &cfg.read_store_params())
            })
        };

        let k_values = cfg.k_values();
        for (iter, &k) in k_values.iter().enumerate().skip(start_iter) {
            let my_read_ids: Vec<ReadId> = self.read_ids_of(ctx, library, &distribution);

            // --- 1. k-mer analysis ------------------------------------------
            // The store streams this rank's *owned* packed blocks (zero read
            // communication).
            let analysis = timings.time(ctx, "kmer_analysis", || {
                let mut source = reads.owned_reads(ctx);
                kmer_analysis_from(ctx, &mut source, &cfg.analysis_params(k))
            });

            // --- 2. merge k-mers extracted from the previous iteration -------
            // (an owner-local pass over the sharded contig store)
            if let Some(prev) = &contigs {
                timings.time(ctx, "kmer_merging", || {
                    inject_contig_kmers_ref(
                        ctx,
                        &analysis.counts,
                        ContigsRef::Store(prev),
                        k,
                        cfg.min_kmer_count,
                    )
                });
            }

            // --- 3. de Bruijn graph traversal --------------------------------
            let (graph, traversed) = timings.time(ctx, "graph_traversal", || {
                let graph = build_graph(ctx, &analysis.counts, cfg.threshold);
                let set = traverse_contigs(ctx, &graph, k, &cfg.traversal_params());
                (graph, set)
            });

            // --- 4. bubble merging / hair removal + iterative pruning --------
            // One pass over one contig adjacency. The freshly traversed set is then sharded into the distributed
            // contig store: everything downstream reads contig sequences
            // through it.
            let cleaned = timings.time(ctx, "bubble_pruning", || {
                let bubble = cfg.bubble_merging.then_some(&cfg.bubble);
                let pruning = cfg.pruning.then_some(&cfg.prune);
                let current = if bubble.is_some() || pruning.is_some() {
                    let (cleaned, _) = clean_contigs(ctx, &traversed, &graph, bubble, pruning);
                    drop(traversed);
                    cleaned
                } else {
                    traversed
                };
                ContigStore::build(ctx, &current, &cfg.contig_store_params())
            });
            // Nothing reads the k-mer table after this stage.
            drop((analysis, graph));

            // --- 5. read-to-contig alignment ----------------------------------
            let alignments = timings.time(ctx, "alignment", || {
                align(ctx, &reads, my_read_ids, &cleaned, &cfg.align)
            });

            // --- 6. local assembly (mer-walking) -------------------------------
            let is_last = iter + 1 == k_values.len();
            let extended = if cfg.local_assembly {
                let (set, work) = timings.time(ctx, "local_assembly", || {
                    let (set, work) = extend_contigs_locally_ref(
                        ctx,
                        ContigsRef::Store(&cleaned),
                        &alignments,
                        ReadsRef::Store(&reads),
                        &cfg.local,
                    );
                    (
                        ContigStore::build(ctx, &set, &cfg.contig_store_params()),
                        work,
                    )
                });
                local_work += work;
                set
            } else {
                cleaned
            };

            // --- 7. read localisation for the next iteration -------------------
            if cfg.read_localization && !is_last {
                distribution = timings.time(ctx, "read_localization", || {
                    localize_reads(ctx, num_pairs, &alignments.alignments, library.paired)
                });
            }
            last_alignments = alignments;
            contigs = Some(extended);

            // --- 8. checkpoint at the k-iteration boundary ---------------------
            // Everything the next iteration consumes is on disk after this:
            // a kill any time later loses at most the current iteration.
            if !is_last {
                if let Some(dir) = cfg.checkpoint_dir.clone() {
                    timings.time(ctx, "checkpoint_write", || {
                        self.write_checkpoint(
                            ctx,
                            &dir,
                            iter + 1,
                            num_pairs,
                            &reads,
                            contigs.as_ref().expect("contigs set this iteration"),
                            &distribution,
                        );
                    });
                }
            }
        }

        let final_contigs = contigs.expect("the k schedule has at least one iteration");

        // --- Scaffolding -------------------------------------------------------
        // (the full contig set the output contract owes callers is regathered
        // exactly once per branch, after every stage has run against the
        // sharded store)
        let (scaffolds, final_contigs) = if cfg.scaffolding && !final_contigs.is_empty() {
            let scaffolds = timings.time(ctx, "scaffolding", || {
                // Scaffolding aligns the reads onto the *final* contigs; reuse
                // the last alignment round only if local assembly is disabled
                // (otherwise the contigs changed and must be re-aligned).
                let alignments = if cfg.local_assembly {
                    let ids = self.read_ids_of(ctx, library, &distribution);
                    align(ctx, &reads, ids, &final_contigs, &cfg.align)
                } else {
                    last_alignments.clone()
                };
                scaffold_ref(
                    ctx,
                    ContigsRef::Store(&final_contigs),
                    &alignments,
                    ReadsRef::Store(&reads),
                    rrna,
                    &cfg.scaffold,
                )
                .0
            });
            (scaffolds, final_contigs.materialize(ctx))
        } else {
            // Emit each contig as its own scaffold.
            let set = final_contigs.materialize(ctx);
            let scaffolds = ScaffoldSet {
                scaffolds: set
                    .contigs
                    .iter()
                    .map(|c| Scaffold {
                        id: c.id,
                        entries: vec![ScaffoldEntry {
                            contig: c.id,
                            forward: true,
                            gap_after: None,
                            suspended_after: None,
                        }],
                        seq: c.seq.clone(),
                    })
                    .collect(),
            };
            (scaffolds, set)
        };

        let stages = timings.reduce(ctx);
        let total_seconds = ctx.allreduce_max_f64(start.elapsed().as_secs_f64());
        let work_per_rank = {
            let gathered = ctx.gather(vec![(ctx.rank(), local_work)]);
            ctx.broadcast(|| {
                let mut v = vec![0usize; ctx.ranks()];
                for (r, w) in gathered {
                    v[r] = w;
                }
                v
            })
        };
        AssemblyOutput {
            scaffolds,
            contigs: final_contigs,
            stages,
            total_seconds,
            local_assembly_work: work_per_rank,
        }
    }

    /// **Collective**: exports this rank's slice of the cross-iteration
    /// state — the owned entries of the contig and read stores — and commits
    /// checkpoint `ckpt_<next_iter>` atomically.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &self,
        ctx: &Ctx,
        dir: &std::path::Path,
        next_iter: usize,
        num_pairs: usize,
        reads: &ReadStore,
        contigs: &ContigStore,
        distribution: &ReadDistribution,
    ) {
        let cfg = &self.config;
        let contig_meta: Vec<ContigMeta> = (0..contigs.num_contigs() as u64)
            .map(|id| contigs.meta(id).expect("meta table covers every id"))
            .collect();
        let manifest = checkpoint::Manifest {
            fingerprint: cfg.fingerprint(),
            ranks: ctx.ranks(),
            next_iter,
            num_pairs,
            barriers_at_commit: 0, // stamped by commit
            contig_k: contigs.k(),
            contig_meta,
            targets: (!distribution.targets.is_empty()).then(|| distribution.targets.clone()),
            read_header: reads.header(),
            conformance: Vec::new(), // stamped by commit
        };
        let shard = checkpoint::ShardData {
            contigs: contigs.map().local_entries(ctx),
            read_blocks: reads.map().local_entries(ctx),
        };
        checkpoint::commit(ctx, dir, manifest, &shard);
    }

    /// **Collective**: rebuilds the cross-iteration state from a committed
    /// checkpoint, re-partitioning every shard for this team's rank count.
    /// Returns the read store, `(contigs, next_iter)` and the read
    /// distribution — everything `assemble_rank`'s loop needs to continue
    /// exactly where the writer stopped.
    fn restore_checkpoint(
        &self,
        ctx: &Ctx,
        num_pairs: usize,
        manifest: checkpoint::Manifest,
        path: &std::path::Path,
    ) -> (Arc<ReadStore>, (Arc<ContigStore>, usize), ReadDistribution) {
        let cfg = &self.config;
        assert_eq!(
            manifest.num_pairs,
            num_pairs,
            "checkpoint at {} was written for a different input library",
            path.display()
        );
        let shard = checkpoint::load_shards_for_rank(path, ctx.rank(), ctx.ranks(), manifest.ranks)
            .unwrap_or_else(|e| panic!("checkpoint restore from {}: {e}", path.display()));

        let reads = ReadStore::restore(
            ctx,
            manifest.read_header,
            &cfg.read_store_params(),
            shard.read_blocks,
        );
        let contigs = ContigStore::restore(
            ctx,
            manifest.contig_k,
            manifest.contig_meta,
            &cfg.contig_store_params(),
            shard.contigs,
        );

        let distribution = match manifest.targets {
            Some(targets) => ReadDistribution::from_targets(targets, ctx.ranks()),
            None => ReadDistribution::block(num_pairs, ctx.ranks()),
        };
        (reads, (contigs, manifest.next_iter), distribution)
    }

    fn read_ids_of(
        &self,
        ctx: &Ctx,
        library: &ReadLibrary,
        distribution: &ReadDistribution,
    ) -> Vec<ReadId> {
        if library.paired {
            distribution.read_ids_of(ctx.rank())
        } else {
            distribution.pairs_of(ctx.rank()).to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_metrics::{evaluate, EvalParams};
    use mgsim::{CommunityParams, ReadSimParams};
    use pgas::Team;

    /// A small two-genome community assembled end to end.
    fn small_dataset(seed: u64) -> (seqio::ReferenceSet, ReadLibrary, Vec<u8>) {
        let (refs, consensus) = mgsim::generate_community(&CommunityParams {
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
            &ReadSimParams {
                read_len: 90,
                insert_size: 280,
                insert_sd: 25,
                error_rate: 0.003,
                seed: seed + 1,
                ..Default::default()
            }
            .with_target_coverage(&refs, 22.0),
        );
        (refs, reads, consensus)
    }

    #[test]
    fn end_to_end_assembly_recovers_most_of_the_community() {
        let (refs, library, consensus) = small_dataset(41);
        let cfg = AssemblyConfig::small_test();
        let mhm = MetaHipMer::new(cfg);
        let team = Team::single_node(4);
        let out = mhm.assemble(&team, &library, Some(&consensus));
        assert!(!out.scaffolds.is_empty(), "no scaffolds produced");
        let report = evaluate(
            &out.sequences(),
            &refs,
            &EvalParams {
                min_block: 200,
                length_thresholds: vec![1_000, 2_000],
                ..Default::default()
            },
        );
        assert!(
            report.genome_fraction > 0.85,
            "genome fraction too low: {} ({})",
            report.genome_fraction,
            report.summary_line()
        );
        assert!(
            report.misassemblies <= 2,
            "too many misassemblies: {}",
            report.misassemblies
        );
        // Stage accounting covers the whole pipeline, every k-mer-analysis
        // byte on the wire is supermer payload, the records a rank keeps
        // (counted in `supermer_bytes`) never travel, and the stage says what
        // it counted and how little of it it kept.
        let analysis = out.stage_stats("kmer_analysis");
        assert!(analysis.supermer_bytes > 0);
        assert!(analysis.bytes_sent > 0);
        assert!(analysis.bytes_sent < analysis.supermer_bytes);
        assert!(analysis.kmer_table_inserts > 0);
        assert!(analysis.kmer_table_inserts < analysis.kmer_observations);
        assert!(out.stage_seconds("kmer_analysis") > 0.0);
        assert!(out.stage_seconds("alignment") > 0.0);
        assert!(out.stage_seconds("scaffolding") > 0.0);
        assert!(out.total_seconds > 0.0);
        assert_eq!(out.local_assembly_work.len(), 4);
    }

    #[test]
    fn unpaired_reads_are_localised_by_read_and_assemble_rank_invariantly() {
        let (refs, paired, consensus) = small_dataset(47);
        let mut library = ReadLibrary::new_unpaired("unpaired");
        for read in paired.reads {
            library.push_read(read);
        }
        let cfg = AssemblyConfig::small_test();
        let mhm = MetaHipMer::new(cfg.clone());
        // The pipeline's localisation step, on alignments to the genomes.
        let ranks = 2;
        let per_rank = Team::single_node(ranks).run(|ctx| {
            let reads = ReadStore::build(ctx, &library, &cfg.read_store_params());
            let genomes = ContigSet::from_sequences(
                21,
                refs.genomes.iter().map(|g| (g.seq.clone(), 1.0)).collect(),
            );
            let store = ContigStore::build(ctx, &genomes, &cfg.contig_store_params());
            let block = ReadDistribution::block(library.num_reads(), ctx.ranks());
            let ids = mhm.read_ids_of(ctx, &library, &block);
            let alignments = align(ctx, &reads, ids, &store, &cfg.align).alignments;
            let localised = localize_reads(ctx, library.num_reads(), &alignments, library.paired);
            (alignments, mhm.read_ids_of(ctx, &library, &localised))
        });
        // Every read's best contig: most matches, ties to the lower id.
        let mut best: std::collections::HashMap<ReadId, (usize, u64)> = Default::default();
        for a in per_rank.iter().flat_map(|(alignments, _)| alignments) {
            let entry = best.entry(a.read_id).or_insert((0, u64::MAX));
            if (a.matches, u64::MAX - a.contig) > (entry.0, u64::MAX - entry.1) {
                *entry = (a.matches, a.contig);
            }
        }
        let n = library.num_reads() as ReadId;
        assert!(
            best.keys().any(|&r| r >= n / 2),
            "reads past the first half align too"
        );
        let mut owned: Vec<ReadId> = Vec::new();
        for (rank, (_, mine)) in per_rank.iter().enumerate() {
            for r in mine {
                if let Some(&(_, contig)) = best.get(r) {
                    assert_eq!(
                        contig % ranks as u64,
                        rank as u64,
                        "read {r} off its contig"
                    );
                }
            }
            owned.extend(mine);
        }
        owned.sort_unstable();
        assert_eq!(owned, (0..n).collect::<Vec<_>>(), "every read owned once");

        let out1 = mhm.assemble(&Team::single_node(1), &library, Some(&consensus));
        let out2 = mhm.assemble(&Team::single_node(2), &library, Some(&consensus));
        assert!(!out1.scaffolds.is_empty(), "the unpaired library assembled");
        assert_eq!(out1.sequences(), out2.sequences(), "1 and 2 ranks differ");
    }

    #[test]
    fn assembly_is_rank_count_invariant() {
        let (_refs, library, consensus) = small_dataset(43);
        let mut cfg = AssemblyConfig::small_test();
        // Read localisation changes which rank aligns which read (not the
        // result); keep it on to exercise the path.
        cfg.local_assembly = false; // keep the comparison strict and fast
        let mhm = MetaHipMer::new(cfg);
        let out1 = mhm.assemble(&Team::single_node(1), &library, Some(&consensus));
        let out3 = mhm.assemble(&Team::single_node(3), &library, Some(&consensus));
        let mut seqs1 = out1.sequences();
        let mut seqs3 = out3.sequences();
        seqs1.sort();
        seqs3.sort();
        assert_eq!(seqs1, seqs3, "assembly must not depend on the rank count");
    }

    #[test]
    fn iterative_multi_k_matches_single_k_on_easy_data() {
        // On a small, evenly covered community a single small k already
        // assembles everything, so the iterative schedule must not *hurt*;
        // the benefit of multiple k values on uneven-coverage communities is
        // demonstrated by the threshold/iteration ablation benches instead.
        let (_refs, library, consensus) = small_dataset(47);
        let multi = MetaHipMer::new(AssemblyConfig::small_test());
        let single = MetaHipMer::new(AssemblyConfig {
            k_max: 21,
            ..AssemblyConfig::small_test()
        });
        let team = Team::single_node(2);
        let out_multi = multi.assemble(&team, &library, Some(&consensus));
        let out_single = single.assemble(&team, &library, Some(&consensus));
        let (multi_n50, single_n50) = (out_multi.scaffolds.n50(), out_single.scaffolds.n50());
        assert!(
            multi_n50 as f64 >= 0.9 * single_n50 as f64,
            "multi-k N50 {multi_n50} much worse than single-k N50 {single_n50}"
        );
        assert!(
            out_multi.scaffolds.total_bases() as f64
                >= 0.9 * out_single.scaffolds.total_bases() as f64
        );
    }

    /// The assembly of `small_dataset(61)` at commit b7c4a00 with the
    /// replicated read library as the reference: 5 scaffolds, the same at 1
    /// and 3 ranks. Re-derive it if `small_dataset` changes.
    const READ_STORE_DIGEST: u64 = 0x3544_1519_71a4_2877;
    /// The per-rank resident bytes of that library replicated on every rank
    /// (sequence, quality and name bytes), the same at 1 and 3 ranks.
    const REPLICATED_READ_BYTES: u64 = 418_984;

    #[test]
    fn distributed_read_store_does_not_change_the_assembly() {
        // The block-sharded read store is a pure memory optimisation: the
        // same reads reach every stage (streamed, fetched one-sided, or
        // pooled collectively), so the scaffolds must be byte-identical to
        // the replicated baseline's at any rank count.
        let (_refs, library, consensus) = small_dataset(61);
        let cfg = AssemblyConfig::small_test();
        for ranks in [1usize, 3] {
            let team = Team::single_node(ranks);
            let out = MetaHipMer::new(cfg.clone()).assemble(&team, &library, Some(&consensus));
            let seqs = out.sequences();
            assert_eq!(seqs.len(), 5, "{ranks} ranks");
            assert_eq!(
                crate::sequence_digest(&seqs),
                READ_STORE_DIGEST,
                "read-store mode must not change the assembly at {ranks} ranks"
            );
            // The store only ever holds packed bytes, so every rank comes in
            // under the replica.
            for stats in team.stats_per_rank() {
                assert!(stats.read_bytes_resident > 0);
                assert!(stats.read_bytes_resident < REPLICATED_READ_BYTES);
            }
            if ranks > 1 {
                assert!(
                    team.stats_total().read_fetch_bytes > 0,
                    "a multi-rank store run must fetch foreign read blocks"
                );
            }
        }
    }

    /// The flat rank-to-rank exchange's off-node `(messages, bytes)` for
    /// `small_dataset(59)` on 4 ranks at 2 per node without local assembly,
    /// measured at commit 6297b1c, the last with that path. Re-derive it if
    /// `small_dataset` or the configuration changes. The bytes are
    /// re-derived by the rule beside `mhm_bench`'s `FLAT_STAGE_OFF_NODE`
    /// (bubble merging, pruning and the scaffold components send no
    /// collective traffic); the messages stay an upper bound.
    const FLAT_OFF_NODE: (u64, u64) = (758, 2_625_460);

    #[test]
    fn node_leader_routing_does_not_change_the_assembly() {
        // Two-level routing is a pure transport optimisation: the scaffolds
        // of the direct single-node path, the flat path's off-node payload
        // bytes (every byte crosses the interconnect exactly once), fewer
        // off-node messages.
        let (_refs, library, consensus) = small_dataset(59);
        let mut cfg = AssemblyConfig::small_test();
        cfg.local_assembly = false; // keep the comparison fast
        cfg.ranks_per_node = 2;
        let routed_team = cfg.team(4);
        assert_eq!(routed_team.topology().nodes(), 2);
        let direct_team = Team::single_node(4);
        let mhm = MetaHipMer::new(cfg);
        let mut routed = mhm
            .assemble(&routed_team, &library, Some(&consensus))
            .sequences();
        let mut direct = mhm
            .assemble(&direct_team, &library, Some(&consensus))
            .sequences();
        routed.sort();
        direct.sort();
        assert_eq!(routed.len(), 10);
        assert_eq!(
            routed, direct,
            "node-leader routing must be byte-identical to the direct exchange"
        );
        let s = routed_team.stats_total();
        let (flat_msgs, flat_bytes) = FLAT_OFF_NODE;
        assert_eq!(
            s.off_node_bytes, flat_bytes,
            "off-node payload bytes are those of the flat path"
        );
        assert!(
            s.off_node_msgs < flat_msgs,
            "expected fewer off-node messages: routed={} flat={flat_msgs}",
            s.off_node_msgs
        );
        assert_eq!(direct_team.stats_total().off_node_msgs, 0);
    }

    #[test]
    fn without_scaffolding_every_contig_is_its_own_gap_free_scaffold() {
        let (_refs, library, consensus) = small_dataset(53);
        let cfg = AssemblyConfig {
            scaffolding: false,
            ..AssemblyConfig::small_test()
        };
        let out = MetaHipMer::new(cfg).assemble(&Team::single_node(2), &library, Some(&consensus));
        assert!(!out.scaffolds.is_empty(), "no contigs emitted");
        for scaffold in &out.scaffolds.scaffolds {
            assert_eq!(scaffold.entries.len(), 1, "a scaffold joined contigs");
            assert!(!scaffold.seq.contains(&b'N'), "a scaffold has a gap");
        }
    }

    #[test]
    fn hipmer_mode_disables_metagenome_passes() {
        let mhm = MetaHipMer::hipmer_mode(AssemblyConfig::small_test());
        assert_eq!(mhm.config.k_values().len(), 1);
        assert!(!mhm.config.bubble_merging);
        assert!(!mhm.config.pruning);
        assert!(matches!(
            mhm.config.threshold,
            ThresholdPolicy::Global { .. }
        ));
    }
}

//! Pipeline configuration.

use aligner::AlignParams;
use dbg::{BubbleParams, KmerAnalysisParams, PruningParams, ThresholdPolicy, TraversalParams};
use scaffolding::ScaffoldParams;

use crate::local_assembly::LocalAssemblyParams;

/// Configuration of a MetaHipMer run.
#[derive(Debug, Clone)]
pub struct AssemblyConfig {
    /// Smallest k of the iterative contig generation.
    pub k_min: usize,
    /// Largest k (inclusive; the iteration stops at the largest value of the
    /// form `k_min + i*k_step` that does not exceed it).
    pub k_max: usize,
    /// Step s between successive k values.
    pub k_step: usize,
    /// Minimum k-mer count ε.
    pub min_kmer_count: u32,
    /// Minimizer length m for supermer routing (clamped to each iteration's
    /// k and to `kmers::MAX_MINIMIZER_LEN`).
    pub minimizer_len: usize,
    /// Contig sequences are served from the sharded `dbg::ContigStore`
    /// (2-bit packed, owner-rank sharded, read through per-rank byte-bounded
    /// caches); there is no other contig path. Must be `true`
    /// ([`AssemblyConfig::validate`] rejects `false`); removed with the
    /// ledger's `staged.rs` by the ROADMAP's \[bench\] item.
    pub use_distributed_contigs: bool,
    /// Per-rank bound (packed bytes) of each contig reader's software cache.
    pub contig_cache_bytes: usize,
    /// Read sequences are served from the sharded `readstore::ReadStore`
    /// (2-bit packed with run-length-encoded qualities, block-sharded by
    /// owner rank, streamed through per-rank byte-bounded caches); there is
    /// no other read path. Must be `true` ([`AssemblyConfig::validate`]
    /// rejects `false`); removed with the ledger's `staged.rs` by the
    /// ROADMAP's \[bench\] item.
    pub use_distributed_reads: bool,
    /// Per-rank bound (packed bytes) of each read reader's software cache.
    pub read_cache_bytes: usize,
    /// Reads per packed block in the distributed read store (rounded down to
    /// even for paired libraries so mates always share a block).
    pub read_block_reads: usize,
    /// Ranks per simulated node (the paper runs 32 per Cori node). The
    /// default, `usize::MAX`, means "all ranks on one node" (the value is
    /// clamped to the rank count when the topology is built), matching the
    /// historical single-node harness behaviour; any other value groups
    /// ranks that many to a node but need not divide evenly (the last node
    /// may be partial). `0` is invalid — [`AssemblyConfig::validate`]
    /// rejects it up front instead of letting the topology layer panic.
    /// See [`AssemblyConfig::topology`].
    pub ranks_per_node: usize,
    /// Route aggregated exchanges through node leaders (gather at the source
    /// node's leader, one combined message per destination node, scatter
    /// on-node): up to `ranks_per_node`× fewer off-node messages per
    /// direction, byte-identical assembly. `false` keeps the flat
    /// rank-to-rank all-to-all — the ablation baseline of the
    /// `ablation_topology` row of `mhm_bench`. No effect on a single-node
    /// topology.
    pub use_hierarchical_exchange: bool,
    /// Extension-threshold policy (dynamic for MetaHipMer, global for HipMer).
    pub threshold: ThresholdPolicy,
    /// Run bubble merging and hair removal.
    pub bubble_merging: bool,
    /// Run iterative graph pruning.
    pub pruning: bool,
    /// Run local assembly (mer-walking contig extension).
    pub local_assembly: bool,
    /// Apply the read-localisation optimisation between iterations.
    pub read_localization: bool,
    /// Run scaffolding after contig generation (otherwise contigs are emitted
    /// as single-contig scaffolds).
    pub scaffolding: bool,
    /// Drop final contigs shorter than this before scaffolding.
    pub min_contig_len: usize,
    /// Alignment parameters (shared by the local-assembly and scaffolding
    /// alignment rounds).
    pub align: AlignParams,
    /// Bubble-merging parameters.
    pub bubble: BubbleParams,
    /// Pruning parameters.
    pub prune: PruningParams,
    /// Local-assembly parameters.
    pub local: LocalAssemblyParams,
    /// Scaffolding parameters.
    pub scaffold: ScaffoldParams,
    /// Directory for checkpoints written at each k-iteration boundary
    /// (`None` — the default — disables checkpointing). Commits are atomic
    /// (staged in a temp dir, then renamed in), so a run killed mid-write
    /// never leaves a loadable-but-torn checkpoint behind. See
    /// `core::checkpoint`.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Resume from the latest valid checkpoint in `checkpoint_dir` whose
    /// configuration fingerprint matches, skipping the already-completed
    /// k iterations. The resuming team may have a *different* rank count
    /// than the writer: every shard is re-partitioned through the tables'
    /// partitioners on load (elastic resume), and the final scaffolds are
    /// byte-identical to an uninterrupted run.
    pub resume: bool,
}

impl Default for AssemblyConfig {
    fn default() -> Self {
        AssemblyConfig {
            k_min: 21,
            k_max: 43,
            k_step: 22,
            min_kmer_count: 2,
            minimizer_len: 15,
            use_distributed_contigs: true,
            contig_cache_bytes: 1 << 20,
            use_distributed_reads: true,
            read_cache_bytes: 1 << 20,
            read_block_reads: 64,
            ranks_per_node: usize::MAX,
            use_hierarchical_exchange: true,
            threshold: ThresholdPolicy::metahipmer_default(),
            bubble_merging: true,
            pruning: true,
            local_assembly: true,
            read_localization: true,
            scaffolding: true,
            min_contig_len: 0,
            align: AlignParams {
                seed_len: 15,
                stride: 5,
                min_aligned_len: 30,
                ..Default::default()
            },
            bubble: BubbleParams::default(),
            prune: PruningParams::default(),
            local: LocalAssemblyParams::default(),
            scaffold: ScaffoldParams::default(),
            checkpoint_dir: None,
            resume: false,
        }
    }
}

impl AssemblyConfig {
    /// Checks the cross-field invariants that would otherwise surface as
    /// obscure panics or hangs deep inside the pipeline (an empty k schedule
    /// or one past the packed k-mer width, an extension error rate under which
    /// nothing forks, a zero count cutoff, an unusable seed length, an empty
    /// lookup batch, a read block that splits pairs, a zero-rank node, a
    /// mer-walk schedule that cannot move). Called by
    /// [`crate::MetaHipMer::new`], so a bad configuration fails at
    /// construction with a message naming the field, not mid-assembly.
    pub fn validate(&self) -> Result<(), String> {
        for (field, on) in [
            ("use_distributed_contigs", self.use_distributed_contigs),
            ("use_distributed_reads", self.use_distributed_reads),
        ] {
            if !on {
                return Err(format!(
                    "{field} must be true, got false (the sharded stores are the only data path)"
                ));
            }
        }
        if self.k_min < 3 || self.k_min.is_multiple_of(2) {
            return Err(format!(
                "k_min must be odd and >= 3, got {} (even k makes a k-mer its own reverse complement)",
                self.k_min
            ));
        }
        if self.k_step < 2 || !self.k_step.is_multiple_of(2) {
            return Err(format!(
                "k_step must be even and >= 2 so every k stays odd, got {}",
                self.k_step
            ));
        }
        if self.k_max < self.k_min {
            return Err(format!(
                "k schedule is non-increasing: k_max {} < k_min {} leaves no iterations to run",
                self.k_max, self.k_min
            ));
        }
        let last_k = self.k_max - (self.k_max - self.k_min) % self.k_step;
        if last_k > dbg::MAX_K {
            return Err(format!(
                "k_max {} schedules k = {last_k}, past the largest supported k ({})",
                self.k_max,
                dbg::MAX_K
            ));
        }
        if let ThresholdPolicy::Dynamic { error_rate, .. } = self.threshold {
            if !(0.0..1.0).contains(&error_rate) {
                return Err(format!(
                    "threshold.error_rate must be in [0, 1), got {error_rate} (from 1 up no \
                     k-mer ever forks, so contigs would join across real branches)"
                ));
            }
        }
        if self.min_kmer_count == 0 {
            return Err(
                "min_kmer_count must be >= 1, got 0 (a k-mer is counted at least once)".to_string(),
            );
        }
        let seed_len = self.align.seed_len;
        if seed_len < 3 || seed_len.is_multiple_of(2) || seed_len > dbg::MAX_K {
            return Err(format!(
                "align.seed_len must be odd and in 3..={}, got {seed_len}",
                dbg::MAX_K
            ));
        }
        for (field, batch) in [
            ("align.lookup_batch", self.align.lookup_batch),
            ("bubble.lookup_batch", self.bubble.lookup_batch),
            ("prune.lookup_batch", self.prune.lookup_batch),
        ] {
            if batch == 0 {
                return Err(format!(
                    "{field} must be >= 1, got 0 (it is how many lookups one aggregated message \
                     carries)"
                ));
            }
        }
        if self.align.stride == 0 {
            return Err(
                "align.stride must be >= 1, got 0 (it is the distance between the seeds sampled \
                 from a read)"
                    .to_string(),
            );
        }
        if self.align.max_candidates == 0 {
            return Err(
                "align.max_candidates must be >= 1, got 0 (no placement would be verified, so \
                 no read would align)"
                    .to_string(),
            );
        }
        let min_identity = self.align.min_identity;
        if !(min_identity > 0.0 && min_identity <= 1.0) {
            return Err(format!(
                "align.min_identity must be in (0, 1], got {min_identity} (above 1 no read can \
                 align)"
            ));
        }
        if self.read_block_reads == 0 || !self.read_block_reads.is_multiple_of(2) {
            return Err(format!(
                "read_block_reads must be even and positive so paired mates always share a \
                 read-store block, got {}",
                self.read_block_reads
            ));
        }
        if self.ranks_per_node == 0 {
            return Err(
                "ranks_per_node must be >= 1 (the default usize::MAX means all ranks on one \
                 node), got 0"
                    .to_string(),
            );
        }
        let local = &self.local;
        if local.shift == 0 {
            return Err(
                "local.shift must be >= 1, got 0 (a mer-walk could never leave a dead end or fork)"
                    .to_string(),
            );
        }
        if local.block_size == 0 {
            return Err(
                "local.block_size must be >= 1, got 0 (contigs are dealt to ranks in blocks of it)"
                    .to_string(),
            );
        }
        if local.min_mer == 0 || local.min_mer > local.mer_size {
            return Err(format!(
                "local.min_mer must be in 1..=local.mer_size ({}), got {}",
                local.mer_size, local.min_mer
            ));
        }
        if local.mer_size > local.max_mer {
            return Err(format!(
                "local.max_mer must be >= local.mer_size ({}), got {}",
                local.mer_size, local.max_mer
            ));
        }
        Ok(())
    }

    /// A 64-bit fingerprint of every result-affecting field (FNV-1a over the
    /// `Debug` rendering, with the checkpoint bookkeeping fields normalised
    /// away). A checkpoint records the writer's fingerprint and a resume
    /// refuses to load state produced under a different configuration —
    /// mixing, say, different k schedules would silently corrupt the run.
    pub fn fingerprint(&self) -> u64 {
        let mut normalized = self.clone();
        normalized.checkpoint_dir = None;
        normalized.resume = false;
        let text = format!("{normalized:?}");
        let mut h: u64 = 0xcbf29ce484222325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// The sequence of k values the pipeline will iterate over.
    pub fn k_values(&self) -> Vec<usize> {
        assert!(
            self.k_min >= 3 && self.k_min % 2 == 1,
            "k_min must be odd and >= 3"
        );
        assert!(
            self.k_step >= 2 && self.k_step.is_multiple_of(2),
            "k_step must be even so k stays odd"
        );
        assert!(self.k_max >= self.k_min);
        (self.k_min..=self.k_max).step_by(self.k_step).collect()
    }

    /// Parameters for k-mer analysis at a given k.
    pub fn analysis_params(&self, k: usize) -> KmerAnalysisParams {
        KmerAnalysisParams {
            k,
            min_count: self.min_kmer_count,
            minimizer_len: self.minimizer_len,
            ..Default::default()
        }
    }

    /// Parameters for graph traversal.
    pub fn traversal_params(&self) -> TraversalParams {
        TraversalParams {
            min_contig_len: self.min_contig_len,
        }
    }

    /// The machine topology for a run over `ranks` ranks: `ranks_per_node`
    /// is clamped to the rank count (so the `usize::MAX` default puts every
    /// rank on one node) and any smaller value groups ranks that many to a
    /// node (the last node may be partial).
    pub fn topology(&self, ranks: usize) -> pgas::Topology {
        pgas::Topology::new(ranks, self.ranks_per_node.min(ranks).max(1))
    }

    /// A team over [`AssemblyConfig::topology`] with the hierarchical-exchange
    /// mode of this configuration already applied.
    pub fn team(&self, ranks: usize) -> std::sync::Arc<pgas::Team> {
        let team = pgas::Team::new(self.topology(ranks));
        team.set_hierarchical_exchange(self.use_hierarchical_exchange);
        team
    }

    /// Parameters for the distributed contig store.
    pub fn contig_store_params(&self) -> dbg::ContigStoreParams {
        dbg::ContigStoreParams {
            cache_bytes: self.contig_cache_bytes,
            ..Default::default()
        }
    }

    /// Parameters for the distributed read store.
    pub fn read_store_params(&self) -> readstore::ReadStoreParams {
        readstore::ReadStoreParams {
            block_reads: self.read_block_reads,
            cache_bytes: self.read_cache_bytes,
            ..Default::default()
        }
    }

    /// Sets the aggregated-lookup batch size on every stage that takes one:
    /// alignment seed lookups and the contig-graph anchor lookups behind
    /// bubble merging and pruning. It is a size, not a mode — every remote
    /// table read is aggregated and cached whatever the value, `1` merely
    /// puts one key in each message — and the result of an assembly is
    /// byte-identical for every value.
    pub fn with_lookup_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "lookup batch must be positive");
        self.align.lookup_batch = batch;
        self.bubble.lookup_batch = batch;
        self.prune.lookup_batch = batch;
        self
    }

    /// A configuration suitable for the small simulated communities used in
    /// tests and examples (fewer, smaller k values and permissive support
    /// thresholds).
    pub fn small_test() -> Self {
        let mut cfg = AssemblyConfig {
            k_min: 21,
            k_max: 33,
            k_step: 12,
            ..Default::default()
        };
        cfg.scaffold.links.min_splint_support = 2;
        cfg.scaffold.links.min_span_support = 2;
        // The test communities plant strain variants at ~1% divergence; SNPs
        // closer than k create bubble branches longer than 2k, and leaving
        // them unmerged feeds the scaffolder two parallel contigs for the
        // same locus. Trade strain splitting for contiguity at this scale.
        cfg.bubble.merge_long_bubbles = true;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_k_schedule() {
        let cfg = AssemblyConfig::default();
        assert_eq!(cfg.k_values(), vec![21, 43]);
    }

    #[test]
    fn custom_k_schedule() {
        let cfg = AssemblyConfig {
            k_min: 21,
            k_max: 55,
            k_step: 10,
            ..Default::default()
        };
        assert_eq!(cfg.k_values(), vec![21, 31, 41, 51]);
    }

    #[test]
    #[should_panic]
    fn even_k_min_rejected() {
        let cfg = AssemblyConfig {
            k_min: 20,
            ..Default::default()
        };
        let _ = cfg.k_values();
    }

    #[test]
    #[should_panic]
    fn odd_step_rejected() {
        let cfg = AssemblyConfig {
            k_step: 5,
            ..Default::default()
        };
        let _ = cfg.k_values();
    }

    #[test]
    fn validate_accepts_the_defaults_and_names_the_broken_field() {
        assert_eq!(AssemblyConfig::default().validate(), Ok(()));
        assert_eq!(AssemblyConfig::small_test().validate(), Ok(()));
        // A k_max between schedule points is fine while the last k fits.
        let slack = AssemblyConfig {
            k_max: 130,
            ..Default::default()
        };
        assert_eq!(slack.k_values().last(), Some(&109));
        assert_eq!(slack.validate(), Ok(()));
        // No seed cache is a legal configuration (`degenerate_configs.rs`
        // assembles with it).
        let uncached = AssemblyConfig {
            align: AlignParams {
                cache_capacity: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(uncached.validate(), Ok(()));
        let local = |edit: fn(&mut LocalAssemblyParams)| {
            let mut cfg = AssemblyConfig::default();
            edit(&mut cfg.local);
            cfg
        };
        let seed_len = |seed_len: usize| {
            let mut cfg = AssemblyConfig::small_test();
            cfg.align.seed_len = seed_len;
            cfg
        };
        let edited = |edit: fn(&mut AssemblyConfig)| {
            let mut cfg = AssemblyConfig::default();
            edit(&mut cfg);
            cfg
        };
        let cases = [
            (
                AssemblyConfig {
                    k_min: 20,
                    ..Default::default()
                },
                "k_min",
            ),
            (
                AssemblyConfig {
                    k_step: 5,
                    ..Default::default()
                },
                "k_step",
            ),
            (
                AssemblyConfig {
                    k_min: 31,
                    k_max: 21,
                    ..Default::default()
                },
                "non-increasing",
            ),
            (
                // 21, 99, 177: the third k does not fit a packed k-mer.
                AssemblyConfig {
                    k_min: 21,
                    k_step: 78,
                    k_max: 177,
                    ..Default::default()
                },
                "k_max",
            ),
            (
                AssemblyConfig {
                    min_kmer_count: 0,
                    ..AssemblyConfig::small_test()
                },
                "min_kmer_count",
            ),
            (
                edited(|cfg| {
                    cfg.threshold = ThresholdPolicy::Dynamic {
                        t_base: 2,
                        error_rate: 1.0,
                    }
                }),
                "threshold.error_rate",
            ),
            (
                edited(|cfg| {
                    cfg.threshold = ThresholdPolicy::Dynamic {
                        t_base: 2,
                        error_rate: f64::NAN,
                    }
                }),
                "threshold.error_rate",
            ),
            (
                edited(|cfg| {
                    cfg.threshold = ThresholdPolicy::Dynamic {
                        t_base: 2,
                        error_rate: -0.05,
                    }
                }),
                "threshold.error_rate",
            ),
            (seed_len(16), "align.seed_len"),
            (seed_len(1), "align.seed_len"),
            (seed_len(dbg::MAX_K + 2), "align.seed_len"),
            (
                edited(|cfg| cfg.align.lookup_batch = 0),
                "align.lookup_batch",
            ),
            (edited(|cfg| cfg.align.stride = 0), "align.stride"),
            (
                edited(|cfg| cfg.align.max_candidates = 0),
                "align.max_candidates",
            ),
            (
                edited(|cfg| cfg.align.min_identity = 0.0),
                "align.min_identity",
            ),
            (
                edited(|cfg| cfg.align.min_identity = 1.01),
                "align.min_identity",
            ),
            (
                edited(|cfg| cfg.align.min_identity = f64::NAN),
                "align.min_identity",
            ),
            (
                edited(|cfg| cfg.bubble.lookup_batch = 0),
                "bubble.lookup_batch",
            ),
            (
                edited(|cfg| cfg.prune.lookup_batch = 0),
                "prune.lookup_batch",
            ),
            (
                AssemblyConfig {
                    read_block_reads: 63,
                    ..Default::default()
                },
                "read_block_reads",
            ),
            (
                AssemblyConfig {
                    read_block_reads: 0,
                    ..Default::default()
                },
                "read_block_reads",
            ),
            (
                AssemblyConfig {
                    ranks_per_node: 0,
                    ..Default::default()
                },
                "ranks_per_node",
            ),
            (local(|l| l.shift = 0), "local.shift"),
            (local(|l| l.block_size = 0), "local.block_size"),
            (local(|l| l.min_mer = 0), "local.min_mer"),
            (local(|l| l.min_mer = l.mer_size + 1), "local.min_mer"),
            (local(|l| l.max_mer = l.mer_size - 1), "local.max_mer"),
            (
                edited(|cfg| cfg.use_distributed_contigs = false),
                "use_distributed_contigs",
            ),
            (
                edited(|cfg| cfg.use_distributed_reads = false),
                "use_distributed_reads",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err(needle);
            assert!(err.contains(needle), "error {err:?} must name {needle:?}");
        }
    }

    #[test]
    fn fingerprint_ignores_checkpoint_bookkeeping_but_not_results_fields() {
        let base = AssemblyConfig::default();
        let mut with_ckpt = base.clone();
        with_ckpt.checkpoint_dir = Some(std::path::PathBuf::from("/tmp/somewhere"));
        with_ckpt.resume = true;
        assert_eq!(
            base.fingerprint(),
            with_ckpt.fingerprint(),
            "where a run checkpoints must not change what it computes"
        );
        let mut other_k = base.clone();
        other_k.k_max = 21;
        assert_ne!(base.fingerprint(), other_k.fingerprint());
        let mut other_eps = base.clone();
        other_eps.min_kmer_count = 3;
        assert_ne!(base.fingerprint(), other_eps.fingerprint());
    }

    #[test]
    fn with_lookup_batch_threads_the_size_through_every_stage() {
        let cfg = AssemblyConfig::default().with_lookup_batch(64);
        assert_eq!(cfg.align.lookup_batch, 64);
        assert_eq!(cfg.bubble.lookup_batch, 64);
        assert_eq!(cfg.prune.lookup_batch, 64);
        let fine = AssemblyConfig::default().with_lookup_batch(1);
        assert_eq!(fine.align.lookup_batch, 1);
    }

    #[test]
    fn topology_defaults_to_single_node_and_threads_ranks_per_node() {
        let cfg = AssemblyConfig::default();
        assert!(cfg.use_hierarchical_exchange);
        assert_eq!(cfg.topology(8), pgas::Topology::single_node(8));
        let multi = AssemblyConfig {
            ranks_per_node: 2,
            ..Default::default()
        };
        assert_eq!(multi.topology(8), pgas::Topology::new(8, 2));
        assert_eq!(multi.topology(8).nodes(), 4);
        let team = multi.team(8);
        assert_eq!(team.topology(), pgas::Topology::new(8, 2));
        assert!(team.hierarchical_exchange());
        let flat = AssemblyConfig {
            ranks_per_node: 2,
            use_hierarchical_exchange: false,
            ..Default::default()
        };
        assert!(!flat.team(4).hierarchical_exchange());
    }

    #[test]
    fn read_store_params_inherit_config() {
        assert!(AssemblyConfig::default().use_distributed_reads);
        let cfg = AssemblyConfig {
            read_cache_bytes: 4096,
            read_block_reads: 32,
            ..Default::default()
        };
        let p = cfg.read_store_params();
        assert_eq!(p.cache_bytes, 4096);
        assert_eq!(p.block_reads, 32);
    }

    #[test]
    fn analysis_params_inherit_config() {
        let cfg = AssemblyConfig {
            min_kmer_count: 3,
            minimizer_len: 11,
            ..Default::default()
        };
        let p = cfg.analysis_params(31);
        assert_eq!(p.k, 31);
        assert_eq!(p.min_count, 3);
        assert_eq!(p.minimizer_len, 11);
        let default_params = AssemblyConfig::default().analysis_params(21);
        assert_eq!(default_params.effective_minimizer_len(), 15);
    }
}

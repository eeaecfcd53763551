//! The distributed de Bruijn graph (§II-C).
//!
//! Vertices are canonical k-mers; edges are implicit in the per-side extension
//! codes, exactly as in the UPC implementation ("a two-letter code
//! `[ACGT][ACGT]` that indicates the unique bases that immediately precede and
//! follow the k-mer"). As in the paper, a vertex keeps only that code, its
//! depth and the traversal's claim: a [`KmerVertex`] is 8 bytes, so a graph
//! entry takes 16 bytes at k ≤ 32 and 24 at k ≤ 64 ([`crate::table`]).
//!
//! The pipeline counts straight into the graph ([`crate::kmer_graph_from`]):
//! each k-mer's extension counts are reduced once, when its counting bin is
//! drained, and never stored. [`build_graph`] reduces a whole counts table
//! the same way, for callers that hold one. The difference between HipMer
//! and MetaHipMer lives in the reduction's [`ThresholdPolicy`]: HipMer
//! applies one global limit on contradicting extensions, MetaHipMer scales
//! the limit with the k-mer's depth so that both very-high-coverage and
//! very-low-coverage organisms keep their unique extensions.

use crate::table::{KmerCountsMap, VertexTable};
use kmers::{Ext, Kmer, KmerCounts};
use pgas::Ctx;
use std::sync::Arc;

/// How many contradicting high-quality extension observations a k-mer may
/// have while still being assigned a unique extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// HipMer: one global threshold for every k-mer, regardless of depth.
    Global { thq: u32 },
    /// MetaHipMer: `thq = max(t_base, error_rate × depth)` — §II-C.
    Dynamic { t_base: u32, error_rate: f64 },
}

impl ThresholdPolicy {
    /// The contradiction budget for a k-mer of the given depth (the saturating
    /// cast floors the product, and maps a negative or NaN one to 0).
    pub fn max_contradictions(&self, depth: u32) -> u32 {
        match *self {
            ThresholdPolicy::Global { thq } => thq,
            ThresholdPolicy::Dynamic { t_base, error_rate } => {
                t_base.max((error_rate * depth as f64) as u32)
            }
        }
    }

    /// The default MetaHipMer policy used by the pipeline.
    pub fn metahipmer_default() -> Self {
        ThresholdPolicy::Dynamic {
            t_base: 2,
            error_rate: 0.05,
        }
    }

    /// The default HipMer (single-genome) policy used by the baseline.
    pub fn hipmer_default() -> Self {
        ThresholdPolicy::Global { thq: 2 }
    }
}

/// A reduced extension in one byte is a base's 2-bit code, `FORK` or `NONE`.
const FORK: u8 = 4;
const NONE: u8 = 5;

fn ext_code(e: Ext) -> u8 {
    match e {
        Ext::Base(c) => c,
        Ext::Fork => FORK,
        Ext::None => NONE,
    }
}

fn ext_of(code: u8) -> Ext {
    match code {
        FORK => Ext::Fork,
        NONE => Ext::None,
        c => Ext::Base(c),
    }
}

/// A de Bruijn graph vertex as the graph stores it: the k-mer's depth, its
/// reduced extension on each side, and the traversal's claim, in 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerVertex {
    count: u32,
    left: u8,
    right: u8,
    used: bool,
}

impl KmerVertex {
    /// The unclaimed vertex a k-mer's counts reduce to under `policy`.
    #[inline]
    pub(crate) fn reduced(c: &KmerCounts, policy: ThresholdPolicy) -> Self {
        let budget = policy.max_contradictions(c.count);
        KmerVertex {
            count: c.count,
            left: ext_code(c.left.reduce(budget)),
            right: ext_code(c.right.reduce(budget)),
            used: false,
        }
    }

    /// The k-mer's depth: its occurrences in the reads, plus the weighted
    /// windows of the previous iteration's contigs.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The reduced left extension, in canonical orientation.
    #[inline]
    pub fn left(&self) -> Ext {
        ext_of(self.left)
    }

    /// The reduced right extension, in canonical orientation.
    #[inline]
    pub fn right(&self) -> Ext {
        ext_of(self.right)
    }

    /// True once the traversal has claimed the vertex into a contig.
    #[inline]
    pub fn used(&self) -> bool {
        self.used
    }

    /// Claims the vertex into a contig.
    #[inline]
    pub(crate) fn claim(&mut self) {
        self.used = true;
    }

    /// The left and right extensions seen from the walk orientation: as
    /// stored, or, if the walk reads the reverse complement, swapped and
    /// complemented.
    #[inline]
    pub(crate) fn exts_oriented(&self, was_rc: bool) -> (Ext, Ext) {
        if was_rc {
            (flip_ext(self.right()), flip_ext(self.left()))
        } else {
            (self.left(), self.right())
        }
    }
}

/// The distributed de Bruijn graph: one table of reduced vertices, which the
/// traversal claims in place. Traverse it once.
pub struct KmerGraph {
    pub(crate) vertices: Arc<VertexTable>,
}

impl KmerGraph {
    /// Visits every vertex owned by the calling rank, under the caveat of
    /// [`dht::DistMap::for_each_local`].
    pub fn for_each_local(&self, ctx: &Ctx, mut f: impl FnMut(&Kmer, KmerVertex)) {
        self.vertices.for_each_local(ctx, |kmer, v| f(kmer, *v));
    }
}

/// The de Bruijn graph of a full k-mer counts table under the given
/// threshold policy: every rank reduces each entry it owns, in one pass over
/// its shard, into a vertex table shaped like `counts`. Collective; no
/// traffic. The pipeline counts straight into the graph
/// ([`crate::kmer_graph_from`]) instead, which stores the same vertices.
pub fn build_graph(ctx: &Ctx, counts: &KmerCountsMap, policy: ThresholdPolicy) -> KmerGraph {
    KmerGraph {
        vertices: counts.map(ctx, |c| KmerVertex::reduced(c, policy)),
    }
}

/// Looks up k-mers *in the orientation the caller is walking in*:
/// canonicalises every queried k-mer, resolves all of them in a single
/// aggregated request–response round trip in which each owner replies with
/// the reduced vertex ([`dht::DistMap::get_many_with`]), and re-orients each
/// result into its caller's walk orientation (if the canonical form is the
/// reverse complement, the left/right extensions are swapped and
/// complemented). Collective: every rank must call this in the same phase (an
/// empty `kmers` slice still participates); `batch` is the per-owner
/// aggregation size of the underlying messages.
pub fn lookup_oriented_many(
    ctx: &Ctx,
    graph: &KmerGraph,
    kmers: &[Kmer],
    batch: usize,
) -> Vec<Option<OrientedVertex>> {
    let canon: Vec<(Kmer, bool)> = kmers.iter().map(|k| k.canonical()).collect();
    let keys: Vec<Kmer> = canon.iter().map(|&(c, _)| c).collect();
    let fetched = graph.vertices.get_many_with(ctx, &keys, batch, |v| *v);
    fetched
        .into_iter()
        .zip(canon)
        .map(|(v, (c, was_rc))| v.map(|v| orient(v, c, was_rc)))
        .collect()
}

/// A vertex expressed in walk orientation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrientedVertex {
    /// The canonical key under which the vertex is stored (needed for claims).
    pub canonical: Kmer,
    pub count: u32,
    pub left: Ext,
    pub right: Ext,
}

pub(crate) fn flip_ext(e: Ext) -> Ext {
    match e {
        Ext::Base(c) => Ext::Base(3 - c),
        other => other,
    }
}

pub(crate) fn orient(v: KmerVertex, canonical: Kmer, was_rc: bool) -> OrientedVertex {
    let (left, right) = v.exts_oriented(was_rc);
    OrientedVertex {
        canonical,
        count: v.count(),
        left,
        right,
    }
}

/// Looks up one k-mer *in the orientation the caller is walking in*: the
/// k-mer is canonicalised for the table lookup and, if the canonical form is
/// the reverse complement, the left/right extensions are swapped and
/// complemented so they are expressed in the caller's orientation. One
/// message per key, so only tests use it: the per-hop walker oracle and the
/// oracles of [`lookup_oriented_many`], which every stage reads through.
#[cfg(test)]
pub(crate) fn lookup_oriented(ctx: &Ctx, graph: &KmerGraph, kmer: &Kmer) -> Option<OrientedVertex> {
    let (canon, was_rc) = kmer.canonical();
    let v = graph.vertices.get_cloned(ctx, &canon)?;
    Some(orient(v, canon, was_rc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use pgas::Team;
    use seqio::Read;

    /// A vertex is the paper's two-letter code plus depth and claim: a
    /// field added here grows every graph entry.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_vertex_takes_eight_bytes() {
        use kmers::{Kmer32, Kmer64};
        use std::mem::size_of;
        assert_eq!(size_of::<KmerVertex>(), 8);
        assert_eq!(size_of::<Option<KmerVertex>>(), 8);
        assert_eq!(size_of::<(Kmer32, KmerVertex)>(), 16);
        assert_eq!(size_of::<(Kmer64, KmerVertex)>(), 24);
        assert_eq!(size_of::<(Kmer, KmerVertex)>(), 48);
    }

    #[test]
    fn a_vertex_keeps_what_its_counts_reduce_to() {
        let policy = ThresholdPolicy::Global { thq: 1 };
        let sides = [
            [0, 0, 0, 0],
            [0, 0, 5, 0],
            [3, 0, 0, 1],
            [2, 2, 0, 0],
            [0, 9, 1, 0],
        ];
        for left in sides {
            for right in sides {
                let c = KmerCounts {
                    count: 11,
                    left: kmers::ExtCounts { hq: left },
                    right: kmers::ExtCounts { hq: right },
                };
                let mut v = KmerVertex::reduced(&c, policy);
                assert_eq!((v.count(), v.used()), (11, false));
                assert_eq!(v.left(), c.left.reduce(1), "{left:?}");
                assert_eq!(v.right(), c.right.reduce(1), "{right:?}");
                let (l, r) = v.exts_oriented(true);
                assert_eq!((l, r), (flip_ext(v.right()), flip_ext(v.left())));
                v.claim();
                assert!(v.used());
                assert_eq!((v.left(), v.right()), (c.left.reduce(1), c.right.reduce(1)));
            }
        }
    }

    #[test]
    fn threshold_policies() {
        let global = ThresholdPolicy::Global { thq: 3 };
        assert_eq!(global.max_contradictions(10), 3);
        assert_eq!(global.max_contradictions(100_000), 3);
        let dynamic = ThresholdPolicy::Dynamic {
            t_base: 2,
            error_rate: 0.01,
        };
        assert_eq!(dynamic.max_contradictions(10), 2);
        assert_eq!(dynamic.max_contradictions(1000), 10);
        assert_eq!(dynamic.max_contradictions(100_000), 1000);
    }

    #[test]
    fn graph_from_clean_reads_is_all_uu_inside() {
        // A single sequence covered 3x: interior k-mers have unique extensions.
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATG";
        let reads: Vec<Read> = (0..3)
            .map(|i| Read::with_uniform_quality(format!("r{i}"), seq.as_bytes(), 35))
            .collect();
        let team = Team::single_node(2);
        let uu_counts = team.run(|ctx| {
            let range = ctx.block_range(reads.len());
            let params = KmerAnalysisParams {
                k: 11,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads[range], &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            let mut uu = 0usize;
            let mut total = 0usize;
            graph.for_each_local(ctx, |_, v| {
                total += 1;
                if v.left().is_extendable() && v.right().is_extendable() {
                    uu += 1;
                }
            });
            (
                ctx.allreduce_sum_u64(uu as u64),
                ctx.allreduce_sum_u64(total as u64),
            )
        });
        let (uu, total) = uu_counts[0];
        let expected_total = seq.len() as u64 - 11 + 1;
        assert_eq!(total, expected_total);
        // The two terminal k-mers have a missing extension on one side.
        assert_eq!(uu, expected_total - 2);
    }

    #[test]
    fn oriented_lookup_flips_extensions() {
        let seq = "ACGGTCAGGTTCAAGGACT";
        let reads: Vec<Read> = (0..2)
            .map(|i| Read::with_uniform_quality(format!("r{i}"), seq.as_bytes(), 35))
            .collect();
        let team = Team::single_node(1);
        team.run(|ctx| {
            let params = KmerAnalysisParams {
                k: 7,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads, &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            // Interior k-mer at position 5: "CAGGTTC"; previous base T, next A.
            let fwd: Kmer = "CAGGTTC".parse().unwrap();
            let v = lookup_oriented(ctx, &graph, &fwd).expect("present");
            assert_eq!(v.left, Ext::Base(3), "expected T on the left");
            assert_eq!(v.right, Ext::Base(0), "expected A on the right");
            // Looking the same position up in the reverse orientation swaps and
            // complements: left becomes comp(A)=T, right becomes comp(T)=A.
            let rc = fwd.revcomp();
            let v_rc = lookup_oriented(ctx, &graph, &rc).expect("present");
            assert_eq!(v_rc.left, Ext::Base(3));
            assert_eq!(v_rc.right, Ext::Base(0));
            assert_eq!(v.canonical, v_rc.canonical);
        });
    }

    #[test]
    fn batched_oriented_lookup_matches_fine_grained() {
        let seq = "ACGGTCAGGTTCAAGGACTTACGGACCATG";
        let reads: Vec<Read> = (0..2)
            .map(|i| Read::with_uniform_quality(format!("r{i}"), seq.as_bytes(), 35))
            .collect();
        let team = Team::single_node(3);
        team.run(|ctx| {
            let params = KmerAnalysisParams {
                k: 9,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads, &params);
            let graph = build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
            // Query every window in both orientations, plus an absent k-mer.
            let mut queries: Vec<Kmer> = Vec::new();
            for i in 0..=seq.len() - 9 {
                let km = Kmer::from_bytes(&seq.as_bytes()[i..i + 9]).unwrap();
                queries.push(km);
                queries.push(km.revcomp());
            }
            queries.push("TTTTTTTTT".parse().unwrap());
            let batched = lookup_oriented_many(ctx, &graph, &queries, 5);
            for (q, b) in queries.iter().zip(&batched) {
                assert_eq!(*b, lookup_oriented(ctx, &graph, q));
            }
            assert!(batched.last().unwrap().is_none());
        });
    }

    #[test]
    fn dynamic_threshold_tolerates_errors_on_deep_kmers() {
        // Simulate a deep k-mer: 200 clean copies plus 6 copies with an error
        // in the following base. A global thq=2 forks it; the dynamic policy
        // (5% of depth = 10) keeps the unique extension.
        let clean = "ACGGTCAGGTTCAAGGACT";
        let erroneous = "ACGGTCAGGTTCAAGGACG"; // last base differs
        let mut reads: Vec<Read> = (0..200)
            .map(|i| Read::with_uniform_quality(format!("c{i}"), clean.as_bytes(), 35))
            .collect();
        reads.extend(
            (0..6).map(|i| Read::with_uniform_quality(format!("e{i}"), erroneous.as_bytes(), 35)),
        );
        let team = Team::single_node(1);
        team.run(|ctx| {
            let params = KmerAnalysisParams {
                k: 11,
                min_count: 2,
                ..Default::default()
            };
            let res = kmer_analysis(ctx, &reads, &params);
            // The k-mer ending just before the final base: "TCAAGGAC" + ...
            let target: Kmer = "GTTCAAGGACT"[0..11].parse().unwrap(); // GTTCAAGGACT
            let (canon, _) = target.canonical();
            assert!(res.counts.get_cloned(ctx, &canon).is_some());

            let global = build_graph(ctx, &res.counts, ThresholdPolicy::Global { thq: 2 });
            let dynamic = build_graph(
                ctx,
                &res.counts,
                ThresholdPolicy::Dynamic {
                    t_base: 2,
                    error_rate: 0.05,
                },
            );
            // k-mer whose *right* extension is contested: the one ending at
            // position len-2 ("CAAGGAC..."), i.e. the k-mer covering bases
            // [7..18) = "GGTTCAAGGAC". Its right extension is T (200x) vs G (6x).
            let contested: Kmer = "GGTTCAAGGAC".parse().unwrap();
            let g = lookup_oriented(ctx, &global, &contested).unwrap();
            let d = lookup_oriented(ctx, &dynamic, &contested).unwrap();
            assert_eq!(g.right, Ext::Fork, "global threshold should fork");
            assert_eq!(d.right, Ext::Base(3), "dynamic threshold should keep T");
        });
    }
}

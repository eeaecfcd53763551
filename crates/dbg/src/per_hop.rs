//! The paper's §II-D per-hop contig walker, kept as the test-only reference
//! for [`crate::traversal::traverse_contigs`]: every rank scans the UU k-mers
//! it owns and walks rightwards from *path left-ends* (UU k-mers whose left
//! neighbour is absent, not UU, or disagrees), one `lookup_oriented` per hop.
//! Each maximal path is discovered from both of its ends; the walker whose
//! starting end has the lexicographically smaller canonical k-mer emits the
//! contig. Vertices are claimed `used` — the paper's atomic claim writes — in
//! batches: the claimed k-mers are exchanged to their owners, and each owner
//! marks its own through [`dht::DistMap::local_view`]. K-mers never touched
//! by a path walk lie on cycles, walked in a second phase with the cycle's
//! minimal canonical k-mer designating the emitter.
//!
//! It is the only independent implementation that gets hairpin paths and
//! Möbius cycles right, which is why it stays; it is compiled under
//! `#[cfg(test)]` only, so no configuration can reach it.

#![cfg(test)]

use crate::graph::{lookup_oriented, KmerGraph};
use crate::table::with_keys;
use crate::traversal::{eligible, push_contig, TraversalParams};
use crate::types::ContigSet;
use kmers::{Ext, Kmer, KmerKey};
use pgas::Ctx;

/// Claims a batch of vertices as `used` (idempotent; the batched form of the
/// paper's §II-D atomic claim writes): each k-mer travels to its owner, which
/// marks it in its own shard. Collective; every claim is visible on return.
fn claim_used(ctx: &Ctx, graph: &KmerGraph, keys: &[Kmer]) {
    let vertices = &graph.vertices;
    let mut outgoing: Vec<Vec<Kmer>> = vec![Vec::new(); ctx.ranks()];
    for kmer in keys {
        outgoing[vertices.owner_of(kmer)].push(*kmer);
    }
    let mine = ctx.exchange(outgoing);
    with_keys!(vertices, map => {
        let mut view = map.local_view(ctx);
        for kmer in &mine {
            if let Some(v) = view.get_mut(&KmerKey::of_kmer(kmer)) {
                v.claim();
            }
        }
    });
    ctx.barrier();
}

/// True if `kmer` (in walk orientation) is an eligible vertex whose left
/// neighbour does *not* continue the path — i.e. it is the left end of a
/// maximal path.
fn is_left_path_end(ctx: &Ctx, graph: &KmerGraph, kmer: &Kmer) -> bool {
    let v = match lookup_oriented(ctx, graph, kmer) {
        Some(v) if eligible(v.left, v.right) => v,
        _ => return false,
    };
    let Ext::Base(c) = v.left else { return true };
    let left_kmer = kmer.extended_left(c);
    match lookup_oriented(ctx, graph, &left_kmer) {
        None => true,
        Some(lv) => {
            if !eligible(lv.left, lv.right) {
                // The left neighbour is a fork: the path starts here.
                true
            } else {
                // The left neighbour is on a path; ours only continues from it
                // if its right extension points back at us.
                match lv.right {
                    Ext::Base(rc) => left_kmer.extended_right(rc) != *kmer,
                    _ => true,
                }
            }
        }
    }
}

/// The outcome of a rightward walk.
struct Walk {
    bases: Vec<u8>,
    depth_sum: f64,
    vcount: usize,
    /// Canonical form of the final k-mer of the walk.
    last_canonical: Kmer,
    /// Canonical k-mers visited, in walk order.
    visited: Vec<Kmer>,
}

/// Walks right from `start`, appending bases while the next vertex is UU and
/// agrees with the walk. Stops when the walk returns to `start` (cycle). The
/// visited vertices are *not* claimed here; the caller batches the claims.
fn walk_right(ctx: &Ctx, graph: &KmerGraph, start: Kmer, limit: usize) -> Walk {
    let mut bases = start.to_bytes();
    let mut visited = Vec::new();
    let mut current = start;
    let v0 = lookup_oriented(ctx, graph, &current).expect("start vertex exists");
    let mut depth_sum = v0.count as f64;
    let mut vcount = 1usize;
    visited.push(v0.canonical);
    let mut right = v0.right;
    let mut last_canonical = v0.canonical;
    let mut steps = 0usize;
    while let Ext::Base(c) = right {
        steps += 1;
        if steps > limit {
            break;
        }
        let next = current.extended_right(c);
        if next == start {
            // Closed the cycle.
            break;
        }
        let nv = match lookup_oriented(ctx, graph, &next) {
            Some(nv) => nv,
            None => break,
        };
        if !eligible(nv.left, nv.right) {
            break;
        }
        // The next vertex must agree that its left neighbour is `current`.
        match nv.left {
            Ext::Base(lc) if next.extended_left(lc) == current => {}
            _ => break,
        }
        bases.push(seqio::alphabet::decode_base(c));
        depth_sum += nv.count as f64;
        vcount += 1;
        visited.push(nv.canonical);
        last_canonical = nv.canonical;
        current = next;
        right = nv.right;
    }
    Walk {
        bases,
        depth_sum,
        vcount,
        last_canonical,
        visited,
    }
}

/// The walk itself: one aggregated-claim batch per phase, one fine-grained
/// lookup per hop. Returns this rank's emitted contigs.
fn per_hop_contigs(ctx: &Ctx, graph: &KmerGraph, params: &TraversalParams) -> Vec<(Vec<u8>, f64)> {
    // A safety bound on walk length: a walk visits each (vertex, orientation)
    // pair at most once, and Möbius-shaped structures (a walk crossing a
    // palindromic junction into its own reverse complement) legitimately
    // visit both orientations — so the bound is twice the vertex count.
    let limit = 2 * graph.vertices.len() + 2;

    let mut local: Vec<(Vec<u8>, f64)> = Vec::new();

    // ---- Phase 1: maximal paths, walked from their left ends ----------------
    let seeds: Vec<Kmer> = {
        let mut s = Vec::new();
        graph.for_each_local(ctx, |kmer, v| {
            if eligible(v.left(), v.right()) {
                s.push(*kmer);
            }
        });
        s
    };
    let mut claims: Vec<Kmer> = Vec::new();
    for seed in &seeds {
        // The seed is stored canonically; a path end may present itself in
        // either orientation, so test both (at most one walk per seed).
        for oriented in [*seed, seed.revcomp()] {
            if is_left_path_end(ctx, graph, &oriented) {
                let walk = walk_right(ctx, graph, oriented, limit);
                claims.extend_from_slice(&walk.visited);
                // The path is discovered from both ends; the end with the
                // smaller canonical k-mer is the designated emitter.
                if *seed <= walk.last_canonical {
                    push_contig(&mut local, walk.bases, walk.depth_sum, walk.vcount, params);
                }
                break;
            }
        }
    }
    // The claims of the whole phase travel in aggregated batches — not one
    // round trip per vertex — and phase 2 only reads them after the barrier.
    claim_used(ctx, graph, &claims);
    ctx.barrier();

    // ---- Phase 2: cycles (eligible vertices untouched by any path walk) -----
    let leftovers: Vec<Kmer> = {
        let mut s = Vec::new();
        graph.for_each_local(ctx, |kmer, v| {
            if eligible(v.left(), v.right()) && !v.used() {
                s.push(*kmer);
            }
        });
        s
    };
    let mut claims: Vec<Kmer> = Vec::new();
    for seed in leftovers {
        // Every rank walks every cycle seed it owns; only the walk started at
        // the cycle's minimal k-mer emits.
        let walk = walk_right(ctx, graph, seed, limit);
        claims.extend_from_slice(&walk.visited);
        let min = walk.visited.iter().min().copied().unwrap_or(seed);
        if seed == min {
            push_contig(&mut local, walk.bases, walk.depth_sum, walk.vcount, params);
        }
    }
    claim_used(ctx, graph, &claims);
    ctx.barrier();
    local
}

/// The reference traversal: the walker's contigs gathered into one set on
/// rank 0 exactly as [`crate::traversal::traverse_contigs`] gathers its own.
/// Collective.
pub(crate) fn per_hop_contig_set(
    ctx: &Ctx,
    graph: &KmerGraph,
    k: usize,
    params: &TraversalParams,
) -> ContigSet {
    let local = per_hop_contigs(ctx, graph, params);
    ContigSet::from_sequences(k, ctx.gather(local))
}

#[cfg(test)]
pub(crate) mod tests {
    //! Equivalence of the segment traversal and the walker: over randomised
    //! cycle-heavy and palindrome-adjacent graphs and team widths of 1–8
    //! ranks, [`traverse_contigs`] must emit exactly the walker's contig set.

    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, flip_ext, ThresholdPolicy};
    use crate::table::{KmerCountsMap, KmerTable};
    use crate::traversal::traverse_contigs;
    use crate::types::tests::rank_zero_set;
    use dht::FxHashSet;
    use kmers::{ExtCounts, KmerCounts};
    use pgas::Team;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seqio::alphabet::{encode_base, revcomp};
    use seqio::Read;

    fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| [b'A', b'C', b'G', b'T'][rng.gen_range(0..4)])
            .collect()
    }

    /// Builds a read set whose graph is rich in the traversal's hard cases:
    /// circular templates (cross-rank and single-owner cycles), sequences that
    /// share a repeat (forks), hairpins (a stretch followed by its own reverse
    /// complement) and exact even-length palindromes — the "palindrome-adjacent"
    /// structures where orientation bookkeeping is easiest to get wrong.
    pub(crate) fn stress_reads(rng: &mut StdRng, k: usize) -> Vec<Read> {
        let mut templates: Vec<Vec<u8>> = Vec::new();
        // Linear sequences with a shared repeat to plant forks.
        let repeat = random_seq(rng, 2 * k);
        for _ in 0..rng.gen_range(1..3) {
            let slen = rng.gen_range(60..160);
            let mut s = random_seq(rng, slen);
            let tlen = rng.gen_range(60..160);
            let mut t = random_seq(rng, tlen);
            s.extend_from_slice(&repeat);
            s.extend_from_slice(&random_seq(rng, 40));
            t.extend_from_slice(&repeat);
            t.extend_from_slice(&random_seq(rng, 40));
            templates.push(s);
            templates.push(t);
        }
        // Hairpin: a stem followed by its reverse complement, plus an exact
        // even-length palindrome embedded in a random context.
        let stem_len = rng.gen_range(40..80);
        let stem = random_seq(rng, stem_len);
        let mut hairpin = stem.clone();
        hairpin.extend_from_slice(&revcomp(&stem));
        templates.push(hairpin);
        let half = random_seq(rng, k);
        let mut palindrome = random_seq(rng, 50);
        palindrome.extend_from_slice(&half);
        palindrome.extend_from_slice(&revcomp(&half));
        palindrome.extend_from_slice(&random_seq(rng, 50));
        templates.push(palindrome);

        let mut reads: Vec<Read> = Vec::new();
        let push_cover = |reads: &mut Vec<Read>, seq: &[u8]| {
            // 3x coverage so min_count = 2 keeps every k-mer.
            for c in 0..3 {
                reads.push(Read::with_uniform_quality(
                    format!("r{}_{}", reads.len(), c),
                    seq,
                    35,
                ));
            }
        };
        for t in &templates {
            push_cover(&mut reads, t);
        }
        // Circular templates: tile the doubled circle so every junction-spanning
        // k-mer is observed. Several small circles make single-owner cycles
        // likely even at 8 ranks; one larger circle crosses owners.
        for _ in 0..rng.gen_range(2..5) {
            let clen = rng.gen_range(k + 5..120);
            let circle = random_seq(rng, clen);
            let mut doubled = circle.clone();
            doubled.extend_from_slice(&circle);
            let window = (2 * k).min(circle.len());
            for start in 0..circle.len() {
                push_cover(&mut reads, &doubled[start..start + window]);
            }
        }
        reads
    }

    /// One lasso of [`lasso_vertices`]: the oriented vertex `s` where its loop
    /// re-enters the run, and the canonical keys of the run's eligible
    /// vertices.
    pub(crate) struct Lasso {
        pub(crate) s: Kmer,
        pub(crate) run: Vec<Kmer>,
    }

    /// The counts entries of `count` disjoint lassos x → s → a₁ → … → aₘ:
    /// every step is mutual, and aₘ's only right extension leads back into
    /// s, whose left extension names x. A depth-scaled contradiction budget
    /// builds this shape when the aₘ → s count fits inside s's budget. Every
    /// second x is a fork, which makes s a path end. The k-mers are random,
    /// so s is stored forward in some lassos and reverse-complemented in
    /// others. Each entry reduces to its intended extensions under
    /// [`ThresholdPolicy::metahipmer_default`], the policy of [`graph_of`].
    pub(crate) fn lasso_vertices(
        rng: &mut StdRng,
        k: usize,
        count: usize,
    ) -> (Vec<(Kmer, KmerCounts)>, Vec<Lasso>) {
        let code = |b: u8| encode_base(b).expect("ACGT");
        let (mut verts, mut lassos) = (Vec::new(), Vec::new());
        let mut keys: FxHashSet<Kmer> = FxHashSet::default();
        while lassos.len() < count {
            let n = rng.gen_range(3..8);
            let circle = random_seq(rng, n);
            let at = |i: usize| circle[i % n];
            let kmer_of = |bases: Vec<u8>| Kmer::from_bytes(&bases).expect("ACGT k-mer");
            let kmer_at = |i: usize| kmer_of((i..i + k).map(at).collect());
            let b = loop {
                let b = random_seq(rng, 1)[0];
                if b != circle[n - 1] {
                    break b;
                }
            };
            let x = kmer_of(std::iter::once(b).chain((0..k - 1).map(at)).collect());
            let x_left = if lassos.len() % 2 == 0 {
                Ext::None
            } else {
                Ext::Fork
            };
            // Oriented (k-mer, left, right): x, then s = a₀, a₁, …, aₘ.
            let mut run = vec![(x, x_left, code(at(k - 1)))];
            run.extend((0..n).map(|i| {
                let left = if i == 0 { b } else { at(i + n - 1) };
                (kmer_at(i), Ext::Base(code(left)), code(at(i + k)))
            }));
            let canon: Vec<Kmer> = run.iter().map(|(kmer, ..)| kmer.canonical().0).collect();
            let fresh: FxHashSet<Kmer> = canon.iter().copied().collect();
            if fresh.len() < canon.len() || !keys.is_disjoint(&fresh) {
                continue; // a repeated k-mer would join lassos or fold one
            }
            keys.extend(fresh);
            for (kmer, left, right) in &run {
                let (key, was_rc) = kmer.canonical();
                let right = Ext::Base(*right);
                let (left, right) = if was_rc {
                    (flip_ext(right), flip_ext(*left))
                } else {
                    (*left, right)
                };
                // Depths below 40 get a budget of 2, so `count` observations
                // of one base reduce to that base, and of two to a fork.
                let count = rng.gen_range(3..30);
                let side = |ext: Ext| {
                    let mut side = ExtCounts::default();
                    match ext {
                        Ext::Base(c) => side.hq[c as usize] = count,
                        Ext::Fork => side.hq = [count, count, 0, 0],
                        Ext::None => {}
                    }
                    side
                };
                let (left, right) = (side(left), side(right));
                verts.push((key, KmerCounts { count, left, right }));
            }
            lassos.push(Lasso {
                s: run[1].0,
                run: canon[usize::from(x_left == Ext::Fork)..].to_vec(),
            });
        }
        (verts, lassos)
    }

    /// The graph of a counts table holding exactly `verts`, each inserted
    /// by its owner.
    pub(crate) fn graph_of(ctx: &Ctx, verts: &[(Kmer, KmerCounts)]) -> KmerGraph {
        let k = verts.first().expect("a graph has vertices").0.k();
        let m = KmerAnalysisParams {
            k,
            ..Default::default()
        }
        .effective_minimizer_len();
        let counts: KmerCountsMap = ctx.share(|| KmerTable::new(ctx.ranks(), k, m));
        let mine: Vec<(Kmer, KmerCounts)> = verts
            .iter()
            .filter(|(key, _)| counts.owner_of(key) == ctx.rank())
            .copied()
            .collect();
        counts.merge_local(ctx, mine);
        ctx.barrier();
        build_graph(ctx, &counts, ThresholdPolicy::metahipmer_default())
    }

    fn run_traversal(
        reads: &[Read],
        ranks: usize,
        params: &KmerAnalysisParams,
        segment: bool,
    ) -> ContigSet {
        run_on(ranks, params.k, segment, |ctx| {
            let range = ctx.block_range(reads.len());
            let res = kmer_analysis(ctx, &reads[range], params);
            build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default())
        })
    }

    /// Traverses the graph `graph` builds on every rank of a `ranks`-wide
    /// team, with the segment traversal or the walker.
    fn run_on(
        ranks: usize,
        k: usize,
        segment: bool,
        graph: impl Fn(&Ctx) -> KmerGraph + Sync,
    ) -> ContigSet {
        let sets = Team::single_node(ranks).run(|ctx| {
            let graph = graph(ctx);
            let traversal = TraversalParams::default();
            if segment {
                traverse_contigs(ctx, &graph, k, &traversal)
            } else {
                per_hop_contig_set(ctx, &graph, k, &traversal)
            }
        });
        rank_zero_set(sets)
    }

    #[test]
    fn segment_traversal_matches_per_hop_on_randomised_graphs() {
        let mut rng = StdRng::seed_from_u64(20260729);
        for trial in 0..5u64 {
            let k = *[11usize, 15, 21].get(rng.gen_range(0..3)).unwrap();
            let reads = stress_reads(&mut rng, k);
            // The minimizer partitioner co-locates consecutive path k-mers on
            // one owner; a short minimizer keeps owner crossings frequent.
            let params = KmerAnalysisParams {
                k,
                min_count: 2,
                minimizer_len: 7,
                ..Default::default()
            };
            let reference = run_traversal(&reads, 1, &params, false);
            assert!(
                !reference.is_empty(),
                "trial {trial}: stress graph produced no contigs"
            );
            for ranks in [1usize, 2, 3, 5, 8] {
                let per_hop = run_traversal(&reads, ranks, &params, false);
                let seg = run_traversal(&reads, ranks, &params, true);
                assert_eq!(
                    per_hop, reference,
                    "trial {trial}: per-hop traversal not rank-invariant (k={k} ranks={ranks})"
                );
                assert_eq!(
                    seg, reference,
                    "trial {trial}: segment traversal diverged from per-hop (k={k} ranks={ranks})"
                );
            }
        }
    }

    #[test]
    fn segment_traversal_matches_per_hop_on_lasso_graphs() {
        let mut rng = StdRng::seed_from_u64(20261016);
        for k in [11usize, 15, 21] {
            let (verts, lassos) = lasso_vertices(&mut rng, k, 40);
            let reference = run_on(1, k, false, |ctx| graph_of(ctx, &verts));
            // Each lasso is one path, whichever of its vertices a scan meets
            // first.
            assert_eq!(reference.len(), lassos.len(), "k={k}");
            for ranks in [1usize, 2, 3, 5, 8] {
                for segment in [false, true] {
                    let set = run_on(ranks, k, segment, |ctx| graph_of(ctx, &verts));
                    assert_eq!(set, reference, "k={k} ranks={ranks} segment={segment}");
                }
            }
        }
    }

    #[test]
    fn segment_traversal_handles_tiny_and_degenerate_graphs() {
        // Single-vertex paths, self-loop homopolymer cycles and empty graphs are
        // the tie-break corners of the emitter rules.
        let cases: Vec<Vec<Read>> = vec![
            // One isolated k-mer (a read exactly k long).
            (0..3)
                .map(|i| Read::with_uniform_quality(format!("a{i}"), b"ACGTACGTACG", 35))
                .collect(),
            // A homopolymer run: the AAA...A k-mer is its own successor.
            (0..3)
                .map(|i| Read::with_uniform_quality(format!("h{i}"), &[b'A'; 40], 35))
                .collect(),
            // Nothing survives the count threshold.
            vec![Read::with_uniform_quality("solo", b"ACGTACGTACGTACGT", 35)],
        ];
        for (ci, reads) in cases.iter().enumerate() {
            let params = KmerAnalysisParams {
                k: 11,
                min_count: 2,
                ..Default::default()
            };
            for ranks in [1usize, 2, 4] {
                let per_hop = run_traversal(reads, ranks, &params, false);
                let seg = run_traversal(reads, ranks, &params, true);
                assert_eq!(seg, per_hop, "case {ci} ranks {ranks}");
            }
        }
    }
}

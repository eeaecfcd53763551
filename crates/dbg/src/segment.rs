//! Owner-local segment compaction + stitching on rank 0: the aggregated
//! contig-generation algorithm behind [`crate::traversal::traverse_contigs`].
//!
//! The paper's §II-D per-hop walker (kept as the test-only reference,
//! `per_hop.rs`) pays one fine-grained remote lookup per k-mer per walk. This
//! module replaces it with a two-level algorithm whose only communication is
//! one gather:
//!
//! * **Level 1 — local compaction.** Each rank opens a
//!   [`dht::DistMap::local_view`] over its own shard of the counts table
//!   (one lock acquisition for the whole phase, zero `Ctx` traffic) and
//!   walks UU runs entirely in memory. A *run* is a maximal chain of
//!   vertices that are (a) owned by this rank and (b) mutually-agreeing
//!   unique extensions of each other. Each undirected run is walked **once**,
//!   from whichever of its vertices the shard scan meets first: right from
//!   that vertex, and right from its reverse complement (the left walk). The
//!   walks claim every vertex they step onto (the entry's own `used` flag is
//!   the visited mark, so no side table exists), and the two stops give both
//!   *mirror segments* of the run, one per direction — the pair the per-hop
//!   walker finds by walking every path from both ends. A segment carries its
//!   bases and, at each end, the extension code beyond it: on the left only
//!   when that neighbour is owned by another rank (a *pending* boundary), on
//!   the right whenever the side is no dead end. A self-mirror hairpin (a run
//!   ending on the reverse complement of its first vertex) is one segment. A
//!   path that never crosses an ownership boundary (a segment terminal on the
//!   left that stops at no remote vertex on the right) finishes here, and a
//!   right walk that steps mutually back into its start is a fully-local
//!   cycle, emitted here too.
//! * **Level 2 — stitching on rank 0.** Segments of one direction form a
//!   linked list across ranks. Every rank sends its cross-rank segments to
//!   rank 0 in one gather (never at one rank, where Level 1 finishes every
//!   path). The record is the segment itself: its bases, both boundary codes
//!   and its depth sum; rank 0 recomputes every k-mer it needs from the
//!   bases. It indexes the segments by their last vertex, resolves each
//!   pending left boundary to the segment that ends on that neighbour and
//!   extends back mutually, splices each chain from its head, and walks each
//!   cross-rank cycle (what the chain walks leave unreached) once. The
//!   contigs it emits are rank 0's already, where `traverse_contigs` gathers
//!   the set.
//!
//! **Determinism / byte-identity.** The emitter rules reproduce the per-hop
//! walker's output exactly, at any rank count and in any gather order:
//! * a path is emitted by the chain whose *first* terminal vertex has the
//!   lexicographically smaller canonical k-mer (mirror chains see the two
//!   endpoint canonicals in swapped order, so exactly one emits; a
//!   single-vertex path, where both mirrors see equal endpoints, is emitted
//!   by the canonical-orientation chain only);
//! * a cycle is emitted rotated to start at its minimal canonical vertex, in
//!   the direction that visits that vertex in canonical orientation — the
//!   same contig the per-hop walker emits from that vertex's canonical seed.
//!
//! Both rules need each (vertex, orientation) pair to appear at most once per
//! directed chain, which holds for odd k (no k-mer equals its own reverse
//! complement); [`crate::traversal::traverse_contigs`] refuses even k.

use crate::graph::{KmerGraph, KmerVertex};
use crate::table::with_keys;
use crate::traversal::{eligible, push_contig, TraversalParams};
use dht::{DistMap, FxHashMap};
use kmers::{Ext, Kmer, KmerKey, StrandPair};
use pgas::{Counter, Ctx};
use seqio::alphabet::{decode_base, encode_base, revcomp};

/// One owner-local maximal run in a fixed walk direction, as Level 1 keeps it
/// and as the gather ships it to rank 0. The endpoint k-mers are not stored:
/// rank 0 recomputes them from `bases`.
#[derive(Debug, Clone)]
struct Segment {
    /// The left-extension base code of the first vertex, when that
    /// neighbour is owned by another rank (a pending boundary); `None` when
    /// the path starts here.
    left_code: Option<u8>,
    /// The right-extension base code of the last vertex (`None` when that
    /// side is a dead end).
    right_code: Option<u8>,
    bases: Vec<u8>,
    depth_sum: u64,
}

impl Segment {
    /// The segment read as `bases`, which runs from the reverse complement of
    /// `back.last` to `fwd.last`. Its left boundary is the `back` walk's stop
    /// seen from the other strand: a remote stop with code c leaves the
    /// first vertex pending on the complement of c; a dead end or an absent,
    /// ineligible or non-mutual vertex is terminal.
    fn between(back: &WalkEnd, fwd: &WalkEnd, bases: Vec<u8>, depth_sum: u64) -> Self {
        Segment {
            left_code: back.right_code.filter(|_| back.right_remote).map(|c| 3 - c),
            right_code: fwd.right_code,
            bases,
            depth_sum,
        }
    }

    /// The vertex starting at base `at`, recomputed from the bases.
    fn kmer_at(&self, at: usize, k: usize) -> Kmer {
        Kmer::from_bytes(&self.bases[at..at + k]).expect("segment bases are ACGT")
    }

    /// Number of graph vertices the segment covers.
    fn vcount(&self, k: usize) -> usize {
        self.bases.len() + 1 - k
    }
}

/// The minimal canonical vertex of a walk's bases, whether it is visited in
/// canonical orientation, and its vertex index within the walk: the first
/// occurrence wins, upgraded only by a canonical-orientation visit of the
/// same vertex. A cycle is emitted from that vertex in canonical orientation
/// (the per-hop walker's cycle seed), so only the cycle emitters need this
/// triple: Level 1's for fully-local cycles, and rank 0's, which recomputes
/// it from each gathered segment's bases.
fn segment_min(bases: &[u8], k: usize) -> (Kmer, bool, u32) {
    let mut kmer = Kmer::from_bytes(&bases[..k]).expect("segment bases start with a k-mer");
    let (canon, was_rc) = kmer.canonical();
    let (mut min_vertex, mut min_is_canonical, mut min_offset) = (canon, !was_rc, 0u32);
    for (i, &b) in bases[k..].iter().enumerate() {
        let code = encode_base(b).expect("segment bases are ACGT");
        kmer = kmer.extended_right(code);
        let (canon, was_rc) = kmer.canonical();
        if canon < min_vertex || (canon == min_vertex && !was_rc && !min_is_canonical) {
            min_vertex = canon;
            min_is_canonical = !was_rc;
            min_offset = (i + 1) as u32;
        }
    }
    (min_vertex, min_is_canonical, min_offset)
}

/// This rank's own shard of the graph, borrowed for Level 1 at the table's
/// key width: zero traffic, and the walks claim each vertex in place.
struct LocalGraph<'a, K> {
    view: dht::LocalShardView<'a, K, KmerVertex>,
    graph: &'a KmerGraph,
    rank: usize,
    /// Safety bound on a walk's steps: every local (vertex, orientation)
    /// pair once.
    limit: usize,
}

/// Where one walk stopped.
struct WalkEnd {
    last: Kmer,
    /// The right-extension base code of `last` (`None` when that side is a
    /// dead end).
    right_code: Option<u8>,
    /// True when `right_code` points at a vertex owned by another rank.
    right_remote: bool,
    depth_sum: u64,
    /// The walk returned to its start: a fully-local cycle.
    closed: bool,
}

impl<K: KmerKey> LocalGraph<'_, K> {
    /// Walks right from `start`, an eligible vertex of depth `count` whose
    /// right extension in walk orientation is `right`, while the next vertex
    /// is local, eligible and mutually agreeing: the per-hop walker's
    /// continuation rule, with remote ownership as an extra stop (a segment
    /// boundary). Writes the walk's bases into `bases` and claims every
    /// vertex it steps onto. Only a mutual step back into `start` itself
    /// closes the walk; it runs on through `start`'s reverse complement, as
    /// a self-mirror hairpin does.
    ///
    /// The walk rolls the k-mer and its reverse complement as the `N` words
    /// k needs ([`StrandPair`]) and looks the canonical one up by the key
    /// built from those words: it builds a [`Kmer`] only on a miss and at
    /// its end.
    fn walk<const N: usize>(
        &mut self,
        start: Kmer,
        right: Ext,
        count: u32,
        bases: &mut Vec<u8>,
    ) -> WalkEnd {
        let k = start.k();
        bases.clear();
        bases.extend((0..k).map(|i| start.base_at(i)));
        let first = StrandPair::<N>::of_kmer(&start);
        let mut last = first;
        let mut end = WalkEnd {
            last: start,
            right_code: None,
            right_remote: false,
            depth_sum: count as u64,
            closed: false,
        };
        let mut right = right;
        let mut steps = 0usize;
        while let Ext::Base(c) = right {
            steps += 1;
            if steps > self.limit {
                // Unreachable: the mutual check makes every vertex's local
                // predecessor unique, so a walk stops or closes at its start.
                debug_assert!(
                    false,
                    "walk from {start} (k = {k}) ran past its {}-step bound",
                    self.limit
                );
                break;
            }
            let mut next = last;
            next.push(c);
            // The view holds only keys this rank owns, so a hit needs no
            // owner test; `owner_of` (a minimizer roll under the table's
            // partitioner) runs only on a miss.
            let (key, was_rc) = next.canonical_key::<K>();
            let Some(slot) = self.view.get_mut(&key) else {
                end.right_code = Some(c);
                end.right_remote = self.graph.vertices.owner_of(&key.to_kmer(k)) != self.rank;
                break;
            };
            let (next_left, next_right) = slot.exts_oriented(was_rc);
            // The next vertex must agree that its left neighbour is `last`
            // (the per-hop walker's mutual check, as a base-code comparison).
            if !eligible(next_left, next_right) || next_left != Ext::Base(last.first_code()) {
                end.right_code = Some(c);
                break;
            }
            // Only a mutual step closes a cycle: a lasso, whose loop enters
            // `start` against its left extension, stopped just above.
            if next == first {
                end.closed = true;
                break;
            }
            slot.claim();
            bases.push(decode_base(c));
            end.depth_sum += slot.count() as u64;
            last = next;
            right = next_right;
        }
        end.last = last.to_kmer();
        end
    }
}

/// Level 1: compacts this rank's shard of `vertices` (the graph's table at
/// its key width) into segments, emits its whole paths and fully-local
/// cycles into `local`, and returns the rest: the segments that cross an
/// ownership boundary. Zero traffic. Every eligible vertex of the shard ends
/// up claimed, and only those.
fn compact_local<K: KmerKey>(
    ctx: &Ctx,
    graph: &KmerGraph,
    vertices: &DistMap<K, KmerVertex>,
    params: &TraversalParams,
    local: &mut Vec<(Vec<u8>, f64)>,
) -> Vec<Segment> {
    match graph.vertices.k().div_ceil(32) {
        1 => compact_words::<1, K>(ctx, graph, vertices, params, local),
        2 => compact_words::<2, K>(ctx, graph, vertices, params, local),
        3 => compact_words::<3, K>(ctx, graph, vertices, params, local),
        _ => compact_words::<4, K>(ctx, graph, vertices, params, local),
    }
}

/// [`compact_local`] for a k of `N` words.
fn compact_words<const N: usize, K: KmerKey>(
    ctx: &Ctx,
    graph: &KmerGraph,
    vertices: &DistMap<K, KmerVertex>,
    params: &TraversalParams,
    local: &mut Vec<(Vec<u8>, f64)>,
) -> Vec<Segment> {
    let k = graph.vertices.k();
    let mut segs: Vec<Segment> = Vec::new();
    let view = vertices.local_view(ctx);
    let mut lg = LocalGraph {
        limit: 2 * view.len() + 2,
        view,
        graph,
        rank: ctx.rank(),
    };
    let (mut right, mut left, mut starts) = (Vec::new(), Vec::new(), Vec::new());
    for sub in 0..lg.view.sub_shards() {
        // The walks claim vertices in every sub-shard, this one included, so
        // the unclaimed starts are snapshotted one sub-shard at a time and
        // re-checked before each walk. A claim seen before the first walk
        // would be left over from an earlier traversal of the graph.
        starts.clear();
        for (key, v) in lg.view.sub_shard(sub) {
            debug_assert!(
                sub > 0 || !v.used(),
                "{key:?} was claimed before the traversal"
            );
            if !v.used() && eligible(v.left(), v.right()) {
                starts.push(*key);
            }
        }
        for key in &starts {
            let v = match lg.view.get_mut(key) {
                Some(slot) if !slot.used() => {
                    slot.claim();
                    *slot
                }
                _ => continue,
            };
            let kmer = key.to_kmer(k);
            let r = lg.walk::<N>(kmer, v.right(), v.count(), &mut right);
            if r.closed {
                push_local_cycle(local, &right, k, r.depth_sum, params);
                continue;
            }
            let l = lg.walk::<N>(
                kmer.revcomp(),
                v.exts_oriented(true).1,
                v.count(),
                &mut left,
            );
            debug_assert!(!l.closed, "the left walk closes only if the right one does");
            // The run reads revcomp(L) ++ R[k..] left to right, and its
            // mirror is the reverse complement. Both walks ending on one
            // oriented vertex make a self-mirror hairpin: one segment.
            let depth_sum = l.depth_sum + r.depth_sum - v.count() as u64;
            let mut bases = revcomp(&left);
            bases.extend_from_slice(&right[k..]);
            let fwd = Segment::between(&l, &r, bases, depth_sum);
            let rev = (l.last != r.last).then(|| {
                let mut bases = revcomp(&right);
                bases.extend_from_slice(&left[k..]);
                (&l, Segment::between(&r, &l, bases, depth_sum))
            });
            for (end, seg) in std::iter::once((&r, fwd)).chain(rev) {
                if seg.left_code.is_none() && !end.right_remote {
                    push_path(local, seg.bases, seg.depth_sum, k, params);
                } else {
                    segs.push(seg);
                }
            }
        }
    }
    segs
}

/// Emits a fully-local cycle, walked as `bases` (its `n` vertices unrolled
/// into n + k − 1 bases), from its minimal canonical vertex in canonical
/// orientation: the contig the per-hop walker emits from that vertex's seed.
fn push_local_cycle(
    local: &mut Vec<(Vec<u8>, f64)>,
    bases: &[u8],
    k: usize,
    depth_sum: u64,
    params: &TraversalParams,
) {
    let n = bases.len() + 1 - k;
    let (_, canonical, p) = segment_min(bases, k);
    // Base i of the rotation at s is base (s + i) of the cycle. If the walk
    // met the minimum only as its reverse complement, the contig runs the
    // other way: the rotation that ends on that visit, reverse-complemented.
    let s = p as usize + usize::from(!canonical);
    let mut out: Vec<u8> = (0..n + k - 1).map(|i| bases[(s + i) % n]).collect();
    if !canonical {
        out = revcomp(&out);
    }
    push_contig(local, out, depth_sum as f64, n, params);
}

/// Emits a whole path, walked as `bases` in one of its two directions, if
/// that direction is the path's emitter: the one whose first vertex has the
/// smaller canonical k-mer. Mirror directions see the two endpoint
/// canonicals swapped, so exactly one emits. Equal endpoints happen in two
/// self-mirror shapes: a single-vertex path (both mirrors see it identically
/// — only the canonical-orientation one emits) and a palindromic hairpin
/// path, which ends on the reverse complement of its first vertex and *is*
/// its own mirror (exactly one direction exists — always emit). Level 1
/// emits its whole paths here and rank 0 its placed chains.
fn push_path(
    local: &mut Vec<(Vec<u8>, f64)>,
    bases: Vec<u8>,
    depth_sum: u64,
    k: usize,
    params: &TraversalParams,
) {
    let n = bases.len() + 1 - k;
    let end = |at: usize| Kmer::from_bytes(&bases[at..at + k]).expect("path bases are ACGT");
    let (fc, f_was_rc) = end(0).canonical();
    let (lc, _) = end(bases.len() - k).canonical();
    if fc < lc || (fc == lc && (n > 1 || !f_was_rc)) {
        push_contig(local, bases, depth_sum as f64, n, params);
    }
}

/// Runs the segment-compaction traversal and returns this rank's emitted
/// contigs: every contig of a cross-rank chain is rank 0's. Collective;
/// byte-identical to the per-hop walker's output.
pub(crate) fn segment_contigs(
    ctx: &Ctx,
    graph: &KmerGraph,
    k: usize,
    params: &TraversalParams,
) -> Vec<(Vec<u8>, f64)> {
    let mut local: Vec<(Vec<u8>, f64)> = Vec::new();
    // ---- Level 1: owner-local compaction (zero communication) --------------
    // The shard view is dropped inside, before the gather.
    let segs =
        with_keys!(graph.vertices, map => compact_local(ctx, graph, map, params, &mut local));
    // ---- Level 2: one gather, then rank 0 stitches -------------------------
    // At one rank every vertex is local, so no segment crosses a boundary.
    if ctx.ranks() == 1 {
        debug_assert!(segs.is_empty(), "a 1-rank segment crosses a boundary");
        return local;
    }
    if ctx.rank() == 0 {
        ctx.record(Counter::traversal_rounds, 1);
    } else {
        let bytes: usize = segs.iter().map(|s| s.bases.len()).sum();
        ctx.record(
            Counter::stitch_bytes,
            (bytes + segs.len() * std::mem::size_of::<Segment>()) as u64,
        );
    }
    let segs = ctx.gather(segs);
    if ctx.rank() == 0 {
        stitch(segs, k, params, &mut local);
    }
    local
}

/// Level 2, rank 0's pass: stitches the team's cross-rank segments, in any
/// order, into their paths and cycles and emits them into `local`.
///
/// A segment's predecessor ends on the oriented vertex its pending left
/// boundary names and extends right into the segment's first vertex: the
/// mutual check of the per-hop walker. The oriented last vertex is unique
/// across the team, so each segment has at most one predecessor and one
/// successor. A segment without a predecessor heads a path, spliced forward
/// from it; what those walks leave unplaced lies on cross-rank cycles, each
/// walked once.
fn stitch(
    mut segs: Vec<Segment>,
    k: usize,
    params: &TraversalParams,
    local: &mut Vec<(Vec<u8>, f64)>,
) {
    let by_last: FxHashMap<Kmer, usize> = segs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.kmer_at(s.bases.len() - k, k), i))
        .collect();
    debug_assert_eq!(by_last.len(), segs.len(), "two segments end on one vertex");
    let mut succ: Vec<Option<usize>> = vec![None; segs.len()];
    let mut has_pred = vec![false; segs.len()];
    for (i, s) in segs.iter().enumerate() {
        let Some(code) = s.left_code else { continue };
        let first = s.kmer_at(0, k);
        let pred = by_last
            .get(&first.extended_left(code))
            .copied()
            .filter(|&p| segs[p].right_code == Some(first.last_code()));
        if let Some(p) = pred {
            debug_assert!(succ[p].is_none(), "a segment has two successors");
            succ[p] = Some(i);
            has_pred[i] = true;
        }
    }
    let mut placed = vec![false; segs.len()];
    for head in (0..segs.len()).filter(|&i| !has_pred[i]) {
        placed[head] = true;
        let mut bases = std::mem::take(&mut segs[head].bases);
        let mut depth_sum = segs[head].depth_sum;
        let mut at = head;
        while let Some(next) = succ[at] {
            bases.extend_from_slice(&segs[next].bases[k - 1..]);
            depth_sum += segs[next].depth_sum;
            placed[next] = true;
            at = next;
        }
        push_path(local, bases, depth_sum, k, params);
    }
    for start in 0..segs.len() {
        if placed[start] {
            continue;
        }
        let mut cycle = vec![start];
        let mut at = start;
        while let Some(next) = succ[at].filter(|&next| next != start) {
            placed[next] = true;
            cycle.push(next);
            at = next;
        }
        debug_assert_eq!(succ[at], Some(start), "an unplaced segment lies on a cycle");
        push_cycle(local, &segs, &cycle, k, params);
    }
}

/// Emits the cross-rank cycle whose segments, in chain order, are `cycle`,
/// if this direction visits its minimal canonical vertex in canonical
/// orientation. Exactly one of the two mirror directions does (for odd k
/// each (vertex, orientation) pair occurs at most once per directed chain),
/// so the cycle is emitted once, by the rule the per-hop walker applies from
/// its canonical seed. A self-mirror cycle holds both directions in one
/// chain, and exactly one canonical-orientation visit of its minimum.
fn push_cycle(
    local: &mut Vec<(Vec<u8>, f64)>,
    segs: &[Segment],
    cycle: &[usize],
    k: usize,
    params: &TraversalParams,
) {
    let mins: Vec<(Kmer, bool, u32)> = cycle
        .iter()
        .map(|&i| segment_min(&segs[i].bases, k))
        .collect();
    let e = (0..cycle.len())
        .min_by_key(|&j| (mins[j].0, !mins[j].1))
        .expect("a cycle has a segment");
    if !mins[e].1 {
        return; // the mirror direction sees the minimum canonically
    }
    let order = || cycle[e..].iter().chain(&cycle[..e]).map(|&i| &segs[i]);
    let total: usize = order().map(|s| s.vcount(k)).sum();
    let mut circle: Vec<u8> = Vec::with_capacity(total + k - 1);
    circle.extend_from_slice(&segs[cycle[e]].bases[..k - 1]);
    for s in order() {
        circle.extend_from_slice(&s.bases[k - 1..]);
    }
    debug_assert_eq!(circle.len(), total + k - 1);
    // Rotate so the contig starts at the minimal vertex: base i of the
    // output is base (min_offset + i) of the underlying base cycle.
    let p = mins[e].2 as usize;
    let out: Vec<u8> = (0..total + k - 1)
        .map(|i| circle[(p + i) % total])
        .collect();
    let depth_sum: u64 = order().map(|s| s.depth_sum).sum();
    push_contig(local, out, depth_sum as f64, total, params);
}

#[cfg(test)]
mod tests {
    //! Level 1 against the discovery it replaced: every eligible vertex
    //! probed as a segment start in both orientations, every run walked from
    //! both of its ends, and fully-local cycles found as the eligible vertices
    //! no segment covered. Equal segments (bases, boundary codes, depth) pin
    //! the gathered records, which the contig-level per-hop oracle cannot
    //! see. The graphs are the per-hop tests' stress reads and hand-built
    //! lassos, whose loop re-enters the run at a vertex against its left
    //! extension. Rank 0's pass is held to the whole-sequence emitters on
    //! hand-cut paths and cycles, in any gather order, and its round count to
    //! chains of any length.

    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, orient, OrientedVertex, ThresholdPolicy};
    use crate::per_hop::tests::{graph_of, lasso_vertices, stress_reads};
    use dht::FxHashSet;
    use pgas::Team;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle's copy of this rank's shard, keyed by `Kmer` whatever the
    /// table's key width, in key order.
    struct OracleShard<'a> {
        entries: Vec<(Kmer, KmerVertex)>,
        map: FxHashMap<Kmer, KmerVertex>,
        graph: &'a KmerGraph,
        rank: usize,
        limit: usize,
    }

    /// The replaced probe: owner test first, then the shard.
    enum Probe {
        Remote,
        Absent,
        Present(OrientedVertex),
    }

    fn probe(lg: &OracleShard, kmer: &Kmer) -> Probe {
        let (canon, was_rc) = kmer.canonical();
        if lg.graph.vertices.owner_of(&canon) != lg.rank {
            return Probe::Remote;
        }
        match lg.map.get(&canon) {
            None => Probe::Absent,
            Some(v) => Probe::Present(orient(*v, canon, was_rc)),
        }
    }

    struct OracleWalk {
        bases: Vec<u8>,
        depth_sum: u64,
        vcount: usize,
        visited: Vec<Kmer>,
        last: Kmer,
        right_code: Option<u8>,
        right_remote: bool,
        closed: bool,
    }

    fn walk_local(lg: &OracleShard, start: Kmer, v0: &OrientedVertex) -> OracleWalk {
        let mut w = OracleWalk {
            bases: start.to_bytes(),
            depth_sum: v0.count as u64,
            vcount: 1,
            visited: vec![v0.canonical],
            last: start,
            right_code: None,
            right_remote: false,
            closed: false,
        };
        let mut right = v0.right;
        let mut steps = 0usize;
        while let Ext::Base(c) = right {
            steps += 1;
            if steps > lg.limit {
                break;
            }
            let next = w.last.extended_right(c);
            let nv = match probe(lg, &next) {
                Probe::Present(nv)
                    if eligible(nv.left, nv.right) && nv.left == Ext::Base(w.last.first_code()) =>
                {
                    nv
                }
                stop => {
                    w.right_code = Some(c);
                    w.right_remote = matches!(stop, Probe::Remote);
                    break;
                }
            };
            // Mutual check first, as in the new walk: the replaced walk
            // closed on any step into `start`, which misread a lasso (a
            // loop re-entering the run at a segment start) as a cycle.
            if next == start {
                w.closed = true;
                break;
            }
            w.bases.push(decode_base(c));
            w.depth_sum += nv.count as u64;
            w.vcount += 1;
            w.visited.push(nv.canonical);
            w.last = next;
            right = nv.right;
        }
        w
    }

    /// `None` when `kmer`'s left neighbour continues its run locally, else
    /// the segment's left code: the neighbour's code when another rank owns
    /// it, `None` when the path starts here.
    fn left_boundary(lg: &OracleShard, kmer: &Kmer, v: &OrientedVertex) -> Option<Option<u8>> {
        let Ext::Base(lc) = v.left else {
            return Some(None);
        };
        match probe(lg, &kmer.extended_left(lc)) {
            Probe::Remote => Some(Some(lc)),
            Probe::Present(lv)
                if eligible(lv.left, lv.right) && lv.right == Ext::Base(kmer.last_code()) =>
            {
                None
            }
            _ => Some(None),
        }
    }

    /// The replaced Level 1; reads the shard and claims nothing. Emits the
    /// local cycles into `cycles` and returns every segment with its walk's
    /// remote flag.
    fn oracle_compact(
        ctx: &Ctx,
        graph: &KmerGraph,
        params: &TraversalParams,
        cycles: &mut Vec<(Vec<u8>, f64)>,
    ) -> Vec<(Segment, bool)> {
        let mut entries = graph.vertices.local_entries(ctx);
        entries.sort_by_key(|e| e.0);
        let lg = OracleShard {
            limit: 2 * entries.len() + 2,
            map: entries.iter().copied().collect(),
            entries,
            graph,
            rank: ctx.rank(),
        };
        let mut segs = Vec::new();
        let shard = || lg.entries.iter().map(|(key, c)| (key, c));
        let mut covered: FxHashSet<Kmer> = FxHashSet::default();
        for (key, &v) in shard() {
            if !eligible(v.left(), v.right()) {
                continue;
            }
            for okmer in [*key, key.revcomp()] {
                let ov = orient(v, *key, okmer != *key);
                let Some(left_code) = left_boundary(&lg, &okmer, &ov) else {
                    continue;
                };
                let w = walk_local(&lg, okmer, &ov);
                assert!(!w.closed, "a segment start cannot close a cycle");
                covered.extend(w.visited.iter().copied());
                let seg = Segment {
                    left_code,
                    right_code: w.right_code,
                    bases: w.bases,
                    depth_sum: w.depth_sum,
                };
                segs.push((seg, w.right_remote));
            }
        }
        let mut cycle_seen: FxHashSet<Kmer> = FxHashSet::default();
        for (key, &v) in shard() {
            if !eligible(v.left(), v.right()) || covered.contains(key) || cycle_seen.contains(key) {
                continue;
            }
            let w = walk_local(&lg, *key, &orient(v, *key, false));
            assert!(w.closed, "uncovered vertices must lie on local cycles");
            cycle_seen.extend(w.visited.iter().copied());
            let min = *w.visited.iter().min().expect("a walk visits its start");
            let mv = *lg.map.get(&min).expect("cycle vertex is owned locally");
            let w = walk_local(&lg, min, &orient(mv, min, false));
            push_contig(cycles, w.bases, w.depth_sum as f64, w.vcount, params);
        }
        segs
    }

    type SegKey = (Vec<u8>, Option<u8>, Option<u8>, u64);

    fn sorted_keys(segs: &[Segment]) -> Vec<SegKey> {
        let mut keys: Vec<SegKey> = segs
            .iter()
            .map(|s| (s.bases.clone(), s.left_code, s.right_code, s.depth_sum))
            .collect();
        keys.sort();
        keys
    }

    fn sorted_contigs(contigs: &[(Vec<u8>, f64)]) -> Vec<(Vec<u8>, u64)> {
        let mut out: Vec<(Vec<u8>, u64)> = contigs
            .iter()
            .map(|(bases, depth)| (bases.clone(), depth.to_bits()))
            .collect();
        out.sort();
        out
    }

    /// Holds this rank's Level 1 to the oracle on `graph`, the oracle's whole
    /// paths compared as the contigs they emit, and returns the oracle's
    /// (self-mirror segments, pending boundaries, local cycles) counts.
    fn check_level1(ctx: &Ctx, graph: &KmerGraph, k: usize) -> (u64, u64, u64) {
        let traversal = TraversalParams::default();
        let mut want_local = Vec::new();
        let oracle_segs = oracle_compact(ctx, graph, &traversal, &mut want_local);
        let counts = (
            oracle_segs
                .iter()
                .filter(|(s, _)| s.bases == revcomp(&s.bases))
                .count() as u64,
            oracle_segs
                .iter()
                .filter(|(s, _)| s.left_code.is_some())
                .count() as u64,
            want_local.len() as u64,
        );
        let mut want_segs = Vec::new();
        for (seg, right_remote) in oracle_segs {
            if seg.left_code.is_none() && !right_remote {
                push_path(&mut want_local, seg.bases, seg.depth_sum, k, &traversal);
            } else {
                want_segs.push(seg);
            }
        }
        let mut local = Vec::new();
        let segs = with_keys!(graph.vertices, map => compact_local(ctx, graph, map, &traversal, &mut local));
        let at = format!("k={k} ranks={} rank={}", ctx.ranks(), ctx.rank());
        assert_eq!(sorted_keys(&segs), sorted_keys(&want_segs), "{at}");
        assert_eq!(sorted_contigs(&local), sorted_contigs(&want_local), "{at}");
        // Rank 0 indexes the segments by their last vertex.
        let lasts: FxHashSet<Kmer> = segs
            .iter()
            .map(|s| s.kmer_at(s.bases.len() - k, k))
            .collect();
        assert_eq!(lasts.len(), segs.len(), "{at}");
        counts
    }

    #[test]
    fn level1_matches_two_orientation_discovery_on_stress_graphs() {
        let mut rng = StdRng::seed_from_u64(20261015);
        // (self-mirror segments, pending boundaries, local cycles) seen over
        // the whole test: each hard case must actually occur.
        let mut seen = (0u64, 0u64, 0u64);
        for k in [11usize, 15, 21] {
            for _ in 0..2 {
                let reads = stress_reads(&mut rng, k);
                let params = KmerAnalysisParams {
                    k,
                    min_count: 2,
                    minimizer_len: 7,
                    ..Default::default()
                };
                for ranks in [1usize, 2, 3, 5, 8] {
                    let per_rank = Team::single_node(ranks).run(|ctx| {
                        let range = ctx.block_range(reads.len());
                        let res = kmer_analysis(ctx, &reads[range], &params);
                        let graph =
                            build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
                        check_level1(ctx, &graph, k)
                    });
                    for (m, p, c) in per_rank {
                        seen = (seen.0 + m, seen.1 + p, seen.2 + c);
                    }
                }
            }
        }
        assert!(seen.0 > 0, "no self-mirror hairpin segment: {seen:?}");
        assert!(seen.1 > 0, "no pending (cross-rank) boundary: {seen:?}");
        assert!(seen.2 > 0, "no fully-local cycle: {seen:?}");
    }

    #[test]
    fn level1_matches_two_orientation_discovery_on_lasso_graphs() {
        let mut rng = StdRng::seed_from_u64(20261016);
        // Lassos whose re-entry vertex s the 1-rank scan meets before the
        // rest of its run, with s stored forward and reverse-complemented:
        // the starts whose walk can step back into s against its left side.
        // Across ranks, x and s often have different owners, which gives s's
        // segment a pending left boundary.
        let (mut reentry_first, mut pending) = ([0u64; 2], 0u64);
        for k in [11usize, 15, 21] {
            let (verts, lassos) = lasso_vertices(&mut rng, k, 60);
            for ranks in [1usize, 2, 3, 5, 8] {
                let per_rank = Team::single_node(ranks).run(|ctx| {
                    let graph = graph_of(ctx, &verts);
                    let mut first = [0u64; 2];
                    if ctx.ranks() == 1 {
                        // The order Level 1's shard scan meets the vertices.
                        let scan: FxHashMap<Kmer, usize> = with_keys!(graph.vertices, map => {
                            let view = map.local_view(ctx);
                            (0..view.sub_shards())
                                .flat_map(|s| view.sub_shard(s))
                                .enumerate()
                                .map(|(i, (key, _))| (key.to_kmer(k), i))
                                .collect()
                        });
                        for lasso in &lassos {
                            let (s, was_rc) = lasso.s.canonical();
                            if lasso.run.iter().all(|v| scan[&s] <= scan[v]) {
                                first[usize::from(was_rc)] += 1;
                            }
                        }
                    }
                    (first, check_level1(ctx, &graph, k).1)
                });
                for (first, p) in per_rank {
                    reentry_first[0] += first[0];
                    reentry_first[1] += first[1];
                    pending += p;
                }
            }
        }
        assert!(
            reentry_first.iter().all(|&n| n > 0),
            "no lasso scanned from s first, forward and reverse: {reentry_first:?}"
        );
        assert!(pending > 0, "no pending boundary on the lasso graphs");
    }

    const K: usize = 15;

    /// `seq`, read as a path of n = len − k + 1 vertices or, with `circular`,
    /// as a cycle of `seq.len()` vertices, cut into one segment per start in
    /// `starts` (ascending vertex indices; a path's first start is 0). Each
    /// segment gets the codes of the bases beyond it and a depth sum of
    /// `depth` per vertex; a path's ends are dead ends.
    fn cut(seq: &[u8], starts: &[usize], circular: bool, depth: u64) -> Vec<Segment> {
        let n = if circular {
            seq.len()
        } else {
            seq.len() + 1 - K
        };
        let base = |i: usize| if circular { seq[i % n] } else { seq[i] };
        let code = |i: usize| encode_base(base(i)).expect("test bases are ACGT");
        (0..starts.len())
            .map(|j| {
                let (a, c) = (
                    starts[j],
                    starts.get(j + 1).copied().unwrap_or(starts[0] + n),
                );
                let last = c == n && !circular;
                Segment {
                    left_code: (a > 0 || circular).then(|| code((a + n - 1) % n)),
                    right_code: (!last).then(|| code(c + K - 1)),
                    bases: (a..c + K - 1).map(base).collect(),
                    depth_sum: depth * (c - a) as u64,
                }
            })
            .collect()
    }

    /// The segment the other strand walks: its codes swap ends, complemented.
    fn mirror(s: &Segment) -> Segment {
        Segment {
            left_code: s.right_code.map(|c| 3 - c),
            right_code: s.left_code.map(|c| 3 - c),
            bases: revcomp(&s.bases),
            depth_sum: s.depth_sum,
        }
    }

    fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    /// Hand-cut cross-rank segments, both strands of each chain, and the
    /// contigs the whole-sequence emitters make of them: a 5-segment path,
    /// 2- and 3-segment cycles, a lone head whose right neighbour resolves to
    /// nothing, a head whose pending left neighbour ends a segment that
    /// extends elsewhere (no mutual link), and a self-mirror palindromic
    /// path whose middle segment is its own mirror.
    fn hand_cut(rng: &mut StdRng) -> (Vec<Segment>, Vec<(Vec<u8>, f64)>) {
        let params = TraversalParams::default();
        let (mut segs, mut want) = (Vec::new(), Vec::new());
        let both_strands = |cut: Vec<Segment>, segs: &mut Vec<Segment>| {
            segs.extend(cut.iter().map(mirror));
            segs.extend(cut);
        };
        // The path's contig, emitted by one of its two directions.
        let path_contig = |seq: &[u8], depth: u64, want: &mut Vec<(Vec<u8>, f64)>| {
            let depth_sum = depth * (seq.len() + 1 - K) as u64;
            push_path(want, seq.to_vec(), depth_sum, K, &params);
            push_path(want, revcomp(seq), depth_sum, K, &params);
        };
        let path = random_seq(rng, 90);
        both_strands(cut(&path, &[0, 7, 20, 21, 50], false, 3), &mut segs);
        path_contig(&path, 3, &mut want);
        for (len, starts) in [(40usize, &[3usize, 25][..]), (60, &[0, 11, 30][..])] {
            let circle = random_seq(rng, len);
            both_strands(cut(&circle, starts, true, 2), &mut segs);
            let unrolled: Vec<u8> = (0..len + K - 1).map(|i| circle[i % len]).collect();
            push_local_cycle(&mut want, &unrolled, K, 2 * len as u64, &params);
        }
        let lone = random_seq(rng, 30);
        let mut head = cut(&lone, &[0], false, 5);
        head[0].right_code = Some(1);
        both_strands(head, &mut segs);
        path_contig(&lone, 5, &mut want);
        // `stub` ends on the left neighbour (base A) of `tail`'s first vertex
        // but extends right to another base than `tail`'s k-th. It starts
        // with A's, so a chain it heads is emitted in its direction: linked
        // to `tail`, the two would come out as one contig.
        let tail = random_seq(rng, 25);
        let mut stub = b"AAAAAAAAAA".to_vec();
        stub.extend_from_slice(&tail[..K - 1]);
        let (mut from, mut to) = (cut(&stub, &[0], false, 6), cut(&tail, &[0], false, 6));
        from[0].right_code = Some((encode_base(tail[K - 1]).unwrap() + 1) % 4);
        to[0].left_code = Some(0);
        both_strands(from, &mut segs);
        both_strands(to, &mut segs);
        path_contig(&stub, 6, &mut want);
        path_contig(&tail, 6, &mut want);
        // A palindrome of 2 × 35 bases: 56 vertices, cut at 20 and 36 so the
        // outer segments mirror each other. Its one chain is both strands.
        let mut palindrome = random_seq(rng, 35);
        palindrome.extend(revcomp(&palindrome));
        let chain = cut(&palindrome, &[0, 20, 36], false, 4);
        assert_eq!(chain[1].bases, revcomp(&chain[1].bases));
        assert_eq!(mirror(&chain[0]).bases, chain[2].bases);
        segs.extend(chain);
        push_path(&mut want, palindrome, 4 * 56, K, &params);
        (segs, want)
    }

    /// Rank 0's pass on `segs`, as a sorted contig list.
    fn stitched(segs: Vec<Segment>) -> Vec<(Vec<u8>, u64)> {
        let mut local = Vec::new();
        stitch(segs, K, &TraversalParams::default(), &mut local);
        sorted_contigs(&local)
    }

    #[test]
    fn rank_zero_stitches_paths_cycles_lone_heads_and_self_mirrors() {
        let mut rng = StdRng::seed_from_u64(20261020);
        let (segs, want) = hand_cut(&mut rng);
        assert_eq!(want.len(), 7, "one contig per chain");
        assert_eq!(stitched(segs), sorted_contigs(&want));
        assert!(stitched(Vec::new()).is_empty());
    }

    #[test]
    fn rank_zero_output_does_not_depend_on_gather_order() {
        let mut rng = StdRng::seed_from_u64(20261021);
        let (mut segs, want) = hand_cut(&mut rng);
        let want = sorted_contigs(&want);
        for _ in 0..20 {
            // Fisher–Yates: one uniform permutation per round.
            for i in (1..segs.len()).rev() {
                segs.swap(i, rng.gen_range(0..i + 1));
            }
            assert_eq!(stitched(segs.clone()), want);
        }
    }

    #[test]
    fn stitching_takes_one_round_at_any_chain_length_and_none_at_one_rank() {
        let mut rng = StdRng::seed_from_u64(20261019);
        for k in [11usize, 21] {
            let params = KmerAnalysisParams {
                k,
                min_count: 2,
                minimizer_len: 7,
                ..Default::default()
            };
            // One linear template, 200 or 4,000 bases long: the longest
            // chain is then 15–59 or 243–489 segments over 2–8 ranks.
            for long in [200usize, 4000] {
                let mut reads = stress_reads(&mut rng, k);
                let template: Vec<u8> = (0..long).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
                for c in 0..3 {
                    reads.push(seqio::Read::with_uniform_quality(
                        format!("long{c}"),
                        &template,
                        35,
                    ));
                }
                for ranks in [1usize, 2, 3, 5, 8] {
                    let team = Team::single_node(ranks);
                    let sets = team.run(|ctx| {
                        let range = ctx.block_range(reads.len());
                        let res = kmer_analysis(ctx, &reads[range], &params);
                        let graph =
                            build_graph(ctx, &res.counts, ThresholdPolicy::metahipmer_default());
                        crate::traversal::traverse_contigs(
                            ctx,
                            &graph,
                            k,
                            &TraversalParams::default(),
                        )
                    });
                    assert!(!sets[0].is_empty());
                    let stats = team.stats_total();
                    let at = format!("k={k} long={long} ranks={ranks}");
                    if ranks == 1 {
                        assert_eq!(stats.traversal_rounds, 0, "{at}");
                        assert_eq!(stats.stitch_bytes, 0, "{at}");
                    } else {
                        assert_eq!(stats.traversal_rounds, 1, "{at}");
                        assert!(stats.stitch_bytes > 0, "{at}");
                    }
                }
            }
        }
    }
}

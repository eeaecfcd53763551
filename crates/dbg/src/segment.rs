//! Owner-local segment compaction + cross-rank stitching: the aggregated
//! contig-generation algorithm behind [`crate::traversal::traverse_contigs`].
//!
//! The paper's §II-D per-hop walker (kept as the test-only reference,
//! `per_hop.rs`) pays one fine-grained remote lookup per k-mer per walk. This
//! module replaces it with a two-level algorithm whose communication is
//! *aggregated exchange rounds* instead:
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
//!   bases and, at each end, either a terminal or the unresolved neighbour
//!   k-mer owned by another rank. A self-mirror hairpin (a run ending on the
//!   reverse complement of its first vertex) is one segment. A path that
//!   never crosses an ownership boundary (a segment terminal on the left
//!   that stops at no remote vertex on the right) finishes here, and a
//!   right walk that steps mutually back into its start is a fully-local
//!   cycle, emitted here too.
//! * **Level 2 — stitching.** Segments of one direction form a linked list
//!   across ranks. Level 2 runs only when some rank holds a segment that
//!   crosses an ownership boundary, so never at one rank, and costs three
//!   collective rounds whatever the chain lengths:
//!   - one aggregated request–response round resolves every segment's
//!     predecessor, by asking the dangling left-neighbour's owner which of
//!     its segments *ends* with that oriented k-mer and extends back
//!     mutually;
//!   - every rank sends its (segment, predecessor) links to rank 0 in one
//!     gather. Rank 0 walks each chain forward from its head, numbering the
//!     positions, and each cross-rank cycle (what those walks leave
//!     unreached) to its minimal segment id, then returns each rank's answers
//!     in one scatter;
//!   - a final aggregated exchange ships every segment to its assembly site
//!     — the chain head's rank for paths, the minimal segment's rank for
//!     cycles — which splices the bases and emits. The shipping record
//!     carries no k-mer the receiver can recompute from the shipped bases.
//!
//! **Determinism / byte-identity.** The emitter rules reproduce the per-hop
//! walker's output exactly, at any rank count:
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

use crate::graph::{orient, KmerGraph, OrientedVertex};
use crate::table::with_keys;
use crate::traversal::{eligible, push_contig, TraversalParams};
use dht::{DistMap, FxHashMap};
use kmers::{Ext, Kmer, KmerCounts, KmerKey};
use pgas::{Aggregator, Counter, Ctx};
use seqio::alphabet::{decode_base, encode_base, revcomp};

/// Per-owner batch size of the predecessor-resolution round.
const STITCH_BATCH: usize = 4096;
/// Per-owner batch size of the final segment-shipping exchange.
const ASSEMBLE_BATCH: usize = 1024;

/// Global identity of a segment: the rank that compacted it + its index in
/// that rank's segment vector. The derived `(rank, idx)` order picks each
/// cross-rank cycle's assembly site, its minimal `SegId`: any total order
/// works, because a `SegId` occurs exactly once per directed chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SegId {
    rank: u32,
    idx: u32,
}

/// Where a cross-rank segment is assembled, as rank 0 ranks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// On a path: the chain head is `head` and this segment sits `pos`
    /// segments after it.
    Done { head: SegId, pos: u32 },
    /// On a cross-rank cycle whose minimal `SegId` is `minseg` (the cycle's
    /// assembly site is that segment's rank).
    Cycle { minseg: SegId },
}

/// What lies beyond a segment's left (chain-predecessor) end.
#[derive(Debug, Clone, Copy)]
enum LeftBoundary {
    /// Resolved locally: the path starts here.
    Terminal,
    /// The continuing predecessor vertex `nbr` (in walk orientation) is owned
    /// by another rank; `agree` is this segment's first-vertex last base code,
    /// which the owner uses to verify the predecessor extends back mutually.
    Pending { nbr: Kmer, agree: u8 },
}

impl LeftBoundary {
    /// The left boundary of the segment that starts on the reverse complement
    /// of `end.last`: the opposite walk's stop, seen from the other strand. A
    /// remote stop is pending; a dead end or an absent, ineligible or
    /// non-mutual vertex is terminal.
    fn facing(end: &WalkEnd) -> Self {
        match end.right_code {
            Some(c) if end.right_remote => LeftBoundary::Pending {
                nbr: end.last.extended_right(c).revcomp(),
                agree: 3 - end.last.first_code(),
            },
            _ => LeftBoundary::Terminal,
        }
    }
}

/// One owner-local maximal run, in a fixed walk direction. (The endpoint
/// k-mers are not stored: the last vertex is the `by_last` index key, and
/// everything else the stitcher ships is derivable from `bases`.)
struct Segment {
    left: LeftBoundary,
    /// The right-extension base code of the last vertex (`None` when that
    /// side is a dead end).
    right_code: Option<u8>,
    /// True when `right_code` points at a vertex owned by another rank.
    right_remote: bool,
    bases: Vec<u8>,
    depth_sum: u64,
}

impl Segment {
    /// Terminal on the left and stopped at no remote vertex on the right: a
    /// whole path, which no segment precedes or follows.
    fn is_whole_path(&self) -> bool {
        matches!(self.left, LeftBoundary::Terminal) && !self.right_remote
    }
}

/// The request of the predecessor-resolution round: "which of your segments
/// ends with `last` and extends right with base code `agree`?"
#[derive(Debug, Clone, Copy)]
struct PredQuery {
    last: Kmer,
    agree: u8,
}

/// One segment shipped to its assembly site (chain head's rank for paths,
/// minimal segment's rank for cycles). Everything the splicer needs that is
/// derivable from `bases` — the endpoint k-mers, their canonical forms, the
/// vertex count — is *recomputed at the receiver* instead of shipped: the
/// wire struct carries five fewer `Kmer`s (40 bytes each) than the obvious
/// encoding, which is most of the final exchange's byte volume.
struct AsmRecord {
    chain: Chain,
    right_code: u8,
    bases: Vec<u8>,
    depth_sum: u64,
}

enum Chain {
    Path {
        head_idx: u32,
        pos: u32,
    },
    /// `min_idx` is the cycle's minimal `SegId`'s index on the assembly rank
    /// (which is that `SegId`'s rank, so the index alone identifies it).
    Cycle {
        min_idx: u32,
    },
}

impl AsmRecord {
    /// Number of graph vertices the segment covers.
    fn vcount(&self, k: usize) -> u32 {
        (self.bases.len() + 1 - k) as u32
    }

    /// First vertex in walk orientation, recomputed from the bases.
    fn first(&self, k: usize) -> Kmer {
        Kmer::from_bytes(&self.bases[..k]).expect("segment bases start with a k-mer")
    }

    /// Last vertex in walk orientation, recomputed from the bases.
    fn last(&self, k: usize) -> Kmer {
        Kmer::from_bytes(&self.bases[self.bases.len() - k..])
            .expect("segment bases end with a k-mer")
    }
}

/// The minimal canonical vertex of a walk's bases, whether it is visited in
/// canonical orientation, and its vertex index within the walk: the first
/// occurrence wins, upgraded only by a canonical-orientation visit of the
/// same vertex. A cycle is emitted from that vertex in canonical orientation
/// (the per-hop walker's cycle seed), so only the cycle emitters need this
/// triple: Level 1's for fully-local cycles, and the assembly site's, which
/// recomputes it from the shipped bases instead of shipping it with every
/// record.
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

/// This rank's own shard of the counts table, borrowed for Level 1 at the
/// table's key width: zero traffic, and the walks claim each vertex in its
/// entry.
struct LocalGraph<'a, K> {
    view: dht::LocalShardView<'a, K, KmerCounts>,
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
    /// Walks right from `start` (eligible, oriented as `v0`) while the next
    /// vertex is local, eligible and mutually agreeing: the per-hop walker's
    /// continuation rule, with remote ownership as an extra stop (a segment
    /// boundary). Writes the walk's bases into `bases` and claims every
    /// vertex it steps onto. Only a mutual step back into `start` itself
    /// closes the walk; it runs on through `start`'s reverse complement, as
    /// a self-mirror hairpin does.
    fn walk(&mut self, start: Kmer, v0: &OrientedVertex, bases: &mut Vec<u8>) -> WalkEnd {
        bases.clear();
        bases.extend((0..start.k()).map(|i| start.base_at(i)));
        let mut end = WalkEnd {
            last: start,
            right_code: None,
            right_remote: false,
            depth_sum: v0.count as u64,
            closed: false,
        };
        let mut right = v0.right;
        let mut steps = 0usize;
        while let Ext::Base(c) = right {
            steps += 1;
            if steps > self.limit {
                // Unreachable: the mutual check makes every vertex's local
                // predecessor unique, so a walk stops or closes at its start.
                debug_assert!(
                    false,
                    "walk from {start} (k = {}) ran past its {}-step bound",
                    start.k(),
                    self.limit
                );
                break;
            }
            let next = end.last.extended_right(c);
            // The view holds only keys this rank owns, so a hit needs no
            // owner test; `owner_of` (a minimizer roll under the counts
            // table's partitioner) runs only on a miss.
            let (canon, was_rc) = next.canonical();
            let Some(slot) = self.view.get_mut(&K::of_kmer(&canon)) else {
                end.right_code = Some(c);
                end.right_remote = self.graph.counts.owner_of(&canon) != self.rank;
                break;
            };
            let nv = orient(self.graph.vertex(slot), canon, was_rc);
            // The next vertex must agree that its left neighbour is `last`
            // (the per-hop walker's mutual check, as a base-code comparison).
            if !eligible(nv.left, nv.right) || nv.left != Ext::Base(end.last.first_code()) {
                end.right_code = Some(c);
                break;
            }
            // Only a mutual step closes a cycle: a lasso, whose loop enters
            // `start` against its left extension, stopped just above.
            if next == start {
                end.closed = true;
                break;
            }
            slot.used = true;
            bases.push(decode_base(c));
            end.depth_sum += nv.count as u64;
            end.last = next;
            right = nv.right;
        }
        end
    }
}

/// Level 1: compacts this rank's shard of `counts` (the graph's table at its
/// key width) into segments, emits its whole paths and fully-local cycles
/// into `local`, and returns the rest (the segments that cross an ownership
/// boundary) indexed by their last vertex. Zero traffic. Every eligible
/// vertex of the shard ends up claimed, and only those.
fn compact_local<K: KmerKey>(
    ctx: &Ctx,
    graph: &KmerGraph,
    counts: &DistMap<K, KmerCounts>,
    params: &TraversalParams,
    local: &mut Vec<(Vec<u8>, f64)>,
) -> (Vec<Segment>, FxHashMap<Kmer, u32>) {
    let k = graph.counts.k();
    let mut segs: Vec<Segment> = Vec::new();
    let mut by_last: FxHashMap<Kmer, u32> = FxHashMap::default();
    let view = counts.local_view(ctx);
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
        for (key, c) in lg.view.sub_shard(sub) {
            debug_assert!(
                sub > 0 || !c.used,
                "{key:?} was claimed before the traversal"
            );
            let v = lg.graph.vertex(c);
            if !v.used && eligible(v.left, v.right) {
                starts.push(*key);
            }
        }
        for key in &starts {
            let v = match lg.view.get_mut(key) {
                Some(slot) if !slot.used => {
                    slot.used = true;
                    lg.graph.vertex(slot)
                }
                _ => continue,
            };
            let kmer = key.to_kmer(k);
            let r = lg.walk(kmer, &orient(v, kmer, false), &mut right);
            if r.closed {
                push_local_cycle(local, &right, k, r.depth_sum, params);
                continue;
            }
            let l = lg.walk(kmer.revcomp(), &orient(v, kmer, true), &mut left);
            debug_assert!(!l.closed, "the left walk closes only if the right one does");
            // The run reads revcomp(L) ++ R[k..] left to right, and its
            // mirror is the reverse complement. Both walks ending on one
            // oriented vertex make a self-mirror hairpin: one segment.
            let depth_sum = l.depth_sum + r.depth_sum - v.count as u64;
            let mut bases = revcomp(&left);
            bases.extend_from_slice(&right[k..]);
            let fwd = Segment {
                left: LeftBoundary::facing(&l),
                right_code: r.right_code,
                right_remote: r.right_remote,
                bases,
                depth_sum,
            };
            let rev = (l.last != r.last).then(|| {
                let mut bases = revcomp(&right);
                bases.extend_from_slice(&left[k..]);
                let seg = Segment {
                    left: LeftBoundary::facing(&r),
                    right_code: l.right_code,
                    right_remote: l.right_remote,
                    bases,
                    depth_sum,
                };
                (l.last, seg)
            });
            for (last, seg) in std::iter::once((r.last, fwd)).chain(rev) {
                if seg.is_whole_path() {
                    push_path(local, seg.bases, seg.depth_sum, k, params);
                } else {
                    by_last.insert(last, segs.len() as u32);
                    segs.push(seg);
                }
            }
        }
    }
    (segs, by_last)
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
/// emits its whole paths here and the assembly sites their spliced chains.
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
/// contigs. Collective; byte-identical to the per-hop walker's output.
pub(crate) fn segment_contigs(
    ctx: &Ctx,
    graph: &KmerGraph,
    k: usize,
    params: &TraversalParams,
) -> Vec<(Vec<u8>, f64)> {
    let mut local: Vec<(Vec<u8>, f64)> = Vec::new();
    // ---- Level 1: owner-local compaction (zero communication) --------------
    // The shard view is dropped inside, before any cross-rank phase.
    let (segs, by_last) =
        with_keys!(graph.counts, map => compact_local(ctx, graph, map, params, &mut local));
    if ctx.allreduce_any(!segs.is_empty()) {
        stitch(ctx, graph, k, params, segs, &by_last, &mut local);
    }
    local
}

/// Rank 0's half of Level 2: places every segment of the gathered link
/// table, whose entries are the team's `(segment, predecessor)` pairs. A
/// chain head has no predecessor and so no entry; each chain is walked
/// forward from its head, numbering positions, and what those walks leave
/// unreached lies on a cross-rank cycle, walked once to its minimal `SegId`.
/// Returns each rank's answers, one per entry of that rank, in ascending
/// segment index: the order the rank sent its entries in.
fn rank_chains(table: &[(SegId, SegId)], ranks: usize) -> Vec<Vec<Link>> {
    let pred_of: FxHashMap<SegId, SegId> = table.iter().copied().collect();
    let succ: FxHashMap<SegId, SegId> = table.iter().map(|&(seg, pred)| (pred, seg)).collect();
    debug_assert_eq!(succ.len(), table.len(), "a segment has two successors");
    let mut place: FxHashMap<SegId, Link> = FxHashMap::default();
    // A head is the predecessor of exactly one entry, so each chain is
    // walked once.
    for &(_, head) in table {
        if pred_of.contains_key(&head) {
            continue;
        }
        let (mut at, mut pos) = (head, 0);
        while let Some(&next) = succ.get(&at) {
            pos += 1;
            place.insert(next, Link::Done { head, pos });
            at = next;
        }
    }
    for &(seg, _) in table {
        if place.contains_key(&seg) {
            continue;
        }
        let mut cycle = vec![seg];
        let mut at = pred_of[&seg];
        while at != seg {
            cycle.push(at);
            at = pred_of[&at];
        }
        let minseg = *cycle.iter().min().expect("a cycle has a segment");
        for s in cycle {
            place.insert(s, Link::Cycle { minseg });
        }
    }
    let mut out: Vec<Vec<(u32, Link)>> = vec![Vec::new(); ranks];
    for (seg, link) in place {
        out[seg.rank as usize].push((seg.idx, link));
    }
    out.into_iter()
        .map(|mut answers| {
            answers.sort_unstable_by_key(|a| a.0);
            answers.into_iter().map(|a| a.1).collect()
        })
        .collect()
}

/// Level 2: stitches the segments that cross an ownership boundary (this
/// rank's are `segs`, indexed by `by_last`) and emits the contigs assembled
/// here into `local`. Collective.
fn stitch(
    ctx: &Ctx,
    graph: &KmerGraph,
    k: usize,
    params: &TraversalParams,
    segs: Vec<Segment>,
    by_last: &FxHashMap<Kmer, u32>,
    local: &mut Vec<(Vec<u8>, f64)>,
) {
    let rank = ctx.rank();
    let me = |idx: usize| SegId {
        rank: rank as u32,
        idx: idx as u32,
    };
    let round = || {
        if rank == 0 {
            ctx.record(Counter::traversal_rounds, 1);
        }
    };

    // ---- Level 2a: one aggregated round resolves every predecessor ---------
    let mut pending: Vec<(usize, u32)> = Vec::new(); // (seg idx, dest rank)
    let mut reqs: Vec<(usize, PredQuery)> = Vec::new();
    for (i, seg) in segs.iter().enumerate() {
        if let LeftBoundary::Pending { nbr, agree } = seg.left {
            let (canon, _) = nbr.canonical();
            let dest = graph.counts.owner_of(&canon);
            debug_assert_ne!(dest, rank, "a pending neighbour is remote by construction");
            pending.push((i, dest as u32));
            reqs.push((dest, PredQuery { last: nbr, agree }));
            ctx.record(
                Counter::stitch_bytes,
                (std::mem::size_of::<PredQuery>() + std::mem::size_of::<Option<u32>>()) as u64,
            );
        }
    }
    round();
    let pred_resps = ctx.exchange_map(reqs, STITCH_BATCH, |q: PredQuery| -> Option<u32> {
        by_last.get(&q.last).copied().filter(|&i| {
            let p = &segs[i as usize];
            debug_assert!(p.right_remote || p.right_code != Some(q.agree));
            p.right_code == Some(q.agree)
        })
    });
    // (seg idx, predecessor) in ascending index: the entries this rank
    // contributes to the link table.
    let mut linked: Vec<(usize, SegId)> = Vec::new();
    for (&(i, dest), resp) in pending.iter().zip(pred_resps) {
        if let Some(idx) = resp {
            linked.push((i, SegId { rank: dest, idx }));
        }
    }

    // ---- Level 2b: rank 0 ranks the chains from one gathered link table ----
    round();
    if rank != 0 {
        ctx.record(
            Counter::stitch_bytes,
            (linked.len() * std::mem::size_of::<(SegId, SegId)>()) as u64,
        );
    }
    let table = ctx.gather(linked.iter().map(|&(i, pred)| (me(i), pred)).collect());
    let answers = if rank == 0 {
        let answers = rank_chains(&table, ctx.ranks());
        let sent: usize = answers[1..].iter().map(Vec::len).sum();
        ctx.record(
            Counter::stitch_bytes,
            (sent * std::mem::size_of::<Link>()) as u64,
        );
        answers
    } else {
        vec![Vec::new(); ctx.ranks()]
    };
    let answers = ctx.exchange(answers);
    debug_assert_eq!(answers.len(), linked.len());
    let mut links: Vec<Link> = (0..segs.len())
        .map(|i| Link::Done {
            head: me(i),
            pos: 0,
        })
        .collect();
    for (&(i, _), link) in linked.iter().zip(answers) {
        links[i] = link;
    }

    // ---- Level 2c: ship every segment to its assembly site ------------------
    round();
    let mut agg: Aggregator<AsmRecord> = Aggregator::new(ctx, ASSEMBLE_BATCH);
    for (seg, link) in segs.into_iter().zip(links) {
        let (dest, chain) = match link {
            Link::Done { head, pos } => (
                head.rank as usize,
                Chain::Path {
                    head_idx: head.idx,
                    pos,
                },
            ),
            Link::Cycle { minseg } => (
                minseg.rank as usize,
                Chain::Cycle {
                    min_idx: minseg.idx,
                },
            ),
        };
        if dest != rank {
            ctx.record(
                Counter::stitch_bytes,
                (seg.bases.len() + std::mem::size_of::<AsmRecord>()) as u64,
            );
        }
        agg.push(
            dest,
            AsmRecord {
                chain,
                right_code: seg.right_code.unwrap_or(0),
                bases: seg.bases,
                depth_sum: seg.depth_sum,
            },
        );
    }
    let records = agg.finish();

    // ---- Assembly: splice chains, apply the emitter rules -------------------
    let mut paths: FxHashMap<u32, Vec<AsmRecord>> = FxHashMap::default();
    let mut cycles: FxHashMap<u32, Vec<AsmRecord>> = FxHashMap::default();
    for rec in records {
        match rec.chain {
            Chain::Path { head_idx, .. } => paths.entry(head_idx).or_default().push(rec),
            Chain::Cycle { min_idx } => cycles.entry(min_idx).or_default().push(rec),
        }
    }
    for (_, mut recs) in paths {
        recs.sort_unstable_by_key(|r| match r.chain {
            Chain::Path { pos, .. } => pos,
            Chain::Cycle { .. } => 0,
        });
        debug_assert!(recs
            .iter()
            .enumerate()
            .all(|(i, r)| matches!(r.chain, Chain::Path { pos, .. } if pos == i as u32)));
        let mut bases = std::mem::take(&mut recs[0].bases);
        let mut depth_sum = recs[0].depth_sum;
        for r in &recs[1..] {
            bases.extend_from_slice(&r.bases[k - 1..]);
            depth_sum += r.depth_sum;
        }
        push_path(local, bases, depth_sum, k, params);
    }
    for (_, recs) in cycles {
        // One full directed cycle lands here (its mirror assembles at its own
        // minimal segment's rank). The group's minimal canonical vertex is
        // the cycle's global minimum; emit only if this direction visits it
        // in canonical orientation — exactly one of the two mirror directions
        // does (for odd k each (vertex, orientation) pair occurs at most once
        // per directed chain), so the cycle is emitted exactly once, by the
        // same rule the per-hop walker applies from its canonical seed. A
        // self-mirror cycle contains both directions in one chain and lands
        // here whole, with a unique canonical-min record — it also emits
        // exactly once.
        let mins: Vec<(Kmer, bool, u32)> = recs.iter().map(|r| segment_min(&r.bases, k)).collect();
        let Some(e) = (0..recs.len()).min_by_key(|&i| (mins[i].0, !mins[i].1)) else {
            debug_assert!(false, "empty cycle group");
            continue;
        };
        if !mins[e].1 {
            continue; // the mirror direction sees the minimum canonically
        }
        let by_first: FxHashMap<Kmer, usize> = recs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.first(k), i))
            .collect();
        let mut order = vec![e];
        loop {
            let r = &recs[*order.last().expect("order is non-empty")];
            let next_first = r.last(k).extended_right(r.right_code);
            let Some(&j) = by_first.get(&next_first) else {
                debug_assert!(false, "broken cycle chain");
                break;
            };
            if j == e || order.len() > recs.len() {
                break;
            }
            order.push(j);
        }
        let total: usize = order.iter().map(|&j| recs[j].vcount(k) as usize).sum();
        let mut circle = recs[e].bases.clone();
        for &j in &order[1..] {
            circle.extend_from_slice(&recs[j].bases[k - 1..]);
        }
        debug_assert_eq!(circle.len(), total + k - 1);
        // Rotate so the contig starts at the minimal vertex: base i of the
        // output is base (min_offset + i) of the underlying base cycle.
        let p = mins[e].2 as usize;
        let out: Vec<u8> = (0..total + k - 1)
            .map(|i| circle[(p + i) % total])
            .collect();
        let depth_sum: u64 = order.iter().map(|&j| recs[j].depth_sum).sum();
        push_contig(local, out, depth_sum as f64, total, params);
    }
}

#[cfg(test)]
mod tests {
    //! Level 1 against the discovery it replaced: every eligible vertex
    //! probed as a segment start in both orientations, every run walked from
    //! both of its ends, and fully-local cycles found as the eligible vertices
    //! no segment covered. Equal segments (bases, left boundary, right code,
    //! remote flag, depth) pin the stitch traffic, which the contig-level
    //! per-hop oracle cannot see. The graphs are the per-hop tests' stress
    //! reads and hand-built lassos, whose loop re-enters the run at a
    //! vertex against its left extension. Level 2's chain ranking is held to
    //! hand-built link tables, and its round count to chains of any length.

    use super::*;
    use crate::analysis::{kmer_analysis, KmerAnalysisParams};
    use crate::graph::{build_graph, ThresholdPolicy};
    use crate::per_hop::tests::{graph_of, lasso_vertices, stress_reads};
    use dht::FxHashSet;
    use pgas::Team;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle's copy of this rank's shard, keyed by `Kmer` whatever the
    /// table's key width, in key order.
    struct OracleShard<'a> {
        entries: Vec<(Kmer, KmerCounts)>,
        map: FxHashMap<Kmer, KmerCounts>,
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
        if lg.graph.counts.owner_of(&canon) != lg.rank {
            return Probe::Remote;
        }
        match lg.map.get(&canon) {
            None => Probe::Absent,
            Some(c) => Probe::Present(orient(lg.graph.vertex(c), canon, was_rc)),
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

    /// `None` when `kmer`'s left neighbour continues its run locally.
    fn left_boundary(lg: &OracleShard, kmer: &Kmer, v: &OrientedVertex) -> Option<LeftBoundary> {
        let Ext::Base(lc) = v.left else {
            return Some(LeftBoundary::Terminal);
        };
        let nbr = kmer.extended_left(lc);
        match probe(lg, &nbr) {
            Probe::Remote => Some(LeftBoundary::Pending {
                nbr,
                agree: kmer.last_code(),
            }),
            Probe::Present(lv)
                if eligible(lv.left, lv.right) && lv.right == Ext::Base(kmer.last_code()) =>
            {
                None
            }
            _ => Some(LeftBoundary::Terminal),
        }
    }

    /// The replaced Level 1; reads the shard and claims nothing.
    fn oracle_compact(
        ctx: &Ctx,
        graph: &KmerGraph,
        params: &TraversalParams,
    ) -> (Vec<Segment>, Vec<(Vec<u8>, f64)>) {
        let mut entries = graph.counts.local_entries(ctx);
        entries.sort_by_key(|e| e.0);
        let lg = OracleShard {
            limit: 2 * entries.len() + 2,
            map: entries.iter().copied().collect(),
            entries,
            graph,
            rank: ctx.rank(),
        };
        let (mut segs, mut cycles) = (Vec::new(), Vec::new());
        let shard = || lg.entries.iter().map(|(key, c)| (key, c));
        let mut covered: FxHashSet<Kmer> = FxHashSet::default();
        for (key, c) in shard() {
            let v = graph.vertex(c);
            if !eligible(v.left, v.right) {
                continue;
            }
            for okmer in [*key, key.revcomp()] {
                let ov = orient(v, *key, okmer != *key);
                let Some(left) = left_boundary(&lg, &okmer, &ov) else {
                    continue;
                };
                let w = walk_local(&lg, okmer, &ov);
                assert!(!w.closed, "a segment start cannot close a cycle");
                covered.extend(w.visited.iter().copied());
                segs.push(Segment {
                    left,
                    right_code: w.right_code,
                    right_remote: w.right_remote,
                    bases: w.bases,
                    depth_sum: w.depth_sum,
                });
            }
        }
        let mut cycle_seen: FxHashSet<Kmer> = FxHashSet::default();
        for (key, c) in shard() {
            let v = graph.vertex(c);
            if !eligible(v.left, v.right) || covered.contains(key) || cycle_seen.contains(key) {
                continue;
            }
            let w = walk_local(&lg, *key, &orient(v, *key, false));
            assert!(w.closed, "uncovered vertices must lie on local cycles");
            cycle_seen.extend(w.visited.iter().copied());
            let min = *w.visited.iter().min().expect("a walk visits its start");
            let mv = graph.vertex(lg.map.get(&min).expect("cycle vertex is owned locally"));
            let w = walk_local(&lg, min, &orient(mv, min, false));
            push_contig(&mut cycles, w.bases, w.depth_sum as f64, w.vcount, params);
        }
        (segs, cycles)
    }

    type SegKey = (Vec<u8>, Option<(Kmer, u8)>, Option<u8>, bool, u64);

    fn sorted_keys(segs: &[Segment]) -> Vec<SegKey> {
        let mut keys: Vec<SegKey> = segs
            .iter()
            .map(|s| {
                let left = match s.left {
                    LeftBoundary::Terminal => None,
                    LeftBoundary::Pending { nbr, agree } => Some((nbr, agree)),
                };
                (
                    s.bases.clone(),
                    left,
                    s.right_code,
                    s.right_remote,
                    s.depth_sum,
                )
            })
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
        let (oracle_segs, mut want_local) = oracle_compact(ctx, graph, &traversal);
        let counts = (
            oracle_segs
                .iter()
                .filter(|s| s.bases == revcomp(&s.bases))
                .count() as u64,
            oracle_segs
                .iter()
                .filter(|s| matches!(s.left, LeftBoundary::Pending { .. }))
                .count() as u64,
            want_local.len() as u64,
        );
        let mut want_segs = Vec::new();
        for seg in oracle_segs {
            if seg.is_whole_path() {
                push_path(&mut want_local, seg.bases, seg.depth_sum, k, &traversal);
            } else {
                want_segs.push(seg);
            }
        }
        let mut local = Vec::new();
        let (segs, by_last) =
            with_keys!(graph.counts, map => compact_local(ctx, graph, map, &traversal, &mut local));
        let at = format!("k={k} ranks={} rank={}", ctx.ranks(), ctx.rank());
        assert_eq!(sorted_keys(&segs), sorted_keys(&want_segs), "{at}");
        assert_eq!(sorted_contigs(&local), sorted_contigs(&want_local), "{at}");
        assert_eq!(by_last.len(), segs.len(), "{at}");
        for (i, s) in segs.iter().enumerate() {
            let last = Kmer::from_bytes(&s.bases[s.bases.len() - k..]);
            assert_eq!(by_last.get(&last.unwrap()), Some(&(i as u32)), "{at}");
        }
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
                        let scan: FxHashMap<Kmer, usize> = with_keys!(graph.counts, map => {
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

    fn seg(rank: u32, idx: u32) -> SegId {
        SegId { rank, idx }
    }

    /// The link of every segment in `preds` (each cross-rank segment and its
    /// predecessor, `None` at a chain head) as `stitch` sets it: a segment
    /// with a predecessor sends that pair to rank 0 and gets back its answer,
    /// in the order `rank_chains` returns them; a head keeps `Done` at 0.
    fn places(preds: &[(SegId, Option<SegId>)], ranks: usize) -> FxHashMap<SegId, Link> {
        let table: Vec<(SegId, SegId)> = preds.iter().filter_map(|&(s, p)| Some((s, p?))).collect();
        let answers = rank_chains(&table, ranks);
        let mut out: FxHashMap<SegId, Link> = preds
            .iter()
            .map(|&(s, _)| (s, Link::Done { head: s, pos: 0 }))
            .collect();
        for (r, answers) in answers.into_iter().enumerate() {
            let mut mine: Vec<SegId> = table
                .iter()
                .map(|e| e.0)
                .filter(|s| s.rank as usize == r)
                .collect();
            mine.sort_unstable();
            assert_eq!(mine.len(), answers.len(), "rank {r}'s answers");
            out.extend(mine.into_iter().zip(answers));
        }
        out
    }

    #[test]
    fn rank_zero_ranks_paths_and_cycles_from_the_link_table() {
        let path = [seg(0, 3), seg(1, 0), seg(2, 5), seg(0, 1), seg(1, 2)];
        let two = [seg(1, 4), seg(0, 7)];
        let three = [seg(2, 0), seg(1, 1), seg(0, 9)];
        let lone = seg(1, 3);
        // Each cycle is listed (and so walked) from a segment that is not
        // its minimum, the path from its tail.
        let mut preds: Vec<(SegId, Option<SegId>)> = Vec::new();
        preds.extend((1..path.len()).rev().map(|i| (path[i], Some(path[i - 1]))));
        preds.push((path[0], None));
        for cycle in [&two[..], &three[..]] {
            let n = cycle.len();
            preds.extend((0..n).map(|i| (cycle[i], Some(cycle[(i + n - 1) % n]))));
        }
        preds.push((lone, None));
        let got = places(&preds, 3);
        assert_eq!(got.len(), preds.len());
        for (pos, s) in path.iter().enumerate() {
            let want = Link::Done {
                head: path[0],
                pos: pos as u32,
            };
            assert_eq!(got[s], want, "path segment {s:?}");
        }
        for (cycle, minseg) in [(&two[..], seg(0, 7)), (&three[..], seg(0, 9))] {
            assert_ne!(cycle[0], minseg, "the walk starts off the minimum");
            for s in cycle {
                assert_eq!(got[s], Link::Cycle { minseg }, "cycle segment {s:?}");
            }
        }
        assert_eq!(got[&lone], Link::Done { head: lone, pos: 0 });
        // A lone head sends nothing; a team of lone heads ranks nothing.
        assert_eq!(rank_chains(&[], 3), vec![Vec::<Link>::new(); 3]);
    }

    #[test]
    fn stitching_takes_three_rounds_at_any_chain_length_and_none_at_one_rank() {
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
                        assert_eq!(stats.traversal_rounds, 3, "{at}");
                        assert!(stats.stitch_bytes > 0, "{at}");
                    }
                }
            }
        }
    }
}

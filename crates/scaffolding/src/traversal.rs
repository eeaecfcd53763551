//! Contig-graph traversal with connected-component partitioning (§III-C).

use crate::links::{ContigEndRef, End, LinkData, LinkSet};
use crate::types::{Scaffold, ScaffoldEntry};
use dbg::{ContigId, ContigStore, ContigsRef};
use dht::FxHashMap;
use pgas::{Counter, Ctx};
use rrna_hmm::RrnaDetector;
use std::collections::{BTreeMap, HashSet};

/// Parameters of the contig-graph traversal.
#[derive(Debug, Clone, Copy)]
pub struct ScaffoldTraversalParams {
    /// Links with fewer supporting observations are ignored entirely (this is
    /// also what shrinks the connected components and exposes parallelism, as
    /// the paper notes).
    pub min_link_support: u32,
    /// Contigs at least this long are "long"/confident seeds.
    pub long_contig_len: usize,
    /// A repeat contig may be suspended only if it is at most this long
    /// (the paper bounds it by the library insert size).
    pub max_suspend_len: usize,
    /// Contigs recognised as ribosomal by the HMM must be at least this long
    /// for the aggressive rRNA traversal rule to apply.
    pub rrna_min_len: usize,
    /// Maximum relative depth difference for the rRNA rule to follow a
    /// competing link.
    pub rrna_depth_tolerance: f64,
}

impl Default for ScaffoldTraversalParams {
    fn default() -> Self {
        ScaffoldTraversalParams {
            min_link_support: 2,
            long_contig_len: 300,
            max_suspend_len: 400,
            rrna_min_len: 150,
            rrna_depth_tolerance: 0.5,
        }
    }
}

/// Connected components of the contig graph: one label per contig, the
/// smallest contig id of its component. The link edges are replicated, so
/// every rank computes the same labels alone, with a union-find whose every
/// root is the smallest id of its tree.
pub fn connected_components(num_contigs: usize, edges: &[(ContigId, ContigId)]) -> Vec<ContigId> {
    fn root(parent: &mut [ContigId], mut x: ContigId) -> ContigId {
        while parent[x as usize] != x {
            // Path halving: point at the grandparent, then step there.
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut parent: Vec<ContigId> = (0..num_contigs as ContigId).collect();
    for &(a, b) in edges {
        let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
    (0..num_contigs as ContigId)
        .map(|x| root(&mut parent, x))
        .collect()
}

/// Every link at each contig end, in [`LinkSet`] order: one slice per end,
/// so a walk step reads its own links instead of scanning all of them.
struct Adjacency {
    /// `far[start[e]..start[e + 1]]` are the links of end slot `e`.
    start: Vec<usize>,
    /// The far end and the data of each link, once per end it touches.
    far: Vec<(ContigEndRef, LinkData)>,
}

impl Adjacency {
    fn new(links: &LinkSet, num_contigs: usize) -> Self {
        // A link between an end and itself is listed once.
        let mut entries: Vec<(usize, ContigEndRef, LinkData)> = Vec::new();
        for (k, d) in &links.links {
            entries.push((Self::slot(k.a), k.b, *d));
            if k.a != k.b {
                entries.push((Self::slot(k.b), k.a, *d));
            }
        }
        // Stable, so each end keeps its links in `LinkSet` order.
        entries.sort_by_key(|&(slot, _, _)| slot);
        let mut start = vec![0usize; 2 * num_contigs + 1];
        for &(slot, _, _) in &entries {
            start[slot + 1] += 1;
        }
        for e in 1..start.len() {
            start[e] += start[e - 1];
        }
        let far = entries.into_iter().map(|(_, to, d)| (to, d)).collect();
        Adjacency { start, far }
    }

    fn slot(end: ContigEndRef) -> usize {
        2 * end.contig as usize + usize::from(end.end == End::Tail)
    }

    /// All links touching the given contig end, with the far end and the data.
    fn links_from(&self, from: ContigEndRef) -> &[(ContigEndRef, LinkData)] {
        let e = Self::slot(from);
        &self.far[self.start[e]..self.start[e + 1]]
    }

    /// True if any link joins the two ends.
    fn linked(&self, x: ContigEndRef, y: ContigEndRef) -> bool {
        self.links_from(x).iter().any(|(other, _)| *other == y)
    }
}

/// The rRNA verdicts one rank's walk reads, each decided when first asked
/// for and remembered. A contig shorter than `rrna_min_len` is not a hit
/// without a look at its sequence. The store's owned contigs are read in
/// place; foreign ones are fetched one-sided
/// ([`dht::DistMap::get_many_onesided`]: ranks walk different components,
/// so no collective is reachable), with no cache. The rank that decides a
/// verdict records its cells.
struct RrnaVerdicts<'a> {
    ctx: &'a Ctx<'a>,
    contigs: &'a ContigStore,
    detector: Option<&'a RrnaDetector>,
    min_len: usize,
    known: FxHashMap<ContigId, bool>,
}

impl RrnaVerdicts<'_> {
    /// Decides every undecided contig of `ids`, fetching them in one call.
    fn decide(&mut self, ids: &[ContigId]) {
        let Some(detector) = self.detector else {
            return;
        };
        let long_enough = |id| {
            self.contigs
                .meta(id)
                .is_some_and(|m| m.len as usize >= self.min_len)
        };
        let mut ids: Vec<ContigId> = ids
            .iter()
            .copied()
            .filter(|&id| long_enough(id) && !self.known.contains_key(&id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let RrnaVerdicts {
            ctx,
            known,
            contigs,
            ..
        } = self;
        let mut decide = |id: ContigId, seq: &[u8]| {
            let call = detector.classify(seq);
            ctx.record(Counter::hmm_bound_cells, call.bound_cells);
            ctx.record(Counter::hmm_exact_cells, call.exact_cells);
            known.insert(id, call.hit);
        };
        let map = contigs.map();
        let (owned, foreign): (Vec<ContigId>, Vec<ContigId>) = ids
            .into_iter()
            .partition(|id| map.owner_of(id) == ctx.rank());
        for id in owned {
            decide(
                id,
                &map.get_cloned(ctx, &id).expect("contig exists").unpack(),
            );
        }
        let fetched = map.get_many_onesided(ctx, &foreign);
        for (id, packed) in foreign.into_iter().zip(fetched) {
            decide(id, &packed.expect("contig exists").unpack());
        }
    }

    /// True if the contig contains an rRNA-like region.
    fn is_hit(&mut self, id: ContigId) -> bool {
        self.decide(&[id]);
        self.known.get(&id).copied().unwrap_or(false)
    }
}

/// One directed step choice out of a contig end.
fn pick_next(
    from: ContigEndRef,
    contigs: &ContigStore,
    links: &Adjacency,
    visited: &HashSet<ContigId>,
    rrna: &mut RrnaVerdicts<'_>,
    params: &ScaffoldTraversalParams,
) -> Option<(ContigEndRef, LinkData, Option<ContigId>)> {
    let mut candidates: Vec<(ContigEndRef, LinkData)> = links
        .links_from(from)
        .iter()
        .copied()
        .filter(|(other, d)| {
            d.support() >= params.min_link_support && !visited.contains(&other.contig)
        })
        .collect();
    candidates.sort_by_key(|(other, d)| (std::cmp::Reverse(d.support()), other.contig, other.end));
    match candidates.len() {
        0 => None,
        1 => {
            let (other, d) = candidates[0];
            Some((other, d, None))
        }
        _ => {
            // Competing links. First try repeat suspension: a short candidate R
            // whose far end links to another candidate Y means the span jumped
            // over the repeat R — suspend R and follow the direct link to Y.
            for i in 0..candidates.len() {
                let (r, _rd) = candidates[i];
                let r_len = contigs
                    .meta(r.contig)
                    .map_or(usize::MAX, |m| m.len as usize);
                if r_len > params.max_suspend_len {
                    continue;
                }
                let r_far = ContigEndRef {
                    contig: r.contig,
                    end: r.end.opposite(),
                };
                for (j, &(y, yd)) in candidates.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if links.linked(r_far, y) {
                        return Some((y, yd, Some(r.contig)));
                    }
                }
            }
            // rRNA rule: if the current contig is an HMM hit, extend anyway
            // to a candidate of similar depth, preferring one that is also a
            // hit. Verdicts are read only where they decide the step: the
            // current contig's if some candidate has a similar depth, then
            // those candidates' (decided in one fetch).
            let depth_of = |id| contigs.meta(id).map_or(0.0, |m| m.depth);
            let my_depth = depth_of(from.contig);
            let similar: Vec<(ContigEndRef, LinkData, f64)> = candidates
                .iter()
                .map(|&(other, d)| {
                    let od = depth_of(other.contig);
                    let rel = if my_depth > 0.0 {
                        (od - my_depth).abs() / my_depth
                    } else {
                        f64::INFINITY
                    };
                    (other, d, rel)
                })
                .filter(|&(_, _, rel)| rel <= params.rrna_depth_tolerance)
                .collect();
            if !similar.is_empty() && rrna.is_hit(from.contig) {
                let ids: Vec<ContigId> = similar.iter().map(|(other, _, _)| other.contig).collect();
                rrna.decide(&ids);
                let mut best: Option<(ContigEndRef, LinkData, f64)> = None;
                for (other, d, rel) in similar {
                    let score = rel - if rrna.is_hit(other.contig) { 1.0 } else { 0.0 };
                    if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                        best = Some((other, d, score));
                    }
                }
                return best.map(|(other, d, _)| (other, d, None));
            }
            // Otherwise the end is not extendable.
            None
        }
    }
}

/// Walks outward from one end of the seed, returning the chain of entries (not
/// including the seed itself).
fn walk(
    seed: ContigId,
    seed_exit: End,
    contigs: &ContigStore,
    links: &Adjacency,
    visited: &mut HashSet<ContigId>,
    rrna: &mut RrnaVerdicts<'_>,
    params: &ScaffoldTraversalParams,
) -> Vec<(ContigId, bool, i64, Option<ContigId>)> {
    let mut out = Vec::new();
    let mut current = ContigEndRef {
        contig: seed,
        end: seed_exit,
    };
    while let Some((entered, data, suspended)) =
        pick_next(current, contigs, links, visited, rrna, params)
    {
        if let Some(s) = suspended {
            visited.insert(s);
        }
        visited.insert(entered.contig);
        // Entering through the Head means the contig reads forward in the
        // scaffold direction; through the Tail means it is reversed.
        let forward = entered.end == End::Head;
        out.push((entered.contig, forward, data.gap_estimate(), suspended));
        current = ContigEndRef {
            contig: entered.contig,
            end: entered.end.opposite(),
        };
    }
    out
}

/// Collectively traverses the contig graph and returns gapped scaffolds
/// (entries only; sequences are materialised by gap closing). The result is
/// identical on every rank.
///
/// The walk consults contig lengths and depths (the store's replicated
/// metadata) and, at a fork, rRNA verdicts. A verdict is decided only when
/// the walk reads it — the fork's own contig if a candidate has a similar
/// depth, then, if that is a hit, those candidates — once, on the rank that
/// walks the component. The foreign ones among those contigs are fetched
/// one-sided; nothing else crosses ranks here but the gathered scaffolds:
/// the components come from the replicated links on every rank.
pub fn traverse_contig_graph_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    links: &LinkSet,
    rrna: Option<&RrnaDetector>,
    params: &ScaffoldTraversalParams,
) -> Vec<Scaffold> {
    let ContigsRef::Store(contigs) = contigs;
    let verdicts = RrnaVerdicts {
        ctx,
        contigs,
        detector: rrna,
        min_len: params.rrna_min_len,
        known: FxHashMap::default(),
    };
    traverse(ctx, contigs, links, verdicts, params)
}

/// [`traverse_contig_graph_ref`] with the rRNA verdicts it starts from.
fn traverse(
    ctx: &Ctx,
    contigs: &ContigStore,
    links: &LinkSet,
    mut rrna: RrnaVerdicts<'_>,
    params: &ScaffoldTraversalParams,
) -> Vec<Scaffold> {
    // Connected components over sufficiently supported links.
    let edges: Vec<(ContigId, ContigId)> = links
        .links
        .iter()
        .filter(|(_, d)| d.support() >= params.min_link_support)
        .map(|(k, _)| (k.a.contig, k.b.contig))
        .collect();
    let labels = connected_components(contigs.num_contigs(), &edges);
    let adjacency = Adjacency::new(links, contigs.num_contigs());

    // Each rank traverses the components assigned to it (component mod
    // ranks): the members of each, bucketed in one pass over the labels.
    let my_rank = ctx.rank() as u64;
    let ranks = ctx.ranks() as u64;
    let mut my_components: BTreeMap<ContigId, Vec<ContigId>> = BTreeMap::new();
    for (id, &label) in labels.iter().enumerate() {
        if label % ranks == my_rank {
            my_components.entry(label).or_default().push(id as ContigId);
        }
    }

    let mut local_scaffolds: Vec<Vec<ScaffoldEntry>> = Vec::new();
    for members in my_components.into_values() {
        // Contigs of this component, longest first (the traversal-seed order).
        let mut members: Vec<(ContigId, usize)> = members
            .into_iter()
            .map(|id| (id, contigs.meta(id).map_or(0, |m| m.len as usize)))
            .collect();
        members.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut visited: HashSet<ContigId> = HashSet::new();
        for &(seed, _len) in &members {
            if visited.contains(&seed) {
                continue;
            }
            visited.insert(seed);
            // Extend right from the seed's Tail and left from its Head.
            let right = walk(
                seed,
                End::Tail,
                contigs,
                &adjacency,
                &mut visited,
                &mut rrna,
                params,
            );
            let left = walk(
                seed,
                End::Head,
                contigs,
                &adjacency,
                &mut visited,
                &mut rrna,
                params,
            );
            // Assemble the entry chain: reversed left part, seed, right part.
            let mut entries: Vec<ScaffoldEntry> = Vec::new();
            for (contig, forward, gap, suspended) in left.iter().rev() {
                // Walking leftward discovered contigs in reverse order and
                // reverse orientation.
                entries.push(ScaffoldEntry {
                    contig: *contig,
                    forward: !*forward,
                    gap_after: Some(*gap),
                    suspended_after: *suspended,
                });
            }
            entries.push(ScaffoldEntry {
                contig: seed,
                forward: true,
                gap_after: None,
                suspended_after: None,
            });
            for (contig, forward, gap, suspended) in &right {
                // The gap belongs to the junction before this contig.
                let prev = entries.len() - 1;
                entries[prev].gap_after = Some(*gap);
                entries[prev].suspended_after = *suspended;
                entries.push(ScaffoldEntry {
                    contig: *contig,
                    forward: *forward,
                    gap_after: None,
                    suspended_after: None,
                });
            }
            local_scaffolds.push(entries);
        }
    }

    // Gather on rank 0, order deterministically, broadcast.
    let mut all = ctx.gather(local_scaffolds);
    ctx.broadcast(|| {
        all.sort_by_key(|entries| entries.first().map(|e| e.contig).unwrap_or(u64::MAX));
        all.into_iter()
            .enumerate()
            .map(|(i, entries)| Scaffold {
                id: i as u64,
                entries,
                seq: Vec::new(),
            })
            .collect::<Vec<_>>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkKey;
    use dbg::{ContigSet, ContigStore, ContigStoreParams};
    use pgas::{StatsSnapshot, Team};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn end(contig: ContigId, end: End) -> ContigEndRef {
        ContigEndRef { contig, end }
    }

    fn chain_links(n: usize, support: u32) -> LinkSet {
        // Contig i's Tail links to contig i+1's Head, gap 5.
        let links = (0..n - 1)
            .map(|i| {
                (
                    LinkKey::new(end(i as u64, End::Tail), end(i as u64 + 1, End::Head)),
                    LinkData {
                        splints: support,
                        spans: 0,
                        gap_sum: (5 * support) as i64,
                    },
                )
            })
            .collect();
        LinkSet {
            links,
            insert_size: 300,
        }
    }

    /// Traverses `links` over a store of `contigs` at the default
    /// parameters, without an rRNA detector.
    fn traverse_plain(ctx: &Ctx, contigs: &ContigSet, links: &LinkSet) -> Vec<Scaffold> {
        let store = ContigStore::build(ctx, contigs, &ContigStoreParams::default());
        let params = ScaffoldTraversalParams::default();
        traverse_contig_graph_ref(ctx, ContigsRef::Store(&store), links, None, &params)
    }

    fn contig_set(lens: &[usize]) -> ContigSet {
        // Build contigs with the requested lengths (descending so ids map 1:1).
        let mut lens_sorted = lens.to_vec();
        lens_sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(lens_sorted, lens, "test helper expects descending lengths");
        ContigSet::from_sequences(
            21,
            lens.iter()
                .enumerate()
                .map(|(i, &l)| {
                    // Distinct filler bases so sequences differ.
                    let base = b"ACGT"[i % 4];
                    (vec![base; l], 10.0)
                })
                .collect(),
        )
    }

    #[test]
    fn connected_components_identify_chains() {
        let l = connected_components(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(l, vec![0, 0, 0, 3, 4, 4]);
    }

    /// The smallest id reachable from each contig, by breadth-first search.
    fn bfs_labels(num_contigs: usize, edges: &[(ContigId, ContigId)]) -> Vec<ContigId> {
        let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); num_contigs];
        for &(a, b) in edges {
            adjacent[a as usize].push(b as usize);
            adjacent[b as usize].push(a as usize);
        }
        let mut labels: Vec<Option<ContigId>> = vec![None; num_contigs];
        for start in 0..num_contigs {
            if labels[start].is_some() {
                continue;
            }
            // Ids are visited in ascending order, so `start` is its
            // component's smallest.
            labels[start] = Some(start as ContigId);
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(x) = queue.pop_front() {
                for &y in &adjacent[x] {
                    if labels[y].is_none() {
                        labels[y] = Some(start as ContigId);
                        queue.push_back(y);
                    }
                }
            }
        }
        labels.into_iter().map(|l| l.expect("visited")).collect()
    }

    #[test]
    fn union_find_components_equal_a_bfs_oracle() {
        let mut rng = StdRng::seed_from_u64(43);
        for trial in 0..200 {
            let n = rng.gen_range(1..60usize);
            // Sparse to dense; self-loops, duplicates (in either direction)
            // and isolated contigs all occur.
            let m = rng.gen_range(0..2 * n);
            let mut edges: Vec<(ContigId, ContigId)> = (0..m)
                .map(|_| {
                    let a = rng.gen_range(0..n) as ContigId;
                    let b = if rng.gen_bool(0.1) {
                        a
                    } else {
                        rng.gen_range(0..n) as ContigId
                    };
                    (a, b)
                })
                .collect();
            for i in 0..m / 4 {
                let (a, b) = edges[i];
                edges.push(if i % 2 == 0 { (a, b) } else { (b, a) });
            }
            assert_eq!(
                connected_components(n, &edges),
                bfs_labels(n, &edges),
                "trial {trial}: n={n} edges={edges:?}"
            );
        }
        assert!(connected_components(0, &[]).is_empty());
    }

    #[test]
    fn simple_chain_becomes_one_scaffold() {
        let contigs = contig_set(&[500, 400, 300]);
        let links = chain_links(3, 3);
        let team = Team::single_node(2);
        let scaffolds = team.run(|ctx| traverse_plain(ctx, &contigs, &links));
        for s in &scaffolds[1..] {
            assert_eq!(s, &scaffolds[0]);
        }
        let s = &scaffolds[0];
        assert_eq!(s.len(), 1, "expected one scaffold, got {:?}", s);
        assert_eq!(s[0].entries.len(), 3);
        let order: Vec<ContigId> = s[0].entries.iter().map(|e| e.contig).collect();
        assert!(order == vec![0, 1, 2] || order == vec![2, 1, 0]);
        // Interior gaps recorded.
        assert!(s[0].entries[0].gap_after.is_some());
        assert!(s[0].entries[2].gap_after.is_none());
    }

    #[test]
    fn unsupported_links_do_not_join_contigs() {
        let contigs = contig_set(&[500, 400, 300]);
        let links = chain_links(3, 1); // below the min support of 2
        let team = Team::single_node(1);
        let scaffolds = team.run(|ctx| traverse_plain(ctx, &contigs, &links));
        assert_eq!(scaffolds[0].len(), 3, "every contig stays single");
    }

    #[test]
    fn repeat_contig_is_suspended_and_jumped() {
        // Contigs 1 and 2 are long; contig 3 is a short repeat connected to
        // both; a direct span link 1–2 jumps over it. Competing links exist at
        // contig 1's tail (to both 2 and 3).
        let contigs = contig_set(&[600, 500, 100]);
        let mk = |x: ContigEndRef, y: ContigEndRef, spans: u32, gap: i64| {
            (
                LinkKey::new(x, y),
                LinkData {
                    splints: 0,
                    spans,
                    gap_sum: gap * spans as i64,
                },
            )
        };
        let links = LinkSet {
            links: vec![
                mk(end(0, End::Tail), end(2, End::Head), 3, 2),
                mk(end(2, End::Tail), end(1, End::Head), 3, 2),
                mk(end(0, End::Tail), end(1, End::Head), 4, 104),
            ],
            insert_size: 300,
        };
        let team = Team::single_node(2);
        let scaffolds = team.run(|ctx| traverse_plain(ctx, &contigs, &links));
        let s = &scaffolds[0];
        assert_eq!(s.len(), 1, "expected a single scaffold: {s:?}");
        let entries = &s[0].entries;
        assert_eq!(entries.len(), 2, "repeat should be suspended: {entries:?}");
        let junction = &entries[0];
        assert_eq!(junction.suspended_after, Some(2));
    }

    #[test]
    fn separate_components_processed_in_parallel_stay_separate() {
        let contigs = contig_set(&[500, 400, 300, 200]);
        // Two independent chains: 0-1 and 2-3.
        let links = LinkSet {
            links: vec![
                (
                    LinkKey::new(end(0, End::Tail), end(1, End::Head)),
                    LinkData {
                        splints: 3,
                        spans: 0,
                        gap_sum: 0,
                    },
                ),
                (
                    LinkKey::new(end(2, End::Tail), end(3, End::Head)),
                    LinkData {
                        splints: 3,
                        spans: 0,
                        gap_sum: 0,
                    },
                ),
            ],
            insert_size: 300,
        };
        for ranks in [1, 2, 4] {
            let team = Team::single_node(ranks);
            let scaffolds = team.run(|ctx| traverse_plain(ctx, &contigs, &links));
            assert_eq!(scaffolds[0].len(), 2, "ranks={ranks}");
            for sc in &scaffolds[0] {
                assert_eq!(sc.entries.len(), 2);
            }
        }
    }

    /// The two scans [`Adjacency`] replaced, as `LinkSet` methods had them.
    fn links_from_by_scan(links: &LinkSet, from: ContigEndRef) -> Vec<(ContigEndRef, LinkData)> {
        links
            .links
            .iter()
            .filter_map(|(k, d)| k.other(from).map(|o| (o, *d)))
            .collect()
    }

    fn linked_by_scan(links: &LinkSet, x: ContigEndRef, y: ContigEndRef) -> bool {
        let key = LinkKey::new(x, y);
        links.links.iter().any(|(k, _)| *k == key)
    }

    fn random_end(rng: &mut StdRng, contigs: usize) -> ContigEndRef {
        let contig = rng.gen_range(0..contigs as ContigId);
        end(contig, if rng.gen() { End::Head } else { End::Tail })
    }

    /// `count` random links among `contigs` contigs: supports 1-5 (so some
    /// fall below the traversal's minimum of 2), a few links from an end to
    /// itself or to the other end of its contig, a few repeated keys.
    fn random_links(rng: &mut StdRng, contigs: usize, count: usize) -> LinkSet {
        let mut links: Vec<(LinkKey, LinkData)> = Vec::new();
        for _ in 0..count {
            let x = random_end(rng, contigs);
            let y = match rng.gen_range(0..20) {
                0 => x,
                1 => end(x.contig, x.end.opposite()),
                2 if !links.is_empty() => links[rng.gen_range(0..links.len())].0.a,
                _ => random_end(rng, contigs),
            };
            let support = rng.gen_range(1..=5);
            links.push((
                LinkKey::new(x, y),
                LinkData {
                    splints: support,
                    spans: 0,
                    gap_sum: rng.gen_range(-20..200) * support as i64,
                },
            ));
        }
        LinkSet {
            links,
            insert_size: 300,
        }
    }

    #[test]
    fn adjacency_lists_what_the_scans_found() {
        let mut rng = StdRng::seed_from_u64(31);
        for (contigs, count) in [(1, 0), (1, 3), (5, 12), (40, 90), (200, 150)] {
            let links = random_links(&mut rng, contigs, count);
            let adjacency = Adjacency::new(&links, contigs);
            for id in 0..contigs as ContigId {
                for x in [end(id, End::Head), end(id, End::Tail)] {
                    assert_eq!(adjacency.links_from(x), links_from_by_scan(&links, x));
                    for other in 0..contigs as ContigId {
                        for y in [end(other, End::Head), end(other, End::Tail)] {
                            assert_eq!(adjacency.linked(x, y), linked_by_scan(&links, x, y));
                        }
                    }
                }
            }
        }
    }

    fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    /// `seq` with `rate` of its bases substituted.
    fn mutate(rng: &mut StdRng, seq: &[u8], rate: f64) -> Vec<u8> {
        let mut out = seq.to_vec();
        for base in &mut out {
            if rng.gen::<f64>() < rate {
                *base = b"ACGT"
                    [(b"ACGT".iter().position(|b| b == base).unwrap() + rng.gen_range(1..4)) % 4];
            }
        }
        out
    }

    /// `len` bases with a copy of `consensus` planted in the middle.
    fn with_copy(rng: &mut StdRng, consensus: &[u8], len: usize) -> Vec<u8> {
        let flank = (len - consensus.len()) / 2;
        let copy = mutate(rng, consensus, 0.03);
        [
            random_seq(rng, flank),
            copy,
            random_seq(rng, len - consensus.len() - flank),
        ]
        .concat()
    }

    /// Runs `traverse` on a team of `ranks` over a store built from `set`,
    /// checks that every rank returned the same scaffolds, and returns them
    /// with the team's counters.
    fn run_on(
        ranks: usize,
        set: &ContigSet,
        traverse: impl Fn(&Ctx, ContigsRef<'_>) -> Vec<Scaffold> + Send + Sync,
    ) -> (Vec<Scaffold>, StatsSnapshot) {
        let team = Team::single_node(ranks);
        let out = team.run(|ctx| {
            let store = ContigStore::build(ctx, set, &ContigStoreParams::default());
            traverse(ctx, ContigsRef::Store(&store))
        });
        for o in &out[1..] {
            assert_eq!(o, &out[0], "{ranks} ranks disagree");
        }
        (out[0].clone(), team.stats_total())
    }

    fn order(scaffolds: &[Scaffold]) -> Vec<Vec<ContigId>> {
        let ids = |s: &Scaffold| s.entries.iter().map(|e| e.contig).collect();
        scaffolds.iter().map(ids).collect()
    }

    /// A fork at contig 0's tail, contig 0 at depth `depth` and carrying a
    /// copy if `hit`: 1 is an rRNA copy at depth 11, 2 is not one, at depth
    /// 10 and with more support (so it sorts first), 3 is a copy at depth 30.
    fn fork(hit: bool, depth: f64) -> (ContigSet, LinkSet, RrnaDetector) {
        let mut rng = StdRng::seed_from_u64(32);
        let consensus = random_seq(&mut rng, 200);
        let detector = RrnaDetector::from_consensus(&consensus);
        let seqs = [
            if hit {
                with_copy(&mut rng, &consensus, 900)
            } else {
                random_seq(&mut rng, 900)
            },
            with_copy(&mut rng, &consensus, 800),
            random_seq(&mut rng, 700),
            with_copy(&mut rng, &consensus, 600),
        ];
        let depths = [depth, 11.0, 10.0, 30.0];
        let set = ContigSet::from_sequences(21, seqs.into_iter().zip(depths).collect());
        let lens: Vec<usize> = set.contigs.iter().map(|c| c.len()).collect();
        assert_eq!(lens, [900, 800, 700, 600], "ids follow lengths");
        let link = |to: ContigId, splints: u32| {
            (
                LinkKey::new(end(0, End::Tail), end(to, End::Head)),
                LinkData {
                    splints,
                    spans: 0,
                    gap_sum: 0,
                },
            )
        };
        let links = LinkSet {
            links: vec![link(1, 3), link(2, 4), link(3, 3)],
            insert_size: 300,
        };
        (set, links, detector)
    }

    /// The cells of classifying the given contigs.
    fn cells_of(detector: &RrnaDetector, set: &ContigSet, ids: &[ContigId]) -> (u64, u64) {
        ids.iter().fold((0, 0), |(bound, exact), &id| {
            let call = detector.classify(&set.contigs[id as usize].seq);
            (bound + call.bound_cells, exact + call.exact_cells)
        })
    }

    #[test]
    fn an_rrna_hit_at_a_fork_extends_to_the_similar_hit() {
        let (set, links, detector) = fork(true, 10.0);
        // Only the fork's contig and its candidates of similar depth are
        // classified; 3 is too deep for its verdict to be read.
        let (bound, exact) = cells_of(&detector, &set, &[0, 1, 2]);
        let hit = |id: usize| detector.is_hit(&set.contigs[id].seq);
        assert_eq!([hit(0), hit(1), hit(2), hit(3)], [true, true, false, true]);
        for ranks in [1, 2] {
            let (scaffolds, stats) = run_on(ranks, &set, |ctx, contigs| {
                let params = ScaffoldTraversalParams::default();
                traverse_contig_graph_ref(ctx, contigs, &links, Some(&detector), &params)
            });
            assert_eq!(order(&scaffolds), vec![vec![0, 1], vec![2], vec![3]]);
            assert_eq!(
                (stats.hmm_bound_cells, stats.hmm_exact_cells),
                (bound, exact)
            );
        }
    }

    #[test]
    fn a_fork_at_a_contig_that_is_not_an_rrna_hit_stops() {
        // Only the fork's own contig is classified. At depth 100 no
        // candidate is within the tolerance, so whatever contig 0 is, the
        // fork stops without a verdict.
        let (set, _, detector) = fork(false, 10.0);
        let (bound, exact) = cells_of(&detector, &set, &[0]);
        assert!(bound > 0 && !detector.is_hit(&set.contigs[0].seq));
        for (hit, depth, cells) in [(false, 10.0, (bound, exact)), (true, 100.0, (0, 0))] {
            let (set, links, detector) = fork(hit, depth);
            for ranks in [1, 2] {
                let (scaffolds, stats) = run_on(ranks, &set, |ctx, contigs| {
                    let params = ScaffoldTraversalParams::default();
                    traverse_contig_graph_ref(ctx, contigs, &links, Some(&detector), &params)
                });
                assert_eq!(order(&scaffolds), vec![vec![0], vec![1], vec![2], vec![3]]);
                assert_eq!((stats.hmm_bound_cells, stats.hmm_exact_cells), cells);
            }
        }
    }

    /// The rRNA hits as the traversal used to find them, before it decided
    /// verdicts on demand: every contig of at least `rrna_min_len` bases
    /// classified up front, the store's shards owner-locally with the hit ids
    /// allgathered.
    fn classify_every_contig(
        ctx: &Ctx,
        contigs: &ContigStore,
        detector: &RrnaDetector,
        params: &ScaffoldTraversalParams,
    ) -> HashSet<ContigId> {
        let mut local_hits: Vec<ContigId> = Vec::new();
        contigs.map().for_each_local(ctx, |id, packed| {
            if packed.len() >= params.rrna_min_len && detector.is_hit(&packed.unpack()) {
                local_hits.push(*id);
            }
        });
        let outgoing: Vec<Vec<ContigId>> = (0..ctx.ranks()).map(|_| local_hits.clone()).collect();
        ctx.exchange(outgoing).into_iter().collect()
    }

    /// The traversal walking on the verdicts [`classify_every_contig`]
    /// found: every verdict it can read is known before it starts.
    fn traverse_on_every_verdict(
        ctx: &Ctx,
        contigs: ContigsRef<'_>,
        links: &LinkSet,
        detector: &RrnaDetector,
        params: &ScaffoldTraversalParams,
    ) -> Vec<Scaffold> {
        let ContigsRef::Store(contigs) = contigs;
        let hits = classify_every_contig(ctx, contigs, detector, params);
        let known = (0..contigs.num_contigs() as ContigId)
            .filter(|&id| {
                contigs
                    .meta(id)
                    .is_some_and(|m| m.len as usize >= params.rrna_min_len)
            })
            .map(|id| (id, hits.contains(&id)))
            .collect();
        let verdicts = RrnaVerdicts {
            ctx,
            contigs,
            detector: Some(detector),
            min_len: params.rrna_min_len,
            known,
        };
        traverse(ctx, contigs, links, verdicts, params)
    }

    /// 40 contigs of 100-700 bases (some short enough to be suspended, some
    /// too short to classify), a third carrying a copy of the consensus and
    /// a few a third of one (near the threshold), at depths 8-40 — with
    /// links among them dense enough to make forks.
    fn planted_graph(rng: &mut StdRng, consensus: &[u8]) -> (ContigSet, LinkSet) {
        let seqs: Vec<(Vec<u8>, f64)> = (0..40)
            .map(|_| {
                let len = rng.gen_range(100..700);
                let depth = [8.0, 10.0, 12.0, 20.0, 40.0][rng.gen_range(0..5)];
                let third = consensus.len() / 3;
                let seq = match rng.gen_range(0..6) {
                    0 | 1 if len >= consensus.len() => with_copy(rng, consensus, len),
                    2 => with_copy(rng, &consensus[third..2 * third], len),
                    _ => random_seq(rng, len),
                };
                (seq, depth)
            })
            .collect();
        let set = ContigSet::from_sequences(21, seqs);
        let links = random_links(rng, set.len(), 70);
        (set, links)
    }

    #[test]
    fn verdicts_on_demand_give_the_scaffolds_of_classifying_every_contig() {
        let mut rng = StdRng::seed_from_u64(33);
        let consensus = random_seq(&mut rng, 120);
        let detector = RrnaDetector::from_consensus(&consensus);
        let params = ScaffoldTraversalParams::default();
        let mut rule_decided = 0;
        for _ in 0..10 {
            let (set, links) = planted_graph(&mut rng, &consensus);
            let (without, _) = run_on(1, &set, |ctx, contigs| {
                traverse_contig_graph_ref(ctx, contigs, &links, None, &params)
            });
            let (expected, _) = run_on(1, &set, |ctx, contigs| {
                traverse_on_every_verdict(ctx, contigs, &links, &detector, &params)
            });
            rule_decided += usize::from(expected != without);
            let (at_three, _) = run_on(3, &set, |ctx, contigs| {
                traverse_on_every_verdict(ctx, contigs, &links, &detector, &params)
            });
            assert_eq!(at_three, expected, "the oracle at 1 and 3 ranks");
            for ranks in 1..=4 {
                let (on_demand, _) = run_on(ranks, &set, |ctx, contigs| {
                    traverse_contig_graph_ref(ctx, contigs, &links, Some(&detector), &params)
                });
                assert_eq!(on_demand, expected, "{ranks} ranks");
            }
        }
        assert!(
            rule_decided >= 8,
            "the rRNA rule changed only {rule_decided} graphs"
        );
    }

    #[test]
    fn hmm_cells_do_not_depend_on_the_rank_count() {
        let mut rng = StdRng::seed_from_u64(34);
        let consensus = random_seq(&mut rng, 120);
        let detector = RrnaDetector::from_consensus(&consensus);
        let params = ScaffoldTraversalParams::default();
        for _ in 0..4 {
            let (set, links) = planted_graph(&mut rng, &consensus);
            let cells = |ranks| {
                let (_, stats) = run_on(ranks, &set, |ctx, contigs| {
                    traverse_contig_graph_ref(ctx, contigs, &links, Some(&detector), &params)
                });
                (stats.hmm_bound_cells, stats.hmm_exact_cells)
            };
            let one = cells(1);
            assert!(one.0 > 0 && one.1 > 0, "{one:?}");
            for ranks in [2, 4] {
                assert_eq!(cells(ranks), one, "{ranks} ranks");
            }
        }
    }
}

//! Contig-graph traversal with connected-component partitioning (§III-C).

use crate::links::{ContigEndRef, End, LinkData, LinkSet};
use crate::types::{Scaffold, ScaffoldEntry};
use dbg::{ContigId, ContigsRef};
use pgas::{Counter, Ctx};
use rrna_hmm::RrnaDetector;
use std::collections::HashSet;

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

/// Computes connected components of the contig graph by parallel label
/// propagation (a simplified Shiloach–Vishkin: every rank relaxes its block of
/// edges against the current labels until no label changes anywhere).
/// Returns one component label per contig, identical on every rank.
pub fn connected_components(
    ctx: &Ctx,
    num_contigs: usize,
    edges: &[(ContigId, ContigId)],
) -> Vec<ContigId> {
    let mut labels: Vec<ContigId> = (0..num_contigs as ContigId).collect();
    loop {
        let my_edges = ctx.block_range(edges.len());
        let mut updates: Vec<(ContigId, ContigId)> = Vec::new();
        for &(a, b) in &edges[my_edges] {
            let (la, lb) = (labels[a as usize], labels[b as usize]);
            if la < lb {
                updates.push((b, la));
            } else if lb < la {
                updates.push((a, lb));
            }
        }
        let changed_local = !updates.is_empty();
        let gathered = ctx.gather(updates);
        labels = ctx.broadcast(|| {
            let mut l = labels.clone();
            for (node, label) in gathered {
                if label < l[node as usize] {
                    l[node as usize] = label;
                }
            }
            // Pointer-jumping step: compress label chains.
            for i in 0..l.len() {
                let mut root = l[i];
                while l[root as usize] != root {
                    root = l[root as usize];
                }
                l[i] = root;
            }
            l
        });
        if !ctx.allreduce_any(changed_local) {
            break;
        }
    }
    labels
}

/// One directed step choice out of a contig end.
fn pick_next(
    from: ContigEndRef,
    contigs: ContigsRef<'_>,
    links: &LinkSet,
    visited: &HashSet<ContigId>,
    rrna_hits: &HashSet<ContigId>,
    params: &ScaffoldTraversalParams,
) -> Option<(ContigEndRef, LinkData, Option<ContigId>)> {
    let mut candidates: Vec<(ContigEndRef, LinkData)> = links
        .links_from(from)
        .into_iter()
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
                let r_len = contigs.len_of(r.contig).unwrap_or(usize::MAX);
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
                    if links.link_between(r_far, y).is_some() {
                        return Some((y, yd, Some(r.contig)));
                    }
                }
            }
            // rRNA rule: if the current contig is an HMM hit, extend anyway,
            // preferring a candidate that is also an HMM hit with similar depth.
            if rrna_hits.contains(&from.contig) {
                let my_depth = contigs.depth_of(from.contig).unwrap_or(0.0);
                let mut best: Option<(ContigEndRef, LinkData, f64)> = None;
                for (other, d) in &candidates {
                    let od = contigs.depth_of(other.contig).unwrap_or(0.0);
                    let rel = if my_depth > 0.0 {
                        (od - my_depth).abs() / my_depth
                    } else {
                        f64::INFINITY
                    };
                    let is_hit = rrna_hits.contains(&other.contig);
                    let score = rel - if is_hit { 1.0 } else { 0.0 };
                    if rel <= params.rrna_depth_tolerance
                        && best.map(|(_, _, s)| score < s).unwrap_or(true)
                    {
                        best = Some((*other, *d, score));
                    }
                }
                if let Some((other, d, _)) = best {
                    return Some((other, d, None));
                }
            }
            // Otherwise the end is not extendable.
            None
        }
    }
}

/// Walks outward from one end of the seed, returning the chain of entries (not
/// including the seed itself).
#[allow(clippy::too_many_arguments)]
fn walk(
    seed: ContigId,
    seed_exit: End,
    contigs: ContigsRef<'_>,
    links: &LinkSet,
    visited: &mut HashSet<ContigId>,
    rrna_hits: &HashSet<ContigId>,
    params: &ScaffoldTraversalParams,
) -> Vec<(ContigId, bool, i64, Option<ContigId>)> {
    let mut out = Vec::new();
    let mut current = ContigEndRef {
        contig: seed,
        end: seed_exit,
    };
    while let Some((entered, data, suspended)) =
        pick_next(current, contigs, links, visited, rrna_hits, params)
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
/// The walk itself only consults contig lengths and depths (replicated
/// metadata in both contig sources); the one sequence-reading step, rRNA
/// classification, runs owner-locally over the distributed store's shards
/// and allgathers the hit ids, so no contig bytes cross ranks here either.
pub fn traverse_contig_graph_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    links: &LinkSet,
    rrna: Option<&RrnaDetector>,
    params: &ScaffoldTraversalParams,
) -> Vec<Scaffold> {
    // rRNA classification of contigs. Its work counters read "once per
    // contig": every rank classifies a replicated set, rank 0 reports it.
    let is_hit = |detector: &RrnaDetector, seq: &[u8], report: bool| {
        let call = detector.classify(seq);
        if report {
            ctx.record(Counter::hmm_bound_cells, call.bound_cells);
            ctx.record(Counter::hmm_exact_cells, call.exact_cells);
        }
        call.hit
    };
    let rrna_hits: HashSet<ContigId> = match (rrna, contigs) {
        (Some(detector), ContigsRef::Local(set)) => set
            .contigs
            .iter()
            .filter(|c| c.len() >= params.rrna_min_len && is_hit(detector, &c.seq, ctx.rank() == 0))
            .map(|c| c.id)
            .collect(),
        (Some(detector), ContigsRef::Store(store)) => {
            // Owner-local scan of this rank's shard, then allgather the ids.
            let mut local_hits: Vec<ContigId> = Vec::new();
            store.map().for_each_local(ctx, |id, packed| {
                if packed.len() >= params.rrna_min_len && is_hit(detector, &packed.unpack(), true) {
                    local_hits.push(*id);
                }
            });
            let outgoing: Vec<Vec<ContigId>> =
                (0..ctx.ranks()).map(|_| local_hits.clone()).collect();
            ctx.exchange(outgoing).into_iter().collect()
        }
        (None, _) => HashSet::new(),
    };

    // Connected components over sufficiently supported links.
    let edges: Vec<(ContigId, ContigId)> = links
        .links
        .iter()
        .filter(|(_, d)| d.support() >= params.min_link_support)
        .map(|(k, _)| (k.a.contig, k.b.contig))
        .collect();
    let labels = connected_components(ctx, contigs.num_contigs(), &edges);

    // Each rank traverses the components assigned to it (component mod ranks).
    let my_rank = ctx.rank() as u64;
    let ranks = ctx.ranks() as u64;
    let mut my_components: Vec<ContigId> = labels
        .iter()
        .copied()
        .collect::<HashSet<_>>()
        .into_iter()
        .filter(|c| c % ranks == my_rank)
        .collect();
    my_components.sort_unstable();

    let mut local_scaffolds: Vec<Vec<ScaffoldEntry>> = Vec::new();
    for comp in my_components {
        // Contigs of this component, longest first (the traversal-seed order).
        let mut members: Vec<(ContigId, usize)> = (0..contigs.num_contigs() as ContigId)
            .filter(|id| labels[*id as usize] == comp)
            .map(|id| (id, contigs.len_of(id).unwrap_or(0)))
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
                links,
                &mut visited,
                &rrna_hits,
                params,
            );
            let left = walk(
                seed,
                End::Head,
                contigs,
                links,
                &mut visited,
                &rrna_hits,
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
            for (i, (contig, forward, gap, suspended)) in right.iter().enumerate() {
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
                let _ = i;
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
    use dbg::ContigSet;
    use pgas::Team;

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
        let team = Team::single_node(3);
        let labels = team.run(|ctx| connected_components(ctx, 6, &[(0, 1), (1, 2), (4, 5)]));
        for l in &labels[1..] {
            assert_eq!(l, &labels[0]);
        }
        let l = &labels[0];
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[4], l[5]);
        assert_ne!(l[0], l[3]);
        assert_ne!(l[0], l[4]);
    }

    #[test]
    fn simple_chain_becomes_one_scaffold() {
        let contigs = contig_set(&[500, 400, 300]);
        let links = chain_links(3, 3);
        let team = Team::single_node(2);
        let scaffolds = team.run(|ctx| {
            traverse_contig_graph_ref(
                ctx,
                (&contigs).into(),
                &links,
                None,
                &ScaffoldTraversalParams::default(),
            )
        });
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
        let scaffolds = team.run(|ctx| {
            traverse_contig_graph_ref(
                ctx,
                (&contigs).into(),
                &links,
                None,
                &ScaffoldTraversalParams::default(),
            )
        });
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
        let scaffolds = team.run(|ctx| {
            traverse_contig_graph_ref(
                ctx,
                (&contigs).into(),
                &links,
                None,
                &ScaffoldTraversalParams::default(),
            )
        });
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
            let scaffolds = team.run(|ctx| {
                traverse_contig_graph_ref(
                    ctx,
                    (&contigs).into(),
                    &links,
                    None,
                    &ScaffoldTraversalParams::default(),
                )
            });
            assert_eq!(scaffolds[0].len(), 2, "ranks={ranks}");
            for sc in &scaffolds[0] {
                assert_eq!(sc.entries.len(), 2);
            }
        }
    }
}

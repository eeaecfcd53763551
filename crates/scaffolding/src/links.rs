//! Splint/span detection and contig-link aggregation (§III-B).

use aligner::{Alignment, AlignmentSet};
use dbg::{ContigId, ContigsRef};
use dht::{bulk_merge, DistMap};
use pgas::Ctx;
use readstore::ReadsRef;
use std::sync::Arc;

/// Which end of a contig (in its stored orientation) a link attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum End {
    /// The start (coordinate 0) of the stored contig sequence.
    Head,
    /// The end (last coordinate) of the stored contig sequence.
    Tail,
}

impl End {
    /// The opposite end.
    pub fn opposite(self) -> End {
        match self {
            End::Head => End::Tail,
            End::Tail => End::Head,
        }
    }
}

/// A reference to one end of one contig.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContigEndRef {
    pub contig: ContigId,
    pub end: End,
}

/// A link key: an unordered pair of contig ends (normalised so the smaller
/// end comes first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkKey {
    pub a: ContigEndRef,
    pub b: ContigEndRef,
}

impl LinkKey {
    /// Builds a normalised key.
    pub fn new(x: ContigEndRef, y: ContigEndRef) -> Self {
        if x <= y {
            LinkKey { a: x, b: y }
        } else {
            LinkKey { a: y, b: x }
        }
    }

    /// Given one side of the link, returns the other (or `None` if `from` is
    /// not part of the link).
    pub fn other(&self, from: ContigEndRef) -> Option<ContigEndRef> {
        if self.a == from {
            Some(self.b)
        } else if self.b == from {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Aggregated evidence for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkData {
    /// Number of supporting splints (single reads bridging both contigs).
    pub splints: u32,
    /// Number of supporting spans (read pairs with one mate on each contig).
    pub spans: u32,
    /// Sum of the per-observation gap estimates (may be negative: overlap).
    pub gap_sum: i64,
}

impl LinkData {
    /// Total supporting observations.
    pub fn support(&self) -> u32 {
        self.splints + self.spans
    }

    /// Mean gap estimate.
    pub fn gap_estimate(&self) -> i64 {
        if self.support() == 0 {
            0
        } else {
            self.gap_sum / self.support() as i64
        }
    }

    fn merge(&mut self, other: LinkData) {
        self.splints += other.splints;
        self.spans += other.spans;
        self.gap_sum += other.gap_sum;
    }
}

/// Parameters of link generation.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Minimum splint observations for a SPLINT-only link to be kept.
    pub min_splint_support: u32,
    /// Minimum span observations for a SPAN-only link to be kept.
    pub min_span_support: u32,
    /// A read must have at least this many aligned bases on a contig for the
    /// alignment to participate in link building.
    pub min_aligned_len: usize,
    /// Reads aligning farther than this from a contig end (relative to the
    /// library insert size) cannot support a span off that end.
    pub max_end_distance_factor: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            min_splint_support: 2,
            min_span_support: 2,
            min_aligned_len: 30,
            max_end_distance_factor: 1.2,
        }
    }
}

/// The replicated set of surviving links.
#[derive(Debug, Clone, Default)]
pub struct LinkSet {
    pub links: Vec<(LinkKey, LinkData)>,
    pub insert_size: usize,
}

/// In read coordinates: the aligned interval, plus which contig end the read
/// runs toward as read coordinates increase and the contig bases remaining
/// beyond the alignment in that direction (and the same for the entering
/// side).
#[derive(Debug, Clone, Copy)]
struct OrientedAlignment {
    contig: ContigId,
    read_start: usize,
    read_end: usize,
    exit_end: End,
    exit_dist: i64,
    enter_end: End,
    enter_dist: i64,
}

fn orient(a: &Alignment, contig_len: usize, read_len: usize) -> OrientedAlignment {
    let clen = contig_len as i64;
    let rlen = read_len as i64;
    let off = a.contig_offset;
    if a.forward {
        // read position p sits at contig coordinate off + p.
        let read_start = (-off).max(0) as usize;
        let read_end = (clen - off).min(rlen).max(0) as usize;
        OrientedAlignment {
            contig: a.contig,
            read_start,
            read_end,
            exit_end: End::Tail,
            exit_dist: (clen - (off + read_end as i64)).max(0),
            enter_end: End::Head,
            enter_dist: (off + read_start as i64).max(0),
        }
    } else {
        // The reverse-complemented read aligns forward: rc position q = len-1-p
        // sits at contig coordinate off + q. As read position p increases the
        // contig coordinate decreases, so the read runs toward the Head.
        let rc_start = (-off).max(0); // first rc coord inside the contig
        let rc_end = (clen - off).min(rlen).max(0); // one past last rc coord inside
        let read_start = (rlen - rc_end).max(0) as usize;
        let read_end = (rlen - rc_start).max(0) as usize;
        OrientedAlignment {
            contig: a.contig,
            read_start,
            read_end,
            exit_end: End::Head,
            exit_dist: (off + rc_start).max(0),
            enter_end: End::Tail,
            enter_dist: (clen - (off + rc_end)).max(0),
        }
    }
}

/// Collectively builds the link set from this rank's alignments. Link
/// geometry only needs contig and read *lengths*, which both contig sources
/// and both read sources answer from replicated metadata — no sequence bytes
/// are read here, so the distributed read store adds zero communication to
/// this stage.
pub fn build_links_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    alignments: &AlignmentSet,
    reads: ReadsRef<'_>,
    params: &LinkParams,
) -> LinkSet {
    let insert = reads.insert_size().max(1);
    let read_len_of = |id: seqio::ReadId| reads.len_of(id);
    let contig_len_of = |id: ContigId| contigs.len_of(id).unwrap_or(0);

    let mut local: Vec<(LinkKey, LinkData)> = Vec::new();
    let by_read = alignments.by_read();

    // ---- Splints -------------------------------------------------------------
    for (read_id, alns) in &by_read {
        if alns.len() < 2 {
            continue;
        }
        let rlen = read_len_of(*read_id);
        let oriented: Vec<OrientedAlignment> = alns
            .iter()
            .filter(|a| a.aligned_len >= params.min_aligned_len)
            .map(|a| orient(a, contig_len_of(a.contig), rlen))
            .collect();
        for i in 0..oriented.len() {
            for j in i + 1..oriented.len() {
                let (mut first, mut second) = (oriented[i], oriented[j]);
                if first.contig == second.contig {
                    continue;
                }
                if first.read_start > second.read_start {
                    std::mem::swap(&mut first, &mut second);
                }
                // A genuine splint crosses the junction, so its two alignments
                // cover mostly disjoint parts of the read. When two contigs
                // carry long near-identical stretches (local-assembly
                // extensions into a neighbour, strain copies), every read
                // inside the shared region aligns to both over the *same*
                // read interval — evidence about one locus, not a junction.
                let overlap = first
                    .read_end
                    .min(second.read_end)
                    .saturating_sub(second.read_start);
                let shorter =
                    (first.read_end - first.read_start).min(second.read_end - second.read_start);
                if 2 * overlap > shorter {
                    continue;
                }
                // The read exits `first` toward its exit end and enters
                // `second` from its enter end.
                let gap = (second.read_start as i64 - first.read_end as i64)
                    - first.exit_dist
                    - second.enter_dist;
                let key = LinkKey::new(
                    ContigEndRef {
                        contig: first.contig,
                        end: first.exit_end,
                    },
                    ContigEndRef {
                        contig: second.contig,
                        end: second.enter_end,
                    },
                );
                local.push((
                    key,
                    LinkData {
                        splints: 1,
                        spans: 0,
                        gap_sum: gap,
                    },
                ));
            }
        }
    }

    // ---- Spans ---------------------------------------------------------------
    if reads.paired() {
        let best = alignments.best_per_read();
        for (&read_id, a1) in &best {
            if read_id % 2 != 0 {
                continue; // process each pair once, from its first mate
            }
            let mate = read_id + 1;
            let a2 = match best.get(&mate) {
                Some(a) => a,
                None => continue,
            };
            if a1.contig == a2.contig {
                continue;
            }
            let o1 = orient(a1, contig_len_of(a1.contig), read_len_of(read_id));
            let o2 = orient(a2, contig_len_of(a2.contig), read_len_of(mate));
            // For a forward–reverse library the template extends from each
            // mate's 5' end toward the contig end the mate points at (its exit
            // end); distance from the 5' aligned base to that end:
            let d1 = o1.exit_dist + (o1.read_end - o1.read_start) as i64 + o1.read_start as i64;
            let d2 = o2.exit_dist + (o2.read_end - o2.read_start) as i64 + o2.read_start as i64;
            let max_d = (params.max_end_distance_factor * insert as f64) as i64;
            if d1 > max_d || d2 > max_d {
                continue;
            }
            let gap = insert as i64 - d1 - d2;
            let key = LinkKey::new(
                ContigEndRef {
                    contig: o1.contig,
                    end: o1.exit_end,
                },
                ContigEndRef {
                    contig: o2.contig,
                    end: o2.exit_end,
                },
            );
            local.push((
                key,
                LinkData {
                    splints: 0,
                    spans: 1,
                    gap_sum: gap,
                },
            ));
        }
    }

    // ---- Aggregate in a distributed hash table (update-only phase) -----------
    let map: Arc<DistMap<LinkKey, LinkData>> = DistMap::shared(ctx);
    bulk_merge(ctx, &map, local, 2048, |a, b| a.merge(b));

    // ---- Filter on the owners, gather, broadcast ------------------------------
    let mut surviving: Vec<(LinkKey, LinkData)> = Vec::new();
    map.for_each_local(ctx, |k, d| {
        if d.splints >= params.min_splint_support || d.spans >= params.min_span_support {
            surviving.push((*k, *d));
        }
    });
    let mut links = ctx.gather(surviving);
    ctx.broadcast(|| {
        links.sort_by_key(|(k, _)| *k);
        LinkSet {
            links,
            insert_size: insert,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligner::{align_reads_ref, build_seed_index_ref, AlignParams};
    use dbg::ContigSet;
    use pgas::Team;
    use seqio::alphabet::revcomp;
    use seqio::{Read, ReadLibrary};

    /// A deterministic pseudo-random genome (no external RNG needed here).
    fn genome(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    /// Tile a genome with paired reads (error free).
    fn paired_library(genome: &[u8], read_len: usize, insert: usize, step: usize) -> ReadLibrary {
        let mut lib = ReadLibrary::new_paired("test", insert, insert / 10);
        let mut i = 0usize;
        let mut pair = 0usize;
        while i + insert <= genome.len() {
            let r1 = &genome[i..i + read_len];
            let r2 = revcomp(&genome[i + insert - read_len..i + insert]);
            lib.push_pair(
                Read::with_uniform_quality(format!("p{pair}/1"), r1, 35),
                Read::with_uniform_quality(format!("p{pair}/2"), &r2, 35),
            );
            i += step;
            pair += 1;
        }
        lib
    }

    /// Cuts a genome into abutting contigs of the given sizes.
    fn contigs_from_pieces(genome: &[u8], cuts: &[usize]) -> ContigSet {
        let mut seqs = Vec::new();
        let mut start = 0usize;
        for &c in cuts {
            seqs.push((genome[start..c].to_vec(), 20.0));
            start = c;
        }
        seqs.push((genome[start..].to_vec(), 20.0));
        ContigSet::from_sequences(21, seqs)
    }

    fn align_all(ctx: &pgas::Ctx, lib: &ReadLibrary, contigs: &ContigSet) -> AlignmentSet {
        let index = build_seed_index_ref(ctx, contigs.into(), 15);
        ctx.barrier();
        let range = ctx.block_range(lib.num_pairs());
        let reads = range.flat_map(|p| {
            [
                (2 * p as u64, lib.read(2 * p as u64).clone()),
                (2 * p as u64 + 1, lib.read(2 * p as u64 + 1).clone()),
            ]
        });
        align_reads_ref(
            ctx,
            reads,
            contigs.into(),
            &index,
            &AlignParams {
                seed_len: 15,
                stride: 4,
                min_aligned_len: 25,
                ..Default::default()
            },
        )
    }

    #[test]
    fn adjacent_contigs_get_linked_with_small_gap() {
        let g = genome(1500, 3);
        let contigs = contigs_from_pieces(&g, &[500, 1000]);
        let lib = paired_library(&g, 80, 400, 7);
        let team = Team::single_node(2);
        let sets = team.run(|ctx| {
            let alignments = align_all(ctx, &lib, &contigs);
            build_links_ref(
                ctx,
                (&contigs).into(),
                &alignments,
                (&lib).into(),
                &LinkParams::default(),
            )
        });
        for s in &sets[1..] {
            assert_eq!(s.links, sets[0].links);
        }
        let links = &sets[0];
        assert!(!links.links.is_empty(), "no links were built");
        // Every genuine junction should be supported; and gap estimates should
        // be small (the contigs abut exactly).
        let mut junctions_supported = 0;
        for (_, d) in &links.links {
            assert!(d.support() >= 2);
            assert!(
                d.gap_estimate().abs() < 60,
                "gap estimate too large: {}",
                d.gap_estimate()
            );
            junctions_supported += 1;
        }
        assert!(junctions_supported >= 2, "expected both junctions linked");
    }

    #[test]
    fn span_links_found_even_without_junction_spanning_reads() {
        // Reads stepped so that no read crosses a junction, but pairs do.
        let g = genome(1200, 9);
        let contigs = contigs_from_pieces(&g, &[600]);
        // Insert 400 >> read length 70; step places reads away from the cut.
        let lib = paired_library(&g, 70, 400, 13);
        let team = Team::single_node(2);
        let sets = team.run(|ctx| {
            let alignments = align_all(ctx, &lib, &contigs);
            build_links_ref(
                ctx,
                (&contigs).into(),
                &alignments,
                (&lib).into(),
                &LinkParams::default(),
            )
        });
        let links = &sets[0];
        let span_links: u32 = links.links.iter().map(|(_, d)| d.spans).sum();
        assert!(span_links >= 2, "expected span support, got {span_links}");
    }

    #[test]
    fn unrelated_contigs_are_not_linked() {
        let g1 = genome(800, 11);
        let g2 = genome(800, 12);
        let mut seqs = vec![(g1.clone(), 20.0), (g2.clone(), 20.0)];
        seqs.sort_by(|a, b| a.0.cmp(&b.0));
        let contigs = ContigSet::from_sequences(21, seqs);
        // Reads only from genome 1.
        let lib = paired_library(&g1, 80, 300, 11);
        let team = Team::single_node(1);
        let sets = team.run(|ctx| {
            let alignments = align_all(ctx, &lib, &contigs);
            build_links_ref(
                ctx,
                (&contigs).into(),
                &alignments,
                (&lib).into(),
                &LinkParams::default(),
            )
        });
        assert!(
            sets[0].links.is_empty(),
            "no cross-contig evidence should exist: {:?}",
            sets[0].links
        );
    }

    #[test]
    fn link_key_normalisation_and_lookup() {
        let x = ContigEndRef {
            contig: 5,
            end: End::Tail,
        };
        let y = ContigEndRef {
            contig: 2,
            end: End::Head,
        };
        let k1 = LinkKey::new(x, y);
        let k2 = LinkKey::new(y, x);
        assert_eq!(k1, k2);
        assert_eq!(k1.other(x), Some(y));
        assert_eq!(k1.other(y), Some(x));
        assert_eq!(
            k1.other(ContigEndRef {
                contig: 9,
                end: End::Head
            }),
            None
        );
        assert_eq!(End::Head.opposite(), End::Tail);
    }

    #[test]
    fn link_data_merging_and_estimates() {
        let mut d = LinkData {
            splints: 1,
            spans: 0,
            gap_sum: -10,
        };
        d.merge(LinkData {
            splints: 1,
            spans: 2,
            gap_sum: 22,
        });
        assert_eq!(d.support(), 4);
        assert_eq!(d.gap_estimate(), 3);
        assert_eq!(LinkData::default().gap_estimate(), 0);
    }
}

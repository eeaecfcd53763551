//! Reference-based evaluation by unique k-mer anchoring.

use crate::report::{AssemblyReport, GenomeReport};
use kmers::{kmer_positions, Kmer};
use seqio::alphabet::revcomp;
use seqio::ReferenceSet;
use std::collections::HashMap;

/// Parameters of the evaluation.
#[derive(Debug, Clone)]
pub struct EvalParams {
    /// Anchor k-mer length (must be odd; anchors must be unique within the
    /// reference set to be used).
    pub anchor_k: usize,
    /// Minimum aligned-block length (in bases) to be counted.
    pub min_block: usize,
    /// Maximum allowed difference between the reference jump and the assembly
    /// jump of two adjacent blocks before the junction counts as a
    /// misassembly.
    pub max_gap_inconsistency: usize,
    /// Thresholds for the "bases in sequences ≥ X" contiguity columns.
    pub length_thresholds: Vec<usize>,
    /// Fraction of a planted rRNA region that must be covered for it to count
    /// as recovered.
    pub rrna_cover_fraction: f64,
}

impl Default for EvalParams {
    fn default() -> Self {
        EvalParams {
            anchor_k: 31,
            min_block: 100,
            max_gap_inconsistency: 500,
            length_thresholds: vec![1_000, 5_000, 10_000],
            rrna_cover_fraction: 0.8,
        }
    }
}

/// A maximal run of collinear anchors of one assembly sequence on one genome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    genome: usize,
    ref_start: usize,
    ref_end: usize,
    asm_start: usize,
    asm_end: usize,
    forward: bool,
}

impl Block {
    fn ref_len(&self) -> usize {
        self.ref_end - self.ref_start
    }
}

/// One occurrence of an anchor k-mer in one reference genome. `dup` marks
/// k-mers repeated *within* that genome (intra-genome repeats), which cannot
/// place a sequence and are skipped at query time. A k-mer occurring in
/// several genomes keeps one anchor per genome: metaQUAST evaluates the
/// assembly against every reference independently, so regions shared between
/// strains (or the conserved rRNA operon planted in every genome) must anchor
/// to each genome that carries them.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    genome: usize,
    pos: usize,
    forward: bool,
    dup: bool,
}

/// Builds the per-genome anchor index over the references (canonical k-mer →
/// one location per genome; intra-genome duplicates are marked unusable).
fn build_anchor_index(refs: &ReferenceSet, k: usize) -> HashMap<Kmer, Vec<Anchor>> {
    let mut index: HashMap<Kmer, Vec<Anchor>> = HashMap::new();
    for (gi, genome) in refs.genomes.iter().enumerate() {
        for (pos, km) in kmer_positions(&genome.seq, k) {
            let (canon, was_rc) = km.canonical();
            let anchors = index.entry(canon).or_default();
            match anchors.iter_mut().find(|a| a.genome == gi) {
                Some(existing) => existing.dup = true,
                None => anchors.push(Anchor {
                    genome: gi,
                    pos,
                    forward: !was_rc,
                    dup: false,
                }),
            }
        }
    }
    index
}

/// Chains the anchors of one assembly sequence into collinear blocks, one
/// independent chain per reference genome (so a strain-merged consensus
/// produces a full-length block on *each* strain instead of fragmenting at
/// every allele switch).
fn blocks_of_sequence(
    seq: &[u8],
    index: &HashMap<Kmer, Vec<Anchor>>,
    params: &EvalParams,
) -> Vec<Block> {
    let k = params.anchor_k;
    let mut blocks: Vec<Block> = Vec::new();
    let mut open: HashMap<usize, Block> = HashMap::new();
    for (apos, km) in kmer_positions(seq, k) {
        let (canon, asm_rc) = km.canonical();
        let Some(anchors) = index.get(&canon) else {
            // Unknown k-mer: it does not break any chain, the chains simply
            // skip it (mirrors how aligners treat mismatches).
            continue;
        };
        for anchor in anchors.iter().filter(|a| !a.dup) {
            let rpos = anchor.pos;
            // Orientation of the assembly relative to the reference here.
            let forward = anchor.forward != asm_rc;
            let extends = open.get(&anchor.genome).map(|b| {
                if b.forward != forward {
                    return false;
                }
                // Collinear in reference space…
                let ref_ok = if forward {
                    rpos + k >= b.ref_end
                        && rpos + k - b.ref_end <= params.max_gap_inconsistency
                        && rpos >= b.ref_start
                } else {
                    b.ref_start >= rpos && b.ref_start - rpos <= params.max_gap_inconsistency
                };
                // …and advancing consistently with the assembly coordinate
                // (prevents one chain from silently spanning an unrelated
                // insert between two same-genome pieces).
                let asm_jump = (apos + k) as i64 - b.asm_end as i64;
                let ref_jump = if forward {
                    (rpos + k) as i64 - b.ref_end as i64
                } else {
                    b.ref_start as i64 - rpos as i64
                };
                ref_ok
                    && (asm_jump - ref_jump).unsigned_abs() as usize <= params.max_gap_inconsistency
            });
            match extends {
                Some(true) => {
                    let b = open.get_mut(&anchor.genome).expect("chain is open");
                    b.asm_end = apos + k;
                    if forward {
                        b.ref_end = b.ref_end.max(rpos + k);
                    } else {
                        b.ref_start = b.ref_start.min(rpos);
                    }
                }
                _ => {
                    let fresh = Block {
                        genome: anchor.genome,
                        ref_start: rpos,
                        ref_end: rpos + k,
                        asm_start: apos,
                        asm_end: apos + k,
                        forward,
                    };
                    if let Some(b) = open.insert(anchor.genome, fresh) {
                        if b.ref_len() >= params.min_block {
                            blocks.push(b);
                        }
                    }
                }
            }
        }
    }
    for (_, b) in open {
        if b.ref_len() >= params.min_block {
            blocks.push(b);
        }
    }
    // Genome breaks ties (strain-twin blocks share identical spans), keeping
    // the downstream tiling — and the misassembly count — deterministic
    // despite the HashMap flush above.
    blocks.sort_unstable_by_key(|b| (b.asm_start, b.asm_end, b.genome));
    blocks
}

/// Selects a non-redundant tiling of one sequence's blocks (largest blocks
/// first, discarding blocks mostly covered by an already-chosen one in
/// assembly coordinates) and counts the misassembly junctions between the
/// adjacent tiles. The tiling step keeps the per-genome chains of a
/// strain-collapsed consensus — which all describe the *same* assembly span —
/// from being miscounted as breakpoints.
fn misassemblies_in(blocks: &[Block], params: &EvalParams) -> usize {
    let mut by_len: Vec<&Block> = blocks.iter().collect();
    by_len.sort_unstable_by_key(|b| (std::cmp::Reverse(b.ref_len()), b.asm_start, b.genome));
    let mut tiling: Vec<&Block> = Vec::new();
    for b in by_len {
        let redundant = tiling.iter().any(|t| {
            let overlap = t
                .asm_end
                .min(b.asm_end)
                .saturating_sub(t.asm_start.max(b.asm_start));
            let shorter = (t.asm_end - t.asm_start).min(b.asm_end - b.asm_start);
            2 * overlap > shorter
        });
        if !redundant {
            tiling.push(b);
        }
    }
    tiling.sort_unstable_by_key(|b| (b.asm_start, b.asm_end));

    let consistent = |a: &Block, b: &Block| -> bool {
        if a.genome != b.genome || a.forward != b.forward {
            return false;
        }
        let asm_jump = b.asm_start as i64 - a.asm_end as i64;
        let ref_jump = if a.forward {
            b.ref_start as i64 - a.ref_end as i64
        } else {
            a.ref_start as i64 - b.ref_end as i64
        };
        (asm_jump - ref_jump).unsigned_abs() as usize <= params.max_gap_inconsistency
    };
    // A stand-in for one tile: a block of another genome covering (almost) the
    // same assembly span. Strain twins produce such pairs for every tile, and
    // the arbitrary tiling choice between them must not manufacture
    // cross-genome junctions metaQUAST (which aligns against each reference
    // independently) would never report.
    let alternates = |tile: &Block| -> Vec<&Block> {
        blocks
            .iter()
            .filter(|c| {
                let overlap = c
                    .asm_end
                    .min(tile.asm_end)
                    .saturating_sub(c.asm_start.max(tile.asm_start));
                let span = tile.asm_end - tile.asm_start;
                c.genome != tile.genome && 5 * overlap >= 4 * span
            })
            .collect()
    };

    let mut count = 0usize;
    for pair in tiling.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if consistent(a, b) {
            continue;
        }
        // Junction explainable by a single genome through an alternate of
        // either side? Then it is not a breakpoint.
        if alternates(a).iter().any(|alt| consistent(alt, b))
            || alternates(b).iter().any(|alt| consistent(a, alt))
        {
            continue;
        }
        count += 1;
    }
    count
}

/// Total bases covered by a set of (start, end) intervals after merging.
fn covered_bases(mut intervals: Vec<(usize, usize)>) -> usize {
    intervals.sort_unstable();
    let mut covered = 0usize;
    let mut cur: Option<(usize, usize)> = None;
    for (s, e) in intervals {
        match cur.as_mut() {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur.take() {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// NGAx-style statistic: block length at which sorted blocks cover
/// `fraction` of `genome_len`; 0 if never reached.
fn nga(blocks_lens: &mut [usize], genome_len: usize, fraction: f64) -> usize {
    blocks_lens.sort_unstable_by(|a, b| b.cmp(a));
    let target = (genome_len as f64 * fraction).ceil() as usize;
    let mut acc = 0usize;
    for &l in blocks_lens.iter() {
        acc += l;
        if acc >= target {
            return l;
        }
    }
    0
}

/// Evaluates an assembly (a set of scaffold/contig sequences) against the
/// reference community.
pub fn evaluate(assembly: &[Vec<u8>], refs: &ReferenceSet, params: &EvalParams) -> AssemblyReport {
    assert!(params.anchor_k % 2 == 1, "anchor k must be odd");
    let index = build_anchor_index(refs, params.anchor_k);

    // --- Pure contiguity statistics -------------------------------------------
    let mut lens: Vec<usize> = assembly.iter().map(|s| s.len()).collect();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    let total_len: usize = lens.iter().sum();
    let largest = lens.first().copied().unwrap_or(0);
    let n50 = {
        let mut acc = 0usize;
        let mut n50 = 0usize;
        for &l in &lens {
            acc += l;
            if 2 * acc >= total_len {
                n50 = l;
                break;
            }
        }
        n50
    };
    let length_at_thresholds: Vec<(usize, usize)> = params
        .length_thresholds
        .iter()
        .map(|&t| (t, lens.iter().filter(|&&l| l >= t).sum::<usize>()))
        .collect();

    // --- Anchored blocks -------------------------------------------------------
    let mut all_blocks: Vec<Block> = Vec::new();
    let mut misassemblies = 0usize;
    for seq in assembly {
        let blocks = blocks_of_sequence(seq, &index, params);
        // Also try the reverse complement when nothing anchored (a sequence
        // made entirely of reference-reverse material anchors fine either way
        // because anchors are canonical; this is just a safety net for very
        // short sequences).
        if blocks.is_empty() && seq.len() >= params.anchor_k {
            let rc = revcomp(seq);
            let rc_blocks = blocks_of_sequence(&rc, &index, params);
            misassemblies += misassemblies_in(&rc_blocks, params);
            all_blocks.extend(rc_blocks);
        } else {
            misassemblies += misassemblies_in(&blocks, params);
            all_blocks.extend(blocks);
        }
    }

    // --- Per-genome coverage, NGA50, rRNA recovery ----------------------------
    let mut per_genome = Vec::with_capacity(refs.len());
    let mut total_covered = 0usize;
    let mut rrna_recovered_total = 0usize;
    let mut rrna_total = 0usize;
    for (gi, genome) in refs.genomes.iter().enumerate() {
        let gblocks: Vec<&Block> = all_blocks.iter().filter(|b| b.genome == gi).collect();
        let covered = covered_bases(gblocks.iter().map(|b| (b.ref_start, b.ref_end)).collect());
        let mut lens: Vec<usize> = gblocks.iter().map(|b| b.ref_len()).collect();
        let nga50 = nga(&mut lens, genome.len(), 0.5);
        let largest_block = lens.first().copied().unwrap_or(0);
        let mut rrna_rec = 0usize;
        for &(rs, re) in &genome.rrna_regions {
            // Union, not sum: with per-genome anchoring several contigs can
            // produce overlapping blocks on the same region, and summing
            // would credit the same bases twice.
            let overlap = covered_bases(
                gblocks
                    .iter()
                    .map(|b| (b.ref_start.max(rs), b.ref_end.min(re)))
                    .filter(|(s, e)| e > s)
                    .collect(),
            );
            if (overlap as f64) >= params.rrna_cover_fraction * (re - rs) as f64 {
                rrna_rec += 1;
            }
        }
        rrna_recovered_total += rrna_rec;
        rrna_total += genome.rrna_regions.len();
        total_covered += covered;
        per_genome.push(GenomeReport {
            name: genome.name.clone(),
            genome_len: genome.len(),
            covered,
            genome_fraction: if genome.is_empty() {
                0.0
            } else {
                covered as f64 / genome.len() as f64
            },
            nga50,
            largest_block,
            rrna_recovered: rrna_rec,
            rrna_total: genome.rrna_regions.len(),
        });
    }
    let total_ref: usize = refs.total_bases();
    AssemblyReport {
        num_seqs: assembly.len(),
        total_len,
        largest,
        n50,
        length_at_thresholds,
        genome_fraction: if total_ref == 0 {
            0.0
        } else {
            total_covered as f64 / total_ref as f64
        },
        misassemblies,
        rrna_recovered: rrna_recovered_total,
        rrna_total,
        per_genome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seqio::ReferenceGenome;

    fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    fn two_genome_refs(seed: u64) -> (ReferenceSet, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut refs = ReferenceSet::new();
        let mut a = ReferenceGenome::new("a", random_seq(&mut rng, 4000));
        a.rrna_regions.push((1000, 1400));
        let b = ReferenceGenome::new("b", random_seq(&mut rng, 3000));
        refs.push(a);
        refs.push(b);
        (refs, rng)
    }

    fn small_params() -> EvalParams {
        EvalParams {
            min_block: 60,
            length_thresholds: vec![500, 1000],
            ..Default::default()
        }
    }

    #[test]
    fn perfect_assembly_scores_full_coverage_no_misassemblies() {
        let (refs, _) = two_genome_refs(1);
        let assembly: Vec<Vec<u8>> = refs.genomes.iter().map(|g| g.seq.clone()).collect();
        let report = evaluate(&assembly, &refs, &small_params());
        assert_eq!(report.num_seqs, 2);
        assert_eq!(report.total_len, 7000);
        assert!(report.genome_fraction > 0.99, "{}", report.genome_fraction);
        assert_eq!(report.misassemblies, 0);
        assert_eq!(report.rrna_recovered, 1);
        assert_eq!(report.rrna_total, 1);
        assert_eq!(report.per_genome[0].nga50, report.per_genome[0].genome_len);
        assert_eq!(report.length_at(1000), Some(7000));
    }

    #[test]
    fn reverse_complement_assembly_scores_the_same() {
        let (refs, _) = two_genome_refs(2);
        let assembly: Vec<Vec<u8>> = refs.genomes.iter().map(|g| revcomp(&g.seq)).collect();
        let report = evaluate(&assembly, &refs, &small_params());
        assert!(report.genome_fraction > 0.99);
        assert_eq!(report.misassemblies, 0);
    }

    #[test]
    fn fragmented_assembly_has_lower_nga50_but_full_coverage() {
        let (refs, _) = two_genome_refs(3);
        let mut assembly = Vec::new();
        for g in &refs.genomes {
            for chunk in g.seq.chunks(500) {
                assembly.push(chunk.to_vec());
            }
        }
        let report = evaluate(&assembly, &refs, &small_params());
        assert!(report.genome_fraction > 0.95);
        assert_eq!(report.misassemblies, 0);
        assert!(report.per_genome[0].nga50 <= 500);
        assert!(report.per_genome[0].nga50 > 0);
        assert!(report.n50 <= 500);
    }

    #[test]
    fn chimeric_scaffold_counts_a_misassembly() {
        let (refs, _) = two_genome_refs(4);
        // Join a piece of genome a with a piece of genome b.
        let mut chimera = refs.genomes[0].seq[..1500].to_vec();
        chimera.extend_from_slice(&refs.genomes[1].seq[1000..2500]);
        let report = evaluate(&[chimera], &refs, &small_params());
        assert_eq!(report.misassemblies, 1);
    }

    #[test]
    fn relocation_within_genome_counts_a_misassembly() {
        let (refs, _) = two_genome_refs(5);
        // Join two distant pieces of the same genome.
        let mut relocated = refs.genomes[0].seq[..800].to_vec();
        relocated.extend_from_slice(&refs.genomes[0].seq[3000..3800]);
        let report = evaluate(&[relocated], &refs, &small_params());
        assert_eq!(report.misassemblies, 1);
    }

    #[test]
    fn inversion_counts_a_misassembly() {
        let (refs, _) = two_genome_refs(6);
        let mut inv = refs.genomes[0].seq[..1000].to_vec();
        inv.extend_from_slice(&revcomp(&refs.genomes[0].seq[1000..2000]));
        let report = evaluate(&[inv], &refs, &small_params());
        assert!(report.misassemblies >= 1);
    }

    #[test]
    fn unrelated_sequence_contributes_nothing() {
        let (refs, mut rng) = two_genome_refs(7);
        let junk = random_seq(&mut rng, 2000);
        let report = evaluate(&[junk], &refs, &small_params());
        assert_eq!(report.genome_fraction, 0.0);
        assert_eq!(report.misassemblies, 0);
        assert_eq!(report.per_genome[0].nga50, 0);
        assert_eq!(report.total_len, 2000);
    }

    #[test]
    fn missing_genome_reduces_genome_fraction() {
        let (refs, _) = two_genome_refs(8);
        // Assemble only genome a.
        let assembly = vec![refs.genomes[0].seq.clone()];
        let report = evaluate(&assembly, &refs, &small_params());
        assert!(report.per_genome[0].genome_fraction > 0.99);
        assert_eq!(report.per_genome[1].genome_fraction, 0.0);
        let expected = 4000.0 / 7000.0;
        assert!((report.genome_fraction - expected).abs() < 0.02);
    }

    #[test]
    fn rrna_recovery_requires_sufficient_overlap() {
        let (refs, _) = two_genome_refs(9);
        // Cover only half of the planted region (1000..1400): 1000..1200.
        let partial = refs.genomes[0].seq[800..1200].to_vec();
        let report = evaluate(&[partial], &refs, &small_params());
        assert_eq!(report.rrna_recovered, 0);
        // Covering the full region recovers it.
        let full = refs.genomes[0].seq[900..1500].to_vec();
        let report2 = evaluate(&[full], &refs, &small_params());
        assert_eq!(report2.rrna_recovered, 1);
    }
}

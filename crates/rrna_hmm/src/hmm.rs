//! A small profile hidden Markov model with local Viterbi scoring.

use seqio::alphabet::encode_base;

/// Background base probability (uniform over ACGT).
const BACKGROUND: f64 = 0.25;

/// Code of a sequence byte that is not a base (`N`, ...), next to the 2-bit
/// codes 0..=3 of `encode_base`.
const NOT_A_BASE: u8 = 4;

/// Log-odds (in nats) of a match state's emission probabilities against the
/// background.
fn log_odds(probs: [f64; 4]) -> [f64; 4] {
    probs.map(|p| (p / BACKGROUND).ln())
}

/// A profile HMM over a consensus of length L: match states M_1..M_L with
/// position-specific emission probabilities, plus insert and delete states
/// with shared transition probabilities (a light-weight Plan7 architecture).
#[derive(Debug, Clone)]
pub struct ProfileHmm {
    /// Emission log-odds of each match state against the background,
    /// indexed `[position][base]`.
    match_log_odds: Vec<[f64; 4]>,
    /// log(P) of staying on the match path (M→M).
    log_mm: f64,
    /// log(P) of opening an insertion or deletion (M→I, M→D).
    log_open: f64,
    /// log(P) of extending an insertion or deletion (I→I, D→D).
    log_extend: f64,
    /// log(P) of closing an insertion or deletion back to match.
    log_close: f64,
}

impl ProfileHmm {
    /// Builds a profile from a consensus sequence.
    ///
    /// `mismatch_prob` is the probability of observing a non-consensus base at
    /// a match state (spread evenly over the three alternatives);
    /// `indel_open`/`indel_extend` control the gap model.
    pub fn from_consensus(
        consensus: &[u8],
        mismatch_prob: f64,
        indel_open: f64,
        indel_extend: f64,
    ) -> Self {
        assert!(!consensus.is_empty(), "consensus must be non-empty");
        assert!((0.0..0.75).contains(&mismatch_prob));
        assert!((0.0..0.5).contains(&indel_open) && indel_open > 0.0);
        assert!((0.0..1.0).contains(&indel_extend) && indel_extend > 0.0);
        let match_log_odds = consensus
            .iter()
            .map(|&b| {
                let mut probs = [mismatch_prob / 3.0; 4];
                match encode_base(b) {
                    Some(code) => probs[code as usize] = 1.0 - mismatch_prob,
                    None => probs = [0.25; 4],
                }
                log_odds(probs)
            })
            .collect();
        ProfileHmm {
            match_log_odds,
            log_mm: (1.0 - 2.0 * indel_open).ln(),
            log_open: indel_open.ln(),
            log_extend: indel_extend.ln(),
            log_close: (1.0 - indel_extend).ln(),
        }
    }

    /// Builds a profile from a consensus plus example sequences of the same
    /// length: emission probabilities become the per-column base frequencies
    /// (with a pseudocount), which is how a profile is normally trained from a
    /// multiple alignment of family members.
    pub fn from_examples(
        consensus: &[u8],
        examples: &[Vec<u8>],
        indel_open: f64,
        indel_extend: f64,
    ) -> Self {
        let mut hmm = ProfileHmm::from_consensus(consensus, 0.05, indel_open, indel_extend);
        let l = consensus.len();
        let mut counts = vec![[1.0f64; 4]; l]; // +1 pseudocount
        for (i, &b) in consensus.iter().enumerate() {
            if let Some(code) = encode_base(b) {
                counts[i][code as usize] += 2.0; // consensus weighted
            }
        }
        for ex in examples {
            for (i, &b) in ex.iter().enumerate().take(l) {
                if let Some(code) = encode_base(b) {
                    counts[i][code as usize] += 1.0;
                }
            }
        }
        for (i, c) in counts.iter().enumerate() {
            let total: f64 = c.iter().sum();
            hmm.match_log_odds[i] = log_odds(c.map(|count| count / total));
        }
        hmm
    }

    /// Profile length (number of match states).
    pub fn len(&self) -> usize {
        self.match_log_odds.len()
    }

    /// True if the profile has no match states (never constructible via the
    /// public constructors, which reject empty consensi).
    pub fn is_empty(&self) -> bool {
        self.match_log_odds.is_empty()
    }

    /// Best local-alignment Viterbi log-odds score (in nats) of the profile
    /// against an encoded sequence, on the given strand only. `rows` is
    /// scratch of `codes.len() + 1` cells per row.
    fn score_strand(&self, codes: &[u8], rows: &mut DpRows) -> f64 {
        let n = codes.len();
        if n == 0 {
            return 0.0;
        }
        let neg = f64::NEG_INFINITY;
        // DP over profile positions (rows) and sequence positions (columns),
        // local in the sequence (free start/end) and in the profile ends.
        let DpRows { prev, cur } = rows;
        prev.m.fill(0.0); // score of best path ending in M_0 (virtual begin) = 0 anywhere
        prev.i.fill(neg);
        prev.d.fill(neg);
        let mut best = 0.0f64;
        for emit in &self.match_log_odds {
            cur.m[0] = neg;
            cur.i[0] = neg;
            cur.d[0] = neg;
            for col in 1..=n {
                let base = codes[col - 1];
                if base == NOT_A_BASE {
                    cur.m[col] = neg;
                    cur.i[col] = neg;
                    cur.d[col] = neg;
                    continue;
                }
                let from_m = prev.m[col - 1] + self.log_mm;
                let from_i = prev.i[col - 1] + self.log_close;
                let from_d = prev.d[col - 1] + self.log_close;
                cur.m[col] = emit[base as usize] + from_m.max(from_i).max(from_d).max(0.0);
                // Insert state of this row: consumes a sequence base, stays on the row.
                let i_open = cur.m[col - 1].max(prev.m[col - 1]) + self.log_open;
                let i_ext = cur.i[col - 1] + self.log_extend;
                cur.i[col] = i_open.max(i_ext); // insertions emit at background odds = 0

                // Delete state: consumes a profile row, not a sequence base.
                let d_open = prev.m[col] + self.log_open;
                let d_ext = prev.d[col] + self.log_extend;
                cur.d[col] = d_open.max(d_ext);
                if cur.m[col] > best {
                    best = cur.m[col];
                }
            }
            std::mem::swap(prev, cur);
        }
        best
    }

    /// Best local log-odds score over both strands, in nats.
    pub fn score(&self, seq: &[u8]) -> f64 {
        let mut codes: Vec<u8> = seq
            .iter()
            .map(|&b| encode_base(b).unwrap_or(NOT_A_BASE))
            .collect();
        let mut rows = DpRows::new(codes.len() + 1);
        let fwd = self.score_strand(&codes, &mut rows);
        // Reverse complement in code space: 3 - code swaps A/T and C/G.
        codes.reverse();
        for code in &mut codes {
            if *code != NOT_A_BASE {
                *code = 3 - *code;
            }
        }
        let rev = self.score_strand(&codes, &mut rows);
        fwd.max(rev)
    }

    /// Score normalised per profile position (nats per consensus base), which
    /// makes thresholds independent of the profile length.
    pub fn normalized_score(&self, seq: &[u8]) -> f64 {
        self.score(seq) / self.len() as f64
    }
}

/// One DP row: the match, insert and delete scores of every column.
#[derive(Debug)]
struct DpRow {
    m: Vec<f64>,
    i: Vec<f64>,
    d: Vec<f64>,
}

/// The two rows the Viterbi recurrence needs, swapped after each profile
/// position.
#[derive(Debug)]
struct DpRows {
    prev: DpRow,
    cur: DpRow,
}

impl DpRows {
    fn new(cells: usize) -> Self {
        let row = || DpRow {
            m: vec![0.0; cells],
            i: vec![0.0; cells],
            d: vec![0.0; cells],
        };
        DpRows {
            prev: row(),
            cur: row(),
        }
    }
}

/// A thresholded rRNA-region detector used by the scaffolder.
#[derive(Debug, Clone)]
pub struct RrnaDetector {
    pub hmm: ProfileHmm,
    /// Minimum normalised score (nats per profile position) to call a hit.
    pub threshold: f64,
    /// Sequences shorter than this are never called hits (too little signal).
    pub min_len: usize,
}

impl RrnaDetector {
    /// Builds a detector from a consensus with a default threshold that
    /// separates genuine (≤ ~10% divergent) copies from unrelated sequence.
    pub fn from_consensus(consensus: &[u8]) -> Self {
        RrnaDetector {
            hmm: ProfileHmm::from_consensus(consensus, 0.05, 0.02, 0.3),
            threshold: 0.4,
            min_len: consensus.len() / 4,
        }
    }

    /// Normalised score of a sequence.
    pub fn score(&self, seq: &[u8]) -> f64 {
        self.hmm.normalized_score(seq)
    }

    /// True if the sequence contains an rRNA-like region.
    pub fn is_hit(&self, seq: &[u8]) -> bool {
        seq.len() >= self.min_len && self.score(seq) >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seqio::alphabet::revcomp;

    /// The scoring recurrence as first written — one `ln` per cell, fresh
    /// rows per profile position, the raw sequence — which `score_strand`
    /// must reproduce to the bit.
    fn reference_score_forward(match_emit: &[[f64; 4]], hmm: &ProfileHmm, seq: &[u8]) -> f64 {
        let n = seq.len();
        if n == 0 {
            return 0.0;
        }
        let neg = f64::NEG_INFINITY;
        let mut m_prev = vec![0.0f64; n + 1];
        let mut i_prev = vec![neg; n + 1];
        let mut d_prev = vec![neg; n + 1];
        let mut best = 0.0f64;
        for emit_probs in match_emit {
            let mut m_cur = vec![neg; n + 1];
            let mut i_cur = vec![neg; n + 1];
            let mut d_cur = vec![neg; n + 1];
            for col in 1..=n {
                let Some(base) = encode_base(seq[col - 1]) else {
                    continue;
                };
                let emit = (emit_probs[base as usize] / BACKGROUND).ln();
                let from_m = m_prev[col - 1] + hmm.log_mm;
                let from_i = i_prev[col - 1] + hmm.log_close;
                let from_d = d_prev[col - 1] + hmm.log_close;
                m_cur[col] = emit + from_m.max(from_i).max(from_d).max(0.0);
                let i_open = m_cur[col - 1].max(m_prev[col - 1]) + hmm.log_open;
                let i_ext = i_cur[col - 1] + hmm.log_extend;
                i_cur[col] = i_open.max(i_ext);
                let d_open = m_prev[col] + hmm.log_open;
                let d_ext = d_prev[col] + hmm.log_extend;
                d_cur[col] = d_open.max(d_ext);
                if m_cur[col] > best {
                    best = m_cur[col];
                }
            }
            m_prev = m_cur;
            i_prev = i_cur;
            d_prev = d_cur;
        }
        best
    }

    /// Emission probabilities of `from_consensus`, as the reference takes them.
    fn consensus_emissions(consensus: &[u8], mismatch_prob: f64) -> Vec<[f64; 4]> {
        consensus
            .iter()
            .map(|&b| {
                let mut probs = [mismatch_prob / 3.0; 4];
                match encode_base(b) {
                    Some(code) => probs[code as usize] = 1.0 - mismatch_prob,
                    None => probs = [0.25; 4],
                }
                probs
            })
            .collect()
    }

    #[test]
    fn scores_are_bit_identical_to_the_reference_recurrence() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut consensus = random_seq(&mut rng, 120);
        consensus[40] = b'N';
        let hmm = ProfileHmm::from_consensus(&consensus, 0.05, 0.02, 0.3);
        let emissions = consensus_emissions(&consensus, 0.05);
        let mut seqs: Vec<Vec<u8>> = vec![Vec::new(), b"A".to_vec(), b"NNNN".to_vec()];
        for len in [30, 120, 300] {
            seqs.push(random_seq(&mut rng, len));
        }
        for rate in [0.0, 0.03, 0.15] {
            let copy = mutate(&mut rng, &consensus, rate);
            let mut embedded = random_seq(&mut rng, 70);
            embedded.extend_from_slice(&copy);
            embedded.extend_from_slice(&random_seq(&mut rng, 50));
            // A deletion, a run of `N`s and a lower-case stretch.
            let mut ragged = copy[..50].to_vec();
            ragged.extend_from_slice(&copy[58..]);
            ragged[20..24].fill(b'N');
            ragged[70..90].make_ascii_lowercase();
            seqs.extend([copy, embedded, ragged]);
        }
        let strands: Vec<Vec<u8>> = seqs.iter().map(|s| revcomp(s)).collect();
        seqs.extend(strands);
        let mut positive = 0;
        for seq in &seqs {
            let fwd = reference_score_forward(&emissions, &hmm, seq);
            let rev = reference_score_forward(&emissions, &hmm, &revcomp(seq));
            // `==` on purpose: the table holds the same expression per cell.
            assert!(
                hmm.score(seq) == fwd.max(rev),
                "score of {} bases",
                seq.len()
            );
            positive += usize::from(fwd.max(rev) > 10.0);
        }
        assert!(positive >= 18, "only {positive} sequences scored");
    }

    fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    fn mutate(rng: &mut StdRng, seq: &[u8], rate: f64) -> Vec<u8> {
        seq.iter()
            .map(|&b| {
                if rng.gen::<f64>() < rate {
                    loop {
                        let c = b"ACGT"[rng.gen_range(0..4)];
                        if c != b {
                            break c;
                        }
                    }
                } else {
                    b
                }
            })
            .collect()
    }

    #[test]
    fn consensus_scores_highest() {
        let mut rng = StdRng::seed_from_u64(1);
        let consensus = random_seq(&mut rng, 200);
        let hmm = ProfileHmm::from_consensus(&consensus, 0.05, 0.02, 0.3);
        assert_eq!(hmm.len(), 200);
        assert!(!hmm.is_empty());
        let self_score = hmm.normalized_score(&consensus);
        let random_score = hmm.normalized_score(&random_seq(&mut rng, 200));
        assert!(self_score > 1.0, "self score {self_score}");
        assert!(self_score > 3.0 * random_score.max(0.05));
    }

    #[test]
    fn diverged_copy_still_detected_random_not() {
        let mut rng = StdRng::seed_from_u64(2);
        let consensus = random_seq(&mut rng, 300);
        let detector = RrnaDetector::from_consensus(&consensus);
        let diverged = mutate(&mut rng, &consensus, 0.05);
        assert!(detector.is_hit(&diverged));
        let unrelated = random_seq(&mut rng, 300);
        assert!(!detector.is_hit(&unrelated));
    }

    #[test]
    fn embedded_copy_detected_inside_larger_contig() {
        let mut rng = StdRng::seed_from_u64(3);
        let consensus = random_seq(&mut rng, 250);
        let detector = RrnaDetector::from_consensus(&consensus);
        let mut contig = random_seq(&mut rng, 400);
        let copy = mutate(&mut rng, &consensus, 0.03);
        contig.extend_from_slice(&copy);
        contig.extend_from_slice(&random_seq(&mut rng, 400));
        assert!(detector.is_hit(&contig), "embedded rRNA copy missed");
    }

    #[test]
    fn reverse_complement_detected() {
        let mut rng = StdRng::seed_from_u64(4);
        let consensus = random_seq(&mut rng, 200);
        let detector = RrnaDetector::from_consensus(&consensus);
        let rc = revcomp(&consensus);
        assert!(detector.is_hit(&rc));
    }

    #[test]
    fn short_sequences_never_hit() {
        let mut rng = StdRng::seed_from_u64(5);
        let consensus = random_seq(&mut rng, 200);
        let detector = RrnaDetector::from_consensus(&consensus);
        assert!(!detector.is_hit(&consensus[..20]));
    }

    #[test]
    fn copy_with_deletion_still_scores_well() {
        let mut rng = StdRng::seed_from_u64(6);
        let consensus = random_seq(&mut rng, 200);
        let detector = RrnaDetector::from_consensus(&consensus);
        // Delete a 10-base block from the middle.
        let mut copy = consensus[..100].to_vec();
        copy.extend_from_slice(&consensus[110..]);
        assert!(detector.is_hit(&copy), "deletion-bearing copy missed");
    }

    #[test]
    fn from_examples_learns_column_frequencies() {
        let mut rng = StdRng::seed_from_u64(7);
        let consensus = random_seq(&mut rng, 150);
        let examples: Vec<Vec<u8>> = (0..5).map(|_| mutate(&mut rng, &consensus, 0.05)).collect();
        let hmm = ProfileHmm::from_examples(&consensus, &examples, 0.02, 0.3);
        let member = mutate(&mut rng, &consensus, 0.05);
        let unrelated = random_seq(&mut rng, 150);
        assert!(hmm.normalized_score(&member) > hmm.normalized_score(&unrelated));
    }

    #[test]
    #[should_panic]
    fn empty_consensus_rejected() {
        let _ = ProfileHmm::from_consensus(b"", 0.05, 0.02, 0.3);
    }
}

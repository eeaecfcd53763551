//! A small profile hidden Markov model with local Viterbi scoring.
//!
//! # One kernel, column-major
//!
//! The kernel, `viterbi`, walks the sequence in its outer loop and the
//! profile in its inner loops, over three `L + 1`-long columns (match,
//! insert, delete) that stay in L1 whatever the contig's length. The layout
//! is chosen for the dependency structure, not the footprint: row-major,
//! every cell's insert state waits for its left neighbour's — one
//! `add → max` chain through the whole matrix — and that chain, not
//! arithmetic or memory, was the cost.
//! Column-major, M and I of a column read only the previous column, so they
//! are straight-line loops over contiguous slices that the compiler
//! vectorises; emissions are transposed once into `emit[base][row]` so that
//! a column reads one contiguous vector of them.
//!
//! # The live-cell rule
//!
//! The delete state `D[r] = max(M[r-1] + open, D[r-1] + extend)` is the one
//! chain left inside a column. It is cut by an observation about the whole
//! recurrence: *a state value ≤ 0 never reaches the score, and non-positive
//! values are interchangeable*.
//!
//! 1. Every transition is the logarithm of a probability, so it is ≤ 0, and
//!    a value v ≤ 0 offers its successors v + t ≤ 0.
//! 2. A match state restarts from `max(·, 0)` and the score is the largest
//!    *positive* match value, so an offer ≤ 0 decides neither; an insert or
//!    delete state fed only offers ≤ 0 is itself ≤ 0 and, by (1), as inert.
//! 3. By induction over the cells, replacing values ≤ 0 by other values ≤ 0
//!    leaves every positive value — hence the score — bit-identical.
//!
//! So the kernel computes `D[r] = M[r-1] + open` for the whole column as a
//! vector pass and runs the `D[r-1] + extend` extension only through the
//! 16-row chunks that hold a *live* cell — one whose offer `D + extend` is
//! positive, which takes four consensus matches in a row: about one chunk in
//! sixteen on unrelated sequence.
//!
//! # Run twice: an admissible 16-bit bound in front of the exact pass
//!
//! The kernel is generic over its score type and instantiated twice from the
//! same source. In `f64`, with the profile's log-odds, it is the exact score.
//! In `i16`, every emission and transition is multiplied by
//! `scale = ⌊30000 / (max emission × L)⌋` and rounded **up**, and addition
//! saturates. `+` and `max` are monotone, so by induction over the cells the
//! `i16` value of every state is ≥ `scale ×` its `f64` value (no true value
//! exceeds `scale × max emission × L ≤ 30000`, so saturating high loses
//! nothing, and saturating low rounds −∞ up): an upper bound on the score at
//! eight cells per SSE2 instruction. The filter stands aside — exact pass
//! only — when `scale` would be < 1 (L ≳ 22,000; a profile without a
//! positive emission has no scale at all) or the quantised threshold falls
//! outside `1..=i16::MAX`.
//!
//! [`RrnaDetector::classify`] decides one strand at a time: the forward
//! strand's bound, its exact pass only if the bound reaches the quantised
//! threshold, then — only if the forward strand missed — the same on the
//! reverse strand. Each pass is given a stop value and ends at the first
//! check of its running best (every `STOP_STRIDE` = 32 columns) that
//! reaches it. None of this changes a decision:
//!
//! 1. The induction above runs over the cells of one strand's matrix, so
//!    each strand's bound is ≥ `scale ×` that strand's exact score, and a
//!    strand whose bound misses the quantised threshold misses the real one.
//! 2. A running best never decreases, so a pass that stopped would have
//!    ended at least as high.
//! 3. The exact pass's stop value `s` satisfies `s / L ≥ threshold`, and
//!    rounding is monotone, so a best that reaches it decides a hit; the
//!    decision is `max(fwd, rev) / L ≥ threshold`, which is
//!    `fwd / L ≥ threshold || rev / L ≥ threshold`.
//!
//! On unrelated sequence both strands' bounds run to the end; on a copy of
//! the profile both passes stop within a stride of the column where the
//! copy's score reaches the threshold, and after a forward-strand copy the
//! reverse strand is never scanned.
//!
//! The precedent is HMMER3's acceleration pipeline (Eddy, "Accelerated
//! profile HMM searches", PLoS Comput Biol 2011): reduced-precision integer
//! SIMD filters in front of the full-precision recurrence, on the integer
//! SIMD dynamic programming of Farrar (Bioinformatics 2007). HMMER's filters
//! are heuristic; this one is admissible, so it never loses a hit.

use seqio::alphabet::encode_base;

/// Background base probability (uniform over ACGT).
const BACKGROUND: f64 = 0.25;

/// Code of a sequence byte that is not a base (`N`, ...), next to the 2-bit
/// codes 0..=3 of `encode_base`.
const NOT_A_BASE: u8 = 4;

/// Rows of a column whose delete-state extension is skipped or run as one.
const CHUNK: usize = 16;

/// Columns between two checks of a pass's running best against its stop
/// value: the check reduces `L` lanes, so it is amortised over this many
/// columns of `L` cells each.
const STOP_STRIDE: usize = 32;

/// A score type of the Viterbi kernel: log-odds in nats (`f64`), or the same
/// multiplied by the profile's scale and rounded up (`i16`).
trait Score: Copy + PartialOrd {
    const ZERO: Self;
    /// log 0, "no path": stays the minimum under `plus` of anything ≤ 0.
    const NEG_INF: Self;
    fn plus(self, other: Self) -> Self;
}

impl Score for f64 {
    const ZERO: Self = 0.0;
    const NEG_INF: Self = f64::NEG_INFINITY;
    #[inline(always)]
    fn plus(self, other: Self) -> Self {
        self + other
    }
}

impl Score for i16 {
    const ZERO: Self = 0;
    const NEG_INF: Self = i16::MIN;
    #[inline(always)]
    fn plus(self, other: Self) -> Self {
        self.saturating_add(other)
    }
}

/// `max` as one compare-and-select (`maxpd` / `pmaxsw`): no score is ever
/// NaN (nothing is +∞) or −0.0, so this is `f64::max` without the NaN care.
#[inline(always)]
fn max<S: Score>(a: S, b: S) -> S {
    if a > b {
        a
    } else {
        b
    }
}

/// What the kernel reads of a profile, in one score type.
#[derive(Debug, Clone)]
struct Scores<S> {
    /// Emission log-odds of the match states against the background,
    /// transposed: `emit[base][position]`.
    emit: [Vec<S>; 4],
    /// log(P) of staying on the match path (M→M).
    mm: S,
    /// log(P) of opening an insertion or deletion (M→I, M→D).
    open: S,
    /// log(P) of extending an insertion or deletion (I→I, D→D).
    extend: S,
    /// log(P) of closing an insertion or deletion back to match.
    close: S,
}

/// A profile HMM over a consensus of length L: match states M_1..M_L with
/// position-specific emission probabilities, plus insert and delete states
/// with shared transition probabilities (a light-weight Plan7 architecture).
#[derive(Debug, Clone)]
pub struct ProfileHmm {
    /// The profile's log-odds: what [`ProfileHmm::score`] scores with.
    exact: Scores<f64>,
    /// `(scale, ⌈scale × exact⌉)`, the upper-bound copy of the profile (see
    /// the module docs); `None` when the profile has no scale ≥ 1.
    bound: Option<(f64, Scores<i16>)>,
}

/// Emission probabilities of a consensus's match states: the consensus base
/// with probability `1 - mismatch_prob`, the rest spread evenly over the
/// three alternatives; a non-base is a background column.
fn consensus_probs(consensus: &[u8], mismatch_prob: f64) -> Vec<[f64; 4]> {
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

/// Emission probabilities as the per-column base frequencies of a consensus
/// (weighted 2) and examples of the same length, with a pseudocount of 1.
fn example_probs(consensus: &[u8], examples: &[Vec<u8>]) -> Vec<[f64; 4]> {
    let l = consensus.len();
    let mut counts = vec![[1.0f64; 4]; l];
    for (i, &b) in consensus.iter().enumerate() {
        if let Some(code) = encode_base(b) {
            counts[i][code as usize] += 2.0;
        }
    }
    for ex in examples {
        for (i, &b) in ex.iter().enumerate().take(l) {
            if let Some(code) = encode_base(b) {
                counts[i][code as usize] += 1.0;
            }
        }
    }
    for c in &mut counts {
        let total: f64 = c.iter().sum();
        *c = c.map(|count| count / total);
    }
    counts
}

impl ProfileHmm {
    /// The profile of the given match-state emission probabilities and gap
    /// model, in both score types.
    fn new(match_probs: &[[f64; 4]], indel_open: f64, indel_extend: f64) -> Self {
        assert!(!match_probs.is_empty(), "consensus must be non-empty");
        assert!((0.0..0.5).contains(&indel_open) && indel_open > 0.0);
        assert!((0.0..1.0).contains(&indel_extend) && indel_extend > 0.0);
        let exact = Scores {
            emit: std::array::from_fn(|base| {
                let odds = match_probs.iter().map(|p| (p[base] / BACKGROUND).ln());
                odds.collect()
            }),
            mm: (1.0 - 2.0 * indel_open).ln(),
            open: indel_open.ln(),
            extend: indel_extend.ln(),
            close: (1.0 - indel_extend).ln(),
        };
        // No path visits a match state twice and transitions only subtract,
        // so no score exceeds `max_emit × L`: scaled, that is ≤ 30000.
        let max_emit = exact.emit.iter().flatten().fold(0.0, |a, &e| max(a, e));
        let scale = (30000.0 / (max_emit * match_probs.len() as f64)).floor();
        // The cast saturates: −∞, or anything below `i16::MIN`, rounds up to it.
        let up = |x: f64| (scale * x).ceil() as i16;
        let bound = (scale >= 1.0 && scale.is_finite()).then(|| {
            let scores = Scores {
                emit: exact
                    .emit
                    .each_ref()
                    .map(|e| e.iter().map(|&x| up(x)).collect()),
                mm: up(exact.mm),
                open: up(exact.open),
                extend: up(exact.extend),
                close: up(exact.close),
            };
            (scale, scores)
        });
        ProfileHmm { exact, bound }
    }

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
        assert!((0.0..0.75).contains(&mismatch_prob));
        let probs = consensus_probs(consensus, mismatch_prob);
        ProfileHmm::new(&probs, indel_open, indel_extend)
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
        let probs = example_probs(consensus, examples);
        ProfileHmm::new(&probs, indel_open, indel_extend)
    }

    /// Profile length (number of match states).
    pub fn len(&self) -> usize {
        self.exact.emit[0].len()
    }

    /// True if the profile has no match states (never constructible via the
    /// public constructors, which reject empty consensi).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Best local log-odds score over both strands, in nats.
    pub fn score(&self, seq: &[u8]) -> f64 {
        both_strands(&self.exact, &encode(seq))
    }

    /// Score normalised per profile position (nats per consensus base), which
    /// makes thresholds independent of the profile length.
    pub fn normalized_score(&self, seq: &[u8]) -> f64 {
        self.score(seq) / self.len() as f64
    }
}

/// The 2-bit codes of a sequence's bases, `NOT_A_BASE` for anything else.
fn encode(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .map(|&b| encode_base(b).unwrap_or(NOT_A_BASE))
        .collect()
}

/// The other strand of an encoded sequence: 3 - code swaps A/T and C/G.
fn reverse_strand(codes: &[u8]) -> Vec<u8> {
    codes
        .iter()
        .rev()
        .map(|&code| match code {
            NOT_A_BASE => NOT_A_BASE,
            base => 3 - base,
        })
        .collect()
}

/// The best of [`viterbi`] over both strands of an encoded sequence.
fn both_strands<S: Score>(scores: &Scores<S>, codes: &[u8]) -> S {
    let (fwd, _) = viterbi(scores, codes, None);
    let (rev, _) = viterbi(scores, &reverse_strand(codes), None);
    max(fwd, rev)
}

/// The match, insert and delete scores of one sequence position at every
/// profile position; index 0 is the virtual begin state.
struct Column<S> {
    m: Vec<S>,
    i: Vec<S>,
    d: Vec<S>,
}

impl<S: Score> Column<S> {
    /// The column before the first base: only the begin state is reachable
    /// (the best path ending in M_0 scores 0 anywhere).
    fn begin(len: usize) -> Self {
        let mut m = vec![S::NEG_INF; len + 1];
        m[0] = S::ZERO;
        let gap = vec![S::NEG_INF; len + 1];
        Column {
            m,
            i: gap.clone(),
            d: gap,
        }
    }
}

/// Best local-alignment Viterbi score of the profile against a sequence of
/// base codes: local in the sequence (free start/end) and in the profile
/// ends. Column-major; the module docs give the layout and the live-cell
/// rule the delete-state pass relies on.
///
/// With a `stop` value the pass ends early, at a multiple of [`STOP_STRIDE`]
/// columns, once the best score so far reaches it, and returns that best.
/// Returns the score and the number of columns it filled.
fn viterbi<S: Score>(scores: &Scores<S>, codes: &[u8], stop: Option<S>) -> (S, usize) {
    let l = scores.emit[0].len();
    let (mut prev, mut cur) = (Column::begin(l), Column::begin(l));
    // The best match score of every row so far: a lane-wise running maximum,
    // reduced only every `STOP_STRIDE` columns against `stop` and once at the
    // end (a scalar `best` would chain every cell).
    let mut best = vec![S::ZERO; l];
    for (column, &code) in codes.iter().enumerate() {
        if let Some(stop) = stop.filter(|_| column % STOP_STRIDE == 0) {
            let so_far = best.iter().copied().fold(S::ZERO, max);
            if so_far >= stop {
                return (so_far, column);
            }
        }
        if code == NOT_A_BASE {
            // No state emits a non-base: only the begin state survives one.
            cur.m[1..].fill(S::NEG_INF);
            cur.i.fill(S::NEG_INF);
            cur.d.fill(S::NEG_INF);
            std::mem::swap(&mut prev, &mut cur);
            continue;
        }
        // (Every slice cut to a length the compiler can see is `l` or `l + 1`,
        // so that the loops below carry no bounds checks.)
        let emit = &scores.emit[code as usize][..l];
        let best = &mut best[..l];
        let (pm, pi, pd) = (&prev.m[..=l], &prev.i[..=l], &prev.d[..=l]);
        let (m, i, d) = (&mut cur.m[..=l], &mut cur.i[..=l], &mut cur.d[..=l]);
        // M and I read the previous column only. (`max(I, D) + close` is
        // `max(I + close, D + close)` to the bit: rounding is monotone.)
        for r in 0..l {
            let from_m = pm[r].plus(scores.mm);
            let from_gap = max(pi[r], pd[r]).plus(scores.close);
            m[r + 1] = emit[r].plus(max(max(from_m, from_gap), S::ZERO));
            // An insertion consumes a base and stays on its row; it emits at
            // background odds = 0.
            let i_open = max(pm[r + 1], pm[r]).plus(scores.open);
            i[r + 1] = max(i_open, pi[r + 1].plus(scores.extend));
            best[r] = max(best[r], m[r + 1]);
        }
        // A deletion consumes a profile row, not a base: opened from this
        // column's M everywhere at once, then extended — the one chain down
        // a column — only through the chunks with a live cell, one that
        // offers the row below a positive value.
        let extend = |chunk: &mut [S], mut above: S| {
            for d in chunk {
                let offer = above.plus(scores.extend);
                if offer > S::ZERO {
                    *d = max(*d, offer);
                }
                above = *d;
            }
            above
        };
        let (m_chunks, m_rest) = m[..l].as_chunks::<CHUNK>();
        let (d_chunks, d_rest) = d[1..].as_chunks_mut::<CHUNK>();
        let mut above = S::NEG_INF; // D of the row above, or any other dead value
        for (d, m) in d_chunks.iter_mut().zip(m_chunks) {
            let mut live = above.plus(scores.extend) > S::ZERO;
            for (d, &m) in d.iter_mut().zip(m) {
                *d = m.plus(scores.open);
                live |= d.plus(scores.extend) > S::ZERO;
            }
            if live {
                above = extend(d, above);
            }
        }
        for (d, &m) in d_rest.iter_mut().zip(m_rest) {
            *d = m.plus(scores.open);
        }
        extend(d_rest, above);
        std::mem::swap(&mut prev, &mut cur);
    }
    (best.into_iter().fold(S::ZERO, max), codes.len())
}

/// What one [`RrnaDetector::classify`] call decided, and the dynamic-
/// programming cells (profile length × columns, summed over the strands each
/// pass scanned) it filled to decide it — deterministic work counts for the
/// caller's stats, at most 2 × profile length × sequence length a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RrnaCall {
    /// True if the sequence contains an rRNA-like region.
    pub hit: bool,
    /// Cells of the 16-bit upper-bound pass (0 if the filter stood aside).
    pub bound_cells: u64,
    /// Cells of the exact pass (0 if the bound rejected both strands).
    pub exact_cells: u64,
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
        self.classify(seq).hit
    }

    /// Decides `len ≥ min_len && score / L ≥ threshold` one strand at a time
    /// (the score is the better strand's): a strand's exact pass runs only if
    /// its 16-bit upper bound reaches the threshold, each pass stops once its
    /// best so far decides, and the reverse strand is not scored once the
    /// forward one hits.
    pub fn classify(&self, seq: &[u8]) -> RrnaCall {
        let mut call = RrnaCall::default();
        if seq.len() < self.min_len {
            return call;
        }
        let l = self.hmm.len();
        // The bound's stop value, with one unit of slack for the f64 rounding
        // of `scale × x` and of the exact sums. A quantised threshold ≤ 0
        // rejects nothing (the bound is ≥ 0) and one above `i16::MAX`, or
        // NaN, is not one.
        let filter = self.hmm.bound.as_ref().and_then(|(scale, bound)| {
            let needed = (scale * self.threshold * l as f64).floor() - 1.0;
            let quantised = (1.0..=f64::from(i16::MAX)).contains(&needed);
            quantised.then_some((bound, needed as i16))
        });
        // The exact pass's stop value: a score s with s / L ≥ threshold, so
        // any best that reaches it decides a hit (division rounds monotonely).
        // A NaN threshold gives a NaN stop, which no score reaches.
        let mut stop = self.threshold * l as f64;
        while stop / (l as f64) < self.threshold {
            stop = stop.next_up();
        }
        let mut strand_hits = |codes: &[u8]| {
            if let Some((bound, needed)) = filter {
                let (upper, columns) = viterbi(bound, codes, Some(needed));
                call.bound_cells += (l * columns) as u64;
                if upper < needed {
                    return false;
                }
            }
            let (score, columns) = viterbi(&self.hmm.exact, codes, Some(stop));
            call.exact_cells += (l * columns) as u64;
            score / l as f64 >= self.threshold
        };
        let codes = encode(seq);
        let hit = strand_hits(&codes) || strand_hits(&reverse_strand(&codes));
        call.hit = hit;
        call
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seqio::alphabet::revcomp;

    /// The scoring recurrence as first written — row-major, one `ln` per
    /// cell, fresh rows per profile position, the raw sequence, every delete
    /// state extended — which [`viterbi`] in `f64` must reproduce to the bit.
    fn reference_score_forward(match_probs: &[[f64; 4]], hmm: &ProfileHmm, seq: &[u8]) -> f64 {
        let n = seq.len();
        if n == 0 {
            return 0.0;
        }
        let gaps = &hmm.exact;
        let neg = f64::NEG_INFINITY;
        let mut m_prev = vec![0.0f64; n + 1];
        let mut i_prev = vec![neg; n + 1];
        let mut d_prev = vec![neg; n + 1];
        let mut best = 0.0f64;
        for emit_probs in match_probs {
            let mut m_cur = vec![neg; n + 1];
            let mut i_cur = vec![neg; n + 1];
            let mut d_cur = vec![neg; n + 1];
            for col in 1..=n {
                let Some(base) = encode_base(seq[col - 1]) else {
                    continue;
                };
                let emit = (emit_probs[base as usize] / BACKGROUND).ln();
                let from_m = m_prev[col - 1] + gaps.mm;
                let from_i = i_prev[col - 1] + gaps.close;
                let from_d = d_prev[col - 1] + gaps.close;
                m_cur[col] = emit + from_m.max(from_i).max(from_d).max(0.0);
                let i_open = m_cur[col - 1].max(m_prev[col - 1]) + gaps.open;
                let i_ext = i_cur[col - 1] + gaps.extend;
                i_cur[col] = i_open.max(i_ext);
                let d_open = m_prev[col] + gaps.open;
                let d_ext = d_prev[col] + gaps.extend;
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

    /// `copy` with `len` bases removed at `at` (clamped to its end).
    fn delete(copy: &[u8], at: usize, len: usize) -> Vec<u8> {
        [&copy[..at], &copy[(at + len).min(copy.len())..]].concat()
    }

    /// `copy` with `len` random bases inserted at `at`.
    fn insert(rng: &mut StdRng, copy: &[u8], at: usize, len: usize) -> Vec<u8> {
        [&copy[..at], &random_seq(rng, len), &copy[at..]].concat()
    }

    /// Sequences shaped like what the kernel can get wrong against a profile
    /// of this consensus: nothing, non-bases, unrelated sequence, and copies
    /// (0%, 3% and 15% substituted) bare, embedded, with 1-, 5- and 40-base
    /// deletions and insertions (the delete chain crossing chunk boundaries,
    /// the insert chain), with `N` runs at either end and a lower-case
    /// stretch — each on both strands.
    fn variants(rng: &mut StdRng, consensus: &[u8]) -> Vec<Vec<u8>> {
        let l = consensus.len();
        let mut seqs: Vec<Vec<u8>> = vec![Vec::new(), b"A".to_vec(), b"NNNN".to_vec()];
        for len in [30, l, 2 * l + 50] {
            seqs.push(random_seq(rng, len));
        }
        for rate in [0.0, 0.03, 0.15] {
            let copy = mutate(rng, consensus, rate);
            seqs.push([random_seq(rng, 70), copy.clone(), random_seq(rng, 50)].concat());
            for gap in [1, 5, 40] {
                seqs.push(delete(&copy, l / 3, gap));
                seqs.push(insert(rng, &copy, l / 3, gap));
            }
            let mut ragged = copy.clone();
            let ends = l.min(4);
            ragged[..ends].fill(b'N');
            ragged[l - ends..].fill(b'N');
            ragged[l / 2..l / 2 + l / 5].make_ascii_lowercase();
            seqs.extend([copy, ragged]);
        }
        let strands: Vec<Vec<u8>> = seqs.iter().map(|s| revcomp(s)).collect();
        seqs.extend(strands);
        seqs
    }

    #[test]
    fn scores_are_bit_identical_to_the_reference_recurrence() {
        let mut rng = StdRng::seed_from_u64(11);
        // Profile lengths around the vector widths and the chunk, a consensus
        // with a non-base, and a trained profile.
        let mut profiles: Vec<(Vec<u8>, Vec<[f64; 4]>)> = Vec::new();
        for len in [1, 2, 15, 16, 17, 120, 401] {
            let mut consensus = random_seq(&mut rng, len);
            if len == 120 {
                consensus[40] = b'N';
            }
            let probs = consensus_probs(&consensus, 0.05);
            profiles.push((consensus, probs));
        }
        let consensus = random_seq(&mut rng, 90);
        let examples: Vec<Vec<u8>> = (0..5).map(|_| mutate(&mut rng, &consensus, 0.08)).collect();
        let probs = example_probs(&consensus, &examples);
        profiles.push((consensus, probs));

        let mut positive = 0;
        for (consensus, probs) in &profiles {
            let hmm = ProfileHmm::new(probs, 0.02, 0.3);
            for seq in variants(&mut rng, consensus) {
                let fwd = reference_score_forward(probs, &hmm, &seq);
                let rev = reference_score_forward(probs, &hmm, &revcomp(&seq));
                // `==` on purpose: every positive cell holds the same expression.
                assert!(
                    hmm.score(&seq) == fwd.max(rev),
                    "{} bases against {} states",
                    seq.len(),
                    consensus.len()
                );
                positive += usize::from(fwd.max(rev) > 10.0);
            }
        }
        assert!(positive >= 200, "only {positive} sequences scored");
    }

    /// Seeded detectors with the sequences to try on each: the [`variants`]
    /// of twenty profiles of 60-98 states (from a consensus, or trained) and,
    /// on those and two long profiles, partial copies that score around the
    /// threshold. Sized for a debug build: ~45 M cells a pass.
    fn corpus() -> Vec<(RrnaDetector, Vec<Vec<u8>>)> {
        let mut rng = StdRng::seed_from_u64(20261001);
        let lens = (0..20).map(|i| 60 + 2 * i).chain([400, 1500]);
        lens.enumerate()
            .map(|(p, l)| {
                let consensus = random_seq(&mut rng, l);
                let hmm = if p % 3 == 2 {
                    let examples: Vec<Vec<u8>> =
                        (0..4).map(|_| mutate(&mut rng, &consensus, 0.06)).collect();
                    ProfileHmm::from_examples(&consensus, &examples, 0.02, 0.3)
                } else {
                    ProfileHmm::from_consensus(&consensus, 0.05, 0.02, 0.3)
                };
                let (mut seqs, partials) = match l {
                    ..400 => (variants(&mut rng, &consensus), 34),
                    400 => (Vec::new(), 12),
                    _ => (Vec::new(), 4),
                };
                // A third of the consensus scores about 0.4 nats per state.
                for _ in 0..partials {
                    let part = rng.gen_range(l / 4..=2 * l / 5);
                    let at = rng.gen_range(0..=l - part);
                    let rate = rng.gen_range(0.0..0.04);
                    let copy = mutate(&mut rng, &consensus[at..at + part], rate);
                    let flank = random_seq(&mut rng, 40);
                    let seq = [&flank[..], &copy[..], &flank[..]].concat();
                    seqs.push(if rng.gen() { revcomp(&seq) } else { seq });
                }
                let detector = RrnaDetector {
                    hmm,
                    threshold: 0.4,
                    min_len: l / 4,
                };
                (detector, seqs)
            })
            .collect()
    }

    #[test]
    fn the_i16_bound_is_never_below_the_exact_score() {
        let (mut cases, mut near) = (0, 0);
        for (detector, seqs) in corpus() {
            let hmm = &detector.hmm;
            let (scale, bound) = hmm.bound.as_ref().expect("a scale ≥ 1 exists");
            for seq in &seqs {
                let score = hmm.score(seq);
                let upper = f64::from(both_strands(bound, &encode(seq)));
                assert!(
                    upper >= scale * score,
                    "bound {upper} < {scale} × {score}: {} bases against {} states",
                    seq.len(),
                    hmm.len()
                );
                cases += 1;
                let per_state = score / hmm.len() as f64;
                near += usize::from((0.36..=0.44).contains(&per_state));
            }
        }
        assert!(cases >= 2000 && near >= 100, "{cases} cases, {near} near");

        // And the bound is tight enough to be a filter: unrelated sequence is
        // rejected without the exact pass.
        let mut rng = StdRng::seed_from_u64(12);
        let detector = RrnaDetector::from_consensus(&random_seq(&mut rng, 400));
        let call = detector.classify(&random_seq(&mut rng, 10_000));
        assert_eq!((call.hit, call.exact_cells), (false, 0));
        assert_eq!(call.bound_cells, 2 * 400 * 10_000);
    }

    /// What `is_hit` decided before there was a filter.
    fn unfiltered_decision(detector: &RrnaDetector, seq: &[u8]) -> bool {
        seq.len() >= detector.min_len && detector.hmm.normalized_score(seq) >= detector.threshold
    }

    #[test]
    fn is_hit_equals_the_unfiltered_decision() {
        let mut hits = 0;
        for (detector, seqs) in corpus() {
            for seq in &seqs {
                let unfiltered = unfiltered_decision(&detector, seq);
                assert_eq!(detector.is_hit(seq), unfiltered, "{} bases", seq.len());
                hits += usize::from(unfiltered);
            }
        }
        assert!(hits >= 500, "only {hits} hits");
    }

    #[test]
    fn classify_reports_the_cells_of_each_pass() {
        let mut rng = StdRng::seed_from_u64(13);
        let consensus = random_seq(&mut rng, 200);
        let detector = RrnaDetector::from_consensus(&consensus);
        // Cells are the profile's 200 rows times the columns a pass filled.
        let cells = |columns: u64| 200 * columns;
        let call = |hit, bound_cells, exact_cells| RrnaCall {
            hit,
            bound_cells,
            exact_cells,
        };
        // A copy on the forward strand: each pass stops at the first check
        // of its best (every 32 columns) after the copy has scored enough,
        // and the reverse strand is never scanned.
        let copy = mutate(&mut rng, &consensus, 0.05);
        let forward = detector.classify(&copy);
        assert_eq!(forward, call(true, cells(96), cells(96)));
        // The same copy on the reverse strand: the forward strand is scanned
        // to its end by the bound, then the reverse strand as above.
        let reverse = detector.classify(&revcomp(&copy));
        assert_eq!(reverse, call(true, cells(200 + 96), cells(96)));
        // Unrelated sequence: the bound rejects both strands in full.
        let unrelated = random_seq(&mut rng, 300);
        assert_eq!(detector.classify(&unrelated), call(false, cells(600), 0));
        assert_eq!(detector.classify(&consensus[..20]), call(false, 0, 0));
    }

    /// Sequences on which deciding strand by strand, and stopping a pass
    /// once it decides, could part from the unfiltered decision: copies on
    /// the reverse strand only, copies that end in the last stride of
    /// columns (so only the final reduction sees them), and copies split by
    /// `N` runs — whole, 12% diverged, and partial copies that score around
    /// the threshold, against consensus, trained and mismatch-free profiles.
    #[test]
    fn per_strand_decisions_equal_the_unfiltered_decision() {
        let mut rng = StdRng::seed_from_u64(15);
        let (mut hits, mut misses, mut stopped) = (0, 0, 0);
        for (p, l) in [60, 97, 200, 400].into_iter().enumerate() {
            let consensus = random_seq(&mut rng, l);
            let hmm = match p {
                1 => {
                    let examples: Vec<Vec<u8>> =
                        (0..4).map(|_| mutate(&mut rng, &consensus, 0.06)).collect();
                    ProfileHmm::from_examples(&consensus, &examples, 0.02, 0.3)
                }
                2 => ProfileHmm::from_consensus(&consensus, 0.0, 0.02, 0.3),
                _ => ProfileHmm::from_consensus(&consensus, 0.05, 0.02, 0.3),
            };
            let detector = RrnaDetector {
                hmm,
                threshold: 0.4,
                min_len: l / 4,
            };
            let mut copies = vec![consensus.clone(), mutate(&mut rng, &consensus, 0.12)];
            for _ in 0..6 {
                let part = rng.gen_range(l / 4..=2 * l / 5);
                let at = rng.gen_range(0..=l - part);
                copies.push(mutate(&mut rng, &consensus[at..at + part], 0.02));
            }
            let mut seqs: Vec<Vec<u8>> = Vec::new();
            for copy in &copies {
                // Reverse strand only.
                let lead = random_seq(&mut rng, 45);
                seqs.push(revcomp(&[&lead[..], copy].concat()));
                // Ending 0..=33 bases before the end, after leads that put
                // the sequence's length at every residue of the stride.
                for tail in [0, 1, 5, 17, 31, 32, 33] {
                    let lead = rng.gen_range(0..2 * STOP_STRIDE);
                    let lead = random_seq(&mut rng, lead);
                    let seq = [lead, copy.clone(), random_seq(&mut rng, tail)].concat();
                    seqs.push(revcomp(&seq));
                    seqs.push(seq);
                }
                // Split by `N` runs at a third and two thirds of the copy.
                for run in [1, 4, 32, 100] {
                    let (a, b) = (copy.len() / 3, 2 * copy.len() / 3);
                    let ns = vec![b'N'; run];
                    let seq = [&copy[..a], &ns, &copy[a..b], &ns, &copy[b..]].concat();
                    seqs.push(revcomp(&seq));
                    seqs.push(seq);
                }
            }
            for seq in &seqs {
                let unfiltered = unfiltered_decision(&detector, seq);
                let call = detector.classify(seq);
                assert_eq!(
                    call.hit,
                    unfiltered,
                    "{} bases against {l} states",
                    seq.len()
                );
                let full = 2 * (l * seq.len()) as u64;
                assert!(call.bound_cells <= full && call.exact_cells <= full);
                (hits, misses) = (
                    hits + usize::from(unfiltered),
                    misses + usize::from(!unfiltered),
                );
                stopped += usize::from(call.hit && call.exact_cells < full);
            }
        }
        assert!(
            hits >= 150 && misses >= 100 && stopped >= 100,
            "{hits} hits, {misses} misses, {stopped} stopped"
        );
    }

    #[test]
    fn degenerate_profiles_answer_exactly() {
        let mut rng = StdRng::seed_from_u64(14);
        let unrelated = random_seq(&mut rng, 300);
        let same_as_unfiltered = |detector: &RrnaDetector, seq: &[u8]| {
            let unfiltered = unfiltered_decision(detector, seq);
            assert_eq!(detector.is_hit(seq), unfiltered);
            unfiltered
        };

        // An all-`N` consensus emits everything at background odds: there is
        // no positive emission to scale, every score is 0, nothing hits.
        let mut blank = RrnaDetector::from_consensus(&[b'N'; 50]);
        assert!(blank.hmm.bound.is_none());
        assert_eq!(blank.score(&unrelated), 0.0);
        let call = blank.classify(&unrelated);
        assert_eq!((call.hit, call.bound_cells), (false, 0));
        assert_eq!(call.exact_cells, 2 * 50 * 300);
        // A threshold ≤ 0 calls everything long enough a hit (scores are
        // ≥ 0); the bound, which cannot reject, is not run. NaN calls nothing.
        for (threshold, hit) in [(0.0, true), (-1.0, true), (f64::NAN, false)] {
            blank.threshold = threshold;
            assert_eq!(blank.is_hit(&unrelated), hit);
            let mut detector = RrnaDetector::from_consensus(&unrelated[..100]);
            detector.threshold = threshold;
            let call = detector.classify(&unrelated);
            assert_eq!((call.hit, call.bound_cells), (hit, 0));
            assert!(!detector.is_hit(&unrelated[..10]), "shorter than min_len");
        }

        // No mismatches allowed: a mismatch emits −∞ (`i16::MIN` in the
        // bound), never NaN.
        let consensus = random_seq(&mut rng, 80);
        let strict = RrnaDetector {
            hmm: ProfileHmm::from_consensus(&consensus, 0.0, 0.02, 0.3),
            threshold: 0.4,
            min_len: 20,
        };
        assert!(same_as_unfiltered(&strict, &consensus));
        assert!(same_as_unfiltered(&strict, &revcomp(&consensus)));
        assert!(same_as_unfiltered(&strict, &delete(&consensus, 30, 5)));
        same_as_unfiltered(&strict, &mutate(&mut rng, &consensus, 0.2));
        assert!(!same_as_unfiltered(&strict, &unrelated));
        assert!(strict.score(&unrelated) >= 0.0);

        // Three states: the scale is in the thousands and the gap
        // transitions sit near `i16::MIN`; `min_len` is 0.
        let tiny = RrnaDetector::from_consensus(b"ACG");
        assert!(same_as_unfiltered(&tiny, b"ACG"));
        assert!(same_as_unfiltered(&tiny, b"TTCGTAA"));
        assert!(!same_as_unfiltered(&tiny, b""));
        assert!(!same_as_unfiltered(&tiny, b"NN"));
        for len in [1, 7, 40] {
            same_as_unfiltered(&tiny, &random_seq(&mut rng, len));
        }

        // Too long for a scale ≥ 1: the filter stands aside and the exact
        // pass still finds a slice of the consensus.
        let consensus = random_seq(&mut rng, 25_000);
        let mut long = RrnaDetector::from_consensus(&consensus);
        assert!(long.hmm.bound.is_none());
        (long.threshold, long.min_len) = (0.01, 100);
        let call = long.classify(&consensus[9_000..9_400]);
        assert_eq!((call.hit, call.bound_cells), (true, 0));
        // The forward strand's pass stops at the check after column 224 of
        // 400; the reverse strand is not scanned.
        assert_eq!(call.exact_cells, 25_000 * 224);
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

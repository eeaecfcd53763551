//! Profile HMM recognition of conserved ribosomal-RNA-like regions.
//!
//! MetaHipMer integrates HMMER to recognise contigs that belong to highly
//! conserved ribosomal regions; such contigs get special treatment during
//! scaffolding (§III-C) because reconstructing rRNA operons accurately matters
//! for downstream phylogenetic analysis. HMMER itself is a large C code base;
//! what the pipeline needs from it is a scoring oracle — "how well does this
//! contig match the conserved profile?" — so this crate implements a genuine
//! (if small) profile HMM: match/insert/delete states over a consensus, fitted
//! from the consensus plus optional example sequences, scored against contigs
//! with a local Viterbi log-odds algorithm on both strands.
//!
//! What makes HMMER usable at scale is its acceleration pipeline — cheap
//! reduced-precision SIMD filters in front of the full-precision recurrence
//! (Eddy, PLoS Comput Biol 2011) — and [`RrnaDetector`] classifies the same
//! way, with one kernel run twice. The kernel is column-major over three
//! profile-long columns that stay in L1, so that its match and insert states
//! vectorise: the insert state's row-long `add → max` chain, not arithmetic,
//! was the cost of the row-major form. Instantiated in `i16`, every score
//! scaled and rounded *up*, it is an upper bound on the score that rejects
//! every unrelated contig at eight cells per instruction; instantiated in
//! `f64` it is the exact score, and sees only the survivors. The bound is
//! admissible, so the decisions are those of the exact pass alone, and where
//! a profile cannot be scaled into 16 bits (no positive emission, or longer
//! than ~22,000 states) the filter stands aside. [`hmm`] has the layout, the
//! rule that cuts the one dependency chain left in a column, and the proofs;
//! [`RrnaDetector::classify`] decides one strand at a time, stops each pass
//! as soon as its best so far decides, and reports the cells it filled.

pub mod hmm;

pub use hmm::{ProfileHmm, RrnaCall, RrnaDetector};

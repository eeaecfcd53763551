//! merAligner substitute: distributed seed-and-extend read-to-contig alignment.
//!
//! The paper maps reads onto contigs twice per iteration (for local assembly
//! and for scaffolding) using merAligner, a distributed seed-and-extend
//! aligner built on the same hash-table machinery as the rest of the
//! pipeline. This crate reproduces its structure:
//!
//! * [`seed_index`] — a distributed hash table mapping canonical seed k-mers
//!   of the contigs to their positions (the "seed index"); construction is an
//!   update-only aggregated phase, lookups are a read-only phase served
//!   through a per-rank [`dht::CachedView`]: cache hits are answered locally
//!   and all misses of a read block travel to their owner ranks in one
//!   aggregated request–response round trip (the paper's batched lookups —
//!   the only lookup path there is);
//! * [`align`] — seed lookup, candidate voting by diagonal, and ungapped
//!   extension/verification producing [`align::Alignment`] records (our
//!   simulated reads contain substitutions but no indels, so ungapped
//!   verification loses nothing; see DESIGN.md);
//! * [`localize`] — the read-localisation optimisation of §II-I: after the
//!   first round of alignments, read pairs are reassigned to the rank
//!   `contig mod P` of the contig they aligned to, so subsequent alignment
//!   rounds hit the software cache and k-mer exchanges become cache friendly.

pub mod align;
pub mod localize;
pub mod seed_index;

pub use align::{align_reads, align_reads_ref, AlignParams, Alignment, AlignmentSet};
pub use localize::{localize_pairs, ReadDistribution};
pub use seed_index::{build_seed_index, build_seed_index_ref, SeedHit, SeedIndex};

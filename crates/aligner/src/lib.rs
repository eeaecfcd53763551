//! merAligner substitute: distributed seed-and-extend read-to-contig alignment.
//!
//! The paper maps reads onto contigs twice per iteration (for local assembly
//! and for scaffolding) using merAligner, a distributed seed-and-extend
//! aligner built on the same hash-table machinery as the rest of the
//! pipeline. This crate reproduces its structure:
//!
//! * [`seed_index`] — the seed index, canonical seed k-mers of the contigs →
//!   their positions, in its two phases: *built* once per contig set by an
//!   update-only aggregated exchange of fixed-size `(seed, hit)` records that
//!   each owner groups into flat arrays, then *read*, immutably — every rank
//!   keeps only its own shard, hands out its own seeds' hits by reference,
//!   and answers other ranks' batched lookups inside the RPC handler;
//! * [`align`] — per block of 2-bit reads, flat passes over reused arrays:
//!   every seed of the block cut from the reads' packed words, then all of
//!   them resolved in one loop (owned seeds by reference, foreign seeds
//!   through one [`dht::CachedView`] over the index: cache hits locally, all
//!   misses of the block to their owners in one aggregated request–response
//!   round trip — the paper's batched lookups, the only lookup path there
//!   is), candidate voting by diagonal as a count of integer placement keys
//!   in an open-addressed tally, and ungapped verification on the packed codes
//!   producing [`align::Alignment`] records (`mgsim`'s reads carry
//!   substitution errors only, like WGSim's default model, so ungapped
//!   verification loses nothing);
//! * [`localize`] — the read-localisation optimisation of §II-I: after the
//!   first round of alignments, read pairs are reassigned to the rank
//!   `contig mod P` of the contig they aligned to, so subsequent alignment
//!   rounds hit the software cache and k-mer exchanges become cache friendly.

pub mod align;
pub mod localize;
pub mod seed_index;

pub use align::{align_reads_ref, AlignParams, Alignment, AlignmentSet};
pub use localize::{localize_pairs, localize_reads, ReadDistribution};
pub use seed_index::{build_seed_index_ref, RemoteHits, SeedHit, SeedIndex};

//! Memory guard for the whole pipeline: the peak live heap of a 1-rank
//! `MetaHipMer::assemble` in the default configuration. Resident set sizes
//! depend on what the allocator keeps, so they cannot show a retained
//! structure reliably; live bytes counted at the allocator can. This binary
//! counts them with a process-wide `#[global_allocator]`, so it is a test
//! binary of its own.

use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;
use seqio::ReadLibrary;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// `System`, counting the bytes allocated and not yet freed, and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves, as a
        // moving reallocation holds both.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most live heap bytes `f` adds to what was live when it started.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - before)
}

/// The peak heap bytes the assembly of [`skewed`] adds, measured in this
/// binary (debug and release alike) once alignment kept one alignment set
/// alive at a time and seed hits took 8 bytes. Before that change, which
/// held each iteration's alignment set through the next alignment round,
/// the figure was 5,938,892; counting straight into the graph's 8-byte
/// vertices took it from 5,047,764 to this, because this community's peak
/// is in alignment and local assembly, not in the k-mer tables. A property
/// of [`skewed`] and the default configuration: change either and it must
/// be re-measured.
const SKEWED_PEAK_HEAP_BYTES: usize = 5_047_752;

/// The peak heap bytes the assembly of [`uniform`] adds, measured in this
/// binary once k-mer analysis counted straight into the graph, storing each
/// surviving k-mer as an 8-byte vertex. Before that change, which kept every
/// survivor's full counts until the contig clean-up and merged the previous
/// contigs' k-mers into that table after counting, the figure was
/// 5,801,955. Ordering minimizers by a hash of the m-mer at m = 12 took it
/// from 3,835,883 to this: longer supermers mean fewer, smaller wire records
/// in the k = 21 count's tag runs, where this community's peak sits. A
/// property of [`uniform`] and the default configuration.
const UNIFORM_PEAK_HEAP_BYTES: usize = 3_305_292;

/// `pinned` + 2%.
fn bound(pinned: usize) -> usize {
    pinned + pinned / 50
}

/// Heap counts are process-wide, so the tests measure one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A dominant genome and a rare one (1%) at ~80× overall, like the
/// benchmark's `skewed2`: many reads align to few contigs, so the alignment
/// sets outweigh the k-mer tables.
fn skewed() -> (ReadLibrary, Vec<u8>) {
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 2,
        genome_len_range: (6_000, 6_000),
        abundance_sigma: 1e-6,
        strain_variants: 0,
        rrna_len: 0,
        repeats_per_genome: 0,
        repeat_len: 0,
        rare_taxon_abundance: Some(0.01),
        seed: 23,
        ..Default::default()
    });
    let library = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            error_rate: 0.01,
            num_pairs: 2_500,
            seed: 24,
            ..Default::default()
        },
    );
    (library, consensus)
}

/// Ten even taxa at ~15×, like the benchmark's `uniform10`: many distinct
/// k-mers at moderate depth and few reads per contig, so the k-mer tables
/// outweigh the alignment sets.
fn uniform() -> (ReadLibrary, Vec<u8>) {
    let (refs, consensus) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 10,
        genome_len_range: (3_000, 3_000),
        abundance_sigma: 1e-6,
        strain_variants: 0,
        rrna_len: 0,
        repeats_per_genome: 0,
        repeat_len: 0,
        seed: 25,
        ..Default::default()
    });
    let library = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            error_rate: 0.006,
            num_pairs: 2_250,
            seed: 26,
            ..Default::default()
        },
    );
    (library, consensus)
}

/// Assembles `community` on one rank in the default configuration and holds
/// its peak live heap to `pinned` + 2%.
fn check_peak(name: &str, community: fn() -> (ReadLibrary, Vec<u8>), pinned: usize) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (library, consensus) = community();
    let team = Team::single_node(1);
    // The count is the pipeline's own: the debug build's collective-trace
    // recording is off, so debug and release count alike.
    team.set_conformance_checking(false);
    let mhm = MetaHipMer::new(AssemblyConfig::default());
    let (out, peak) = peak_heap_of(|| mhm.assemble(&team, &library, Some(&consensus)));
    assert!(
        !out.scaffolds.is_empty(),
        "test setup: the {name} community assembles"
    );
    let bound = bound(pinned);
    println!(
        "{name}: peak live heap {peak} bytes ({} reads, {} scaffolds), bound {bound}",
        library.num_reads(),
        out.scaffolds.len()
    );
    assert!(
        peak <= bound,
        "the {name} assembly's peak live heap grew to {peak} bytes (bound {bound})"
    );
}

#[test]
fn one_rank_assembly_peak_heap_is_pinned() {
    check_peak("skewed", skewed, SKEWED_PEAK_HEAP_BYTES);
}

#[test]
fn one_rank_assembly_peak_heap_is_pinned_where_the_kmer_tables_dominate() {
    check_peak("uniform", uniform, UNIFORM_PEAK_HEAP_BYTES);
}

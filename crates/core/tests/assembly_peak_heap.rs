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

/// The peak heap bytes the assembly below adds, measured in this binary
/// (debug and release alike) once alignment kept one alignment set alive at a
/// time and seed hits took 8 bytes. Before that change, which held each
/// iteration's alignment set through the next alignment round, the figure
/// was 5,938,892. A property of [`community`] and the default configuration:
/// change either and it must be re-measured.
const PEAK_HEAP_BYTES: usize = 5_047_764;
/// 2% above [`PEAK_HEAP_BYTES`].
const BOUND: usize = PEAK_HEAP_BYTES + PEAK_HEAP_BYTES / 50;

/// A dominant genome and a rare one (1%) at ~80× overall, like the
/// benchmark's `skewed2`: many reads align to few contigs, so the alignment
/// sets outweigh the k-mer tables.
fn community() -> (ReadLibrary, Vec<u8>) {
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

#[test]
fn one_rank_assembly_peak_heap_is_pinned() {
    let (library, consensus) = community();
    let team = Team::single_node(1);
    // The count is the pipeline's own: the debug build's collective-trace
    // recording is off, so debug and release count alike.
    team.set_conformance_checking(false);
    let mhm = MetaHipMer::new(AssemblyConfig::default());
    let (out, peak) = peak_heap_of(|| mhm.assemble(&team, &library, Some(&consensus)));
    assert!(
        !out.scaffolds.is_empty(),
        "test setup: the community assembles"
    );
    println!(
        "peak live heap {peak} bytes ({} reads, {} scaffolds), bound {BOUND}",
        library.num_reads(),
        out.scaffolds.len()
    );
    assert!(
        peak <= BOUND,
        "the assembly's peak live heap grew to {peak} bytes (bound {BOUND})"
    );
}

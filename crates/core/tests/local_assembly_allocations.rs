//! Allocation guard for local assembly. Pools are written as one packed
//! buffer per contig straight from the read store's blocks, so the stage's
//! allocations grow with the contigs it extends, not with their pool reads;
//! this binary counts every allocation a 1-rank, store-backed local assembly
//! makes. It is a test binary of its own because a `#[global_allocator]` is
//! process-wide.

use aligner::{align_reads_ref, build_seed_index_ref, AlignParams};
use dbg::{ContigSet, ContigsRef};
use mhm_core::local_assembly::{extend_contigs_locally_ref, LocalAssemblyParams};
use pgas::Team;
use readstore::{ReadStore, ReadStoreParams, ReadsRef};
use seqio::{ReadId, ReadLibrary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting the allocations (and reallocations) of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations allowed per contig: the contig's pool buffer and its copy out
/// of the pool table, its extended sequence and what the gathered set makes
/// of it, and its share of a work-stealing block's batches (about 7.5 in
/// all, measured over 22–93 contigs).
const PER_CONTIG: u64 = 10;
/// Allocations allowed whatever the input: tables, batches and buffers that
/// grow to the largest pool (about 120, measured).
const CONSTANT: u64 = 300;

/// A simulated two-genome community at ~25× and contigs of 400 bases cut
/// from it every 500, so that most alignments end near a contig end and the
/// pools hold many reads per contig.
fn community() -> (ContigSet, ReadLibrary) {
    let (refs, _) = mgsim::generate_community(&mgsim::CommunityParams {
        num_taxa: 2,
        genome_len_range: (10_000, 12_000),
        seed: 17,
        ..Default::default()
    });
    let library = mgsim::simulate_reads(
        &refs,
        &mgsim::ReadSimParams {
            seed: 18,
            ..Default::default()
        }
        .with_target_coverage(&refs, 25.0),
    );
    let pieces = refs.genomes.iter().flat_map(|g| {
        g.seq
            .chunks(500)
            .filter(|piece| piece.len() == 500)
            .map(|piece| (piece[50..450].to_vec(), 10.0))
    });
    (ContigSet::from_sequences(21, pieces.collect()), library)
}

#[test]
fn local_assembly_allocates_per_contig_not_per_pool_read() {
    let (contigs, library) = community();
    let params = LocalAssemblyParams::default();
    // The count is the stage's own: the debug build's collective-trace
    // recording is off, so debug and release count alike.
    let team = Team::single_node(1);
    team.set_conformance_checking(false);
    team.run(|ctx| {
        let index = build_seed_index_ref(ctx, (&contigs).into(), 21);
        let reads = (0..library.num_reads()).map(|i| (i as ReadId, &library.reads[i]));
        let alignments = align_reads_ref(
            ctx,
            reads,
            (&contigs).into(),
            &index,
            &AlignParams::default(),
        );
        let source = ContigsRef::Local(&contigs);
        let (replicated, _) = extend_contigs_locally_ref(
            ctx,
            source,
            &alignments,
            ReadsRef::Local(&library),
            &params,
        );
        let store = ReadStore::build(ctx, &library, &ReadStoreParams::default());
        let ((stored, processed), allocations) = allocations_of(|| {
            extend_contigs_locally_ref(ctx, source, &alignments, ReadsRef::Store(&store), &params)
        });
        assert_eq!(stored, replicated);
        assert_eq!(processed, contigs.len());
        let bound = contigs.len() as u64 * PER_CONTIG + CONSTANT;
        // A 400-base contig's end windows of 150 bases take nearly every
        // alignment into a pool: an allocation per pool read would break the
        // bound.
        assert!(
            alignments.alignments.len() as u64 > 2 * bound,
            "set-up: {} alignments, bound {bound}",
            alignments.alignments.len()
        );
        println!(
            "{allocations} allocations for {} contigs and {} alignments",
            contigs.len(),
            alignments.alignments.len()
        );
        assert!(
            allocations <= bound,
            "{allocations} allocations for {} contigs (bound {bound})",
            contigs.len()
        );
    });
}

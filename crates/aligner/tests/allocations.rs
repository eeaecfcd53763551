//! Allocation guard for the alignment hot path. The aligner promises that a
//! block is a few flat passes over arrays that live across blocks, with
//! nothing allocated per read; this binary counts every allocation a 1-rank
//! alignment of a read-store stream against the contig store makes. It is a
//! test binary of its own because a `#[global_allocator]` is process-wide.

use aligner::{align_reads_ref, build_seed_index_ref, AlignParams};
use dbg::{ContigSet, ContigStore, ContigsRef};
use pgas::Team;
use readstore::{ReadStore, ReadStoreParams};
use seqio::alphabet::revcomp;
use seqio::{Read, ReadId, ReadLibrary};
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

const READS: usize = 4000;
/// The length `mgsim` simulates reads at.
const READ_LEN: usize = 100;

/// Reads drawn from both strands of a random genome, with a substitution and
/// an `N` now and then, and contigs cut from the genome.
fn community() -> (ContigSet, ReadLibrary) {
    let mut state = 0x0A11_0C47u64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let genome: Vec<u8> = (0..20_000).map(|_| b"ACGT"[next(4)]).collect();
    let contigs = ContigSet::from_sequences(
        21,
        genome.chunks(2_500).map(|c| (c.to_vec(), 10.0)).collect(),
    );
    let mut library = ReadLibrary::new_unpaired("allocations");
    for i in 0..READS {
        let at = next(genome.len() - READ_LEN);
        let mut seq = genome[at..at + READ_LEN].to_vec();
        if i % 3 == 0 {
            seq[next(READ_LEN)] = b"ACGT"[next(4)];
        }
        if i % 11 == 0 {
            seq[next(READ_LEN)] = b'N';
        }
        if i % 2 == 1 {
            seq = revcomp(&seq);
        }
        library.push_read(Read::with_uniform_quality(format!("r{i}"), &seq, 35));
    }
    (contigs, library)
}

/// The alignments of [`community`] at commit b7c4a00 (the parent of the
/// change that removed the replicated contig set, which was this test's
/// reference): 4,051 of them, each rendered by `Debug`. A property of the
/// dataset: change `community` and it must be re-derived, not edited.
const ALIGNMENTS_DIGEST: u64 = 0x7aad_eed7_7d30_0513;

/// FNV-1a over the sorted byte strings, each closed by a `0xFF` byte (the
/// rule of the benchmark runner's scaffold digest).
fn digest(items: &[Vec<u8>]) -> u64 {
    let mut sorted: Vec<&Vec<u8>> = items.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sorted {
        for &b in s.iter().chain(&[0xFFu8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn aligning_a_store_stream_allocates_less_than_once_per_eight_reads() {
    let (contigs, library) = community();
    let params = AlignParams::default();
    // The count is the aligner's own: the debug build's collective-trace
    // recording is off, so debug and release count alike.
    let team = Team::single_node(1);
    team.set_conformance_checking(false);
    team.run(|ctx| {
        let reads = ReadStore::build(ctx, &library, &ReadStoreParams::default());
        let store = ContigStore::build(ctx, &contigs, &Default::default());
        let source = ContigsRef::Store(&store);
        let index = build_seed_index_ref(ctx, source, params.seed_len);
        let ids: Vec<ReadId> = (0..READS as ReadId).collect();
        let (streamed, allocations) = allocations_of(|| {
            align_reads_ref(ctx, reads.stream(ctx, ids), source, &index, &params)
        });
        assert_eq!(
            streamed.alignments.len(),
            4051,
            "test setup: most reads align"
        );
        let rendered: Vec<Vec<u8>> = streamed
            .alignments
            .iter()
            .map(|a| format!("{a:?}").into_bytes())
            .collect();
        assert_eq!(
            digest(&rendered),
            ALIGNMENTS_DIGEST,
            "the alignments moved from the replicated baseline's"
        );
        println!("{allocations} allocations for {READS} reads");
        assert!(
            allocations < READS as u64 / 8,
            "{allocations} allocations for {READS} reads"
        );
    });
}

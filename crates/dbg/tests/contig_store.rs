//! Property tests for the distributed contig store: fetched contigs must
//! equal the replicated sequences for random batches of ids — including
//! unknown ids — at every rank count, and a team larger than the contig set
//! must leave the surplus ranks owning nothing yet reading everything.

use dbg::store::balanced_owners_from_lens;
use dbg::{ContigMeta, ContigSet, ContigStore, ContigStoreParams, PackedSeq};
use pgas::Team;

/// Deterministic xorshift sequence generator (avoids any RNG dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn random_set(seed: u64, contigs: usize) -> ContigSet {
    let mut rng = Rng(seed | 1);
    let seqs = (0..contigs)
        .map(|_| {
            let len = 20 + (rng.next() % 600) as usize;
            let seq: Vec<u8> = (0..len)
                .map(|_| {
                    // Occasional N so the exception path is exercised.
                    if rng.next().is_multiple_of(53) {
                        b'N'
                    } else {
                        b"ACGT"[(rng.next() % 4) as usize]
                    }
                })
                .collect();
            (seq, 1.0 + (rng.next() % 50) as f64)
        })
        .collect();
    ContigSet::from_sequences(21, seqs)
}

#[test]
fn fetched_contigs_equal_the_stored_ones_for_random_batches() {
    let set = random_set(20260729, 25);
    for ranks in [1usize, 2, 5, 8] {
        let set2 = set.clone();
        let team = Team::single_node(ranks);
        team.run(|ctx| {
            let store = ContigStore::build(
                ctx,
                &set2,
                &ContigStoreParams {
                    cache_bytes: 2048, // small: force evictions mid-test
                    ..Default::default()
                },
            );
            let mut reader = store.reader(ctx);
            // Different random batches on every rank.
            let mut rng = Rng(0x9E37 + ctx.rank() as u64 * 77 + ranks as u64);
            for round in 0..40 {
                // A batch of ids, some unknown; every rank keeps calling
                // the collective the same number of times.
                let ids: Vec<u64> = (0..8)
                    .map(|_| rng.next() % (set2.len() as u64 + 4))
                    .collect();
                let fetched = if round % 2 == 0 {
                    reader.get_many(ctx, &ids)
                } else {
                    reader.get_many_onesided(ctx, &ids)
                };
                for (id, packed) in ids.iter().zip(fetched) {
                    match set2.get(*id) {
                        None => assert!(packed.is_none(), "unknown id {id} yielded bytes"),
                        Some(contig) => {
                            let packed = packed.expect("known id");
                            assert_eq!(packed.len(), contig.seq.len());
                            assert_eq!(packed.unpack(), contig.seq, "id={id}");
                        }
                    }
                }
            }
            ctx.barrier();
        });
    }
}

#[test]
fn more_ranks_than_contigs_leaves_five_of_eight_ranks_empty_handed_but_reading() {
    let set = random_set(20261003, 3);
    let ranks = 8usize;
    // The greedy deal hands the three contigs to the three least-loaded
    // ranks — 0, 1, 2 — so exactly ranks 3..8 own nothing.
    let owners = balanced_owners_from_lens(set.contigs.iter().map(|c| c.len() as u32), ranks);
    assert_eq!(owners, vec![0, 1, 2]);
    let packed: Vec<PackedSeq> = set
        .contigs
        .iter()
        .map(|c| PackedSeq::from_bytes(&c.seq))
        .collect();
    let total: usize = packed.iter().map(|p| p.packed_bytes()).sum();
    let team = Team::single_node(ranks);
    team.run(|ctx| {
        ctx.stats().reset();
        let store = ContigStore::build(ctx, &set, &ContigStoreParams::default());
        let owned = store.owned_packed_bytes(ctx);
        match owners.iter().position(|&o| o as usize == ctx.rank()) {
            Some(id) => assert_eq!(owned, packed[id].packed_bytes()),
            None => assert_eq!(owned, 0, "rank {} owns nothing", ctx.rank()),
        }
        // Every rank reads all three contigs exactly, through both fills.
        let expect: Vec<Option<PackedSeq>> = packed.iter().cloned().map(Some).collect();
        let mut reader = store.reader(ctx);
        assert_eq!(reader.get_many(ctx, &[0, 1, 2]), expect);
        reader.clear_cache();
        assert_eq!(reader.get_many_onesided(ctx, &[0, 1, 2]), expect);
        // What a rank does not own it fetched once per fill and now caches;
        // on an empty-handed rank that is all there is.
        let stats = ctx.stats().snapshot();
        assert_eq!(stats.contig_fetch_bytes as usize, 2 * (total - owned));
        assert_eq!(reader.cache().resident_weight(), total - owned);
        assert_eq!(reader.resident_bytes(), total);
        assert_eq!(stats.contig_bytes_resident as usize, total);
        ctx.barrier();
    });
}

#[test]
fn store_metadata_matches_the_replicated_set() {
    let set = random_set(42, 15);
    let team = Team::single_node(3);
    let set2 = set.clone();
    team.run(|ctx| {
        let store = ContigStore::build(ctx, &set2, &ContigStoreParams::default());
        assert_eq!(store.k(), set2.k);
        assert_eq!(store.num_contigs(), set2.len());
        assert_eq!(store.total_bases(), set2.total_bases());
        for id in 0..set2.len() as u64 + 3 {
            let expect = set2.get(id).map(|c| ContigMeta {
                len: c.len() as u32,
                depth: c.depth,
            });
            assert_eq!(store.meta(id), expect, "id={id}");
        }
        // Packed size is close to a quarter of the raw bytes (plus the tiny
        // per-contig and per-N overheads).
        let owned_total = ctx.allreduce_sum_u64(store.owned_packed_bytes(ctx) as u64);
        let raw_total = set2.total_bases() as u64;
        assert!(owned_total < raw_total / 2, "{owned_total} vs {raw_total}");
        // The packed type itself round-trips.
        for c in &set2.contigs {
            assert_eq!(PackedSeq::from_bytes(&c.seq).unpack(), c.seq);
        }
    });
}

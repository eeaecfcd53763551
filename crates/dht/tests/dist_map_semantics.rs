//! Integration tests of the `DistMap` contract the pipeline relies on:
//! deterministic ownership, exactly-once insertion under full-team
//! concurrency, and on-node vs off-node traffic accounting.

use dht::{bulk_merge, DistMap};
use pgas::{Team, Topology};
use std::sync::Arc;

#[test]
fn owner_rank_is_deterministic_across_ranks_and_team_sizes() {
    // Every rank of one team must compute the same owner for every key…
    let team = Team::single_node(4);
    let owners_per_rank = team.run(|ctx| {
        let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
        (0..2_000u64).map(|k| map.owner_of(&k)).collect::<Vec<_>>()
    });
    for other in &owners_per_rank[1..] {
        assert_eq!(other, &owners_per_rank[0], "ranks disagree on ownership");
    }
    // …and a separately constructed map with the same rank count must agree
    // (ownership is a pure function of key and rank count, nothing else).
    let map_a: DistMap<u64, u64> = DistMap::new(4);
    let map_b: DistMap<u64, u64> = DistMap::new(4);
    for k in 0..2_000u64 {
        assert_eq!(map_a.owner_of(&k), map_b.owner_of(&k));
        assert_eq!(map_a.owner_of(&k), owners_per_rank[0][k as usize]);
    }
}

#[test]
fn concurrent_inserts_from_all_ranks_land_exactly_once() {
    let ranks = 8;
    let keys_per_rank = 500u64;
    let team = Team::single_node(ranks);
    team.run(|ctx| {
        let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
        // Disjoint key ranges: every key is sent by exactly one rank, all
        // ranks merge into the map in the same phase.
        let base = ctx.rank() as u64 * keys_per_rank;
        let mine = (base..base + keys_per_rank).map(|k| (k, k * 3));
        bulk_merge(ctx, &map, mine, 64, |_, _| panic!("a key was merged twice"));
        // Exactly-once: total entry count matches, and every key holds the
        // value its single writer stored.
        assert_eq!(map.len(), ranks * keys_per_rank as usize);
        for k in 0..(ranks as u64 * keys_per_rank) {
            assert_eq!(map.get_cloned(ctx, &k), Some(k * 3));
        }
        // Owner-local views partition the key space without overlap.
        let local = map.local_len(ctx);
        let total = ctx.allreduce_sum_u64(local as u64);
        assert_eq!(total, ranks as u64 * keys_per_rank);
    });
}

#[test]
fn bulk_merge_applies_every_observation_exactly_once() {
    let ranks = 4;
    let team = Team::single_node(ranks);
    team.run(|ctx| {
        let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
        // Each rank contributes 1 for each of 1000 keys through the
        // aggregated update-only phase (small batch size forces many
        // flushes, exercising the aggregator's partial-batch paths).
        bulk_merge(ctx, &map, (0..1000u64).map(|k| (k, 1u64)), 17, |a, b| {
            *a += b
        });
        for k in 0..1000u64 {
            assert_eq!(map.get_cloned(ctx, &k), Some(ranks as u64));
        }
    });
}

#[test]
fn on_node_and_off_node_traffic_is_accounted_in_comm_stats() {
    // 4 ranks grouped 2 per simulated node: rank pairs (0,1) and (2,3).
    let ranks = 4;
    let team = Team::new(Topology::new(ranks, 2));
    let keys: Vec<u64> = (0..400u64).collect();
    // Expected split, computed from the same deterministic ownership and
    // topology the map uses.
    let topo = team.topology();
    let probe: DistMap<u64, u64> = DistMap::new(ranks);
    let mut expected_local = vec![0u64; ranks];
    let mut expected_remote = vec![0u64; ranks];
    for rank in 0..ranks {
        for k in &keys {
            if topo.same_node(rank, probe.owner_of(k)) {
                expected_local[rank] += 1;
            } else {
                expected_remote[rank] += 1;
            }
        }
    }
    team.reset_stats();
    team.run(|ctx| {
        let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
        for k in &keys {
            assert_eq!(map.get_cloned(ctx, k), None);
        }
        ctx.barrier();
    });
    for rank in 0..ranks {
        let snap = team.stats(rank).snapshot();
        assert_eq!(
            snap.local_ops, expected_local[rank],
            "rank {rank} on-node ops"
        );
        assert_eq!(
            snap.remote_ops, expected_remote[rank],
            "rank {rank} off-node ops"
        );
    }
    // Sanity: with two nodes both classes of traffic must actually occur.
    let total = team.stats_total();
    assert!(total.local_ops > 0, "no on-node traffic recorded");
    assert!(total.remote_ops > 0, "no off-node traffic recorded");
    // A single-node team records no off-node traffic at all.
    let single = Team::single_node(ranks);
    single.run(|ctx| {
        let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
        for k in 0..100u64 {
            map.get_cloned(ctx, &k);
        }
    });
    assert_eq!(single.stats_total().remote_ops, 0);
    assert!(single.stats_total().local_ops > 0);

    // The aggregated phases additionally split *bytes* and *messages* by the
    // node boundary. Every rank ships each of 1,000 keys to its owner in
    // batches of 17; sent rank to rank, the off-node share would be the
    // batches for owners on the other node.
    let run_bulk = |topo: Topology| {
        let team = Team::new(topo);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..1000u64).map(|k| (k, 1u64)), 17, |a, b| {
                *a += b
            });
            for k in 0..1000u64 {
                assert_eq!(map.get_cloned(ctx, &k), Some(ranks as u64));
            }
        });
        team.stats_total()
    };
    let (mut all_msgs, mut flat_msgs, mut flat_bytes) = (0u64, 0u64, 0u64);
    for owner in 0..ranks {
        let items = (0..1000u64).filter(|k| probe.owner_of(k) == owner).count() as u64;
        for src in 0..ranks {
            all_msgs += items.div_ceil(17);
            if !topo.same_node(src, owner) {
                flat_msgs += items.div_ceil(17);
                flat_bytes += items * std::mem::size_of::<(u64, u64)>() as u64;
            }
        }
    }
    // The direct single-node path sends exactly that pattern.
    assert_eq!(run_bulk(Topology::single_node(ranks)).msgs_sent, all_msgs);
    let routed = run_bulk(topo);
    assert!(routed.on_node_bytes > 0 && routed.off_node_bytes > 0);
    assert_eq!(
        routed.on_node_bytes + routed.off_node_bytes,
        routed.bytes_sent
    );
    assert_eq!(routed.on_node_msgs + routed.off_node_msgs, routed.msgs_sent);
    // Node-leader routing moves the same payload across the interconnect in
    // fewer, larger messages; it never changes the off-node byte volume.
    assert_eq!(routed.off_node_bytes, flat_bytes);
    assert!(
        routed.off_node_msgs < flat_msgs,
        "expected fewer off-node messages: routed={} flat={flat_msgs}",
        routed.off_node_msgs
    );
}

#[test]
fn dist_map_results_are_invariant_on_non_uniform_topologies() {
    // Topologies where the last node is partial (ranks % ranks_per_node != 0)
    // must produce the same map contents as the single-node baseline.
    let ranks = 5;
    let reference = {
        let team = Team::single_node(ranks);
        team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..600u64).map(|k| (k, 1u64)), 13, |a, b| {
                *a += b
            });
            (0..600u64)
                .map(|k| map.get_cloned(ctx, &k))
                .collect::<Vec<_>>()
        })
    };
    for ranks_per_node in [2, 3] {
        let team = Team::new(Topology::new(ranks, ranks_per_node));
        let got = team.run(|ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(ctx, &map, (0..600u64).map(|k| (k, 1u64)), 13, |a, b| {
                *a += b
            });
            (0..600u64)
                .map(|k| map.get_cloned(ctx, &k))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            got, reference,
            "topology ({ranks}, {ranks_per_node}) changed the map contents"
        );
        let s = team.stats_total();
        assert_eq!(s.on_node_bytes + s.off_node_bytes, s.bytes_sent);
        assert_eq!(s.on_node_msgs + s.off_node_msgs, s.msgs_sent);
    }
}

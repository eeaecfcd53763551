//! Property test of the aggregated request–response read path: over
//! randomised key sets, team widths (1–8 ranks) and batch sizes, a single
//! collective [`DistMap::get_many`] must return exactly what a loop of
//! fine-grained [`DistMap::get_cloned`] calls returns — including absent keys
//! and duplicate requests — and [`DistMap::get_many_onesided`] must agree
//! with it.

use dht::{bulk_merge, DistMap};
use pgas::Team;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[test]
fn batched_reads_match_fine_grained_reads_on_randomised_workloads() {
    let mut rng = StdRng::seed_from_u64(20260728);
    for trial in 0..10 {
        let ranks = rng.gen_range(1..=8usize);
        let universe = rng.gen_range(1..=400u64);
        let present = rng.gen_range(0..=universe);
        let queries_per_rank = rng.gen_range(0..300usize);
        let batch = *[1usize, 2, 7, 33, 4096]
            .get(rng.gen_range(0..5usize))
            .unwrap();
        // Per-rank query lists drawn beyond the populated range so absent keys
        // are queried, with plenty of duplicates (universe is small).
        let query_lists: Vec<Vec<u64>> = (0..ranks)
            .map(|_| {
                (0..queries_per_rank)
                    .map(|_| rng.gen_range(0..universe.saturating_mul(2).max(1)))
                    .collect()
            })
            .collect();
        let team = Team::single_node(ranks);
        let query_lists = &query_lists;
        team.run(move |ctx| {
            let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
            bulk_merge(
                ctx,
                &map,
                (0..present).map(|k| (k, k.wrapping_mul(31) + 1)),
                64,
                |a, b| *a += b,
            );
            let queries = &query_lists[ctx.rank()];
            let expect: Vec<Option<u64>> = queries.iter().map(|k| map.get_cloned(ctx, k)).collect();

            let got = map.get_many(ctx, queries, batch);
            assert_eq!(
                got, expect,
                "get_many mismatch: trial={trial} ranks={ranks} batch={batch}"
            );

            let onesided = map.get_many_onesided(ctx, queries);
            assert_eq!(
                onesided, expect,
                "get_many_onesided mismatch: trial={trial} ranks={ranks}"
            );
        });
    }
}

//! Pins the traffic every transport face produces: messages, bytes (on- and
//! off-node), RPC response bytes and round trips, barriers and the number of
//! collective ops each rank records, for fixed inputs on every kind of
//! topology the exchange layer distinguishes: one rank, one node (direct
//! sends) and several nodes (node-leader routing, marked `hier`), uniform and
//! with a partial last node. The expected table (`transport_pin.expected`)
//! was produced by the five hand-written transport paths before they became
//! one lane; the lane must carry exactly the same traffic.

use pgas::{Aggregator, BlobAggregator, Ctx, RpcAggregator, Team, Topology};

/// The fixed input of one face on one rank: runs the collective and returns
/// how many items (or bytes, for blobs) arrived.
type Face = fn(&Ctx) -> usize;

fn exchange(ctx: &Ctx) -> usize {
    let (r, n) = (ctx.rank(), ctx.ranks());
    // Batch sizes 0..=3 by (sender, destination), so some batches are empty.
    let outgoing: Vec<Vec<u64>> = (0..n)
        .map(|d| {
            (0..(2 * r + d) % 4)
                .map(|i| (100 * r + 10 * d + i) as u64)
                .collect()
        })
        .collect();
    ctx.exchange(outgoing).len()
}

fn gather(ctx: &Ctx) -> usize {
    let mine: Vec<u32> = (0..=ctx.rank() as u32).collect();
    ctx.gather(mine).len()
}

fn aggregator(ctx: &Ctx) -> usize {
    let (r, n) = (ctx.rank(), ctx.ranks());
    let mut agg: Aggregator<(u32, u64)> = Aggregator::new(ctx, 3);
    for i in 0..20 {
        agg.push((3 * i + r) % n, (r as u32, i as u64));
    }
    agg.finish().len()
}

/// `[dest, rank, len, 0xAB…]` records of 3–7 bytes, round-robin destinations.
fn record(ctx: &Ctx, i: usize) -> (usize, Vec<u8>) {
    let dest = (i + ctx.rank()) % ctx.ranks();
    let len = 3 + (i % 5);
    let mut rec = vec![dest as u8, ctx.rank() as u8, len as u8];
    rec.resize(len, 0xAB);
    (dest, rec)
}

fn blob_push_record(ctx: &Ctx) -> usize {
    let mut agg = BlobAggregator::new(ctx, 16);
    for i in 0..30 {
        let (dest, rec) = record(ctx, i);
        agg.push_record(dest, &rec);
    }
    agg.finish().iter().map(Vec::len).sum()
}

fn blob_push_with(ctx: &Ctx) -> usize {
    let mut agg = BlobAggregator::new(ctx, 12);
    for i in 0..25 {
        let (dest, rec) = record(ctx, 2 * i + 1);
        let wrote = agg.push_with(dest, |buf| {
            buf.extend_from_slice(&rec);
            rec.len()
        });
        assert_eq!(wrote, rec.len());
    }
    agg.finish().iter().map(Vec::len).sum()
}

fn rpc(ctx: &Ctx) -> usize {
    let (r, n) = (ctx.rank(), ctx.ranks());
    let mut rpc: RpcAggregator<u64, u32> = RpcAggregator::new(ctx, 3);
    let pushed = 10 + r;
    for i in 0..pushed {
        rpc.push((7 * i + r) % n, i as u64);
    }
    let resps = rpc.finish(|req| req as u32 + 1);
    assert_eq!(resps.len(), pushed);
    resps.len()
}

fn exchange_map(ctx: &Ctx) -> usize {
    let (r, n) = (ctx.rank(), ctx.ranks());
    let reqs = (0..3 * r).map(|i| ((i + 1) % n, i as u16));
    ctx.exchange_map(reqs, 4, |q: u16| u64::from(q) * 3).len()
}

const FACES: &[(&str, Face)] = &[
    ("exchange", exchange),
    ("gather", gather),
    ("aggregator", aggregator),
    ("blob_push_record", blob_push_record),
    ("blob_push_with", blob_push_with),
    ("rpc", rpc),
    ("exchange_map", exchange_map),
];

/// `(ranks, ranks per node)`.
const TEAMS: &[(usize, usize)] = &[(1, 1), (2, 2), (4, 4), (4, 2), (5, 5), (5, 2)];

/// One line per (face, team, rank) with every pinned counter.
fn measure() -> String {
    let mut out = String::new();
    for &(face, body) in FACES {
        for &(ranks, per_node) in TEAMS {
            let team = Team::new(Topology::new(ranks, per_node));
            let routed = team.topology().nodes() > 1;
            let received = team.run(body);
            for (rank, recv) in received.into_iter().enumerate() {
                let s = team.stats(rank).snapshot();
                out += &format!(
                    "{face} {ranks}/{per_node}{} r{rank}: msgs={} bytes={} on={}/{} off={}/{} \
                     rpc_resp={} rtt={} barriers={} ops={} recv={recv}\n",
                    if routed { " hier" } else { "" },
                    s.msgs_sent,
                    s.bytes_sent,
                    s.on_node_msgs,
                    s.on_node_bytes,
                    s.off_node_msgs,
                    s.off_node_bytes,
                    s.rpc_resp_bytes,
                    s.rpc_round_trips,
                    team.barriers_entered(rank),
                    team.conformance_stamp(rank).0,
                );
            }
        }
    }
    out
}

#[test]
fn every_face_moves_the_pinned_traffic() {
    let got = measure();
    let want = include_str!("transport_pin.expected");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "transport traffic moved; full table now:\n{got}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "full table now:\n{got}"
    );
}

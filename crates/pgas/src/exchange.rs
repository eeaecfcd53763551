//! The aggregated transport: one routed lane and the five faces built on it.
//!
//! The dominant communication pattern in MetaHipMer is "every rank produces
//! items destined for owner ranks determined by a hash, buffers them, and
//! ships them in large aggregated messages" (use case 1 of §II-A), and the
//! paper aggregates *lookups* the same way (use case 3): requests are buffered
//! per owner, shipped in large messages, answered from the owner's shard, and
//! the responses travel back in a second aggregated all-to-all.
//!
//! Every byte of that traffic ships through one private `Lane<T>`: a leased
//! mailbox array plus, on a multi-node topology, a node-leader router.
//! `Lane::send` is the only place that picks the routed or the direct path and
//! the only place that accounts a message; `Lane::collect` delivers the routed
//! batches, waits at a barrier and drains the calling rank's inbox. The five
//! faces differ only in how they buffer and what a batch is worth in bytes:
//!
//! | face | buffering | accounted bytes per batch | trailing barrier |
//! |------|-----------|---------------------------|------------------|
//! | [`Ctx::exchange`] (and [`Ctx::gather`]) | one caller-built batch per rank | `len * size_of::<T>()` | yes |
//! | [`Aggregator`] | per destination, `batch` items | `len * size_of::<T>()` | yes |
//! | [`BlobAggregator`] | per destination, `batch_bytes` bytes | the blob's length | yes |
//! | [`RpcAggregator`] requests | per owner, `batch` requests | `len * size_of` of the envelope | no |
//! | [`RpcAggregator`] replies | one batch per requester | the same, also into `rpc_resp_bytes` | no |
//!
//! [`Ctx::exchange_map`] is a request–response round trip through
//! [`RpcAggregator`]; every completed round trip bumps
//! `CommStats::rpc_round_trips`.
//!
//! # Two-level (node-leader) routing
//!
//! On a multi-node topology the paper's machines pay very different costs for
//! on-node and off-node transfers, and HipMer-style aggregation therefore
//! routes hierarchically: instead of every rank sending one message per
//! remote *rank*, the ranks of a node combine their traffic so that only one
//! message per remote *node* crosses the interconnect. The topology is the
//! only input: on a team of more than one node every lane routes its off-node
//! batches through a node-leader router (`NodeRouter`), and on a single node
//! every batch is deposited directly:
//!
//! 1. **gather** — a rank's flushed batch for an off-node destination is
//!    deposited at its own node leader (accounted as an on-node message,
//!    unless the rank *is* the leader);
//! 2. **ship** — after a barrier, each leader combines everything addressed
//!    to the same destination node and sends it as **one** off-node message
//!    per destination node (the payload bytes are unchanged — exactly the
//!    sum of the gathered batches);
//! 3. **scatter** — after a second barrier, the receiving leader deposits
//!    each packet into the final owner's ordinary inbox (an on-node message,
//!    unless the owner is the leader itself).
//!
//! On-node destinations bypass the router entirely and use the direct
//! deposit. Each payload crosses the interconnect exactly once, so the
//! off-node *bytes* are those of a rank-to-rank send of the same batches; the
//! win is the off-node *message* count, which drops by up to a factor of
//! `ranks_per_node` per direction. The extra gather/scatter legs appear,
//! correctly, as additional on-node traffic.

use crate::conformance::OpKind;
use crate::stats::Counter;
use crate::team::{Ctx, SlotLease};
use parking_lot::Mutex;
use std::mem::size_of_val;
use std::panic::Location;

/// One inbox per rank: the shared mailbox array behind a lane.
struct AllToAll<T: Send> {
    inboxes: Vec<Mutex<Vec<T>>>,
}

impl<T: Send> AllToAll<T> {
    fn new(ranks: usize) -> Self {
        AllToAll {
            inboxes: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Appends `items` to `dest`'s inbox; the first batch into an empty inbox
    /// becomes the inbox, uncopied. No accounting: the caller records the
    /// message (or, for the router, each of its legs).
    fn deposit(&self, dest: usize, mut items: Vec<T>) {
        mhm_sched::yield_point("pgas::mailbox::deposit");
        let mut inbox = self.inboxes[dest].lock();
        if inbox.is_empty() {
            *inbox = items;
        } else {
            inbox.append(&mut items);
        }
    }

    /// Drains the calling rank's inbox. Call only after a barrier that
    /// guarantees every sender has deposited.
    fn take_inbox(&self, ctx: &Ctx) -> Vec<T> {
        mhm_sched::yield_point("pgas::mailbox::drain");
        std::mem::take(&mut *self.inboxes[ctx.rank()].lock())
    }
}

/// One rank's flushed batch for a single final destination rank, travelling
/// through the two-level (node-leader) exchange.
struct NodePacket<T> {
    /// Final owner rank.
    dest: u32,
    /// Accounted payload bytes of `items`, exactly what a direct send of the
    /// same batch records.
    bytes: usize,
    items: Vec<T>,
}

/// The two-level router of a lane on a multi-node topology:
/// gather at the source node's leader, ship one combined message per
/// destination node, scatter on-node to the final owners. See the module docs
/// for the protocol.
struct NodeRouter<T: Send + Sync + 'static> {
    gather: SlotLease<AllToAll<NodePacket<T>>>,
    ship: SlotLease<AllToAll<NodePacket<T>>>,
}

impl<T: Send + Sync + 'static> NodeRouter<T> {
    fn new(ctx: &Ctx) -> Self {
        NodeRouter {
            gather: ctx.mailboxes(),
            ship: ctx.mailboxes(),
        }
    }

    /// Routes one batch for the **off-node** rank `dest`: the packet is
    /// deposited at this node's leader, as an on-node message unless this
    /// rank *is* the leader.
    fn send_remote(&self, ctx: &Ctx, dest: usize, items: Vec<T>, bytes: usize) {
        let leader = ctx.topology().leader_of(ctx.rank());
        if leader != ctx.rank() {
            ctx.record_message(leader, bytes);
        }
        let dest = dest as u32;
        self.gather
            .deposit(leader, vec![NodePacket { dest, bytes, items }]);
    }

    /// Collective: completes the gather → ship → scatter protocol, leaving
    /// every routed batch in the final owner's inbox of `direct`. The lane's
    /// pre-drain barrier that follows is the publication point for the
    /// scattered items.
    #[track_caller]
    fn deliver(self, ctx: &Ctx, direct: &AllToAll<T>) {
        let topo = ctx.topology();
        // Every rank's `send_remote` deposits are visible after this barrier.
        ctx.barrier();
        if topo.is_leader(ctx.rank()) {
            // Ship: one combined off-node message per destination node.
            let mut per_node: Vec<Vec<NodePacket<T>>> =
                (0..topo.nodes()).map(|_| Vec::new()).collect();
            for packet in self.gather.take_inbox(ctx) {
                per_node[topo.node_of(packet.dest as usize)].push(packet);
            }
            for (node, packets) in per_node.into_iter().enumerate() {
                if packets.is_empty() {
                    continue;
                }
                let bytes: usize = packets.iter().map(|p| p.bytes).sum();
                let dest_leader = topo.leader_of_node(node);
                ctx.record_message(dest_leader, bytes);
                self.ship.deposit(dest_leader, packets);
            }
        }
        // Every leader's ship deposits are visible after this barrier.
        ctx.barrier();
        if topo.is_leader(ctx.rank()) {
            // Scatter: hand each packet to its final owner on-node.
            for packet in self.ship.take_inbox(ctx) {
                let dest = packet.dest as usize;
                if dest != ctx.rank() {
                    ctx.record_message(dest, packet.bytes);
                }
                direct.deposit(dest, packet.items);
            }
        }
    }
}

/// The one transport path: a leased mailbox array and, on a multi-node
/// topology, the node-leader router in front of it.
///
/// # Mailbox reuse
///
/// The mailbox arrays are [leased](SlotLease) from per-team pools, so
/// repeated phases do not pay for a fresh shared allocation plus a
/// serialising `share` round each time; lanes of the same item type that are
/// live at the same time lease *distinct* pooled instances (lease indices),
/// so they cannot alias. The invariant that makes reuse across phases sound:
/// **between an inbox drain and any later phase's first deposit into the same
/// mailbox there is always a barrier every rank participates in.**
///
/// [`Ctx::exchange`], [`Aggregator::finish`] and [`BlobAggregator::finish`]
/// keep it with a trailing barrier after [`Lane::collect`]: without it a fast
/// rank could start the next phase and deposit into an inbox its owner has
/// not yet drained, and the owner's late drain would swallow those items.
/// [`RpcAggregator::finish`] needs none: its request drain happens before the
/// reply leg's pre-drain barrier, which no rank passes until every rank has
/// drained its requests; and its replies are only ever sent between a
/// phase's first and last barrier, so no next-phase reply can reach an inbox
/// whose drain is still pending. The router's two barriers fit the same
/// protocol: the gather inbox is drained by leaders strictly between them, and
/// the ship inbox strictly between the second and the lane's pre-drain
/// barrier.
struct Lane<T: Send + Sync + 'static> {
    mailbox: SlotLease<AllToAll<T>>,
    router: Option<NodeRouter<T>>,
}

impl<T: Send + Sync + 'static> Lane<T> {
    fn new(ctx: &Ctx) -> Self {
        // Single-node teams never route: every destination is on-node, and
        // the router's extra barriers would buy nothing.
        Lane {
            mailbox: ctx.mailboxes(),
            router: (ctx.topology().nodes() > 1).then(|| NodeRouter::new(ctx)),
        }
    }

    /// Ships one batch to `dest`, accounted as one message of `bytes` payload
    /// bytes (per leg, when routed). An empty batch sends nothing.
    fn send(&self, ctx: &Ctx, dest: usize, items: Vec<T>, bytes: usize) {
        if items.is_empty() {
            return;
        }
        match &self.router {
            Some(router) if !ctx.topology().same_node(ctx.rank(), dest) => {
                router.send_remote(ctx, dest, items, bytes);
            }
            _ => {
                ctx.record_message(dest, bytes);
                self.mailbox.deposit(dest, items);
            }
        }
    }

    /// Collective: delivers the routed batches, waits until every rank has
    /// sent, and returns everything destined for the calling rank (in
    /// unspecified order across senders).
    #[track_caller]
    fn collect(&mut self, ctx: &Ctx) -> Vec<T> {
        if let Some(router) = self.router.take() {
            router.deliver(ctx, &self.mailbox);
        }
        ctx.barrier();
        self.mailbox.take_inbox(ctx)
    }
}

/// The aggregators' leak check: a face dropped without `finish()` returns its
/// mailbox leases to the pool with deposits in flight, and the next phase
/// that reuses them would receive those deposits. Under conformance checking
/// the drop panics, naming the face and where it was created.
struct FinishCheck {
    face: &'static str,
    created: &'static Location<'static>,
    armed: bool,
}

impl FinishCheck {
    #[track_caller]
    fn new(ctx: &Ctx, face: &'static str) -> Self {
        FinishCheck {
            face,
            created: Location::caller(),
            armed: ctx.team().conformance_checking(),
        }
    }

    fn finished(&mut self) {
        self.armed = false;
    }
}

impl Drop for FinishCheck {
    fn drop(&mut self) {
        if self.armed && !std::thread::panicking() {
            panic!(
                "{} created @ {} dropped without finish(): its mailbox leases return to the \
                 pool with deposits in flight, corrupting the next phase that reuses them",
                self.face, self.created
            );
        }
    }
}

impl<'t> Ctx<'t> {
    /// Leases the team's reusable mailbox array for item type `T` (see
    /// [`Lane`] for the reuse protocol).
    fn mailboxes<T: Send + Sync + 'static>(&self) -> SlotLease<AllToAll<T>> {
        let ranks = self.ranks();
        self.team()
            .reusable_slot(self.rank(), || AllToAll::<T>::new(ranks))
    }

    /// Collective all-to-all exchange: `outgoing[d]` is the batch destined for
    /// rank `d`; the return value is everything other ranks destined for this
    /// rank. Must be called by every rank.
    #[track_caller]
    pub fn exchange<T>(&self, outgoing: Vec<Vec<T>>) -> Vec<T>
    where
        T: Send + Sync + 'static,
    {
        assert_eq!(
            outgoing.len(),
            self.ranks(),
            "exchange requires one outgoing batch per rank"
        );
        self.record_collective(
            OpKind::Exchange,
            Location::caller(),
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
        );
        let mut lane = Lane::new(self);
        for (dest, batch) in outgoing.into_iter().enumerate() {
            let bytes = size_of_val(batch.as_slice());
            lane.send(self, dest, batch, bytes);
        }
        let mine = lane.collect(self);
        // Required for mailbox reuse; see `Lane`.
        self.barrier();
        mine
    }

    /// Collective gather onto rank 0: rank 0 receives every rank's `mine`
    /// (its own included), concatenated in unspecified order; every other
    /// rank receives an empty `Vec`. It is [`Ctx::exchange`] with only the
    /// batch for rank 0 filled — the same messages, bytes and barriers. The
    /// usual shape is "gather, build on rank 0, broadcast":
    /// `let all = ctx.gather(local); ctx.broadcast(|| build(all))`, since
    /// [`Ctx::broadcast`] runs its closure on rank 0 only.
    #[track_caller]
    pub fn gather<T>(&self, mine: Vec<T>) -> Vec<T>
    where
        T: Send + Sync + 'static,
    {
        let mut outgoing = vec![mine];
        outgoing.resize_with(self.ranks(), Vec::new);
        self.exchange(outgoing)
    }

    /// Collective batched request–response exchange: routes every
    /// `(owner, request)` to its owner rank in aggregated messages of at most
    /// `batch` requests, applies `handler` on the owning rank, and returns the
    /// responses in request order. Convenience wrapper over
    /// [`RpcAggregator`]; must be called by every rank (an empty request list
    /// is fine).
    #[track_caller]
    pub fn exchange_map<Req, Resp, F>(
        &self,
        requests: impl IntoIterator<Item = (usize, Req)>,
        batch: usize,
        handler: F,
    ) -> Vec<Resp>
    where
        Req: Send + Sync + 'static,
        Resp: Send + Sync + 'static,
        F: FnMut(Req) -> Resp,
    {
        let mut rpc: RpcAggregator<Req, Resp> = RpcAggregator::new(self, batch);
        for (dest, req) in requests {
            rpc.push(dest, req);
        }
        rpc.finish(handler)
    }
}

/// A per-rank aggregating sender: the software analogue of UPC's dynamically
/// aggregated fine-grained stores.
///
/// Construct with [`Aggregator::new`] (cheap; the underlying mailboxes are a
/// reused per-team slot), push items with [`Aggregator::push`] (buffers flush
/// automatically when they reach the configured batch size), and terminate
/// the phase with [`Aggregator::finish`], which flushes the remainder,
/// synchronises, and returns everything destined for the calling rank. All
/// ranks must construct and finish the aggregator in the same phase.
pub struct Aggregator<'c, 't, T: Send + Sync + 'static> {
    ctx: &'c Ctx<'t>,
    lane: Lane<T>,
    bufs: Vec<Vec<T>>,
    batch: usize,
    check: FinishCheck,
}

impl<'c, 't, T: Send + Sync + 'static> Aggregator<'c, 't, T> {
    /// Creates an aggregator with the given per-destination batch size (the
    /// number of items accumulated before a flush).
    #[track_caller]
    pub fn new(ctx: &'c Ctx<'t>, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Aggregator {
            ctx,
            lane: Lane::new(ctx),
            bufs: (0..ctx.ranks())
                .map(|_| Vec::with_capacity(batch))
                .collect(),
            batch,
            check: FinishCheck::new(ctx, "Aggregator"),
        }
    }

    /// Buffers one item for `dest`, flushing that destination's buffer if it
    /// reached the batch size.
    pub fn push(&mut self, dest: usize, item: T) {
        self.bufs[dest].push(item);
        if self.bufs[dest].len() >= self.batch {
            let full = std::mem::replace(&mut self.bufs[dest], Vec::with_capacity(self.batch));
            let bytes = size_of_val(full.as_slice());
            self.lane.send(self.ctx, dest, full, bytes);
        }
    }

    /// Flushes, synchronises all ranks, and returns the items destined for the
    /// calling rank. Collective.
    #[track_caller]
    pub fn finish(mut self) -> Vec<T> {
        self.check.finished();
        self.ctx.record_collective(
            OpKind::AggFinish,
            Location::caller(),
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
        );
        for (dest, buf) in self.bufs.iter_mut().enumerate() {
            let rest = std::mem::take(buf);
            let bytes = size_of_val(rest.as_slice());
            self.lane.send(self.ctx, dest, rest, bytes);
        }
        let mine = self.lane.collect(self.ctx);
        // Required for mailbox reuse; see `Lane`.
        self.ctx.barrier();
        mine
    }
}

/// A per-rank aggregating sender for **variable-length byte records**: the
/// counterpart of [`Aggregator`] for phases that serialise their items into
/// packed wire records (supermer-routed k-mer analysis) instead of shipping
/// fixed-size structs. Records are appended to a per-destination byte buffer;
/// a buffer is flushed as one aggregated message when it reaches
/// `batch_bytes`, and the flush accounts the *actual* payload bytes.
///
/// Construct with [`BlobAggregator::new`], append records with
/// [`BlobAggregator::push_record`] or serialise in place with
/// [`BlobAggregator::push_with`], and terminate the phase with
/// [`BlobAggregator::finish`], which returns every blob destined for the
/// calling rank (each blob holds only whole records, in sender order;
/// blob arrival order across senders is unspecified). Collective: all ranks
/// must construct and finish the aggregator in the same phase.
pub struct BlobAggregator<'c, 't> {
    ctx: &'c Ctx<'t>,
    lane: Lane<Vec<u8>>,
    bufs: Vec<Vec<u8>>,
    batch_bytes: usize,
    check: FinishCheck,
}

impl<'c, 't> BlobAggregator<'c, 't> {
    /// Creates an aggregator flushing each destination's buffer once it holds
    /// at least `batch_bytes` bytes.
    #[track_caller]
    pub fn new(ctx: &'c Ctx<'t>, batch_bytes: usize) -> Self {
        assert!(batch_bytes > 0, "batch size must be positive");
        BlobAggregator {
            ctx,
            lane: Lane::new(ctx),
            bufs: (0..ctx.ranks()).map(|_| Vec::new()).collect(),
            batch_bytes,
            check: FinishCheck::new(ctx, "BlobAggregator"),
        }
    }

    /// Ships `dest`'s buffer as one blob of exactly its length in bytes.
    fn flush(&mut self, dest: usize) {
        let blob = std::mem::take(&mut self.bufs[dest]);
        if !blob.is_empty() {
            let bytes = blob.len();
            self.lane.send(self.ctx, dest, vec![blob], bytes);
        }
    }

    /// Appends one whole record to `dest`'s buffer.
    pub fn push_record(&mut self, dest: usize, record: &[u8]) {
        self.bufs[dest].extend_from_slice(record);
        if self.bufs[dest].len() >= self.batch_bytes {
            self.flush(dest);
        }
    }

    /// Serialises one record directly into `dest`'s buffer (saving the copy
    /// of [`BlobAggregator::push_record`]); `write` must append only whole
    /// records and returns its byte count, which is passed through.
    pub fn push_with(&mut self, dest: usize, write: impl FnOnce(&mut Vec<u8>) -> usize) -> usize {
        let written = write(&mut self.bufs[dest]);
        if self.bufs[dest].len() >= self.batch_bytes {
            self.flush(dest);
        }
        written
    }

    /// Flushes the remaining buffers, synchronises, and returns the blobs
    /// destined for the calling rank. Collective.
    #[track_caller]
    pub fn finish(mut self) -> Vec<Vec<u8>> {
        self.check.finished();
        self.ctx
            .record_collective(OpKind::BlobFinish, Location::caller(), "bytes", 1);
        for dest in 0..self.bufs.len() {
            self.flush(dest);
        }
        let mine = self.lane.collect(self.ctx);
        // Required for mailbox reuse; see `Lane`.
        self.ctx.barrier();
        mine
    }
}

/// Envelope carrying one request to its owner rank.
struct RpcRequest<Req> {
    origin: u32,
    seq: u32,
    req: Req,
}

/// Envelope carrying one response back to its requesting rank.
struct RpcReply<Resp> {
    seq: u32,
    resp: Resp,
}

/// The aggregated request–response primitive (use case 3 of §II-A): buffers
/// typed requests per owner rank, flushes them as aggregated messages, applies
/// an owner-side handler, and routes the responses back to the requesters in a
/// second aggregated all-to-all.
///
/// ```text
///   rank A ── [req,req,…] ──▶ owner ── handler ── [resp,resp,…] ──▶ rank A
/// ```
///
/// [`RpcAggregator::finish`] is the (only) collective point: every rank must
/// reach it, even with zero requests pushed. Responses come back in the exact
/// order the requests were pushed, so callers can zip them against their
/// request list. This is the software analogue of UPC code that batches
/// `upc_mem{get,put}`-style hash-table probes into large messages and receives
/// batched answers — the paper's aggregated-lookup optimisation that the
/// merAligner software cache and the read-localisation experiment build on.
pub struct RpcAggregator<'c, 't, Req, Resp>
where
    Req: Send + Sync + 'static,
    Resp: Send + Sync + 'static,
{
    ctx: &'c Ctx<'t>,
    requests: Lane<RpcRequest<Req>>,
    replies: Lane<RpcReply<Resp>>,
    bufs: Vec<Vec<RpcRequest<Req>>>,
    batch: usize,
    next_seq: u32,
    check: FinishCheck,
}

impl<'c, 't, Req, Resp> RpcAggregator<'c, 't, Req, Resp>
where
    Req: Send + Sync + 'static,
    Resp: Send + Sync + 'static,
{
    /// Creates an aggregator with the given per-destination request batch
    /// size. Cheap and barrier-free; the mailboxes are reused team slots.
    #[track_caller]
    pub fn new(ctx: &'c Ctx<'t>, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        RpcAggregator {
            ctx,
            requests: Lane::new(ctx),
            replies: Lane::new(ctx),
            bufs: (0..ctx.ranks()).map(|_| Vec::new()).collect(),
            batch,
            next_seq: 0,
            check: FinishCheck::new(ctx, "RpcAggregator"),
        }
    }

    /// Buffers one request for the owner rank `dest`, flushing that
    /// destination's buffer as an aggregated message when it reaches the
    /// batch size.
    pub fn push(&mut self, dest: usize, req: Req) {
        let envelope = RpcRequest {
            origin: self.ctx.rank() as u32,
            seq: self.next_seq,
            req,
        };
        self.next_seq = self
            .next_seq
            .checked_add(1)
            // lint: allow(unwrap): overflow here is a protocol-capacity bug, not recoverable
            .expect("more than u32::MAX requests in one RPC phase");
        self.bufs[dest].push(envelope);
        if self.bufs[dest].len() >= self.batch {
            let full = std::mem::take(&mut self.bufs[dest]);
            let bytes = size_of_val(full.as_slice());
            self.requests.send(self.ctx, dest, full, bytes);
        }
    }

    /// Completes the round trip: flushes the remaining request buffers,
    /// synchronises, answers the requests this rank owns with `handler`,
    /// ships the answers back in per-requester aggregated messages, and
    /// returns this rank's responses **in request push order**. Collective.
    #[track_caller]
    pub fn finish(self, mut handler: impl FnMut(Req) -> Resp) -> Vec<Resp> {
        self.finish_by_origin(|_, req| handler(req))
    }

    /// [`RpcAggregator::finish`] with a handler that is also told which rank
    /// sent each request (this rank itself for the requests it owns).
    /// Collective.
    #[track_caller]
    pub fn finish_by_origin(mut self, mut handler: impl FnMut(usize, Req) -> Resp) -> Vec<Resp> {
        let ctx = self.ctx;
        self.check.finished();
        ctx.record_collective(
            OpKind::RpcFinish,
            Location::caller(),
            std::any::type_name::<(Req, Resp)>(),
            std::mem::size_of::<Req>(),
        );
        for (dest, buf) in self.bufs.iter_mut().enumerate() {
            let rest = std::mem::take(buf);
            let bytes = size_of_val(rest.as_slice());
            self.requests.send(ctx, dest, rest, bytes);
        }
        // Owner side: answer every request received, grouped per requester so
        // each requester gets one aggregated response message.
        let mut replies: Vec<Vec<RpcReply<Resp>>> = (0..ctx.ranks()).map(|_| Vec::new()).collect();
        for RpcRequest { origin, seq, req } in self.requests.collect(ctx) {
            replies[origin as usize].push(RpcReply {
                seq,
                resp: handler(origin as usize, req),
            });
        }
        for (dest, batch) in replies.into_iter().enumerate() {
            // The owner produced the response payload whichever way it
            // travels, so `rpc_resp_bytes` does not depend on the topology.
            let bytes = size_of_val(batch.as_slice());
            ctx.record(Counter::rpc_resp_bytes, bytes as u64);
            self.replies.send(ctx, dest, batch, bytes);
        }
        let mut mine = self.replies.collect(ctx);
        mine.sort_unstable_by_key(|r| r.seq);
        debug_assert_eq!(mine.len(), self.next_seq as usize, "lost RPC responses");
        ctx.record(Counter::rpc_round_trips, 1);
        // No trailing barrier; see `Lane`.
        mine.into_iter().map(|r| r.resp).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;
    use crate::topology::Topology;

    #[test]
    fn exchange_routes_items_to_owners() {
        let team = Team::single_node(4);
        let received = team.run(|ctx| {
            let n = ctx.ranks();
            // Rank r sends value 100*r + d to destination d.
            let outgoing: Vec<Vec<usize>> = (0..n).map(|d| vec![100 * ctx.rank() + d]).collect();
            let mut got = ctx.exchange(outgoing);
            got.sort();
            got
        });
        for (d, got) in received.iter().enumerate() {
            let expect: Vec<usize> = (0..4).map(|r| 100 * r + d).collect();
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn exchange_empty_batches_ok() {
        let team = Team::single_node(3);
        let received = team.run(|ctx| ctx.exchange::<u64>(vec![vec![]; ctx.ranks()]));
        assert!(received.iter().all(|v| v.is_empty()));
        assert_eq!(team.stats_total().msgs_sent, 0);
    }

    #[test]
    fn gather_collects_every_rank_on_rank_zero_only() {
        let team = Team::new(Topology::new(5, 2));
        let received = team.run(|ctx| {
            let mut got = ctx.gather(vec![ctx.rank() as u32; ctx.rank() + 1]);
            got.sort_unstable();
            got
        });
        assert_eq!(received[0], [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4]);
        assert!(received[1..].iter().all(Vec::is_empty));
    }

    #[test]
    fn repeated_exchanges_reuse_the_mailboxes_without_leaking_items() {
        let team = Team::single_node(3);
        // The mailbox array must be the same allocation across consecutive
        // phases, while two leases held at once must get distinct instances.
        let slots = team.run(|ctx| {
            let first = {
                let lease = ctx.mailboxes::<u64>();
                &*lease as *const AllToAll<u64> as usize
            };
            let second = {
                let lease = ctx.mailboxes::<u64>();
                &*lease as *const AllToAll<u64> as usize
            };
            assert_eq!(first, second, "sequential phases must reuse the slot");
            let a = ctx.mailboxes::<u64>();
            let b = ctx.mailboxes::<u64>();
            assert_ne!(
                &*a as *const AllToAll<u64>, &*b as *const AllToAll<u64>,
                "concurrent same-typed leases must not alias"
            );
            first
        });
        assert!(slots.windows(2).all(|w| w[0] == w[1]));
        // …and every phase must receive exactly its own items.
        team.run(|ctx| {
            for phase in 0..10u64 {
                let outgoing: Vec<Vec<u64>> = (0..ctx.ranks())
                    .map(|d| vec![phase * 1000 + ctx.rank() as u64 * 10 + d as u64])
                    .collect();
                let got = ctx.exchange(outgoing);
                assert_eq!(got.len(), ctx.ranks(), "phase {phase} leaked items");
                assert!(got.iter().all(|v| v / 1000 == phase));
            }
        });
    }

    #[test]
    fn aggregator_delivers_everything_once() {
        let team = Team::single_node(4);
        let per_rank_items = 100usize;
        let received = team.run(|ctx| {
            let n = ctx.ranks();
            let mut agg: Aggregator<(usize, usize)> = Aggregator::new(ctx, 7);
            for i in 0..per_rank_items {
                let dest = i % n;
                agg.push(dest, (ctx.rank(), i));
            }
            let mut got = agg.finish();
            got.sort();
            got
        });
        let total: usize = received.iter().map(|v| v.len()).sum();
        assert_eq!(total, 4 * per_rank_items);
        // Every item lands at the destination its index selects.
        for (dest, items) in received.iter().enumerate() {
            assert!(items.iter().all(|&(_, i)| i % 4 == dest));
        }
    }

    #[test]
    fn concurrent_same_typed_aggregators_do_not_alias() {
        let team = Team::single_node(4);
        let received = team.run(|ctx| {
            let n = ctx.ranks();
            // Two aggregators of the same item type, live at the same time,
            // with batch sizes small enough that both auto-flush mid-phase.
            let mut evens: Aggregator<u64> = Aggregator::new(ctx, 3);
            let mut odds: Aggregator<u64> = Aggregator::new(ctx, 3);
            for i in 0..40u64 {
                evens.push((i as usize) % n, 2 * i);
                odds.push((i as usize) % n, 2 * i + 1);
            }
            let got_odds = odds.finish();
            let got_evens = evens.finish();
            (got_evens, got_odds)
        });
        let mut total = 0usize;
        for (evens, odds) in received {
            assert!(
                evens.iter().all(|v| v % 2 == 0),
                "odd item leaked: {evens:?}"
            );
            assert!(
                odds.iter().all(|v| v % 2 == 1),
                "even item leaked: {odds:?}"
            );
            total += evens.len() + odds.len();
        }
        assert_eq!(total, 4 * 80);
    }

    #[test]
    fn aggregation_reduces_message_count() {
        let items = 1000usize;
        let count_msgs = |batch: usize| {
            let team = Team::new(Topology::new(4, 1));
            team.run(|ctx| {
                let mut agg: Aggregator<u64> = Aggregator::new(ctx, batch);
                for i in 0..items {
                    agg.push(i % ctx.ranks(), i as u64);
                }
                let _ = agg.finish();
            });
            team.stats_total().msgs_sent
        };
        let fine = count_msgs(1);
        let coarse = count_msgs(128);
        assert!(
            coarse * 10 < fine,
            "aggregated messaging should send far fewer messages: fine={fine} coarse={coarse}"
        );
    }

    #[test]
    fn blob_aggregator_delivers_whole_records_and_counts_exact_bytes() {
        let team = Team::single_node(3);
        let received = team.run(|ctx| {
            let n = ctx.ranks();
            let mut agg = BlobAggregator::new(ctx, 16);
            // Rank r sends 30 records of varying length to round-robin
            // destinations; each record is [dest, r, len, 0xAB * (len-3)].
            for i in 0..30usize {
                let dest = i % n;
                let len = 3 + (i % 5);
                let mut rec = vec![dest as u8, ctx.rank() as u8, len as u8];
                rec.resize(len, 0xAB);
                agg.push_record(dest, &rec);
            }
            let blobs = agg.finish();
            // Reassemble records from each blob: all must be destined here,
            // whole, and well-formed.
            let mut count = 0usize;
            let mut bytes = 0usize;
            for blob in &blobs {
                let mut off = 0;
                while off < blob.len() {
                    assert_eq!(blob[off] as usize, ctx.rank(), "misrouted record");
                    let len = blob[off + 2] as usize;
                    assert!(blob[off + 3..off + len].iter().all(|&b| b == 0xAB));
                    off += len;
                    count += 1;
                }
                assert_eq!(off, blob.len(), "record split across blobs");
                bytes += blob.len();
            }
            (count, bytes)
        });
        let total: usize = received.iter().map(|&(c, _)| c).sum();
        assert_eq!(total, 3 * 30);
        // Byte accounting is exact: bytes_sent equals the payload received.
        let payload: usize = received.iter().map(|&(_, b)| b).sum();
        assert_eq!(team.stats_total().bytes_sent, payload as u64);
    }

    #[test]
    fn blob_aggregator_push_with_serialises_in_place() {
        let team = Team::single_node(2);
        team.run(|ctx| {
            let mut agg = BlobAggregator::new(ctx, 8);
            let wrote = agg.push_with(1 - ctx.rank(), |buf| {
                buf.extend_from_slice(&[1, 2, 3, 4]);
                4
            });
            assert_eq!(wrote, 4);
            let blobs = agg.finish();
            assert_eq!(blobs.concat(), vec![1, 2, 3, 4]);
        });
    }

    #[test]
    fn rpc_round_trip_answers_in_push_order() {
        let team = Team::single_node(4);
        let outputs = team.run(|ctx| {
            let n = ctx.ranks();
            let mut rpc: RpcAggregator<u64, u64> = RpcAggregator::new(ctx, 3);
            // Interleave destinations so responses arrive from many owners and
            // include duplicate requests.
            let reqs: Vec<(usize, u64)> = (0..50u64)
                .map(|i| ((i as usize * 7 + ctx.rank()) % n, i % 10))
                .collect();
            for &(dest, req) in &reqs {
                rpc.push(dest, req);
            }
            // Owner answers with `1000 * owner_rank + req`.
            let rank = ctx.rank() as u64;
            let resps = rpc.finish(|req| 1000 * rank + req);
            (reqs, resps)
        });
        for (reqs, resps) in outputs {
            assert_eq!(reqs.len(), resps.len());
            for ((dest, req), resp) in reqs.into_iter().zip(resps) {
                assert_eq!(resp, 1000 * dest as u64 + req);
            }
        }
    }

    #[test]
    fn rpc_with_no_requests_on_some_ranks_completes() {
        let team = Team::single_node(3);
        let outputs = team.run(|ctx| {
            let reqs: Vec<(usize, u32)> = if ctx.rank() == 1 {
                vec![(0, 5), (2, 6), (1, 7)]
            } else {
                Vec::new()
            };
            ctx.exchange_map(reqs, 8, |r: u32| r * 2)
        });
        assert!(outputs[0].is_empty());
        assert_eq!(outputs[1], vec![10, 12, 14]);
        assert!(outputs[2].is_empty());
        // Every rank completed one round trip; the responses were accounted.
        let total = team.stats_total();
        assert_eq!(total.rpc_round_trips, 3);
        assert!(total.rpc_resp_bytes > 0);
    }

    #[test]
    fn rpc_aggregation_reduces_message_count() {
        let requests = 600usize;
        let count_msgs = |batch: usize| {
            let team = Team::single_node(4);
            team.run(|ctx| {
                let mut rpc: RpcAggregator<u64, u64> = RpcAggregator::new(ctx, batch);
                for i in 0..requests {
                    rpc.push(i % ctx.ranks(), i as u64);
                }
                let resps = rpc.finish(|r| r + 1);
                assert_eq!(resps.len(), requests);
            });
            team.stats_total().msgs_sent
        };
        let fine = count_msgs(1);
        let coarse = count_msgs(256);
        assert!(
            coarse * 10 < fine,
            "aggregated requests should send far fewer messages: fine={fine} coarse={coarse}"
        );
    }

    /// Runs `f` on a fresh team over `topo`, returning the per-rank results
    /// and the team-summed statistics.
    fn run_on<R, F>(topo: Topology, f: F) -> (Vec<R>, crate::stats::StatsSnapshot)
    where
        R: Send,
        F: Fn(&Ctx) -> R + Send + Sync,
    {
        let team = Team::new(topo);
        let out = team.run(f);
        (out, team.stats_total())
    }

    /// The accounting of a rank-to-rank send of a pattern over `topo`, the
    /// reference the routed counts are held to: `batches(src, dest)` lists
    /// the byte size of every batch `src` ships to `dest`. Returns
    /// `(all, off_node)`, each as `(messages, bytes)`.
    fn direct_sends(
        topo: Topology,
        batches: impl Fn(usize, usize) -> Vec<usize>,
    ) -> ((u64, u64), (u64, u64)) {
        let (mut all, mut off) = ((0, 0), (0, 0));
        for src in 0..topo.ranks() {
            for dest in 0..topo.ranks() {
                for bytes in batches(src, dest) {
                    all = (all.0 + 1, all.1 + bytes as u64);
                    if !topo.same_node(src, dest) {
                        off = (off.0 + 1, off.1 + bytes as u64);
                    }
                }
            }
        }
        (all, off)
    }

    /// The byte sizes of the batches `count` items of `item_bytes` each fill
    /// at `batch` items per batch: full batches, then the remainder.
    fn batches_of(count: usize, batch: usize, item_bytes: usize) -> Vec<usize> {
        (0..count)
            .step_by(batch)
            .map(|start| (count - start).min(batch) * item_bytes)
            .collect()
    }

    /// Runs `body` on one node and on `topo`, checks that both deliver the
    /// same results and that the one-node run sends exactly the pattern
    /// `batches` describes (so the pattern is the direct path's own
    /// accounting), and returns the routed statistics with the pattern's
    /// off-node `(messages, bytes)` as it would travel rank to rank.
    fn routed_against_direct<R, F>(
        topo: Topology,
        body: F,
        batches: impl Fn(usize, usize) -> Vec<usize>,
    ) -> (crate::stats::StatsSnapshot, (u64, u64))
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(&Ctx) -> R + Send + Sync,
    {
        let (direct, ds) = run_on(Topology::single_node(topo.ranks()), &body);
        let (routed, rs) = run_on(topo, &body);
        assert_eq!(
            direct, routed,
            "routing must not change what each rank receives on {topo:?}"
        );
        let (all, off) = direct_sends(topo, batches);
        assert_eq!((ds.msgs_sent, ds.bytes_sent), all, "send pattern");
        assert_eq!(ds.off_node_msgs, 0);
        // The byte/message splits stay exhaustive under routing.
        assert_eq!(rs.on_node_bytes + rs.off_node_bytes, rs.bytes_sent);
        assert_eq!(rs.on_node_msgs + rs.off_node_msgs, rs.msgs_sent);
        assert_eq!(rs.rpc_resp_bytes, ds.rpc_resp_bytes);
        assert_eq!(rs.rpc_round_trips, ds.rpc_round_trips);
        (rs, off)
    }

    #[test]
    fn routing_delivers_identically_with_fewer_off_node_messages() {
        let topo = Topology::new(8, 2);
        let body = |ctx: &Ctx| {
            let n = ctx.ranks();
            let outgoing: Vec<Vec<u64>> = (0..n)
                .map(|d| {
                    (0..5)
                        .map(|i| (100 * ctx.rank() + 10 * d + i) as u64)
                        .collect()
                })
                .collect();
            let mut got = ctx.exchange(outgoing);
            got.sort_unstable();
            got
        };
        let (hs, (flat_msgs, flat_bytes)) = routed_against_direct(topo, body, |_, _| vec![5 * 8]);
        // The payload crosses the interconnect exactly once…
        assert_eq!(hs.off_node_bytes, flat_bytes);
        // …but as one combined message per (source node, destination node)
        // pair instead of one per (rank, rank) pair: 4 nodes × 3 remote nodes
        // versus 8 ranks × 6 remote ranks.
        assert_eq!(flat_msgs, 8 * 6);
        assert_eq!(hs.off_node_msgs, 4 * 3);
        // The gather/scatter legs surface as extra on-node traffic.
        let flat_on_node_bytes = 8 * 8 * 5 * 8 - flat_bytes;
        assert!(hs.on_node_bytes > flat_on_node_bytes);
    }

    #[test]
    fn routed_aggregator_delivers_identically() {
        let topo = Topology::new(8, 2);
        let n = topo.ranks();
        let body = |ctx: &Ctx| {
            let n = ctx.ranks();
            let mut agg: Aggregator<(usize, usize)> = Aggregator::new(ctx, 7);
            for i in 0..100usize {
                agg.push((ctx.rank() + i) % n, (ctx.rank(), i));
            }
            let mut got = agg.finish();
            got.sort_unstable();
            got
        };
        let items = |src: usize, dest: usize| (0..100).filter(|i| (src + i) % n == dest).count();
        let (hs, (flat_msgs, flat_bytes)) =
            routed_against_direct(topo, body, |s, d| batches_of(items(s, d), 7, 16));
        assert_eq!(hs.off_node_bytes, flat_bytes);
        assert!(
            hs.off_node_msgs * 2 <= flat_msgs,
            "expected ≥2× fewer off-node messages at 2 ranks/node: flat={flat_msgs} routed={}",
            hs.off_node_msgs
        );
    }

    #[test]
    fn routed_blob_aggregator_keeps_exact_byte_accounting() {
        let topo = Topology::new(4, 2);
        let n = topo.ranks();
        let body = |ctx: &Ctx| {
            let n = ctx.ranks();
            let mut agg = BlobAggregator::new(ctx, 16);
            for i in 0..30usize {
                let dest = i % n;
                let len = 3 + (i % 5);
                let mut rec = vec![dest as u8, ctx.rank() as u8, len as u8];
                rec.resize(len, 0xCD);
                agg.push_record(dest, &rec);
            }
            let mut blobs = agg.finish();
            blobs.sort_unstable();
            blobs
        };
        // Every rank sends `dest` the records `i ≡ dest (mod n)`, flushing
        // once 16 bytes are buffered.
        let blobs = |_: usize, dest: usize| {
            let (mut out, mut buffered) = (Vec::new(), 0);
            for i in (dest..30).step_by(n) {
                buffered += 3 + i % 5;
                if buffered >= 16 {
                    out.push(std::mem::take(&mut buffered));
                }
            }
            out.extend((buffered > 0).then_some(buffered));
            out
        };
        let (hs, (flat_msgs, flat_bytes)) = routed_against_direct(topo, body, blobs);
        assert_eq!(
            hs.off_node_bytes, flat_bytes,
            "off-node payload bytes are those of the direct sends"
        );
        assert!(hs.off_node_msgs < flat_msgs);
    }

    #[test]
    fn routed_rpc_returns_the_direct_responses() {
        let topo = Topology::new(8, 2);
        let n = topo.ranks();
        let body = |ctx: &Ctx| {
            let n = ctx.ranks();
            let mut rpc: RpcAggregator<u64, u64> = RpcAggregator::new(ctx, 3);
            let reqs: Vec<(usize, u64)> = (0..50u64)
                .map(|i| ((i as usize * 7 + ctx.rank()) % n, i))
                .collect();
            for &(dest, req) in &reqs {
                rpc.push(dest, req);
            }
            let rank = ctx.rank() as u64;
            let resps = rpc.finish(|req| 1000 * rank + req);
            for ((dest, req), resp) in reqs.iter().zip(&resps) {
                assert_eq!(*resp, 1000 * *dest as u64 + req);
            }
            resps
        };
        let requests =
            |src: usize, dest: usize| (0..50).filter(|i| (i * 7 + src) % n == dest).count();
        // Requests in batches of 3, then one reply batch per requester.
        let legs = |src: usize, dest: usize| {
            let mut out = batches_of(requests(src, dest), 3, size_of::<RpcRequest<u64>>());
            let answered = requests(dest, src);
            out.extend((answered > 0).then(|| answered * size_of::<RpcReply<u64>>()));
            out
        };
        let (hs, (flat_msgs, flat_bytes)) = routed_against_direct(topo, body, legs);
        assert_eq!(hs.off_node_bytes, flat_bytes);
        assert!(hs.off_node_msgs < flat_msgs);
    }

    #[test]
    fn routing_on_non_uniform_topologies() {
        // 5 ranks at 2 per node: nodes {0,1}, {2,3}, {4} — the last node is
        // partial and its leader is also its only member.
        for topo in [Topology::new(5, 2), Topology::new(7, 3)] {
            let body = |ctx: &Ctx| {
                let n = ctx.ranks();
                let outgoing: Vec<Vec<u32>> =
                    (0..n).map(|d| vec![(ctx.rank() * n + d) as u32]).collect();
                let mut got = ctx.exchange(outgoing);
                got.sort_unstable();
                let resps =
                    ctx.exchange_map((0..n).map(|d| (d, ctx.rank() as u32)), 4, |r: u32| r + 1);
                (got, resps)
            };
            // One item each way per (rank, rank) pair: the exchange, one
            // request, one reply.
            let legs = |_, _| {
                vec![
                    size_of::<u32>(),
                    size_of::<RpcRequest<u32>>(),
                    size_of::<RpcReply<u32>>(),
                ]
            };
            let (hs, (_, flat_bytes)) = routed_against_direct(topo, body, legs);
            assert_eq!(hs.off_node_bytes, flat_bytes, "topology {topo:?}");
        }
    }

    #[test]
    fn single_node_teams_send_directly() {
        // With one node the router is never built: exactly the pattern's
        // messages, all on-node, and only the lane's own two barriers.
        let body = |ctx: &Ctx| {
            let n = ctx.ranks();
            let mut agg: Aggregator<u64> = Aggregator::new(ctx, 4);
            for i in 0..40u64 {
                agg.push((i as usize) % n, i);
            }
            let _ = agg.finish();
        };
        let topo = Topology::single_node(4);
        let team = Team::new(topo);
        team.run(body);
        let s = team.stats_total();
        let (all, _) = direct_sends(topo, |_, _| batches_of(10, 4, 8));
        assert_eq!((s.msgs_sent, s.bytes_sent), all);
        assert_eq!((s.on_node_msgs, s.on_node_bytes), all);
        assert!((0..4).all(|r| team.barriers_entered(r) == 2));
        // Two nodes add the router's gather and ship barriers.
        let routed = Team::new(Topology::new(4, 2));
        routed.run(body);
        assert!((0..4).all(|r| routed.barriers_entered(r) == 4));
    }

    #[test]
    fn repeated_rpc_phases_do_not_leak_across_phases() {
        let team = Team::single_node(4);
        team.run(|ctx| {
            for phase in 0..20u64 {
                let n = ctx.ranks();
                let reqs: Vec<(usize, u64)> = (0..(ctx.rank() * 3) as u64)
                    .map(|i| ((i as usize) % n, phase * 100 + i))
                    .collect();
                let expect: Vec<u64> = reqs.iter().map(|&(_, r)| r + 7).collect();
                let got = ctx.exchange_map(reqs, 2, |r: u64| r + 7);
                assert_eq!(got, expect, "phase {phase} mixed responses");
            }
        });
    }

    #[test]
    #[should_panic(expected = "dropped without finish()")]
    fn aggregator_dropped_without_finish_is_caught() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let mut agg: Aggregator<u64> = Aggregator::new(ctx, 4);
            agg.push((ctx.rank() + 1) % ctx.ranks(), 7);
            // Seeded violation: the phase ends without finish(), so the
            // mailbox lease would return to the pool with deposits in flight.
            drop(agg);
        });
    }

    #[test]
    #[should_panic(expected = "RpcAggregator created @")]
    fn rpc_dropped_without_finish_names_its_face() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let mut rpc: RpcAggregator<u64, u64> = RpcAggregator::new(ctx, 4);
            rpc.push(0, 1);
        });
    }

    #[test]
    #[should_panic(expected = "conformance violation")]
    fn mismatched_exchange_payload_shape_is_caught() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            // Seeded violation: the ranks disagree on the exchanged element
            // type, which (uncaught) would route through *different* pooled
            // mailboxes and silently drop every item.
            if ctx.rank() == 0 {
                let _ = ctx.exchange::<u64>(vec![Vec::new(), Vec::new()]);
            } else {
                let _ = ctx.exchange::<u32>(vec![Vec::new(), Vec::new()]);
            }
        });
    }

    #[test]
    fn finished_aggregators_pass_conformance_checking() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let mut agg: Aggregator<u64> = Aggregator::new(ctx, 4);
            agg.push((ctx.rank() + 1) % ctx.ranks(), ctx.rank() as u64);
            let got = agg.finish();
            assert_eq!(got.len(), 1);
        });
    }
}

//! The distributed read store (§II-B of the paper, memory side).
//!
//! MetaHipMer never holds the whole input on one node: reads are streamed
//! from FASTQ in bounded blocks, packed, and cached in the PGAS global
//! address space so that each rank's resident footprint is its fair share of
//! the input plus a bounded cache — the property that lets the pipeline
//! ingest datasets larger than any single node's memory. This crate is that
//! layer, mirroring the distributed contig store (`dbg::store`) one level
//! upstream:
//!
//! * [`PackedRead`] — one read, 2-bit-packed sequence ([`kmers::PackedSeq`],
//!   non-ACGT bytes in an exception list) plus run-length-encoded Phred
//!   scores; read names are dropped in favour of positional [`ReadId`]s;
//! * [`PackedReadBlock`] — a fixed-count run of consecutive reads (pair
//!   boundaries respected), the unit of sharding and transfer;
//! * [`ReadStore`] — block id → [`PackedReadBlock`], sharded over the ranks
//!   by a [`dht::DistMap`], plus a replicated O(#reads) length table that
//!   answers every geometry query (read length, mate id, total bases)
//!   without touching sequence bytes;
//! * [`ReadStore::ingest_fastq`] — streaming ingestion through
//!   [`seqio::FastqBlockIter`]: each rank scans the input in bounded chunks
//!   and packs only the blocks it owns, so the full record set is never
//!   materialised anywhere;
//! * [`ReadReader`] — a rank's read-through view of the block table: the
//!   typed face of a byte-weighted, foreign-only [`dht::CachedView`], whose
//!   one miss-fill loop fetches collectively via [`dht::DistMap::get_many`]
//!   or one-sided via [`dht::DistMap::get_many_onesided`] for dynamically
//!   scheduled loops;
//! * [`ReadStream`] — an in-order `(ReadId, StreamedRead)` iterator (the
//!   alignment ingest path) that hands out each read as a shared handle on
//!   its block — the packed bytes as they lie, never unpacked or copied —
//!   fetching foreign blocks one-sided so per-rank progress never has to line
//!   up collectively;
//! * [`ReadStore::fetch_packed`] — one collective round that fetches the
//!   blocks of a list of reads and hands each read out the same way, as a
//!   handle on its block (the local-assembly pool path);
//! * [`OwnedReads`] — a [`seqio::ReadSource`] over the calling rank's owned
//!   blocks that hands out each read's packed bytes as they lie (the k-mer
//!   analysis ingest path);
//! * [`ReadsRef`] — the handle consumers take on a [`ReadStore`].
//!
//! Residency accounting: the store records each rank's peak resident read
//! bytes (owned shard + reader caches, packed) in
//! `CommStats::read_bytes_resident` and every cache-miss fill in
//! `CommStats::read_fetch_bytes`, which is what the `ablation_read_store`
//! harness asserts the `total/ranks + cache bound` memory ceiling on.

use dht::{CachedView, DistMap, FxHashMap, Residency};
use kmers::PackedSeq;
use pgas::{Counter, Ctx};
use seqio::{FastqBlockIter, PackedReadView, PairOrientation, Read, ReadId, ReadLibrary};
use std::sync::Arc;

/// Identifier of a packed read block: `read_id / block_reads`.
pub type BlockId = u64;

/// In-memory byte bound of one streaming FASTQ parse chunk during ingestion
/// (records materialised at once per rank, before packing; independent of the
/// store's block size).
const INGEST_CHUNK_BYTES: usize = 1 << 20;

/// Construction parameters of a [`ReadStore`].
#[derive(Debug, Clone, Copy)]
pub struct ReadStoreParams {
    /// Reads per block (rounded down to even for paired libraries so mates
    /// always share a block).
    pub block_reads: usize,
    /// Per-rank reader cache bound in *packed* bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Per-owner request batch handed to the aggregated lookup layer.
    pub batch: usize,
}

impl Default for ReadStoreParams {
    fn default() -> Self {
        ReadStoreParams {
            block_reads: 64,
            cache_bytes: 1 << 20,
            batch: 1024,
        }
    }
}

/// One read in packed form: 2-bit sequence plus run-length-encoded Phred
/// scores. The name is dropped — reads are addressed by positional
/// [`ReadId`] everywhere downstream of ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRead {
    seq: PackedSeq,
    /// `(score, run)` pairs; runs longer than 255 repeat the pair. Short-read
    /// quality strings are long same-score runs, so this is far below one
    /// byte per base in practice and at most two bytes per base ever.
    qual_runs: Vec<(u8, u8)>,
}

impl PackedRead {
    /// Packs a read (name discarded).
    pub fn from_read(read: &Read) -> Self {
        debug_assert_eq!(read.seq.len(), read.qual.len());
        let mut qual_runs: Vec<(u8, u8)> = Vec::new();
        seqio::push_quality_runs(&read.qual, &mut qual_runs);
        PackedRead {
            seq: PackedSeq::from_bytes(&read.seq),
            qual_runs,
        }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the read holds no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Packed footprint in bytes (sequence + exception list + quality runs).
    pub fn packed_bytes(&self) -> usize {
        self.seq.packed_bytes() + 2 * self.qual_runs.len()
    }

    /// The read's codes, exceptions and quality runs, borrowed as they lie.
    pub fn view(&self) -> PackedReadView<'_> {
        PackedReadView {
            qual_runs: &self.qual_runs,
            ..self.seq.view()
        }
    }

    /// The raw representation — packed sequence plus quality runs — for
    /// serializers (e.g. checkpoint shard files). Round-trips through
    /// [`PackedRead::from_parts`].
    pub fn to_parts(&self) -> (&PackedSeq, &[(u8, u8)]) {
        (&self.seq, &self.qual_runs)
    }

    /// Rebuilds a packed read from the raw representation produced by
    /// [`PackedRead::to_parts`]. Validates that the quality runs cover
    /// exactly the sequence length, so a corrupt input fails loudly here
    /// rather than as a malformed [`Read`] downstream.
    pub fn from_parts(seq: PackedSeq, qual_runs: Vec<(u8, u8)>) -> Self {
        let covered: usize = qual_runs.iter().map(|&(_, run)| run as usize).sum();
        assert_eq!(
            covered,
            seq.len(),
            "quality runs must cover the sequence exactly"
        );
        PackedRead { seq, qual_runs }
    }

    /// Unpacks to a full [`Read`] (empty name).
    pub fn unpack(&self) -> Read {
        let seq = self.seq.unpack();
        let mut qual = Vec::with_capacity(seq.len());
        for &(q, run) in &self.qual_runs {
            qual.resize(qual.len() + run as usize, q);
        }
        debug_assert_eq!(qual.len(), seq.len());
        Read {
            name: String::new(),
            seq,
            qual,
        }
    }
}

/// A run of up to `block_reads` consecutive reads starting at `first_id`:
/// the unit of sharding, transfer and caching.
///
/// The reads are shared, so a clone — a fetch out of the shard, a cache
/// admission, a [`ReadStream`] handle — is a reference-count bump, not a copy
/// of the block. The footprint is computed once, at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedReadBlock {
    first_id: ReadId,
    reads: Arc<[PackedRead]>,
    packed_bytes: usize,
}

// The transport accounts a value it moves by its `size_of`, so the block keeps
// the size of its former `(first_id, Vec<PackedRead>)` layout and every
// recorded byte stays what it was.
const _: () = assert!(
    std::mem::size_of::<PackedReadBlock>() == std::mem::size_of::<(ReadId, Vec<PackedRead>)>()
);

impl PackedReadBlock {
    /// A block of `reads` whose first read has id `first_id`.
    pub fn new(first_id: ReadId, reads: Vec<PackedRead>) -> Self {
        let packed_bytes = 8 + reads.iter().map(PackedRead::packed_bytes).sum::<usize>();
        PackedReadBlock {
            first_id,
            reads: reads.into(),
            packed_bytes,
        }
    }

    /// Read id of `reads()[0]`.
    pub fn first_id(&self) -> ReadId {
        self.first_id
    }

    /// The packed reads, in id order.
    pub fn reads(&self) -> &[PackedRead] {
        &self.reads
    }

    /// Packed footprint in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.packed_bytes
    }

    /// The packed read with the given id, if it falls in this block.
    pub fn get(&self, id: ReadId) -> Option<&PackedRead> {
        id.checked_sub(self.first_id)
            .and_then(|i| self.reads.get(i as usize))
    }
}

/// The distributed read store: packed read blocks sharded by owner rank plus
/// a replicated per-read length table. Built collectively; shared by the
/// team.
pub struct ReadStore {
    map: Arc<DistMap<BlockId, PackedReadBlock>>,
    /// Replicated per-read lengths — O(#reads) and cheap next to sequence
    /// bytes; answers geometry queries (scaffold link spans, total bases)
    /// with zero communication.
    lens: Vec<u32>,
    name: String,
    paired: bool,
    insert_size: usize,
    insert_sd: usize,
    orientation: PairOrientation,
    block_reads: usize,
    cache_bytes: usize,
    batch: usize,
}

/// The replicated, O(#reads) half of a [`ReadStore`] — everything except the
/// sharded blocks themselves. Exported by [`ReadStore::header`] for
/// checkpoint manifests and fed back to [`ReadStore::restore`]; `block_reads`
/// travels with it (rather than being re-derived from restore-time params)
/// because the block geometry must match the shard entries being reloaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadStoreHeader {
    /// Library name.
    pub name: String,
    /// Whether reads are pair-interleaved.
    pub paired: bool,
    /// Library mean insert size.
    pub insert_size: usize,
    /// Library insert-size standard deviation.
    pub insert_sd: usize,
    /// Pair orientation.
    pub orientation: PairOrientation,
    /// Reads per block of the store that exported this header.
    pub block_reads: usize,
    /// Replicated per-read length table.
    pub lens: Vec<u32>,
}

/// Pair-safe block size: even for paired libraries so mates colocate.
fn effective_block_reads(params: &ReadStoreParams, paired: bool) -> usize {
    if paired {
        (params.block_reads & !1).max(2)
    } else {
        params.block_reads.max(1)
    }
}

impl ReadStore {
    /// Collectively builds the store from a (transiently replicated)
    /// library: every rank packs and stores exactly the blocks it owns — an
    /// owner-local update phase with no wire traffic — then records its
    /// owned packed bytes in the residency accounting. No pipeline stage
    /// reads the library after this returns; [`ReadStore::ingest_fastq`]
    /// never materialises it at all.
    pub fn build(ctx: &Ctx, library: &ReadLibrary, params: &ReadStoreParams) -> Arc<ReadStore> {
        let block_reads = effective_block_reads(params, library.paired);
        let map: Arc<DistMap<BlockId, PackedReadBlock>> = DistMap::shared(ctx);
        let mut mine: Vec<(BlockId, PackedReadBlock)> = Vec::new();
        let num_blocks = library.reads.len().div_ceil(block_reads);
        for b in 0..num_blocks as BlockId {
            if map.owner_of(&b) != ctx.rank() {
                continue;
            }
            let first = b as usize * block_reads;
            let end = (first + block_reads).min(library.reads.len());
            let reads = library.reads[first..end]
                .iter()
                .map(PackedRead::from_read)
                .collect();
            mine.push((b, PackedReadBlock::new(first as ReadId, reads)));
        }
        map.apply_local_batch(ctx, mine, |v| v, |a, b| *a = b);
        ctx.barrier();
        let lens: Vec<u32> = library.reads.iter().map(|r| r.len() as u32).collect();
        let name = library.name.clone();
        let (paired, insert_size, insert_sd, orientation) = (
            library.paired,
            library.insert_size,
            library.insert_sd,
            library.orientation,
        );
        let store = ctx.share(|| ReadStore {
            map: Arc::clone(&map),
            lens,
            name,
            paired,
            insert_size,
            insert_sd,
            orientation,
            block_reads,
            cache_bytes: params.cache_bytes,
            batch: params.batch,
        });
        ctx.record(
            Counter::read_bytes_resident,
            store.owned_packed_bytes(ctx) as u64,
        );
        ctx.barrier();
        store
    }

    /// Collectively ingests interleaved paired FASTQ text *streamingly*:
    /// every rank scans the input through [`FastqBlockIter`] in bounded
    /// chunks, appends to the replicated length table, and packs only the
    /// blocks it owns — at no point does any rank hold more than one parse
    /// chunk of unpacked records plus its own shard. Errors (malformed
    /// records, odd record count) are deterministic and identical on every
    /// rank, so the collective error path stays aligned.
    pub fn ingest_fastq(
        ctx: &Ctx,
        name: &str,
        text: &str,
        insert_size: usize,
        insert_sd: usize,
        params: &ReadStoreParams,
    ) -> Result<Arc<ReadStore>, String> {
        let paired = true;
        let block_reads = effective_block_reads(params, paired);
        let map: Arc<DistMap<BlockId, PackedReadBlock>> = DistMap::shared(ctx);
        let mut lens: Vec<u32> = Vec::new();
        let mut mine: Vec<(BlockId, PackedReadBlock)> = Vec::new();
        let mut cur: Vec<PackedRead> = Vec::new();
        let mut cur_block: BlockId = 0;
        let flush =
            |mine: &mut Vec<(BlockId, PackedReadBlock)>, cur: &mut Vec<PackedRead>, b: BlockId| {
                if !cur.is_empty() {
                    let first_id = b * block_reads as u64;
                    mine.push((b, PackedReadBlock::new(first_id, std::mem::take(cur))));
                }
            };
        for chunk in FastqBlockIter::new(text, INGEST_CHUNK_BYTES, paired) {
            let records = chunk?;
            for rec in records {
                let id = lens.len() as ReadId;
                let b = id / block_reads as u64;
                lens.push(rec.seq.len() as u32);
                if b != cur_block {
                    flush(&mut mine, &mut cur, cur_block);
                    cur_block = b;
                }
                if map.owner_of(&b) == ctx.rank() {
                    cur.push(PackedRead::from_read(&rec.into()));
                }
            }
        }
        flush(&mut mine, &mut cur, cur_block);
        if !lens.len().is_multiple_of(2) {
            return Err(format!(
                "interleaved FASTQ must hold an even number of records, got {}",
                lens.len()
            ));
        }
        map.apply_local_batch(ctx, mine, |v| v, |a, b| *a = b);
        ctx.barrier();
        let name = name.to_string();
        let store = ctx.share(|| ReadStore {
            map: Arc::clone(&map),
            lens,
            name,
            paired,
            insert_size,
            insert_sd,
            orientation: PairOrientation::ForwardReverse,
            block_reads,
            cache_bytes: params.cache_bytes,
            batch: params.batch,
        });
        ctx.record(
            Counter::read_bytes_resident,
            store.owned_packed_bytes(ctx) as u64,
        );
        ctx.barrier();
        Ok(store)
    }

    /// Collectively rebuilds a store from checkpointed state: the replicated
    /// header plus whatever slice of the packed blocks each rank recovered
    /// from the shard files of the *writing* run. Blocks are re-routed to
    /// their new owners through the hash partitioner (`bulk_merge`), so the
    /// rank count may differ from the writer's — block ownership depends
    /// only on the block id and the rank count, making the restored store
    /// identical to one `build` would have produced on this team. Each rank
    /// then verifies its shard against the length table, and the team checks
    /// that no block went missing in transit.
    pub fn restore(
        ctx: &Ctx,
        header: ReadStoreHeader,
        params: &ReadStoreParams,
        entries: Vec<(BlockId, PackedReadBlock)>,
    ) -> Arc<ReadStore> {
        let map: Arc<DistMap<BlockId, PackedReadBlock>> = DistMap::shared(ctx);
        dht::bulk_merge(ctx, &map, entries, params.batch, |a, b| *a = b);
        let store = ctx.share(|| ReadStore {
            map: Arc::clone(&map),
            lens: header.lens,
            name: header.name,
            paired: header.paired,
            insert_size: header.insert_size,
            insert_sd: header.insert_sd,
            orientation: header.orientation,
            block_reads: header.block_reads,
            cache_bytes: params.cache_bytes,
            batch: params.batch,
        });
        // Verify the restored shard: block geometry and every read length
        // must match the replicated table (a shard file swapped between
        // checkpoints would pass its own CRC but fail here).
        store.map.for_each_local(ctx, |b, block| {
            assert_eq!(
                block.first_id,
                b * store.block_reads as u64,
                "restored block {b} starts at the wrong read id"
            );
            for (i, read) in block.reads.iter().enumerate() {
                let id = block.first_id + i as u64;
                assert_eq!(
                    Some(read.len() as u32),
                    store.lens.get(id as usize).copied(),
                    "restored read {id} does not match checkpoint metadata"
                );
            }
        });
        let total_blocks = ctx.allreduce_sum_u64(store.map.local_len(ctx) as u64);
        assert_eq!(
            total_blocks as usize,
            store.num_blocks(),
            "checkpoint restore lost read blocks"
        );
        ctx.record(
            Counter::read_bytes_resident,
            store.owned_packed_bytes(ctx) as u64,
        );
        ctx.barrier();
        store
    }

    /// The replicated half of the store, for checkpointing (see
    /// [`ReadStoreHeader`]).
    pub fn header(&self) -> ReadStoreHeader {
        ReadStoreHeader {
            name: self.name.clone(),
            paired: self.paired,
            insert_size: self.insert_size,
            insert_sd: self.insert_sd,
            orientation: self.orientation,
            block_reads: self.block_reads,
            lens: self.lens.clone(),
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether reads are pair-interleaved.
    pub fn paired(&self) -> bool {
        self.paired
    }

    /// Mean insert size of the library.
    pub fn insert_size(&self) -> usize {
        self.insert_size
    }

    /// Insert-size standard deviation.
    pub fn insert_sd(&self) -> usize {
        self.insert_sd
    }

    /// Pair orientation.
    pub fn orientation(&self) -> PairOrientation {
        self.orientation
    }

    /// Number of reads in the store.
    pub fn num_reads(&self) -> usize {
        self.lens.len()
    }

    /// Number of pairs (0 for unpaired).
    pub fn num_pairs(&self) -> usize {
        if self.paired {
            self.lens.len() / 2
        } else {
            0
        }
    }

    /// Total bases across all reads (from the replicated length table).
    pub fn total_bases(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Length of one read, if it exists. Zero communication.
    pub fn len_of(&self, id: ReadId) -> Option<usize> {
        self.lens.get(id as usize).map(|&l| l as usize)
    }

    /// The mate's read id, or `None` for unpaired stores.
    pub fn mate_of(&self, id: ReadId) -> Option<ReadId> {
        if !self.paired {
            return None;
        }
        Some(id ^ 1)
    }

    /// Reads per block.
    pub fn block_reads(&self) -> usize {
        self.block_reads
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.lens.len().div_ceil(self.block_reads)
    }

    /// The block holding a read id.
    pub fn block_of(&self, id: ReadId) -> BlockId {
        id / self.block_reads as u64
    }

    /// The sharded block table (for owner-local passes).
    pub fn map(&self) -> &Arc<DistMap<BlockId, PackedReadBlock>> {
        &self.map
    }

    /// Block ids owned by the calling rank, ascending.
    pub fn owned_block_ids(&self, ctx: &Ctx) -> Vec<BlockId> {
        (0..self.num_blocks() as BlockId)
            .filter(|b| self.map.owner_of(b) == ctx.rank())
            .collect()
    }

    /// Packed bytes of the calling rank's owned shard.
    pub fn owned_packed_bytes(&self, ctx: &Ctx) -> usize {
        let mut owned = 0usize;
        self.map
            .for_each_local(ctx, |_, v| owned += v.packed_bytes());
        owned
    }

    /// Creates this rank's cached read-through view.
    pub fn reader(&self, ctx: &Ctx) -> ReadReader<'_> {
        CachedView::new_weighted(
            &self.map,
            self.cache_bytes,
            self.batch,
            PackedReadBlock::packed_bytes,
            Residency {
                owned: self.owned_packed_bytes(ctx),
                fetched: Counter::read_fetch_bytes,
                resident: Counter::read_bytes_resident,
            },
        )
    }

    /// **Collectively** fetches the reads named by `ids` through a fresh
    /// [`ReadReader`], one block fetch per distinct block, and hands out each
    /// as a [`StreamedRead`] — a shared handle on its fetched block, nothing
    /// unpacked or copied — in the order of `ids`, `None` for an id absent
    /// from the store. Every rank must call, even with no ids. This is how
    /// local assembly gathers its pool reads.
    pub fn fetch_packed(&self, ctx: &Ctx, ids: &[ReadId]) -> Vec<Option<StreamedRead>> {
        let mut blocks: Vec<BlockId> = ids.iter().map(|&id| self.block_of(id)).collect();
        blocks.sort_unstable();
        blocks.dedup();
        let fetched = self.reader(ctx).get_many(ctx, &blocks);
        let by_block: FxHashMap<BlockId, PackedReadBlock> = blocks
            .into_iter()
            .zip(fetched)
            .filter_map(|(b, v)| v.map(|v| (b, v)))
            .collect();
        ids.iter()
            .map(|&id| {
                let block = by_block.get(&self.block_of(id))?;
                let index = (id - block.first_id) as usize;
                (index < block.reads.len()).then(|| StreamedRead {
                    reads: Arc::clone(&block.reads),
                    index,
                })
            })
            .collect()
    }

    /// A [`seqio::ReadSource`] over the calling rank's owned blocks: streams
    /// a [`PackedReadView`] of each owned read exactly once, in id order,
    /// without unpacking anything. This is how k-mer analysis consumes the
    /// store.
    pub fn owned_reads<'s, 'c, 't>(&'s self, ctx: &'c Ctx<'t>) -> OwnedReads<'s, 'c, 't> {
        OwnedReads { store: self, ctx }
    }

    /// An in-order `(ReadId, StreamedRead)` stream over `ids` that fetches
    /// foreign blocks one-sided and hands out each read as a handle on its
    /// shared block: nothing is unpacked, and nothing is copied or allocated
    /// per read. This is how alignment consumes the store; one-sided fetches
    /// mean per-rank progress never has to line up collectively.
    pub fn stream<'s, 'c, 't>(
        &'s self,
        ctx: &'c Ctx<'t>,
        ids: Vec<ReadId>,
    ) -> ReadStream<'s, 'c, 't> {
        ReadStream {
            ctx,
            store: self,
            reader: self.reader(ctx),
            ids: ids.into_iter(),
            current: None,
        }
    }

    /// Collectively regathers the full replicated [`ReadLibrary`] (rank 0
    /// collects the owned shards, orders by id, broadcast). Read names are
    /// gone — they were dropped at pack time — so the result carries empty
    /// names. Tests only; the hot paths never call it.
    pub fn materialize(&self, ctx: &Ctx) -> ReadLibrary {
        let mut local: Vec<(BlockId, PackedReadBlock)> = Vec::new();
        self.map
            .for_each_local(ctx, |id, v| local.push((*id, v.clone())));
        let mut gathered = ctx.gather(local);
        ctx.broadcast(|| {
            gathered.sort_by_key(|(id, _)| *id);
            ReadLibrary {
                name: self.name.clone(),
                reads: gathered
                    .iter()
                    .flat_map(|(_, block)| block.reads.iter().map(|r| r.unpack()))
                    .collect(),
                paired: self.paired,
                insert_size: self.insert_size,
                insert_sd: self.insert_sd,
                orientation: self.orientation,
            }
        })
    }
}

/// A per-rank cached read-through view of a [`ReadStore`]'s block table:
/// lookups are served from a byte-bounded FIFO cache of *foreign* blocks when
/// possible, and the misses of a batch travel to their owners in one
/// aggregated round — collectively through [`CachedView::get_many`], or
/// one-sided through [`CachedView::get_many_onesided`] inside dynamically
/// scheduled loops. Each fill adds the foreign bytes it moved to
/// `CommStats::read_fetch_bytes` and raises the rank's resident peak
/// ([`CachedView::resident_bytes`]: owned shard plus cache, packed). Create
/// one per phase with [`ReadStore::reader`]; it is not shared between ranks.
pub type ReadReader<'s> = CachedView<'s, BlockId, PackedReadBlock>;

/// An in-order `(ReadId, StreamedRead)` iterator over a list of read ids,
/// one block fetch per change of block. Foreign blocks are fetched one-sided
/// through a [`ReadReader`] (so the stream composes with per-rank,
/// non-collective loops) and cached; ascending id lists touch each block
/// once.
pub struct ReadStream<'s, 'c, 't> {
    ctx: &'c Ctx<'t>,
    store: &'s ReadStore,
    reader: ReadReader<'s>,
    ids: std::vec::IntoIter<ReadId>,
    current: Option<(BlockId, PackedReadBlock)>,
}

/// One read of a [`ReadStream`] or of [`ReadStore::fetch_packed`]: a shared
/// handle on its block and its index there. Creating one is a reference-count
/// bump; the bases are read in place through [`StreamedRead::view`].
#[derive(Debug, Clone)]
pub struct StreamedRead {
    reads: Arc<[PackedRead]>,
    index: usize,
}

impl StreamedRead {
    /// The packed read.
    pub fn packed_read(&self) -> &PackedRead {
        &self.reads[self.index]
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.packed_read().len()
    }

    /// True if the read holds no bases.
    pub fn is_empty(&self) -> bool {
        self.packed_read().is_empty()
    }

    /// The read's codes, exceptions and quality runs, borrowed from the block.
    pub fn view(&self) -> PackedReadView<'_> {
        self.packed_read().view()
    }
}

impl seqio::AsPackedRead for StreamedRead {
    fn packed<'a>(&'a self, _: &'a mut seqio::ReadPacker) -> PackedReadView<'a> {
        self.view()
    }
}

impl Iterator for ReadStream<'_, '_, '_> {
    type Item = (ReadId, StreamedRead);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.ids.next()?;
        let b = self.store.block_of(id);
        if self.current.as_ref().map(|(cb, _)| *cb) != Some(b) {
            let block = self
                .reader
                .get_many_onesided(self.ctx, &[b])
                .pop()
                .flatten()
                .unwrap_or_else(|| panic!("read block {b} missing from store"));
            self.current = Some((b, block));
        }
        let (_, block) = self.current.as_ref().unwrap();
        let index = id - block.first_id;
        assert!(
            index < block.reads.len() as u64,
            "read {id} missing from block {b}"
        );
        let read = StreamedRead {
            reads: Arc::clone(&block.reads),
            index: index as usize,
        };
        Some((id, read))
    }
}

/// A [`seqio::ReadSource`] over the calling rank's owned blocks: every pass
/// replays the same reads in ascending id order, each as a
/// [`PackedReadView`] of the shard's own bytes. Owner-local: iteration holds
/// this rank's shard locks, so it must not overlap foreign fetches into this
/// rank's read shard (the k-mer analysis phase never does).
pub struct OwnedReads<'s, 'c, 't> {
    store: &'s ReadStore,
    ctx: &'c Ctx<'t>,
}

impl OwnedReads<'_, '_, '_> {
    /// Read ids of this rank's owned blocks, ascending.
    pub fn ids(&self) -> Vec<ReadId> {
        let mut out = Vec::new();
        for b in self.store.owned_block_ids(self.ctx) {
            let first = b as usize * self.store.block_reads;
            let end = (first + self.store.block_reads).min(self.store.num_reads());
            out.extend((first as ReadId)..(end as ReadId));
        }
        out
    }
}

impl seqio::ReadSource for OwnedReads<'_, '_, '_> {
    fn for_each_read(&mut self, f: &mut dyn FnMut(PackedReadView<'_>)) {
        let owned = self.store.owned_block_ids(self.ctx);
        let view = self.store.map.local_view(self.ctx);
        for b in owned {
            if let Some(block) = view.get(&b) {
                for packed in block.reads.iter() {
                    f(packed.view());
                }
            }
        }
    }
}

/// The read handle every pipeline stage takes: the sharded [`ReadStore`],
/// O(total/ranks + cache) read bytes per rank. Stages read geometry (length,
/// mate id, counts, insert-size model) from the store's replicated tables and
/// sequences through a [`ReadReader`].
#[derive(Clone, Copy)]
pub enum ReadsRef<'a> {
    /// Read blocks are sharded; sequence reads go through a [`ReadReader`].
    Store(&'a ReadStore),
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;
    use seqio::ReadSource;

    /// Deterministic pseudo-random sequence with occasional N bytes.
    fn seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(31) {
                    b'N'
                } else {
                    b"ACGT"[(state % 4) as usize]
                }
            })
            .collect()
    }

    /// Deterministic pseudo-random quality string with runs and spikes.
    fn qual(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0xD1B54A32D192ED03) | 1;
        (0..len)
            .map(|i| {
                if i % 7 == 0 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                }
                (2 + state % 40) as u8
            })
            .collect()
    }

    fn library(pairs: usize) -> ReadLibrary {
        let mut lib = ReadLibrary::new_paired("t", 200, 20);
        for i in 0..pairs as u64 {
            let l1 = 40 + (i as usize * 13) % 80;
            let l2 = 40 + (i as usize * 29) % 80;
            lib.push_pair(
                Read::new(format!("{i}/1"), &seq(l1, 2 * i), &qual(l1, 2 * i)),
                Read::new(format!("{i}/2"), &seq(l2, 2 * i + 1), &qual(l2, 2 * i + 1)),
            );
        }
        lib
    }

    #[test]
    fn packed_read_roundtrips_at_word_boundaries() {
        // Word-boundary lengths (32/64/96 bases = 1/2/3 packed words) plus
        // stragglers, with N runs and spiky quality strings.
        let lens = [0usize, 1, 31, 32, 33, 63, 64, 65, 96, 150];
        for (i, &len) in lens.iter().enumerate() {
            let read = Read::new("name-dropped", &seq(len, i as u64), &qual(len, i as u64));
            let packed = PackedRead::from_read(&read);
            assert_eq!(packed.len(), len);
            let back = packed.unpack();
            assert_eq!(back.seq, read.seq, "len {len}");
            assert_eq!(back.qual, read.qual, "len {len}");
            assert!(back.name.is_empty());
        }
    }

    #[test]
    fn qual_rle_handles_long_runs_and_bounds_bytes() {
        let mut q = vec![35u8; 700];
        q.extend([1, 2, 2, 3]);
        let s: Vec<u8> = vec![b'A'; q.len()];
        let read = Read::new("r", &s, &q);
        let packed = PackedRead::from_read(&read);
        assert_eq!(packed.unpack().qual, q);
        // 700 equal scores = 3 runs (255+255+190); worst case is 2B/base.
        assert!(packed.packed_bytes() <= s.len().div_ceil(4) + 4 + 2 * 7);
    }

    #[test]
    fn store_serves_exact_reads_through_every_path() {
        let lib = library(40);
        for ranks in [1usize, 3, 4] {
            let team = Team::single_node(ranks);
            let lib2 = lib.clone();
            team.run(|ctx| {
                let store = ReadStore::build(
                    ctx,
                    &lib2,
                    &ReadStoreParams {
                        block_reads: 6,
                        cache_bytes: 1 << 16,
                        batch: 64,
                    },
                );
                assert_eq!(store.num_reads(), lib2.num_reads());
                assert_eq!(store.num_pairs(), lib2.num_pairs());
                assert_eq!(store.total_bases(), lib2.total_bases());
                // block_reads forced even for paired libraries.
                assert_eq!(store.block_reads(), 6);
                for (id, read) in lib2.iter() {
                    assert_eq!(store.len_of(id), Some(read.len()));
                    assert_eq!(store.mate_of(id), Some(id ^ 1));
                }
                // Collective packed fetch of every read (twice over, in
                // reverse), including misses: past the end of the last
                // block, and in no block at all.
                let ids: Vec<ReadId> = (0..lib2.num_reads() as ReadId + 2)
                    .rev()
                    .chain(0..lib2.num_reads() as ReadId)
                    .chain([99_999])
                    .collect();
                let got = store.fetch_packed(ctx, &ids);
                assert_eq!(got.len(), ids.len());
                for (&id, read) in ids.iter().zip(&got) {
                    let Some(want) = lib2.reads.get(id as usize) else {
                        assert!(read.is_none(), "read {id} is not in the store");
                        continue;
                    };
                    let read = read.as_ref().expect("stored read fetched");
                    let unpacked = read.packed_read().unpack();
                    assert_eq!(unpacked.seq, want.seq);
                    assert_eq!(unpacked.qual, want.qual);
                    assert_eq!(read.view(), PackedRead::from_read(want).view());
                }
                assert!(store.fetch_packed(ctx, &[]).is_empty());
                // One-sided stream over this rank's share, in order.
                let share = ctx.block_range(lib2.num_reads());
                let my_ids: Vec<ReadId> = (share.start as ReadId..share.end as ReadId).collect();
                let streamed: Vec<(ReadId, StreamedRead)> =
                    store.stream(ctx, my_ids.clone()).collect();
                assert_eq!(streamed.len(), my_ids.len());
                for ((id, read), want) in streamed.iter().zip(&my_ids) {
                    assert_eq!(id, want);
                    assert_eq!(read.len(), lib2.read(*want).len());
                    let unpacked = read.packed_read().unpack();
                    assert_eq!(unpacked.seq, lib2.read(*want).seq);
                    assert_eq!(unpacked.qual, lib2.read(*want).qual);
                    assert_eq!(read.view(), read.packed_read().view());
                }
                ctx.barrier();
                // Materialise reproduces the library minus names.
                let back = store.materialize(ctx);
                assert_eq!(back.num_reads(), lib2.num_reads());
                for (id, read) in lib2.iter() {
                    assert_eq!(back.read(id).seq, read.seq);
                    assert_eq!(back.read(id).qual, read.qual);
                }
            });
        }
    }

    #[test]
    fn restore_on_a_different_rank_count_matches_a_fresh_build() {
        let lib = library(30);
        let params = ReadStoreParams {
            block_reads: 6,
            cache_bytes: 1 << 16,
            batch: 64,
        };
        // "Write" at 3 ranks: export the header and each rank's owned shard.
        let writer = Team::single_node(3);
        let lib2 = lib.clone();
        let exported: Vec<(ReadStoreHeader, Vec<(BlockId, PackedReadBlock)>)> = writer.run(|ctx| {
            let store = ReadStore::build(ctx, &lib2, &params);
            (store.header(), store.map().local_entries(ctx))
        });
        let header = exported[0].0.clone();
        let shards: Vec<Vec<(BlockId, PackedReadBlock)>> =
            exported.into_iter().map(|(_, s)| s).collect();
        // Restore at 2x and 1/3 the writer's rank count.
        for new_ranks in [6usize, 1, 3] {
            let team = Team::single_node(new_ranks);
            let header = header.clone();
            let shards = &shards;
            let lib = &lib;
            team.run(|ctx| {
                let mut mine = Vec::new();
                for old in ctx.block_range(shards.len()) {
                    mine.extend(shards[old].iter().cloned());
                }
                let restored = ReadStore::restore(ctx, header.clone(), &params, mine);
                // Same ownership and shard bytes a fresh build computes here.
                let fresh = ReadStore::build(ctx, lib, &params);
                assert_eq!(restored.num_blocks(), fresh.num_blocks());
                assert_eq!(restored.owned_block_ids(ctx), fresh.owned_block_ids(ctx));
                assert_eq!(
                    restored.owned_packed_bytes(ctx),
                    fresh.owned_packed_bytes(ctx)
                );
                // Same reads.
                let back = restored.materialize(ctx);
                assert_eq!(back.num_reads(), lib.num_reads());
                for (id, read) in lib.iter() {
                    assert_eq!(back.read(id).seq, read.seq);
                    assert_eq!(back.read(id).qual, read.qual);
                }
            });
        }
    }

    #[test]
    fn owned_reads_cover_every_read_exactly_once() {
        let lib = library(25);
        for ranks in [1usize, 2, 5] {
            let team = Team::single_node(ranks);
            let lib2 = lib.clone();
            team.run(|ctx| {
                let store = ReadStore::build(
                    ctx,
                    &lib2,
                    &ReadStoreParams {
                        block_reads: 4,
                        ..Default::default()
                    },
                );
                let owned = |r: PackedReadView<'_>| {
                    (
                        r.codes.to_vec(),
                        r.exceptions.to_vec(),
                        r.qual_runs.to_vec(),
                    )
                };
                let mut source = store.owned_reads(ctx);
                let mut views = Vec::new();
                source.for_each_read(&mut |r| views.push(owned(r)));
                // Replay is identical (multi-pass contract).
                let mut again = Vec::new();
                source.for_each_read(&mut |r| again.push(owned(r)));
                assert_eq!(views, again);
                assert_eq!(
                    views,
                    source
                        .ids()
                        .iter()
                        .map(|&id| owned(PackedRead::from_read(lib2.read(id)).view()))
                        .collect::<Vec<_>>()
                );
                // Union over ranks covers the library exactly once.
                let mut all = ctx.gather(source.ids());
                if ctx.rank() == 0 {
                    all.sort_unstable();
                    assert_eq!(all, (0..lib2.num_reads() as ReadId).collect::<Vec<_>>());
                }
            });
        }
    }

    #[test]
    fn ingest_fastq_matches_build_and_streams_in_blocks() {
        let lib = library(30);
        let text = seqio::fastq::library_to_fastq(&lib);
        for ranks in [1usize, 4] {
            let team = Team::single_node(ranks);
            let lib2 = lib.clone();
            let text2 = text.clone();
            team.run(|ctx| {
                let store = ReadStore::ingest_fastq(
                    ctx,
                    "t",
                    &text2,
                    200,
                    20,
                    &ReadStoreParams {
                        block_reads: 8,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(store.num_reads(), lib2.num_reads());
                assert!(store.paired());
                assert_eq!(store.insert_size(), 200);
                let back = store.materialize(ctx);
                for (id, read) in lib2.iter() {
                    assert_eq!(back.read(id).seq, read.seq);
                    assert_eq!(back.read(id).qual, read.qual);
                }
            });
        }
    }

    #[test]
    fn ingest_fastq_rejects_odd_and_malformed_input() {
        let team = Team::single_node(2);
        team.run(|ctx| {
            let odd = "@r1\nACGT\n+\nIIII\n";
            assert!(
                ReadStore::ingest_fastq(ctx, "t", odd, 200, 20, &ReadStoreParams::default())
                    .is_err()
            );
            ctx.barrier();
            let bad = "@r1\nACGT\n+\nII\n@r2\nAC\n+\nII\n";
            assert!(
                ReadStore::ingest_fastq(ctx, "t", bad, 200, 20, &ReadStoreParams::default())
                    .is_err()
            );
        });
    }

    #[test]
    fn resident_accounting_stays_within_shard_plus_cache() {
        let lib = library(60);
        let ranks = 4usize;
        let cache_bytes = 512usize;
        let total_packed: usize = lib
            .reads
            .iter()
            .map(|r| PackedRead::from_read(r).packed_bytes())
            .sum();
        let team = Team::single_node(ranks);
        team.run(|ctx| {
            ctx.stats().reset();
            let store = ReadStore::build(
                ctx,
                &lib,
                &ReadStoreParams {
                    block_reads: 4,
                    cache_bytes,
                    batch: 64,
                },
            );
            let ids: Vec<ReadId> = (0..lib.num_reads() as ReadId).collect();
            assert!(store.fetch_packed(ctx, &ids).iter().all(Option::is_some));
            assert_eq!(store.stream(ctx, ids.clone()).count(), ids.len());
            ctx.barrier();
            let peak = ctx.stats().snapshot().read_bytes_resident as usize;
            // Hash partitioning over many small blocks is balanced to within
            // a few blocks; one block of slack covers the cache's
            // admit-then-evict overshoot too.
            let max_block = (0..store.num_blocks() as BlockId)
                .map(|b| {
                    let first = b as usize * store.block_reads();
                    let end = (first + store.block_reads()).min(lib.num_reads());
                    8 + lib.reads[first..end]
                        .iter()
                        .map(|r| PackedRead::from_read(r).packed_bytes())
                        .sum::<usize>()
                })
                .max()
                .unwrap();
            let bound = total_packed / ranks + 4 * max_block + cache_bytes;
            assert!(peak > 0, "residency must be recorded");
            assert!(peak <= bound, "peak {peak} > bound {bound}");
            assert!(ctx.stats().snapshot().read_fetch_bytes > 0);
        });
    }
}

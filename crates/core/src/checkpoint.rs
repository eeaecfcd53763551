//! Checkpoint/restart of the cross-iteration pipeline state: fault tolerance
//! with elastic resume.
//!
//! At the end of every non-final k iteration, [`crate::MetaHipMer`] can
//! serialise everything the next iteration needs — the current contig
//! store's shards, the read-store block map, the read-localisation
//! placement and the iteration position — into a versioned, checksummed
//! on-disk checkpoint. A later run pointed at the same directory resumes
//! from the newest checkpoint whose configuration fingerprint matches,
//! skipping the completed iterations, and produces byte-identical final
//! scaffolds.
//!
//! # On-disk format
//!
//! A committed checkpoint is a directory `ckpt_<iter>` holding one
//! `manifest.bin` (replicated state: fingerprint, iteration position,
//! contig metadata, localisation targets, read-store header) and one
//! `shard_<r>.bin` per writer rank (that rank's owned contig sequences and
//! packed read blocks). Every file starts with the magic `MHMCKPT1` and a
//! format version, followed by tagged sections framed as
//! `[tag u32][payload len u64][payload][crc32 u32]` — a flipped bit
//! anywhere is caught by the per-section CRC before any payload is trusted.
//!
//! Commits are atomic: all files are staged into a `.tmp_ckpt_<iter>`
//! directory, and only after every rank has written its shard does rank 0
//! write the manifest and `rename(2)` the staging directory to its final
//! name. A run killed mid-write leaves only a staging directory, which
//! discovery ([`find_latest`]) never looks at — a torn checkpoint is never
//! loadable.
//!
//! # Elastic resume
//!
//! Shard files record state keyed the same way the distributed tables key
//! it (contig id, block id), *not* by rank. A resuming team of R′ ranks
//! splits the writer's R shard files across its ranks
//! ([`load_shards_for_rank`]) and feeds the entries through
//! `ContigStore::restore` / `ReadStore::restore`, which re-route every
//! entry through the table's partitioner for the *new* rank count. The
//! read-localisation placement is persisted in its rank-count-independent
//! form (`ReadDistribution::targets`) and rebuilt with
//! `ReadDistribution::from_targets`. R′ may be larger or smaller than R;
//! the restored state is identical to what a fresh run at R′ ranks would
//! have built at the same cut point.

use dbg::{ContigMeta, PackedSeq};
use pgas::Ctx;
use readstore::{PackedRead, PackedReadBlock, ReadStoreHeader};
use seqio::PairOrientation;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: every checkpoint file starts with these 8 bytes.
pub const MAGIC: [u8; 8] = *b"MHMCKPT1";
/// Format version; bumped on any incompatible layout change.
pub const VERSION: u32 = 2;

const TAG_META: u32 = u32::from_be_bytes(*b"META");
const TAG_CTGM: u32 = u32::from_be_bytes(*b"CTGM");
const TAG_DIST: u32 = u32::from_be_bytes(*b"DIST");
const TAG_READ: u32 = u32::from_be_bytes(*b"READ");
const TAG_SCTG: u32 = u32::from_be_bytes(*b"SCTG");
const TAG_SRDB: u32 = u32::from_be_bytes(*b"SRDB");

// ---------------------------------------------------------------------------
// CRC32 (IEEE, polynomial 0xEDB88320) — the same checksum gzip/PNG use.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 of a byte slice (IEEE reflected, init/final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian payload encoding/decoding.
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.u64()? as usize;
        self.take(n)
    }
    fn done(&self) -> Result<(), String> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(format!(
                "payload holds {} trailing bytes",
                self.data.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Section framing: [tag u32][payload len u64][payload][crc32 u32].
// ---------------------------------------------------------------------------

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Splits a file body (after magic + version) into `(tag, payload)`
/// sections, verifying each section's CRC before its payload is exposed.
fn read_sections(body: &[u8]) -> Result<Vec<(u32, &[u8])>, String> {
    let mut d = Dec::new(body);
    let mut out = Vec::new();
    while d.pos < body.len() {
        let tag = d.u32()?;
        let len = d.u64()? as usize;
        let payload = d.take(len)?;
        let stored = d.u32()?;
        let actual = crc32(payload);
        if stored != actual {
            return Err(format!(
                "section {:?} CRC mismatch: stored {stored:#010x}, computed {actual:#010x}",
                tag.to_be_bytes().map(|b| b as char)
            ));
        }
        out.push((tag, payload));
    }
    Ok(out)
}

fn write_file_atomic(path: &Path, sections: &[(u32, Vec<u8>)]) -> Result<(), String> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for (tag, payload) in sections {
        push_section(&mut out, *tag, payload);
    }
    let mut f = fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    f.write_all(&out)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    f.sync_all()
        .map_err(|e| format!("sync {}: {e}", path.display()))?;
    Ok(())
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    let data = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if data.len() < MAGIC.len() + 4 || data[..MAGIC.len()] != MAGIC {
        return Err(format!("{} is not a checkpoint file", path.display()));
    }
    let version = u32::from_le_bytes(data[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
    if version != VERSION {
        return Err(format!(
            "{}: unsupported checkpoint version {version} (expected {VERSION})",
            path.display()
        ));
    }
    Ok(data[MAGIC.len() + 4..].to_vec())
}

// ---------------------------------------------------------------------------
// Manifest: the replicated half of a checkpoint.
// ---------------------------------------------------------------------------

/// Everything a resume needs that is not per-rank sequence data. Written
/// once per checkpoint by rank 0; replicated (read by every resuming rank).
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// [`crate::AssemblyConfig::fingerprint`] of the writing run; a resume
    /// under a different configuration refuses the checkpoint.
    pub fingerprint: u64,
    /// Rank count of the writing team (= number of shard files).
    pub ranks: usize,
    /// Index into `AssemblyConfig::k_values()` of the first iteration still
    /// to run.
    pub next_iter: usize,
    /// Pair count of the input library (sanity-checked against the resume
    /// input: a checkpoint is only valid for the data it was written from).
    pub num_pairs: usize,
    /// Barriers each rank had entered when the checkpoint committed
    /// (barrier counts are collective, hence rank-uniform). The
    /// fault-injection harness uses this to aim a kill *after* the commit.
    pub barriers_at_commit: u64,
    /// k of the checkpointed contig set.
    pub contig_k: usize,
    /// Replicated per-contig metadata, in id order (the shard entries are
    /// verified against it on restore).
    pub contig_meta: Vec<ContigMeta>,
    /// Read-localisation placement in rank-count-independent form
    /// (`ReadDistribution::targets`); `None` means the block distribution.
    pub targets: Option<Vec<u64>>,
    /// Read-store header. The format keeps it optional, as checkpoints
    /// written by runs that held the reads replicated carry none; the
    /// pipeline refuses to resume from such a checkpoint.
    pub read_header: Option<ReadStoreHeader>,
    /// Per-rank collective-conformance stamps `(ops, digest)` taken at the
    /// top of [`commit`]: the number of collective operations the rank had
    /// issued and the running digest over their descriptors. A conforming
    /// SPMD run produces identical stamps on every rank, so the decoder
    /// refuses a manifest whose stamps diverge — the writing run's
    /// collective schedule had already split when it checkpointed, and
    /// resuming from it would replay state of uncertain provenance.
    pub conformance: Vec<(u64, u64)>,
}

fn encode_manifest(m: &Manifest) -> Vec<(u32, Vec<u8>)> {
    let mut meta = Enc::new();
    meta.u64(m.fingerprint);
    meta.u64(m.ranks as u64);
    meta.u64(m.next_iter as u64);
    meta.u64(m.num_pairs as u64);
    meta.u64(m.barriers_at_commit);
    meta.u64(m.conformance.len() as u64);
    for &(ops, digest) in &m.conformance {
        meta.u64(ops);
        meta.u64(digest);
    }

    let mut ctgm = Enc::new();
    ctgm.u64(m.contig_k as u64);
    ctgm.u64(m.contig_meta.len() as u64);
    for cm in &m.contig_meta {
        ctgm.u32(cm.len);
        ctgm.f64(cm.depth);
    }

    let mut dist = Enc::new();
    match &m.targets {
        None => dist.u8(0),
        Some(targets) => {
            dist.u8(1);
            dist.u64(targets.len() as u64);
            for &t in targets {
                dist.u64(t);
            }
        }
    }

    let mut read = Enc::new();
    match &m.read_header {
        None => read.u8(0),
        Some(h) => {
            read.u8(1);
            read.bytes(h.name.as_bytes());
            read.u8(h.paired as u8);
            read.u64(h.insert_size as u64);
            read.u64(h.insert_sd as u64);
            read.u8(match h.orientation {
                PairOrientation::ForwardReverse => 0,
                PairOrientation::ReverseForward => 1,
            });
            read.u64(h.block_reads as u64);
            read.u64(h.lens.len() as u64);
            for &l in &h.lens {
                read.u32(l);
            }
        }
    }

    vec![
        (TAG_META, meta.buf),
        (TAG_CTGM, ctgm.buf),
        (TAG_DIST, dist.buf),
        (TAG_READ, read.buf),
    ]
}

fn decode_manifest(body: &[u8]) -> Result<Manifest, String> {
    let sections = read_sections(body)?;
    let find = |tag: u32| -> Result<&[u8], String> {
        sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or_else(|| {
                format!(
                    "manifest is missing section {:?}",
                    tag.to_be_bytes().map(|b| b as char)
                )
            })
    };

    let mut d = Dec::new(find(TAG_META)?);
    let fingerprint = d.u64()?;
    let ranks = d.u64()? as usize;
    let next_iter = d.u64()? as usize;
    let num_pairs = d.u64()? as usize;
    let barriers_at_commit = d.u64()?;
    let n_stamps = d.u64()? as usize;
    let mut conformance = Vec::with_capacity(n_stamps.min(1 << 20));
    for _ in 0..n_stamps {
        let ops = d.u64()?;
        let digest = d.u64()?;
        conformance.push((ops, digest));
    }
    d.done()?;
    if ranks == 0 {
        return Err("manifest declares zero writer ranks".to_string());
    }
    if let Some(&first) = conformance.first() {
        if let Some((skew, &stamp)) = conformance.iter().enumerate().find(|&(_, &s)| s != first) {
            return Err(format!(
                "checkpoint's collective schedule diverged before commit: rank 0 stamped \
                 (ops {}, digest {:#018x}) but rank {skew} stamped (ops {}, digest {:#018x}); \
                 refusing to resume from a non-conforming run",
                first.0, first.1, stamp.0, stamp.1
            ));
        }
    }

    let mut d = Dec::new(find(TAG_CTGM)?);
    let contig_k = d.u64()? as usize;
    let n = d.u64()? as usize;
    let mut contig_meta = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        contig_meta.push(ContigMeta {
            len: d.u32()?,
            depth: d.f64()?,
        });
    }
    d.done()?;

    let mut d = Dec::new(find(TAG_DIST)?);
    let targets = match d.u8()? {
        0 => None,
        1 => {
            let n = d.u64()? as usize;
            let mut t = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                t.push(d.u64()?);
            }
            Some(t)
        }
        other => return Err(format!("bad distribution flag {other}")),
    };
    d.done()?;

    let mut d = Dec::new(find(TAG_READ)?);
    let read_header = match d.u8()? {
        0 => None,
        1 => {
            let name = String::from_utf8(d.bytes()?.to_vec())
                .map_err(|_| "library name is not UTF-8".to_string())?;
            let paired = d.u8()? != 0;
            let insert_size = d.u64()? as usize;
            let insert_sd = d.u64()? as usize;
            let orientation = match d.u8()? {
                0 => PairOrientation::ForwardReverse,
                1 => PairOrientation::ReverseForward,
                other => return Err(format!("bad pair orientation {other}")),
            };
            let block_reads = d.u64()? as usize;
            let n = d.u64()? as usize;
            let mut lens = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                lens.push(d.u32()?);
            }
            Some(ReadStoreHeader {
                name,
                paired,
                insert_size,
                insert_sd,
                orientation,
                block_reads,
                lens,
            })
        }
        other => return Err(format!("bad read-header flag {other}")),
    };
    d.done()?;

    Ok(Manifest {
        fingerprint,
        ranks,
        next_iter,
        num_pairs,
        barriers_at_commit,
        contig_k,
        contig_meta,
        targets,
        read_header,
        conformance,
    })
}

/// Loads and validates one checkpoint's manifest.
pub fn load_manifest(ckpt_dir: &Path) -> Result<Manifest, String> {
    decode_manifest(&read_file(&ckpt_dir.join("manifest.bin"))?)
}

// ---------------------------------------------------------------------------
// Shards: one file per writer rank, holding its owned table entries.
// ---------------------------------------------------------------------------

/// One rank's slice of the sharded state: its owned contig sequences and
/// packed read blocks. Keys are global (contig id, block id), so a resuming
/// team at any rank count can re-route them through its own partitioners.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardData {
    pub contigs: Vec<(u64, PackedSeq)>,
    pub read_blocks: Vec<(u64, PackedReadBlock)>,
}

fn encode_packed_seq(e: &mut Enc, seq: &PackedSeq) {
    let (len, data, exceptions) = seq.to_parts();
    e.u64(len as u64);
    e.bytes(data);
    e.u64(exceptions.len() as u64);
    for &(pos, b) in exceptions {
        e.u32(pos);
        e.u8(b);
    }
}

fn decode_packed_seq(d: &mut Dec) -> Result<PackedSeq, String> {
    let len = d.u64()? as usize;
    let data = d.bytes()?.to_vec();
    let n = d.u64()? as usize;
    if data.len() != len.div_ceil(4) {
        return Err(format!(
            "packed sequence of {len} bases has {} code bytes",
            data.len()
        ));
    }
    let mut exceptions = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        exceptions.push((d.u32()?, d.u8()?));
    }
    let sorted = exceptions.windows(2).all(|w| w[0].0 < w[1].0)
        && exceptions.last().is_none_or(|&(p, _)| (p as usize) < len);
    if !sorted {
        return Err("exception list is unsorted or out of bounds".to_string());
    }
    Ok(PackedSeq::from_parts(len, data, exceptions))
}

fn encode_shard(shard: &ShardData) -> Vec<(u32, Vec<u8>)> {
    let mut sctg = Enc::new();
    sctg.u64(shard.contigs.len() as u64);
    for (id, seq) in &shard.contigs {
        sctg.u64(*id);
        encode_packed_seq(&mut sctg, seq);
    }

    let mut srdb = Enc::new();
    srdb.u64(shard.read_blocks.len() as u64);
    for (block_id, block) in &shard.read_blocks {
        srdb.u64(*block_id);
        srdb.u64(block.first_id());
        srdb.u64(block.reads().len() as u64);
        for read in block.reads() {
            let (seq, qual_runs) = read.to_parts();
            encode_packed_seq(&mut srdb, seq);
            srdb.u64(qual_runs.len() as u64);
            for &(q, run) in qual_runs {
                srdb.u8(q);
                srdb.u8(run);
            }
        }
    }

    vec![(TAG_SCTG, sctg.buf), (TAG_SRDB, srdb.buf)]
}

fn decode_shard(body: &[u8]) -> Result<ShardData, String> {
    let sections = read_sections(body)?;
    let find = |tag: u32| -> Result<&[u8], String> {
        sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or_else(|| {
                format!(
                    "shard is missing section {:?}",
                    tag.to_be_bytes().map(|b| b as char)
                )
            })
    };

    let mut d = Dec::new(find(TAG_SCTG)?);
    let n = d.u64()? as usize;
    let mut contigs = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = d.u64()?;
        contigs.push((id, decode_packed_seq(&mut d)?));
    }
    d.done()?;

    let mut d = Dec::new(find(TAG_SRDB)?);
    let n = d.u64()? as usize;
    let mut read_blocks = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let block_id = d.u64()?;
        let first_id = d.u64()?;
        let reads_n = d.u64()? as usize;
        let mut reads = Vec::with_capacity(reads_n.min(1 << 20));
        for _ in 0..reads_n {
            let seq = decode_packed_seq(&mut d)?;
            let runs_n = d.u64()? as usize;
            let mut qual_runs = Vec::with_capacity(runs_n.min(1 << 20));
            for _ in 0..runs_n {
                qual_runs.push((d.u8()?, d.u8()?));
            }
            let covered: usize = qual_runs.iter().map(|&(_, run)| run as usize).sum();
            if covered != seq.len() {
                return Err(format!(
                    "quality runs cover {covered} bases of a {}-base read",
                    seq.len()
                ));
            }
            reads.push(PackedRead::from_parts(seq, qual_runs));
        }
        read_blocks.push((block_id, PackedReadBlock::new(first_id, reads)));
    }
    d.done()?;

    Ok(ShardData {
        contigs,
        read_blocks,
    })
}

/// Loads and validates one writer rank's shard file.
pub fn load_shard(ckpt_dir: &Path, writer_rank: usize) -> Result<ShardData, String> {
    decode_shard(&read_file(
        &ckpt_dir.join(format!("shard_{writer_rank}.bin")),
    )?)
}

/// Loads the slice of a checkpoint's shard files that resuming rank `rank`
/// of `ranks` is responsible for: the writer's `writer_ranks` files are
/// block-partitioned over the new team, so every file is read by exactly
/// one resuming rank regardless of how the two team sizes compare.
pub fn load_shards_for_rank(
    ckpt_dir: &Path,
    rank: usize,
    ranks: usize,
    writer_ranks: usize,
) -> Result<ShardData, String> {
    let mut out = ShardData::default();
    for w in pgas::team::block_range_for(rank, ranks, writer_ranks) {
        let mut shard = load_shard(ckpt_dir, w)?;
        out.contigs.append(&mut shard.contigs);
        out.read_blocks.append(&mut shard.read_blocks);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Discovery and atomic commit.
// ---------------------------------------------------------------------------

/// The directory of a committed checkpoint for iteration boundary `iter`.
pub fn checkpoint_dir(dir: &Path, next_iter: usize) -> PathBuf {
    dir.join(format!("ckpt_{next_iter}"))
}

fn staging_dir(dir: &Path, next_iter: usize) -> PathBuf {
    dir.join(format!(".tmp_ckpt_{next_iter}"))
}

/// Finds the newest committed checkpoint in `dir` whose manifest parses,
/// passes every CRC and carries `fingerprint`. Staging directories (torn
/// writes) and checkpoints from other configurations are skipped silently;
/// a corrupt manifest disqualifies its checkpoint rather than the resume.
pub fn find_latest(dir: &Path, fingerprint: u64) -> Option<(Manifest, PathBuf)> {
    let entries = fs::read_dir(dir).ok()?;
    let mut iters: Vec<usize> = entries
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("ckpt_")?.parse().ok()
        })
        .collect();
    iters.sort_unstable();
    for iter in iters.into_iter().rev() {
        let path = checkpoint_dir(dir, iter);
        match load_manifest(&path) {
            Ok(m) if m.fingerprint == fingerprint && m.next_iter == iter => {
                return Some((m, path));
            }
            _ => {}
        }
    }
    None
}

/// **Collective** atomic commit of one checkpoint: rank 0 prepares the
/// staging directory, every rank writes its own shard file into it, and
/// rank 0 then writes the manifest (stamping the collective barrier count)
/// and renames the staging directory into place. Until the rename, the
/// checkpoint does not exist as far as [`find_latest`] is concerned; after
/// it, every file inside has already been written and synced.
pub fn commit(ctx: &Ctx, dir: &Path, mut manifest: Manifest, shard: &ShardData) {
    let stage = staging_dir(dir, manifest.next_iter);
    let target = checkpoint_dir(dir, manifest.next_iter);
    manifest.ranks = ctx.ranks();
    // Gather every rank's conformance stamp *before* the staging collectives
    // below perturb the op counts: each rank reads its own (ops, digest) at
    // the same point in the schedule and ships it to rank 0. The gather
    // itself is a collective, but it runs after the stamps were read, so the
    // stamps describe the application's schedule up to this commit.
    let (ops, digest) = ctx.team().conformance_stamp(ctx.rank());
    let mut stamps = ctx.gather(vec![(ctx.rank() as u64, ops, digest)]);
    if ctx.rank() == 0 {
        stamps.sort_unstable_by_key(|&(rank, _, _)| rank);
        manifest.conformance = stamps.into_iter().map(|(_, o, d)| (o, d)).collect();
        if stage.exists() {
            fs::remove_dir_all(&stage)
                .unwrap_or_else(|e| panic!("checkpoint: clear stale staging dir: {e}"));
        }
        fs::create_dir_all(&stage)
            .unwrap_or_else(|e| panic!("checkpoint: create staging dir: {e}"));
    }
    ctx.barrier();
    let shard_path = stage.join(format!("shard_{}.bin", ctx.rank()));
    write_file_atomic(&shard_path, &encode_shard(shard))
        .unwrap_or_else(|e| panic!("checkpoint: {e}"));
    ctx.barrier();
    if ctx.rank() == 0 {
        // Stamp the rank-uniform barrier count as of this commit so a fault
        // harness can aim a kill strictly after the checkpoint exists.
        manifest.barriers_at_commit = ctx.barriers_entered();
        write_file_atomic(&stage.join("manifest.bin"), &encode_manifest(&manifest))
            .unwrap_or_else(|e| panic!("checkpoint: {e}"));
        if target.exists() {
            fs::remove_dir_all(&target)
                .unwrap_or_else(|e| panic!("checkpoint: clear old checkpoint: {e}"));
        }
        fs::rename(&stage, &target).unwrap_or_else(|e| panic!("checkpoint: commit rename: {e}"));
        expire_old_checkpoints(dir, KEEP_CHECKPOINTS);
    }
    ctx.barrier();
}

/// How many committed checkpoints [`commit`] retains (at least 1 — the
/// checkpoint just committed is never its own sweep victim).
const KEEP_CHECKPOINTS: usize = 3;

/// Removes stale checkpoint state from `dir`: every leftover staging
/// directory (a torn write from a killed run — its iteration's commit either
/// never happened or happened through a later, complete staging pass) and
/// all but the newest `keep` committed `ckpt_*` directories. Runs on rank 0
/// only, strictly *after* the commit rename, so the newest checkpoint — the
/// one [`find_latest`] would hand a concurrent resume — is never a victim:
/// the sweep deletes only strictly older iterations. Removal errors are
/// ignored (a half-removed old checkpoint fails its CRC pass and is skipped
/// by discovery anyway).
pub fn expire_old_checkpoints(dir: &Path, keep: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut committed: Vec<usize> = Vec::new();
    for entry in entries.flatten() {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if name.strip_prefix(".tmp_ckpt_").is_some() {
            let _ = fs::remove_dir_all(entry.path());
        } else if let Some(iter) = name.strip_prefix("ckpt_").and_then(|s| s.parse().ok()) {
            committed.push(iter);
        }
    }
    committed.sort_unstable();
    let keep = keep.max(1);
    if committed.len() > keep {
        for &iter in &committed[..committed.len() - keep] {
            let _ = fs::remove_dir_all(checkpoint_dir(dir, iter));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        Manifest {
            fingerprint: 0xDEADBEEFCAFEF00D,
            ranks: 3,
            next_iter: 1,
            num_pairs: 12,
            barriers_at_commit: 321,
            contig_k: 21,
            contig_meta: vec![
                ContigMeta {
                    len: 100,
                    depth: 12.5,
                },
                ContigMeta {
                    len: 37,
                    depth: 2.0,
                },
            ],
            targets: Some(vec![0, u64::MAX, 5, 1]),
            read_header: Some(ReadStoreHeader {
                name: "lib".to_string(),
                paired: true,
                insert_size: 280,
                insert_sd: 25,
                orientation: PairOrientation::ForwardReverse,
                block_reads: 4,
                lens: vec![90, 90, 88, 90],
            }),
            conformance: vec![(321, 0xFEED_FACE); 3],
        }
    }

    fn sample_shard() -> ShardData {
        let seq = PackedSeq::from_bytes(b"ACGTNACGTACG");
        let read = PackedRead::from_parts(PackedSeq::from_bytes(b"ACGT"), vec![(40, 3), (2, 1)]);
        ShardData {
            contigs: vec![(0, seq.clone()), (7, PackedSeq::from_bytes(b"TTT"))],
            read_blocks: vec![(3, PackedReadBlock::new(12, vec![read.clone(), read]))],
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn manifest_round_trips() {
        for manifest in [
            sample_manifest(),
            Manifest {
                targets: None,
                read_header: None,
                contig_meta: Vec::new(),
                conformance: Vec::new(),
                ..sample_manifest()
            },
        ] {
            let dir = tempdir("manifest_rt");
            let path = dir.join("ck");
            fs::create_dir_all(&path).unwrap();
            write_file_atomic(&path.join("manifest.bin"), &encode_manifest(&manifest)).unwrap();
            assert_eq!(load_manifest(&path).unwrap(), manifest);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn shard_round_trips() {
        let shard = sample_shard();
        let dir = tempdir("shard_rt");
        fs::create_dir_all(&dir).unwrap();
        write_file_atomic(&dir.join("shard_2.bin"), &encode_shard(&shard)).unwrap();
        assert_eq!(load_shard(&dir, 2).unwrap(), shard);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_flipped_bit_is_refused() {
        // Flip one bit at a time across the whole file: the load must fail
        // every single time (CRC, framing or magic), never deliver wrong
        // data, and never panic.
        let dir = tempdir("flip");
        fs::create_dir_all(&dir).unwrap();
        write_file_atomic(
            &dir.join("manifest.bin"),
            &encode_manifest(&sample_manifest()),
        )
        .unwrap();
        let clean = fs::read(dir.join("manifest.bin")).unwrap();
        assert!(load_manifest(&dir).is_ok());
        let step = (clean.len() / 97).max(1);
        for byte in (0..clean.len()).step_by(step) {
            let mut corrupt = clean.clone();
            corrupt[byte] ^= 0x10;
            fs::write(dir.join("manifest.bin"), &corrupt).unwrap();
            let loaded = decode_manifest(&read_file(&dir.join("manifest.bin")).unwrap_or_default());
            assert!(
                load_manifest(&dir).is_err() || loaded != Ok(sample_manifest()),
                "flipped byte {byte} went unnoticed"
            );
            assert!(
                load_manifest(&dir).is_err(),
                "flipped byte {byte} loaded anyway"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_refused() {
        let dir = tempdir("trunc");
        fs::create_dir_all(&dir).unwrap();
        write_file_atomic(&dir.join("shard_0.bin"), &encode_shard(&sample_shard())).unwrap();
        let clean = fs::read(dir.join("shard_0.bin")).unwrap();
        for cut in [0, 4, MAGIC.len() + 3, clean.len() / 2, clean.len() - 1] {
            fs::write(dir.join("shard_0.bin"), &clean[..cut]).unwrap();
            assert!(load_shard(&dir, 0).is_err(), "truncation at {cut} loaded");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn find_latest_skips_foreign_torn_and_stale_checkpoints() {
        let dir = tempdir("latest");
        let manifest = sample_manifest();
        // Committed checkpoints for iterations 0 and 1.
        for iter in [0usize, 1] {
            let path = checkpoint_dir(&dir, iter);
            fs::create_dir_all(&path).unwrap();
            let m = Manifest {
                next_iter: iter,
                ..manifest.clone()
            };
            write_file_atomic(&path.join("manifest.bin"), &encode_manifest(&m)).unwrap();
        }
        // A torn write: staging dir only, never renamed.
        fs::create_dir_all(staging_dir(&dir, 2)).unwrap();
        // A foreign checkpoint (different fingerprint) at a later iteration.
        let foreign = checkpoint_dir(&dir, 3);
        fs::create_dir_all(&foreign).unwrap();
        let m = Manifest {
            next_iter: 3,
            fingerprint: 1,
            ..manifest.clone()
        };
        write_file_atomic(&foreign.join("manifest.bin"), &encode_manifest(&m)).unwrap();
        // A corrupt later checkpoint.
        let corrupt = checkpoint_dir(&dir, 4);
        fs::create_dir_all(&corrupt).unwrap();
        fs::write(corrupt.join("manifest.bin"), b"garbage").unwrap();

        let (found, path) = find_latest(&dir, manifest.fingerprint).expect("checkpoint found");
        assert_eq!(found.next_iter, 1, "newest valid matching checkpoint wins");
        assert_eq!(path, checkpoint_dir(&dir, 1));
        assert!(find_latest(&dir, 0xF00).is_none(), "no fingerprint match");
        assert!(find_latest(Path::new("/nonexistent/nowhere"), 1).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn divergent_conformance_stamps_are_refused() {
        let mut manifest = sample_manifest();
        manifest.conformance[2] = (320, 0x0BAD_CAFE);
        let dir = tempdir("diverged");
        let path = dir.join("ck");
        fs::create_dir_all(&path).unwrap();
        write_file_atomic(&path.join("manifest.bin"), &encode_manifest(&manifest)).unwrap();
        let err = load_manifest(&path).unwrap_err();
        assert!(
            err.contains("collective schedule diverged") && err.contains("rank 2"),
            "unexpected diagnostic: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweeper_keeps_newest_checkpoints_and_clears_staging() {
        let dir = tempdir("sweep");
        let manifest = sample_manifest();
        for iter in 0..5usize {
            let path = checkpoint_dir(&dir, iter);
            fs::create_dir_all(&path).unwrap();
            let m = Manifest {
                next_iter: iter,
                ..manifest.clone()
            };
            write_file_atomic(&path.join("manifest.bin"), &encode_manifest(&m)).unwrap();
        }
        fs::create_dir_all(staging_dir(&dir, 5)).unwrap();

        expire_old_checkpoints(&dir, 2);
        assert!(!staging_dir(&dir, 5).exists(), "staging dir survived sweep");
        for iter in 0..3usize {
            assert!(!checkpoint_dir(&dir, iter).exists(), "ckpt_{iter} survived");
        }
        for iter in 3..5usize {
            assert!(checkpoint_dir(&dir, iter).exists(), "ckpt_{iter} swept");
        }
        // The checkpoint discovery would hand a resume is intact afterwards.
        let (found, _) = find_latest(&dir, manifest.fingerprint).expect("resume target intact");
        assert_eq!(found.next_iter, 4);

        // keep=0 is clamped: the newest checkpoint is never a sweep victim.
        expire_old_checkpoints(&dir, 0);
        assert!(checkpoint_dir(&dir, 4).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The commit-then-sweep order means a resume that called [`find_latest`]
    /// between two commits still loads a live directory: the sweep after
    /// commit `i+1` deletes only iterations older than the kept window, so
    /// with `keep >= 2` the checkpoint a racing resume just discovered is
    /// still on disk.
    #[test]
    fn resume_never_races_the_sweeper_within_the_kept_window() {
        let dir = tempdir("race");
        let manifest = sample_manifest();
        let commit_iter = |iter: usize| {
            let path = checkpoint_dir(&dir, iter);
            fs::create_dir_all(&path).unwrap();
            let m = Manifest {
                next_iter: iter,
                ..manifest.clone()
            };
            write_file_atomic(&path.join("manifest.bin"), &encode_manifest(&m)).unwrap();
            expire_old_checkpoints(&dir, 2);
        };
        commit_iter(0);
        commit_iter(1);
        // A resume discovers ckpt_1 ...
        let (found, path) = find_latest(&dir, manifest.fingerprint).unwrap();
        assert_eq!(found.next_iter, 1);
        // ... the writer commits iteration 2 (sweeping ckpt_0) ...
        commit_iter(2);
        // ... and the discovered checkpoint still loads.
        assert_eq!(load_manifest(&path).unwrap().next_iter, 1);
        assert!(!checkpoint_dir(&dir, 0).exists(), "oldest not swept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_slices_cover_every_writer_file_exactly_once() {
        let dir = tempdir("slices");
        fs::create_dir_all(&dir).unwrap();
        let writer_ranks = 3;
        for w in 0..writer_ranks {
            let shard = ShardData {
                contigs: vec![(w as u64, PackedSeq::from_bytes(b"ACGT"))],
                read_blocks: Vec::new(),
            };
            write_file_atomic(&dir.join(format!("shard_{w}.bin")), &encode_shard(&shard)).unwrap();
        }
        for ranks in [1usize, 2, 3, 6] {
            let mut seen: Vec<u64> = Vec::new();
            for r in 0..ranks {
                let s = load_shards_for_rank(&dir, r, ranks, writer_ranks).unwrap();
                seen.extend(s.contigs.iter().map(|(id, _)| *id));
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2], "ranks={ranks}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A unique temp directory under the target dir (no external tempfile
    /// crate; tests clean up after themselves).
    fn tempdir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("mhm_ckpt_test_{tag}_{pid}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }
}

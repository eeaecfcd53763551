//! The guard rows of the experiment runner: each assembles `mg64_tiny`
//! ([`datasets::mg64_tiny`]) — except `ablation_simd`, which times the
//! compute kernels on pseudo-random sequences — exits non-zero unless its
//! hard claims hold, and writes its `BENCH_*.json` snapshot. CI runs all of
//! them (`mhm_bench -- guards`).

use kmers::kernels;
use mhm_bench::datasets;
use mhm_bench::{fmt, json_records, print_table, sweep, write_snapshot, Record};
use mhm_core::{checkpoint, AssemblyConfig, MetaHipMer};
use pgas::{FaultPlan, StatsSnapshot};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The rank counts every sweep guard assembles at.
const RANKS: [usize; 4] = [1, 2, 4, 8];

/// A digest as a JSON string.
fn digest_json(digest: u64) -> String {
    format!("\"{digest:016x}\"")
}

// The last numbers of the per-hop walker and the per-k-mer analysis that the
// segment traversal and supermer routing replaced, measured at commit a84ffc4
// (the parent of the change that removed them) on `mg64_tiny`. They barely
// move with the rank count (walker traffic 1,943,757–1,944,145 at 1–8 ranks,
// its bytes not at all) and are properties of that dataset: change the
// dataset and they must be re-derived, not scaled.

/// A fifth of the per-hop walker's `graph_traversal` traffic (1,943,757
/// events at 1 rank): the ≥5× claim of the segment traversal.
const TRAVERSAL_TRAFFIC_BOUND: u64 = 388_751;
/// The per-hop walker's `graph_traversal` bytes. The stitch rounds only
/// re-ship still-unresolved chain heads, so the segment path has to move
/// fewer bytes than that at every rank count (at 2+ ranks it once blew up to
/// 36.9–86.5 MB because cross-rank cycles chased until the round cap).
const TRAVERSAL_BYTES_BOUND: u64 = 33_775_560;
/// A quarter of the per-k-mer analysis's `kmer_analysis` bytes (682,852,704
/// at 1 rank): the ≥4× claim of supermer routing.
const KMER_ANALYSIS_BYTES_BOUND: u64 = 170_713_176;

/// `ablation_traversal`: the traffic guard of the default configuration.
///
/// Contig generation is the latency-bound stage of the paper's pipeline: the
/// §II-D per-hop walker touches one remote vertex per k-mer per walk. The
/// segment traversal compacts each rank's owned shard in memory and stitches
/// the owner-local segments with a handful of aggregated rounds, so its
/// traffic is `O(owner crossings)` aggregated messages instead of
/// `O(contig length)` fine-grained lookups; k-mer analysis likewise ships
/// packed supermers, not one packed k-mer per observation. Assembles at 1, 2,
/// 4 and 8 ranks and fails unless the graph-traversal traffic (fine-grained
/// accesses plus aggregated messages, each one network message on real
/// hardware), the graph-traversal bytes and the k-mer-analysis bytes stay
/// under the retired paths' frozen numbers. Snapshot: `BENCH_traversal.json`.
pub fn traversal() {
    let ds = datasets::mg64_tiny();
    let runs = sweep(&ds, RANKS.map(|r| (r, ())), |()| AssemblyConfig::default());
    let mut records: Vec<Record> = Vec::new();
    for (_, run) in &runs {
        let ranks = run.ranks;
        let traversal = run.output.stage_stats("graph_traversal");
        let analysis = run.output.stage_stats("kmer_analysis");
        let traffic = traversal.fine_grained_ops() + traversal.msgs_sent;
        records.push(vec![
            ("ranks", ranks.to_string()),
            ("traversal_traffic", traffic.to_string()),
            ("traversal_bytes", traversal.bytes_sent.to_string()),
            ("stitch_rounds", traversal.traversal_rounds.to_string()),
            ("stitch_bytes", traversal.stitch_bytes.to_string()),
            ("kmer_analysis_bytes", analysis.bytes_sent.to_string()),
            ("scaffold_digest", digest_json(run.digest)),
            ("scaffolds", run.output.scaffolds.len().to_string()),
        ]);
        assert!(
            traffic <= TRAVERSAL_TRAFFIC_BOUND,
            "graph_traversal traffic must stay <= {TRAVERSAL_TRAFFIC_BOUND} at {ranks} ranks, \
             got {traffic}"
        );
        assert!(
            traversal.bytes_sent <= TRAVERSAL_BYTES_BOUND,
            "graph_traversal bytes must stay <= {TRAVERSAL_BYTES_BOUND} at {ranks} ranks, got {}",
            traversal.bytes_sent
        );
        assert!(
            analysis.bytes_sent <= KMER_ANALYSIS_BYTES_BOUND,
            "kmer_analysis bytes must stay <= {KMER_ANALYSIS_BYTES_BOUND} at {ranks} ranks, \
             got {}",
            analysis.bytes_sent
        );
    }
    print_table("Traffic guard — default configuration", &records);
    let runs = json_records(&records);
    write_snapshot(
        "BENCH_traversal.json",
        "ablation_traversal",
        &ds.name,
        vec![("runs", runs)],
    );
}

/// Per-rank reader cache bound of the store guards (small enough that the
/// shard, not the cache, dominates residency at every rank count).
const CACHE_BYTES: usize = 32 << 10;

/// The default configuration's `mg64_tiny` scaffold digest (615 scaffolds)
/// at every rank count, which both store guards pin.
const MG64_TINY_DIGEST: u64 = 0xac15_04b5_c8e9_3641;

// The per-rank peak resident bytes of the replicated holders the stores
// replaced, measured at commit b7c4a00 (the parent of the change that removed
// them) on `mg64_tiny`: every rank held the whole replica, so each is the
// same at 1, 2, 4 and 8 ranks. They are properties of that dataset: change
// the dataset and they must be re-derived, not scaled.

/// The replicated `ContigSet`: every raw contig base on every rank.
const REPLICATED_CONTIG_BYTES: u64 = 263_032;
/// The replicated `ReadLibrary`: every raw sequence, quality and name byte of
/// the input on every rank.
const REPLICATED_READ_BYTES: u64 = 7_248_276;

/// One distributed store, as its guard row holds it against the replicated
/// holder it replaced.
struct Store {
    row: &'static str,
    /// `"contig"` or `"read"`.
    what: &'static str,
    file: &'static str,
    /// The replica's per-rank resident bytes.
    replicated: u64,
    /// Sets the store's reader-cache bound.
    configure: fn(&mut AssemblyConfig),
    /// The per-rank peak resident bytes (owned shard + reader caches).
    resident: fn(&StatsSnapshot) -> u64,
    /// Packed bytes fetched on cache misses, and their snapshot key.
    fetched: fn(&StatsSnapshot) -> u64,
    fetch_key: &'static str,
}

/// `ablation_contig_store`: the sharded `dbg::ContigStore` against a full
/// `ContigSet` replica per rank, O(total assembly size) contig bytes each —
/// the single-node memory ceiling the paper's PGAS design removes. See
/// [`store`] for the claims.
pub fn contig_store() {
    store(&Store {
        row: "ablation_contig_store",
        what: "contig",
        file: "BENCH_contig_mem.json",
        replicated: REPLICATED_CONTIG_BYTES,
        configure: |cfg| cfg.contig_cache_bytes = CACHE_BYTES,
        resident: |s| s.contig_bytes_resident,
        fetched: |s| s.contig_fetch_bytes,
        fetch_key: "contig_fetch_bytes",
    })
}

/// `ablation_read_store`: the block-sharded `readstore::ReadStore` (2-bit
/// packed, run-length-encoded qualities, names dropped) against a full
/// `ReadLibrary` replica per rank — the other half of the memory ceiling.
/// See [`store`] for the claims.
pub fn read_store() {
    store(&Store {
        row: "ablation_read_store",
        what: "read",
        file: "BENCH_read_mem.json",
        replicated: REPLICATED_READ_BYTES,
        configure: |cfg| cfg.read_cache_bytes = CACHE_BYTES,
        resident: |s| s.read_bytes_resident,
        fetched: |s| s.read_fetch_bytes,
        fetch_key: "read_fetch_bytes",
    })
}

/// Runs the assembly at 1, 2, 4 and 8 ranks and fails unless, at every rank
/// count, the scaffolds are the default configuration's, every rank's peak
/// resident bytes stay within `replicated/ranks + cache_bytes` (the packing
/// margin absorbs shard imbalance), and the peak-residency ratio replicated /
/// distributed stays at or above `max(1.8, ranks/2)`: at one rank the win is
/// pure 2-bit packing, at higher rank counts sharding compounds it, diluted
/// on this tiny dataset by the fixed cache bound. The ratio assertion doubles
/// as the drift guard on the snapshot's contents.
fn store(store: &Store) {
    let ds = datasets::mg64_tiny();
    let runs = sweep(&ds, RANKS.map(|r| (r, ())), |()| {
        let mut cfg = AssemblyConfig::default();
        (store.configure)(&mut cfg);
        cfg
    });
    let mut records: Vec<Record> = Vec::new();
    let rep_max = store.replicated;
    for (_, distributed) in &runs {
        let ranks = distributed.ranks;
        let dist_max = distributed
            .per_rank
            .iter()
            .map(store.resident)
            .max()
            .unwrap_or(0);
        let ratio = rep_max as f64 / dist_max.max(1) as f64;
        let bound = rep_max / ranks as u64 + CACHE_BYTES as u64;
        records.push(vec![
            ("ranks", ranks.to_string()),
            ("resident_replicated_max", rep_max.to_string()),
            ("resident_distributed_max", dist_max.to_string()),
            ("residency_bound", bound.to_string()),
            ("cache_bytes", CACHE_BYTES.to_string()),
            ("mem_ratio", fmt(ratio, 2)),
            (
                store.fetch_key,
                (store.fetched)(&distributed.total()).to_string(),
            ),
            ("scaffold_digest", digest_json(distributed.digest)),
            ("scaffolds", distributed.output.scaffolds.len().to_string()),
        ]);
        assert_eq!(
            distributed.digest, MG64_TINY_DIGEST,
            "the scaffolds at {ranks} ranks are not the default configuration's"
        );
        for (rank, snapshot) in distributed.per_rank.iter().enumerate() {
            let resident = (store.resident)(snapshot);
            assert!(
                resident <= bound,
                "rank {rank}/{ranks}: resident {} bytes {resident} exceed \
                 total/ranks + cache = {bound}",
                store.what
            );
        }
        let min_ratio = (ranks as f64 / 2.0).max(1.8);
        assert!(
            ratio >= min_ratio,
            "memory ratio drifted below {min_ratio:.0}x at {ranks} ranks: \
             {ratio:.1}x ({rep_max} -> {dist_max})"
        );
    }
    print_table(
        &format!("Ablation — distributed {} store", store.what),
        &records,
    );
    write_snapshot(
        store.file,
        store.row,
        &ds.name,
        vec![("runs", json_records(&records))],
    );
}

/// Stages that read the distributed read store by one-sided block stream
/// (`local_assembly` also fetches stolen contigs that way): their off-node
/// messages are only partly routable, so they are held to "never grows".
const ONE_SIDED_STAGES: [&str; 3] = ["alignment", "local_assembly", "scaffolding"];

// The off-node traffic of the flat rank-to-rank exchange that node-leader
// routing replaced, at 8 ranks / 2 per node, measured at commit 6297b1c (the
// parent of the change that removed the flat path) on `mg64_tiny`. They are
// properties of that dataset and topology: change either and they must be
// re-derived, not scaled.
//
// A change that removes collective traffic from a deterministic stage (every
// stage but `local_assembly`) re-derives them by one rule. At its parent this
// guard proves that stage's routed off-node bytes equal its frozen flat bytes
// (their sum is asserted equal, each stage's bounded above). So the change
// sets the stage's flat bytes to its new routed bytes, and lowers
// `FLAT_DETERMINISTIC_OFF_NODE_BYTES` and the bytes of `FLAT_RUN_OFF_NODE` by
// the same difference. Message counts cannot be re-derived that way: routing
// combines messages, so the flat ones stay as upper bounds.

/// Per stage: `(stage, off-node messages, off-node bytes)` of the flat path.
/// `local_assembly`'s share moves between runs (work stealing decides which
/// rank fetches a contig block). The bytes of `bubble_pruning` and
/// `scaffolding` are re-derived by the rule above: both stages now decide
/// their replicated graphs on every rank, with no anchor hash table or
/// collective rounds.
const FLAT_STAGE_OFF_NODE: [(&str, u64, u64); 9] = [
    ("read_ingestion", 0, 0),
    ("kmer_analysis", 98, 10_750_518),
    ("graph_traversal", 2_069, 24_458_924),
    ("bubble_pruning", 682, 435_216),
    ("alignment", 12_884, 36_864_000),
    ("local_assembly", 3_632, 584_776),
    ("read_localization", 6, 195_232),
    ("kmer_merging", 48, 284_484),
    ("scaffolding", 10_032, 14_313_896),
];
/// The flat path's off-node messages over the stages outside
/// [`ONE_SIDED_STAGES`], whose every off-node message is routable.
const FLAT_ROUTED_STAGES_OFF_NODE_MSGS: u64 = 2_903;
/// The flat path's off-node bytes over every stage but `local_assembly`.
const FLAT_DETERMINISTIC_OFF_NODE_BYTES: u64 = 87_302_270;
/// The flat path's off-node `(messages, bytes)` over the whole run.
const FLAT_RUN_OFF_NODE: (u64, u64) = (29_463, 87_908_806);

/// `ablation_topology`: two-level (node-leader) exchange routing against the
/// flat all-to-all's frozen numbers.
///
/// The paper packs 32 ranks onto each Cori node, so the expensive resource is
/// the inter-node link. On every multi-node team the exchange gathers each
/// node's off-node batches at a node leader, ships one combined message per
/// destination node and scatters on-node at the receiver: the payload bytes
/// of a rank-to-rank send, up to `ranks_per_node`× fewer off-node messages
/// per direction. Assembles at 1, 2, 4 and 8 ranks across `ranks_per_node`
/// ∈ {1, 2, ranks} and fails unless:
///
/// * the scaffolds are byte-identical across the whole sweep;
/// * at 8 ranks / 2 per node, no aggregated stage moves more off-node bytes
///   or messages than the flat path did ([`FLAT_STAGE_OFF_NODE`]), and the
///   deterministic stages' off-node payload equals the flat path's;
/// * over the stages whose off-node messages all come from aggregated
///   collectives, the off-node message count is at least 2× below the flat
///   path's.
///
/// The 2× holds over those stages and not over the run, because node
/// leaders can only combine what passes a collective point: the
/// [`ONE_SIDED_STAGES`] also issue one-sided gets, which no leader can
/// gather (the read stream alone is 6,686 of alignment's 8,508 two-level
/// messages, the same 6,686 as flat). Snapshot: `BENCH_topology.json`.
pub fn topology() {
    let ds = datasets::mg64_tiny();
    let points = RANKS.into_iter().flat_map(|ranks| {
        let mut rpns = vec![1, 2, ranks];
        rpns.sort_unstable();
        rpns.dedup();
        rpns.into_iter().map(move |rpn| (ranks, rpn))
    });
    let runs = sweep(&ds, points, |rpn| AssemblyConfig {
        ranks_per_node: rpn,
        ..Default::default()
    });
    let mut records: Vec<Record> = Vec::new();
    for (rpn, run) in &runs {
        let t = run.total();
        records.push(vec![
            ("ranks", run.ranks.to_string()),
            ("ranks_per_node", rpn.to_string()),
            ("off_node_msgs", t.off_node_msgs.to_string()),
            ("on_node_msgs", t.on_node_msgs.to_string()),
            ("off_node_bytes", t.off_node_bytes.to_string()),
            ("on_node_bytes", t.on_node_bytes.to_string()),
            ("off_node_byte_fraction", fmt(t.off_node_byte_fraction(), 4)),
            ("scaffold_digest", digest_json(run.digest)),
            ("scaffolds", run.output.scaffolds.len().to_string()),
        ]);
    }
    print_table("Ablation — two-level (node-leader) exchange", &records);

    // ---- The hard claims at 8 ranks / 2 ranks-per-node ----------------------
    let routed = &runs
        .iter()
        .find(|(rpn, run)| run.ranks == 8 && *rpn == 2)
        .expect("run present")
        .1;
    let staged: Vec<(&str, (u64, u64), StatsSnapshot)> = routed
        .output
        .stages
        .iter()
        .map(|(name, _, hs)| {
            let &(_, msgs, bytes) = FLAT_STAGE_OFF_NODE
                .iter()
                .find(|(stage, _, _)| stage == name)
                .unwrap_or_else(|| panic!("stage {name} has no frozen flat numbers"));
            (name.as_str(), (msgs, bytes), *hs)
        })
        .collect();
    // The table first, so a failing assert below carries its numbers.
    let stage_records: Vec<Record> = staged
        .iter()
        .map(|(name, (flat_msgs, flat_bytes), hs)| {
            let routing = if ONE_SIDED_STAGES.contains(name) {
                "partly (one-sided gets)"
            } else {
                "all"
            };
            vec![
                ("Stage", name.to_string()),
                ("Routed", routing.to_string()),
                ("Off msgs flat", flat_msgs.to_string()),
                ("Off msgs 2-level", hs.off_node_msgs.to_string()),
                ("Off bytes flat", flat_bytes.to_string()),
                ("Off bytes 2-level", hs.off_node_bytes.to_string()),
            ]
        })
        .collect();
    print_table(
        "8 ranks / 2 per node, per stage: flat (frozen at 6297b1c) -> two-level",
        &stage_records,
    );
    for (name, (flat_msgs, flat_bytes), hs) in &staged {
        // Nothing aggregated crossed the interconnect, or — local assembly —
        // dynamic work stealing decides which rank fetches a contig block,
        // and so whether its one-sided read crosses the node boundary: that
        // split is load-balancing noise, not routing.
        if *flat_msgs == 0 || *name == "local_assembly" {
            continue;
        }
        assert!(
            *flat_bytes >= hs.off_node_bytes,
            "stage {name}: off-node bytes grew: flat={flat_bytes} routed={}",
            hs.off_node_bytes
        );
        assert!(
            hs.off_node_msgs <= *flat_msgs,
            "stage {name}: off-node messages grew: flat={flat_msgs} routed={}",
            hs.off_node_msgs
        );
    }
    let routed_msgs: u64 = staged
        .iter()
        .filter(|(name, _, _)| !ONE_SIDED_STAGES.contains(name))
        .map(|(_, _, hs)| hs.off_node_msgs)
        .sum();
    let routed_flat = FLAT_ROUTED_STAGES_OFF_NODE_MSGS;
    let routed_ratio = routed_flat as f64 / (routed_msgs as f64).max(1.0);
    assert!(
        routed_ratio >= 2.0,
        "expected >= 2x fewer off-node messages over the fully routed stages at 8 ranks / \
         2 rpn, got {routed_ratio:.2}x ({routed_flat} -> {routed_msgs})"
    );
    let total = routed.total();
    let (flat_msgs, flat_bytes) = FLAT_RUN_OFF_NODE;
    let msg_ratio = flat_msgs as f64 / (total.off_node_msgs as f64).max(1.0);
    // Byte neutrality: node-leader routing repackages off-node traffic but
    // never grows it. Summed over the deterministic stages (work stealing
    // excluded, as above) the off-node payload must be *identical* to the
    // flat path's; over the whole run it must stay within the stealing
    // jitter.
    let det_off: u64 = staged
        .iter()
        .filter(|(name, _, _)| *name != "local_assembly")
        .map(|(_, _, hs)| hs.off_node_bytes)
        .sum();
    assert_eq!(
        det_off, FLAT_DETERMINISTIC_OFF_NODE_BYTES,
        "off-node payload bytes must equal the flat path's in the deterministic stages"
    );
    let routed_bytes = total.off_node_bytes;
    assert!(
        (flat_bytes.abs_diff(routed_bytes) as f64) < 0.01 * flat_bytes as f64,
        "total off-node bytes diverged beyond stealing jitter: flat={flat_bytes} \
         routed={routed_bytes}"
    );
    println!(
        "8 ranks / 2 rpn: off-node messages {routed_flat} -> {routed_msgs} ({routed_ratio:.1}x) \
         over the fully routed stages, {flat_msgs} -> {} ({msg_ratio:.2}x) over the run; \
         off-node bytes unchanged at {det_off} (deterministic stages)",
        total.off_node_msgs,
    );
    write_snapshot(
        "BENCH_topology.json",
        "ablation_topology",
        &ds.name,
        vec![
            ("routed_off_msg_ratio", fmt(routed_ratio, 2)),
            ("off_msg_ratio", fmt(msg_ratio, 2)),
            ("runs", json_records(&records)),
        ],
    );
}

/// Deterministic pseudo-random ACGT sequence.
fn pseudo_seq(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b"ACGT"[(x & 3) as usize]
        })
        .collect()
}

/// Best-of-`trials` wall time of `work`; the returned sink defeats dead-code
/// elimination.
fn time_best(trials: usize, work: &mut dyn FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..trials {
        let t = Instant::now();
        sink = sink.wrapping_add(work());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, sink)
}

/// Times `work(false)` (the scalar twin) and then `work(true)` (the kernel)
/// on identical inputs, best of several trials each, and fails unless both
/// return the same value and the kernel is at least 2× faster.
fn bench_kernel(name: &'static str, mut work: impl FnMut(bool) -> u64) -> Record {
    const TRIALS: usize = 7;
    const FLOOR: f64 = 2.0;
    let (scalar_s, a) = time_best(TRIALS, &mut || work(false));
    let (kernel_s, b) = time_best(TRIALS, &mut || work(true));
    assert_eq!(a, b, "{name}: kernel and scalar twin disagree");
    let ratio = scalar_s / kernel_s;
    assert!(
        ratio >= FLOOR,
        "{name} speedup {ratio:.2}x below the {FLOOR:.1}x floor \
         (scalar {scalar_s:.4}s vs kernel {kernel_s:.4}s)"
    );
    vec![
        ("kernel", format!("\"{name}\"")),
        ("scalar_s", fmt(scalar_s, 6)),
        ("kernel_s", fmt(kernel_s, 6)),
        ("speedup", fmt(ratio, 2)),
        ("floor", fmt(FLOOR, 1)),
    ]
}

/// Reverse complements every window 20 times with `revcomp`; a sum of the
/// results' low words.
fn revcomp_sum(
    windows: &[[u64; 4]],
    k: usize,
    revcomp: impl Fn(&[u64; 4], usize) -> [u64; 4],
) -> u64 {
    let mut sink = 0u64;
    for _ in 0..20 {
        for w in windows {
            sink = sink.wrapping_add(black_box(revcomp(w, k))[0]);
        }
    }
    sink
}

/// `ablation_simd`: the word-parallel/SIMD compute kernels (`kmers::kernels`
/// over `mhm_simd`) against their scalar twins.
///
/// Times each kernel against its twin by direct call (best of several trials
/// on identical pseudo-random inputs) and fails unless the revcomp,
/// bulk-encode and bulk-decode kernels each agree with their twins and are
/// at least 2× faster. Snapshot: `BENCH_simd.json`.
pub fn simd() {
    let level = mhm_simd::level().name();
    println!("dispatch level: {level}");

    const BASES: usize = 1 << 20;
    const K: usize = 95;
    let seq = pseudo_seq(BASES, 0x5EED_CAFE);
    let mut noisy = seq.clone();
    for i in (0..BASES).step_by(997) {
        noisy[i] = b'N';
    }
    let mut packed = vec![0u8; BASES.div_ceil(4)];
    kernels::pack_ascii(&seq, &mut packed, |_, _| {});
    let windows: Vec<[u64; 4]> = (0..2_000)
        .map(|i| kernels::encode_words(&seq[i * 97..i * 97 + K]).expect("clean bases"))
        .collect();
    let mut data = vec![0u8; BASES.div_ceil(4)];
    let mut out = Vec::with_capacity(BASES);

    let records = vec![
        bench_kernel("revcomp_k95", |kernel| {
            if kernel {
                revcomp_sum(&windows, K, kernels::revcomp_words)
            } else {
                revcomp_sum(&windows, K, kernels::revcomp_words_scalar)
            }
        }),
        bench_kernel("bulk_encode_1mb", |kernel| {
            data.fill(0);
            let mut exceptions = 0u64;
            if kernel {
                kernels::pack_ascii(&noisy, &mut data, |_, _| exceptions += 1);
            } else {
                kernels::pack_ascii_scalar(&noisy, &mut data, |_, _| exceptions += 1);
            }
            black_box(&data);
            data[0] as u64 + exceptions
        }),
        bench_kernel("bulk_decode_1mb", |kernel| {
            out.clear();
            if kernel {
                kernels::unpack_ascii(&packed, 0, BASES, &mut out);
            } else {
                kernels::unpack_ascii_scalar(&packed, 0, BASES, &mut out);
            }
            black_box(&out);
            out[0] as u64
        }),
    ];
    print_table(
        &format!("Kernel vs scalar twin (dispatch level: {level})"),
        &records,
    );
    write_snapshot(
        "BENCH_simd.json",
        "ablation_simd",
        "pseudo_random_1mb",
        vec![
            ("dispatch_level", format!("\"{level}\"")),
            ("kernels", json_records(&records)),
        ],
    );
}

/// Total bytes of every file under a committed checkpoint directory.
fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(meta) = e.metadata() {
                if meta.is_file() {
                    total += meta.len();
                } else if meta.is_dir() {
                    total += dir_bytes(&e.path());
                }
            }
        }
    }
    total
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mhm_ablation_ckpt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const WRITER_RANKS: usize = 2;

/// `ablation_checkpoint`: checkpoint/restart with elastic rank-count resume
/// under an injected rank fault (`core::checkpoint`).
///
/// Turns "kill after iteration i, restart elsewhere, identical output" into
/// a checked property. On the same dataset it runs:
///
/// 1. an uninterrupted baseline (2 ranks, no checkpointing) — the golden
///    scaffolds;
/// 2. the same run with checkpointing on — byte-identical, and its
///    `checkpoint_write` stage is the write overhead;
/// 3. a run with a [`FaultPlan`] armed to kill rank 1 just after the
///    iteration-0 commit (aimed with the manifest's collective barrier
///    stamp) — must fail, leaving a committed checkpoint behind;
/// 4. resumes of that dead run at 2×, half and the same rank count — each
///    byte-identical to the baseline; `checkpoint_restore` is the restore
///    overhead.
///
/// Local assembly is off, as in the pipeline's rank-invariance test: its
/// dynamically scheduled extension walk is the one stage whose output is not
/// a pure function of the rank count, and the property checked here is
/// cross-rank-count byte equality. Snapshot: `BENCH_checkpoint.json`.
pub fn checkpoint() {
    let ds = datasets::mg64_tiny();
    let cfg = AssemblyConfig {
        local_assembly: false,
        ..Default::default()
    };
    assert!(
        cfg.k_values().len() >= 2,
        "need at least one k boundary to checkpoint at"
    );
    let run = |edit: &dyn Fn(&mut AssemblyConfig), ranks: usize| {
        let mut cfg = cfg.clone();
        edit(&mut cfg);
        ds.run(&MetaHipMer::new(cfg), ranks)
    };

    // ---- 1. Uninterrupted baseline ------------------------------------------
    let baseline = run(&|_| {}, WRITER_RANKS);
    let (golden, scaffolds) = (baseline.digest, baseline.output.scaffolds.len());
    println!(
        "baseline: {scaffolds} scaffolds, digest {golden:016x}, {:.2}s, {}",
        baseline.output.total_seconds,
        ds.evaluate(&baseline.output).summary_line()
    );

    // ---- 2. Same run, checkpointing on: overhead + byte equality ------------
    let clean_dir = scratch("clean");
    let written = run(
        &|cfg| cfg.checkpoint_dir = Some(clean_dir.clone()),
        WRITER_RANKS,
    );
    assert_eq!(written.digest, golden, "checkpointing changed the assembly");
    let write_seconds = written.output.stage_seconds("checkpoint_write");
    assert!(write_seconds > 0.0, "checkpoint_write stage not recorded");
    let write_frac = write_seconds / written.output.total_seconds.max(1e-9);
    let (manifest, clean_ckpt) = checkpoint::find_latest(&clean_dir, cfg.fingerprint())
        .expect("checkpoint committed by the clean run");
    let ckpt_bytes = dir_bytes(&clean_ckpt);
    println!(
        "checkpointed: write {write_seconds:.3}s ({:.1}% of {:.2}s), {} bytes on disk, \
         commit at barrier {}",
        100.0 * write_frac,
        written.output.total_seconds,
        ckpt_bytes,
        manifest.barriers_at_commit
    );

    // ---- 3. Kill rank 1 right after the iteration-0 commit ------------------
    // Barrier counts are deterministic and rank-uniform, so the clean run's
    // commit stamp aims a fresh run's fault precisely past the commit.
    let fault_dir = scratch("fault");
    let mut fault_cfg = cfg.clone();
    fault_cfg.checkpoint_dir = Some(fault_dir.clone());
    let team = fault_cfg.team(WRITER_RANKS);
    let fault_at = manifest.barriers_at_commit + 16;
    team.set_fault_plan(Some(FaultPlan {
        rank: 1,
        after_barriers: fault_at,
    }));
    let fault = MetaHipMer::new(fault_cfg)
        .try_assemble(&team, &ds.sim.library, Some(&ds.sim.rrna_consensus))
        .expect_err("armed fault must kill the run");
    println!("fault run: {fault} (as planned)");
    assert_eq!(fault.rank, 1);
    let (fault_manifest, _) = checkpoint::find_latest(&fault_dir, cfg.fingerprint())
        .expect("iteration-0 checkpoint must have committed before the kill");
    assert_eq!(fault_manifest.next_iter, 1);

    // ---- 4. Elastic resumes of the dead run ---------------------------------
    let mut resumes: Vec<Record> = Vec::new();
    for ranks in [2 * WRITER_RANKS, WRITER_RANKS / 2, WRITER_RANKS] {
        let resumed = run(
            &|cfg| {
                cfg.checkpoint_dir = Some(fault_dir.clone());
                cfg.resume = true;
            },
            ranks,
        );
        assert_eq!(
            resumed.digest, golden,
            "resume at {ranks} ranks diverged from the uninterrupted run"
        );
        let restore_seconds = resumed.output.stage_seconds("checkpoint_restore");
        assert!(
            restore_seconds > 0.0,
            "resume at {ranks} ranks did not restore from the checkpoint"
        );
        resumes.push(vec![
            ("ranks", ranks.to_string()),
            ("restore_seconds", fmt(restore_seconds, 4)),
            ("total_seconds", fmt(resumed.output.total_seconds, 4)),
            ("scaffold_digest", digest_json(resumed.digest)),
            ("byte_identical", "true".to_string()),
        ]);
    }
    print_table(
        &format!("Ablation — checkpoint/restart, writer on {WRITER_RANKS} ranks: resumes"),
        &resumes,
    );
    write_snapshot(
        "BENCH_checkpoint.json",
        "ablation_checkpoint",
        &ds.name,
        vec![
            ("writer_ranks", WRITER_RANKS.to_string()),
            ("baseline_seconds", fmt(baseline.output.total_seconds, 4)),
            ("checkpointed_seconds", fmt(written.output.total_seconds, 4)),
            ("write_seconds", fmt(write_seconds, 4)),
            ("write_overhead_frac", fmt(write_frac, 4)),
            ("checkpoint_bytes", ckpt_bytes.to_string()),
            (
                "barriers_at_commit",
                manifest.barriers_at_commit.to_string(),
            ),
            (
                "fault",
                format!(
                    "{{\"rank\": {}, \"after_barriers\": {fault_at}}}",
                    fault.rank
                ),
            ),
            ("scaffold_digest", digest_json(golden)),
            ("scaffolds", scaffolds.to_string()),
            ("resumes", json_records(&resumes)),
        ],
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}

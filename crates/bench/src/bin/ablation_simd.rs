//! Ablation: word-parallel/SIMD compute kernels vs their scalar twins.
//!
//! PRs 2–6 removed the communication bottlenecks; the remaining hot loops are
//! pure compute — reverse complement / canonical comparison on packed k-mers,
//! bulk ASCII↔2-bit translation in the codecs, and the aligner's ungapped
//! window verification. `kmers::kernels` + `mhm_simd` replace those per-base
//! loops with word-parallel and SSE2/AVX2 implementations behind runtime
//! dispatch, keeping the scalar twins selectable via `MHM_FORCE_SCALAR=1`.
//!
//! This harness times each kernel against its scalar twin (best of several
//! trials on identical inputs) and runs the full assembler in both dispatch
//! modes at 1 and 4 ranks. It exits non-zero unless:
//!
//! * the dispatched revcomp, bulk-encode, bulk-decode and verify kernels are
//!   each at least 2x their scalar twins (canonical is reported but not
//!   load-bearing: its first-base early exit speeds the *scalar* mode too,
//!   so its ratio understates the kernel win), and
//! * the scaffolds are **byte-identical** between `MHM_FORCE_SCALAR=1` and
//!   the dispatched path at both rank counts — dispatch must never change
//!   results, only speed.
//!
//! The measured ratios are written to `BENCH_simd.json`; the >=2x assertion
//! doubles as the CI drift guard on that file's contents.

use baselines::{Assembler, MetaHipMerAssembler};
use kmers::kernels;
use kmers::Kmer;
use mhm_bench::{fmt, print_table, scaffold_digest, scaled_eval_params, team};
use mhm_core::AssemblyConfig;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

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

struct KernelRow {
    name: &'static str,
    scalar_s: f64,
    fast_s: f64,
    /// Hard floor asserted on the ratio (0.0 = report only).
    floor: f64,
}

impl KernelRow {
    fn ratio(&self) -> f64 {
        self.scalar_s / self.fast_s
    }
}

/// Times `work` with the kernels pinned to scalar and then dispatched.
fn bench_kernel(name: &'static str, floor: f64, mut work: impl FnMut() -> u64) -> KernelRow {
    const TRIALS: usize = 7;
    mhm_simd::set_force_scalar(true);
    let (scalar_s, a) = time_best(TRIALS, &mut work);
    mhm_simd::set_force_scalar(false);
    let (fast_s, b) = time_best(TRIALS, &mut work);
    black_box((a, b));
    KernelRow {
        name,
        scalar_s,
        fast_s,
        floor,
    }
}

fn run() {
    mhm_simd::set_force_scalar(false);
    let level = mhm_simd::level().name();
    println!("dispatch level: {level}");

    // --- kernel micro-timings on identical inputs in both modes ------------
    const BASES: usize = 1 << 20;
    let seq = pseudo_seq(BASES, 0x5EED_CAFE);
    let mut noisy = seq.clone();
    for i in (0..BASES).step_by(997) {
        noisy[i] = b'N';
    }
    let mut packed = vec![0u8; BASES.div_ceil(4)];
    kernels::pack_ascii(&seq, &mut packed, |_, _| {});
    let kmer_windows: Vec<Kmer> = (0..2_000)
        .map(|i| Kmer::from_bytes(&seq[i * 97..i * 97 + 95]).expect("clean bases"))
        .collect();
    // Correlated pair for the verify kernel: ~85% agreement plus N runs.
    let read_side: Vec<u8> = noisy
        .iter()
        .enumerate()
        .map(|(i, &b)| if i % 7 == 0 { b'A' } else { b })
        .collect();

    let rows = vec![
        bench_kernel("revcomp_k95", 2.0, || {
            let mut sink = 0u64;
            for _ in 0..20 {
                for km in &kmer_windows {
                    sink = sink.wrapping_add(black_box(km.revcomp()).first_code() as u64);
                }
            }
            sink
        }),
        bench_kernel("canonical_k95", 0.0, || {
            let mut sink = 0u64;
            for _ in 0..20 {
                for km in &kmer_windows {
                    sink = sink.wrapping_add(black_box(km.canonical()).0.first_code() as u64);
                }
            }
            sink
        }),
        bench_kernel("bulk_encode_1mb", 2.0, {
            let mut data = vec![0u8; BASES.div_ceil(4)];
            let noisy = noisy.clone();
            move || {
                data.fill(0);
                let mut exceptions = 0u64;
                kernels::pack_ascii(&noisy, &mut data, |_, _| exceptions += 1);
                black_box(&data);
                data[0] as u64 + exceptions
            }
        }),
        bench_kernel("bulk_decode_1mb", 2.0, {
            let packed = packed.clone();
            let mut out = Vec::with_capacity(BASES);
            move || {
                out.clear();
                kernels::unpack_ascii(&packed, 0, BASES, &mut out);
                black_box(&out);
                out[0] as u64
            }
        }),
        bench_kernel("verify_window_1mb", 2.0, || {
            let mut sink = 0u64;
            for _ in 0..8 {
                sink = sink
                    .wrapping_add(mhm_simd::match_count_except(&noisy, &read_side, b'N') as u64);
            }
            sink
        }),
    ];

    print_table(
        &format!("Kernel vs scalar twin (dispatch level: {level})"),
        &["kernel", "scalar s", "kernel s", "speedup", "floor"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    fmt(r.scalar_s, 4),
                    fmt(r.fast_s, 4),
                    format!("{}x", fmt(r.ratio(), 2)),
                    if r.floor > 0.0 {
                        format!(">={}x", fmt(r.floor, 1))
                    } else {
                        "report".to_string()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- end-to-end equality across dispatch modes -------------------------
    let ds = mgsim::mg64_sim(mgsim::Mg64Scale::Tiny, 20260808);
    let eval = scaled_eval_params();
    let mut e2e = Vec::new();
    let mut e2e_rows = Vec::new();
    for ranks in [1usize, 4] {
        let mut digests = Vec::new();
        let mut times = Vec::new();
        for force_scalar in [true, false] {
            mhm_simd::set_force_scalar(force_scalar);
            let team = team(ranks);
            let assembler = MetaHipMerAssembler {
                config: AssemblyConfig::default(),
            };
            let start = Instant::now();
            let output = assembler.assemble(&team, &ds.library, Some(&ds.rrna_consensus));
            times.push(start.elapsed().as_secs_f64());
            let seqs = output.sequences();
            let report = asm_metrics::evaluate(&seqs, &ds.refs, &eval);
            digests.push((scaffold_digest(&seqs), seqs.len(), report.n50));
        }
        mhm_simd::set_force_scalar(false);
        assert_eq!(
            digests[0].0, digests[1].0,
            "ranks={ranks}: scaffolds must be byte-identical across dispatch modes"
        );
        println!(
            "ranks={ranks}: digest {:016x} identical across modes ({} scaffolds, N50 {})",
            digests[0].0, digests[0].1, digests[0].2
        );
        e2e_rows.push(vec![
            ranks.to_string(),
            fmt(times[0], 2),
            fmt(times[1], 2),
            format!("{:016x}", digests[0].0),
        ]);
        e2e.push((ranks, times[0], times[1], digests[0].0));
    }
    print_table(
        "End-to-end assembly across dispatch modes",
        &["ranks", "scalar s", "kernel s", "scaffold digest"],
        &e2e_rows,
    );

    // --- hard claims --------------------------------------------------------
    for r in &rows {
        if r.floor > 0.0 {
            assert!(
                r.ratio() >= r.floor,
                "{} speedup {:.2}x below the {:.1}x floor (scalar {:.4}s vs kernel {:.4}s)",
                r.name,
                r.ratio(),
                r.floor,
                r.scalar_s,
                r.fast_s
            );
        }
    }
    println!("\nall kernel floors met; scaffolds identical across dispatch modes");

    // --- snapshot -----------------------------------------------------------
    let kernel_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"scalar_s\": {:.6}, \"kernel_s\": {:.6}, \
                 \"speedup\": {:.2}}}",
                r.name,
                r.scalar_s,
                r.fast_s,
                r.ratio()
            )
        })
        .collect();
    let e2e_json: Vec<String> = e2e
        .iter()
        .map(|(ranks, scalar_s, fast_s, digest)| {
            format!(
                "    {{\"ranks\": {ranks}, \"scalar_s\": {scalar_s:.2}, \
                 \"kernel_s\": {fast_s:.2}, \"scaffold_digest\": \"{digest:016x}\"}}"
            )
        })
        .collect();
    let snapshot = format!(
        "{{\n  \"dispatch_level\": \"{level}\",\n  \"kernels\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ]\n}}\n",
        kernel_json.join(",\n"),
        e2e_json.join(",\n")
    );
    let path = "BENCH_simd.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(snapshot.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

fn main() {
    // Exit non-zero even when a failure happens on a spawned rank thread
    // whose join result nobody inspects (see mhm_bench::harness_exit_code).
    mhm_bench::run_harness(run);
}

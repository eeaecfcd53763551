//! Ablation: two-level (node-leader) exchange routing vs the flat all-to-all.
//!
//! The paper's machines pack 32 ranks onto each Cori node, so the expensive
//! resource is the *inter-node* link: aggregation that treats all ranks alike
//! still pays one interconnect message per (rank, remote rank) pair per
//! flush. Hierarchical routing gathers each node's off-node batches at a
//! node leader, ships **one** combined message per destination node, and
//! scatters on-node at the receiver — same payload bytes across the
//! interconnect, up to `ranks_per_node`× fewer off-node messages per
//! direction.
//!
//! This harness assembles the same dataset at 1, 2, 4 and 8 ranks across
//! `ranks_per_node` ∈ {1, 2, ranks}, with the hierarchical exchange on and
//! off, and checks the hard claims:
//!
//! * scaffolds are byte-identical across **every** topology and routing mode
//!   (one digest for the whole sweep);
//! * at 8 ranks / 2 ranks-per-node, every aggregated pipeline stage moves at
//!   least `ranks_per_node/2`× fewer off-node bytes under hierarchical
//!   routing (the payload never grows — bytes are equal, so the factor-1
//!   bound holds stage by stage) and never more off-node messages;
//! * over the stages whose off-node messages *all* come from aggregated
//!   collectives, the off-node message count drops at least 2×.
//!
//! The 2× is asserted over those stages and not over the run, because node
//! leaders can only combine what passes a collective point. Three stages
//! ([`ONE_SIDED_STAGES`]) also issue one-sided gets — a rank fetching a
//! read-store block, or a stolen contig's reads, whenever *it* needs them —
//! and a point-to-point get has no moment at which a leader could gather it
//! with its neighbours'. Since k-mer analysis shrank to ~100 messages those
//! gets are most of what crosses the interconnect (the read stream alone is
//! 6,686 of alignment's 8,508 two-level messages, the same 6,686 as flat), so
//! the whole-run ratio measures the mix of stages, not the routing.
//!
//! The measured splits are written to `BENCH_topology.json` so CI can guard
//! against drift in the off-node message ratio.

use baselines::{Assembler, MetaHipMerAssembler};
use mhm_bench::{fmt, print_table, scaffold_digest, scaled_eval_params};
use mhm_core::AssemblyConfig;
use pgas::StatsSnapshot;
use std::io::Write;

/// Stages that read the distributed read store by one-sided block stream
/// (`local_assembly` also fetches stolen contigs that way): their off-node
/// messages are only partly routable, so they are held to "never grows".
const ONE_SIDED_STAGES: [&str; 3] = ["alignment", "local_assembly", "scaffolding"];

struct Run {
    ranks: usize,
    rpn: usize,
    hier: bool,
    totals: StatsSnapshot,
    stages: Vec<(String, StatsSnapshot)>,
    digest: u64,
    scaffolds: usize,
}

fn run() {
    let ds = mgsim::mg64_sim(mgsim::Mg64Scale::Tiny, 20260614);
    let eval = scaled_eval_params();

    let mut runs: Vec<Run> = Vec::new();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for ranks in [1usize, 2, 4, 8] {
        let mut rpns = vec![1, 2, ranks];
        rpns.sort_unstable();
        rpns.dedup();
        for rpn in rpns {
            for hier in [false, true] {
                let cfg = AssemblyConfig {
                    ranks_per_node: rpn,
                    use_hierarchical_exchange: hier,
                    ..Default::default()
                };
                let team = cfg.team(ranks);
                let assembler = MetaHipMerAssembler { config: cfg };
                let out = assembler.assemble(&team, &ds.library, Some(&ds.rrna_consensus));
                let seqs = out.sequences();
                match &reference {
                    None => reference = Some(seqs.clone()),
                    Some(r) => assert_eq!(
                        &seqs, r,
                        "scaffolds must be byte-identical at ranks={ranks} rpn={rpn} hier={hier}"
                    ),
                }
                runs.push(Run {
                    ranks,
                    rpn,
                    hier,
                    totals: team.stats_total(),
                    stages: out.stages.iter().map(|(n, _, s)| (n.clone(), *s)).collect(),
                    digest: scaffold_digest(&seqs),
                    scaffolds: seqs.len(),
                });
            }
        }
    }
    let reference = reference.expect("at least one run");
    let report = asm_metrics::evaluate(&reference, &ds.refs, &eval);
    println!(
        "assembly (identical across all {} runs): {}",
        runs.len(),
        report.summary_line()
    );

    // ---- The hard claims at 8 ranks / 2 ranks-per-node ----------------------
    let find = |ranks: usize, rpn: usize, hier: bool| -> &Run {
        runs.iter()
            .find(|r| r.ranks == ranks && r.rpn == rpn && r.hier == hier)
            .expect("run present")
    };
    let (flat, hier) = (find(8, 2, false), find(8, 2, true));
    let staged: Vec<(&str, &StatsSnapshot, &StatsSnapshot)> = flat
        .stages
        .iter()
        .map(|(name, fs)| {
            let hs = &hier
                .stages
                .iter()
                .find(|(n, _)| n == name)
                .expect("stage sets match")
                .1;
            (name.as_str(), fs, hs)
        })
        .collect();
    // The table first, so a failing assert below carries its numbers.
    let stage_rows: Vec<Vec<String>> = staged
        .iter()
        .map(|(name, fs, hs)| {
            let routing = if ONE_SIDED_STAGES.contains(name) {
                "partly (one-sided gets)"
            } else {
                "all"
            };
            vec![
                name.to_string(),
                routing.to_string(),
                fs.off_node_msgs.to_string(),
                hs.off_node_msgs.to_string(),
                fs.off_node_bytes.to_string(),
                hs.off_node_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "8 ranks / 2 per node, per stage: flat -> two-level",
        &[
            "Stage",
            "Routed",
            "Off msgs flat",
            "Off msgs 2-level",
            "Off bytes flat",
            "Off bytes 2-level",
        ],
        &stage_rows,
    );
    let rpn_factor = 1.0; // ranks_per_node / 2 at rpn = 2
    for (name, fs, hs) in &staged {
        if fs.off_node_msgs == 0 {
            continue; // nothing aggregated crossed the interconnect here
        }
        if *name == "local_assembly" {
            // Dynamic work stealing races ranks on a shared grab counter, so
            // *which* rank fetches a contig block — and therefore whether the
            // one-sided read crosses the node boundary — varies run to run.
            // The routing claims below are exact only for the deterministic
            // aggregated stages; this stage's split is load-balancing noise.
            continue;
        }
        assert!(
            fs.off_node_bytes as f64 >= hs.off_node_bytes as f64 * rpn_factor,
            "stage {name}: expected >= {rpn_factor}x fewer off-node bytes, \
             flat={} hier={}",
            fs.off_node_bytes,
            hs.off_node_bytes
        );
        assert!(
            hs.off_node_msgs <= fs.off_node_msgs,
            "stage {name}: off-node messages grew: flat={} hier={}",
            fs.off_node_msgs,
            hs.off_node_msgs
        );
    }
    let (routed_flat, routed_hier) = staged
        .iter()
        .filter(|(name, _, _)| !ONE_SIDED_STAGES.contains(name))
        .fold((0u64, 0u64), |(flat, hier), (_, fs, hs)| {
            (flat + fs.off_node_msgs, hier + hs.off_node_msgs)
        });
    let routed_ratio = routed_flat as f64 / (routed_hier as f64).max(1.0);
    assert!(
        routed_ratio >= 2.0,
        "expected >= 2x fewer off-node messages over the fully routed stages at 8 ranks / \
         2 rpn, got {routed_ratio:.2}x ({routed_flat} -> {routed_hier})"
    );
    let msg_ratio = flat.totals.off_node_msgs as f64 / (hier.totals.off_node_msgs as f64).max(1.0);
    // Byte neutrality: node-leader routing repackages off-node traffic but
    // never grows it. Summed over the deterministic stages (work stealing
    // excluded, as above) the off-node payload must be *identical* in both
    // modes; over the whole run it must stay within the stealing jitter.
    let det_off = |r: &Run| -> u64 {
        r.stages
            .iter()
            .filter(|(n, _)| n != "local_assembly")
            .map(|(_, s)| s.off_node_bytes)
            .sum()
    };
    assert_eq!(
        det_off(flat),
        det_off(hier),
        "off-node payload bytes must be identical across routing modes \
         in the deterministic stages"
    );
    let (ft, ht) = (flat.totals.off_node_bytes, hier.totals.off_node_bytes);
    assert!(
        (ft.abs_diff(ht) as f64) < 0.01 * ft as f64,
        "total off-node bytes diverged beyond stealing jitter: flat={ft} hier={ht}"
    );
    println!(
        "8 ranks / 2 rpn: off-node messages {routed_flat} -> {routed_hier} ({routed_ratio:.1}x) \
         over the fully routed stages, {} -> {} ({msg_ratio:.2}x) over the run; \
         off-node bytes unchanged at {} (deterministic stages)",
        flat.totals.off_node_msgs,
        hier.totals.off_node_msgs,
        det_off(hier)
    );

    // ---- Table + snapshot ---------------------------------------------------
    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    for r in &runs {
        let t = &r.totals;
        let off_frac = t.off_node_byte_fraction();
        rows.push(vec![
            r.ranks.to_string(),
            r.rpn.to_string(),
            (if r.hier { "two-level" } else { "flat" }).to_string(),
            t.off_node_msgs.to_string(),
            t.off_node_bytes.to_string(),
            fmt(off_frac, 3),
        ]);
        snapshots.push(format!(
            "    {{\"ranks\": {}, \"ranks_per_node\": {}, \"hierarchical\": {}, \
             \"off_node_msgs\": {}, \"on_node_msgs\": {}, \"off_node_bytes\": {}, \
             \"on_node_bytes\": {}, \"off_node_byte_fraction\": {:.4}, \
             \"scaffold_digest\": \"{:016x}\", \"scaffolds\": {}}}",
            r.ranks,
            r.rpn,
            r.hier,
            t.off_node_msgs,
            t.on_node_msgs,
            t.off_node_bytes,
            t.on_node_bytes,
            t.off_node_byte_fraction(),
            r.digest,
            r.scaffolds,
        ));
    }
    print_table(
        "Ablation — two-level (node-leader) exchange",
        &[
            "Ranks",
            "Ranks/node",
            "Routing",
            "Off-node msgs",
            "Off-node bytes",
            "Off-byte frac",
        ],
        &rows,
    );

    let snapshot = format!(
        "{{\n  \"bench\": \"ablation_topology\",\n  \"dataset\": \"mg64_tiny\",\n  \
         \"routed_off_msg_ratio\": {routed_ratio:.2},\n  \"off_msg_ratio\": {msg_ratio:.2},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        snapshots.join(",\n")
    );
    let path = "BENCH_topology.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(snapshot.as_bytes())) {
        Ok(()) => println!("Wrote {path}"),
        Err(e) => eprintln!("Could not write {path}: {e}"),
    }
}

fn main() {
    // Exit non-zero even when a failure happens on a spawned rank thread
    // whose join result nobody inspects (see mhm_bench::harness_exit_code).
    mhm_bench::run_harness(run);
}

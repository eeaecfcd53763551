//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::stats::Better;

/// An end-to-end metric: what a user of the assembler sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "bases_per_s",
        unit: "bases/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "core-s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The pipeline calls the staged driver puts a span around, in call order.
/// Named `<crate>.<call>`.
pub const SPANS: [&str; 16] = [
    "readstore.build",
    "dbg.kmer_analysis",
    "dbg.kmer_merging",
    "dbg.graph_build",
    "dbg.traversal",
    "dbg.bubble_merge",
    "dbg.pruning",
    "dbg.contig_store_build",
    "aligner.seed_index_build",
    "aligner.align",
    "core.local_assembly",
    "aligner.localize",
    "scaffolding.links",
    "scaffolding.traversal",
    "scaffolding.gap_closing",
    "dbg.contig_materialize",
];

/// The four metrics every span yields: suffix and unit.
pub const SPAN_METRICS: [(&str, &str); 4] = [
    ("busy_s", "s"),
    ("wait_s", "s"),
    ("bytes", "bytes"),
    ("msgs", "count"),
];

/// Per-layer metrics that are not span metrics: micro-throughput probes of
/// the layers under the pipeline, whole-run figures derived from the trace,
/// and the quality of the assembly (deterministic for a seed, so it has no
/// place among the bounded timings, but a change must not move it unseen).
pub const LAYER_METRICS: [(&str, &str); 28] = [
    ("seqio.fastq_parse_mb_s", "MB/s"),
    ("readstore.pack_mb_s", "MB/s"),
    ("readstore.stream_mb_s", "MB/s"),
    ("kmers.supermer_extract_mb_s", "MB/s"),
    ("kmers.supermer_expand_mkmers_s", "Mkmers/s"),
    ("kmers.canonical_mkmers_s", "Mkmers/s"),
    ("dht.bulk_merge_mitems_s", "Mitems/s"),
    ("dht.get_many_mitems_s", "Mitems/s"),
    ("dht.cached_view_hit_mitems_s", "Mitems/s"),
    ("dht.cached_view_miss_mitems_s", "Mitems/s"),
    ("dht.bloom_insert_mitems_s", "Mitems/s"),
    ("pgas.exchange_mb_s", "MB/s"),
    ("pgas.aggregator_mitems_s", "Mitems/s"),
    ("pgas.blob_aggregator_mb_s", "MB/s"),
    ("pgas.rpc_mitems_s", "Mitems/s"),
    ("pgas.barrier_us", "us"),
    ("core.stage_sum_s", "s"),
    ("core.trace_overhead_pct", "%"),
    ("core.wait_share_pct", "%"),
    ("core.local_assembly_imbalance", "ratio"),
    ("core.strong_scaling_eff", "ratio"),
    ("core.read_resident_peak_bytes", "bytes"),
    ("core.contig_resident_peak_bytes", "bytes"),
    ("dht.cache_hit_pct", "%"),
    ("pgas.steals", "count"),
    ("asm_metrics.genome_fraction_pct", "%"),
    ("asm_metrics.misassemblies", "count"),
    ("asm_metrics.nga50_mean", "bp"),
];

/// Every end-to-end metric as `(name, unit)`, in the order of `BENCHMARK.json`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect()
}

/// Every per-layer metric as `(name, unit)`, in the order of `BENCHMARK.json`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        for (suffix, unit) in SPAN_METRICS {
            out.push((format!("{span}.{suffix}"), unit));
        }
    }
    out.extend(LAYER_METRICS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// The unit of any metric the benchmark prints.
#[cfg(test)]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the names, units, directions and
    /// bounds in it must be the ones this binary prints and judges by.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let count = |needle: &str| text.matches(needle).count();
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            );
            assert_eq!(count(&entry), 1, "end_to_end entry missing: {entry}");
        }
        let layers = per_layer();
        for (name, unit) in &layers {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert_eq!(count(&entry), 1, "per_layer entry missing: {entry}");
        }
        for w in &crate::workloads::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert_eq!(count(&entry), 1, "workload entry missing: {entry}");
        }
        let entries = END_TO_END.len() + layers.len() + crate::workloads::WORKLOADS.len();
        assert_eq!(
            count("{\"name\":"),
            entries,
            "BENCHMARK.json has extra entries"
        );
        assert!(layers.len() <= 128);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit_of(n).is_some());
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}

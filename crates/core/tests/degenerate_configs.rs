//! Degenerate but legal configurations (ROADMAP item 6): caches of zero bytes
//! and minimizer lengths outside `1..=min(k, MAX_MINIMIZER_LEN)` must
//! assemble what the default configuration assembles — no panic, no rank
//! left waiting in a collective.

use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;

#[test]
fn zero_byte_caches_and_clamped_minimizers_assemble_the_default_scaffolds() {
    let data = mgsim::presets::weak_scaling_dataset(3, 20261001);
    let assemble = |cfg: AssemblyConfig| {
        let team = Team::single_node(2);
        let mut seqs = MetaHipMer::new(cfg)
            .assemble(&team, &data.library, Some(&data.rrna_consensus))
            .sequences();
        seqs.sort();
        seqs
    };
    let default = assemble(AssemblyConfig::small_test());
    assert!(!default.is_empty(), "default produced no scaffolds");
    type Tweak = fn(&mut AssemblyConfig);
    let degenerate: [(&str, Tweak); 4] = [
        ("contig_cache_bytes = 0", |cfg| cfg.contig_cache_bytes = 0),
        ("read_cache_bytes = 0", |cfg| cfg.read_cache_bytes = 0),
        ("minimizer_len = 0", |cfg| cfg.minimizer_len = 0),
        ("minimizer_len = 99", |cfg| cfg.minimizer_len = 99),
    ];
    for (what, set) in degenerate {
        let mut cfg = AssemblyConfig::small_test();
        set(&mut cfg);
        assert!(assemble(cfg) == default, "{what} changed the assembly");
    }
}

//! Workspace task runner. Two tasks:
//!
//! ```text
//! cargo run -p xtask -- lint
//! cargo run -p xtask -- loc
//! ```
//!
//! `lint` runs the invariant lint pass over `crates/` and exits non-zero if
//! any finding survives (CI runs it next to fmt and clippy). `loc` prints the
//! repo's non-test and test Rust line totals: a file under `tests/` or
//! `benches/` is test code, any other is test code from its first
//! `#[cfg(test)]` on (the lint pass's split).

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is one level up
    // from this crate's manifest.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let root = workspace_root();
            let findings = xtask::lint_tree(&root);
            if findings.is_empty() {
                println!("xtask lint: clean");
                return;
            }
            for f in &findings {
                println!("{f}");
            }
            eprintln!("xtask lint: {} finding(s)", findings.len());
            std::process::exit(1);
        }
        Some("loc") => {
            let count = xtask::count_tree(&workspace_root());
            println!("non-test lines: {}", count.non_test);
            println!("test lines: {}", count.test);
        }
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint | loc   (got {:?})",
                other.unwrap_or_default()
            );
            std::process::exit(2);
        }
    }
}

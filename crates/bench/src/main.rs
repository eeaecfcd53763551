//! The experiment runner: every paper table and figure and every ablation
//! guard is one row of [`ROWS`].
//!
//! ```sh
//! cargo run --release -p mhm_bench -- <row>...   # the named rows, in order
//! cargo run --release -p mhm_bench -- guards     # every guard row (CI)
//! ```
//!
//! Each row runs inside [`harness_exit_code`], so a panic on any rank fails
//! it. The runner runs every requested row, names the ones that
//! failed, and exits non-zero if any did. Guard rows live in `guards.rs`,
//! report rows in `reports.rs`.

mod guards;
mod reports;

use mhm_bench::harness_exit_code;

/// One experiment.
struct Row {
    /// The row's name on the command line (each keeps the name of the
    /// binary it used to be).
    name: &'static str,
    /// Whether `guards` selects it: a guard asserts hard claims and writes a
    /// `BENCH_*.json` snapshot.
    guard: bool,
    body: fn(),
}

const fn guard(name: &'static str, body: fn()) -> Row {
    Row {
        name,
        guard: true,
        body,
    }
}

const fn report(name: &'static str, body: fn()) -> Row {
    Row {
        name,
        guard: false,
        body,
    }
}

const ROWS: &[Row] = &[
    guard("ablation_traversal", guards::traversal),
    guard("ablation_contig_store", guards::contig_store),
    guard("ablation_read_store", guards::read_store),
    guard("ablation_topology", guards::topology),
    guard("ablation_simd", guards::simd),
    guard("ablation_checkpoint", guards::checkpoint),
    report("ablation_thresholds", reports::ablation_thresholds),
    report("ablation_work_stealing", reports::ablation_work_stealing),
    report("fig3_read_localization", reports::fig3_read_localization),
    report("fig4_strong_scaling", reports::fig4_strong_scaling),
    report("table1_quality", reports::table1_quality),
    report("table2_weak_scaling", reports::table2_weak_scaling),
    report("grand_challenge", reports::grand_challenge),
];

/// The rows `args` name, in order; `guards` stands for every guard row.
/// An unknown name, or no name at all, is an error listing the valid ones.
fn select<'a>(rows: &'a [Row], args: &[String]) -> Result<Vec<&'a Row>, String> {
    let valid = || {
        let names: Vec<&str> = rows.iter().map(|row| row.name).collect();
        format!("valid rows: guards, {}", names.join(", "))
    };
    if args.is_empty() {
        return Err(format!("no row named; {}", valid()));
    }
    let mut selected = Vec::new();
    for arg in args {
        if arg == "guards" {
            selected.extend(rows.iter().filter(|row| row.guard));
        } else if let Some(row) = rows.iter().find(|row| row.name == arg) {
            selected.push(row);
        } else {
            return Err(format!("unknown row `{arg}`; {}", valid()));
        }
    }
    Ok(selected)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = select(ROWS, &args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let mut failed = Vec::new();
    for row in rows {
        println!("\n# {}", row.name);
        if harness_exit_code(row.body) != 0 {
            failed.push(row.name);
        }
    }
    if !failed.is_empty() {
        eprintln!("\nFAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn rows_are_unique_guards_select_the_guard_rows_and_unknown_names_list_the_valid_ones() {
        let mut names: Vec<&str> = ROWS.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ROWS.len(), "row names must be unique");

        let guards: Vec<&str> = select(ROWS, &args(&["guards"]))
            .unwrap()
            .iter()
            .map(|row| row.name)
            .collect();
        let expected: Vec<&str> = ROWS.iter().filter(|r| r.guard).map(|r| r.name).collect();
        assert_eq!(guards, expected);
        assert_eq!(guards.len(), 6);

        let named = select(ROWS, &args(&["table1_quality", "ablation_simd"])).unwrap();
        assert_eq!(named.len(), 2);
        assert_eq!(named[0].name, "table1_quality");

        for bad in [args(&["fig6_nga50"]), args(&[])] {
            let err = select(ROWS, &bad).err().expect("rejected");
            assert!(ROWS.iter().all(|row| err.contains(row.name)), "{err}");
            assert!(err.contains("guards"), "{err}");
        }
    }
}

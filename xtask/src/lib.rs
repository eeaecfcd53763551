//! Workspace lint pass: textual invariants clippy cannot express.
//!
//! Five rules, each encoding a repo-wide contract that the type system
//! does not enforce:
//!
//! 1. **simd-containment** — `std::arch` may appear only under
//!    `crates/shims/simd`; everything else must go through the shim's safe
//!    CPU-selected functions, so every target-specific body lives in one
//!    place and the word-parallel body stays the portable path.
//! 2. **local-view-phase** — while a `local_view` binding is live, no
//!    communication may run: a collective (or one-sided bulk get) inside
//!    the phase either deadlocks on the held shard lock or reads state
//!    mid-mutation. The runtime catches this dynamically; the lint catches
//!    it before a test has to.
//! 3. **stats-accessor** — `CommStats` counters outside `crates/pgas` are
//!    read-only: writing through `.stats()` bypasses `Ctx::record`, which
//!    applies each counter's declared reduction, and silently skews the
//!    paper-facing traffic numbers.
//! 4. **no-naked-unwrap** — `unwrap()`/`expect(` in `pgas`/`dht`
//!    non-test code turns a data-dependent surprise into an unexplained
//!    panic inside a collective, which the whole team experiences as a
//!    poisoned barrier. Sites that are provably infallible carry a
//!    `// lint: allow(unwrap): <why>` escape on the same or previous line.
//! 5. **untagged-collective** — every collective in `crates/pgas`, public
//!    or private, must be `#[track_caller]`: the conformance checker's
//!    diagnostics (and the aggregator leak-detector) report
//!    `Location::caller()`, so an untagged collective would report the
//!    runtime's own source line instead of the user's call site.
//!
//! The pass is deliberately line-based (no syn, no rustc internals — the
//! workspace vendors nothing): it strips `//` comments, tracks
//! string-literal state only where a rule needs it, and treats everything
//! after a `#[cfg(test)]` attribute in a file as test code (the repo
//! convention keeps unit tests in a trailing `mod tests`), and a whole file
//! that opens with `#![cfg(test)]` likewise. False-positive
//! escapes are explicit `// lint: allow(<rule>)` comments, so every
//! exception is visible and greppable.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`lint_source`] (repo-relative in [`lint_tree`]).
    pub path: String,
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Stable rule identifier, e.g. `"untagged-collective"`.
    pub rule: &'static str,
    /// Human-readable explanation naming the offending construct.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Strips a line-end `//` comment, respecting string literals well enough
/// for this codebase (no raw strings containing `//` on lint-relevant
/// lines).
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Escape comments live in the *raw* lines — comment stripping would hide
/// them from the rules they exempt.
fn has_escape(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let tag = format!("lint: allow({rule})");
    raw_lines[idx].contains(&tag) || (idx > 0 && raw_lines[idx - 1].contains(&tag))
}

/// Collectives in `crates/pgas` that must be `#[track_caller]` (rule 5),
/// public or not. `finish` covers all three aggregator flavours; `collect`
/// (the lane's drain), `deliver` (the node-leader hop) and the reduction
/// helpers are private but forward the user's call site to every barrier
/// inside them.
const COLLECTIVE_FNS: &[&str] = &[
    "barrier",
    "share",
    "broadcast",
    "allreduce_sum_u64",
    "allreduce_max_u64",
    "allreduce_max_f64",
    "allreduce_any",
    "reduce_u64_with",
    "reduce_f64_with",
    "exchange",
    "exchange_map",
    "gather",
    "collect",
    "deliver",
    "finish",
];

/// Calls that must not run while a `local_view` phase is open (rule 2).
const PHASE_BANNED_CALLS: &[&str] = &[
    ".barrier(",
    ".exchange(",
    ".exchange_map(",
    ".get_many(",
    ".get_many_foreign(",
    ".get_many_as(",
    ".get_many_with(",
    ".get_many_onesided(",
    ".gather(",
    ".broadcast(",
    ".allreduce_",
    ".share(",
];

/// True if `line` defines a function named exactly `name` (`fn name(` or
/// `fn name<`), not merely one sharing a prefix.
fn defines_fn(line: &str, name: &str) -> bool {
    let Some(pos) = line.find("fn ") else {
        return false;
    };
    let rest = &line[pos + 3..];
    rest.starts_with(name)
        && matches!(
            rest.as_bytes().get(name.len()),
            Some(b'(') | Some(b'<') | None
        )
}

/// True for a file under a `tests/` or `benches/` directory (the top-level
/// `tests/` included): test code as a whole.
fn is_test_file(norm_path: &str) -> bool {
    let path = format!("/{norm_path}");
    path.contains("/tests/") || path.contains("/benches/")
}

/// Index of the first line whose code (comment stripped) holds
/// `#[cfg(test)]`: from there on a file is test code, by the repo convention
/// of a trailing `mod tests`. A file whose first code is `#![cfg(test)]` (a
/// test-only module) is test code from its first line. The lint rules and
/// the line count share it.
fn test_split(code_lines: &[&str]) -> usize {
    let first_code = code_lines
        .iter()
        .map(|code| code.trim())
        .find(|code| !code.is_empty());
    if first_code == Some("#![cfg(test)]") {
        return 0;
    }
    code_lines
        .iter()
        .position(|code| code.contains("#[cfg(test)]"))
        .unwrap_or(code_lines.len())
}

/// Lints one file's source text. `path` controls which rules apply (rules
/// are keyed on repo-relative path prefixes) and is echoed into findings.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let norm = path.replace('\\', "/");
    let in_simd_shim = norm.starts_with("crates/shims/simd");
    let in_pgas = norm.starts_with("crates/pgas");
    let in_hot_crate = in_pgas || norm.starts_with("crates/dht");
    let in_test_file = is_test_file(&norm);

    let raw_lines: Vec<&str> = src.lines().collect();
    let code_lines: Vec<&str> = raw_lines.iter().map(|l| strip_comment(l)).collect();
    let tests_from = test_split(&code_lines);
    let mut findings = Vec::new();

    let mut depth: i64 = 0;
    // Open local_view phase: (binding name, brace depth at the `let`).
    let mut phase: Option<(String, i64)> = None;

    for (idx, &code) in code_lines.iter().enumerate() {
        let line_no = idx + 1;
        let in_tests = idx >= tests_from;
        let opens = code.bytes().filter(|&b| b == b'{').count() as i64;
        let closes = code.bytes().filter(|&b| b == b'}').count() as i64;

        // Rule 1: std::arch containment. Applies everywhere, tests included
        // (a test reaching for intrinsics directly is still a portability
        // hole).
        if !in_simd_shim && code.contains("std::arch") && !has_escape(&raw_lines, idx, "std-arch") {
            findings.push(Finding {
                path: path.to_string(),
                line: line_no,
                rule: "simd-containment",
                message: "direct std::arch use outside crates/shims/simd; route through the \
                          simd shim's dispatch layer"
                    .to_string(),
            });
        }

        if in_tests || in_test_file {
            depth += opens - closes;
            continue;
        }

        // Rule 2: no communication inside an open local_view phase.
        if let Some((name, at_depth)) = &phase {
            let ended_by_drop = code.contains(&format!("drop({name})"));
            for banned in PHASE_BANNED_CALLS {
                if code.contains(banned) && !has_escape(&raw_lines, idx, "local-view") {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "local-view-phase",
                        message: format!(
                            "communication call `{}` while local_view binding `{name}` is live \
                             (phase opened holds the shard lock)",
                            banned.trim_start_matches('.').trim_end_matches('('),
                        ),
                    });
                }
            }
            if ended_by_drop || depth + opens - closes < *at_depth {
                phase = None;
            }
        }
        if phase.is_none() && code.contains(".local_view(") {
            if let Some(rest) = code.trim_start().strip_prefix("let ") {
                let name: String = rest
                    .chars()
                    .take_while(|&c| c == '_' || c.is_ascii_alphanumeric())
                    .collect();
                if !name.is_empty() && name != "_" {
                    phase = Some((name, depth));
                }
            }
        }

        // Rule 3: CommStats counters are written through `Ctx::record` only.
        if !in_pgas {
            let writes = code.contains(".fetch_add(")
                || code.contains(".fetch_sub(")
                || code.contains(".fetch_max(")
                || code.contains(".store(");
            if writes && !has_escape(&raw_lines, idx, "stats") {
                let window_start = idx.saturating_sub(2);
                if code_lines[window_start..=idx]
                    .iter()
                    .any(|l| l.contains(".stats("))
                {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "stats-accessor",
                        message: "CommStats counter written directly; use `Ctx::record` so \
                                  the counter's declared reduction is applied"
                            .to_string(),
                    });
                }
            }
        }

        // Rule 4: no naked unwrap/expect in pgas/dht non-test code.
        if in_hot_crate
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !has_escape(&raw_lines, idx, "unwrap")
        {
            findings.push(Finding {
                path: path.to_string(),
                line: line_no,
                rule: "no-naked-unwrap",
                message: "unwrap/expect in a pgas/dht hot path; handle the error or add \
                          `// lint: allow(unwrap): <why it cannot fail>`"
                    .to_string(),
            });
        }

        // Rule 5: collectives in pgas, private ones included, carry
        // #[track_caller].
        if in_pgas && code.contains("fn ") {
            for name in COLLECTIVE_FNS {
                if defines_fn(code, name) && !has_escape(&raw_lines, idx, "untagged") {
                    let tagged = raw_lines[idx.saturating_sub(6)..idx]
                        .iter()
                        .any(|l| l.contains("#[track_caller]"));
                    if !tagged {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: line_no,
                            rule: "untagged-collective",
                            message: format!(
                                "collective `{name}` lacks #[track_caller]; conformance \
                                 diagnostics would blame the runtime instead of the caller"
                            ),
                        });
                    }
                }
            }
        }

        depth += opens - closes;
    }
    findings
}

/// Every `.rs` file under `dir`, skipping build output (`target`) and
/// hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.is_some_and(|n| n == "target" || n.starts_with('.')) {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lints every `.rs` file under `<root>/crates`, returning findings with
/// repo-relative paths.
pub fn lint_tree(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        findings.extend(lint_source(&rel, &src));
    }
    findings
}

/// Line totals of Rust sources, split into non-test and test code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCount {
    pub non_test: usize,
    pub test: usize,
}

/// Counts one file's lines: all test under `tests/` or `benches/`,
/// otherwise split at the first `#[cfg(test)]` outside a comment.
pub fn count_source(path: &str, src: &str) -> LineCount {
    let lines: Vec<&str> = src.lines().collect();
    if is_test_file(&path.replace('\\', "/")) {
        return LineCount {
            non_test: 0,
            test: lines.len(),
        };
    }
    let code: Vec<&str> = lines.iter().map(|l| strip_comment(l)).collect();
    let split = test_split(&code);
    LineCount {
        non_test: split,
        test: lines.len() - split,
    }
}

/// Counts every `.rs` file under `root` with [`count_source`].
pub fn count_tree(root: &Path) -> LineCount {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    let mut total = LineCount::default();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        let count = count_source(&rel, &src);
        total.non_test += count.non_test;
        total.test += count.test;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn std_arch_outside_the_shim_is_flagged_and_inside_is_not() {
        let src = "use std::arch::x86_64::_mm_loadu_si128;\n";
        assert_eq!(rules("crates/kmers/src/lib.rs", src), ["simd-containment"]);
        assert_eq!(rules("crates/shims/simd/src/sse.rs", src), [] as [&str; 0]);
        // Commented-out intrinsics are not findings.
        assert_eq!(
            rules("crates/kmers/src/lib.rs", "// std::arch is off-limits\n"),
            [] as [&str; 0]
        );
    }

    #[test]
    fn traffic_inside_a_local_view_phase_is_flagged() {
        let src = "fn f(ctx: &Ctx, map: &DistMap<u64, u64>) {\n\
                       let view = map.local_view(ctx);\n\
                       ctx.barrier();\n\
                   }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "local-view-phase");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`view`"));
        // A batched read of the viewed map's own shard under its write lock.
        let projected = "fn f(ctx: &Ctx, map: &DistMap<u64, u64>, keys: &[u64]) {\n\
                             let mut shard = map.local_view(ctx);\n\
                             let got = map.get_many_as(ctx, keys, 64, u64::clone, |v| *v);\n\
                         }\n";
        let f = lint_source("crates/dbg/src/x.rs", projected);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("local-view-phase", 3));
        assert!(f[0].message.contains("`get_many_as`"), "{}", f[0].message);
    }

    #[test]
    fn traffic_after_the_phase_closes_is_clean() {
        let with_drop = "fn f(ctx: &Ctx, map: &DistMap<u64, u64>) {\n\
                             let view = map.local_view(ctx);\n\
                             drop(view);\n\
                             ctx.barrier();\n\
                         }\n";
        let with_scope = "fn f(ctx: &Ctx, map: &DistMap<u64, u64>) {\n\
                              {\n\
                                  let view = map.local_view(ctx);\n\
                              }\n\
                              ctx.barrier();\n\
                          }\n";
        assert_eq!(rules("crates/core/src/x.rs", with_drop), [] as [&str; 0]);
        assert_eq!(rules("crates/core/src/x.rs", with_scope), [] as [&str; 0]);
    }

    #[test]
    fn direct_stats_writes_outside_pgas_are_flagged() {
        let src = "fn f(ctx: &Ctx) {\n\
                       ctx.stats().cache_hits.fetch_add(1, Ordering::Relaxed);\n\
                   }\n";
        assert_eq!(rules("crates/dht/src/cache.rs", src), ["stats-accessor"]);
        let peak = "fn f(ctx: &Ctx) {\n\
                        ctx.stats().contig_bytes_resident.fetch_max(9, Ordering::Relaxed);\n\
                    }\n";
        assert_eq!(rules("crates/dbg/src/store.rs", peak), ["stats-accessor"]);
        // pgas itself owns the counters.
        assert_eq!(rules("crates/pgas/src/team.rs", src), [] as [&str; 0]);
    }

    #[test]
    fn naked_unwrap_in_hot_crates_needs_an_escape() {
        let naked = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let escaped = "fn f(x: Option<u32>) -> u32 {\n\
                           // lint: allow(unwrap): x is checked by the caller\n\
                           x.unwrap()\n\
                       }\n";
        assert_eq!(rules("crates/pgas/src/team.rs", naked), ["no-naked-unwrap"]);
        assert_eq!(rules("crates/dht/src/x.rs", naked), ["no-naked-unwrap"]);
        assert_eq!(rules("crates/pgas/src/team.rs", escaped), [] as [&str; 0]);
        // Other crates may unwrap freely (clippy governs them).
        assert_eq!(rules("crates/core/src/x.rs", naked), [] as [&str; 0]);
        // Test code is exempt.
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{naked}}}\n");
        assert_eq!(rules("crates/pgas/src/team.rs", &in_tests), [] as [&str; 0]);
    }

    #[test]
    fn untagged_collectives_in_pgas_are_flagged() {
        let untagged = "impl Ctx<'_> {\n    pub fn barrier(&self) {\n    }\n}\n";
        let tagged = "impl Ctx<'_> {\n\
                          #[track_caller]\n\
                          pub fn barrier(&self) {\n\
                          }\n\
                      }\n";
        let f = lint_source("crates/pgas/src/team.rs", untagged);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "untagged-collective");
        assert!(f[0].message.contains("`barrier`"));
        assert_eq!(rules("crates/pgas/src/team.rs", tagged), [] as [&str; 0]);
        // A similarly named non-collective is not matched.
        let prefix = "impl Ctx<'_> {\n    pub fn barrier_count(&self) -> u64 {\n    }\n}\n";
        assert_eq!(rules("crates/pgas/src/team.rs", prefix), [] as [&str; 0]);
        // Outside pgas the rule does not apply.
        assert_eq!(rules("crates/core/src/x.rs", untagged), [] as [&str; 0]);
    }

    #[test]
    fn untagged_private_collectives_in_pgas_are_flagged() {
        let private = "impl Ctx<'_> {\n    fn reduce_u64_with(&self, v: u64) -> u64 {\n    }\n}\n";
        let f = lint_source("crates/pgas/src/team.rs", private);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`reduce_u64_with`"));
        let lane =
            "impl<T> Lane<T> {\n    fn collect(&mut self, ctx: &Ctx) -> Vec<T> {\n    }\n}\n";
        assert_eq!(
            rules("crates/pgas/src/exchange.rs", lane),
            ["untagged-collective"]
        );
        let tagged = "impl<T> Lane<T> {\n\
                          #[track_caller]\n\
                          fn collect(&mut self, ctx: &Ctx) -> Vec<T> {\n\
                          }\n\
                      }\n";
        assert_eq!(
            rules("crates/pgas/src/exchange.rs", tagged),
            [] as [&str; 0]
        );
    }

    #[test]
    fn line_count_splits_at_the_first_test_attribute_outside_comments() {
        let src = "//! a `#[cfg(test)]` in a comment\nfn f() {}\n#[cfg(test)]\nmod tests {\n}\n";
        let split = LineCount {
            non_test: 2,
            test: 3,
        };
        assert_eq!(count_source("crates/x/src/lib.rs", src), split);
        let whole = LineCount {
            non_test: 0,
            test: 5,
        };
        assert_eq!(count_source("tests/e2e.rs", src), whole);
        assert_eq!(count_source("crates/x/benches/b.rs", src), whole);
    }

    #[test]
    fn a_file_opening_with_an_inner_test_attribute_is_test_from_line_one() {
        let module = "//! A test-only module.\n\n#![cfg(test)]\n\nuse super::*;\nfn f() {}\n";
        let all_test = LineCount {
            non_test: 0,
            test: 6,
        };
        assert_eq!(count_source("crates/x/src/oracle.rs", module), all_test);
        // Only as the first code: later, or in a comment, it splits nothing.
        let late = "fn f() {}\n#![cfg(test)]\n";
        let all_code = LineCount {
            non_test: 2,
            test: 0,
        };
        assert_eq!(count_source("crates/x/src/lib.rs", late), all_code);
        let commented = "// #![cfg(test)]\nfn f() {}\n";
        assert_eq!(count_source("crates/x/src/lib.rs", commented), all_code);
        // The lint treats it as test code too: a naked unwrap in a hot crate
        // passes there.
        let hot = "#![cfg(test)]\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        assert_eq!(rules("crates/dht/src/oracle.rs", hot), [] as [&str; 0]);
    }

    #[test]
    fn the_checked_in_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let findings = lint_tree(&root);
        assert!(
            findings.is_empty(),
            "lint findings in the canon tree:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

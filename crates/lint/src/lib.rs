//! `lpbcast-lint`: first-party determinism & wire-safety static analysis.
//!
//! Five rules over all first-party Rust sources (`crates/*/src`, `src/`,
//! `examples/` — never `vendor/`, `target/`, or `tests/` trees; in-file
//! `#[cfg(test)]`/`#[test]` items are stripped per rule):
//!
//! - **D1** `std-hash-*` — no `std::collections::HashMap`/`HashSet`
//!   anywhere first-party; the seed-free `FastMap`/`FastSet` aliases (or
//!   BTree maps) only. Allowlistable per site in `lints.toml` with a
//!   written justification.
//! - **D2** `ambient-entropy`/`wall-clock` — no `thread_rng`,
//!   `RandomState`, `SystemTime`, `Instant` in the sans-IO protocol
//!   crates (types, membership, core, pbcast, pubsub) or where results
//!   are made from them (analysis, sim).
//! - **D3** `tag-*` — the wire-kind registry in `crates/net/src/wire.rs`
//!   (`mod tag` constants vs the `//! kind N — …` doc header vs codec
//!   code) must be collision-free, complete, and literal-free.
//! - **D4** `missing-forbid-unsafe` — every crate root (lib.rs, main.rs,
//!   bin and example roots) carries `#![forbid(unsafe_code)]` as a real
//!   crate-level attribute.
//! - **D5** `panic-*`/`slice-index` — no unwrap/expect/panicking macros/
//!   slice indexing on the `crates/net` runtime path.
//!
//! The library exposes [`run`] for the CLI and the fixture tests.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

use std::fs;
use std::path::{Path, PathBuf};

use config::Config;
use rules::Finding;

/// Rule D2's scope: the sans-IO protocol crates, plus the simulator and
/// the analytical models that produce every committed result from them.
const SANS_IO_CRATES: &[&str] = &[
    "types",
    "membership",
    "core",
    "pbcast",
    "pubsub",
    "analysis",
    "sim",
];

/// Outcome of a full analysis pass.
pub struct Outcome {
    pub files_scanned: usize,
    /// Findings not covered by the allowlist — these fail `--strict`.
    pub active: Vec<Finding>,
    /// `(finding, allowlist entry index)` pairs that were waived.
    pub waived: Vec<(Finding, usize)>,
}

/// Analyze the repository rooted at `root` against `config`.
///
/// `root` must contain the first-party layout (`crates/`, `src/`,
/// `examples/` — each optional, so fixture trees can be minimal).
pub fn run(root: &Path, config: &Config) -> Result<Outcome, String> {
    let mut files = collect_sources(root)?;
    files.sort(); // deterministic report order regardless of FS order

    let mut all = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let src = fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        all.extend(analyze_file(rel, &src));
    }

    // Partition by the allowlist, remembering which entries fired so
    // stale entries (waiving nothing) can themselves be reported.
    let mut used = vec![false; config.allow.len()];
    let mut active = Vec::new();
    let mut waived = Vec::new();
    for f in all {
        let hit = config.allow.iter().position(|a| {
            a.rule == f.rule && a.path == f.path && a.line.is_none_or(|l| l == f.line)
        });
        match hit {
            Some(idx) => {
                used[idx] = true;
                waived.push((f, idx));
            }
            None => active.push(f),
        }
    }
    for (idx, entry) in config.allow.iter().enumerate() {
        if !used[idx] {
            active.push(Finding {
                rule: "D1",
                code: "stale-allow",
                path: "lints.toml".into(),
                line: entry.src_line,
                col: 1,
                message: format!(
                    "allowlist entry ({} {}) waives nothing — remove it",
                    entry.rule, entry.path
                ),
            });
        }
    }
    active.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.code).cmp(&(b.path.as_str(), b.line, b.col, b.code))
    });

    Ok(Outcome {
        files_scanned: files.len(),
        active,
        waived,
    })
}

/// Run every applicable rule on one file. `rel` is repo-relative with
/// `/` separators.
pub fn analyze_file(rel: &str, src: &str) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let code_toks = scope::strip_test_scopes(&toks);
    let mut out = Vec::new();

    out.extend(rules::d1_std_hash(rel, &code_toks));
    if crate_of(rel).is_some_and(|c| SANS_IO_CRATES.contains(&c)) {
        out.extend(rules::d2_ambient(rel, &code_toks));
    }
    if rel == "crates/net/src/wire.rs" {
        out.extend(rules::d3_wire_tags(rel, src, &code_toks));
    }
    if is_crate_root(rel) {
        out.extend(rules::d4_forbid_unsafe(rel, &toks));
    }
    if rel.starts_with("crates/net/src/") {
        out.extend(rules::d5_panic_surface(rel, &code_toks));
    }
    out
}

/// `crates/net/src/node.rs` → `Some("net")`; `src/lib.rs`/`examples/…`
/// → `None`.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Crate roots D4 applies to: lib/main roots plus bin and example roots.
fn is_crate_root(rel: &str) -> bool {
    if rel.ends_with("/lib.rs") || rel.ends_with("/main.rs") || rel == "src/lib.rs" {
        return true;
    }
    if let Some(rest) = rel.strip_prefix("examples/") {
        return !rest.contains('/') && rest.ends_with(".rs");
    }
    // crates/<c>/src/bin/<name>.rs
    rel.contains("/src/bin/") && rel.ends_with(".rs")
}

/// First-party `.rs` files, repo-relative with `/` separators:
/// `src/`, `examples/`, and every `crates/<c>/src` tree. `vendor/`,
/// `target/` and `crates/<c>/tests` are structurally excluded.
fn collect_sources(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for top in ["src", "examples"] {
        walk(&root.join(top), root, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries = fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", crates.display()))?;
            walk(&entry.path().join("src"), root, &mut out)?;
        }
    }
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(()); // optional layout piece (e.g. fixture tree without examples/)
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let rel: Vec<_> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect();
            out.push(rel.join("/"));
        }
    }
    Ok(())
}

/// Find the repo root by walking up from `start` until a directory
/// containing `lints.toml` or `.git` appears.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lints.toml").is_file() || dir.join(".git").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_root_classification() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/net/src/lib.rs"));
        assert!(is_crate_root("crates/bench/src/bin/fig2.rs"));
        assert!(is_crate_root("examples/churn.rs"));
        assert!(!is_crate_root("crates/net/src/node.rs"));
        assert!(!is_crate_root("crates/bench/src/figures.rs"));
    }

    #[test]
    fn rule_scoping_by_path() {
        // D2 fires in a sans-IO crate…
        let hit = analyze_file("crates/core/src/x.rs", "fn f() { let t = Instant::now(); }");
        assert!(hit.iter().any(|f| f.rule == "D2"), "{hit:?}");
        // …but not on the socket runtime, where real time is the point.
        let miss = analyze_file("crates/net/src/x.rs", "fn f() { let t = Instant::now(); }");
        assert!(miss.iter().all(|f| f.rule != "D2"), "{miss:?}");
        // D5 fires only under crates/net/src.
        let net = analyze_file(
            "crates/net/src/x.rs",
            "fn f(v: &[u8]) { v.iter().next().unwrap(); }",
        );
        assert!(net.iter().any(|f| f.code == "panic-unwrap"), "{net:?}");
        let core = analyze_file(
            "crates/core/src/x.rs",
            "fn f(v: &[u8]) { v.iter().next().unwrap(); }",
        );
        assert!(core.iter().all(|f| f.code != "panic-unwrap"), "{core:?}");
    }

    #[test]
    fn d5_covers_the_event_loop_runtime_files() {
        // The readiness runtime (poll/timer/cluster) lives under
        // crates/net/src/, so the panic-free discipline applies to it by
        // path prefix — no per-file opt-in to forget.
        for file in [
            "crates/net/src/poll.rs",
            "crates/net/src/timer.rs",
            "crates/net/src/cluster.rs",
        ] {
            let hit = analyze_file(file, "fn f(v: &[u8]) { let x = v[0]; }");
            assert!(
                hit.iter().any(|f| f.code == "slice-index"),
                "{file} escaped D5: {hit:?}"
            );
        }
    }
}

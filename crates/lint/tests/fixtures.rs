//! Golden tests: each rule against its fixture, the CLI against
//! synthetic repo trees (exit codes), a mutation-style self-check that
//! plants a fresh violation into a clean tree, and a guard that the real
//! repository stays clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use lpbcast_lint::analyze_file;
use lpbcast_lint::rules::Finding;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn by_rule(findings: &[Finding], rule: &str) -> Vec<(String, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.code.to_string(), f.line))
        .collect()
}

// ── golden: one test per rule, asserting exact codes and lines ──────────

#[test]
fn d1_fixture_flags_every_std_hash_site_outside_tests() {
    let findings = analyze_file("crates/core/src/d1.rs", &fixture("d1.rs"));
    let d1 = by_rule(&findings, "D1");
    let expected: Vec<(String, u32)> = [3, 4, 6, 7, 8]
        .into_iter()
        .map(|line| ("std-hash-type".to_string(), line))
        .collect();
    assert_eq!(d1, expected);
}

#[test]
fn d2_fixture_flags_entropy_and_clock_outside_tests() {
    let findings = analyze_file("crates/core/src/d2.rs", &fixture("d2.rs"));
    let d2 = by_rule(&findings, "D2");
    assert_eq!(
        d2,
        [
            ("wall-clock".to_string(), 3),       // use …::Instant
            ("wall-clock".to_string(), 6),       // Instant::now()
            ("wall-clock".to_string(), 7),       // SystemTime::now()
            ("ambient-entropy".to_string(), 13), // thread_rng()
            ("ambient-entropy".to_string(), 17), // RandomState
        ]
    );
}

#[test]
fn d2_covers_the_simulator_and_models_but_not_the_runtimes() {
    // Where results are made, a clock is a finding …
    for scoped in ["crates/sim/src/d2.rs", "crates/analysis/src/d2.rs"] {
        let findings = analyze_file(scoped, &fixture("d2.rs"));
        assert_eq!(by_rule(&findings, "D2").len(), 5, "{scoped}");
    }
    // … where real time is the point (sockets, harness bins), it is not.
    for unscoped in ["crates/net/src/d2.rs", "crates/bench/src/d2.rs"] {
        let findings = analyze_file(unscoped, &fixture("d2.rs"));
        assert!(by_rule(&findings, "D2").is_empty(), "{unscoped}");
    }
}

#[test]
fn d3_fixture_flags_every_registry_divergence() {
    let findings = analyze_file("crates/net/src/wire.rs", &fixture("d3_wire.rs"));
    let mut d3 = by_rule(&findings, "D3");
    d3.sort();
    let mut expected = vec![
        ("tag-collision".to_string(), 15),    // SUBSCRIBE_V2 = 1
        ("tag-unregistered".to_string(), 17), // PHANTOM = 9 not in doc header
        ("tag-unreferenced".to_string(), 17), // PHANTOM never used
        ("tag-stale-doc".to_string(), 6),     // kind 7 documented, no const
        ("tag-raw-literal".to_string(), 29),  // if kind != 3
        ("tag-raw-literal".to_string(), 33),  // match kind { 0 => … }
    ];
    expected.sort();
    assert_eq!(d3, expected);
}

#[test]
fn d4_fixture_is_not_fooled_by_decoys() {
    let findings = analyze_file("crates/foo/src/main.rs", &fixture("d4.rs"));
    assert_eq!(
        by_rule(&findings, "D4"),
        [("missing-forbid-unsafe".to_string(), 1)]
    );
    // The same content in a non-root file is out of D4's scope.
    let inner = analyze_file("crates/foo/src/util.rs", &fixture("d4.rs"));
    assert!(by_rule(&inner, "D4").is_empty());
}

#[test]
fn d5_fixture_flags_the_panic_surface_outside_tests() {
    let findings = analyze_file("crates/net/src/d5.rs", &fixture("d5.rs"));
    assert_eq!(
        by_rule(&findings, "D5"),
        [
            ("panic-unwrap".to_string(), 4),
            ("panic-expect".to_string(), 5),
            ("slice-index".to_string(), 6),
            ("panic-macro".to_string(), 8),
        ]
    );
}

// ── CLI: exit codes against synthetic repo trees ────────────────────────

struct TempRepo {
    root: PathBuf,
}

impl TempRepo {
    /// A minimal clean first-party layout under a unique temp dir.
    fn clean(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("lpbcast-lint-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let src = root.join("crates/demo/src");
        fs::create_dir_all(&src).unwrap();
        fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\n//! demo\npub fn two() -> u8 { 2 }\n",
        )
        .unwrap();
        TempRepo { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }

    /// Run the real binary with `--strict --root <tmp>`; returns exit code.
    fn lint_strict(&self) -> i32 {
        let out = Command::new(env!("CARGO_BIN_EXE_lpbcast-lint"))
            .args(["--strict", "--root"])
            .arg(&self.root)
            .output()
            .expect("spawn lpbcast-lint");
        out.status.code().expect("exit code")
    }
}

impl Drop for TempRepo {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn cli_exits_zero_on_clean_tree_and_writes_json() {
    let repo = TempRepo::clean("clean");
    assert_eq!(repo.lint_strict(), 0);
    let json = fs::read_to_string(repo.root.join("results/lint.json")).unwrap();
    assert!(json.contains("\"schema\": \"lpbcast-lint/v1\""), "{json}");
    assert!(json.contains("\"clean\": true"), "{json}");
}

#[test]
fn cli_exits_nonzero_on_each_violating_fixture() {
    for (name, rel) in [
        ("d1.rs", "crates/demo/src/d1.rs"),
        ("d2.rs", "crates/core/src/d2.rs"),
        ("d3_wire.rs", "crates/net/src/wire.rs"),
        ("d4.rs", "crates/demo/src/bin/tool.rs"),
        ("d5.rs", "crates/net/src/node.rs"),
    ] {
        let repo = TempRepo::clean(name);
        repo.write(rel, &fixture(name));
        assert_eq!(
            repo.lint_strict(),
            1,
            "fixture {name} at {rel} must fail --strict"
        );
    }
}

#[test]
fn cli_exits_two_on_bad_allowlist() {
    let repo = TempRepo::clean("badcfg");
    repo.write("lints.toml", "[[allow]]\nrule = \"D1\"\npath = \"x.rs\"\n"); // no justification
    assert_eq!(repo.lint_strict(), 2);
}

#[test]
fn allowlist_waives_only_with_justification_and_must_not_be_stale() {
    let repo = TempRepo::clean("allow");
    repo.write(
        "crates/demo/src/map.rs",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u8, u8> { HashMap::new() }\n",
    );
    assert_eq!(repo.lint_strict(), 1);
    repo.write(
        "lints.toml",
        "[[allow]]\nrule = \"D1\"\npath = \"crates/demo/src/map.rs\"\n\
         justification = \"fixture: lookup-only map, never iterated\"\n",
    );
    assert_eq!(
        repo.lint_strict(),
        0,
        "file-wide waiver with justification passes"
    );
    // A waiver that matches nothing is itself a finding.
    fs::remove_file(repo.root.join("crates/demo/src/map.rs")).unwrap();
    assert_eq!(repo.lint_strict(), 1, "stale allowlist entry must fail");
}

// ── mutation-style self-check ───────────────────────────────────────────

/// Plant a fresh violation of each rule into a clean tree and assert the
/// gate actually trips — guards against the analyzer rotting into a
/// pass-everything stub.
#[test]
fn mutation_self_check_fresh_violations_trip_the_gate() {
    let repo = TempRepo::clean("mutate");
    assert_eq!(repo.lint_strict(), 0);

    // D1 mutation: append a std HashMap use to the clean lib.
    let lib = repo.root.join("crates/demo/src/lib.rs");
    let pristine = fs::read_to_string(&lib).unwrap();
    fs::write(
        &lib,
        format!(
            "{pristine}\npub fn m() {{ let _ = std::collections::HashMap::<u8, u8>::new(); }}\n"
        ),
    )
    .unwrap();
    assert_eq!(repo.lint_strict(), 1, "planted HashMap must be caught");
    fs::write(&lib, &pristine).unwrap();
    assert_eq!(
        repo.lint_strict(),
        0,
        "reverting the mutation must pass again"
    );

    // D4 mutation: strip the forbid attribute off the crate root.
    let without_forbid = pristine.replace("#![forbid(unsafe_code)]\n", "");
    assert_ne!(pristine, without_forbid);
    fs::write(&lib, without_forbid).unwrap();
    assert_eq!(
        repo.lint_strict(),
        1,
        "removed forbid(unsafe_code) must be caught"
    );

    // D5 mutation: a fresh unwrap on the net runtime path.
    fs::write(&lib, &pristine).unwrap();
    repo.write(
        "crates/net/src/fresh.rs",
        "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
    );
    assert_eq!(repo.lint_strict(), 1, "planted unwrap must be caught");
}

// ── the real repository stays clean ─────────────────────────────────────

#[test]
fn real_repo_is_clean_under_strict() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let json = std::env::temp_dir().join(format!(
        "lpbcast-lint-selfcheck-{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_lpbcast-lint"))
        .args(["--strict", "--root"])
        .arg(&root)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn lpbcast-lint");
    assert!(
        out.status.success(),
        "repo must be lint-clean:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"clean\": true"), "{report}");
    let _ = fs::remove_file(&json);
}

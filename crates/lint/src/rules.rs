//! The five invariants (D1–D5). Each rule is a pure function from
//! tokens (and, for D3, raw source) to findings; scoping — which files a
//! rule sees — lives in the driver ([`crate::run`]).

use crate::lexer::{Tok, TokKind};
use crate::scope;

/// One diagnostic, pre-allowlist.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id: `D1`..`D5`.
    pub rule: &'static str,
    /// Machine-readable finding class within the rule.
    pub code: &'static str,
    /// Repo-relative `/`-separated path.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

fn finding(
    rule: &'static str,
    code: &'static str,
    path: &str,
    tok: &Tok,
    message: String,
) -> Finding {
    Finding {
        rule,
        code,
        path: path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

// ── D1: no std hash collections in first-party code ─────────────────────

/// Determinism: `std::collections::HashMap`/`HashSet` iterate in
/// `RandomState` order, which leaks ambient entropy into anything that
/// walks them — gossip targets, wire payloads, eviction order. First-party
/// code must use the seed-free `FastMap`/`FastSet` aliases (or a BTree
/// map when ordering is semantic). The ban is on *naming* the std types
/// at all: lookup-only uses are invisible to a token-level pass the day
/// someone adds a `for` loop, so the safe rule is the simple one.
pub fn d1_std_hash(path: &str, code_toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for t in code_toks {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(finding(
                "D1",
                "std-hash-type",
                path,
                t,
                format!(
                    "std {} named outside the FastMap/FastSet aliases; \
                     use lpbcast_types::Fast{} or justify in lints.toml",
                    t.text,
                    if t.text == "HashMap" { "Map" } else { "Set" }
                ),
            ));
        }
    }
    out
}

// ── D2: no ambient entropy or wall-clock in sans-IO crates ──────────────

/// The protocol crates are sans-IO: every run must be a pure function of
/// `(spec, seed)`. Naming any ambient source — OS entropy or wall-clock —
/// in them breaks replay even if the value "isn't used for logic yet".
pub fn d2_ambient(path: &str, code_toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for t in code_toks {
        let (code, what) = if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            ("ambient-entropy", "OS entropy")
        } else if t.is_ident("RandomState") {
            ("ambient-entropy", "randomized hasher state")
        } else if t.is_ident("SystemTime") || t.is_ident("Instant") {
            ("wall-clock", "wall-clock time")
        } else {
            continue;
        };
        out.push(finding(
            "D2",
            code,
            path,
            t,
            format!(
                "`{}` pulls {what} into a sans-IO crate; \
                 thread rounds/seeds through explicitly instead",
                t.text
            ),
        ));
    }
    out
}

// ── D3: wire-tag registry consistency ───────────────────────────────────

/// Cross-checks three representations of the frame-kind space that must
/// agree: the `//! kind N — …` doc-header registry, the `pub mod tag`
/// constants, and the code that encodes/decodes kinds. Raw integer kind
/// literals in comparisons or `match kind` arms are rejected so a new
/// tag cannot bypass the registry.
pub fn d3_wire_tags(path: &str, src: &str, code_toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();

    // 1. Doc-header registry: `//! kind N — Name` lines.
    let mut doc_kinds: Vec<(u64, u32)> = Vec::new(); // (value, line)
    for (idx, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        let Some(body) = trimmed.strip_prefix("//!") else {
            continue;
        };
        let Some(pos) = body.find("kind ") else {
            continue;
        };
        let rest = &body[pos + "kind ".len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            continue;
        }
        let after = rest[digits.len()..].trim_start();
        if after.starts_with('—') || after.starts_with('-') {
            if let Ok(v) = digits.parse::<u64>() {
                doc_kinds.push((v, idx as u32 + 1));
            }
        }
    }

    // 2. `pub mod tag { … }` constants: name, value, token index span.
    let mut consts: Vec<(String, u64, u32, u32)> = Vec::new(); // name, value, line, col
    let mut mod_span = None; // token index range of the mod body
    let mut i = 0;
    while i + 2 < code_toks.len() {
        if code_toks[i].is_ident("mod")
            && code_toks[i + 1].is_ident("tag")
            && code_toks[i + 2].is_punct('{')
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < code_toks.len() {
                if code_toks[j].is_punct('{') {
                    depth += 1;
                } else if code_toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            mod_span = Some((i, j));
            let mut k = i + 3;
            while k < j {
                if code_toks[k].is_ident("const") {
                    let name_tok = &code_toks[k + 1];
                    // const NAME : u8 = VALUE ;
                    if let Some(value_tok) = code_toks[k + 2..j]
                        .iter()
                        .take_while(|t| !t.is_punct(';'))
                        .find(|t| t.kind == TokKind::Int)
                    {
                        if let Some(v) = value_tok.int_value() {
                            consts.push((name_tok.text.clone(), v, name_tok.line, name_tok.col));
                        }
                    }
                }
                k += 1;
            }
            break;
        }
        i += 1;
    }

    if consts.is_empty() {
        out.push(Finding {
            rule: "D3",
            code: "tag-registry-missing",
            path: path.to_string(),
            line: 1,
            col: 1,
            message: "no `mod tag` constant registry found in the wire module".into(),
        });
        return out;
    }

    // 3. Collisions: two consts sharing a value.
    for (n, &(ref name, value, line, col)) in consts.iter().enumerate() {
        if let Some((prev, ..)) = consts[..n].iter().find(|(_, v, ..)| *v == value) {
            out.push(Finding {
                rule: "D3",
                code: "tag-collision",
                path: path.to_string(),
                line,
                col,
                message: format!("tag {name} = {value} collides with {prev}"),
            });
        }
    }

    // 4. Const values absent from the doc-header registry, and vice versa.
    for &(ref name, value, line, col) in &consts {
        if !doc_kinds.iter().any(|&(v, _)| v == value) {
            out.push(Finding {
                rule: "D3",
                code: "tag-unregistered",
                path: path.to_string(),
                line,
                col,
                message: format!(
                    "tag {name} = {value} is not documented as `kind {value} — …` \
                     in the wire.rs doc header"
                ),
            });
        }
    }
    for &(value, line) in &doc_kinds {
        if !consts.iter().any(|&(_, v, ..)| v == value) {
            out.push(Finding {
                rule: "D3",
                code: "tag-stale-doc",
                path: path.to_string(),
                line,
                col: 1,
                message: format!(
                    "doc header documents `kind {value}` but mod tag has no constant for it"
                ),
            });
        }
    }

    // 5. Every const must actually be referenced by codec code.
    let (mod_start, mod_end) = mod_span.unwrap_or((0, 0));
    for &(ref name, value, line, col) in &consts {
        let referenced = code_toks
            .iter()
            .enumerate()
            .any(|(idx, t)| (idx < mod_start || idx > mod_end) && t.is_ident(name));
        if !referenced {
            out.push(Finding {
                rule: "D3",
                code: "tag-unreferenced",
                path: path.to_string(),
                line,
                col,
                message: format!("tag {name} = {value} is never used by any codec"),
            });
        }
    }

    // 6. Raw integer literals where a tag constant belongs:
    //    `kind == N` / `kind != N` comparisons …
    for (idx, t) in code_toks.iter().enumerate() {
        if !t.is_ident("kind") {
            continue;
        }
        let cmp = code_toks.get(idx + 1).zip(code_toks.get(idx + 2));
        let is_cmp =
            cmp.is_some_and(|(a, b)| (a.is_punct('=') || a.is_punct('!')) && b.is_punct('='));
        if is_cmp {
            if let Some(lit) = code_toks.get(idx + 3).filter(|t| t.kind == TokKind::Int) {
                out.push(finding(
                    "D3",
                    "tag-raw-literal",
                    path,
                    lit,
                    format!(
                        "raw kind literal {} in comparison; use a tag:: constant",
                        lit.text
                    ),
                ));
            }
        }
    }
    //    … and `match kind { N => … }` / `N | M => …` arms.
    let mut i = 0;
    while i + 2 < code_toks.len() {
        if code_toks[i].is_ident("match")
            && code_toks[i + 1].is_ident("kind")
            && code_toks[i + 2].is_punct('{')
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < code_toks.len() {
                let t = &code_toks[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 && t.kind == TokKind::Int {
                    let next_arrow = code_toks
                        .get(j + 1)
                        .zip(code_toks.get(j + 2))
                        .is_some_and(|(a, b)| a.is_punct('=') && b.is_punct('>'));
                    let in_or = code_toks.get(j + 1).is_some_and(|t| t.is_punct('|'))
                        || code_toks
                            .get(j.wrapping_sub(1))
                            .is_some_and(|t| t.is_punct('|'));
                    if next_arrow || in_or {
                        out.push(finding(
                            "D3",
                            "tag-raw-literal",
                            path,
                            t,
                            format!(
                                "raw kind literal {} in match arm; use a tag:: constant",
                                t.text
                            ),
                        ));
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }

    out
}

// ── D4: crate roots must carry #![forbid(unsafe_code)] ──────────────────

/// Attribute-level check on the *full* token stream (an attribute inside
/// a string or comment does not count; `deny` does not count; an outer
/// `#[forbid]` on one item does not count).
pub fn d4_forbid_unsafe(path: &str, all_toks: &[Tok]) -> Vec<Finding> {
    if scope::has_crate_forbid_unsafe(all_toks) {
        return Vec::new();
    }
    vec![Finding {
        rule: "D4",
        code: "missing-forbid-unsafe",
        path: path.to_string(),
        line: 1,
        col: 1,
        message: "crate root lacks a crate-level `#![forbid(unsafe_code)]`".into(),
    }]
}

// ── D5: panic surface on the net runtime path ───────────────────────────

/// The UDP runtime must degrade (drop a datagram, return an error), never
/// abort: a panic in the receive loop silently kills a node mid-
/// experiment. Flags `.unwrap()` / `.expect(…)`, panicking macros, and
/// slice indexing (`x[i]` / `&x[a..b]`), all of which have non-panicking
/// spellings (`get`, `let-else`, explicit errors).
pub fn d5_panic_surface(path: &str, code_toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in code_toks.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| code_toks.get(p));
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && prev.is_some_and(|p| p.is_punct('.'))
            && code_toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let code = if t.text == "unwrap" {
                "panic-unwrap"
            } else {
                "panic-expect"
            };
            out.push(finding(
                "D5",
                code,
                path,
                t,
                format!(
                    ".{}() can panic on the runtime path; handle the None/Err case",
                    t.text
                ),
            ));
            continue;
        }
        let is_panic_macro = (t.is_ident("panic")
            || t.is_ident("unreachable")
            || t.is_ident("todo")
            || t.is_ident("unimplemented"))
            && code_toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if is_panic_macro {
            out.push(finding(
                "D5",
                "panic-macro",
                path,
                t,
                format!("{}! aborts the node on the runtime path", t.text),
            ));
            continue;
        }
        // Index expressions: `[` directly after an ident, `)`, or `]` —
        // except after keywords that can only introduce a slice *type*
        // (`&mut [u8]`, `dyn [..]`, `as [T; N]`), which cannot index.
        let prev_is_type_keyword = prev.is_some_and(|p| {
            p.kind == TokKind::Ident && matches!(p.text.as_str(), "mut" | "dyn" | "as" | "in")
        });
        if t.is_punct('[')
            && !prev_is_type_keyword
            && prev.is_some_and(|p| p.kind == TokKind::Ident || p.is_punct(')') || p.is_punct(']'))
        {
            out.push(finding(
                "D5",
                "slice-index",
                path,
                t,
                "slice/array indexing can panic on the runtime path; use .get(..)".into(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::strip_test_scopes;

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn d1_flags_std_hash_but_not_fast_aliases() {
        let toks = lex("use std::collections::HashMap;\nfn f(m: &FastMap<u8, u8>) {}");
        let f = d1_std_hash("x.rs", &toks);
        assert_eq!(codes(&f), ["std-hash-type"]);
        assert_eq!(f[0].line, 1);
        assert!(d1_std_hash("x.rs", &lex("let m = FastMap::default();")).is_empty());
        // Comments and strings never trigger.
        assert!(d1_std_hash("x.rs", &lex("// HashMap\nlet s = \"HashSet\";")).is_empty());
    }

    #[test]
    fn d2_flags_entropy_and_clock() {
        let f = d2_ambient(
            "x.rs",
            &lex("let t = Instant::now(); let r = thread_rng();"),
        );
        assert_eq!(codes(&f), ["wall-clock", "ambient-entropy"]);
    }

    #[test]
    fn d3_clean_registry_passes() {
        let src = "//! kind 0 — A\n//! kind 1 — B\n\
                   pub mod tag { pub const A: u8 = 0; pub const B: u8 = 1; }\n\
                   fn go(kind: u8) { match kind { tag::A => {} tag::B => {} _ => {} } }\n\
                   fn put() { w(tag::A); w(tag::B); }";
        assert!(d3_wire_tags("w.rs", src, &lex(src)).is_empty());
    }

    #[test]
    fn d3_catches_collision_stale_doc_and_raw_literal() {
        let src = "//! kind 0 — A\n//! kind 7 — Ghost\n\
                   pub mod tag { pub const A: u8 = 0; pub const B: u8 = 0; }\n\
                   fn go(kind: u8) { if kind != 3 {} match kind { 0 => {} tag::A => {} tag::B => {} _ => {} } }";
        let got = codes(&d3_wire_tags("w.rs", src, &lex(src)));
        assert!(got.contains(&"tag-collision"), "{got:?}");
        assert!(got.contains(&"tag-stale-doc"), "{got:?}");
        // Two raw literals: the `!= 3` comparison and the `0 =>` arm.
        assert_eq!(
            got.iter().filter(|c| **c == "tag-raw-literal").count(),
            2,
            "{got:?}"
        );
        // B = 0 is documented (kind 0) so no unregistered finding for it.
        assert!(!got.contains(&"tag-unregistered"), "{got:?}");
    }

    #[test]
    fn d3_catches_unregistered_and_unreferenced() {
        let src = "//! kind 0 — A\n\
                   pub mod tag { pub const A: u8 = 0; pub const GHOST: u8 = 9; }\n\
                   fn put() { w(tag::A); }";
        let got = codes(&d3_wire_tags("w.rs", src, &lex(src)));
        assert!(got.contains(&"tag-unregistered"), "{got:?}");
        assert!(got.contains(&"tag-unreferenced"), "{got:?}");
    }

    #[test]
    fn d5_flags_panics_but_not_in_tests() {
        let toks = strip_test_scopes(&lex(
            "fn f(v: &[u8]) { let x = v.get(0).unwrap(); let y = v[1]; panic!(\"no\"); }\n\
             #[cfg(test)] mod tests { fn t() { v.unwrap(); } }",
        ));
        let got = codes(&d5_panic_surface("x.rs", &toks));
        assert_eq!(got, ["panic-unwrap", "slice-index", "panic-macro"]);
    }

    #[test]
    fn d5_ignores_types_attrs_and_macros() {
        let toks = lex("#[derive(Debug)] struct S { buf: [u8; 4] }\n\
             fn f() -> Option<[u8; 2]> { let v = vec![1, 2]; None }");
        assert!(d5_panic_surface("x.rs", &toks).is_empty());
    }

    #[test]
    fn d5_ignores_slice_types_after_keywords_but_still_flags_indexing() {
        // `&mut [u8]` in a signature is a type, not an index expression.
        let toks = lex("fn f(buf: &mut [u8], v: &dyn AsRef<[u8]>) { let _ = buf.len(); }");
        assert!(d5_panic_surface("x.rs", &toks).is_empty());
        // Real indexing right next to such a signature is still caught.
        let toks = lex("fn f(buf: &mut [u8]) -> u8 { buf[0] }");
        assert_eq!(codes(&d5_panic_surface("x.rs", &toks)), ["slice-index"]);
    }
}

//! The rule set: every diagnostic `sj-lint` can emit, each grounded in a
//! repo invariant that used to be enforced by reviewer memory.
//!
//! Rules are lexical pattern checks over [`crate::lexer::Lexed`] token
//! streams — deliberately so: each rule is a page of code a reviewer can
//! audit, and false positives are handled by the explicit, justified
//! allow mechanism (`lint-allow.toml` / inline markers, see
//! [`crate::allow`]) rather than by weakening the pattern. DESIGN.md §12
//! documents every rule's invariant and the burn-down that made the tree
//! clean.
//!
//! Scoping vocabulary:
//! - **non-test code**: tokens outside `#[cfg(test)]` items in files that
//!   are not under `tests/`, `benches/`, or `examples/` (the lexer's
//!   [`crate::lexer::test_mask`] provides the intra-file mask);
//! - **approved files**: rules with a sanctioned home (`Instant::now` in
//!   the driver's timed phases, `#[target_feature]` in the dispatch
//!   module) carry the path allowlist in the rule itself, because those
//!   exemptions are architecture, not incident — moving the code moves
//!   the rule.

use crate::lexer::{test_mask, Comment, Lexed, Token, TokenKind};

/// One finding: rule, file, 1-based line, human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

/// Static description of a rule, for `--list-rules` and DESIGN.md §12.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    pub name: &'static str,
    /// Rule family: `determinism`, `safety`, `hygiene`, or `numeric`.
    pub family: &'static str,
    /// One-line summary of what the rule flags.
    pub summary: &'static str,
    /// The repo invariant the rule protects.
    pub invariant: &'static str,
}

/// Every rule, in reporting order. `unused-allow` is the engine's own
/// meta-diagnostic (an allowlist that can only shrink needs the shrink
/// enforced); it lives in the table so `--list-rules` and the allowlist
/// validator know it, but it is emitted by [`crate::allow`], not here.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iteration",
        family: "determinism",
        summary: "HashMap/HashSet in non-test code",
        invariant: "result paths iterate in deterministic order; hash iteration order varies \
                    per process and breaks bit-identical seed-42 goldens",
    },
    RuleInfo {
        name: "instant-outside-driver",
        family: "determinism",
        summary: "Instant::now() outside the driver's timed phases",
        invariant: "wall-clock sampling is confined to crates/base/src/driver.rs (the timed \
                    phases) and crates/base/src/par.rs (the mini-join scheduler's load \
                    accounting) so those stay the only timing authorities",
    },
    RuleInfo {
        name: "bare-thread-spawn",
        family: "determinism",
        summary: "std::thread::spawn outside sj_base::par",
        invariant: "parallelism goes through sj_base::par's scoped sharding, whose commutative \
                    checksum merge keeps results bit-identical to sequential",
    },
    RuleInfo {
        name: "safety-comment",
        family: "safety",
        summary: "unsafe without an adjacent // SAFETY: comment",
        invariant: "every unsafe block/fn/impl states the proof obligation it discharges \
                    (// SAFETY: above the block, or a # Safety doc section)",
    },
    RuleInfo {
        name: "target-feature-dispatch",
        family: "safety",
        summary: "#[target_feature] outside the runtime-dispatch module, or pub inside it",
        invariant: "feature-gated fns are private to sj_base::simd and reachable only via its \
                    is_x86_feature_detected! dispatch, so no illegal-instruction path exists",
    },
    RuleInfo {
        name: "no-unwrap",
        family: "hygiene",
        summary: ".unwrap() in non-test library code",
        invariant: "library panics carry a reason: expect(\"why this cannot fail\") or Result \
                    propagation, never a bare unwrap",
    },
    RuleInfo {
        name: "expect-justification",
        family: "hygiene",
        summary: ".expect(..) with an empty or trivial message",
        invariant: "an expect message is a proof sketch of infallibility, not a grunt; it must \
                    say why the value cannot be absent",
    },
    RuleInfo {
        name: "driver-config-ctor",
        family: "hygiene",
        summary: "struct-literal DriverConfig construction",
        invariant: "DriverConfig is built via its ctors (new/with_exec) so field growth cannot \
                    silently skip call sites",
    },
    RuleInfo {
        name: "registry-techniques",
        family: "hygiene",
        summary: "bench binary importing a technique crate directly",
        invariant: "bench binaries obtain techniques from sj_core::technique::registry(); \
                    direct sj_grid/sj_rtree/... imports bypass the registry line-up",
    },
    RuleInfo {
        name: "entry-id-cast",
        family: "numeric",
        summary: "`as EntryId` cast outside sj_base::table",
        invariant: "EntryId narrowing lives behind table::entry_id() (debug-checked); scattered \
                    `as` casts silently truncate once tables pass u32::MAX rows",
    },
    RuleInfo {
        name: "float-eq",
        family: "numeric",
        summary: "==/!= against a float literal or NAN/INFINITY",
        invariant: "exact float comparison is only meaningful where exactness is argued \
                    (allowlisted per site); elsewhere it is a rounding bug waiting",
    },
    RuleInfo {
        name: "unused-allow",
        family: "meta",
        summary: "allowlist or inline allow that suppresses nothing",
        invariant: "the allowlist can only shrink: an allow whose diagnostic no longer fires \
                    must be deleted, keeping every suppression auditable",
    },
];

pub fn rule_names() -> impl Iterator<Item = &'static str> {
    RULES.iter().map(|r| r.name)
}

pub fn is_rule(name: &str) -> bool {
    rule_names().any(|r| r == name)
}

/// Context for linting one file. `rel` uses forward slashes relative to
/// the workspace root (fixtures pass virtual paths to exercise the
/// path-scoped rules).
pub struct FileCtx<'a> {
    pub rel: &'a str,
    pub lexed: &'a Lexed,
}

impl FileCtx<'_> {
    /// Files whose whole content is test/demo context: integration tests,
    /// benches, examples, and the lint fixtures themselves.
    fn is_test_file(&self) -> bool {
        let r = self.rel;
        r.starts_with("tests/")
            || r.starts_with("examples/")
            || r.contains("/tests/")
            || r.contains("/benches/")
            || r.contains("/examples/")
    }
}

/// Run every rule over one file.
pub fn check_file(ctx: &FileCtx) -> Vec<Diagnostic> {
    let toks = &ctx.lexed.tokens;
    let mask = test_mask(ctx.lexed);
    let all_test = ctx.is_test_file();
    // `in_code(i)`: token i is non-test library code.
    let in_code = |i: usize| !all_test && !mask[i];

    let mut out = Vec::new();
    let mut diag = |rule: &'static str, line: u32, msg: String| {
        out.push(Diagnostic {
            rule,
            file: ctx.rel.to_string(),
            line,
            msg,
        });
    };

    let ident_at = |i: usize, name: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
    };
    let punct_at = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
    };

    for (i, tok) in toks.iter().enumerate() {
        match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                // --- determinism ---------------------------------------
                "HashMap" | "HashSet" if in_code(i) => diag(
                    "hash-iteration",
                    tok.line,
                    format!(
                        "{} in non-test code: hash iteration order is nondeterministic; use \
                         Vec/BTreeMap/BTreeSet or justify via the allowlist",
                        tok.text
                    ),
                ),
                "Instant"
                    if punct_at(i + 1, "::")
                        && ident_at(i + 2, "now")
                        && in_code(i)
                        && ctx.rel != "crates/base/src/driver.rs"
                        && ctx.rel != "crates/base/src/par.rs" =>
                {
                    diag(
                        "instant-outside-driver",
                        tok.line,
                        "Instant::now() outside the driver's timed phases: wall-clock belongs \
                         to crates/base/src/driver.rs (timed phases) and crates/base/src/par.rs \
                         (scheduler load accounting)"
                            .into(),
                    );
                }
                "thread"
                    if punct_at(i + 1, "::")
                        && ident_at(i + 2, "spawn")
                        && in_code(i)
                        && ctx.rel != "crates/base/src/par.rs" =>
                {
                    diag(
                        "bare-thread-spawn",
                        tok.line,
                        "bare thread::spawn: parallel code goes through sj_base::par's scoped \
                         sharding (std::thread::scope + commutative merge)"
                            .into(),
                    );
                }
                // --- safety --------------------------------------------
                // Applies in test code too: an unproven unsafe block in a
                // test can still be UB.
                "unsafe" if !has_safety_comment(&ctx.lexed.comments, tok, toks, i) => {
                    diag(
                        "safety-comment",
                        tok.line,
                        "unsafe without an adjacent // SAFETY: comment (or # Safety doc \
                         section for unsafe fns): state the discharged proof obligation"
                            .into(),
                    );
                }
                "target_feature" if punct_at(i.wrapping_sub(1), "[") => {
                    if ctx.rel != "crates/base/src/simd.rs" {
                        diag(
                            "target-feature-dispatch",
                            tok.line,
                            "#[target_feature] outside crates/base/src/simd.rs: feature-gated fns \
                             must sit behind the is_x86_feature_detected! dispatch module"
                                .into(),
                        );
                    } else if is_pub_fn(toks, i) {
                        diag(
                            "target-feature-dispatch",
                            tok.line,
                            "pub #[target_feature] fn: a feature-gated width stays private, \
                             reachable only through its kernel's dispatcher"
                                .into(),
                        );
                    }
                }
                // --- API hygiene ---------------------------------------
                "unwrap"
                    if punct_at(i.wrapping_sub(1), ".") && punct_at(i + 1, "(") && in_code(i) =>
                {
                    diag(
                        "no-unwrap",
                        tok.line,
                        ".unwrap() in non-test library code: use expect(\"why this cannot \
                         fail\") or propagate the error"
                            .into(),
                    );
                }
                "expect"
                    if punct_at(i.wrapping_sub(1), ".") && punct_at(i + 1, "(") && in_code(i) =>
                {
                    if let Some(arg) = toks.get(i + 2) {
                        if arg.kind == TokenKind::Str && arg.text.trim().len() < 8 {
                            diag(
                                "expect-justification",
                                tok.line,
                                format!(
                                    ".expect({:?}): the message must say why the value cannot \
                                     be absent (>= 8 chars of justification)",
                                    arg.text
                                ),
                            );
                        }
                    }
                }
                // Type positions (`-> DriverConfig {`, `impl DriverConfig {`,
                // `for DriverConfig {`, `: DriverConfig {`) are not literals.
                "DriverConfig"
                    if punct_at(i + 1, "{")
                        && in_code(i)
                        && ctx.rel != "crates/base/src/driver.rs"
                        && !punct_at(i.wrapping_sub(1), "->")
                        && !punct_at(i.wrapping_sub(1), ":")
                        && !ident_at(i.wrapping_sub(1), "impl")
                        && !ident_at(i.wrapping_sub(1), "for") =>
                {
                    diag(
                        "driver-config-ctor",
                        tok.line,
                        "struct-literal DriverConfig construction: use DriverConfig::new / \
                         with_exec so new fields cannot skip call sites"
                            .into(),
                    );
                }
                "sj_grid" | "sj_rtree" | "sj_crtree" | "sj_kdtrie" | "sj_binsearch"
                | "sj_quadtree" | "sj_sweep"
                    if ctx.rel.starts_with("crates/bench/src/bin/") && in_code(i) =>
                {
                    diag(
                        "registry-techniques",
                        tok.line,
                        format!(
                            "bench binary imports {} directly: techniques come from \
                             sj_core::technique::registry() (allowlist deliberate custom sweeps)",
                            tok.text
                        ),
                    );
                }
                // --- numeric discipline --------------------------------
                "as" if ident_at(i + 1, "EntryId")
                    && in_code(i)
                    && ctx.rel != "crates/base/src/table.rs" =>
                {
                    diag(
                        "entry-id-cast",
                        tok.line,
                        "`as EntryId` outside sj_base::table: use table::entry_id() so the \
                         narrowing stays debug-checked in one place"
                            .into(),
                    );
                }
                _ => {}
            },
            TokenKind::Punct
                if (tok.text == "==" || tok.text == "!=")
                    && in_code(i)
                    && (is_float_operand(toks.get(i + 1)) || float_operand_before(toks, i)) =>
            {
                diag(
                    "float-eq",
                    tok.line,
                    format!(
                        "float `{}` comparison: exact float equality needs an argued, \
                         allowlisted site (or compare with an epsilon)",
                        tok.text
                    ),
                );
            }
            _ => {}
        }
    }
    out
}

/// Whether the item an attribute at `toks[i]` annotates is a `pub` (or
/// `pub(…)`) fn: a `pub` before the item's `fn` keyword.
fn is_pub_fn(toks: &[Token], i: usize) -> bool {
    let ident = |t: &Token, name: &str| t.kind == TokenKind::Ident && t.text == name;
    toks[i..]
        .iter()
        .take_while(|t| !ident(t, "fn"))
        .any(|t| ident(t, "pub"))
}

/// Is this token a float operand for the `float-eq` rule: a float literal,
/// or the tail of `f32::NAN` / `f64::INFINITY`-style constant paths?
fn is_float_operand(tok: Option<&Token>) -> bool {
    match tok {
        Some(t) if matches!(t.kind, TokenKind::Num { float: true }) => true,
        Some(t) if t.kind == TokenKind::Ident => {
            matches!(
                t.text.as_str(),
                "NAN" | "INFINITY" | "NEG_INFINITY" | "f32" | "f64"
            )
        }
        _ => false,
    }
}

/// The left operand of `toks[op]`, skipping a closing paren chain is too
/// clever for a lint — just inspect the single preceding token (covers
/// `1.0 == x` and `f32::NAN == y`; `x.fract() == 0.0` is caught by the
/// right-operand check).
fn float_operand_before(toks: &[Token], op: usize) -> bool {
    op > 0 && is_float_operand(toks.get(op - 1))
}

/// `// SAFETY:` adjacency for the `unsafe` token at `toks[i]`.
///
/// Accepted evidence, in the spirit of std's convention:
/// - a comment whose text (after trimming) starts with `SAFETY:`, ending
///   on the `unsafe` line or up to 6 lines above it (SAFETY comments often
///   span a few lines and may sit above an attribute);
/// - for `unsafe fn` / `unsafe impl` / `unsafe trait` items: a doc
///   comment containing a `# Safety` section within 40 lines above (the
///   doc block for a fn with attributes in between can be long).
fn has_safety_comment(comments: &[Comment], tok: &Token, toks: &[Token], i: usize) -> bool {
    let line = tok.line;
    let direct = comments.iter().any(|c| {
        c.end_line <= line
            && c.end_line + 6 > line
            && c.text
                .trim_start()
                .trim_start_matches(['/', '!'])
                .trim_start()
                .starts_with("SAFETY:")
    });
    if direct {
        return true;
    }
    let is_item = toks.get(i + 1).is_some_and(|t| {
        t.kind == TokenKind::Ident && matches!(t.text.as_str(), "fn" | "impl" | "trait")
    });
    is_item
        && comments
            .iter()
            .any(|c| c.end_line <= line && c.end_line + 40 > line && c.text.contains("# Safety"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        check_file(&FileCtx { rel, lexed: &lexed })
    }

    fn rules_fired(rel: &str, src: &str) -> Vec<&'static str> {
        run(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn every_rule_name_is_unique_and_kebab() {
        let names: Vec<_> = rule_names().collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{n}");
        }
    }

    #[test]
    fn hash_iteration_respects_test_scope() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        assert_eq!(
            rules_fired("crates/base/src/x.rs", src),
            ["hash-iteration", "hash-iteration"]
        );
        // Same content inside a cfg(test) mod: clean.
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(rules_fired("crates/base/src/x.rs", &test_src).is_empty());
        // Or in an integration-test file: clean.
        assert!(rules_fired("crates/base/tests/x.rs", src).is_empty());
    }

    #[test]
    fn instant_now_is_driver_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(
            rules_fired("crates/bench/src/lib.rs", src),
            ["instant-outside-driver"]
        );
        assert!(rules_fired("crates/base/src/driver.rs", src).is_empty());
        // The mini-join scheduler's load accounting is the other sanctioned
        // timing site (moving the code moves the rule).
        assert!(rules_fired("crates/base/src/par.rs", src).is_empty());
        // `Instant::elapsed` etc. untouched.
        assert!(rules_fired(
            "crates/bench/src/lib.rs",
            "fn f(t: Instant) { t.elapsed(); }"
        )
        .is_empty());
    }

    #[test]
    fn scoped_spawn_is_fine_bare_spawn_is_not() {
        assert_eq!(
            rules_fired(
                "crates/x/src/lib.rs",
                "fn f() { std::thread::spawn(|| {}); }"
            ),
            ["bare-thread-spawn"]
        );
        assert!(rules_fired(
            "crates/x/src/lib.rs",
            "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }"
        )
        .is_empty());
    }

    #[test]
    fn safety_comment_required_even_in_tests() {
        let bad = "fn f() { unsafe { danger() } }";
        assert_eq!(rules_fired("crates/x/src/lib.rs", bad), ["safety-comment"]);
        assert_eq!(rules_fired("tests/x.rs", bad), ["safety-comment"]);
        let good = "fn f() {\n    // SAFETY: bounds checked above.\n    unsafe { danger() }\n}";
        assert!(rules_fired("crates/x/src/lib.rs", good).is_empty());
        let doc =
            "/// Does a thing.\n///\n/// # Safety\n/// Caller checks AVX2.\npub unsafe fn g() {}";
        assert!(rules_fired("crates/x/src/lib.rs", doc).is_empty());
        // A SAFETY comment inside a *string* is not evidence.
        let tricked = "fn f() { let s = \"// SAFETY: nope\"; unsafe { danger() } }";
        assert_eq!(
            rules_fired("crates/x/src/lib.rs", tricked),
            ["safety-comment"]
        );
    }

    #[test]
    fn target_feature_confined_to_simd() {
        let src = "#[target_feature(enable = \"avx2\")]\n/// # Safety\n/// x\nunsafe fn f() {}";
        assert!(rules_fired("crates/x/src/lib.rs", src).contains(&"target-feature-dispatch"));
        assert!(!rules_fired("crates/base/src/simd.rs", src).contains(&"target-feature-dispatch"));
    }

    #[test]
    fn target_feature_fns_in_simd_stay_private() {
        let simd = "crates/base/src/simd.rs";
        for vis in ["pub ", "pub(crate) "] {
            let src = format!("#[target_feature(enable = \"avx2\")]\n#[inline]\n{vis}fn f() {{}}");
            assert_eq!(
                rules_fired(simd, &src),
                ["target-feature-dispatch"],
                "{vis}"
            );
        }
        // A private width, and a method of a private type, are clean; a
        // `pub` after the annotated fn is another item's.
        let private = "#[target_feature(enable = \"avx2\")]\n#[inline]\nfn f() {}\npub fn g() {}";
        assert!(rules_fired(simd, private).is_empty());
        let method = "impl L {\n    #[target_feature(enable = \"avx2\")]\n    fn new() {}\n}";
        assert!(rules_fired(simd, method).is_empty());
    }

    #[test]
    fn unwrap_and_expect_rules() {
        assert_eq!(
            rules_fired("crates/x/src/lib.rs", "fn f() { x().unwrap(); }"),
            ["no-unwrap"]
        );
        // unwrap_or / unwrap_or_else are different idents: clean.
        assert!(rules_fired("crates/x/src/lib.rs", "fn f() { x().unwrap_or(0); }").is_empty());
        // Tests may unwrap.
        assert!(rules_fired(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nmod t { fn f() { x().unwrap(); } }"
        )
        .is_empty());
        assert_eq!(
            rules_fired("crates/x/src/lib.rs", "fn f() { x().expect(\"\"); }"),
            ["expect-justification"]
        );
        assert_eq!(
            rules_fired("crates/x/src/lib.rs", "fn f() { x().expect(\"hm\"); }"),
            ["expect-justification"]
        );
        assert!(rules_fired(
            "crates/x/src/lib.rs",
            "fn f() { x().expect(\"lengths checked equal above\"); }"
        )
        .is_empty());
        // Non-literal argument: no judgement.
        assert!(rules_fired("crates/x/src/lib.rs", "fn f() { x().expect(msg); }").is_empty());
    }

    #[test]
    fn driver_config_literal_vs_ctor() {
        assert_eq!(
            rules_fired(
                "crates/core/src/lib.rs",
                "fn f() { let c = DriverConfig { ticks: 1, warmup: 0, exec: e }; }"
            ),
            ["driver-config-ctor"]
        );
        assert!(rules_fired(
            "crates/core/src/lib.rs",
            "fn f() { let c = DriverConfig::new(1, 0); }"
        )
        .is_empty());
        assert!(rules_fired(
            "crates/base/src/driver.rs",
            "fn f() { let c = DriverConfig { ticks: 1, warmup: 0, exec: e }; }"
        )
        .is_empty());
    }

    #[test]
    fn bench_bins_must_not_import_technique_crates() {
        let src = "use sj_grid::GridConfig;\nfn main() {}";
        assert_eq!(
            rules_fired("crates/bench/src/bin/foo.rs", src),
            ["registry-techniques"]
        );
        // The same import in the harness lib (which wraps the registry) is fine.
        assert!(rules_fired("crates/bench/src/lib.rs", src).is_empty());
        assert!(rules_fired(
            "crates/bench/src/bin/foo.rs",
            "use sj_core::technique::registry;\nfn main() { registry(); }"
        )
        .is_empty());
    }

    #[test]
    fn entry_id_casts_confined_to_table() {
        let src = "fn f(i: usize) -> EntryId { i as EntryId }";
        assert_eq!(
            rules_fired("crates/grid/src/grid.rs", src),
            ["entry-id-cast"]
        );
        assert!(rules_fired("crates/base/src/table.rs", src).is_empty());
        // Casting *from* other types untouched.
        assert!(rules_fired(
            "crates/grid/src/grid.rs",
            "fn f(i: u64) -> u32 { i as u32 }"
        )
        .is_empty());
    }

    #[test]
    fn float_eq_literal_and_constants() {
        assert_eq!(
            rules_fired("crates/x/src/lib.rs", "fn f(x: f32) -> bool { x == 0.0 }"),
            ["float-eq"]
        );
        assert_eq!(
            rules_fired("crates/x/src/lib.rs", "fn f(x: f32) -> bool { 1.5 != x }"),
            ["float-eq"]
        );
        assert_eq!(
            rules_fired(
                "crates/x/src/lib.rs",
                "fn f(x: f32) -> bool { x == f32::NAN }"
            ),
            ["float-eq"]
        );
        // Integer equality untouched; float inequality comparisons untouched.
        assert!(rules_fired("crates/x/src/lib.rs", "fn f(x: u32) -> bool { x == 0 }").is_empty());
        assert!(rules_fired("crates/x/src/lib.rs", "fn f(x: f32) -> bool { x <= 0.5 }").is_empty());
    }
}

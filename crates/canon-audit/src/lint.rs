//! The source lint pass: a token-level analyzer over workspace `.rs` files.
//!
//! Like the workspace's `rand-shim`/`proptest-shim`, this is a dependency-free
//! in-tree stand-in for an external tool (here: custom clippy lints/dylint).
//! It does not parse Rust; it masks comments and string literals, delimits
//! `#[cfg(test)]` items by brace matching, and then pattern-matches tokens.
//! That is deliberately conservative: the rules below are bright-line repo
//! policies where the occasional manual `// audit: allow(...)` annotation is
//! cheaper than an AST-accurate analyzer.
//!
//! The pass reads `src/`, `tests/`, `benches/` and `examples/` of every
//! crate and of the root package, but not `tests/fixtures/` (lint input,
//! never compiled) or `bench/`. A file outside `src/` is test code
//! throughout, so only `hash-into-iter` applies to it. The repository's
//! own run is the test `tests/workspace_lint.rs`.
//!
//! The policies a general tool can state are not here: no
//! `unwrap`/`expect`/`panic!` in the core crates,
//! no wall clock outside the timing harness, no `unsafe`, and no walk over
//! a `HashMap`/`HashSet` (its order follows a per-process random seed, and
//! results must be pure functions of theirs). The root `clippy.toml`
//! (`disallowed-types`, `disallowed-methods`), six crate-root
//! `#![deny(clippy::..)]` attributes and `-F unsafe_code -W
//! clippy::iter_over_hash_type` on the clippy command line carry them, over
//! every target. That every wire variant decodes what it encodes is a test
//! (`canon-node/tests/wire_roundtrip.rs`). What stays is what only this
//! repo knows, plus the one hash walk no clippy path names.
//!
//! # Rules
//!
//! * **`greedy-outside-engine`** — exactly one greedy next-hop enumeration
//!   may exist in the workspace: the `RoutingPolicy` implementations in
//!   `canon-overlay/src/policy.rs` (annotated as the allowlist). Any other
//!   non-test code that iterates `.neighbors(..)` and compares metric
//!   distances nearby is re-growing a private router and is flagged.
//! * **`reply-obligation`** — every variant of `canon-node`'s `Payload`
//!   enum must discharge its reply obligation: `Client` is local and
//!   `Response` *is* the reply; the `Request` variant requires a
//!   `Payload::Response { .. }` construction site in non-test code; every
//!   other (one-way) variant must carry a `// audit: fire-and-forget`
//!   annotation on its declaration, and every non-`Client` variant must be
//!   handled (matched) somewhere outside its defining file. New two-way
//!   message kinds ride inside `Request`/`Op`, not as sibling variants.
//! * **`hash-into-iter`** — `<name>.into_iter()` where `<name>` is bound on
//!   a `HashMap`/`HashSet` line of the same file, test code included.
//!   Clippy bans every other hash walk by path, but this call resolves to
//!   `IntoIterator::into_iter`, which cannot be banned without banning it
//!   on every `Vec`. Code that walks a collection keeps it in a
//!   `BTreeMap`/`BTreeSet`.
//! * **`rebuild-on-churn`** — crates sitting on the churn path must
//!   absorb join/leave events in O(links), never by rebuilding the
//!   network: a node — simulated (`canon-sim`) or live (`canon-node`) —
//!   is its link table, an event edits the tables it invalidates, and
//!   neither crate keeps a graph object. Any full-construction
//!   token (`build_canonical`, the family builders, `GraphBuilder`,
//!   `from_per_node_links`) in their non-test code is flagged unless
//!   annotated `// audit: full-rebuild` with a reason.
//!
//! # Annotations
//!
//! An annotation comment applies to its own line and the line below it:
//!
//! * `// audit: full-rebuild` — this construction call on a churn-path crate
//!   is deliberate (e.g. a one-off snapshot export), not a per-event rebuild;
//! * `// audit: allow(<rule>)` — suppress `<rule>` findings here (the
//!   routing engine's own neighbor loops, for `greedy-outside-engine`).

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `Payload` enum is audited by the `reply-obligation` rule.
pub const REPLY_OBLIGATION_CRATES: &[&str] = &["canon-node"];

/// Crates sitting on the churn path (rule `rebuild-on-churn`): a join/leave
/// costs O(links) per event, never a full reconstruction of the network or
/// its CSR graph. Both crates keep per-node link tables and no graph
/// object; `canon-sim`'s `snapshot()` export is the one annotated
/// exception.
pub const CHURN_PATH_CRATES: &[&str] = &["canon-sim", "canon-node"];

/// One lint finding, printable as `file:line: [rule] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`hash-into-iter`, `reply-obligation`, …).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source file presented to the linter: the crate it belongs to, its
/// workspace-relative path, and its content. Tests feed synthetic files;
/// [`lint_workspace`] feeds real ones.
pub struct SourceFile<'a> {
    /// Cargo package name (e.g. `canon-overlay`), `canon-suite` for the
    /// workspace root sources.
    pub crate_name: &'a str,
    /// Workspace-relative path, used in findings.
    pub path: &'a str,
    /// Full file content.
    pub content: &'a str,
}

/// The target directories linted in each crate and at the workspace root.
/// Only `src/` holds library and binary code; the rest are test targets.
const TARGET_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// Lints every `.rs` file under `src/`, `tests/`, `benches/` and
/// `examples/` of every workspace crate under `root` and of the root
/// package, skipping `tests/fixtures/` (lint input, never compiled), and
/// returns all findings sorted by file and line.
///
/// # Errors
///
/// Returns an error if the workspace layout cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, std::io::Error> {
    let mut files: Vec<(String, PathBuf)> = Vec::new(); // (crate, file)
    for entry in std::fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        let crate_dir = entry.path();
        if !crate_dir.is_dir() {
            continue;
        }
        let crate_name = entry.file_name().to_string_lossy().into_owned();
        for dir in TARGET_DIRS {
            collect_rs(&crate_dir.join(dir), &mut |p| {
                files.push((crate_name.clone(), p));
            })?;
        }
    }
    for dir in TARGET_DIRS {
        collect_rs(&root.join(dir), &mut |p| {
            files.push(("canon-suite".to_owned(), p));
        })?;
    }

    // Read everything up front: the per-file rules lint one file at a
    // time, the reply-obligation rule needs a whole crate at once.
    let mut loaded: Vec<(String, String, String)> = Vec::new(); // (crate, rel, content)
    for (crate_name, path) in &files {
        let content = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        loaded.push((crate_name.clone(), rel, content));
    }

    let mut findings = Vec::new();
    for (crate_name, rel, content) in &loaded {
        findings.extend(lint_file(&SourceFile {
            crate_name,
            path: rel,
            content,
        }));
    }
    for crate_name in REPLY_OBLIGATION_CRATES {
        let crate_files: Vec<SourceFile<'_>> = loaded
            .iter()
            .filter(|(c, _, _)| c == crate_name)
            .map(|(c, rel, content)| SourceFile {
                crate_name: c,
                path: rel,
                content,
            })
            .collect();
        findings.extend(check_reply_obligation(&crate_files));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

fn collect_rs(dir: &Path, sink: &mut impl FnMut(PathBuf)) -> Result<(), std::io::Error> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if !p.ends_with("tests/fixtures") {
                collect_rs(&p, sink)?;
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            sink(p);
        }
    }
    Ok(())
}

/// Whether `path` is a test target (an integration test, bench or
/// example): cargo's layout puts library and binary code, and only that,
/// under a `src` directory.
fn is_test_target(path: &str) -> bool {
    !path.split('/').any(|c| c == "src")
}

/// Lints one source file against every rule in scope for its crate. A
/// test target is test code throughout, so only `hash-into-iter` applies
/// to it.
pub fn lint_file(file: &SourceFile<'_>) -> Vec<Finding> {
    let pre = Preprocessed::new(file);
    let mut findings = Vec::new();

    if CHURN_PATH_CRATES.contains(&file.crate_name) {
        check_rebuild_on_churn(file, &pre, &mut findings);
    }
    check_greedy_outside_engine(file, &pre, &mut findings);
    check_hash_into_iter(file, &pre, &mut findings);

    findings
}

/// A source file after comment/string masking, with annotation and
/// test-region metadata. Line numbers are 1-based throughout.
struct Preprocessed {
    /// Lines with comments and string/char literal *contents* blanked out
    /// (delimiters kept), so token scans cannot match inside either.
    masked: Vec<String>,
    /// `// audit: fire-and-forget` annotation lines.
    fire_and_forget: Vec<usize>,
    /// `// audit: full-rebuild` annotation lines.
    full_rebuild: Vec<usize>,
    /// `// audit: allow(rule)` annotations as (line, rule).
    allows: Vec<(usize, String)>,
    /// Whether each line is test code: inside a `#[cfg(test)]` item, or
    /// anywhere in a test target.
    in_test: Vec<bool>,
}

impl Preprocessed {
    fn new(file: &SourceFile<'_>) -> Self {
        let content = file.content;
        let raw_lines: Vec<&str> = content.lines().collect();

        let mut fire_and_forget = Vec::new();
        let mut full_rebuild = Vec::new();
        let mut allows = Vec::new();
        for (i, line) in raw_lines.iter().enumerate() {
            if let Some(pos) = line.find("// audit:") {
                let directive = line[pos + "// audit:".len()..].trim();
                if directive.starts_with("fire-and-forget") {
                    fire_and_forget.push(i + 1);
                } else if directive.starts_with("full-rebuild") {
                    full_rebuild.push(i + 1);
                } else if let Some(rest) = directive.strip_prefix("allow(") {
                    if let Some(end) = rest.find(')') {
                        allows.push((i + 1, rest[..end].trim().to_owned()));
                    }
                }
            }
        }

        let masked_text = mask_comments_and_strings(content);
        let masked: Vec<String> = masked_text.lines().map(str::to_owned).collect();
        let in_test = if is_test_target(file.path) {
            vec![true; masked.len()]
        } else {
            mark_test_regions(&masked)
        };

        Preprocessed {
            masked,
            fire_and_forget,
            full_rebuild,
            allows,
            in_test,
        }
    }

    // An annotation covers its own line and the one below it.
    fn is_fire_and_forget(&self, line: usize) -> bool {
        self.fire_and_forget
            .iter()
            .any(|&l| l == line || l + 1 == line)
    }

    fn is_full_rebuild(&self, line: usize) -> bool {
        self.full_rebuild
            .iter()
            .any(|&l| l == line || l + 1 == line)
    }

    fn is_allowed(&self, line: usize, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| (*l == line || *l + 1 == line) && r == rule)
    }

    fn in_test(&self, line: usize) -> bool {
        self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Blanks out comment bodies and string/char literal contents, preserving
/// line structure so line numbers survive. Handles line comments, nested
/// block comments, escapes, raw strings (`r"…"`, `r#"…"#`, …), and
/// distinguishes char literals from lifetimes.
fn mask_comments_and_strings(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"…" or r#…#"…"#…#.
        if c == 'r' && i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') {
            let mut j = i + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == '"' {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                // Scan for closing quote + hashes.
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = i + 1;
                        let mut h = 0;
                        while k < b.len() && b[k] == '#' && h < hashes {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            for _ in i..k {
                                out.push(' ');
                            }
                            i = k;
                            break 'raw;
                        }
                    }
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
                continue;
            }
        }
        // String literal.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    // A `\` + newline continuation must keep its newline,
                    // or every masked line below a wrapped string literal
                    // drifts and annotation/test-region lookups misalign.
                    out.push(' ');
                    out.push(if b[i + 1] == '\n' { '\n' } else { ' ' });
                    i += 2;
                } else if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: a quote is a char literal if it closes
        // within a couple of characters (possibly escaped).
        if c == '\'' {
            let close = if i + 2 < b.len() && b[i + 1] == '\\' {
                // Escaped char: find the closing quote within a short span
                // ('\n', '\x7f', '\u{1F600}').
                (i + 2..(i + 12).min(b.len())).find(|&k| b[k] == '\'')
            } else if i + 2 < b.len() && b[i + 2] == '\'' {
                Some(i + 2)
            } else {
                None
            };
            if let Some(k) = close {
                out.push('\'');
                for _ in i + 1..k {
                    out.push(' ');
                }
                out.push('\'');
                i = k + 1;
                continue;
            }
            // A lifetime: emit as-is.
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Marks the line ranges of `#[cfg(test)]` items by brace matching on the
/// masked source. An item with no body (`use …;`, `mod m;`, `const …;`)
/// ends at its first `;` outside any bracket.
fn mark_test_regions(masked: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked.len()];
    let mut i = 0;
    while i < masked.len() {
        if masked[i].contains("#[cfg(test)]") {
            // Find the opening brace of the annotated item (skipping further
            // attribute lines), then match braces to its close.
            let mut depth = 0usize;
            let mut nest = 0usize; // open `(` / `[`, so `[u8; 4]` ends nothing
            let mut opened = false;
            let mut ended = false;
            let mut j = i;
            while j < masked.len() {
                for ch in masked[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth = depth.saturating_sub(1),
                        '(' | '[' => nest += 1,
                        ')' | ']' => nest = nest.saturating_sub(1),
                        ';' if !opened && nest == 0 => ended = true,
                        _ => {}
                    }
                }
                in_test[j] = true;
                if ended || (opened && depth == 0) {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Whether `text[pos]` starts token `tok` at a word boundary.
fn is_word_at(text: &str, pos: usize, tok: &str) -> bool {
    let before_ok = pos == 0
        || !text[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = pos + tok.len();
    let after_ok = after >= text.len()
        || !text[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// All word-boundary occurrences of `tok` in `line`.
fn word_positions(line: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find(tok) {
        let pos = from + p;
        if is_word_at(line, pos, tok) {
            out.push(pos);
        }
        from = pos + tok.len().max(1);
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: hash-into-iter
// ---------------------------------------------------------------------------

fn check_hash_into_iter(file: &SourceFile<'_>, pre: &Preprocessed, findings: &mut Vec<Finding>) {
    // Every name a `HashMap`/`HashSet` line binds (imports bind nothing).
    let mut hashed: Vec<String> = Vec::new();
    for line in &pre.masked {
        let t = line.trim_start();
        if t.starts_with("use ")
            || t.starts_with("pub use ")
            || (word_positions(line, "HashMap").is_empty()
                && word_positions(line, "HashSet").is_empty())
        {
            continue;
        }
        if let Some(name) = bound_identifier(line) {
            if !hashed.contains(&name) {
                hashed.push(name);
            }
        }
    }
    for (idx, line) in pre.masked.iter().enumerate() {
        let lineno = idx + 1;
        if pre.is_allowed(lineno, "hash-into-iter") {
            continue;
        }
        for name in &hashed {
            for pos in word_positions(line, name) {
                if line[pos + name.len()..].starts_with(".into_iter()") {
                    findings.push(Finding {
                        file: file.path.to_owned(),
                        line: lineno,
                        rule: "hash-into-iter",
                        message: format!(
                            "`{name}.into_iter()` walks a HashMap/HashSet in per-process \
                             random order; keep it in a BTreeMap/BTreeSet"
                        ),
                    });
                }
            }
        }
    }
}

/// The identifier a `HashMap`/`HashSet`-typed line binds: `let [mut] x`,
/// a struct field `x: HashMap<…>`, or an fn param `x: &mut HashSet<…>`.
fn bound_identifier(line: &str) -> Option<String> {
    let t = line.trim_start();
    if let Some(rest) = t.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    // Field or parameter: `name: …HashMap<` / `name: …HashSet<` — take the
    // identifier immediately before the first ':' (skip `pub`).
    let colon = t.find(':')?;
    let after = &t[colon..];
    if !(after.contains("HashMap") || after.contains("HashSet")) {
        return None;
    }
    let before = t[..colon].trim_end();
    let name: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_numeric())).then_some(name)
}

// ---------------------------------------------------------------------------
// Rule: greedy-outside-engine
// ---------------------------------------------------------------------------

/// Metric-evaluation calls whose proximity to a `.neighbors(..)` iteration
/// marks a greedy next-hop enumeration.
const METRIC_CALL_TOKENS: &[&str] = &[".distance(", ".clockwise_to(", ".xor_to("];

/// How many lines below a `.neighbors(..)` call the metric comparison must
/// appear to count as one enumeration loop. Wide enough for the loop
/// bodies this refactor retired, narrow enough not to pair unrelated code.
const GREEDY_WINDOW: usize = 12;

fn check_greedy_outside_engine(
    file: &SourceFile<'_>,
    pre: &Preprocessed,
    findings: &mut Vec<Finding>,
) {
    for (idx, line) in pre.masked.iter().enumerate() {
        let lineno = idx + 1;
        if pre.in_test(lineno)
            || pre.is_allowed(lineno, "greedy-outside-engine")
            || !line.contains(".neighbors(")
        {
            continue;
        }
        let window_hit = pre.masked[idx..(idx + GREEDY_WINDOW).min(pre.masked.len())]
            .iter()
            .any(|l| METRIC_CALL_TOKENS.iter().any(|t| l.contains(t)));
        if window_hit {
            findings.push(Finding {
                file: file.path.to_owned(),
                line: lineno,
                rule: "greedy-outside-engine",
                message: format!(
                    "neighbor iteration with a metric comparison nearby in crate `{}`: \
                     greedy next-hop enumeration lives only in the canon-overlay routing \
                     engine (implement a RoutingPolicy instead)",
                    file.crate_name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: reply-obligation
// ---------------------------------------------------------------------------

/// Audits a whole crate's `Payload` enum (all `files` must belong to one
/// crate): every variant must discharge its reply obligation.
///
/// * `Client` is locally injected work and `Response` *is* the reply —
///   both structurally exempt;
/// * the `Request` variant (the routed RPC carrier) requires at least one
///   `Payload::Response { .. }` construction site in the crate's non-test
///   code — a request vocabulary with no answer path is a protocol bug
///   waiting for a timeout;
/// * every other variant is one-way by construction and must say so with
///   a `// audit: fire-and-forget` annotation on (or directly above) its
///   declaration — new two-way message kinds ride inside `Request`/`Op`,
///   not as sibling variants;
/// * every non-`Client` variant must additionally be *handled*: matched
///   as `Payload::<Variant>` on a non-test line outside the defining
///   file (a declared-but-never-delivered message is dead vocabulary).
pub fn check_reply_obligation(files: &[SourceFile<'_>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let pres: Vec<Preprocessed> = files.iter().map(Preprocessed::new).collect();

    // Locate `enum Payload` and enumerate its top-level variants.
    let mut enum_file = None; // (file idx, Vec<(line, variant)>)
    for (fi, pre) in pres.iter().enumerate() {
        if let Some(variants) = enum_variants(&pre.masked, "Payload") {
            enum_file = Some((fi, variants));
            break;
        }
    }
    let Some((enum_fi, variants)) = enum_file else {
        return findings;
    };

    // Evidence across the crate's non-test code.
    let mut response_constructed = false;
    let mut handled: Vec<String> = Vec::new();
    for (fi, pre) in pres.iter().enumerate() {
        for (idx, line) in pre.masked.iter().enumerate() {
            let lineno = idx + 1;
            if pre.in_test(lineno) {
                continue;
            }
            for pos in word_positions(line, "Payload") {
                let rest = &line[pos..];
                let Some(variant) = rest
                    .strip_prefix("Payload::")
                    .map(|r| {
                        r.chars()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect::<String>()
                    })
                    .filter(|v| !v.is_empty())
                else {
                    continue;
                };
                // A construction site mentions the variant with its brace
                // on a non-arm line (match arms carry `=>`); the defining
                // enum is not evidence of anything.
                if variant == "Response"
                    && rest.contains('{')
                    && !line.contains("=>")
                    && fi != enum_fi
                {
                    response_constructed = true;
                }
                if fi != enum_fi && !handled.contains(&variant) {
                    handled.push(variant);
                }
            }
        }
    }

    let enum_pre = &pres[enum_fi];
    for (line, variant) in &variants {
        match variant.as_str() {
            "Client" => continue,
            "Response" => {}
            "Request" => {
                if !response_constructed {
                    findings.push(Finding {
                        file: files[enum_fi].path.to_owned(),
                        line: *line,
                        rule: "reply-obligation",
                        message: format!(
                            "request variant `{variant}` has no `Payload::Response {{ .. }}` \
                             construction site in non-test code of crate `{}`",
                            files[enum_fi].crate_name
                        ),
                    });
                }
            }
            _ => {
                if !enum_pre.is_fire_and_forget(*line)
                    && !enum_pre.is_allowed(*line, "reply-obligation")
                {
                    findings.push(Finding {
                        file: files[enum_fi].path.to_owned(),
                        line: *line,
                        rule: "reply-obligation",
                        message: format!(
                            "one-way message variant `{variant}` must carry a \
                             `// audit: fire-and-forget` annotation (or answer through \
                             `Payload::Response` via `Request`/`Op`)",
                        ),
                    });
                }
            }
        }
        if !handled.contains(variant) && !enum_pre.is_allowed(*line, "reply-obligation") {
            findings.push(Finding {
                file: files[enum_fi].path.to_owned(),
                line: *line,
                rule: "reply-obligation",
                message: format!(
                    "message variant `{variant}` is never handled (`Payload::{variant}` \
                     does not appear outside its defining file)",
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// The top-level variants of `enum <name>` in a masked file, as
/// `(1-based line, variant)` — `None` if the file does not define it.
fn enum_variants(masked: &[String], name: &str) -> Option<Vec<(usize, String)>> {
    let header = format!("enum {name}");
    let start = masked.iter().position(|l| {
        word_positions(l, "enum").iter().any(|&p| {
            let rest = &l[p..];
            rest.starts_with(&header)
                && !rest[header.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })?;
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut opened = false;
    for (idx, line) in masked.iter().enumerate().skip(start) {
        // A variant declaration: first token of a line at depth 1 inside
        // the enum body is a capitalized identifier.
        if opened && depth == 1 {
            let t = line.trim_start();
            let ident: String = t
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(char::is_uppercase) {
                variants.push((idx + 1, ident));
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if opened && depth == 0 {
            break;
        }
    }
    Some(variants)
}

// ---------------------------------------------------------------------------
// Rule: rebuild-on-churn
// ---------------------------------------------------------------------------

/// Tokens that construct a network or CSR graph from scratch. Any of these
/// on a churn-path crate means a join/leave is being absorbed by rebuilding
/// the world (O(n log n) work and a full reallocation) instead of in
/// O(links) by editing the link tables of the nodes it invalidates.
const REBUILD_TOKENS: &[&str] = &[
    "build_canonical",
    "build_crescendo",
    "build_nondet_crescendo",
    "build_cacophony",
    "build_kandy",
    "build_cancan",
    "GraphBuilder",
    "from_per_node_links",
];

fn check_rebuild_on_churn(file: &SourceFile<'_>, pre: &Preprocessed, findings: &mut Vec<Finding>) {
    for (idx, line) in pre.masked.iter().enumerate() {
        let lineno = idx + 1;
        if pre.in_test(lineno)
            || pre.is_allowed(lineno, "rebuild-on-churn")
            || pre.is_full_rebuild(lineno)
        {
            continue;
        }
        for tok in REBUILD_TOKENS {
            for _pos in word_positions(line, tok) {
                findings.push(Finding {
                    file: file.path.to_owned(),
                    line: lineno,
                    rule: "rebuild-on-churn",
                    message: format!(
                        "`{tok}` in churn-path crate `{}`: join/leave must be \
                         absorbed in O(links), not by rebuilding the network \
                         — edit the node's link table; a whole-graph export \
                         is annotated `// audit: full-rebuild` with a reason",
                        file.crate_name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(crate_name: &str, content: &str) -> Vec<Finding> {
        lint_file(&SourceFile {
            crate_name,
            path: "crates/x/src/part.rs",
            content,
        })
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- rebuild-on-churn -------------------------------------------------

    #[test]
    fn rebuild_on_churn_flags_construction_tokens_in_churn_crates() {
        let src = "fn join(&mut self) {\n    let net = build_crescendo(&h, &p, 1);\n    let g = GraphBuilder::new();\n}\n";
        let f = lint("canon-sim", src);
        assert_eq!(rules(&f), vec!["rebuild-on-churn", "rebuild-on-churn"]);
        assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![2, 3]);
        assert!(f[0].message.contains("link table"), "{}", f[0].message);
    }

    #[test]
    fn rebuild_on_churn_only_applies_to_churn_path_crates() {
        let src = "fn f() { let net = build_canonical(&h, &p, rule, 1); }\n";
        assert!(lint("canon", src).is_empty(), "construction crate exempt");
        assert!(lint("canon-bench", src).is_empty(), "bench exempt");
        let f = lint("canon-node", src);
        assert_eq!(rules(&f), vec!["rebuild-on-churn"], "{f:?}");
    }

    #[test]
    fn rebuild_on_churn_exempts_tests_and_annotations() {
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn t() { let n = build_kandy(&h, &p, 7); }\n}\n";
        assert!(lint("canon-sim", in_test).is_empty(), "test code exempt");
        let annotated = "fn snapshot(&self) {\n    // audit: full-rebuild — one-off export, not a churn event\n    let g = GraphBuilder::from_per_node_links(ids, rows);\n}\n";
        assert!(lint("canon-sim", annotated).is_empty());
        let allowed = "// audit: allow(rebuild-on-churn)\nfn f() { build_cacophony(&h, &p, 1); }\n";
        assert!(lint("canon-node", allowed).is_empty());
    }

    #[test]
    fn rebuild_on_churn_requires_word_boundaries() {
        let src = "fn f() { self.rebuild_canonical_counter += 1; }\n";
        assert!(
            lint("canon-sim", src).is_empty(),
            "substring must not match"
        );
        let src2 = "fn f() { my_build_crescendo_helper(); }\n";
        assert!(lint("canon-sim", src2).is_empty());
    }

    // ---- hash-into-iter ---------------------------------------------------

    #[test]
    fn hash_into_iter_flags_a_hashed_binding_and_a_hashed_field() {
        let local = "fn f() {\n    let s: std::collections::HashSet<u8> = Default::default();\n    let v: Vec<u8> = s.into_iter().collect();\n}\n";
        let f = lint("canon-bench", local);
        assert_eq!(rules(&f), vec!["hash-into-iter"], "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].message.contains("BTreeMap/BTreeSet"),
            "{}",
            f[0].message
        );
        let field = "struct S {\n    placements: HashMap<u64, Vec<u64>>,\n}\nimpl S {\n    fn all(self) -> Vec<(u64, Vec<u64>)> {\n        self.placements.into_iter().collect()\n    }\n}\n";
        let f = lint("canon-store", field);
        assert_eq!(rules(&f), vec!["hash-into-iter"], "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn hash_into_iter_is_silent_on_btree_lookups_and_allowed_lines() {
        let btree = "fn f() {\n    let s: std::collections::BTreeSet<u8> = Default::default();\n    let v: Vec<u8> = s.into_iter().collect();\n}\n";
        assert!(lint("canon", btree).is_empty());
        let lookup = "use std::collections::HashMap;\nfn f(m: &HashMap<u8, u8>) -> bool {\n    m.contains_key(&0) && m.get(&1).is_some()\n}\n";
        assert!(lint("canon-node", lookup).is_empty());
        let allowed = "fn f() {\n    let s: std::collections::HashSet<u8> = Default::default();\n    // audit: allow(hash-into-iter)\n    let n = s.into_iter().count();\n}\n";
        assert!(lint("canon", allowed).is_empty());
    }

    // ---- greedy-outside-engine --------------------------------------------

    #[test]
    fn greedy_outside_engine_flags_private_router() {
        let src = "fn next_hop(g: &G, cur: N, t: Id) -> Option<N> {\n    let mut best = None;\n    for &nb in g.neighbors(cur) {\n        let d = metric.distance(g.id(nb), t);\n        if d < best_d { best = Some(nb); }\n    }\n    best\n}\n";
        let f = lint("canon-sim", src);
        assert_eq!(rules(&f), vec!["greedy-outside-engine"], "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn greedy_outside_engine_flags_clockwise_and_xor_variants() {
        let cw = "fn f() {\n    for &nb in g.neighbors(cur) {\n        let d = g.id(nb).clockwise_to(dest);\n    }\n}\n";
        let xor = "fn f() {\n    for &nb in g.neighbors(cur) {\n        let d = g.id(nb).xor_to(dest);\n    }\n}\n";
        assert_eq!(rules(&lint("canon", cw)), vec!["greedy-outside-engine"]);
        assert_eq!(rules(&lint("canon", xor)), vec!["greedy-outside-engine"]);
    }

    #[test]
    fn greedy_outside_engine_allows_annotated_engine_loops() {
        let src = "fn candidates(&self) {\n    // audit: allow(greedy-outside-engine)\n    for &nb in graph.neighbors(at) {\n        let d = self.metric.distance(graph.id(nb), self.target);\n    }\n}\n";
        assert!(lint("canon-overlay", src).is_empty());
    }

    #[test]
    fn masked_lines_stay_aligned_past_string_continuations() {
        // A `\`-newline continuation inside a string literal spans two
        // source lines; masking must keep both, or every annotation and
        // finding below the string is attributed one line off.
        let src = "fn msg() -> String {\n    format!(\n        \"a long message that wraps \\\n         onto a second line\"\n    )\n}\nfn pick(g: &G, at: N) {\n    // audit: allow(greedy-outside-engine)\n    for &nb in g.neighbors(at) {\n        let d = metric.distance(g.id(nb), t);\n    }\n}\n";
        assert!(
            lint("canon-overlay", src).is_empty(),
            "{:?}",
            lint("canon-overlay", src)
        );
        // Without the annotation the finding lands on the true line.
        let bare = src.replace("    // audit: allow(greedy-outside-engine)\n", "");
        let f = lint("canon-overlay", &bare);
        assert_eq!(rules(&f), vec!["greedy-outside-engine"]);
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn greedy_outside_engine_ignores_metric_free_neighbor_walks() {
        // Structural traversals (BFS, degree counts) iterate neighbors
        // without metric comparisons and are fine.
        let src = "fn bfs(g: &G, s: N) {\n    for &nb in g.neighbors(s) {\n        queue.push_back(nb);\n    }\n}\n";
        assert!(lint("canon-overlay", src).is_empty());
    }

    #[test]
    fn greedy_outside_engine_exempts_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        for &nb in g.neighbors(i) {\n            let _ = me.clockwise_to(g.id(nb));\n        }\n    }\n}\n";
        assert!(lint("canon", src).is_empty());
    }

    #[test]
    fn greedy_outside_engine_window_bounds_the_pairing() {
        // A metric call far below an unrelated neighbors call is not paired.
        let pad = "    let _ = 0;\n".repeat(GREEDY_WINDOW);
        let src = format!(
            "fn f() {{\n    let n = g.neighbors(s);\n{pad}    let d = a.distance(b, c);\n}}\n"
        );
        assert!(lint("canon", &src).is_empty());
    }

    // ---- infrastructure ---------------------------------------------------

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let masked = mask_comments_and_strings(
            "let a = r#\"panic!(\"x\")\"#;\nlet c = 'x';\nlet lt: &'static str = \"y\";\n",
        );
        assert!(!masked.contains("panic"));
        assert!(masked.contains("'static"), "{masked}");
        assert_eq!(masked.lines().count(), 3);
    }

    #[test]
    fn nested_test_mod_braces_matched() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { { } }\n    #[test]\n    fn t() { build_kandy(&h, &p, 7); }\n}\nfn b() { build_kandy(&h, &p, 7); }\n";
        let f = lint("canon-sim", src);
        // Only the rebuild *after* the test mod is flagged.
        assert_eq!(rules(&f), vec!["rebuild-on-churn"]);
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn a_braceless_test_item_ends_at_its_semicolon() {
        // A `#[cfg(test)]` import or bodiless item covers only itself: the
        // next item is real code and every rule still reads it.
        let greedy = "fn real(g: &G, at: N) {\n    for &nb in g.neighbors(at) {\n        let d = g.id(nb).clockwise_to(t);\n    }\n}\n";
        for prefix in [
            "#[cfg(test)]\nuse std::fmt;\n",
            "#[cfg(test)]\nconst PAD: [u8; 4] = [0; 4];\n",
        ] {
            let f = lint("canon", &format!("{prefix}{greedy}"));
            assert_eq!(
                rules(&f),
                vec!["greedy-outside-engine"],
                "{prefix:?}: {f:?}"
            );
            assert_eq!(f[0].line, 4);
        }
        let rebuild = "#[cfg(test)]\nmod tests;\nfn join() { build_kandy(&h, &p, 7); }\n";
        assert_eq!(rules(&lint("canon-sim", rebuild)), vec!["rebuild-on-churn"]);
        // A bracketed `;` in a test function's signature does not end it.
        let sig =
            "#[cfg(test)]\nfn pad() -> [u8; 4] {\n    build_kandy(&h, &p, 7);\n    [0; 4]\n}\n";
        assert!(lint("canon-sim", sig).is_empty());
    }

    #[test]
    fn display_format_is_file_line_rule_message() {
        let f = Finding {
            file: "crates/canon/src/engine.rs".to_owned(),
            line: 12,
            rule: "hash-into-iter",
            message: "m".to_owned(),
        };
        assert_eq!(
            f.to_string(),
            "crates/canon/src/engine.rs:12: [hash-into-iter] m"
        );
    }
}

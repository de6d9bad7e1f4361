//! Regression test for the strict wall-clock rule in Clock-trait crates.
//!
//! The fixture `tests/fixtures/node_clock_violation.rs` is a deliberately
//! broken canon-node-style source file. It is never compiled; the test
//! feeds it to the linter verbatim and pins exactly which lines must be
//! flagged — including the one inside `#[cfg(test)]`, which only the
//! strict rule catches.

use canon_audit::lint::{lint_file, SourceFile, CLOCK_EXEMPT_CRATES, CLOCK_TRAIT_CRATES};

const FIXTURE: &str = include_str!("fixtures/node_clock_violation.rs");

fn lint_as(crate_name: &str) -> Vec<canon_audit::lint::Finding> {
    lint_file(&SourceFile {
        crate_name,
        path: "crates/canon-node/src/fixture.rs",
        content: FIXTURE,
    })
    .into_iter()
    .filter(|f| f.rule == "wall-clock")
    .collect()
}

#[test]
fn canon_node_is_a_clock_trait_crate_but_not_clock_exempt() {
    assert!(CLOCK_TRAIT_CRATES.contains(&"canon-node"));
    assert!(
        !CLOCK_EXEMPT_CRATES.contains(&"canon-node"),
        "strict and exempt are mutually exclusive by construction"
    );
}

#[test]
fn strict_rule_flags_every_violation_in_the_fixture() {
    let findings = lint_as("canon-node");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![8, 12, 30],
        "import, struct field, and the in-test `Instant::now()` must all be \
         flagged: {findings:?}"
    );
    for f in &findings {
        assert!(
            f.message.contains("`VirtualClock`"),
            "strict findings must steer to the in-tree Clock: {}",
            f.message
        );
    }
}

#[test]
fn ordinary_crates_still_get_the_test_exemption_on_the_same_source() {
    // Linted as a non-strict crate, the `#[cfg(test)]` usage on line 30 is
    // exempt — only the two non-test violations remain. This pins the
    // *difference* the strict rule makes.
    let findings = lint_as("canon-sim");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![8, 12], "{findings:?}");
}

#[test]
fn the_real_canon_node_sources_are_clean_under_the_strict_rule() {
    // Lint the actual shipped crate, not the fixture: every canon-node
    // source file must pass the strict rule with zero findings.
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir")
        .join("canon-node")
        .join("src");
    let mut checked = 0;
    let mut stack = vec![src_dir];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read canon-node/src") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let content = std::fs::read_to_string(&path).expect("read source");
                let rel = path.to_string_lossy().into_owned();
                let findings: Vec<_> = lint_file(&SourceFile {
                    crate_name: "canon-node",
                    path: &rel,
                    content: &content,
                })
                .into_iter()
                .filter(|f| f.rule == "wall-clock")
                .collect();
                assert!(findings.is_empty(), "{findings:?}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 7, "expected the full canon-node module set");
}

//! Regression test for the `rebuild-on-churn` lint on churn-path crates.
//!
//! The fixture `tests/fixtures/sim_rebuild_violation.rs` is a deliberately
//! broken canon-sim-style source file that reconstructs the network on
//! every join/leave. It is never compiled; the test feeds it to the linter
//! verbatim and pins exactly which lines must be flagged — and that the
//! `// audit: full-rebuild` annotation and `#[cfg(test)]` regions stay
//! exempt.

use canon_audit::lint::{lint_file, SourceFile, CHURN_PATH_CRATES};

const FIXTURE: &str = include_str!("fixtures/sim_rebuild_violation.rs");

fn lint_as(crate_name: &str) -> Vec<canon_audit::lint::Finding> {
    lint_file(&SourceFile {
        crate_name,
        path: "crates/canon-sim/src/fixture.rs",
        content: FIXTURE,
    })
    .into_iter()
    .filter(|f| f.rule == "rebuild-on-churn")
    .collect()
}

#[test]
fn the_lint_flags_every_rebuild_in_the_fixture() {
    let findings = lint_as("canon-sim");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![6, 7, 19, 24],
        "both imports and both per-event rebuilds must be flagged; the \
         annotated export on line 35 and the in-test build on line 45 must \
         not: {findings:?}"
    );
    for f in &findings {
        assert!(
            f.message.contains("link table") && f.message.contains("full-rebuild"),
            "finding must steer to the link table and the escape hatch: {}",
            f.message
        );
    }
}

#[test]
fn non_churn_crates_are_not_in_scope() {
    for crate_name in ["canon", "canon-overlay", "canon-bench", "canon-audit"] {
        assert!(
            lint_as(crate_name).is_empty(),
            "`{crate_name}` is allowed to build graphs"
        );
    }
}

#[test]
fn the_real_churn_path_sources_are_clean() {
    // Lint the actual shipped crates, not the fixture: every canon-sim and
    // canon-node source file must pass with zero findings, and the only
    // annotations that buy that are canon-sim's `snapshot()` export (the
    // `GraphBuilder` import and the one call).
    assert_eq!(CHURN_PATH_CRATES, ["canon-sim", "canon-node"]);
    let crates_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir")
        .to_path_buf();
    let mut checked = 0;
    let mut annotations = 0;
    for crate_name in CHURN_PATH_CRATES {
        let mut stack = vec![crates_dir.join(crate_name).join("src")];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("read churn crate src") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let content = std::fs::read_to_string(&path).expect("read source");
                    let rel = path.to_string_lossy().into_owned();
                    let findings: Vec<_> = lint_file(&SourceFile {
                        crate_name,
                        path: &rel,
                        content: &content,
                    })
                    .into_iter()
                    .filter(|f| f.rule == "rebuild-on-churn")
                    .collect();
                    assert!(findings.is_empty(), "{findings:?}");
                    annotations += content.matches("// audit: full-rebuild").count();
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 8, "expected the full canon-sim + canon-node set");
    assert_eq!(annotations, 2, "a new escape hatch needs a new reason here");
}

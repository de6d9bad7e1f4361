//! The lint pass over a whole workspace: the real one must be clean, and
//! a synthetic one pins which files are read and which rules apply where.

use canon_audit::lint::lint_workspace;
use std::path::Path;

#[test]
fn the_workspace_has_no_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("read the workspace");
    let listing: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(
        findings.is_empty(),
        "{} finding(s):\n{}",
        findings.len(),
        listing.join("\n")
    );
}

#[test]
fn test_targets_are_read_for_hash_order_walks_only() {
    // One body that breaks every per-file rule, written into library code,
    // every kind of test target, and a fixture.
    const BODY: &str = "fn f() {
    let s: HashSet<u64> = HashSet::new();
    let n = build_kandy(&h, &p, 7);
    for &nb in g.neighbors(at) {
        let d = g.id(nb).clockwise_to(t);
    }
    let v: Vec<u64> = s.into_iter().collect();
}
";
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_workspace");
    let _ = std::fs::remove_dir_all(&root);
    let files = [
        "crates/canon-sim/src/lib.rs",
        "crates/canon-sim/tests/churn.rs",
        "crates/canon-sim/benches/join.rs",
        "crates/canon-sim/tests/fixtures/input.rs",
        "tests/churn.rs",
        "tests/fixtures/input.rs",
        "examples/churn.rs",
    ];
    for file in files {
        let path = root.join(file);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, BODY).expect("write");
    }
    let found: Vec<(String, usize, &str)> = lint_workspace(&root)
        .expect("read the temp workspace")
        .into_iter()
        .map(|f| (f.file, f.line, f.rule))
        .collect();
    let hash = |file: &str| (file.to_owned(), 7, "hash-into-iter");
    assert_eq!(
        found,
        vec![
            hash("crates/canon-sim/benches/join.rs"),
            (
                "crates/canon-sim/src/lib.rs".to_owned(),
                3,
                "rebuild-on-churn"
            ),
            (
                "crates/canon-sim/src/lib.rs".to_owned(),
                4,
                "greedy-outside-engine"
            ),
            hash("crates/canon-sim/src/lib.rs"),
            hash("crates/canon-sim/tests/churn.rs"),
            hash("examples/churn.rs"),
            hash("tests/churn.rs"),
        ]
    );
    std::fs::remove_dir_all(&root).expect("clean up");
}

//! Regression test for the reply-obligation rule.
//!
//! The fixtures `tests/fixtures/msg_reply_violation.rs` (the `Payload`
//! enum) and `tests/fixtures/node_reply_handlers.rs` (its handler file)
//! form a two-file synthetic crate. The test pins exactly which variants
//! are flagged: the unannotated one-way `Gossip`, and the annotated but
//! never-handled `Orphaned` — while `Request` is discharged by the
//! handler's `Payload::Response { .. }` construction site.

use canon_audit::lint::{check_reply_obligation, SourceFile, REPLY_OBLIGATION_CRATES};

const MSG: &str = include_str!("fixtures/msg_reply_violation.rs");
const HANDLERS: &str = include_str!("fixtures/node_reply_handlers.rs");

fn crate_files<'a>(with_handlers: bool) -> Vec<SourceFile<'a>> {
    let mut files = vec![SourceFile {
        crate_name: "canon-node",
        path: "crates/canon-node/src/msg.rs",
        content: MSG,
    }];
    if with_handlers {
        files.push(SourceFile {
            crate_name: "canon-node",
            path: "crates/canon-node/src/node.rs",
            content: HANDLERS,
        });
    }
    files
}

#[test]
fn canon_node_is_a_reply_obligation_crate() {
    assert!(REPLY_OBLIGATION_CRATES.contains(&"canon-node"));
}

#[test]
fn rule_flags_unannotated_one_way_and_unhandled_variants() {
    let findings = check_reply_obligation(&crate_files(true));
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![10, 14], "{findings:?}");
    assert!(
        findings[0].message.contains("fire-and-forget"),
        "`Gossip` must be steered to the annotation: {}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("never handled"),
        "`Orphaned` is annotated but dead vocabulary: {}",
        findings[1].message
    );
}

#[test]
fn request_without_a_reply_construction_site_is_flagged() {
    // Lint the enum alone: with no handler file there is no
    // `Payload::Response { .. }` construction anywhere, so `Request`
    // itself violates the obligation (and every non-Client variant is
    // unhandled).
    let findings = check_reply_obligation(&crate_files(false));
    let request_findings = findings
        .iter()
        .filter(|f| f.line == 8 && f.message.contains("no `Payload::Response"))
        .count();
    assert_eq!(request_findings, 1, "{findings:?}");
    let unhandled = findings
        .iter()
        .filter(|f| f.message.contains("never handled"))
        .count();
    assert_eq!(
        unhandled, 5,
        "all non-Client variants unhandled: {findings:?}"
    );
}

#[test]
fn annotated_and_handled_variants_are_clean() {
    // `Heartbeat` (line 12) is annotated and handled; `Client` and
    // `Response` are structurally exempt.
    let findings = check_reply_obligation(&crate_files(true));
    for clean_line in [7, 9, 12] {
        assert!(
            findings.iter().all(|f| f.line != clean_line),
            "line {clean_line} must be clean: {findings:?}"
        );
    }
}

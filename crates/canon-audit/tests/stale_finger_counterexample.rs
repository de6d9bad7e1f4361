//! A known defect of the live protocol, pinned as a minimized, replayable
//! counterexample: a graceful leave notifies the leaver's own links,
//! successors and predecessor, but not the nodes that link the leaver
//! through a finger without being one of those. With every Chord finger
//! seeded, the checker finds such a node still linking the departed one
//! at quiescence; with successor-only links the same scenario is clean.
//!
//! ROADMAP item 18(b) (a leave that repairs every node linking the leaver)
//! flips this test: the violation must then be gone, and the first test
//! turns into a clean pass like its control.

use canon_audit::protocol::{explore, replay, ExploreConfig, Scenario};
use canon_node::Command;

const LEAVER: u64 = 0x8000_0000_0000_0007;
const STALE: u64 = 0x4000_0000_0000_0007;

/// Eight members evenly spread over the ring (`i · 2^61 + 7`), replication
/// 2 over successor lists of 2, and one injection: member 4 leaves.
fn leave_among_fingers(fingers: bool) -> Scenario {
    Scenario {
        name: "leave-among-fingers",
        members: (0..8u64).map(|i| (i << 61) + 7).collect(),
        fingers,
        blanks: vec![],
        replication: 2,
        succ_len: 2,
        injections: vec![(LEAVER, Command::Leave)],
        triggers: vec![],
        cache_capacity: 0,
        broken_handover_at: None,
        expect_quiescent_completion: true,
    }
}

#[test]
fn a_leave_strands_a_finger_at_a_node_it_does_not_notify() {
    let scenario = leave_among_fingers(true);
    let report = explore(&scenario, &ExploreConfig::default());
    assert!(
        report.explored <= 7,
        "found after {} states",
        report.explored
    );
    let cx = report
        .violation
        .expect("a node must still link the departed member");
    // Member 2 links member 4 through its 2^62 finger; member 4 links
    // members 5, 6 and 0, so its notices never reach member 2.
    let stale = format!("links: {:#018x} still links {LEAVER:#018x}", STALE);
    assert!(
        cx.violations.iter().any(|v| v.starts_with(&stale)),
        "expected {stale:?}, got {:?}",
        cx.violations
    );
    // The leave command, its handoff and its four notices.
    assert!(cx.steps.len() <= cx.discovered_len);
    assert!(
        cx.steps.len() <= 6,
        "minimized trace unexpectedly long: {:?}",
        cx.labels
    );

    for threads in [1usize, 4] {
        let r = canon_par::with_threads(threads, || replay(&scenario, &cx.steps));
        assert_eq!(
            r.executed,
            cx.steps.len(),
            "replay at {threads} thread(s) diverged: step not pending"
        );
        assert_eq!(
            r.fingerprint, cx.fingerprint,
            "replay at {threads} thread(s) not byte-identical"
        );
        assert_eq!(
            r.violations, cx.violations,
            "replay at {threads} thread(s) changed the violation"
        );
    }
}

#[test]
fn the_same_leave_over_successor_links_is_clean() {
    let report = explore(&leave_among_fingers(false), &ExploreConfig::default());
    assert!(report.complete);
    assert!(
        report.violation.is_none(),
        "successor-only leave flagged: {:?}",
        report.violation.map(|c| c.violations)
    );
    assert_eq!(report.explored, 13);
}

//! Cross-checks of the protocol explorer against ground truth.
//!
//! The unreduced explorer must agree with the closed-form interleaving
//! count on a scenario whose delivery streams are pure FIFO queues; DPOR
//! must then explore strictly fewer states while reaching the same
//! invariant verdict; and the six shipped scenarios must pass exhaustively
//! within the default bounds, with the state counts committed in
//! `results/protocol_states.json`.

use canon_audit::protocol::{
    explore, reports_to_json, scenarios, ExploreConfig, Scenario, ScenarioReport,
};
use canon_id::NodeId;
use canon_node::{Command, Op};
use std::fmt::Write;

/// The number of interleavings of FIFO streams with the given lengths:
/// the multinomial coefficient `(Σsizes)! / Π(sizes!)`.
fn interleaving_count(sizes: &[usize]) -> u128 {
    // Build incrementally as Π C(prefix_total, size) to stay in range.
    let mut total = 0u128;
    let mut count = 1u128;
    for &s in sizes {
        for k in 1..=s as u128 {
            total += 1;
            count = count * total / k; // exact: product of consecutive / k! stepwise
        }
    }
    count
}

/// Two seeded members, each with `per_node` injected self-owned lookups.
/// Every delivery is a client command consumed locally (keys map to their
/// own origin under largest-id-≤-key responsibility), so the reachable
/// delivery orders are exactly the interleavings of two FIFO streams.
fn two_stream_scenario(per_node: usize) -> Scenario {
    let mut injections = Vec::new();
    for i in 0..per_node {
        injections.push((
            100,
            Command::Issue(Op::Lookup {
                key: 110 + i as u64,
            }),
        ));
        injections.push((
            200,
            Command::Issue(Op::Lookup {
                key: 210 + i as u64,
            }),
        ));
    }
    Scenario {
        name: "two-stream",
        members: vec![100, 200],
        fingers: false,
        blanks: vec![],
        replication: 1,
        succ_len: 1,
        injections,
        triggers: vec![],
        cache_capacity: 0,
        broken_handover_at: None,
        expect_quiescent_completion: true,
    }
}

fn unreduced() -> ExploreConfig {
    ExploreConfig {
        dpor: false,
        dedup: false,
        ..ExploreConfig::default()
    }
}

#[test]
fn unreduced_explorer_matches_interleaving_formula() {
    // The formula itself, on hand-checked multinomials.
    assert_eq!(interleaving_count(&[]), 1);
    assert_eq!(interleaving_count(&[5]), 1);
    assert_eq!(interleaving_count(&[1, 1, 1]), 6);
    assert_eq!(interleaving_count(&[2, 2]), 6);
    assert_eq!(interleaving_count(&[2, 2, 1, 1]), 180);
    assert_eq!(interleaving_count(&[2, 2, 2, 2]), 2520);

    // Each node's command stream is one FIFO "thread"; the number of
    // complete delivery orders is the multinomial interleaving count.
    for per_node in 1..=3 {
        let scenario = two_stream_scenario(per_node);
        let report = explore(&scenario, &unreduced());
        assert!(report.complete, "bounds hit at per_node={per_node}");
        assert!(report.violation.is_none());
        assert_eq!(
            report.terminals as u128,
            interleaving_count(&[per_node, per_node]),
            "terminal traces != interleaving formula at per_node={per_node}"
        );
        assert_eq!(report.deduped, 0);
        assert_eq!(report.sleep_pruned, 0);
    }
}

#[test]
fn dpor_explores_strictly_fewer_states_same_verdict() {
    let scenario = two_stream_scenario(2);
    let full = explore(&scenario, &unreduced());
    let reduced = explore(
        &scenario,
        &ExploreConfig {
            dpor: true,
            dedup: false,
            ..ExploreConfig::default()
        },
    );
    assert!(full.complete && reduced.complete);
    // The two streams touch different receivers throughout, so sleep
    // sets must cut the tree — strictly, not just weakly.
    assert!(
        reduced.explored < full.explored,
        "DPOR did not reduce: {} vs {}",
        reduced.explored,
        full.explored
    );
    assert!(reduced.sleep_pruned > 0);
    // Same verdict either way.
    assert!(full.violation.is_none() && reduced.violation.is_none());
}

#[test]
fn dedup_prunes_convergent_orders() {
    let scenario = two_stream_scenario(2);
    let full = explore(&scenario, &unreduced());
    let deduped = explore(
        &scenario,
        &ExploreConfig {
            dpor: false,
            dedup: true,
            ..ExploreConfig::default()
        },
    );
    assert!(deduped.complete);
    assert!(deduped.deduped > 0, "no convergent states found");
    assert!(deduped.explored < full.explored);
    assert!(deduped.violation.is_none());
}

/// Why a report fails: its minimized counterexample (each delivery, the
/// violations, the replay fingerprint), or the bounds an incomplete
/// exploration hit.
fn diagnosis(r: &ScenarioReport) -> String {
    let Some(cx) = &r.violation else {
        return format!(
            "{} INCOMPLETE: bounds hit after {} states (depth {}); raise max_states/max_depth",
            r.scenario, r.explored, r.max_depth_seen
        );
    };
    let mut out = format!(
        "{} FAILED after {} states (counterexample minimized {} -> {} deliveries, \
         fingerprint {:#018x}):",
        r.scenario,
        r.explored,
        cx.discovered_len,
        cx.steps.len(),
        cx.fingerprint
    );
    for (step, label) in cx.steps.iter().zip(&cx.labels) {
        let _ = write!(
            out,
            "\n  deliver slot={} from={} seq={}  ({label})",
            step.slot, step.from, step.seq
        );
    }
    for v in &cx.violations {
        let _ = write!(out, "\n  violation: {v}");
    }
    out
}

#[test]
fn shipped_scenarios_pass_exhaustively() {
    let mut reports = Vec::new();
    for scenario in scenarios() {
        let report = explore(&scenario, &ExploreConfig::default());
        // The bounds turn a state-space blow-up into `complete = false`,
        // so a scenario edit that defeats the reducers fails here fast.
        assert!(
            report.complete && report.violation.is_none(),
            "{}",
            diagnosis(&report)
        );
        // Guard against the scenarios degenerating into straight-line
        // runs: even after reduction each must reach more than one
        // terminal — a real scheduling choice survived.
        assert!(
            report.terminals > 1,
            "{}: only {} terminal trace(s) — no interleaving explored",
            scenario.name,
            report.terminals
        );
        reports.push(report);
    }
    // Exploration is deterministic, so the state counts are exact: a
    // change to the protocol or to the explorer's reductions shows here.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/protocol_states.json"
    );
    assert_eq!(
        reports_to_json(&reports) + "\n",
        std::fs::read_to_string(golden).expect("read the golden"),
        "state counts differ from results/protocol_states.json"
    );
}

#[test]
fn triggers_fire_at_the_scripted_moment() {
    // The crash scenario kills node 100 after the first delivered join
    // request; in every terminal state node 100 must be dead, which the
    // exploration already verifies implicitly (its ring invariant treats
    // 100 as dead). Here we check the trigger changes outcomes at all:
    // without the crash the same scenario completes the join and the ring
    // grows; the crash scenario must not be equivalent to it.
    let mut crashed = None;
    let mut clean = None;
    for s in scenarios() {
        if s.name == "crash-before-handover-ack" {
            let mut no_fault = s.clone();
            no_fault.triggers.clear();
            crashed = Some(explore(&s, &ExploreConfig::default()));
            clean = Some(explore(&no_fault, &ExploreConfig::default()));
        }
    }
    let (crashed, clean) = (
        crashed.expect("scenario present"),
        clean.expect("clean run"),
    );
    assert!(crashed.complete && crashed.violation.is_none());
    assert!(clean.complete && clean.violation.is_none());
    assert_ne!(
        (crashed.explored, crashed.terminals),
        (clean.explored, clean.terminals),
        "crash trigger had no observable effect"
    );
    let _ = NodeId::new(100);
}

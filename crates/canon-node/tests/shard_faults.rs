//! A damaged shard is a crashed node, not a dead process: one node of a
//! file-backed cluster has a stored value damaged under its log. The read
//! that finds the damage crash-stops that node, counted once as a shard
//! fault, and every other node keeps serving.
//!
//! The only file-backed runtime in this test binary, so the per-process
//! log directory holds its logs alone.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::ring::SortedRing;
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::{
    from_graph, ChannelTransport, Command, Op, OpKind, Outcome, RuntimeConfig, ShardBackend,
    VirtualClock,
};
use canon_overlay::route_to_key;
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// The log file of `node`'s shard in this process's log directory.
fn log_of(node: NodeId) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("canon-node-shards-{}", std::process::id()));
    let suffix = format!("-{:016x}.log", node.raw());
    let mut logs = std::fs::read_dir(&dir)
        .expect("the log directory")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.ends_with(&suffix))
        });
    let log = logs.next().expect("the node's log");
    assert!(logs.next().is_none(), "one log per node");
    log
}

/// Flips the last byte of `log`: the last value the shard appended.
fn damage_last_value(log: &PathBuf) {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(log)
        .expect("open the log");
    let len = file.metadata().expect("log metadata").len();
    let mut last = [0u8];
    file.seek(SeekFrom::Start(len - 1)).expect("seek");
    std::io::Read::read_exact(&mut file, &mut last).expect("read");
    file.seek(SeekFrom::Start(len - 1)).expect("seek");
    file.write_all(&[last[0] ^ 0xff]).expect("write");
    file.sync_all().expect("sync");
}

#[test]
fn a_node_whose_log_is_damaged_crash_stops_and_the_rest_keep_serving() {
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 24, Seed(31));
    let config = RuntimeConfig {
        backend: ShardBackend::TempFile,
        ..RuntimeConfig::default()
    };
    let net = build_crescendo(&h, &p);
    let graph = net.graph();
    let mut rt = from_graph(
        graph,
        Arc::new(VirtualClock::new()),
        Arc::new(ChannelTransport::new(1)),
        config,
    );
    let ids = rt.ids();
    let ring = SortedRing::new(ids.clone());
    let responsible = |key: u64| ring.responsible(NodeId::new(key)).expect("a ring");
    let base = Seed(31).derive("shard-fault-test");
    let draw = |i: u64| base.derive_index(i).0;

    // Preload, then write the key to damage last, so its value is the last
    // bytes in its primary's log.
    let stored: BTreeMap<u64, u64> = (0..60).map(|i| (draw(2 * i), draw(2 * i + 1))).collect();
    let (damaged_key, damaged_value) = (draw(1000), draw(1001));
    let victim = responsible(damaged_key);
    let origin_for = |key: u64| {
        let live: Vec<NodeId> = ids.iter().copied().filter(|&n| n != victim).collect();
        live[(key % live.len() as u64) as usize]
    };
    for (&key, &value) in &stored {
        rt.inject(origin_for(key), Command::Issue(Op::Put { key, value }));
    }
    rt.run_until_idle();
    rt.inject(
        origin_for(damaged_key),
        Command::Issue(Op::Put {
            key: damaged_key,
            value: damaged_value,
        }),
    );
    rt.run_until_idle();
    assert_eq!(rt.summary().shard_faults, 0);
    assert!(rt.completions().iter().all(|c| c.outcome == Outcome::Ok));

    damage_last_value(&log_of(victim));
    rt.inject(
        origin_for(damaged_key),
        Command::Issue(Op::Get { key: damaged_key }),
    );
    rt.run_until_idle();
    assert!(rt.is_dead(victim), "the damaged read crash-stops its node");
    assert_eq!(rt.summary().shard_faults, 1);
    let failed = rt
        .completions()
        .into_iter()
        .find(|c| c.key == damaged_key && c.kind == OpKind::Get)
        .expect("the damaged read completes");
    assert_eq!(
        failed.outcome,
        Outcome::TimedOut,
        "the damaged read is never answered"
    );

    // The workload goes on: every key is read back and rewritten. A
    // request goes unanswered exactly when its route reaches the crashed
    // node: as the key's responsible node or as a hop on the way (the
    // runtime does not yet route around the dead).
    for (&key, &value) in &stored {
        rt.inject(origin_for(key), Command::Issue(Op::Get { key }));
        rt.inject(
            origin_for(key >> 7),
            Command::Issue(Op::Put {
                key,
                value: value ^ 1,
            }),
        );
    }
    rt.run_until_idle();
    let summary = rt.summary();
    assert!(summary.zero_loss(), "{summary:?}");
    assert_eq!(summary.shard_faults, 1, "one damaged node, one fault");
    let (mut served, mut unanswered) = (0, 0);
    for c in rt.completions() {
        if c.issued_at < failed.completed_at {
            continue; // before the workload went on
        }
        let from = graph.index_of(c.origin).expect("origin is in the graph");
        let route = route_to_key(graph, Clockwise, from, NodeId::new(c.key)).expect("routes");
        if route.path().iter().any(|&hop| graph.id(hop) == victim) {
            assert_eq!(c.outcome, Outcome::TimedOut, "{c:?}");
            unanswered += 1;
            continue;
        }
        served += 1;
        assert_eq!(c.outcome, Outcome::Ok, "{c:?}");
        assert_eq!(c.responder, Some(responsible(c.key)));
        if c.kind == OpKind::Get {
            assert!(
                [Some(stored[&c.key]), Some(stored[&c.key] ^ 1)].contains(&c.value),
                "{c:?}"
            );
        }
    }
    assert!(
        served > 0 && unanswered > 0,
        "{served} served, {unanswered} not"
    );
    assert!(ids.iter().all(|&n| n == victim || !rt.is_dead(n)));
}

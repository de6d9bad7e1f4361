//! End-to-end protocol tests: a live Crescendo cluster under the virtual
//! clock, exercising lookup, replicated PUT/GET, join, leave, partitions
//! and retry behavior.

use canon::crescendo::build_crescendo;
use canon::CanonicalNetwork;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::metric::Clockwise;
use canon_id::ring::SortedRing;
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::{
    from_graph, ChannelTransport, Command, FaultyTransport, Op, Outcome, Runtime, RuntimeConfig,
    VirtualClock,
};
use canon_overlay::route_to_key;
use canon_store::replica_successors;
use std::sync::Arc;

/// The deterministic Crescendo network for `n` nodes.
fn network(n: usize, seed: u64) -> CanonicalNetwork {
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, n, Seed(seed));
    build_crescendo(&h, &p)
}

/// A live cluster over [`network`]'s graph.
fn cluster(n: usize, seed: u64, config: RuntimeConfig) -> Runtime {
    from_graph(
        network(n, seed).graph(),
        Arc::new(VirtualClock::new()),
        Arc::new(ChannelTransport::new(1)),
        config,
    )
}

/// Deterministic pseudo-random u64 stream for picking keys and origins.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let base = Seed(seed).derive("protocol-test");
    let mut i = 0;
    move || {
        i += 1;
        base.derive_index(i).0
    }
}

#[test]
fn lookup_storm_finds_the_ring_responsible() {
    let net = network(64, 7);
    let mut rt = cluster(64, 7, RuntimeConfig::default());
    let ids = rt.ids();
    let ring = SortedRing::new(ids.clone());
    let mut next = stream(1);
    let mut expected = Vec::new();
    for _ in 0..200 {
        let origin = ids[(next() % ids.len() as u64) as usize];
        let key = next();
        expected.push((origin, key, ring.responsible(NodeId::new(key)).unwrap()));
        rt.inject(origin, Command::Issue(Op::Lookup { key }));
    }
    rt.run_until_idle();

    let summary = rt.summary();
    assert!(
        summary.zero_loss(),
        "lost or duplicated lookups: {summary:?}"
    );
    assert_eq!(summary.ok, 200);
    let completions = rt.completions();
    assert_eq!(completions.len(), 200);
    for c in &completions {
        let (_, _, want) = expected
            .iter()
            .find(|&&(o, k, _)| o == c.origin && k == c.key)
            .expect("completion matches an injected lookup");
        assert_eq!(
            c.responder,
            Some(*want),
            "lookup for {} answered by the wrong node",
            c.key
        );
        assert_eq!(c.outcome, Outcome::Ok);
        // Static ≡ live: a node routing from its bare link table takes
        // exactly the hops the offline engine takes on the full graph.
        let graph = net.graph();
        let from = graph.index_of(c.origin).expect("origin is in the graph");
        let route = route_to_key(graph, Clockwise, from, NodeId::new(c.key)).expect("routes");
        assert_eq!(graph.id(route.target()), *want);
        assert_eq!(
            c.hops as usize,
            route.hops(),
            "lookup for {} from {} took a different route live",
            c.key,
            c.origin
        );
    }
    // One request message per hop taken: no retries on a clean channel.
    let hops: usize = completions.iter().map(|c| c.hops as usize).sum();
    assert_eq!(rt.hop_totals(), (hops, hops));
}

#[test]
fn put_then_get_roundtrips_and_replicates_like_the_store_policy() {
    let config = RuntimeConfig::default();
    let mut rt = cluster(48, 11, config);
    let ids = rt.ids();
    let ring = SortedRing::new(ids.clone());
    let mut next = stream(2);
    let puts: Vec<(u64, u64)> = (0..60).map(|_| (next(), next())).collect();
    for &(key, value) in &puts {
        let origin = ids[(key % ids.len() as u64) as usize];
        rt.inject(origin, Command::Issue(Op::Put { key, value }));
    }
    rt.run_until_idle();

    // Every key must sit on exactly the replica set canon-store's
    // replication policy computes for the global ring.
    for &(key, _) in &puts {
        let want = replica_successors(&ring, NodeId::new(key), config.replication);
        let holders: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&id| rt.shard_of(id).contains_key(&key))
            .collect();
        assert_eq!(
            holders.len(),
            want.len(),
            "key {key} replica count mismatch"
        );
        for w in &want {
            assert!(holders.contains(w), "key {key} missing from replica {w}");
        }
    }

    // GETs from fresh origins see every stored value.
    for &(key, _) in &puts {
        let origin = ids[((key >> 7) % ids.len() as u64) as usize];
        rt.inject(origin, Command::Issue(Op::Get { key }));
    }
    rt.run_until_idle();
    let summary = rt.summary();
    assert!(summary.zero_loss(), "{summary:?}");
    for c in rt.completions() {
        if c.kind == canon_node::OpKind::Get {
            let (_, value) = puts.iter().find(|&&(k, _)| k == c.key).unwrap();
            assert_eq!(
                c.value,
                Some(*value),
                "get for {} read a stale value",
                c.key
            );
        }
    }
}

#[test]
fn join_integrates_a_new_node_and_hands_over_its_keys() {
    let mut rt = cluster(32, 3, RuntimeConfig::default());
    let ids = rt.ids();
    let ring = SortedRing::new(ids.clone());

    // A fresh identifier not colliding with any existing node.
    let mut next = stream(3);
    let joiner = loop {
        let candidate = NodeId::new(next());
        if !ids.contains(&candidate) {
            break candidate;
        }
    };
    let expected_pred = ring.responsible(joiner).unwrap();

    // Store a value the newcomer will become responsible for.
    let key = joiner.raw();
    rt.inject(ids[0], Command::Issue(Op::Put { key, value: 99 }));
    rt.run_until_idle();
    assert!(rt.shard_of(expected_pred).contains_key(&key));

    rt.spawn(joiner);
    rt.inject(joiner, Command::Join { bootstrap: ids[5] });
    rt.run_until_idle();

    assert_eq!(rt.pred_of(joiner), Some(expected_pred));
    assert!(
        rt.links_of(expected_pred).contains(&joiner),
        "predecessor must link the newcomer"
    );
    assert!(
        rt.shard_of(joiner).contains_key(&key),
        "key {key} must be handed over to the newcomer"
    );
    assert!(!rt.shard_of(expected_pred).contains_key(&key));

    // Lookups from arbitrary origins now terminate at the newcomer.
    rt.inject(ids[17], Command::Issue(Op::Lookup { key }));
    rt.run_until_idle();
    let lookup = rt
        .completions()
        .into_iter()
        .find(|c| c.kind == canon_node::OpKind::Lookup)
        .unwrap();
    assert_eq!(lookup.responder, Some(joiner));
    assert!(rt.summary().zero_loss());
}

#[test]
fn leave_hands_the_shard_to_the_range_inheritor() {
    let mut rt = cluster(32, 5, RuntimeConfig::default());
    let ids = rt.ids();
    let ring = SortedRing::new(ids.clone());

    // Pick a departing node and a key it is primary for.
    let leaver = ids[9];
    let key = leaver.raw();
    assert_eq!(ring.responsible(NodeId::new(key)), Some(leaver));
    let heir = ring.strict_predecessor(leaver).unwrap();

    rt.inject(ids[0], Command::Issue(Op::Put { key, value: 41 }));
    rt.run_until_idle();
    assert!(rt.shard_of(leaver).contains_key(&key));

    rt.inject(leaver, Command::Leave);
    rt.run_until_idle();

    assert!(rt.is_dead(leaver));
    assert!(
        rt.shard_of(heir).contains_key(&key),
        "the predecessor inherits the departing node's range"
    );
    assert!(
        !rt.links_of(heir).contains(&leaver),
        "neighbors must unlink the departed node"
    );

    // A GET for the key now terminates at the heir and still sees the
    // value.
    rt.inject(ids[20], Command::Issue(Op::Get { key }));
    rt.run_until_idle();
    let get = rt
        .completions()
        .into_iter()
        .find(|c| c.kind == canon_node::OpKind::Get)
        .unwrap();
    assert_eq!(get.responder, Some(heir));
    assert_eq!(get.value, Some(41));
    assert!(rt.summary().zero_loss());
}

#[test]
fn the_replica_probe_names_the_lookup_responder_first() {
    let config = RuntimeConfig::default();
    let mut rt = cluster(32, 19, config);
    let ids = rt.ids();
    let ring = SortedRing::new(ids.clone());
    let key = stream(5)();
    let holder = ring.responsible(NodeId::new(key)).unwrap();

    rt.inject(ids[1], Command::Issue(Op::Put { key, value: 7 }));
    rt.run_until_idle();

    // A lookup routed over the network finds the node the probe lists
    // first: the primary its replica set starts from.
    rt.inject(ids[2], Command::Issue(Op::Lookup { key }));
    rt.run_until_idle();
    let lookup = rt
        .completions()
        .into_iter()
        .find(|c| c.kind == canon_node::OpKind::Lookup)
        .unwrap();
    assert_eq!(lookup.outcome, Outcome::Ok);
    let probe = rt.replication_status(key);
    assert_eq!(lookup.responder, Some(probe.expected[0]));
    assert_eq!(probe.expected[0], holder);

    // The probe is satisfied after the put, at the policy's count.
    assert!(probe.satisfied, "{probe:?}");
    let expected = replica_successors(&ring, NodeId::new(key), config.replication).len();
    assert_eq!(probe.expected.len(), expected);
    assert!(rt.summary().zero_loss());
}

#[test]
fn file_backed_shards_serve_the_same_protocol() {
    let config = RuntimeConfig {
        backend: canon_node::ShardBackend::TempFile,
        ..RuntimeConfig::default()
    };
    let mut rt = cluster(24, 29, config);
    let ids = rt.ids();
    let mut next = stream(6);
    let puts: Vec<(u64, u64)> = (0..30).map(|_| (next(), next())).collect();
    for &(key, value) in &puts {
        let origin = ids[(key % ids.len() as u64) as usize];
        rt.inject(origin, Command::Issue(Op::Put { key, value }));
    }
    rt.run_until_idle();
    for &(key, _) in &puts {
        let origin = ids[((key >> 5) % ids.len() as u64) as usize];
        rt.inject(origin, Command::Issue(Op::Get { key }));
    }
    rt.run_until_idle();

    let summary = rt.summary();
    assert!(summary.zero_loss(), "{summary:?}");
    for c in rt.completions() {
        if c.kind == canon_node::OpKind::Get {
            let (_, value) = puts.iter().find(|&&(k, _)| k == c.key).unwrap();
            assert_eq!(c.value, Some(*value), "file-backed get for {}", c.key);
        }
    }

    // The logs live in a per-process directory (the only file-backed
    // runtime in this test binary) and go with the runtime that wrote them.
    let dir = std::env::temp_dir().join(format!("canon-node-shards-{}", std::process::id()));
    assert!(
        dir.is_dir(),
        "{} missing while the runtime lives",
        dir.display()
    );
    drop(rt);
    assert!(!dir.exists(), "{} outlived its runtime", dir.display());
}

#[test]
fn partitioned_requests_time_out_and_heal() {
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 32, Seed(13));
    let net = build_crescendo(&h, &p);
    let transport = Arc::new(FaultyTransport::new(
        ChannelTransport::new(1),
        Seed(99),
        0,
        0,
    ));
    let mut rt = from_graph(
        net.graph(),
        Arc::new(VirtualClock::new()),
        Arc::clone(&transport) as Arc<dyn canon_node::Transport>,
        RuntimeConfig::default(),
    );
    let ids = rt.ids();
    let origin = ids[0];
    let others: Vec<NodeId> = ids[1..].to_vec();

    // Cut the origin off entirely: every attempt and retry is lost.
    transport.partition(&[origin], &others);
    rt.inject(origin, Command::Issue(Op::Lookup { key: 1 }));
    rt.run_until_idle();
    let c = rt.completions().into_iter().next().unwrap();
    assert_eq!(c.outcome, Outcome::TimedOut);
    assert_eq!(
        c.attempts,
        RuntimeConfig::default().rpc.max_retries + 1,
        "every retry must be spent before giving up"
    );
    assert!(rt.summary().injected == rt.summary().completed);

    // After healing, new requests succeed.
    transport.heal();
    rt.inject(origin, Command::Issue(Op::Lookup { key: 1 }));
    rt.run_until_idle();
    let last = rt.completions().into_iter().last().unwrap();
    assert_eq!(last.outcome, Outcome::Ok);
    assert!(rt.next_event().is_none(), "shutdown drain leaves no work");
}

#[test]
fn lossy_network_is_covered_by_retries() {
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 64, Seed(17));
    let net = build_crescendo(&h, &p);
    // 10% loss with jitter: retransmissions must keep completions exact.
    let transport = Arc::new(FaultyTransport::new(
        ChannelTransport::new(1),
        Seed(23),
        100,
        3,
    ));
    let mut rt = from_graph(
        net.graph(),
        Arc::new(VirtualClock::new()),
        transport,
        RuntimeConfig::default(),
    );
    let ids = rt.ids();
    let mut next = stream(4);
    for _ in 0..200 {
        let origin = ids[(next() % ids.len() as u64) as usize];
        rt.inject(origin, Command::Issue(Op::Lookup { key: next() }));
    }
    rt.run_until_idle();

    let summary = rt.summary();
    // Exactly one completion per injected request, even under loss:
    // nothing lost, nothing double-counted.
    assert_eq!(summary.injected, summary.completed, "{summary:?}");
    assert!(summary.retransmits > 0, "loss must trigger retries");
    assert!(
        summary.ok > 150,
        "most lookups should survive 10% loss: {summary:?}"
    );
    assert!(rt.next_event().is_none());
}

/// A 24-node cluster on ten-tick links — slow enough that the rounds
/// between deliveries are empty — plus two origins and, for each, a key one
/// hop away that the other origin's traffic never touches.
fn slow_cluster() -> (Runtime, [(NodeId, u64); 2]) {
    let rt = from_graph(
        network(24, 37).graph(),
        Arc::new(VirtualClock::new()),
        Arc::new(ChannelTransport::new(10)),
        RuntimeConfig::default(),
    );
    let ids = rt.ids();
    let (a, b) = (ids[0], ids[1]);
    let neighbor_of = |origin: NodeId, avoid: NodeId| {
        let links = rt.links_of(origin);
        let hop = links.iter().find(|&&n| n != avoid).expect("has a link");
        hop.raw()
    };
    let pairs = [(a, neighbor_of(a, b)), (b, neighbor_of(b, a))];
    (rt, pairs)
}

#[test]
fn the_deadline_of_an_answered_request_is_not_an_event() {
    let (mut rt, [(a, key_a), (b, key_b)]) = slow_cluster();
    let deadline = RuntimeConfig::default().rpc.timeout;
    assert_eq!(deadline, 64);

    // Driven tick by tick with `step` alone (`next_event` is free to
    // discard stale timers it meets, which would hide them from the
    // rounds): `a` opens a request at tick 0 that is answered at tick 20,
    // one hop out and one response back; unrelated traffic from `b`,
    // opened at tick 60, keeps the cluster running across `a`'s old
    // deadline.
    let mut busy_rounds = Vec::new();
    rt.inject(a, Command::Issue(Op::Lookup { key: key_a }));
    for tick in 0..=90 {
        rt.clock().advance_to(tick);
        if tick == 60 {
            rt.inject(b, Command::Issue(Op::Lookup { key: key_b }));
        }
        match rt.step() {
            0 => {}
            events => busy_rounds.push((tick, events)),
        }
    }
    // Command, hop, response — twice. The round at tick 64 is not among
    // them: nothing was due then but a stale timer.
    assert_eq!(
        busy_rounds,
        [(0, 1), (10, 1), (20, 1), (60, 1), (70, 1), (80, 1)]
    );
    assert!(rt.next_event().is_none(), "traffic has drained");
    let summary = rt.summary();
    assert!(summary.zero_loss(), "{summary:?}");
    assert_eq!((summary.completed, summary.retransmits), (2, 0));
}

/// A cluster whose one request can never be answered: its origin is cut
/// off from everyone. Returns the runtime, clock at tick 0 with the first
/// round run, and the origin.
fn cluster_waiting_on_one_deadline() -> (Runtime, NodeId) {
    let transport = Arc::new(FaultyTransport::new(
        ChannelTransport::new(1),
        Seed(41),
        0,
        0,
    ));
    let mut rt = from_graph(
        network(24, 43).graph(),
        Arc::new(VirtualClock::new()),
        Arc::clone(&transport) as Arc<dyn canon_node::Transport>,
        RuntimeConfig::default(),
    );
    let ids = rt.ids();
    transport.partition(&ids[..1], &ids[1..]);
    let key = ids[12].raw();
    rt.inject(ids[0], Command::Issue(Op::Lookup { key }));
    assert_eq!(rt.step(), 1, "the command; its first hop is lost");
    (rt, ids[0])
}

#[test]
fn a_lone_armed_deadline_is_the_next_event() {
    let (rt, _) = cluster_waiting_on_one_deadline();
    let rpc = RuntimeConfig::default().rpc;
    assert_eq!(rt.next_event(), Some(rpc.timeout));
    for tick in 1..rpc.timeout {
        rt.clock().advance_to(tick);
        assert_eq!(rt.step(), 0, "nothing is due at tick {tick}");
    }
    rt.clock().advance_to(rpc.timeout);
    assert_eq!(rt.step(), 1, "the deadline fires: one retransmission");
    assert_eq!(rt.summary().retransmits, 1);
    // The retry re-armed the timer with a doubled deadline.
    assert_eq!(rt.next_event(), Some(rpc.timeout + 2 * rpc.timeout));
}

#[test]
fn a_crashed_node_is_dead_drops_its_mail_and_its_deadline() {
    let (mut rt, origin) = cluster_waiting_on_one_deadline();
    assert!(rt.next_event().is_some());
    rt.crash(origin);
    assert!(rt.is_dead(origin));
    assert!(rt.next_event().is_none(), "a dead node's deadline is stale");
    rt.clock().advance_to(RuntimeConfig::default().rpc.timeout);
    assert_eq!(rt.step(), 0);
    rt.inject(origin, Command::Issue(Op::Lookup { key: origin.raw() }));
    assert_eq!(rt.step(), 1, "the dead node takes its mail");
    assert_eq!(rt.summary().dropped_dead, 1, "and drops it");
    assert_eq!(rt.run_until_idle(), 0);
}

#[test]
fn a_node_spawned_after_rounds_have_run_is_woken_by_its_first_message() {
    let mut rt = cluster(16, 47, RuntimeConfig::default());
    let ids = rt.ids();
    rt.inject(ids[3], Command::Issue(Op::Lookup { key: ids[9].raw() }));
    assert!(rt.run_until_idle() > 0);

    let mut next = stream(7);
    let joiner = loop {
        let candidate = NodeId::new(next());
        if !ids.contains(&candidate) {
            break candidate;
        }
    };
    let slot = rt.spawn(joiner);
    assert_eq!(slot, ids.len(), "the joiner's mailbox is new");
    rt.inject(joiner, Command::Join { bootstrap: ids[5] });
    assert_eq!(rt.next_event(), Some(rt.clock().now()));
    assert_eq!(rt.step(), 1, "the joiner handles its own join command");
    rt.run_until_idle();
    assert!(rt.pred_of(joiner).is_some(), "the grant reached the joiner");
    assert!(rt.summary().zero_loss());
}

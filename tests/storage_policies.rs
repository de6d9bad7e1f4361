//! Tests for the storage engine: successor placement, content addressing
//! and backend durability hold over random hierarchy shapes, memberships
//! and operation sequences; and every stored key keeps its `k` replicas in
//! the three places placement is computed — the offline `ReplicatedStore`
//! across crashes and repair, the maintenance simulator under churn, and a
//! live `canon-node` cluster.
//!
//! The load-bearing property is the first one: the store's replica set is
//! **byte-identical** to an independent reimplementation of the
//! successor-replication rule on every hierarchy shape; and a live cluster
//! stores, expects and reports the same `k` for every count its successor
//! lists can hold.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{DomainMembership, Hierarchy, Placement};
use canon_id::hash::{hash_bytes, hash_name};
use canon_id::ring::SortedRing;
use canon_id::rng::Seed;
use canon_id::{Key, NodeId};
use canon_node::{
    from_graph, ChannelTransport, Command, Op, OpKind, Outcome, RuntimeConfig, VirtualClock,
};
use canon_sim::CrescendoSim;
use canon_store::{ContentId, FileBackend, MemoryBackend, ReplicatedStore, StorageBackend};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A random hierarchy: up to 3 levels below the root with fan-outs 1..=4.
fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
    (1usize..=4, 1usize..=3, 1u32..=3).prop_map(|(fan1, fan2, depth)| {
        let mut h = Hierarchy::new();
        if depth >= 2 {
            for i in 0..fan1 {
                let c = h.add_domain(h.root(), format!("a{i}"));
                if depth >= 3 {
                    for j in 0..fan2 {
                        h.add_domain(c, format!("b{i}-{j}"));
                    }
                }
            }
        }
        h
    })
}

/// An independent reimplementation of successor replication, written
/// directly against the ring API: the responsible node for the point, then
/// distinct clockwise successors, capped at `k` and at the ring size. This
/// is the contract `ReplicatedStore` must reproduce byte-for-byte.
fn successor_walk(ring: &SortedRing, point: NodeId, k: usize) -> Vec<NodeId> {
    let mut out = Vec::new();
    let Some(first) = ring.responsible(point) else {
        return out;
    };
    let mut cur = first;
    while out.len() < k.min(ring.len()) {
        out.push(cur);
        cur = ring.strict_successor(cur).expect("nonempty ring");
        if cur == first {
            break;
        }
    }
    out
}

/// A collision-free scratch path for file-backend logs.
fn scratch_log() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "canon-storage-props-{}-{}.log",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A store's `k`-replica set equals the plain successor walk on every
    /// domain of every hierarchy shape.
    #[test]
    fn fixed_is_byte_identical_to_successor_replication(
        h in arb_hierarchy(),
        n in 4usize..80,
        k in 1usize..6,
        seed in 0u64..1000,
        key in any::<u64>(),
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let m = DomainMembership::build(&h, &p);
        let store = ReplicatedStore::new(&h, &p, k);
        let key = Key::new(key);
        for d in h.all_domains() {
            let ring = m.ring(d);
            if ring.is_empty() { continue; }
            let got = store.replica_set(key, d);
            let want = successor_walk(ring, key.as_point(), k);
            prop_assert_eq!(got, want, "domain {} diverged", d);
        }
    }

    /// Content ids are a pure function of the bytes: identical content
    /// collides, any single-byte mutation is detected on verification.
    #[test]
    fn content_addresses_detect_any_mutation(
        bytes in proptest::collection::vec(any::<u8>(), 1..256),
        flip_at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let id = ContentId::of(&bytes);
        prop_assert!(id.verifies(&bytes));
        prop_assert_eq!(ContentId::of(&bytes), id);
        prop_assert_eq!(id.raw(), hash_bytes(&bytes).raw());
        let mut mutated = bytes;
        let at = flip_at % mutated.len();
        mutated[at] ^= xor;
        prop_assert!(!id.verifies(&mutated), "flip at {at} undetected");
        prop_assert_ne!(ContentId::of(&mutated), id);
    }

    /// Typed values round-trip through a backend as their byte encoding
    /// (a node shard's `u64` as its little-endian bytes) and come back
    /// under the content id of that encoding.
    #[test]
    fn blob_values_roundtrip(v in any::<u64>(), s_seed in any::<u64>()) {
        let mut backend = MemoryBackend::new();
        let b = v.to_le_bytes();
        let id = backend.put(1, &b).expect("memory put");
        let read = backend.get(1).expect("memory get").expect("present");
        prop_assert_eq!(read.id, id);
        prop_assert!(id.verifies(&b));
        let bytes: [u8; 8] = read.bytes.try_into().expect("eight bytes");
        prop_assert_eq!(u64::from_le_bytes(bytes), v);
        let s = format!("value-{s_seed:x}-♪");
        backend.put(2, s.as_bytes()).expect("memory put");
        let read = backend.get(2).expect("memory get").expect("present");
        prop_assert_eq!(String::from_utf8(read.bytes).expect("utf8 bytes"), s);
    }

    /// The file backend agrees with the in-memory oracle on any operation
    /// sequence, and survives flush → drop → reopen with identical state.
    #[test]
    fn file_backend_tracks_the_memory_oracle_and_reopens(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..12, proptest::collection::vec(any::<u8>(), 0..32)),
            1..60,
        ),
    ) {
        let path = scratch_log();
        let mut file = FileBackend::open(&path).expect("open scratch log");
        let mut memory = MemoryBackend::new();
        for (kind, key, bytes) in &ops {
            match kind {
                0 | 1 => {
                    let a = file.put(*key, bytes).expect("file put");
                    let b = memory.put(*key, bytes).expect("memory put");
                    prop_assert_eq!(a, b, "content ids diverged");
                }
                _ => {
                    let a = file.delete(*key).expect("file delete");
                    let b = memory.delete(*key).expect("memory delete");
                    prop_assert_eq!(a, b, "delete outcomes diverged");
                }
            }
        }
        prop_assert_eq!(file.scan(), memory.scan());
        for key in 0u64..12 {
            let a = file.get(key).expect("file get").map(|s| (s.id, s.bytes));
            let b = memory.get(key).expect("memory get").map(|s| (s.id, s.bytes));
            prop_assert_eq!(a, b, "key {} diverged", key);
        }

        // Crash-safety: everything flushed is still there after reopen.
        file.flush().expect("flush");
        let expected = file.scan();
        drop(file);
        let mut reopened = FileBackend::open(&path).expect("reopen scratch log");
        prop_assert_eq!(reopened.scan(), expected);
        for key in 0u64..12 {
            let a = reopened.get(key).expect("reopened get").map(|s| (s.id, s.bytes));
            let b = memory.get(key).expect("memory get").map(|s| (s.id, s.bytes));
            prop_assert_eq!(a, b, "key {} lost across reopen", key);
        }
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }
}

/// Per replication count, a store over 160 nodes takes 150 keys, loses
/// every fifth node and repairs: `policy_violations` is empty before the
/// crashes and after `re_replicate`, and every key still has a live holder
/// to be read from. `--nocapture` prints the totals.
#[test]
fn store_repairs_every_policy_after_crashes() {
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 160, Seed(42).derive("storage-audit"));
    let (ids, root) = (p.ids(), h.root());
    let key = |i: usize| hash_name(&format!("audit-key-{i}"));
    let mut repaired = 0;
    for replication in [3, 8] {
        let mut store = ReplicatedStore::new(&h, &p, replication);
        for i in 0..150 {
            store.put(key(i), root);
        }
        assert_eq!(store.policy_violations(), Vec::<String>::new());
        for &victim in ids.iter().step_by(5) {
            store.crash(victim);
        }
        repaired += store.re_replicate();
        assert_eq!(store.policy_violations(), Vec::<String>::new());
        for i in 0..150 {
            assert!(
                store.live_holder(key(i), root).is_some(),
                "replication {replication}: key {}: no live holder after repair",
                key(i)
            );
        }
    }
    println!("2 replication counts clean (300 keys checked, {repaired} replicas repaired)");
    assert!(repaired > 0, "the crash pass repaired nothing");
}

/// After 48 joins and 10 leaves, the maintenance simulator's
/// `replica_targets` equal the replica set of a store built over the
/// surviving membership, for 25 keys at one, three and eight copies.
#[test]
fn sim_and_store_place_the_same_replicas_after_churn() {
    let h = Hierarchy::balanced(3, 2);
    let leaves = h.leaves();
    let mut sim = CrescendoSim::new(h.clone(), 4);
    let churn_seed = Seed(42).derive("storage-churn");
    for i in 0..48u64 {
        let id = NodeId::new(churn_seed.derive_index(i).0);
        sim.join(id, leaves[(i as usize) % leaves.len()]);
    }
    let departing: Vec<NodeId> = sim.ids().take(10).collect();
    for id in departing {
        sim.leave(id);
    }

    let placement = sim.placement();
    for replication in [1, 3, 8] {
        let store = ReplicatedStore::new(&h, &placement, replication);
        for i in 0..25 {
            let key = hash_name(&format!("churn-key-{i}"));
            assert_eq!(
                sim.replica_targets(key, h.root(), replication),
                store.replica_set(key, h.root()),
                "replication {replication}: key {key}: sim and store place different replicas"
            );
        }
    }
}

/// A 32-node live cluster serves 40 PUTs at replication 3 with
/// zero protocol loss, and `replication_status` reports every key held by
/// exactly the replica set a `ReplicatedStore` over the same hierarchy,
/// placement and count places: the replicas the placement model names
/// are the ones whose bytes a live shard holds.
#[test]
fn live_replication_status_matches_the_store_replica_set() {
    let seed = Seed(42);
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 32, seed.derive("storage-node"));
    let store = ReplicatedStore::new(&h, &p, 3);
    let mut rt = from_graph(
        build_crescendo(&h, &p).graph(),
        Arc::new(VirtualClock::new()),
        Arc::new(ChannelTransport::new(1)),
        RuntimeConfig {
            replication: 3,
            ..RuntimeConfig::default()
        },
    );
    let ids = rt.ids();
    let key_seed = seed.derive("storage-node-keys");
    let keys: Vec<u64> = (0..40).map(|i| key_seed.derive_index(i).0).collect();
    for (i, &key) in keys.iter().enumerate() {
        let value = key ^ 1;
        rt.inject(ids[i % ids.len()], Command::Issue(Op::Put { key, value }));
    }
    rt.run_until_idle();

    let summary = rt.summary();
    assert!(summary.zero_loss(), "protocol loss: {summary:?}");
    for &key in &keys {
        let status = rt.replication_status(key);
        assert!(
            status.satisfied,
            "key {key:#x}: expected {:?}, held by {:?}",
            status.expected, status.holders
        );
        assert_eq!(
            status.expected,
            store.replica_set(Key::new(key), h.root()),
            "key {key:#x}: the cluster expects one replica set, the store places another"
        );
    }
}

/// A 64-node cluster with the default 8-entry successor lists honours
/// every replication count a node can place, 1 to 9: once 20 PUTs settle,
/// every acked key is held by exactly `k` live nodes, `replication_status`
/// is satisfied. Counts 0 and 10 (more copies than a node and its
/// successor list can hold) make `from_graph` panic.
#[test]
fn live_replication_honours_every_count_the_successor_list_holds() {
    let seed = Seed(42);
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 64, seed.derive("replication-counts"));
    let network = build_crescendo(&h, &p);
    let cluster = |replication| {
        from_graph(
            network.graph(),
            Arc::new(VirtualClock::new()),
            Arc::new(ChannelTransport::new(1)),
            RuntimeConfig {
                replication,
                ..RuntimeConfig::default()
            },
        )
    };
    let key_seed = seed.derive("replication-count-keys");
    let keys: Vec<u64> = (0..20).map(|i| key_seed.derive_index(i).0).collect();
    for k in 1..=9 {
        let mut rt = cluster(k);
        let ids = rt.ids();
        for (i, &key) in keys.iter().enumerate() {
            let value = key ^ 1;
            rt.inject(ids[i % ids.len()], Command::Issue(Op::Put { key, value }));
        }
        rt.run_until_idle();
        let acked: Vec<u64> = rt
            .completions()
            .iter()
            .filter(|c| c.kind == OpKind::Put && c.outcome == Outcome::Ok)
            .map(|c| c.key)
            .collect();
        assert_eq!(acked.len(), keys.len(), "replication {k}: PUTs not acked");
        for key in acked {
            let status = rt.replication_status(key);
            assert!(
                status.satisfied && status.holders.len() == k,
                "replication {k}, key {key:#x}: expected {:?}, held by {:?}",
                status.expected,
                status.holders
            );
        }
    }
    for k in [0, 10] {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster(k)));
        assert!(built.is_err(), "replication {k} was accepted");
    }
}

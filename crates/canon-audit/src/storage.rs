//! The storage invariant probe: does every stored key's live replica set
//! satisfy its [`canon_store::Policy`]?
//!
//! Three layers are exercised, mirroring how the policy engine is consumed
//! across the workspace:
//!
//! * **store** — a [`canon_store::ReplicatedStore`] per shipped policy is
//!   loaded with keys from random writers, crashed (~20% of nodes), and
//!   repaired; `policy_violations` must be empty both before the failures
//!   and after `re_replicate`, and every key must still have a live
//!   holder;
//! * **sim** — after a join/leave churn sequence, the maintenance
//!   simulator's [`canon_sim::CrescendoSim::replica_targets`] must agree
//!   with a store rebuilt over the surviving membership, for every policy;
//! * **node** — a live cluster serves PUTs under `Policy::Fixed(3)`, and the
//!   runtime's `replication_status` probe must report every key satisfied
//!   with zero protocol loss, expecting exactly the replica set a
//!   `ReplicatedStore` over the same hierarchy, placement and policy places.
//!   This is what lets the store model placements alone: the live node's
//!   shard holds the bytes of the replicas the store names.
//!
//! The `canon-audit verify` command runs this after the figure-graph audit,
//! so CI checks the storage invariant on every push at smoke sizes.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::hash::hash_name;
use canon_id::rng::Seed;
use canon_id::{Key, NodeId};
use canon_node::{from_graph, ChannelTransport, Command, Op, RuntimeConfig, VirtualClock};
use canon_store::{Policy, ReplicatedStore};
use std::sync::Arc;

/// One clean probe: which layer/policy it covered and what it checked.
#[derive(Clone, Debug)]
pub struct StorageReport {
    /// Human-readable description, e.g. `store policy=geo(3,outside=1)
    /// n=160 keys=150`.
    pub label: String,
    /// Keys whose replica sets were checked against the policy.
    pub keys_checked: usize,
    /// New replica holders placed by the repair pass (store probe only).
    pub repaired: usize,
}

/// A failed probe: the layer/policy label and the rendered violations.
#[derive(Clone, Debug)]
pub struct StorageFailure {
    /// The probe that failed.
    pub label: String,
    /// Rendered violation messages.
    pub violations: Vec<String>,
}

/// The three shipped policies at probe-friendly parameters.
fn probe_policies() -> Vec<Policy> {
    vec![
        Policy::Fixed(3),
        Policy::PercentOfDomain {
            level: 1,
            percent: 0.05,
        },
        Policy::HierarchyGeo {
            replication: 3,
            min_outside_level: 1,
        },
    ]
}

/// Runs every storage probe at membership size `n`.
///
/// # Errors
///
/// Returns the first [`StorageFailure`] encountered.
pub fn verify_storage(n: usize, base_seed: Seed) -> Result<Vec<StorageReport>, StorageFailure> {
    let mut out = Vec::new();
    for policy in probe_policies() {
        out.push(store_probe(n, base_seed, policy)?);
    }
    out.push(churn_probe(base_seed)?);
    out.push(node_probe(base_seed)?);
    Ok(out)
}

/// Loads a store, fails ~20% of nodes, repairs, and checks the policy
/// invariant before and after.
fn store_probe(n: usize, seed: Seed, policy: Policy) -> Result<StorageReport, StorageFailure> {
    use canon_store::ReplicationPolicy;
    let label = format!("store policy={} n={n} keys=150", policy.name());
    let fail = |violations: Vec<String>| StorageFailure {
        label: label.clone(),
        violations,
    };

    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, n, seed.derive("storage-audit"));
    let writers = p.ids();
    let mut store = ReplicatedStore::new(h, &p, policy);
    for i in 0..150usize {
        let key = hash_name(&format!("audit-key-{i}"));
        let writer = writers[(i * 7) % writers.len()];
        store.put_from(writer, key, store.hierarchy().root());
    }
    let violations = store.policy_violations();
    if !violations.is_empty() {
        return Err(fail(violations));
    }

    // Crash every fifth node, repair, and re-check.
    let victims: Vec<NodeId> = writers.iter().copied().step_by(5).collect();
    for v in victims {
        store.crash(v);
    }
    let repaired = store.re_replicate();
    let violations = store.policy_violations();
    if !violations.is_empty() {
        return Err(fail(violations));
    }

    // Every key must still have a live holder to be read from.
    let root = store.hierarchy().root();
    let lost: Vec<String> = (0..150)
        .map(|i| hash_name(&format!("audit-key-{i}")))
        .filter(|&key| store.live_holder(key, root).is_none())
        .map(|key| format!("key {key}: no live holder after repair"))
        .collect();
    if !lost.is_empty() {
        return Err(fail(lost));
    }

    Ok(StorageReport {
        label,
        keys_checked: 150,
        repaired,
    })
}

/// Churns a maintenance simulator, then checks that its replica targets
/// agree with a store rebuilt over the surviving membership.
fn churn_probe(seed: Seed) -> Result<StorageReport, StorageFailure> {
    use canon_store::ReplicationPolicy;
    let label = "sim churn join=48 leave=10 keys=25/policy".to_owned();

    let h = Hierarchy::balanced(3, 2);
    let leaves = h.leaves();
    let mut sim = canon_sim::CrescendoSim::new(h.clone(), 4);
    let churn_seed = seed.derive("storage-churn");
    for i in 0..48u64 {
        let id = NodeId::new(churn_seed.derive_index(i).0);
        sim.join(id, leaves[(i as usize) % leaves.len()]);
    }
    let departing: Vec<NodeId> = sim.ids().take(10).collect();
    for id in departing {
        sim.leave(id);
    }

    let placement = sim.placement();
    let mut keys_checked = 0;
    let mut violations = Vec::new();
    for policy in probe_policies() {
        let store = ReplicatedStore::new(h.clone(), &placement, policy);
        for i in 0..25 {
            let key = hash_name(&format!("churn-key-{i}"));
            let sim_targets = sim.replica_targets(key, h.root(), &policy);
            let store_targets = store.replica_set(key, h.root());
            keys_checked += 1;
            if sim_targets != store_targets {
                violations.push(format!(
                    "{}: key {key}: sim places {sim_targets:?}, store places {store_targets:?}",
                    policy.name()
                ));
            }
        }
    }
    if !violations.is_empty() {
        return Err(StorageFailure { label, violations });
    }
    Ok(StorageReport {
        label,
        keys_checked,
        repaired: 0,
    })
}

/// Serves PUTs through a live cluster and checks the runtime's
/// `replication_status` probe reports every key satisfied, on the replica
/// set the placement model places.
fn node_probe(seed: Seed) -> Result<StorageReport, StorageFailure> {
    let label = "node cluster n=32 keys=40 policy=fixed(3)".to_owned();

    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, 32, seed.derive("storage-node"));
    let net = build_crescendo(&h, &p);
    let policy = Policy::Fixed(3);
    let store = ReplicatedStore::new(h.clone(), &p, policy);
    let mut rt = from_graph(
        net.graph(),
        Arc::new(VirtualClock::new()),
        Arc::new(ChannelTransport::new(1)),
        RuntimeConfig {
            policy,
            ..RuntimeConfig::default()
        },
    );
    let ids = rt.ids();
    let key_seed = seed.derive("storage-node-keys");
    let keys: Vec<u64> = (0..40).map(|i| key_seed.derive_index(i).0).collect();
    for (i, &key) in keys.iter().enumerate() {
        let origin = ids[i % ids.len()];
        rt.inject(
            origin,
            Command::Issue(Op::Put {
                key,
                value: key ^ 1,
            }),
        );
    }
    rt.run_until_idle();

    let mut violations = Vec::new();
    let summary = rt.summary();
    if !summary.zero_loss() {
        violations.push(format!("protocol loss: {summary:?}"));
    }
    for &key in &keys {
        let status = rt.replication_status(key);
        if !status.satisfied {
            violations.push(format!(
                "key {key:#x}: expected {:?}, held by {:?}",
                status.expected, status.holders
            ));
        }
        let placed = store.replica_set(Key::new(key), h.root());
        if status.expected != placed {
            violations.push(format!(
                "key {key:#x}: the cluster expects {:?}, the store places {placed:?}",
                status.expected
            ));
        }
    }
    if !violations.is_empty() {
        return Err(StorageFailure { label, violations });
    }
    Ok(StorageReport {
        label,
        keys_checked: keys.len(),
        repaired: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_storage_probes_pass() {
        let reports = verify_storage(160, Seed(42))
            .unwrap_or_else(|f| panic!("{} failed:\n{}", f.label, f.violations.join("\n")));
        // 3 store policies + churn + node.
        assert_eq!(reports.len(), 5);
        assert!(reports.iter().all(|r| r.keys_checked > 0));
        // The crash pass must actually repair something.
        assert!(reports.iter().any(|r| r.repaired > 0));
    }
}

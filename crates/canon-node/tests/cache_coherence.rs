//! Coherence guarantees of the en-route GET cache:
//!
//! * **read-your-writes** — once a PUT is acked and the network settles,
//!   every subsequent GET returns the new value, never an overwritten
//!   one, no matter which en-route copies the previous value left behind;
//! * **no stale hit after invalidation settles** — overwriting a key
//!   whose value is cached all over the cluster invalidates every copy,
//!   including under deterministic delivery jitter (reordered fills race
//!   invalidations and must lose to the tombstone floors);
//! * **determinism** — with caching enabled the full observable run
//!   (event log, completions, summary, cache account) stays byte-identical
//!   across 1/4/8 worker threads, over both the channel and the framed
//!   transport, and framing itself changes nothing observable.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_node::{
    from_graph, CacheConfig, ChannelTransport, Command, FaultyTransport, FramedTransport, Op,
    OpKind, Outcome, Runtime, RuntimeConfig, Transport, VirtualClock,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `Runtime::completions()` concatenates per-node lists in slot order, so
/// index slicing cannot separate "new this phase" from earlier phases.
/// Completions are identified by their `(origin, req)` pair instead: the
/// returned batch is everything not in `seen`, which is then updated.
fn fresh_completions(rt: &Runtime, seen: &mut BTreeSet<(u64, u64)>) -> Vec<canon_node::Completion> {
    rt.completions()
        .into_iter()
        .filter(|c| seen.insert((c.origin.raw(), c.req)))
        .collect()
}

/// Builds a cached cluster of `n` nodes; `jitter > 0` wraps the channel
/// in a loss-free `FaultyTransport` so per-message delivery times skew
/// deterministically (same-pair FIFO no longer implies same-tick order
/// against third parties — the adversarial case for invalidations).
fn cached_cluster(n: usize, seed: Seed, capacity: usize, jitter: u64) -> Runtime {
    let h = Hierarchy::balanced(4, 2);
    let p = Placement::uniform(&h, n, seed);
    let net = build_crescendo(&h, &p);
    let transport: Arc<dyn Transport> = if jitter > 0 {
        Arc::new(FaultyTransport::new(
            ChannelTransport::new(1),
            seed.derive("jitter"),
            0,
            jitter,
        ))
    } else {
        Arc::new(ChannelTransport::new(1))
    };
    let config = RuntimeConfig {
        cache: CacheConfig::with_capacity(capacity),
        ..RuntimeConfig::default()
    };
    from_graph(
        net.graph(),
        Arc::new(VirtualClock::new()),
        transport,
        config,
    )
}

/// Drives interleaved PUT/GET waves over a small hot key universe and
/// checks every settled GET against the last acked PUT. Within a wave,
/// requests race freely (and fills race invalidations); between waves the
/// network drains, so by the coherence contract each GET of a key *not*
/// overwritten in its own wave must see exactly the latest acked value.
fn check_drained_interleavings(n: usize, seed: u64, jitter: u64) -> Result<(), TestCaseError> {
    let mut rt = cached_cluster(n, Seed(seed), 8, jitter);
    let ids = rt.ids();
    let stream = Seed(seed).derive("ops");
    let keys: Vec<u64> = (0..8)
        .map(|k| stream.derive("key").derive_index(k).0)
        .collect();
    let mut latest: BTreeMap<u64, u64> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut value_counter = 0u64;
    let mut checked_gets = 0usize;
    for wave in 0..6u64 {
        let mut put_this_wave: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..24u64 {
            let r = stream.derive_index(wave * 1_000 + i).0;
            let origin = ids[(r % ids.len() as u64) as usize];
            let key = keys[(r >> 8) as usize % keys.len()];
            if r.is_multiple_of(3) {
                // At most one PUT per key per wave keeps the oracle exact:
                // concurrent same-key PUTs would race for "latest".
                if put_this_wave.contains_key(&key) {
                    continue;
                }
                value_counter += 1;
                put_this_wave.insert(key, value_counter);
                rt.inject(
                    origin,
                    Command::Issue(Op::Put {
                        key,
                        value: value_counter,
                    }),
                );
            } else {
                rt.inject(origin, Command::Issue(Op::Get { key }));
            }
        }
        rt.run_until_idle();
        for c in fresh_completions(&rt, &mut seen) {
            prop_assert_eq!(c.outcome == Outcome::TimedOut, false, "request timed out");
            if c.kind != OpKind::Get || put_this_wave.contains_key(&c.key) {
                // A GET racing its own key's PUT may legitimately see
                // either value; skip those, assert the rest exactly.
                continue;
            }
            checked_gets += 1;
            prop_assert_eq!(
                c.value,
                latest.get(&c.key).copied(),
                "GET of key {} returned {:?} but the last acked PUT wrote {:?} \
                 (wave {}, jitter {})",
                c.key,
                c.value,
                latest.get(&c.key).copied(),
                wave,
                jitter
            );
        }
        latest.extend(put_this_wave);
    }
    let summary = rt.summary();
    prop_assert!(summary.zero_loss(), "accounting: {summary:?}");
    let cache = rt.cache_summary();
    prop_assert!(
        cache.tally.fills > 0,
        "the storm never filled a cache — the scenario did not exercise coherence"
    );
    prop_assert!(checked_gets > 0, "no GET was ever checked");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn read_your_writes_across_drained_interleavings(
        n in 16usize..64,
        seed in any::<u64>(),
    ) {
        check_drained_interleavings(n, seed, 0)?;
    }

    #[test]
    fn read_your_writes_survives_delivery_jitter(
        n in 16usize..48,
        seed in any::<u64>(),
        jitter in 1u64..4,
    ) {
        check_drained_interleavings(n, seed, jitter)?;
    }
}

/// The targeted stale-copy scenario: heat every node's cache on a hot key
/// set, overwrite the whole set, then probe from every node — every probe
/// must see the overwritten values, and the overwrite must actually have
/// gone through the invalidation path (nonzero counters prove the caches
/// were not cold).
fn overwrite_then_probe(jitter: u64) {
    let seed = Seed(99).derive("overwrite");
    let mut rt = cached_cluster(48, seed, 16, jitter);
    let ids = rt.ids();
    let keys: Vec<u64> = (0..4)
        .map(|k| seed.derive("hot").derive_index(k).0)
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        rt.inject(
            ids[i],
            Command::Issue(Op::Put {
                key,
                value: 1_000 + i as u64,
            }),
        );
    }
    rt.run_until_idle();
    // Heat: every node GETs every hot key, filling caches along every
    // converged route.
    for &origin in &ids {
        for &key in &keys {
            rt.inject(origin, Command::Issue(Op::Get { key }));
        }
    }
    rt.run_until_idle();
    let heated = rt.cache_summary();
    assert!(heated.tally.fills > 0, "heat phase filled no caches");
    assert!(heated.entries > 0, "heat phase left no cache entries");
    // Overwrite the full set, then drain: every cached copy of the old
    // values must be invalidated.
    for (i, &key) in keys.iter().enumerate() {
        rt.inject(
            ids[(i + 7) % ids.len()],
            Command::Issue(Op::Put {
                key,
                value: 2_000 + i as u64,
            }),
        );
    }
    rt.run_until_idle();
    let after_put = rt.cache_summary();
    assert!(
        after_put.tally.invalidations > 0,
        "overwriting hot keys invalidated nothing: {:?}",
        after_put.tally
    );
    // Probe from every node; each must read the new value.
    let mut seen = BTreeSet::new();
    fresh_completions(&rt, &mut seen);
    for &origin in &ids {
        for &key in &keys {
            rt.inject(origin, Command::Issue(Op::Get { key }));
        }
    }
    rt.run_until_idle();
    for c in fresh_completions(&rt, &mut seen) {
        let rank = keys.iter().position(|&k| k == c.key).expect("probe key");
        assert_eq!(
            c.value,
            Some(2_000 + rank as u64),
            "stale read after settle (jitter {jitter}): key {} returned {:?}",
            c.key,
            c.value
        );
    }
    assert!(rt.summary().zero_loss());
    assert_eq!(rt.cache_summary().tally.corrupt_fills, 0);
}

#[test]
fn overwrite_invalidates_every_cached_copy() {
    overwrite_then_probe(0);
}

#[test]
fn overwrite_invalidates_every_cached_copy_under_jitter() {
    overwrite_then_probe(3);
}

/// Runs a cache-heavy storm (Zipf-ish key reuse over a 32-key universe)
/// and returns the full observable outcome as one string.
fn cached_storm_digest(threads: usize, framed: bool) -> String {
    canon_par::with_threads(threads, || {
        let h = Hierarchy::balanced(4, 2);
        let p = Placement::uniform(&h, 96, Seed(42));
        let net = build_crescendo(&h, &p);
        let transport: Arc<dyn Transport> = if framed {
            Arc::new(FramedTransport::new(ChannelTransport::new(1)))
        } else {
            Arc::new(ChannelTransport::new(1))
        };
        let config = RuntimeConfig {
            record_events: true,
            cache: CacheConfig::with_capacity(8),
            ..RuntimeConfig::default()
        };
        let mut rt = from_graph(
            net.graph(),
            Arc::new(VirtualClock::new()),
            transport,
            config,
        );
        let ids = rt.ids();
        let base = Seed(7).derive("cache-storm");
        let keys: Vec<u64> = (0..32)
            .map(|k| base.derive("key").derive_index(k).0)
            .collect();
        for i in 0..600u64 {
            let r = base.derive_index(i).0;
            let origin = ids[(r % ids.len() as u64) as usize];
            let key = keys[(r >> 8) as usize % keys.len()];
            let cmd = match i % 4 {
                0 => Command::Issue(Op::Put { key, value: r }),
                _ => Command::Issue(Op::Get { key }),
            };
            rt.inject(origin, cmd);
        }
        rt.run_until_idle();

        let mut out = String::new();
        for line in rt.event_log() {
            out.push_str(&line);
            out.push('\n');
        }
        for c in rt.completions() {
            out.push_str(&format!("{c:?}\n"));
        }
        out.push_str(&format!("{:?}\n", rt.summary()));
        out.push_str(&format!("{:?}\n", rt.cache_summary()));
        out
    })
}

#[test]
fn cached_storm_is_byte_identical_across_worker_counts() {
    let one = cached_storm_digest(1, false);
    let four = cached_storm_digest(4, false);
    let eight = cached_storm_digest(8, false);
    assert!(
        one.contains("hits"),
        "cache account missing from the digest"
    );
    assert_eq!(one, four, "1-thread and 4-thread cached runs diverged");
    assert_eq!(one, eight, "1-thread and 8-thread cached runs diverged");
}

#[test]
fn cached_framed_storm_matches_channel_byte_for_byte() {
    let channel = cached_storm_digest(1, false);
    let framed_one = cached_storm_digest(1, true);
    assert_eq!(
        channel, framed_one,
        "framing changed the observable cached run"
    );
    let framed_four = cached_storm_digest(4, true);
    let framed_eight = cached_storm_digest(8, true);
    assert_eq!(
        framed_one, framed_four,
        "1-thread and 4-thread framed cached runs diverged"
    );
    assert_eq!(
        framed_one, framed_eight,
        "1-thread and 8-thread framed cached runs diverged"
    );
}

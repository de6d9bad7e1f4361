//! The §4.2 flash-crowd claim on the live runtime, in virtual time: when
//! one key suddenly goes hot, en-route caches absorb the crowd before it
//! reaches the owner, so neither the round-trip percentiles nor the peak
//! per-node forwarding load get worse — and framing changes none of it.
//!
//! The same seeded GET storm (`canon_workloads::FlashCrowd`: Zipf(0.9)
//! base, one mid-tail key spiking to 90% of draws inside a positional
//! window) is replayed against otherwise identical clusters on the serving
//! benchmark's `Hierarchy::balanced(4, 3)` × 1,024 nodes. The timed
//! numbers for this regime are `bench/`'s `flash_cached` workload.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_node::{
    from_graph, CacheConfig, CacheSummary, ChannelTransport, Command, Completion, FramedTransport,
    Op, OpKind, RuntimeConfig, Summary, Transport, VirtualClock,
};
use canon_workloads::FlashCrowd;
use std::sync::Arc;

const NODES: usize = 1024;
const GETS: u64 = 10 * NODES as u64;
/// Per-node cache capacity of the cached runs.
const CACHE_CAPACITY: usize = 64;

/// What one storm leaves behind.
struct Outcome {
    summary: Summary,
    cache: CacheSummary,
    completions: Vec<Completion>,
    /// GET round trips in ticks at p50, p90 and p99.
    rtt: [u64; 3],
    /// The most GETs any one node forwarded — the node the crowd funnels
    /// through.
    forward_max: u64,
}

fn storm(threads: usize, cache_capacity: usize, framed: bool) -> Outcome {
    canon_par::with_threads(threads, || {
        let seed = Seed(42).derive("flash-crowd").derive_index(0);
        let h = Hierarchy::balanced(4, 3);
        let p = Placement::uniform(&h, NODES, seed);
        let net = build_crescendo(&h, &p);
        let transport: Arc<dyn Transport> = if framed {
            Arc::new(FramedTransport::new(ChannelTransport::new(1)))
        } else {
            Arc::new(ChannelTransport::new(1))
        };
        let config = RuntimeConfig {
            cache: CacheConfig::with_capacity(cache_capacity),
            ..RuntimeConfig::default()
        };
        let mut rt = from_graph(
            net.graph(),
            Arc::new(VirtualClock::new()),
            transport,
            config,
        );
        let ids = rt.ids();
        let pick = |s: Seed| ids[(s.0 % ids.len() as u64) as usize];

        // Seed the key universe, one PUT per key, and drain: the storm
        // reads a fully populated store.
        let crowd = FlashCrowd::new(
            NODES,
            0.9,
            NODES / 2,
            GETS / 4,
            GETS / 4,
            0.9,
            seed.derive("crowd"),
        );
        let puts = seed.derive("puts");
        for r in 0..NODES {
            let s = puts.derive_index(r as u64);
            let op = Op::Put {
                key: crowd.base().key(r).raw(),
                value: s.derive("value").0,
            };
            rt.inject(pick(s), Command::Issue(op));
        }
        rt.run_until_idle();
        let loads_before = rt.forwarding_loads();

        // The storm arrives as waves — one request per node per wave,
        // drained between waves — so requests behind the front meet the
        // caches the front filled; an all-at-once burst would have every
        // GET in flight before any fill lands.
        let traffic = seed.derive("traffic");
        let mut rng = seed.derive("workload").rng();
        for i in 0..GETS {
            let key = crowd.draw_at(i, &mut rng).raw();
            rt.inject(
                pick(traffic.derive_index(i)),
                Command::Issue(Op::Get { key }),
            );
            if (i + 1) % NODES as u64 == 0 {
                rt.run_until_idle();
            }
        }

        let completions = rt.completions();
        let mut ticks: Vec<u64> = completions
            .iter()
            .filter(|c| c.kind == OpKind::Get)
            .map(|c| c.completed_at - c.issued_at)
            .collect();
        ticks.sort_unstable();
        let at = |p: f64| ticks[((ticks.len() - 1) as f64 * p).round() as usize];
        let forward_max = rt
            .forwarding_loads()
            .iter()
            .zip(&loads_before)
            .map(|(now, before)| now - before)
            .max()
            .expect("a cluster has nodes");
        Outcome {
            summary: rt.summary(),
            cache: rt.cache_summary(),
            rtt: [at(0.50), at(0.90), at(0.99)],
            completions,
            forward_max,
        }
    })
}

#[test]
fn flash_crowd_is_absorbed_en_route() {
    let uncached = storm(1, 0, false);
    let cached = storm(1, CACHE_CAPACITY, false);
    for (name, run) in [("uncached", &uncached), ("cached", &cached)] {
        assert!(
            run.summary.zero_loss(),
            "{name} lost requests: {:?}",
            run.summary
        );
        assert_eq!(run.summary.not_found, 0, "{name} GET missed a seeded key");
    }
    assert_eq!(
        uncached.cache.tally.hits, 0,
        "a capacity-0 cache answered a GET"
    );
    assert!(
        cached.cache.tally.hits > 0,
        "the crowd never hit a cache: {:?}",
        cached.cache
    );
    let tally = cached.cache.tally;
    assert_eq!(
        (tally.stale_fills, tally.corrupt_fills),
        (0, 0),
        "a read-only storm dropped fills"
    );
    assert!(
        cached.forward_max <= uncached.forward_max,
        "peak forwarding load rose with caching: {} > {}",
        cached.forward_max,
        uncached.forward_max
    );
    // Virtual ticks have no scheduling noise, so no grace margin.
    assert!(
        cached.rtt.iter().zip(&uncached.rtt).all(|(c, u)| c <= u),
        "GET p50/p90/p99 rose with caching: {:?} > {:?} ticks",
        cached.rtt,
        uncached.rtt
    );

    // Framing is free on the cached path too, at 1 worker and at 4.
    for threads in [1, 4] {
        let framed = storm(threads, CACHE_CAPACITY, true);
        assert_eq!(cached.summary, framed.summary, "{threads} threads");
        assert_eq!(cached.cache, framed.cache, "{threads} threads");
        assert!(
            cached.completions == framed.completions,
            "framing changed a cached completion at {threads} threads"
        );
    }
}

//! The four workloads and the seeded schedule each cycle replays.
//!
//! A schedule is everything the program under test receives: the preload
//! PUTs and, per segment, `(origin, operation, due time)` triples. The
//! node identifiers and the key universe are the benchmark's fixed data
//! set (so that hop counts do not move with `--seed`); origins, key draws,
//! the operation mix, written values and arrival times all come from the
//! seed.

use canon_id::rng::{splitmix64, Seed};
use canon_node::Op;
use canon_workloads::{FlashCrowd, ZipfKeys};
use rand::Rng;

/// Seeds node identifiers and placement: the cluster is the same in every
/// run of every workload.
pub const OVERLAY_SEED: Seed = Seed(0x00ca_9090);

/// Seeds the schedule the count pass replays: the same in every run, so
/// the counts are a property of the program alone. (Across seeds the
/// message count of `flash_cached` moves by ±5 % — which 32 nodes the
/// owner happens to register as cachers of a hot key decides how early
/// later GETs are intercepted — far more than any bound on a count.)
pub const COUNT_SEED: Seed = Seed(0x636f_756e_7421);

/// Seeds the preloaded key universe of the two cached workloads.
const UNIVERSE_SEED: Seed = Seed(0x6b65_7973);

/// Zipf exponent of the skewed workloads (the `flash_crowd` bench's).
const ZIPF_S: f64 = 0.9;

/// Share of draws the flash key takes inside its window.
const SPIKE_SHARE: f64 = 0.9;

/// Which key stream and operation mix a workload draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Uniform over 16·n hashed keys; 50 % Lookup, 25 % Put, 25 % Get.
    Uniform,
    /// 95 % Get from a flash crowd over the preloaded universe, 5 % Put
    /// from its base Zipf.
    Flash,
    /// Base Zipf over the preloaded universe; 70 % Put, 30 % Get.
    WriteHeavy,
}

/// One workload: transport, cache, mix and the two fixed offered rates.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Whether messages cross `FramedTransport` (else bare channels).
    pub framed: bool,
    /// En-route cache entries per node (0 = caching off).
    pub cache: usize,
    /// Key stream and operation mix.
    pub mix: Mix,
    /// Offered rate of the *lo* segment, commands per second.
    pub rate_lo: f64,
    /// Offered rate of the *hi* segment, commands per second.
    pub rate_hi: f64,
}

/// The benchmark's workloads. Rates are fixed numbers, never derived at
/// run time; `BENCHMARK.json` and the README repeat them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "uniform_channel",
        framed: false,
        cache: 0,
        mix: Mix::Uniform,
        rate_lo: 20_000.0,
        rate_hi: 32_000.0,
    },
    Spec {
        name: "uniform_framed",
        framed: true,
        cache: 0,
        mix: Mix::Uniform,
        rate_lo: 20_000.0,
        rate_hi: 32_000.0,
    },
    Spec {
        name: "flash_cached",
        framed: true,
        cache: 64,
        mix: Mix::Flash,
        rate_lo: 20_000.0,
        rate_hi: 25_600.0,
    },
    Spec {
        name: "write_heavy",
        framed: true,
        cache: 64,
        mix: Mix::WriteHeavy,
        rate_lo: 15_000.0,
        rate_hi: 19_200.0,
    },
];

/// Cluster and segment sizes: the full benchmark or `--smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Nodes in the cluster.
    pub n: usize,
    /// Length of each paced segment's arrival window, ns.
    pub window_ns: u64,
    /// Commands in the burst segment.
    pub burst: usize,
}

impl Shape {
    /// 1,024 nodes, 0.5 s windows, a 102,400-command burst.
    pub const FULL: Shape = Shape {
        n: 1024,
        window_ns: 500_000_000,
        burst: 102_400,
    };
    /// 64 nodes, 50 ms windows, a 6,400-command burst.
    pub const SMOKE: Shape = Shape {
        n: 64,
        window_ns: 50_000_000,
        burst: 6_400,
    };
}

/// One client command: issued at the node in slot `origin` when `due_ns`
/// (relative to its segment's start) has passed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cmd {
    /// Slot (graph index) of the issuing node.
    pub origin: u32,
    /// The operation.
    pub op: Op,
    /// Due time, ns after the segment starts.
    pub due_ns: u64,
}

/// Segment indices into [`Schedule::segs`].
pub const SEG_NAMES: [&str; 3] = ["lo", "hi", "burst"];

/// One cycle's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// PUTs that load the key universe before any segment (cached
    /// workloads only), all due at once.
    pub preload: Vec<Cmd>,
    /// The *lo*, *hi* and *burst* segments, each ascending in `due_ns`.
    pub segs: [Vec<Cmd>; 3],
}

impl Schedule {
    /// Commands in the three timed segments.
    pub fn timed_len(&self) -> usize {
        self.segs.iter().map(Vec::len).sum()
    }

    /// A digest of every command: same seed, same digest.
    pub fn digest(&self) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        let mut mix = |v: u64| h = splitmix64(h ^ v);
        for (s, seg) in std::iter::once(&self.preload).chain(&self.segs).enumerate() {
            mix(s as u64 ^ ((seg.len() as u64) << 8));
            for c in seg {
                mix(u64::from(c.origin));
                mix(c.due_ns);
                match c.op {
                    Op::Lookup { key } => mix(key ^ 1),
                    Op::Get { key } => mix(key ^ 2),
                    Op::Put { key, value } => {
                        mix(key ^ 3);
                        mix(value);
                    }
                    // The benchmark issues only the three ops above.
                    _ => mix(4),
                }
            }
        }
        h
    }
}

/// The value a universe key is preloaded with.
pub fn initial_value(key: u64) -> u64 {
    splitmix64(key ^ 0x7072_656c_6f61_6421)
}

/// Poisson arrival times at `rate` per second over `window_ns`: ascending,
/// all inside the window.
pub fn poisson_times<R: Rng>(rate: f64, window_ns: u64, rng: &mut R) -> Vec<u64> {
    let mut times = Vec::with_capacity((rate * window_ns as f64 / 1e9 * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= window_ns as f64 {
            return times;
        }
        times.push(t as u64);
    }
}

/// Draws one cycle's schedule for `spec` at `shape` from `seed`.
pub fn draw(spec: &Spec, shape: &Shape, seed: Seed) -> Schedule {
    let n = shape.n;
    let preload = match spec.mix {
        Mix::Uniform => Vec::new(),
        Mix::Flash | Mix::WriteHeavy => {
            let universe = ZipfKeys::new(n, ZIPF_S, UNIVERSE_SEED);
            (0..n)
                .map(|r| {
                    let key = universe.key(r).raw();
                    Cmd {
                        origin: (r % n) as u32,
                        op: Op::Put {
                            key,
                            value: initial_value(key),
                        },
                        due_ns: 0,
                    }
                })
                .collect()
        }
    };
    let rates = [Some(spec.rate_lo), Some(spec.rate_hi), None];
    let segs = [0usize, 1, 2].map(|s| {
        let mut rng = seed.derive_index(s as u64).rng();
        let times = match rates[s] {
            Some(rate) => poisson_times(rate, shape.window_ns, &mut rng),
            None => vec![0; shape.burst],
        };
        let len = times.len() as u64;
        // The flash key spikes in the middle half of the segment, by
        // command position.
        let crowd = FlashCrowd::new(
            n,
            ZIPF_S,
            n / 2,
            len / 4,
            len / 2,
            SPIKE_SHARE,
            UNIVERSE_SEED,
        );
        times
            .into_iter()
            .enumerate()
            .map(|(i, due_ns)| {
                let origin = rng.gen_range(0..n as u32);
                let value: u64 = rng.gen();
                let pick: f64 = rng.gen();
                let op = match spec.mix {
                    Mix::Uniform => {
                        let key = splitmix64(rng.gen_range(0..16 * n as u64) + 1);
                        if pick < 0.5 {
                            Op::Lookup { key }
                        } else if pick < 0.75 {
                            Op::Put { key, value }
                        } else {
                            Op::Get { key }
                        }
                    }
                    Mix::Flash => {
                        if pick < 0.95 {
                            let key = crowd.draw_at(i as u64, &mut rng).raw();
                            Op::Get { key }
                        } else {
                            let key = crowd.base().draw(&mut rng).raw();
                            Op::Put { key, value }
                        }
                    }
                    Mix::WriteHeavy => {
                        let key = crowd.base().draw(&mut rng).raw();
                        if pick < 0.7 {
                            Op::Put { key, value }
                        } else {
                            Op::Get { key }
                        }
                    }
                };
                Cmd { origin, op, due_ns }
            })
            .collect()
    });
    Schedule { preload, segs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_digest() {
        for spec in &SPECS {
            let a = draw(spec, &Shape::SMOKE, Seed(7));
            let b = draw(spec, &Shape::SMOKE, Seed(7));
            assert_eq!(a, b, "{}", spec.name);
            assert_eq!(a.digest(), b.digest());
            let c = draw(spec, &Shape::SMOKE, Seed(8));
            assert_ne!(a.digest(), c.digest(), "{}: seed must matter", spec.name);
        }
    }

    #[test]
    fn channel_and_framed_replay_the_same_commands() {
        let a = draw(&SPECS[0], &Shape::SMOKE, Seed(3));
        let b = draw(&SPECS[1], &Shape::SMOKE, Seed(3));
        assert_eq!(a, b);
    }

    #[test]
    fn due_times_ascend_inside_the_window_at_the_offered_rate() {
        let shape = Shape::SMOKE;
        let s = draw(&SPECS[0], &shape, Seed(11));
        for (seg, rate) in [(0, SPECS[0].rate_lo), (1, SPECS[0].rate_hi)] {
            let cmds = &s.segs[seg];
            assert!(cmds.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(cmds.iter().all(|c| c.due_ns < shape.window_ns));
            let expect = rate * shape.window_ns as f64 / 1e9;
            let got = cmds.len() as f64;
            // Poisson: sd = sqrt(mean); six sigma never trips.
            assert!(
                (got - expect).abs() < 6.0 * expect.sqrt(),
                "{got} vs {expect}"
            );
        }
        assert_eq!(s.segs[2].len(), shape.burst);
        assert!(s.segs[2].iter().all(|c| c.due_ns == 0));
        assert!(s.preload.is_empty());
    }

    #[test]
    fn cached_workloads_preload_the_universe_and_keep_to_it() {
        let shape = Shape::SMOKE;
        for spec in &SPECS[2..] {
            let s = draw(spec, &shape, Seed(5));
            assert_eq!(s.preload.len(), shape.n);
            let universe: std::collections::BTreeSet<u64> =
                s.preload.iter().map(|c| c.op.key_point().raw()).collect();
            assert_eq!(universe.len(), shape.n);
            for c in s.segs.iter().flatten() {
                assert!(universe.contains(&c.op.key_point().raw()));
            }
        }
    }

    #[test]
    fn mixes_match_their_stated_shares() {
        let share = |spec: &Spec, f: fn(&Op) -> bool| {
            let s = draw(spec, &Shape::SMOKE, Seed(9));
            let burst = &s.segs[2];
            burst.iter().filter(|c| f(&c.op)).count() as f64 / burst.len() as f64
        };
        let is_put = |op: &Op| matches!(op, Op::Put { .. });
        let is_lookup = |op: &Op| matches!(op, Op::Lookup { .. });
        assert!((share(&SPECS[0], is_lookup) - 0.50).abs() < 0.03);
        assert!((share(&SPECS[0], is_put) - 0.25).abs() < 0.03);
        assert!((share(&SPECS[2], is_put) - 0.05).abs() < 0.02);
        assert!((share(&SPECS[3], is_put) - 0.70).abs() < 0.03);
    }
}

//! The benchmark's own [`Clock`] over [`Instant`].
//!
//! `canon-node` never reads wall time; it asks its clock. This one is
//! *latched*: `now()` returns the tick the driver last read from the OS
//! clock, so every `inject` and the `step` that follows it see the same
//! tick, and the driver knows exactly which tick each round ran at. That
//! is what lets a completion's `completed_at` tick be mapped back to the
//! wall time at which its round ended.

use canon_node::{Clock, Tick, VirtualClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Real-time length of one runtime tick, in nanoseconds (20 µs, the tick
/// of `results/BENCH_node_throughput.json`).
pub const TICK_NS: u64 = 20_000;

/// What one tick of the count pass's virtual clock stands for, in
/// nanoseconds of schedule time: 8 runtime ticks, about two real rounds.
/// Replaying at 20 µs costs 5 s per run and batches less than any real
/// run does.
pub const COUNT_TICK_NS: u64 = 8 * TICK_NS;

/// What the drive loop asks of its clock beyond [`Clock`]: readings in
/// nanoseconds, and where each tick starts on that scale.
pub trait DriveClock: Clock {
    /// Nanoseconds since the epoch.
    fn now_ns(&self) -> u64;
    /// The time (ns since the epoch) at which `tick` starts.
    fn tick_start_ns(&self, tick: Tick) -> u64;
    /// Reads the time and makes its tick the one `now()` reports; returns
    /// `(now_ns, tick)`.
    fn latch(&self) -> (u64, Tick);
    /// Returns once the time is at least `ns`, with the reading.
    fn wait_until_ns(&self, ns: u64) -> u64;
}

/// A latched wall clock. All times it reports are nanoseconds since the
/// process-wide `epoch`; tick 0 starts at the clock's creation.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
    origin_ns: u64,
    latched: AtomicU64,
}

impl WallClock {
    /// A clock whose tick 0 starts now.
    pub fn new(epoch: Instant) -> WallClock {
        WallClock {
            epoch,
            origin_ns: epoch.elapsed().as_nanos() as u64,
            latched: AtomicU64::new(0),
        }
    }
}

impl DriveClock for WallClock {
    /// Read from the OS clock.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn tick_start_ns(&self, tick: Tick) -> u64 {
        self.origin_ns + tick * TICK_NS
    }

    fn latch(&self) -> (u64, Tick) {
        let now = self.now_ns();
        let tick = (now - self.origin_ns) / TICK_NS;
        // One thread drives the cluster; the atomic only satisfies
        // `Clock: Sync` and publishes nothing else.
        let prev = self.latched.fetch_max(tick, Ordering::Relaxed);
        (now, tick.max(prev))
    }

    /// Spins until the OS clock reads at least `ns`.
    fn wait_until_ns(&self, ns: u64) -> u64 {
        loop {
            let now = self.now_ns();
            if now >= ns {
                return now;
            }
            std::hint::spin_loop();
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Tick {
        self.latched.load(Ordering::Relaxed)
    }

    fn advance_to(&self, t: Tick) {
        self.wait_until_ns(self.tick_start_ns(t));
        self.latch();
    }
}

/// The count pass's clock: virtual time, one tick per [`COUNT_TICK_NS`]
/// of schedule time, moved only by the drive loop's waits.
#[derive(Debug, Default)]
pub struct CountClock(VirtualClock);

impl Clock for CountClock {
    fn now(&self) -> Tick {
        self.0.now()
    }

    fn advance_to(&self, t: Tick) {
        self.0.advance_to(t);
    }
}

impl DriveClock for CountClock {
    fn now_ns(&self) -> u64 {
        self.tick_start_ns(self.now())
    }

    fn tick_start_ns(&self, tick: Tick) -> u64 {
        tick * COUNT_TICK_NS
    }

    fn latch(&self) -> (u64, Tick) {
        (self.now_ns(), self.now())
    }

    fn wait_until_ns(&self, ns: u64) -> u64 {
        self.advance_to(ns.div_ceil(COUNT_TICK_NS));
        self.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_only_moves_when_latched() {
        let c = WallClock::new(Instant::now());
        assert_eq!(c.now(), 0);
        c.wait_until_ns(c.tick_start_ns(3));
        assert_eq!(c.now(), 0, "reading the OS clock must not move the latch");
        let (ns, tick) = c.latch();
        assert!(tick >= 3 && ns >= c.tick_start_ns(3));
        assert_eq!(c.now(), tick);
    }

    #[test]
    fn the_count_clock_moves_only_when_waited_on() {
        let c = CountClock::default();
        assert_eq!(c.latch(), (0, 0));
        assert_eq!(c.wait_until_ns(COUNT_TICK_NS + 1), 2 * COUNT_TICK_NS);
        assert_eq!(c.latch(), (2 * COUNT_TICK_NS, 2));
        assert_eq!(c.wait_until_ns(5), 2 * COUNT_TICK_NS, "never backwards");
    }

    #[test]
    fn advance_to_waits_and_latches() {
        let c = WallClock::new(Instant::now());
        c.advance_to(5);
        assert!(c.now() >= 5);
        assert!(c.now_ns() >= c.tick_start_ns(5));
        c.advance_to(2);
        assert!(c.now() >= 5, "the latch never goes backwards");
    }
}

//! Time as a capability: the [`Clock`] trait and the virtual lock-step
//! clock.
//!
//! Nothing in `canon-node` reads wall-clock time directly — clippy's
//! `disallowed_types` (the root `clippy.toml` bans `Instant` and
//! `SystemTime`) enforces this for the whole crate, *including* its unit
//! and integration tests. Every time read goes through a [`Clock`]. The
//! workspace implements it once, as [`VirtualClock`]: a lock-step counter
//! that only moves when the runtime explicitly advances it to the next
//! scheduled event. Under it a whole cluster run is a pure function of its
//! seeds — byte-identical across worker-thread counts — which is what the
//! determinism tests rely on. (The model checker steps the same clock, one
//! delivered message at a time.) The one wall-clock implementor is
//! `WallClock` in the serving benchmark (`bench/src/clock.rs`, a package
//! outside the workspace), which paces the same runtime in real time.
//!
//! A **tick** is the runtime's abstract time unit. Transports quote
//! delivery times in ticks, RPC deadlines and backoffs are ticks, and the
//! virtual clock jumps straight from one scheduled tick to the next.

use std::sync::atomic::{AtomicU64, Ordering};

/// Abstract runtime time, in ticks.
pub type Tick = u64;

/// A source of time for the node runtime.
///
/// The runtime is the only caller of [`advance_to`]; nodes may only *read*
/// the clock. Implementations must be monotonic: `now()` never decreases,
/// and after `advance_to(t)` returns, `now() >= t`.
///
/// [`advance_to`]: Clock::advance_to
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Tick;

    /// Blocks until `now() >= t`: a virtual clock jumps, a real clock
    /// waits. Called by the runtime between rounds when no work is due.
    fn advance_to(&self, t: Tick);
}

/// The deterministic lock-step clock: time is a counter that moves only
/// when the runtime advances it to the next scheduled event.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at tick 0.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Tick {
        self.now.load(Ordering::Acquire)
    }

    fn advance_to(&self, t: Tick) {
        self.now.fetch_max(t, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_starts_at_zero_and_jumps() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        c.advance_to(17);
        assert_eq!(c.now(), 17);
    }

    #[test]
    fn virtual_clock_never_goes_backwards() {
        let c = VirtualClock::new();
        c.advance_to(100);
        c.advance_to(40);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn clock_is_usable_as_a_trait_object() {
        let c: Box<dyn Clock> = Box::new(VirtualClock::new());
        c.advance_to(3);
        assert_eq!(c.now(), 3);
    }
}

//! The host yardstick: a fixed piece of work, timed between the stages of
//! every cycle, that says how fast this host is running right now.
//!
//! On a shared machine identical runs of identical code read 20–25 %
//! apart, in regimes that last from seconds to minutes — longer than a
//! run, so no statistic over a run's cycles removes them, and wider than
//! any bound worth gating on. The yardstick does the kind of work the
//! cluster does (ordered-map inserts and removals, small heap buffers
//! allocated, filled and freed) and slows and speeds with it: timing it
//! next to each stage and scaling the stage's timings by
//! `yardstick time ÷ REFERENCE_NS` cancels most of the host's share and
//! leaves the program's. It uses `std` only, so no change to the program
//! under test can move it.

use std::collections::BTreeMap;

/// What one yardstick run takes on the reference host, ns: this machine
/// in its quiet regime. Scaled timings read as they would there.
pub const REFERENCE_NS: f64 = 26_000_000.0;

/// Keys the yardstick inserts.
const INSERTS: usize = 80_000;

/// Runs the yardstick once and returns a checksum of its work (the same
/// in every run): xorshift keys into a `BTreeMap`, each with a fresh
/// buffer of 64–463 bytes, the smallest key removed after every third
/// insert.
pub fn yardstick() -> u64 {
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut z = 99u64;
    for _ in 0..INSERTS {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        map.insert(z, vec![z as u8; 64 + (z % 400) as usize]);
        if z.is_multiple_of(3) {
            map.pop_first();
        }
    }
    map.values().fold(z, |sum, buf| {
        sum.wrapping_add(buf.len() as u64 + u64::from(buf[0]))
    })
}

/// The factor by which the host ran slower than the reference while a
/// stage ran, from the yardstick readings (ns) just before and just
/// after it. Divide a time by it, multiply a rate by it.
pub fn slowdown(before_ns: u64, after_ns: u64) -> f64 {
    (before_ns + after_ns) as f64 / 2.0 / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_is_a_fixed_computation() {
        assert_eq!(yardstick(), yardstick());
    }

    #[test]
    fn slowdown_is_the_mean_reading_over_the_reference() {
        let r = REFERENCE_NS as u64;
        assert_eq!(slowdown(r, r), 1.0);
        assert_eq!(slowdown(r, 2 * r), 1.5);
        assert_eq!(slowdown(r / 2, r / 2), 0.5);
    }
}

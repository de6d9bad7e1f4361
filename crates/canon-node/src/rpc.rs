//! Per-node RPC bookkeeping: request ids, deadlines, bounded retry with
//! exponential backoff, and the in-flight table.
//!
//! Each node owns one [`RpcTable`]. Opening a request allocates a
//! node-scoped id and a deadline; the node arms a timer for the deadline
//! and sends the first transmission. When a response arrives the entry is
//! resolved (a second response for the same id is a *duplicate* and only
//! counted); when the timer fires first, [`RpcTable::retry`] either hands
//! back the operation for retransmission with a doubled deadline or — once
//! the retry budget is spent — gives up, which the node records as a
//! [`crate::msg::Outcome::TimedOut`] completion. Ids are never reused, so
//! a late response to a timed-out or already-answered request can always
//! be recognized as stale.
//!
//! # The in-flight window
//!
//! Ids are handed out in sequence and never reused, so the in-flight set
//! is a *dense window* over the id space, not a map: a deque with one cell
//! per id from the oldest request still in flight to the newest allocated,
//! and the id its front cell stands for. Opening a request pushes a cell,
//! resolving one is an index (`req − base`) that empties the cell, and
//! whenever the front cell is empty the window is trimmed up to the next
//! live request. An id below the window, or an empty cell inside it, is a
//! request already answered or given up on — the stale/duplicate case.
//!
//! The stated cost: a request answered out of order leaves a hole, and a
//! hole costs one `Option<Pending>` until the oldest live request resolves
//! or gives up. Memory therefore follows *newest − oldest live id*, not
//! the number of live requests; the retry budget bounds how long one
//! straggler can hold the window open. A window that empties gives its
//! buffer back: kept, every node would sit on the capacity of its largest
//! burst for good (measured at 1,024 nodes after a 100-request-per-node
//! burst: ≈ 3 MB, 3% of the process).

use crate::clock::Tick;
use crate::msg::Op;
use std::collections::VecDeque;

/// Retry/deadline policy for one node's RPCs.
#[derive(Clone, Copy, Debug)]
pub struct RpcConfig {
    /// Base per-request deadline in ticks (doubles per retry).
    pub timeout: Tick,
    /// Retransmissions allowed after the first attempt.
    pub max_retries: u32,
}

impl Default for RpcConfig {
    fn default() -> RpcConfig {
        RpcConfig {
            timeout: 64,
            max_retries: 3,
        }
    }
}

/// One in-flight request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pending {
    /// The operation, kept for retransmission.
    pub op: Op,
    /// When the request was opened.
    pub issued_at: Tick,
    /// Transmissions so far minus one (0 = first attempt in flight).
    pub attempt: u32,
}

/// What to do when a request's deadline timer fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Retransmit: attempt number and the new deadline to arm.
    Retry {
        /// The operation to resend.
        op: Op,
        /// The retransmission's 0-based attempt number.
        attempt: u32,
        /// The new deadline.
        deadline: Tick,
    },
    /// Retry budget exhausted: the request failed.
    GiveUp(Pending),
    /// The request already completed; the timer is stale.
    Stale,
}

/// A node's in-flight table (see the module docs for the window).
#[derive(Clone, Debug, Default)]
pub struct RpcTable {
    /// The id the window's front cell stands for. Every id below it is
    /// resolved; the next id to allocate is `base + window.len()`.
    base: u64,
    /// One cell per id in `base..base + len`: `Some` while the request is
    /// in flight. The front cell is never `None` (trimmed on removal), so
    /// an idle table's window is empty.
    window: VecDeque<Option<Pending>>,
    /// The `Some` cells in `window`.
    live: usize,
    config: RpcConfig,
}

impl RpcTable {
    /// An empty table under `config`.
    pub fn new(config: RpcConfig) -> RpcTable {
        RpcTable {
            config,
            ..RpcTable::default()
        }
    }

    /// The table's policy.
    pub fn config(&self) -> RpcConfig {
        self.config
    }

    /// Opens a request: allocates an id and returns it with the first
    /// deadline to arm.
    pub fn open(&mut self, op: Op, now: Tick) -> (u64, Tick) {
        let req = self.allocated();
        self.window.push_back(Some(Pending {
            op,
            issued_at: now,
            attempt: 0,
        }));
        self.live += 1;
        (req, now + self.config.timeout)
    }

    /// Where `req`'s cell would be in the window; `None` for an id below
    /// it (already resolved). May lie past the back (never allocated).
    fn offset(&self, req: u64) -> Option<usize> {
        usize::try_from(req.checked_sub(self.base)?).ok()
    }

    /// The window cell of `req`, if the id is inside the window.
    fn cell(&mut self, req: u64) -> Option<&mut Option<Pending>> {
        self.window.get_mut(self.offset(req)?)
    }

    /// Resolves `req` on response arrival, trimming the window up to the
    /// oldest request still in flight. `None` means the id is unknown — a
    /// duplicate or stale response.
    pub fn resolve(&mut self, req: u64) -> Option<Pending> {
        let p = self.cell(req)?.take()?;
        self.live -= 1;
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
        if self.window.is_empty() {
            // An idle table holds no buffer (see the module docs).
            self.window = VecDeque::new();
        }
        Some(p)
    }

    /// Handles a deadline timer for `req` firing at `now`.
    pub fn retry(&mut self, req: u64, now: Tick) -> RetryDecision {
        let max_retries = self.config.max_retries;
        let Some(Some(p)) = self.cell(req) else {
            return RetryDecision::Stale;
        };
        if p.attempt >= max_retries {
            // The entry was just seen under the same `&mut self`, so the
            // removal cannot miss; `Stale` is the non-panicking fallback.
            return match self.resolve(req) {
                Some(p) => RetryDecision::GiveUp(p),
                None => RetryDecision::Stale,
            };
        }
        p.attempt += 1;
        let attempt = p.attempt;
        let op = p.op.clone();
        let deadline = now + self.backoff(attempt);
        RetryDecision::Retry {
            op,
            attempt,
            deadline,
        }
    }

    /// The deadline length for the given attempt: `timeout · 2^attempt`,
    /// capped to avoid overflow.
    pub fn backoff(&self, attempt: u32) -> Tick {
        self.config.timeout.saturating_mul(1u64 << attempt.min(16))
    }

    /// Requests currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.live
    }

    /// Whether `req` is still awaiting a response.
    pub fn is_inflight(&self, req: u64) -> bool {
        self.offset(req)
            .and_then(|at| self.window.get(at))
            .is_some_and(Option::is_some)
    }

    /// The in-flight entries as `(req, pending)` pairs, in id order — the
    /// protocol model checker reads these for its RPC-id uniqueness and
    /// appendage (in-flight join) checks.
    pub fn inflight_entries(&self) -> Vec<(u64, Pending)> {
        (self.base..)
            .zip(&self.window)
            .filter_map(|(req, cell)| Some((req, cell.clone()?)))
            .collect()
    }

    /// Ids ever allocated by this table (the next id to hand out). Ids are
    /// monotone and never reused, so `open` count == this value.
    pub fn allocated(&self) -> u64 {
        self.base + self.window.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn lookup(key: u64) -> Op {
        Op::Lookup { key }
    }

    #[test]
    fn open_allocates_fresh_ids_and_deadlines() {
        let mut t = RpcTable::new(RpcConfig {
            timeout: 10,
            max_retries: 2,
        });
        let (r0, d0) = t.open(lookup(1), 100);
        let (r1, d1) = t.open(lookup(2), 105);
        assert_ne!(r0, r1);
        assert_eq!(d0, 110);
        assert_eq!(d1, 115);
        assert_eq!(t.in_flight(), 2);
    }

    #[test]
    fn resolve_is_exactly_once() {
        let mut t = RpcTable::new(RpcConfig::default());
        let (req, _) = t.open(lookup(1), 0);
        assert!(t.resolve(req).is_some());
        assert!(t.resolve(req).is_none(), "second resolve is a duplicate");
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn retries_back_off_exponentially_then_give_up() {
        let mut t = RpcTable::new(RpcConfig {
            timeout: 8,
            max_retries: 2,
        });
        let (req, d0) = t.open(lookup(1), 0);
        assert_eq!(d0, 8);
        let RetryDecision::Retry {
            attempt, deadline, ..
        } = t.retry(req, d0)
        else {
            panic!("first timer should retry");
        };
        assert_eq!((attempt, deadline), (1, 8 + 16));
        let RetryDecision::Retry {
            attempt, deadline, ..
        } = t.retry(req, 24)
        else {
            panic!("second timer should retry");
        };
        assert_eq!((attempt, deadline), (2, 24 + 32));
        let RetryDecision::GiveUp(p) = t.retry(req, 56) else {
            panic!("third timer must give up");
        };
        assert_eq!(p.attempt, 2);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn timer_for_answered_request_is_stale() {
        let mut t = RpcTable::new(RpcConfig::default());
        let (req, d) = t.open(lookup(1), 0);
        t.resolve(req).expect("in flight");
        assert!(matches!(t.retry(req, d), RetryDecision::Stale));
    }

    /// What the table *is*, independently of the window: an ordered map
    /// of the in-flight requests and the next id.
    #[derive(Default)]
    struct Model {
        next: u64,
        inflight: BTreeMap<u64, Pending>,
    }

    proptest::proptest! {
        /// The window answers every call exactly as the ordered map it
        /// replaced: out-of-order and duplicate resolves, ids below and
        /// past the window, retries up to the give-up, and the read-outs.
        #[test]
        fn the_window_agrees_with_an_ordered_map(
            ops in proptest::collection::vec(
                (0u8..8, proptest::prelude::any::<u64>()),
                1..200,
            )
        ) {
            use proptest::prop_assert_eq;
            let config = RpcConfig { timeout: 8, max_retries: 2 };
            let mut table = RpcTable::new(config);
            let mut model = Model::default();
            let mut now: Tick = 0;
            for (op, word) in ops {
                now += word % 3;
                // An id that is live, or anywhere from 0 to just past the
                // newest — so answered, stale and never-allocated ids all
                // come up. Timers pick among the three oldest live ids, so
                // one is retried often enough to be given up on.
                let among = model.inflight.len().min(if op < 6 { usize::MAX } else { 3 });
                let live = model.inflight.keys().nth(word as usize % among.max(1));
                let req = match (op % 2, live) {
                    (0, Some(&req)) => req,
                    _ => (word >> 8) % (model.next + 2),
                };
                match op {
                    0..=2 => {
                        let sent = lookup(word);
                        let (req, deadline) = table.open(sent.clone(), now);
                        prop_assert_eq!((req, deadline), (model.next, now + config.timeout));
                        model.inflight.insert(req, Pending { op: sent, issued_at: now, attempt: 0 });
                        model.next += 1;
                    }
                    3..=5 => {
                        prop_assert_eq!(table.resolve(req), model.inflight.remove(&req));
                    }
                    _ => {
                        let want = match model.inflight.get_mut(&req) {
                            None => RetryDecision::Stale,
                            Some(p) if p.attempt >= config.max_retries => {
                                RetryDecision::GiveUp(model.inflight.remove(&req).expect("seen"))
                            }
                            Some(p) => {
                                p.attempt += 1;
                                RetryDecision::Retry {
                                    op: p.op.clone(),
                                    attempt: p.attempt,
                                    deadline: now + (config.timeout << p.attempt),
                                }
                            }
                        };
                        prop_assert_eq!(table.retry(req, now), want);
                    }
                }
                prop_assert_eq!(table.allocated(), model.next);
                prop_assert_eq!(table.in_flight(), model.inflight.len());
                prop_assert_eq!(table.is_inflight(req), model.inflight.contains_key(&req));
                prop_assert_eq!(
                    table.inflight_entries(),
                    model.inflight.iter().map(|(&req, p)| (req, p.clone())).collect::<Vec<_>>()
                );
                // The window spans oldest live … newest allocated, no more.
                let span = model.inflight.keys().next().map_or(0, |oldest| model.next - oldest);
                prop_assert_eq!(table.window.len() as u64, span);
            }
            // Answering everything empties the window back to zero length.
            for req in 0..model.next {
                prop_assert_eq!(table.resolve(req).is_some(), model.inflight.remove(&req).is_some());
            }
            prop_assert_eq!((table.in_flight(), table.window.capacity()), (0, 0));
            prop_assert_eq!(table.allocated(), model.next);
            prop_assert_eq!(table.open(lookup(0), now).0, model.next);
        }
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let t = RpcTable::new(RpcConfig {
            timeout: u64::MAX / 2,
            max_retries: 40,
        });
        assert!(t.backoff(63) >= t.backoff(16));
    }
}

//! The work ledger: what the runtime did, counted rather than timed.
//!
//! Wall time on this host carries a noise floor of several per cent (code
//! layout alone moves the framed burst ≈ 7%), so a change that removes
//! work shows it here first, exactly. Every counter is a plain `u64` in
//! state that one thread owns while it counts: a node's counters in the
//! node (locked by its round), a mailbox slot's under the slot's lock, a
//! worker's in its round buffer until the exchange hands them to the
//! runtime. [`Runtime::work_ledger`](crate::runtime::Runtime::work_ledger)
//! sums them all at read-out, so the totals do not depend on which worker
//! counted what.
//!
//! Most counters count events of the protocol and are the same on any
//! worker count; the ones that count what a *buffer* did — a bucket made
//! from a reused one, a capacity that grew — depend on which worker's
//! buffer held what, and [`WorkLedger::thread_invariant`] leaves them out.

/// Cluster-wide work counters (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkLedger {
    /// Node rounds: one node visited by one round of [`Runtime::step`](crate::runtime::Runtime::step).
    pub node_rounds: u64,
    /// Mailbox buckets (one slot's mail due at one tick) created.
    pub buckets_created: u64,
    /// Of those, buckets made from an emptied bucket a drain handed back.
    pub buckets_reused: u64,
    /// Capacity growth at the mailbox push sites: a slot's bucket list, a
    /// bucket's envelopes, frame bytes or frame index.
    pub mailbox_growth: u64,
    /// Capacity growth of the per-node wire tally's link table.
    pub tally_growth: u64,
    /// Capacity growth of the outbox: its arena, message links, open
    /// frames and per-slot heads.
    pub outbox_growth: u64,
    /// Capacity growth of the round buffer's bytes and frame index.
    pub round_growth: u64,
    /// Frames flushed out of outboxes.
    pub frames_flushed: u64,
    /// Messages encoded from a value into an outbox.
    pub encoded: u64,
    /// Framed messages decoded into a value: at the drain, or from a
    /// request head that is served, parked or forwarded typed.
    pub decoded: u64,
    /// Framed requests read only as far as their head.
    pub heads_read: u64,
    /// Requests forwarded as the bytes they arrived in.
    pub forwarded_bytes: u64,
    /// Deadlines pushed onto a node's timer heap.
    pub timer_pushes: u64,
    /// Deadlines popped off it: fired, or discarded as stale.
    pub timer_pops: u64,
    /// Values written into a shard: served PUTs, replicas, handed-off
    /// entries.
    pub shard_puts: u64,
    /// Values read out of a shard.
    pub shard_gets: u64,
    /// Lookups in an enabled en-route cache: its hits plus misses, read
    /// from the node's [`CacheTally`](crate::cache::CacheTally).
    pub cache_probes: u64,
    /// Fills a cache accepted (the tally's `fills`).
    pub cache_fills: u64,
    /// Entries a cache evicted for capacity (the tally's `evictions`).
    pub cache_evictions: u64,
    /// Requests forwarded as a value: sent typed over bare channels, or
    /// decoded off a frame and encoded again.
    pub forwarded_typed: u64,
}

impl WorkLedger {
    /// Every counter, named, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 20] {
        [
            ("node_rounds", self.node_rounds),
            ("buckets_created", self.buckets_created),
            ("buckets_reused", self.buckets_reused),
            ("mailbox_growth", self.mailbox_growth),
            ("tally_growth", self.tally_growth),
            ("outbox_growth", self.outbox_growth),
            ("round_growth", self.round_growth),
            ("frames_flushed", self.frames_flushed),
            ("encoded", self.encoded),
            ("decoded", self.decoded),
            ("heads_read", self.heads_read),
            ("forwarded_bytes", self.forwarded_bytes),
            ("timer_pushes", self.timer_pushes),
            ("timer_pops", self.timer_pops),
            ("shard_puts", self.shard_puts),
            ("shard_gets", self.shard_gets),
            ("cache_probes", self.cache_probes),
            ("cache_fills", self.cache_fills),
            ("cache_evictions", self.cache_evictions),
            ("forwarded_typed", self.forwarded_typed),
        ]
    }

    /// The counters that are the same on any worker count: all but the
    /// ones a worker-owned buffer decides (reused buckets, and growth of
    /// the mailbox, outbox and round buffer). The per-node tally is the
    /// node's own, so its growth stays.
    pub fn thread_invariant(&self) -> WorkLedger {
        WorkLedger {
            buckets_reused: 0,
            mailbox_growth: 0,
            outbox_growth: 0,
            round_growth: 0,
            ..*self
        }
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &WorkLedger) {
        for (field, (_, more)) in self.fields_mut().into_iter().zip(other.fields()) {
            *field += more;
        }
    }

    /// The counts since `earlier`, a read-out of the same runtime.
    pub fn since(&self, earlier: &WorkLedger) -> WorkLedger {
        let mut out = *self;
        for (field, (_, before)) in out.fields_mut().into_iter().zip(earlier.fields()) {
            *field -= before;
        }
        out
    }

    /// Every counter, in the order of [`WorkLedger::fields`].
    fn fields_mut(&mut self) -> [&mut u64; 20] {
        [
            &mut self.node_rounds,
            &mut self.buckets_created,
            &mut self.buckets_reused,
            &mut self.mailbox_growth,
            &mut self.tally_growth,
            &mut self.outbox_growth,
            &mut self.round_growth,
            &mut self.frames_flushed,
            &mut self.encoded,
            &mut self.decoded,
            &mut self.heads_read,
            &mut self.forwarded_bytes,
            &mut self.timer_pushes,
            &mut self.timer_pops,
            &mut self.shard_puts,
            &mut self.shard_gets,
            &mut self.cache_probes,
            &mut self.cache_fills,
            &mut self.cache_evictions,
            &mut self.forwarded_typed,
        ]
    }
}

/// 1 if pushing onto a vector whose capacity was `before` made it grow:
/// the ledger's allocation proxy at a push site.
pub(crate) fn grew<T>(v: &Vec<T>, before: usize) -> u64 {
    u64::from(v.capacity() != before)
}

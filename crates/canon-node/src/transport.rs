//! Message delivery: the [`Transport`] trait, per-node mailboxes, and the
//! fault-injecting wrapper.
//!
//! Nodes never touch each other's state; the only way information moves is
//! an [`Envelope`] pushed into the destination's [`Mailboxes`] slot, with a
//! delivery tick quoted by a [`Transport`]:
//!
//! * [`ChannelTransport`] — the in-process channel: every message arrives,
//!   after a fixed latency of at least one tick. One tick of minimum
//!   latency is what makes round execution deterministic: a message sent
//!   while round *t* is executing can only be due at *t + 1* or later, so
//!   the set of messages each round processes does not depend on worker
//!   scheduling.
//! * [`FaultyTransport`] — wraps another transport and adds deterministic
//!   loss, latency jitter and network partitions, all derived from a
//!   [`Seed`] and the message coordinates `(from, to, seq)` — never from
//!   OS entropy, so a faulty run is exactly as reproducible as a clean
//!   one.
//!
//! A message's fate is decided once, when it is sent, with its own
//! sequence number — whether or not a
//! [`FramedTransport`](crate::framed::FramedTransport) sits anywhere in
//! the stack, and in whichever order the wrappers nest.
//!
//! Mailboxes drain in `(deliver_at, from, seq)` order. A mailbox is a
//! short list of buckets in delivery-tick order, one bucket per tick with
//! mail: almost always none or one (the next tick's), a few under jitter,
//! so finding a tick's bucket is a scan of a line or two. A bucket holds
//! two kinds of mail, written at two different times:
//!
//! * **envelopes** — injected client commands, pushed between rounds, and
//!   unframed sends, pushed one at a time by the sending node *during* a
//!   round, in whatever order concurrent senders arrive;
//! * **frames** — framed senders' messages to this slot and tick, still as
//!   the bytes they wrote (see [`crate::framed`]). They arrive only
//!   *between* rounds, through `Mailboxes::push_frames`: the exchange
//!   that ends a round queues each `(slot, tick)`'s frames as one group,
//!   in `(from, first seq)` order, under one lock. All of a bucket's
//!   frames share one byte vector; beside it, one small index entry per
//!   frame records its sender, its first sequence number, where its bytes
//!   sit and how many messages it carries. Nothing is allocated per frame,
//!   and on a framed stack not even per bucket, most rounds: a bucket the
//!   exchange creates is made from the emptied buffers of one a drain
//!   took (`Spares`, kept by the worker's round buffer; see
//!   [`crate::framed`] for how much it keeps).
//!
//! A drain removes the due buckets — almost always one — under the slot's
//! lock and hands them to the caller, who reads them with the lock
//! released (`Bucket::read_into`): a frame is read whole before any of its
//! messages is handed on, and one that fails to read delivers none of
//! them and is counted as one decode error for the receiver. The order is
//! cheap to restore: a sender opens at most one frame per `(slot, tick)`
//! per round, its messages in send order, and its sequence numbers only
//! grow, so one sender's frames to one bucket hold disjoint, increasing
//! runs of sequence numbers; and no node frames mail to itself (a node's
//! own mail, its injected commands, is envelopes). So every frame is a
//! contiguous run of the `(deliver_at, from, seq)` order: the frames
//! sorted by their first message's key, and the few envelopes sorted by
//! theirs, merge into the order with nothing else to sort. The key is
//! unique per message and independent of *arrival* order, so concurrent
//! senders cannot perturb the order a node drains its mailbox in — the
//! second half of the determinism argument (debug builds check the
//! merged order). For a fixed ordered
//! pair of nodes the key is monotone in the send order whenever the
//! transport's latency is constant per pair, which is the FIFO property
//! the channel transport guarantees (see `tests/transport_fifo.rs`).
//!
//! Every read-out — [`Mailboxes::queued`], [`Mailboxes::next_due`],
//! [`Mailboxes::peek_all`], [`Mailboxes::take`] — sees the messages
//! queued as frame bytes exactly as it sees envelopes.
//!
//! Beside the slots, [`Mailboxes`] keeps a **wake-up index**, a tick
//! calendar: an ordered map from delivery tick to the list of slots
//! holding a bucket due then. A push that creates a bucket appends its
//! slot to its tick's list — once per bucket, however many messages
//! follow it in, and in a map of the few ticks that have mail pending, not
//! of every bucket — and the bucket keeps where its entry sits. A round
//! takes every tick at or before *now* out of the calendar whole
//! (`take_due_slots`) and then drains each slot listed (`take_woken`),
//! which leaves the calendar alone: no entry is removed one by one on the
//! round's path. The primitives that take single buckets or messages —
//! [`Mailboxes::drain_due`], [`Mailboxes::take`] — remove their bucket's
//! entry themselves, in one step: they mark it at the place the bucket
//! kept, so no other entry moves, and a tick's list goes with its last
//! live entry. So the index names exactly the buckets that exist after
//! every call, on a bare `Mailboxes` as much as inside the runtime between
//! rounds. The runtime reads the slots with
//! due mail and the cluster's earliest delivery off its front instead of
//! locking every slot to ask (see [`crate::runtime`]); a list's order is
//! arrival order, so the runtime sorts what it takes, and the set it takes
//! is a set of facts about mailbox *contents*, as blind to arrival order
//! as the drain is.

use crate::clock::Tick;
use crate::framed::{self, FrameHeader};
use crate::ledger::{grew, WorkLedger};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_wire::{WireDecode, WireError};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a runtime mutex under the crate's poisoned-lock policy: recover
/// the guard rather than panic.
///
/// Every mutex in this crate (mailbox slots, node states, partition sets)
/// guards data that is written by at most one worker per round, so a
/// poisoned lock means a node's handler panicked mid-round. The panic
/// itself already surfaces through `canon_par`'s join; propagating a
/// second panic from every subsequent accessor would only cascade aborts
/// and mask the original message. Recovering the guard keeps accounting
/// and shutdown paths (summaries, drains, audits) usable after a failed
/// round, and the determinism tests catch any torn state the recovery
/// exposes.
pub(crate) fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A message queued for delivery.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// The sending node.
    pub from: NodeId,
    /// The destination node.
    pub to: NodeId,
    /// When the message was sent.
    pub sent_at: Tick,
    /// When the message becomes visible to the destination.
    pub deliver_at: Tick,
    /// Per-sender sequence number (unique per `from`).
    pub seq: u64,
    /// The protocol payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// The message's place in the delivery order.
    pub(crate) fn key(&self) -> Key {
        (self.deliver_at, self.from.raw(), self.seq)
    }
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<M> Eq for Envelope<M> {}

impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Decides the fate of each message: its delivery tick, or loss.
///
/// Implementations must be pure functions of `(now, from, to, seq)` and
/// their own construction-time configuration, so that runs are
/// reproducible. Under a virtual clock the quoted delivery tick must be
/// strictly after `now` (the channel transport enforces a minimum latency
/// of one tick); see the module docs for why.
pub trait Transport: Send + Sync {
    /// Returns the tick at which a message sent now from `from` to `to`
    /// arrives, or `None` if the network drops it.
    fn schedule(&self, now: Tick, from: NodeId, to: NodeId, seq: u64) -> Option<Tick>;

    /// Whether this transport stack frames. The default — no framing —
    /// moves payloads as in-process enum values; a
    /// [`FramedTransport`](crate::framed::FramedTransport) anywhere in the
    /// stack makes the runtime serialize every message through the wire
    /// codec into length-prefixed frames (see [`crate::framed`]). Wrappers
    /// that delegate `schedule` must forward this too.
    fn framed(&self) -> bool {
        false
    }
}

/// The reliable in-process channel: fixed latency, no loss.
#[derive(Clone, Copy, Debug)]
pub struct ChannelTransport {
    latency: Tick,
}

impl ChannelTransport {
    /// A channel with the given fixed latency (clamped to at least one
    /// tick — zero-latency delivery would make round membership depend on
    /// worker scheduling).
    pub fn new(latency: Tick) -> ChannelTransport {
        ChannelTransport {
            latency: latency.max(1),
        }
    }

    /// The per-message latency in ticks.
    pub fn latency(&self) -> Tick {
        self.latency
    }
}

impl Transport for ChannelTransport {
    fn schedule(&self, now: Tick, _from: NodeId, _to: NodeId, _seq: u64) -> Option<Tick> {
        Some(now + self.latency)
    }
}

/// Deterministic fault injection on top of another transport: seeded loss,
/// seeded latency jitter, and explicit partitions.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    seed: Seed,
    /// Messages dropped per thousand.
    loss_per_mille: u32,
    /// Maximum extra latency in ticks (uniform in `0..=jitter`).
    jitter: Tick,
    /// Directed `(from, to)` pairs the partition currently severs.
    blocked: Mutex<BTreeSet<(u64, u64)>>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, dropping `loss_per_mille`/1000 of messages and adding
    /// up to `jitter` ticks of latency, both derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `loss_per_mille > 1000`.
    pub fn new(inner: T, seed: Seed, loss_per_mille: u32, jitter: Tick) -> FaultyTransport<T> {
        assert!(loss_per_mille <= 1000, "loss is a per-mille fraction");
        FaultyTransport {
            inner,
            seed,
            loss_per_mille,
            jitter,
            blocked: Mutex::new(BTreeSet::new()),
        }
    }

    /// Severs every link between the two groups, in both directions.
    /// Messages across the cut are silently dropped until [`heal`] is
    /// called.
    ///
    /// [`heal`]: FaultyTransport::heal
    pub fn partition(&self, a: &[NodeId], b: &[NodeId]) {
        let mut blocked = lock_unpoisoned(&self.blocked);
        for &x in a {
            for &y in b {
                blocked.insert((x.raw(), y.raw()));
                blocked.insert((y.raw(), x.raw()));
            }
        }
    }

    /// Removes every partition.
    pub fn heal(&self) {
        lock_unpoisoned(&self.blocked).clear();
    }

    /// The seeded per-message fate word: bits of
    /// `seed ⊕ f(from, to, seq)`.
    fn fate(&self, from: NodeId, to: NodeId, seq: u64) -> u64 {
        self.seed
            .derive("fault-transport")
            .derive_node(from)
            .derive_node(to)
            .derive_index(seq)
            .0
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn schedule(&self, now: Tick, from: NodeId, to: NodeId, seq: u64) -> Option<Tick> {
        if lock_unpoisoned(&self.blocked).contains(&(from.raw(), to.raw())) {
            return None;
        }
        let base = self.inner.schedule(now, from, to, seq)?;
        let fate = self.fate(from, to, seq);
        if (fate % 1000) < self.loss_per_mille as u64 {
            return None;
        }
        let extra = if self.jitter == 0 {
            0
        } else {
            (fate >> 10) % (self.jitter + 1)
        };
        Some(base + extra)
    }

    fn framed(&self) -> bool {
        self.inner.framed()
    }
}

/// One queued frame's index entry: what the drain orders the frame by,
/// where its bytes sit in the bucket, and how many messages it carries.
#[derive(Clone, Copy, Debug)]
struct FrameEntry {
    /// When the frame is due (the frame header's `deliver_at`).
    deliver_at: Tick,
    /// The sender (the frame header's `from`).
    from: u64,
    /// The sequence number of the frame's first message.
    seq: u64,
    /// Offset of the frame in its bucket's bytes.
    start: usize,
    /// Frame length, length prefix included (a `u32` body length bounds it).
    len: u32,
    /// Messages the frame carries.
    count: u32,
}

impl FrameEntry {
    /// The key of the frame's first message: the frame is the run of the
    /// sender's messages from it on (see the module docs).
    fn key(&self) -> Key {
        (self.deliver_at, self.from, self.seq)
    }

    /// The frame's bytes in `all`, or nothing if they are not there (which
    /// then fails to decode).
    fn bytes<'a>(&self, all: &'a [u8]) -> &'a [u8] {
        all.get(self.start..self.start + self.len as usize)
            .unwrap_or_default()
    }
}

/// The mail due at one tick in one slot: envelopes, and frames as the
/// bytes their senders wrote (see the module docs). Never empty while it
/// is in its slot; a drain takes it out whole ([`Mailboxes::take_woken`])
/// and reads it ([`Bucket::read_into`]), and a framed runtime hands its
/// emptied buffers back for the exchange to fill again
/// ([`Spares::keep`]).
#[derive(Clone, Debug)]
pub(crate) struct Bucket<M> {
    envs: Vec<Envelope<M>>,
    /// Every frame's bytes, back to back in arrival order.
    bytes: Vec<u8>,
    /// One entry per frame in `bytes`, in the same order.
    frames: Vec<FrameEntry>,
}

impl<M> Default for Bucket<M> {
    fn default() -> Bucket<M> {
        Bucket {
            envs: Vec::new(),
            bytes: Vec::new(),
            frames: Vec::new(),
        }
    }
}

impl<M> Bucket<M> {
    fn is_empty(&self) -> bool {
        self.envs.is_empty() && self.frames.is_empty()
    }

    /// Messages queued, framed or not.
    fn len(&self) -> usize {
        let framed: usize = self.frames.iter().map(|f| f.count as usize).sum();
        self.envs.len() + framed
    }

    /// Moves a later tick's mail in behind this bucket's (a drain that
    /// found several ticks due).
    fn absorb(&mut self, mut later: Bucket<M>) {
        let offset = self.bytes.len();
        self.envs.append(&mut later.envs);
        self.bytes.append(&mut later.bytes);
        self.frames.extend(later.frames.iter().map(|f| FrameEntry {
            start: f.start + offset,
            ..*f
        }));
    }

    /// The bytes of capacity the bucket's buffers hold.
    fn retained(&self) -> usize {
        self.bytes.capacity()
            + self.frames.capacity() * size_of::<FrameEntry>()
            + self.envs.capacity() * size_of::<Envelope<M>>()
    }

    /// Reads the bucket: its envelopes, and each framed message as `read`
    /// makes it of its frame's header, sequence number and payload bytes —
    /// an envelope, appended to `envs`, or a head, appended to `heads`
    /// with its key. A frame is read whole or not at all: one that fails
    /// leaves both buffers as it found them. On return the messages added
    /// to `envs` are in `(deliver_at, from, seq)` order, and so are those
    /// added to `heads`; merging the two by key is the delivery order.
    /// Returns how many frames failed, and how many framed messages were
    /// read as envelopes.
    ///
    /// Only the envelopes and the frame index are sorted: a frame is a
    /// contiguous run of the order (see the module docs), so frames read
    /// in the order of their first keys yield their messages in order.
    pub(crate) fn read_into<'a, H>(
        &'a mut self,
        envs: &mut Vec<Envelope<M>>,
        heads: &mut Vec<(Key, H)>,
        read: impl Fn(&FrameHeader, u64, &'a [u8]) -> Result<Read<M, H>, WireError>,
    ) -> (u64, u64) {
        let Bucket {
            envs: queued,
            bytes,
            frames,
        } = self;
        let bytes: &'a Vec<u8> = bytes;
        // Framed mail comes out in order, whatever its ticks; queued
        // envelopes, if any, are sorted in below.
        let mixed = !queued.is_empty();
        let first = envs.len();
        let unframed = queued.len();
        envs.append(queued);
        // Freed now, as a drain always has, not with the bucket after the
        // round: the round's sends fill other buckets meanwhile.
        *queued = Vec::new();
        frames.sort_unstable_by_key(FrameEntry::key);
        let mut failed = 0;
        for f in frames.iter() {
            let before = (envs.len(), heads.len());
            let checked = framed::read_frame(f.bytes(bytes), |header, seq, payload, _| {
                match read(header, seq, payload)? {
                    Read::Envelope(env) => envs.push(env),
                    Read::Head(head) => heads.push(((f.deliver_at, f.from, seq), head)),
                }
                Ok(())
            });
            if checked.is_err() {
                envs.truncate(before.0);
                heads.truncate(before.1);
                failed += 1;
            }
        }
        let envs = &mut envs[first..];
        if mixed {
            // Keys are unique, so an unstable sort has one possible result.
            envs.sort_unstable();
        }
        debug_assert!(envs.is_sorted(), "framed mail read out of order");
        debug_assert!(
            heads.is_sorted_by_key(|(key, _)| *key),
            "framed heads out of order"
        );
        (failed, (envs.len() - unframed) as u64)
    }
}

impl<M: WireDecode> Bucket<M> {
    /// Appends the bucket's messages to `out`, decoded, in `(deliver_at,
    /// from, seq)` order.
    fn decode(&mut self, out: &mut Vec<Envelope<M>>) {
        let mut no_heads: Vec<(Key, Infallible)> = Vec::new();
        self.read_into(out, &mut no_heads, |header, seq, payload| {
            header.envelope(seq, payload).map(Read::Envelope)
        });
    }

    /// Removes the message `from` sent as `seq`, if it is queued here.
    /// Taking a message out of a frame turns the frame's other messages
    /// into envelopes.
    fn take(&mut self, from: NodeId, seq: u64) -> Option<Envelope<M>> {
        if let Some(at) = self
            .envs
            .iter()
            .position(|env| env.from == from && env.seq == seq)
        {
            // A bucket is unordered until it is drained.
            return Some(self.envs.swap_remove(at));
        }
        let mut decoded = Vec::new();
        let (i, at) = self.frames.iter().enumerate().find_map(|(i, f)| {
            if f.from != from.raw() || f.seq > seq {
                return None;
            }
            decoded.clear();
            framed::unframe(f.bytes(&self.bytes), &mut decoded).ok()?;
            Some((i, decoded.iter().position(|env| env.seq == seq)?))
        })?;
        let gone = self.frames.remove(i);
        let len = gone.len as usize;
        self.bytes.drain(gone.start..gone.start + len);
        for f in &mut self.frames {
            if f.start > gone.start {
                f.start -= len;
            }
        }
        let env = decoded.swap_remove(at);
        self.envs.append(&mut decoded);
        Some(env)
    }
}

/// Emptied buckets, kept for buckets yet to be made, and the bytes of
/// capacity they hold.
#[derive(Debug)]
pub(crate) struct Spares<M> {
    buckets: Vec<Bucket<M>>,
    held: usize,
}

impl<M> Default for Spares<M> {
    fn default() -> Spares<M> {
        Spares {
            buckets: Vec::new(),
            held: 0,
        }
    }
}

impl<M> Spares<M> {
    /// The most capacity a kept bucket may hold. A bucket of a preload or
    /// a paced round carries a frame or a few, a few hundred bytes; one of
    /// a burst, or a flash crowd's hot node, tens of kilobytes, which made
    /// the bucket of a single frame would leave idle in a mailbox — a
    /// lineage of reused buckets only ever grows. Those are let go at the
    /// drain, as every bucket was before buckets were reused.
    const MAX_RETAINED: usize = 1 << 10;

    /// Keeps a drained bucket's buffers, emptied — unless they hold no
    /// capacity (an unframed drain's bucket: [`Bucket::read_into`] lets
    /// its envelope buffer go) or more than [`Spares::MAX_RETAINED`].
    pub(crate) fn keep(&mut self, mut bucket: Bucket<M>) {
        bucket.envs.clear();
        bucket.bytes.clear();
        bucket.frames.clear();
        let retained = bucket.retained();
        if (1..=Self::MAX_RETAINED).contains(&retained) {
            self.held += retained;
            self.buckets.push(bucket);
        }
    }

    /// The most recently kept bucket, if any.
    fn pop(&mut self) -> Option<Bucket<M>> {
        let bucket = self.buckets.pop()?;
        self.held -= bucket.retained();
        Some(bucket)
    }

    /// Takes every bucket `other` keeps.
    pub(crate) fn append(&mut self, other: &mut Spares<M>) {
        self.buckets.append(&mut other.buckets);
        self.held += std::mem::take(&mut other.held);
    }

    /// Lets go of the longest-kept buckets until the rest hold at most
    /// `room` bytes.
    pub(crate) fn trim(&mut self, room: usize) {
        if self.held <= room {
            return;
        }
        let gone = self
            .buckets
            .iter()
            .take_while(|bucket| {
                let over = self.held > room;
                if over {
                    self.held -= bucket.retained();
                }
                over
            })
            .count();
        self.buckets.drain(..gone);
    }
}

/// A message's place in the delivery order: `(deliver_at, from, seq)`.
pub(crate) type Key = (Tick, u64, u64);

/// What a drain's reader makes of one framed message: an envelope, or a
/// head the caller keeps in place of the message (a framed request, which
/// a hop that only routes it need not decode).
pub(crate) enum Read<M, H> {
    Envelope(Envelope<M>),
    Head(H),
}

/// One node's mailbox: its buckets, and what pushing into them cost.
#[derive(Debug)]
struct Slot<M> {
    /// The slot's buckets in strictly increasing tick order, never an
    /// empty one: almost always none or one (the next tick's mail), a few
    /// under jitter, so a look-up is a scan of a line or two.
    buckets: Vec<Due<M>>,
    /// Buckets created and reused here, and capacity growth at the push
    /// sites.
    ledger: WorkLedger,
}

impl<M> Default for Slot<M> {
    fn default() -> Slot<M> {
        Slot {
            buckets: Vec::new(),
            ledger: WorkLedger::default(),
        }
    }
}

/// One of a slot's buckets: its tick, where its wake-up entry sits in
/// that tick's calendar list, and the bucket.
#[derive(Debug)]
struct Due<M> {
    tick: Tick,
    entry: usize,
    bucket: Bucket<M>,
}

/// The wake-up index as a tick calendar: per delivery tick, the slots
/// holding a bucket due then (see the module docs).
#[derive(Debug, Default)]
struct Calendar {
    /// Per tick, its entries. No tick is kept without a live entry.
    ticks: BTreeMap<Tick, Entries>,
}

/// One tick's calendar list: a slot per bucket created for the tick, in
/// creation order, [`Entries::LEFT`] where that bucket has since been
/// removed on its own ([`Calendar::leave`]); and how many are not. A
/// list is no longer than the buckets created for its tick while the
/// tick is pending.
#[derive(Debug, Default)]
struct Entries {
    slots: Vec<usize>,
    live: usize,
}

impl Entries {
    /// An entry whose bucket has been removed.
    const LEFT: usize = usize::MAX;
}

impl Calendar {
    /// Enters a bucket just created at `(tick, slot)`, returning where
    /// its entry sits in the tick's list.
    fn enter(&mut self, tick: Tick, slot: usize) -> usize {
        let list = self.ticks.entry(tick).or_default();
        list.slots.push(slot);
        list.live += 1;
        list.slots.len() - 1
    }

    /// Removes the entry [`Calendar::enter`] placed at `entry` for a
    /// bucket just removed at `(tick, slot)`, paid only by the primitives
    /// that take single buckets or messages ([`Mailboxes::drain_due`],
    /// [`Mailboxes::take`]; a round takes whole ticks). The entry is
    /// marked, not taken out, so no other entry moves and the place each
    /// bucket keeps stays true: one step, however long the list. The list
    /// goes with its last live entry.
    fn leave(&mut self, tick: Tick, slot: usize, entry: usize) {
        let list = self.ticks.get_mut(&tick);
        let list = list.filter(|list| list.slots.get(entry) == Some(&slot));
        debug_assert!(list.is_some(), "wake-up index: ({tick}, {slot}) missing");
        let Some(list) = list else {
            return;
        };
        list.slots[entry] = Entries::LEFT;
        list.live -= 1;
        if list.live == 0 {
            self.ticks.remove(&tick);
        }
    }

    /// Moves the live slots of every tick at or before `now` to `out`,
    /// and those ticks out of the calendar.
    fn take_due(&mut self, now: Tick, out: &mut Vec<usize>) {
        while let Some(first) = self.ticks.first_entry() {
            if *first.key() > now {
                break;
            }
            let list = first.remove().slots;
            out.extend(list.into_iter().filter(|&slot| slot != Entries::LEFT));
        }
    }
}

/// One mailbox per node: the messages queued for it, bucketed by
/// delivery tick, behind a mutex, and the wake-up index over them.
#[derive(Debug, Default)]
pub struct Mailboxes<M> {
    slots: Vec<Mutex<Slot<M>>>,
    /// The wake-up index: `(tick, slot)` for exactly the buckets in
    /// `slots`, except while a round runs (see [`Mailboxes::take_woken`]).
    /// An entry is entered or removed by the call that creates or removes
    /// its bucket, with the slot's own lock held (slot before calendar,
    /// never the reverse); a round takes whole ticks under the calendar's
    /// lock alone.
    calendar: Mutex<Calendar>,
}

impl<M> Mailboxes<M> {
    /// Mailboxes for `n` nodes.
    pub fn new(n: usize) -> Mailboxes<M> {
        Mailboxes {
            slots: (0..n).map(|_| Mutex::default()).collect(),
            calendar: Mutex::default(),
        }
    }

    /// Number of mailboxes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no mailboxes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Adds a mailbox for a newly spawned node, returning its slot.
    pub fn grow(&mut self) -> usize {
        self.slots.push(Mutex::default());
        self.slots.len() - 1
    }

    /// Makes room for `more` mailboxes to [`grow`](Mailboxes::grow) into.
    pub(crate) fn reserve(&mut self, more: usize) {
        self.slots.reserve(more);
    }

    /// Pushes a pre-built envelope straight into `slot`, bypassing the
    /// transport — client command injection uses this, so injected work
    /// can never be lost to the network.
    pub fn push(&self, slot: usize, env: Envelope<M>) {
        let mut mailbox = lock_unpoisoned(&self.slots[slot]);
        let Slot { buckets, ledger } = &mut *mailbox;
        let bucket = self.bucket(buckets, ledger, slot, env.deliver_at, || None);
        let before = bucket.envs.capacity();
        bucket.envs.push(env);
        ledger.mailbox_growth += grew(&bucket.envs, before);
    }

    /// Queues a group of frames at `slot`, all due at `deliver_at`, under
    /// one lock and one bucket look-up: the bucket's bytes grow at most
    /// once, to exactly what the group needs, and take the frames in the
    /// order given. Each frame is its sender, the sequence number of its
    /// first message, its message count and its bytes. A bucket the group
    /// creates is made from one of `spares` if there is one. Returns the
    /// bytes queued. The bytes are not looked at until the drain.
    ///
    /// This is the one way frames enter a mailbox: the runtime calls it
    /// from the exchange that ends a round (see [`crate::framed`]), never
    /// from inside one.
    pub(crate) fn push_frames<'a, I>(
        &self,
        slot: usize,
        deliver_at: Tick,
        frames: I,
        spares: &mut Spares<M>,
    ) -> usize
    where
        I: ExactSizeIterator<Item = (NodeId, u64, usize, &'a [u8])> + Clone,
    {
        let total = frames.clone().map(|(.., bytes)| bytes.len()).sum();
        let mut mailbox = lock_unpoisoned(&self.slots[slot]);
        let Slot { buckets, ledger } = &mut *mailbox;
        let bucket = self.bucket(buckets, ledger, slot, deliver_at, || spares.pop());
        let before = (bucket.bytes.capacity(), bucket.frames.capacity());
        bucket.bytes.reserve_exact(total);
        bucket.frames.reserve_exact(frames.len());
        for (from, seq, count, bytes) in frames {
            bucket.frames.push(FrameEntry {
                deliver_at,
                from: from.raw(),
                seq,
                start: bucket.bytes.len(),
                len: bytes.len() as u32,
                count: count as u32,
            });
            bucket.bytes.extend_from_slice(bytes);
        }
        ledger.mailbox_growth += grew(&bucket.bytes, before.0) + grew(&bucket.frames, before.1);
        total
    }

    /// The bucket for `tick` in a slot's locked `buckets`, made from what
    /// `spare` gives if it has to be created. Creating it is what enters
    /// `(tick, slot)` in the wake-up index, so the index costs one entry
    /// per bucket, not per message.
    fn bucket<'a>(
        &self,
        buckets: &'a mut Vec<Due<M>>,
        ledger: &mut WorkLedger,
        slot: usize,
        tick: Tick,
        spare: impl FnOnce() -> Option<Bucket<M>>,
    ) -> &'a mut Bucket<M> {
        // A scan, not a binary search: the list is a line or two long,
        // and a binary search made pushes into slots with mail for four
        // ticks (the serving benchmark's transport probe) ≈ 1.5× slower.
        let at = buckets.iter().position(|due| due.tick >= tick);
        let at = at.unwrap_or(buckets.len());
        if buckets.get(at).is_none_or(|due| due.tick != tick) {
            let entry = lock_unpoisoned(&self.calendar).enter(tick, slot);
            ledger.buckets_created += 1;
            let fresh = spare().inspect(|_| ledger.buckets_reused += 1);
            let before = buckets.capacity();
            let bucket = fresh.unwrap_or_default();
            buckets.insert(
                at,
                Due {
                    tick,
                    entry,
                    bucket,
                },
            );
            ledger.mailbox_growth += grew(buckets, before);
        }
        &mut buckets[at].bucket
    }

    /// The earliest pending delivery tick in `slot`, if any.
    pub fn next_due(&self, slot: usize) -> Option<Tick> {
        lock_unpoisoned(&self.slots[slot])
            .buckets
            .first()
            .map(|due| due.tick)
    }

    /// Total queued messages across all mailboxes, framed or not.
    pub fn queued(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                let mailbox = lock_unpoisoned(s);
                mailbox
                    .buckets
                    .iter()
                    .map(|due| due.bucket.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Takes every tick at or before `now` out of the wake-up index whole,
    /// appending their slots to `out` — a slot with several due ticks once
    /// per tick, in no particular order. The caller must then take those
    /// slots' due mail with [`Mailboxes::take_woken`], which leaves the
    /// index alone: this is what a round does.
    pub(crate) fn take_due_slots(&self, now: Tick, out: &mut Vec<usize>) {
        lock_unpoisoned(&self.calendar).take_due(now, out);
    }

    /// The earliest pending delivery tick across all mailboxes, if any:
    /// the calendar's first tick.
    pub(crate) fn earliest_due(&self) -> Option<Tick> {
        lock_unpoisoned(&self.calendar)
            .ticks
            .first_key_value()
            .map(|(&tick, _)| tick)
    }

    /// Takes every bucket due at or before `now` out of `slot`, as one
    /// bucket, for the caller to [read](Bucket::read_into), after
    /// [`Mailboxes::take_due_slots`] took their ticks out of the wake-up
    /// index. The buckets leave the slot under its lock; nothing is read
    /// until then, after the lock is released, so senders are not held
    /// up.
    pub(crate) fn take_woken(&self, slot: usize, now: Tick) -> Option<Bucket<M>> {
        self.take_from(slot, now, false)
    }

    /// [`Mailboxes::take_woken`] for a caller that has not touched the
    /// wake-up index: each bucket's entry leaves it with the bucket.
    fn take_from(&self, slot: usize, now: Tick, leave: bool) -> Option<Bucket<M>> {
        let mut mailbox = lock_unpoisoned(&self.slots[slot]);
        let due = mailbox.buckets.partition_point(|due| due.tick <= now);
        if due == 0 {
            return None;
        }
        let mut calendar = leave.then(|| lock_unpoisoned(&self.calendar));
        let mut out: Option<Bucket<M>> = None;
        for Due {
            tick,
            entry,
            bucket,
        } in mailbox.buckets.drain(..due)
        {
            if let Some(calendar) = &mut calendar {
                calendar.leave(tick, slot, entry);
            }
            match &mut out {
                Some(earlier) => earlier.absorb(bucket),
                // The common case, one due tick: the bucket is the answer.
                None => out = Some(bucket),
            }
        }
        out
    }

    /// Sums the mailboxes' counters: buckets created and reused, and
    /// capacity growth at the push sites.
    pub(crate) fn ledger(&self) -> WorkLedger {
        let mut sum = WorkLedger::default();
        for s in &self.slots {
            sum.add(&lock_unpoisoned(s).ledger);
        }
        sum
    }
}

impl<M: WireDecode> Mailboxes<M> {
    /// Pops every message due at or before `now` from `slot`, in
    /// `(deliver_at, from, seq)` order. A frame that fails to decode
    /// delivers nothing and goes uncounted here; the runtime's own drain
    /// counts it as a decode error of the receiving node.
    pub fn drain_due(&self, slot: usize, now: Tick) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        if let Some(mut due) = self.take_from(slot, now, true) {
            due.decode(&mut out);
        }
        out
    }

    /// Removes and returns the unique message at `slot` with the given
    /// sender and sequence number, or `None` if no such message is queued.
    /// This is the model checker's single-step delivery primitive: it lets
    /// an explorer pop one chosen message out of `(deliver_at, from, seq)`
    /// order, modeling an adversarial network schedule. A frame it takes a
    /// message from is decoded (under the slot's lock: this is not the
    /// round's path), and the frame's other messages stay queued as
    /// envelopes.
    pub fn take(&self, slot: usize, from: NodeId, seq: u64) -> Option<Envelope<M>> {
        let mut mailbox = lock_unpoisoned(&self.slots[slot]);
        let (at, env) = mailbox
            .buckets
            .iter_mut()
            .enumerate()
            .find_map(|(at, due)| Some((at, due.bucket.take(from, seq)?)))?;
        if mailbox.buckets[at].bucket.is_empty() {
            let Due { tick, entry, .. } = mailbox.buckets.remove(at);
            lock_unpoisoned(&self.calendar).leave(tick, slot, entry);
        }
        Some(env)
    }
}

impl<M: WireDecode + Clone> Mailboxes<M> {
    /// Snapshots every message queued at `slot`, in `(deliver_at, from,
    /// seq)` order, without disturbing the mailbox; frames are copied out
    /// and decoded with the lock released. The protocol model checker uses
    /// this to enumerate a state's pending deliveries.
    pub fn peek_all(&self, slot: usize) -> Vec<Envelope<M>> {
        let buckets: Vec<Bucket<M>> = lock_unpoisoned(&self.slots[slot])
            .buckets
            .iter()
            .map(|due| due.bucket.clone())
            .collect();
        let mut out = Vec::new();
        for mut bucket in buckets {
            bucket.decode(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Read-outs for the tests of every module (inherent methods may live
    // in any module of the crate).
    impl<M> Mailboxes<M> {
        /// The wake-up index's entries as `(tick, slot)`, sorted, repeats
        /// kept: exact means equal to [`Mailboxes::scan`].
        pub(crate) fn index(&self) -> Vec<(Tick, usize)> {
            let calendar = lock_unpoisoned(&self.calendar);
            let mut entries: Vec<_> = calendar
                .ticks
                .iter()
                .flat_map(|(&tick, list)| list.slots.iter().map(move |&slot| (tick, slot)))
                .filter(|&(_, slot)| slot != Entries::LEFT)
                .collect();
            entries.sort_unstable();
            entries
        }

        /// What the wake-up index must hold, found by asking every slot: one
        /// `(tick, slot)` per bucket, sorted.
        pub(crate) fn scan(&self) -> Vec<(Tick, usize)> {
            let mut entries = Vec::new();
            for (slot, mailbox) in self.slots.iter().enumerate() {
                let mailbox = lock_unpoisoned(mailbox);
                entries.extend(mailbox.buckets.iter().map(|due| (due.tick, slot)));
            }
            entries.sort_unstable();
            entries
        }

        /// The slots the wake-up index lists at or before `now`, in `(tick,
        /// slot)` order — a slot with several due ticks once per tick —
        /// without taking them.
        pub(crate) fn due_slots(&self, now: Tick) -> Vec<usize> {
            let due = self
                .index()
                .into_iter()
                .take_while(|&(tick, _)| tick <= now);
            due.map(|(_, slot)| slot).collect()
        }
    }

    impl<M> Spares<M> {
        /// The bytes of capacity the kept buckets hold.
        pub(crate) fn held(&self) -> usize {
            self.held
        }
    }

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// Test shorthand: an envelope draft, due at tick 0 until
    /// [`scheduled`].
    fn env<M>(now: Tick, from: NodeId, to: NodeId, seq: u64, payload: M) -> Envelope<M> {
        Envelope {
            from,
            to,
            sent_at: now,
            deliver_at: 0,
            seq,
            payload,
        }
    }

    /// `env` due at the tick `transport` quotes for it, as a node's send
    /// schedules one, or `None` if the transport drops it.
    fn scheduled<M>(transport: &dyn Transport, mut env: Envelope<M>) -> Option<Envelope<M>> {
        env.deliver_at = transport.schedule(env.sent_at, env.from, env.to, env.seq)?;
        Some(env)
    }

    #[test]
    fn channel_transport_enforces_minimum_latency() {
        let t = ChannelTransport::new(0);
        assert_eq!(t.latency(), 1);
        assert_eq!(t.schedule(5, id(1), id(2), 0), Some(6));
    }

    #[test]
    fn mailbox_drains_in_key_order_regardless_of_arrival() {
        let boxes: Mailboxes<u32> = Mailboxes::new(1);
        let t = ChannelTransport::new(1);
        // Arrivals pushed out of order; drain must sort by (tick, from, seq).
        for e in [
            env(4, id(9), id(0), 0, 30),
            env(1, id(9), id(0), 0, 10),
            env(1, id(3), id(0), 7, 20),
        ] {
            boxes.push(0, scheduled(&t, e).unwrap());
        }
        let due: Vec<u32> = boxes
            .drain_due(0, 10)
            .into_iter()
            .map(|e| e.payload)
            .collect();
        assert_eq!(due, vec![20, 10, 30]);
        assert_eq!(boxes.queued(), 0);
    }

    #[test]
    fn drain_due_leaves_future_messages() {
        let boxes: Mailboxes<u32> = Mailboxes::new(1);
        let t = ChannelTransport::new(5);
        boxes.push(0, scheduled(&t, env(0, id(1), id(0), 0, 1)).unwrap());
        assert!(boxes.drain_due(0, 4).is_empty());
        assert_eq!(boxes.next_due(0), Some(5));
        assert_eq!(boxes.drain_due(0, 5).len(), 1);
        assert_eq!(boxes.next_due(0), None);
    }

    #[test]
    fn faulty_transport_is_deterministic() {
        let mk = || FaultyTransport::new(ChannelTransport::new(2), Seed(7), 300, 9);
        let (a, b) = (mk(), mk());
        for seq in 0..200 {
            assert_eq!(
                a.schedule(10, id(1), id(2), seq),
                b.schedule(10, id(1), id(2), seq)
            );
        }
    }

    #[test]
    fn faulty_transport_loses_roughly_the_configured_fraction() {
        let t = FaultyTransport::new(ChannelTransport::new(1), Seed(11), 250, 0);
        let lost = (0..1000)
            .filter(|&seq| t.schedule(0, id(1), id(2), seq).is_none())
            .count();
        assert!((150..350).contains(&lost), "lost {lost} of 1000 at 25%");
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let t = FaultyTransport::new(ChannelTransport::new(1), Seed(3), 0, 0);
        t.partition(&[id(1)], &[id(2)]);
        assert_eq!(t.schedule(0, id(1), id(2), 0), None);
        assert_eq!(t.schedule(0, id(2), id(1), 0), None);
        assert!(t.schedule(0, id(1), id(3), 0).is_some());
        t.heal();
        assert!(t.schedule(0, id(1), id(2), 0).is_some());
    }

    /// What the protocol model checker relies on: with loss 0 and jitter 0
    /// the wrapper adds nothing but its partition set.
    #[test]
    fn lossless_jitterless_faulty_transport_is_its_inner_plus_partitions() {
        let inner = ChannelTransport::new(3);
        let t = FaultyTransport::new(inner, Seed(0), 0, 0);
        let cut = |from: u64, to: u64| (from <= 2) != (to <= 2);
        for partitioned in [false, true, false] {
            if partitioned {
                t.partition(&[id(1), id(2)], &[id(3), id(4)]);
            } else {
                t.heal();
            }
            for (from, to) in (1..=4).flat_map(|f| (1..=4).map(move |t| (f, t))) {
                for seq in 0..64 {
                    let now = seq * 7;
                    let want = if partitioned && cut(from, to) {
                        None
                    } else {
                        inner.schedule(now, id(from), id(to), seq)
                    };
                    assert_eq!(
                        t.schedule(now, id(from), id(to), seq),
                        want,
                        "{from}->{to} seq {seq} partitioned {partitioned}"
                    );
                }
            }
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let t = FaultyTransport::new(ChannelTransport::new(1), Seed(5), 0, 4);
        for seq in 0..200 {
            let d = t.schedule(0, id(1), id(2), seq).expect("no loss");
            assert!((1..=5).contains(&d), "delivery {d} outside 1..=5");
        }
    }

    #[test]
    fn grow_adds_an_empty_mailbox() {
        let mut boxes: Mailboxes<u32> = Mailboxes::new(2);
        assert_eq!(boxes.grow(), 2);
        assert_eq!(boxes.len(), 3);
        assert!(!boxes.is_empty());
        assert_eq!(boxes.next_due(2), None);
    }

    /// What the mailbox order *is*, independently of how `Mailboxes`
    /// stores messages: an ordered map keyed by `(deliver_at, from, seq)`.
    type Model = BTreeMap<(Tick, u64, u64), u32>;

    fn keys_and_payloads(envs: &[Envelope<u32>]) -> Vec<((Tick, u64, u64), u32)> {
        envs.iter().map(|e| (e.key(), e.payload)).collect()
    }

    /// What the wake-up index must hold for `model`: one `(tick, slot)`
    /// per distinct delivery tick queued at each slot.
    fn index_of(model: &[Model]) -> BTreeSet<(Tick, usize)> {
        model
            .iter()
            .enumerate()
            .flat_map(|(slot, queued)| queued.keys().map(move |key| (key.0, slot)))
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn mailboxes_agree_with_an_ordered_map_under_any_interleaving(
            ops in proptest::collection::vec(
                (0u8..8, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                1..160,
            )
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            const SLOTS: usize = 2;
            let boxes: Mailboxes<u32> = Mailboxes::new(SLOTS);
            let mut model: [Model; SLOTS] = Default::default();
            // Jitter spreads sends over several ticks; loss drops some
            // before they are pushed.
            let lossy = FaultyTransport::new(ChannelTransport::new(1), Seed(99), 200, 4);
            let mut now: Tick = 0;
            let mut next_payload = 0u32;
            // `(from, seq)` names a message for `take`, so a pair is used
            // at most once per mailbox; sequence numbers are drawn, not
            // counted, so one sender's arrive out of order.
            let mut used: [BTreeSet<(u64, u64)>; SLOTS] = Default::default();
            let mut framed_seq = [48u64; 4];
            for (op, a, b) in ops {
                let slot = (a % SLOTS as u64) as usize;
                let mut draft = |word: u64, sent_at: Tick| {
                    let (from, seq) = (1 + word % 3, (word >> 8) % 48);
                    if !used[slot].insert((from, seq)) {
                        return None;
                    }
                    next_payload += 1;
                    Some(env(sent_at, id(from), id(0), seq, next_payload))
                };
                match op {
                    0 => {
                        // Several ticks out, already due, or late: at a
                        // tick the slot was drained past.
                        if let Some(mut e) = draft(b, now) {
                            e.deliver_at = (now + (b >> 16) % 5).saturating_sub((b >> 24) % 3);
                            model[slot].insert(e.key(), e.payload);
                            boxes.push(slot, e);
                        }
                    }
                    1 => {
                        // One encoded frame from one sender, due at one
                        // tick; half the time a second frame from the same
                        // sender to the same tick follows it, as when
                        // jitter makes two rounds' frames meet. A sender's
                        // frame sequence numbers are counted, as a node's
                        // are, above the drawn ones.
                        let from = 1 + b % 3;
                        let tick = now + (b >> 16) % 3;
                        for frame_no in 0..1 + (b >> 20) % 2 {
                            let mut envs = Vec::new();
                            for _ in 0..1 + (b >> (24 + 3 * frame_no)) % 4 {
                                framed_seq[from as usize] += 1;
                                next_payload += 1;
                                let seq = framed_seq[from as usize];
                                let mut e = env(now, id(from), id(0), seq, next_payload);
                                e.deliver_at = tick;
                                model[slot].insert(e.key(), e.payload);
                                envs.push(e);
                            }
                            let mut frame = Vec::new();
                            framed::encode_frame(&envs, &mut frame);
                            let group = (id(from), envs[0].seq, envs.len(), &frame[..]);
                            let once = std::iter::once(group);
                            let len = boxes.push_frames(slot, tick, once, &mut Spares::default());
                            prop_assert_eq!(len, frame.len());
                        }
                    }
                    2 => {
                        if let Some(e) = draft(b, now).and_then(|e| scheduled(&lossy, e)) {
                            model[slot].insert(e.key(), e.payload);
                            boxes.push(slot, e);
                        }
                    }
                    3 => {
                        // Time only moves forward; a drain at `now` leaves
                        // every later bucket behind.
                        now += b % 3;
                        let later = model[slot].split_off(&(now + 1, 0, 0));
                        let due = std::mem::replace(&mut model[slot], later);
                        let drained = boxes.drain_due(slot, now);
                        prop_assert_eq!(
                            keys_and_payloads(&drained),
                            due.into_iter().collect::<Vec<_>>()
                        );
                    }
                    4 => {
                        // Take a queued message (any position), or miss.
                        let queued = model[slot].len() as u64;
                        let target = model[slot].keys().nth((b % (queued + 1)) as usize).copied();
                        let (tick, from, seq) = target.unwrap_or((0, 9, b % 48));
                        let expect = model[slot].remove(&(tick, from, seq));
                        let got = boxes.take(slot, id(from), seq);
                        prop_assert_eq!(got.as_ref().map(|e| (e.key(), e.payload)), expect.map(|p| ((tick, from, seq), p)));
                    }
                    5 => {
                        let first = model[slot].keys().next().map(|k| k.0);
                        prop_assert_eq!(boxes.next_due(slot), first);
                    }
                    6 => {
                        let total: usize = model.iter().map(BTreeMap::len).sum();
                        prop_assert_eq!(boxes.queued(), total);
                    }
                    _ => {
                        let all: Vec<_> = model[slot].iter().map(|(&k, &p)| (k, p)).collect();
                        prop_assert_eq!(keys_and_payloads(&boxes.peek_all(slot)), all);
                    }
                }
                // Whatever the operation was, the index is exactly the
                // model's buckets, each once, and so are its two read-outs.
                let want: Vec<_> = index_of(&model).into_iter().collect();
                prop_assert_eq!(boxes.index(), want.clone());
                prop_assert_eq!(boxes.scan(), want.clone());
                prop_assert_eq!(boxes.earliest_due(), want.first().map(|&(tick, _)| tick));
                let due: Vec<usize> = want
                    .iter()
                    .take_while(|&&(tick, _)| tick <= now)
                    .map(|&(_, slot)| slot)
                    .collect();
                prop_assert_eq!(boxes.due_slots(now), due);
                for slot in &boxes.slots {
                    let buckets = &lock_unpoisoned(slot).buckets;
                    prop_assert!(buckets.iter().all(|due| !due.bucket.is_empty()));
                    prop_assert!(buckets.windows(2).all(|w| w[0].tick < w[1].tick));
                }
            }
            // Whatever is left drains in model order, and nothing more.
            for (slot, left) in model.iter().enumerate() {
                let rest = boxes.drain_due(slot, Tick::MAX);
                let all: Vec<_> = left.iter().map(|(&k, &p)| (k, p)).collect();
                prop_assert_eq!(keys_and_payloads(&rest), all);
            }
            prop_assert_eq!(boxes.queued(), 0);
            prop_assert!(boxes.index().is_empty());
        }
    }

    /// The serving benchmark's transport probe drives a bare `Mailboxes`
    /// through `push` and `drain_due` alone; the index must follow that
    /// too, and end empty rather than grow with the traffic.
    #[test]
    fn index_stays_exact_and_bounded_under_bare_push_and_drain() {
        const SLOTS: usize = 1024;
        const MESSAGES: u64 = 100_000;
        let boxes: Mailboxes<u32> = Mailboxes::new(SLOTS);
        for i in 0..MESSAGES {
            let slot = (Seed(5).derive_index(i).0 % SLOTS as u64) as usize;
            let mut e = env(0, id(i % SLOTS as u64), id(slot as u64), i, 0);
            e.deliver_at = 1 + i % 4;
            boxes.push(slot, e);
        }
        // One entry per (slot, tick) bucket, however many messages share it.
        assert_eq!(boxes.index().len(), 4 * SLOTS);
        assert_eq!(boxes.index(), boxes.scan());
        assert_eq!(boxes.earliest_due(), Some(1));
        let mut drained = 0;
        for tick in 1..=4 {
            assert_eq!(boxes.due_slots(tick), (0..SLOTS).collect::<Vec<_>>());
            for slot in 0..SLOTS {
                drained += boxes.drain_due(slot, tick).len();
                if slot == SLOTS / 2 {
                    // Half the tick's entries have left: the rest still
                    // name exactly the buckets left.
                    assert_eq!(boxes.index(), boxes.scan());
                }
            }
            assert!(boxes.due_slots(tick).is_empty());
            assert_eq!(boxes.earliest_due(), (tick < 4).then_some(tick + 1));
        }
        assert_eq!(drained as u64, MESSAGES);
        assert!(boxes.index().is_empty());
        // Each tick's list went with its last entry: nothing is left to
        // grow with the traffic.
        assert!(lock_unpoisoned(&boxes.calendar).ticks.is_empty());
        assert_eq!(boxes.ledger().buckets_created, 4 * SLOTS as u64);
    }

    /// The model checker's `take` of a bucket's only message removes the
    /// bucket and its wake-up entry; a take that leaves mail behind keeps
    /// both. A framed bucket is taken from as much as an envelope one.
    #[test]
    fn a_take_that_empties_a_bucket_leaves_the_index_exact() {
        let boxes: Mailboxes<u32> = Mailboxes::new(3);
        let frame = |from: u64, seq: u64, tick: Tick| {
            let mut e = env(0, id(from), id(0), seq, (from * 100 + seq) as u32);
            e.deliver_at = tick;
            let mut bytes = Vec::new();
            framed::encode_frame([&e], &mut bytes);
            bytes
        };
        // Slot 0: a lone frame at tick 2 and two messages at tick 3.
        // Slot 1: a lone envelope at tick 2. Slot 2: a lone frame at 4.
        for (slot, from, seq, tick) in [(0, 7, 1, 2), (0, 7, 2, 3), (2, 8, 1, 4)] {
            let bytes = frame(from, seq, tick);
            let group = std::iter::once((id(from), seq, 1, &bytes[..]));
            boxes.push_frames(slot, tick, group, &mut Spares::default());
        }
        let mut lone = env(0, id(9), id(1), 5, 905);
        lone.deliver_at = 2;
        boxes.push(1, lone);
        let mut second = env(0, id(9), id(0), 6, 906);
        second.deliver_at = 3;
        boxes.push(0, second);
        assert_eq!(boxes.index(), vec![(2, 0), (2, 1), (3, 0), (4, 2)]);
        for (slot, from, seq, left) in [
            (0, 7, 1, vec![(2, 1), (3, 0), (4, 2)]),
            (1, 9, 5, vec![(3, 0), (4, 2)]),
            // Half of tick 3's bucket: the bucket and its entry stay.
            (0, 7, 2, vec![(3, 0), (4, 2)]),
            (0, 9, 6, vec![(4, 2)]),
            (2, 8, 1, vec![]),
        ] {
            let got = boxes.take(slot, id(from), seq).map(|e| e.payload);
            assert_eq!(
                got,
                Some((from * 100 + seq) as u32),
                "({slot}, {from}, {seq})"
            );
            assert_eq!(boxes.index(), left, "after ({slot}, {from}, {seq})");
            assert_eq!(boxes.scan(), left);
            assert_eq!(boxes.earliest_due(), left.first().map(|&(tick, _)| tick));
        }
        assert_eq!(boxes.take(0, id(7), 1), None);
        assert_eq!(boxes.queued(), 0);
    }
}

//! Framed transport: every message crosses the wire codec, batched into
//! length-prefixed frames with per-link byte accounting.
//!
//! # Where framing hooks in
//!
//! [`Transport`] is deliberately only a *scheduler* — payloads never pass
//! through it, they move as in-process enum values straight into the
//! destination mailbox. Framing therefore lives in the runtime's send
//! path: with a [`FramedTransport`] in the stack, a node's sends are
//! encoded into its outbox instead of entering mailboxes directly, and at
//! the end of the node's round the runtime flushes the outbox
//! (`flush_outbox`). Each message's fate and delivery tick are decided at
//! send time, with its own sequence number, exactly as in an unframed run
//! and in whichever order `FramedTransport` and `FaultyTransport` nest;
//! only the survivors reach the outbox. A message is encoded once, by the
//! node that first sends it, and copied twice as bytes per hop. A routed
//! request is never decoded in transit: each hop that only routes it
//! reads its head and passes its bytes on, and only the node that serves
//! it decodes it whole. Every other message is decoded once, by its
//! receiver:
//!
//! 1. **at send**, its sequence number and length-prefixed payload — the
//!    bytes it has in a frame body — are written straight into the
//!    outbox's byte arena and linked onto the open frame for its
//!    `(destination slot, delivery tick)`: encoded from the value, or, for
//!    a request this node forwards (`Outbox::forward`), copied from the
//!    bytes it arrived in with its hop count bumped (and, on a cached GET,
//!    the node's id appended to its path). A per-slot head finds that
//!    frame; a second delivery tick to one slot (jitter) chains behind the
//!    first. The outbox notes the payload's kind and encoded length. No
//!    envelope is built;
//! 2. **at the flush**, at the end of the sender's round, each open frame
//!    is written once into the worker's *round buffer* (`RoundBuffer`):
//!    its header ([`encode_frame`]'s header writer — `from` and `sent_at`
//!    are the node and the round's tick, and the message count is already
//!    known), then its messages' bytes copied in behind it, in send order.
//!    One index entry beside it records the frame's destination slot,
//!    delivery tick, sender, first sequence number, where its bytes sit
//!    and its message count. No mailbox is touched and nothing is decoded;
//! 3. **at the exchange** (`exchange`), once every node of the round is
//!    done, the runtime queues the round's frames — every worker's round
//!    buffer — in one pass: the index is sorted by `(slot, deliver_at,
//!    from, first seq)` (a counting sort on the slot, then a small sort
//!    inside each slot), and each `(slot, tick)` group takes one slot
//!    lock and one bucket look-up — a bucket it creates made from a
//!    spare —, grows the bucket's bytes at most once, to exactly what the
//!    group needs, and copies the group's frames in, in key order. The
//!    bucket keeps each frame's sender, first sequence number and message
//!    count beside the bytes;
//! 4. **at the receiver's drain**, in its next round, the due buckets
//!    leave the mailbox under the lock, and with the lock released the
//!    node reads their frames (see [`crate::transport`]): a request as its
//!    borrowed head (`wire::RequestHead`), into the worker's head buffer,
//!    anything else decoded, into its envelope buffer. Each frame is read
//!    whole before any of its messages is handled, so a frame that fails
//!    to read delivers nothing and counts one decode error for the
//!    receiver. The node then handles the two buffers merged in
//!    `(deliver_at, from, seq)` order: a request it routes on goes back to
//!    step 1 as its bytes; one it serves or parks is decoded then.
//!
//! So no node writes another node's mailbox during a framed round: a
//! round's nodes read only their own mailboxes, and all the writing
//! happens after them, on one thread. The exchange's order is a function
//! of the frames alone — the key is unique, since a sender's frames start
//! at different sequence numbers — so neither the worker count nor which
//! worker flushed what changes a byte of any mailbox. The second copy,
//! round buffer to bucket, is made while the round's bytes are still warm
//! and leaves each bucket's frames contiguous for the drain: decoding
//! straight out of the round buffer instead, the drain's scattered reads
//! cost more than the copy saved.
//!
//! Every delivered message has round-tripped through the codec — a
//! forwarded request's bytes through the head reader at every hop and the
//! full decode at the last — so a framed run exercises encode *and*
//! decode end to end; the equivalence tests pin that its event log is
//! byte-identical to an unframed run, and debug builds check every byte
//! forward against the typed request's encoding.
//!
//! # Where the bytes are counted, and who owns the buffers
//!
//! Each node tallies the frames *it sends* in its own state (a
//! `WireTally`: links sorted by destination, payload kinds in a fixed
//! array), which the flush already holds exclusively — no shared ledger,
//! no lock. The flush counts from facts the outbox already has: the
//! frame's length and message count, the kinds and payload lengths noted
//! at send, and the batching counterfactual from the header widths. So
//! [`LinkBytes`] and [`WireSummary`] count frames *sent*; the one thing
//! only a receiver can see, a frame that fails to decode, is counted in
//! the receiving node's tally.
//! [`Runtime::wire_summary`](crate::runtime::Runtime::wire_summary) and
//! [`Runtime::link_bytes`](crate::runtime::Runtime::link_bytes) sum the
//! per-node tallies; every update is an addition, so the totals do not
//! depend on worker scheduling.
//!
//! The buffers belong to three owners:
//!
//! * the **worker thread** owns the outbox (its arena, message links, open
//!   frames and per-slot heads), the round buffer its nodes flush into,
//!   and the envelope and head buffers a drain reads into. A node's
//!   burst-sized outbox would otherwise be retained once per node, a
//!   thousand times over, for buffers only one node per worker uses at a
//!   time. The node's round reaches the worker's outbox through its
//!   network context (`Net::outbox`), and the flush empties it; the
//!   exchange empties the round buffer,
//!   keeping its capacity until rounds shrink to a quarter of it (after a
//!   burst);
//! * the **destination's mailbox bucket** owns the frame bytes while they
//!   wait — and, taken out by the drain, while the node handles the
//!   request heads that borrow them: one byte vector per `(slot, tick)`
//!   bucket, shared by all its frames, plus one small index entry per
//!   frame. Once the node's round is over, the worker takes the emptied
//!   bucket back into its round buffer's *spares* — unless it holds more
//!   than 1 KiB, a burst's or a hot node's bucket, which is let go — and
//!   the exchange makes the buckets it creates from them. What the spares
//!   hold is kept by the round buffer's rule: at most the larger of 64 KiB
//!   and four times the bytes the round queued, the longest-kept let go
//!   first — so a busy round's buckets are not held on to once rounds
//!   shrink;
//! * the **node** owns only its tally, sized at spawn for its links and
//!   successors, the destinations of its first frames.
//!
//! Nothing is allocated per frame: the arena, the round buffer and the
//! drain's two buffers grow to the largest round and are reused, and a
//! frame is one append to the round buffer and one to its bucket's
//! bytes, which the exchange sizes once per group (a buffer per frame,
//! pooled, would grow each to the largest frame it ever held). Nor, most
//! rounds, per bucket: a bucket is a spare refilled, and grows only when
//! its group needs more than the spare held.
//!
//! # Frame layout
//!
//! ```text
//! u32-LE body length
//! from (8B)  to (8B)  sent_at (varint)  deliver_at (varint)  count (varint)
//! count × [ seq (varint)  payload (length-prefixed wire bytes) ]
//! ```
//!
//! The header is hoisted: messages in one frame share `from`, `to`,
//! `sent_at` and `deliver_at`, so batching saves one header per coalesced
//! message. The tally tracks the counterfactual unbatched size — every
//! message as a frame of its own — which is where the reported batching
//! savings come from.

use crate::clock::Tick;
use crate::ledger::{grew, WorkLedger};
use crate::msg::Payload;
use crate::node::NodeState;
use crate::transport::{Bucket, Envelope, Mailboxes, Spares, Transport};
use crate::wire::RequestHead;
use canon_id::NodeId;
use canon_wire::{Decoder, Encoder, WireDecode, WireEncode, WireError};

/// Number of [`Payload`] variants, the length of per-kind counter arrays.
const KINDS: usize = Payload::KIND_NAMES.len();

/// [`Payload::kind_index`] of a request.
const REQUEST: usize = 1;

/// Per payload kind (indexed by [`Payload::kind_index`]): messages and
/// encoded payload bytes.
type KindCounts = [(u64, u64); KINDS];

/// Per-link byte counters: frames and messages sent over a directed
/// `(from, to)` link, and the frame bytes that carried them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkBytes {
    /// Frames sent.
    pub frames: u64,
    /// Messages the frames carried.
    pub msgs: u64,
    /// Encoded frame bytes (length prefix and header included).
    pub bytes: u64,
}

/// What decoding one frame found: the sender's tally of it, recomputed
/// from its bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameFacts {
    /// Per payload kind (indexed by [`Payload::kind_index`]): messages
    /// and encoded payload bytes.
    pub kinds: KindCounts,
    /// Total bytes had each message shipped as a frame of its own.
    pub unbatched: u64,
}

/// One node's wire accounting: the frames it sent, and the frames sent to
/// it that failed to decode. Counters only ever grow by addition, so
/// summing tallies over nodes is independent of the order rounds ran in.
#[derive(Debug, Default)]
pub(crate) struct WireTally {
    /// The destination identifiers this node's frames went to, sorted. A
    /// node keeps a few hundred links at most, so a binary search over
    /// the bare identifiers finds a link, and a new link is one insert.
    dests: Vec<u64>,
    /// Traffic sent to `dests[i]`, at `i`.
    links: Vec<LinkBytes>,
    /// Per payload kind: messages and encoded payload bytes.
    kinds: KindCounts,
    unbatched_bytes: u64,
    /// Frames this node received that failed to decode.
    decode_errors: u64,
    /// Times `dests` or `links` grew (the work ledger's `tally_growth`).
    pub(crate) grown: u64,
}

impl WireTally {
    /// Makes room for `links` destinations before the first frame: what a
    /// node spawned with that many links and successors sends to first.
    pub(crate) fn reserve(&mut self, links: usize) {
        self.dests.reserve_exact(links);
        self.links.reserve_exact(links);
    }

    /// Counts one frame sent to `to`: its length, its messages, and its
    /// batching counterfactual.
    fn record_frame(&mut self, to: NodeId, frame_len: usize, msgs: usize, unbatched: u64) {
        let at = match self.dests.binary_search(&to.raw()) {
            Ok(at) => at,
            Err(at) => {
                let before = (self.dests.capacity(), self.links.capacity());
                self.dests.insert(at, to.raw());
                self.links.insert(at, LinkBytes::default());
                self.grown += grew(&self.dests, before.0) + grew(&self.links, before.1);
                at
            }
        };
        let link = &mut self.links[at];
        link.frames += 1;
        link.msgs += msgs as u64;
        link.bytes += frame_len as u64;
        self.unbatched_bytes += unbatched;
    }

    /// Counts sent messages and their payload bytes per kind.
    fn record_kinds(&mut self, kinds: &KindCounts) {
        for (kind, seen) in self.kinds.iter_mut().zip(kinds) {
            kind.0 += seen.0;
            kind.1 += seen.1;
        }
    }

    /// Counts frames sent to this node that failed to decode.
    pub(crate) fn record_decode_errors(&mut self, frames: u64) {
        self.decode_errors += frames;
    }

    /// This node's per-link counters, by destination.
    pub(crate) fn links(&self) -> impl Iterator<Item = (NodeId, LinkBytes)> + '_ {
        self.dests
            .iter()
            .zip(&self.links)
            .map(|(&to, &link)| (NodeId::new(to), link))
    }
}

/// Aggregated wire accounting for a framed run, read through
/// [`Runtime::wire_summary`](crate::runtime::Runtime::wire_summary).
///
/// Kept separate from the runtime [`Summary`](crate::runtime::Summary)
/// struct on purpose: the acceptance bar for framing is that `Summary`
/// stays *byte-identical* between framed and unframed runs, so wire
/// counters — which are zero by definition without framing — live beside
/// it, not inside it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireSummary {
    /// Frames sent.
    pub frames: u64,
    /// Messages the frames carried.
    pub msgs: u64,
    /// Total encoded frame bytes sent.
    pub bytes: u64,
    /// Bytes spent on frame headers and length prefixes.
    pub header_bytes: u64,
    /// Bytes spent on message payloads.
    pub payload_bytes: u64,
    /// What `bytes` would have been with one frame per message — the
    /// batching counterfactual.
    pub unbatched_bytes: u64,
    /// Frames that failed to decode, counted by the node that received
    /// them; such a frame delivers none of its messages. Zero unless frame
    /// bytes are damaged in the mailbox — the equivalence tests assert it.
    pub decode_errors: u64,
    /// Distinct directed links that carried at least one frame.
    pub links: u64,
    /// Per-payload-kind accounting as `(kind, messages, payload bytes)`,
    /// sorted by kind label.
    pub per_kind: Vec<(String, u64, u64)>,
}

impl WireSummary {
    /// Sums per-node tallies into the cluster-wide summary.
    pub(crate) fn sum<'a>(tallies: impl IntoIterator<Item = &'a WireTally>) -> WireSummary {
        let mut sum = WireSummary::default();
        let mut kinds = KindCounts::default();
        for t in tallies {
            for link in &t.links {
                sum.frames += link.frames;
                sum.msgs += link.msgs;
                sum.bytes += link.bytes;
            }
            sum.links += t.links.len() as u64;
            for (kind, seen) in kinds.iter_mut().zip(&t.kinds) {
                kind.0 += seen.0;
                kind.1 += seen.1;
            }
            sum.unbatched_bytes += t.unbatched_bytes;
            sum.decode_errors += t.decode_errors;
        }
        sum.payload_bytes = kinds.iter().map(|k| k.1).sum();
        sum.header_bytes = sum.bytes - sum.payload_bytes;
        sum.per_kind = Payload::KIND_NAMES
            .iter()
            .zip(kinds)
            .filter(|(_, (msgs, _))| *msgs > 0)
            .map(|(&name, (msgs, bytes))| (name.to_owned(), msgs, bytes))
            .collect();
        sum.per_kind.sort();
        sum
    }
}

/// A transport-stack layer that makes the runtime serialize every message
/// into length-prefixed frames (see the module docs for the layout).
/// Scheduling delegates to the wrapped transport unchanged.
#[derive(Debug, Default)]
pub struct FramedTransport<T> {
    inner: T,
}

impl<T: Transport> FramedTransport<T> {
    /// Frames every message crossing `inner`.
    pub fn new(inner: T) -> FramedTransport<T> {
        FramedTransport { inner }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for FramedTransport<T> {
    fn schedule(&self, now: Tick, from: NodeId, to: NodeId, seq: u64) -> Option<Tick> {
        self.inner.schedule(now, from, to, seq)
    }

    fn framed(&self) -> bool {
        true
    }
}

/// Fixed frame-header bytes besides the varints: the `u32` length prefix
/// plus the two 8-byte node identifiers.
const FRAME_FIXED_HEADER: usize = 4 + 8 + 8;

/// Appends a frame header to `frame`: a slot for the body length
/// ([`seal_frame`] fills it in), then what the frame's `count` messages
/// share. Returns the header width each of them would have as a frame of
/// its own (`count` = 1) — the batching counterfactual's per-message
/// header.
fn start_frame(
    frame: &mut Vec<u8>,
    from: NodeId,
    to: NodeId,
    sent_at: Tick,
    deliver_at: Tick,
    count: usize,
) -> usize {
    frame.extend_from_slice(&[0; 4]);
    let mut e = Encoder::new(frame);
    e.encode(&from);
    e.encode(&to);
    let ticks_start = e.written();
    e.varint(sent_at);
    e.varint(deliver_at);
    let singleton_header = FRAME_FIXED_HEADER + (e.written() - ticks_start) + 1;
    e.varint(count as u64);
    singleton_header
}

/// Writes the body length into the slot [`start_frame`] left at the front
/// of `frame`.
fn seal_frame(frame: &mut [u8]) {
    let body = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body.to_le_bytes());
}

/// What [`encode_msg`] reserves per message: a 10-byte sequence number,
/// the one-byte length slot and a payload of up to 127 bytes.
const MSG_RESERVE: usize = 10 + 1 + 0x7f;

/// Appends one message's frame-body bytes to `buf`: its sequence number,
/// then its payload, length-prefixed so a decoder can skip payloads it
/// cannot parse and so the payload length is an accounting fact. Returns
/// the payload's encoded length.
fn encode_msg<M: WireEncode>(buf: &mut Vec<u8>, seq: u64, payload: &M) -> usize {
    // One reservation covers the sequence number, the slot and any payload
    // short enough for it, so the writes below never reallocate.
    buf.reserve(MSG_RESERVE);
    let mut e = Encoder::new(buf);
    e.varint(seq);
    // The payload is encoded in place behind a one-byte slot for its
    // length, which is all the varint of a length below 128 takes.
    e.tag(0);
    let start = e.written();
    e.encode(payload);
    let len = e.written() - start;
    if len < 0x80 {
        buf[start - 1] = len as u8;
    } else {
        // A shard-carrying payload (join grant, leave handoff): the prefix
        // needs more than the slot. Drop the slot, append the prefix in
        // full and rotate it in front of the payload.
        buf.remove(start - 1);
        Encoder::new(buf).varint(len as u64);
        let width = buf.len() - (start - 1) - len;
        buf[start - 1..].rotate_right(width);
    }
    len
}

/// Encodes one frame into `frame`, replacing its contents. Every envelope
/// must share `from`, `to`, `sent_at` and `deliver_at` (a frame is one
/// sender's messages to one destination for one tick); the shared values
/// are read from the first envelope. The outbox writes its frames through
/// the same header and message encoders.
pub fn encode_frame<'a, M, I>(envs: I, frame: &mut Vec<u8>)
where
    M: WireEncode + 'a,
    I: IntoIterator<Item = &'a Envelope<M>>,
    I::IntoIter: ExactSizeIterator,
{
    let mut envs = envs.into_iter().peekable();
    let count = envs.len();
    frame.clear();
    match envs.peek() {
        Some(first) => {
            start_frame(
                frame,
                first.from,
                first.to,
                first.sent_at,
                first.deliver_at,
                count,
            );
        }
        // No messages, no header: just the (zero) body length.
        None => frame.extend_from_slice(&[0; 4]),
    }
    for env in envs {
        encode_msg(frame, env.seq, &env.payload);
    }
    seal_frame(frame);
}

/// Decodes a frame, appending its envelopes to `out`, and recounts what
/// its sender tallied for it. Total: truncation, bad tags, length-prefix
/// mismatches and trailing bytes all surface as [`WireError`], never a
/// panic — and all-or-nothing: on `Err`, `out` is exactly as it was.
pub fn decode_frame(
    bytes: &[u8],
    out: &mut Vec<Envelope<Payload>>,
) -> Result<FrameFacts, WireError> {
    let mut facts = FrameFacts::default();
    unframe_with(bytes, out, |payload: &Payload, len, unbatched| {
        let kind = &mut facts.kinds[payload.kind_index()];
        kind.0 += 1;
        kind.1 += len as u64;
        facts.unbatched += unbatched;
    })?;
    Ok(facts)
}

/// [`decode_frame`] for any message type, without the recount: what a
/// mailbox drain decodes frames with.
pub(crate) fn unframe<M: WireDecode>(
    bytes: &[u8],
    out: &mut Vec<Envelope<M>>,
) -> Result<(), WireError> {
    unframe_with(bytes, out, |_, _, _| {})
}

/// Decodes a frame into `out`, all or nothing, showing `each` every
/// message's payload, encoded payload length and singleton-frame size.
fn unframe_with<M: WireDecode>(
    bytes: &[u8],
    out: &mut Vec<Envelope<M>>,
    mut each: impl FnMut(&M, usize, u64),
) -> Result<(), WireError> {
    let before = out.len();
    let decoded = read_frame(bytes, |header, seq, payload, unbatched| {
        let env = header.envelope(seq, payload)?;
        each(&env.payload, payload.len(), unbatched);
        out.push(env);
        Ok(())
    });
    if decoded.is_err() {
        out.truncate(before);
    }
    decoded
}

/// What the messages of a frame share: its header.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameHeader {
    pub from: NodeId,
    pub to: NodeId,
    pub sent_at: Tick,
    pub deliver_at: Tick,
}

impl FrameHeader {
    /// One of the frame's messages, decoded into an envelope.
    pub fn envelope<M: WireDecode>(
        &self,
        seq: u64,
        payload: &[u8],
    ) -> Result<Envelope<M>, WireError> {
        Ok(Envelope {
            from: self.from,
            to: self.to,
            sent_at: self.sent_at,
            deliver_at: self.deliver_at,
            seq,
            payload: canon_wire::from_bytes(payload)?,
        })
    }
}

/// Walks a frame, checking its layout as it goes: the length prefix, the
/// header, then every message, shown to `each` as its sequence number, its
/// payload bytes (not decoded) and its size as a frame of its own. Stops
/// at the first error, the layout's or one `each` returns. Total, but not
/// all-or-nothing by itself: a caller that must deliver a frame whole
/// keeps what `each` made of it until the walk has returned `Ok`.
pub(crate) fn read_frame<'a>(
    bytes: &'a [u8],
    mut each: impl FnMut(&FrameHeader, u64, &'a [u8], u64) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let (prefix, body) = bytes.split_at_checked(4).ok_or(WireError::Truncated)?;
    let mut len = [0u8; 4];
    len.copy_from_slice(prefix);
    let len = u32::from_le_bytes(len) as usize;
    if body.len() < len {
        return Err(WireError::Truncated);
    }
    if body.len() > len {
        return Err(WireError::TrailingBytes);
    }
    let mut d = Decoder::new(body);
    let from = NodeId::decode(&mut d)?;
    let to = NodeId::decode(&mut d)?;
    let ticks_start = d.remaining();
    let header = FrameHeader {
        from,
        to,
        sent_at: d.varint()?,
        deliver_at: d.varint()?,
    };
    // The same message as a singleton frame: fixed header, its own copies
    // of the shared varints, count = 1, then its sequence number and
    // length-prefixed payload.
    let singleton_header = FRAME_FIXED_HEADER + (ticks_start - d.remaining()) + 1;
    let count = d.varint()?;
    let count = usize::try_from(count).map_err(|_| WireError::Truncated)?;
    // Each message takes at least two bytes (seq + length prefix), so an
    // over-claimed count is truncation, caught before any message is read.
    if count > d.remaining() / 2 {
        return Err(WireError::Truncated);
    }
    for _ in 0..count {
        let msg_start = d.remaining();
        let seq = d.varint()?;
        let payload = d.bytes()?;
        let unbatched = singleton_header + (msg_start - d.remaining());
        each(&header, seq, payload, unbatched as u64)?;
    }
    d.finish()
}

/// "No message" / "no frame" in the outbox's chains.
const NONE: u32 = u32::MAX;

/// One open frame of an [`Outbox`]: where it goes, and the chain of its
/// messages.
#[derive(Debug)]
struct OpenFrame {
    slot: usize,
    to: NodeId,
    deliver_at: Tick,
    /// The sequence number of its first message.
    seq: u64,
    count: usize,
    /// First and last message of the chain, as indices into `Outbox::msgs`.
    first: u32,
    last: u32,
    /// The next open frame to the same slot (another delivery tick).
    next: u32,
}

/// A node's sends for one round, encoded as they are sent and chained into
/// the frames they flush as: one per `(destination slot, delivery tick)`.
/// Empty between rounds; the worker's, written by the node whose round the
/// worker runs (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    /// Every message's frame-body bytes — sequence number, then the
    /// length-prefixed payload — back to back in send order.
    arena: Vec<u8>,
    /// Per message, in send order: where its bytes end in `arena` (they
    /// start where the previous message's bytes end) and the next message
    /// of its frame.
    msgs: Vec<(usize, u32)>,
    /// The open frames, in the order they were opened.
    frames: Vec<OpenFrame>,
    /// Per destination slot: its most recently opened frame, or [`NONE`].
    /// Only the slots of open frames are set, and [`Outbox::clear`] resets
    /// exactly those.
    heads: Vec<u32>,
    /// This round's messages and payload bytes per kind.
    kinds: KindCounts,
    /// This round's messages encoded and forwarded as bytes, and the
    /// outbox's growth, until the flush counts them for the node.
    ledger: WorkLedger,
}

impl Outbox {
    /// Encodes a message for `to` at `slot`, due at `deliver_at`, into the
    /// arena and links it onto the end of its frame, opening the frame if
    /// this is the first message for that `(slot, tick)` this round.
    pub(crate) fn stage(
        &mut self,
        slot: usize,
        to: NodeId,
        deliver_at: Tick,
        seq: u64,
        payload: &Payload,
    ) {
        let before = self.arena.capacity();
        let len = encode_msg(&mut self.arena, seq, payload);
        self.ledger.outbox_growth += grew(&self.arena, before);
        self.ledger.encoded += 1;
        self.link(slot, to, deliver_at, seq, payload.kind_index(), len);
    }

    /// Stages a routed request forwarded as the bytes it arrived in:
    /// `head`'s encoding with its hop count bumped and, given `append`,
    /// that id pushed onto its path — what [`Outbox::stage`] would encode
    /// for `head.forwarded(append)`, written without building it. Only for
    /// a [forwardable](RequestHead::forwardable) head.
    pub(crate) fn forward(
        &mut self,
        slot: usize,
        to: NodeId,
        deliver_at: Tick,
        seq: u64,
        head: &RequestHead<'_>,
        append: Option<NodeId>,
    ) {
        let len = head.forward_len(append);
        let before = self.arena.capacity();
        let mut e = Encoder::new(&mut self.arena);
        e.varint(seq);
        e.varint(len as u64);
        #[cfg(debug_assertions)]
        let start = self.arena.len();
        head.write_forward(&mut self.arena, append);
        #[cfg(debug_assertions)]
        {
            let typed = head.forwarded(append);
            assert_eq!(
                self.arena[start..],
                canon_wire::to_bytes(&typed),
                "a forwarded request's bytes are not its typed encoding"
            );
            assert_eq!(typed.kind_index(), REQUEST);
        }
        self.ledger.outbox_growth += grew(&self.arena, before);
        self.ledger.forwarded_bytes += 1;
        self.link(slot, to, deliver_at, seq, REQUEST, len);
    }

    /// Counts a message just written to the arena (its kind and payload
    /// length) and links it onto the end of its frame, opening the frame
    /// if this is the first message for that `(slot, tick)` this round.
    fn link(
        &mut self,
        slot: usize,
        to: NodeId,
        deliver_at: Tick,
        seq: u64,
        kind: usize,
        len: usize,
    ) {
        let kind = &mut self.kinds[kind];
        kind.0 += 1;
        kind.1 += len as u64;
        let msg = self.msgs.len() as u32;
        let before = (self.msgs.capacity(), self.heads.capacity());
        self.msgs.push((self.arena.len(), NONE));
        if slot >= self.heads.len() {
            self.heads.resize(slot + 1, NONE);
        }
        self.ledger.outbox_growth += grew(&self.msgs, before.0) + grew(&self.heads, before.1);
        // A slot's chain is one frame long unless jitter spread this
        // round's messages to it over several ticks.
        let mut at = self.heads[slot];
        while at != NONE {
            let open = &mut self.frames[at as usize];
            if open.deliver_at == deliver_at {
                self.msgs[open.last as usize].1 = msg;
                open.last = msg;
                open.count += 1;
                return;
            }
            at = open.next;
        }
        let before = self.frames.capacity();
        self.frames.push(OpenFrame {
            slot,
            to,
            deliver_at,
            seq,
            count: 1,
            first: msg,
            last: msg,
            next: self.heads[slot],
        });
        self.ledger.outbox_growth += grew(&self.frames, before);
        self.heads[slot] = (self.frames.len() - 1) as u32;
    }

    /// Appends `open` to `out`: the header, then its messages' bytes in
    /// the order they were sent. Returns the frame's batching
    /// counterfactual: its bytes had each message gone as a frame of its
    /// own.
    fn write_frame(&self, open: &OpenFrame, from: NodeId, sent_at: Tick, out: &mut Vec<u8>) -> u64 {
        let start = out.len();
        let singleton_header =
            start_frame(out, from, open.to, sent_at, open.deliver_at, open.count);
        let body = out.len();
        let mut at = open.first;
        while at != NONE {
            let i = at as usize;
            let start = i.checked_sub(1).map_or(0, |prev| self.msgs[prev].0);
            let (end, next) = self.msgs[i];
            out.extend_from_slice(&self.arena[start..end]);
            at = next;
        }
        seal_frame(&mut out[start..]);
        (open.count * singleton_header + (out.len() - body)) as u64
    }

    /// Empties the outbox, keeping its capacity.
    fn clear(&mut self) {
        for open in &self.frames {
            self.heads[open.slot] = NONE;
        }
        self.frames.clear();
        self.msgs.clear();
        self.arena.clear();
        self.kinds = KindCounts::default();
        self.ledger = WorkLedger::default();
    }
}

/// One frame in a [`RoundBuffer`]: where and when it is due, whose it is,
/// and where its bytes sit.
#[derive(Clone, Copy, Debug)]
struct StagedFrame {
    deliver_at: Tick,
    from: NodeId,
    /// The sequence number of its first message.
    seq: u64,
    /// Offset of the frame in its round buffer's bytes.
    start: usize,
    slot: u32,
    /// Which of the exchanged round buffers holds its bytes: 0 until
    /// [`exchange`] gathers every buffer's frames into the first's index.
    buf: u32,
    len: u32,
    count: u32,
}

impl StagedFrame {
    /// The order frames enter mailboxes in. It is unique — a sender's
    /// frames start at different sequence numbers — so sorting on it has
    /// one result, whichever worker staged which frame.
    fn key(&self) -> (u32, Tick, NodeId, u64) {
        (self.slot, self.deliver_at, self.from, self.seq)
    }
}

/// The frames a worker's nodes flushed in one round, waiting for the
/// exchange that ends it: every frame's bytes back to back, and one index
/// entry per frame; and the emptied mailbox buckets the worker's drains
/// handed back, for the exchange to queue frames into. The worker's,
/// reused from round to round like its outbox (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct RoundBuffer {
    bytes: Vec<u8>,
    frames: Vec<StagedFrame>,
    /// The exchange's scratch space: the order to queue `frames` in, as
    /// positions, and where each slot's frames start in it.
    order: Vec<u32>,
    slot_starts: Vec<usize>,
    /// Emptied buckets, reused by the exchange for the buckets it creates
    /// (see [`exchange`] for how many it keeps).
    spares: Spares<Payload>,
    /// The round's growth of `bytes` and `frames`, until the exchange
    /// hands it to the runtime.
    ledger: WorkLedger,
}

impl RoundBuffer {
    /// What a round buffer keeps of its capacity however small the rounds
    /// get, so that paced rounds do not allocate — and what the exchange
    /// keeps of emptied buckets, counted in the bytes of capacity they
    /// hold.
    const KEPT: usize = 64 << 10;

    /// Hands a drained bucket back for the exchange to reuse.
    pub(crate) fn recycle(&mut self, bucket: Bucket<Payload>) {
        self.spares.keep(bucket);
    }

    /// Empties the buffer for the next round. Its capacity is kept while
    /// rounds stay about as large, and let go once a round uses less than
    /// a quarter of it: a burst's buffer is not held on to after the burst.
    fn reset(&mut self) {
        if self.bytes.capacity() > Self::KEPT.max(4 * self.bytes.len()) {
            *self = RoundBuffer {
                spares: std::mem::take(&mut self.spares),
                ..RoundBuffer::default()
            };
        } else {
            self.bytes.clear();
            self.frames.clear();
        }
    }
}

/// Flushes `outbox`, the sends of `state`'s round, at the end of that
/// round, sent at `now`: tallies each open frame as sent for the node and
/// writes it once, into the worker's round buffer, and empties the outbox.
/// Nothing is decoded here, and no mailbox is touched: [`exchange`] queues
/// the frames once the round is over, and the receiver's drain decodes
/// them.
pub(crate) fn flush_outbox(
    now: Tick,
    state: &mut NodeState,
    outbox: &mut Outbox,
    round: &mut RoundBuffer,
) {
    let from = state.id;
    for open in &outbox.frames {
        let start = round.bytes.len();
        let before = (round.bytes.capacity(), round.frames.capacity());
        let unbatched = outbox.write_frame(open, from, now, &mut round.bytes);
        let len = round.bytes.len() - start;
        round.frames.push(StagedFrame {
            deliver_at: open.deliver_at,
            from,
            seq: open.seq,
            start,
            slot: open.slot as u32,
            buf: 0,
            len: len as u32,
            count: open.count as u32,
        });
        round.ledger.round_growth += grew(&round.bytes, before.0) + grew(&round.frames, before.1);
        state.wire.record_frame(open.to, len, open.count, unbatched);
    }
    state.wire.record_kinds(&outbox.kinds);
    state.ledger.frames_flushed += outbox.frames.len() as u64;
    state.ledger.add(&outbox.ledger);
    outbox.clear();
}

/// Ends a round: queues every frame the round's workers flushed, whatever
/// buffer holds it, in `(slot, deliver_at, from, first seq)` order — one
/// [`Mailboxes::push_frames`] per `(slot, tick)`, so one lock and one
/// bucket look-up each, and a bucket it creates made from a spare the
/// drains handed back — and empties the buffers ([`RoundBuffer::reset`]).
/// The spares left over go to the first buffer, trimmed to the larger of
/// [`RoundBuffer::KEPT`] and four times the bytes queued
/// ([`Spares::trim`]). The key is unique (see
/// [`StagedFrame::key`]), so the order is a function of the frames alone:
/// neither the worker count nor which worker flushed what changes a byte
/// of any mailbox (a spare lends a bucket capacity, never contents).
/// Returns the buffers' counters, which it resets, with the bytes and
/// `(slot, tick)` groups it queued.
pub(crate) fn exchange(boxes: &Mailboxes<Payload>, rounds: &mut [RoundBuffer]) -> WorkLedger {
    let mut ledger = WorkLedger::default();
    let Some((first, rest)) = rounds.split_first_mut() else {
        return ledger;
    };
    let mut spares = std::mem::take(&mut first.spares);
    for (buf, round) in (1..).zip(rest) {
        let moved = round.frames.drain(..);
        first.frames.extend(moved.map(|f| StagedFrame { buf, ..f }));
        spares.append(&mut round.spares);
    }
    if !first.frames.is_empty() {
        queue(boxes, rounds, &mut spares, &mut ledger);
    }
    // The spares left are kept by the rule `reset` applies to the round's
    // bytes: a burst's buckets are not held on to once rounds shrink.
    spares.trim(RoundBuffer::KEPT.max(4 * ledger.exchange_bytes as usize));
    rounds[0].spares = spares;
    for round in rounds {
        ledger.add(&std::mem::take(&mut round.ledger));
        round.reset();
    }
    ledger
}

/// The exchange's queueing: sorts the first buffer's index (every
/// buffer's frames by now) and pushes each `(slot, tick)` group, counting
/// the groups and the bytes queued in `ledger`.
fn queue(
    boxes: &Mailboxes<Payload>,
    rounds: &mut [RoundBuffer],
    spares: &mut Spares<Payload>,
    ledger: &mut WorkLedger,
) {
    let first = &mut rounds[0];
    let frames = std::mem::take(&mut first.frames);
    let (mut order, mut starts) = (
        std::mem::take(&mut first.order),
        std::mem::take(&mut first.slot_starts),
    );
    order.clear();
    let frame = |at: u32| &frames[at as usize];
    // A counting sort on the slot, then each slot's few frames by the rest
    // of the key. It makes a pass over every slot, and still costs less
    // than comparison sorts over all of a round's frames, which made the
    // benchmark's framed burst 2–10% slower (see CHANGELOG).
    starts.clear();
    starts.resize(boxes.len() + 1, 0);
    for f in &frames {
        starts[f.slot as usize + 1] += 1;
    }
    let mut total = 0;
    for start in &mut starts {
        total += *start;
        *start = total;
    }
    order.resize(frames.len(), 0);
    for (at, f) in (0..).zip(&frames) {
        let next = &mut starts[f.slot as usize];
        order[*next] = at;
        *next += 1;
    }
    for slot in order.chunk_by_mut(|&a, &b| frame(a).slot == frame(b).slot) {
        slot.sort_unstable_by_key(|&at| frame(at).key());
    }
    let bucket = |&at: &u32| (frame(at).slot, frame(at).deliver_at);
    for group in order.chunk_by(|a, b| bucket(a) == bucket(b)) {
        let (slot, deliver_at) = bucket(&group[0]);
        let group = group.iter().map(|&at| {
            let f = frame(at);
            let bytes = &rounds[f.buf as usize].bytes[f.start..f.start + f.len as usize];
            (f.from, f.seq, f.count as usize, bytes)
        });
        ledger.exchange_bytes += boxes.push_frames(slot as usize, deliver_at, group, spares) as u64;
        ledger.groups_pushed += 1;
    }
    rounds[0].order = order;
    rounds[0].slot_starts = starts;
    rounds[0].frames = frames;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Command, Op};
    use crate::transport::ChannelTransport;

    fn env(seq: u64, payload: Payload) -> Envelope<Payload> {
        Envelope {
            from: NodeId::new(10),
            to: NodeId::new(20),
            sent_at: 5,
            deliver_at: 6,
            seq,
            payload,
        }
    }

    fn encode(envs: &[Envelope<Payload>]) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(envs, &mut frame);
        frame
    }

    #[test]
    fn frames_roundtrip_and_batching_beats_singletons() {
        let envs = vec![
            env(1, Payload::Replicate { key: 7, value: 8 }),
            env(
                2,
                Payload::RepairJoin {
                    joined: NodeId::new(3),
                },
            ),
            env(3, Payload::Client(Command::Issue(Op::Lookup { key: 4 }))),
        ];
        let frame = encode(&envs);
        let mut decoded = Vec::new();
        let facts = decode_frame(&frame, &mut decoded).expect("decode");
        assert_eq!(decoded.len(), 3);
        for (d, e) in decoded.iter().zip(&envs) {
            assert_eq!(d.payload, e.payload);
            assert_eq!(
                (d.from, d.to, d.sent_at, d.deliver_at, d.seq),
                (e.from, e.to, e.sent_at, e.deliver_at, e.seq)
            );
        }
        // Three coalesced messages share one header: strictly smaller than
        // three singleton frames.
        assert!((frame.len() as u64) < facts.unbatched);
        // Re-encoding the decoded envelopes is byte-identical.
        assert_eq!(encode(&decoded), frame);
    }

    #[test]
    fn a_singleton_frame_is_its_own_counterfactual() {
        // Sequence numbers on both sides of the one-byte varint boundary,
        // and a payload long enough for a two-byte length prefix.
        let shard = (0..20).map(|k| (k, k)).collect();
        for (seq, payload) in [
            (1, Payload::Replicate { key: 1, value: 2 }),
            (300, Payload::Replicate { key: 1, value: 2 }),
            (
                1 << 40,
                Payload::LeaveHandoff {
                    departing: NodeId::new(4),
                    shard,
                },
            ),
        ] {
            let frame = encode(&[env(seq, payload)]);
            let facts = decode_frame(&frame, &mut Vec::new()).expect("decode");
            assert_eq!(facts.unbatched, frame.len() as u64, "seq {seq}");
        }
    }

    /// The frame layout spelled out the long way: every payload encoded
    /// into a buffer of its own, then copied in behind its length.
    fn reference_frame(envs: &[Envelope<Payload>]) -> Vec<u8> {
        let mut body = Vec::new();
        let mut e = Encoder::new(&mut body);
        let first = &envs[0];
        e.encode(&first.from);
        e.encode(&first.to);
        e.varint(first.sent_at);
        e.varint(first.deliver_at);
        e.varint(envs.len() as u64);
        for env in envs {
            e.varint(env.seq);
            e.bytes(&canon_wire::to_bytes(&env.payload));
        }
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    }

    /// A join-grant response whose encoding is exactly `len` bytes: 8 per
    /// link, and the width of the request id's varint for the remainder.
    fn grant_of_len(len: usize) -> Payload {
        // Tags, hop count, predecessor and the three list counts.
        let room = len - 14;
        let req_width = 1 + (room - 1) % 8;
        let payload = Payload::Response {
            req: 1 << (7 * (req_width - 1)),
            hops: 2,
            result: crate::msg::RpcResult::Granted(crate::msg::JoinGrant {
                predecessor: NodeId::new(3),
                links: (0..(room - req_width) / 8)
                    .map(|l| NodeId::new(l as u64))
                    .collect(),
                succ_list: Vec::new(),
                shard: Vec::new(),
            }),
        };
        assert_eq!(canon_wire::to_bytes(&payload).len(), len);
        payload
    }

    #[test]
    fn in_place_payloads_keep_the_frame_layout_at_every_prefix_width() {
        let short = Payload::Replicate { key: 7, value: 8 };
        // One byte either side of the one-byte length prefix, and a
        // handoff that needs three.
        let (fits, spills) = (grant_of_len(0x7f), grant_of_len(0x80));
        let long = Payload::LeaveHandoff {
            departing: NodeId::new(4),
            shard: (0..1100).map(|k| (k, k * k)).collect(),
        };
        assert!(canon_wire::to_bytes(&long).len() >= 0x4000);
        let all = [&short, &fits, &spills, &long];
        for payload in all {
            let envs = [env(300, payload.clone())];
            assert_eq!(encode(&envs), reference_frame(&envs));
        }
        // Short and long payloads in one frame, a short one after each
        // long one (which is where a misplaced prefix would land).
        let mixed: Vec<_> = all
            .into_iter()
            .flat_map(|p| [p.clone(), short.clone()])
            .zip(1..)
            .map(|(payload, seq)| env(seq, payload))
            .collect();
        let frame = encode(&mixed);
        assert_eq!(frame, reference_frame(&mixed));
        let mut decoded = Vec::new();
        decode_frame(&frame, &mut decoded).expect("decode");
        assert_eq!(decoded.len(), mixed.len());
        for (d, e) in decoded.iter().zip(&mixed) {
            assert_eq!((d.seq, &d.payload), (e.seq, &e.payload));
        }
        assert_eq!(encode(&decoded), frame);
    }

    #[test]
    fn frame_decode_is_total_and_all_or_nothing() {
        let frame = encode(&[
            env(1, Payload::Replicate { key: 1, value: 2 }),
            env(2, Payload::Replicate { key: 3, value: 4 }),
        ]);
        // The output vector already holds a delivered envelope; every
        // failure must leave exactly that.
        let mut out = vec![env(99, Payload::Replicate { key: 0, value: 0 })];
        let mut check = |bytes: &[u8], what: &str| {
            let err = decode_frame(bytes, &mut out).expect_err(what);
            assert_eq!(out.len(), 1, "{what}: output grew");
            assert_eq!(out[0].seq, 99, "{what}: output changed");
            err
        };
        for cut in 0..frame.len() {
            check(&frame[..cut], &format!("prefix {cut}"));
        }
        let mut extended = frame.clone();
        extended.push(0);
        assert_eq!(check(&extended, "trailing byte"), WireError::TrailingBytes);
        // A second message cut short *inside* an honest length prefix: the
        // first message decodes before the failure is found.
        let mut short = frame[..frame.len() - 1].to_vec();
        let body = (short.len() - 4) as u32;
        short[..4].copy_from_slice(&body.to_le_bytes());
        assert_eq!(check(&short, "short second message"), WireError::Truncated);
        // Over-claimed message count with an honest length prefix.
        let mut body = Vec::new();
        let mut e = Encoder::new(&mut body);
        e.encode(&NodeId::new(1));
        e.encode(&NodeId::new(2));
        e.varint(0);
        e.varint(1);
        e.varint(1 << 40); // count
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        assert_eq!(check(&bytes, "over-claimed count"), WireError::Truncated);
        // And the intact frame still appends after all that.
        assert!(decode_frame(&frame, &mut out).is_ok());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn an_over_claimed_count_allocates_nothing() {
        // An honest length prefix, and a count equal to the bytes left
        // behind it: more messages than those bytes can hold at two bytes
        // each, so the decode fails before reserving room for them.
        let mut body = Vec::new();
        let mut e = Encoder::new(&mut body);
        e.encode(&NodeId::new(1));
        e.encode(&NodeId::new(2));
        e.varint(0);
        e.varint(1);
        e.varint(8); // count
        body.extend_from_slice(&[0; 8]);
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let mut out = Vec::new();
        assert_eq!(decode_frame(&bytes, &mut out), Err(WireError::Truncated));
        assert_eq!(out.capacity(), 0);
    }

    /// Tallies `frame`, sent to `to`, from what decoding it found — the
    /// sender's tally recounted from the bytes.
    fn record_decoded(tally: &mut WireTally, to: NodeId, frame: &[u8], facts: &FrameFacts) {
        let msgs: u64 = facts.kinds.iter().map(|k| k.0).sum();
        tally.record_frame(to, frame.len(), msgs as usize, facts.unbatched);
        tally.record_kinds(&facts.kinds);
    }

    #[test]
    fn tally_aggregates_links_and_kinds() {
        let mut tally = WireTally::default();
        let envs = vec![
            env(1, Payload::Replicate { key: 1, value: 2 }),
            env(2, Payload::Replicate { key: 3, value: 4 }),
        ];
        let frame = encode(&envs);
        let facts = decode_frame(&frame, &mut Vec::new()).expect("decode");
        record_decoded(&mut tally, NodeId::new(20), &frame, &facts);
        let s = WireSummary::sum([&tally]);
        assert_eq!((s.frames, s.msgs), (1, 2));
        assert_eq!(s.bytes, frame.len() as u64);
        assert_eq!(s.header_bytes + s.payload_bytes, s.bytes);
        assert_eq!(s.decode_errors, 0);
        assert_eq!(s.links, 1);
        assert_eq!(
            s.per_kind,
            vec![("replicate".to_owned(), 2, s.payload_bytes)]
        );
        assert!(s.bytes < s.unbatched_bytes);
        assert_eq!(
            tally.links().collect::<Vec<_>>(),
            vec![(
                NodeId::new(20),
                LinkBytes {
                    frames: 1,
                    msgs: 2,
                    bytes: frame.len() as u64
                }
            )]
        );
        // Summing is per node: the same tally twice is two links' worth.
        let twice = WireSummary::sum([&tally, &tally]);
        assert_eq!((twice.frames, twice.links, twice.msgs), (2, 2, 4));
    }

    /// The sender every outbox test stages for: the `from` of [`env`].
    fn sender() -> NodeState {
        sender_with_id(10)
    }

    fn sender_with_id(id: u64) -> NodeState {
        NodeState::new(
            NodeId::new(id),
            Default::default(),
            Vec::new(),
            None,
            true,
            &crate::runtime::RuntimeConfig::default(),
        )
    }

    /// [`env`] to the node at `slot` (identifier `20 + slot`), due at
    /// `deliver_at`.
    fn env_to(
        slot: usize,
        deliver_at: Tick,
        seq: u64,
        payload: Payload,
    ) -> (usize, Envelope<Payload>) {
        let mut e = env(seq, payload);
        e.to = NodeId::new(20 + slot as u64);
        e.deliver_at = deliver_at;
        (slot, e)
    }

    /// Stages `sends` the way `NodeState::send` does.
    fn stage_all(outbox: &mut Outbox, sends: &[(usize, Envelope<Payload>)]) {
        for (slot, e) in sends {
            outbox.stage(*slot, e.to, e.deliver_at, e.seq, &e.payload);
        }
    }

    /// Flushes `sends` as `state`'s round at `now`: stages them into a
    /// fresh outbox and flushes it into `round`.
    fn flush_sends(
        now: Tick,
        state: &mut NodeState,
        sends: &[(usize, Envelope<Payload>)],
        round: &mut RoundBuffer,
    ) {
        let mut outbox = Outbox::default();
        stage_all(&mut outbox, sends);
        flush_outbox(now, state, &mut outbox, round);
    }

    /// Flushes `sends` as a fresh node's round at [`env`]'s `sent_at` and
    /// exchanges the round into mailboxes for `slots` peers.
    fn flushed(
        slots: usize,
        sends: &[(usize, Envelope<Payload>)],
    ) -> (Mailboxes<Payload>, NodeState) {
        let (boxes, mut state) = (Mailboxes::new(slots), sender());
        let mut round = RoundBuffer::default();
        flush_sends(5, &mut state, sends, &mut round);
        exchange(&boxes, std::slice::from_mut(&mut round));
        (boxes, state)
    }

    #[test]
    fn a_run_that_never_coalesces_saves_nothing() {
        // No two messages share (destination, tick): every frame is a
        // singleton, so the counterfactual is the run itself.
        let at = |slot, seq, deliver_at| {
            env_to(
                slot,
                deliver_at,
                seq,
                Payload::Replicate { key: seq, value: 1 },
            )
        };
        let sends = [at(0, 1, 6), at(1, 2, 6), at(0, 300, 7), at(1, 301, 8)];
        let (boxes, state) = flushed(2, &sends);
        let s = WireSummary::sum([&state.wire]);
        assert_eq!((s.frames, s.msgs, s.links), (4, 4, 2));
        assert_eq!(s.bytes, s.unbatched_bytes);
        assert_eq!(boxes.queued(), 4);
    }

    #[test]
    fn flush_groups_by_destination_and_tick_in_staging_order() {
        let to = |slot, seq, key| env_to(slot, 6, seq, Payload::Replicate { key, value: 0 });
        // Interleaved destinations; slot 1's messages must coalesce into
        // one frame, in the order they were staged.
        let sends = [to(1, 1, 100), to(0, 2, 200), to(1, 3, 300), to(1, 4, 400)];
        let (boxes, state) = flushed(2, &sends);
        let s = WireSummary::sum([&state.wire]);
        assert_eq!((s.frames, s.msgs, s.links), (2, 4, 2));
        let seqs: Vec<u64> = boxes.drain_due(1, 6).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3, 4]);
        assert_eq!(boxes.drain_due(0, 6).len(), 1);
    }

    #[test]
    fn the_outbox_writes_the_frames_encode_frame_writes() {
        use canon_id::rng::Seed;
        const SLOTS: usize = 5;
        // Slot 0 takes every other message, all due at tick 6: one frame
        // of 150, whose count needs two bytes. The rest spread over slots
        // 1-4, and slot 2's alternate between ticks 6 and 8 (jitter).
        // Sequence numbers cross the one-byte varint boundary, and two
        // payloads need a two- and a three-byte length prefix.
        let sends: Vec<_> = (0..300u64)
            .map(|i| {
                let word = Seed(29).derive_index(i).0;
                let slot = if i % 2 == 0 {
                    0
                } else {
                    1 + (word % 4) as usize
                };
                let tick = if slot == 2 && word & 16 != 0 { 8 } else { 6 };
                let payload = match i {
                    101 => Payload::LeaveHandoff {
                        departing: NodeId::new(4),
                        shard: (0..20).map(|k| (k, k)).collect(),
                    },
                    201 => Payload::LeaveHandoff {
                        departing: NodeId::new(4),
                        shard: (0..1100).map(|k| (k, k * k)).collect(),
                    },
                    _ if word & 1 == 0 => Payload::Replicate {
                        key: word,
                        value: i,
                    },
                    _ => Payload::Client(Command::Issue(Op::Lookup { key: word })),
                };
                env_to(slot, tick, i + 1, payload)
            })
            .collect();
        // The reference: each (slot, tick)'s envelopes in send order,
        // framed by `encode_frame`, frames in the order their first
        // message was sent.
        let mut groups: Vec<Vec<Envelope<Payload>>> = Vec::new();
        for (_, e) in &sends {
            let key = (e.to, e.deliver_at);
            match groups
                .iter_mut()
                .find(|g| (g[0].to, g[0].deliver_at) == key)
            {
                Some(group) => group.push(e.clone()),
                None => groups.push(vec![e.clone()]),
            }
        }
        let want: Vec<_> = groups.iter().map(|group| encode(group)).collect();
        assert!(groups.iter().any(|g| g.len() >= 128));
        for tick in [6, 8] {
            let key = (NodeId::new(22), tick);
            assert!(groups.iter().any(|g| (g[0].to, g[0].deliver_at) == key));
        }
        let lens: Vec<_> = sends
            .iter()
            .map(|(_, e)| canon_wire::to_bytes(&e.payload).len())
            .collect();
        assert!(
            lens.iter().any(|&l| (0x80..0x4000).contains(&l)) && lens.iter().any(|&l| l >= 0x4000)
        );

        let mut outbox = Outbox::default();
        stage_all(&mut outbox, &sends);
        let mut frame = Vec::new();
        let got: Vec<_> = outbox
            .frames
            .iter()
            .map(|open| {
                frame.clear();
                outbox.write_frame(open, NodeId::new(10), 5, &mut frame);
                frame.clone()
            })
            .collect();
        assert_eq!(got, want);

        // And the flush queues exactly the framed envelopes, tallied as
        // decoding those frames recounts them.
        let (boxes, state) = flushed(SLOTS, &sends);
        let mut tally = WireTally::default();
        for (group, frame) in groups.iter().zip(&want) {
            let facts = decode_frame(frame, &mut Vec::new()).expect("decode");
            record_decoded(&mut tally, group[0].to, frame, &facts);
        }
        assert_eq!(WireSummary::sum([&state.wire]), WireSummary::sum([&tally]));
        assert_eq!(
            state.wire.links().collect::<Vec<_>>(),
            tally.links().collect::<Vec<_>>()
        );
        for slot in 0..SLOTS {
            let mut sent: Vec<_> = sends
                .iter()
                .filter(|(s, _)| *s == slot)
                .map(|(_, e)| e.clone())
                .collect();
            sent.sort_unstable();
            let got = boxes.drain_due(slot, Tick::MAX);
            assert_eq!(got.len(), sent.len(), "slot {slot}");
            for (g, e) in got.iter().zip(&sent) {
                assert_eq!(
                    (g.from, g.to, g.sent_at, g.deliver_at, g.seq, &g.payload),
                    (e.from, e.to, e.sent_at, e.deliver_at, e.seq, &e.payload)
                );
            }
        }
    }

    #[test]
    fn a_flushed_outbox_is_empty_and_the_next_round_opens_new_frames() {
        let (boxes, mut state) = (Mailboxes::new(2), sender());
        let (mut outbox, mut buffer) = (Outbox::default(), RoundBuffer::default());
        let replicate = |key| Payload::Replicate { key, value: 0 };
        for (round, now) in [(0, 5), (1, 9)] {
            let sends = [
                env_to(0, now + 1, 10 * round + 1, replicate(1)),
                env_to(1, now + 1, 10 * round + 2, replicate(2)),
                env_to(1, now + 1, 10 * round + 3, replicate(3)),
            ];
            stage_all(&mut outbox, &sends);
            assert!(!outbox.msgs.is_empty());
            flush_outbox(now, &mut state, &mut outbox, &mut buffer);
            assert!(outbox.msgs.is_empty() && outbox.arena.is_empty());
            assert!(outbox.heads.iter().all(|&head| head == NONE));
            assert_eq!(outbox.kinds, KindCounts::default());
            // The round's frames wait in the round buffer, not a mailbox,
            // until the exchange, which leaves the buffer empty.
            assert_eq!(buffer.frames.len(), 2);
            assert_eq!(boxes.queued(), 3 * round as usize);
            exchange(&boxes, std::slice::from_mut(&mut buffer));
            assert!(buffer.frames.is_empty() && buffer.bytes.is_empty());
        }
        // Round two's messages to slot 1 went out in a frame of their own,
        // sent and due at round two's ticks.
        let s = WireSummary::sum([&state.wire]);
        assert_eq!((s.frames, s.msgs, s.links), (4, 6, 2));
        let due: Vec<_> = boxes
            .drain_due(1, Tick::MAX)
            .iter()
            .map(|e| (e.sent_at, e.deliver_at, e.seq))
            .collect();
        assert_eq!(due, vec![(5, 6, 2), (5, 6, 3), (9, 10, 12), (9, 10, 13)]);
    }

    #[test]
    fn a_burst_sized_round_buffer_is_let_go_once_rounds_shrink() {
        let boxes = Mailboxes::new(2);
        let mut round = RoundBuffer::default();
        let mut seq = 0;
        let mut exchanged = |round: &mut RoundBuffer, messages: u64| {
            let mut state = sender();
            let sends: Vec<_> = (0..messages)
                .map(|key| {
                    seq += 1;
                    env_to(1, 6, seq, Payload::Replicate { key, value: key })
                })
                .collect();
            flush_sends(5, &mut state, &sends, round);
            let used = round.bytes.len();
            exchange(&boxes, std::slice::from_mut(round));
            used
        };
        // A burst's round, well past what is kept regardless, and another
        // like it: the capacity stays for the second.
        let burst = exchanged(&mut round, 20_000);
        assert!(burst > 2 * RoundBuffer::KEPT);
        let kept = round.bytes.capacity();
        assert!(kept >= burst);
        exchanged(&mut round, 20_000);
        assert_eq!(round.bytes.capacity(), kept);
        // Then a paced round: the burst's capacity goes.
        exchanged(&mut round, 3);
        assert_eq!(round.bytes.capacity(), 0);
        assert_eq!(boxes.drain_due(1, 6).len(), 40_003);
    }

    /// Drains every slot's mail due at `now` the way a round does — the
    /// calendar's due ticks taken whole, then each slot's buckets — and
    /// hands the emptied buckets back to `round`.
    fn drained_into(boxes: &Mailboxes<Payload>, now: Tick, round: &mut RoundBuffer) {
        let mut due = Vec::new();
        boxes.take_due_slots(now, &mut due);
        for slot in due {
            if let Some(bucket) = boxes.take_woken(slot, now) {
                round.recycle(bucket);
            }
        }
    }

    #[test]
    fn a_burst_s_buckets_are_let_go_and_the_spares_fall_back_to_the_bound() {
        const SLOTS: usize = 1024;
        let boxes = Mailboxes::new(SLOTS);
        let mut round = RoundBuffer::default();
        let mut seq = 0;
        // One sender's round of `messages` replica writes spread evenly
        // over the first `slots` slots, due at `tick`, flushed and
        // exchanged.
        let mut exchanged = |round: &mut RoundBuffer, messages: u64, slots: u64, tick: Tick| {
            let mut state = sender();
            let sends: Vec<_> = (0..messages)
                .map(|key| {
                    seq += 1;
                    let slot = (key % slots) as usize;
                    env_to(slot, tick, seq, Payload::Replicate { key, value: key })
                })
                .collect();
            flush_sends(tick - 1, &mut state, &sends, round);
            let before = boxes.ledger();
            exchange(&boxes, std::slice::from_mut(round));
            boxes.ledger().since(&before)
        };
        // A burst's buckets, kilobytes each, are let go at the drain.
        exchanged(&mut round, 20_000, 64, 6);
        drained_into(&boxes, 6, &mut round);
        assert_eq!(round.spares.held(), 0);
        // A preload-like round, a few messages per slot: its buckets are
        // kept, well past the 64 KiB kept regardless, and a round like it
        // is queued into them, every bucket reused and none grown.
        exchanged(&mut round, 4 * SLOTS as u64, SLOTS as u64, 7);
        drained_into(&boxes, 7, &mut round);
        let held = round.spares.held();
        assert!(held > RoundBuffer::KEPT, "{held} bytes");
        let again = exchanged(&mut round, 3 * SLOTS as u64, SLOTS as u64, 8);
        assert_eq!((again.buckets_created, again.buckets_reused), (1024, 1024));
        assert_eq!(again.mailbox_growth, 0);
        drained_into(&boxes, 8, &mut round);
        assert!(round.spares.held() > RoundBuffer::KEPT);
        // Then a paced round: it reuses what it needs, and the rest falls
        // back to the bound.
        let paced = exchanged(&mut round, 3, SLOTS as u64, 9);
        assert_eq!((paced.buckets_created, paced.buckets_reused), (3, 3));
        assert!(round.spares.held() <= RoundBuffer::KEPT);
        assert!(round.spares.held() > 0);
        assert_eq!(boxes.queued(), 3);
        assert_eq!(boxes.index(), boxes.scan());
    }

    #[test]
    fn the_exchange_queues_the_same_mail_for_any_sender_order_and_chunking() {
        use canon_id::rng::Seed;
        const SLOTS: usize = 5;
        const SENDERS: usize = 4;
        // Each sender's round: a dozen messages over five slots and two
        // delivery ticks (jitter), so several senders' frames meet in most
        // buckets, and one sender can have two frames in a slot.
        let sends: Vec<Vec<_>> = (0..SENDERS as u64)
            .map(|k| {
                (1..=12u64)
                    .map(|seq| {
                        let word = Seed(41).derive_index(16 * k + seq).0;
                        let slot = (word % SLOTS as u64) as usize;
                        let tick = 6 + (word >> 8) % 2;
                        env_to(
                            slot,
                            tick,
                            seq,
                            Payload::Replicate {
                                key: word,
                                value: k,
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        // A bucket one sender already filled in an earlier round, which
        // the exchange must append behind.
        let earlier = [env_to(2, 6, 1, Payload::Replicate { key: 0, value: 9 })];
        // Runs one round: senders flush in `order`, into one round buffer
        // per chunk (`cuts` are where each chunk ends), then the exchange
        // queues them into the mailboxes.
        let run = |order: &[usize], cuts: &[usize]| {
            let boxes = Mailboxes::new(SLOTS);
            let mut state = sender_with_id(99);
            let mut round = RoundBuffer::default();
            flush_sends(4, &mut state, &earlier, &mut round);
            exchange(&boxes, std::slice::from_mut(&mut round));
            let mut rounds: Vec<RoundBuffer> =
                cuts.iter().map(|_| RoundBuffer::default()).collect();
            for (at, &k) in order.iter().enumerate() {
                let chunk = cuts
                    .iter()
                    .position(|&end| at < end)
                    .expect("cuts cover the senders");
                let mut state = sender_with_id(10 + k as u64);
                flush_sends(5, &mut state, &sends[k], &mut rounds[chunk]);
            }
            exchange(&boxes, &mut rounds);
            assert!(rounds
                .iter()
                .all(|r| r.frames.is_empty() && r.bytes.is_empty()));
            boxes
        };
        // The wake-up index, and every queued message, read out without
        // disturbing the mailboxes and then drained, field by field; and
        // the mailboxes' layout, bytes included.
        let read_out = |boxes: &Mailboxes<Payload>| {
            let fields =
                |e: Envelope<Payload>| (e.from, e.to, e.sent_at, e.deliver_at, e.seq, e.payload);
            let index: Vec<_> = (0..=8).map(|t| boxes.due_slots(t)).collect();
            let layout = format!("{boxes:?}");
            let peeked: Vec<_> = (0..SLOTS)
                .flat_map(|slot| boxes.peek_all(slot).into_iter().map(fields))
                .collect();
            let drained: Vec<_> = (0..SLOTS)
                .flat_map(|slot| (6..=7).flat_map(move |t| boxes.drain_due(slot, t)))
                .map(fields)
                .collect();
            ((index, peeked, drained), layout)
        };
        let (want, want_layout) = read_out(&run(&[0, 1, 2, 3], &[SENDERS]));
        assert_eq!(want.1.len(), 1 + SENDERS * 12);
        assert_eq!(want.1, want.2, "the drains deliver everything peeked");
        // Every permutation of the senders, at every chunking of them into
        // one to four contiguous buffers.
        let mut orders = vec![vec![0, 1, 2, 3]];
        for k in 1..SENDERS {
            orders = orders
                .into_iter()
                .flat_map(|order| {
                    (0..=k).map(move |at| {
                        let mut next = order.clone();
                        let moved = next.remove(k);
                        next.insert(at, moved);
                        next
                    })
                })
                .collect();
        }
        assert_eq!(orders.len(), 24);
        let chunkings: Vec<Vec<usize>> = (0..1u32 << (SENDERS - 1))
            .map(|mask| {
                let mut cuts: Vec<usize> = (1..SENDERS)
                    .filter(|c| mask & (1 << (c - 1)) != 0)
                    .collect();
                cuts.push(SENDERS);
                cuts
            })
            .collect();
        for order in &orders {
            for cuts in &chunkings {
                let (got, layout) = read_out(&run(order, cuts));
                assert!(got == want, "order {order:?}, chunks ending at {cuts:?}");
                assert!(
                    layout == want_layout,
                    "order {order:?}, chunks ending at {cuts:?}"
                );
            }
        }
    }

    use proptest::prelude::any;

    proptest::proptest! {
        /// A request forwarded as its received bytes is the request the
        /// hop would have re-encoded: every op, request ids and attempts of
        /// every varint width, hop counts 0–200 and paths of 0–200 ids,
        /// with and without an id to append. The byte forward is declined
        /// exactly when the hop count or the path count is 127 or more.
        #[test]
        fn forwarding_the_received_bytes_is_re_encoding_the_request(
            (variant, key, value, origin) in (0u8..4, any::<u64>(), any::<u64>(), any::<u64>()),
            (req, req_shift, attempt, attempt_shift) in
                (any::<u64>(), 0u32..64, any::<u32>(), 0u32..32),
            hops in 0u32..=200,
            path in proptest::collection::vec(any::<u64>(), 0..201),
            (appends, append) in (any::<bool>(), any::<u64>()),
        ) {
            use crate::transport::Read;
            use proptest::prop_assert_eq;
            let op = match variant {
                0 => Op::Lookup { key },
                1 => Op::Put { key, value },
                2 => Op::Get { key },
                _ => Op::Join { joiner: NodeId::new(key) },
            };
            let request = |hops, path: Vec<NodeId>| Payload::Request {
                origin: NodeId::new(origin),
                req: req >> req_shift,
                attempt: attempt >> attempt_shift,
                hops,
                op: op.clone(),
                path,
            };
            let path: Vec<NodeId> = path.into_iter().map(NodeId::new).collect();
            let append = appends.then_some(NodeId::new(append));
            let received = canon_wire::to_bytes(&request(hops, path.clone()));
            let header = FrameHeader {
                from: NodeId::new(1),
                to: NodeId::new(2),
                sent_at: 5,
                deliver_at: 6,
            };
            let Ok(Read::Head(head)) = crate::wire::read_framed(&header, 300, &received) else {
                panic!("a request reads as its head");
            };
            prop_assert_eq!(head.forwardable(), hops < 127 && path.len() < 127);
            if !head.forwardable() {
                return Ok(());
            }
            let mut outbox = Outbox::default();
            outbox.forward(3, NodeId::new(23), 6, 300, &head, append);
            let mut sent = path;
            sent.extend(append);
            let want = canon_wire::to_bytes(&request(hops + 1, sent));
            let mut d = Decoder::new(&outbox.arena);
            prop_assert_eq!(d.varint(), Ok(300));
            prop_assert_eq!(d.bytes(), Ok(&want[..]));
            prop_assert_eq!(d.remaining(), 0);
            prop_assert_eq!(outbox.kinds[REQUEST], (1, want.len() as u64));
            prop_assert_eq!(outbox.frames.len(), 1);
        }
    }

    #[test]
    fn both_wrapper_orders_frame_with_per_message_fates() {
        use crate::transport::FaultyTransport;
        use canon_id::rng::Seed;
        let faulty = || FaultyTransport::new(ChannelTransport::new(1), Seed(1), 100, 3);
        let faults_inside = FramedTransport::new(faulty());
        let faults_outside = FaultyTransport::new(
            FramedTransport::new(ChannelTransport::new(1)),
            Seed(1),
            100,
            3,
        );
        assert!(FramedTransport::new(ChannelTransport::new(1)).framed());
        assert!(faults_inside.framed() && faults_outside.framed());
        assert!(!ChannelTransport::new(1).framed() && !faulty().framed());
        // Every message's fate is its own, and the nesting order does not
        // change it: both stacks quote what the bare faulty channel does.
        let (from, to) = (NodeId::new(1), NodeId::new(2));
        let fates: Vec<_> = (0..200)
            .map(|seq| faulty().schedule(9, from, to, seq))
            .collect();
        assert!(fates.iter().any(Option::is_none) && fates.iter().any(Option::is_some));
        for (seq, &fate) in (0..).zip(&fates) {
            assert_eq!(faults_inside.schedule(9, from, to, seq), fate, "seq {seq}");
            assert_eq!(faults_outside.schedule(9, from, to, seq), fate, "seq {seq}");
        }
    }
}

//! Framed transport: every message crosses the wire codec, batched into
//! length-prefixed frames with per-link byte accounting.
//!
//! # Where framing hooks in
//!
//! [`Transport`] is deliberately only a *scheduler* — payloads never pass
//! through it, they move as in-process enum values straight into the
//! destination mailbox. Framing therefore lives in the runtime's send
//! path: with a [`FramedTransport`] in the stack, a node's sends are
//! staged in its outbox instead of entering mailboxes directly, and at the
//! end of the node's round the runtime flushes the outbox — coalescing
//! same-destination messages into frames, encoding each frame through
//! [`canon_wire`], accounting its bytes, then **decoding the frame and
//! delivering the decoded envelopes**. Every delivered message has round-
//! tripped through the codec, so a framed run exercises encode *and*
//! decode end to end; the equivalence tests pin that its event log is
//! byte-identical to an unframed run.
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
//! message. The ledger tracks the counterfactual unbatched size, which is
//! where the reported batching savings come from.
//!
//! # Fault granularity is wrapper order
//!
//! * `FramedTransport::new(FaultyTransport::new(..))` — faults *inside*
//!   the framer: loss and jitter are decided per message at send time with
//!   the message's own sequence number, exactly as an unframed run would,
//!   and only survivors are coalesced (by shared delivery tick). This is
//!   the equivalence configuration: summaries and event logs match the
//!   unframed faulty run byte for byte.
//! * `FaultyTransport::new(FramedTransport::new(..))` — faults *outside*
//!   the framer: the runtime schedules **one** transport decision per
//!   frame (keyed by the frame's first sequence number), so a loss drops
//!   every message in the frame atomically and jitter moves the frame as a
//!   unit — what a real packet network does to a batch.

use crate::clock::Tick;
use crate::msg::Payload;
use crate::node::NodeState;
use crate::transport::{lock_unpoisoned, Envelope, FramingView, Mailboxes, Transport};
use canon_id::NodeId;
use canon_wire::{varint_len, Decoder, Encoder, WireDecode, WireError};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per-link byte counters: frames and messages delivered over a directed
/// `(from, to)` link, and the frame bytes that carried them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkBytes {
    /// Frames delivered.
    pub frames: u64,
    /// Messages the frames carried.
    pub msgs: u64,
    /// Encoded frame bytes (length prefix and header included).
    pub bytes: u64,
}

/// Order-independent aggregation state behind the ledger's mutex.
#[derive(Debug, Default)]
struct Tally {
    links: BTreeMap<(u64, u64), LinkBytes>,
    /// Payload-kind label → (messages, payload bytes).
    kinds: BTreeMap<&'static str, (u64, u64)>,
    total: LinkBytes,
    header_bytes: u64,
    payload_bytes: u64,
    unbatched_bytes: u64,
    frames_lost: u64,
    msgs_lost: u64,
    decode_errors: u64,
}

/// The framing layer's byte ledger: per-link and per-payload-kind
/// counters, batching counterfactuals, and loss accounting. All updates
/// are commutative, so the ledger reads identically regardless of worker
/// scheduling — the framed determinism tests rely on that.
#[derive(Debug, Default)]
pub struct FrameLedger {
    tally: Mutex<Tally>,
}

impl FrameLedger {
    fn record_frame(&self, envs: &[Envelope<Payload>], frame: &FrameBytes) {
        let Some(first) = envs.first() else { return };
        let link_bytes = frame.bytes.len() as u64;
        let payload_bytes: u64 = frame.per_msg.iter().map(|&(_, len)| len as u64).sum();
        let mut t = lock_unpoisoned(&self.tally);
        let link = t
            .links
            .entry((first.from.raw(), first.to.raw()))
            .or_default();
        link.frames += 1;
        link.msgs += envs.len() as u64;
        link.bytes += link_bytes;
        t.total.frames += 1;
        t.total.msgs += envs.len() as u64;
        t.total.bytes += link_bytes;
        t.header_bytes += link_bytes - payload_bytes;
        t.payload_bytes += payload_bytes;
        t.unbatched_bytes += frame.unbatched as u64;
        for &(kind, len) in &frame.per_msg {
            let k = t.kinds.entry(kind).or_default();
            k.0 += 1;
            k.1 += len as u64;
        }
    }

    fn record_lost(&self, msgs: usize) {
        let mut t = lock_unpoisoned(&self.tally);
        t.frames_lost += 1;
        t.msgs_lost += msgs as u64;
    }

    fn record_decode_error(&self) {
        lock_unpoisoned(&self.tally).decode_errors += 1;
    }

    /// Snapshot of the aggregated wire accounting.
    pub fn summary(&self) -> WireSummary {
        let t = lock_unpoisoned(&self.tally);
        WireSummary {
            frames: t.total.frames,
            msgs: t.total.msgs,
            bytes: t.total.bytes,
            header_bytes: t.header_bytes,
            payload_bytes: t.payload_bytes,
            unbatched_bytes: t.unbatched_bytes,
            frames_lost: t.frames_lost,
            msgs_lost: t.msgs_lost,
            decode_errors: t.decode_errors,
            links: t.links.len() as u64,
            per_kind: t
                .kinds
                .iter()
                .map(|(&k, &(msgs, bytes))| (k.to_owned(), msgs, bytes))
                .collect(),
        }
    }

    /// Per-link counters, keyed by directed `(from, to)` node pairs.
    pub fn link_bytes(&self) -> BTreeMap<(NodeId, NodeId), LinkBytes> {
        lock_unpoisoned(&self.tally)
            .links
            .iter()
            .map(|(&(f, t), &v)| ((NodeId::new(f), NodeId::new(t)), v))
            .collect()
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
    /// Frames delivered.
    pub frames: u64,
    /// Messages the delivered frames carried.
    pub msgs: u64,
    /// Total encoded frame bytes delivered.
    pub bytes: u64,
    /// Bytes spent on frame headers and length prefixes.
    pub header_bytes: u64,
    /// Bytes spent on message payloads.
    pub payload_bytes: u64,
    /// What `bytes` would have been with one frame per message — the
    /// batching counterfactual.
    pub unbatched_bytes: u64,
    /// Frames the transport dropped (per-frame fault mode only).
    pub frames_lost: u64,
    /// Messages lost inside dropped frames.
    pub msgs_lost: u64,
    /// Frames that failed the decode-validate round trip (a codec bug;
    /// always zero in the shipped codec — the equivalence tests assert
    /// it).
    pub decode_errors: u64,
    /// Distinct directed links that carried at least one frame.
    pub links: u64,
    /// Per-payload-kind accounting as `(kind, messages, payload bytes)`,
    /// sorted by kind label.
    pub per_kind: Vec<(String, u64, u64)>,
}

impl WireSummary {
    /// Mean encoded frame bytes per delivered message.
    pub fn bytes_per_msg(&self) -> f64 {
        if self.msgs == 0 {
            0.0
        } else {
            self.bytes as f64 / self.msgs as f64
        }
    }

    /// Mean messages per frame (1.0 means batching never coalesced).
    pub fn msgs_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.msgs as f64 / self.frames as f64
        }
    }

    /// Fraction of wire bytes saved by batching, against one frame per
    /// message.
    pub fn batching_savings(&self) -> f64 {
        if self.unbatched_bytes == 0 {
            0.0
        } else {
            1.0 - self.bytes as f64 / self.unbatched_bytes as f64
        }
    }
}

/// A transport-stack layer that makes the runtime serialize every message
/// into length-prefixed frames (see the module docs for the layout and
/// for how wrapper order selects the fault granularity). Scheduling
/// delegates to the wrapped transport unchanged.
#[derive(Debug, Default)]
pub struct FramedTransport<T> {
    inner: T,
    ledger: FrameLedger,
}

impl<T: Transport> FramedTransport<T> {
    /// Frames every message crossing `inner`.
    pub fn new(inner: T) -> FramedTransport<T> {
        FramedTransport {
            inner,
            ledger: FrameLedger::default(),
        }
    }

    /// The byte ledger this layer accounts frames against.
    pub fn ledger(&self) -> &FrameLedger {
        &self.ledger
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

    fn framing(&self) -> Option<FramingView<'_>> {
        Some(FramingView {
            ledger: &self.ledger,
            per_frame: false,
        })
    }
}

/// An encoded frame plus the accounting facts gathered while encoding.
pub(crate) struct FrameBytes {
    /// The full frame: length prefix, header, messages.
    pub bytes: Vec<u8>,
    /// Per-message `(payload kind, encoded payload length)`.
    pub per_msg: Vec<(&'static str, usize)>,
    /// Total bytes had each message shipped as its own frame.
    pub unbatched: usize,
}

/// Fixed frame-header bytes besides the varints: the `u32` length prefix
/// plus the two 8-byte node identifiers.
const FRAME_FIXED_HEADER: usize = 4 + 8 + 8;

/// Encodes one frame. Every envelope must share `from`, `to`, `sent_at`
/// and `deliver_at` (the caller groups by exactly those); the shared
/// values are read from the first envelope.
pub(crate) fn encode_frame(envs: &[Envelope<Payload>]) -> FrameBytes {
    let mut body = Vec::new();
    let mut per_msg = Vec::with_capacity(envs.len());
    let mut unbatched = 0usize;
    let mut e = Encoder::new(&mut body);
    if let Some(first) = envs.first() {
        e.encode(&first.from);
        e.encode(&first.to);
        e.varint(first.sent_at);
        e.varint(first.deliver_at);
        e.varint(envs.len() as u64);
        for env in envs {
            e.varint(env.seq);
            let before = e.written();
            // Length-prefixed so a decoder can skip payloads it cannot
            // parse and so the payload length is an accounting fact.
            let mut payload = Vec::new();
            Encoder::new(&mut payload).encode(&env.payload);
            e.bytes(&payload);
            let written = e.written() - before;
            per_msg.push((env.payload.kind_name(), payload.len()));
            // The same message as a singleton frame: fixed header, its own
            // copies of the shared varints, count = 1, then the message.
            unbatched += FRAME_FIXED_HEADER
                + varint_len(first.sent_at)
                + varint_len(first.deliver_at)
                + 1
                + written;
        }
    }
    let mut bytes = Vec::with_capacity(4 + body.len());
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&body);
    FrameBytes {
        bytes,
        per_msg,
        unbatched,
    }
}

/// Decodes a frame back into envelopes. Total: truncation, bad tags,
/// length-prefix mismatches and trailing bytes all surface as
/// [`WireError`], never a panic.
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<Vec<Envelope<Payload>>, WireError> {
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
    let sent_at = d.varint()?;
    let deliver_at = d.varint()?;
    let count = d.varint()?;
    let count = usize::try_from(count).map_err(|_| WireError::Truncated)?;
    // Each message takes at least two bytes (seq + length prefix), so an
    // over-claimed count is truncation, caught before allocating.
    if count > d.remaining() {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = d.varint()?;
        let payload_bytes = d.bytes()?;
        let payload: Payload = canon_wire::from_bytes(payload_bytes)?;
        out.push(Envelope {
            from,
            to,
            sent_at,
            deliver_at,
            seq,
            payload,
        });
    }
    d.finish()?;
    Ok(out)
}

/// Flushes a node's staged outbox at the end of its round: groups staged
/// messages into frames, runs each frame through encode → account →
/// decode, and delivers the decoded envelopes into the destination
/// mailboxes. See the module docs for the two fault granularities.
pub(crate) fn flush_outbox(
    boxes: &Mailboxes<Payload>,
    transport: &dyn Transport,
    view: FramingView<'_>,
    state: &mut NodeState,
    now: Tick,
) {
    if state.outbox.is_empty() {
        return;
    }
    // Group by (destination, delivery tick). With per-message fates the
    // tick was quoted at send time, so only survivors that arrive together
    // coalesce; with per-frame fates every staged envelope still carries
    // tick 0, so this is one group per destination.
    let mut groups: BTreeMap<(usize, Tick), Vec<Envelope<Payload>>> = BTreeMap::new();
    for (slot, env) in std::mem::take(&mut state.outbox) {
        groups.entry((slot, env.deliver_at)).or_default().push(env);
    }
    for ((slot, _), mut envs) in groups {
        if view.per_frame {
            // Ask the transport once per frame, keyed by the frame's first
            // (lowest) sequence number.
            let Some(first) = envs.first() else { continue };
            let Some(deliver_at) = transport.schedule(now, first.from, first.to, first.seq) else {
                // The whole frame is lost atomically.
                state.stats.network_drops += envs.len() as u64;
                view.ledger.record_lost(envs.len());
                continue;
            };
            for env in &mut envs {
                env.deliver_at = deliver_at;
            }
        }
        deliver_frame(boxes, view.ledger, slot, &envs);
    }
}

/// Encode → account → decode-validate → deliver one frame.
fn deliver_frame(
    boxes: &Mailboxes<Payload>,
    ledger: &FrameLedger,
    slot: usize,
    envs: &[Envelope<Payload>],
) {
    let frame = encode_frame(envs);
    match decode_frame(&frame.bytes) {
        Ok(decoded) => {
            ledger.record_frame(envs, &frame);
            // Deliver the *decoded* envelopes: every message a framed run
            // processes has round-tripped through the codec.
            for env in decoded {
                boxes.push(slot, env);
            }
        }
        Err(_) => {
            // Unreachable for bytes this module just encoded; surfaced as
            // a counter (the equivalence tests assert it stays zero)
            // rather than a panic, per the crate's no-panic policy.
            ledger.record_decode_error();
        }
    }
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
        let frame = encode_frame(&envs);
        let decoded = decode_frame(&frame.bytes).expect("decode");
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
        assert!(frame.bytes.len() < frame.unbatched);
        // Re-encoding the decoded envelopes is byte-identical.
        assert_eq!(encode_frame(&decoded).bytes, frame.bytes);
    }

    #[test]
    fn frame_decode_is_total() {
        let frame = encode_frame(&[env(1, Payload::Replicate { key: 1, value: 2 })]);
        for cut in 0..frame.bytes.len() {
            assert!(
                decode_frame(&frame.bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        let mut extended = frame.bytes;
        extended.push(0);
        assert!(decode_frame(&extended).is_err());
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
        assert_eq!(decode_frame(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn ledger_aggregates_links_kinds_and_losses() {
        let ledger = FrameLedger::default();
        let envs = vec![
            env(1, Payload::Replicate { key: 1, value: 2 }),
            env(2, Payload::Replicate { key: 3, value: 4 }),
        ];
        let frame = encode_frame(&envs);
        ledger.record_frame(&envs, &frame);
        ledger.record_lost(3);
        let s = ledger.summary();
        assert_eq!((s.frames, s.msgs), (1, 2));
        assert_eq!(s.bytes, frame.bytes.len() as u64);
        assert_eq!(s.header_bytes + s.payload_bytes, s.bytes);
        assert_eq!((s.frames_lost, s.msgs_lost), (1, 3));
        assert_eq!(s.decode_errors, 0);
        assert_eq!(s.links, 1);
        assert_eq!(
            s.per_kind,
            vec![("replicate".to_owned(), 2, s.payload_bytes)]
        );
        assert!(s.msgs_per_frame() > 1.9);
        assert!(s.batching_savings() > 0.0);
        let links = ledger.link_bytes();
        assert_eq!(
            links.get(&(NodeId::new(10), NodeId::new(20))),
            Some(&LinkBytes {
                frames: 1,
                msgs: 2,
                bytes: frame.bytes.len() as u64
            })
        );
    }

    #[test]
    fn wrapper_order_selects_fault_granularity() {
        use crate::transport::FaultyTransport;
        use canon_id::rng::Seed;
        let framed_inside = FramedTransport::new(ChannelTransport::new(1));
        let view = framed_inside.framing().expect("framing");
        assert!(!view.per_frame);

        let faulty_outside = FaultyTransport::new(
            FramedTransport::new(ChannelTransport::new(1)),
            Seed(1),
            100,
            0,
        );
        let view = faulty_outside.framing().expect("framing");
        assert!(view.per_frame);

        let faulty_inside = FramedTransport::new(FaultyTransport::new(
            ChannelTransport::new(1),
            Seed(1),
            100,
            0,
        ));
        let view = faulty_inside.framing().expect("framing");
        assert!(!view.per_frame);

        assert!(ChannelTransport::new(1).framing().is_none());
    }
}

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
//! end of the node's round the runtime flushes the outbox
//! (`flush_outbox`). Each staged message's fate and delivery tick were
//! already decided at send time, with its own sequence number, exactly as
//! in an unframed run and in whichever order `FramedTransport` and
//! `FaultyTransport` nest; the flush only coalesces the survivors:
//!
//! 1. sort a scratch vector of `(destination slot, delivery tick, staging
//!    index)` keys — 24 bytes each; the staged envelopes, six times that,
//!    are not moved — and take each run of equal `(slot, tick)` as one
//!    frame;
//! 2. encode the run, read through its indices, into one reusable frame
//!    buffer ([`encode_frame`]); each payload is encoded once, straight
//!    into the frame behind its length prefix;
//! 3. **decode the frame** into a reusable envelope vector
//!    ([`decode_frame`]) — all of it or none of it;
//! 4. only if the whole frame decoded, account its bytes and deliver the
//!    *decoded* envelopes to the destination mailbox under one lock and
//!    one bucket look-up (a frame shares its delivery tick).
//!
//! Every delivered message has round-tripped through the codec, so a
//! framed run exercises encode *and* decode end to end; the equivalence
//! tests pin that its event log is byte-identical to an unframed run.
//!
//! # Where the bytes are counted, and who owns the buffers
//!
//! Each node tallies the frames *it sends* in its own state (a
//! `WireTally`: links keyed by destination, payload kinds in a fixed
//! array), which the flush already holds exclusively — no shared ledger,
//! no lock. [`Runtime::wire_summary`](crate::runtime::Runtime::wire_summary)
//! and [`Runtime::link_bytes`](crate::runtime::Runtime::link_bytes) sum
//! the per-node tallies; every update is an addition, so the totals do
//! not depend on worker scheduling.
//!
//! The buffers a flush works in (the staged vector and its sort keys, the
//! frame bytes, the decoded envelopes — `FlushScratch`) belong to the
//! *worker thread*, not the node: a node's burst-sized outbox would otherwise be
//! retained once per node, a thousand times over, for a buffer only one
//! node per worker uses at a time. The worker lends its staging vector to
//! the node for the round and takes it back at the flush.
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
use crate::msg::Payload;
use crate::node::NodeState;
use crate::transport::{Envelope, Mailboxes, Transport};
use canon_id::NodeId;
use canon_wire::{Decoder, Encoder, WireDecode, WireError};
use std::collections::BTreeMap;

/// Number of [`Payload`] variants, the length of per-kind counter arrays.
const KINDS: usize = Payload::KIND_NAMES.len();

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

/// What decoding one frame found, for the sender's tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameFacts {
    /// Per payload kind (indexed by [`Payload::kind_index`]): messages
    /// and encoded payload bytes.
    pub kinds: [(u64, u64); KINDS],
    /// Total bytes had each message shipped as a frame of its own.
    pub unbatched: u64,
}

/// One node's wire accounting: the frames it sent that were delivered,
/// and decode failures. Counters only ever grow by addition, so summing
/// tallies over nodes is independent of the order rounds ran in.
#[derive(Debug, Default)]
pub(crate) struct WireTally {
    /// Delivered traffic per destination identifier.
    links: BTreeMap<u64, LinkBytes>,
    /// Per payload kind: messages and encoded payload bytes.
    kinds: [(u64, u64); KINDS],
    unbatched_bytes: u64,
    decode_errors: u64,
}

impl WireTally {
    fn record_frame(&mut self, to: NodeId, frame_len: usize, facts: &FrameFacts) {
        let link = self.links.entry(to.raw()).or_default();
        link.frames += 1;
        link.bytes += frame_len as u64;
        for (kind, seen) in self.kinds.iter_mut().zip(&facts.kinds) {
            link.msgs += seen.0;
            kind.0 += seen.0;
            kind.1 += seen.1;
        }
        self.unbatched_bytes += facts.unbatched;
    }

    /// This node's per-link counters, by destination.
    pub(crate) fn links(&self) -> impl Iterator<Item = (NodeId, LinkBytes)> + '_ {
        self.links
            .iter()
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
    /// Sums per-node tallies into the cluster-wide summary.
    pub(crate) fn sum<'a>(tallies: impl IntoIterator<Item = &'a WireTally>) -> WireSummary {
        let mut sum = WireSummary::default();
        let mut kinds = [(0u64, 0u64); KINDS];
        for t in tallies {
            for link in t.links.values() {
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

/// Encodes one frame into `frame`, replacing its contents. Every envelope
/// must share `from`, `to`, `sent_at` and `deliver_at` (the flush groups by
/// exactly those); the shared values are read from the first envelope.
pub fn encode_frame<'a, I>(envs: I, frame: &mut Vec<u8>)
where
    I: IntoIterator<Item = &'a Envelope<Payload>>,
    I::IntoIter: ExactSizeIterator,
{
    let mut envs = envs.into_iter().peekable();
    frame.clear();
    // The body length, patched in below once the body is written.
    frame.extend_from_slice(&[0; 4]);
    if let Some(first) = envs.peek() {
        let mut e = Encoder::new(frame);
        e.encode(&first.from);
        e.encode(&first.to);
        e.varint(first.sent_at);
        e.varint(first.deliver_at);
        e.varint(envs.len() as u64);
    }
    for env in envs {
        let mut e = Encoder::new(frame);
        e.varint(env.seq);
        // Length-prefixed so a decoder can skip payloads it cannot parse
        // and so the payload length is an accounting fact. The payload is
        // encoded in place behind a one-byte slot for its length, which
        // is all the varint of a length below 128 takes.
        e.tag(0);
        let start = e.written();
        e.encode(&env.payload);
        let len = e.written() - start;
        if len < 0x80 {
            frame[start - 1] = len as u8;
        } else {
            // A shard-carrying payload (join grant, leave handoff): the
            // prefix needs more than the slot, so write it again in full.
            let payload = frame.split_off(start);
            frame.pop();
            Encoder::new(frame).bytes(&payload);
        }
    }
    let body = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body.to_le_bytes());
}

/// Decodes a frame, appending its envelopes to `out`. Total: truncation,
/// bad tags, length-prefix mismatches and trailing bytes all surface as
/// [`WireError`], never a panic — and all-or-nothing: on `Err`, `out` is
/// exactly as it was.
pub fn decode_frame(
    bytes: &[u8],
    out: &mut Vec<Envelope<Payload>>,
) -> Result<FrameFacts, WireError> {
    let before = out.len();
    let facts = decode_into(bytes, out);
    if facts.is_err() {
        out.truncate(before);
    }
    facts
}

fn decode_into(bytes: &[u8], out: &mut Vec<Envelope<Payload>>) -> Result<FrameFacts, WireError> {
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
    let sent_at = d.varint()?;
    let deliver_at = d.varint()?;
    // The same message as a singleton frame: fixed header, its own copies
    // of the shared varints, count = 1, then its sequence number and
    // length-prefixed payload.
    let singleton_header = FRAME_FIXED_HEADER + (ticks_start - d.remaining()) + 1;
    let count = d.varint()?;
    let count = usize::try_from(count).map_err(|_| WireError::Truncated)?;
    // Each message takes at least two bytes (seq + length prefix), so an
    // over-claimed count is truncation, caught before allocating.
    if count > d.remaining() {
        return Err(WireError::Truncated);
    }
    out.reserve(count);
    let mut facts = FrameFacts::default();
    for _ in 0..count {
        let msg_start = d.remaining();
        let seq = d.varint()?;
        let payload_bytes = d.bytes()?;
        let payload: Payload = canon_wire::from_bytes(payload_bytes)?;
        let kind = &mut facts.kinds[payload.kind_index()];
        kind.0 += 1;
        kind.1 += payload_bytes.len() as u64;
        facts.unbatched += (singleton_header + (msg_start - d.remaining())) as u64;
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
    Ok(facts)
}

/// The buffers one flush works in, reused from flush to flush. Owned by
/// the worker thread (see the module docs), and empty between flushes.
#[derive(Debug, Default)]
pub(crate) struct FlushScratch {
    /// The outbox being flushed — the same vector the node staged into.
    staged: Vec<(usize, Envelope<Payload>)>,
    /// `(destination slot, delivery tick, index into staged)` per staged
    /// envelope: what the flush sorts in the envelopes' stead.
    keys: Vec<(usize, Tick, usize)>,
    /// The encoded frame.
    frame: Vec<u8>,
    /// The frame's envelopes, decoded.
    decoded: Vec<Envelope<Payload>>,
}

impl FlushScratch {
    /// Lends the staging vector to `state` as its outbox for the round, so
    /// its sends land in capacity the worker keeps; [`flush_outbox`] takes
    /// it back.
    pub(crate) fn lend_outbox(&mut self, state: &mut NodeState) {
        std::mem::swap(&mut state.outbox, &mut self.staged);
    }
}

/// Flushes a node's staged outbox at the end of its round: groups staged
/// messages into frames, runs each frame through encode → decode →
/// account, and delivers the decoded envelopes into the destination
/// mailboxes.
pub(crate) fn flush_outbox(
    boxes: &Mailboxes<Payload>,
    state: &mut NodeState,
    scratch: &mut FlushScratch,
) {
    std::mem::swap(&mut state.outbox, &mut scratch.staged);
    let FlushScratch {
        staged,
        keys,
        frame,
        decoded,
    } = scratch;
    // Group by (destination, delivery tick): the tick was quoted at send
    // time, so only survivors that arrive together coalesce. The staging
    // index rises in staging order, so with it in the key an unstable sort
    // (which never allocates) keeps each group in the order it was staged.
    keys.extend(
        staged
            .iter()
            .enumerate()
            .map(|(at, (slot, env))| (*slot, env.deliver_at, at)),
    );
    keys.sort_unstable();
    for run in keys.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let Some(&(slot, _, first)) = run.first() else {
            continue;
        };
        let to = staged[first].1.to;
        encode_frame(run.iter().map(|&(_, _, at)| &staged[at].1), frame);
        match decode_frame(frame, decoded) {
            Ok(facts) => {
                state.wire.record_frame(to, frame.len(), &facts);
                // Deliver the *decoded* envelopes: every message a framed
                // run processes has round-tripped through the codec.
                boxes.push_batch(slot, decoded);
            }
            // Unreachable for bytes this module just encoded; surfaced as
            // a counter (the equivalence tests assert it stays zero)
            // rather than a panic, per the crate's no-panic policy.
            Err(_) => state.wire.decode_errors += 1,
        }
    }
    keys.clear();
    staged.clear();
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
    fn tally_aggregates_links_and_kinds() {
        let mut tally = WireTally::default();
        let envs = vec![
            env(1, Payload::Replicate { key: 1, value: 2 }),
            env(2, Payload::Replicate { key: 3, value: 4 }),
        ];
        let frame = encode(&envs);
        let facts = decode_frame(&frame, &mut Vec::new()).expect("decode");
        tally.record_frame(NodeId::new(20), frame.len(), &facts);
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

    /// A node with a staged outbox, and mailboxes for `slots` peers.
    fn staged_node(
        slots: usize,
        staged: Vec<(usize, Envelope<Payload>)>,
    ) -> (Mailboxes<Payload>, NodeState) {
        let mut state = NodeState::new(
            NodeId::new(10),
            Default::default(),
            Vec::new(),
            None,
            true,
            &crate::runtime::RuntimeConfig::default(),
        );
        state.outbox = staged;
        (Mailboxes::new(slots), state)
    }

    #[test]
    fn a_run_that_never_coalesces_saves_nothing() {
        // No two messages share (destination, tick): every frame is a
        // singleton, so the counterfactual is the run itself.
        let at = |slot: usize, seq, deliver_at| {
            let mut e = env(seq, Payload::Replicate { key: seq, value: 1 });
            e.to = NodeId::new(20 + slot as u64);
            e.deliver_at = deliver_at;
            (slot, e)
        };
        let staged = vec![at(0, 1, 6), at(1, 2, 6), at(0, 300, 7), at(1, 301, 8)];
        let (boxes, mut state) = staged_node(2, staged);
        flush_outbox(&boxes, &mut state, &mut FlushScratch::default());
        let s = WireSummary::sum([&state.wire]);
        assert_eq!((s.frames, s.msgs, s.links), (4, 4, 2));
        assert_eq!(s.bytes, s.unbatched_bytes);
        assert_eq!(boxes.queued(), 4);
        assert!(state.outbox.is_empty());
    }

    #[test]
    fn flush_groups_by_destination_and_tick_in_staging_order() {
        let to = |slot: usize, seq, key| {
            let mut e = env(seq, Payload::Replicate { key, value: 0 });
            e.to = NodeId::new(20 + slot as u64);
            (slot, e)
        };
        // Interleaved destinations; slot 1's messages must coalesce into
        // one frame, in the order they were staged.
        let staged = vec![to(1, 1, 100), to(0, 2, 200), to(1, 3, 300), to(1, 4, 400)];
        let (boxes, mut state) = staged_node(2, staged);
        flush_outbox(&boxes, &mut state, &mut FlushScratch::default());
        let s = WireSummary::sum([&state.wire]);
        assert_eq!((s.frames, s.msgs, s.links), (2, 4, 2));
        let seqs: Vec<u64> = boxes.drain_due(1, 6).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3, 4]);
        assert_eq!(boxes.drain_due(0, 6).len(), 1);
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

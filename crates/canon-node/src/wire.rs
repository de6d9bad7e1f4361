//! Wire codec for the node runtime's message vocabulary.
//!
//! [`canon_wire`] owns the layout primitives (varints, fixed-width ints,
//! length prefixes, tag bytes); this module pins the **message schema**:
//! one explicit tag byte per enum variant, identifier-space points
//! (node ids, keys, stored values) as fixed 8-byte integers, counters
//! (request ids, ticks, hop counts, lengths) as varints. The tag values
//! are part of the wire format — reordering enum declarations must not
//! change the encoding, so every arm spells its tag literally.
//!
//! Every encode `match` is exhaustive, so a new message variant does not
//! compile without a wire encoding; `tests/wire_roundtrip.rs` round-trips
//! a [`samples`] value of every variant of `Op`, `Command`, `Payload` and
//! `RpcResult`, so it does not pass without a decode arm either.
//!
//! A `Payload::Request` has one reader, `RequestHead`: a hop that only
//! routes a framed request reads its head and forwards the bytes it
//! arrived in, and the typed decode is built on the same reader.
//!
//! The [`samples`] submodule generates deterministic worst-case values per
//! variant for the committed size budget in `results/wire_sizes.json`.

use crate::framed::FrameHeader;
use crate::msg::{Command, JoinGrant, Op, Payload, RpcResult};
use crate::node::RoutedRequest;
use crate::transport::{Envelope, Read};
use canon_id::NodeId;
use canon_wire::{Decoder, Encoder, WireDecode, WireEncode, WireError};

/// Encodes a `(key, value)` entry list: varint count, then fixed 8-byte
/// pairs (shard entries are identifier-space points, not counters).
fn encode_entries(e: &mut Encoder<'_>, entries: &[(u64, u64)]) {
    e.varint(entries.len() as u64);
    for &(k, v) in entries {
        e.u64_fixed(k);
        e.u64_fixed(v);
    }
}

/// Decodes a `(key, value)` entry list written by [`encode_entries`].
fn decode_entries(d: &mut Decoder<'_>) -> Result<Vec<(u64, u64)>, WireError> {
    let len = d.varint()?;
    let len = usize::try_from(len).map_err(|_| WireError::Truncated)?;
    // 16 bytes per entry: an over-claimed count is truncation, caught
    // before allocation.
    if len > d.remaining() / 16 {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let k = d.u64_fixed()?;
        let v = d.u64_fixed()?;
        out.push((k, v));
    }
    Ok(out)
}

/// A [`Payload::Request`] as its receiver reads it: every field but the
/// path decoded, the path's ids checked present but left as bytes, and
/// the request's whole encoding kept beside them. This is the one reader
/// of the Request layout — [`Payload`]'s decode builds the typed request
/// from it — and what lets a hop that only routes a request pass on the
/// bytes it arrived in ([`RequestHead::write_forward`]) instead of
/// decoding and re-encoding them.
#[derive(Clone, Debug)]
pub(crate) struct RequestHead<'a> {
    /// The request's encoding, tag byte through the last path id.
    bytes: &'a [u8],
    pub origin: NodeId,
    pub req: u64,
    pub attempt: u32,
    pub hops: u32,
    pub op: Op,
    /// Where the hop count's varint starts in `bytes`.
    hops_at: usize,
    /// Where the path count's varint starts in `bytes`.
    path_at: usize,
    /// The path's length in ids, which fill the tail of `bytes`.
    path_len: usize,
}

impl<'a> RequestHead<'a> {
    /// Reads a request's head off `d`, positioned just past the tag byte
    /// with which `whole` (the input from that tag on) starts. The path's
    /// ids are skipped, not decoded; the errors are the typed decode's.
    fn read(whole: &'a [u8], d: &mut Decoder<'a>) -> Result<RequestHead<'a>, WireError> {
        let at = |d: &Decoder<'a>| whole.len() - d.remaining();
        let origin = d.decode()?;
        let req = d.varint()?;
        let attempt = d.decode()?;
        let hops_at = at(d);
        let hops = d.decode()?;
        let op = d.decode()?;
        let path_at = at(d);
        let path_len = d.varint()?;
        let path_len = usize::try_from(path_len).map_err(|_| WireError::Truncated)?;
        // 8 bytes per id: an over-claimed count is truncation, caught
        // before anything is sized by it.
        if path_len > d.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        d.take(8 * path_len)?;
        Ok(RequestHead {
            bytes: &whole[..at(d)],
            origin,
            req,
            attempt,
            hops,
            op,
            hops_at,
            path_at,
            path_len,
        })
    }

    /// The path's ids, in hop order.
    fn path(&self) -> impl Iterator<Item = NodeId> + 'a {
        let ids = &self.bytes[self.bytes.len() - 8 * self.path_len..];
        let (ids, _) = ids.as_chunks::<8>();
        ids.iter().map(|id| NodeId::new(u64::from_le_bytes(*id)))
    }

    /// The path with room for one more id: a hop that forwards a typed
    /// cached GET pushes its own id on, and the push must not reallocate.
    /// An empty path — every request but a GET with caching on — stays
    /// `Vec::new()` and allocates nothing.
    fn path_vec(&self) -> Vec<NodeId> {
        if self.path_len == 0 {
            return Vec::new();
        }
        let mut path = Vec::with_capacity(self.path_len + 1);
        path.extend(self.path());
        path
    }

    /// The typed request.
    pub fn routed(&self) -> RoutedRequest {
        let path = self.path_vec();
        (
            self.origin,
            self.req,
            self.attempt,
            self.hops,
            self.op.clone(),
            path,
        )
    }

    /// The typed request as the next hop receives it: one more hop, and
    /// `append`, if any, pushed onto the path.
    pub fn forwarded(&self, append: Option<NodeId>) -> Payload {
        let mut path = self.path_vec();
        path.extend(append);
        Payload::Request {
            origin: self.origin,
            req: self.req,
            attempt: self.attempt,
            hops: self.hops + 1,
            op: self.op.clone(),
            path,
        }
    }

    /// Whether [`RequestHead::write_forward`] can pass the request on as
    /// its bytes: its hop count and its path count each stay a one-byte
    /// varint when bumped. At 127 or more either would grow a byte.
    pub fn forwardable(&self) -> bool {
        self.hops < 0x7f && self.path_len < 0x7f
    }

    /// The length of [`RequestHead::write_forward`]'s encoding.
    pub fn forward_len(&self, append: Option<NodeId>) -> usize {
        self.bytes.len() + if append.is_some() { 8 } else { 0 }
    }

    /// Appends `to_bytes(&self.forwarded(append))` without building it:
    /// the bytes the request arrived in, with the hop count bumped and,
    /// given `append`, the path count bumped and that id written behind
    /// the path. Only for a [forwardable](RequestHead::forwardable) head.
    pub fn write_forward(&self, buf: &mut Vec<u8>, append: Option<NodeId>) {
        debug_assert!(self.forwardable(), "a count would change width");
        let start = buf.len();
        buf.extend_from_slice(self.bytes);
        buf[start + self.hops_at] += 1;
        if let Some(id) = append {
            buf[start + self.path_at] += 1;
            buf.extend_from_slice(&id.raw().to_le_bytes());
        }
    }
}

/// Reads one framed message for the runtime's drain: a request as its
/// head, which a hop that only routes it needs and no more, anything else
/// decoded into an envelope. A message reads exactly when
/// `from_bytes::<Payload>` decodes its payload, and fails with the same
/// error.
pub(crate) fn read_framed<'a>(
    header: &FrameHeader,
    seq: u64,
    payload: &'a [u8],
) -> Result<Read<Payload, RequestHead<'a>>, WireError> {
    // 1 is `Payload::Request`'s tag.
    if payload.first() != Some(&1) {
        return header.envelope(seq, payload).map(Read::Envelope);
    }
    let mut d = Decoder::new(payload);
    d.tag()?;
    let head = RequestHead::read(payload, &mut d)?;
    d.finish()?;
    Ok(Read::Head(head))
}

impl WireEncode for Op {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        match *self {
            Op::Lookup { key } => {
                e.tag(0);
                e.u64_fixed(key);
            }
            Op::Put { key, value } => {
                e.tag(1);
                e.u64_fixed(key);
                e.u64_fixed(value);
            }
            Op::Get { key } => {
                e.tag(2);
                e.u64_fixed(key);
            }
            Op::Join { joiner } => {
                e.tag(3);
                e.encode(&joiner);
            }
        }
    }
}

impl WireDecode for Op {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.tag()? {
            0 => Op::Lookup {
                key: d.u64_fixed()?,
            },
            1 => Op::Put {
                key: d.u64_fixed()?,
                value: d.u64_fixed()?,
            },
            2 => Op::Get {
                key: d.u64_fixed()?,
            },
            3 => Op::Join {
                joiner: d.decode()?,
            },
            tag => return Err(WireError::BadTag { ty: "Op", tag }),
        })
    }
}

impl WireEncode for Command {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        match self {
            Command::Issue(op) => {
                e.tag(0);
                e.encode(op);
            }
            Command::Join { bootstrap } => {
                e.tag(1);
                e.encode(bootstrap);
            }
            Command::Leave => e.tag(2),
        }
    }
}

impl WireDecode for Command {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.tag()? {
            0 => Command::Issue(d.decode()?),
            1 => Command::Join {
                bootstrap: d.decode()?,
            },
            2 => Command::Leave,
            tag => return Err(WireError::BadTag { ty: "Command", tag }),
        })
    }
}

impl WireEncode for JoinGrant {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        e.encode(&self.predecessor);
        e.encode(&self.links);
        e.encode(&self.succ_list);
        encode_entries(e, &self.shard);
    }
}

impl WireDecode for JoinGrant {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(JoinGrant {
            predecessor: d.decode()?,
            links: d.decode()?,
            succ_list: d.decode()?,
            shard: decode_entries(d)?,
        })
    }
}

impl WireEncode for RpcResult {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        match self {
            RpcResult::Found { responsible } => {
                e.tag(0);
                e.encode(responsible);
            }
            RpcResult::Stored { primary, replicas } => {
                e.tag(1);
                e.encode(primary);
                e.encode(replicas);
            }
            RpcResult::Value { value, served_by } => {
                e.tag(2);
                // Stored values are identifier-space hashes: fixed width,
                // not the varint the generic `Option<u64>` impl would use.
                match value {
                    None => e.tag(0),
                    Some(v) => {
                        e.tag(1);
                        e.u64_fixed(*v);
                    }
                }
                e.encode(served_by);
            }
            RpcResult::Granted(grant) => {
                e.tag(3);
                e.encode(grant);
            }
        }
    }
}

impl WireDecode for RpcResult {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match d.tag()? {
            0 => RpcResult::Found {
                responsible: d.decode()?,
            },
            1 => RpcResult::Stored {
                primary: d.decode()?,
                replicas: d.decode()?,
            },
            2 => RpcResult::Value {
                value: match d.tag()? {
                    0 => None,
                    1 => Some(d.u64_fixed()?),
                    tag => return Err(WireError::BadTag { ty: "Value", tag }),
                },
                served_by: d.decode()?,
            },
            3 => RpcResult::Granted(d.decode()?),
            tag => {
                return Err(WireError::BadTag {
                    ty: "RpcResult",
                    tag,
                })
            }
        })
    }
}

impl WireEncode for Payload {
    #[inline]
    fn encode(&self, e: &mut Encoder<'_>) {
        match self {
            Payload::Client(cmd) => {
                e.tag(0);
                e.encode(cmd);
            }
            Payload::Request {
                origin,
                req,
                attempt,
                hops,
                op,
                path,
            } => {
                e.tag(1);
                e.encode(origin);
                e.varint(*req);
                e.encode(attempt);
                e.encode(hops);
                e.encode(op);
                e.encode(path);
            }
            Payload::Response { req, hops, result } => {
                e.tag(2);
                e.varint(*req);
                e.encode(hops);
                e.encode(result);
            }
            Payload::Replicate { key, value } => {
                e.tag(3);
                e.u64_fixed(*key);
                e.u64_fixed(*value);
            }
            Payload::RepairJoin { joined } => {
                e.tag(4);
                e.encode(joined);
            }
            Payload::LeaveHandoff { departing, shard } => {
                e.tag(5);
                e.encode(departing);
                encode_entries(e, shard);
            }
            Payload::LeaveNotice {
                departing,
                successor,
                predecessor,
            } => {
                e.tag(6);
                e.encode(departing);
                e.encode(successor);
                e.encode(predecessor);
            }
            Payload::CacheFill {
                key,
                value,
                stamp,
                owner,
                cid,
                level,
            } => {
                e.tag(7);
                e.u64_fixed(*key);
                e.u64_fixed(*value);
                // Stamps are small monotone counters; cids are
                // identifier-space points.
                e.varint(*stamp);
                e.encode(owner);
                e.u64_fixed(*cid);
                e.encode(level);
            }
            Payload::CacheInvalidate { key, owner, floor } => {
                e.tag(8);
                e.u64_fixed(*key);
                e.encode(owner);
                e.varint(*floor);
            }
        }
    }
}

impl WireDecode for Payload {
    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let whole = d.rest();
        Ok(match d.tag()? {
            0 => Payload::Client(d.decode()?),
            1 => {
                let (origin, req, attempt, hops, op, path) = RequestHead::read(whole, d)?.routed();
                Payload::Request {
                    origin,
                    req,
                    attempt,
                    hops,
                    op,
                    path,
                }
            }
            2 => Payload::Response {
                req: d.varint()?,
                hops: d.decode()?,
                result: d.decode()?,
            },
            3 => Payload::Replicate {
                key: d.u64_fixed()?,
                value: d.u64_fixed()?,
            },
            4 => Payload::RepairJoin {
                joined: d.decode()?,
            },
            5 => Payload::LeaveHandoff {
                departing: d.decode()?,
                shard: decode_entries(d)?,
            },
            6 => Payload::LeaveNotice {
                departing: d.decode()?,
                successor: d.decode()?,
                predecessor: d.decode()?,
            },
            7 => Payload::CacheFill {
                key: d.u64_fixed()?,
                value: d.u64_fixed()?,
                stamp: d.varint()?,
                owner: d.decode()?,
                cid: d.u64_fixed()?,
                level: d.decode()?,
            },
            8 => Payload::CacheInvalidate {
                key: d.u64_fixed()?,
                owner: d.decode()?,
                floor: d.varint()?,
            },
            tag => return Err(WireError::BadTag { ty: "Payload", tag }),
        })
    }
}

impl<M: WireEncode> WireEncode for Envelope<M> {
    fn encode(&self, e: &mut Encoder<'_>) {
        e.encode(&self.from);
        e.encode(&self.to);
        e.varint(self.sent_at);
        e.varint(self.deliver_at);
        e.varint(self.seq);
        e.encode(&self.payload);
    }
}

impl<M: WireDecode> WireDecode for Envelope<M> {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Envelope {
            from: d.decode()?,
            to: d.decode()?,
            sent_at: d.varint()?,
            deliver_at: d.varint()?,
            seq: d.varint()?,
            payload: d.decode()?,
        })
    }
}

pub mod samples {
    //! Deterministic per-variant sample values and encoded-size budgets.
    //!
    //! The first sample of every variant is the bounded worst case (all
    //! numeric fields at `u64::MAX`/`u32::MAX`, collections at the cap
    //! below); later samples are seeded draws. The maximum encoded size per
    //! variant is therefore a stable function of the seed and sample count,
    //! which is what makes `results/wire_sizes.json` a meaningful committed
    //! budget: a variant's bound moves only when its schema does.

    use super::*;
    use canon_id::rng::{splitmix64, Seed};

    /// Collection cap for sampled grants/handoffs: 64 links (one per
    /// identifier bit), 16 successors, 64 shard entries. Real messages can
    /// exceed the shard cap under mass handoff; the budget bounds the
    /// *per-entry* schema, with the count varint free to grow.
    pub const MAX_LINKS: usize = 64;
    /// Sampled successor-list cap (default runtime config uses 8).
    pub const MAX_SUCCS: usize = 16;
    /// Sampled shard-entry cap for grants and handoffs.
    pub const MAX_ENTRIES: usize = 64;
    /// Sampled request-path cap (real paths are bounded by the hop limit).
    pub const MAX_PATH: usize = 32;

    /// A tiny deterministic draw stream over [`splitmix64`] — the samplers
    /// run inside canon-node, whose lint regime bans OS entropy outright.
    struct Draw {
        seed: Seed,
        i: u64,
    }

    impl Draw {
        fn new(seed: Seed) -> Draw {
            Draw { seed, i: 0 }
        }

        fn next(&mut self) -> u64 {
            self.i += 1;
            splitmix64(self.seed.0 ^ splitmix64(self.i))
        }

        fn node(&mut self) -> NodeId {
            NodeId::new(self.next())
        }

        fn nodes(&mut self, max: usize) -> Vec<NodeId> {
            let len = (self.next() as usize) % (max + 1);
            (0..len).map(|_| self.node()).collect()
        }

        fn entries(&mut self, max: usize) -> Vec<(u64, u64)> {
            let len = (self.next() as usize) % (max + 1);
            (0..len).map(|_| (self.next(), self.next())).collect()
        }
    }

    fn full_grant() -> JoinGrant {
        JoinGrant {
            predecessor: NodeId::new(u64::MAX),
            links: vec![NodeId::new(u64::MAX); MAX_LINKS],
            succ_list: vec![NodeId::new(u64::MAX); MAX_SUCCS],
            shard: vec![(u64::MAX, u64::MAX); MAX_ENTRIES],
        }
    }

    fn drawn_grant(d: &mut Draw) -> JoinGrant {
        JoinGrant {
            predecessor: d.node(),
            links: d.nodes(MAX_LINKS),
            succ_list: d.nodes(MAX_SUCCS),
            shard: d.entries(MAX_ENTRIES),
        }
    }

    /// Every [`Op`] variant: `(label, worst case, seeded sample)`.
    fn op_variants(d: &mut Draw) -> Vec<(&'static str, Op, Op)> {
        vec![
            (
                "Op::Lookup",
                Op::Lookup { key: u64::MAX },
                Op::Lookup { key: d.next() },
            ),
            (
                "Op::Put",
                Op::Put {
                    key: u64::MAX,
                    value: u64::MAX,
                },
                Op::Put {
                    key: d.next(),
                    value: d.next(),
                },
            ),
            (
                "Op::Get",
                Op::Get { key: u64::MAX },
                Op::Get { key: d.next() },
            ),
            (
                "Op::Join",
                Op::Join {
                    joiner: NodeId::new(u64::MAX),
                },
                Op::Join { joiner: d.node() },
            ),
        ]
    }

    /// Every [`Command`] variant: `(label, worst case, seeded sample)`.
    /// Not in the size budget: a command reaches the wire only inside
    /// `Payload::Client`.
    fn command_variants(d: &mut Draw) -> Vec<(&'static str, Command, Command)> {
        vec![
            (
                "Command::Issue",
                Command::Issue(Op::Put {
                    key: u64::MAX,
                    value: u64::MAX,
                }),
                Command::Issue(Op::Get { key: d.next() }),
            ),
            (
                "Command::Join",
                Command::Join {
                    bootstrap: NodeId::new(u64::MAX),
                },
                Command::Join {
                    bootstrap: d.node(),
                },
            ),
            ("Command::Leave", Command::Leave, Command::Leave),
        ]
    }

    /// Every [`RpcResult`] variant: `(label, worst case, seeded sample)`.
    fn result_variants(d: &mut Draw) -> Vec<(&'static str, RpcResult, RpcResult)> {
        vec![
            (
                "RpcResult::Found",
                RpcResult::Found {
                    responsible: NodeId::new(u64::MAX),
                },
                RpcResult::Found {
                    responsible: d.node(),
                },
            ),
            (
                "RpcResult::Stored",
                RpcResult::Stored {
                    primary: NodeId::new(u64::MAX),
                    replicas: u32::MAX,
                },
                RpcResult::Stored {
                    primary: d.node(),
                    replicas: (d.next() % 16) as u32,
                },
            ),
            (
                "RpcResult::Value",
                RpcResult::Value {
                    value: Some(u64::MAX),
                    served_by: NodeId::new(u64::MAX),
                },
                RpcResult::Value {
                    value: d.next().is_multiple_of(2).then(|| d.next()),
                    served_by: d.node(),
                },
            ),
            (
                "RpcResult::Granted",
                RpcResult::Granted(full_grant()),
                RpcResult::Granted(drawn_grant(d)),
            ),
        ]
    }

    /// Every [`Payload`] variant: `(label, worst case, seeded sample)`.
    /// The worst-case `Request`/`Response` wrap the largest inner value
    /// (`Op::Put` resp. `RpcResult::Granted`).
    fn payload_variants(d: &mut Draw) -> Vec<(&'static str, Payload, Payload)> {
        vec![
            (
                "Payload::Client",
                Payload::Client(Command::Issue(Op::Put {
                    key: u64::MAX,
                    value: u64::MAX,
                })),
                Payload::Client(Command::Issue(Op::Get { key: d.next() })),
            ),
            (
                "Payload::Request",
                Payload::Request {
                    origin: NodeId::new(u64::MAX),
                    req: u64::MAX,
                    attempt: u32::MAX,
                    hops: u32::MAX,
                    op: Op::Put {
                        key: u64::MAX,
                        value: u64::MAX,
                    },
                    path: vec![NodeId::new(u64::MAX); MAX_PATH],
                },
                Payload::Request {
                    origin: d.node(),
                    req: d.next() % (1 << 20),
                    attempt: (d.next() % 4) as u32,
                    hops: (d.next() % 64) as u32,
                    op: Op::Lookup { key: d.next() },
                    path: d.nodes(MAX_PATH),
                },
            ),
            (
                "Payload::Response",
                Payload::Response {
                    req: u64::MAX,
                    hops: u32::MAX,
                    result: RpcResult::Granted(full_grant()),
                },
                Payload::Response {
                    req: d.next() % (1 << 20),
                    hops: (d.next() % 64) as u32,
                    result: RpcResult::Found {
                        responsible: d.node(),
                    },
                },
            ),
            (
                "Payload::Replicate",
                Payload::Replicate {
                    key: u64::MAX,
                    value: u64::MAX,
                },
                Payload::Replicate {
                    key: d.next(),
                    value: d.next(),
                },
            ),
            (
                "Payload::RepairJoin",
                Payload::RepairJoin {
                    joined: NodeId::new(u64::MAX),
                },
                Payload::RepairJoin { joined: d.node() },
            ),
            (
                "Payload::LeaveHandoff",
                Payload::LeaveHandoff {
                    departing: NodeId::new(u64::MAX),
                    shard: vec![(u64::MAX, u64::MAX); MAX_ENTRIES],
                },
                Payload::LeaveHandoff {
                    departing: d.node(),
                    shard: d.entries(MAX_ENTRIES),
                },
            ),
            (
                "Payload::LeaveNotice",
                Payload::LeaveNotice {
                    departing: NodeId::new(u64::MAX),
                    successor: NodeId::new(u64::MAX),
                    predecessor: NodeId::new(u64::MAX),
                },
                Payload::LeaveNotice {
                    departing: d.node(),
                    successor: d.node(),
                    predecessor: d.node(),
                },
            ),
            (
                "Payload::CacheFill",
                Payload::CacheFill {
                    key: u64::MAX,
                    value: u64::MAX,
                    stamp: u64::MAX,
                    owner: NodeId::new(u64::MAX),
                    cid: u64::MAX,
                    level: u32::MAX,
                },
                Payload::CacheFill {
                    key: d.next(),
                    value: d.next(),
                    stamp: d.next() % (1 << 16),
                    owner: d.node(),
                    cid: d.next(),
                    level: (d.next() % 64) as u32,
                },
            ),
            (
                "Payload::CacheInvalidate",
                Payload::CacheInvalidate {
                    key: u64::MAX,
                    owner: NodeId::new(u64::MAX),
                    floor: u64::MAX,
                },
                Payload::CacheInvalidate {
                    key: d.next(),
                    owner: d.node(),
                    floor: d.next() % (1 << 16),
                },
            ),
        ]
    }

    /// The maximum encoded size per wire-vocabulary variant over the
    /// bounded worst case plus `samples` seeded draws — the generator
    /// behind `results/wire_sizes.json` and its regression gate. Labels
    /// are `Enum::Variant`; the list is deterministic in `(seed, samples)`.
    pub fn max_encoded_sizes(seed: Seed, samples: usize) -> Vec<(String, usize)> {
        fn fold<T: WireEncode>(
            out: &mut Vec<(String, usize)>,
            seed: Seed,
            samples: usize,
            label: &str,
            variants: impl Fn(&mut Draw) -> Vec<(&'static str, T, T)>,
        ) {
            let mut sizes: Vec<(String, usize)> = Vec::new();
            for round in 0..samples.max(1) {
                let mut d = Draw::new(seed.derive(label).derive_index(round as u64));
                for (name, worst, drawn) in variants(&mut d) {
                    let len = canon_wire::to_bytes(&worst)
                        .len()
                        .max(canon_wire::to_bytes(&drawn).len());
                    match sizes.iter_mut().find(|(n, _)| n == name) {
                        Some((_, max)) => *max = (*max).max(len),
                        None => sizes.push((name.to_owned(), len)),
                    }
                }
            }
            out.append(&mut sizes);
        }
        let mut out = Vec::new();
        fold(&mut out, seed, samples, "op", op_variants);
        fold(&mut out, seed, samples, "result", result_variants);
        fold(&mut out, seed, samples, "payload", payload_variants);
        out
    }

    /// One value per variant of a list: the worst case for `round == 0`,
    /// a seeded draw otherwise.
    fn pick<T>(
        seed: Seed,
        round: u64,
        variants: impl Fn(&mut Draw) -> Vec<(&'static str, T, T)>,
    ) -> Vec<T> {
        let mut d = Draw::new(seed.derive_index(round));
        variants(&mut d)
            .into_iter()
            .map(|(_, worst, drawn)| if round == 0 { worst } else { drawn })
            .collect()
    }

    /// One seeded sample value per [`Op`] variant (worst case for
    /// `round == 0`).
    pub fn sample_ops(seed: Seed, round: u64) -> Vec<Op> {
        pick(seed, round, op_variants)
    }

    /// One seeded sample value per [`Command`] variant (worst case for
    /// `round == 0`).
    pub fn sample_commands(seed: Seed, round: u64) -> Vec<Command> {
        pick(seed, round, command_variants)
    }

    /// One seeded sample value per [`RpcResult`] variant (worst case for
    /// `round == 0`).
    pub fn sample_results(seed: Seed, round: u64) -> Vec<RpcResult> {
        pick(seed, round, result_variants)
    }

    /// One seeded sample value per [`Payload`] variant (worst case for
    /// `round == 0`) — the corpus the round-trip and size tests share.
    pub fn sample_payloads(seed: Seed, round: u64) -> Vec<Payload> {
        pick(seed, round, payload_variants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_id::rng::Seed;
    use canon_wire::{from_bytes, to_bytes};

    #[test]
    fn request_layout_is_pinned() {
        // The golden bytes below are the wire format: tag 1, origin as
        // 8-byte LE, then varints req/attempt/hops, then the op. Changing
        // any of them is a protocol break, not a refactor.
        let p = Payload::Request {
            origin: NodeId::new(2),
            req: 300,
            attempt: 1,
            hops: 3,
            op: Op::Lookup { key: 5 },
            path: vec![NodeId::new(9)],
        };
        assert_eq!(
            to_bytes(&p),
            [
                1, // Payload::Request
                2, 0, 0, 0, 0, 0, 0, 0, // origin
                0xac, 0x02, // req = 300
                1,    // attempt
                3,    // hops
                0,    // Op::Lookup
                5, 0, 0, 0, 0, 0, 0, 0, // key
                1, // path length
                9, 0, 0, 0, 0, 0, 0, 0, // path[0]
            ]
        );
    }

    #[test]
    fn a_decoded_path_has_room_for_the_next_hop_and_an_empty_one_has_none() {
        let request = |path: Vec<NodeId>| Payload::Request {
            origin: NodeId::new(2),
            req: 1,
            attempt: 0,
            hops: 1,
            op: Op::Get { key: 5 },
            path,
        };
        let decoded_path = |path: Vec<NodeId>| match from_bytes(&to_bytes(&request(path))) {
            Ok(Payload::Request { path, .. }) => path,
            other => panic!("a request decodes as one: {other:?}"),
        };
        let empty = decoded_path(Vec::new());
        assert_eq!(empty.capacity(), 0, "an empty path allocates nothing");
        for len in [1, 2, 7] {
            let sent: Vec<NodeId> = (0..len).map(NodeId::new).collect();
            let path = decoded_path(sent.clone());
            assert_eq!(path, sent);
            assert!(
                path.capacity() > path.len(),
                "a {len}-id path must take a push without reallocating"
            );
        }
    }

    #[test]
    fn cache_message_layouts_are_pinned() {
        let fill = Payload::CacheFill {
            key: 5,
            value: 6,
            stamp: 300,
            owner: NodeId::new(2),
            cid: 7,
            level: 4,
        };
        assert_eq!(
            to_bytes(&fill),
            [
                7, // Payload::CacheFill
                5, 0, 0, 0, 0, 0, 0, 0, // key
                6, 0, 0, 0, 0, 0, 0, 0, // value
                0xac, 0x02, // stamp = 300
                2, 0, 0, 0, 0, 0, 0, 0, // owner
                7, 0, 0, 0, 0, 0, 0, 0, // cid
                4, // level
            ]
        );
        let inv = Payload::CacheInvalidate {
            key: 5,
            owner: NodeId::new(2),
            floor: 300,
        };
        assert_eq!(
            to_bytes(&inv),
            [
                8, // Payload::CacheInvalidate
                5, 0, 0, 0, 0, 0, 0, 0, // key
                2, 0, 0, 0, 0, 0, 0, 0, // owner
                0xac, 0x02, // floor = 300
            ]
        );
        for p in [fill, inv] {
            let bytes = to_bytes(&p);
            assert_eq!(from_bytes::<Payload>(&bytes).expect("decode"), p);
        }
    }

    #[test]
    fn envelope_roundtrips() {
        let env = Envelope {
            from: NodeId::new(7),
            to: NodeId::new(11),
            sent_at: 40,
            deliver_at: 43,
            seq: 9,
            payload: Payload::Replicate { key: 1, value: 2 },
        };
        let bytes = to_bytes(&env);
        let back: Envelope<Payload> = from_bytes(&bytes).expect("decode");
        assert_eq!(back.payload, env.payload);
        assert_eq!(
            (back.from, back.to, back.sent_at, back.deliver_at, back.seq),
            (env.from, env.to, env.sent_at, env.deliver_at, env.seq)
        );
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn unknown_tags_fail_cleanly() {
        for ty in [9u8, 200] {
            assert!(from_bytes::<Op>(&[ty]).is_err());
            assert!(from_bytes::<Payload>(&[ty]).is_err());
            assert!(from_bytes::<RpcResult>(&[ty]).is_err());
            assert!(from_bytes::<Command>(&[ty]).is_err());
        }
        // Tag 4 names no variant of either enum, so it fails with a whole
        // body behind it too: a key, or a node id and a count.
        let key = [4, 5, 0, 0, 0, 0, 0, 0, 0];
        assert!(from_bytes::<Op>(&key).is_err());
        let answer = [4, 2, 0, 0, 0, 0, 0, 0, 0, 3];
        assert!(from_bytes::<RpcResult>(&answer).is_err());
    }

    #[test]
    fn entry_lists_reject_overclaimed_counts() {
        // A LeaveHandoff claiming 2^40 entries with almost no bytes behind
        // it must fail before allocating.
        let mut bytes = vec![5u8]; // Payload::LeaveHandoff
        bytes.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0]); // departing
        let mut enc = canon_wire::to_bytes(&(1u64 << 40));
        bytes.append(&mut enc);
        assert!(from_bytes::<Payload>(&bytes).is_err());
    }

    #[test]
    fn size_samples_are_deterministic_and_complete() {
        let a = samples::max_encoded_sizes(Seed(9), 8);
        let b = samples::max_encoded_sizes(Seed(9), 8);
        assert_eq!(a, b);
        // 4 ops + 4 results + 9 payloads.
        assert_eq!(a.len(), 17);
        for (label, size) in &a {
            assert!(*size > 0, "{label} has zero size");
        }
    }
}

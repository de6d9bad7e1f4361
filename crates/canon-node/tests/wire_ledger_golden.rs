//! Frame bytes and wire accounting pinned against the commit *before* the
//! delivery path was rebuilt (tick-bucketed mailboxes, in-place flush,
//! per-node tallies): every constant below was captured from that commit's
//! `encode_frame` and `FrameLedger`, so the rewrite is held to the old
//! code's output, not to its own.
//!
//! `unbatched_bytes` is deliberately not pinned: the old encoder left each
//! message's sequence-number varint out of the batching counterfactual,
//! and the rewrite fixes that.

use canon::crescendo::build_crescendo;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::framed::{decode_frame, encode_frame};
use canon_node::transport::Envelope;
use canon_node::{
    from_graph, ChannelTransport, Command, FaultyTransport, FramedTransport, Op, Payload,
    RuntimeConfig, Transport, VirtualClock,
};
use std::sync::Arc;

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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Encodes `envs`, checks the bytes against `golden`, and checks the
/// frame decodes back to `envs`.
fn assert_frame(envs: &[Envelope<Payload>], golden: &str) {
    let mut frame = Vec::new();
    encode_frame(envs, &mut frame);
    assert_eq!(hex(&frame), golden);
    let mut decoded = Vec::new();
    decode_frame(&frame, &mut decoded).expect("golden frame decodes");
    assert_eq!(decoded.len(), envs.len());
    for (d, e) in decoded.iter().zip(envs) {
        assert_eq!(
            (d.from, d.to, d.sent_at, d.deliver_at, d.seq, &d.payload),
            (e.from, e.to, e.sent_at, e.deliver_at, e.seq, &e.payload)
        );
    }
}

#[test]
fn frame_bytes_match_the_parent_encoder() {
    // The three-message frame of the framed module's round-trip unit test.
    assert_frame(
        &[
            env(1, Payload::Replicate { key: 7, value: 8 }),
            env(
                2,
                Payload::RepairJoin {
                    joined: NodeId::new(3),
                },
            ),
            env(3, Payload::Client(Command::Issue(Op::Lookup { key: 4 }))),
        ],
        "3e0000000a00000000000000140000000000000005060301110307000000000000000800000000000000\
         0209040300000000000000030b0000000400000000000000",
    );
    // A GET carrying a two-node path (two-byte sequence numbers), then a
    // replica write coalesced behind it.
    let get = env(
        300,
        Payload::Request {
            origin: NodeId::new(10),
            req: 3,
            attempt: 0,
            hops: 2,
            op: Op::Get { key: 77 },
            path: vec![NodeId::new(10), NodeId::new(15)],
        },
    );
    assert_frame(
        &[
            get.clone(),
            env(301, Payload::Replicate { key: 1, value: 2 }),
        ],
        "500000000a000000000000001400000000000000050602ac0226010a00000000000000030002024d0000\
         0000000000020a000000000000000f00000000000000ad02110301000000000000000200000000000000",
    );
    // The GET alone.
    assert_frame(
        &[get],
        "3c0000000a000000000000001400000000000000050601ac0226010a00000000000000030002024d0000\
         0000000000020a000000000000000f00000000000000",
    );
}

/// The parent's wire accounting for transport stacks over the storm.
struct Golden {
    /// The stacks that must all reproduce this row.
    stacks: &'static [&'static str],
    frames: u64,
    msgs: u64,
    bytes: u64,
    header_bytes: u64,
    payload_bytes: u64,
    links: u64,
    per_kind: [(&'static str, u64, u64); 3],
    /// FNV-1a over every `(from, to, frames, msgs, bytes)` of
    /// `Runtime::link_bytes`, in key order.
    link_digest: u64,
}

const GOLDEN: [Golden; 2] = [
    Golden {
        stacks: &["Framed<Channel>"],
        frames: 1656,
        msgs: 2932,
        bytes: 106_340,
        header_bytes: 43_952,
        payload_bytes: 62_388,
        links: 1065,
        per_kind: [
            ("replicate", 400, 6800),
            ("request", 1940, 48_088),
            ("response", 592, 7500),
        ],
        link_digest: 0x1002_e061_9365_8316,
    },
    Golden {
        // A message's fate is decided once, at send, whichever way the
        // fault and framing wrappers nest.
        stacks: &["Framed<Faulty>", "Faulty<Framed>"],
        frames: 3093,
        msgs: 3286,
        bytes: 149_581,
        header_bytes: 78_327,
        payload_bytes: 71_254,
        links: 1057,
        per_kind: [
            ("replicate", 398, 6766),
            ("request", 2304, 57_088),
            ("response", 584, 7400),
        ],
        link_digest: 0xa1e9_fd1d_de3c_4061,
    },
];

/// The three stacks: clean, and faults inside or outside the framer.
fn stack(name: &str) -> Arc<dyn Transport> {
    let faulty = (Seed(1234), 80, 3);
    match name {
        "Framed<Channel>" => Arc::new(FramedTransport::new(ChannelTransport::new(1))),
        "Framed<Faulty>" => Arc::new(FramedTransport::new(FaultyTransport::new(
            ChannelTransport::new(2),
            faulty.0,
            faulty.1,
            faulty.2,
        ))),
        "Faulty<Framed>" => Arc::new(FaultyTransport::new(
            FramedTransport::new(ChannelTransport::new(2)),
            faulty.0,
            faulty.1,
            faulty.2,
        )),
        other => unreachable!("no stack named {other}"),
    }
}

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The 96-node, 600-command storm of `framed_equivalence.rs` over `stack`.
fn assert_storm(golden: &Golden, stack_name: &str, threads: usize) {
    canon_par::with_threads(threads, || {
        let h = Hierarchy::balanced(4, 2);
        let p = Placement::uniform(&h, 96, Seed(42));
        let net = build_crescendo(&h, &p);
        let mut rt = from_graph(
            net.graph(),
            Arc::new(VirtualClock::new()),
            stack(stack_name),
            RuntimeConfig::default(),
        );
        let ids = rt.ids();
        let base = Seed(7).derive("determinism-storm");
        for i in 0..600u64 {
            let r = base.derive_index(i).0;
            let origin = ids[(r % ids.len() as u64) as usize];
            let key = base.derive_index(i).derive("key").0;
            let cmd = match i % 3 {
                0 => Command::Issue(Op::Lookup { key }),
                1 => Command::Issue(Op::Put { key, value: r }),
                _ => Command::Issue(Op::Get { key }),
            };
            rt.inject(origin, cmd);
        }
        rt.run_until_idle();

        let what = format!("{stack_name} at {threads} threads");
        let wire = rt.wire_summary().expect("framed stack");
        assert_eq!(
            (wire.frames, wire.msgs, wire.bytes),
            (golden.frames, golden.msgs, golden.bytes),
            "{what}"
        );
        assert_eq!(
            (wire.header_bytes, wire.payload_bytes),
            (golden.header_bytes, golden.payload_bytes),
            "{what}"
        );
        assert_eq!(wire.decode_errors, 0, "{what}");
        assert_eq!(wire.links, golden.links, "{what}");
        let per_kind: Vec<(&str, u64, u64)> = wire
            .per_kind
            .iter()
            .map(|(kind, msgs, bytes)| (kind.as_str(), *msgs, *bytes))
            .collect();
        assert_eq!(per_kind, golden.per_kind, "{what}");
        // The counterfactual ships every message alone, so it can only
        // cost more; the parent's figure left the sequence numbers out.
        assert!(wire.unbatched_bytes >= wire.bytes, "{what}");

        let links = rt.link_bytes().expect("framed stack");
        assert_eq!(links.len() as u64, golden.links, "{what}");
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for (&(from, to), link) in &links {
            for value in [from.raw(), to.raw(), link.frames, link.msgs, link.bytes] {
                fnv1a(&mut digest, value);
            }
        }
        assert_eq!(digest, golden.link_digest, "{what}: link_bytes digest");
    });
}

#[test]
fn summed_node_tallies_match_the_parent_ledger_at_every_worker_count() {
    for golden in &GOLDEN {
        for stack_name in golden.stacks {
            for threads in [1, 3, 4, 8] {
                assert_storm(golden, stack_name, threads);
            }
        }
    }
}

//! Property tests for the wire codec over the full message vocabulary:
//! `decode(encode(x)) == x` for every type, encode-after-decode is
//! byte-identical, every strict prefix of a valid encoding fails to
//! decode, and decoding arbitrary byte soup never panics. One
//! deterministic test pins that every variant of every vocabulary enum is
//! sampled and decodes what it encodes, and another pins the exact
//! outcome of decoding damaged copies of the samples.

use canon_id::hash::Fnv;
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_node::framed::{decode_frame, encode_frame};
use canon_node::msg::{Command, JoinGrant, Op, Payload, RpcResult};
use canon_node::transport::Envelope;
use canon_node::wire::samples;
use canon_wire::{from_bytes, to_bytes, WireDecode, WireEncode};
use proptest::collection::vec;
use proptest::prelude::*;

/// Full-cycle check: value → bytes → value → bytes.
fn roundtrip<T>(x: &T) -> Result<(), proptest::test_runner::TestCaseError>
where
    T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let bytes = to_bytes(x);
    let back: T = match from_bytes(&bytes) {
        Ok(v) => v,
        Err(e) => return Err(proptest::test_runner::TestCaseError::fail(format!("{e}"))),
    };
    prop_assert_eq!(&back, x);
    // Deterministic codec: re-encoding the decoded value reproduces the
    // exact bytes.
    prop_assert_eq!(to_bytes(&back), bytes);
    // Length-explicit grammar: no strict prefix of a valid encoding is
    // itself a valid encoding.
    for cut in 0..bytes.len() {
        prop_assert!(
            from_bytes::<T>(&bytes[..cut]).is_err(),
            "prefix of length {} decoded",
            cut
        );
    }
    Ok(())
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    any::<u64>().prop_map(NodeId::new)
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u64>(), any::<u64>()).prop_map(|(sel, a, b)| match sel % 4 {
        0 => Op::Lookup { key: a },
        1 => Op::Put { key: a, value: b },
        2 => Op::Get { key: a },
        _ => Op::Join {
            joiner: NodeId::new(a),
        },
    })
}

fn arb_command() -> impl Strategy<Value = Command> {
    (any::<u8>(), arb_op(), any::<u64>()).prop_map(|(sel, op, b)| match sel % 3 {
        0 => Command::Issue(op),
        1 => Command::Join {
            bootstrap: NodeId::new(b),
        },
        _ => Command::Leave,
    })
}

fn arb_grant() -> impl Strategy<Value = JoinGrant> {
    (
        arb_node(),
        vec(arb_node(), 0..8),
        vec(arb_node(), 0..8),
        vec((any::<u64>(), any::<u64>()), 0..8),
    )
        .prop_map(|(predecessor, links, succ_list, shard)| JoinGrant {
            predecessor,
            links,
            succ_list,
            shard,
        })
}

fn arb_result() -> impl Strategy<Value = RpcResult> {
    (
        any::<u8>(),
        arb_node(),
        any::<u32>(),
        (any::<bool>(), any::<u64>()),
        arb_grant(),
    )
        .prop_map(|(sel, node, count, (some, value), grant)| match sel % 4 {
            0 => RpcResult::Found { responsible: node },
            1 => RpcResult::Stored {
                primary: node,
                replicas: count,
            },
            2 => RpcResult::Value {
                value: some.then_some(value),
                served_by: node,
            },
            _ => RpcResult::Granted(grant),
        })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    (
        any::<u8>(),
        arb_command(),
        arb_result(),
        arb_grant(),
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
    )
        .prop_map(|(sel, cmd, result, grant, (a, b, attempt, hops))| {
            let op = match &cmd {
                Command::Issue(op) => op.clone(),
                _ => Op::Get { key: a },
            };
            match sel % 9 {
                0 => Payload::Client(cmd),
                1 => Payload::Request {
                    origin: NodeId::new(a),
                    req: b,
                    attempt,
                    hops,
                    op,
                    path: vec![NodeId::new(b ^ 1), NodeId::new(a.rotate_left(7))]
                        [..(hops as usize % 3).min(2)]
                        .to_vec(),
                },
                2 => Payload::Response {
                    req: b,
                    hops,
                    result,
                },
                3 => Payload::Replicate { key: a, value: b },
                4 => Payload::RepairJoin {
                    joined: NodeId::new(a),
                },
                5 => Payload::LeaveHandoff {
                    departing: NodeId::new(a),
                    shard: grant.shard,
                },
                6 => Payload::LeaveNotice {
                    departing: NodeId::new(a),
                    successor: NodeId::new(b),
                    predecessor: grant.predecessor,
                },
                7 => Payload::CacheFill {
                    key: a,
                    value: b,
                    stamp: a ^ b,
                    owner: NodeId::new(b),
                    cid: a.wrapping_mul(31),
                    level: hops,
                },
                _ => Payload::CacheInvalidate {
                    key: a,
                    owner: NodeId::new(b),
                    floor: b.wrapping_add(1),
                },
            }
        })
}

fn arb_envelope() -> impl Strategy<Value = Envelope<Payload>> {
    (
        arb_node(),
        arb_node(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        arb_payload(),
    )
        .prop_map(|(from, to, (sent_at, deliver_at, seq), payload)| Envelope {
            from,
            to,
            sent_at,
            deliver_at,
            seq,
            payload,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ops_roundtrip(op in arb_op()) {
        roundtrip(&op)?;
    }

    #[test]
    fn commands_roundtrip(cmd in arb_command()) {
        roundtrip(&cmd)?;
    }

    #[test]
    fn grants_roundtrip(grant in arb_grant()) {
        roundtrip(&grant)?;
    }

    #[test]
    fn results_roundtrip(result in arb_result()) {
        roundtrip(&result)?;
    }

    #[test]
    fn payloads_roundtrip(payload in arb_payload()) {
        roundtrip(&payload)?;
    }

    #[test]
    fn envelopes_roundtrip(env in arb_envelope()) {
        // `Envelope`'s PartialEq compares only the mailbox ordering key,
        // so compare every field (payload included) explicitly.
        let bytes = to_bytes(&env);
        let back: Envelope<Payload> = match from_bytes(&bytes) {
            Ok(v) => v,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(format!("{e}"))),
        };
        prop_assert_eq!(back.from, env.from);
        prop_assert_eq!(back.to, env.to);
        prop_assert_eq!(back.sent_at, env.sent_at);
        prop_assert_eq!(back.deliver_at, env.deliver_at);
        prop_assert_eq!(back.seq, env.seq);
        prop_assert_eq!(&back.payload, &env.payload);
        prop_assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn decoding_byte_soup_never_panics(bytes in vec(any::<u8>(), 0..64)) {
        let _ = from_bytes::<Op>(&bytes);
        let _ = from_bytes::<Command>(&bytes);
        let _ = from_bytes::<JoinGrant>(&bytes);
        let _ = from_bytes::<RpcResult>(&bytes);
        let _ = from_bytes::<Payload>(&bytes);
        let _ = from_bytes::<Envelope<Payload>>(&bytes);
    }
}

// Declaration-order variant indices. No wildcard arms: a new variant does
// not compile until it has an index here, and the test below fails until
// `wire::samples` draws it and the codec decodes it.

const OP_VARIANTS: usize = 4;

fn op_index(op: &Op) -> usize {
    match op {
        Op::Lookup { .. } => 0,
        Op::Put { .. } => 1,
        Op::Get { .. } => 2,
        Op::Join { .. } => 3,
    }
}

const COMMAND_VARIANTS: usize = 3;

fn command_index(cmd: &Command) -> usize {
    match cmd {
        Command::Issue(_) => 0,
        Command::Join { .. } => 1,
        Command::Leave => 2,
    }
}

const RESULT_VARIANTS: usize = 4;

fn result_index(result: &RpcResult) -> usize {
    match result {
        RpcResult::Found { .. } => 0,
        RpcResult::Stored { .. } => 1,
        RpcResult::Value { .. } => 2,
        RpcResult::Granted(_) => 3,
    }
}

/// Round-trips every sample of rounds `0..8` (the worst cases, then
/// seeded draws) and checks their variant indices are exactly
/// `0..variants`.
fn every_variant_roundtrips<T>(
    what: &str,
    sample: impl Fn(Seed, u64) -> Vec<T>,
    index: impl Fn(&T) -> usize,
    variants: usize,
) where
    T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let mut seen = std::collections::BTreeSet::new();
    for round in 0..8 {
        for value in sample(Seed(27), round) {
            if let Err(e) = roundtrip(&value) {
                panic!("{what} sample {value:?} does not round-trip: {e:?}");
            }
            seen.insert(index(&value));
        }
    }
    assert_eq!(
        seen,
        (0..variants).collect(),
        "wire::samples must draw every {what} variant"
    );
}

#[test]
fn every_wire_variant_decodes_what_it_encodes() {
    every_variant_roundtrips("Op", samples::sample_ops, op_index, OP_VARIANTS);
    every_variant_roundtrips(
        "Command",
        samples::sample_commands,
        command_index,
        COMMAND_VARIANTS,
    );
    every_variant_roundtrips(
        "RpcResult",
        samples::sample_results,
        result_index,
        RESULT_VARIANTS,
    );
    every_variant_roundtrips(
        "Payload",
        samples::sample_payloads,
        Payload::kind_index,
        Payload::KIND_NAMES.len(),
    );
}

// ----- decode-outcome golden -----
//
// The tests above check that malformed input is rejected; this one pins
// *how*: the exact `Result` — the decoded value, or the exact `WireError`
// with its type name and byte — for every strict prefix, every
// single-byte flip to 0xff and every one-byte extension of each sample
// encoding and of whole frames. A decoder rewrite must reproduce every
// outcome, so the digests below only move with the wire format itself.

/// Feeds one decode outcome into `h`, as its `Debug` form.
fn feed(h: &mut Fnv, outcome: &impl std::fmt::Debug) {
    h.bytes(format!("{outcome:?}").as_bytes());
    h.bytes(&[0]);
}

/// Feeds `decode`'s outcome on every strict prefix of `bytes`, on `bytes`
/// with each byte in turn set to 0xff, and on `bytes` plus a trailing
/// zero.
fn probe<R: std::fmt::Debug>(h: &mut Fnv, bytes: &[u8], decode: impl Fn(&[u8]) -> R) {
    for cut in 0..bytes.len() {
        feed(h, &decode(&bytes[..cut]));
    }
    let mut flipped = bytes.to_vec();
    for i in 0..bytes.len() {
        let byte = std::mem::replace(&mut flipped[i], 0xff);
        feed(h, &decode(&flipped));
        flipped[i] = byte;
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    feed(h, &decode(&longer));
}

/// The digest of [`probe`] over every sample of rounds `0..8`.
fn value_digest<T>(sample: impl Fn(Seed, u64) -> Vec<T>) -> u64
where
    T: WireEncode + WireDecode + std::fmt::Debug,
{
    let mut h = Fnv::default();
    for round in 0..8 {
        for value in sample(Seed(27), round) {
            probe(&mut h, &to_bytes(&value), from_bytes::<T>);
        }
    }
    h.finish()
}

/// Every sample payload of a round, as envelopes of one frame: one
/// sender, one destination, one tick pair, consecutive sequence numbers.
fn sample_envelopes(seed: Seed, round: u64) -> Vec<Envelope<Payload>> {
    samples::sample_payloads(seed, round)
        .into_iter()
        .zip(0u64..)
        .map(|(payload, i)| Envelope {
            from: NodeId::new(round + 1),
            to: NodeId::new(u64::MAX - round),
            sent_at: round * 300,
            deliver_at: round * 300 + 3,
            seq: (round << 20) + i,
            payload,
        })
        .collect()
}

fn frame_digest() -> u64 {
    let mut h = Fnv::default();
    let mut frame = Vec::new();
    for round in 0..8 {
        encode_frame(&sample_envelopes(Seed(27), round), &mut frame);
        probe(&mut h, &frame, |bytes| {
            let mut out = Vec::new();
            let facts = decode_frame(bytes, &mut out);
            (facts, out)
        });
    }
    h.finish()
}

/// Per-input-class digests of every decode outcome.
const DECODE_GOLDEN: [(&str, u64); 6] = [
    ("Op", 0x139ae2e2f7ad056a),
    ("Command", 0xcea269436aa1add9),
    ("RpcResult", 0x6392715db583cce1),
    ("Payload", 0xc9ef908c6aa8e13e),
    ("Envelope<Payload>", 0x9d4857b83874112d),
    ("frame", 0x78998d242fb9ef06),
];

#[test]
fn decode_outcomes_match_their_golden_digests() {
    let got = [
        ("Op", value_digest(samples::sample_ops)),
        ("Command", value_digest(samples::sample_commands)),
        ("RpcResult", value_digest(samples::sample_results)),
        ("Payload", value_digest(samples::sample_payloads)),
        ("Envelope<Payload>", value_digest(sample_envelopes)),
        ("frame", frame_digest()),
    ];
    let table: String = got
        .iter()
        .map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(
        got, DECODE_GOLDEN,
        "decode outcomes moved; if the wire format changed on purpose, the new table is:\n{table}"
    );
}

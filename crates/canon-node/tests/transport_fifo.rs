//! Property test: the channel transport delivers FIFO per ordered pair of
//! nodes.
//!
//! The mailbox heap orders delivery by `(deliver_at, from, seq)`. With a
//! constant-latency transport that key is monotone in send order for any
//! fixed sender, so for every ordered pair `(sender, receiver)` the
//! receiver drains that sender's messages exactly in the order they were
//! sent — no matter how sends from different senders interleave in time.

use canon_id::NodeId;
use canon_node::transport::{ChannelTransport, Envelope, Mailboxes, Transport};
use canon_node::Tick;
use proptest::prelude::*;

/// An envelope sent at `now`, due at `deliver_at`.
fn env<M>(now: Tick, deliver_at: Tick, from: NodeId, seq: u64, payload: M) -> Envelope<M> {
    Envelope {
        from,
        to: NodeId::new(0),
        sent_at: now,
        deliver_at,
        seq,
        payload,
    }
}

/// A send script: for each message, which of four senders issues it and
/// how many ticks the clock advances first.
fn script() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..4, 0u64..3), 1..120)
}

proptest! {
    #[test]
    fn channel_transport_is_fifo_per_ordered_pair(
        sends in script(),
        latency in 1u64..6,
    ) {
        let boxes: Mailboxes<u64> = Mailboxes::new(1);
        let transport = ChannelTransport::new(latency);
        let mut now = 0u64;
        let mut seq = [0u64; 4];
        // Replay the script: per-sender seq counters increase in send
        // order, exactly as a node allocates them, and each message is
        // scheduled through the transport, then pushed, as a node sends.
        for (i, &(sender, advance)) in sends.iter().enumerate() {
            now += advance;
            seq[sender as usize] += 1;
            let (from, n) = (NodeId::new(sender as u64 + 1), seq[sender as usize]);
            let deliver_at = transport
                .schedule(now, from, NodeId::new(0), n)
                .expect("channel transport never drops");
            boxes.push(0, env(now, deliver_at, from, n, i as u64));
        }

        // Drain everything and check each sender's subsequence is in send
        // order.
        let drained = boxes.drain_due(0, now + latency);
        prop_assert_eq!(drained.len(), sends.len());
        let mut last_sent: [Option<u64>; 4] = [None; 4];
        for env in &drained {
            let sender = (env.from.raw() - 1) as usize;
            if let Some(prev) = last_sent[sender] {
                prop_assert!(
                    prev < env.payload,
                    "sender {} delivered message {} after {}",
                    sender,
                    env.payload,
                    prev
                );
            }
            last_sent[sender] = Some(env.payload);
        }
    }

    /// Delivery ticks respect the quoted latency exactly.
    #[test]
    fn channel_transport_quotes_exact_latency(
        latency in 1u64..10,
        now in 0u64..1_000_000,
    ) {
        let t = ChannelTransport::new(latency);
        let boxes: Mailboxes<u8> = Mailboxes::new(1);
        let deliver = t.schedule(now, NodeId::new(1), NodeId::new(0), 0).unwrap();
        prop_assert_eq!(deliver, now + latency);
        boxes.push(0, env(now, deliver, NodeId::new(1), 0, 0u8));
        prop_assert!(boxes.drain_due(0, deliver - 1).is_empty());
        prop_assert_eq!(boxes.drain_due(0, deliver).len(), 1);
    }
}

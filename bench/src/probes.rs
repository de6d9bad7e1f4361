//! Layer probes: each layer's public entry points timed in isolation, on
//! the inputs of the cycle that just ran.
//!
//! The drive loop can only time whole rounds; what a single message costs
//! inside the codec, the router, a shard, a cache, a mailbox or the RPC
//! table is measured here, from outside, by calling that layer directly.
//! Probe cost × the count pass's per-request counts gives the `attrib.*`
//! shares; what they do not cover is the residual only tracing inside the
//! program can split.

use crate::cycle::{runtime_config, CycleOut};
use crate::oracle::owner_index;
use crate::trace::Tracer;
use crate::workloads::{Cmd, Spec};
use canon_id::metric::Clockwise;
use canon_id::rng::splitmix64;
use canon_id::NodeId;
use canon_node::{
    CacheConfig, Envelope, Mailboxes, NodeCache, Op, Payload, RpcResult, RpcTable, Shard,
};
use canon_overlay::{route_to_key, NodeIndex};
use canon_store::{ContentId, MemoryBackend};
use std::hint::black_box;
use std::time::Instant;

/// Probe results for one cycle; costs in nanoseconds per operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// `RpcTable::open` + `resolve`, per request.
    pub rpc_open_resolve_ns: f64,
    /// `Mailboxes::push` + `drain_due`, per message.
    pub transport_push_drain_ns: f64,
    /// `canon_wire::to_bytes`, per message.
    pub wire_encode_ns: f64,
    /// `canon_wire::from_bytes::<Payload>`, per message.
    pub wire_decode_ns: f64,
    /// Greedy routing over the built graph, per hop.
    pub route_ns_per_hop: f64,
    /// Mean hops of those static routes.
    pub static_mean_hops: f64,
    /// Mean out-degree of the overlay.
    pub mean_degree: f64,
    /// `Shard::insert` over `MemoryBackend`, per PUT.
    pub store_put_ns: f64,
    /// `Shard::get`, per GET.
    pub store_get_ns: f64,
    /// `NodeCache::lookup`, per call (0 with caching off).
    pub cache_lookup_ns: f64,
    /// `NodeCache::fill`, per call (0 with caching off).
    pub cache_fill_ns: f64,
}

/// The messages one command puts on the wire: its request, its response
/// and, by kind, a replica write or a cache fill.
fn payloads(cmds: &[Cmd], ids: &[NodeId], cached: bool) -> Vec<Payload> {
    let mut out = Vec::with_capacity(cmds.len() * 3);
    for (i, c) in cmds.iter().enumerate() {
        let origin = ids[c.origin as usize];
        let peer = ids[(c.origin as usize + 1 + i % 7) % ids.len()];
        let is_get = matches!(c.op, Op::Get { .. });
        out.push(Payload::Request {
            origin,
            req: i as u64,
            attempt: 0,
            hops: 3,
            op: c.op.clone(),
            path: if cached && is_get {
                vec![origin, peer]
            } else {
                Vec::new()
            },
        });
        let result = match c.op {
            Op::Put { .. } => RpcResult::Stored {
                primary: peer,
                replicas: 2,
            },
            Op::Get { .. } => RpcResult::Value {
                value: Some(i as u64),
                served_by: peer,
            },
            _ => RpcResult::Found { responsible: peer },
        };
        out.push(Payload::Response {
            req: i as u64,
            hops: 4,
            result,
        });
        match c.op {
            Op::Put { key, value } => out.push(Payload::Replicate { key, value }),
            Op::Get { key } if cached => out.push(Payload::CacheFill {
                key,
                value: i as u64,
                stamp: 1,
                owner: peer,
                cid: ContentId::of(&(i as u64).to_le_bytes()).raw(),
                level: 2,
            }),
            _ => {}
        }
    }
    out
}

/// Runs every probe on the burst commands of `out`, recording one span
/// per probe under the cycle's span.
pub fn run(spec: &Spec, out: &CycleOut, epoch: Instant, tracer: &mut Tracer) -> Probes {
    let cmds = &out.schedule.segs[2];
    let ids = &out.ids;
    let graph = out.net.graph();
    let mut p = Probes::default();
    let now = || epoch.elapsed().as_nanos() as u64;
    // Times `f`, records its span, returns (ns, result).
    let mut timed = |name: &'static str, n: usize, f: &mut dyn FnMut()| -> f64 {
        let t0 = now();
        f();
        let t1 = now();
        tracer.record(name, t0, t1, out.span, 0, n as u32);
        (t1 - t0) as f64
    };
    let per = |ns: f64, n: usize| ns / n.max(1) as f64;

    // rpc: open every command at its origin's table, then resolve them.
    let mut tables: Vec<RpcTable> = (0..ids.len())
        .map(|_| RpcTable::new(runtime_config(spec).rpc))
        .collect();
    let mut opened = Vec::with_capacity(cmds.len());
    let ns = timed("rpc.open_resolve", cmds.len(), &mut || {
        for c in cmds {
            let (req, _) = tables[c.origin as usize].open(c.op.clone(), 0);
            opened.push((c.origin, req));
        }
        for &(slot, req) in &opened {
            black_box(tables[slot as usize].resolve(req));
        }
    });
    p.rpc_open_resolve_ns = per(ns, cmds.len());

    // wire: encode each payload, then decode each encoding.
    let msgs = payloads(cmds, ids, spec.cache > 0);
    let mut encoded = Vec::with_capacity(msgs.len());
    let ns = timed("wire.encode", msgs.len(), &mut || {
        for m in &msgs {
            encoded.push(canon_wire::to_bytes(m));
        }
    });
    p.wire_encode_ns = per(ns, msgs.len());
    let ns = timed("wire.decode", msgs.len(), &mut || {
        for b in &encoded {
            black_box(canon_wire::from_bytes::<Payload>(b).is_ok());
        }
    });
    p.wire_decode_ns = per(ns, msgs.len());

    // transport: the same messages through the mailbox heaps.
    let boxes: Mailboxes<Payload> = Mailboxes::new(ids.len());
    let mut envelopes: Vec<(usize, Envelope<Payload>)> = msgs
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let to = (splitmix64(i as u64) % ids.len() as u64) as usize;
            let env = Envelope {
                from: ids[i % ids.len()],
                to: ids[to],
                sent_at: 0,
                deliver_at: 1 + (i % 4) as u64,
                seq: i as u64,
                payload,
            };
            (to, env)
        })
        .collect();
    let count = envelopes.len();
    let ns = timed("transport.push_drain", count, &mut || {
        for (slot, env) in envelopes.drain(..) {
            boxes.push(slot, env);
        }
        for tick in 1..=4 {
            for slot in 0..ids.len() {
                black_box(boxes.drain_due(slot, tick));
            }
        }
    });
    p.transport_push_drain_ns = per(ns, count);

    // overlay: route every (origin, key) pair over the built graph.
    let mut hops = 0usize;
    let ns = timed("overlay.route", cmds.len(), &mut || {
        for c in cmds {
            let route = route_to_key(graph, Clockwise, NodeIndex(c.origin), c.op.key_point());
            hops += route.map_or(0, |r| r.hops());
        }
    });
    p.route_ns_per_hop = per(ns, hops);
    p.static_mean_hops = per(hops as f64, cmds.len());
    p.mean_degree = per(graph.link_count() as f64, graph.len());

    // store: PUTs then GETs against the shard of each key's owner (slot
    // order is ascending identifier order, so the owner is a search away).
    let owner = |key: u64| owner_index(ids, key);
    let mut shards: Vec<Shard> = (0..ids.len())
        .map(|_| Shard::new(Box::new(MemoryBackend::new())))
        .collect();
    let puts: Vec<(usize, u64, u64)> = cmds
        .iter()
        .filter_map(|c| match c.op {
            Op::Put { key, value } => Some((owner(key), key, value)),
            _ => None,
        })
        .collect();
    let gets: Vec<(usize, u64)> = cmds
        .iter()
        .filter_map(|c| match c.op {
            Op::Get { key } => Some((owner(key), key)),
            _ => None,
        })
        .collect();
    let ns = timed("store.put", puts.len(), &mut || {
        for &(slot, key, value) in &puts {
            shards[slot].insert(key, value);
        }
    });
    p.store_put_ns = per(ns, puts.len());
    let ns = timed("store.get", gets.len(), &mut || {
        for &(slot, key) in &gets {
            black_box(shards[slot].get(key));
        }
    });
    p.store_get_ns = per(ns, gets.len());

    // cache: look every GET key up cold, fill them all, look them up again.
    if spec.cache > 0 {
        let mut cache = NodeCache::new(CacheConfig::with_capacity(spec.cache));
        let fills: Vec<(u64, u64, u64)> = gets
            .iter()
            .map(|&(_, key)| (key, key ^ 1, ContentId::of(&(key ^ 1).to_le_bytes()).raw()))
            .collect();
        let lookup_all = |cache: &mut NodeCache| {
            for &(_, key) in &gets {
                black_box(cache.lookup(key));
            }
        };
        let cold = timed("cache.lookup", gets.len(), &mut || lookup_all(&mut cache));
        let ns = timed("cache.fill", fills.len(), &mut || {
            for &(key, value, cid) in &fills {
                let level = (key % 5) as u32 + 1;
                black_box(cache.fill(key, value, 1, ids[0], cid, level));
            }
        });
        p.cache_fill_ns = per(ns, fills.len());
        let warm = timed("cache.lookup", gets.len(), &mut || lookup_all(&mut cache));
        p.cache_lookup_ns = per(cold + warm, 2 * gets.len());
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_payloads_round_trip_through_the_codec() {
        let ids: Vec<NodeId> = (1..=8).map(|i| NodeId::new(i * 1000)).collect();
        let cmds = [
            Op::Lookup { key: 5 },
            Op::Put { key: 6, value: 7 },
            Op::Get { key: 8 },
        ]
        .map(|op| Cmd {
            origin: 2,
            op,
            due_ns: 0,
        });
        let uncached = payloads(&cmds, &ids, false);
        assert_eq!(
            uncached.len(),
            3 * 2 + 1,
            "request + response, and one replicate"
        );
        let cached = payloads(&cmds, &ids, true);
        assert_eq!(
            cached.len(),
            uncached.len() + 1,
            "plus the GET's cache fill"
        );
        for m in &cached {
            let bytes = canon_wire::to_bytes(m);
            assert_eq!(&canon_wire::from_bytes::<Payload>(&bytes).unwrap(), m);
        }
    }
}

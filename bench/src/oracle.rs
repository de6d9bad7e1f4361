//! The correctness oracle: every command the driver issued against the
//! completion records the cluster produced.
//!
//! Nothing here asks the program under test what the right answer is: the
//! responsible node of a key is recomputed from the sorted identifiers,
//! and a GET's value is checked against the values the driver itself
//! wrote.

use canon_id::NodeId;
use canon_node::{Completion, Op, OpKind, Outcome};
use std::collections::{HashMap, HashSet};

/// Which part of a cycle a command belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Loading the key universe (set-up).
    Preload,
    /// A timed segment: 0 = lo, 1 = hi, 2 = burst.
    Seg(usize),
    /// Settled reads after the cycle drained.
    Settle,
}

/// One command as the driver issued it.
#[derive(Clone, Debug)]
pub struct Issued {
    /// Slot of the origin node.
    pub slot: u32,
    /// The request id the origin will assign: ids are per-origin and
    /// sequential, so the driver can predict them.
    pub req: u64,
    /// The operation.
    pub op: Op,
    /// When the command was due, ns since the epoch.
    pub due_ns: u64,
    /// When the driver injected it.
    pub inject_ns: u64,
    /// The part of the cycle it belongs to.
    pub phase: Phase,
}

/// Failed operations by category. A command is counted once, under the
/// first category it fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Issued commands with no completion record.
    pub missing: u64,
    /// Second and later completions of one command.
    pub duplicate: u64,
    /// Completions that match no issued command, or the wrong one.
    pub unmatched: u64,
    /// Completions whose every retry timed out.
    pub timed_out: u64,
    /// Lookups/PUTs answered by a node other than the key's ring owner.
    pub wrong_responder: u64,
    /// GETs returning a value never written under that key.
    pub bad_value: u64,
    /// Settled GETs disagreeing with the owner's shard.
    pub stale_read: u64,
    /// Cycles whose live hop total differs from the static routes'.
    pub hop_mismatch: u64,
    /// Paced segments whose backlog kept growing over the run's cycles.
    pub saturated: u64,
    /// Commands the count pass lost, duplicated, retried or failed to decode.
    pub count_pass: u64,
}

impl Failures {
    /// `(category, count)` pairs, in a fixed order.
    pub fn categories(&self) -> [(&'static str, u64); 10] {
        [
            ("missing", self.missing),
            ("duplicate", self.duplicate),
            ("unmatched", self.unmatched),
            ("timed_out", self.timed_out),
            ("wrong_responder", self.wrong_responder),
            ("bad_value", self.bad_value),
            ("stale_read", self.stale_read),
            ("hop_mismatch", self.hop_mismatch),
            ("saturated", self.saturated),
            ("count_pass", self.count_pass),
        ]
    }

    /// Failures over all categories.
    pub fn total(&self) -> u64 {
        self.categories().iter().map(|&(_, c)| c).sum()
    }

    /// Adds `other`'s counts to `self`'s.
    pub fn add(&mut self, other: &Failures) {
        let Failures {
            missing,
            duplicate,
            unmatched,
            timed_out,
            wrong_responder,
            bad_value,
            stale_read,
            hop_mismatch,
            saturated,
            count_pass,
        } = other;
        self.missing += missing;
        self.duplicate += duplicate;
        self.unmatched += unmatched;
        self.timed_out += timed_out;
        self.wrong_responder += wrong_responder;
        self.bad_value += bad_value;
        self.stale_read += stale_read;
        self.hop_mismatch += hop_mismatch;
        self.saturated += saturated;
        self.count_pass += count_pass;
    }
}

/// The ring owner of `key`: the node with the largest identifier at or
/// below it, wrapping to the largest identifier overall. `sorted` is
/// ascending and non-empty.
pub fn owner_of(sorted: &[NodeId], key: u64) -> NodeId {
    sorted[owner_index(sorted, key)]
}

/// The position of [`owner_of`]`(sorted, key)` in `sorted`.
pub fn owner_index(sorted: &[NodeId], key: u64) -> usize {
    let at = sorted.partition_point(|id| id.raw() <= key);
    (at + sorted.len() - 1) % sorted.len()
}

/// The oracle's result: failures, and for each issued command the index
/// of its completion (`None` when missing).
#[derive(Clone, Debug)]
pub struct Checked {
    /// Failures found.
    pub failures: Failures,
    /// `completion_of[i]` is the completion of `issued[i]`.
    pub completion_of: Vec<Option<u32>>,
}

/// Checks one cycle. `ids` lists node identifiers in slot order;
/// `settled` maps each key read in the settle phase to the value its
/// owner's shard held once the cycle had drained.
pub fn check(
    issued: &[Issued],
    completions: &[Completion],
    ids: &[NodeId],
    settled: &HashMap<u64, Option<u64>>,
) -> Checked {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let slot_of: HashMap<u64, usize> = ids
        .iter()
        .enumerate()
        .map(|(s, id)| (id.raw(), s))
        .collect();

    // Per origin, request id → issued index; and per key, what was written.
    let mut by_req: Vec<Vec<u32>> = vec![Vec::new(); ids.len()];
    let mut written: HashSet<(u64, u64)> = HashSet::new();
    let mut preloaded: HashSet<u64> = HashSet::new();
    for (i, q) in issued.iter().enumerate() {
        let reqs = &mut by_req[q.slot as usize];
        assert_eq!(
            q.req,
            reqs.len() as u64,
            "driver request ids are sequential"
        );
        reqs.push(i as u32);
        if let Op::Put { key, value } = q.op {
            written.insert((key, value));
            if q.phase == Phase::Preload {
                preloaded.insert(key);
            }
        }
    }

    let mut f = Failures::default();
    let mut completion_of: Vec<Option<u32>> = vec![None; issued.len()];
    for (ci, c) in completions.iter().enumerate() {
        let found = slot_of
            .get(&c.origin.raw())
            .and_then(|&s| by_req[s].get(c.req as usize));
        let Some(&qi) = found else {
            f.unmatched += 1;
            continue;
        };
        let q = &issued[qi as usize];
        if completion_of[qi as usize].is_some() {
            f.duplicate += 1;
            continue;
        }
        completion_of[qi as usize] = Some(ci as u32);
        let key = q.op.key_point().raw();
        if c.kind != q.op.kind() || c.key != key {
            f.unmatched += 1;
        } else if c.outcome == Outcome::TimedOut {
            f.timed_out += 1;
        } else if matches!(c.kind, OpKind::Lookup | OpKind::Put) {
            if c.responder != Some(owner_of(&sorted, key)) {
                f.wrong_responder += 1;
            }
        } else {
            let known = match c.value {
                Some(v) => written.contains(&(key, v)),
                None => !preloaded.contains(&key),
            };
            if !known {
                f.bad_value += 1;
            } else if q.phase == Phase::Settle && settled.get(&key) != Some(&c.value) {
                f.stale_read += 1;
            }
        }
    }
    f.missing = completion_of.iter().filter(|c| c.is_none()).count() as u64;
    Checked {
        failures: f,
        completion_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> Vec<NodeId> {
        [300u64, 100, 400, 200].map(NodeId::new).to_vec()
    }

    fn issue(slot: u32, req: u64, op: Op, phase: Phase) -> Issued {
        Issued {
            slot,
            req,
            op,
            due_ns: 0,
            inject_ns: 0,
            phase,
        }
    }

    fn done(origin: u64, req: u64, op: &Op, responder: u64, value: Option<u64>) -> Completion {
        Completion {
            origin: NodeId::new(origin),
            req,
            kind: op.kind(),
            key: op.key_point().raw(),
            outcome: if matches!(op, Op::Get { .. }) && value.is_none() {
                Outcome::NotFound
            } else {
                Outcome::Ok
            },
            responder: Some(NodeId::new(responder)),
            value,
            hops: 1,
            attempts: 1,
            issued_at: 0,
            completed_at: 1,
        }
    }

    /// Slot 0 (id 300) preloads key 250 := 7, overwrites it with 9, reads
    /// it back, looks up key 50 (owned by 400 through the wrap) and reads
    /// the never-written key 150; slot 1 (id 100) does a settled read.
    fn clean() -> (Vec<Issued>, Vec<Completion>, HashMap<u64, Option<u64>>) {
        let ops = [
            Op::Put { key: 250, value: 7 },
            Op::Put { key: 250, value: 9 },
            Op::Get { key: 250 },
            Op::Lookup { key: 50 },
            Op::Get { key: 150 },
        ];
        let phases = [
            Phase::Preload,
            Phase::Seg(0),
            Phase::Seg(1),
            Phase::Seg(2),
            Phase::Seg(2),
        ];
        let mut issued: Vec<Issued> = ops
            .iter()
            .zip(phases)
            .enumerate()
            .map(|(r, (op, ph))| issue(0, r as u64, op.clone(), ph))
            .collect();
        issued.push(issue(1, 0, Op::Get { key: 250 }, Phase::Settle));
        let completions = vec![
            done(300, 0, &ops[0], 200, None),
            done(300, 1, &ops[1], 200, None),
            done(300, 2, &ops[2], 200, Some(7)),
            done(300, 3, &ops[3], 400, None),
            done(300, 4, &ops[4], 100, None),
            done(100, 0, &Op::Get { key: 250 }, 200, Some(9)),
        ];
        let settled = HashMap::from([(250, Some(9))]);
        (issued, completions, settled)
    }

    #[test]
    fn owner_is_the_largest_id_at_or_below_the_key() {
        let mut s = ids();
        s.sort_unstable();
        assert_eq!(owner_of(&s, 250).raw(), 200);
        assert_eq!(owner_of(&s, 200).raw(), 200);
        assert_eq!(owner_of(&s, 99).raw(), 400, "below the smallest id wraps");
        assert_eq!(owner_of(&s, u64::MAX).raw(), 400);
    }

    #[test]
    fn a_clean_cycle_passes() {
        let (issued, completions, settled) = clean();
        let out = check(&issued, &completions, &ids(), &settled);
        assert_eq!(out.failures, Failures::default());
        assert_eq!(out.completion_of, (0..6).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn a_planted_wrong_value_is_rejected() {
        let (issued, mut completions, settled) = clean();
        completions[2].value = Some(8);
        let f = check(&issued, &completions, &ids(), &settled).failures;
        assert_eq!((f.bad_value, f.total()), (1, 1));
        // A missing value under a preloaded key is wrong too.
        completions[2].value = None;
        let f = check(&issued, &completions, &ids(), &settled).failures;
        assert_eq!((f.bad_value, f.total()), (1, 1));
    }

    #[test]
    fn a_dropped_completion_is_rejected() {
        let (issued, mut completions, settled) = clean();
        completions.remove(3);
        let out = check(&issued, &completions, &ids(), &settled);
        assert_eq!((out.failures.missing, out.failures.total()), (1, 1));
        assert_eq!(out.completion_of[3], None);
    }

    #[test]
    fn duplicates_strays_and_timeouts_are_rejected() {
        let (issued, mut completions, settled) = clean();
        completions.push(completions[1].clone());
        completions.push(done(300, 99, &Op::Lookup { key: 1 }, 400, None));
        completions[0].outcome = Outcome::TimedOut;
        let f = check(&issued, &completions, &ids(), &settled).failures;
        assert_eq!(
            (f.duplicate, f.unmatched, f.timed_out, f.total()),
            (1, 1, 1, 3)
        );
    }

    #[test]
    fn a_wrong_responder_is_rejected() {
        let (issued, mut completions, settled) = clean();
        completions[3].responder = Some(NodeId::new(100));
        let f = check(&issued, &completions, &ids(), &settled).failures;
        assert_eq!((f.wrong_responder, f.total()), (1, 1));
    }

    #[test]
    fn a_stale_settled_read_is_rejected() {
        let (issued, mut completions, settled) = clean();
        // 7 was written once, so it passes the history check — but the
        // owner's shard holds 9 after the cycle drained.
        completions[5].value = Some(7);
        let f = check(&issued, &completions, &ids(), &settled).failures;
        assert_eq!((f.stale_read, f.total()), (1, 1));
    }
}

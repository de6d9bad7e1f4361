//! In-memory spans around every call the driver makes into a layer.
//!
//! A span is `(name, start, end, parent, cycle, round, n)`: `round` is the
//! drive-loop iteration it belongs to and `n` a count measured at the same
//! boundary (commands injected, events handled). Spans are recorded only
//! in a traced run, kept in memory, and written out once at exit.

use std::collections::BTreeMap;
use std::io::Write;

/// Index of a span in its [`Tracer`]; `NO_PARENT` for a root.
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span. Times are ns since the process epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `runtime.step`.
    pub name: &'static str,
    /// When the call started.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
    /// The span that caused it.
    pub parent: SpanId,
    /// The cycle it belongs to.
    pub cycle: u32,
    /// The drive-loop iteration inside its segment (0 outside a loop).
    pub round: u32,
    /// A count measured at the boundary.
    pub n: u32,
}

/// Collects spans when enabled; every call is a no-op otherwise.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    cycle: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Switches recording on or off and stamps later spans with `cycle`.
    pub fn start_cycle(&mut self, cycle: u32, enabled: bool) {
        self.cycle = cycle;
        self.enabled = enabled;
    }

    /// Records a finished span and returns its id (`NO_PARENT` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        round: u32,
        n: u32,
    ) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            cycle: self.cycle,
            round,
            n,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is not yet known; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start_ns: u64, parent: SpanId) -> SpanId {
        self.record(name, start_ns, start_ns, parent, 0, 0)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Drops every span from index `len` on.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON object: a name table and one compact
    /// array `[name, start_ns, end_ns, parent, cycle, round, n]` per span
    /// (`parent` is -1 for a root).
    pub fn write_json<W: Write>(&self, workload: &str, out: &mut W) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \
             \"fields\": [\"name\", \"start\", \"end\", \"parent\", \"cycle\", \"round\", \"n\"], \
             \"names\": [{}], \"spans\": [",
            quoted.join(", ")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).unwrap_or(0);
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{name},{},{},{parent},{},{},{}]{sep}",
                s.start_ns, s.end_ns, s.cycle, s.round, s.n
            )?;
        }
        writeln!(out, "]}}")
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (children of one parent never overlap here — one
/// thread makes every call).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let covered = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            own[s.parent as usize] = own[s.parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// Total self time per span name over the spans selected by `keep`.
pub fn self_time_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        if keep(s) {
            *by_name.entry(s.name).or_insert(0) += t;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> Tracer {
        let mut t = Tracer::new(true);
        t.start_cycle(2, true);
        let seg = t.open("segment.lo", 100, NO_PARENT);
        t.record("runtime.inject", 100, 130, seg, 0, 3);
        t.record("runtime.step", 130, 400, seg, 0, 9);
        t.record("clock.wait", 420, 900, seg, 0, 0);
        t.close(seg, 1000);
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t = traced();
        let own = self_times(t.spans());
        // 900 long, children cover 30 + 270 + 480.
        assert_eq!(own, vec![120, 30, 270, 480]);
        let by = self_time_by_name(t.spans(), |_| true);
        assert_eq!(by["segment.lo"], 120);
        assert_eq!(by["runtime.step"], 270);
        let total: u64 = by.values().sum();
        assert_eq!(total, 900, "self times partition the root's duration");
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let mut t = Tracer::new(true);
        let root = t.open("segment.hi", 0, NO_PARENT);
        t.record("runtime.step", 50, 150, root, 0, 0);
        t.close(root, 100);
        assert_eq!(self_times(t.spans()), vec![50, 100]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("segment.lo", 0, NO_PARENT);
        assert_eq!(id, NO_PARENT);
        t.record("runtime.step", 0, 10, id, 0, 0);
        t.close(id, 10);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_has_one_row_per_span_and_a_name_table() {
        let t = traced();
        let mut buf = Vec::new();
        t.write_json("uniform_channel", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"names\": [\"clock.wait\", \"runtime.inject\""));
        assert_eq!(text.lines().filter(|l| l.starts_with('[')).count(), 4);
        assert!(text.contains("[3,100,1000,-1,2,0,0]"), "{text}");
        assert!(text.trim_end().ends_with("]}"));
    }
}

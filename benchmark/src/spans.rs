//! Benchmark-side spans: recorded from the benchmark's own code around the
//! calls into each layer, held in memory, written out when the run ends.
//!
//! A span has an id, the id of the span that caused it, a name, a start and
//! an end, and the id of the operation (training step or plan query) it
//! belongs to. A span's self time is its duration minus its children's;
//! because children nest inside their parent and never overlap, the self
//! times of a tree sum to the root's duration exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder (ids are dense, parents precede children).
    pub id: usize,
    /// The enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `nn.attention_fwd`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The step or query all spans of one tree share.
    pub op: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. When off, [`Spans::scope`] runs the closure and
/// reads no clock, which is what the untraced side of the tracing-overhead
/// ratio measures.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    /// A recorder that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as the root span `name` of operation `op`.
    pub fn op<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        assert!(
            self.stack.is_empty(),
            "an operation starts outside any span"
        );
        self.op = op;
        self.scope(name, f)
    }

    /// Run `f` inside a span `name`, child of the innermost open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the children's durations.
/// `spans` is a recorder's list or a run of whole trees out of it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let base = spans.first().map_or(0, |s| s.id);
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p - base] = own[p - base]
                .checked_sub(s.duration_ns())
                .expect("children nest inside their parent without overlap");
        }
    }
    own
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Whether the self times account for every root exactly: the sum over all
/// spans equals the sum of the root durations.
pub fn is_exhaustive(spans: &[Span]) -> bool {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    self_times_ns(spans).iter().sum::<u64>() == roots
}

/// Operations of one kind (root name) a trace file holds at most: enough
/// to see every kind of tree the run recorded without committing megabytes
/// of repeats.
pub const MAX_OPS_WRITTEN: usize = 5;

/// The trace document written to `benchmark/traces/<workload>.json`: the
/// whole trees of the first [`MAX_OPS_WRITTEN`] operations of each kind, one
/// span per row in the order of `columns`.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut rows, mut roots, mut written, mut keep) = (Vec::new(), 0, 0, false);
    for s in spans {
        if s.parent.is_none() {
            let n = seen.entry(s.name).or_insert(0);
            *n += 1;
            keep = *n <= MAX_OPS_WRITTEN;
            roots += 1;
            written += usize::from(keep);
        }
        if keep {
            rows.push(
                serde_json::json!([s.id, s.parent, s.name, s.start_ns, s.end_ns, s.op]).to_string(),
            );
        }
    }
    format!(
        "{{\"schema\":\"chimera-bench/trace/v1\",\"workload\":{},\"ops_recorded\":{roots},\"ops_written\":{written},\n\"columns\":[\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\",\"op\"],\n\"spans\":[\n{}\n]}}\n",
        Value::from(workload),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "step", 0, 100),
            span(1, Some(0), "fwd", 10, 40),
            span(2, Some(1), "attn", 15, 35),
            span(3, Some(0), "bwd", 40, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 50]);
        assert!(is_exhaustive(&spans));
        // A later tree taken on its own keeps its recorder-wide ids.
        let tail = [
            span(4, None, "step", 100, 130),
            span(5, Some(4), "fwd", 105, 125),
        ];
        assert_eq!(self_times_ns(&tail), vec![10, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["step"], 20);
        assert_eq!(by_name["attn"], 20);
    }

    #[test]
    fn recorded_trees_are_exhaustive_and_share_the_op_id() {
        let mut sp = Spans::new(true);
        for op in 0..3 {
            sp.op(op, "step", |sp| {
                sp.scope("a", |sp| sp.scope("b", |_| std::hint::black_box(1 + 1)));
                sp.scope("c", |_| ());
            });
        }
        let spans = sp.spans();
        assert_eq!(spans.len(), 12);
        assert!(is_exhaustive(spans));
        for tree in spans.chunks(4) {
            assert!(tree.iter().all(|s| s.op == tree[0].op));
            assert_eq!(tree[0].parent, None);
            assert_eq!(tree[2].parent, Some(tree[1].id));
        }
        assert_eq!(spans[4].op, 1);
    }

    #[test]
    fn a_trace_file_holds_whole_trees_of_the_first_operations_of_each_kind() {
        let mut sp = Spans::new(true);
        for op in 0..(MAX_OPS_WRITTEN as u64 + 5) {
            sp.op(op, "call", |_| ());
        }
        sp.op(99, "step", |sp| sp.scope("a", |_| ()));
        let doc = serde_json::from_str(&to_json("w", sp.spans())).expect("valid JSON");
        assert_eq!(
            doc["ops_recorded"].as_u64(),
            Some(MAX_OPS_WRITTEN as u64 + 6)
        );
        assert_eq!(
            doc["ops_written"].as_u64(),
            Some(MAX_OPS_WRITTEN as u64 + 1)
        );
        let rows = doc["spans"].as_array().expect("rows");
        assert_eq!(rows.len(), MAX_OPS_WRITTEN + 2);
        assert!(rows[0][1].is_null());
        let (root, child) = (&rows[MAX_OPS_WRITTEN], &rows[MAX_OPS_WRITTEN + 1]);
        assert_eq!(
            (root[2].as_str(), root[5].as_u64()),
            (Some("step"), Some(99))
        );
        assert_eq!(child[2].as_str(), Some("a"));
        assert_eq!(child[1].as_u64(), root[0].as_u64());
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut sp = Spans::new(false);
        let out = sp.op(7, "step", |sp| sp.scope("a", |_| 42));
        assert_eq!(out, 42);
        assert!(sp.spans().is_empty());
    }
}

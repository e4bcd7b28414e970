//! In-memory spans around the calls the driver makes into each layer,
//! written out as a chrome-trace when the workload ends.
//!
//! Nothing here reaches inside the product: a span brackets a call the
//! benchmark itself makes (encode, socket write, waiting for the reply,
//! decode, a child process). A layer's *self time* is its spans'
//! duration minus the part their child spans cover.

use crate::metrics::{json_num, json_str};
use std::time::Instant;

/// Spans kept verbatim for the trace file. Aggregates cover every span;
/// the file only needs enough requests to look at.
const KEEP: usize = 100_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the causing span among the kept ones.
    parent: Option<usize>,
    /// Spans of one request (or one repetition) share this id.
    req: u64,
    /// Chrome-trace lane: the connection, or 0.
    lane: u32,
}

#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

/// Handle to a recorded span, to hang children off.
#[derive(Clone, Copy)]
pub struct SpanRef {
    name: &'static str,
    index: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    agg: Vec<(&'static str, Agg)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), agg: Vec::new() }
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        // A handful of distinct names: a linear scan beats hashing.
        let at = match self.agg.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.agg.push((name, Agg::default()));
                self.agg.len() - 1
            }
        };
        &mut self.agg[at].1
    }

    /// Record `[start, end]` under `name`, caused by `parent`.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanRef>,
        req: u64,
        lane: u32,
    ) -> SpanRef {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns =
            end.saturating_duration_since(self.epoch).as_nanos().max(start_ns.into()) as u64;
        let dur = end_ns - start_ns;
        let a = self.agg_mut(name);
        a.count += 1;
        a.total_ns += dur;
        if let Some(p) = parent {
            self.agg_mut(p.name).child_ns += dur;
        }
        let index = (self.spans.len() < KEEP).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: parent.and_then(|p| p.index),
                req,
                lane,
            });
            self.spans.len() - 1
        });
        SpanRef { name, index }
    }

    /// `(name, count, total_s, self_s)` per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        self.agg
            .iter()
            .map(|(name, a)| {
                let self_ns = a.total_ns.saturating_sub(a.child_ns);
                (*name, a.count, a.total_ns as f64 / 1e9, self_ns as f64 / 1e9)
            })
            .collect()
    }

    /// The kept spans as chrome-trace "complete" events (`ts`/`dur` in
    /// µs). `args` carries the request id and the parent span's index
    /// in this file, so causality survives without nesting heuristics.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {i}, \"req\": {}, \"parent\": {parent}}}}}{}\n",
                json_str(s.name),
                s.lane,
                json_num(s.start_ns as f64 / 1e3),
                json_num((s.end_ns - s.start_ns) as f64 / 1e3),
                s.req,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

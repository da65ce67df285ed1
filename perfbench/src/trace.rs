//! In-memory spans recorded around calls into the suite's layers.
//!
//! A span is `(name, start, end, parent)`; its layer is the name's prefix
//! up to the first `.` (`core.dot` belongs to `core`).  Spans are kept in
//! memory and written out once, at the end of a traced run.  A disabled
//! tracer records nothing and only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted name; the layer is the part before the first `.`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans from a single thread (the benchmark's main thread).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and only runs closures otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let result = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = end;
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations of every closed span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Appends every span of `other`, re-based onto this tracer's epoch
    /// and nested under the innermost open span.  Nothing happens when
    /// this tracer is disabled.
    pub fn adopt(&self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let shift = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        let outer = self.open.borrow().last().copied();
        for s in other.spans.into_inner() {
            spans.push(Span {
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
                parent: s.parent.map(|p| p + base).or(outer),
                name: s.name,
            });
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The spans as JSON, one object per span with its self time.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let own = self_times_ns(&spans);
        let rows: Vec<String> = spans
            .iter()
            .zip(&own)
            .map(|(s, own)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{own}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn self_time_by_layer_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer().to_string()).or_insert(0) += own;
    }
    by_layer
}

//! Bench-side spans: in-memory records around calls into each layer's
//! public functions, written once at the end as Chrome trace-event JSON
//! (opens in Perfetto or `chrome://tracing`).
//!
//! A span has a name, start, end, the span that caused it and a trace id
//! shared by every span of one trial, job or query. Calls too frequent to
//! wrap one by one (a scheduler's `on_request`) are summed by the caller
//! and recorded as one aggregate child span whose duration is the summed
//! time; since those calls never overlap inside their parent, the
//! coverage arithmetic below stays exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace_id: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Small per-thread number, the Chrome `tid`.
    pub tid: u64,
    /// Counters recorded at the same boundary (calls, rows, …).
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// Counter `key` of this span, if recorded.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| *k == key).map(|a| a.1)
    }
}

/// A span that has started and not yet ended.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace_id: u64,
    pub name: &'static str,
    pub start: f64,
}

/// Thread-safe span sink. Spans are pushed when they close.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Converts an instant taken elsewhere onto this tracer's clock.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    pub fn open(&self, name: &'static str, parent: Option<&Open>, trace_id: u64) -> Open {
        self.open_at(name, parent, trace_id, self.now())
    }

    /// Opens a span that started at `start`, measured by the caller.
    pub fn open_at(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        trace_id: u64,
        start: f64,
    ) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            trace_id,
            name,
            start,
        }
    }

    /// Closes `open` now; returns its duration.
    pub fn close(&self, open: Open, args: Vec<(&'static str, f64)>) -> f64 {
        let end = self.now();
        self.close_at(open, end, args);
        end - open.start
    }

    /// Records a span whose times were measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        trace_id: u64,
        start: f64,
        end: f64,
        args: Vec<(&'static str, f64)>,
    ) {
        let open = self.open_at(name, parent, trace_id, start);
        self.close_at(open, end, args);
    }

    /// Closes `open` at `end`, measured by the caller.
    pub fn close_at(&self, open: Open, end: f64, args: Vec<(&'static str, f64)>) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            trace_id: open.trace_id,
            name: open.name,
            start: open.start,
            end,
            tid: thread_number(),
            args,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        trace_id: u64,
        f: impl FnOnce(&Open) -> R,
    ) -> R {
        let open = self.open(name, parent, trace_id);
        let r = f(&open);
        self.close(open, Vec::new());
        r
    }

    /// Spans closed so far.
    pub fn closed(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Spans closed after the first `n`.
    pub fn since(&self, n: usize) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned")[n..].to_vec()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Span-tree queries over one snapshot.
pub struct SpanTree<'a> {
    spans: &'a [Span],
    children: std::collections::HashMap<u64, Vec<usize>>,
}

impl<'a> SpanTree<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        SpanTree { spans, children }
    }

    /// Time inside `span` not covered by any of its children.
    pub fn self_time(&self, span: &Span) -> f64 {
        let mut iv: Vec<(f64, f64)> = self
            .children
            .get(&span.id)
            .map(|c| {
                c.iter()
                    .map(|&i| (self.spans[i].start, self.spans[i].end))
                    .collect()
            })
            .unwrap_or_default();
        span.dur() - union_len(&mut iv, span.start, span.end)
    }

    pub fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::dur).sum()
    }

    pub fn self_total(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.self_time(s)).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Sum of counter `key` over the spans named `name`.
    pub fn arg_total(&self, name: &str, key: &str) -> f64 {
        self.named(name).filter_map(|s| s.arg(key)).sum()
    }
}

/// Chrome trace-event JSON (array form): one complete (`"X"`) event per
/// span, microsecond times, ids and counters under `args`.
pub fn chrome_json(spans: &[Span], metadata: &str) -> String {
    let mut out = String::from("[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"perfbench\",\"provenance\":{metadata}}}}}"
    ));
    for s in spans {
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{}",
            s.name,
            s.tid,
            s.start * 1e6,
            s.dur() * 1e6,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.trace_id
        ));
        for (k, v) in &s.args {
            out.push_str(&format!(",\"{k}\":{}", crate::report::json_num(*v)));
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            trace_id: 1,
            name,
            start,
            end,
            tid: 1,
            args: Vec::new(),
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)];
        assert_eq!(union_len(&mut iv, 0.0, 10.0), 4.0);
        let mut iv = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        assert_eq!(union_len(&mut iv, 1.5, 5.5), 1.5 + 0.5);
        assert_eq!(union_len(&mut [], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // root [0,10]: children a [1,4] and b [3,6] overlap on [3,4]
        // (parallel shards), c [8,12] sticks out past the root's end.
        // a has a child of its own, which must not count against root.
        let spans = vec![
            span(1, None, "root", 0.0, 10.0),
            span(2, Some(1), "a", 1.0, 4.0),
            span(3, Some(1), "b", 3.0, 6.0),
            span(4, Some(1), "c", 8.0, 12.0),
            span(5, Some(2), "leaf", 1.5, 2.5),
        ];
        let tree = SpanTree::new(&spans);
        let root = &spans[0];
        // Covered: [1,6] ∪ [8,10] = 7 → self 3.
        assert!((tree.self_time(root) - 3.0).abs() < 1e-12);
        assert!((tree.self_time(&spans[1]) - 2.0).abs() < 1e-12);
        assert_eq!(tree.self_time(&spans[4]), 1.0);
        assert_eq!(tree.total("a") + tree.total("b"), 6.0);
        assert_eq!(tree.self_total("leaf"), 1.0);
        assert_eq!(tree.count("c"), 1);
    }

    #[test]
    fn tracer_links_parents_and_writes_chrome_json() {
        let t = Tracer::default();
        let root = t.open("root", None, 7);
        t.span("child", Some(&root), 7, |_| ());
        t.close(root, vec![("rows", 3.0)]);
        let spans = t.since(0);
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start >= root.start && child.end <= root.end);
        let json = chrome_json(&spans, "{}");
        assert!(json.starts_with("[\n{\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"child\",\"ph\":\"X\""));
        assert!(json.contains("\"rows\":3"));
        assert!(json.trim_end().ends_with(']'));
    }
}

//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans (name, start, end, parent, run id). Spans stay in memory
//! until the run ends; then they are written out as NDJSON and reduced
//! to self times: a span's duration minus the part of its interval that
//! its child spans cover. A span's layer is its name up to the first
//! `.` (`protection.run_cell` belongs to `protection`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// The execution this span belongs to.
    pub run: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a new run id for the spans that follow.
    pub fn begin_run(&self) -> u64 {
        self.run.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The run id of the spans recorded since the last
    /// [`Tracer::begin_run`].
    pub fn current_run(&self) -> u64 {
        self.run.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent spans of its own, on this
    /// thread or another.
    pub fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let run = self.run.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                run,
            });
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, keyed by span id: its duration minus the
/// length of the union of its children's intervals, clipped to its own
/// interval. Children running in parallel on several threads therefore
/// count once, as covered wall time.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Self time per layer, in nanoseconds, over the given spans.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_default() += selfs[&s.id];
    }
    out
}

/// Renders spans as NDJSON, one object per line.
pub fn to_ndjson(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.run,
            s.id,
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            run: 1,
        }
    }

    /// root [0,100] has children a [10,40] and b [30,60] (overlapping,
    /// as on two threads) and c [80,90]; a has a child d [15,25].
    fn tree() -> Vec<Span> {
        vec![
            span(1, None, "bench.exec", 0, 100),
            span(2, Some(1), "sweep.run_cells", 10, 40),
            span(3, Some(1), "sweep.run_cells", 30, 60),
            span(4, Some(1), "report.card", 80, 90),
            span(5, Some(2), "protection.run_cell", 15, 25),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = self_times(&tree());
        // root: 100 - |[10,60] ∪ [80,90]| = 100 - 60 = 40
        assert_eq!(s[&1], 40);
        assert_eq!(s[&2], 30 - 10);
        assert_eq!(s[&3], 30);
        assert_eq!(s[&4], 10);
        assert_eq!(s[&5], 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(1, None, "a.x", 10, 20),
            span(2, Some(1), "b.y", 0, 15),
            span(3, Some(1), "b.y", 18, 30),
        ];
        assert_eq!(self_times(&spans)[&1], 10 - 5 - 2);
    }

    #[test]
    fn layer_totals_sum_self_times() {
        let layers = layer_self_times(&tree());
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["sweep"], 20 + 30);
        assert_eq!(layers["report"], 10);
        assert_eq!(layers["protection"], 10);
        let total: u64 = layers.values().sum();
        // Without overlapping children the self times partition the
        // root; here b overlaps a by 10.
        assert_eq!(total, 100 + 10);
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let t = Tracer::new();
        t.begin_run();
        t.span("bench.exec", None, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span("sweep.cell", Some(root), |_| ()));
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.parent.is_none()).expect("root");
        assert!(spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .all(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns && s.run == 1));
        assert_eq!(to_ndjson("w", &spans).lines().count(), 3);
    }
}

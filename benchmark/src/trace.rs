//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A disabled [`Tracer`] runs every closure directly and records
//! nothing, so the timed (untraced) requests and the traced ones share
//! one code path. Spans nest through the closure stack: each records
//! its id, its parent's id, the request it belongs to, its name, and
//! its start and end.

use loom_obs::chrome::TraceBuilder;
use loom_obs::{Json, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
/// A span's id is its index in [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub parent: Option<usize>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals over a run: calls, busy time (span durations), and
/// self time (durations minus the time their child spans cover).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u32,
    stack: Vec<usize>,
    spans: Vec<SpanRec>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    pub fn enabled() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The recorder to hand to library calls: enabled exactly when the
    /// tracer is, so timed requests run with `Recorder::disabled()`.
    pub fn recorder(&self) -> Recorder {
        if self.enabled {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Later spans and counts belong to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            parent: self.stack.last().copied(),
            request: self.request,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Add `n` to the run total of the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Add the recorder counters `names` to the run totals.
    pub fn count_from(&mut self, rec: &Recorder, names: &[&'static str]) {
        let counters = rec.counters();
        for &name in names {
            self.count(name, counters.get(name).copied().unwrap_or(0));
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Per span name: calls, busy time and self time.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.busy_ns += s.dur_ns();
            e.self_ns += self_ns;
        }
        out
    }

    /// The spans as a Chrome trace (one track; nesting shows by time).
    pub fn chrome(&self) -> String {
        let mut tb = TraceBuilder::new();
        tb.process_name(0, "loom benchmark");
        tb.thread_name(0, 0, "requests");
        for s in &self.spans {
            tb.complete(0, 0, s.start_ns / 1000, s.dur_ns() / 1000, s.name);
        }
        tb.render()
    }

    /// `layers.json`: each layer's calls, busy and self time, plus the
    /// run's count totals.
    pub fn layers_json(&self, workload: &str) -> String {
        let layers = self
            .layers()
            .into_iter()
            .map(|(name, t)| {
                Json::obj(vec![
                    ("name", Json::from(name)),
                    ("calls", Json::from(t.calls)),
                    ("busy_us", Json::from(t.busy_ns as f64 / 1e3)),
                    ("self_us", Json::from(t.self_ns as f64 / 1e3)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(&name, &n)| (name, Json::from(n)))
            .collect();
        Json::obj(vec![
            ("workload", Json::from(workload)),
            ("layers", Json::Arr(layers)),
            ("counts", Json::obj(counts)),
        ])
        .render_pretty()
    }
}

/// A span's self time: its duration minus the union of the intervals
/// its direct children cover (children may overlap or run past it).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
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
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            // Overlaps the first child: counted once.
            span(Some(0), 20, 50),
            span(Some(0), 60, 70),
            // A grandchild is its parent's business, not the root's.
            span(Some(3), 61, 69),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 2, 8]);
    }

    #[test]
    fn child_running_past_its_parent_is_clipped() {
        let spans = vec![span(None, 0, 10), span(Some(0), 5, 20)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_spans_and_totals_layers() {
        let mut t = Tracer::enabled();
        t.set_request(3);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
            t.count("work", 2);
        });
        t.count("work", 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 3);
        let layers = t.layers();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!(outer.self_ns + inner.busy_ns, outer.busy_ns);
        assert_eq!(t.counts()["work"], 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |_| 5), 5);
        t.count("n", 1);
        assert!(t.spans().is_empty() && t.counts().is_empty());
        assert!(!t.recorder().is_enabled());
    }
}

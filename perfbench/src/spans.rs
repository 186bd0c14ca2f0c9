//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that was open when it
//! began (its parent) and the job it belongs to. Spans are kept in memory
//! and written out once, when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span; times are offsets from the tracer's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.exec`.
    pub name: &'static str,
    /// Job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name, job);
        let r = f();
        self.end(id);
        r
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns `usize::MAX`
    /// when disabled.
    pub fn begin(&mut self, name: &'static str, job: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start = self.t0.elapsed();
        self.spans.push(Span { name, job, parent: self.open.last().copied(), start, end: start });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.t0.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(reach, s.end);
                covered += b - a;
                reach = reach.max(b);
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time.
    pub self_time: Duration,
    /// Summed duration.
    pub total: Duration,
}

impl Totals {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_time.as_secs_f64() * 1e6 / self.count as f64
    }
}

/// Sums self time and duration per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_time += own;
        t.total += s.end - s.start;
    }
    out
}

/// Tab-separated dump: `id parent job name start_ns end_ns self_ns`.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tjob\tname\tstart_ns\tend_ns\tself_ns\n");
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.job,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos(),
            own.as_nanos()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("job", None, 0, 100),
            span("decode", Some(0), 10, 30),
            span("exec", Some(0), 40, 90),
            span("fire", Some(2), 50, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_micros(30));
        assert_eq!(own[1], Duration::from_micros(20));
        assert_eq!(own[2], Duration::from_micros(40));
        assert_eq!(own[3], Duration::from_micros(10));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("wait", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], Duration::from_micros(100 - 60 - 10));
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut t = Tracer::new(true);
        t.span("job", 7, || {});
        let outer = t.begin("job", 8);
        let inner = t.span("core.exec", 8, || 5);
        t.end(outer);
        assert_eq!(inner, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].job, 8);
        let by_name = totals(spans);
        assert_eq!(by_name["job"].count, 2);
        assert_eq!(by_name["core.exec"].count, 1);
        assert!(to_tsv(spans).lines().count() == 4);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("job", 1, || 3), 3);
        assert!(off.spans().is_empty());
    }
}

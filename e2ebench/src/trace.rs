//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each public call
//! into a layer (the program itself is not instrumented). Each span has
//! a name, a start and end, an optional parent and the id of the request
//! it belongs to. While the tracer is inactive, `open` returns `None`
//! and records nothing, so untraced requests pay only for the branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// An inactive tracer.
    pub fn new() -> Self {
        Tracer {
            active: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts or stops recording for the requests that follow.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.active {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.now();
        }
    }

    /// Records a span whose ends were timed elsewhere (a served job,
    /// from its write to its reply).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.active {
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
            self.spans.push(Span {
                name,
                start: at(start),
                end: at(end),
                parent: None,
                request,
            });
        }
    }

    /// Renames an open span once its layer is known (a trajectory run
    /// is reported under the engine that served it).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(i) = id {
            self.spans[i].name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{}}}",
                s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 2.0, 5.0, Some(0)), // overlaps a: union 1..5
            span("c", 7.0, 8.0, Some(0)),
            span("d", 2.5, 3.5, Some(2)),  // grandchild, inside b
            span("e", 9.5, 12.0, Some(0)), // clipped to the parent at 10
        ];
        let t = self_times(&spans);
        let expect = [10.0 - 4.0 - 1.0 - 0.5, 2.0, 2.0, 1.0, 1.0, 2.5];
        for (got, want) in t.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{t:?}");
        }
        let by = self_time_by_name(&spans);
        assert!((by["request"] - 4.5).abs() < 1e-12);
        assert!((by.values().sum::<f64>() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn inactive_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.open("request", 1, None);
        t.close(id);
        assert!(id.is_none() && t.spans().is_empty());
        t.set_active(true);
        let root = t.open("request", 1, None);
        let kid = t.open("qasm", 1, root);
        t.close(kid);
        t.close(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
    }
}

//! In-memory spans recorded by the benchmark around its own calls into
//! the workspace crates, and the self-time arithmetic over them.
//!
//! A span has a name, an id (the ERAS run, batch or request it belongs
//! to), start and end offsets from the tracer's epoch, and the span that
//! was open when it began. A layer's self time is its duration minus the
//! part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `ctrl.sample`.
    pub name: &'static str,
    /// Run, batch or request id.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start in nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// End in nanoseconds from the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; does nothing but run the code otherwise.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`]; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end_ns = self.now_ns();
            self.spans[idx].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines
    /// (`index name id parent start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time in nanoseconds of every span: its duration minus the union
/// of its direct children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time in seconds summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Durations in seconds of every span called `name`, in recording order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a.inner [15,25); root ⊃ b [50,70)
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 15, 25),
            span("b", Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns(), "self times partition the root");
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 10, 60),
            span("y", Some(0), 40, 80),
            span("z", Some(0), 90, 120),
        ];
        // Union of children clipped to the root: [10,80) + [90,100) = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 1);
        for i in 0..3 {
            t.scope("leaf", i, || std::hint::black_box((0..1000).sum::<u64>()));
        }
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let by_name = self_seconds_by_name(spans);
        let sum: f64 = by_name.values().sum();
        assert!((sum - spans[0].dur_ns() as f64 * 1e-9).abs() < 1e-9);
        assert_eq!(durations_s(spans, "leaf").len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("root", 0);
        assert_eq!(t.scope("leaf", 0, || 5), 5);
        t.end(open);
        assert!(t.spans().is_empty());
    }
}

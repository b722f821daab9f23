//! In-memory span recorder and self-time derivation.
//!
//! A [`Tracer`] records one [`Span`] per call the benchmark wraps: its
//! name (`<layer>.<what>`), start and end relative to the tracer's
//! origin, and the span that was open when it began. Spans stay in
//! memory until [`Tracer::write_json`] writes them out at exit. A
//! disabled tracer records nothing and costs one branch per call, so the
//! same workload code serves the untraced (end-to-end) and traced
//! (per-layer) runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's wall-clock length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and does nothing otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Runs `f` inside a span named `name`, a child of the innermost span
    /// still open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(origin) = self.origin else { return f() };
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = origin.elapsed();
            spans.push(Span { name, start, end: start, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = origin.elapsed();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total wall time of every span with this exact name.
    pub fn total(&self, name: &str) -> Duration {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// Writes the spans as a JSON array of
    /// `{"name", "start_us", "end_us", "parent"}` objects.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{sep}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its direct children. Overlapping children (work a span
/// fanned out) are merged first, so no instant is subtracted twice, and
/// children are clipped to the parent's interval.
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
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, over the spans under (and including) the
/// span at `root`.
pub fn layer_self_times(spans: &[Span], root: usize) -> BTreeMap<&'static str, Duration> {
    let own = self_times(spans);
    let mut inside = vec![false; spans.len()];
    let mut totals = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so one forward pass marks the subtree.
        inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
        if inside[i] {
            *totals.entry(s.layer()).or_insert(Duration::ZERO) += own[i];
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start: ms(start), end: ms(end), parent }
    }

    #[test]
    fn children_are_subtracted_once_and_overlaps_merged() {
        let spans = vec![
            span("core.root", 0, 100, None),
            // Two overlapping children cover [10, 50] together: 40 ms.
            span("cart.a", 10, 40, Some(0)),
            span("cart.b", 30, 50, Some(0)),
            // A disjoint child: 10 ms.
            span("stats.c", 60, 70, Some(0)),
            // A grandchild must not be subtracted from the root again.
            span("stats.d", 62, 68, Some(3)),
            // A child running past its parent is clipped to it.
            span("astopo.e", 95, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], ms(100 - 40 - 10 - 5));
        assert_eq!(own[1], ms(30));
        assert_eq!(own[2], ms(20));
        assert_eq!(own[3], ms(4));
        assert_eq!(own[4], ms(6));
        assert_eq!(own[5], ms(25));

        let layers = layer_self_times(&spans, 0);
        assert_eq!(layers["core"], ms(45));
        assert_eq!(layers["cart"], ms(50));
        assert_eq!(layers["stats"], ms(10));
        assert_eq!(layers["astopo"], ms(25));
        // Restricting to a subtree leaves its siblings out.
        let sub = layer_self_times(&spans, 3);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub["stats"], ms(10));
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("core.outer", || t.span("cart.inner", || 7) + 1);
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);

        let off = Tracer::new(false);
        assert_eq!(off.span("core.outer", || 3), 3);
        assert!(off.spans().is_empty());
    }
}

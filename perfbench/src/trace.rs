//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Spans are written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// The request (query, write, batch) the span belongs to.
    pub request: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: t,
            end_ns: t,
        });
        self.spans.len() - 1
    }

    /// Closes span `i`.
    pub fn close(&mut self, i: usize) {
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let i = self.open(name, request, parent);
        let out = f();
        self.close(i);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children are sequential, so their durations add).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Total duration, total self time and count of the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, usize) {
        let selfs = self.self_times_ns();
        let mut out = (0, 0, 0);
        for (s, st) in self.spans.iter().zip(selfs) {
            if s.name == name {
                out.0 += s.duration_ns();
                out.1 += st;
                out.2 += 1;
            }
        }
        out
    }

    /// Tab-separated dump: `index request parent name start_ns end_ns self_ns`.
    pub fn to_tsv(&self) -> String {
        let selfs = self.self_times_ns();
        let mut s = String::from("index\trequest\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (sp, st)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = sp.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                s,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{st}",
                sp.request, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("query", 1, None);
        t.span("child", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let selfs = t.self_times_ns();
        assert_eq!(
            selfs[0],
            t.spans()[0].duration_ns() - t.spans()[1].duration_ns()
        );
        assert_eq!(selfs[1], t.spans()[1].duration_ns());
    }
}

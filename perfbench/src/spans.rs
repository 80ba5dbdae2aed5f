//! In-memory spans for the traced run, recorded by the benchmark around
//! its own calls into each layer and written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function called.
    pub name: &'static str,
    /// Unique id (recorder index in the high bits).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request (or training step) the span belongs to.
    pub req: u64,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// A span recorder. When off, [`Spans::time`] just calls the function.
pub struct Spans {
    on: bool,
    origin: Instant,
    id_base: u64,
    next: u64,
    /// Finished spans, in end order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `stream` keeps ids unique across recorders that share
    /// an `origin`.
    pub fn new(on: bool, origin: Instant, stream: u64) -> Spans {
        Spans {
            on,
            origin,
            id_base: stream << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id and start (0 when off).
    pub fn open(&mut self) -> (u64, u64) {
        if !self.on {
            return (0, 0);
        }
        self.next += 1;
        (self.id_base + self.next, self.now_ns())
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&mut self, name: &'static str, opened: (u64, u64), parent: u64, req: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: opened.0,
            parent,
            req,
            start_ns: opened.1,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let opened = self.open();
        let v = f();
        self.close(name, opened, parent, req);
        v
    }
}

/// Self time of every span, in µs: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
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
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.name, dur.saturating_sub(covered) as f64 / 1e3)
        })
        .collect()
}

/// Self times (µs) of the spans named `name`.
pub fn self_us(selfs: &[(&'static str, f64)], name: &str) -> Vec<f64> {
    selfs
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .collect()
}

/// Writes spans as JSONL (`name`, `id`, `parent`, `req`, `start_ns`,
/// `end_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("child", 2, 1, 10_000, 30_000),
            span("child", 3, 1, 20_000, 40_000),
            span("child", 4, 1, 60_000, 70_000),
            span("root", 1, 0, 0, 100_000),
        ];
        let selfs = self_times(&spans);
        assert_eq!(self_us(&selfs, "root"), vec![60.0]);
        assert_eq!(self_us(&selfs, "child"), vec![20.0, 20.0, 10.0]);
    }
}

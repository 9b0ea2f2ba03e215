//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each crate's public functions; the program under test is not touched.
//! Each span has a name, start, end, parent span and, for `serve`, the
//! id of the request it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines with their self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span's identifier, unique within one run.
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer-qualified name (`exp.fig10`, `thermal.solve`, ...).
    pub name: String,
    /// Request id shared by every span of one serve request.
    pub req: Option<u64>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Thread-safe span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &self,
        id: SpanId,
        name: &str,
        parent: Option<SpanId>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Self time of every span in milliseconds, keyed by span id: its
    /// duration minus the part of it that its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<SpanId, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .map(|s| {
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
                (s.id, own as f64 / 1e6)
            })
            .collect()
    }

    /// Self times (ms) of the spans called `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let own = self.self_ms();
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| own[&s.id])
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ms();
        let mut out = String::new();
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.id,
                opt(s.parent.map(u64::from)),
                s.name,
                opt(s.req),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own[&s.id] * 1e3,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A possibly disabled span sink, cheap to copy into op loops.
#[derive(Clone, Copy, Debug)]
pub struct Trace<'a>(pub Option<&'a Tracer>);

impl Trace<'_> {
    /// True when spans are being recorded.
    pub fn on(self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` inside a span called `name`. `f` receives the span's id
    /// (to parent nested spans), `None` when tracing is off.
    pub fn span<T>(
        self,
        name: &str,
        parent: Option<SpanId>,
        req: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(tracer) = self.0 else {
            return f(None);
        };
        let id = tracer.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        tracer.push(id, name, parent, req, start, end);
        out
    }
}

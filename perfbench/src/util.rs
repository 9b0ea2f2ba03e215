//! Shared measurement helpers: run budgets, order statistics, host
//! probes, seeded choices and the metric list every workload returns.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ena_testkit::rng::Xoshiro256pp;

use crate::trace::{Trace, Tracer};

/// How long a workload loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Closed loop for this many seconds: an op starts only when the
    /// previous op's latency still fits, so a run ends near its budget.
    Seconds(f64),
    /// Exactly this many ops (per connection for `serve`).
    Ops(usize),
}

impl Budget {
    /// True while another op should start, given `done` ops finished
    /// `elapsed` seconds into the loop with the last one taking `last`.
    pub fn more(self, done: usize, elapsed: f64, last: f64) -> bool {
        match self {
            Budget::Ops(n) => done < n,
            Budget::Seconds(s) => done == 0 || elapsed + last <= s,
        }
    }
}

/// Whether and how a workload loop records spans.
#[derive(Clone, Copy)]
pub enum Tracing<'a> {
    /// No spans: the end-to-end run.
    Off,
    /// Every other op traced, so one run yields both the per-layer spans
    /// and the untraced latencies the tracing overhead is measured from.
    Alternate(&'a Tracer),
    /// Every op traced (the short census runs of the other workloads).
    All(&'a Tracer),
}

impl<'a> Tracing<'a> {
    /// The span sink for op `i`.
    pub fn for_op(self, i: usize) -> Trace<'a> {
        match self {
            Tracing::Off => Trace(None),
            Tracing::Alternate(t) if i.is_multiple_of(2) => Trace(Some(t)),
            Tracing::Alternate(_) => Trace(None),
            Tracing::All(t) => Trace(Some(t)),
        }
    }

    /// The tracer, when spans are recorded at all.
    pub fn tracer(self) -> Option<&'a Tracer> {
        match self {
            Tracing::Off => None,
            Tracing::Alternate(t) | Tracing::All(t) => Some(t),
        }
    }
}

/// One op's outcome.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Latency in milliseconds.
    pub ms: f64,
    /// False when the op's output failed its check.
    pub ok: bool,
    /// True when spans were recorded during the op.
    pub traced: bool,
}

/// Named metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Median of the repeated set-ups, in seconds.
    pub setup_s: f64,
    /// Every op, in completion order per client.
    pub ops: Vec<Op>,
    /// Wall time of the measured loop, in seconds.
    pub wall_s: f64,
    /// Failures found outside any single op (e.g. a broken accounting
    /// identity at the end of a serve run).
    pub end_failures: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
}

impl Run {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Ops whose output failed its check.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok).count() as u64
    }

    /// Latencies of the ops with the given traced flag.
    pub fn latencies(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|op| op.traced == traced)
            .map(|op| op.ms)
            .collect()
    }
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1]; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `setup` `reps` times and returns the median wall time in seconds
/// together with the last repetition's value.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        let start = Instant::now();
        let value = setup(rep);
        times.push(secs(start));
        last = Some(value);
    }
    (median(&times), last.expect("at least one set-up ran"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Iterations of the host calibration loop.
const CALIB_ITERS: u64 = 20_000_000;

/// Times a fixed dependent integer loop once. It touches no program
/// code, so a shift in it between runs is host drift, not a regression.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..black_box(CALIB_ITERS) {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    secs(start) * 1e3
}

/// A seeded generator for one named input stream of a workload.
pub fn rng(seed: u64, stream: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256pp) {
    for i in (1..items.len()).rev() {
        let j = rng.bounded_u64(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The benchmark's scratch directory for this process, inside the
/// checkout; removed by [`WorkDir`]'s drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<pid>` under the current directory.
    pub fn create() -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A fresh, not yet existing path under the work directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space.
        drop(std::fs::remove_dir_all(&self.0));
    }
}

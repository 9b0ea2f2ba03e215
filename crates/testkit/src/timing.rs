//! A small wall-clock timing harness for `cargo bench` targets
//! (criterion replacement; enabled by the `timing` feature).
//!
//! Not a statistics engine: it warms up, auto-calibrates an iteration
//! batch to a target sample duration, collects a fixed number of samples,
//! and reports min/median/mean per iteration. Good enough to spot
//! order-of-magnitude regressions in the model hot paths while staying
//! dependency-free and offline.
//!
//! Environment knobs: `ENA_BENCH_SAMPLES` (default 20) and
//! `ENA_BENCH_SAMPLE_MS` (default 20 ms per sample).
//!
//! [`Harness::record`] keeps a group's ledger: a small JSON file of
//! per-bench medians that the next run of the group is regression-guarded
//! against (`ENA_BENCH_NO_GUARD=1` bypasses the guard, e.g. after changing
//! machines).

use std::path::Path;
use std::time::{Duration, Instant};

/// Tolerated median slowdown versus the previous recorded run.
pub const GUARD_FACTOR: f64 = 4.0;

/// Measurement of one benchmark: nanoseconds per iteration across samples.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark label.
    pub label: String,
    /// Iterations per sample used after calibration.
    pub iters_per_sample: u64,
    /// Per-iteration nanoseconds, one entry per sample, sorted ascending.
    pub ns_per_iter: Vec<f64>,
}

impl Measurement {
    /// Fastest observed sample (ns/iter).
    pub fn min_ns(&self) -> f64 {
        self.ns_per_iter.first().copied().unwrap_or(0.0)
    }

    /// Median sample (ns/iter).
    pub fn median_ns(&self) -> f64 {
        let n = self.ns_per_iter.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            self.ns_per_iter[n / 2]
        } else {
            0.5 * (self.ns_per_iter[n / 2 - 1] + self.ns_per_iter[n / 2])
        }
    }

    /// Mean across samples (ns/iter).
    pub fn mean_ns(&self) -> f64 {
        if self.ns_per_iter.is_empty() {
            return 0.0;
        }
        self.ns_per_iter.iter().sum::<f64>() / self.ns_per_iter.len() as f64
    }
}

fn human(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// A named group of benchmarks; the `main` object of a bench target.
pub struct Harness {
    group: String,
    samples: usize,
    sample_target: Duration,
    results: Vec<Measurement>,
}

impl Harness {
    /// Creates a harness for a bench group, honoring the environment
    /// knobs documented at the module level.
    pub fn new(group: impl Into<String>) -> Self {
        let samples = std::env::var("ENA_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20)
            .max(3);
        let sample_ms = std::env::var("ENA_BENCH_SAMPLE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20u64)
            .max(1);
        Self {
            group: group.into(),
            samples,
            sample_target: Duration::from_millis(sample_ms),
            results: Vec::new(),
        }
    }

    /// Overrides the number of samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(3);
        self
    }

    /// Runs one benchmark: calibrates, samples, prints one summary line,
    /// and records the measurement.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) -> &Measurement {
        // Warm-up + calibration: find an iteration count whose batch
        // takes roughly the target sample duration.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.sample_target || iters >= 1 << 30 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                (self.sample_target.as_nanos() / elapsed.as_nanos().max(1)).clamp(2, 16) as u64
            };
            iters = iters.saturating_mul(grow);
        }

        let mut ns_per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            ns_per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        ns_per_iter.sort_by(|a, b| a.total_cmp(b));

        let m = Measurement {
            label: label.to_string(),
            iters_per_sample: iters,
            ns_per_iter,
        };
        println!(
            "{:<40} median {:>12}  mean {:>12}  min {:>12}  ({} iters x {} samples)",
            format!("{}/{}", self.group, m.label),
            human(m.median_ns()),
            human(m.mean_ns()),
            human(m.min_ns()),
            m.iters_per_sample,
            self.samples,
        );
        self.results.push(m);
        self.results.last().expect("just pushed")
    }

    /// All measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Writes `results` to `path` as this group's ledger, after guarding
    /// each median against the ledger a previous run left there. Returns
    /// `Ok(false)` if any median is more than [`GUARD_FACTOR`]x its
    /// recorded value (each culprit is named on stderr); the guard is
    /// skipped when `ENA_BENCH_NO_GUARD` is set.
    ///
    /// # Errors
    ///
    /// Writing the ledger failed.
    pub fn record(&self, path: &Path, results: &[&Measurement]) -> std::io::Result<bool> {
        let previous = std::fs::read_to_string(path)
            .map(|text| ledger_medians(&text))
            .unwrap_or_default();
        std::fs::write(path, ledger_json(&self.group, self.samples, results))?;
        println!("wrote {}", path.display());
        if std::env::var_os("ENA_BENCH_NO_GUARD").is_some() {
            return Ok(true);
        }
        let mut clean = true;
        for m in results {
            if let Some((_, old)) = previous.iter().find(|(l, _)| *l == m.label) {
                let ratio = m.median_ns() / old.max(1e-9);
                if ratio > GUARD_FACTOR {
                    eprintln!(
                        "REGRESSION: {} median {:.0} ns is {ratio:.1}x the recorded {:.0} ns",
                        m.label,
                        m.median_ns(),
                        old
                    );
                    clean = false;
                }
            }
        }
        Ok(clean)
    }
}

/// A bench group's ledger: JSON naming the group and sample count, and
/// each bench's median, min and mean ns/iter.
fn ledger_json(group: &str, samples: usize, results: &[&Measurement]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\n  \"group\": \"{group}\",\n");
    let _ = writeln!(out, "  \"samples\": {samples},");
    out.push_str("  \"benches\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"label\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"mean_ns\": {:.1}}}",
            m.label,
            m.median_ns(),
            m.min_ns(),
            m.mean_ns()
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `(label, median_ns)` pairs of a ledger [`ledger_json`] wrote,
/// read without a parser dependency.
fn ledger_medians(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in text.split("\"label\": \"").skip(1) {
        let Some(label_end) = chunk.find('"') else {
            continue;
        };
        let Some(at) = chunk.find("\"median_ns\": ") else {
            continue;
        };
        let rest = &chunk[at + "\"median_ns\": ".len()..];
        let value: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if let Ok(v) = value.parse::<f64>() {
            out.push((chunk[..label_end].to_string(), v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_ordered_and_positive() {
        std::env::set_var("ENA_BENCH_SAMPLES", "3");
        std::env::set_var("ENA_BENCH_SAMPLE_MS", "1");
        let mut h = Harness::new("testkit");
        let m = h.bench("spin", || std::hint::black_box((0..100u64).sum::<u64>()));
        assert!(m.min_ns() > 0.0);
        assert!(m.min_ns() <= m.median_ns());
        assert!(m.median_ns() <= *m.ns_per_iter.last().unwrap());
        assert_eq!(m.ns_per_iter.len(), 3);
    }

    #[test]
    fn median_of_even_sample_counts_averages() {
        let m = Measurement {
            label: "m".into(),
            iters_per_sample: 1,
            ns_per_iter: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert_eq!(m.median_ns(), 2.5);
        assert_eq!(m.mean_ns(), 2.5);
        assert_eq!(m.min_ns(), 1.0);
    }

    #[test]
    fn the_ledger_reads_back_its_labels_and_medians() {
        let measure = |label: &str, ns: Vec<f64>| Measurement {
            label: label.into(),
            iters_per_sample: 1,
            ns_per_iter: ns,
        };
        let a = measure("append_64", vec![1.0, 2.5, 9.0]);
        let b = measure("open_warm", vec![1200.25, 1300.75]);
        let text = ledger_json("cache", 3, &[&a, &b]);
        assert!(text.starts_with("{\n  \"group\": \"cache\",\n  \"samples\": 3,\n"));
        assert_eq!(
            ledger_medians(&text),
            vec![
                ("append_64".to_string(), 2.5),
                ("open_warm".to_string(), 1250.5)
            ]
        );
    }
}

//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper|sweep|serve> --seed <n> --seconds <s> --trace <0|1> [--ops <n>]
//! ```
//!
//! Run from the repository root (the paper workload reads the goldens
//! under `artifacts/`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured without
//! spans. With `--trace 1` they are the per-layer ones: the workload runs
//! with every other op traced, each other workload runs a short census,
//! and every simulator layer is called once at the paper's inputs. The
//! spans are written to `.bench_work/spans-<workload>-seed<n>.jsonl`.
//! `--ops` replaces the time budget by a fixed op count.

mod layers;
mod paper;
mod serve;
mod sweep;
mod trace;
mod util;

use std::path::Path;

use trace::Tracer;
use util::{median, percentile, Budget, Metrics, Run, Tracing, WorkDir};

/// Every workload, in the order their per-layer metrics are emitted.
const WORKLOADS: [&str; 3] = ["paper", "sweep", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut ops) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            "--ops" => ops = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; use one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        ops,
    })
}

fn run_workload(
    name: &str,
    seed: u64,
    budget: Budget,
    tracing: Tracing<'_>,
    work: &WorkDir,
) -> Result<Run, String> {
    match name {
        "paper" => paper::run(seed, budget, tracing),
        "sweep" => sweep::run(seed, budget, tracing),
        "serve" => serve::run(seed, budget, tracing, work),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// Ops each other workload runs in a traced run's census (per
/// connection for `serve`).
fn census_budget(name: &str) -> Budget {
    match name {
        "paper" => Budget::Ops(1),
        "sweep" => Budget::Ops(3),
        _ => Budget::Ops(20),
    }
}

/// The result line. Every value must be a finite number.
fn report(attempted: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, value, unit) in &metrics.0 {
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    if !Path::new("artifacts").is_dir() {
        return Err("run from the repository root (no artifacts/ here)".to_string());
    }
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    let calib_ms = util::calib_ms();
    eprintln!(
        "perfbench: workload {} seed {} trace {} host.calib_ms {calib_ms:.3}",
        args.workload, args.seed, args.trace as u8
    );
    let budget = args.ops.map_or(Budget::Seconds(args.seconds), Budget::Ops);

    let mut metrics = Metrics::default();
    if !args.trace {
        let run = run_workload(&args.workload, args.seed, budget, Tracing::Off, &work)?;
        let latencies = run.latencies(false);
        metrics.push("setup_s", run.setup_s, "s");
        metrics.push("op_ms_p50", median(&latencies), "ms");
        metrics.push("op_ms_p90", percentile(&latencies, 0.9), "ms");
        metrics.push("ops_per_s", latencies.len() as f64 / run.wall_s, "1/s");
        metrics.push("peak_rss_mb", util::peak_rss_mb(), "MB");
        eprintln!("perfbench: {} ops in {:.3} s", latencies.len(), run.wall_s);
        let failed = run.failed() + run.end_failures;
        return report(run.attempted(), failed, &metrics);
    }

    let tracer = Tracer::default();
    let own = run_workload(
        &args.workload,
        args.seed,
        budget,
        Tracing::Alternate(&tracer),
        &work,
    )?;
    let overhead_ms = median(&own.latencies(true)) - median(&own.latencies(false));
    let (mut attempted, mut failed) = (own.attempted(), own.failed() + own.end_failures);
    let mut own = Some(own);
    for name in WORKLOADS {
        let run = if name == args.workload {
            own.take().expect("own run is emitted once")
        } else {
            let census = Tracing::All(&tracer);
            let run = run_workload(name, args.seed, census_budget(name), census, &work)?;
            attempted += run.attempted();
            failed += run.failed() + run.end_failures;
            run
        };
        metrics.extend(run.layers);
    }
    metrics.extend(layers::census(&tracer)?);
    metrics.push("host.calib_ms", calib_ms, "ms");
    metrics.push("trace.overhead_ms", overhead_ms, "ms");
    metrics.push("trace.spans", tracer.len() as f64, "count");

    let spans =
        Path::new(".bench_work").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    report(attempted, failed, &metrics)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

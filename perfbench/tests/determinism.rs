//! Runs each workload traced, twice with the same seed and a fixed op
//! count, and checks that the deterministic per-layer counts repeat
//! exactly; then runs one held-out seed. Every run must pass all of its
//! correctness checks.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

/// Counts a later change may rest a claim on: they must repeat exactly.
const DETERMINISTIC: [&str; 8] = [
    "gpu.cycles",
    "memory.accesses",
    "noc.delivered",
    "sweep.fresh_evals",
    "sweep.chunks",
    "serve.evals",
    "serve.appended",
    "thermal.solves",
];

/// Of those, the ones no workload seed can move.
const SEED_FREE: [&str; 6] = [
    "gpu.cycles",
    "memory.accesses",
    "noc.delivered",
    "sweep.fresh_evals",
    "sweep.chunks",
    "thermal.solves",
];

const SEED: u64 = 7;
const HELD_OUT_SEED: u64 = 20_261_016;

struct Outcome {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs the benchmark binary from the repository root and parses the
/// result line.
fn traced(workload: &str, seed: u64) -> Outcome {
    // Serve's first six ops per connection cover each request kind
    // traced and untraced.
    let ops = if workload == "serve" { "6" } else { "2" };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "60", "--trace", "1", "--ops", ops])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 result");
    let line = stdout.lines().last().expect("a result line");
    let field = |key: &str| {
        line.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            .to_string()
    };
    let body = line
        .split("\"metrics\": {")
        .nth(1)
        .expect("a metrics object");
    let metrics = body
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let value = entry
                .split("\"value\": ")
                .nth(1)
                .and_then(|v| v.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no value in {entry}"));
            (name, value)
        })
        .collect();
    Outcome {
        correct: field("correct") == "true",
        failed: field("failed").parse().expect("failed count"),
        metrics,
    }
}

fn check_workload(workload: &str) -> Outcome {
    let first = traced(workload, SEED);
    let second = traced(workload, SEED);
    for run in [&first, &second] {
        assert!(run.correct && run.failed == 0, "{workload}: failed ops");
    }
    for count in DETERMINISTIC {
        assert_eq!(
            first.metrics.get(count),
            second.metrics.get(count),
            "{workload}: {count} did not repeat"
        );
        assert!(first.metrics.contains_key(count), "{workload}: no {count}");
    }
    let held_out = traced(workload, HELD_OUT_SEED);
    assert!(
        held_out.correct && held_out.failed == 0,
        "{workload}: held-out seed failed"
    );
    for count in SEED_FREE {
        assert_eq!(
            first.metrics.get(count),
            held_out.metrics.get(count),
            "{workload}: {count} moved with the seed"
        );
    }
    first
}

#[test]
fn paper_counts_repeat_and_the_experiments_account_for_the_pass() {
    let run = check_workload("paper");
    let m = &run.metrics;
    let experiments: f64 = m
        .iter()
        .filter(|(k, _)| {
            k.starts_with("exp.") && !matches!(k.as_str(), "exp.pass_ms" | "exp.unaccounted_ms")
        })
        .map(|(_, v)| v)
        .sum();
    let pass = m["exp.pass_ms"];
    assert!(
        (pass - experiments).abs() <= 0.05 * pass,
        "experiment spans cover {experiments} ms of a {pass} ms pass"
    );
}

#[test]
fn sweep_counts_repeat() {
    check_workload("sweep");
}

#[test]
fn serve_counts_repeat_and_the_stall_is_reported_beside_handle_time() {
    let run = check_workload("serve");
    for kind in ["hit", "miss", "pipe16"] {
        for metric in [
            format!("serve.rtt_ms.{kind}"),
            format!("serve.handle_us.{kind}"),
        ] {
            assert!(run.metrics[&metric] > 0.0, "{metric} missing");
        }
    }
    assert!(run.metrics.contains_key("serve.stall_ms"));
}

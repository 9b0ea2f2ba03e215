//! Reproduces the paper's Section V/VI design-space exploration: sweep
//! >1000 configurations, find the best-mean point under the 160 W budget,
//! > and print the Table II per-application oracle.
//!
//! The sweep runs through the `ena-sweep` engine's parallel workers,
//! which are byte-identical to the sequential `Explorer` oracle, so the
//! result rows are unchanged while the telemetry shows the engine at
//! work. The final section re-runs the winning configuration under a
//! seeded single-chiplet loss (the sweep x fault cross-product).
//!
//! Run with `cargo run --release --example design_space_exploration`.

use ena::core::dse::DesignSpace;
use ena::core::Explorer;
use ena::faults::sweep_degraded;
use ena::sweep::{SweepEngine, SweepSpec};
use ena::workloads::paper_profiles;

fn main() {
    let space = DesignSpace::paper();
    println!(
        "sweeping {} configurations ({} CU counts x {} clocks x {} bandwidths)...",
        space.len(),
        space.cu_counts.len(),
        space.clocks.len(),
        space.bandwidths.len()
    );

    let engine = SweepEngine::new(Explorer::default());
    let mut spec = SweepSpec::new(space, paper_profiles());
    spec.run.jobs = 4;
    let outcome = engine.run(&spec).expect("paper sweep completes");
    let result = &outcome.result;

    println!(
        "feasible under {}: {} of {}",
        engine.explorer().budget,
        result.feasible,
        result.evaluated
    );
    println!("best-mean configuration: {}\n", result.best_mean.label());

    println!(
        "{:<10} {:>22} {:>14}",
        "app", "best config", "benefit vs mean"
    );
    for a in &result.per_app {
        println!(
            "{:<10} {:>22} {:>13.1}%",
            a.app,
            a.point.label(),
            a.benefit_over_mean_pct
        );
    }

    let t = &outcome.telemetry;
    println!("\ntelemetry: {} points on {} jobs", t.total_points, t.jobs);
    for (i, w) in t.workers.iter().enumerate() {
        println!(
            "  worker {i}: {} chunks, {} points, {} steals",
            w.chunks, w.points, w.steals
        );
    }

    // Cross-product with the fault engine: what does the winning
    // configuration retain when a GPU chiplet dies mid-run?
    let report = sweep_degraded(result.best_mean, "CoMD", 0xC0FFEE)
        .expect("single-chiplet loss is survivable");
    println!(
        "degraded best-mean ({} under seeded single-chiplet loss): {:.1}% throughput retained",
        result.best_mean.label(),
        100.0 * report.throughput_retained()
    );
}

//! Quickstart: evaluate the paper's baseline node on the workload suite.
//!
//! Run with `cargo run --example quickstart`.

use ena::core::node::{EvalOptions, NodeSimulator};
use ena::model::config::EhpConfig;
use ena::workloads::paper_profiles;

fn main() {
    let sim = NodeSimulator::new();
    let config = EhpConfig::paper_baseline();

    println!(
        "EHP baseline: {} CUs @ {} / {:.0} GB/s in-package, {:.0} GB node memory",
        config.gpu.total_cus(),
        config.gpu.clock,
        config.hbm.total_bandwidth().value(),
        config.total_memory_capacity().value(),
    );
    println!(
        "peak: {:.1} DP teraflops\n",
        config.peak_throughput().teraflops()
    );

    println!(
        "{:<10} {:>9} {:>11} {:>10} {:>10}",
        "app", "TF", "package W", "node W", "GF/W"
    );
    for profile in paper_profiles() {
        let eval = sim.evaluate(&config, &profile, &EvalOptions::default());
        println!(
            "{:<10} {:>9.2} {:>11.1} {:>10.1} {:>10.1}",
            profile.name,
            eval.perf.throughput.teraflops(),
            eval.package_power().value(),
            eval.node_power().value(),
            eval.efficiency(),
        );
    }

    // Thermal check for the hottest workload.
    let maxflops = paper_profiles()
        .into_iter()
        .next()
        .expect("suite is non-empty");
    let eval = sim.evaluate(&config, &maxflops, &EvalOptions::default());
    println!(
        "\nMaxFlops peak in-package DRAM temperature: {:.1} (limit 85 degC)",
        sim.peak_dram(&config, &eval)
    );
}

//! Integration tests across the substrate crates: the GPU timing model
//! and the HSA runtime working together with the workload suite and the
//! analytic node model.

use ena::gpu::backend::HbmBackend;
use ena::gpu::sim::{CuConfig, GpuSim};
use ena::gpu::synth::wavefronts_for;
use ena::hsa::runtime::{Runtime, RuntimeConfig};
use ena::hsa::task::{TaskCost, TaskGraph};
use ena::workloads::{paper_profiles, profile_for};

/// Profile-synthesized wavefronts on the banked-HBM backend show the same
/// compute-vs-memory split the analytic categories claim.
#[test]
fn timing_sim_on_real_hbm_matches_categories() {
    let run = |name: &str| {
        let profile = profile_for(name).unwrap();
        let wavefronts = wavefronts_for(&profile, 16, 5);
        let mut backend = HbmBackend::new(8);
        let stats = GpuSim::new(CuConfig::default(), &mut backend).run(wavefronts);
        stats.flops_per_cycle() / 64.0
    };
    let maxflops = run("MaxFlops");
    let comd = run("CoMD");
    let xsbench = run("XSBench");
    assert!(maxflops > 0.8, "MaxFlops eff {maxflops}");
    assert!(comd < maxflops + 1e-9);
    assert!(
        xsbench < 0.5 * maxflops,
        "XSBench {xsbench} vs MaxFlops {maxflops}"
    );
}

/// An end-to-end heterogeneous pipeline: a CPU serial stage feeds a fan
/// of GPU kernels scheduled by the HSA runtime, then a CPU join.
#[test]
fn a_cpu_stage_feeds_a_gpu_fan_through_the_hsa_runtime() {
    // A 2M-instruction serial stage at 2.5 GHz with 5 misses per kilo-
    // instruction takes about this long (µs).
    let serial_us = 663.0;

    // Build a DAG: that serial stage, then a fan of GPU kernels.
    let mut g = TaskGraph::new();
    let pre = g.add("serial", TaskCost::cpu(serial_us), &[]).unwrap();
    let kernels: Vec<_> = (0..16)
        .map(|i| {
            g.add(format!("k{i}"), TaskCost::gpu(300.0), &[pre])
                .unwrap()
        })
        .collect();
    g.add("post", TaskCost::cpu(50.0), &kernels).unwrap();

    let schedule = Runtime::new(RuntimeConfig::hsa()).execute(&g);
    // The serial stage dominates; the GPU fan adds ~2 rounds over 8 queues.
    assert!(schedule.makespan_us > serial_us);
    assert!(
        schedule.makespan_us < serial_us + 1000.0,
        "makespan {} vs serial {serial_us}",
        schedule.makespan_us
    );
}

/// The CLI wraps the same models: its suite report agrees with direct
/// evaluation.
#[test]
fn cli_agrees_with_the_library() {
    let out = ena_cli::execute(ena_cli::parse(vec!["suite".into()]).unwrap()).unwrap();
    let sim = ena::core::node::NodeSimulator::new();
    let config = ena::model::config::EhpConfig::paper_baseline();
    for profile in paper_profiles() {
        let eval = sim.evaluate(&config, &profile, &ena::core::node::EvalOptions::default());
        let tf = format!("{:.2}", eval.perf.throughput.teraflops());
        assert!(
            out.contains(&tf),
            "CLI output missing {} = {tf} TF:\n{out}",
            profile.name
        );
    }
}

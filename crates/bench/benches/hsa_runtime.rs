//! Benchmarks the HSA runtime scheduler and the CPU interval models.
//!
//! Run with `cargo bench -p ena-bench --features timing`.

use ena_cpu::core::CoreModel;
use ena_cpu::program::CpuProgram;
use ena_cpu::window::{simulate, WindowConfig};
use ena_hsa::runtime::{Runtime, RuntimeConfig};
use ena_hsa::task::{TaskCost, TaskGraph};
use ena_model::units::Megahertz;
use ena_testkit::timing::Harness;

fn wide_graph(tasks: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let pre = g.add("pre", TaskCost::cpu(5.0), &[]).unwrap();
    for i in 0..tasks {
        g.add(format!("k{i}"), TaskCost::either(20.0, 10.0), &[pre])
            .unwrap();
    }
    g
}

/// The substrates study's finest offload split: `pre` fans out to
/// `kernels` GPU kernels that all fan in to `post`.
fn fan_in_graph(kernels: u32) -> TaskGraph {
    let mut g = TaskGraph::new();
    let pre = g.add("pre", TaskCost::cpu(10.0), &[]).unwrap();
    let ks: Vec<_> = (0..kernels)
        .map(|i| {
            g.add(
                format!("k{i}"),
                TaskCost::gpu(40_000.0 / f64::from(kernels)),
                &[pre],
            )
            .unwrap()
        })
        .collect();
    g.add("post", TaskCost::cpu(10.0), &ks).unwrap();
    g
}

fn main() {
    let mut h = Harness::new("substrates");
    let g = wide_graph(500);
    h.bench("hsa/schedule_500_tasks", || {
        std::hint::black_box(Runtime::new(RuntimeConfig::hsa()).execute(&g))
    });

    let fan_in = fan_in_graph(4096);
    h.bench("hsa/schedule_4096_kernel_fan_in", || {
        std::hint::black_box(Runtime::new(RuntimeConfig::hsa()).execute(&fan_in))
    });

    let program = CpuProgram::synthesize(1_000_000, 10.0, 2);
    let core = CoreModel::default();
    h.bench("cpu/leading_loads_analytic", || {
        std::hint::black_box(core.run(&program, Megahertz::new(2500.0)))
    });

    let small = CpuProgram::synthesize(100_000, 10.0, 2);
    h.bench("cpu/window_sim_100k_instructions", || {
        std::hint::black_box(simulate(&WindowConfig::default(), &small))
    });
}

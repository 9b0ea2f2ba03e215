//! Benchmarks the wavefront timing simulator on the validation inputs of
//! two workloads: LULESH (memory-bound, the general issue loop) and
//! MaxFlops (pipe-bound, the O(1)-per-grant fast path), each over both
//! memory backends.
//!
//! Run with `cargo bench -p ena-bench --features timing`.

use ena_gpu::backend::{FixedLatency, HbmBackend};
use ena_gpu::sim::{CuConfig, GpuSim};
use ena_gpu::synth::wavefronts_for;
use ena_testkit::timing::Harness;
use ena_workloads::profile_for;

fn main() {
    let mut h = Harness::new("gpu_timing");
    for (app, label) in [("LULESH", "lulesh"), ("MaxFlops", "maxflops")] {
        let profile = profile_for(app).unwrap();
        let wavefronts = wavefronts_for(&profile, 24, 7);

        h.bench(&format!("{label}/fixed_latency"), || {
            let mut mem = FixedLatency::new(170, 7);
            std::hint::black_box(GpuSim::new(CuConfig::default(), &mut mem).run(wavefronts.clone()))
        });

        h.bench(&format!("{label}/hbm_backend"), || {
            let mut mem = HbmBackend::new(8);
            std::hint::black_box(GpuSim::new(CuConfig::default(), &mut mem).run(wavefronts.clone()))
        });
    }
}

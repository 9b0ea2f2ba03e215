//! Benchmarks the transient-fault layer: schedule sampling, the full
//! ECC/retry/rollback campaign, and the Monte Carlo Young/Daly recovery
//! simulation — all on fixed seeds, so run-to-run spread is pure machine
//! noise, not workload variance.
//!
//! Run with `cargo bench -p ena-bench --features timing --bench faults`.
//! The measurements land machine-readably in
//! `artifacts/BENCH_faults.json`; if a previous file exists, each median
//! is regression-guarded against it (a > `timing::GUARD_FACTOR`x slowdown
//! fails the run; set `ENA_BENCH_NO_GUARD=1` to bypass, e.g. when
//! changing machines).

use ena_fabric::RecoveryModel;
use ena_faults::{
    run_transient_campaign, TransientCampaignSpec, TransientRates, TransientSchedule,
};
use ena_testkit::golden::artifacts_dir;
use ena_testkit::timing::Harness;

fn main() {
    let mut h = Harness::new("faults");
    h.sample_size(10);

    let rates = TransientRates::standard();
    let spec = TransientCampaignSpec::standard(0xC0FFEE);
    let horizon = spec.horizon_us();
    let recovery = RecoveryModel::new(96.0, 3.0);

    let sample = h
        .bench("transient_schedule_sample", || {
            std::hint::black_box(TransientSchedule::sample(0xC0FFEE, rates, horizon).digest())
        })
        .clone();
    let campaign = h
        .bench("transient_campaign", || {
            std::hint::black_box(run_transient_campaign(&spec).makespan_us)
        })
        .clone();
    let daly = h
        .bench("daly_recovery_simulate_n8", || {
            std::hint::black_box(recovery.simulated_efficiency(8, 0xFA17))
        })
        .clone();

    let path = artifacts_dir().join("BENCH_faults.json");
    let clean = h
        .record(&path, &[&sample, &campaign, &daly])
        .expect("write BENCH_faults.json");
    if !clean {
        std::process::exit(1);
    }
}

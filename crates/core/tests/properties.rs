//! Property-based tests for the node performance model and simulator.

use ena_core::node::{EvalOptions, NodeSimulator};
use ena_core::perf::PerfModel;
use ena_core::resilience::FaultCampaign;
use ena_model::config::EhpConfig;
use ena_model::units::{GigabytesPerSec, Megahertz};
use ena_testkit::prelude::*;
use ena_workloads::paper_profiles;

fn arbitrary_config() -> impl Strategy<Value = EhpConfig> {
    (24u32..=48, 600.0f64..1500.0, 1.0f64..7.0).prop_map(|(cpc, mhz, tbps)| {
        EhpConfig::builder()
            .total_cus(cpc * 8)
            .gpu_clock(Megahertz::new(mhz))
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(tbps))
            .build()
            .expect("in-range config")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn throughput_respects_the_compute_roof(
        config in arbitrary_config(),
        miss in 0.0f64..=1.0,
        app in 0usize..8,
    ) {
        let profile = &paper_profiles()[app];
        let e = PerfModel::default().evaluate(&config, profile, miss);
        prop_assert!(e.throughput.value() <= e.compute_roof.value() + 1e-9);
        prop_assert!(e.throughput.value() >= 0.0);
        prop_assert!(e.latency_factor > 0.0 && e.latency_factor <= 1.0);
    }

    #[test]
    fn more_misses_never_help(
        config in arbitrary_config(),
        a in 0.0f64..=1.0,
        b in 0.0f64..=1.0,
        app in 0usize..8,
    ) {
        let profile = &paper_profiles()[app];
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let model = PerfModel::default();
        let at_lo = model.evaluate(&config, profile, lo).throughput.value();
        let at_hi = model.evaluate(&config, profile, hi).throughput.value();
        prop_assert!(at_hi <= at_lo + 1e-9, "{}: {at_lo} -> {at_hi}", profile.name);
    }

    #[test]
    fn more_bandwidth_never_hurts(
        cpc in 24u32..=48,
        mhz in 600.0f64..1500.0,
        tbps in 1.0f64..6.0,
        extra in 0.1f64..2.0,
        app in 0usize..8,
    ) {
        let profile = &paper_profiles()[app];
        let build = |t: f64| {
            EhpConfig::builder()
                .total_cus(cpc * 8)
                .gpu_clock(Megahertz::new(mhz))
                .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(t))
                .build()
                .unwrap()
        };
        let model = PerfModel::default();
        let base = model.evaluate(&build(tbps), profile, 0.15).throughput.value();
        let more = model.evaluate(&build(tbps + extra), profile, 0.15).throughput.value();
        prop_assert!(more >= base - 1e-9);
    }

    #[test]
    fn node_power_is_positive_and_bounded(
        config in arbitrary_config(),
        miss in 0.0f64..=1.0,
        app in 0usize..8,
    ) {
        let profile = &paper_profiles()[app];
        let sim = NodeSimulator::new();
        let eval = sim.evaluate(&config, profile, &EvalOptions::with_miss_fraction(miss));
        let pkg = eval.package_power().value();
        let node = eval.node_power().value();
        prop_assert!(pkg > 20.0, "package {pkg}");
        prop_assert!(node >= pkg);
        prop_assert!(node < 600.0, "node {node}");
        prop_assert!(eval.efficiency().is_finite());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Monte Carlo leg measures a fraction of its horizon: useful
    /// work never exceeds the time simulated, whatever the campaign.
    #[test]
    fn simulated_efficiency_stays_in_the_unit_interval(
        mttf_hours in 1.0f64..2e6,
        checkpoint_hours in 0.001f64..2.0,
        interval_hours in 0.01f64..5000.0,
        restart_hours in 0.0f64..2.0,
        total_hours in 10.0f64..20_000.0,
        seed in 0u64..u64::MAX,
    ) {
        let campaign = FaultCampaign {
            mttf_hours,
            checkpoint_hours,
            interval_hours,
            restart_hours,
        };
        let efficiency = campaign.simulate(total_hours, seed);
        prop_assert!(
            (0.0..=1.0).contains(&efficiency),
            "{campaign:?} over {total_hours} h: {efficiency}"
        );
    }
}

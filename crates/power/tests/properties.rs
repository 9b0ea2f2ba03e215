//! Property-based tests for the power models.

use ena_model::config::EhpConfig;
use ena_model::units::{GigabytesPerSec, Megahertz};
use ena_power::breakdown::Component;
use ena_power::dvfs::VfCurve;
use ena_power::model::{ActivityVector, NodePowerModel};
use ena_power::opts::{apply_optimizations, OptimizationContext, PowerOptimization};
use ena_testkit::prelude::*;

fn arbitrary_activity() -> impl Strategy<Value = ActivityVector> {
    (
        0.0f64..30_000.0,
        0.0f64..7000.0,
        0.0f64..640.0,
        0.0f64..=1.0,
        0.0f64..=1.0,
        0.0f64..7000.0,
        0.0f64..=1.0,
    )
        .prop_map(|(gf, hbm, ext, wf, nvm, noc, cpu)| ActivityVector {
            achieved_gflops: gf,
            hbm_traffic_gbps: hbm,
            ext_traffic_gbps: ext,
            write_fraction: wf,
            nvm_traffic_fraction: nvm,
            noc_traffic_gbps: noc,
            cpu_activity: cpu,
        })
}

proptest! {
    #[test]
    fn voltage_is_within_curve_bounds(mhz in 0.0f64..3000.0) {
        let c = VfCurve::gpu_default();
        let v = c.voltage(Megahertz::new(mhz)).value();
        prop_assert!(v >= c.v_min.value() - 1e-12);
        prop_assert!(v <= c.v_max.value() + 1e-12);
    }

    #[test]
    fn dynamic_scale_is_monotone_in_frequency(a in 600.0f64..1500.0, b in 600.0f64..1500.0) {
        let c = VfCurve::gpu_default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            c.dynamic_scale(Megahertz::new(lo)) <= c.dynamic_scale(Megahertz::new(hi)) + 1e-12
        );
    }

    #[test]
    fn all_components_are_non_negative(activity in arbitrary_activity()) {
        let model = NodePowerModel::default();
        let b = model.evaluate(&EhpConfig::paper_baseline(), &activity);
        for c in Component::ALL {
            prop_assert!(b.get(c).value() >= 0.0, "{c}: {}", b.get(c));
        }
        let parts: f64 = Component::ALL.iter().map(|&c| b.get(c).value()).sum();
        prop_assert!((parts - b.total().value()).abs() < 1e-9);
    }

    #[test]
    fn optimizations_never_increase_any_component(
        activity in arbitrary_activity(),
        mhz in 600.0f64..1500.0,
    ) {
        let config = EhpConfig::builder()
            .gpu_clock(Megahertz::new(mhz))
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(3.0))
            .build()
            .unwrap();
        let model = NodePowerModel::default();
        let base = model.evaluate(&config, &activity);
        let ctx = OptimizationContext::new(config.gpu.clock);
        let opt = apply_optimizations(&base, &ctx, &PowerOptimization::ALL);
        for c in Component::ALL {
            prop_assert!(opt.get(c).value() <= base.get(c).value() + 1e-12, "{c}");
        }
    }

    #[test]
    fn power_is_monotone_in_traffic(activity in arbitrary_activity(), extra in 0.0f64..1000.0) {
        let model = NodePowerModel::default();
        let config = EhpConfig::paper_baseline();
        let base = model.evaluate(&config, &activity).total();
        let mut more = activity;
        more.hbm_traffic_gbps += extra;
        let grown = model.evaluate(&config, &more).total();
        prop_assert!(grown.value() >= base.value() - 1e-12);
    }
}

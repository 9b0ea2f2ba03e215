//! The node power model.
//!
//! Mirrors the paper's methodology: per-component power computed from
//! activity (achieved FLOPs, traffic volumes) times energy coefficients,
//! plus background power, with DVFS scaling from the voltage-frequency
//! curve. The coefficients are 2022-era projections calibrated so the
//! paper-baseline configuration lands near its reported operating points
//! (~111 W node power for MaxFlops at 1 TB/s, Fig. 14; a 160 W package
//! budget that binds near 320 CUs / 1 GHz / 3 TB/s).

use ena_model::config::{EhpConfig, ExternalModuleKind};
use ena_model::units::Watts;

use crate::breakdown::{Component, PowerBreakdown};
use crate::dvfs::VfCurve;

/// Activity inputs measured or predicted for one kernel execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActivityVector {
    /// Achieved double-precision GFLOP/s.
    pub achieved_gflops: f64,
    /// Offered in-package DRAM traffic in GB/s.
    pub hbm_traffic_gbps: f64,
    /// Offered external-memory traffic in GB/s.
    pub ext_traffic_gbps: f64,
    /// Write share of memory traffic.
    pub write_fraction: f64,
    /// Fraction of external traffic served by NVM modules.
    pub nvm_traffic_fraction: f64,
    /// Chiplet-crossing NoC traffic in GB/s.
    pub noc_traffic_gbps: f64,
    /// CPU complex activity in `[0, 1]`.
    pub cpu_activity: f64,
}

impl ActivityVector {
    /// A fully idle node.
    pub fn idle() -> Self {
        Self {
            achieved_gflops: 0.0,
            hbm_traffic_gbps: 0.0,
            ext_traffic_gbps: 0.0,
            write_fraction: 0.0,
            nvm_traffic_fraction: 0.0,
            noc_traffic_gbps: 0.0,
            cpu_activity: 0.0,
        }
    }
}

/// Tunable energy/power coefficients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerCoefficients {
    /// CU energy per DP FLOP at nominal voltage (pJ).
    pub cu_pj_per_flop: f64,
    /// Fraction of the per-FLOP energy burnt by stalled/idle issue slots.
    pub cu_idle_activity: f64,
    /// CU leakage per CU at nominal voltage (W).
    pub cu_leakage_w: f64,
    /// CPU idle floor (W).
    pub cpu_idle_w: f64,
    /// CPU active power above idle (W).
    pub cpu_active_w: f64,
    /// NoC router energy (pJ/bit).
    pub noc_router_pj_per_bit: f64,
    /// NoC link energy (pJ/bit).
    pub noc_link_pj_per_bit: f64,
    /// NoC background power (W).
    pub noc_static_w: f64,
    /// In-package DRAM access energy (pJ/bit).
    pub hbm_pj_per_bit: f64,
    /// In-package PHY/controller power per provisioned TB/s (W).
    pub hbm_phy_w_per_tbps: f64,
    /// In-package refresh/background power per GB (W).
    pub hbm_static_w_per_gb: f64,
    /// External DRAM access energy (pJ/bit).
    pub ext_dram_pj_per_bit: f64,
    /// External NVM read energy (pJ/bit).
    pub ext_nvm_read_pj_per_bit: f64,
    /// External NVM write energy (pJ/bit).
    pub ext_nvm_write_pj_per_bit: f64,
    /// External DRAM background power per GB (W).
    pub ext_dram_static_w_per_gb: f64,
    /// External NVM background power per GB (W).
    pub ext_nvm_static_w_per_gb: f64,
    /// SerDes background power per link (W).
    pub serdes_static_w_per_link: f64,
    /// SerDes transfer energy per bit per hop (pJ).
    pub serdes_pj_per_bit_hop: f64,
    /// Average SerDes hops per external access.
    pub serdes_avg_hops: f64,
    /// Fixed miscellaneous power (W).
    pub other_w: f64,
}

impl Default for PowerCoefficients {
    fn default() -> Self {
        Self {
            cu_pj_per_flop: 4.2,
            cu_idle_activity: 0.20,
            cu_leakage_w: 0.05,
            cpu_idle_w: 4.0,
            cpu_active_w: 8.0,
            noc_router_pj_per_bit: 0.40,
            noc_link_pj_per_bit: 0.55,
            noc_static_w: 2.0,
            hbm_pj_per_bit: 1.5,
            hbm_phy_w_per_tbps: 12.0,
            hbm_static_w_per_gb: 0.012,
            ext_dram_pj_per_bit: 8.0,
            ext_nvm_read_pj_per_bit: 45.0,
            ext_nvm_write_pj_per_bit: 150.0,
            ext_dram_static_w_per_gb: 0.0352,
            ext_nvm_static_w_per_gb: 0.0005,
            serdes_static_w_per_link: 0.3125,
            serdes_pj_per_bit_hop: 1.5,
            serdes_avg_hops: 2.5,
            other_w: 8.0,
        }
    }
}

/// The node power model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodePowerModel {
    /// Energy/power coefficients.
    pub coefficients: PowerCoefficients,
    /// The GPU voltage-frequency curve.
    pub curve: VfCurve,
}

impl Default for NodePowerModel {
    fn default() -> Self {
        Self {
            coefficients: PowerCoefficients::default(),
            curve: VfCurve::gpu_default(),
        }
    }
}

impl NodePowerModel {
    /// Evaluates the full node breakdown for `config` running `activity`:
    /// the two stages composed, [`NodePowerModel::configure`] then
    /// [`ConfiguredPower::evaluate`].
    pub fn evaluate(&self, config: &EhpConfig, activity: &ActivityVector) -> PowerBreakdown {
        self.configure(config).evaluate(activity)
    }

    /// The configuration stage: the V/f scaling and every background
    /// component, which depend on `config` alone, computed once for any
    /// number of activity vectors.
    pub fn configure(&self, config: &EhpConfig) -> ConfiguredPower<'_> {
        let k = &self.coefficients;
        let f = config.gpu.clock;
        let dyn_scale = self.curve.dynamic_scale(f);
        let leak_scale = self.curve.leakage_scale(f);
        // dynamic_scale already contains the f/f_nom factor; the achieved
        // FLOP rate also scales with f. Dividing out the frequency leaves
        // the pure V^2 factor for per-op energy.
        let v2 = dyn_scale / (f.value() / 1000.0);

        let mut background = PowerBreakdown::new();
        background.set(
            Component::CuStatic,
            Watts::new(f64::from(config.gpu.total_cus()) * k.cu_leakage_w * leak_scale),
        );
        background.set(
            Component::HbmStatic,
            Watts::new(
                config.hbm.total_bandwidth().terabytes_per_sec() * k.hbm_phy_w_per_tbps
                    + config.hbm.total_capacity().value() * k.hbm_static_w_per_gb,
            ),
        );
        let mut ext_static = 0.0;
        for &kind in &config.external.chain {
            let cap = config.external.module_capacity(kind).value();
            let per_gb = match kind {
                ExternalModuleKind::Dram => k.ext_dram_static_w_per_gb,
                ExternalModuleKind::Nvm => k.ext_nvm_static_w_per_gb,
            };
            ext_static += cap * per_gb * f64::from(config.external.interfaces);
        }
        background.set(Component::ExtStatic, Watts::new(ext_static));
        background.set(
            Component::SerdesStatic,
            Watts::new(config.external.total_links() as f64 * k.serdes_static_w_per_link),
        );
        background.set(Component::Other, Watts::new(k.other_w));

        ConfiguredPower {
            coefficients: k,
            peak_gflops: config.gpu.peak_throughput().value(),
            v2,
            background,
        }
    }
}

/// [`NodePowerModel`] bound to one configuration: its V/f factor, its
/// peak FLOP rate and its background components, ready to price any
/// activity vector.
#[derive(Clone, Copy, Debug)]
pub struct ConfiguredPower<'a> {
    coefficients: &'a PowerCoefficients,
    /// Peak GPU throughput, GFLOP/s.
    peak_gflops: f64,
    /// Per-op energy scale, `(V / V_nom)^2`.
    v2: f64,
    /// The activity-independent components (CU and in-package DRAM
    /// static, external module and SerDes background, other); every
    /// activity-driven component is zero.
    background: PowerBreakdown,
}

impl ConfiguredPower<'_> {
    /// The activity stage of [`NodePowerModel::evaluate`].
    pub fn evaluate(&self, activity: &ActivityVector) -> PowerBreakdown {
        let k = self.coefficients;
        let mut b = self.background;

        // GPU compute units.
        let active = activity.achieved_gflops.min(self.peak_gflops);
        let idle = (self.peak_gflops - active).max(0.0) * k.cu_idle_activity;
        b.set(
            Component::CuDynamic,
            Watts::new((active + idle) * 1e9 * k.cu_pj_per_flop * 1e-12 * self.v2),
        );

        // CPU complex.
        b.set(
            Component::Cpu,
            Watts::new(k.cpu_idle_w + activity.cpu_activity.clamp(0.0, 1.0) * k.cpu_active_w),
        );

        // NoC.
        let noc_bits = activity.noc_traffic_gbps * 8e9;
        b.set(
            Component::NocRouters,
            Watts::new(noc_bits * k.noc_router_pj_per_bit * 1e-12 + k.noc_static_w / 2.0),
        );
        b.set(
            Component::NocLinks,
            Watts::new(noc_bits * k.noc_link_pj_per_bit * 1e-12 + k.noc_static_w / 2.0),
        );

        // In-package DRAM.
        let hbm_bits = activity.hbm_traffic_gbps * 8e9;
        b.set(
            Component::HbmDynamic,
            Watts::new(hbm_bits * k.hbm_pj_per_bit * 1e-12),
        );

        // External memory modules and SerDes.
        let ext_bits = activity.ext_traffic_gbps * 8e9;
        let nvm_bits = ext_bits * activity.nvm_traffic_fraction.clamp(0.0, 1.0);
        let dram_bits = ext_bits - nvm_bits;
        let nvm_pj = activity.write_fraction * k.ext_nvm_write_pj_per_bit
            + (1.0 - activity.write_fraction) * k.ext_nvm_read_pj_per_bit;
        b.set(
            Component::ExtDynamic,
            Watts::new((dram_bits * k.ext_dram_pj_per_bit + nvm_bits * nvm_pj) * 1e-12),
        );
        b.set(
            Component::SerdesDynamic,
            Watts::new(ext_bits * k.serdes_pj_per_bit_hop * k.serdes_avg_hops * 1e-12),
        );
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::{apply_optimizations, OptimizationContext, PowerOptimization};
    use ena_model::config::ExternalMemoryConfig;
    use ena_model::units::{Gigabytes, GigabytesPerSec, Megahertz};

    fn maxflops_activity() -> ActivityVector {
        ActivityVector {
            achieved_gflops: 18_600.0,
            hbm_traffic_gbps: 10.0,
            ext_traffic_gbps: 0.5,
            write_fraction: 0.02,
            nvm_traffic_fraction: 0.0,
            noc_traffic_gbps: 20.0,
            cpu_activity: 0.05,
        }
    }

    #[test]
    fn maxflops_node_power_matches_fig14_scale() {
        // Fig. 14: 320 CUs at 1 GHz / 1 TB/s -> 11.1 MW / 100k nodes = 111 W.
        let config = EhpConfig::builder()
            .total_cus(320)
            .gpu_clock(Megahertz::new(1000.0))
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(1.0))
            .build()
            .unwrap();
        let model = NodePowerModel::default();
        let total = model.evaluate(&config, &maxflops_activity()).total();
        assert!(
            (90.0..175.0).contains(&total.value()),
            "node power = {total}"
        );
    }

    #[test]
    fn external_static_power_matches_section_v_c() {
        // DRAM-only: ~27 W module static + ~10 W SerDes background.
        let config = EhpConfig::paper_baseline();
        let model = NodePowerModel::default();
        let b = model.evaluate(&config, &ActivityVector::idle());
        let ext_s = b.get(Component::ExtStatic).value();
        let serdes_s = b.get(Component::SerdesStatic).value();
        assert!((ext_s - 27.0).abs() < 1.0, "external static = {ext_s}");
        assert!((serdes_s - 10.0).abs() < 0.5, "serdes static = {serdes_s}");
    }

    #[test]
    fn hybrid_halves_external_static_power() {
        let model = NodePowerModel::default();
        let dram = EhpConfig::paper_baseline();
        let mut hybrid = dram.clone();
        hybrid.external = ExternalMemoryConfig::hybrid(4, Gigabytes::new(768.0));
        let idle = ActivityVector::idle();
        let b_dram = model.evaluate(&dram, &idle);
        let b_hyb = model.evaluate(&hybrid, &idle);
        let s_dram =
            (b_dram.get(Component::ExtStatic) + b_dram.get(Component::SerdesStatic)).value();
        let s_hyb = (b_hyb.get(Component::ExtStatic) + b_hyb.get(Component::SerdesStatic)).value();
        let ratio = s_hyb / s_dram;
        assert!((0.35..0.65).contains(&ratio), "static ratio = {ratio}");
    }

    #[test]
    fn nvm_traffic_raises_dynamic_power() {
        let config = EhpConfig::paper_baseline();
        let model = NodePowerModel::default();
        let mut act = maxflops_activity();
        act.ext_traffic_gbps = 300.0;
        act.write_fraction = 0.3;
        act.nvm_traffic_fraction = 0.0;
        let dram_only = model.evaluate(&config, &act);
        act.nvm_traffic_fraction = 0.5;
        let with_nvm = model.evaluate(&config, &act);
        assert!(
            with_nvm.get(Component::ExtDynamic).value()
                > 2.0 * dram_only.get(Component::ExtDynamic).value()
        );
    }

    #[test]
    fn ntc_reduces_cu_power_at_one_gigahertz() {
        let config = EhpConfig::paper_baseline();
        assert_eq!(config.gpu.clock, Megahertz::new(1000.0));
        let model = NodePowerModel::default();
        let base = model.evaluate(&config, &maxflops_activity());
        let ctx = OptimizationContext {
            gpu_clock: config.gpu.clock,
            curve: model.curve,
        };
        let ntc = apply_optimizations(&base, &ctx, &[PowerOptimization::NearThreshold]);
        assert!(ntc.get(Component::CuDynamic).value() < base.get(Component::CuDynamic).value());
        assert!(ntc.get(Component::CuStatic).value() < base.get(Component::CuStatic).value());
        // Non-CU components are untouched.
        assert_eq!(
            ntc.get(Component::HbmStatic),
            base.get(Component::HbmStatic)
        );
    }

    #[test]
    fn provisioned_bandwidth_costs_power_even_when_unused() {
        let model = NodePowerModel::default();
        let idle = ActivityVector::idle();
        let lo = EhpConfig::builder()
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(1.0))
            .build()
            .unwrap();
        let hi = EhpConfig::builder()
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(7.0))
            .build()
            .unwrap();
        let p_lo = model.evaluate(&lo, &idle).package_total();
        let p_hi = model.evaluate(&hi, &idle).package_total();
        assert!(p_hi.value() - p_lo.value() > 30.0);
    }
}

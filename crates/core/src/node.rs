//! Whole-node evaluation: performance, power, and thermals together.
//!
//! [`NodeSimulator`] is the top-level entry point: given an
//! [`EhpConfig`] and a [`KernelProfile`], it runs the performance model,
//! derives the activity vector, evaluates the power model (optionally with
//! the Section V-E optimizations applied), and can push the resulting
//! per-chiplet power into the thermal model, or read its peak DRAM
//! temperature from the model's closed form.
//!
//! An evaluation runs in two stages. The configuration stage computes
//! every term that depends on the configuration alone (peak throughput,
//! both memory tiers' bandwidths, the NVM capacity fraction, the V/f
//! scaling and the background power components); the profile stage then
//! evaluates any number of profiles against it. [`NodeSimulator::evaluate`]
//! is the two stages composed, so the design-space sweep, which
//! configures once per point, and the one-off callers run the same code.

use ena_model::config::EhpConfig;
use ena_model::kernel::KernelProfile;
use ena_model::units::{Celsius, Watts};
use ena_power::breakdown::{Component, PowerBreakdown};
use ena_power::model::{ActivityVector, ConfiguredPower, NodePowerModel};
use ena_power::opts::{apply_optimizations, OptimizationContext, PowerOptimization};
use ena_thermal::ehp::{ChipletPower, ChipletTemperatures, ChipletThermalModel, DramTempEstimator};
use ena_thermal::solver::TemperatureError;

use crate::perf::{ConfiguredPerf, PerfEstimate, PerfModel};

/// Evaluation knobs.
#[derive(Clone, Debug, Default)]
pub struct EvalOptions {
    /// Fraction of DRAM traffic serviced externally. `None` uses the
    /// profile's own `ext_traffic_fraction` (the capacity-limited reality
    /// of Section V-B); pass `Some(0.0)` for footprints that fit
    /// in-package, or sweep it for the Fig. 8 study.
    pub miss_fraction: Option<f64>,
    /// Power optimizations to apply (Section V-E).
    pub optimizations: Vec<PowerOptimization>,
}

impl EvalOptions {
    /// Options with every Section V-E optimization enabled.
    pub fn fully_optimized() -> Self {
        Self {
            miss_fraction: None,
            optimizations: PowerOptimization::ALL.to_vec(),
        }
    }

    /// Options with an explicit miss fraction.
    pub fn with_miss_fraction(miss: f64) -> Self {
        Self {
            miss_fraction: Some(miss),
            optimizations: Vec::new(),
        }
    }
}

/// Complete node evaluation for one kernel on one configuration.
#[derive(Clone, Debug)]
pub struct NodeEvaluation {
    /// Performance-model output.
    pub perf: PerfEstimate,
    /// Derived activity vector.
    pub activity: ActivityVector,
    /// Per-component node power (after optimizations, if any).
    pub power: PowerBreakdown,
}

impl NodeEvaluation {
    /// EHP package power (the quantity under the 160 W budget).
    pub fn package_power(&self) -> Watts {
        self.power.package_total()
    }

    /// Total node power including the external memory system.
    pub fn node_power(&self) -> Watts {
        self.power.total()
    }

    /// Performance per node watt (GFLOP/s per W).
    pub fn efficiency(&self) -> f64 {
        let w = self.node_power().value();
        if w == 0.0 {
            0.0
        } else {
            self.perf.throughput.value() / w
        }
    }
}

/// The top-level node simulator.
#[derive(Clone, Debug, Default)]
pub struct NodeSimulator {
    /// The analytic performance model.
    pub perf_model: PerfModel,
    /// The node power model.
    pub power_model: NodePowerModel,
}

impl NodeSimulator {
    /// Creates a simulator with default (paper-calibrated) models.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates one kernel on one configuration: the configuration
    /// stage, then the profile stage.
    pub fn evaluate(
        &self,
        config: &EhpConfig,
        profile: &KernelProfile,
        options: &EvalOptions,
    ) -> NodeEvaluation {
        self.configure(config).evaluate(profile, options)
    }

    /// The configuration stage: every term of the performance and power
    /// models that depends on `config` alone, computed once for any
    /// number of profiles.
    pub(crate) fn configure(&self, config: &EhpConfig) -> ConfiguredNode<'_> {
        ConfiguredNode {
            perf: self.perf_model.configure(config),
            power: self.power_model.configure(config),
            nvm_fraction: config.external.nvm_capacity_fraction(),
            opt_context: OptimizationContext {
                gpu_clock: config.gpu.clock,
                curve: self.power_model.curve,
            },
        }
    }

    /// Splits a node evaluation into the per-chiplet thermal inputs.
    pub fn chiplet_power(&self, config: &EhpConfig, eval: &NodeEvaluation) -> ChipletPower {
        let n = f64::from(config.gpu.chiplets);
        ChipletPower {
            cu_dynamic_w: eval.power.get(Component::CuDynamic).value() / n,
            cu_static_w: eval.power.get(Component::CuStatic).value() / n,
            dram_dynamic_w: eval.power.get(Component::HbmDynamic).value() / n,
            dram_static_w: eval.power.get(Component::HbmStatic).value() / n,
            interposer_w: (eval.power.get(Component::NocRouters)
                + eval.power.get(Component::NocLinks)
                + eval.power.get(Component::Other))
            .value()
                / n,
        }
    }

    /// Runs the thermal model for an evaluation (Section V-D).
    ///
    /// # Errors
    ///
    /// Returns [`TemperatureError`] if the thermal solve fails to converge
    /// or to balance energy.
    pub fn thermal(
        &self,
        config: &EhpConfig,
        eval: &NodeEvaluation,
    ) -> Result<ChipletTemperatures, TemperatureError> {
        ChipletThermalModel::new(self.chiplet_power(config, eval)).solve()
    }

    /// Peak DRAM temperature for an evaluation: the closed form
    /// ([`DramTempEstimator`]) of [`NodeSimulator::chiplet_power`], within
    /// 1e-9 °C of `thermal(config, eval)?.peak_dram()`. Solve through
    /// [`NodeSimulator::thermal`] only for the heat map or the solver's
    /// convergence figures.
    pub fn peak_dram(&self, config: &EhpConfig, eval: &NodeEvaluation) -> Celsius {
        DramTempEstimator::peak_dram(&self.chiplet_power(config, eval))
    }
}

/// A [`NodeSimulator`] bound to one configuration (see
/// [`NodeSimulator::configure`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConfiguredNode<'a> {
    perf: ConfiguredPerf,
    power: ConfiguredPower<'a>,
    /// Fraction of external capacity that is NVM, the share of external
    /// traffic the power model prices at NVM energies.
    nvm_fraction: f64,
    opt_context: OptimizationContext,
}

impl ConfiguredNode<'_> {
    /// The profile stage of [`NodeSimulator::evaluate`]: the performance
    /// estimate, the activity vector it implies, and the power it costs.
    pub(crate) fn evaluate(
        &self,
        profile: &KernelProfile,
        options: &EvalOptions,
    ) -> NodeEvaluation {
        let miss = options
            .miss_fraction
            .unwrap_or(profile.ext_traffic_fraction)
            .clamp(0.0, 1.0);
        let perf = self.perf.evaluate(profile, miss);
        let traffic = perf.traffic_gbps;
        let activity = ActivityVector {
            achieved_gflops: perf.throughput.value(),
            hbm_traffic_gbps: traffic * (1.0 - miss),
            ext_traffic_gbps: traffic * miss,
            write_fraction: profile.write_fraction,
            nvm_traffic_fraction: self.nvm_fraction,
            noc_traffic_gbps: traffic * profile.out_of_chiplet_fraction,
            cpu_activity: (profile.serial_fraction * 20.0).clamp(0.0, 1.0),
        };
        let base = self.power.evaluate(&activity);
        let power = if options.optimizations.is_empty() {
            base
        } else {
            apply_optimizations(&base, &self.opt_context, &options.optimizations)
        };
        NodeEvaluation {
            perf,
            activity,
            power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_workloads::{paper_profiles, profile_for};

    #[test]
    fn package_power_fits_the_budget_at_the_baseline() {
        // The best-mean configuration must be feasible (<= 160 W package)
        // for every workload — that is what made it the paper's pick.
        let sim = NodeSimulator::new();
        let cfg = EhpConfig::paper_baseline();
        for p in paper_profiles() {
            let eval = sim.evaluate(&cfg, &p, &EvalOptions::default());
            let pkg = eval.package_power().value();
            assert!(pkg <= 160.0, "{}: package = {pkg:.1} W", p.name);
            assert!(
                pkg > 60.0,
                "{}: implausibly low package power {pkg:.1} W",
                p.name
            );
        }
    }

    #[test]
    fn optimizations_reduce_power_without_touching_perf() {
        let sim = NodeSimulator::new();
        let cfg = EhpConfig::paper_baseline();
        let p = profile_for("LULESH").unwrap();
        let plain = sim.evaluate(&cfg, &p, &EvalOptions::default());
        let opt = sim.evaluate(&cfg, &p, &EvalOptions::fully_optimized());
        assert!(opt.node_power().value() < plain.node_power().value());
        assert_eq!(opt.perf.throughput, plain.perf.throughput);
        let saved = 1.0 - opt.node_power().value() / plain.node_power().value();
        assert!((0.05..0.35).contains(&saved), "savings = {saved}");
    }

    #[test]
    fn external_memory_power_band_matches_section_v_c() {
        // Paper: external power (modules + SerDes) spans ~40-70 W across
        // kernels on the DRAM-only configuration.
        let sim = NodeSimulator::new();
        let cfg = EhpConfig::paper_baseline();
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for p in paper_profiles() {
            let eval = sim.evaluate(&cfg, &p, &EvalOptions::default());
            let ext = eval.power.external_total().value();
            lo = lo.min(ext);
            hi = hi.max(ext);
        }
        assert!((30.0..50.0).contains(&lo), "min external = {lo:.1} W");
        assert!((45.0..115.0).contains(&hi), "max external = {hi:.1} W");
    }

    #[test]
    fn thermals_stay_under_the_dram_limit_at_the_baseline() {
        // With and without the optimizations; the closed form every
        // peak-only caller reads must be the solver's peak.
        let sim = NodeSimulator::new();
        let cfg = EhpConfig::paper_baseline();
        for options in [EvalOptions::default(), EvalOptions::fully_optimized()] {
            for p in paper_profiles() {
                let eval = sim.evaluate(&cfg, &p, &options);
                let t = sim.thermal(&cfg, &eval).unwrap();
                assert!(
                    t.dram_within_limit(),
                    "{}: peak DRAM {:.1}",
                    p.name,
                    t.peak_dram()
                );
                assert!(
                    t.peak_dram().value() > 55.0,
                    "{}: suspiciously cool",
                    p.name
                );
                let closed = sim.peak_dram(&cfg, &eval);
                assert!(
                    (t.peak_dram().value() - closed.value()).abs() <= 1e-9,
                    "{} ({:?}): solved {} vs closed form {closed}",
                    p.name,
                    options.optimizations,
                    t.peak_dram()
                );
            }
        }
    }

    #[test]
    fn efficiency_is_perf_over_node_power() {
        let sim = NodeSimulator::new();
        let cfg = EhpConfig::paper_baseline();
        let p = profile_for("CoMD").unwrap();
        let eval = sim.evaluate(&cfg, &p, &EvalOptions::default());
        let expect = eval.perf.throughput.value() / eval.node_power().value();
        assert!((eval.efficiency() - expect).abs() < 1e-12);
    }
}

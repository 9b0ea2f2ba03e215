//! The extended-roofline kernel performance model.
//!
//! Reproduces the scaling behaviour the paper measures in Section IV:
//!
//! - **Compute-intensive** kernels scale with `CUs x frequency` and ignore
//!   bandwidth (Fig. 4).
//! - **Balanced** kernels rise until either resource saturates, then
//!   plateau (Fig. 5).
//! - **Memory-intensive** kernels *decline* past the saturation point:
//!   excess concurrent requests thrash caches and congest the memory
//!   system (Fig. 6).
//!
//! Throughput is `min(compute roof, contended memory roof)` scaled by a
//! latency-exposure factor. Misses to external memory (Fig. 8) lower the
//! effective bandwidth harmonically and raise the average latency.

use ena_model::config::EhpConfig;
use ena_model::kernel::KernelProfile;
use ena_model::units::Gigaflops;

/// Memory-latency assumptions, in GPU cycles at nominal frequency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Average in-package access latency (cycles).
    pub hbm_cycles: f64,
    /// Average external-memory access latency (cycles).
    pub external_cycles: f64,
    /// Extra cycles added by the chiplet organization (TSV + interposer
    /// hops); zero for the monolithic baseline.
    pub chiplet_extra_cycles: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            hbm_cycles: 150.0,
            external_cycles: 500.0,
            chiplet_extra_cycles: 12.0,
        }
    }
}

/// Output of one performance-model evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfEstimate {
    /// Achieved throughput.
    pub throughput: Gigaflops,
    /// The compute roofline (peak x utilization).
    pub compute_roof: Gigaflops,
    /// The contended memory roofline.
    pub memory_roof: Gigaflops,
    /// Latency-exposure multiplier applied (`0..=1`).
    pub latency_factor: f64,
    /// Offered / sustainable in-package traffic ratio (>1 = saturated).
    pub memory_pressure: f64,
    /// Total DRAM-level traffic at the achieved rate, GB/s.
    pub traffic_gbps: f64,
}

impl PerfEstimate {
    /// True if the kernel is limited by memory rather than compute.
    pub fn memory_bound(&self) -> bool {
        self.memory_roof < self.compute_roof
    }
}

/// The analytic performance model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerfModel {
    /// Latency assumptions.
    pub latency: LatencyModel,
}

impl PerfModel {
    /// Evaluates `profile` on `config`, with `miss_fraction` of its DRAM
    /// traffic serviced by external memory (the Fig. 8 knob; pass the
    /// profile's own `ext_traffic_fraction` for capacity-limited runs, or
    /// 0.0 for footprints that fit in-package). The two stages composed:
    /// the configuration's terms, then the profile's.
    pub fn evaluate(
        &self,
        config: &EhpConfig,
        profile: &KernelProfile,
        miss_fraction: f64,
    ) -> PerfEstimate {
        self.configure(config).evaluate(profile, miss_fraction)
    }

    /// The configuration stage: every term that depends on `config`
    /// alone, computed once for any number of profiles.
    pub(crate) fn configure(&self, config: &EhpConfig) -> ConfiguredPerf {
        ConfiguredPerf {
            latency: self.latency,
            peak: config.gpu.peak_throughput().value(),
            b_hbm: config.hbm.total_bandwidth().value(),
            b_ext: config.external.total_bandwidth().value(),
        }
    }
}

/// [`PerfModel`] bound to one configuration: peak throughput and both
/// memory tiers' bandwidths, ready to evaluate any profile.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConfiguredPerf {
    latency: LatencyModel,
    /// Peak GPU throughput, GFLOP/s.
    peak: f64,
    /// Aggregate in-package bandwidth, GB/s.
    b_hbm: f64,
    /// Aggregate external bandwidth, GB/s.
    b_ext: f64,
}

impl ConfiguredPerf {
    /// The profile stage of [`PerfModel::evaluate`].
    pub(crate) fn evaluate(&self, profile: &KernelProfile, miss_fraction: f64) -> PerfEstimate {
        let m = miss_fraction.clamp(0.0, 1.0);
        let serial_slowdown = 1.0 + profile.serial_fraction * 10.0;
        let compute_roof = self.peak * profile.utilization / serial_slowdown;

        let b_hbm = self.b_hbm;
        // Harmonic-mean service bandwidth across the two tiers.
        let b_eff = 1.0 / ((1.0 - m) / b_hbm + m / self.b_ext);

        // Demand the compute side would generate, GB/s.
        let demand = compute_roof / profile.ops_per_byte;
        // Contention/thrashing: pressure of the offered in-package traffic
        // beyond what the in-package system sustains.
        let pressure = demand / b_hbm;
        let penalty = 1.0 + profile.contention_sensitivity * (pressure - 1.0).max(0.0);
        let memory_roof = b_eff * profile.ops_per_byte / penalty;

        // Latency exposure: irregular kernels lose throughput as average
        // latency grows; parallelism hides the rest.
        let avg_latency = (self.latency.hbm_cycles + self.latency.chiplet_extra_cycles) * (1.0 - m)
            + self.latency.external_cycles * m;
        let reference = LatencyModel::default().hbm_cycles;
        let exposure = profile.latency_sensitivity * (1.0 - profile.parallelism);
        let latency_factor = 1.0 / (1.0 + exposure * avg_latency / reference);

        let throughput = compute_roof.min(memory_roof) * latency_factor;
        PerfEstimate {
            throughput: Gigaflops::new(throughput),
            compute_roof: Gigaflops::new(compute_roof),
            memory_roof: Gigaflops::new(memory_roof),
            latency_factor,
            memory_pressure: pressure,
            traffic_gbps: throughput / profile.ops_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_model::units::{GigabytesPerSec, Megahertz};
    use ena_workloads::profile_for;

    fn config(cus: u32, mhz: f64, tbps: f64) -> EhpConfig {
        EhpConfig::builder()
            .total_cus(cus)
            .gpu_clock(Megahertz::new(mhz))
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(tbps))
            .build()
            .expect("valid sweep point")
    }

    fn perf(name: &str, cus: u32, mhz: f64, tbps: f64) -> f64 {
        let p = profile_for(name).unwrap();
        PerfModel::default()
            .evaluate(&config(cus, mhz, tbps), &p, 0.0)
            .throughput
            .value()
    }

    #[test]
    fn maxflops_scales_linearly_and_ignores_bandwidth() {
        // Fig. 4 shape.
        let base = perf("MaxFlops", 192, 1000.0, 3.0);
        let more_cus = perf("MaxFlops", 384, 1000.0, 3.0);
        assert!((more_cus / base - 2.0).abs() < 0.01);
        let more_bw = perf("MaxFlops", 192, 1000.0, 7.0);
        assert!((more_bw / base - 1.0).abs() < 0.01);
    }

    #[test]
    fn balanced_kernel_plateaus_on_low_bandwidth() {
        // Fig. 5 shape: on the 1 TB/s curve CoMD stops scaling; on 6 TB/s
        // it keeps rising.
        let lo_a = perf("CoMD", 224, 1000.0, 1.0);
        let lo_b = perf("CoMD", 384, 1500.0, 1.0);
        let hi_a = perf("CoMD", 224, 1000.0, 6.0);
        let hi_b = perf("CoMD", 384, 1500.0, 6.0);
        let lo_gain = lo_b / lo_a;
        let hi_gain = hi_b / hi_a;
        assert!(hi_gain > lo_gain + 0.3, "lo {lo_gain}, hi {hi_gain}");
        assert!(hi_gain > 1.8, "hi {hi_gain}");
    }

    #[test]
    fn memory_kernel_declines_past_saturation() {
        // Fig. 6 shape: LULESH on 1 TB/s peaks then *drops* as CU-GHz grow.
        let mid = perf("LULESH", 224, 800.0, 1.0);
        let max = perf("LULESH", 384, 1500.0, 1.0);
        assert!(max < mid, "expected decline: mid {mid}, max {max}");
        // And bandwidth helps: same compute, more bandwidth, more perf.
        assert!(perf("LULESH", 224, 800.0, 4.0) > mid);
    }

    #[test]
    fn misses_to_external_memory_degrade_all_but_compute_kernels() {
        // Fig. 8 shape.
        let model = PerfModel::default();
        let cfg = EhpConfig::paper_baseline();
        for name in ["CoMD", "LULESH", "XSBench", "SNAP", "MiniAMR", "HPGMG"] {
            let p = profile_for(name).unwrap();
            let clean = model.evaluate(&cfg, &p, 0.0).throughput.value();
            let dirty = model.evaluate(&cfg, &p, 1.0).throughput.value();
            let degradation = 1.0 - dirty / clean;
            assert!(
                (0.02..0.85).contains(&degradation),
                "{name}: degradation {degradation}"
            );
        }
        let mf = profile_for("MaxFlops").unwrap();
        let clean = model.evaluate(&cfg, &mf, 0.0).throughput.value();
        let dirty = model.evaluate(&cfg, &mf, 1.0).throughput.value();
        assert!((1.0 - dirty / clean).abs() < 0.01, "MaxFlops must be flat");
    }

    #[test]
    fn chiplet_latency_only_hurts_latency_sensitive_kernels() {
        let chiplet = PerfModel::default();
        let mono = PerfModel {
            latency: LatencyModel {
                chiplet_extra_cycles: 0.0,
                ..LatencyModel::default()
            },
        };
        let cfg = EhpConfig::paper_baseline();
        let xs = profile_for("XSBench").unwrap();
        let loss = 1.0
            - chiplet.evaluate(&cfg, &xs, 0.0).throughput.value()
                / mono.evaluate(&cfg, &xs, 0.0).throughput.value();
        assert!(loss > 0.005, "XSBench should feel chiplet latency: {loss}");
        let snap = profile_for("SNAP").unwrap();
        let snap_loss = 1.0
            - chiplet.evaluate(&cfg, &snap, 0.0).throughput.value()
                / mono.evaluate(&cfg, &snap, 0.0).throughput.value();
        assert!(snap_loss < loss, "SNAP hides latency better");
    }

    #[test]
    fn estimates_expose_consistent_intermediates() {
        let cfg = EhpConfig::paper_baseline();
        let p = profile_for("LULESH").unwrap();
        let e = PerfModel::default().evaluate(&cfg, &p, 0.3);
        assert!(e.memory_bound());
        assert!(e.throughput.value() <= e.compute_roof.value());
        assert!(e.latency_factor > 0.0 && e.latency_factor <= 1.0);
        let implied = e.throughput.value() / p.ops_per_byte;
        assert!((e.traffic_gbps - implied).abs() < 1e-9);
    }
}

//! Resiliency, availability, and serviceability modeling (Section II-A.5).
//!
//! The exascale targets demand that "user intervention due to hardware or
//! system faults \[be\] limited to the order of a week or more on average"
//! across 100,000 nodes — a brutal per-node reliability requirement. This
//! module models:
//!
//! - per-component transient-fault rates (FIT = failures per 10^9 hours),
//!   scaled by supply voltage (the paper notes NTC's aggressive voltage
//!   reduction "potentially increases error rates");
//! - ECC on the memory arrays, and software redundant multithreading (RMT)
//!   on the GPU, which exploits idle CUs and therefore costs more on
//!   well-utilized kernels;
//! - the resulting system MTTF and the checkpoint/restart efficiency via
//!   the Young/Daly model;
//! - [`RecoveryModel`], the one availability model: a node MTBF and a
//!   checkpoint cost give the achieved efficiency at any fleet size, as
//!   the closed form next to a seeded Monte Carlo campaign
//!   ([`FaultCampaign`]) on the same parameters. The fault campaign's
//!   100,000-node availability cross-check and the multi-node recovery
//!   section and sweep all read it.

use core::fmt;

use ena_model::config::EhpConfig;
use ena_model::hash::{StableHash, StableHasher};
use ena_model::kernel::KernelProfile;
use ena_workloads::profile_for;

/// Transient-fault rates per component, in FIT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitRates {
    /// Logic faults per CU at nominal voltage.
    pub per_cu: f64,
    /// Faults per CPU core.
    pub per_cpu_core: f64,
    /// Faults per GB of in-package DRAM (pre-ECC).
    pub per_hbm_gb: f64,
    /// Faults per GB of external memory (pre-ECC).
    pub per_ext_gb: f64,
    /// Uncore/interposer faults per chiplet.
    pub per_chiplet: f64,
    /// Exponent of the voltage sensitivity: FIT scales by
    /// `(V_nom / V)^voltage_exponent` (lower voltage, higher rate).
    pub voltage_exponent: f64,
}

impl Default for FitRates {
    fn default() -> Self {
        Self {
            per_cu: 10.0,
            per_cpu_core: 20.0,
            per_hbm_gb: 30.0,
            per_ext_gb: 25.0,
            per_chiplet: 50.0,
            voltage_exponent: 3.0,
        }
    }
}

/// Error-protection scheme in force.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Protection {
    /// ECC on DRAM/SRAM arrays: fraction of memory faults corrected.
    pub ecc_coverage: f64,
    /// Redundant multithreading on the GPU: fraction of CU logic faults
    /// detected (paper ref 25); `None` disables RMT.
    pub rmt_coverage: Option<f64>,
}

impl Protection {
    /// ECC only (the conventional baseline).
    pub fn ecc_only() -> Self {
        Self {
            ecc_coverage: 0.99,
            rmt_coverage: None,
        }
    }

    /// ECC plus software RMT on the GPU.
    pub fn ecc_and_rmt() -> Self {
        Self {
            ecc_coverage: 0.99,
            rmt_coverage: Some(0.95),
        }
    }
}

/// The node reliability model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResilienceModel {
    /// Fault-rate coefficients.
    pub rates: FitRates,
}

/// A node-level reliability assessment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeReliability {
    /// Unprotected node fault rate (FIT).
    pub raw_fit: f64,
    /// Residual *uncorrected/undetected* fault rate after protection (FIT).
    pub silent_fit: f64,
    /// Throughput multiplier RMT imposes (1.0 when disabled or free).
    pub rmt_slowdown: f64,
}

impl NodeReliability {
    /// Mean time to silent failure for one node, in hours.
    pub fn node_mttf_hours(&self) -> f64 {
        1e9 / self.silent_fit.max(1e-12)
    }

    /// Mean time to silent failure for an `n`-node machine, in hours.
    pub fn system_mttf_hours(&self, nodes: u64) -> f64 {
        self.node_mttf_hours() / nodes as f64
    }
}

impl ResilienceModel {
    /// Assesses `config` running `profile` at relative supply voltage
    /// `voltage_scale` (1.0 = nominal; NTC pushes it below 1).
    pub fn assess(
        &self,
        config: &EhpConfig,
        profile: &KernelProfile,
        voltage_scale: f64,
        protection: Protection,
    ) -> NodeReliability {
        let v_factor = (1.0 / voltage_scale.clamp(0.3, 2.0)).powf(self.rates.voltage_exponent);

        let cu_fit = f64::from(config.gpu.total_cus()) * self.rates.per_cu * v_factor;
        let cpu_fit = f64::from(config.cpu.total_cores()) * self.rates.per_cpu_core;
        let hbm_fit = config.hbm.total_capacity().value() * self.rates.per_hbm_gb;
        let ext_fit = config.external.total_capacity().value() * self.rates.per_ext_gb;
        let uncore_fit = f64::from(config.gpu.chiplets + config.cpu.chiplets)
            * self.rates.per_chiplet
            * v_factor;
        let raw_fit = cu_fit + cpu_fit + hbm_fit + ext_fit + uncore_fit;

        // ECC covers the memory arrays; RMT covers CU logic.
        let memory_residual = (hbm_fit + ext_fit) * (1.0 - protection.ecc_coverage);
        let cu_residual = match protection.rmt_coverage {
            Some(c) => cu_fit * (1.0 - c),
            None => cu_fit,
        };
        let silent_fit = memory_residual + cu_residual + cpu_fit * 0.05 + uncore_fit * 0.5;

        // RMT runs redundant wavefronts on otherwise-idle CUs: free while
        // utilization is low, but it halves throughput at full utilization.
        let rmt_slowdown = match protection.rmt_coverage {
            Some(_) => {
                let idle = 1.0 - profile.utilization;
                if idle >= profile.utilization {
                    1.0
                } else {
                    1.0 / (1.0 - (profile.utilization - idle)).max(0.5)
                }
            }
            None => 1.0,
        };

        NodeReliability {
            raw_fit,
            silent_fit,
            rmt_slowdown,
        }
    }
}

/// Young/Daly checkpoint-efficiency model: the fraction of machine time
/// doing useful work given a system MTTF and a checkpoint cost.
///
/// Uses the optimal checkpoint interval `tau = sqrt(2 * delta * M)`.
/// Returns a value in `(0, 1]`; zero when checkpointing cannot keep up.
pub fn checkpoint_efficiency(system_mttf_hours: f64, checkpoint_minutes: f64) -> f64 {
    let m = system_mttf_hours.max(1e-9);
    let delta = checkpoint_minutes / 60.0;
    if delta <= 0.0 {
        return 1.0;
    }
    let tau = (2.0 * delta * m).sqrt();
    let efficiency = 1.0 - delta / tau - tau / (2.0 * m);
    efficiency.clamp(0.0, 1.0)
}

/// Young/Daly efficiency at an *arbitrary* checkpoint interval `tau`
/// (hours): `1 - delta/tau - tau/(2M)`, clamped to `[0, 1]`.
///
/// [`checkpoint_efficiency`] is this function evaluated at Daly's optimal
/// `tau = sqrt(2 * delta * M)`; sweeping `tau` away from the optimum
/// (the checkpoint-interval sweep axis) uses this form directly.
pub fn checkpoint_efficiency_at(
    system_mttf_hours: f64,
    checkpoint_minutes: f64,
    interval_hours: f64,
) -> f64 {
    let m = system_mttf_hours.max(1e-9);
    let delta = checkpoint_minutes / 60.0;
    if delta <= 0.0 {
        return 1.0;
    }
    let tau = interval_hours.max(1e-9);
    let efficiency = 1.0 - delta / tau - tau / (2.0 * m);
    efficiency.clamp(0.0, 1.0)
}

/// A Monte Carlo checkpoint/restart campaign: simulates exponential
/// failure arrivals against periodic checkpoints and measures the achieved
/// useful-work fraction — the mechanistic check on
/// [`checkpoint_efficiency`]'s closed form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultCampaign {
    /// System MTTF in hours.
    pub mttf_hours: f64,
    /// Checkpoint cost in hours.
    pub checkpoint_hours: f64,
    /// Checkpoint interval in hours (use Daly's optimum via
    /// [`FaultCampaign::with_optimal_interval`]).
    pub interval_hours: f64,
    /// Restart (reload + replay-setup) cost in hours.
    pub restart_hours: f64,
}

impl FaultCampaign {
    /// A campaign using the Young/Daly optimal interval.
    pub fn with_optimal_interval(mttf_hours: f64, checkpoint_hours: f64) -> Self {
        Self {
            mttf_hours,
            checkpoint_hours,
            interval_hours: (2.0 * checkpoint_hours * mttf_hours).sqrt(),
            restart_hours: checkpoint_hours,
        }
    }

    /// Simulates `total_hours` of machine time with failures drawn from an
    /// exponential distribution (deterministic from `seed`), returning the
    /// measured useful-work fraction. Only checkpoint segments that end
    /// within the horizon earn credit, so the fraction stays in [0, 1].
    pub fn simulate(&self, total_hours: f64, seed: u64) -> f64 {
        let mut state = seed | 1;
        let mut next_unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-18)
        };
        let mut draw_failure = move || -self.mttf_hours * next_unit().ln();

        let mut clock = 0.0f64;
        let mut useful = 0.0f64;
        let mut next_failure = draw_failure();

        while clock < total_hours {
            // One segment: compute for `interval`, then checkpoint.
            let segment_end = clock + self.interval_hours + self.checkpoint_hours;
            if segment_end > total_hours {
                // Past the horizon: the segment never completes in the
                // measured window, and no later one can either.
                break;
            }
            if next_failure >= segment_end {
                clock = segment_end;
                useful += self.interval_hours;
            } else {
                // Failure mid-segment: lose everything since the last
                // checkpoint, pay the restart.
                clock = next_failure + self.restart_hours;
                next_failure = clock + draw_failure();
            }
        }
        useful / total_hours
    }
}

/// Maximum tolerated gap between the analytic Young/Daly efficiency and
/// the simulated campaign at any fleet size the acceptance tests run
/// (N in {2, 4, 8}, the standard campaign sizes and the full machine).
pub const DALY_TOLERANCE: f64 = 0.06;

/// Simulated machine-hours behind every Monte Carlo efficiency figure.
pub const RECOVERY_CAMPAIGN_HOURS: f64 = 20_000.0;

/// Young/Daly checkpoint/restart recovery: node MTBF + checkpoint cost,
/// the two inputs the model needs.
///
/// A fleet of `N` nodes fails `N` times as often as one node, and every
/// failure rolls the whole bulk-synchronous application back to its last
/// checkpoint. [`RecoveryModel::assess`] turns the two inputs into the
/// achieved efficiency at any fleet size, two independent ways:
///
/// - **analytically** — the Young/Daly closed form
///   ([`checkpoint_efficiency`]) at the optimal interval
///   `tau = sqrt(2 * delta * M_sys)`;
/// - **mechanistically** — a seeded Monte Carlo checkpoint/restart
///   campaign ([`FaultCampaign::simulate`]) on bitwise-identical
///   parameters (the optimal interval is read off the very
///   [`FaultCampaign`] the simulation runs, so the two paths cannot
///   drift apart).
///
/// The two must agree within [`DALY_TOLERANCE`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryModel {
    /// Mean time between failures of one node, hours.
    pub node_mttf_hours: f64,
    /// Cost of writing one global checkpoint, minutes.
    pub checkpoint_minutes: f64,
}

impl RecoveryModel {
    /// A model from explicit parameters (the `--mtbf` /
    /// `--checkpoint-cost` CLI path).
    pub fn new(node_mttf_hours: f64, checkpoint_minutes: f64) -> Self {
        Self {
            node_mttf_hours,
            checkpoint_minutes,
        }
    }

    /// Derives the node MTBF from the resilience model's silent-fault
    /// assessment of `config` running `workload` (nominal voltage,
    /// ECC + RMT — the protected configuration the paper assumes), or
    /// `None` for an unknown workload.
    pub fn from_node_assessment(
        config: &EhpConfig,
        workload: &str,
        checkpoint_minutes: f64,
    ) -> Option<Self> {
        let profile = profile_for(workload)?;
        let reliability =
            ResilienceModel::default().assess(config, &profile, 1.0, Protection::ecc_and_rmt());
        Some(Self {
            node_mttf_hours: reliability.node_mttf_hours(),
            checkpoint_minutes,
        })
    }

    /// System MTTF of an `nodes`-node fleet, hours.
    pub fn system_mttf_hours(&self, nodes: u32) -> f64 {
        self.node_mttf_hours / f64::from(nodes.max(1))
    }

    /// The campaign the Monte Carlo leg runs at `nodes`: Young/Daly
    /// optimal interval, restart cost equal to the checkpoint cost. The
    /// analytic leg reads its interval off this same struct, so the two
    /// paths share bitwise-identical parameters.
    pub fn campaign(&self, nodes: u32) -> FaultCampaign {
        FaultCampaign::with_optimal_interval(
            self.system_mttf_hours(nodes),
            self.checkpoint_minutes / 60.0,
        )
    }

    /// Daly's optimal checkpoint interval at `nodes`, hours.
    pub fn optimal_interval_hours(&self, nodes: u32) -> f64 {
        self.campaign(nodes).interval_hours
    }

    /// Closed-form efficiency at an explicit interval (the
    /// checkpoint-interval sweep axis).
    pub fn analytic_efficiency_at(&self, nodes: u32, interval_hours: f64) -> f64 {
        checkpoint_efficiency_at(
            self.system_mttf_hours(nodes),
            self.checkpoint_minutes,
            interval_hours,
        )
    }

    /// Measured efficiency at an explicit interval.
    pub fn simulated_efficiency_at(&self, nodes: u32, interval_hours: f64, seed: u64) -> f64 {
        FaultCampaign {
            interval_hours,
            ..self.campaign(nodes)
        }
        .simulate(RECOVERY_CAMPAIGN_HOURS, seed)
    }

    /// Both legs at the optimal interval: the cross-checked estimate
    /// campaigns report.
    pub fn assess(&self, nodes: u32, seed: u64) -> RecoveryEstimate {
        let campaign = self.campaign(nodes);
        RecoveryEstimate {
            nodes,
            system_mttf_hours: campaign.mttf_hours,
            interval_hours: campaign.interval_hours,
            analytic: checkpoint_efficiency(campaign.mttf_hours, self.checkpoint_minutes),
            simulated: campaign.simulate(RECOVERY_CAMPAIGN_HOURS, seed),
        }
    }
}

impl StableHash for RecoveryModel {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(self.node_mttf_hours);
        h.write_f64(self.checkpoint_minutes);
    }
}

impl fmt::Display for RecoveryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node MTBF {:.1} h, checkpoint {:.1} min",
            self.node_mttf_hours, self.checkpoint_minutes
        )
    }
}

/// One fleet-size recovery assessment: the analytic prediction next to
/// the simulated measurement it is checked against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryEstimate {
    /// Fleet size assessed.
    pub nodes: u32,
    /// System MTTF at that size, hours.
    pub system_mttf_hours: f64,
    /// Daly optimal checkpoint interval, hours.
    pub interval_hours: f64,
    /// Closed-form Young/Daly efficiency.
    pub analytic: f64,
    /// Monte Carlo campaign efficiency on the same parameters.
    pub simulated: f64,
}

impl RecoveryEstimate {
    /// Absolute disagreement between the two legs.
    pub fn gap(&self) -> f64 {
        (self.analytic - self.simulated).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_model::config::SYSTEM_NODE_COUNT;
    use ena_workloads::profile_for;

    fn assess(voltage: f64, protection: Protection, app: &str) -> NodeReliability {
        ResilienceModel::default().assess(
            &EhpConfig::paper_baseline(),
            &profile_for(app).unwrap(),
            voltage,
            protection,
        )
    }

    #[test]
    fn protection_suppresses_most_faults() {
        let r = assess(1.0, Protection::ecc_and_rmt(), "CoMD");
        assert!(r.silent_fit < r.raw_fit * 0.2, "{r:?}");
    }

    #[test]
    fn system_mttf_scales_inversely_with_node_count() {
        let r = assess(1.0, Protection::ecc_and_rmt(), "CoMD");
        let one = r.system_mttf_hours(1);
        let all = r.system_mttf_hours(SYSTEM_NODE_COUNT);
        assert!((one / all - SYSTEM_NODE_COUNT as f64).abs() < 1e-6);
    }

    #[test]
    fn ntc_voltage_reduction_raises_fault_rates() {
        // The paper flags this interaction explicitly (Section VI).
        let nominal = assess(1.0, Protection::ecc_only(), "CoMD");
        let ntc = assess(0.75, Protection::ecc_only(), "CoMD");
        // Logic rates scale steeply; memory rates are voltage-independent,
        // so the raw total moves less than the silent (logic-dominated)
        // residual.
        assert!(ntc.raw_fit > 1.1 * nominal.raw_fit);
        assert!(ntc.silent_fit > 1.5 * nominal.silent_fit);
    }

    #[test]
    fn rmt_is_cheap_for_memory_bound_kernels() {
        // RMT uses idle CUs (paper [25]): XSBench (utilization 0.40) has
        // idle slack; MaxFlops (0.91) pays nearly 2x.
        let xs = assess(1.0, Protection::ecc_and_rmt(), "XSBench");
        let mf = assess(1.0, Protection::ecc_and_rmt(), "MaxFlops");
        assert!((xs.rmt_slowdown - 1.0).abs() < 1e-9, "{}", xs.rmt_slowdown);
        assert!(mf.rmt_slowdown > 1.5, "{}", mf.rmt_slowdown);
    }

    #[test]
    fn rmt_buys_reliability_for_its_cost() {
        let without = assess(1.0, Protection::ecc_only(), "CoMD");
        let with = assess(1.0, Protection::ecc_and_rmt(), "CoMD");
        assert!(with.silent_fit < without.silent_fit);
        assert!(with.rmt_slowdown >= 1.0);
    }

    #[test]
    fn checkpointing_efficiency_behaves() {
        // More MTTF, more efficiency; costlier checkpoints, less.
        let a = checkpoint_efficiency(24.0, 5.0);
        let b = checkpoint_efficiency(4.0, 5.0);
        let c = checkpoint_efficiency(24.0, 20.0);
        assert!(a > b);
        assert!(a > c);
        assert!((0.0..=1.0).contains(&a));
        assert!(checkpoint_efficiency(1000.0, 0.0) == 1.0);
    }

    #[test]
    fn the_general_form_peaks_at_the_daly_optimum() {
        let mttf = 12.0_f64;
        let ckpt_minutes = 3.0_f64;
        let optimal_tau = (2.0 * (ckpt_minutes / 60.0) * mttf).sqrt();
        let at_optimum = checkpoint_efficiency_at(mttf, ckpt_minutes, optimal_tau);
        // The specialised form is the general form at the optimum.
        assert_eq!(at_optimum, checkpoint_efficiency(mttf, ckpt_minutes));
        // Any other interval does worse.
        for scale in [0.1, 0.5, 2.0, 10.0] {
            let off = checkpoint_efficiency_at(mttf, ckpt_minutes, optimal_tau * scale);
            assert!(off < at_optimum, "scale {scale}: {off} vs {at_optimum}");
        }
        assert_eq!(checkpoint_efficiency_at(1000.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn the_fault_campaign_validates_the_daly_formula() {
        // Analytic efficiency and measured efficiency agree within a few
        // points across MTTF regimes.
        for mttf in [4.0, 12.0, 48.0] {
            let ckpt_minutes = 3.0;
            let analytic = checkpoint_efficiency(mttf, ckpt_minutes);
            let campaign = FaultCampaign::with_optimal_interval(mttf, ckpt_minutes / 60.0);
            let measured = campaign.simulate(20_000.0, 0xFA17);
            assert!(
                (analytic - measured).abs() < 0.06,
                "mttf {mttf}: analytic {analytic:.3}, measured {measured:.3}"
            );
        }
    }

    #[test]
    fn shorter_intervals_waste_checkpoints_longer_lose_work() {
        let mttf = 8.0;
        let ckpt = 0.05;
        let optimal = FaultCampaign::with_optimal_interval(mttf, ckpt);
        let short = FaultCampaign {
            interval_hours: optimal.interval_hours / 8.0,
            ..optimal
        };
        let long = FaultCampaign {
            interval_hours: optimal.interval_hours * 8.0,
            ..optimal
        };
        let e_opt = optimal.simulate(20_000.0, 1);
        let e_short = short.simulate(20_000.0, 1);
        let e_long = long.simulate(20_000.0, 1);
        assert!(e_opt > e_short, "opt {e_opt} vs short {e_short}");
        assert!(e_opt > e_long, "opt {e_opt} vs long {e_long}");
    }

    fn model() -> RecoveryModel {
        RecoveryModel::new(96.0, 3.0)
    }

    /// `workload` on `config`, assessed across the full machine.
    fn machine_estimate(
        config: &EhpConfig,
        workload: &str,
        checkpoint_minutes: f64,
        seed: u64,
    ) -> RecoveryEstimate {
        RecoveryModel::from_node_assessment(config, workload, checkpoint_minutes)
            .unwrap()
            .assess(SYSTEM_NODE_COUNT as u32, seed)
    }

    #[test]
    fn analytic_matches_simulation_at_small_fleets() {
        // The acceptance criterion: N in {2, 4, 8}, stated tolerance.
        for nodes in [2u32, 4, 8] {
            let est = model().assess(nodes, 0xFA17);
            assert!(
                est.gap() < DALY_TOLERANCE,
                "N={nodes}: analytic {:.4} vs simulated {:.4}",
                est.analytic,
                est.simulated
            );
            assert!(est.analytic > 0.0 && est.analytic < 1.0);
        }
    }

    #[test]
    fn the_two_legs_share_bitwise_identical_parameters() {
        let m = model();
        for nodes in [2u32, 8, 64] {
            let campaign = m.campaign(nodes);
            let est = m.assess(nodes, 0xFA17);
            // The analytic interval IS the simulated campaign's interval.
            assert_eq!(m.optimal_interval_hours(nodes), campaign.interval_hours);
            assert_eq!(est.interval_hours, campaign.interval_hours);
            assert_eq!(m.system_mttf_hours(nodes), campaign.mttf_hours);
            assert_eq!(est.system_mttf_hours, campaign.mttf_hours);
            // And the explicit-interval forms the sweep axis runs, at that
            // interval, are the optimal-interval legs.
            assert_eq!(
                m.analytic_efficiency_at(nodes, campaign.interval_hours),
                est.analytic
            );
            assert_eq!(
                m.simulated_efficiency_at(nodes, campaign.interval_hours, 0xFA17),
                est.simulated
            );
        }
    }

    #[test]
    fn efficiency_is_monotone_in_fleet_size_and_fault_rate() {
        let m = model();
        // More nodes -> more faults -> strictly less efficiency.
        let mut last = 1.0;
        for nodes in [1u32, 2, 4, 8, 16, 64, 256] {
            let eff = m.assess(nodes, 7).analytic;
            assert!(eff < last, "N={nodes}: {eff} vs {last}");
            last = eff;
        }
        // Shorter node MTBF (higher fault rate) -> less efficiency.
        let sturdy = RecoveryModel::new(200.0, 3.0).assess(64, 7).analytic;
        let fragile = RecoveryModel::new(20.0, 3.0).assess(64, 7).analytic;
        assert!(fragile < sturdy);
    }

    #[test]
    fn off_optimal_intervals_simulate_worse() {
        let m = model();
        let nodes = 8;
        let tau = m.optimal_interval_hours(nodes);
        let at_opt = m.assess(nodes, 7).simulated;
        let short = m.simulated_efficiency_at(nodes, tau / 8.0, 7);
        let long = m.simulated_efficiency_at(nodes, tau * 8.0, 7);
        assert!(at_opt > short, "opt {at_opt} vs short {short}");
        assert!(at_opt > long, "opt {at_opt} vs long {long}");
    }

    #[test]
    fn assessment_derives_from_the_resilience_model() {
        let m =
            RecoveryModel::from_node_assessment(&EhpConfig::paper_baseline(), "CoMD", 3.0).unwrap();
        assert!(m.node_mttf_hours > 1.0, "MTBF {}", m.node_mttf_hours);
        assert!(RecoveryModel::from_node_assessment(
            &EhpConfig::paper_baseline(),
            "NoSuchKernel",
            3.0
        )
        .is_none());
    }

    #[test]
    fn the_two_estimators_agree_on_the_baseline() {
        let est = machine_estimate(&EhpConfig::paper_baseline(), "CoMD", 3.0, 0xC0FFEE);
        assert!(est.analytic > 0.5 && est.analytic < 1.0);
        assert!(est.simulated > 0.5 && est.simulated < 1.0);
        assert!(
            est.gap() < DALY_TOLERANCE,
            "analytic {} vs simulated {} disagree",
            est.analytic,
            est.simulated
        );
    }

    #[test]
    fn losing_hardware_raises_mttf_and_never_lowers_availability() {
        // Fewer components mean fewer FITs: the degraded node fails less
        // often, so its checkpointed availability cannot drop.
        let healthy = EhpConfig::paper_baseline();
        let mut degraded = healthy.clone();
        degraded.gpu.chiplets = 6;
        degraded.hbm.stacks = 6;
        let h = machine_estimate(&healthy, "CoMD", 3.0, 9);
        let d = machine_estimate(&degraded, "CoMD", 3.0, 9);
        assert!(d.system_mttf_hours > h.system_mttf_hours);
        assert!(d.analytic >= h.analytic);
    }

    #[test]
    fn estimates_are_deterministic() {
        let cfg = EhpConfig::paper_baseline();
        let a = machine_estimate(&cfg, "HPGMG", 5.0, 11);
        let b = machine_estimate(&cfg, "HPGMG", 5.0, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn protected_system_reaches_useful_mttf() {
        // With ECC+RMT the 100k-node machine should sustain hours between
        // silent failures — enough for efficient checkpointing.
        let r = assess(1.0, Protection::ecc_and_rmt(), "CoMD");
        let mttf = r.system_mttf_hours(SYSTEM_NODE_COUNT);
        assert!(mttf > 0.5, "system MTTF {mttf} h");
        let eff = checkpoint_efficiency(mttf, 2.0);
        assert!(eff > 0.5, "efficiency {eff}");
    }
}

//! Seeded fault-injection campaigns and the degradation report.
//!
//! [`run_campaign`] drives a [`FaultPlan`] through every layer of the
//! stack: the [`DegradedNode`] absorbs each fault and cascades collateral
//! damage, the analytic node models re-evaluate performance, power, and
//! thermals on the surviving hardware after every event, the NoC replays
//! the healthy traffic pattern on the degraded interconnect (severed
//! packets are counted, the rest reroute), the memory system re-interleaves
//! and replays a trace, and the HSA runtime re-executes the task graph with
//! the dead agents injected mid-flight. The [`DegradationReport`] renders
//! all of it as deterministic text: same seed, byte-identical report.

use ena_core::node::{EvalOptions, NodeSimulator};
use ena_core::resilience::{RecoveryEstimate, RecoveryModel};
use ena_hsa::runtime::{RetryPolicy, Runtime, RuntimeConfig};
use ena_hsa::task::{GraphError, TaskCost, TaskGraph};
use ena_memory::policy::StaticPlacement;
use ena_memory::system::MemorySystem;
use ena_model::config::{EhpConfig, SYSTEM_NODE_COUNT};
use ena_model::error::DegradeError;
use ena_model::kernel::KernelProfile;
use ena_noc::sim::{NocSim, Packet};
use ena_noc::topology::Topology;
use ena_noc::traffic::WorkloadTraffic;
use ena_workloads::profile_for;

use crate::degrade::{Degradable, DegradedNode};
use crate::plan::{FaultEvent, FaultKind, FaultPlan};

/// Everything needed to run one campaign.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Paper workload driving the models (e.g. `"CoMD"`).
    pub workload: String,
    /// Healthy hardware configuration.
    pub base: EhpConfig,
    /// The failure schedule.
    pub plan: FaultPlan,
    /// NoC traffic volume, request pairs per GPU chiplet.
    pub packets_per_chiplet: u32,
    /// Width of the fork-join task graph's GPU phase.
    pub task_width: usize,
    /// GPU kernel cost in the task graph (us).
    pub kernel_us: f64,
    /// Retry/backoff policy for tasks orphaned by dead agents.
    pub retry: RetryPolicy,
    /// Checkpoint cost for the availability cross-check (minutes).
    pub checkpoint_minutes: f64,
}

impl CampaignSpec {
    /// The acceptance campaign: CoMD on the paper baseline, with the
    /// seeded standard plan (one GPU chiplet, one HBM stack, two
    /// interposer ring cuts).
    pub fn standard(seed: u64) -> Self {
        Self {
            workload: "CoMD".into(),
            base: EhpConfig::paper_baseline(),
            plan: FaultPlan::standard_campaign(seed),
            packets_per_chiplet: 400,
            task_width: 24,
            kernel_us: 50.0,
            retry: RetryPolicy::default(),
            checkpoint_minutes: 3.0,
        }
    }
}

/// The node's measured state at one point in the campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Surviving GPU chiplets.
    pub gpu_chiplets: u32,
    /// Surviving CPU chiplets.
    pub cpu_chiplets: u32,
    /// Surviving HBM stacks.
    pub hbm_stacks: u32,
    /// Surviving external interfaces.
    pub ext_interfaces: u32,
    /// Modeled throughput (GFLOP/s).
    pub gflops: f64,
    /// Package power (W).
    pub package_watts: f64,
    /// Node power (W).
    pub node_watts: f64,
    /// Efficiency (GFLOP/s per node watt).
    pub gflops_per_watt: f64,
    /// Peak DRAM temperature (C).
    pub peak_dram_c: f64,
    /// Healthy-pattern packets still delivered on this interconnect.
    pub noc_delivered: u64,
    /// Healthy-pattern packets severed by degradation.
    pub noc_dropped: u64,
    /// Mean delivered-packet latency (cycles).
    pub noc_avg_latency: f64,
}

/// One applied fault and its aftermath.
#[derive(Clone, Debug)]
pub struct CampaignStep {
    /// The injected fault.
    pub event: FaultEvent,
    /// Components the cascade wrote off with it.
    pub collateral: Vec<FaultKind>,
    /// Node state after the fault settled.
    pub snapshot: Snapshot,
}

/// Memory-system results after the campaign's re-interleaving.
#[derive(Clone, Debug)]
pub struct MemoryOutcome {
    /// Surviving stacks in the interleave.
    pub live_stacks: usize,
    /// In-package capacity across survivors (GB).
    pub in_package_gb: f64,
    /// Accesses replayed through the degraded system.
    pub accesses: u64,
    /// Mean access latency (cycles).
    pub avg_latency_cycles: f64,
    /// Accesses that failed outright (severed external links).
    pub failed: u64,
}

/// Complete record of one campaign.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// Workload name.
    pub workload: String,
    /// Plan seed.
    pub seed: u64,
    /// Healthy baseline measurements.
    pub healthy: Snapshot,
    /// Per-fault steps, in injection order.
    pub steps: Vec<CampaignStep>,
    /// Memory-system outcome on the final degraded node.
    pub memory: MemoryOutcome,
    /// Task-graph makespan on the healthy node (us).
    pub healthy_makespan_us: f64,
    /// Task-graph makespan with agents dying mid-flight (us).
    pub degraded_makespan_us: f64,
    /// Tasks re-queued after an agent died under them.
    pub retries: u64,
    /// Compute lost to mid-flight deaths (us).
    pub lost_work_us: f64,
    /// Young/Daly availability cross-check of the full machine built
    /// from healthy nodes.
    pub healthy_availability: RecoveryEstimate,
    /// The same cross-check on the final degraded configuration.
    pub degraded_availability: RecoveryEstimate,
}

impl DegradationReport {
    /// The node state after the last fault (the healthy state for an
    /// empty plan).
    pub fn final_snapshot(&self) -> &Snapshot {
        self.steps.last().map_or(&self.healthy, |s| &s.snapshot)
    }

    /// Fraction of healthy throughput the degraded node retains.
    pub fn throughput_retained(&self) -> f64 {
        if self.healthy.gflops == 0.0 {
            0.0
        } else {
            self.final_snapshot().gflops / self.healthy.gflops
        }
    }

    /// Fraction of healthy in-package capacity retained.
    pub fn capacity_retained(&self) -> f64 {
        f64::from(self.final_snapshot().hbm_stacks) / f64::from(self.healthy.hbm_stacks)
    }

    /// Renders the report as deterministic text (the golden-artifact and
    /// byte-identity format).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ENA fault-injection campaign");
        let _ = writeln!(out, "============================");
        let _ = writeln!(
            out,
            "workload {} | seed {:#x} | {} scheduled faults",
            self.workload,
            self.seed,
            self.steps.len()
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "healthy baseline");
        render_snapshot(&mut out, &self.healthy);
        for step in &self.steps {
            let _ = writeln!(out);
            let _ = write!(
                out,
                "t={:7.1} us  fail {}",
                step.event.at_us, step.event.kind
            );
            if step.collateral.is_empty() {
                let _ = writeln!(out);
            } else {
                let names: Vec<String> = step.collateral.iter().map(|k| k.to_string()).collect();
                let _ = writeln!(out, " (collateral: {})", names.join(", "));
            }
            render_snapshot(&mut out, &step.snapshot);
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "memory: {} live stacks | {:.1} GB in package | {} accesses | avg {:.1} cycles | {} failed",
            self.memory.live_stacks,
            self.memory.in_package_gb,
            self.memory.accesses,
            self.memory.avg_latency_cycles,
            self.memory.failed
        );
        let _ = writeln!(
            out,
            "runtime: healthy makespan {:.1} us | degraded {:.1} us | {} retries | {:.1} us lost work",
            self.healthy_makespan_us, self.degraded_makespan_us, self.retries, self.lost_work_us
        );
        let _ = writeln!(
            out,
            "retained: {:.1} % throughput | {:.1} % in-package capacity",
            100.0 * self.throughput_retained(),
            100.0 * self.capacity_retained()
        );
        let _ = writeln!(out, "availability (analytic | injected Monte Carlo):");
        let _ = writeln!(
            out,
            "  healthy  {:.4} | {:.4}",
            self.healthy_availability.analytic, self.healthy_availability.simulated
        );
        let _ = writeln!(
            out,
            "  degraded {:.4} | {:.4}",
            self.degraded_availability.analytic, self.degraded_availability.simulated
        );
        out
    }
}

fn render_snapshot(out: &mut String, s: &Snapshot) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  {} GPU chiplets | {} CPU chiplets | {} HBM stacks | {} ext interfaces",
        s.gpu_chiplets, s.cpu_chiplets, s.hbm_stacks, s.ext_interfaces
    );
    let _ = writeln!(
        out,
        "  perf {:.1} GFLOP/s | package {:.1} W | node {:.1} W | {:.2} GFLOP/s/W | peak DRAM {:.1} C",
        s.gflops, s.package_watts, s.node_watts, s.gflops_per_watt, s.peak_dram_c
    );
    let _ = writeln!(
        out,
        "  noc: {} delivered | {} dropped | avg latency {:.1} cycles",
        s.noc_delivered, s.noc_dropped, s.noc_avg_latency
    );
}

fn snapshot(
    sim: &NodeSimulator,
    cfg: &EhpConfig,
    profile: &KernelProfile,
    topo: &Topology,
    healthy_packets: &[Packet],
) -> Snapshot {
    let eval = sim.evaluate(cfg, profile, &EvalOptions::default());
    let stats = NocSim::new(topo).run(healthy_packets);
    Snapshot {
        gpu_chiplets: cfg.gpu.chiplets,
        cpu_chiplets: cfg.cpu.chiplets,
        hbm_stacks: cfg.hbm.stacks,
        ext_interfaces: cfg.external.interfaces,
        gflops: eval.perf.throughput.value(),
        package_watts: eval.package_power().value(),
        node_watts: eval.node_power().value(),
        gflops_per_watt: eval.efficiency(),
        peak_dram_c: sim.peak_dram(cfg, &eval).value(),
        noc_delivered: stats.delivered,
        noc_dropped: stats.dropped,
        noc_avg_latency: stats.avg_latency_cycles(),
    }
}

/// Builds the campaign's bulk-synchronous task graph: CPU preprocessing, a
/// fan of GPU kernels, CPU reduction.
fn campaign_graph(width: usize, kernel_us: f64) -> Result<TaskGraph, GraphError> {
    let mut g = TaskGraph::new();
    let pre = g.add("pre", TaskCost::cpu(5.0), &[])?;
    let mut kernels = Vec::with_capacity(width);
    for i in 0..width {
        kernels.push(g.add(format!("k{i}"), TaskCost::gpu(kernel_us), &[pre])?);
    }
    g.add("reduce", TaskCost::cpu(5.0), &kernels)?;
    Ok(g)
}

/// Runs `spec` end to end and assembles the report.
///
/// # Errors
///
/// Returns a [`DegradeError`] when the plan names an unknown or
/// already-dead component, a fault would eliminate the last survivor of a
/// required class, or the runtime exhausts a task's retry budget.
pub fn run_campaign(spec: &CampaignSpec) -> Result<DegradationReport, DegradeError> {
    let unknown_workload = || DegradeError::UnknownComponent {
        component: "workload profile",
        index: 0,
    };
    let profile = profile_for(&spec.workload).ok_or_else(unknown_workload)?;
    let sim = NodeSimulator::new();
    let base = &spec.base;

    // The fault-unaware traffic pattern, generated once on the healthy
    // interconnect and replayed on every degraded one: packets whose
    // endpoints died get dropped, the rest reroute.
    let healthy_topo = Topology::ehp_ring(base.gpu.chiplets, base.cpu.chiplets);
    let packets = WorkloadTraffic::from_profile(&profile, spec.plan.seed)
        .generate(&healthy_topo, spec.packets_per_chiplet);

    let healthy = snapshot(&sim, base, &profile, &healthy_topo, &packets);

    // Inject the plan, snapshotting after every fault settles.
    let mut node = DegradedNode::new(base);
    let mut steps = Vec::with_capacity(spec.plan.len());
    for &event in spec.plan.events() {
        let collateral = node.apply(event)?;
        let snap = snapshot(
            &sim,
            &node.effective_config(),
            &profile,
            node.topology(),
            &packets,
        );
        steps.push(CampaignStep {
            event,
            collateral,
            snapshot: snap,
        });
    }

    // Memory system: broadcast every casualty (stack deaths re-interleave,
    // SerDes cuts sever external chains), then replay a trace.
    let mut memory = MemorySystem::new(base, Box::new(StaticPlacement::new(0.9)), u64::MAX);
    for &(_, kind) in node.casualties() {
        memory.degrade(kind)?;
    }
    for i in 0..20_000u64 {
        let _ = memory.access(i * 4096, 64, i % 4 == 0);
    }
    let mem_stats = memory.stats().clone();
    let memory_outcome = MemoryOutcome {
        live_stacks: memory.live_stacks(),
        in_package_gb: memory.in_package_bytes() as f64 / 1e9,
        accesses: mem_stats.accesses,
        avg_latency_cycles: mem_stats.avg_latency_cycles(),
        failed: mem_stats.failed,
    };

    // HSA runtime: one queue per GPU chiplet, the node's full core count;
    // the same graph runs healthy and with the campaign's agent deaths.
    let rt = Runtime::new(RuntimeConfig {
        cpu_cores: base.cpu.total_cores() as usize,
        gpu_queues: base.gpu.chiplets as usize,
        ..RuntimeConfig::hsa()
    });
    // A structurally invalid graph cannot come from a CampaignSpec, but
    // if the builder's invariants ever change, surface the inconsistency
    // rather than aborting mid-campaign.
    let graph = campaign_graph(spec.task_width, spec.kernel_us).map_err(|_| {
        DegradeError::UnknownComponent {
            component: "campaign task graph",
            index: spec.task_width as u64,
        }
    })?;
    let healthy_schedule = rt.execute(&graph);
    let degraded_schedule = rt.execute_degraded(&graph, &node.agent_faults(), spec.retry)?;

    // Availability across the full machine, node MTBF from the
    // resilience model's assessment of `config`.
    let availability = |config: &EhpConfig| {
        RecoveryModel::from_node_assessment(config, &spec.workload, spec.checkpoint_minutes)
            .map(|model| model.assess(SYSTEM_NODE_COUNT as u32, spec.plan.seed))
            .ok_or_else(unknown_workload)
    };
    let final_cfg = node.effective_config();
    Ok(DegradationReport {
        workload: spec.workload.clone(),
        seed: spec.plan.seed,
        healthy,
        steps,
        memory: memory_outcome,
        healthy_makespan_us: healthy_schedule.makespan_us,
        degraded_makespan_us: degraded_schedule.makespan_us,
        retries: degraded_schedule.retries,
        lost_work_us: degraded_schedule.lost_work_us,
        healthy_availability: availability(base)?,
        degraded_availability: availability(&final_cfg)?,
    })
}

/// Re-runs one swept design point under a seeded single-chiplet-loss
/// plan: the sweep x fault cross-product in one call.
///
/// The design-space explorer answers "which configuration is best when
/// everything works"; this answers "and what does that configuration
/// retain when a chiplet dies". Any swept point is a valid base — the
/// builder always spreads CUs over the full 8-chiplet package, so the
/// single-loss plan is survivable everywhere in the space.
///
/// # Errors
///
/// Returns a [`DegradeError`] if `workload` names no known profile or
/// `point` cannot be materialized as a buildable configuration (the
/// seeded single-chiplet plan itself is always survivable).
pub fn sweep_degraded(
    point: ena_core::dse::ConfigPoint,
    workload: &str,
    seed: u64,
) -> Result<DegradationReport, DegradeError> {
    let base = point
        .try_to_config()
        .map_err(|_| DegradeError::UnknownComponent {
            component: "design point",
            index: u64::from(point.cus),
        })?;
    run_campaign(&CampaignSpec {
        workload: workload.into(),
        base,
        plan: FaultPlan::single_chiplet_loss(seed),
        ..CampaignSpec::standard(seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_campaign_degrades_but_survives() {
        let report = run_campaign(&CampaignSpec::standard(0xC0FFEE)).unwrap();
        let last = report.final_snapshot();
        // Degraded but alive: 0 < degraded < healthy.
        assert!(last.gflops > 0.0);
        assert!(last.gflops < report.healthy.gflops);
        assert!(last.node_watts > 0.0);
        assert!(last.node_watts < report.healthy.node_watts);
        // The chiplet and stack losses landed.
        assert!(last.gpu_chiplets < 8);
        assert!(last.hbm_stacks <= 6);
        // Severed traffic is accounted, the rest is still delivered.
        assert!(last.noc_dropped > 0);
        assert!(last.noc_delivered > 0);
        assert_eq!(
            report.healthy.noc_delivered,
            last.noc_delivered + last.noc_dropped
        );
        // The runtime re-queued the chiplet's in-flight work.
        assert!(report.degraded_makespan_us >= report.healthy_makespan_us);
        // The memory system re-interleaved around the dead stacks.
        assert_eq!(report.memory.live_stacks as u32, last.hbm_stacks);
        assert_eq!(report.memory.failed, 0);
    }

    #[test]
    fn same_seed_renders_byte_identical_reports() {
        let a = run_campaign(&CampaignSpec::standard(42)).unwrap().render();
        let b = run_campaign(&CampaignSpec::standard(42)).unwrap().render();
        assert_eq!(a, b);
        assert_ne!(
            a,
            run_campaign(&CampaignSpec::standard(43)).unwrap().render()
        );
    }

    #[test]
    fn an_empty_plan_is_the_healthy_node() {
        let mut spec = CampaignSpec::standard(7);
        spec.plan = FaultPlan::new(7);
        let report = run_campaign(&spec).unwrap();
        assert!(report.steps.is_empty());
        assert_eq!(report.final_snapshot(), &report.healthy);
        assert_eq!(report.throughput_retained(), 1.0);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn unknown_workloads_and_bad_plans_are_errors() {
        let mut spec = CampaignSpec::standard(1);
        spec.workload = "NoSuchKernel".into();
        assert!(run_campaign(&spec).is_err());

        let mut spec = CampaignSpec::standard(1);
        spec.plan = FaultPlan::new(1);
        spec.plan.push(1.0, FaultKind::GpuChiplet(99));
        assert!(run_campaign(&spec).is_err());
    }

    #[test]
    fn sweep_degraded_runs_any_design_point() {
        use ena_core::dse::ConfigPoint;
        use ena_model::units::{GigabytesPerSec, Megahertz};

        // A corner of the sweep grid, not the paper baseline.
        let point = ConfigPoint {
            cus: 192,
            clock: Megahertz::new(600.0),
            bandwidth: GigabytesPerSec::from_terabytes_per_sec(1.0),
        };
        let report = sweep_degraded(point, "CoMD", 0xC0FFEE).unwrap();
        assert_eq!(report.steps.len(), 1);
        let retained = report.throughput_retained();
        assert!(retained > 0.0 && retained < 1.0, "retained = {retained}");
        assert_eq!(report.final_snapshot().gpu_chiplets, 7);
        // Seeded: byte-identical across runs.
        assert_eq!(
            report.render(),
            sweep_degraded(point, "CoMD", 0xC0FFEE).unwrap().render()
        );
    }

    #[test]
    fn throttle_only_campaigns_lose_throughput_not_hardware() {
        let mut spec = CampaignSpec::standard(5);
        spec.plan = FaultPlan::new(5);
        spec.plan
            .push(10.0, FaultKind::ThermalThrottle { percent: 25 });
        let report = run_campaign(&spec).unwrap();
        let last = report.final_snapshot();
        assert_eq!(last.gpu_chiplets, 8);
        assert_eq!(last.hbm_stacks, 8);
        assert!(last.gflops < report.healthy.gflops);
        assert_eq!(last.noc_dropped, 0);
    }
}

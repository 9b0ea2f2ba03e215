//! Multi-node fault campaigns: node loss, stragglers, link degradation.
//!
//! A [`MultiNodeCampaignSpec`] drives a seeded [`NodeFaultPlan`] through
//! a fabric, re-estimating fleet throughput after every event:
//!
//! - **node loss** removes the node from the machine
//!   ([`FabricGraph::fail_ehp`]) — traffic reroutes, collectives shrink;
//! - **straggler** runs a full *intra-node* `ena-faults` degradation
//!   campaign (single chiplet loss, seed derived from the plan seed and
//!   the node index) and converts the retained throughput into a
//!   compute-slowdown factor for the bulk-synchronous barrier — the
//!   cross-layer coupling the issue asks for, and the embedded
//!   [`DegradationReport`] is part of the rendered output, so the
//!   byte-identity guarantee covers it too;
//! - **link degradation** shaves bandwidth off every channel on a
//!   route ([`FabricGraph::degrade_route`]), stretching collectives.
//!
//! The report renders as deterministic text: same spec, byte-identical
//! bytes, across runs and processes.

use std::collections::BTreeMap;

use ena_core::node::{EvalOptions, NodeSimulator};
use ena_core::resilience::{RecoveryEstimate, RecoveryModel};
use ena_core::system::{project_system, SystemProjection};
use ena_faults::{
    run_campaign, CampaignSpec, DegradationReport, FaultPlan, NodeFaultEvent, NodeFaultKind,
    NodeFaultPlan,
};
use ena_workloads::profile_for;

use crate::collective::{schedule, CollectiveKind};
use crate::scaleout::{estimate, ScaleOutEstimate, ScaleOutSpec};
use crate::topology::{FabricError, FabricGraph, FabricKind};

/// Teraflops per exaflop. A cabinet delivers hundreds of teraflops on a
/// few kilowatts, so the campaign report and the fabric sweep reports
/// print TF and kW: in EF and MW nearly every figure rounds to zero.
pub const TF_PER_EF: f64 = 1e6;

/// Kilowatts per megawatt (see [`TF_PER_EF`]).
pub const KW_PER_MW: f64 = 1e3;

/// Everything needed to run one multi-node campaign.
#[derive(Clone, Debug)]
pub struct MultiNodeCampaignSpec {
    /// Node count of the fleet.
    pub nodes: u32,
    /// Cabinet topology.
    pub kind: FabricKind,
    /// The node-level failure schedule.
    pub plan: NodeFaultPlan,
    /// Per-node model and payload sizes (also names the workload).
    pub scaleout: ScaleOutSpec,
    /// Optional checkpoint/restart recovery model (`--mtbf` /
    /// `--checkpoint-cost`): when set, the report closes with a
    /// Young/Daly analytic-vs-simulated recovery section at the final
    /// surviving fleet size. `None` leaves the report byte-identical to
    /// a pre-recovery campaign.
    pub recovery: Option<RecoveryModel>,
}

impl MultiNodeCampaignSpec {
    /// The acceptance campaign: a 64-node dragonfly-lite cabinet running
    /// CoMD under the seeded scale-out plan (one node loss, one
    /// straggler, one degraded route).
    pub fn standard(seed: u64) -> Self {
        Self {
            nodes: 64,
            kind: FabricKind::DragonflyLite,
            plan: NodeFaultPlan::scaleout_campaign(seed, 64),
            scaleout: ScaleOutSpec::standard("CoMD"),
            recovery: None,
        }
    }
}

/// One applied node-level fault and the fleet state after it settled.
#[derive(Clone, Debug)]
pub struct MultiNodeStep {
    /// The injected fault.
    pub event: NodeFaultEvent,
    /// For stragglers: the compute-slowdown factor the intra-node
    /// campaign produced.
    pub slowdown: Option<f64>,
    /// Fleet estimate after the fault.
    pub estimate: ScaleOutEstimate,
    /// Whether every surviving node can still reach every other.
    pub reachable: bool,
}

/// Complete record of one multi-node campaign.
#[derive(Clone, Debug)]
pub struct MultiNodeReport {
    /// Workload name.
    pub workload: String,
    /// Fabric topology.
    pub kind: FabricKind,
    /// Built node count.
    pub nodes: u32,
    /// Plan seed.
    pub seed: u64,
    /// Healthy-fleet estimate.
    pub healthy: ScaleOutEstimate,
    /// Healthy fabric diameter in hops.
    pub diameter_hops: usize,
    /// Healthy physical link count.
    pub physical_links: usize,
    /// Healthy collective totals, one per [`CollectiveKind::ALL`] entry
    /// (us).
    pub collective_us: Vec<(CollectiveKind, f64)>,
    /// Per-fault steps, in injection order.
    pub steps: Vec<MultiNodeStep>,
    /// The analytic linear projection at the built node count.
    pub projection: SystemProjection,
    /// Intra-node degradation campaigns behind each straggler, in
    /// injection order.
    pub straggler_reports: Vec<(u32, DegradationReport)>,
    /// Checkpoint/restart recovery at the final fleet size, when the
    /// spec carried a [`RecoveryModel`].
    pub recovery: Option<RecoveryOutcome>,
}

/// The recovery section of a multi-node report: achieved efficiency as a
/// function of node MTBF, checkpoint cost, and the surviving fleet size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryOutcome {
    /// The model the campaign ran with.
    pub model: RecoveryModel,
    /// Analytic-vs-simulated assessment at the final fleet size.
    pub estimate: RecoveryEstimate,
    /// Final fleet throughput with the *simulated* recovery efficiency
    /// applied (EF).
    pub recovered_exaflops: f64,
}

impl MultiNodeReport {
    /// The fleet state after the last fault (healthy for an empty plan).
    pub fn final_estimate(&self) -> &ScaleOutEstimate {
        self.steps.last().map_or(&self.healthy, |s| &s.estimate)
    }

    /// Fraction of healthy fleet throughput retained at the end.
    pub fn throughput_retained(&self) -> f64 {
        if self.healthy.exaflops == 0.0 {
            0.0
        } else {
            self.final_estimate().exaflops / self.healthy.exaflops
        }
    }

    /// Renders the report as deterministic text (the golden-artifact and
    /// byte-identity format). Embedded intra-node reports are indented
    /// two spaces.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ENA multi-node fabric campaign");
        let _ = writeln!(out, "==============================");
        let _ = writeln!(
            out,
            "workload {} | fabric {} x{} | seed {:#x} | {} scheduled faults",
            self.workload,
            self.kind,
            self.nodes,
            self.seed,
            self.steps.len()
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "healthy fleet");
        let _ = writeln!(
            out,
            "  {} nodes | diameter {} hops | {} physical links",
            self.nodes, self.diameter_hops, self.physical_links
        );
        render_estimate(&mut out, &self.healthy);
        let parts: Vec<String> = self
            .collective_us
            .iter()
            .map(|(kind, us)| format!("{kind} {us:.1} us"))
            .collect();
        let _ = writeln!(out, "  collectives: {}", parts.join(" | "));
        for step in &self.steps {
            let _ = writeln!(out);
            let _ = write!(out, "t={:7.1} us  {}", step.event.at_us, step.event.kind);
            match step.slowdown {
                Some(s) => {
                    let _ = writeln!(out, " (x{s:.2} compute slowdown)");
                }
                None => {
                    let _ = writeln!(out);
                }
            }
            let _ = writeln!(
                out,
                "  {} nodes alive | mutually reachable: {}",
                step.estimate.nodes_alive,
                if step.reachable { "yes" } else { "NO" }
            );
            render_estimate(&mut out, &step.estimate);
            let _ = writeln!(
                out,
                "  retained {:.1} % of healthy fleet throughput",
                100.0 * step.estimate.exaflops / self.healthy.exaflops.max(f64::MIN_POSITIVE)
            );
        }
        let _ = writeln!(out);
        let derated = self.projection.derated(self.final_estimate().efficiency);
        let _ = writeln!(out, "analytic cross-check (at built size)");
        let _ = writeln!(
            out,
            "  linear {:.1} TF | derated {:.1} TF | simulated final {:.1} TF | gap to linear {:.1} %",
            TF_PER_EF * self.projection.exaflops,
            TF_PER_EF * derated.exaflops,
            TF_PER_EF * self.final_estimate().exaflops,
            100.0 * self.final_estimate().analytic_gap(&self.projection)
        );
        for (node, report) in &self.straggler_reports {
            let _ = writeln!(out);
            let _ = writeln!(out, "straggler node {node}: intra-node campaign");
            for line in report.render().lines() {
                if line.is_empty() {
                    let _ = writeln!(out);
                } else {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        if let Some(recovery) = &self.recovery {
            let est = &recovery.estimate;
            let _ = writeln!(out);
            let _ = writeln!(out, "checkpoint/restart recovery ({})", recovery.model);
            let _ = writeln!(
                out,
                "  N={} -> system MTTF {:.2} h | Daly interval {:.3} h",
                est.nodes, est.system_mttf_hours, est.interval_hours
            );
            let _ = writeln!(
                out,
                "  efficiency: analytic {:.4} | simulated {:.4} | gap {:.4}",
                est.analytic,
                est.simulated,
                est.gap()
            );
            let _ = writeln!(
                out,
                "  recovered throughput {:.1} TF",
                TF_PER_EF * recovery.recovered_exaflops
            );
        }
        out
    }
}

fn render_estimate(out: &mut String, e: &ScaleOutEstimate) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  compute {:.1} us (slowest {:.1} us) | comm {:.1} us | efficiency {:.2} %",
        e.compute_us,
        e.slowest_compute_us,
        e.comm_us,
        100.0 * e.efficiency
    );
    let _ = writeln!(
        out,
        "  fleet {:.1} TF | {:.2} kW | node {:.2} TF",
        TF_PER_EF * e.exaflops,
        KW_PER_MW * e.power_mw,
        e.node_teraflops
    );
}

/// Converts an intra-node degradation into a bulk-synchronous compute
/// slowdown: a node retaining 66 % of healthy throughput takes 1.5x as
/// long per iteration. Retention is floored so a near-dead node yields a
/// large finite slowdown instead of a division blow-up.
fn slowdown_from(report: &DegradationReport) -> f64 {
    1.0 / report.throughput_retained().max(0.05)
}

/// Runs `spec` end to end and assembles the report.
///
/// # Errors
///
/// Any [`FabricError`] from building or mutating the fabric, an unknown
/// workload, or a failed intra-node straggler campaign
/// ([`FabricError::IntraNode`]).
pub fn run_multinode_campaign(
    spec: &MultiNodeCampaignSpec,
) -> Result<MultiNodeReport, FabricError> {
    let mut graph = FabricGraph::build(spec.kind, spec.nodes)?;
    let mut stragglers: BTreeMap<u32, f64> = BTreeMap::new();
    let mut straggler_reports = Vec::new();

    let healthy = estimate(&graph, &spec.scaleout, &stragglers)?;
    let diameter_hops = graph.diameter_hops()?;
    let physical_links = graph.physical_links().len();
    let mut collective_us = Vec::with_capacity(CollectiveKind::ALL.len());
    for kind in CollectiveKind::ALL {
        let s = schedule(&graph, kind, spec.scaleout.halo_bytes())?;
        collective_us.push((kind, s.total.value()));
    }

    let mut steps = Vec::with_capacity(spec.plan.len());
    for &event in spec.plan.events() {
        let mut slowdown = None;
        match event.kind {
            NodeFaultKind::NodeLoss(node) => {
                graph.fail_ehp(node)?;
                stragglers.remove(&node);
            }
            NodeFaultKind::Straggler(node) => {
                if node >= spec.nodes {
                    return Err(FabricError::UnknownNode(node as usize));
                }
                // The straggler's slowdown is *derived*, not drawn: an
                // intra-node chiplet-loss campaign on this node's own
                // hardware, seeded from the plan and the node index.
                let intra = CampaignSpec {
                    workload: spec.scaleout.workload.clone(),
                    base: spec.scaleout.base.clone(),
                    plan: FaultPlan::single_chiplet_loss(spec.plan.seed ^ u64::from(node)),
                    ..CampaignSpec::standard(spec.plan.seed)
                };
                let report = run_campaign(&intra)?;
                let factor = slowdown_from(&report);
                stragglers.insert(node, factor);
                straggler_reports.push((node, report));
                slowdown = Some(factor);
            }
            NodeFaultKind::LinkDegradation { a, b, percent } => {
                graph.degrade_route(a, b, percent)?;
            }
        }
        let est = estimate(&graph, &spec.scaleout, &stragglers)?;
        steps.push(MultiNodeStep {
            event,
            slowdown,
            estimate: est,
            reachable: graph.all_ehp_mutually_reachable(),
        });
    }

    let profile = profile_for(&spec.scaleout.workload)
        .ok_or_else(|| FabricError::UnknownWorkload(spec.scaleout.workload.clone()))?;
    let projection = project_system(
        &NodeSimulator::new(),
        &spec.scaleout.base,
        &profile,
        &EvalOptions::default(),
        u64::from(spec.nodes),
    );

    // Recovery closes the report at the *surviving* fleet size: the
    // machine that still has to make progress is the one paying the
    // checkpoint/restart tax.
    let recovery = spec.recovery.map(|model| {
        let final_est = steps.last().map_or(&healthy, |s| &s.estimate);
        let alive = final_est.nodes_alive.min(u32::MAX as usize) as u32;
        let estimate = model.assess(alive, spec.plan.seed);
        RecoveryOutcome {
            model,
            estimate,
            recovered_exaflops: final_est.exaflops * estimate.simulated,
        }
    });

    Ok(MultiNodeReport {
        workload: spec.scaleout.workload.clone(),
        kind: spec.kind,
        nodes: spec.nodes,
        seed: spec.plan.seed,
        healthy,
        diameter_hops,
        physical_links,
        collective_us,
        steps,
        projection,
        straggler_reports,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_campaign_degrades_but_survives() {
        let report = run_multinode_campaign(&MultiNodeCampaignSpec::standard(0xC0FFEE)).unwrap();
        assert_eq!(report.steps.len(), 3);
        // Exactly one straggler, backed by an embedded intra-node report.
        assert_eq!(report.straggler_reports.len(), 1);
        let (node, intra) = report.straggler_reports.first().unwrap();
        assert!(*node < 64);
        assert!(intra.throughput_retained() < 1.0);
        // Every step leaves the survivors mutually reachable.
        assert!(report.steps.iter().all(|s| s.reachable));
        // The fleet lost a node and some speed, but not the machine.
        let last = report.final_estimate();
        assert_eq!(last.nodes_alive, 63);
        assert!(last.exaflops > 0.0);
        assert!(last.exaflops < report.healthy.exaflops);
        let retained = report.throughput_retained();
        assert!(retained > 0.5 && retained < 1.0, "retained = {retained}");
    }

    #[test]
    fn same_seed_renders_byte_identical_reports() {
        let a = run_multinode_campaign(&MultiNodeCampaignSpec::standard(42))
            .unwrap()
            .render();
        let b = run_multinode_campaign(&MultiNodeCampaignSpec::standard(42))
            .unwrap()
            .render();
        assert_eq!(a, b);
        let c = run_multinode_campaign(&MultiNodeCampaignSpec::standard(43))
            .unwrap()
            .render();
        assert_ne!(a, c);
        // The embedded intra-node campaign is part of the rendered bytes.
        assert!(a.contains("ENA fault-injection campaign"));
    }

    #[test]
    fn a_recovery_model_appends_a_cross_checked_section() {
        let without = run_multinode_campaign(&MultiNodeCampaignSpec::standard(0xC0FFEE)).unwrap();
        assert!(without.recovery.is_none());
        let plain = without.render();

        let spec = MultiNodeCampaignSpec {
            recovery: Some(RecoveryModel::new(96.0, 3.0)),
            ..MultiNodeCampaignSpec::standard(0xC0FFEE)
        };
        let with = run_multinode_campaign(&spec).unwrap();
        let recovery = with.recovery.as_ref().unwrap();
        // Assessed at the surviving fleet, not the built one.
        assert_eq!(
            recovery.estimate.nodes as usize,
            with.final_estimate().nodes_alive
        );
        assert!(recovery.estimate.gap() < crate::DALY_TOLERANCE);
        assert!(recovery.recovered_exaflops < with.final_estimate().exaflops);
        assert!(recovery.recovered_exaflops > 0.0);
        // The section is purely additive: everything before it is
        // byte-identical to the recovery-free report.
        let rendered = with.render();
        assert!(rendered.starts_with(&plain));
        assert!(rendered.contains("checkpoint/restart recovery"));
        assert!(!plain.contains("checkpoint/restart recovery"));
    }

    #[test]
    fn an_empty_plan_is_the_healthy_fleet() {
        let mut spec = MultiNodeCampaignSpec::standard(7);
        spec.plan = NodeFaultPlan::new(7);
        let report = run_multinode_campaign(&spec).unwrap();
        assert!(report.steps.is_empty());
        assert_eq!(report.final_estimate(), &report.healthy);
        assert_eq!(report.throughput_retained(), 1.0);
        assert!(report.straggler_reports.is_empty());
    }

    #[test]
    fn campaigns_run_on_every_topology() {
        for kind in FabricKind::ALL {
            let spec = MultiNodeCampaignSpec {
                kind,
                ..MultiNodeCampaignSpec::standard(0xC0FFEE)
            };
            let report = run_multinode_campaign(&spec).unwrap();
            assert!(report.steps.iter().all(|s| s.reachable), "{kind}");
            assert!(report.throughput_retained() > 0.5, "{kind}");
        }
    }

    #[test]
    fn bad_plans_are_errors() {
        let mut spec = MultiNodeCampaignSpec::standard(1);
        spec.plan = NodeFaultPlan::new(1);
        spec.plan.push(1.0, NodeFaultKind::NodeLoss(99));
        assert!(matches!(
            run_multinode_campaign(&spec),
            Err(FabricError::UnknownNode(99))
        ));

        let mut spec = MultiNodeCampaignSpec::standard(1);
        spec.plan = NodeFaultPlan::new(1);
        spec.plan.push(1.0, NodeFaultKind::Straggler(64));
        assert!(run_multinode_campaign(&spec).is_err());
    }
}

//! (node count x topology) and (checkpoint-interval x nodes) as sweep
//! axes of the `ena-sweep` driver.
//!
//! [`MultiNodeSweepSpec`] is an [`Axis`]: every [`MultiNodePoint`] of a
//! [`MultiNodeSpace`] evaluates to a healthy-fleet scale-out estimate,
//! and the Pareto frontier (maximize exaflops and efficiency, minimize
//! power) comes from the shared [`frontier`] scan.
//! [`RecoverySweepSpec`] is the second fabric axis: each point is a
//! Young/Daly analytic-vs-simulated recovery assessment at an interval
//! scaled away from Daly's optimum, scoring recovered
//! (efficiency-weighted) fleet throughput. The healthy-fleet estimate
//! depends on the node count alone, so one run computes it once per
//! node count, at the first point of that count to evaluate, and shares
//! it with the run's other interval scales.
//!
//! Both run through the one sweep driver ([`Memo`], aliased here as
//! [`MultiNodeSweep`] and [`RecoverySweep`]), so they share the node
//! axis's supervision (retries, quarantine, failpoints) and determinism
//! contract: the outcome is byte-identical to the sequential oracle for
//! any job count. Every run evaluates every point; nothing persists.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use ena_core::resilience::RecoveryModel;
use ena_model::hash::{digest, StableHash, StableHasher};
use ena_sweep::{frontier, Axis, Memo, RunOptions};

use crate::scaleout::{estimate, ScaleOutEstimate, ScaleOutSpec};
use crate::topology::{FabricError, FabricGraph, FabricKind};

/// The multi-node sweep driver.
pub type MultiNodeSweep = Memo;

/// The (checkpoint-interval x nodes) sweep driver.
pub type RecoverySweep = Memo;

/// Everything in a [`ScaleOutSpec`] that determines an evaluation: the
/// workload, the node hardware, and the payloads.
impl StableHash for ScaleOutSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(&self.workload);
        self.base.stable_hash(h);
        h.write_f64(self.payload_bytes);
        h.write_f64(self.reduce_bytes);
    }
}

/// Key of a fabric grid point within `campaign`.
fn keyed(campaign: u64, point: &impl StableHash) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(campaign);
    point.stable_hash(&mut h);
    h.finish()
}

/// One multi-node design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MultiNodePoint {
    /// Fleet size.
    pub nodes: u32,
    /// Cabinet topology.
    pub kind: FabricKind,
}

impl MultiNodePoint {
    /// Compact display label, e.g. `64@dragonfly`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.nodes, self.kind)
    }
}

impl StableHash for MultiNodePoint {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(self.nodes);
        self.kind.stable_hash(h);
    }
}

/// The swept grid: every node count crossed with every topology.
#[derive(Clone, Debug)]
pub struct MultiNodeSpace {
    /// Fleet sizes to sweep.
    pub node_counts: Vec<u32>,
    /// Topologies to sweep.
    pub kinds: Vec<FabricKind>,
}

impl MultiNodeSpace {
    /// The standard cabinet sweep: powers of two up to 64 nodes across
    /// every shipped topology (18 points).
    pub fn cabinet() -> Self {
        Self {
            node_counts: vec![2, 4, 8, 16, 32, 64],
            kinds: FabricKind::ALL.to_vec(),
        }
    }

    /// Every point, node-count-major then topology order.
    pub fn points(&self) -> Vec<MultiNodePoint> {
        let mut out = Vec::with_capacity(self.node_counts.len() * self.kinds.len());
        for &nodes in &self.node_counts {
            for &kind in &self.kinds {
                out.push(MultiNodePoint { nodes, kind });
            }
        }
        out
    }
}

/// One evaluated multi-node point.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiNodeRecord {
    /// The evaluated point.
    pub point: MultiNodePoint,
    /// Achieved fleet throughput (exaflops).
    pub exaflops: f64,
    /// Fleet power (MW).
    pub power_mw: f64,
    /// Communication efficiency.
    pub efficiency: f64,
    /// Halo + all-reduce time (us).
    pub comm_us: f64,
}

impl MultiNodeRecord {
    fn from_estimate(point: MultiNodePoint, est: &ScaleOutEstimate) -> Self {
        Self {
            point,
            exaflops: est.exaflops,
            power_mw: est.power_mw,
            efficiency: est.efficiency,
            comm_us: est.comm_us,
        }
    }

    /// The objectives the frontier maximizes: exaflops up, efficiency
    /// up, power down.
    pub fn objectives(&self) -> [f64; 3] {
        [self.exaflops, self.efficiency, -self.power_mw]
    }
}

/// One multi-node sweep request: the (nodes x topology) axis.
#[derive(Clone, Debug)]
pub struct MultiNodeSweepSpec {
    /// The grid to sweep.
    pub space: MultiNodeSpace,
    /// Per-node model and payloads (also names the workload).
    pub scaleout: ScaleOutSpec,
    /// How the sweep runs.
    pub run: RunOptions,
}

impl MultiNodeSweepSpec {
    /// A sequential spec over `space`, 4 points per chunk.
    pub fn new(space: MultiNodeSpace, scaleout: ScaleOutSpec) -> Self {
        Self {
            space,
            scaleout,
            run: RunOptions::new(4),
        }
    }
}

impl Axis for MultiNodeSweepSpec {
    type Point = MultiNodePoint;
    type Record = MultiNodeRecord;
    type Error = FabricError;
    /// Indices into the records on the Pareto frontier (exaflops up,
    /// efficiency up, power down), in grid order.
    type Frontier = Vec<usize>;
    type Shared = ();

    fn options(&self) -> &RunOptions {
        &self.run
    }

    fn points(&self) -> Vec<MultiNodePoint> {
        self.space.points()
    }

    /// The workload, the node hardware, and the payloads.
    fn campaign_digest(&self) -> u64 {
        digest(&self.scaleout)
    }

    fn point_key(&self, campaign: u64, point: &MultiNodePoint) -> u64 {
        keyed(campaign, point)
    }

    fn shared(&self) {}

    /// Builds the fabric and estimates the healthy fleet.
    fn evaluate(&self, _: &(), point: &MultiNodePoint) -> Result<MultiNodeRecord, FabricError> {
        let graph = FabricGraph::build(point.kind, point.nodes)?;
        let est = estimate(&graph, &self.scaleout, &BTreeMap::new())?;
        Ok(MultiNodeRecord::from_estimate(*point, &est))
    }

    fn frontier(&self, records: &[MultiNodeRecord]) -> Vec<usize> {
        frontier(records, MultiNodeRecord::objectives)
    }
}

/// One (checkpoint-interval x nodes) design point. The interval is
/// expressed as a percentage of Daly's optimum at that fleet size, so
/// the axis stays meaningful as the optimum moves with `N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecoveryPoint {
    /// Fleet size.
    pub nodes: u32,
    /// Checkpoint interval as a percentage of the Daly optimum
    /// (100 = optimal, 50 = checkpoint twice as often, 200 = half as
    /// often).
    pub interval_scale_pct: u32,
}

impl RecoveryPoint {
    /// Compact display label, e.g. `64@100%`.
    pub fn label(&self) -> String {
        format!("{}@{}%", self.nodes, self.interval_scale_pct)
    }
}

impl StableHash for RecoveryPoint {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(self.nodes);
        h.write_u32(self.interval_scale_pct);
    }
}

/// The swept recovery grid: every node count crossed with every interval
/// scale.
#[derive(Clone, Debug)]
pub struct RecoverySpace {
    /// Fleet sizes to sweep.
    pub node_counts: Vec<u32>,
    /// Interval scales to sweep, percent of the Daly optimum.
    pub interval_scales_pct: Vec<u32>,
}

impl RecoverySpace {
    /// The standard axis: the cabinet node counts crossed with intervals
    /// from 4x-too-frequent to 4x-too-rare (30 points).
    pub fn standard() -> Self {
        Self {
            node_counts: vec![2, 4, 8, 16, 32, 64],
            interval_scales_pct: vec![25, 50, 100, 200, 400],
        }
    }

    /// Every point, node-count-major then scale order.
    pub fn points(&self) -> Vec<RecoveryPoint> {
        let mut out = Vec::with_capacity(self.node_counts.len() * self.interval_scales_pct.len());
        for &nodes in &self.node_counts {
            for &interval_scale_pct in &self.interval_scales_pct {
                out.push(RecoveryPoint {
                    nodes,
                    interval_scale_pct,
                });
            }
        }
        out
    }
}

/// One evaluated recovery point.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRecord {
    /// The evaluated point.
    pub point: RecoveryPoint,
    /// The absolute checkpoint interval assessed (hours).
    pub interval_hours: f64,
    /// Closed-form Young/Daly efficiency at that interval.
    pub analytic: f64,
    /// Monte Carlo campaign efficiency on the same parameters.
    pub simulated: f64,
    /// Healthy fleet throughput weighted by the simulated efficiency
    /// (EF) — the number the machine actually delivers.
    pub recovered_exaflops: f64,
}

impl RecoveryRecord {
    /// The objectives the frontier maximizes: recovered throughput and
    /// simulated efficiency. (Bigger fleets deliver more exaflops but
    /// recover less efficiently, so the frontier traces the genuine
    /// scale-vs-resilience tradeoff.)
    pub fn objectives(&self) -> [f64; 2] {
        [self.recovered_exaflops, self.simulated]
    }
}

/// One recovery sweep request: the (checkpoint-interval x nodes) axis.
#[derive(Clone, Debug)]
pub struct RecoverySweepSpec {
    /// The grid to sweep.
    pub space: RecoverySpace,
    /// Per-node model and payloads (also names the workload).
    pub scaleout: ScaleOutSpec,
    /// Cabinet topology every point is built on.
    pub kind: FabricKind,
    /// Node MTBF and checkpoint cost.
    pub recovery: RecoveryModel,
    /// Seed for the Monte Carlo leg.
    pub seed: u64,
    /// How the sweep runs.
    pub run: RunOptions,
}

impl RecoverySweepSpec {
    /// A sequential spec over `space`, 4 points per chunk.
    pub fn new(space: RecoverySpace, scaleout: ScaleOutSpec, recovery: RecoveryModel) -> Self {
        Self {
            space,
            scaleout,
            kind: FabricKind::DragonflyLite,
            recovery,
            seed: 0xC0FFEE,
            run: RunOptions::new(4),
        }
    }
}

impl Axis for RecoverySweepSpec {
    type Point = RecoveryPoint;
    type Record = RecoveryRecord;
    type Error = FabricError;
    /// Indices into the records on the Pareto frontier (recovered
    /// throughput up, simulated efficiency up), in grid order.
    type Frontier = Vec<usize>;
    /// The run's healthy-fleet throughput (EF) per node count, set by the
    /// first point of that count to evaluate.
    type Shared = Vec<(u32, OnceLock<f64>)>;

    fn options(&self) -> &RunOptions {
        &self.run
    }

    fn points(&self) -> Vec<RecoveryPoint> {
        self.space.points()
    }

    /// Workload, hardware, payloads, topology, recovery parameters, and
    /// the Monte Carlo seed.
    fn campaign_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        self.scaleout.stable_hash(&mut h);
        self.kind.stable_hash(&mut h);
        self.recovery.stable_hash(&mut h);
        h.write_u64(self.seed);
        h.finish()
    }

    fn point_key(&self, campaign: u64, point: &RecoveryPoint) -> u64 {
        keyed(campaign, point)
    }

    fn shared(&self) -> Vec<(u32, OnceLock<f64>)> {
        self.space
            .node_counts
            .iter()
            .map(|&nodes| (nodes, OnceLock::new()))
            .collect()
    }

    /// Healthy fleet estimate at `nodes` (once per node count and run:
    /// a failed estimate is not kept, so every point at that count
    /// reports it), both recovery legs at the scaled interval.
    fn evaluate(
        &self,
        fleets: &Vec<(u32, OnceLock<f64>)>,
        point: &RecoveryPoint,
    ) -> Result<RecoveryRecord, FabricError> {
        let fleet = fleets
            .iter()
            .find_map(|(nodes, fleet)| (*nodes == point.nodes).then_some(fleet));
        let exaflops = match fleet.and_then(OnceLock::get) {
            Some(&exaflops) => exaflops,
            None => {
                let graph = FabricGraph::build(self.kind, point.nodes)?;
                let exaflops = estimate(&graph, &self.scaleout, &BTreeMap::new())?.exaflops;
                if let Some(fleet) = fleet {
                    // Err only when a racing worker set it first, to the
                    // same value: the estimate is deterministic.
                    let _ = fleet.set(exaflops);
                }
                exaflops
            }
        };
        let interval_hours = self.recovery.optimal_interval_hours(point.nodes)
            * f64::from(point.interval_scale_pct)
            / 100.0;
        let analytic = self
            .recovery
            .analytic_efficiency_at(point.nodes, interval_hours);
        let simulated =
            self.recovery
                .simulated_efficiency_at(point.nodes, interval_hours, self.seed);
        Ok(RecoveryRecord {
            point: *point,
            interval_hours,
            analytic,
            simulated,
            recovered_exaflops: exaflops * simulated,
        })
    }

    fn frontier(&self, records: &[RecoveryRecord]) -> Vec<usize> {
        frontier(records, RecoveryRecord::objectives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_sweep::{dominates, SweepError};

    fn spec() -> MultiNodeSweepSpec {
        MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"))
    }

    #[test]
    fn the_cabinet_grid_has_every_cross_product_point() {
        let points = MultiNodeSpace::cabinet().points();
        assert_eq!(points.len(), 18);
        assert_eq!(
            points.first().unwrap(),
            &MultiNodePoint {
                nodes: 2,
                kind: FabricKind::FatTree
            }
        );
        assert_eq!(points.last().unwrap().label(), "64@dragonfly");
    }

    #[test]
    fn parallel_equals_sequential_for_any_job_count() {
        let oracle = MultiNodeSweep::new();
        let sequential = oracle.run(&spec()).unwrap();
        for jobs in [2usize, 4, 8] {
            let mut parallel_spec = spec();
            parallel_spec.run.jobs = jobs;
            let parallel = MultiNodeSweep::new().run(&parallel_spec).unwrap();
            assert_eq!(parallel.records, sequential.records, "jobs = {jobs}");
            assert_eq!(parallel.frontier, sequential.frontier, "jobs = {jobs}");
        }
    }

    #[test]
    fn reruns_on_one_driver_evaluate_every_point_again() {
        let engine = MultiNodeSweep::new();
        let first = engine.run(&spec()).unwrap();
        assert_eq!(first.fresh_evals, 18);
        let second = engine.run(&spec()).unwrap();
        assert_eq!(second.fresh_evals, second.total_points);
        assert_eq!(second.records, first.records);
    }

    #[test]
    fn the_frontier_is_nonempty_and_undominated() {
        let engine = MultiNodeSweep::new();
        let outcome = engine.run(&spec()).unwrap();
        assert!(!outcome.frontier.is_empty());
        for &i in &outcome.frontier {
            let f = &outcome.records[i];
            assert!(outcome
                .records
                .iter()
                .all(|r| !dominates(&r.objectives(), &f.objectives())));
        }
        // Every point not on the frontier is dominated by someone.
        for (i, r) in outcome.records.iter().enumerate() {
            if !outcome.frontier.contains(&i) {
                assert!(outcome
                    .records
                    .iter()
                    .any(|other| dominates(&other.objectives(), &r.objectives())));
            }
        }
    }

    #[test]
    fn empty_grids_are_rejected() {
        let engine = MultiNodeSweep::new();
        let empty = MultiNodeSweepSpec::new(
            MultiNodeSpace {
                node_counts: vec![],
                kinds: vec![],
            },
            ScaleOutSpec::standard("CoMD"),
        );
        assert!(matches!(engine.run(&empty), Err(SweepError::EmptySpace)));
    }

    #[test]
    fn bad_workloads_surface_as_fabric_errors() {
        let engine = MultiNodeSweep::new();
        let bad = MultiNodeSweepSpec::new(
            MultiNodeSpace::cabinet(),
            ScaleOutSpec::standard("NoSuchKernel"),
        );
        assert!(matches!(engine.run(&bad), Err(SweepError::Evaluate(_))));
    }

    fn recovery_spec() -> RecoverySweepSpec {
        RecoverySweepSpec::new(
            RecoverySpace::standard(),
            ScaleOutSpec::standard("CoMD"),
            RecoveryModel::new(96.0, 3.0),
        )
    }

    #[test]
    fn the_recovery_grid_crosses_intervals_with_node_counts() {
        let points = RecoverySpace::standard().points();
        assert_eq!(points.len(), 30);
        assert_eq!(points.first().unwrap().label(), "2@25%");
        assert_eq!(points.last().unwrap().label(), "64@400%");
    }

    #[test]
    fn recovery_parallel_equals_sequential_and_reruns_evaluate_again() {
        let oracle = RecoverySweep::new();
        let sequential = oracle.run(&recovery_spec()).unwrap();
        assert_eq!(sequential.fresh_evals, 30);
        for jobs in [2usize, 8] {
            let mut parallel_spec = recovery_spec();
            parallel_spec.run.jobs = jobs;
            let parallel = RecoverySweep::new().run(&parallel_spec).unwrap();
            assert_eq!(parallel.records, sequential.records, "jobs = {jobs}");
            assert_eq!(parallel.frontier, sequential.frontier, "jobs = {jobs}");
        }
        let rerun = oracle.run(&recovery_spec()).unwrap();
        assert_eq!(rerun.fresh_evals, rerun.total_points);
        assert_eq!(rerun.records, sequential.records);
    }

    #[test]
    fn the_recovery_frontier_traces_the_scale_vs_resilience_tradeoff() {
        let engine = RecoverySweep::new();
        let outcome = engine.run(&recovery_spec()).unwrap();
        assert!(!outcome.frontier.is_empty());
        for &i in &outcome.frontier {
            let f = &outcome.records[i];
            assert!(outcome
                .records
                .iter()
                .all(|r| !dominates(&r.objectives(), &f.objectives())));
        }
        // Daly-optimal points agree with their analytic prediction.
        for r in &outcome.records {
            if r.point.interval_scale_pct == 100 {
                assert!(
                    (r.analytic - r.simulated).abs() < crate::DALY_TOLERANCE,
                    "{}: analytic {:.4} vs simulated {:.4}",
                    r.point.label(),
                    r.analytic,
                    r.simulated
                );
            }
        }
        // At fixed N the optimal interval's analytic efficiency beats
        // every off-optimal scale.
        for &nodes in &[2u32, 64] {
            let at = |pct: u32| {
                outcome
                    .records
                    .iter()
                    .find(|r| r.point.nodes == nodes && r.point.interval_scale_pct == pct)
                    .map(|r| r.analytic)
                    .unwrap_or(0.0)
            };
            for pct in [25u32, 50, 200, 400] {
                assert!(at(100) > at(pct), "N={nodes} pct={pct}");
            }
        }
    }

    #[test]
    fn empty_recovery_grids_are_rejected() {
        let engine = RecoverySweep::new();
        let empty = RecoverySweepSpec {
            space: RecoverySpace {
                node_counts: vec![],
                interval_scales_pct: vec![],
            },
            ..recovery_spec()
        };
        assert!(matches!(engine.run(&empty), Err(SweepError::EmptySpace)));
    }
}

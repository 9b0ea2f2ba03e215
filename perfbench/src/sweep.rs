//! `sweep`: one op is a cold, memory-cached `SweepEngine::run` over
//! `DesignSpace::paper()` (1813 points x 8 profiles, fresh engine each
//! op, `jobs = 1`), then `MultiNodeSweep::run` and `RecoverySweep::run`
//! on their default grids.
//!
//! The seed picks the sample of points checked against an
//! `Explorer::evaluate_point` oracle.

use std::time::Instant;

use ena_core::dse::{DesignSpace, Explorer, PointRecord};
use ena_fabric::{
    MultiNodeSpace, MultiNodeSweep, MultiNodeSweepSpec, RecoveryModel, RecoverySpace,
    RecoverySweep, RecoverySweepSpec, ScaleOutSpec,
};
use ena_model::config::EhpConfig;
use ena_sweep::{SweepEngine, SweepSpec};
use ena_workloads::paper_profiles;

use crate::trace::Tracer;
use crate::util::{self, median, Budget, Metrics, Op, Run, Tracing};

/// Points of the node sweep checked against the oracle in every op.
const ORACLE_SAMPLE: usize = 64;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 25;
/// Workload the fabric sweeps scale out.
const FABRIC_APP: &str = "CoMD";

/// Everything an op needs, built once at set-up.
struct Fixture {
    explorer: Explorer,
    node: SweepSpec,
    multinode: MultiNodeSweepSpec,
    recovery: RecoverySweepSpec,
    /// `(index into the node sweep's records, oracle record)`.
    oracle: Vec<(usize, PointRecord)>,
}

impl Fixture {
    fn new(seed: u64) -> Result<Self, String> {
        let explorer = Explorer::default();
        let profiles = paper_profiles();
        let space = DesignSpace::paper();
        let points = space.points();
        let mut indices: Vec<usize> = (0..points.len()).collect();
        util::shuffle(&mut indices, &mut util::rng(seed, 2));
        let oracle = indices[..ORACLE_SAMPLE]
            .iter()
            .map(|&i| (i, explorer.evaluate_point(points[i], &profiles)))
            .collect();
        let recovery_model =
            RecoveryModel::from_node_assessment(&EhpConfig::paper_baseline(), FABRIC_APP, 3.0)
                .ok_or("no recovery model for the fabric workload")?;
        Ok(Self {
            node: SweepSpec::new(space, profiles),
            multinode: MultiNodeSweepSpec::new(
                MultiNodeSpace::cabinet(),
                ScaleOutSpec::standard(FABRIC_APP),
            ),
            recovery: RecoverySweepSpec::new(
                RecoverySpace::standard(),
                ScaleOutSpec::standard(FABRIC_APP),
                recovery_model,
            ),
            explorer,
            oracle,
        })
    }
}

/// The outputs every op must reproduce exactly.
#[derive(PartialEq)]
struct Outputs {
    node: (Vec<PointRecord>, Vec<ena_sweep::FrontierPoint>),
    multinode: (Vec<ena_fabric::MultiNodeRecord>, Vec<usize>),
    recovery: (Vec<ena_fabric::RecoveryRecord>, Vec<usize>),
}

/// Runs the workload.
pub fn run(seed: u64, budget: Budget, tracing: Tracing<'_>) -> Result<Run, String> {
    let (setup_s, fixture) = util::timed_setups(SETUP_REPS, |_| Fixture::new(seed));
    let fx = fixture?;

    let mut reference: Option<Outputs> = None;
    let mut ops = Vec::new();
    let mut counts = (0usize, 0usize);
    let mut last = 0.0;
    let loop_start = Instant::now();
    while budget.more(ops.len(), util::secs(loop_start), last) {
        let t = tracing.for_op(ops.len());
        let start = Instant::now();
        let (node, multinode, recovery) = t.span("sweep.op", None, None, |op| {
            (
                t.span("sweep.node", op, None, |_| {
                    SweepEngine::new(fx.explorer.clone()).run(&fx.node)
                }),
                t.span("sweep.multinode", op, None, |_| {
                    MultiNodeSweep::new().run(&fx.multinode)
                }),
                t.span("sweep.recovery", op, None, |_| {
                    RecoverySweep::new().run(&fx.recovery)
                }),
            )
        });
        last = util::secs(start);

        let (node, multinode, recovery) = match (node, multinode, recovery) {
            (Ok(n), Ok(m), Ok(r)) => (n, m, r),
            (n, m, r) => {
                eprintln!(
                    "sweep: run failed: {:?} {:?} {:?}",
                    n.err().map(|e| e.to_string()),
                    m.err().map(|e| e.to_string()),
                    r.err().map(|e| e.to_string())
                );
                ops.push(Op {
                    ms: last * 1e3,
                    ok: false,
                    traced: t.on(),
                });
                continue;
            }
        };
        let cold =
            node.telemetry.fresh_evals == node.telemetry.total_points && node.quarantine.is_empty();
        let oracle_ok = fx
            .oracle
            .iter()
            .all(|(i, want)| node.records.get(*i) == Some(want));
        counts = (
            node.telemetry.fresh_evals + multinode.fresh_evals + recovery.fresh_evals,
            node.telemetry.chunks,
        );
        let outputs = Outputs {
            node: (node.records, node.frontier),
            multinode: (multinode.records, multinode.frontier),
            recovery: (recovery.records, recovery.frontier),
        };
        let same = reference.as_ref().is_none_or(|r| *r == outputs);
        if reference.is_none() {
            reference = Some(outputs);
        }
        let ok = cold && oracle_ok && same;
        if !ok {
            eprintln!(
                "sweep: op {} failed (cold {cold}, oracle {oracle_ok}, repeat {same})",
                ops.len()
            );
        }
        ops.push(Op {
            ms: last * 1e3,
            ok,
            traced: t.on(),
        });
    }
    let wall_s = util::secs(loop_start);

    let layers = tracing
        .tracer()
        .map(|tr| layer_metrics(tr, counts))
        .unwrap_or_default();
    Ok(Run {
        setup_s,
        ops,
        wall_s,
        end_failures: 0,
        layers,
    })
}

fn layer_metrics(tracer: &Tracer, (fresh_evals, chunks): (usize, usize)) -> Metrics {
    let mut m = Metrics::default();
    for stage in ["node", "multinode", "recovery"] {
        let times = tracer.self_times(&format!("sweep.{stage}"));
        m.push(format!("sweep.{stage}_ms"), median(&times), "ms");
    }
    m.push("sweep.fresh_evals", fresh_evals as f64, "count");
    m.push("sweep.chunks", chunks as f64, "count");
    m
}

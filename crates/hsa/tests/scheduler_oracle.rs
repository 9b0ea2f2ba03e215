//! The ready-queue list scheduler against the scan it replaced.
//!
//! `Runtime::execute_degraded` picks the ready task with the least
//! `(ready time, id)` from a priority queue, and `Runtime::execute` is
//! its fault-free run. The reference implementation below makes the
//! same pick the original way, scanning every task and its dependency
//! list on each step, and the properties require the two to agree bit
//! for bit over random DAGs: duplicate dependencies, tie-heavy costs,
//! one to four agents of each kind, both dispatch paths and random
//! fault plans, the empty plan included.

use ena_hsa::runtime::{AgentFault, AgentKind, RetryPolicy, Runtime, RuntimeConfig, Schedule};
use ena_hsa::sync::SyncModel;
use ena_hsa::task::{TaskCost, TaskGraph, TaskId};
use ena_model::error::DegradeError;
use ena_testkit::prelude::*;

/// Costs drawn from a handful of values so ready times and finish times
/// tie often; zero is included.
const COSTS: [f64; 5] = [0.0, 1.0, 2.0, 5.0, 10.0];

/// One random case: a DAG and a runtime configuration.
fn case(rng: &mut StdRng) -> (TaskGraph, RuntimeConfig) {
    let mut g = TaskGraph::new();
    let n = rng.random_range(1..60usize);
    for i in 0..n {
        let cpu = COSTS[rng.random_range(0..COSTS.len())];
        let gpu = COSTS[rng.random_range(0..COSTS.len())];
        let cost = match rng.random_range(0..3) {
            0 => TaskCost::cpu(cpu),
            1 => TaskCost::gpu(gpu),
            _ => TaskCost::either(cpu, gpu),
        };
        // Duplicates are kept: a dependency may be listed more than once.
        let deps: Vec<TaskId> = if i == 0 {
            Vec::new()
        } else {
            (0..rng.random_range(0..5))
                .map(|_| rng.random_range(0..i))
                .collect()
        };
        g.add(format!("t{i}"), cost, &deps)
            .expect("backward edges, valid costs");
    }
    let base = if rng.random_bool(0.5) {
        RuntimeConfig::hsa()
    } else {
        RuntimeConfig::legacy_driver()
    };
    let sync = if rng.random_bool(0.5) {
        SyncModel::quick_release()
    } else {
        SyncModel::conventional()
    };
    let cfg = RuntimeConfig {
        cpu_cores: rng.random_range(1..=4),
        gpu_queues: rng.random_range(1..=4),
        sync,
        ..base
    };
    (g, cfg)
}

/// A random fault plan over the configured agents, with tie-prone times.
fn fault_plan(rng: &mut StdRng, cfg: &RuntimeConfig) -> (Vec<AgentFault>, RetryPolicy) {
    let faults = (0..rng.random_range(0..5))
        .map(|_| {
            let (agent, count) = if rng.random_bool(0.5) {
                (AgentKind::CpuCore, cfg.cpu_cores)
            } else {
                (AgentKind::GpuQueue, cfg.gpu_queues)
            };
            AgentFault {
                agent,
                index: rng.random_range(0..count),
                at_us: f64::from(rng.random_range(0..40u32)) * 2.5,
            }
        })
        .collect();
    let retry = RetryPolicy {
        max_retries: rng.random_range(0..4),
        backoff_us: [0.0, 2.5, 10.0][rng.random_range(0..3usize)],
    };
    (faults, retry)
}

/// The original `execute_degraded`: scan every task for the least
/// `(ready, id)`, with each re-queued task's ready time floored at its
/// failure time plus backoff.
fn scan_execute_degraded(
    cfg: &RuntimeConfig,
    graph: &TaskGraph,
    faults: &[AgentFault],
    retry: RetryPolicy,
) -> Result<Schedule, DegradeError> {
    let n = graph.len();
    let fail_time = |kind: AgentKind, count: usize| -> Vec<f64> {
        (0..count)
            .map(|i| {
                faults
                    .iter()
                    .filter(|f| f.agent == kind && f.index == i)
                    .map(|f| f.at_us)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let cpu_fail = fail_time(AgentKind::CpuCore, cfg.cpu_cores);
    let gpu_fail = fail_time(AgentKind::GpuQueue, cfg.gpu_queues);
    let mut cpu_free = vec![0.0f64; cfg.cpu_cores];
    let mut gpu_free = vec![0.0f64; cfg.gpu_queues];
    let mut placement: Vec<Option<(f64, AgentKind)>> = vec![None; n];
    let mut attempts = vec![0u32; n];
    let mut requeue_ready = vec![0.0f64; n];
    let mut spans = Vec::with_capacity(n);
    let mut dispatch_total = 0.0;
    let mut sync_total = 0.0;
    let mut retries = 0u64;
    let mut lost_work = 0.0f64;
    let mut remaining = n;
    while remaining > 0 {
        let mut pick: Option<(f64, TaskId)> = None;
        for (id, task) in graph.tasks().iter().enumerate() {
            if placement[id].is_some() || !task.deps.iter().all(|&d| placement[d].is_some()) {
                continue;
            }
            let ready = task
                .deps
                .iter()
                .filter_map(|&d| placement[d])
                .map(|(end, _)| end)
                .fold(requeue_ready[id], f64::max);
            if pick.is_none_or(|(r, i)| (ready, id) < (r, i)) {
                pick = Some((ready, id));
            }
        }
        let (ready, id) = pick.expect("acyclic graph");
        let task = &graph.tasks()[id];
        let mut best: Option<(f64, f64, AgentKind, usize, f64)> = None;
        for (kind, free, fail, cost) in [
            (AgentKind::CpuCore, &cpu_free, &cpu_fail, task.cost.cpu_us),
            (AgentKind::GpuQueue, &gpu_free, &gpu_fail, task.cost.gpu_us),
        ] {
            let Some(cost) = cost else { continue };
            let sync: f64 = task
                .deps
                .iter()
                .filter_map(|&d| placement[d])
                .map(|(_, producer)| cfg.sync.edge_cost(producer != kind))
                .sum();
            for (idx, &agent_free) in free.iter().enumerate() {
                let start = ready.max(agent_free) + cfg.dispatch_overhead_us + sync;
                if fail[idx] <= start {
                    continue;
                }
                let end = start + cost;
                if best.is_none_or(|(e, ..)| end < e) {
                    best = Some((end, start, kind, idx, sync));
                }
            }
        }
        let Some((end, start, kind, idx, sync)) = best else {
            return Err(DegradeError::NoCompatibleAgent { task: id });
        };
        let fail_at = match kind {
            AgentKind::CpuCore => cpu_fail[idx],
            AgentKind::GpuQueue => gpu_fail[idx],
        };
        if fail_at < end {
            attempts[id] += 1;
            if attempts[id] > retry.max_retries {
                return Err(DegradeError::RetriesExhausted {
                    task: id,
                    attempts: attempts[id],
                });
            }
            retries += 1;
            lost_work += (fail_at - start).max(0.0);
            requeue_ready[id] = fail_at + retry.backoff_for(attempts[id]);
            match kind {
                AgentKind::CpuCore => cpu_free[idx] = f64::INFINITY,
                AgentKind::GpuQueue => gpu_free[idx] = f64::INFINITY,
            }
            continue;
        }
        match kind {
            AgentKind::CpuCore => cpu_free[idx] = end,
            AgentKind::GpuQueue => gpu_free[idx] = end,
        }
        placement[id] = Some((end, kind));
        remaining -= 1;
        spans.push(ena_hsa::runtime::TaskSpan {
            task: id,
            agent: kind,
            agent_index: idx,
            start_us: start,
            end_us: end,
        });
        dispatch_total += cfg.dispatch_overhead_us;
        sync_total += sync;
    }
    let makespan = spans.iter().map(|s| s.end_us).fold(0.0, f64::max);
    Ok(Schedule {
        spans,
        makespan_us: makespan,
        dispatch_overhead_us: dispatch_total,
        sync_overhead_us: sync_total,
        retries,
        lost_work_us: lost_work,
    })
}

/// One span with its times as bit patterns.
type SpanBits = (TaskId, AgentKind, usize, u64, u64);

/// Everything a schedule reports, with times as bit patterns so equal
/// means identical.
fn bits(s: &Schedule) -> (Vec<SpanBits>, [u64; 4], u64) {
    let spans = s
        .spans
        .iter()
        .map(|t| {
            (
                t.task,
                t.agent,
                t.agent_index,
                t.start_us.to_bits(),
                t.end_us.to_bits(),
            )
        })
        .collect();
    let totals = [
        s.makespan_us.to_bits(),
        s.dispatch_overhead_us.to_bits(),
        s.sync_overhead_us.to_bits(),
        s.lost_work_us.to_bits(),
    ];
    (spans, totals, s.retries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn execute_matches_the_scan(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, cfg) = case(&mut rng);
        let fast = Runtime::new(cfg).execute(&graph);
        let scan = scan_execute_degraded(&cfg, &graph, &[], RetryPolicy::default());
        prop_assert_eq!(Ok(bits(&fast)), scan.map(|s| bits(&s)));
    }

    #[test]
    fn execute_degraded_matches_the_scan(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, cfg) = case(&mut rng);
        let (faults, retry) = fault_plan(&mut rng, &cfg);
        let fast = Runtime::new(cfg).execute_degraded(&graph, &faults, retry);
        let scan = scan_execute_degraded(&cfg, &graph, &faults, retry);
        prop_assert_eq!(fast.map(|s| bits(&s)), scan.map(|s| bits(&s)));
    }
}

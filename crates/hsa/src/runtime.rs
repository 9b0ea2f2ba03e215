//! The heterogeneous runtime: list-scheduling task graphs over CPU cores
//! and GPU queues.
//!
//! This is the concurrency framework of the paper's Section II-A.1 in
//! executable form: every dispatch pays
//! [`RuntimeConfig::dispatch_overhead_us`] (small for HSA user-mode
//! dispatch, an order of magnitude larger for a legacy driver path), and
//! every dependency edge pays release/acquire costs per the active
//! [`SyncModel`].
//!
//! There is one list scheduler, [`Runtime::execute_degraded`], which
//! runs a graph while agents die under it; [`Runtime::execute`] is its
//! fault-free run.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::sync::SyncModel;
use crate::task::{Task, TaskGraph, TaskId};
use ena_model::error::DegradeError;

/// The two agent classes of an APU node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AgentKind {
    /// A CPU core.
    CpuCore,
    /// A GPU dispatch queue (a CU group).
    GpuQueue,
}

/// Runtime configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// CPU cores available (paper EHP: 32).
    pub cpu_cores: usize,
    /// Concurrent GPU queues (kernel-level concurrency).
    pub gpu_queues: usize,
    /// Per-dispatch overhead in microseconds.
    pub dispatch_overhead_us: f64,
    /// Synchronization cost model.
    pub sync: SyncModel,
}

impl RuntimeConfig {
    /// HSA user-mode dispatch on the paper's EHP: ~2 us per dispatch.
    pub fn hsa() -> Self {
        Self {
            cpu_cores: 32,
            gpu_queues: 8,
            dispatch_overhead_us: 2.0,
            sync: SyncModel::quick_release(),
        }
    }

    /// A legacy driver-mediated dispatch path: ~25 us per dispatch and
    /// conventional full-flush synchronization.
    pub fn legacy_driver() -> Self {
        Self {
            cpu_cores: 32,
            gpu_queues: 8,
            dispatch_overhead_us: 25.0,
            sync: SyncModel::conventional(),
        }
    }
}

/// Where and when one task ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskSpan {
    /// The task.
    pub task: TaskId,
    /// Agent class it ran on.
    pub agent: AgentKind,
    /// Agent index within its class.
    pub agent_index: usize,
    /// Start time (us), after dispatch and synchronization.
    pub start_us: f64,
    /// Completion time (us).
    pub end_us: f64,
}

/// The executed schedule.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Per-task placement and timing, in completion order.
    pub spans: Vec<TaskSpan>,
    /// Total makespan (us).
    pub makespan_us: f64,
    /// Total dispatch overhead paid (us, summed over tasks).
    pub dispatch_overhead_us: f64,
    /// Total synchronization cost paid (us, summed over edges).
    pub sync_overhead_us: f64,
    /// Tasks re-queued after an agent died under them (degraded runs).
    pub retries: u64,
    /// Compute lost to mid-flight agent failures (us, degraded runs).
    pub lost_work_us: f64,
}

/// One scheduled agent death for [`Runtime::execute_degraded`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgentFault {
    /// Agent class that fails.
    pub agent: AgentKind,
    /// Agent index within its class.
    pub index: usize,
    /// Simulated time of death (us). Work in flight at this instant is
    /// lost and re-queued.
    pub at_us: f64,
}

/// Bounded retry/backoff policy for tasks orphaned by agent failures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Re-dispatch attempts allowed per task after its first failure.
    pub max_retries: u32,
    /// Base backoff before the first re-dispatch (us); doubles on every
    /// further attempt, with the exponent capped (see
    /// [`RetryPolicy::backoff_for`]).
    pub backoff_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_us: 10.0,
        }
    }
}

impl RetryPolicy {
    /// Largest doubling exponent ever applied to the base backoff. A
    /// pathological retry budget (up to `u32::MAX` attempts) therefore
    /// saturates at `backoff_us * 2^32` instead of wrapping the shift.
    pub const MAX_BACKOFF_EXPONENT: u32 = 32;

    /// Backoff before re-dispatch `attempt` (1-based): the base backoff
    /// doubled once per prior attempt, exponent capped at
    /// [`Self::MAX_BACKOFF_EXPONENT`].
    pub fn backoff_for(&self, attempt: u32) -> f64 {
        let exponent = attempt.saturating_sub(1).min(Self::MAX_BACKOFF_EXPONENT);
        self.backoff_us * (1u64 << exponent) as f64
    }

    /// Worst-case total backoff a task can accumulate before the policy
    /// gives up — the bounded timeout that retransmit pricing charges.
    /// Finite for any retry budget: doubling attempts sum geometrically,
    /// saturated attempts contribute the capped backoff each.
    pub fn timeout_us(&self) -> f64 {
        let doubling = self.max_retries.min(Self::MAX_BACKOFF_EXPONENT + 1);
        let geometric = ((1u128 << doubling) - 1) as f64 * self.backoff_us;
        let flat_attempts = f64::from(self.max_retries) - f64::from(doubling);
        geometric + flat_attempts * self.backoff_for(self.max_retries)
    }
}

impl Schedule {
    /// Fraction of agent-time busy on one agent class.
    pub fn utilization(&self, kind: AgentKind, agents: usize) -> f64 {
        if self.makespan_us == 0.0 || agents == 0 {
            return 0.0;
        }
        let busy: f64 = self
            .spans
            .iter()
            .filter(|s| s.agent == kind)
            .map(|s| s.end_us - s.start_us)
            .sum();
        busy / (self.makespan_us * agents as f64)
    }

    /// The span of one task.
    pub fn span_of(&self, task: TaskId) -> Option<&TaskSpan> {
        self.spans.iter().find(|s| s.task == task)
    }
}

/// A task whose dependencies are all placed, ordered by the list
/// scheduler's pick: earliest ready time first, ties to the lowest id.
#[derive(Clone, Copy, Debug)]
struct ReadyTask {
    ready_us: f64,
    task: TaskId,
}

impl Ord for ReadyTask {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ready_us
            .total_cmp(&other.ready_us)
            .then(self.task.cmp(&other.task))
    }
}

impl PartialOrd for ReadyTask {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ReadyTask {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ReadyTask {}

/// The list scheduler's ready queue.
///
/// A task enters once the last of its dependencies is placed and leaves
/// least `(ready, id)` first: the pick a scan over every unplaced task
/// would make, at O(log n) per pick instead of O(n + e). With the costs
/// [`TaskGraph::add`] admits and non-negative overheads and backoffs,
/// ready times are finite and non-negative, where the total order on
/// `f64` agrees with `<`.
struct ReadyQueue {
    /// Dependencies of each task not yet placed, counted per occurrence.
    pending: Vec<usize>,
    /// Dependents of each task, one entry per dependency occurrence.
    dependents: Vec<Vec<TaskId>>,
    heap: BinaryHeap<Reverse<ReadyTask>>,
}

impl ReadyQueue {
    /// A queue holding the graph's dependency-free tasks, ready at 0.
    fn new(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let mut queue = Self {
            pending: vec![0; n],
            dependents: vec![Vec::new(); n],
            heap: BinaryHeap::new(),
        };
        for (id, task) in graph.tasks().iter().enumerate() {
            queue.pending[id] = task.deps.len();
            for &d in &task.deps {
                queue.dependents[d].push(id);
            }
            if task.deps.is_empty() {
                queue.push(0.0, id);
            }
        }
        queue
    }

    /// Removes and returns the least `(ready, id)` task.
    fn pop(&mut self) -> Option<(f64, TaskId)> {
        self.heap.pop().map(|Reverse(r)| (r.ready_us, r.task))
    }

    /// Queues `task` (all of whose dependencies are placed) at `ready_us`.
    fn push(&mut self, ready_us: f64, task: TaskId) {
        self.heap.push(Reverse(ReadyTask { ready_us, task }));
    }

    /// Records that `task` is placed (which happens once per task),
    /// queueing every dependent whose last dependency it was.
    fn place(&mut self, task: TaskId, graph: &TaskGraph, placement: &[Option<TaskSpan>]) {
        for t in std::mem::take(&mut self.dependents[task]) {
            self.pending[t] -= 1;
            if self.pending[t] == 0 {
                self.push(ready_time(&graph.tasks()[t], placement, 0.0), t);
            }
        }
    }
}

/// When a task whose dependencies are all placed may start: the last
/// dependency completion, or `floor` if that is later.
fn ready_time(task: &Task, placement: &[Option<TaskSpan>], floor: f64) -> f64 {
    task.deps
        .iter()
        .filter_map(|&d| placement[d])
        .map(|p| p.end_us)
        .fold(floor, f64::max)
}

/// The agents of one class during a run.
struct Agents {
    kind: AgentKind,
    /// When each agent can take its next dispatch (infinity once dead).
    free_us: Vec<f64>,
    /// When each agent dies (infinity if no fault names it).
    fail_us: Vec<f64>,
}

impl Agents {
    /// `count` idle agents of `kind`, each dying at the earliest of
    /// `faults` that names it.
    fn new(kind: AgentKind, count: usize, faults: &[AgentFault]) -> Self {
        let fail_us = (0..count)
            .map(|index| {
                faults
                    .iter()
                    .filter(|f| f.agent == kind && f.index == index)
                    .map(|f| f.at_us)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        Self {
            kind,
            free_us: vec![0.0; count],
            fail_us,
        }
    }
}

/// The simulated heterogeneous runtime.
#[derive(Clone, Debug)]
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// Creates a runtime.
    pub fn new(config: RuntimeConfig) -> Self {
        Self { config }
    }

    /// Executes `graph` to completion on healthy agents: the fault-free
    /// run of [`Runtime::execute_degraded`].
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty, if the runtime has no agents, or if
    /// a task can run only on an agent class the runtime has none of.
    pub fn execute(&self, graph: &TaskGraph) -> Schedule {
        assert!(!graph.is_empty(), "empty task graph");
        let cfg = &self.config;
        assert!(cfg.cpu_cores + cfg.gpu_queues > 0, "no agents");
        let run = self.execute_degraded(graph, &[], RetryPolicy::default());
        // With no faults no agent dies, so the one possible error is a
        // task that no configured agent can run.
        let error = run.as_ref().err().map(ToString::to_string);
        assert!(
            error.is_none(),
            "unrunnable task graph: {}",
            error.unwrap_or_default()
        );
        run.unwrap_or_default()
    }

    /// Executes `graph` with greedy earliest-finish list scheduling while
    /// agents die at the times given in `faults`: work in flight on a
    /// dying agent is lost, the task is re-queued with bounded
    /// retry/backoff onto the survivors, and the dead agent never
    /// receives another dispatch.
    ///
    /// Each step places the ready task (all dependencies placed) with the
    /// least `(ready time, id)` on the compatible agent where it finishes
    /// first; a finish-time tie goes to the CPU cores, then to the
    /// lowest-numbered agent. A ready queue makes the whole schedule
    /// O((n + e) log n) for n tasks and e dependency edges, plus
    /// O(agents) per placement.
    ///
    /// The scheduler is fault-*unaware* at dispatch time: it only learns
    /// of a death once it happens, so a task dispatched before the fault
    /// genuinely wastes the partial work ([`Schedule::lost_work_us`]).
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::RetriesExhausted`] when a task dies more
    /// than `retry.max_retries` times, or
    /// [`DegradeError::NoCompatibleAgent`] when every agent a task could
    /// run on is dead or was never configured.
    pub fn execute_degraded(
        &self,
        graph: &TaskGraph,
        faults: &[AgentFault],
        retry: RetryPolicy,
    ) -> Result<Schedule, DegradeError> {
        let cfg = &self.config;
        let n = graph.len();
        // CPU cores first: the candidate pass keeps the first of equal
        // finishes.
        let mut classes = [
            Agents::new(AgentKind::CpuCore, cfg.cpu_cores, faults),
            Agents::new(AgentKind::GpuQueue, cfg.gpu_queues, faults),
        ];

        let mut placement: Vec<Option<TaskSpan>> = vec![None; n];
        let mut attempts = vec![0u32; n];
        let mut spans = Vec::with_capacity(n);
        let mut dispatch_total = 0.0;
        let mut sync_total = 0.0;
        let mut retries = 0u64;
        let mut lost_work = 0.0f64;

        // The ready task whose ready time is earliest (deterministic
        // tie-break by id); a re-queued task returns with its ready time
        // floored at failure time + backoff. add() admits only acyclic
        // graphs, so the queue drains only once every task is placed.
        let mut queue = ReadyQueue::new(graph);
        while let Some((ready, id)) = queue.pop() {
            let task = &graph.tasks()[id];

            // Candidate placements, one pass over both agent classes:
            // earliest finish over agents not yet known-dead at their
            // candidate start time (the runtime observes deaths only as
            // they happen). Each is (end, start, class, idx, sync).
            let mut best: Option<(f64, f64, usize, usize, f64)> = None;
            for (class, agents) in classes.iter().enumerate() {
                let cost = match agents.kind {
                    AgentKind::CpuCore => task.cost.cpu_us,
                    AgentKind::GpuQueue => task.cost.gpu_us,
                };
                let Some(cost) = cost else { continue };
                // Sync cost: each dependency edge pays release+acquire at
                // the scope its producer placement requires.
                let sync: f64 = task
                    .deps
                    .iter()
                    .filter_map(|&d| placement[d])
                    .map(|producer| cfg.sync.edge_cost(producer.agent != agents.kind))
                    .sum();
                for (idx, &free) in agents.free_us.iter().enumerate() {
                    let start = ready.max(free) + cfg.dispatch_overhead_us + sync;
                    if agents.fail_us[idx] <= start {
                        continue; // known dead by dispatch time
                    }
                    let end = start + cost;
                    if best.is_none_or(|(e, ..)| end < e) {
                        best = Some((end, start, class, idx, sync));
                    }
                }
            }
            let Some((end, start, class, idx, sync)) = best else {
                return Err(DegradeError::NoCompatibleAgent { task: id });
            };

            let agents = &mut classes[class];
            let fail_at = agents.fail_us[idx];
            if fail_at < end {
                // The agent dies with this task in flight: the partial work
                // is lost, the agent is retired, and the task re-queues
                // after backoff.
                attempts[id] += 1;
                if attempts[id] > retry.max_retries {
                    return Err(DegradeError::RetriesExhausted {
                        task: id,
                        attempts: attempts[id],
                    });
                }
                retries += 1;
                lost_work += (fail_at - start).max(0.0);
                let floor = fail_at + retry.backoff_for(attempts[id]);
                queue.push(ready_time(task, &placement, floor), id);
                agents.free_us[idx] = f64::INFINITY;
                continue;
            }

            agents.free_us[idx] = end;
            let span = TaskSpan {
                task: id,
                agent: agents.kind,
                agent_index: idx,
                start_us: start,
                end_us: end,
            };
            placement[id] = Some(span);
            queue.place(id, graph, &placement);
            spans.push(span);
            dispatch_total += cfg.dispatch_overhead_us;
            sync_total += sync;
        }

        // Every task was placed, and placed once.
        debug_assert!(placement.iter().all(Option::is_some) && spans.len() == n);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskCost;

    /// A bulk-synchronous iteration: CPU preprocessing, a fan of GPU
    /// kernels, CPU reduction.
    fn fork_join(width: usize, kernel_us: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let pre = g.add("pre", TaskCost::cpu(5.0), &[]).unwrap();
        let kernels: Vec<_> = (0..width)
            .map(|i| {
                g.add(format!("k{i}"), TaskCost::gpu(kernel_us), &[pre])
                    .unwrap()
            })
            .collect();
        g.add("reduce", TaskCost::cpu(5.0), &kernels).unwrap();
        g
    }

    #[test]
    fn backoff_doubles_and_a_pathological_budget_cannot_wrap() {
        let p = RetryPolicy {
            max_retries: u32::MAX,
            backoff_us: 10.0,
        };
        assert_eq!(p.backoff_for(1), 10.0);
        assert_eq!(p.backoff_for(2), 20.0);
        assert_eq!(p.backoff_for(3), 40.0);
        // The exponent caps: every attempt past the cap pays the same
        // saturated backoff instead of wrapping the shift.
        let capped = p.backoff_for(RetryPolicy::MAX_BACKOFF_EXPONENT + 1);
        assert_eq!(capped, 10.0 * 4_294_967_296.0);
        assert_eq!(p.backoff_for(u32::MAX), capped);
        assert!(capped.is_finite());
        // Monotone non-decreasing across the cap boundary.
        let mut last = 0.0;
        for attempt in 1..=(RetryPolicy::MAX_BACKOFF_EXPONENT + 8) {
            let b = p.backoff_for(attempt);
            assert!(b >= last, "attempt {attempt} went backwards");
            last = b;
        }
        // The bounded timeout stays finite even for the absurd budget.
        assert!(p.timeout_us().is_finite());
        // And matches the plain geometric sum for a sane budget.
        let sane = RetryPolicy::default();
        assert_eq!(sane.timeout_us(), 10.0 + 20.0 + 40.0);
        assert_eq!(
            RetryPolicy {
                max_retries: 0,
                ..sane
            }
            .timeout_us(),
            0.0
        );
    }

    #[test]
    fn independent_kernels_run_concurrently() {
        let g = fork_join(8, 100.0);
        let schedule = Runtime::new(RuntimeConfig::hsa()).execute(&g);
        // 8 kernels over 8 GPU queues: makespan near one kernel, not eight.
        assert!(schedule.makespan_us < 200.0, "{}", schedule.makespan_us);
        assert!(schedule.utilization(AgentKind::GpuQueue, 8) > 0.4);
    }

    #[test]
    fn dependencies_are_respected() {
        let g = fork_join(4, 50.0);
        let schedule = Runtime::new(RuntimeConfig::hsa()).execute(&g);
        let pre = schedule.span_of(0).unwrap();
        for k in 1..=4 {
            let span = schedule.span_of(k).unwrap();
            assert!(span.start_us >= pre.end_us, "kernel started before pre");
        }
        let reduce = schedule.span_of(5).unwrap();
        for k in 1..=4 {
            assert!(reduce.start_us >= schedule.span_of(k).unwrap().end_us);
        }
    }

    #[test]
    fn makespan_never_beats_the_critical_path() {
        for width in [1, 4, 16] {
            let g = fork_join(width, 30.0);
            let schedule = Runtime::new(RuntimeConfig::hsa()).execute(&g);
            assert!(schedule.makespan_us >= g.critical_path_us());
        }
    }

    #[test]
    fn hsa_dispatch_beats_the_legacy_driver_on_fine_grained_graphs() {
        // Many small kernels: dispatch overhead dominates.
        let mut g = TaskGraph::new();
        let mut prev = g.add("k0", TaskCost::gpu(5.0), &[]).unwrap();
        for i in 1..100 {
            prev = g.add(format!("k{i}"), TaskCost::gpu(5.0), &[prev]).unwrap();
        }
        let hsa = Runtime::new(RuntimeConfig::hsa()).execute(&g);
        let legacy = Runtime::new(RuntimeConfig::legacy_driver()).execute(&g);
        assert!(
            legacy.makespan_us > 2.0 * hsa.makespan_us,
            "hsa {} vs legacy {}",
            hsa.makespan_us,
            legacy.makespan_us
        );
    }

    #[test]
    fn quick_release_cuts_sync_overhead_on_cpu_gpu_pingpong() {
        // CPU -> GPU -> CPU -> GPU chain: every edge crosses agents.
        let mut g = TaskGraph::new();
        let mut prev = g.add("c0", TaskCost::cpu(2.0), &[]).unwrap();
        for i in 0..40 {
            let cost = if i % 2 == 0 {
                TaskCost::gpu(2.0)
            } else {
                TaskCost::cpu(2.0)
            };
            prev = g.add(format!("t{i}"), cost, &[prev]).unwrap();
        }
        let mut qr_cfg = RuntimeConfig::hsa();
        qr_cfg.sync = SyncModel::quick_release();
        let mut conv_cfg = RuntimeConfig::hsa();
        conv_cfg.sync = SyncModel::conventional();
        let qr = Runtime::new(qr_cfg).execute(&g);
        let conv = Runtime::new(conv_cfg).execute(&g);
        assert!(qr.sync_overhead_us < conv.sync_overhead_us / 2.0);
        assert!(qr.makespan_us < conv.makespan_us);
    }

    #[test]
    fn no_faults_degraded_matches_healthy_execution() {
        let g = fork_join(8, 100.0);
        let rt = Runtime::new(RuntimeConfig::hsa());
        let healthy = rt.execute(&g);
        let degraded = rt
            .execute_degraded(&g, &[], RetryPolicy::default())
            .unwrap();
        assert_eq!(degraded.retries, 0);
        assert_eq!(degraded.lost_work_us, 0.0);
        assert_eq!(degraded.makespan_us, healthy.makespan_us);
        assert_eq!(degraded.spans.len(), healthy.spans.len());
    }

    #[test]
    fn a_dying_queue_requeues_its_task_onto_survivors() {
        let g = fork_join(8, 100.0);
        let rt = Runtime::new(RuntimeConfig::hsa());
        let healthy = rt.execute(&g);
        // Queue 0 dies mid-kernel: whichever kernel it held re-queues.
        let faults = [AgentFault {
            agent: AgentKind::GpuQueue,
            index: 0,
            at_us: 50.0,
        }];
        let degraded = rt
            .execute_degraded(&g, &faults, RetryPolicy::default())
            .unwrap();
        assert_eq!(degraded.retries, 1);
        assert!(degraded.lost_work_us > 0.0);
        assert!(degraded.makespan_us > healthy.makespan_us);
        // Every task still completed, none on the dead queue after death.
        assert_eq!(degraded.spans.len(), g.len());
        for s in &degraded.spans {
            if s.agent == AgentKind::GpuQueue && s.agent_index == 0 {
                assert!(
                    s.end_us <= 50.0,
                    "dispatch to a dead queue at {}",
                    s.start_us
                );
            }
        }
    }

    #[test]
    fn losing_every_compatible_agent_is_an_error_not_a_hang() {
        // GPU-only kernels with every queue dead before work starts being
        // observable: the runtime reports the stranded task.
        let mut g = TaskGraph::new();
        g.add("k", TaskCost::gpu(100.0), &[]).unwrap();
        let mut cfg = RuntimeConfig::hsa();
        cfg.gpu_queues = 2;
        let rt = Runtime::new(cfg);
        let faults: Vec<AgentFault> = (0..2)
            .map(|i| AgentFault {
                agent: AgentKind::GpuQueue,
                index: i,
                at_us: 0.0,
            })
            .collect();
        let err = rt
            .execute_degraded(&g, &faults, RetryPolicy::default())
            .unwrap_err();
        assert_eq!(err, DegradeError::NoCompatibleAgent { task: 0 });
    }

    #[test]
    #[should_panic(expected = "can run task 1")]
    fn execute_names_a_task_no_configured_agent_can_run() {
        // No CPU cores: the CPU-only middle of a GPU -> CPU -> GPU chain
        // has nowhere to run, so execute panics naming it instead of
        // returning a schedule without it.
        let mut g = TaskGraph::new();
        let k0 = g.add("k0", TaskCost::gpu(5.0), &[]).unwrap();
        let host = g.add("host", TaskCost::cpu(2.0), &[k0]).unwrap();
        g.add("k1", TaskCost::gpu(5.0), &[host]).unwrap();
        let cfg = RuntimeConfig {
            cpu_cores: 0,
            ..RuntimeConfig::hsa()
        };
        Runtime::new(cfg).execute(&g);
    }

    #[test]
    fn retry_budget_is_bounded() {
        // A long chain on a single queue that dies late: the one kernel in
        // flight is lost once; with zero retries allowed that is fatal.
        let mut g = TaskGraph::new();
        g.add("k", TaskCost::gpu(100.0), &[]).unwrap();
        let mut cfg = RuntimeConfig::hsa();
        cfg.gpu_queues = 2;
        let rt = Runtime::new(cfg);
        let faults = [AgentFault {
            agent: AgentKind::GpuQueue,
            index: 0,
            at_us: 50.0,
        }];
        let strict = RetryPolicy {
            max_retries: 0,
            backoff_us: 10.0,
        };
        let err = rt.execute_degraded(&g, &faults, strict).unwrap_err();
        assert_eq!(
            err,
            DegradeError::RetriesExhausted {
                task: 0,
                attempts: 1
            }
        );
        // With one retry the survivor picks it up after backoff.
        let lenient = RetryPolicy {
            max_retries: 1,
            backoff_us: 10.0,
        };
        let ok = rt.execute_degraded(&g, &faults, lenient).unwrap();
        assert_eq!(ok.retries, 1);
        let span = ok.span_of(0).unwrap();
        assert_eq!(span.agent_index, 1);
        assert!(
            span.start_us >= 60.0,
            "backoff not honored: {}",
            span.start_us
        );
    }

    #[test]
    fn degraded_execution_is_deterministic() {
        let g = fork_join(16, 40.0);
        let rt = Runtime::new(RuntimeConfig::hsa());
        let faults = [
            AgentFault {
                agent: AgentKind::GpuQueue,
                index: 3,
                at_us: 30.0,
            },
            AgentFault {
                agent: AgentKind::CpuCore,
                index: 0,
                at_us: 1.0,
            },
        ];
        let a = rt
            .execute_degraded(&g, &faults, RetryPolicy::default())
            .unwrap();
        let b = rt
            .execute_degraded(&g, &faults, RetryPolicy::default())
            .unwrap();
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.retries, b.retries);
    }

    #[test]
    fn mixed_tasks_fall_back_to_the_cpu_when_the_gpu_is_saturated() {
        // Tasks runnable on either agent: with all GPU queues busy, the
        // scheduler should spill to CPU cores.
        let mut g = TaskGraph::new();
        for i in 0..64 {
            g.add(format!("t{i}"), TaskCost::either(30.0, 20.0), &[])
                .unwrap();
        }
        let mut cfg = RuntimeConfig::hsa();
        cfg.gpu_queues = 2;
        let schedule = Runtime::new(cfg).execute(&g);
        let on_cpu = schedule
            .spans
            .iter()
            .filter(|s| s.agent == AgentKind::CpuCore)
            .count();
        assert!(on_cpu > 0, "nothing spilled to the CPU");
    }
}

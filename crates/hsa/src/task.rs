//! Heterogeneous task graphs (the paper's DAG workloads, \[13\]).
//!
//! A [`TaskGraph`] is a DAG of tasks, each runnable on the CPU complex,
//! the GPU, or both (with different costs). HSA's shared virtual address
//! space is what makes fine-grained graphs like these practical: no data
//! copies between producer and consumer, only signal dependencies.

use std::collections::BTreeSet;

/// Task identifier within a graph.
pub type TaskId = usize;

/// Which agents can run a task, and at what cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskCost {
    /// Execution time on one CPU core, microseconds (`None` = cannot run).
    pub cpu_us: Option<f64>,
    /// Execution time on one GPU queue, microseconds (`None` = cannot run).
    pub gpu_us: Option<f64>,
}

impl TaskCost {
    /// A CPU-only task.
    pub fn cpu(us: f64) -> Self {
        Self {
            cpu_us: Some(us),
            gpu_us: None,
        }
    }

    /// A GPU-only kernel.
    pub fn gpu(us: f64) -> Self {
        Self {
            cpu_us: None,
            gpu_us: Some(us),
        }
    }

    /// Runnable on either agent.
    pub fn either(cpu_us: f64, gpu_us: f64) -> Self {
        Self {
            cpu_us: Some(cpu_us),
            gpu_us: Some(gpu_us),
        }
    }

    /// The cheapest available cost.
    pub fn best(&self) -> f64 {
        match (self.cpu_us, self.gpu_us) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => f64::INFINITY,
        }
    }
}

/// One task.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// Display name.
    pub name: String,
    /// Per-agent costs.
    pub cost: TaskCost,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
}

/// Error constructing or validating a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A dependency references a task that does not exist (yet).
    UnknownDependency {
        /// The task with the bad edge.
        task: TaskId,
        /// The missing dependency.
        dep: TaskId,
    },
    /// The graph contains a cycle (self-edges included).
    Cycle,
    /// A task can run on no agent.
    Unrunnable(TaskId),
    /// A task has a negative or non-finite cost on some agent.
    InvalidCost(TaskId),
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphError::UnknownDependency { task, dep } => {
                write!(f, "task {task} depends on unknown task {dep}")
            }
            GraphError::Cycle => f.write_str("task graph contains a cycle"),
            GraphError::Unrunnable(t) => write!(f, "task {t} can run on no agent"),
            GraphError::InvalidCost(t) => {
                write!(f, "task {t} has a negative or non-finite cost")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated-on-demand heterogeneous task DAG.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task; dependencies must reference already-added tasks,
    /// which structurally guarantees acyclicity.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownDependency`] for forward/self edges,
    /// [`GraphError::InvalidCost`] if a cost is negative or not finite (so
    /// every schedule time stays finite and non-negative), or
    /// [`GraphError::Unrunnable`] if no agent can run the task.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        cost: TaskCost,
        deps: &[TaskId],
    ) -> Result<TaskId, GraphError> {
        let id = self.tasks.len();
        let valid = |us: Option<f64>| us.is_none_or(|us| us.is_finite() && us >= 0.0);
        if !(valid(cost.cpu_us) && valid(cost.gpu_us)) {
            return Err(GraphError::InvalidCost(id));
        }
        if cost.best().is_infinite() {
            return Err(GraphError::Unrunnable(id));
        }
        for &d in deps {
            if d >= id {
                return Err(GraphError::UnknownDependency { task: id, dep: d });
            }
        }
        self.tasks.push(Task {
            name: name.into(),
            cost,
            deps: deps.to_vec(),
        });
        Ok(id)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Sum of best-case task costs (the serial lower bound on one ideal
    /// agent of each kind).
    pub fn total_work_us(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost.best()).sum()
    }

    /// Length of the critical path using best-case costs: no schedule can
    /// beat this makespan.
    pub fn critical_path_us(&self) -> f64 {
        let mut finish = vec![0.0f64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t.deps.iter().map(|&d| finish[d]).fold(0.0f64, f64::max);
            finish[i] = ready + t.cost.best();
        }
        finish.into_iter().fold(0.0, f64::max)
    }

    /// Tasks with no dependents (graph outputs).
    pub fn sinks(&self) -> Vec<TaskId> {
        let mut has_dependent = BTreeSet::new();
        for t in &self.tasks {
            for &d in &t.deps {
                has_dependent.insert(d);
            }
        }
        (0..self.tasks.len())
            .filter(|id| !has_dependent.contains(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_edges_are_rejected() {
        let mut g = TaskGraph::new();
        let err = g.add("bad", TaskCost::cpu(1.0), &[0]).unwrap_err();
        assert_eq!(err, GraphError::UnknownDependency { task: 0, dep: 0 });
    }

    #[test]
    fn unrunnable_tasks_are_rejected() {
        let mut g = TaskGraph::new();
        let cost = TaskCost {
            cpu_us: None,
            gpu_us: None,
        };
        assert_eq!(g.add("none", cost, &[]), Err(GraphError::Unrunnable(0)));
    }

    #[test]
    fn negative_and_non_finite_costs_are_rejected() {
        let mut g = TaskGraph::new();
        g.add("ok", TaskCost::either(0.0, 1.0), &[]).unwrap();
        for cost in [
            TaskCost::cpu(-50.0),
            TaskCost::gpu(f64::NAN),
            TaskCost::gpu(f64::INFINITY),
            TaskCost::either(1.0, f64::NEG_INFINITY),
            TaskCost::either(-1e-9, 1.0),
        ] {
            assert_eq!(g.add("bad", cost, &[0]), Err(GraphError::InvalidCost(1)));
        }
        assert_eq!(g.len(), 1, "rejected tasks must not be added");
    }

    #[test]
    fn critical_path_follows_the_longest_chain() {
        let mut g = TaskGraph::new();
        let a = g.add("a", TaskCost::cpu(10.0), &[]).unwrap();
        let b = g.add("b", TaskCost::gpu(5.0), &[a]).unwrap();
        let _c = g.add("c", TaskCost::cpu(1.0), &[a]).unwrap();
        let _d = g.add("d", TaskCost::gpu(7.0), &[b]).unwrap();
        assert_eq!(g.critical_path_us(), 22.0);
        assert_eq!(g.total_work_us(), 23.0);
    }

    #[test]
    fn sinks_are_the_outputs() {
        let mut g = TaskGraph::new();
        let a = g.add("a", TaskCost::cpu(1.0), &[]).unwrap();
        let b = g.add("b", TaskCost::cpu(1.0), &[a]).unwrap();
        let c = g.add("c", TaskCost::cpu(1.0), &[a]).unwrap();
        assert_eq!(g.sinks(), vec![b, c]);
    }

    #[test]
    fn cost_helpers_pick_the_cheapest_agent() {
        assert_eq!(TaskCost::either(10.0, 4.0).best(), 4.0);
        assert_eq!(TaskCost::cpu(3.0).best(), 3.0);
        assert_eq!(TaskCost::gpu(8.0).best(), 8.0);
    }
}

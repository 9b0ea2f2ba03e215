//! The sweep driver: parallel, supervised exploration of any [`Axis`]
//! that is byte-identical to the sequential oracle.
//!
//! One driver, [`Driver::run`], serves every axis: the node-configuration
//! sweep ([`SweepEngine`]) and the fabric axes in `ena-fabric`. An axis
//! says what its grid is and how to evaluate and rank a point; the
//! driver owns everything else — chunking, the supervised pool,
//! quarantine and the grid-order merge. A point is named by its grid
//! index, the position of its record in a clean run. The driver
//! evaluates every point of every run in memory and persists nothing: an
//! analytic sweep costs less than opening a cache of its records would,
//! and the one store that must survive a crash is `ena-serve`'s, which
//! acknowledges records to clients.
//!
//! Determinism argument, in two parts:
//!
//! 1. **Same kernel.** Every point is evaluated by [`Axis::evaluate`] —
//!    for the node axis, [`Explorer::evaluate_point`], the exact function
//!    the sequential [`Explorer::explore`] calls — and the models
//!    underneath are deterministic, so a point's record does not depend
//!    on *when* or *where* it is computed.
//! 2. **Order-independent merge.** Workers return chunks tagged with
//!    their index; the driver reassembles records in grid point order
//!    before reducing. Scheduling order never reaches the reduction.
//!
//! Hence `reduce(merge(...))` sees the same bytes whatever the thread
//! count.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

use ena_core::dse::{ConfigPoint, DesignSpace, DseError, DseResult, PointRecord, Scores};
use ena_core::Explorer;
use ena_model::hash::{StableHash, StableHasher};
use ena_model::kernel::KernelProfile;

use crate::pareto::{pareto_frontier, FrontierPoint};
use crate::pool::{map_chunks_supervised, PoolError, WorkerStats};

/// How a sweep runs, whatever its axis: every axis's spec carries one.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker count including the calling thread, which is worker 0
    /// (clamped to at least 1; `1` starts no thread).
    pub jobs: usize,
    /// Points per work-stealing chunk.
    pub chunk_points: usize,
}

impl RunOptions {
    /// Sequential runs, `chunk_points` points per chunk.
    pub fn new(chunk_points: usize) -> Self {
        Self {
            jobs: 1,
            chunk_points,
        }
    }
}

/// One sweep axis: a grid of points, how each is evaluated and ranked.
/// [`Driver::run`] does the rest.
pub trait Axis: Sync {
    /// One grid point.
    type Point: Copy + Send + Sync;
    /// The result of evaluating one point.
    type Record: Send;
    /// Why a point failed to evaluate.
    type Error: Send;
    /// What [`Axis::frontier`] extracts from the merged records.
    type Frontier;
    /// State the evaluations of one run share (`()` for none): built by
    /// [`Axis::shared`] when a run starts and dropped when it ends, so
    /// nothing carries over from one run to the next.
    type Shared: Sync;

    /// How this sweep runs.
    fn options(&self) -> &RunOptions;

    /// Every point, in the order records are merged and reported. A
    /// point's position here is its grid index: its name in quarantine
    /// reports and the value a [`Failpoint`] sees.
    fn points(&self) -> Vec<Self::Point>;

    /// A fresh [`Axis::Shared`] for one run.
    fn shared(&self) -> Self::Shared;

    /// Evaluates one point. Must be a pure function of the axis and the
    /// point: `shared` may save repeated work, never change a record.
    fn evaluate(
        &self,
        shared: &Self::Shared,
        point: &Self::Point,
    ) -> Result<Self::Record, Self::Error>;

    /// The Pareto frontier over `records`, which are in point order.
    fn frontier(&self, records: &[Self::Record]) -> Self::Frontier;
}

/// Sweep progress/efficiency telemetry.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Points in the swept space.
    pub total_points: usize,
    /// Points evaluated this run (every point outside a quarantined
    /// chunk).
    pub fresh_evals: usize,
    /// Chunks handed to the pool.
    pub chunks: usize,
    /// Workers used, the calling thread included (`1` started no
    /// thread).
    pub jobs: usize,
    /// Per-worker execution counters (utilization).
    pub workers: Vec<WorkerStats>,
}

/// One chunk the supervisor pulled out of the sweep, with the grid
/// indices of the points it was carrying.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineEntry {
    /// Index of the chunk in submission order.
    pub chunk_index: usize,
    /// Grid indices of the chunk's points: chunks are contiguous runs
    /// of the grid.
    pub grid: Range<usize>,
    /// Attempts made before quarantine (1 + retries).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
}

/// Deterministic account of everything quarantined during a sweep,
/// ordered by chunk index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuarantineReport {
    /// Quarantined chunks in chunk-index order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineReport {
    /// True when nothing was quarantined (the run is byte-identical to
    /// the sequential oracle).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total points pulled out of the sweep.
    pub fn points(&self) -> usize {
        self.entries.iter().map(|e| e.grid.len()).sum()
    }
}

/// Everything a completed sweep along one axis produced. Derefs to its
/// [`Telemetry`], so `outcome.fresh_evals` reads the run's counters.
#[derive(Clone, Debug)]
pub struct Swept<R, F> {
    /// Every evaluated record, in grid point order. Quarantined points
    /// are absent (and listed in `quarantine`).
    pub records: Vec<R>,
    /// The axis's Pareto frontier over `records`.
    pub frontier: F,
    /// Chunks the supervisor quarantined after exhausting retries.
    /// Empty on a healthy run — and an empty report guarantees the
    /// outcome is byte-identical to the sequential oracle.
    pub quarantine: QuarantineReport,
    /// Run telemetry.
    pub telemetry: Telemetry,
}

impl<R, F> std::ops::Deref for Swept<R, F> {
    type Target = Telemetry;

    fn deref(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// Sweep failure modes; `E` is the axis's point-evaluation error.
#[derive(Debug)]
pub enum SweepError<E = Infallible> {
    /// The grid has no points.
    EmptySpace,
    /// No application profiles were supplied (node axis).
    EmptyProfiles,
    /// A point failed to evaluate.
    Evaluate(E),
    /// The worker pool lost chunks before completing the sweep.
    Pool(PoolError),
    /// The reduction over the merged records failed (node axis).
    Dse(DseError),
}

impl<E: std::fmt::Display> std::fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptySpace => write!(f, "empty design space"),
            Self::EmptyProfiles => write!(f, "no profiles to evaluate"),
            Self::Evaluate(e) => write!(f, "sweep point: {e}"),
            Self::Pool(e) => write!(f, "sweep pool: {e}"),
            Self::Dse(e) => write!(f, "sweep reduction: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for SweepError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Evaluate(e) => Some(e),
            Self::Pool(e) => Some(e),
            Self::Dse(e) => Some(e),
            _ => None,
        }
    }
}

impl<E> From<PoolError> for SweepError<E> {
    fn from(e: PoolError) -> Self {
        Self::Pool(e)
    }
}

impl<E> From<DseError> for SweepError<E> {
    fn from(e: DseError) -> Self {
        Self::Dse(e)
    }
}

/// A hook invoked with each point's grid index just before the point is
/// evaluated. May panic — that is its purpose: tests inject
/// deterministic worker kills through it, and the supervised pool
/// catches them. Production sweeps leave it unset.
pub type Failpoint = Arc<dyn Fn(usize) + Send + Sync>;

/// What [`Driver::run`] returns along axis `A`.
type AxisRun<A> =
    Result<Swept<<A as Axis>::Record, <A as Axis>::Frontier>, SweepError<<A as Axis>::Error>>;

/// The sweep driver: the one loop every [`Axis`] runs through. It keeps
/// nothing between runs, in memory or on disk: every run evaluates every
/// point.
#[derive(Default)]
pub struct Driver {
    failpoint: Option<Failpoint>,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("failpoint", &self.failpoint.is_some())
            .finish()
    }
}

impl Driver {
    /// A driver with no failpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a [`Failpoint`] invoked before every evaluation (test
    /// hook; production sweeps leave it unset).
    pub fn with_failpoint(mut self, failpoint: Failpoint) -> Self {
        self.failpoint = Some(failpoint);
        self
    }

    /// Runs one sweep along `axis`: builds the run's [`Axis::shared`]
    /// state, evaluates every point on the supervised work-stealing pool,
    /// concatenates the chunks' records in grid order, and extracts the
    /// frontier.
    ///
    /// # Errors
    ///
    /// [`SweepError::Evaluate`] when a point fails to evaluate,
    /// [`SweepError::Pool`] when the pool loses a chunk, and
    /// [`SweepError::EmptySpace`] for a pointless grid.
    pub fn run<A: Axis>(&self, axis: &A) -> AxisRun<A> {
        let points = axis.points();
        if points.is_empty() {
            return Err(SweepError::EmptySpace);
        }
        let opts = axis.options();
        let total_points = points.len();
        let indexed: Vec<(usize, A::Point)> = points.into_iter().enumerate().collect();
        let chunk_points = opts.chunk_points.max(1);
        let chunks: Vec<Vec<(usize, A::Point)>> =
            indexed.chunks(chunk_points).map(<[_]>::to_vec).collect();
        let n_chunks = chunks.len();

        let failpoint = &self.failpoint;
        let shared = axis.shared();
        let (verdicts, workers) = map_chunks_supervised(opts.jobs, chunks, |&(index, point)| {
            if let Some(fp) = failpoint {
                fp(index);
            }
            axis.evaluate(&shared, &point)
        })?;

        // Verdicts come back in chunk-index order and every chunk is a
        // contiguous run of the grid, so concatenating them yields the
        // records in grid point order — the only order the reduction ever
        // sees — minus the quarantined chunks, which the report lists.
        let mut records = Vec::with_capacity(total_points);
        let mut quarantine = QuarantineReport::default();
        for verdict in verdicts {
            match verdict {
                Ok(results) => {
                    for record in results {
                        records.push(record.map_err(SweepError::Evaluate)?);
                    }
                }
                Err(q) => {
                    let start = q.index * chunk_points;
                    quarantine.entries.push(QuarantineEntry {
                        chunk_index: q.index,
                        grid: start..total_points.min(start + chunk_points),
                        attempts: q.attempts,
                        message: q.message,
                    });
                }
            }
        }

        let frontier = axis.frontier(&records);
        let telemetry = Telemetry {
            total_points,
            fresh_evals: total_points - quarantine.points(),
            chunks: n_chunks,
            jobs: opts.jobs.max(1),
            workers,
        };
        Ok(Swept {
            records,
            frontier,
            quarantine,
            telemetry,
        })
    }
}

/// One node-configuration sweep request.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The design space to sweep.
    pub space: DesignSpace,
    /// Application profiles to evaluate at every point.
    pub profiles: Vec<KernelProfile>,
    /// How the sweep runs.
    pub run: RunOptions,
}

impl SweepSpec {
    /// A sequential spec over `space` and `profiles`, 16 points per
    /// chunk.
    pub fn new(space: DesignSpace, profiles: Vec<KernelProfile>) -> Self {
        Self {
            space,
            profiles,
            run: RunOptions::new(16),
        }
    }
}

/// Everything a completed node sweep produced.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The oracle reductions (best-mean, Table II per-app bests).
    pub result: DseResult,
    /// Pareto frontier over (mean perf, peak power, peak temperature).
    pub frontier: Vec<FrontierPoint>,
    /// Every evaluated record, in design-space point order. Quarantined
    /// points are absent (and listed in `quarantine`).
    pub records: Vec<PointRecord>,
    /// Chunks the supervisor quarantined after exhausting retries.
    /// Empty on a healthy run — and an empty report guarantees the
    /// outcome is byte-identical to the sequential oracle.
    pub quarantine: QuarantineReport,
    /// Run telemetry.
    pub telemetry: Telemetry,
}

/// Digest of everything besides the point coordinates that determines an
/// evaluation: budget, evaluation options, and the profile set. The
/// model version is deliberately *not* folded in — it lives in the
/// cache-file header so a bump is detected and evicted rather than
/// silently shunted to a fresh file next to the stale one.
///
/// Public because `ena-serve`'s shard store names its cache file by it,
/// so caches written before the sweep stopped persisting stay warm.
pub fn campaign_digest(explorer: &Explorer, profiles: &[KernelProfile]) -> u64 {
    let mut h = StableHasher::new();
    h.write_f64(explorer.budget.value());
    // EvalOptions has no stable-hash impl of its own; its Debug form
    // covers every field (miss fraction + optimization list).
    h.write_str(&format!("{:?}", explorer.options));
    profiles.stable_hash(&mut h);
    h.finish()
}

/// Content address of one design point within a campaign: the key
/// `ena-serve`'s store files a record under, in memory and on disk.
pub fn point_key(campaign: u64, point: &ConfigPoint) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(campaign);
    h.write_u32(point.cus);
    h.write_f64(point.clock.value());
    h.write_f64(point.bandwidth.value());
    h.finish()
}

/// Evaluates one batch of keyed points as a single engine chunk:
/// sequentially, in the order given, through the same pure
/// [`Explorer::evaluate_point`] kernel the sweep pool uses. Results are
/// therefore byte-identical to any other evaluation of the same points.
pub fn evaluate_batch(
    explorer: &Explorer,
    batch: &[(u64, ConfigPoint)],
    profiles: &[KernelProfile],
) -> Vec<(u64, PointRecord)> {
    batch
        .iter()
        .map(|(key, point)| (*key, explorer.evaluate_point(*point, profiles)))
        .collect()
}

/// The node-configuration axis: a [`SweepSpec`] evaluated through an
/// [`Explorer`].
#[derive(Clone, Debug)]
pub struct NodeAxis {
    /// Evaluates every point and ranks the records.
    pub explorer: Explorer,
    /// The grid, the profiles and how the sweep runs.
    pub spec: SweepSpec,
}

impl Axis for NodeAxis {
    type Point = ConfigPoint;
    type Record = PointRecord;
    type Error = Infallible;
    /// The run's [`Scores`], which the reduction reads too, and the
    /// Pareto frontier over them.
    type Frontier = (Scores, Vec<FrontierPoint>);
    type Shared = ();

    fn options(&self) -> &RunOptions {
        &self.spec.run
    }

    fn points(&self) -> Vec<ConfigPoint> {
        self.spec.space.points()
    }

    fn shared(&self) {}

    fn evaluate(&self, _: &(), point: &ConfigPoint) -> Result<PointRecord, Infallible> {
        Ok(self.explorer.evaluate_point(*point, &self.spec.profiles))
    }

    fn frontier(&self, records: &[PointRecord]) -> (Scores, Vec<FrontierPoint>) {
        let scores = self.explorer.score(records, self.spec.profiles.len());
        let frontier = pareto_frontier(records, &scores);
        (scores, frontier)
    }
}

/// The node-configuration sweep engine.
#[derive(Debug)]
pub struct SweepEngine {
    explorer: Explorer,
    driver: Driver,
}

impl SweepEngine {
    /// An engine evaluating through `explorer`.
    pub fn new(explorer: Explorer) -> Self {
        Self {
            explorer,
            driver: Driver::new(),
        }
    }

    /// The explorer this engine evaluates through.
    pub fn explorer(&self) -> &Explorer {
        &self.explorer
    }

    /// Runs one sweep through [`Driver::run`], then reduces the merged
    /// records to the oracle's best-mean and per-app answers, reading the
    /// scores the frontier was extracted from.
    ///
    /// # Errors
    ///
    /// Everything [`Driver::run`] returns, [`SweepError::Dse`] when the
    /// reduction fails (e.g. no feasible point under the budget), and
    /// [`SweepError::EmptyProfiles`].
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
        // An empty space is the driver's `EmptySpace`, reported first.
        if spec.profiles.is_empty() && !spec.space.is_empty() {
            return Err(SweepError::EmptyProfiles);
        }
        let Swept {
            records,
            frontier: (scores, frontier),
            quarantine,
            telemetry,
        } = self.driver.run(&NodeAxis {
            explorer: self.explorer.clone(),
            spec: spec.clone(),
        })?;
        Ok(SweepOutcome {
            result: self.explorer.reduce(&records, &scores, &spec.profiles)?,
            frontier,
            records,
            quarantine,
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_are_rejected() {
        let engine = SweepEngine::new(Explorer::default());
        let empty_space = DesignSpace {
            cu_counts: vec![],
            clocks: vec![],
            bandwidths: vec![],
        };
        assert!(matches!(
            engine.run(&SweepSpec::new(empty_space, vec![])),
            Err(SweepError::EmptySpace)
        ));
        assert!(matches!(
            engine.run(&SweepSpec::new(DesignSpace::coarse(), vec![])),
            Err(SweepError::EmptyProfiles)
        ));
    }
}

//! The sweep driver: memoized, parallel, resumable exploration of any
//! [`Axis`] that is byte-identical to the sequential oracle.
//!
//! One driver, [`Memo::run`], serves every axis: the node-configuration
//! sweep ([`SweepEngine`]) and the fabric axes in `ena-fabric`. An axis
//! says what its grid is and how to address, evaluate and rank a point;
//! the driver owns everything else — the disk-cache open, hit
//! resolution, the `fresh_limit` checkpoint, chunking, the supervised
//! pool, streaming appends, quarantine and the grid-order merge.
//!
//! Determinism argument, in three parts:
//!
//! 1. **Same kernel.** Every point is evaluated by [`Axis::evaluate`] —
//!    for the node axis, [`Explorer::evaluate_point`], the exact function
//!    the sequential [`Explorer::explore`] calls — and the models
//!    underneath are deterministic, so a point's record does not depend
//!    on *when*, *where*, or *how often* it is computed.
//! 2. **Order-independent merge.** Workers return chunks tagged with
//!    their index; the driver reassembles records in grid point order
//!    before reducing. Scheduling order never reaches the reduction.
//! 3. **Bit-exact memoization.** Cached records store `f64`s by bit
//!    pattern on disk, so a cache hit replays the very bits a fresh
//!    evaluation would produce.
//!
//! Hence `reduce(merge(...))` sees the same bytes whatever the thread
//! count, cache temperature, or interruption history.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::Arc;

use ena_core::dse::{ConfigPoint, DesignSpace, DseError, DseResult, PointRecord};
use ena_core::Explorer;
use ena_model::hash::{StableHash, StableHasher, MODEL_VERSION};
use ena_model::kernel::KernelProfile;
use ena_testkit::chaos::{RealFs, Vfs};

use crate::cache::{CacheError, CacheRecord, DiskCache};
use crate::pareto::{pareto_frontier, FrontierPoint};
use crate::pool::{map_chunks_supervised, PoolError, RetryPolicy, WorkerStats};

/// Whether evaluated records persist between runs, and where.
#[derive(Clone, Debug)]
pub enum CacheMode {
    /// Nothing persists: every run evaluates every point.
    Memory,
    /// Persistent under the given directory: hits across processes, and
    /// checkpoint/resume of interrupted campaigns.
    Disk(PathBuf),
}

/// How a sweep runs, whatever its axis: every axis's spec carries one.
/// Every append is flushed and fsynced, and a panicking chunk gets the
/// default [`RetryPolicy`] before quarantine.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker count including the calling thread, which is worker 0
    /// (clamped to at least 1; `1` starts no thread).
    pub jobs: usize,
    /// Points per work-stealing chunk.
    pub chunk_points: usize,
    /// Memoization layer.
    pub cache: CacheMode,
    /// Evaluate at most this many *fresh* (uncached) points, then stop
    /// with [`SweepError::Interrupted`] — everything evaluated so far is
    /// already checkpointed. `None` runs to completion. Exists to make
    /// interruption deterministic and testable.
    pub fresh_limit: Option<usize>,
    /// Filesystem the disk cache talks through: [`RealFs`] in
    /// production, a seeded `ChaosFs` in chaos campaigns.
    pub fs: Arc<dyn Vfs>,
}

impl RunOptions {
    /// Sequential, uncached, uninterrupted runs on the real
    /// filesystem, `chunk_points` points per chunk.
    pub fn new(chunk_points: usize) -> Self {
        Self {
            jobs: 1,
            chunk_points,
            cache: CacheMode::Memory,
            fresh_limit: None,
            fs: Arc::new(RealFs),
        }
    }
}

/// One sweep axis: a grid of points, how each is addressed, evaluated
/// and ranked. [`Memo::run`] does the rest.
pub trait Axis: Sync {
    /// One grid point.
    type Point: Copy + Send + Sync;
    /// The memoized, persisted result of evaluating one point.
    type Record: CacheRecord + Send;
    /// Why a point failed to evaluate.
    type Error: Send;
    /// What [`Axis::frontier`] extracts from the merged records.
    type Frontier;

    /// How this sweep runs.
    fn options(&self) -> &RunOptions;

    /// How this sweep runs, for callers that re-point it (a chaos
    /// campaign swaps in its own cache and filesystem).
    fn options_mut(&mut self) -> &mut RunOptions;

    /// Every point, in the order records are merged and reported.
    fn points(&self) -> Vec<Self::Point>;

    /// Digest of everything besides the point coordinates that
    /// determines an evaluation; it names the campaign's cache file.
    fn campaign_digest(&self) -> u64;

    /// Content address of one point within `campaign`: its key in the
    /// disk cache and in quarantine reports.
    fn point_key(&self, campaign: u64, point: &Self::Point) -> u64;

    /// Evaluates one point. Must be a pure function of the axis and the
    /// point: memoization replays its result.
    fn evaluate(&self, point: &Self::Point) -> Result<Self::Record, Self::Error>;

    /// The Pareto frontier over `records`, which are in point order.
    fn frontier(&self, records: &[Self::Record]) -> Self::Frontier;
}

/// Sweep progress/efficiency telemetry.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Points in the swept space.
    pub total_points: usize,
    /// Points answered from the memoization cache.
    pub cache_hits: usize,
    /// Points evaluated fresh this run.
    pub fresh_evals: usize,
    /// Chunks handed to the pool.
    pub chunks: usize,
    /// Workers used, the calling thread included (`1` started no
    /// thread).
    pub jobs: usize,
    /// Per-worker execution counters (utilization).
    pub workers: Vec<WorkerStats>,
}

impl Telemetry {
    /// Fraction of points served by the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.total_points == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.total_points as f64
        }
    }
}

/// One chunk the supervisor pulled out of the sweep, with the point
/// keys it was carrying.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineEntry {
    /// Index of the chunk in submission order.
    pub chunk_index: usize,
    /// Memoization keys of the points in the chunk.
    pub keys: Vec<u64>,
    /// Attempts made before quarantine (1 + retries).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
    /// Modeled retry backoff consumed (µs).
    pub backoff_us: f64,
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
        self.entries.iter().map(|e| e.keys.len()).sum()
    }

    /// Renders the report as stable text (no wall-clock, no addresses).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // fmt::Write to a String is infallible; discard the Ok values.
        let _ = writeln!(
            out,
            "quarantine: {} chunk(s), {} point(s)",
            self.entries.len(),
            self.points()
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  chunk {} ({} points, {} attempts, backoff {:.1} us): {}",
                e.chunk_index,
                e.keys.len(),
                e.attempts,
                e.backoff_us,
                e.message
            );
        }
        out
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
    /// The run hit its `fresh_limit`; progress is checkpointed.
    Interrupted {
        /// Fresh points evaluated (and checkpointed) before stopping.
        completed: usize,
        /// Fresh points the full campaign still needs.
        remaining: usize,
    },
    /// A point failed to evaluate.
    Evaluate(E),
    /// The persistent cache failed.
    Cache(CacheError),
    /// The worker pool lost chunks before completing the sweep.
    Pool(PoolError),
    /// The reduction over the merged records failed (node axis).
    Dse(DseError),
    /// A point's record vanished between evaluation and merge — a
    /// driver-internal invariant violation, reported rather than assumed.
    MissingRecord {
        /// The memoization key with no record.
        key: u64,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptySpace => write!(f, "empty design space"),
            Self::EmptyProfiles => write!(f, "no profiles to evaluate"),
            Self::Interrupted {
                completed,
                remaining,
            } => write!(
                f,
                "sweep interrupted after {completed} fresh evaluations ({remaining} remaining, checkpointed)"
            ),
            Self::Evaluate(e) => write!(f, "sweep point: {e}"),
            Self::Cache(e) => write!(f, "sweep cache: {e}"),
            Self::Pool(e) => write!(f, "sweep pool: {e}"),
            Self::Dse(e) => write!(f, "sweep reduction: {e}"),
            Self::MissingRecord { key } => {
                write!(f, "no record for point key {key:#018x} at merge time")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for SweepError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Evaluate(e) => Some(e),
            Self::Cache(e) => Some(e),
            Self::Pool(e) => Some(e),
            Self::Dse(e) => Some(e),
            _ => None,
        }
    }
}

impl<E> From<CacheError> for SweepError<E> {
    fn from(e: CacheError) -> Self {
        Self::Cache(e)
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

/// A hook invoked with each point's memoization key just before the
/// point is evaluated. May panic — that is its purpose: chaos campaigns
/// inject deterministic worker kills through it, and the supervised pool
/// catches them. Production sweeps leave it unset.
pub type Failpoint = Arc<dyn Fn(u64) + Send + Sync>;

/// What [`Memo::run`] returns along axis `A`.
type AxisRun<A> =
    Result<Swept<<A as Axis>::Record, <A as Axis>::Frontier>, SweepError<<A as Axis>::Error>>;

/// The sweep driver: the one loop every [`Axis`] runs through. It keeps
/// nothing between runs; only a [`CacheMode::Disk`] cache carries
/// records from one run to the next.
pub struct Memo {
    version: String,
    failpoint: Option<Failpoint>,
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("version", &self.version)
            .field("failpoint", &self.failpoint.is_some())
            .finish()
    }
}

impl Default for Memo {
    fn default() -> Self {
        Self::new()
    }
}

impl Memo {
    /// A driver stamped with the current [`MODEL_VERSION`].
    pub fn new() -> Self {
        Self {
            version: MODEL_VERSION.to_string(),
            failpoint: None,
        }
    }

    /// Installs a [`Failpoint`] invoked before every fresh evaluation
    /// (chaos/test hook; production sweeps leave it unset).
    pub fn with_failpoint(mut self, failpoint: Failpoint) -> Self {
        self.failpoint = Some(failpoint);
        self
    }

    /// Overrides the model-version stamp (test hook for the eviction
    /// path; production code keeps the default).
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.version = version.into();
        self
    }

    /// Runs one sweep along `axis`: fills the grid slots the disk cache
    /// already holds, evaluates the remainder on the supervised
    /// work-stealing pool (checkpointing each record as it lands), moves
    /// each fresh record into its grid slot, and extracts the frontier.
    ///
    /// # Errors
    ///
    /// [`SweepError::Interrupted`] when `fresh_limit` stops the run early
    /// (already-evaluated points are checkpointed),
    /// [`SweepError::Evaluate`] when a point fails to evaluate,
    /// [`SweepError::Cache`] / [`SweepError::Pool`] on infrastructure
    /// failures, and [`SweepError::EmptySpace`] for a pointless grid.
    pub fn run<A: Axis>(&self, axis: &A) -> AxisRun<A> {
        let points = axis.points();
        if points.is_empty() {
            return Err(SweepError::EmptySpace);
        }
        let opts = axis.options();
        let campaign = axis.campaign_digest();
        let keys: Vec<u64> = points.iter().map(|p| axis.point_key(campaign, p)).collect();
        let mut slots: Vec<Option<A::Record>> = (0..points.len()).map(|_| None).collect();
        let mut disk = match &opts.cache {
            CacheMode::Memory => None,
            CacheMode::Disk(dir) => {
                let (cache, entries) =
                    DiskCache::open_with(opts.fs.clone(), dir, campaign, &self.version)?;
                let hits: BTreeMap<u64, A::Record> = entries.into_iter().collect();
                for (slot, key) in slots.iter_mut().zip(&keys) {
                    *slot = hits.get(key).cloned();
                }
                Some(cache)
            }
        };

        let fresh: Vec<(usize, u64, A::Point)> = keys
            .iter()
            .zip(&points)
            .enumerate()
            .filter(|(index, _)| slots[*index].is_none())
            .map(|(index, (key, point))| (index, *key, *point))
            .collect();
        let cache_hits = points.len() - fresh.len();
        let scheduled = opts.fresh_limit.map_or(fresh.len(), |l| l.min(fresh.len()));
        let chunk_points = opts.chunk_points.max(1);
        let chunks: Vec<Vec<(usize, u64, A::Point)>> = fresh[..scheduled]
            .chunks(chunk_points)
            .map(<[_]>::to_vec)
            .collect();
        let n_chunks = chunks.len();

        let failpoint = &self.failpoint;
        let mut io_error: Option<CacheError> = None;
        let (verdicts, workers) = map_chunks_supervised(
            opts.jobs,
            chunks,
            &RetryPolicy::default(),
            |&(index, key, point)| {
                if let Some(fp) = failpoint {
                    fp(key);
                }
                (index, axis.evaluate(&point))
            },
            |_, results| {
                // Checkpoint every fresh record as it lands; an error here
                // aborts the run after the pool drains.
                if let Some(cache) = disk.as_mut() {
                    if io_error.is_none() {
                        for (index, record) in results {
                            if let Ok(record) = record {
                                if let Err(e) = cache.append(keys[*index], record) {
                                    io_error = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                }
            },
        )?;
        if let Some(e) = io_error {
            return Err(SweepError::Cache(e));
        }

        // Verdicts come back in chunk-index order, so the report does too.
        let mut quarantine = QuarantineReport::default();
        for verdict in verdicts {
            match verdict {
                Ok(results) => {
                    for (index, record) in results {
                        slots[index] = Some(record.map_err(SweepError::Evaluate)?);
                    }
                }
                Err(q) => quarantine.entries.push(QuarantineEntry {
                    chunk_index: q.index,
                    keys: fresh[..scheduled]
                        .chunks(chunk_points)
                        .nth(q.index)
                        .unwrap_or_default()
                        .iter()
                        .map(|(_, key, _)| *key)
                        .collect(),
                    attempts: q.attempts,
                    message: q.message,
                    backoff_us: q.backoff_us,
                }),
            }
        }

        if scheduled < fresh.len() {
            return Err(SweepError::Interrupted {
                completed: scheduled,
                remaining: fresh.len() - scheduled,
            });
        }

        // The slots are in grid point order: the only order the reduction
        // ever sees. Quarantined points are excluded (and accounted for in
        // the report); any *other* empty slot is a driver-internal
        // invariant violation.
        let quarantined: BTreeSet<u64> = quarantine
            .entries
            .iter()
            .flat_map(|e| e.keys.iter().copied())
            .collect();
        let mut records = Vec::with_capacity(slots.len());
        for (slot, key) in slots.into_iter().zip(&keys) {
            match slot {
                Some(record) => records.push(record),
                None if quarantined.contains(key) => {}
                None => return Err(SweepError::MissingRecord { key: *key }),
            }
        }

        let frontier = axis.frontier(&records);
        let telemetry = Telemetry {
            total_points: points.len(),
            cache_hits,
            fresh_evals: scheduled - quarantine.points(),
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
    /// A sequential, uncached spec over `space` and `profiles`, on
    /// the real filesystem, 16 points per chunk.
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
/// Public so other memoization layers (e.g. `ena-serve`'s shard store)
/// address the *same* cache files the sweep engine writes.
pub fn campaign_digest(explorer: &Explorer, profiles: &[KernelProfile]) -> u64 {
    let mut h = StableHasher::new();
    h.write_f64(explorer.budget.value());
    // EvalOptions has no stable-hash impl of its own; its Debug form
    // covers every field (miss fraction + optimization list).
    h.write_str(&format!("{:?}", explorer.options));
    profiles.stable_hash(&mut h);
    h.finish()
}

/// Content address of one design point within a campaign — the
/// memoization key used in memory and on disk. Shared with `ena-serve`
/// so a serving cache and a sweep cache are interchangeable.
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
    type Frontier = Vec<FrontierPoint>;

    fn options(&self) -> &RunOptions {
        &self.spec.run
    }

    fn options_mut(&mut self) -> &mut RunOptions {
        &mut self.spec.run
    }

    fn points(&self) -> Vec<ConfigPoint> {
        self.spec.space.points()
    }

    fn campaign_digest(&self) -> u64 {
        campaign_digest(&self.explorer, &self.spec.profiles)
    }

    fn point_key(&self, campaign: u64, point: &ConfigPoint) -> u64 {
        point_key(campaign, point)
    }

    fn evaluate(&self, point: &ConfigPoint) -> Result<PointRecord, Infallible> {
        Ok(self.explorer.evaluate_point(*point, &self.spec.profiles))
    }

    fn frontier(&self, records: &[PointRecord]) -> Vec<FrontierPoint> {
        pareto_frontier(&self.explorer, records, self.spec.profiles.len())
    }
}

/// The memoizing node-configuration sweep engine.
#[derive(Debug)]
pub struct SweepEngine {
    explorer: Explorer,
    memo: Memo,
}

impl SweepEngine {
    /// An engine evaluating through `explorer`, stamped with the current
    /// [`MODEL_VERSION`].
    pub fn new(explorer: Explorer) -> Self {
        Self {
            explorer,
            memo: Memo::new(),
        }
    }

    /// Overrides the model-version stamp (test hook for the eviction
    /// path; production code keeps the default).
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.memo = self.memo.with_version(version);
        self
    }

    /// The explorer this engine evaluates through.
    pub fn explorer(&self) -> &Explorer {
        &self.explorer
    }

    /// Runs one sweep through [`Memo::run`], then reduces the merged
    /// records to the oracle's best-mean and per-app answers.
    ///
    /// # Errors
    ///
    /// Everything [`Memo::run`] returns, [`SweepError::Dse`] when the
    /// reduction fails (e.g. no feasible point under the budget), and
    /// [`SweepError::EmptyProfiles`].
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
        // An empty space is the driver's `EmptySpace`, reported first.
        if spec.profiles.is_empty() && !spec.space.is_empty() {
            return Err(SweepError::EmptyProfiles);
        }
        let swept = self.memo.run(&NodeAxis {
            explorer: self.explorer.clone(),
            spec: spec.clone(),
        })?;
        Ok(SweepOutcome {
            result: self.explorer.reduce(&swept.records, &spec.profiles)?,
            frontier: swept.frontier,
            records: swept.records,
            quarantine: swept.quarantine,
            telemetry: swept.telemetry,
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

    #[test]
    fn telemetry_rates_are_sane() {
        let t = Telemetry {
            total_points: 100,
            cache_hits: 90,
            fresh_evals: 10,
            chunks: 2,
            jobs: 2,
            workers: vec![],
        };
        assert!((t.hit_rate() - 0.9).abs() < 1e-12);
    }
}

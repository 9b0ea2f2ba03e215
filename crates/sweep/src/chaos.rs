//! Seeded chaos campaigns over the sweep engine's own execution paths.
//!
//! A campaign runs one sweep [`Axis`] many times against a hostile
//! substrate — a [`ChaosFs`] injecting I/O faults into every cache
//! operation, plus a [`Failpoint`](crate::engine::Failpoint) injecting
//! worker kills (panics) at seeded points — and asserts the three
//! invariants a serving layer needs from this substrate:
//!
//! 1. **Every surviving cache file parses cleanly.** After any faulted
//!    run, the campaign's cache file must have a valid header and
//!    CRC-intact records, with damage confined to an unacknowledged
//!    torn tail. An unparseable file means the crash-consistency
//!    machinery (atomic repair, append poisoning) has a hole.
//! 2. **Resume never loses acknowledged records.** The set of intact
//!    records on disk grows monotonically across runs: a repair may
//!    truncate un-acknowledged garbage, never acknowledged data.
//! 3. **The final frontier equals the fault-free frontier.** After the
//!    faulted runs, one clean run resumes from whatever survived and
//!    must produce a Pareto frontier byte-identical to a fault-free
//!    oracle run — cached partial progress plus re-evaluation of the
//!    missing points reconstructs the exact result.
//!
//! The campaign is generic over the axis: it re-points only the axis's
//! cache and filesystem, so the node sweep and both fabric axes are
//! exercised through the same [`Memo::run`] they run on in production.
//! Everything is a pure function of the campaign seed, so a failing
//! campaign replays exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ena_model::hash::MODEL_VERSION;
use ena_testkit::chaos::{ChaosConfig, ChaosFs};
use ena_testkit::rng::SplitMix64;

use crate::cache::{verify_file, CacheRecord, DiskCache};
use crate::engine::{Axis, CacheMode, Failpoint, Memo, SweepError};

/// One chaos campaign request; the swept axis brings its own grid,
/// worker count and chunk size.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Master seed: every injected fault and kill derives from it.
    pub seed: u64,
    /// Faulted runs before the final clean run.
    pub runs: u32,
    /// Directory holding the campaign's disk cache. Campaigns over
    /// different axes can share it: each owns only its own file.
    pub dir: PathBuf,
    /// Filesystem fault rates for the faulted runs.
    pub fs_faults: ChaosConfig,
    /// Chance (per mille, per point) that evaluation panics on *every*
    /// attempt — the chunk ends up quarantined.
    pub kill_persistent_permille: u16,
    /// Chance (per mille, per point) that evaluation panics on its
    /// first attempt only — the supervised retry succeeds.
    pub kill_transient_permille: u16,
}

impl ChaosSpec {
    /// A small default campaign caching under `dir`: 3 faulted runs,
    /// moderate fault rates.
    pub fn new(dir: PathBuf) -> Self {
        Self {
            seed: 0xC0FFEE,
            runs: 3,
            dir,
            fs_faults: ChaosConfig::default_rates(),
            kill_persistent_permille: 40,
            kill_transient_permille: 80,
        }
    }
}

/// What one faulted run did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Run index (0-based).
    pub run: u32,
    /// How the sweep ended: completed (with quarantine count) or the
    /// error that stopped it.
    pub outcome: String,
    /// Filesystem operations the chaos layer observed.
    pub fs_ops: u64,
    /// Filesystem faults injected (failed + short + torn).
    pub fs_faults_injected: u64,
    /// Intact records on disk after the run.
    pub on_disk: usize,
    /// True when the file ended in an (unacknowledged) torn tail.
    pub torn_tail: bool,
}

/// Outcome of a whole campaign: per-run summaries plus the final
/// invariant checks. Produced only when every invariant held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// Record tag of the swept axis (its cache files carry the same).
    pub record: &'static str,
    /// Campaign seed.
    pub seed: u64,
    /// Points in the swept space.
    pub total_points: usize,
    /// Per-run summaries, in run order.
    pub runs: Vec<RunSummary>,
    /// Records recovered from disk by the final clean run.
    pub final_recovered: usize,
    /// Cache-file generation after the final run (repairs bump it).
    pub final_generation: u64,
}

impl ChaosReport {
    /// Renders the report as stable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // fmt::Write to a String is infallible; discard the Ok values.
        let _ = writeln!(
            out,
            "chaos campaign seed={:#x} points={} runs={} record={}",
            self.seed,
            self.total_points,
            self.runs.len(),
            self.record
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "  run {}: {} | fs ops {} faults {} | on disk {}{}",
                r.run,
                r.outcome,
                r.fs_ops,
                r.fs_faults_injected,
                r.on_disk,
                if r.torn_tail { " (torn tail)" } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "  final: recovered {} of {} records, generation {}",
            self.final_recovered, self.total_points, self.final_generation
        );
        let _ = writeln!(
            out,
            "invariants: all hold (caches parseable, no acknowledged record lost, frontier == fault-free)"
        );
        out
    }
}

/// A violated invariant (or a campaign that could not run at all); `E`
/// is the axis's point-evaluation error.
#[derive(Debug)]
pub enum ChaosError<E = Infallible> {
    /// Clearing or probing the campaign's cache file failed.
    Setup {
        /// The file the setup step touched.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The fault-free oracle run failed — the campaign has no baseline.
    Oracle(SweepError<E>),
    /// The final clean run failed outright.
    FinalRun(SweepError<E>),
    /// Invariant 1 violated: a faulted run left an unparseable cache
    /// file behind.
    UnparseableCache {
        /// Run after which the file failed verification.
        run: u32,
        /// What the verifier rejected.
        error: String,
    },
    /// Invariant 2 violated: records that were intact on disk after an
    /// earlier run vanished.
    LostRecords {
        /// Run after which the loss was detected.
        run: u32,
        /// Keys present before, missing now.
        missing: Vec<u64>,
    },
    /// A run completed but its acknowledged records do not add up:
    /// completed points and on-disk records disagree.
    AckMismatch {
        /// Run with the mismatch.
        run: u32,
        /// Records the run's outcome implies are on disk.
        expected: usize,
        /// Records actually found.
        found: usize,
    },
    /// The final clean run still had quarantined chunks.
    FinalQuarantine {
        /// Points quarantined in the clean run.
        points: usize,
    },
    /// Invariant 3 violated: the final frontier differs from the
    /// fault-free frontier.
    FrontierMismatch {
        /// Fault-free frontier rendering.
        expected: String,
        /// Post-chaos frontier rendering.
        got: String,
    },
    /// The final run's cache hits disagree with what was on disk: the
    /// resume did not use every recovered record.
    ResumeMismatch {
        /// Intact records on disk before the final run.
        on_disk: usize,
        /// Cache hits the final run reported.
        cache_hits: usize,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ChaosError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Setup { path, source } => {
                write!(f, "chaos campaign setup on {}: {source}", path.display())
            }
            Self::Oracle(e) => write!(f, "chaos oracle run failed: {e}"),
            Self::FinalRun(e) => write!(f, "chaos final clean run failed: {e}"),
            Self::UnparseableCache { run, error } => {
                write!(
                    f,
                    "invariant violated after run {run}: cache file unparseable: {error}"
                )
            }
            Self::LostRecords { run, missing } => write!(
                f,
                "invariant violated after run {run}: {} acknowledged record(s) lost",
                missing.len()
            ),
            Self::AckMismatch {
                run,
                expected,
                found,
            } => write!(
                f,
                "run {run}: completed run implies {expected} records on disk, found {found}"
            ),
            Self::FinalQuarantine { points } => {
                write!(f, "final clean run quarantined {points} point(s)")
            }
            Self::FrontierMismatch { .. } => {
                write!(f, "final frontier differs from the fault-free frontier")
            }
            Self::ResumeMismatch {
                on_disk,
                cache_hits,
            } => write!(
                f,
                "final run resumed {cache_hits} hits but {on_disk} records were on disk"
            ),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ChaosError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Setup { source, .. } => Some(source),
            Self::Oracle(e) | Self::FinalRun(e) => Some(e),
            _ => None,
        }
    }
}

/// Builds the seeded kill failpoint for one run: a pure function of
/// `(run_seed, key)` decides persistent/transient/no kill, and a shared
/// per-key invocation counter makes transient kills fire on the first
/// attempt only.
fn kill_failpoint(run_seed: u64, persistent_permille: u16, transient_permille: u16) -> Failpoint {
    let invocations: Mutex<BTreeMap<u64, u32>> = Mutex::new(BTreeMap::new());
    Arc::new(move |key| {
        let invocation = {
            let mut map = invocations
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let n = map.entry(key).or_insert(0);
            *n += 1;
            *n
        };
        let draw = SplitMix64::new(run_seed ^ key.rotate_left(17)).next_u64() % 1000;
        let persistent = u64::from(persistent_permille);
        let transient = persistent + u64::from(transient_permille);
        if draw < persistent {
            // The panic *is* the injected fault; the supervised pool
            // catches it, retries, and quarantines the chunk.
            std::panic::panic_any(format!("chaos kill (persistent) at point {key:#018x}"));
        }
        if draw < transient && invocation == 1 {
            std::panic::panic_any(format!("chaos kill (transient) at point {key:#018x}"));
        }
    })
}

/// Renders a frontier for byte-exact comparison.
fn render_frontier(frontier: &impl std::fmt::Debug) -> String {
    format!("{frontier:#?}")
}

/// Runs a seeded chaos campaign along `axis` and checks every invariant.
///
/// The sequence: one fault-free oracle run (memory cache) to fix the
/// expected frontier; `spec.runs` faulted runs against the disk cache
/// with injected I/O faults and worker kills, each followed by strict
/// verification of the surviving cache file; then one clean run that
/// must resume from the survivors and reproduce the oracle frontier
/// byte-for-byte. The axis keeps its own grid, worker count and chunk
/// size; the campaign overrides only its cache (and, for the faulted
/// runs, its filesystem).
///
/// # Errors
///
/// A [`ChaosError`] naming the violated invariant (or the setup/oracle
/// failure that kept the campaign from running). A faulted run *failing*
/// is not an error — injected faults are supposed to hurt — but the
/// state it leaves behind must still verify.
pub fn run_chaos_campaign<A>(
    axis: &A,
    spec: &ChaosSpec,
) -> Result<ChaosReport, ChaosError<A::Error>>
where
    A: Axis + Clone,
    A::Error: std::fmt::Display,
    A::Frontier: std::fmt::Debug,
{
    // Fault-free oracle: fixes the expected frontier.
    let mut oracle = axis.clone();
    oracle.options_mut().cache = CacheMode::Memory;
    let baseline = Memo::new().run(&oracle).map_err(ChaosError::Oracle)?;
    let expected_frontier = render_frontier(&baseline.frontier);
    let total_points = baseline.total_points;
    let campaign = axis.campaign_digest();
    let cache_path = spec.dir.join(DiskCache::<A::Record>::file_name(campaign));

    // Fresh file: the campaign owns its cache file inside `spec.dir`.
    match std::fs::remove_file(&cache_path) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(ChaosError::Setup {
                path: cache_path,
                source: e,
            })
        }
    }

    let mut on_disk_axis = axis.clone();
    on_disk_axis.options_mut().cache = CacheMode::Disk(spec.dir.clone());
    let mut runs = Vec::new();
    let mut seen_keys: BTreeSet<u64> = BTreeSet::new();
    for run in 0..spec.runs {
        let run_seed = SplitMix64::new(spec.seed.wrapping_add(u64::from(run))).next_u64();
        let chaos = ChaosFs::new(run_seed, spec.fs_faults);
        let mut faulted = on_disk_axis.clone();
        faulted.options_mut().fs = Arc::new(chaos.clone());
        let result = Memo::new()
            .with_failpoint(kill_failpoint(
                run_seed,
                spec.kill_persistent_permille,
                spec.kill_transient_permille,
            ))
            .run(&faulted);
        let counts = chaos.counts();

        // Invariant 1: whatever survived must parse cleanly.
        let (on_disk, torn_tail) = match std::fs::metadata(&cache_path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), false),
            Err(e) => {
                return Err(ChaosError::Setup {
                    path: cache_path.clone(),
                    source: e,
                })
            }
            Ok(_) => match verify_file::<A::Record>(&cache_path, campaign, MODEL_VERSION) {
                Ok(report) => (report.keys, report.torn_tail),
                Err(e) => {
                    return Err(ChaosError::UnparseableCache {
                        run,
                        error: e.to_string(),
                    })
                }
            },
        };
        let keys: BTreeSet<u64> = on_disk.iter().copied().collect();

        // Invariant 2: nothing intact before this run may vanish.
        let missing: Vec<u64> = seen_keys.difference(&keys).copied().collect();
        if !missing.is_empty() {
            return Err(ChaosError::LostRecords { run, missing });
        }
        seen_keys = keys;

        let outcome = match result {
            Ok(outcome) => {
                // A completed run acknowledged every non-quarantined
                // fresh point; together with the resumed prefix that is
                // the whole space minus the quarantined points.
                let expected = total_points - outcome.quarantine.points();
                if on_disk.len() != expected {
                    return Err(ChaosError::AckMismatch {
                        run,
                        expected,
                        found: on_disk.len(),
                    });
                }
                if outcome.quarantine.is_empty() {
                    "completed".to_string()
                } else {
                    format!(
                        "completed ({} point(s) quarantined)",
                        outcome.quarantine.points()
                    )
                }
            }
            Err(e) => format!("failed ({})", describe_failure(e, &spec.dir)),
        };
        runs.push(RunSummary {
            run,
            outcome,
            fs_ops: counts.ops,
            fs_faults_injected: counts.injected(),
            on_disk: on_disk.len(),
            torn_tail,
        });
    }

    // Final clean run: resume from the survivors, no faults, no kills.
    let outcome = Memo::new()
        .run(&on_disk_axis)
        .map_err(ChaosError::FinalRun)?;
    if !outcome.quarantine.is_empty() {
        return Err(ChaosError::FinalQuarantine {
            points: outcome.quarantine.points(),
        });
    }
    if outcome.cache_hits != seen_keys.len() {
        return Err(ChaosError::ResumeMismatch {
            on_disk: seen_keys.len(),
            cache_hits: outcome.cache_hits,
        });
    }
    let got_frontier = render_frontier(&outcome.frontier);
    if got_frontier != expected_frontier {
        return Err(ChaosError::FrontierMismatch {
            expected: expected_frontier,
            got: got_frontier,
        });
    }
    let final_report =
        verify_file::<A::Record>(&cache_path, campaign, MODEL_VERSION).map_err(|e| {
            ChaosError::UnparseableCache {
                run: spec.runs,
                error: e.to_string(),
            }
        })?;

    Ok(ChaosReport {
        record: <A::Record as CacheRecord>::TAG,
        seed: spec.seed,
        total_points,
        runs,
        final_recovered: seen_keys.len(),
        final_generation: final_report.generation,
    })
}

/// A faulted run's error as its summary names it: a cache error's file
/// relative to the campaign directory, so one seed renders the same
/// report wherever the directory is.
fn describe_failure<E: std::fmt::Display>(error: SweepError<E>, dir: &Path) -> String {
    match error {
        SweepError::Cache(mut e) => {
            if let Ok(name) = e.path.strip_prefix(dir) {
                e.path = name.to_path_buf();
            }
            SweepError::<E>::Cache(e).to_string()
        }
        e => e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NodeAxis, SweepSpec};
    use ena_core::dse::DesignSpace;
    use ena_core::Explorer;
    use ena_model::kernel::{KernelCategory, KernelProfile};
    use ena_model::units::{GigabytesPerSec, Megahertz};

    fn small_space() -> DesignSpace {
        DesignSpace {
            cu_counts: vec![128, 256, 320],
            clocks: vec![Megahertz::new(800.0), Megahertz::new(1000.0)],
            bandwidths: vec![GigabytesPerSec::new(2000.0), GigabytesPerSec::new(3000.0)],
        }
    }

    fn profiles() -> Vec<KernelProfile> {
        vec![
            KernelProfile {
                name: "chaos-a".into(),
                category: KernelCategory::Balanced,
                ops_per_byte: 8.0,
                utilization: 0.6,
                parallelism: 0.9,
                latency_sensitivity: 0.2,
                contention_sensitivity: 0.2,
                write_fraction: 0.3,
                ext_traffic_fraction: 0.5,
                out_of_chiplet_fraction: 0.85,
                serial_fraction: 0.02,
            },
            KernelProfile {
                name: "chaos-b".into(),
                category: KernelCategory::Balanced,
                ops_per_byte: 0.5,
                utilization: 0.5,
                parallelism: 0.8,
                latency_sensitivity: 0.4,
                contention_sensitivity: 0.3,
                write_fraction: 0.4,
                ext_traffic_fraction: 0.6,
                out_of_chiplet_fraction: 0.9,
                serial_fraction: 0.05,
            },
        ]
    }

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ena-chaos-campaign-{name}"))
    }

    fn node_axis(jobs: usize) -> NodeAxis {
        let mut spec = SweepSpec::new(small_space(), profiles());
        spec.run.jobs = jobs;
        spec.run.chunk_points = 4;
        NodeAxis {
            explorer: Explorer::default(),
            spec,
        }
    }

    #[test]
    fn campaign_invariants_hold_across_seeds() {
        for seed in [0xC0FFEE, 1, 2] {
            let spec = ChaosSpec {
                seed,
                runs: 3,
                ..ChaosSpec::new(scratch("invariants"))
            };
            let report = run_chaos_campaign(&node_axis(2), &spec)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
            assert_eq!(report.record, "dse-point/1");
            assert_eq!(report.total_points, 12);
            assert_eq!(report.runs.len(), 3);
            assert_eq!(
                report.final_recovered, 12,
                "clean final run fills the cache"
            );
            assert!(report.render().contains("invariants: all hold"));
        }
    }

    #[test]
    fn reports_do_not_depend_on_the_cache_directory() {
        let report = |name: &str| {
            let spec = ChaosSpec {
                runs: 2,
                ..ChaosSpec::new(scratch(name))
            };
            run_chaos_campaign(&node_axis(1), &spec).unwrap().render()
        };
        let here = report("directory-a");
        assert!(here.contains("failed (sweep cache"), "{here}");
        assert_eq!(here, report("directory-b"));
    }

    #[test]
    fn campaign_is_deterministic_for_a_fixed_seed_single_job() {
        let spec = ChaosSpec {
            runs: 2,
            ..ChaosSpec::new(scratch("determinism"))
        };
        let a = run_chaos_campaign(&node_axis(1), &spec).unwrap();
        let b = run_chaos_campaign(&node_axis(1), &spec).unwrap();
        assert_eq!(a, b, "same seed, same campaign, byte-identical report");
        assert!(
            a.runs.iter().any(|r| r.fs_faults_injected > 0),
            "default rates must actually inject faults: {a:?}"
        );
    }
}

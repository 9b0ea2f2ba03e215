//! A seeded chaos campaign over the serve store, the toolkit's one
//! persistence path.
//!
//! `ena serve` answers `OK` only after [`ShardStore::publish`] has
//! appended and fsynced the record, so the store's cache file is where an
//! acknowledged record has to survive a crash. A campaign opens the store
//! over one campaign's file several times, each time through a seeded
//! [`ChaosFs`] that fails, shortens or tears file operations. Each faulted
//! run claims, evaluates and publishes every point in grid order, kills
//! some leaders (drops their [`LeaderToken`](crate::LeaderToken)
//! unpublished), takes one [`ShardStore::snapshot`] at a seeded point,
//! and then drops the store without a shutdown — the way a killed server
//! leaves its file. After every run three checks must hold:
//!
//! 1. **The file verifies.** The header parses and every record up to an
//!    optional torn tail passes its CRC: atomic repair and append
//!    poisoning leave no hole.
//! 2. **No intact record is lost.** A key intact on disk before the run
//!    is intact after it: a repair or snapshot may drop unacknowledged
//!    garbage, never records.
//! 3. **Every acknowledged record is on disk.** Every key whose publish
//!    returned `Ok` in the run is intact — the promise behind a served
//!    `OK`.
//!
//! Then one clean open must restore exactly the intact records, resolve
//! the rest, and reproduce the fault-free frontier byte for byte.
//!
//! Everything is a pure function of the campaign seed, so a failing
//! campaign replays exactly, and reports name the cache file relative to
//! the campaign directory, so they read the same wherever it is.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ena_core::dse::{DesignSpace, Explorer, PointRecord};
use ena_model::hash::MODEL_VERSION;
use ena_model::kernel::KernelProfile;
use ena_model::units::{GigabytesPerSec, Megahertz};
use ena_sweep::{
    campaign_digest, pareto_frontier, point_key, verify_file, CacheError, CacheRecord, DiskCache,
    RealFs, VerifyReport,
};
use ena_testkit::chaos::{ChaosConfig, ChaosFs};
use ena_testkit::rng::SplitMix64;

use crate::store::{Claim, ShardStore};

/// Claims a faulted run makes per key: a killed leader's key is claimed
/// once more, the way a waiting follower re-claims an abandoned flight.
const CLAIMS_PER_KEY: u32 = 2;

/// The points every run claims, in grid order: 18 around the paper
/// baseline (192–320 CUs, 900–1100 MHz, 2–3 TB/s).
fn chaos_space() -> DesignSpace {
    DesignSpace {
        cu_counts: vec![192, 256, 320],
        clocks: vec![
            Megahertz::new(900.0),
            Megahertz::new(1000.0),
            Megahertz::new(1100.0),
        ],
        bandwidths: vec![
            GigabytesPerSec::from_terabytes_per_sec(2.0),
            GigabytesPerSec::from_terabytes_per_sec(3.0),
        ],
    }
}

/// One chaos campaign request.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Master seed: every injected fault, kill and snapshot point derives
    /// from it.
    pub seed: u64,
    /// Faulted runs before the final clean open.
    pub runs: u32,
    /// Directory holding the campaign's cache file; the campaign owns
    /// that one file there.
    pub dir: PathBuf,
    /// Filesystem fault rates for the faulted runs.
    pub fs_faults: ChaosConfig,
    /// Chance (per mille, per run and key) that every claim of the key in
    /// that run dies unpublished: the key stays unresolved until a later
    /// run.
    pub kill_persistent_permille: u16,
    /// Chance (per mille, per run and key) that only the first claim
    /// dies: the second claim publishes.
    pub kill_transient_permille: u16,
}

impl ChaosSpec {
    /// A small default campaign caching under `dir`: 3 faulted runs,
    /// moderate fault and kill rates.
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Run index (0-based).
    pub run: u32,
    /// How the store opened: `restored N` (with the repair, if the open
    /// rewrote the file), or the error that kept it closed.
    pub open: String,
    /// Publishes that returned `Ok`: acknowledged records.
    pub published: usize,
    /// Publishes that returned an error.
    pub publish_failures: usize,
    /// Leader tokens dropped unpublished.
    pub leaders_killed: usize,
    /// The snapshot: where it ran and how it ended (empty when the store
    /// never opened).
    pub snapshot: String,
    /// Filesystem operations the chaos layer observed.
    pub fs_ops: u64,
    /// Filesystem faults injected (failed + short + torn).
    pub fs_faults_injected: u64,
    /// Intact records on disk after the run.
    pub on_disk: usize,
    /// Generation of the file after the run (`None`: no file yet).
    pub generation: Option<u64>,
    /// True when the file ended in an (unacknowledged) torn tail.
    pub torn_tail: bool,
}

/// Outcome of a whole campaign: per-run summaries plus the final clean
/// open. Produced only when every check held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// Campaign seed.
    pub seed: u64,
    /// Points every run claims.
    pub total_points: usize,
    /// Per-run summaries, in run order.
    pub runs: Vec<RunSummary>,
    /// Records the final clean open restored from disk.
    pub final_restored: usize,
    /// Points the final open evaluated and published itself.
    pub final_resolved: usize,
    /// File generation after the final open.
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
            "chaos campaign seed={:#x} points={} runs={} store=serve record={}",
            self.seed,
            self.total_points,
            self.runs.len(),
            <PointRecord as CacheRecord>::TAG
        );
        for r in &self.runs {
            let _ = write!(out, "  run {}: {}", r.run, r.open);
            if !r.snapshot.is_empty() {
                let _ = write!(
                    out,
                    " | published {}, failed {}, killed {} | {}",
                    r.published, r.publish_failures, r.leaders_killed, r.snapshot
                );
            }
            let _ = write!(
                out,
                " | fs ops {} faults {} | on disk {}",
                r.fs_ops, r.fs_faults_injected, r.on_disk
            );
            if let Some(generation) = r.generation {
                let _ = write!(out, ", generation {generation}");
            }
            let _ = writeln!(out, "{}", if r.torn_tail { " (torn tail)" } else { "" });
        }
        let _ = writeln!(
            out,
            "  final: restored {} of {} records, resolved {}, generation {}",
            self.final_restored, self.total_points, self.final_resolved, self.final_generation
        );
        let _ = writeln!(
            out,
            "invariants: all hold (file verifies, no intact record lost, \
             every acknowledged record on disk, frontier == fault-free)"
        );
        out
    }
}

/// A failed check, or a campaign that could not run at all.
#[derive(Debug)]
pub enum ChaosError {
    /// Clearing or probing the campaign's cache file failed.
    Setup {
        /// The file the setup step touched.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The final clean open, or one of its publishes, failed.
    Final(CacheError),
    /// A check failed after run `run` (`run == runs`: the final open).
    Violated {
        /// Run after which the check failed.
        run: u32,
        /// Which check failed, and how.
        check: String,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Setup { path, source } => {
                write!(f, "chaos campaign setup on {}: {source}", path.display())
            }
            Self::Final(e) => write!(f, "chaos final clean open: {e}"),
            Self::Violated { run, check } => {
                write!(f, "invariant violated after run {run}: {check}")
            }
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Setup { source, .. } => Some(source),
            Self::Final(e) => Some(e),
            _ => None,
        }
    }
}

/// How many of `key`'s claims a run kills — every one, the first only, or
/// none — drawn from the run's `kill_seed`.
fn kills(spec: &ChaosSpec, kill_seed: u64, key: u64) -> u32 {
    let draw = SplitMix64::new(kill_seed ^ key.rotate_left(17)).next_u64() % 1000;
    let persistent = u64::from(spec.kill_persistent_permille);
    if draw < persistent {
        CLAIMS_PER_KEY
    } else if draw < persistent + u64::from(spec.kill_transient_permille) {
        1
    } else {
        0
    }
}

/// A cache error as a report names it: its file relative to the campaign
/// directory, so one seed renders the same report wherever `dir` is.
fn describe(mut error: CacheError, dir: &Path) -> String {
    if let Ok(name) = error.path.strip_prefix(dir) {
        error.path = name.to_path_buf();
    }
    error.to_string()
}

/// Renders a frontier for byte-exact comparison.
fn render_frontier(frontier: &impl std::fmt::Debug) -> String {
    format!("{frontier:#?}")
}

/// The campaign's file as the verifier reads it, `None` when there is no
/// file yet.
fn verify(path: &Path, campaign: u64, run: u32) -> Result<Option<VerifyReport>, ChaosError> {
    match std::fs::metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ChaosError::Setup {
            path: path.to_path_buf(),
            source: e,
        }),
        Ok(_) => verify_file::<PointRecord>(path, campaign, MODEL_VERSION)
            .map(Some)
            .map_err(|e| ChaosError::Violated {
                run,
                check: format!("cache file does not verify: {e}"),
            }),
    }
}

/// Runs a seeded chaos campaign on the serve store over 18 design points
/// (default explorer, the given profiles) and checks every invariant (see
/// the module docs).
///
/// # Errors
///
/// A [`ChaosError`] naming the failed check, or the setup step that kept
/// the campaign from running. A faulted run's open or publish *failing*
/// is not an error — injected faults are supposed to hurt — but the file
/// it leaves behind must still pass every check.
pub fn run_chaos_campaign(
    profiles: &[KernelProfile],
    spec: &ChaosSpec,
) -> Result<ChaosReport, ChaosError> {
    let explorer = &Explorer::default();
    let points = chaos_space().points();
    let campaign = campaign_digest(explorer, profiles);
    let keys: Vec<u64> = points.iter().map(|p| point_key(campaign, p)).collect();
    let oracle: Vec<PointRecord> = points
        .iter()
        .map(|p| explorer.evaluate_point(*p, profiles))
        .collect();
    let expected_frontier = render_frontier(&pareto_frontier(
        &oracle,
        &explorer.score(&oracle, profiles.len()),
    ));
    let path = spec.dir.join(DiskCache::<PointRecord>::file_name(campaign));
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            return Err(ChaosError::Setup { path, source: e })
        }
        _ => {}
    }

    let mut runs = Vec::new();
    let mut intact: BTreeSet<u64> = BTreeSet::new();
    let mut generation: Option<u64> = None;
    for run in 0..spec.runs {
        let mut rng = SplitMix64::new(spec.seed.wrapping_add(u64::from(run)));
        let chaos = ChaosFs::new(rng.next_u64(), spec.fs_faults);
        let kill_seed = rng.next_u64();
        let snapshot_at = (rng.next_u64() % points.len() as u64) as usize;
        let mut summary = RunSummary {
            run,
            ..RunSummary::default()
        };
        let mut acknowledged: Vec<u64> = Vec::new();
        match ShardStore::open(
            Some(&spec.dir),
            Arc::new(chaos.clone()),
            campaign,
            MODEL_VERSION,
        ) {
            Err(e) => summary.open = format!("open failed ({})", describe(e, &spec.dir)),
            Ok((store, restored)) => {
                summary.open = format!("restored {restored}");
                if let (Some(before), Some(after)) = (generation, verify(&path, campaign, run)?) {
                    if after.generation != before {
                        summary.open +=
                            &format!(" (repaired: generation {before} -> {})", after.generation);
                    }
                }
                for (index, (point, &key)) in points.iter().zip(&keys).enumerate() {
                    if index == snapshot_at {
                        summary.snapshot = match store.snapshot() {
                            Ok((_, generation)) => {
                                format!("snapshot before point {index}: generation {generation}")
                            }
                            Err(e) => format!(
                                "snapshot before point {index} failed ({})",
                                describe(e, &spec.dir)
                            ),
                        };
                    }
                    let kills = kills(spec, kill_seed, key);
                    for claim in 0..CLAIMS_PER_KEY {
                        let Claim::Leader(token) = store.claim(key) else {
                            break; // restored: intact since an earlier run
                        };
                        if claim < kills {
                            drop(token); // the leader dies unpublished
                            summary.leaders_killed += 1;
                            continue;
                        }
                        let record = explorer.evaluate_point(*point, profiles);
                        match store.publish(token, record) {
                            Ok(_) => {
                                summary.published += 1;
                                acknowledged.push(key);
                            }
                            Err(_) => summary.publish_failures += 1,
                        }
                        break;
                    }
                }
                // Dropped without a shutdown, as a killed server leaves it.
                drop(store);
            }
        }
        let counts = chaos.counts();
        summary.fs_ops = counts.ops;
        summary.fs_faults_injected = counts.injected();

        // Check 1: whatever survived must verify.
        let after = verify(&path, campaign, run)?;
        let on_disk: BTreeSet<u64> = after
            .as_ref()
            .map(|r| r.keys.iter().copied().collect())
            .unwrap_or_default();
        // Check 2: nothing intact before this run may vanish.
        let lost = intact.difference(&on_disk).count();
        // Check 3: everything this run acknowledged is on disk.
        let unsynced = acknowledged
            .iter()
            .filter(|key| !on_disk.contains(key))
            .count();
        if lost + unsynced > 0 {
            return Err(ChaosError::Violated {
                run,
                check: format!(
                    "{lost} intact record(s) lost, {unsynced} acknowledged record(s) not on disk"
                ),
            });
        }
        summary.on_disk = on_disk.len();
        summary.generation = after.as_ref().map(|r| r.generation);
        summary.torn_tail = after.is_some_and(|r| r.torn_tail);
        generation = summary.generation;
        intact = on_disk;
        runs.push(summary);
    }

    // Final clean open: restore exactly the intact records, resolve the
    // rest, reproduce the fault-free records and frontier.
    let (store, restored) =
        ShardStore::open(Some(&spec.dir), Arc::new(RealFs), campaign, MODEL_VERSION)
            .map_err(ChaosError::Final)?;
    let violated = |check: String| ChaosError::Violated {
        run: spec.runs,
        check,
    };
    let restored_keys: BTreeSet<u64> = store.records().into_iter().map(|(key, _)| key).collect();
    if restored != intact.len() || restored_keys != intact {
        return Err(violated(format!(
            "restored {restored} records but {} were intact on disk",
            intact.len()
        )));
    }
    let mut records = Vec::with_capacity(points.len());
    let mut resolved = 0;
    for ((point, &key), want) in points.iter().zip(&keys).zip(&oracle) {
        let record = match store.claim(key) {
            Claim::Ready(record) => record,
            Claim::Leader(token) => {
                resolved += 1;
                store
                    .publish(token, explorer.evaluate_point(*point, profiles))
                    .map_err(ChaosError::Final)?
            }
            Claim::Follower(_) => return Err(violated(format!("{key:#018x} already in flight"))),
        };
        if *record != *want {
            return Err(violated(format!(
                "{key:#018x} differs from its fault-free record"
            )));
        }
        records.push((*record).clone());
    }
    drop(store);
    let frontier = pareto_frontier(&records, &explorer.score(&records, profiles.len()));
    if render_frontier(&frontier) != expected_frontier {
        return Err(violated(
            "frontier differs from the fault-free frontier".into(),
        ));
    }
    let final_generation = verify(&path, campaign, spec.runs)?.map_or(0, |r| r.generation);

    Ok(ChaosReport {
        seed: spec.seed,
        total_points: points.len(),
        runs,
        final_restored: restored,
        final_resolved: resolved,
        final_generation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_workloads::paper_profiles;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ena-serve-chaos-{name}"))
    }

    fn campaign(spec: &ChaosSpec) -> Result<ChaosReport, ChaosError> {
        run_chaos_campaign(&paper_profiles(), spec)
    }

    #[test]
    fn every_check_holds_across_seeds_and_the_faults_bite() {
        let mut reports = Vec::new();
        for seed in std::iter::once(0xC0FFEE).chain(1..=15) {
            let spec = ChaosSpec {
                seed,
                ..ChaosSpec::new(scratch("seeds"))
            };
            let report = campaign(&spec).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
            assert_eq!(report.total_points, 18);
            assert_eq!(report.runs.len(), 3);
            assert_eq!(report.final_restored + report.final_resolved, 18);
            assert!(report.render().ends_with("frontier == fault-free)\n"));
            reports.push(report);
        }
        // Not vacuous: publishes failed, leaders died, and an open
        // repaired a torn file under a bumped generation.
        let runs = || reports.iter().flat_map(|r| &r.runs);
        assert!(runs().any(|r| r.publish_failures > 0));
        assert!(runs().any(|r| r.leaders_killed > 0));
        assert!(runs().any(|r| r.open.contains("(repaired: generation")));
    }

    #[test]
    fn reports_do_not_depend_on_the_cache_directory() {
        let report = |name: &str| {
            let spec = ChaosSpec {
                runs: 2,
                ..ChaosSpec::new(scratch(name))
            };
            campaign(&spec).unwrap().render()
        };
        let here = report("directory-a");
        assert!(
            here.contains(" on campaign-463968def6f7dc8f.sweep"),
            "{here}"
        );
        assert!(!here.contains("directory-a"), "{here}");
        assert_eq!(here, report("directory-b"));
    }

    #[test]
    fn a_seed_replays_its_campaign_and_the_default_rates_inject_faults() {
        let spec = ChaosSpec {
            runs: 2,
            ..ChaosSpec::new(scratch("determinism"))
        };
        let a = campaign(&spec).unwrap();
        assert_eq!(a, campaign(&spec).unwrap(), "same seed, same report");
        assert!(
            a.runs.iter().any(|r| r.fs_faults_injected > 0),
            "default rates must actually inject faults: {a:?}"
        );
    }
}

//! End-to-end acceptance for the `ena-sweep` engine (ISSUE 4).
//!
//! A parallel sweep (`jobs > 1`) of the full paper design space must
//! reproduce the sequential `Explorer` oracle byte-for-byte — best-mean
//! point, feasible count, and the Table II per-application oracle — and
//! a cold/warm disk-cache pair must show a nonzero hit rate on the warm
//! run while returning identical results. Every sweep axis must also
//! keep the cache address existing cache files carry.

use std::path::{Path, PathBuf};

use ena::core::dse::{DesignSpace, PointRecord};
use ena::core::Explorer;
use ena::fabric::{
    MultiNodeRecord, MultiNodeSpace, MultiNodeSweep, MultiNodeSweepSpec, RecoveryModel,
    RecoveryRecord, RecoverySpace, RecoverySweep, RecoverySweepSpec, ScaleOutSpec,
};
use ena::model::hash::{StableHasher, MODEL_VERSION};
use ena::sweep::{read_file_info, verify_file, CacheMode, CacheRecord, SweepEngine, SweepSpec};
use ena::workloads::paper_profiles;

/// Byte-level view of a value: `{:?}` on `f64` prints the shortest
/// decimal that round-trips, so distinct bit patterns render distinctly.
fn render<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    dir
}

#[test]
fn parallel_paper_sweep_matches_the_sequential_oracle_byte_for_byte() {
    let profiles = paper_profiles();
    let explorer = Explorer::default();
    let oracle = explorer
        .explore(&DesignSpace::paper(), &profiles)
        .expect("paper space explores");

    let mut engine = SweepEngine::new(Explorer::default());
    let mut spec = SweepSpec::new(DesignSpace::paper(), profiles);
    spec.run.jobs = 3;
    let outcome = engine.run(&spec).expect("paper sweep completes");

    assert_eq!(outcome.result.feasible, oracle.feasible);
    assert_eq!(outcome.result.evaluated, oracle.evaluated);
    assert_eq!(
        render(&outcome.result.best_mean),
        render(&oracle.best_mean),
        "best-mean point must be byte-identical"
    );
    assert_eq!(
        render(&outcome.result.per_app),
        render(&oracle.per_app),
        "Table II per-app oracle must be byte-identical"
    );
    assert_eq!(
        render(&outcome.result),
        render(&oracle),
        "the whole result must be byte-identical"
    );
}

#[test]
fn cold_then_warm_disk_sweep_hits_the_cache_and_returns_identical_results() {
    let dir = scratch("sweep-e2e-cache");
    let mut spec = SweepSpec::new(DesignSpace::paper(), paper_profiles());
    spec.run.jobs = 2;
    spec.run.cache = CacheMode::Disk(dir);

    let mut cold_engine = SweepEngine::new(Explorer::default());
    let cold = cold_engine.run(&spec).expect("cold sweep completes");
    assert_eq!(cold.telemetry.cache_hits, 0, "cold run starts empty");

    // A fresh engine sees only the disk layer — no in-memory carryover.
    let mut warm_engine = SweepEngine::new(Explorer::default());
    let warm = warm_engine.run(&spec).expect("warm sweep completes");

    assert!(
        warm.telemetry.hit_rate() > 0.0,
        "warm run must hit the disk cache (got {} hits)",
        warm.telemetry.cache_hits
    );
    assert_eq!(
        warm.telemetry.cache_hits, warm.telemetry.total_points,
        "every point of the warm run should come from the cache"
    );
    assert_eq!(render(&warm.result), render(&cold.result));
    assert_eq!(render(&warm.frontier), render(&cold.frontier));
}

/// The one cache file a sweep wrote into `dir`: its name and an FNV-1a
/// digest of its sorted keys (append order follows the scheduler).
fn cache_address<R: CacheRecord>(dir: &Path) -> (String, u64) {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("sweep created its cache dir")
        .map(|entry| entry.expect("readable dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one campaign, one file: {files:?}");
    let path = &files[0];
    let info = read_file_info(path).expect("cache header parses");
    let mut keys = verify_file::<R>(path, info.campaign, MODEL_VERSION)
        .expect("cache verifies")
        .keys;
    keys.sort_unstable();
    let mut h = StableHasher::new();
    for key in keys {
        h.write_u64(key);
    }
    let name = path.file_name().expect("file name").to_string_lossy();
    (name.into_owned(), h.finish())
}

/// Every axis's default campaign keeps the cache file name and point
/// keys it had before the sweep driver was shared, so caches users
/// already hold stay warm across the refactor.
#[test]
fn every_axis_keeps_its_cache_address() {
    let dir = scratch("sweep-e2e-pin-node");
    let mut node = SweepSpec::new(DesignSpace::coarse(), paper_profiles());
    node.run.cache = CacheMode::Disk(dir.clone());
    SweepEngine::new(Explorer::default())
        .run(&node)
        .expect("node sweep completes");
    assert_eq!(
        cache_address::<PointRecord>(&dir),
        (
            "campaign-463968def6f7dc8f.sweep".into(),
            0xd99d_0507_c568_f0e2
        )
    );

    let dir = scratch("sweep-e2e-pin-multinode");
    let mut multinode =
        MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"));
    multinode.run.cache = CacheMode::Disk(dir.clone());
    MultiNodeSweep::new()
        .run(&multinode)
        .expect("multinode sweep completes");
    assert_eq!(
        cache_address::<MultiNodeRecord>(&dir),
        (
            "campaign-42c7277d5a7cd894.sweep".into(),
            0x6ce2_9296_acb3_467d
        )
    );

    let dir = scratch("sweep-e2e-pin-recovery");
    let mut recovery = RecoverySweepSpec::new(
        RecoverySpace::standard(),
        ScaleOutSpec::standard("CoMD"),
        RecoveryModel::new(96.0, 3.0),
    );
    recovery.run.cache = CacheMode::Disk(dir.clone());
    RecoverySweep::new()
        .run(&recovery)
        .expect("recovery sweep completes");
    assert_eq!(
        cache_address::<RecoveryRecord>(&dir),
        (
            "campaign-1fc48582dfe5cabd.sweep".into(),
            0xbf44_731e_06da_5ff1
        )
    );
}

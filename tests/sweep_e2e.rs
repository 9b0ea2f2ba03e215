//! End-to-end acceptance for the `ena-sweep` engine.
//!
//! A parallel sweep (`jobs > 1`) of the full paper design space must
//! reproduce the sequential `Explorer` oracle byte-for-byte — best-mean
//! point, feasible count, and the Table II per-application oracle. The
//! sweep persists nothing; the serve store, which now holds the only
//! cache files, must keep the address the node sweep's files carried.

use std::path::{Path, PathBuf};

use ena::core::dse::{DesignSpace, PointRecord};
use ena::core::Explorer;
use ena::model::hash::{StableHasher, MODEL_VERSION};
use ena::serve::{Client, ServeConfig, Server};
use ena::sweep::{read_file_info, verify_file, SweepEngine, SweepSpec};
use ena::workloads::paper_profiles;
use ena_testkit::transport::pair;

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

    let engine = SweepEngine::new(Explorer::default());
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

/// The serve store's cache file for a `SWEEP coarse` request: its name
/// and an FNV-1a digest of its sorted keys.
fn cache_address(dir: &Path) -> (String, u64) {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("the server created its cache dir")
        .map(|entry| entry.expect("readable dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one campaign, one file: {files:?}");
    let path = &files[0];
    let info = read_file_info(path).expect("cache header parses");
    let mut keys = verify_file::<PointRecord>(path, info.campaign, MODEL_VERSION)
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

/// A server that serves `SWEEP coarse` writes the cache file name and
/// point keys the node sweep wrote when it still persisted, so caches
/// users already hold keep warm-starting the server.
#[test]
fn the_serve_store_keeps_the_node_sweep_cache_address() {
    let dir = scratch("sweep-e2e-pin-node");
    let mut config = ServeConfig::new(Explorer::default(), paper_profiles());
    config.cache_dir = Some(dir.clone());
    let (server, restored) = Server::new(config).expect("server opens");
    assert_eq!(restored, 0);
    let (client_end, server_end) = pair();
    let response = std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.handle(server_end));
        Client::new(client_end)
            .request("SWEEP coarse")
            .expect("sweep response")
    });
    assert!(response.starts_with("OK sweep points="), "{response}");
    drop(server);
    assert_eq!(
        cache_address(&dir),
        (
            "campaign-463968def6f7dc8f.sweep".into(),
            0xd99d_0507_c568_f0e2
        )
    );
}

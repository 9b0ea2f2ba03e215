//! End-to-end acceptance for `ena-serve` (ISSUE 9), over real TCP.
//!
//! Three contracts:
//! 1. Server responses are byte-identical to what the batch path
//!    (`Explorer::evaluate_point` under the sweep engine's keys)
//!    computes for the same design points.
//! 2. Durability holds without a `SNAPSHOT`: every acknowledged record
//!    is on disk at append time, the surviving cache file verifies
//!    clean, and a restarted server answers every acked point from
//!    memory.
//! 3. The server's cache file is the sweep engine's own v2 format —
//!    `verify_file` accepts it under the shared campaign digest.

use std::net::TcpListener;
use std::path::PathBuf;

use ena::core::dse::Explorer;
use ena::core::dse::PointRecord;
use ena::serve::{Client, EvalPoint, ServeConfig, Server};
use ena::sweep::{campaign_digest, point_key, verify_file, CacheRecord, DiskCache};
use ena::workloads::paper_profiles;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    dir
}

/// Sample design points spanning the coarse grid's corners.
fn sample_points() -> Vec<EvalPoint> {
    vec![
        EvalPoint {
            cus: 192,
            mhz: 600.0,
            tbps: 1.0,
        },
        EvalPoint {
            cus: 320,
            mhz: 1000.0,
            tbps: 3.0,
        },
        EvalPoint {
            cus: 384,
            mhz: 1500.0,
            tbps: 4.0,
        },
    ]
}

/// Runs `session` against a served TCP socket, returning its result
/// after a clean `SHUTDOWN` drains the server.
fn with_tcp_server<T: Send>(
    config: ServeConfig,
    session: impl FnOnce(&mut Client<std::net::TcpStream>) -> T + Send,
) -> (T, String) {
    let (server, _) = Server::new(config).expect("server opens");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let server = &server;
        let serve = s.spawn(move || server.serve(listener).expect("serve returns stats"));
        let out = {
            let mut client = Client::connect(&addr.to_string()).expect("connect");
            let out = session(&mut client);
            let bye = client.request("SHUTDOWN").expect("shutdown ack");
            assert_eq!(bye, "OK bye");
            out
        };
        let stats = serve.join().expect("serve thread");
        (out, stats)
    })
}

#[test]
fn tcp_responses_are_byte_identical_to_the_batch_path() {
    let profiles = paper_profiles();
    let explorer = Explorer::default();
    let campaign = campaign_digest(&explorer, &profiles);

    let points = sample_points();
    let lines: Vec<String> = points
        .iter()
        .map(|p| format!("EVAL {} {} {}", p.cus, p.mhz, p.tbps))
        .collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();

    let config = ServeConfig::new(explorer.clone(), profiles.clone());
    let (responses, stats) =
        with_tcp_server(config, |client| client.pipeline(&lines).expect("responses"));

    for (point, response) in points.iter().zip(&responses) {
        let config_point = point.to_config_point();
        let key = point_key(campaign, &config_point);
        let record = explorer.evaluate_point(config_point, &profiles);
        let expected = format!("OK {key:016x} {}", record.encode());
        assert_eq!(
            response, &expected,
            "served bytes diverge from the batch path for {point:?}"
        );
    }
    assert!(stats.contains("shutdown=1"), "{stats}");
}

#[test]
fn restart_without_snapshot_loses_no_acknowledged_record() {
    let dir = scratch("serve-unclean-death");
    let profiles = paper_profiles();
    let explorer = Explorer::default();
    let campaign = campaign_digest(&explorer, &profiles);

    let points = sample_points();
    let lines: Vec<String> = points
        .iter()
        .map(|p| format!("EVAL {} {} {}", p.cus, p.mhz, p.tbps))
        .collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();

    let mut config = ServeConfig::new(explorer.clone(), profiles.clone());
    config.cache_dir = Some(dir.clone());
    let (acked, _) = with_tcp_server(config.clone(), |client| {
        client.pipeline(&lines).expect("responses")
    });
    for r in &acked {
        assert!(r.starts_with("OK "), "{r}");
    }
    // The server is gone and never snapshotted. Every acked record
    // must already be on disk from its publish-time append.
    let cache_path = dir.join(DiskCache::<PointRecord>::file_name(campaign));
    let model = ena::model::hash::MODEL_VERSION;
    let report =
        verify_file::<PointRecord>(&cache_path, campaign, model).expect("cache verifies clean");
    assert!(!report.torn_tail, "acked-only writes can never tear");
    let expected_keys: std::collections::BTreeSet<u64> = points
        .iter()
        .map(|p| point_key(campaign, &p.to_config_point()))
        .collect();
    let on_disk: std::collections::BTreeSet<u64> = report.keys.iter().copied().collect();
    assert_eq!(on_disk, expected_keys, "acknowledged record lost");

    // A restarted server warm-starts and answers from memory.
    let (warm, restored) = Server::new(config).expect("warm open");
    assert_eq!(restored, points.len());
    drop(warm);

    let mut config = ServeConfig::new(explorer, profiles);
    config.cache_dir = Some(dir);
    let (responses, stats) = with_tcp_server(config, |client| {
        client.pipeline(&lines).expect("warm responses")
    });
    assert_eq!(responses, acked, "restart changed acknowledged bytes");
    assert!(
        stats.contains("hit_rate=100.0%"),
        "warm server must serve entirely from the restored store:\n{stats}"
    );
}

#[test]
fn snapshot_compacts_while_serving_over_tcp() {
    let dir = scratch("serve-snapshot-tcp");
    let profiles = paper_profiles();
    let mut config = ServeConfig::new(Explorer::default(), profiles);
    config.cache_dir = Some(dir);
    let (out, _) = with_tcp_server(config, |client| {
        let first = client.request("EVAL 320 1000 3").expect("eval");
        assert!(first.starts_with("OK "), "{first}");
        let snap = client.request("SNAPSHOT").expect("snapshot");
        assert_eq!(snap, "OK snapshot records=1 generation=1");
        // The server keeps serving after the atomic rewrite, and the
        // record is still hot.
        let again = client.request("EVAL 320 1000 3").expect("eval again");
        assert_eq!(again, first);
        let stats = client.request("STATS").expect("stats");
        stats
    });
    assert!(out.contains("snapshot=1"), "{out}");
    assert!(out.contains("hits=1"), "{out}");
}

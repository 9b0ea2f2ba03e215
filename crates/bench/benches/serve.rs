//! Benchmarks the serving layer's hot paths over an in-process pipe —
//! framing plus the sharded store, with the model cost excluded by
//! pre-warming every point: a single warm `EVAL` round trip, a
//! pipelined run of warm `EVAL`s (one write burst, one response burst),
//! and a `STATS` render.
//!
//! Run with `cargo bench -p ena-bench --features timing`. Measurements
//! land machine-readably in `artifacts/BENCH_serve.json` and, when a
//! previous file exists, each median is regression-guarded against it
//! (a > `timing::GUARD_FACTOR`x slowdown fails the run; set
//! `ENA_BENCH_NO_GUARD=1` to bypass, e.g. when changing machines).

use ena_core::dse::Explorer;
use ena_serve::{Client, ServeConfig, Server};
use ena_testkit::golden::artifacts_dir;
use ena_testkit::timing::Harness;
use ena_testkit::transport::pair;
use ena_workloads::profile_for;

/// Distinct points pre-warmed into the store and replayed pipelined.
const PIPELINE: usize = 16;

fn main() {
    let profiles = vec![profile_for("CoMD").expect("CoMD is a paper app")];
    let (server, _) =
        Server::new(ServeConfig::new(Explorer::default(), profiles)).expect("memory server");

    let lines: Vec<String> = (0..PIPELINE)
        .map(|i| format!("EVAL {} {} 3", 256 + 32 * (i % 3), 900 + 25 * i))
        .collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();

    let mut h = Harness::new("serve");
    h.sample_size(20);

    let (hit, pipeline, stats) = std::thread::scope(|s| {
        let server = &server;
        let (client_end, server_end) = pair();
        s.spawn(move || server.handle(server_end));
        let mut client = Client::new(client_end);
        // Fill the store so every benched request is a warm hit: the
        // benches time framing + store, never the model.
        let warm = client.pipeline(&lines).expect("warm fill");
        assert!(warm.iter().all(|r| r.starts_with("OK ")), "warm fill");

        let hit = h
            .bench("serve_eval_warm_hit", || {
                std::hint::black_box(client.request("EVAL 256 900 3").expect("hit"))
            })
            .clone();
        let pipeline = h
            .bench("serve_pipeline_16_warm", || {
                std::hint::black_box(client.pipeline(&lines).expect("warm pipeline"))
            })
            .clone();
        let stats = h
            .bench("serve_stats_roundtrip", || {
                std::hint::black_box(client.request("STATS").expect("stats"))
            })
            .clone();
        // Dropping the client closes the pipe; the handler thread sees
        // a clean EOF and the scope joins it.
        drop(client);
        (hit, pipeline, stats)
    });

    let path = artifacts_dir().join("BENCH_serve.json");
    let clean = h
        .record(&path, &[&hit, &pipeline, &stats])
        .expect("write BENCH_serve.json");
    if !clean {
        std::process::exit(1);
    }
}

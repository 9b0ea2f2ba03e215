//! Property tests for the serving layer's headline guarantees:
//! single-flight deduplication, byte-identical responses, pipelined
//! batching, snapshot/restore bit-exactness, and typed admission
//! rejection — all driven hermetically over in-process pipes.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Barrier;

use ena_core::dse::Explorer;
use ena_serve::{Client, ServeConfig, Server};
use ena_testkit::prelude::*;
use ena_testkit::transport::pair;
use ena_workloads::profile_for;

/// A fresh per-test scratch directory under the cargo tmp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A one-profile config (fast evaluations). The server's `evals`
/// counter counts its engine evaluations.
fn one_profile_config() -> ServeConfig {
    let profiles = vec![profile_for("CoMD").expect("CoMD is a paper app")];
    ServeConfig::new(Explorer::default(), profiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE single-flight property: K concurrent connections requesting
    /// the same uncomputed point cost exactly one engine evaluation,
    /// and all K responses are byte-identical.
    #[test]
    fn k_concurrent_identical_requests_cost_one_evaluation(k_pick in 0usize..4) {
        let k = [2usize, 4, 8, 16][k_pick];
        let (server, _) = Server::new(one_profile_config()).expect("memory store");
        let barrier = Barrier::new(k);

        let responses: Vec<String> = std::thread::scope(|s| {
            let server = &server;
            let barrier = &barrier;
            let clients: Vec<_> = (0..k)
                .map(|_| {
                    let (client_end, server_end) = pair();
                    s.spawn(move || server.handle(server_end));
                    s.spawn(move || {
                        barrier.wait();
                        let mut client = Client::new(client_end);
                        client.request("EVAL 320 1000 3").expect("response")
                    })
                })
                .collect();
            clients.into_iter().map(|j| j.join().expect("client thread")).collect()
        });

        let c = server.counters();
        let evals = c.evals.load(Ordering::Relaxed);
        prop_assert!(evals == 1,
            "expected exactly 1 engine evaluation for {k} concurrent requests, got {evals}");
        let first = &responses[0];
        prop_assert!(first.starts_with("OK "), "{first}");
        for r in &responses {
            prop_assert!(r == first, "responses diverged:\n{first}\n{r}");
        }
        let lookups = c.lookups.load(Ordering::Relaxed);
        let hits = c.hits.load(Ordering::Relaxed);
        let waits = c.waits.load(Ordering::Relaxed);
        prop_assert!(lookups == k as u64);
        prop_assert!(hits + evals + waits == lookups,
            "accounting identity broken: {lookups} != {hits}+{evals}+{waits}");
    }

    /// Snapshot + restart round-trips the shard store bit-exactly: a
    /// server restarted on the snapshotted cache answers the same
    /// requests with byte-identical responses, entirely from memory.
    #[test]
    fn snapshot_restore_round_trips_bit_exactly(
        n_points in 1usize..6,
        snap_pick in 0u32..2,
    ) {
        let snapshot_first = snap_pick == 1;
        let dir = scratch(&format!("snap-restore-{n_points}-{snapshot_first}"));
        let lines: Vec<String> = (0..n_points)
            .map(|i| format!("EVAL {} {} 3", 256 + 32 * (i % 3), 900 + 50 * i))
            .collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();

        let mut config = one_profile_config();
        config.cache_dir = Some(dir.clone());
        let (cold, restored) = Server::new(config.clone()).expect("cold open");
        prop_assert!(restored == 0);
        let (client_end, server_end) = pair();
        let (cold_responses, cold_records) = std::thread::scope(|s| {
            let server = &cold;
            s.spawn(move || server.handle(server_end));
            let mut client = Client::new(client_end);
            let responses = client.pipeline(&lines).expect("cold responses");
            if snapshot_first {
                let snap = client.request("SNAPSHOT").expect("snapshot");
                assert!(snap.starts_with("OK snapshot"), "{snap}");
            }
            (responses, format!("{:?}", server.store().records()))
        });
        prop_assert!(cold.counters().evals.load(Ordering::Relaxed) == n_points as u64);
        drop(cold); // no clean shutdown: ack => durable must suffice

        let (warm, restored) = Server::new(config).expect("warm open");
        prop_assert!(restored == warm.store().len());
        prop_assert!(format!("{:?}", warm.store().records()) == cold_records,
            "store did not round-trip bit-exactly");
        let (client_end, server_end) = pair();
        let warm_responses = std::thread::scope(|s| {
            let server = &warm;
            s.spawn(move || server.handle(server_end));
            let mut client = Client::new(client_end);
            client.pipeline(&lines).expect("warm responses")
        });
        prop_assert!(warm_responses == cold_responses,
            "responses diverged across restart");
        prop_assert!(warm.counters().evals.load(Ordering::Relaxed) == 0,
            "warm server re-evaluated instead of serving from the restored store");
    }
}

#[test]
fn pipelined_evals_fold_into_one_engine_dispatch() {
    let (server, _) = Server::new(one_profile_config()).expect("memory store");
    // Distinct points plus one in-batch duplicate.
    let lines = [
        "EVAL 256 900 2",
        "EVAL 288 1000 3",
        "EVAL 320 1100 3",
        "EVAL 256 900 2",
    ];
    let (client_end, server_end) = pair();
    let responses = std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.handle(server_end));
        let mut client = Client::new(client_end);
        client.pipeline(&lines).expect("responses")
    });
    assert_eq!(responses.len(), 4);
    assert_eq!(responses[0], responses[3], "duplicate point, same bytes");
    let c = server.counters();
    assert_eq!(
        c.batches.load(Ordering::Relaxed),
        1,
        "4 pipelined EVALs must cost one engine dispatch"
    );
    assert_eq!(
        c.batched_evals.load(Ordering::Relaxed),
        3,
        "3 unique points"
    );
    assert_eq!(c.evals.load(Ordering::Relaxed), 3);
    assert_eq!(c.hits.load(Ordering::Relaxed), 1, "the in-batch duplicate");
}

#[test]
fn overflowing_the_admission_queue_is_answered_busy() {
    let mut config = one_profile_config();
    config.queue_cap = 2;
    let (server, _) = Server::new(config).expect("memory store");
    // No worker pool is draining, so the queue fills and stays full.
    let mut rejected = Vec::new();
    for _ in 0..4 {
        let (client_end, server_end) = pair();
        if !server.submit(Box::new(server_end)) {
            rejected.push(client_end);
        }
    }
    assert_eq!(rejected.len(), 2, "third and fourth connections shed");
    for client_end in rejected {
        // The BUSY frame was written at rejection (before the server
        // dropped its end), so reading it must not block.
        let mut reader = ena_serve::FrameReader::new(client_end);
        let frame = reader.read_frame().expect("BUSY frame is well-formed");
        assert_eq!(frame.as_deref(), Some(b"BUSY".as_slice()));
        assert_eq!(reader.read_frame().expect("clean close"), None);
    }
    let c = server.counters();
    assert_eq!(c.busy.load(Ordering::Relaxed), 2);
    assert_eq!(c.connections.load(Ordering::Relaxed), 2);
}

#[test]
fn sweep_then_frontier_matches_the_batch_engine() {
    use ena_core::dse::DesignSpace;
    use ena_sweep::{pareto_frontier, SweepEngine, SweepSpec};

    let profiles = vec![profile_for("CoMD").expect("CoMD is a paper app")];
    let (server, _) =
        Server::new(ServeConfig::new(Explorer::default(), profiles.clone())).expect("memory store");
    let (client_end, server_end) = pair();
    let (sweep_body, frontier_body) = std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.handle(server_end));
        let mut client = Client::new(client_end);
        (
            client.request("SWEEP coarse").expect("sweep"),
            client.request("FRONTIER").expect("frontier"),
        )
    });
    assert!(sweep_body.starts_with("OK sweep points="), "{sweep_body}");

    // The frontier over the server's store equals the frontier the
    // batch engine computes over the same space.
    let spec = SweepSpec::new(DesignSpace::coarse(), profiles.clone());
    let outcome = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("batch sweep");
    let records: Vec<_> = server
        .store()
        .records()
        .into_iter()
        .map(|(_, r)| (*r).clone())
        .collect();
    let served = pareto_frontier(
        &records,
        &Explorer::default().score(&records, profiles.len()),
    );
    // The server's store is key-ordered while the batch engine walks the
    // space in grid order, so compare the frontiers as sets.
    let as_set = |frontier: &[ena_sweep::FrontierPoint]| -> std::collections::BTreeSet<String> {
        frontier.iter().map(|f| format!("{f:?}")).collect()
    };
    assert_eq!(as_set(&served), as_set(&outcome.frontier));
    assert!(
        frontier_body.starts_with(&format!("OK frontier n={}", served.len())),
        "{frontier_body}"
    );
}

#[test]
fn malformed_requests_get_err_and_the_connection_survives() {
    let (server, _) = Server::new(one_profile_config()).expect("memory store");
    let (client_end, server_end) = pair();
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.handle(server_end));
        let mut client = Client::new(client_end);
        let err = client.request("NOPE what").expect("response");
        assert!(err.starts_with("ERR "), "{err}");
        // Same connection keeps serving after a request-level error.
        let ok = client.request("EVAL 320 1000 3").expect("response");
        assert!(ok.starts_with("OK "), "{ok}");
        let stats = client.request("STATS").expect("response");
        assert!(stats.starts_with("OK stats"), "{stats}");
    });
    assert_eq!(server.counters().protocol_errors.load(Ordering::Relaxed), 1);
}

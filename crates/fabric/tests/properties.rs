//! Property and cross-process determinism tests for the inter-node
//! fabric.
//!
//! The headline properties:
//!
//! 1. **Single-failure survivability** — after any one node loss or any
//!    one physical link cut, every surviving EHP can still reach every
//!    other, on every shipped topology (the dual-homing / dual-rail /
//!    global-link wiring exists exactly for this).
//! 2. **Cross-process determinism** — the route table and collective
//!    schedules digest to the same value in two separate child
//!    processes, and the 64-node acceptance campaign (node loss +
//!    straggler with its embedded intra-node `DegradationReport` + link
//!    degradation) renders byte-identically across runs *and* processes.
//! 3. **Parallel == sequential** — the multi-node sweep's records and
//!    Pareto frontier are bit-identical to the sequential oracle for any
//!    job count and cache temperature.
//! 4. **Crash consistency** — seeded chaos campaigns (I/O faults plus
//!    worker kills) hold every cache invariant on both fabric axes.
//! 5. **Dense compile == map compile** — `schedule` and
//!    `schedule_with_retransmits` equal a per-round `BTreeMap` compile
//!    over the public `FabricGraph::route`, bit for bit, on degraded
//!    graphs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use ena_fabric::{
    estimate, run_multinode_campaign, schedule, schedule_with_retransmits, CollectiveKind,
    CollectiveSchedule, FabricError, FabricGraph, FabricKind, MultiNodeCampaignSpec,
    MultiNodeSpace, MultiNodeSweep, MultiNodeSweepSpec, RecoveryModel, RecoverySpace,
    RecoverySweep, RecoverySweepSpec, RetransmitModel, Round, ScaleOutSpec, Transfer,
};
use ena_model::hash::StableHasher;
use ena_model::units::Microseconds;
use ena_sweep::{
    run_chaos_campaign, Axis, CacheMode, ChaosReport, ChaosSpec, Failpoint, SweepError,
};
use ena_testkit::prelude::*;
use ena_testkit::process::assert_same_digest_across_processes;

fn any_kind() -> impl Strategy<Value = FabricKind> {
    prop_oneof![
        Just(FabricKind::FatTree),
        Just(FabricKind::Torus),
        Just(FabricKind::DragonflyLite),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole property: no single node failure partitions the
    /// survivors, on any topology at any size.
    #[test]
    fn any_single_node_loss_keeps_survivors_connected(
        kind in any_kind(),
        nodes in 2u32..65,
        victim_pick in 0u32..64,
    ) {
        let mut g = FabricGraph::build(kind, nodes).unwrap();
        let victim = victim_pick % nodes;
        if nodes > 1 {
            g.fail_ehp(victim).unwrap();
        }
        prop_assert!(
            g.all_ehp_mutually_reachable(),
            "{kind} x{nodes}: losing node {victim} partitioned the fleet"
        );
        prop_assert!(g.route_table().is_ok());
    }

    /// And no single *physical link* failure does either: every pair of
    /// vertices is joined by at least two link-disjoint paths.
    #[test]
    fn any_single_link_cut_keeps_survivors_connected(
        kind in any_kind(),
        nodes in 2u32..65,
        link_pick in 0usize..4096,
    ) {
        let healthy = FabricGraph::build(kind, nodes).unwrap();
        let links = healthy.physical_links();
        let (a, b) = links[link_pick % links.len()];
        let mut g = FabricGraph::build(kind, nodes).unwrap();
        let cut = g.fail_link_between(a, b).unwrap();
        prop_assert!(cut >= 2, "a physical link is at least one channel pair");
        prop_assert!(
            g.all_ehp_mutually_reachable(),
            "{kind} x{nodes}: cutting link {a}-{b} partitioned the fleet"
        );
    }

    /// Degrading a route slows collectives down monotonically but never
    /// disconnects anything.
    #[test]
    fn degradation_slows_but_never_partitions(
        kind in any_kind(),
        nodes in 4u32..33,
        a_pick in 0u32..64,
        b_pick in 0u32..64,
        percent in 1u32..100,
    ) {
        let a = a_pick % nodes;
        let b = b_pick % nodes;
        let b = if a == b { (b + 1) % nodes } else { b };
        let healthy = FabricGraph::build(kind, nodes).unwrap();
        let before = schedule(&healthy, CollectiveKind::AllToAll, 1e6).unwrap();
        let mut g = FabricGraph::build(kind, nodes).unwrap();
        g.degrade_route(a, b, percent).unwrap();
        let after = schedule(&g, CollectiveKind::AllToAll, 1e6).unwrap();
        prop_assert!(g.all_ehp_mutually_reachable());
        prop_assert!(after.total >= before.total);
    }

    /// The multi-node sweep is byte-identical to the sequential oracle
    /// for any job count (the satellite's parallel==sequential property).
    #[test]
    fn multinode_sweep_matches_sequential_oracle(jobs in 1usize..9) {
        let spec = MultiNodeSweepSpec::new(
            MultiNodeSpace {
                node_counts: vec![2, 4, 8],
                kinds: FabricKind::ALL.to_vec(),
            },
            ScaleOutSpec::standard("CoMD"),
        );
        let sequential = MultiNodeSweep::new().run(&spec).unwrap();
        let mut parallel_spec = spec;
        parallel_spec.run.jobs = jobs;
        let parallel = MultiNodeSweep::new().run(&parallel_spec).unwrap();
        prop_assert_eq!(&parallel.records, &sequential.records);
        prop_assert_eq!(&parallel.frontier, &sequential.frontier);
    }
}

/// The map compile `schedule` replaced, kept as its oracle: routes from
/// the public `FabricGraph::route`, each round's bytes per channel in a
/// `BTreeMap`, and the peak re-summed from the sealed rounds' routes.
fn oracle_schedule(
    graph: &FabricGraph,
    kind: CollectiveKind,
    bytes_per_node: f64,
) -> Result<CollectiveSchedule, FabricError> {
    fn transfer(
        graph: &FabricGraph,
        loads: &mut BTreeMap<usize, f64>,
        src: usize,
        dst: usize,
        bytes: f64,
    ) -> Result<Transfer, FabricError> {
        let route = graph.route(src, dst)?;
        for &li in &route {
            *loads.entry(li).or_insert(0.0) += bytes;
        }
        Ok(Transfer {
            src,
            dst,
            bytes,
            route,
        })
    }
    fn seal(
        graph: &FabricGraph,
        transfers: Vec<Transfer>,
        loads: &BTreeMap<usize, f64>,
        repeat: u64,
    ) -> Round {
        let mut serialization_us: f64 = 0.0;
        for (&li, &bytes) in loads {
            let gbps = graph.channel_gbps(li);
            if gbps > 0.0 {
                serialization_us = serialization_us.max(bytes / (gbps * 1e3));
            }
        }
        let mut latency_us: f64 = 0.0;
        for t in &transfers {
            let route_latency: f64 = t
                .route
                .iter()
                .filter_map(|&li| graph.links().get(li))
                .map(|l| l.latency.value())
                .sum();
            latency_us = latency_us.max(route_latency);
        }
        Round {
            transfers,
            serialization_us,
            latency_us,
            repeat,
        }
    }
    let alive = graph.alive_ehp();
    let n = alive.len();
    let mut rounds = Vec::new();
    if n >= 2 {
        match kind {
            CollectiveKind::AllReduceRing => {
                let chunk = bytes_per_node / n as f64;
                let mut loads = BTreeMap::new();
                let mut transfers = Vec::new();
                for (i, &src) in alive.iter().enumerate() {
                    let dst = alive[(i + 1) % n];
                    transfers.push(transfer(graph, &mut loads, src, dst, chunk)?);
                }
                rounds.push(seal(graph, transfers, &loads, 2 * (n as u64 - 1)));
            }
            CollectiveKind::HaloExchange => {
                for step in 0..2usize {
                    let mut loads = BTreeMap::new();
                    let mut transfers = Vec::new();
                    for (i, &src) in alive.iter().enumerate() {
                        let dst = if step == 0 {
                            alive[(i + 1) % n]
                        } else {
                            alive[(i + n - 1) % n]
                        };
                        transfers.push(transfer(graph, &mut loads, src, dst, bytes_per_node)?);
                    }
                    rounds.push(seal(graph, transfers, &loads, 1));
                }
            }
            CollectiveKind::AllToAll => {
                let slice = bytes_per_node / (n as f64 - 1.0);
                let mut loads = BTreeMap::new();
                let mut transfers = Vec::new();
                for &src in &alive {
                    for &dst in &alive {
                        if src != dst {
                            transfers.push(transfer(graph, &mut loads, src, dst, slice)?);
                        }
                    }
                }
                rounds.push(seal(graph, transfers, &loads, 1));
            }
        }
    }
    let total: f64 = rounds.iter().map(|r| r.step_us() * r.repeat as f64).sum();
    let peak_link_bytes = rounds.iter().map(round_peak).fold(0.0f64, f64::max);
    Ok(CollectiveSchedule {
        kind,
        rounds,
        total: Microseconds::new(total),
        peak_link_bytes,
    })
}

/// Most bytes any one channel carries in `round`, re-summed from its
/// routes through a `BTreeMap`.
fn round_peak(round: &Round) -> f64 {
    let mut loads = BTreeMap::new();
    for t in &round.transfers {
        for &li in &t.route {
            *loads.entry(li).or_insert(0.0) += t.bytes;
        }
    }
    loads.into_values().fold(0.0f64, f64::max)
}

/// The oracle of `schedule_with_retransmits` on top of an oracle
/// schedule: each round stretched by the retransmit cost at its
/// re-summed peak.
fn oracle_priced(mut s: CollectiveSchedule, model: &RetransmitModel) -> CollectiveSchedule {
    if model.errors_per_gb <= 0.0 {
        return s;
    }
    for round in &mut s.rounds {
        let p = model.failure_probability(round_peak(round));
        round.serialization_us *= model.expected_transmissions(p);
        round.latency_us += model.expected_backoff_us(p);
    }
    s.total = Microseconds::new(s.rounds.iter().map(|r| r.step_us() * r.repeat as f64).sum());
    s
}

/// Applies up to three seeded degradations: node losses, physical link
/// cuts and degraded round trips. A refused loss (the last survivor) or
/// a partitioning cut is kept as it lands; both compiles must then fail
/// alike.
fn degrade(g: &mut FabricGraph, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rng.random_range(0..=3usize) {
        let alive = g.alive_ehp();
        let pick = alive[rng.random_range(0..alive.len())];
        let links = g.physical_links();
        match rng.random_range(0..3u32) {
            0 => {
                let _ = g.fail_ehp(pick as u32);
            }
            1 if !links.is_empty() => {
                let (a, b) = links[rng.random_range(0..links.len())];
                g.fail_link_between(a, b).unwrap();
            }
            _ => {
                let other = alive[rng.random_range(0..alive.len())];
                let percent = rng.random_range(1..100u32);
                let _ = g.degrade_route(pick as u32, other as u32, percent);
            }
        }
    }
}

/// Payloads per node: zero, negative, sub-byte, and collective-sized.
const PAYLOADS: [f64; 5] = [0.0, -3.5e5, 0.75, 1e6, 8e9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The dense compile equals the map compile bit for bit: schedules,
    /// digests and retransmit-priced schedules, on random kinds and sizes
    /// under up to three random degradations, or the same routing error.
    #[test]
    fn schedules_match_the_map_compile_oracle(
        kind in any_kind(),
        nodes in 2u32..71,
        seed in 0u64..u64::MAX,
    ) {
        let mut g = FabricGraph::build(kind, nodes).unwrap();
        degrade(&mut g, seed);
        let retransmits = RetransmitModel::standard();
        let shown = |r: Result<CollectiveSchedule, FabricError>| r.map_err(|e| e.to_string());
        for collective in CollectiveKind::ALL {
            for bytes in PAYLOADS {
                let oracle = shown(oracle_schedule(&g, collective, bytes));
                let priced = oracle.clone().map(|s| oracle_priced(s, &retransmits));
                let dense = shown(schedule(&g, collective, bytes));
                let dense_priced =
                    shown(schedule_with_retransmits(&g, collective, bytes, &retransmits));
                for (what, dense, oracle) in
                    [("plain", dense, oracle), ("retransmit", dense_priced, priced)]
                {
                    prop_assert!(
                        dense == oracle,
                        "{kind} x{nodes} {collective} {bytes} B ({what}): \
                         the dense compile differs from the map compile"
                    );
                    if let (Ok(dense), Ok(oracle)) = (&dense, &oracle) {
                        prop_assert_eq!(dense.digest(), oracle.digest());
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fabric axes run under the node axis's supervision: a point
    /// whose evaluation panics on every attempt quarantines its chunk,
    /// and every other record equals a clean run's.
    #[test]
    fn a_panicking_multinode_point_is_quarantined(victim in 0usize..18, jobs in 1usize..4) {
        let mut spec =
            MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"));
        spec.run.jobs = jobs;
        let clean = MultiNodeSweep::new().run(&spec).unwrap();
        let campaign = spec.campaign_digest();
        let poisoned = spec.point_key(campaign, &spec.space.points()[victim]);
        let failpoint: Failpoint =
            Arc::new(move |key| assert!(key != poisoned, "poisoned point {key:#x}"));
        let outcome = MultiNodeSweep::new()
            .with_failpoint(failpoint)
            .run(&spec)
            .expect("a caught panic quarantines instead of failing the sweep");

        prop_assert_eq!(outcome.quarantine.entries.len(), 1);
        let entry = &outcome.quarantine.entries[0];
        prop_assert_eq!(entry.chunk_index, victim / spec.run.chunk_points);
        prop_assert!(entry.keys.contains(&poisoned));
        prop_assert!(entry.message.contains("poisoned point"), "{}", entry.message);
        let survivors: Vec<_> = clean
            .records
            .iter()
            .filter(|r| !entry.keys.contains(&spec.point_key(campaign, &r.point)))
            .cloned()
            .collect();
        prop_assert_eq!(&outcome.records, &survivors);
        prop_assert_eq!(outcome.fresh_evals, survivors.len());
    }

    /// Stopping a recovery sweep after `k` fresh points checkpoints
    /// exactly those `k`: a fresh engine resumes from disk with `k` hits
    /// and reproduces the uninterrupted run.
    #[test]
    fn an_interrupted_recovery_sweep_resumes_from_its_checkpoint(k in 1usize..30) {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("recovery-resume-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = RecoverySweepSpec::new(
            RecoverySpace::standard(),
            ScaleOutSpec::standard("CoMD"),
            RecoveryModel::new(96.0, 3.0),
        );
        spec.run.jobs = 2;
        let uninterrupted = RecoverySweep::new().run(&spec).unwrap();

        spec.run.cache = CacheMode::Disk(dir.clone());
        let mut limited = spec.clone();
        limited.run.fresh_limit = Some(k);
        match RecoverySweep::new().run(&limited) {
            Err(SweepError::Interrupted { completed, remaining }) => {
                prop_assert_eq!(completed, k);
                prop_assert_eq!(completed + remaining, 30);
            }
            other => prop_assert!(false, "expected interruption, got {other:?}"),
        }

        let resumed = RecoverySweep::new().run(&spec).unwrap();
        prop_assert_eq!(resumed.cache_hits, k);
        prop_assert_eq!(resumed.fresh_evals, 30 - k);
        prop_assert_eq!(&resumed.records, &uninterrupted.records);
        prop_assert_eq!(&resumed.frontier, &uninterrupted.frontier);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Runs the seeded chaos campaign on `axis`; `Ok` means every invariant
/// held (parseable caches, no acknowledged record lost, a clean resume
/// that reproduces the fault-free frontier).
fn chaos<A>(axis: &A, spec: &ChaosSpec) -> ChaosReport
where
    A: Axis + Clone,
    A::Error: std::fmt::Display,
    A::Frontier: std::fmt::Debug,
{
    let report = run_chaos_campaign(axis, spec)
        .unwrap_or_else(|e| panic!("seed {:#x}: invariant violated: {e}", spec.seed));
    assert_eq!(report.runs.len(), 3);
    assert!(report.final_recovered <= report.total_points);
    assert!(report.render().ends_with(
        "invariants: all hold (caches parseable, no acknowledged record lost, \
         frontier == fault-free)\n"
    ));
    report
}

/// Both fabric axes get the node axis's chaos campaign: across seeds and
/// job counts every invariant holds, and a single-worker campaign
/// replays its report exactly.
#[test]
fn chaos_campaigns_hold_every_invariant_on_both_fabric_axes() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fabric-chaos");
    let multinode =
        MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"));
    let recovery = RecoverySweepSpec::new(
        RecoverySpace::standard(),
        ScaleOutSpec::standard("CoMD"),
        RecoveryModel::new(96.0, 3.0),
    );
    let mut reports = Vec::new();
    for seed in [0xC0FFEE, 1, 2, 3, 4, 5, 6, 7] {
        let spec = ChaosSpec {
            seed,
            runs: 3,
            ..ChaosSpec::new(dir.clone())
        };
        for jobs in [1, 2] {
            let mut m = multinode.clone();
            m.run.jobs = jobs;
            let mut r = recovery.clone();
            r.run.jobs = jobs;
            let (m_report, r_report) = (chaos(&m, &spec), chaos(&r, &spec));
            assert_eq!(
                (m_report.record, m_report.total_points),
                ("multinode/1", 18)
            );
            assert_eq!((r_report.record, r_report.total_points), ("recovery/1", 30));
            if jobs == 1 {
                assert_eq!(
                    chaos(&m, &spec),
                    m_report,
                    "seed {seed:#x}: multinode replay"
                );
                assert_eq!(
                    chaos(&r, &spec),
                    r_report,
                    "seed {seed:#x}: recovery replay"
                );
            }
            reports.extend([m_report, r_report]);
        }
    }
    // The campaigns are not vacuous: faults landed, runs failed, and the
    // supervisor quarantined chunks somewhere along the way.
    let runs = || reports.iter().flat_map(|r| &r.runs);
    assert!(runs().any(|run| run.fs_faults_injected > 0));
    assert!(runs().any(|run| run.outcome.starts_with("failed")));
    assert!(runs().any(|run| run.outcome.contains("quarantined")));
}

/// Digest of the route tables and collective schedules of every shipped
/// topology at a fixed size: any iteration-order nondeterminism in
/// wiring, routing, or scheduling lands in this value.
fn fabric_digest() -> u64 {
    let mut h = StableHasher::new();
    for kind in FabricKind::ALL {
        let g = FabricGraph::build(kind, 24).unwrap();
        h.write_u64(g.route_table_digest().unwrap());
        for collective in CollectiveKind::ALL {
            h.write_u64(schedule(&g, collective, 4e6).unwrap().digest());
        }
    }
    h.finish()
}

/// Satellite invariant: route tables and collective schedules are
/// identical across two *separate process* runs (fresh address space).
/// The test re-executes its own binary twice in digest mode and compares
/// the printed digests with each other and with the in-process value.
#[test]
fn route_table_and_schedule_are_identical_across_processes() {
    assert_same_digest_across_processes(
        "route_table_and_schedule_are_identical_across_processes",
        fabric_digest,
    );
}

/// Acceptance criterion: the seeded 64-node campaign (node loss +
/// straggler + link degradation) renders byte-identically across two
/// runs in this process *and* two child processes. The render embeds the
/// straggler's full intra-node `DegradationReport`, so its byte identity
/// is covered by the same comparison.
#[test]
fn acceptance_campaign_is_byte_identical_across_processes() {
    let render = || {
        run_multinode_campaign(&MultiNodeCampaignSpec::standard(0xC0FFEE))
            .unwrap()
            .render()
    };

    // Two in-process runs: byte identity of the full report.
    let first = render();
    assert_eq!(first, render(), "same seed must render identical bytes");
    assert!(first.contains("ENA fault-injection campaign"));

    // Two child processes: digest identity.
    assert_same_digest_across_processes(
        "acceptance_campaign_is_byte_identical_across_processes",
        || {
            let mut h = StableHasher::new();
            h.write_str(&first);
            h.finish()
        },
    );
}

/// A warm disk cache replays the cold run's bytes exactly, across engine
/// instances (checkpoint/resume for the multi-node axis).
#[test]
fn multinode_disk_cache_round_trips_bit_exactly() {
    let dir = std::env::temp_dir().join("ena-fabric-props-disk-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec =
        MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"));
    spec.run.jobs = 2;
    spec.run.cache = CacheMode::Disk(dir.clone());
    let cold = MultiNodeSweep::new().run(&spec).unwrap();
    assert_eq!(cold.cache_hits, 0);
    let warm = MultiNodeSweep::new().run(&spec).unwrap();
    assert_eq!(warm.cache_hits, warm.total_points);
    assert_eq!(warm.records, cold.records);
    assert_eq!(warm.frontier, cold.frontier);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The campaign's straggler estimates agree with a direct scale-out
/// estimate given the same slowdown map: the campaign adds no hidden
/// state.
#[test]
fn campaign_steps_are_reproducible_from_first_principles() {
    let report = run_multinode_campaign(&MultiNodeCampaignSpec::standard(7)).unwrap();
    let spec = MultiNodeCampaignSpec::standard(7);
    // Rebuild the final fabric state by hand.
    let mut g = FabricGraph::build(spec.kind, spec.nodes).unwrap();
    let mut stragglers = BTreeMap::new();
    for step in &report.steps {
        use ena_faults::NodeFaultKind;
        match step.event.kind {
            NodeFaultKind::NodeLoss(n) => {
                g.fail_ehp(n).unwrap();
            }
            NodeFaultKind::Straggler(n) => {
                stragglers.insert(n, step.slowdown.unwrap());
            }
            NodeFaultKind::LinkDegradation { a, b, percent } => {
                g.degrade_route(a, b, percent).unwrap();
            }
        }
    }
    let direct = estimate(&g, &spec.scaleout, &stragglers).unwrap();
    assert_eq!(&direct, report.final_estimate());
}

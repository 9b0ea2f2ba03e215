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
//!    job count, and on every sweep axis (node, multinode, recovery) a
//!    panicking point quarantines only its chunk.
//! 4. **Dense compile == map compile** — `schedule` and
//!    `schedule_with_retransmits` equal a per-round `BTreeMap` compile
//!    over the public `FabricGraph::route`, bit for bit, on degraded
//!    graphs.
//! 5. **Ordered frontier scan == all-pairs scan** — `ena_sweep::frontier`
//!    returns exactly the indices an all-pairs dominance scan keeps, for
//!    the node, multinode and recovery axes' relations, on random sets
//!    with duplicate points, ties on every objective, signed zeros,
//!    infinities and NaNs.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use ena_core::dse::{ConfigPoint, DesignSpace, Explorer};
use ena_fabric::{
    estimate, run_multinode_campaign, schedule, schedule_with_retransmits, CollectiveKind,
    CollectiveSchedule, FabricError, FabricGraph, FabricKind, MultiNodeCampaignSpec,
    MultiNodeSpace, MultiNodeSweep, MultiNodeSweepSpec, RecoveryModel, RecoverySpace,
    RecoverySweepSpec, RetransmitModel, Round, ScaleOutSpec, Transfer,
};
use ena_fabric::{MultiNodePoint, MultiNodeRecord, RecoveryPoint, RecoveryRecord};
use ena_model::hash::StableHasher;
use ena_model::units::{GigabytesPerSec, Megahertz, Microseconds};
use ena_sweep::{frontier, Axis, Driver, Failpoint, FrontierPoint, NodeAxis, SweepSpec};
use ena_testkit::prelude::*;
use ena_testkit::process::assert_same_digest_across_processes;
use ena_workloads::paper_profiles;

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
        // Beside the random draw, every link of every 2-node fabric: a
        // draw seldom lands there, and there the torus and dragonfly
        // dual-rail their one pair.
        let mut cuts = vec![(kind, nodes, link_pick)];
        for kind in FabricKind::ALL {
            let links = FabricGraph::build(kind, 2).unwrap().physical_links();
            cuts.extend((0..links.len()).map(|pick| (kind, 2, pick)));
        }
        for (kind, nodes, link_pick) in cuts {
            let healthy = FabricGraph::build(kind, nodes).unwrap();
            let links = healthy.physical_links();
            let (a, b) = links[link_pick % links.len()];
            let mut g = FabricGraph::build(kind, nodes).unwrap();
            let cut = g.fail_link_between(a, b).unwrap();
            prop_assert!(cut == 2, "a physical link is one channel pair");
            prop_assert!(
                g.all_ehp_mutually_reachable(),
                "{kind} x{nodes}: cutting link {a}-{b} partitioned the fleet"
            );
        }
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

/// Runs `axis` clean, then once per victim with a failpoint that panics
/// at that grid index: at `victim` (taken modulo the grid size) and at
/// the last point, whose chunk is short when the chunk size does not
/// divide the grid. Checks that the driver quarantines exactly the
/// victim's chunk, names its grid range, and returns every other record
/// as the clean run did.
fn victim_chunk_is_quarantined<A>(axis: &A, victim: usize) -> Result<(), TestCaseError>
where
    A: Axis,
    A::Record: Clone + PartialEq + Debug,
    A::Error: Debug,
{
    let clean = Driver::new().run(axis).expect("a clean run completes");
    let total = clean.total_points;
    let chunk_points = axis.options().chunk_points;
    for victim in [victim % total, total - 1] {
        let failpoint: Failpoint =
            Arc::new(move |index| assert!(index != victim, "poisoned point {index}"));
        let outcome = Driver::new()
            .with_failpoint(failpoint)
            .run(axis)
            .expect("a caught panic quarantines instead of failing the sweep");

        let chunk = victim / chunk_points;
        let grid = chunk * chunk_points..total.min((chunk + 1) * chunk_points);
        prop_assert_eq!(outcome.quarantine.entries.len(), 1);
        let entry = &outcome.quarantine.entries[0];
        prop_assert_eq!(entry.chunk_index, chunk);
        prop_assert_eq!(&entry.grid, &grid);
        prop_assert_eq!(entry.attempts, 4);
        prop_assert!(
            entry.message.contains("poisoned point"),
            "{}",
            entry.message
        );
        let survivors: Vec<A::Record> = clean
            .records
            .iter()
            .enumerate()
            .filter(|(index, _)| !grid.contains(index))
            .map(|(_, record)| record.clone())
            .collect();
        prop_assert_eq!(&outcome.records, &survivors);
        prop_assert_eq!(outcome.fresh_evals, survivors.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every axis runs under the one driver's supervision: a point whose
    /// evaluation panics on every attempt quarantines its chunk, and
    /// only its chunk. On the recovery axis the panic can strike the
    /// point that would have computed its node count's shared fleet
    /// estimate; another point of that count computes it instead.
    #[test]
    fn a_panicking_point_quarantines_only_its_chunk_on_every_axis(
        victim in 0usize..4096,
        chunk_points in 1usize..9,
        jobs in 1usize..4,
    ) {
        let mut node = NodeAxis {
            explorer: Explorer::default(),
            spec: SweepSpec::new(DesignSpace::coarse(), paper_profiles()),
        };
        node.spec.run.jobs = jobs;
        node.spec.run.chunk_points = chunk_points;
        victim_chunk_is_quarantined(&node, victim)?;

        let mut multinode =
            MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"));
        multinode.run.jobs = jobs;
        multinode.run.chunk_points = chunk_points;
        victim_chunk_is_quarantined(&multinode, victim)?;

        let mut recovery = RecoverySweepSpec::new(
            RecoverySpace::standard(),
            ScaleOutSpec::standard("CoMD"),
            RecoveryModel::new(96.0, 3.0),
        );
        recovery.run.jobs = jobs;
        recovery.run.chunk_points = chunk_points;
        victim_chunk_is_quarantined(&recovery, victim)?;
    }
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

/// Objective values drawn for the frontier property: few enough that
/// duplicates and per-objective ties are common, with both zeros.
const OBJECTIVE_VALUES: [f64; 8] = [
    f64::NEG_INFINITY,
    -1.0,
    -0.0,
    0.0,
    0.5,
    1.0,
    f64::INFINITY,
    f64::NAN,
];

/// The all-pairs oracle: the indices of `items` no other item
/// dominates, in input order.
fn all_pairs_frontier<T>(items: &[T], dominates: impl Fn(&T, &T) -> bool) -> Vec<usize> {
    (0..items.len())
        .filter(|&i| !items.iter().any(|other| dominates(other, &items[i])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_ordered_frontier_scan_matches_the_all_pairs_oracle(
        picks in ena_testkit::collection::vec((0usize..8, 0usize..8, 0usize..8), 0..24),
    ) {
        let v = |i: usize| OBJECTIVE_VALUES[i];

        // Node axis: score up, peak power down, peak temperature down.
        let node: Vec<FrontierPoint> = picks
            .iter()
            .map(|&(a, b, c)| FrontierPoint {
                point: ConfigPoint {
                    cus: 320,
                    clock: Megahertz::new(1000.0),
                    bandwidth: GigabytesPerSec::new(3000.0),
                },
                score: v(a),
                peak_power_w: v(b),
                peak_dram_c: v(c),
            })
            .collect();
        let node_oracle = all_pairs_frontier(&node, |x, y| {
            let no_worse = x.score >= y.score
                && x.peak_power_w <= y.peak_power_w
                && x.peak_dram_c <= y.peak_dram_c;
            let better = x.score > y.score
                || x.peak_power_w < y.peak_power_w
                || x.peak_dram_c < y.peak_dram_c;
            no_worse && better
        });
        prop_assert_eq!(frontier(&node, FrontierPoint::objectives), node_oracle);

        // Multinode axis: exaflops up, efficiency up, power down.
        let multinode: Vec<MultiNodeRecord> = picks
            .iter()
            .map(|&(a, b, c)| MultiNodeRecord {
                point: MultiNodePoint {
                    nodes: 8,
                    kind: FabricKind::Torus,
                },
                exaflops: v(a),
                efficiency: v(b),
                power_mw: v(c),
                comm_us: 0.0,
            })
            .collect();
        let multinode_oracle = all_pairs_frontier(&multinode, |x, y| {
            let no_worse = x.exaflops >= y.exaflops
                && x.efficiency >= y.efficiency
                && x.power_mw <= y.power_mw;
            let better = x.exaflops > y.exaflops
                || x.efficiency > y.efficiency
                || x.power_mw < y.power_mw;
            no_worse && better
        });
        prop_assert_eq!(
            frontier(&multinode, MultiNodeRecord::objectives),
            multinode_oracle
        );

        // Recovery axis: recovered throughput up, simulated efficiency up.
        let recovery: Vec<RecoveryRecord> = picks
            .iter()
            .map(|&(a, b, _)| RecoveryRecord {
                point: RecoveryPoint {
                    nodes: 8,
                    interval_scale_pct: 100,
                },
                interval_hours: 1.0,
                analytic: 1.0,
                simulated: v(b),
                recovered_exaflops: v(a),
            })
            .collect();
        let recovery_oracle = all_pairs_frontier(&recovery, |x, y| {
            let no_worse =
                x.recovered_exaflops >= y.recovered_exaflops && x.simulated >= y.simulated;
            let better =
                x.recovered_exaflops > y.recovered_exaflops || x.simulated > y.simulated;
            no_worse && better
        });
        prop_assert_eq!(
            frontier(&recovery, RecoveryRecord::objectives),
            recovery_oracle
        );
    }
}

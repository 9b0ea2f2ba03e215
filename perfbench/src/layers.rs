//! The layer census of a traced run: calls into each simulator crate's
//! public functions at the exact inputs the paper experiments use, each
//! call wrapped in a span. Counts are simulated statistics, so they
//! repeat exactly; times are host time.

use ena_bench::experiments::context::DSE_MISS_FRACTION;
use ena_core::dse::{DesignSpace, Explorer};
use ena_core::node::{EvalOptions, NodeSimulator};
use ena_gpu::backend::{FixedLatency, HbmBackend};
use ena_gpu::sim::{CuConfig, GpuSim};
use ena_gpu::synth::wavefronts_for;
use ena_hsa::runtime::{Runtime, RuntimeConfig};
use ena_hsa::sync::SyncModel;
use ena_hsa::task::{TaskCost, TaskGraph};
use ena_memory::hbm::{Direction, HbmStack};
use ena_memory::interleave::{AddressMap, Tier};
use ena_memory::policy::{
    run_policy, HardwareCache, PlacementPolicy, SetAssociativeCache, SoftwareManaged,
    StaticPlacement,
};
use ena_model::config::EhpConfig;
use ena_noc::sim::NocSim;
use ena_noc::topology::Topology;
use ena_noc::traffic::WorkloadTraffic;
use ena_workloads::apps::all_apps;
use ena_workloads::trace::AccessKind;
use ena_workloads::{paper_profiles, KernelRun, RunConfig};

use crate::trace::{Trace, Tracer};
use crate::util::{median, Metrics};

/// Explorations timed for `core.explore_ms`.
const EXPLORE_REPS: usize = 3;

/// Runs every layer once and returns the layer metrics.
pub fn census(tracer: &Tracer) -> Result<Metrics, String> {
    let t = Trace(Some(tracer));
    let total = |name: &str| tracer.self_times(name).iter().sum::<f64>();
    let mut m = Metrics::default();
    let solves = thermal(t)?;
    m.push(
        "thermal.solve_ms",
        median(&tracer.self_times("thermal.solve")),
        "ms",
    );
    m.push("thermal.solves", solves as f64, "count");

    let cycles = gpu(t);
    m.push("gpu.run_ms", total("gpu.run"), "ms");
    m.push("gpu.cycles", cycles as f64, "count");

    let runs = workloads(t);
    m.push("workloads.trace_ms", total("workloads.trace"), "ms");

    let accesses = memory(t, &runs)?;
    let replay = total("memory.policy") + total("memory.hbm");
    m.push("memory.replay_ms", replay, "ms");
    m.push("memory.accesses", accesses as f64, "count");

    let delivered = noc(t);
    m.push("noc.run_ms", total("noc.run"), "ms");
    m.push("noc.delivered", delivered as f64, "count");

    hsa(t)?;
    m.push("hsa.execute_ms", total("hsa.execute"), "ms");

    core(t)?;
    m.push(
        "core.explore_ms",
        median(&tracer.self_times("core.explore")),
        "ms",
    );
    m.push(
        "core.point_us",
        1e3 * median(&tracer.self_times("core.point")),
        "us",
    );
    Ok(m)
}

/// `NodeSimulator::thermal` at the fig10 configurations (best-mean and
/// each app's oracle, for every app) and the fig11 ones (SNAP at both).
fn thermal(t: Trace<'_>) -> Result<usize, String> {
    let sim = NodeSimulator::new();
    let profiles = paper_profiles();
    let dse = Explorer::default()
        .explore(&DesignSpace::coarse(), &profiles)
        .map_err(|e| e.to_string())?;
    let options = EvalOptions::with_miss_fraction(DSE_MISS_FRACTION);
    let oracle = |app: &str| {
        dse.per_app
            .iter()
            .find(|a| a.app == app)
            .map(|a| a.point)
            .ok_or(format!("{app} missing from the exploration"))
    };
    let mut jobs = Vec::new();
    for p in &profiles {
        jobs.push((dse.best_mean, p));
        jobs.push((oracle(&p.name)?, p));
    }
    let snap = profiles
        .iter()
        .find(|p| p.name == "SNAP")
        .ok_or("SNAP missing from the suite")?;
    jobs.push((dse.best_mean, snap));
    jobs.push((oracle("SNAP")?, snap));

    for (point, profile) in &jobs {
        let config = point.try_to_config().map_err(|e| e.to_string())?;
        let eval = sim.evaluate(&config, profile, &options);
        t.span("thermal.solve", None, None, |_| sim.thermal(&config, &eval))
            .map_err(|e| format!("thermal solve: {e:?}"))?;
    }
    Ok(jobs.len())
}

/// `GpuSim::run` on the validation inputs, over both memory backends.
/// Returns the simulated cycles.
fn gpu(t: Trace<'_>) -> u64 {
    let mut cycles = 0;
    for p in paper_profiles() {
        let wavefronts = wavefronts_for(&p, 24, 0xABCD);
        let mut fixed = FixedLatency::new(170, 7);
        let input = wavefronts.clone();
        let stats = t.span("gpu.run", None, None, |_| {
            GpuSim::new(CuConfig::default(), &mut fixed).run(input)
        });
        cycles += stats.cycles;
        let mut banked = HbmBackend::new(8);
        let stats = t.span("gpu.run", None, None, |_| {
            GpuSim::new(CuConfig::default(), &mut banked).run(wavefronts)
        });
        cycles += stats.cycles;
    }
    cycles
}

/// Each proxy app's `run` at the table1 `RunConfig`.
fn workloads(t: Trace<'_>) -> Vec<(&'static str, KernelRun)> {
    let cfg = RunConfig::small();
    all_apps()
        .iter()
        .map(|app| {
            let run = t.span("workloads.trace", None, None, |_| app.run(&cfg));
            (app.name(), run)
        })
        .collect()
}

/// The ablations' memory-layer replays: placement policies
/// (`run_policy`) and the per-app row-buffer study (`HbmStack::service`).
/// Returns the accesses replayed.
fn memory(t: Trace<'_>, runs: &[(&'static str, KernelRun)]) -> Result<u64, String> {
    let run = |name: &str| {
        runs.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| r)
            .ok_or(format!("{name} missing from the suite"))
    };
    let stream = |r: &KernelRun| {
        r.trace
            .accesses()
            .iter()
            .map(|a| (a.addr, a.kind == AccessKind::Write))
            .collect::<Vec<_>>()
    };
    let mut accesses = 0;

    // Migration epochs on XSBench at capacity = footprint / 4.
    let xs = run("XSBench")?;
    let xs_stream = stream(xs);
    let capacity = (xs.trace.footprint_bytes() / 4).max(16 * 4096);
    for epoch in [500u64, 2_000, 10_000, 50_000] {
        let mut policy = SoftwareManaged::new(capacity);
        let stats = t.span("memory.policy", None, None, |_| {
            run_policy(&mut policy, xs_stream.iter().copied(), epoch)
        });
        accesses += stats.accesses;
    }

    // Placement policies on SNAP at capacity = footprint / 2.
    let snap = run("SNAP")?;
    let snap_stream = stream(snap);
    let capacity = (snap.trace.footprint_bytes() / 2).max(64 * 4096);
    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(StaticPlacement::new(0.5)),
        Box::new(SoftwareManaged::new(capacity)),
        Box::new(HardwareCache::new(capacity)),
        Box::new(SetAssociativeCache::new(capacity, 8)),
    ];
    for mut policy in policies {
        let stats = t.span("memory.policy", None, None, |_| {
            run_policy(policy.as_mut(), snap_stream.iter().copied(), 5_000)
        });
        accesses += stats.accesses;
    }

    // Row-buffer hit rates: stack 0's share of every app's trace.
    let map = AddressMap::new(8, 32 << 30, 4096);
    for (_, r) in runs {
        accesses += t.span("memory.hbm", None, None, |_| {
            let mut stack = HbmStack::with_defaults();
            let (mut cycle, mut serviced) = (0, 0u64);
            for a in r.trace.accesses() {
                let folded = a.addr % map.in_package_bytes();
                if let Tier::InPackage { stack: 0, offset } = map.locate(folded) {
                    let dir = if a.kind == AccessKind::Write {
                        Direction::Write
                    } else {
                        Direction::Read
                    };
                    cycle += 4;
                    stack.service(offset, 64, dir, cycle);
                    serviced += 1;
                }
            }
            serviced
        });
    }
    Ok(accesses)
}

/// `NocSim::run` at the fig7 topologies (chiplet and monolithic, every
/// app's traffic). Returns the packets delivered.
fn noc(t: Trace<'_>) -> u64 {
    let config = EhpConfig::paper_baseline();
    let (gpus, cpus) = (config.gpu.chiplets, config.cpu.chiplets);
    let mut delivered = 0;
    for p in paper_profiles() {
        let traffic = WorkloadTraffic::from_profile(&p, 0xF167);
        for topo in [Topology::ehp(gpus, cpus), Topology::monolithic(gpus, cpus)] {
            let packets = traffic.generate(&topo, 3000);
            let stats = t.span("noc.run", None, None, |_| NocSim::new(&topo).run(&packets));
            delivered += stats.delivered;
        }
    }
    delivered
}

/// `Runtime::execute` on the substrates graphs: the offload-granularity
/// sweep under both dispatch paths and the ping-pong under both memory
/// models.
fn hsa(t: Trace<'_>) -> Result<(), String> {
    let err = |e: ena_hsa::task::GraphError| e.to_string();
    for k in [1u32, 8, 64, 512, 4096] {
        let mut g = TaskGraph::new();
        let pre = g.add("pre", TaskCost::cpu(10.0), &[]).map_err(err)?;
        let kernels = (0..k)
            .map(|i| {
                g.add(
                    format!("k{i}"),
                    TaskCost::gpu(40_000.0 / f64::from(k)),
                    &[pre],
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        g.add("post", TaskCost::cpu(10.0), &kernels).map_err(err)?;
        for cfg in [RuntimeConfig::hsa(), RuntimeConfig::legacy_driver()] {
            t.span("hsa.execute", None, None, |_| Runtime::new(cfg).execute(&g));
        }
    }
    let mut g = TaskGraph::new();
    let mut prev = g.add("c", TaskCost::cpu(3.0), &[]).map_err(err)?;
    for i in 0..200 {
        let cost = if i % 2 == 0 {
            TaskCost::gpu(3.0)
        } else {
            TaskCost::cpu(3.0)
        };
        prev = g.add(format!("t{i}"), cost, &[prev]).map_err(err)?;
    }
    for sync in [SyncModel::conventional(), SyncModel::quick_release()] {
        let cfg = RuntimeConfig {
            sync,
            ..RuntimeConfig::hsa()
        };
        t.span("hsa.execute", None, None, |_| Runtime::new(cfg).execute(&g));
    }
    Ok(())
}

/// `Explorer::explore` over the coarse space, and `evaluate_point` on
/// each of its points.
fn core(t: Trace<'_>) -> Result<(), String> {
    let explorer = Explorer::default();
    let profiles = paper_profiles();
    let space = DesignSpace::coarse();
    for _ in 0..EXPLORE_REPS {
        t.span("core.explore", None, None, |_| {
            explorer.explore(&space, &profiles)
        })
        .map_err(|e| e.to_string())?;
    }
    for point in space.points() {
        t.span("core.point", None, None, |_| {
            std::hint::black_box(explorer.evaluate_point(point, &profiles))
        });
    }
    Ok(())
}

//! Cross-crate integration: real workload traces driven through the
//! trace-level substrates (NoC, memory system), and consistency between
//! the analytic and trace-driven views.

use ena::memory::policy::SoftwareManaged;
use ena::memory::system::MemorySystem;
use ena::model::config::EhpConfig;
use ena::noc::sim::NocSim;
use ena::noc::topology::Topology;
use ena::noc::traffic::trace_packets;
use ena::workloads::app::{ProxyApp, RunConfig};
use ena::workloads::apps::{all_apps, Snap, XsBench};
use ena::workloads::trace::AccessKind;

/// A recorded XSBench trace replayed through the chiplet NoC reaches all
/// stacks and shows the interleaving-induced remote-traffic fraction.
#[test]
fn trace_replay_through_the_noc() {
    let run = XsBench.run(&RunConfig::small());
    let topo = Topology::ehp(8, 8);
    let addresses: Vec<u64> = run
        .trace
        .accesses()
        .iter()
        .take(5000)
        .map(|a| a.addr)
        .collect();
    let packets = trace_packets(&topo, 0, addresses, 4, 4096).expect("healthy topology routes");
    let stats = NocSim::new(&topo).run(&packets);
    assert_eq!(stats.delivered, 10_000); // request + response per access
                                         // Uniform page interleave from one chiplet: ~7/8 remote.
    let remote = stats.out_of_chiplet_fraction();
    assert!((0.8..0.95).contains(&remote), "remote = {remote}");
    assert!(stats.avg_latency_cycles() > 0.0);
}

/// A recorded trace replayed through the full multi-level memory system
/// under software management services most accesses in-package once the
/// hot set migrates.
#[test]
fn trace_replay_through_the_memory_system() {
    let run = Snap.run(&RunConfig::small());
    let accesses: Vec<(u64, bool)> = run
        .trace
        .accesses()
        .iter()
        .map(|a| (a.addr, a.kind == AccessKind::Write))
        .collect();
    // Capacity sized to half the footprint: the policy must choose.
    let capacity = run.trace.footprint_bytes() / 2;
    let mut system = MemorySystem::new(
        &EhpConfig::paper_baseline(),
        Box::new(SoftwareManaged::new(capacity)),
        2000,
    );
    let stats = system.replay(accesses);
    assert!(stats.accesses > 1000);
    assert!(
        stats.in_package_fraction() > 0.3,
        "in-package = {}",
        stats.in_package_fraction()
    );
    assert!(stats.energy.value() > 0.0);
    // The external tier was exercised too.
    assert!(system.external_stats().accesses > 0);
}

/// The measured intensity ordering of the mini-kernels agrees with the
/// calibrated profiles' categories: every memory-intensive profile measures
/// a lower trace-level flop/byte than every balanced profile.
#[test]
fn measured_and_calibrated_views_agree() {
    use ena::model::KernelCategory;
    let cfg = RunConfig::small();
    let mut balanced_min = f64::MAX;
    let mut memory_max = f64::MIN;
    for app in all_apps() {
        let run = app.run(&cfg);
        let opb = run.counters.dp_flops as f64 / run.trace.total_bytes() as f64;
        match app.category() {
            KernelCategory::Balanced => balanced_min = balanced_min.min(opb),
            KernelCategory::MemoryIntensive => memory_max = memory_max.max(opb),
            KernelCategory::ComputeIntensive => assert!(opb > 100.0, "{}", app.name()),
        }
    }
    assert!(
        balanced_min > memory_max,
        "balanced min {balanced_min} <= memory max {memory_max}"
    );
}

/// Every experiment of the `figures` harness runs and produces output.
#[test]
fn all_figures_regenerate() {
    for name in ena_bench::experiments::ALL_EXPERIMENTS {
        let out = ena_bench::experiments::run(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(out.len() > 100, "{name} output suspiciously short");
    }
}

/// Same seed, same bytes: the full end-to-end pipeline — PRNG-driven
/// trace generation, NoC replay, memory-system replay, and the analytic
/// node evaluation — produces byte-identical results across two
/// independent runs.
#[test]
fn same_seed_runs_are_byte_identical() {
    let run_once = || {
        let cfg = RunConfig::small();
        let run = XsBench.run(&cfg);

        let topo = Topology::ehp(8, 8);
        let addresses: Vec<u64> = run
            .trace
            .accesses()
            .iter()
            .take(2000)
            .map(|a| a.addr)
            .collect();
        let noc_stats = NocSim::new(&topo)
            .run(&trace_packets(&topo, 0, addresses, 4, 4096).expect("healthy topology routes"));

        let accesses: Vec<(u64, bool)> = run
            .trace
            .accesses()
            .iter()
            .map(|a| (a.addr, a.kind == AccessKind::Write))
            .collect();
        let mut system = MemorySystem::new(
            &EhpConfig::paper_baseline(),
            Box::new(SoftwareManaged::new(run.trace.footprint_bytes() / 2)),
            2000,
        );
        let mem_stats = system.replay(accesses);

        let sim = ena::core::node::NodeSimulator::new();
        let eval = sim.evaluate(
            &EhpConfig::paper_baseline(),
            &ena::workloads::profile_for("XSBench").unwrap(),
            &ena::core::node::EvalOptions::default(),
        );

        // Render everything observable, floats via exact bit patterns, so
        // the comparison is byte-level rather than approximate.
        format!(
            "{:?}|{:?}|{:?}|{:x}|{:x}",
            run.trace.accesses(),
            noc_stats,
            mem_stats,
            eval.perf.throughput.value().to_bits(),
            eval.node_power().value().to_bits(),
        )
    };
    assert_eq!(run_once(), run_once());
}

/// Everything in the stack is deterministic: two full evaluations agree
/// bit-for-bit.
#[test]
fn the_stack_is_deterministic() {
    let sim = ena::core::node::NodeSimulator::new();
    let config = EhpConfig::paper_baseline();
    let options = ena::core::node::EvalOptions::default();
    for p in ena::workloads::paper_profiles() {
        let a = sim.evaluate(&config, &p, &options);
        let b = sim.evaluate(&config, &p, &options);
        assert_eq!(
            a.perf.throughput.value().to_bits(),
            b.perf.throughput.value().to_bits()
        );
        assert_eq!(
            a.node_power().value().to_bits(),
            b.node_power().value().to_bits()
        );
    }
}

/// The acceptance fault campaign — one GPU chiplet, one HBM stack, two
/// interposer links, all seeded — completes without panicking, reroutes
/// the surviving traffic, re-queues the orphaned tasks, and lands on a
/// degraded operating point strictly between dead and healthy.
#[test]
fn fault_campaign_degrades_gracefully() {
    use ena::faults::{run_campaign, CampaignSpec};

    let report = run_campaign(&CampaignSpec::standard(0xC0FFEE)).expect("survivable campaign");
    let last = report.final_snapshot();

    // Strictly degraded, strictly alive.
    assert!(last.gflops > 0.0 && last.gflops < report.healthy.gflops);
    assert!(last.node_watts > 0.0 && last.node_watts < report.healthy.node_watts);
    assert!(last.gpu_chiplets >= 1 && last.gpu_chiplets < 8);
    assert!(last.hbm_stacks >= 1 && last.hbm_stacks < 8);

    // Severed packets are accounted, everything else still routes.
    assert!(last.noc_delivered > 0);
    assert_eq!(
        report.healthy.noc_delivered,
        last.noc_delivered + last.noc_dropped
    );

    // The runtime absorbed the agent deaths without losing tasks.
    assert!(report.degraded_makespan_us >= report.healthy_makespan_us);

    // Both availability estimators stay sane on the degraded hardware.
    for est in [&report.healthy_availability, &report.degraded_availability] {
        assert!(est.analytic > 0.0 && est.analytic < 1.0);
        assert!(est.injected > 0.0 && est.injected < 1.0);
        assert!(est.gap() < 0.06, "estimators disagree: {est:?}");
    }
}

/// Same fault plan, same seed: two independent campaign runs render
/// byte-identical degradation reports.
#[test]
fn fault_campaign_reports_are_byte_identical() {
    use ena::faults::{run_campaign, CampaignSpec};

    let render = || {
        run_campaign(&CampaignSpec::standard(0xC0FFEE))
            .expect("survivable campaign")
            .render()
    };
    assert_eq!(render(), render());
}

/// The standard campaign's rendered report matches the golden artifact.
/// The report is deterministic, but its numbers flow through the analytic
/// perf/power/thermal models and the Monte Carlo availability campaign,
/// all of which are legitimate targets for recalibration; 5 % relative
/// slack absorbs model tuning without masking structural regressions
/// (label, line, and count changes are always exact).
#[test]
fn fault_campaign_matches_golden() {
    use ena::faults::{run_campaign, CampaignSpec};
    use ena_testkit::golden::{assert_matches, Tolerance};

    let report = run_campaign(&CampaignSpec::standard(0xC0FFEE)).expect("survivable campaign");
    assert_matches(
        "fault_campaign",
        &report.render(),
        Tolerance::relative(0.05),
    );
}

/// The standard 64-node multi-node campaign's report matches the golden
/// artifact, which `ci.sh` also holds byte for byte against
/// `ena multinode --seed 0xC0FFEE`. Same slack
/// rationale as the intra-node golden: the numbers flow through the node
/// models and are recalibration targets, the structure is not.
#[test]
fn multinode_campaign_matches_golden() {
    use ena::fabric::{run_multinode_campaign, MultiNodeCampaignSpec};
    use ena_testkit::golden::{assert_matches, Tolerance};

    let report = run_multinode_campaign(&MultiNodeCampaignSpec::standard(0xC0FFEE))
        .expect("survivable fleet");
    assert_matches(
        "multinode_campaign",
        &report.render(),
        Tolerance::relative(0.05),
    );
}

/// The standard transient-fault campaign matches the golden artifact
/// written by `examples/transient_campaign.rs`. Same slack rationale as
/// the other campaign goldens: counts and labels exact, latencies and
/// efficiency within recalibration tolerance.
#[test]
fn transient_campaign_matches_golden() {
    use ena::faults::{run_transient_campaign, TransientCampaignSpec};
    use ena_testkit::golden::{assert_matches, Tolerance};

    let report = run_transient_campaign(&TransientCampaignSpec::standard(0xC0FFEE));
    assert_matches(
        "transient_campaign",
        &report.render(),
        Tolerance::relative(0.05),
    );
}

/// Same seed, same schedule: two independent transient campaigns render
/// byte-identical reports, and the schedule digest embedded in the
/// report pins the sampled event stream itself.
#[test]
fn transient_campaign_reports_are_byte_identical() {
    use ena::faults::{run_transient_campaign, TransientCampaignSpec};

    let render = || run_transient_campaign(&TransientCampaignSpec::standard(0xC0FFEE)).render();
    let first = render();
    assert_eq!(first, render());
    assert!(first.contains("schedule digest"), "{first}");
}

/// Acceptance criterion: the analytic Young/Daly prediction agrees with
/// the simulated checkpoint/restart campaign within the stated tolerance
/// at N in {2, 4, 8} — both on explicit CLI-style parameters and on a
/// node MTBF derived from the resilience model.
#[test]
fn daly_prediction_matches_simulation_at_small_fleets() {
    use ena::fabric::{RecoveryModel, DALY_TOLERANCE};
    use ena::model::config::EhpConfig;

    let explicit = RecoveryModel::new(96.0, 3.0);
    let derived = RecoveryModel::from_node_assessment(&EhpConfig::paper_baseline(), "CoMD", 3.0)
        .expect("CoMD is in the suite");
    for model in [explicit, derived] {
        for nodes in [2u32, 4, 8] {
            let est = model.assess(nodes, 0xC0FFEE);
            assert!(
                est.gap() < DALY_TOLERANCE,
                "{model}, N={nodes}: analytic {:.4} vs simulated {:.4}",
                est.analytic,
                est.simulated
            );
        }
    }
}

/// Same seed, same fleet: two independent multi-node campaign runs
/// render byte-identical reports (including the straggler's embedded
/// intra-node degradation report).
#[test]
fn multinode_campaign_reports_are_byte_identical() {
    use ena::fabric::{run_multinode_campaign, MultiNodeCampaignSpec};

    let render = || {
        run_multinode_campaign(&MultiNodeCampaignSpec::standard(0xC0FFEE))
            .expect("survivable fleet")
            .render()
    };
    assert_eq!(render(), render());
}

/// Consistency between the analytic and simulated scale-out views: at
/// small node counts the simulated fabric estimate is exactly the
/// analytic projection derated by the measured communication efficiency
/// (bitwise — both sides compute the same floating-point expression),
/// and the raw gap to the undereated linear projection stays within the
/// documented small-N tolerance on every shipped topology.
#[test]
fn analytic_and_simulated_scale_out_agree_at_small_n() {
    use ena::core::node::{EvalOptions, NodeSimulator};
    use ena::core::system::project_system;
    use ena::fabric::{estimate, FabricGraph, FabricKind, ScaleOutSpec, SMALL_N_TOLERANCE};
    use ena::workloads::profile_for;
    use std::collections::BTreeMap;

    let spec = ScaleOutSpec::standard("CoMD");
    let profile = profile_for("CoMD").expect("CoMD is in the suite");
    let sim = NodeSimulator::new();
    for kind in FabricKind::ALL {
        for nodes in [2u32, 4, 8] {
            let graph = FabricGraph::build(kind, nodes).expect("buildable fabric");
            let est = estimate(&graph, &spec, &BTreeMap::new()).expect("healthy estimate");
            let projection = project_system(
                &sim,
                &spec.base,
                &profile,
                &EvalOptions::default(),
                u64::from(nodes),
            );
            assert_eq!(
                est.exaflops,
                projection.derated(est.efficiency).exaflops,
                "{kind} x{nodes}: derated projection must match bitwise"
            );
            let gap = est.analytic_gap(&projection);
            assert!(
                gap < SMALL_N_TOLERANCE,
                "{kind} x{nodes}: analytic gap {gap} exceeds {SMALL_N_TOLERANCE}"
            );
        }
    }
}

//! Extension scenario: a phased HPC job on the ENA with a reconfiguration
//! runtime and RAS accounting — the Section VI research directions played
//! out end-to-end.
//!
//! Run with `cargo run --release --example resilient_reconfiguration`.

use ena::core::dse::DesignSpace;
use ena::core::node::NodeSimulator;
use ena::core::reconfig::{run_phases, OraclePolicy, Phase, ReactivePolicy, StaticPolicy};
use ena::core::resilience::{checkpoint_efficiency, Protection, RecoveryModel, ResilienceModel};
use ena::core::Explorer;
use ena::faults::{run_campaign, CampaignSpec};
use ena::model::config::{EhpConfig, SYSTEM_NODE_COUNT};
use ena::model::units::Seconds;
use ena::workloads::{paper_profiles, profile_for};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = NodeSimulator::new();
    let explorer = Explorer::default();
    let space = DesignSpace::coarse();
    let profiles = paper_profiles();

    // A job alternating between force computation and transport phases.
    let mut phases = Vec::new();
    for _ in 0..4 {
        for _ in 0..3 {
            phases.push(Phase {
                profile: profile_for("CoMD").unwrap(),
                work_gflop: 60_000.0,
            });
        }
        for _ in 0..3 {
            phases.push(Phase {
                profile: profile_for("SNAP").unwrap(),
                work_gflop: 8_000.0,
            });
        }
    }

    println!("reconfiguration policies over {} phases:\n", phases.len());
    let mean = explorer.explore(&space, &profiles)?.best_mean;
    let mut static_p = StaticPolicy(mean);
    let mut reactive_p = ReactivePolicy::new(&explorer, &space, &profiles)?;
    let mut oracle_p = OraclePolicy::new(&explorer, &space, &profiles)?;
    let policies: [&mut dyn ena::core::reconfig::ReconfigPolicy; 3] =
        [&mut static_p, &mut reactive_p, &mut oracle_p];
    for policy in policies {
        let r = run_phases(&sim, policy, &phases, &explorer.options, Seconds::new(2e-3))?;
        println!(
            "  {:<9} {:>8.2} s  {:>8.1} kJ  {:>3} switches  avg {:>5.1} W",
            r.policy,
            r.time.value(),
            r.energy.value() / 1000.0,
            r.switches,
            r.avg_power_w(),
        );
    }

    println!("\nresiliency at 100,000 nodes (CoMD):");
    let model = ResilienceModel::default();
    let config = EhpConfig::paper_baseline();
    let comd = profile_for("CoMD").unwrap();
    for (label, v, p) in [
        ("ECC only          ", 1.0, Protection::ecc_only()),
        ("ECC + RMT         ", 1.0, Protection::ecc_and_rmt()),
        ("ECC + RMT, NTC V  ", 0.75, Protection::ecc_and_rmt()),
    ] {
        let r = model.assess(&config, &comd, v, p);
        let mttf = r.system_mttf_hours(SYSTEM_NODE_COUNT);
        println!(
            "  {label} system MTTF {:>6.2} h  checkpoint efficiency {:.3}",
            mttf,
            checkpoint_efficiency(mttf, 2.0),
        );
    }

    // Cross-validate the closed-form availability against an injected
    // Monte Carlo fault campaign, on the healthy node and again on a node
    // degraded by a seeded failure campaign.
    println!("\navailability, analytic vs injected (CoMD, 3 min checkpoints):");
    let seed = 0xC0FFEE;
    let healthy = RecoveryModel::from_node_assessment(&config, "CoMD", 3.0)
        .unwrap()
        .assess(SYSTEM_NODE_COUNT as u32, seed);
    println!(
        "  healthy   analytic {:.4}  injected {:.4}  (gap {:.4})",
        healthy.analytic,
        healthy.simulated,
        healthy.gap()
    );
    match run_campaign(&CampaignSpec::standard(seed)) {
        Ok(report) => {
            let d = &report.degraded_availability;
            let last = report.final_snapshot();
            println!(
                "  degraded  analytic {:.4}  injected {:.4}  (gap {:.4})",
                d.analytic,
                d.simulated,
                d.gap()
            );
            println!(
                "  (after losing {} GPU chiplets, {} HBM stacks: {:.1}% throughput retained)",
                8 - last.gpu_chiplets,
                8 - last.hbm_stacks,
                100.0 * report.throughput_retained(),
            );
        }
        Err(e) => println!("  campaign failed: {e}"),
    }
    Ok(())
}

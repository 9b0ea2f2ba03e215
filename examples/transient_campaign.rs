//! Transient-fault campaign: ECC-classified HBM errors, link CRC
//! retransmits, and agent soft-hangs arrive on MTBF-driven schedules
//! while an iterative application checkpoints its way forward —
//! corrected errors cost latency, uncorrectable ones roll the run back
//! to its last checkpoint, and silent escapes are tracked for the
//! report. A Young/Daly recovery model then cross-checks the achieved
//! multi-node efficiency analytically and by Monte Carlo.
//!
//! Run with `cargo run --release --example transient_campaign`.
//!
//! The rendered report is the one
//! `ena faults --seed 0xC0FFEE --transient` prints and
//! `artifacts/transient_campaign.txt` pins: `ci.sh` compares the CLI's
//! output with it byte for byte, and `tests/end_to_end.rs` with
//! per-metric tolerance. The example only prints; it writes no file.

use ena::fabric::RecoveryModel;
use ena::faults::{run_transient_campaign, TransientCampaignSpec, TransientSchedule};

fn main() {
    let spec = TransientCampaignSpec::standard(0xC0FFEE);
    let schedule = TransientSchedule::sample(spec.seed, spec.rates, spec.horizon_us());
    println!("{schedule}");

    let report = run_transient_campaign(&spec);
    print!("{}", report.render());

    println!();
    let recovery = RecoveryModel::new(96.0, 3.0);
    println!("Young/Daly checkpoint/restart ({recovery}):");
    for nodes in [2u32, 4, 8] {
        let est = recovery.assess(nodes, spec.seed);
        println!(
            "  N={nodes}: interval {:.3} h | analytic {:.4} | simulated {:.4} | gap {:.4}",
            est.interval_hours,
            est.analytic,
            est.simulated,
            est.gap()
        );
    }

    println!(
        "\nsame seed, same report: the campaign is deterministic (seed {:#x})",
        spec.seed
    );
}

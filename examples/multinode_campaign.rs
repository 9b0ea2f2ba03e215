//! Multi-node fault campaign: lose nodes, slow stragglers, and degrade
//! inter-node routes across a 64-node dragonfly cabinet, and watch the
//! fleet degrade gracefully — the fabric reroutes around dead EHPs, the
//! straggler's intra-node degradation report sets its compute slowdown,
//! and every step is cross-checked against the analytic scale-out
//! projection.
//!
//! Run with `cargo run --release --example multinode_campaign`.
//!
//! The rendered report is the one `ena multinode --seed 0xC0FFEE` prints
//! and `artifacts/multinode_campaign.txt` pins: `ci.sh` compares the CLI's
//! output with it byte for byte, and `tests/end_to_end.rs` with
//! per-metric tolerance. The example only prints; it writes no file.

use ena::fabric::{run_multinode_campaign, MultiNodeCampaignSpec};

fn main() {
    let spec = MultiNodeCampaignSpec::standard(0xC0FFEE);
    println!("{}", spec.plan);

    match run_multinode_campaign(&spec) {
        Ok(report) => {
            print!("{}", report.render());
            println!(
                "\nsame seed, same report: the campaign is deterministic \
                 (seed {:#x})",
                spec.plan.seed
            );
        }
        Err(e) => println!("campaign failed: {e}"),
    }
}

//! Bit-level pins of the availability figures: the fault campaign's
//! healthy and degraded Young/Daly cross-checks and the recovery model's
//! per-fleet estimates.
//!
//! The reports print these values to four decimals, so the goldens alone
//! cannot see a last-bit drift. Every literal here is an `f64::to_bits`
//! pattern; none may change unless the model itself does.

use ena::fabric::{RecoveryEstimate, RecoveryModel};
use ena::faults::{run_campaign, CampaignSpec};
use ena::model::config::EhpConfig;

/// `(system MTTF, analytic, Monte Carlo)` bits of one campaign estimate.
fn campaign_bits(e: &RecoveryEstimate) -> [u64; 3] {
    [
        e.system_mttf_hours.to_bits(),
        e.analytic.to_bits(),
        e.simulated.to_bits(),
    ]
}

/// `(healthy, degraded)` availability bits of the standard campaign.
fn standard_campaign_bits(seed: u64) -> ([u64; 3], [u64; 3]) {
    let report = run_campaign(&CampaignSpec::standard(seed)).expect("survivable campaign");
    (
        campaign_bits(&report.healthy_availability),
        campaign_bits(&report.degraded_availability),
    )
}

/// `(system MTTF, interval, analytic, simulated)` bits of `model` at
/// each fleet size of [`FLEETS`].
fn recovery_bits(model: RecoveryModel, seed: u64) -> Vec<(u32, [u64; 4])> {
    FLEETS
        .iter()
        .map(|&nodes| {
            let e = model.assess(nodes, seed);
            assert_eq!(e.nodes, nodes);
            let bits = [
                e.system_mttf_hours.to_bits(),
                e.interval_hours.to_bits(),
                e.analytic.to_bits(),
                e.simulated.to_bits(),
            ];
            (nodes, bits)
        })
        .collect()
}

/// Fleet sizes pinned, up to the full 100,000-node machine.
const FLEETS: [u32; 4] = [2, 8, 64, 100_000];

#[test]
fn standard_campaign_availability_is_pinned_at_0xc0ffee() {
    let (healthy, degraded) = standard_campaign_bits(0xC0FFEE);
    assert_eq!(
        healthy,
        [0x40273bf4947601e4, 0x3fed07f3b0476890, 0x3fed0218e25abf3a]
    );
    assert_eq!(
        degraded,
        [0x402f4781cd3b7ee9, 0x3fed70f2806b8574, 0x3fed6b779a9ed81a]
    );
}

#[test]
fn standard_campaign_availability_is_pinned_at_seed_2() {
    let (healthy, degraded) = standard_campaign_bits(2);
    assert_eq!(
        healthy,
        [0x40273bf4947601e4, 0x3fed07f3b0476890, 0x3fecff72c63d7e72]
    );
    assert_eq!(
        degraded,
        [0x4037c3a672dbfc18, 0x3fedec97a3ae242a, 0x3fede623a9749424]
    );
}

#[test]
fn explicit_recovery_model_is_pinned() {
    assert_eq!(
        recovery_bits(RecoveryModel::new(96.0, 3.0), 0xFA17),
        [
            (
                2,
                [
                    0x4048000000000000,
                    0x400186f174f88473,
                    0x3fee8a168b95f4f6,
                    0x3fee7d7c8315e397
                ]
            ),
            (
                8,
                [
                    0x4028000000000000,
                    0x3ff186f174f88473,
                    0x3fed142d172be9ec,
                    0x3fed15a22f1b2414
                ]
            ),
            (
                64,
                [
                    0x3ff8000000000000,
                    0x3fd8c97ef43f7248,
                    0x3fe7bcd5ae958492,
                    0x3fe79f932b6ad8c8
                ]
            ),
            (
                100_000,
                [
                    0x3f4f75104d551d69,
                    0x3f8410f3cac9dc59,
                    0x0000000000000000,
                    0x0000000000000000
                ]
            ),
        ]
    );
}

#[test]
fn node_assessed_recovery_model_is_pinned() {
    let model = RecoveryModel::from_node_assessment(&EhpConfig::paper_baseline(), "CoMD", 3.0)
        .expect("CoMD is in the suite");
    assert_eq!(
        recovery_bits(model, 0xC0FFEE),
        [
            (
                2,
                [
                    0x4121b9ee09844851,
                    0x406e204c82ed78bb,
                    0x3feffc99d89e9dcc,
                    0x3fef9ed43296207b
                ]
            ),
            (
                8,
                [
                    0x4101b9ee09844851,
                    0x405e204c82ed78bb,
                    0x3feff933b13d3b98,
                    0x3fefd03007300492
                ]
            ),
            (
                64,
                [
                    0x40d1b9ee09844851,
                    0x40454d6b388a692e,
                    0x3fefecc5aaa6fffc,
                    0x3fefe70a4031ff7a
                ]
            ),
            (
                100_000,
                [
                    0x40273bf4947601e4,
                    0x3ff13ec7091da6d7,
                    0x3fed07f3b0476890,
                    0x3fed0218e25abf3a
                ]
            ),
        ]
    );
}

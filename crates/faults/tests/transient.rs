//! Property and cross-process tests for the transient-fault layer.
//!
//! The headline guarantees: a rollback never loses checkpointed work,
//! more faults never help, and a schedule sampled from the same seed is
//! identical in any process.

use ena_faults::{
    run_transient_campaign, TransientCampaignSpec, TransientRates, TransientSchedule,
};
use ena_model::hash::StableHasher;
use ena_testkit::prelude::*;
use ena_testkit::process::assert_same_digest_across_processes;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery loses no completed work: the durable log only ever
    /// advances, execution never resumes below its latest entry, and
    /// every requested iteration retires exactly once *net* — total
    /// executions equal the request plus the explicitly-redone tail.
    #[test]
    fn rollback_never_loses_durable_work(
        seed in 0u64..1 << 48,
        scale_pct in 20u32..400,
    ) {
        let base = TransientCampaignSpec::standard(seed);
        let spec = TransientCampaignSpec {
            rates: base.rates.with_mtbf_scale(f64::from(scale_pct) / 100.0),
            ..base
        };
        let report = run_transient_campaign(&spec);

        prop_assert!(report.iterations == spec.iterations);
        let log = &report.durable_log;
        prop_assert!(!log.is_empty());
        prop_assert!(
            log.windows(2).all(|w| w[0] <= w[1]),
            "durable log regressed: {log:?}"
        );
        prop_assert!(*log.last().unwrap() == spec.iterations);
        // Rollbacks account bijectively for uncorrectable hits, and
        // redone work is bounded by what a rollback can discard.
        prop_assert!(report.rollbacks == report.uncorrectable);
        prop_assert!(
            report.redone_iterations <= report.rollbacks * (spec.checkpoint_every - 1).max(1)
        );
        // Faults only ever stretch the clock.
        prop_assert!(report.makespan_us >= report.ideal_us);
        let eff = report.efficiency();
        prop_assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff}");
    }

    /// Efficiency is monotone in the fault rate: scaling every MTBF down
    /// (more faults) never increases achieved efficiency. A single seed
    /// is noisy — whether an uncorrectable lands just before or just
    /// after a checkpoint boundary moves one campaign by more than a
    /// small rate change does — so the property is asserted on the mean
    /// over a seed batch, across 4x rate steps.
    #[test]
    fn efficiency_is_monotone_in_fault_rate(seed in 0u64..1 << 48) {
        let mean_efficiency_at = |scale: f64| {
            let batch = 10u64;
            (0..batch)
                .map(|i| {
                    let base = TransientCampaignSpec::standard(
                        seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)),
                    );
                    run_transient_campaign(&TransientCampaignSpec {
                        rates: base.rates.with_mtbf_scale(scale),
                        ..base
                    })
                    .efficiency()
                })
                .sum::<f64>()
                / batch as f64
        };
        let mut last = 0.0_f64;
        // Ascending MTBF scale = descending fault rate.
        for scale in [0.25, 1.0, 4.0, 16.0] {
            let eff = mean_efficiency_at(scale);
            prop_assert!(
                eff > last,
                "scale {scale}: mean efficiency {eff} fell below {last}"
            );
            last = eff;
        }
    }

    /// Same seed, same bytes: the whole report renders identically on
    /// repeated runs within one process.
    #[test]
    fn same_seed_same_report_bytes(seed in 0u64..1 << 48) {
        let spec = TransientCampaignSpec::standard(seed);
        let a = run_transient_campaign(&spec).render();
        let b = run_transient_campaign(&spec).render();
        prop_assert!(a == b);
    }
}

/// Digest over a spread of seeds and rate scales: any nondeterminism in
/// sampling, ECC classification, or merge order lands in this value.
fn transient_digest() -> u64 {
    let mut h = StableHasher::new();
    for seed in [0u64, 1, 0xC0FFEE, 0xFA17_FA17] {
        for scale in [0.5, 1.0, 4.0] {
            let rates = TransientRates::standard().with_mtbf_scale(scale);
            let schedule = TransientSchedule::sample(seed, rates, 200_000.0);
            h.write_u64(schedule.digest());
            h.write_str(
                &run_transient_campaign(&TransientCampaignSpec {
                    rates,
                    ..TransientCampaignSpec::standard(seed)
                })
                .render(),
            );
        }
    }
    h.finish()
}

/// Satellite invariant: transient schedules (and the campaign reports
/// replayed from them) are identical across two *separate process* runs,
/// mirroring the fabric route-table digest test. The test re-executes
/// its own binary twice in digest mode and compares the printed digests
/// with each other and with the in-process value.
#[test]
fn transient_schedules_are_identical_across_processes() {
    assert_same_digest_across_processes(
        "transient_schedules_are_identical_across_processes",
        transient_digest,
    );
}

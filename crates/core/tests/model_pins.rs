//! Bit-level pins of the closed-form node model.
//!
//! Every `f64` the node model produces is absorbed by IEEE-754 bit
//! pattern into a stable FNV digest, so any change to an expression or
//! to its operand order shows up here even when it moves a value by one
//! ulp and every golden report (which prints rounded numbers) still
//! matches.
//!
//! - The paper space: every [`PointRecord`] of [`DesignSpace::paper`] x
//!   [`paper_profiles`], in grid order, through the default explorer
//!   and through one with every Section V-E optimization.
//! - Single evaluations: every field of [`NodeEvaluation`] (the
//!   [`PerfEstimate`](ena_core::perf::PerfEstimate), the activity vector
//!   and all twelve power components) for the eight paper profiles at
//!   configurations that reach every branch of the model: a clock below
//!   the V/f curve's `f_min`, at its knee and above its `f_max`; a
//!   DRAM-only and a hybrid NVM chain; the profile's own miss fraction,
//!   0 and 1; and all five optimizations.

use ena_core::dse::{DesignSpace, Explorer, PointRecord};
use ena_core::node::{EvalOptions, NodeEvaluation, NodeSimulator};
use ena_model::config::{EhpConfig, ExternalMemoryConfig};
use ena_model::hash::StableHasher;
use ena_model::units::{Gigabytes, GigabytesPerSec, Megahertz};
use ena_power::breakdown::Component;
use ena_workloads::paper_profiles;

fn paper_space_digest(explorer: &Explorer) -> u64 {
    let profiles = paper_profiles();
    let mut h = StableHasher::new();
    for point in DesignSpace::paper().points() {
        let PointRecord { point, evals } = explorer.evaluate_point(point, &profiles);
        h.write_u32(point.cus);
        h.write_f64(point.clock.value());
        h.write_f64(point.bandwidth.value());
        for e in evals {
            h.write_f64(e.throughput);
            h.write_f64(e.package_power);
            h.write_f64(e.peak_dram_c);
        }
    }
    h.finish()
}

#[test]
fn paper_space_records_are_pinned_bit_for_bit() {
    let optimized = Explorer {
        options: EvalOptions::fully_optimized(),
        ..Explorer::default()
    };
    assert_eq!(
        (
            paper_space_digest(&Explorer::default()),
            paper_space_digest(&optimized)
        ),
        (0xdf2e_0045_a1f6_d29e, 0xbaa7_c101_16ca_261f),
        "(default explorer, fully optimized explorer)"
    );
}

fn absorb(h: &mut StableHasher, e: &NodeEvaluation) {
    let p = &e.perf;
    for v in [
        p.throughput.value(),
        p.compute_roof.value(),
        p.memory_roof.value(),
        p.latency_factor,
        p.memory_pressure,
        p.traffic_gbps,
    ] {
        h.write_f64(v);
    }
    let a = &e.activity;
    for v in [
        a.achieved_gflops,
        a.hbm_traffic_gbps,
        a.ext_traffic_gbps,
        a.write_fraction,
        a.nvm_traffic_fraction,
        a.noc_traffic_gbps,
        a.cpu_activity,
    ] {
        h.write_f64(v);
    }
    for c in Component::ALL {
        h.write_f64(e.power.get(c).value());
    }
}

fn config(mhz: f64, hybrid: bool) -> EhpConfig {
    let mut builder = EhpConfig::builder()
        .total_cus(320)
        .gpu_clock(Megahertz::new(mhz))
        .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(3.0));
    if hybrid {
        builder = builder.external(ExternalMemoryConfig::hybrid(4, Gigabytes::new(768.0)));
    }
    builder.build().expect("valid pin configuration")
}

#[test]
fn node_evaluations_are_pinned_bit_for_bit() {
    let sim = NodeSimulator::new();
    let profiles = paper_profiles();
    let options = [
        ("own miss", EvalOptions::default()),
        ("miss 0", EvalOptions::with_miss_fraction(0.0)),
        ("miss 1", EvalOptions::with_miss_fraction(1.0)),
        ("all opts", EvalOptions::fully_optimized()),
    ];
    // (clock MHz, hybrid chain): below f_min, at the knee, above f_max,
    // then the NVM chain at the knee.
    let configs = [
        (500.0, false),
        (1000.0, false),
        (1600.0, false),
        (1000.0, true),
    ];
    let mut digests = Vec::new();
    for &(mhz, hybrid) in &configs {
        let cfg = config(mhz, hybrid);
        for (label, opts) in &options {
            let mut h = StableHasher::new();
            for p in &profiles {
                absorb(&mut h, &sim.evaluate(&cfg, p, opts));
            }
            digests.push((mhz as u32, hybrid, *label, h.finish()));
        }
    }
    let expected: [(u32, bool, &str, u64); 16] = [
        (500, false, "own miss", 0xecb2_58c7_59f4_4b26),
        (500, false, "miss 0", 0x57f3_8847_0a6c_a35c),
        (500, false, "miss 1", 0x5c8b_15b3_cc22_4598),
        (500, false, "all opts", 0x3e02_f1ab_368e_8f47),
        (1000, false, "own miss", 0xd3a4_cc9a_46dc_0be1),
        (1000, false, "miss 0", 0xf0d5_3256_25e3_0a65),
        (1000, false, "miss 1", 0xb7a3_deac_5342_47e4),
        (1000, false, "all opts", 0xb59b_1ba9_8106_20fe),
        (1600, false, "own miss", 0xb830_c916_634b_4efc),
        (1600, false, "miss 0", 0x3a04_d18d_294b_d844),
        (1600, false, "miss 1", 0xc49a_247c_fcbd_4c1b),
        (1600, false, "all opts", 0xf055_7d19_21fc_a792),
        (1000, true, "own miss", 0xe133_61cc_7108_4bbe),
        (1000, true, "miss 0", 0xe3b7_58cd_ff79_9409),
        (1000, true, "miss 1", 0x86d8_9d9a_cb9c_b433),
        (1000, true, "all opts", 0xed55_f59c_f634_5ef9),
    ];
    assert_eq!(digests, expected);
}

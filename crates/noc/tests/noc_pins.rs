//! Pins `NocSim::run` on the traffic the paper pass drives through it.
//!
//! Fig. 7 runs every paper workload's generated traffic on the chiplet
//! and monolithic packages, the interposer ablation runs SNAP on the
//! chain and the ring, and the fault campaign replays traffic generated
//! on the healthy ring after a GPU chiplet dies. An optimization of the
//! route table, the traffic generator or the simulator's processing
//! order must leave every count, every latency, every link's carried
//! bytes and every energy tally bit where it was. The literals were
//! captured from the reference implementation; a mismatch prints the
//! whole observed row so a deliberate change can be re-pinned.

use ena_model::hash::StableHasher;
use ena_noc::sim::{NocSim, NocStats, Packet};
use ena_noc::topology::{NodeKind, Topology};
use ena_noc::traffic::WorkloadTraffic;
use ena_workloads::profiles::{paper_profiles, profile_for};

/// One run's pinned observables.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    case: &'static str,
    delivered: u64,
    dropped: u64,
    local_packets: u64,
    remote_packets: u64,
    total_latency_cycles: u64,
    max_latency_cycles: u64,
    makespan_cycles: u64,
    /// FNV-1a over every link's carried bytes, in link order.
    link_bytes_digest: u64,
    wire_bits: u64,
    router_bits: u64,
    tsv_bits: u64,
}

impl Pin {
    fn observe(case: &'static str, stats: &NocStats) -> Self {
        let mut h = StableHasher::new();
        h.write_usize(stats.link_bytes.len());
        for &bytes in &stats.link_bytes {
            h.write_u64(bytes);
        }
        Self {
            case,
            delivered: stats.delivered,
            dropped: stats.dropped,
            local_packets: stats.local_packets,
            remote_packets: stats.remote_packets,
            total_latency_cycles: stats.total_latency_cycles,
            max_latency_cycles: stats.max_latency_cycles,
            makespan_cycles: stats.makespan_cycles,
            link_bytes_digest: h.finish(),
            wire_bits: stats.energy.wire.value().to_bits(),
            router_bits: stats.energy.router.value().to_bits(),
            tsv_bits: stats.energy.tsv.value().to_bits(),
        }
    }
}

/// Every pinned run, in `PINS` order: a topology and the packets
/// replayed on it.
fn cases() -> Vec<(Topology, Vec<Packet>)> {
    let mut cases = Vec::new();
    // Fig. 7: seed 0xF167, 3000 requests per chiplet.
    for profile in paper_profiles() {
        let traffic = WorkloadTraffic::from_profile(&profile, 0xF167);
        for topo in [Topology::ehp(8, 8), Topology::monolithic(8, 8)] {
            let packets = traffic.generate(&topo, 3000);
            cases.push((topo, packets));
        }
    }
    // The interposer ablation: SNAP, seed 99, 2000 requests per chiplet.
    let snap = WorkloadTraffic::from_profile(&profile_for("SNAP").expect("suite app"), 99);
    for topo in [Topology::ehp(8, 8), Topology::ehp_ring(8, 8)] {
        let packets = snap.generate(&topo, 2000);
        cases.push((topo, packets));
    }
    // The fault campaign's replay: traffic generated on the healthy ring,
    // run after GPU chiplet 3 (and with it the route to its stack) died.
    let healthy = Topology::ehp_ring(8, 8);
    let comd = WorkloadTraffic::from_profile(&profile_for("CoMD").expect("suite app"), 0xC0FFEE);
    let packets = comd.generate(&healthy, 2000);
    let mut degraded = healthy;
    degraded
        .fail_kind(NodeKind::GpuChiplet(3))
        .expect("chiplet 3 is live");
    cases.push((degraded, packets));
    cases
}

const PINS: [Pin; 19] = [
    Pin {
        case: "fig7 ehp MaxFlops",
        delivered: 48_000,
        dropped: 0,
        local_packets: 19_134,
        remote_packets: 28_866,
        total_latency_cycles: 773_565,
        max_latency_cycles: 43,
        makespan_cycles: 1_217_161,
        link_bytes_digest: 0xe91e_02a9_4b4a_418a,
        wire_bits: 0x4172_1200_0000_0001,
        router_bits: 0x4175_f120_0000_0001,
        tsv_bits: 0x4139_d040_0000_0000,
    },
    Pin {
        case: "fig7 monolithic MaxFlops",
        delivered: 48_000,
        dropped: 0,
        local_packets: 19_134,
        remote_packets: 28_866,
        total_latency_cycles: 375_916,
        max_latency_cycles: 15,
        makespan_cycles: 1_217_161,
        link_bytes_digest: 0x9bec_866a_afbb_ce60,
        wire_bits: 0x415c_3080_0000_0000,
        router_bits: 0x4169_d040_0000_0000,
        tsv_bits: 0x4127_7000_0000_0000,
    },
    Pin {
        case: "fig7 ehp CoMD",
        delivered: 48_000,
        dropped: 0,
        local_packets: 14_386,
        remote_packets: 33_614,
        total_latency_cycles: 942_204,
        max_latency_cycles: 43,
        makespan_cycles: 201_146,
        link_bytes_digest: 0xa6bb_825b_8eff_cd38,
        wire_bits: 0x4175_2120_0000_0000,
        router_bits: 0x4178_a170_0000_0000,
        tsv_bits: 0x413c_21c0_0000_0000,
    },
    Pin {
        case: "fig7 monolithic CoMD",
        delivered: 48_000,
        dropped: 0,
        local_packets: 14_386,
        remote_packets: 33_614,
        total_latency_cycles: 418_737,
        max_latency_cycles: 16,
        makespan_cycles: 201_124,
        link_bytes_digest: 0x803f_29ae_271d_c952,
        wire_bits: 0x4160_69c0_0000_0000,
        router_bits: 0x416c_21c0_0000_0000,
        tsv_bits: 0x4127_7000_0000_0000,
    },
    Pin {
        case: "fig7 ehp CoMD-LJ",
        delivered: 48_000,
        dropped: 0,
        local_packets: 12_096,
        remote_packets: 35_904,
        total_latency_cycles: 1_012_411,
        max_latency_cycles: 44,
        makespan_cycles: 165_393,
        link_bytes_digest: 0x764c_6f64_a9c6_9b83,
        wire_bits: 0x4176_7bc0_0000_0000,
        router_bits: 0x4179_dde0_0000_0000,
        tsv_bits: 0x413d_4000_0000_0003,
    },
    Pin {
        case: "fig7 monolithic CoMD-LJ",
        delivered: 48_000,
        dropped: 0,
        local_packets: 12_096,
        remote_packets: 35_904,
        total_latency_cycles: 438_435,
        max_latency_cycles: 16,
        makespan_cycles: 165_393,
        link_bytes_digest: 0xad96_f6a3_c09c_1bfc,
        wire_bits: 0x4161_8800_0000_0000,
        router_bits: 0x416d_4000_0000_0003,
        tsv_bits: 0x4127_7000_0000_0000,
    },
    Pin {
        case: "fig7 ehp HPGMG",
        delivered: 48_000,
        dropped: 0,
        local_packets: 9_668,
        remote_packets: 38_332,
        total_latency_cycles: 1_142_097,
        max_latency_cycles: 45,
        makespan_cycles: 91_555,
        link_bytes_digest: 0x8f93_d766_b78a_77a7,
        wire_bits: 0x4177_d7e0_0000_0004,
        router_bits: 0x417b_23b0_0000_0000,
        tsv_bits: 0x413e_6f80_0000_0000,
    },
    Pin {
        case: "fig7 monolithic HPGMG",
        delivered: 48_000,
        dropped: 0,
        local_packets: 9_668,
        remote_packets: 38_332,
        total_latency_cycles: 464_111,
        max_latency_cycles: 16,
        makespan_cycles: 91_533,
        link_bytes_digest: 0x64e6_2dc1_1da9_2326,
        wire_bits: 0x4162_b780_0000_0001,
        router_bits: 0x416e_6f80_0000_0000,
        tsv_bits: 0x4127_7000_0000_0000,
    },
    Pin {
        case: "fig7 ehp LULESH",
        delivered: 48_000,
        dropped: 0,
        local_packets: 7_168,
        remote_packets: 40_832,
        total_latency_cycles: 1_344_699,
        max_latency_cycles: 45,
        makespan_cycles: 47_048,
        link_bytes_digest: 0xdd9f_f709_c9c5_6fd9,
        wire_bits: 0x4179_9e60_0000_0006,
        router_bits: 0x417c_a330_0000_0000,
        tsv_bits: 0x413f_a800_0000_0004,
    },
    Pin {
        case: "fig7 monolithic LULESH",
        delivered: 48_000,
        dropped: 0,
        local_packets: 7_168,
        remote_packets: 40_832,
        total_latency_cycles: 496_096,
        max_latency_cycles: 17,
        makespan_cycles: 47_044,
        link_bytes_digest: 0x9756_1224_7510_dedc,
        wire_bits: 0x4163_f000_0000_0001,
        router_bits: 0x416f_a800_0000_0004,
        tsv_bits: 0x4127_6fff_ffff_ffff,
    },
    Pin {
        case: "fig7 ehp MiniAMR",
        delivered: 48_000,
        dropped: 0,
        local_packets: 9_668,
        remote_packets: 38_332,
        total_latency_cycles: 1_329_471,
        max_latency_cycles: 46,
        makespan_cycles: 37_521,
        link_bytes_digest: 0x8f93_d766_b78a_77a7,
        wire_bits: 0x4177_d7e0_0000_0001,
        router_bits: 0x417b_23b0_0000_0000,
        tsv_bits: 0x413e_6f80_0000_0004,
    },
    Pin {
        case: "fig7 monolithic MiniAMR",
        delivered: 48_000,
        dropped: 0,
        local_packets: 9_668,
        remote_packets: 38_332,
        total_latency_cycles: 482_626,
        max_latency_cycles: 17,
        makespan_cycles: 37_499,
        link_bytes_digest: 0x64e6_2dc1_1da9_2326,
        wire_bits: 0x4162_b780_0000_0001,
        router_bits: 0x416e_6f80_0000_0004,
        tsv_bits: 0x4127_7000_0000_0000,
    },
    Pin {
        case: "fig7 ehp XSBench",
        delivered: 48_000,
        dropped: 0,
        local_packets: 2_424,
        remote_packets: 45_576,
        total_latency_cycles: 1_714_267,
        max_latency_cycles: 52,
        makespan_cycles: 17_962,
        link_bytes_digest: 0xa632_1d96_833f_72e9,
        wire_bits: 0x417c_a6a0_0000_0007,
        router_bits: 0x417f_4fd0_0000_0003,
        tsv_bits: 0x4140_fc80_0000_0001,
    },
    Pin {
        case: "fig7 monolithic XSBench",
        delivered: 48_000,
        dropped: 0,
        local_packets: 2_424,
        remote_packets: 45_576,
        total_latency_cycles: 571_249,
        max_latency_cycles: 18,
        makespan_cycles: 17_945,
        link_bytes_digest: 0x11bd_236b_84d5_ee73,
        wire_bits: 0x4166_4100_0000_0003,
        router_bits: 0x4170_fc80_0000_0001,
        tsv_bits: 0x4127_6fff_ffff_ffff,
    },
    Pin {
        case: "fig7 ehp SNAP",
        delivered: 48_000,
        dropped: 0,
        local_packets: 4_848,
        remote_packets: 43_152,
        total_latency_cycles: 1_523_416,
        max_latency_cycles: 47,
        makespan_cycles: 28_750,
        link_bytes_digest: 0xea7b_f4c4_3ec1_aa14,
        wire_bits: 0x417b_0c60_0000_0002,
        router_bits: 0x417d_eb30_0000_0000,
        tsv_bits: 0x4140_6500_0000_0001,
    },
    Pin {
        case: "fig7 monolithic SNAP",
        delivered: 48_000,
        dropped: 0,
        local_packets: 4_848,
        remote_packets: 43_152,
        total_latency_cycles: 530_861,
        max_latency_cycles: 18,
        makespan_cycles: 28_732,
        link_bytes_digest: 0xfe38_c23c_ec3f_12e4,
        wire_bits: 0x4165_1200_0000_0001,
        router_bits: 0x4170_6500_0000_0001,
        tsv_bits: 0x4127_7000_0000_0000,
    },
    Pin {
        case: "interposer chain SNAP",
        delivered: 32_000,
        dropped: 0,
        local_packets: 3_156,
        remote_packets: 28_844,
        total_latency_cycles: 1_013_163,
        max_latency_cycles: 47,
        makespan_cycles: 19_452,
        link_bytes_digest: 0x030a_1869_aa03_0b27,
        wire_bits: 0x4172_0c20_0000_0006,
        router_bits: 0x4173_f8d0_0000_0003,
        tsv_bits: 0x4135_e580_0000_0001,
    },
    Pin {
        case: "interposer ring SNAP",
        delivered: 32_000,
        dropped: 0,
        local_packets: 3_156,
        remote_packets: 28_844,
        total_latency_cycles: 658_702,
        max_latency_cycles: 34,
        makespan_cycles: 19_435,
        link_bytes_digest: 0x0e06_500d_f587_b167,
        wire_bits: 0x4164_3640_0000_0000,
        router_bits: 0x4170_0050_0000_0001,
        tsv_bits: 0x4135_e580_0000_0001,
    },
    Pin {
        case: "degraded ring CoMD",
        delivered: 25_256,
        dropped: 6_744,
        local_packets: 8_478,
        remote_packets: 16_778,
        total_latency_cycles: 322_268,
        max_latency_cycles: 31,
        makespan_cycles: 136_587,
        link_bytes_digest: 0x1e14_8441_0033_0059,
        wire_bits: 0x4155_e080_0000_0000,
        router_bits: 0x4163_d3e0_0000_0001,
        tsv_bits: 0x412c_b780_0000_0000,
    },
];

#[test]
fn every_run_reproduces_its_pinned_stats() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len());
    for ((topo, packets), pin) in cases.iter().zip(&PINS) {
        let observed = Pin::observe(pin.case, &NocSim::new(topo).run(packets));
        assert!(
            observed == *pin,
            "{} drifted from its pinned stats\nobserved: {observed:#x?}\npinned: {pin:#x?}",
            pin.case
        );
    }
}

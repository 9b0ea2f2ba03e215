//! `NocSim::run` against the loop it replaced.
//!
//! `reference::run` is the simulator as first written: it orders packets
//! by a sort on `(inject cycle, batch index)` and computes each hop's
//! serialization as `ceil(bytes / width)` in f64. `NocSim::run` sorts on
//! the cycle alone, stably, and divides in integers. The two agree: a
//! stable sort keeps equal cycles in batch order, and a `u32` payload over
//! a whole-number width that is not a whole quotient lies at least
//! `1 / width` from one, far more than an f64 rounding moves it.
//!
//! The property holds the two to identical statistics, every count, link
//! byte and energy bit, on inputs built to split them: generated traffic
//! shuffled or reversed, so the sort does all the ordering; packets of
//! many sources injected in a few cycles, and bursts of one pair in one
//! cycle, so ties decide who waits on a shared link; payloads from 0 to
//! `u32::MAX`, mostly not a multiple of the width; degraded chain, ring
//! and monolithic packages; and node ids that are switches or no node.

use ena_noc::energy::EnergyModel;
use ena_noc::sim::{NocSim, NocStats, Packet};
use ena_noc::topology::{NodeKind, Topology};
use ena_noc::traffic::WorkloadTraffic;
use ena_testkit::prelude::*;
use ena_testkit::rng::SplitMix64;
use ena_workloads::profiles::paper_profiles;

mod reference {
    use super::*;

    /// The simulator's semantics, with its first sort and f64 division.
    pub fn run(topo: &Topology, packets: &[Packet]) -> NocStats {
        let table = topo.route_table();
        let energy = EnergyModel::default();
        let mut order: Vec<(u64, usize)> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| (p.inject_cycle, i))
            .collect();
        order.sort();
        let mut stats = NocStats {
            link_bytes: vec![0; topo.links().len()],
            ..NocStats::default()
        };
        let mut link_free = vec![0u64; topo.links().len()];
        for &(_, i) in &order {
            let p = packets[i];
            if p.src == p.dst {
                continue;
            }
            let Some(route) = table.get(p.src, p.dst) else {
                stats.dropped += 1;
                continue;
            };
            let mut now = p.inject_cycle;
            for &li in route {
                let link = topo.links()[li];
                let start = now.max(link_free[li]);
                let width = f64::from(link.bytes_per_cycle.get());
                let ser = (f64::from(p.bytes) / width).ceil() as u64;
                link_free[li] = start + ser;
                // One router pipeline cycle per hop.
                now = start + ser + u64::from(link.latency_cycles) + 1;
                stats.link_bytes[li] += u64::from(p.bytes);
                energy.charge_link(&mut stats.energy, link, p.bytes);
            }
            let latency = now - p.inject_cycle;
            stats.delivered += 1;
            stats.total_bytes += u64::from(p.bytes);
            stats.total_latency_cycles += latency;
            stats.max_latency_cycles = stats.max_latency_cycles.max(latency);
            stats.makespan_cycles = stats.makespan_cycles.max(now);
            let src_site = topo.kind(p.src).chiplet_site();
            let dst_site = topo.kind(p.dst).chiplet_site();
            if src_site.is_some() && src_site == dst_site {
                stats.local_packets += 1;
            } else {
                stats.remote_packets += 1;
            }
        }
        stats
    }
}

/// Every field of a run's statistics, energies as bits.
type Observed = ([u64; 7], u64, Vec<u64>, [u64; 3]);

fn observe(s: &NocStats) -> Observed {
    (
        [
            s.delivered,
            s.dropped,
            s.local_packets,
            s.remote_packets,
            s.total_bytes,
            s.total_latency_cycles,
            s.max_latency_cycles,
        ],
        s.makespan_cycles,
        s.link_bytes.clone(),
        [
            s.energy.wire.value().to_bits(),
            s.energy.router.value().to_bits(),
            s.energy.tsv.value().to_bits(),
        ],
    )
}

/// The healthy package traffic is generated on, and the package it runs
/// on: healthy, with GPU chiplet 3 failed (its stack is cut off), or with
/// one link cut (on the chain, between interposer routers 1 and 2, which
/// partitions the package; on the ring, the same link, routed around; on
/// the monolithic die, GPU chiplet 0's crossbar link).
fn packages(package: usize, damage: usize) -> (Topology, Topology) {
    let healthy = match package {
        0 => Topology::ehp(8, 8),
        1 => Topology::ehp_ring(8, 8),
        _ => Topology::monolithic(8, 8),
    };
    let mut run_on = healthy.clone();
    let find = |kind| run_on.find(kind).expect("the package has every node");
    match damage {
        0 => {}
        1 => {
            run_on
                .fail_kind(NodeKind::GpuChiplet(3))
                .expect("chiplet 3 is live");
        }
        _ => {
            let (a, b) = if package == 2 {
                (find(NodeKind::GpuChiplet(0)), find(NodeKind::Crossbar))
            } else {
                (
                    find(NodeKind::InterposerRouter(1)),
                    find(NodeKind::InterposerRouter(2)),
                )
            };
            run_on.fail_link_between(a, b).expect("the link is live");
        }
    }
    (healthy, run_on)
}

/// Payloads from 0 to `u32::MAX`; about two draws in three are not a
/// multiple of 64.
fn payload() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        1u32..64,
        65u32..4096,
        0u32..=u32::MAX,
        Just(u32::MAX),
        (0u32..1 << 20).prop_map(|lines| lines * 64),
    ]
}

/// How a case's packets are drawn (see [`packets`]).
#[derive(Clone, Debug)]
enum Traffic {
    /// A paper profile's generated traffic with an arbitrary line size,
    /// as generated (`order` 0), reversed (1) or shuffled by `seed` (2).
    Generated {
        profile: usize,
        seed: u64,
        requests: u32,
        line_bytes: u32,
        order: u8,
    },
    /// `(src, dst, cycle, bytes)` over node ids 0..48: endpoints,
    /// switches and ids past the last node, injected in a few cycles.
    Scattered(Vec<(usize, usize, u64, u32)>),
    /// Bursts between one pair of live endpoints (indices into the
    /// healthy package's endpoints), all in cycles 0..3.
    OnePair {
        src: usize,
        dst: usize,
        burst: Vec<(u64, u32)>,
    },
}

fn traffic() -> impl Strategy<Value = Traffic> {
    let generated = (0usize..8, 0u64..u64::MAX, 1u32..120, payload(), 0u8..3).prop_map(
        |(profile, seed, requests, line_bytes, order)| Traffic::Generated {
            profile,
            seed,
            requests,
            line_bytes,
            order,
        },
    );
    let scattered =
        ena_testkit::collection::vec((0usize..48, 0usize..48, 0u64..6, payload()), 1..300)
            .prop_map(Traffic::Scattered);
    let one_pair = (
        0usize..64,
        0usize..64,
        ena_testkit::collection::vec((0u64..3, payload()), 1..40),
    )
        .prop_map(|(src, dst, burst)| Traffic::OnePair { src, dst, burst });
    prop_oneof![generated, scattered, one_pair]
}

/// The packets of `traffic`, generated on `healthy`.
fn packets(traffic: Traffic, healthy: &Topology) -> Vec<Packet> {
    match traffic {
        Traffic::Generated {
            profile,
            seed,
            requests,
            line_bytes,
            order,
        } => {
            let generator = WorkloadTraffic {
                line_bytes,
                ..WorkloadTraffic::from_profile(&paper_profiles()[profile], seed)
            };
            let mut packets = generator.generate(healthy, requests);
            match order {
                0 => {}
                1 => packets.reverse(),
                _ => {
                    // Fisher-Yates, seeded by the traffic seed.
                    let mut rng = SplitMix64::new(seed);
                    for i in (1..packets.len()).rev() {
                        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                        packets.swap(i, j);
                    }
                }
            }
            packets
        }
        Traffic::Scattered(raw) => raw
            .into_iter()
            .map(|(src, dst, inject_cycle, bytes)| Packet {
                src,
                dst,
                bytes,
                inject_cycle,
            })
            .collect(),
        Traffic::OnePair { src, dst, burst } => {
            let eps = healthy.endpoints(|_| true);
            let (src, dst) = (eps[src % eps.len()], eps[dst % eps.len()]);
            burst
                .into_iter()
                .map(|(inject_cycle, bytes)| Packet {
                    src,
                    dst,
                    bytes,
                    inject_cycle,
                })
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_matches_the_reference_loop(
        (package, damage) in (0usize..3, 0usize..3),
        traffic in traffic(),
    ) {
        let (healthy, run_on) = packages(package, damage);
        let packets = packets(traffic, &healthy);
        let fast = NocSim::new(&run_on).run(&packets);
        let slow = reference::run(&run_on, &packets);
        prop_assert_eq!(observe(&fast), observe(&slow));
    }
}

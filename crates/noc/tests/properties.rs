//! Property-based tests for the NoC simulator.

use ena_noc::sim::{NocSim, Packet};
use ena_noc::topology::Topology;
use ena_testkit::prelude::*;
use ena_testkit::process::assert_same_digest_across_processes;

fn arbitrary_endpoints() -> impl Strategy<Value = (usize, usize)> {
    let topo = Topology::ehp(8, 8);
    let eps = topo.endpoints(|_| true);
    let n = eps.len();
    (0..n, 0..n).prop_map(move |(a, b)| (eps[a], eps[b]))
}

proptest! {
    #[test]
    fn routes_are_contiguous_and_terminate((src, dst) in arbitrary_endpoints()) {
        let topo = Topology::ehp(8, 8);
        let route = topo.route(src, dst).expect("connected topology");
        let mut cur = src;
        for &li in &route {
            prop_assert_eq!(topo.links()[li].from, cur);
            cur = topo.links()[li].to;
        }
        prop_assert_eq!(cur, dst);
    }

    #[test]
    fn every_packet_is_delivered_and_accounted(
        seed in 0u64..1000,
        count in 1usize..200,
    ) {
        let topo = Topology::ehp(8, 8);
        let eps = topo.endpoints(|_| true);
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        };
        let packets: Vec<Packet> = (0..count)
            .map(|i| {
                let src = eps[(next() % eps.len() as u64) as usize];
                let mut dst = eps[(next() % eps.len() as u64) as usize];
                if dst == src {
                    dst = eps[(eps.iter().position(|&e| e == src).unwrap() + 1) % eps.len()];
                }
                Packet { src, dst, bytes: 64, inject_cycle: i as u64 }
            })
            .collect();
        let stats = NocSim::new(&topo).run(&packets);
        prop_assert_eq!(stats.delivered, count as u64);
        prop_assert_eq!(stats.total_bytes, 64 * count as u64);
        prop_assert_eq!(stats.local_packets + stats.remote_packets, count as u64);
        let frac = stats.out_of_chiplet_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn contention_never_reduces_latency(
        copies in 1u32..20,
    ) {
        let topo = Topology::ehp(8, 8);
        let gpu = topo.endpoints(|k| matches!(k, ena_noc::NodeKind::GpuChiplet(0)))[0];
        let hbm = topo.endpoints(|k| matches!(k, ena_noc::NodeKind::HbmStack(5)))[0];
        let one = NocSim::new(&topo)
            .run(&[Packet { src: gpu, dst: hbm, bytes: 64, inject_cycle: 0 }])
            .avg_latency_cycles();
        let many: Vec<Packet> = (0..copies)
            .map(|_| Packet { src: gpu, dst: hbm, bytes: 64, inject_cycle: 0 })
            .collect();
        let avg = NocSim::new(&topo).run(&many).avg_latency_cycles();
        prop_assert!(avg >= one - 1e-9, "avg {avg} < uncontended {one}");
    }
}

/// Digest of every precomputed route on the three package topologies.
/// Any iteration-order nondeterminism in topology construction or the
/// route table lands in this value.
fn route_table_digest() -> u64 {
    let mut h = ena_model::hash::StableHasher::new();
    for topo in [
        Topology::ehp(8, 1),
        Topology::ehp_ring(8, 1),
        Topology::monolithic(8, 1),
    ] {
        let endpoints = topo.endpoints(|_| true);
        let table = topo.route_table();
        for &src in &endpoints {
            for &dst in &endpoints {
                let Some(path) = table.get(src, dst) else {
                    continue;
                };
                h.write_usize(src);
                h.write_usize(dst);
                h.write_usize(path.len());
                for &li in path {
                    h.write_usize(li);
                }
            }
        }
    }
    h.finish()
}

/// Satellite invariant: the route table is identical across two
/// *separate process* runs (fresh hash seeds, fresh address space). The
/// test re-executes its own binary twice in digest mode and compares
/// the printed digests with each other and with the in-process value.
#[test]
fn route_table_is_identical_across_two_process_runs() {
    assert_same_digest_across_processes(
        "route_table_is_identical_across_two_process_runs",
        route_table_digest,
    );
}

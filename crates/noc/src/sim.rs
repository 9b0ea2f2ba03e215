//! Packet-level NoC simulation with link contention.
//!
//! The simulator walks each packet along its precomputed route, modeling
//! per-link serialization and queueing: a link serves one packet at a time,
//! so a packet arriving at a busy link waits for the link's next free
//! cycle. This captures the first-order latency and contention effects the
//! paper's gem5-APU runs account for, at a cost low enough to sweep
//! thousands of configurations.

use crate::energy::{EnergyModel, EnergyTally};
use crate::topology::{NodeId, RouteTable, Topology};
use ena_model::error::DegradeError;

/// Router pipeline delay per traversed link, in cycles.
const ROUTER_PIPELINE_CYCLES: u64 = 1;

/// One message to deliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Cycle at which the packet enters the network.
    pub inject_cycle: u64,
}

/// Aggregate results of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct NocStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped because no route exists (severed by degradation).
    pub dropped: u64,
    /// Packets whose source and destination share a chiplet site.
    pub local_packets: u64,
    /// Packets that crossed chiplet boundaries.
    pub remote_packets: u64,
    /// Total payload bytes delivered.
    pub total_bytes: u64,
    /// Sum of per-packet latencies (cycles), for averaging.
    pub total_latency_cycles: u64,
    /// Worst observed packet latency.
    pub max_latency_cycles: u64,
    /// Bytes carried per link (indexed like [`Topology::links`]).
    pub link_bytes: Vec<u64>,
    /// Interconnect energy breakdown.
    pub energy: EnergyTally,
    /// Cycle at which the last packet arrived.
    pub makespan_cycles: u64,
}

impl NocStats {
    /// Mean packet latency in cycles.
    pub fn avg_latency_cycles(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.delivered as f64
        }
    }

    /// Fraction of packets that left their source chiplet (paper Fig. 7).
    pub fn out_of_chiplet_fraction(&self) -> f64 {
        let total = self.local_packets + self.remote_packets;
        if total == 0 {
            0.0
        } else {
            self.remote_packets as f64 / total as f64
        }
    }

    /// The busiest link's carried bytes.
    pub fn hottest_link_bytes(&self) -> u64 {
        self.link_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// A packet-level simulator over a [`Topology`].
#[derive(Debug)]
pub struct NocSim<'a> {
    topo: &'a Topology,
    table: RouteTable,
    energy_model: EnergyModel,
    /// Cycle at which each link becomes free.
    link_free: Vec<u64>,
}

impl<'a> NocSim<'a> {
    /// Creates a simulator for `topo` with the default energy model.
    pub fn new(topo: &'a Topology) -> Self {
        Self::with_energy_model(topo, EnergyModel::default())
    }

    /// Creates a simulator with a custom energy model.
    pub fn with_energy_model(topo: &'a Topology, energy_model: EnergyModel) -> Self {
        Self {
            topo,
            table: topo.route_table(),
            energy_model,
            link_free: vec![0; topo.links().len()],
        }
    }

    /// Delivers a batch of packets, returning aggregate statistics.
    ///
    /// Packets are processed in injection order; equal injection cycles are
    /// served in batch order (deterministic). Each hop holds its link for
    /// the payload over the link's width, rounded up to whole cycles.
    /// Packets whose destination is unreachable (a degraded topology
    /// severed the route) are counted in [`NocStats::dropped`]; use
    /// [`NocSim::try_run`] to surface the first such packet as an
    /// explicit error instead.
    pub fn run(&mut self, packets: &[Packet]) -> NocStats {
        // A stable sort on the cycle alone keeps equal cycles in batch
        // order; it finds the presorted runs (one per source in generated
        // traffic) and merges them.
        let mut order: Vec<(u64, usize)> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| (p.inject_cycle, i))
            .collect();
        order.sort_by_key(|&(cycle, _)| cycle);

        let mut stats = NocStats {
            link_bytes: vec![0; self.topo.links().len()],
            ..NocStats::default()
        };
        self.link_free.fill(0);

        for &(_, i) in &order {
            let p = packets[i];
            if p.src == p.dst {
                continue;
            }
            let Some(route) = self.table.get(p.src, p.dst) else {
                stats.dropped += 1;
                continue;
            };
            let mut now = p.inject_cycle;
            for &li in route {
                let link = self.topo.links()[li];
                let start = now.max(self.link_free[li]);
                let ser = u64::from(p.bytes.div_ceil(link.bytes_per_cycle.get()));
                self.link_free[li] = start + ser;
                now = start + ser + u64::from(link.latency_cycles) + ROUTER_PIPELINE_CYCLES;
                stats.link_bytes[li] += u64::from(p.bytes);
                self.energy_model
                    .charge_link(&mut stats.energy, link, p.bytes);
            }
            let latency = now - p.inject_cycle;
            stats.delivered += 1;
            stats.total_bytes += u64::from(p.bytes);
            stats.total_latency_cycles += latency;
            stats.max_latency_cycles = stats.max_latency_cycles.max(latency);
            stats.makespan_cycles = stats.makespan_cycles.max(now);

            let src_site = self.topo.kind(p.src).chiplet_site();
            let dst_site = self.topo.kind(p.dst).chiplet_site();
            if src_site.is_some() && src_site == dst_site {
                stats.local_packets += 1;
            } else {
                stats.remote_packets += 1;
            }
        }
        stats
    }

    /// Like [`NocSim::run`], but an unreachable destination is an explicit
    /// error naming the severed pair instead of a silent drop.
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::Unreachable`] for the first packet with no
    /// surviving route.
    pub fn try_run(&mut self, packets: &[Packet]) -> Result<NocStats, DegradeError> {
        for p in packets {
            if p.src != p.dst && self.table.get(p.src, p.dst).is_none() {
                return Err(DegradeError::Unreachable {
                    src: p.src,
                    dst: p.dst,
                });
            }
        }
        Ok(self.run(packets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;

    fn ehp() -> Topology {
        Topology::ehp(8, 8)
    }

    #[test]
    fn uncontended_latency_equals_route_cost() {
        let topo = ehp();
        let gpu = topo.find(NodeKind::GpuChiplet(0)).unwrap();
        let hbm = topo.find(NodeKind::HbmStack(0)).unwrap();
        let mut sim = NocSim::new(&topo);
        let stats = sim.run(&[Packet {
            src: gpu,
            dst: hbm,
            bytes: 64,
            inject_cycle: 0,
        }]);
        assert_eq!(stats.delivered, 1);
        // One TSV link: 1 cycle serialization + 1 latency + 1 router.
        assert_eq!(stats.avg_latency_cycles(), 3.0);
        assert_eq!(stats.local_packets, 1);
    }

    #[test]
    fn contention_delays_colliding_packets() {
        let topo = ehp();
        let gpu = topo.find(NodeKind::GpuChiplet(0)).unwrap();
        let hbm = topo.find(NodeKind::HbmStack(0)).unwrap();
        let mut sim = NocSim::new(&topo);
        let packets: Vec<Packet> = (0..10)
            .map(|_| Packet {
                src: gpu,
                dst: hbm,
                bytes: 640, // 10 cycles of serialization each
                inject_cycle: 0,
            })
            .collect();
        let stats = sim.run(&packets);
        // The 10th packet waits for 9 predecessors' serialization.
        assert!(stats.max_latency_cycles >= 9 * 10);
        assert!(stats.avg_latency_cycles() > 10.0);
    }

    #[test]
    fn remote_traffic_is_classified_out_of_chiplet() {
        let topo = ehp();
        let gpu = topo.find(NodeKind::GpuChiplet(0)).unwrap();
        let local = topo.find(NodeKind::HbmStack(0)).unwrap();
        let remote = topo.find(NodeKind::HbmStack(6)).unwrap();
        let mut sim = NocSim::new(&topo);
        let stats = sim.run(&[
            Packet {
                src: gpu,
                dst: local,
                bytes: 64,
                inject_cycle: 0,
            },
            Packet {
                src: gpu,
                dst: remote,
                bytes: 64,
                inject_cycle: 0,
            },
            Packet {
                src: gpu,
                dst: remote,
                bytes: 64,
                inject_cycle: 1,
            },
        ]);
        assert_eq!(stats.local_packets, 1);
        assert_eq!(stats.remote_packets, 2);
        assert!((stats.out_of_chiplet_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn monolithic_beats_chiplets_on_average_latency() {
        let ehp = Topology::ehp(8, 8);
        let mono = Topology::monolithic(8, 8);
        let load = |topo: &Topology| {
            let mut packets = Vec::new();
            for g in 0..8u32 {
                let src = topo.find(NodeKind::GpuChiplet(g)).unwrap();
                for s in 0..8u32 {
                    let dst = topo.find(NodeKind::HbmStack(s)).unwrap();
                    packets.push(Packet {
                        src,
                        dst,
                        bytes: 64,
                        inject_cycle: u64::from(g * 8 + s) * 4,
                    });
                }
            }
            let mut sim = NocSim::new(topo);
            sim.run(&packets).avg_latency_cycles()
        };
        assert!(load(&mono) < load(&ehp));
    }

    #[test]
    fn energy_scales_with_traffic() {
        let topo = ehp();
        let gpu = topo.find(NodeKind::GpuChiplet(0)).unwrap();
        let hbm = topo.find(NodeKind::HbmStack(5)).unwrap();
        let mut sim = NocSim::new(&topo);
        let one = sim
            .run(&[Packet {
                src: gpu,
                dst: hbm,
                bytes: 64,
                inject_cycle: 0,
            }])
            .energy
            .total();
        let two = sim
            .run(&[
                Packet {
                    src: gpu,
                    dst: hbm,
                    bytes: 64,
                    inject_cycle: 0,
                },
                Packet {
                    src: gpu,
                    dst: hbm,
                    bytes: 64,
                    inject_cycle: 100,
                },
            ])
            .energy
            .total();
        assert!(one.value() > 0.0);
        assert!((two.value() - 2.0 * one.value()).abs() < 1e-9);
    }

    #[test]
    fn degraded_topology_drops_severed_traffic_and_reroutes_the_rest() {
        let mut topo = Topology::ehp_ring(8, 8);
        let gpu3 = topo.find(NodeKind::GpuChiplet(3)).unwrap();
        topo.fail_node(gpu3).unwrap();
        let gpu0 = topo.find(NodeKind::GpuChiplet(0)).unwrap();
        let hbm3 = topo.find(NodeKind::HbmStack(3)).unwrap();
        let hbm6 = topo.find(NodeKind::HbmStack(6)).unwrap();
        let packets = [
            // Destination stack orphaned by the dead chiplet: dropped.
            Packet {
                src: gpu0,
                dst: hbm3,
                bytes: 64,
                inject_cycle: 0,
            },
            // A surviving pair: rerouted and delivered.
            Packet {
                src: gpu0,
                dst: hbm6,
                bytes: 64,
                inject_cycle: 0,
            },
        ];
        let mut sim = NocSim::new(&topo);
        let stats = sim.run(&packets);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 1);
        // The strict variant names the severed pair.
        let err = NocSim::new(&topo).try_run(&packets).unwrap_err();
        assert_eq!(
            err,
            ena_model::error::DegradeError::Unreachable {
                src: gpu0,
                dst: hbm3
            }
        );
    }

    #[test]
    fn unknown_endpoints_are_dropped_or_reported_unreachable() {
        let topo = ehp();
        let gpu = topo.find(NodeKind::GpuChiplet(0)).unwrap();
        let hbm = topo.find(NodeKind::HbmStack(0)).unwrap();
        let unknown = topo.node_count();
        let packet = |src, dst| Packet {
            src,
            dst,
            bytes: 64,
            inject_cycle: 0,
        };
        let packets = [
            packet(unknown, hbm),
            packet(gpu, hbm),
            packet(gpu, unknown + 7),
        ];
        let stats = NocSim::new(&topo).run(&packets);
        assert_eq!((stats.delivered, stats.dropped), (1, 2));
        let err = NocSim::new(&topo).try_run(&packets).unwrap_err();
        assert_eq!(
            err,
            DegradeError::Unreachable {
                src: unknown,
                dst: hbm
            }
        );
    }

    #[test]
    fn stats_handle_empty_batches() {
        let topo = ehp();
        let mut sim = NocSim::new(&topo);
        let stats = sim.run(&[]);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.avg_latency_cycles(), 0.0);
        assert_eq!(stats.out_of_chiplet_fraction(), 0.0);
        assert_eq!(stats.hottest_link_bytes(), 0);
    }
}

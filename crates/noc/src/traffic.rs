//! Traffic generation for NoC experiments.
//!
//! Two sources of load:
//!
//! - [`WorkloadTraffic`] synthesizes a GPU memory-request stream from a
//!   kernel's locality characteristics (its out-of-chiplet traffic
//!   fraction), the mechanism behind the Fig. 7 chiplet study.
//! - [`trace_packets`] replays a recorded address trace, interleaving
//!   addresses across the DRAM stacks the way the EHP's physical address
//!   map does.

use std::collections::VecDeque;

use ena_model::error::DegradeError;
use ena_model::kernel::KernelProfile;
use ena_testkit::rng::{unit_f64, SplitMix64};

use crate::sim::Packet;
use crate::topology::{NodeId, NodeKind, Topology};

/// Synthesizes memory-request traffic matching a kernel's locality.
#[derive(Clone, Debug)]
pub struct WorkloadTraffic {
    /// Fraction of requests that target a *remote* DRAM stack.
    pub remote_fraction: f64,
    /// Request payload in bytes (a cache line fill).
    pub line_bytes: u32,
    /// Mean cycles between requests per GPU chiplet (injection pressure).
    pub cycles_per_request: f64,
    /// Seed for the deterministic stream.
    pub seed: u64,
}

impl WorkloadTraffic {
    /// Builds a generator from a kernel profile: the profile's
    /// out-of-chiplet fraction sets remote traffic, its intensity sets the
    /// injection pressure (memory-bound kernels inject harder).
    pub fn from_profile(profile: &KernelProfile, seed: u64) -> Self {
        // Higher ops/byte -> fewer requests per cycle. The floor keeps the
        // network loaded-but-stable even for the most memory-bound kernels;
        // the ceiling keeps MaxFlops injecting occasionally.
        let cycles_per_request = (profile.ops_per_byte * 6.0).clamp(5.0, 400.0);
        Self {
            remote_fraction: profile.out_of_chiplet_fraction,
            line_bytes: 64,
            cycles_per_request,
            seed,
        }
    }

    /// Generates `count` request/response packet pairs per GPU chiplet on
    /// `topo`.
    ///
    /// Requests travel GPU -> stack (command, 16 B) and the data returns
    /// stack -> GPU (`line_bytes`). Remote targets are drawn uniformly from
    /// the other stacks, matching the paper's observation of "a fairly even
    /// distribution of accesses across chiplets".
    ///
    /// Each GPU's packets are emitted in injection order, a response ahead
    /// of a request injected in the same cycle, so the stream is one sorted
    /// run per GPU in the order [`NocSim::run`](crate::sim::NocSim::run)
    /// processes it.
    pub fn generate(&self, topo: &Topology, count_per_chiplet: u32) -> Vec<Packet> {
        let gpus: Vec<(u32, NodeId)> = topo
            .endpoints(|k| matches!(k, NodeKind::GpuChiplet(_)))
            .into_iter()
            .filter_map(|id| match topo.kind(id) {
                NodeKind::GpuChiplet(g) => Some((g, id)),
                _ => None,
            })
            .collect();
        let stacks: Vec<(u32, NodeId)> = topo
            .endpoints(|k| matches!(k, NodeKind::HbmStack(_)))
            .into_iter()
            .filter_map(|id| match topo.kind(id) {
                NodeKind::HbmStack(i) => Some((i, id)),
                _ => None,
            })
            .collect();
        let Some(&(_, fallback_stack)) = stacks.first() else {
            return Vec::new();
        };
        let mut packets = Vec::with_capacity(2 * gpus.len() * count_per_chiplet as usize);
        // Responses not yet emitted: each trails its request by two
        // cycles, so it waits for the next request or two.
        let mut responses: VecDeque<Packet> = VecDeque::new();
        for &(g, gpu) in &gpus {
            let mut rng = SplitMix64::new(self.seed ^ (u64::from(g) << 32));
            let local_stack = stacks
                .iter()
                .find(|&&(i, _)| i == g)
                .map(|&(_, id)| id)
                .unwrap_or(fallback_stack);
            let mut cycle = 0u64;
            for _ in 0..count_per_chiplet {
                cycle += 1 + (unit_f64(rng.next_u64()) * 2.0 * self.cycles_per_request) as u64;
                let remote = unit_f64(rng.next_u64()) < self.remote_fraction;
                let dst_stack = if remote && stacks.len() > 1 {
                    // Uniform over the *other* stacks.
                    let mut pick = (rng.next_u64() % (stacks.len() as u64 - 1)) as usize;
                    if stacks[pick].0 == g {
                        pick = stacks.len() - 1;
                    }
                    stacks[pick].1
                } else {
                    local_stack
                };
                while let Some(&response) = responses.front() {
                    if response.inject_cycle > cycle {
                        break;
                    }
                    responses.pop_front();
                    packets.push(response);
                }
                packets.push(Packet {
                    src: gpu,
                    dst: dst_stack,
                    bytes: 16,
                    inject_cycle: cycle,
                });
                responses.push_back(Packet {
                    src: dst_stack,
                    dst: gpu,
                    bytes: self.line_bytes,
                    inject_cycle: cycle + 2,
                });
            }
            packets.extend(responses.drain(..));
        }
        packets
    }
}

/// Interleaves a logical byte address across `stacks` DRAM stacks at
/// `granularity_bytes` granularity (the EHP's physical address map).
pub fn stack_for_address(addr: u64, stacks: u32, granularity_bytes: u64) -> u32 {
    ((addr / granularity_bytes) % u64::from(stacks)) as u32
}

/// Replays a recorded address trace as NoC packets from one GPU chiplet.
///
/// Each traced line becomes a request/response pair to the stack selected
/// by [`stack_for_address`]. `source_chiplet` is the GPU chiplet issuing
/// the trace; `cycles_per_access` spaces the injections.
///
/// # Errors
///
/// Returns [`DegradeError::UnknownComponent`] if `source_chiplet` does not
/// exist on `topo` or the topology has no DRAM stacks to target.
pub fn trace_packets(
    topo: &Topology,
    source_chiplet: u32,
    addresses: impl IntoIterator<Item = u64>,
    cycles_per_access: u64,
    granularity_bytes: u64,
) -> Result<Vec<Packet>, DegradeError> {
    let src =
        topo.find(NodeKind::GpuChiplet(source_chiplet))
            .ok_or(DegradeError::UnknownComponent {
                component: "GPU chiplet",
                index: u64::from(source_chiplet),
            })?;
    let stacks: Vec<NodeId> = {
        let mut s: Vec<(u32, NodeId)> = topo
            .endpoints(|k| matches!(k, NodeKind::HbmStack(_)))
            .into_iter()
            .filter_map(|id| match topo.kind(id) {
                NodeKind::HbmStack(i) => Some((i, id)),
                _ => None,
            })
            .collect();
        s.sort_by_key(|&(i, _)| i);
        s.into_iter().map(|(_, id)| id).collect()
    };
    if stacks.is_empty() {
        return Err(DegradeError::UnknownComponent {
            component: "DRAM stack",
            index: 0,
        });
    }
    let mut packets = Vec::new();
    let mut cycle = 0u64;
    for addr in addresses {
        cycle += cycles_per_access;
        let stack = stack_for_address(addr, stacks.len() as u32, granularity_bytes) as usize;
        packets.push(Packet {
            src,
            dst: stacks[stack],
            bytes: 16,
            inject_cycle: cycle,
        });
        packets.push(Packet {
            src: stacks[stack],
            dst: src,
            bytes: 64,
            inject_cycle: cycle + 2,
        });
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NocSim;

    fn profile(out_of_chiplet: f64, ops_per_byte: f64) -> KernelProfile {
        KernelProfile {
            name: "synthetic".into(),
            category: ena_model::KernelCategory::Balanced,
            ops_per_byte,
            utilization: 0.5,
            parallelism: 0.8,
            latency_sensitivity: 0.3,
            contention_sensitivity: 0.2,
            write_fraction: 0.3,
            ext_traffic_fraction: 0.5,
            out_of_chiplet_fraction: out_of_chiplet,
            serial_fraction: 0.01,
        }
    }

    #[test]
    fn generated_remote_fraction_tracks_the_profile() {
        let topo = Topology::ehp(8, 8);
        for target in [0.6, 0.95] {
            let gen = WorkloadTraffic::from_profile(&profile(target, 1.0), 42);
            let packets = gen.generate(&topo, 2000);
            let mut sim = NocSim::new(&topo);
            let stats = sim.run(&packets);
            let measured = stats.out_of_chiplet_fraction();
            assert!(
                (measured - target).abs() < 0.05,
                "target {target}, measured {measured}"
            );
        }
    }

    #[test]
    fn memory_bound_profiles_inject_more_densely() {
        let dense = WorkloadTraffic::from_profile(&profile(0.8, 0.5), 1);
        let sparse = WorkloadTraffic::from_profile(&profile(0.8, 100.0), 1);
        assert!(dense.cycles_per_request < sparse.cycles_per_request);
    }

    #[test]
    fn interleave_is_uniform_and_total() {
        let mut counts = [0u64; 8];
        for i in 0..8000u64 {
            counts[stack_for_address(i * 64, 8, 4096) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), 8000);
        for &c in &counts {
            assert!((c as i64 - 1000).abs() <= 64, "count = {c}");
        }
    }

    #[test]
    fn trace_replay_reaches_all_stacks() {
        let topo = Topology::ehp(8, 8);
        let addrs: Vec<u64> = (0..64u64).map(|i| i * 4096).collect();
        let packets = trace_packets(&topo, 0, addrs, 4, 4096).unwrap();
        assert_eq!(packets.len(), 128);
        let mut sim = NocSim::new(&topo);
        let stats = sim.run(&packets);
        assert_eq!(stats.delivered, 128);
        // 1/8 of interleaved addresses land on the local stack.
        let frac = stats.out_of_chiplet_fraction();
        assert!((frac - 0.875).abs() < 0.01, "fraction = {frac}");
    }

    #[test]
    fn each_gpu_stream_comes_out_in_processing_order() {
        let topo = Topology::ehp(8, 8);
        // The densest injection: a response often shares its cycle with
        // a later request.
        let packets = WorkloadTraffic::from_profile(&profile(0.7, 0.5), 3).generate(&topo, 2000);
        let is_response = |p: &Packet| matches!(topo.kind(p.src), NodeKind::HbmStack(_));
        let gpu = |p: &Packet| if is_response(p) { p.dst } else { p.src };
        let mut ties = 0;
        for pair in packets.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if gpu(a) != gpu(b) {
                continue;
            }
            assert!(a.inject_cycle <= b.inject_cycle, "{a:?} before {b:?}");
            if a.inject_cycle == b.inject_cycle {
                assert!(is_response(a) && !is_response(b), "{a:?} before {b:?}");
                ties += 1;
            }
        }
        assert!(ties > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let topo = Topology::ehp(8, 8);
        let gen = WorkloadTraffic::from_profile(&profile(0.7, 2.0), 7);
        assert_eq!(gen.generate(&topo, 100), gen.generate(&topo, 100));
    }
}

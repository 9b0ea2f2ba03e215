//! Synthesizing wavefront programs from kernel profiles.
//!
//! Bridges the analytic and cycle-level views: a
//! [`ena_model::KernelProfile`]'s arithmetic intensity,
//! parallelism, and access regularity become a concrete set of wavefront
//! programs whose timing-simulated behaviour can be compared against the
//! analytic model's predictions (the validation experiment in
//! `ena-bench`).

use ena_model::kernel::KernelProfile;

use crate::program::{Op, WavefrontProgram};

/// DP FLOPs a wavefront retires per issue cycle (64 lanes).
pub const FLOPS_PER_ISSUE: u32 = 64;

/// DP FLOPs of one full `Compute` chunk: 16 issue cycles.
const CHUNK_FLOPS: u32 = FLOPS_PER_ISSUE * 16;

/// A deterministic address-stream generator mixing strided and random
/// accesses.
#[derive(Clone, Copy, Debug)]
struct AddressGen {
    state: u64,
    cursor: u64,
    /// Probability of continuing the sequential stream.
    sequential: f64,
}

impl AddressGen {
    fn new(seed: u64, sequential: f64) -> Self {
        Self {
            state: seed | 1,
            cursor: (seed % 1024) * 4096,
            sequential: sequential.clamp(0.0, 1.0),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.sequential {
            self.cursor += 64;
        } else {
            self.cursor = (self.state >> 17) % (1 << 30);
            self.cursor -= self.cursor % 64;
        }
        self.cursor
    }
}

/// Builds the wavefront set for `profile` on one CU.
///
/// - Wavefront count scales with `parallelism` (1..=16): the knob behind
///   latency hiding.
/// - Per iteration, a wavefront issues a burst of loads sized by the
///   profile's memory-level parallelism, waits, then computes enough
///   cycles to honor the profile's ops-per-byte.
/// - Address streams mix strided and random accesses; irregular
///   (latency-sensitive) kernels get more randomness.
pub fn wavefronts_for(
    profile: &KernelProfile,
    iterations: u32,
    seed: u64,
) -> Vec<WavefrontProgram> {
    let count = (1.0 + profile.parallelism * 15.0).round() as usize;
    let mlp = (1.0 + profile.parallelism * 7.0).round() as u32;
    // Bytes per iteration: mlp lines.
    let bytes = mlp * 64;
    let flops = (profile.ops_per_byte * f64::from(bytes)).round().max(0.0) as u64;
    let sequential = 1.0 - profile.latency_sensitivity;

    (0..count)
        .map(|w| {
            let mut gen = AddressGen::new(seed ^ ((w as u64) << 32), sequential);
            let mut p = WavefrontProgram::new();
            for _ in 0..iterations {
                for _ in 0..mlp {
                    let addr = gen.next();
                    // Uniform on [0, 1) from the generator's top 57 bits.
                    let unit = (gen.state >> 7) as f64 / (1u64 << 57) as f64;
                    if unit < profile.write_fraction {
                        p = p.push(Op::Store { addr });
                    } else {
                        p = p.push(Op::Load { addr });
                    }
                }
                p = p.push(Op::Wait {
                    max_outstanding: mlp / 2,
                });
                // Full 16-cycle chunks as one run, then the remainder.
                p = p.push_run(
                    Op::Compute {
                        cycles: 16,
                        flops: CHUNK_FLOPS,
                    },
                    flops / u64::from(CHUNK_FLOPS),
                );
                let rest = (flops % u64::from(CHUNK_FLOPS)) as u32;
                if rest > 0 {
                    p = p.push(Op::Compute {
                        cycles: rest.div_ceil(FLOPS_PER_ISSUE),
                        flops: rest,
                    });
                }
            }
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_model::kernel::KernelCategory;

    fn profile(opb: f64, par: f64, lat: f64) -> KernelProfile {
        KernelProfile {
            name: "synthetic".into(),
            category: KernelCategory::Balanced,
            ops_per_byte: opb,
            utilization: 0.6,
            parallelism: par,
            latency_sensitivity: lat,
            contention_sensitivity: 0.2,
            write_fraction: 0.2,
            ext_traffic_fraction: 0.5,
            out_of_chiplet_fraction: 0.8,
            serial_fraction: 0.01,
        }
    }

    #[test]
    fn intensity_carries_into_the_programs() {
        let wf = wavefronts_for(&profile(4.0, 0.8, 0.2), 10, 7);
        let flops: u64 = wf.iter().map(|p| p.total_flops()).sum();
        let bytes: u64 = wf.iter().map(|p| p.total_requests() * 64).sum();
        let measured = flops as f64 / bytes as f64;
        assert!((measured - 4.0).abs() < 0.5, "intensity {measured}");
    }

    #[test]
    fn parallelism_scales_wavefront_count() {
        assert!(
            wavefronts_for(&profile(2.0, 1.0, 0.2), 4, 1).len()
                > 2 * wavefronts_for(&profile(2.0, 0.2, 0.2), 4, 1).len()
        );
    }

    #[test]
    fn irregular_profiles_generate_scattered_addresses() {
        let collect = |lat: f64| {
            let wf = wavefronts_for(&profile(1.0, 0.5, lat), 32, 3);
            let mut seq = 0u32;
            let mut total = 0u32;
            let mut last = None;
            for op in wf[0].ops() {
                if let Op::Load { addr } | Op::Store { addr } = op {
                    if let Some(prev) = last {
                        total += 1;
                        if addr == prev + 64 {
                            seq += 1;
                        }
                    }
                    last = Some(addr);
                }
            }
            f64::from(seq) / f64::from(total.max(1))
        };
        assert!(collect(0.9) < collect(0.1));
    }

    #[test]
    fn store_share_matches_the_write_fraction() {
        for p in ena_workloads::paper_profiles() {
            let (stores, requests) = wavefronts_for(&p, 24, 0xABCD)
                .iter()
                .flat_map(WavefrontProgram::ops)
                .fold((0u64, 0u64), |(s, r), op| match op {
                    Op::Store { .. } => (s + 1, r + 1),
                    Op::Load { .. } => (s, r + 1),
                    _ => (s, r),
                });
            let share = stores as f64 / requests as f64;
            assert!(
                (share - p.write_fraction).abs() < 0.03,
                "{}: store share {share:.3}, write fraction {}",
                p.name,
                p.write_fraction
            );
        }
    }

    /// `wavefronts_for` as it was first written: one push per op, each
    /// compute chunk at most 1024 flops.
    fn op_by_op(profile: &KernelProfile, iterations: u32, seed: u64) -> Vec<WavefrontProgram> {
        let count = (1.0 + profile.parallelism * 15.0).round() as usize;
        let mlp = (1.0 + profile.parallelism * 7.0).round() as u32;
        let flops = (profile.ops_per_byte * f64::from(mlp * 64))
            .round()
            .max(0.0) as u64;
        (0..count)
            .map(|w| {
                let mut gen =
                    AddressGen::new(seed ^ ((w as u64) << 32), 1.0 - profile.latency_sensitivity);
                let mut p = WavefrontProgram::new();
                for _ in 0..iterations {
                    for _ in 0..mlp {
                        let addr = gen.next();
                        let unit = (gen.state >> 7) as f64 / (1u64 << 57) as f64;
                        p = p.push(if unit < profile.write_fraction {
                            Op::Store { addr }
                        } else {
                            Op::Load { addr }
                        });
                    }
                    p = p.push(Op::Wait {
                        max_outstanding: mlp / 2,
                    });
                    let mut remaining = flops;
                    while remaining > 0 {
                        let chunk = remaining.min(1024) as u32;
                        p = p.push(Op::Compute {
                            cycles: chunk.div_ceil(64),
                            flops: chunk,
                        });
                        remaining -= u64::from(chunk);
                    }
                }
                p
            })
            .collect()
    }

    #[test]
    fn chunk_runs_match_the_op_by_op_construction() {
        for p in ena_workloads::paper_profiles() {
            assert_eq!(
                wavefronts_for(&p, 24, 0xABCD),
                op_by_op(&p, 24, 0xABCD),
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = wavefronts_for(&profile(2.0, 0.7, 0.3), 8, 42);
        let b = wavefronts_for(&profile(2.0, 0.7, 0.3), 8, 42);
        assert_eq!(a, b);
    }
}

//! XSBench: Monte Carlo neutron-transport cross-section lookups.
//!
//! XSBench isolates the dominant kernel of Monte Carlo particle transport:
//! for a random particle energy and material, binary-search the unionized
//! energy grid, then gather and interpolate the microscopic cross sections
//! of every nuclide in the material. The access pattern is essentially
//! random over a multi-gigabyte table — the paper's most memory-/latency-
//! intensive workload (89 % external traffic).
//!
//! The cross-section table is never materialized: each entry is drawn on
//! demand from a counter-based stream (see [`NuclideData::xs`]), so a run
//! costs its lookups rather than the table fill. The grid, the materials
//! and therefore every traced address are those of a filled table.

use ena_model::kernel::KernelCategory;
use ena_testkit::rng::{unit_f64, SplitMix64, StdRng};

use crate::app::{KernelRun, ProxyApp, RunConfig};
use crate::apps::array_base;
use crate::trace::Tracer;

const GRID_BASE: u64 = array_base(0);
const XS_BASE: u64 = array_base(1);
const MAT_BASE: u64 = array_base(2);

/// Number of interaction channels per grid point (total, elastic, absorption,
/// fission, nu-fission — as in the real XSBench).
const CHANNELS: usize = 5;

/// A scaled-down unionized energy grid.
///
/// The per-nuclide cross sections, flattened `[gridpoint][nuclide][channel]`,
/// are a function of the flat index rather than a stored table: entry `i`
/// is the `i`-th output of a SplitMix64 stream seeded from the run's
/// generator, scaled to `[0, 10)`. Building still advances the generator
/// past one draw per entry, so the materials drawn after the table (and
/// with them every traced address) match a materialized table's.
struct NuclideData {
    /// Sorted unionized energy grid.
    energies: Vec<f64>,
    /// Seed of the stream whose `i`-th output is cross-section entry `i`.
    xs_seed: u64,
    nuclides: usize,
    /// Materials: list of nuclide indices per material.
    materials: Vec<Vec<u32>>,
}

impl NuclideData {
    fn build(gridpoints: usize, nuclides: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut energies: Vec<f64> = (0..gridpoints)
            .map(|_| rng.random_range(1e-11..20.0f64))
            .collect();
        energies.sort_by(|a, b| a.total_cmp(b));
        // The table's draws: the first seeds the on-demand stream, the
        // rest are skipped.
        let xs_seed = rng.next_u64();
        for _ in 1..gridpoints * nuclides * CHANNELS {
            rng.next_u64();
        }
        // 12 materials with varying nuclide counts (fuel has many).
        let materials = (0..12)
            .map(|m| {
                let count = if m == 0 {
                    nuclides.min(32)
                } else {
                    rng.random_range(2..8)
                };
                (0..count)
                    .map(|_| rng.random_range(0..nuclides as u32))
                    .collect()
            })
            .collect();
        Self {
            energies,
            xs_seed,
            nuclides,
            materials,
        }
    }

    /// Cross-section entry `i` of the flattened table, in `[0, 10)`.
    fn xs(&self, i: usize) -> f64 {
        10.0 * unit_f64(SplitMix64::output_at(self.xs_seed, i as u64))
    }

    /// Binary search for the grid interval containing `e`, tracing each probe.
    fn grid_search(&self, e: f64, tracer: &mut Tracer) -> usize {
        let mut lo = 0usize;
        let mut hi = self.energies.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            tracer.read(GRID_BASE + (mid * 8) as u64, 8);
            tracer.int_ops(3);
            if self.energies[mid] <= e {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The XSBench lookup proxy.
///
/// Lookups gather from a `[gridpoint][nuclide][channel]` cross-section
/// table at `XS_BASE`; the entries are drawn on demand, the traced
/// addresses are those of the full table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XsBench;

impl ProxyApp for XsBench {
    fn name(&self) -> &'static str {
        "XSBench"
    }

    fn description(&self) -> &'static str {
        "Monte Carlo particle transport simulation"
    }

    fn category(&self) -> KernelCategory {
        KernelCategory::MemoryIntensive
    }

    fn run(&self, cfg: &RunConfig) -> KernelRun {
        let mut tracer = Tracer::for_config(cfg);
        let gridpoints = (cfg.problem_size as usize).max(4) * 2048;
        let nuclides = 64;
        let data = NuclideData::build(gridpoints, nuclides, cfg.seed);
        let lookups = (cfg.problem_size as usize).max(4) * 1500;

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE);
        let mut checksum = 0.0f64;
        for _ in 0..lookups {
            let e = rng.random_range(1e-11..20.0f64);
            let mat = rng.random_range(0..data.materials.len());
            tracer.read(MAT_BASE + (mat * 64) as u64, 64);
            let idx = data.grid_search(e, &mut tracer);

            // Gather and interpolate each nuclide of the material.
            let span = data.energies[idx + 1] - data.energies[idx];
            let frac = if span > 0.0 {
                (e - data.energies[idx]) / span
            } else {
                0.0
            };
            tracer.flops(3);
            for &nuc in &data.materials[mat] {
                let lo = (idx * data.nuclides + nuc as usize) * CHANNELS;
                let hi = ((idx + 1) * data.nuclides + nuc as usize) * CHANNELS;
                tracer.read(XS_BASE + (lo * 8) as u64, (CHANNELS * 8) as u32);
                tracer.read(XS_BASE + (hi * 8) as u64, (CHANNELS * 8) as u32);
                for c in 0..CHANNELS {
                    let v = data.xs(lo + c) * (1.0 - frac) + data.xs(hi + c) * frac;
                    checksum += v;
                    tracer.flops(4);
                }
            }
        }

        let (trace, counters) = tracer.into_parts();
        KernelRun {
            trace,
            counters,
            checksum: std::hint::black_box(checksum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_is_strongly_memory_bound() {
        let run = XsBench.run(&RunConfig::small());
        let opb = run.ops_per_byte();
        assert!(opb < 0.5, "ops/byte = {opb}");
    }

    #[test]
    fn accesses_are_random() {
        let run = XsBench.run(&RunConfig::small());
        // Straddling 40-byte gathers produce some adjacent line pairs, but
        // the stream stays far from streaming behaviour.
        assert!(run.trace.sequential_fraction() < 0.25);
    }

    #[test]
    fn grid_search_finds_the_bracketing_interval() {
        let data = NuclideData::build(4096, 8, 11);
        let mut tracer = Tracer::with_capacity_cap(64);
        for &e in &[1e-6, 0.5, 5.0, 19.0] {
            let idx = data.grid_search(e, &mut tracer);
            assert!(data.energies[idx] <= e || idx == 0);
            assert!(e <= data.energies[idx + 1] || data.energies[idx] > e);
        }
    }

    #[test]
    fn building_consumes_the_draws_of_a_filled_table() {
        let (gridpoints, nuclides, seed) = (64, 8, 11);
        let data = NuclideData::build(gridpoints, nuclides, seed);
        // Reference: the generator as a materialized fill leaves it.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..gridpoints {
            rng.random_range(1e-11..20.0f64);
        }
        let table: Vec<u64> = (0..gridpoints * nuclides * CHANNELS)
            .map(|_| rng.next_u64())
            .collect();
        let materials: Vec<Vec<u32>> = (0..12)
            .map(|m| {
                let count = if m == 0 {
                    nuclides.min(32)
                } else {
                    rng.random_range(2..8)
                };
                (0..count)
                    .map(|_| rng.random_range(0..nuclides as u32))
                    .collect()
            })
            .collect();
        assert_eq!(data.materials, materials);
        assert_eq!(data.xs_seed, table[0]);
        for i in 0..table.len() {
            assert!((0.0..10.0).contains(&data.xs(i)), "entry {i}");
        }
    }

    #[test]
    fn footprint_scales_with_gridpoints() {
        let mut cfg = RunConfig::small();
        cfg.problem_size = 4;
        let small = XsBench.run(&cfg).trace.footprint_bytes();
        cfg.problem_size = 8;
        let big = XsBench.run(&cfg).trace.footprint_bytes();
        assert!(big > small);
    }

    #[test]
    fn mostly_reads() {
        let run = XsBench.run(&RunConfig::small());
        assert!(run.trace.write_fraction() < 0.05);
    }
}

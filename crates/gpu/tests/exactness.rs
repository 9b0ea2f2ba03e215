//! Exactness of the timing simulator.
//!
//! `GpuSim::run` skips work: it drains completed requests lazily,
//! advances pipe-bound stretches in O(1) per grant and applies repeating
//! round-robin laps of a stretch at once (see the `sim` module docs).
//! `reference` below is the plain loop those shortcuts must match:
//! every wavefront drained at the top of every cycle, every cycle scanned,
//! programs held as expanded op lists. The property test holds the two to
//! identical `TimingStats`, and the pinned counts hold the validation
//! experiment's inputs to the values the plain loop produced.

use std::num::NonZeroU32;

use ena_gpu::backend::{FixedLatency, HbmBackend, MemoryBackend};
use ena_gpu::program::{Op, WavefrontProgram};
use ena_gpu::sim::{CuConfig, GpuSim, TimingStats};
use ena_gpu::synth::wavefronts_for;
use ena_testkit::prelude::*;

mod reference {
    use super::*;

    struct Wave {
        ops: Vec<Op>,
        pc: usize,
        busy_until: u64,
        outstanding: Vec<u64>,
    }

    impl Wave {
        fn done(&self) -> bool {
            self.pc >= self.ops.len()
        }

        fn next_event(&self, now: u64, cfg: &CuConfig) -> Option<u64> {
            if self.done() {
                return None;
            }
            let mut earliest = self.busy_until.max(now);
            match self.ops[self.pc] {
                Op::Wait { max_outstanding } => {
                    if self.outstanding.len() > max_outstanding as usize {
                        let mut c = self.outstanding.clone();
                        c.sort_unstable();
                        let need = self.outstanding.len() - max_outstanding as usize;
                        earliest = earliest.max(c[need - 1]);
                    }
                }
                Op::Load { .. } | Op::Store { .. } => {
                    if self.outstanding.len() >= cfg.max_outstanding.get() as usize {
                        if let Some(&min) = self.outstanding.iter().min() {
                            earliest = earliest.max(min);
                        }
                    }
                }
                Op::Compute { .. } => {}
            }
            Some(earliest)
        }
    }

    /// The simulator's semantics, one full scan per cycle.
    pub fn run<B: MemoryBackend>(
        config: CuConfig,
        backend: &mut B,
        wavefronts: &[WavefrontProgram],
    ) -> TimingStats {
        let mut waves: Vec<Wave> = wavefronts
            .iter()
            .map(|p| Wave {
                ops: p.ops().collect(),
                pc: 0,
                busy_until: 0,
                outstanding: Vec::new(),
            })
            .collect();
        let mut now = 0u64;
        let mut stats = TimingStats::default();
        let mut rr = 0usize;
        let mut pipe_free = vec![0u64; config.compute_pipes.get() as usize];

        while waves.iter().any(|w| !w.done()) {
            for w in waves.iter_mut() {
                w.outstanding.retain(|&c| c > now);
            }
            let mut issued = 0u32;
            let n = waves.len();
            for k in 0..n {
                if issued >= config.issue_width.get() {
                    break;
                }
                let w = &mut waves[(rr + k) % n];
                if w.done() || w.busy_until > now {
                    continue;
                }
                match w.ops[w.pc] {
                    Op::Compute { cycles, flops } => {
                        let Some(pipe) = pipe_free.iter_mut().find(|f| **f <= now) else {
                            continue;
                        };
                        *pipe = now + u64::from(cycles);
                        w.busy_until = now + u64::from(cycles);
                        stats.flops += u64::from(flops);
                        w.pc += 1;
                        issued += 1;
                    }
                    Op::Load { addr } | Op::Store { addr }
                        if w.outstanding.len() < config.max_outstanding.get() as usize =>
                    {
                        let is_write = matches!(w.ops[w.pc], Op::Store { .. });
                        w.outstanding.push(backend.request(addr, is_write, now));
                        stats.requests += 1;
                        w.pc += 1;
                        issued += 1;
                    }
                    Op::Wait { max_outstanding }
                        if w.outstanding.len() <= max_outstanding as usize =>
                    {
                        w.pc += 1;
                    }
                    _ => {}
                }
            }
            rr = (rr + 1) % n;
            stats.issued_ops += u64::from(issued);
            if issued == 0 {
                let next = waves
                    .iter()
                    .filter_map(|w| w.next_event(now + 1, &config))
                    .min()
                    .map(|e| {
                        let pipe = pipe_free.iter().copied().min().unwrap_or(0);
                        if e <= now + 1 && pipe > now {
                            e.max(pipe)
                        } else {
                            e
                        }
                    });
                now = next.unwrap_or(now + 1).max(now + 1);
            } else {
                now += 1;
            }
        }

        let drain = waves
            .iter()
            .map(|w| {
                w.busy_until
                    .max(w.outstanding.iter().copied().max().unwrap_or(0))
            })
            .max()
            .unwrap_or(0);
        stats.cycles = now.max(drain).max(1);
        stats.issue_slots = stats.cycles * u64::from(config.issue_width.get());
        stats
    }
}

/// A run of identical `Compute` ops, a burst of memory requests, or one
/// `Wait`. Compute runs of 1 and 2 cycles are common: there the fast
/// path's grant and idle cycles interleave differently. So are 0 cycles,
/// which free the pipe within their own cycle. Long compute segments, one
/// to two runs of 24 to 200 ops, outlast a lap of up to 12 wavefronts
/// many times over, so the fast path repeats laps; a 1-cycle run next to
/// a multi-cycle one, in one program or across wavefronts, mixes steps of
/// one and two slots within a lap. Programs of unequal length finish at
/// different times, so several slots can map to one live wavefront.
/// Bursts to scattered lines keep several requests in flight, and the
/// banked backend completes them out of order.
fn segment() -> impl Strategy<Value = Vec<Op>> {
    let long_cycles = || prop_oneof![Just(1u32), Just(2u32), 1u32..=5];
    let long_compute = (
        (long_cycles(), 0u32..1024, 24usize..200),
        (long_cycles(), 0u32..1024, 0usize..200),
    )
        .prop_map(|((c1, f1, n1), (c2, f2, n2))| {
            let run = |cycles, flops, n| vec![Op::Compute { cycles, flops }; n];
            [run(c1, f1, n1), run(c2, f2, n2)].concat()
        });
    let cycles = prop_oneof![Just(0u32), Just(1u32), Just(2u32), 1u32..=20];
    let request = (0u64..1 << 16, any::<bool>()).prop_map(|(line, store)| {
        let addr = line * 64;
        if store {
            Op::Store { addr }
        } else {
            Op::Load { addr }
        }
    });
    let compute = (cycles, 0u32..1024, 1usize..24)
        .prop_map(|(cycles, flops, n)| vec![Op::Compute { cycles, flops }; n]);
    prop_oneof![
        compute,
        long_compute,
        ena_testkit::collection::vec(request, 1..8),
        (0u32..=3).prop_map(|m| vec![Op::Wait { max_outstanding: m }]),
    ]
}

/// A program of up to 7 segments; some are empty.
fn program() -> impl Strategy<Value = WavefrontProgram> {
    ena_testkit::collection::vec(segment(), 0..8)
        .prop_map(|segments| segments.into_iter().flatten().collect())
}

fn config() -> impl Strategy<Value = CuConfig> {
    (1u32..=4, 1u32..=8, 1u32..=3).prop_map(|(issue_width, max_outstanding, compute_pipes)| {
        let nonzero = |n| NonZeroU32::new(n).expect("strategy draws from 1..");
        CuConfig {
            issue_width: nonzero(issue_width),
            max_outstanding: nonzero(max_outstanding),
            compute_pipes: nonzero(compute_pipes),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn run_matches_the_reference_loop(
        wavefronts in ena_testkit::collection::vec(program(), 1..=12),
        cfg in config(),
        (latency, interval) in (0u64..300, 1u64..8),
    ) {
        let fast = GpuSim::new(cfg, &mut FixedLatency::new(latency, interval))
            .run(wavefronts.clone());
        let slow = reference::run(cfg, &mut FixedLatency::new(latency, interval), &wavefronts);
        prop_assert_eq!(fast, slow);

        let fast = GpuSim::new(cfg, &mut HbmBackend::new(8)).run(wavefronts.clone());
        let slow = reference::run(cfg, &mut HbmBackend::new(8), &wavefronts);
        prop_assert_eq!(fast, slow);
    }
}

/// Every paper profile's synthesized wavefronts, short enough for the
/// reference loop, on both backends.
#[test]
fn synthesized_profiles_match_the_reference_loop() {
    for profile in ena_workloads::paper_profiles() {
        let wavefronts = wavefronts_for(&profile, 2, 0xABCD);
        let cfg = CuConfig::default();
        let fast = GpuSim::new(cfg, &mut FixedLatency::new(170, 7)).run(wavefronts.clone());
        let slow = reference::run(cfg, &mut FixedLatency::new(170, 7), &wavefronts);
        assert_eq!(fast, slow, "{} on fixed latency", profile.name);
        let fast = GpuSim::new(cfg, &mut HbmBackend::new(8)).run(wavefronts.clone());
        let slow = reference::run(cfg, &mut HbmBackend::new(8), &wavefronts);
        assert_eq!(fast, slow, "{} on banked HBM", profile.name);
    }
}

/// The cycle counts of `figures validation`'s 16 runs (`wavefronts_for(p,
/// 24, 0xABCD)`, default CU, fixed latency 170/7 and 8-stack banked HBM),
/// as the reference loop computes them.
#[test]
fn validation_inputs_keep_their_cycle_counts() {
    const PINNED: [(&str, u64, u64); 8] = [
        ("MaxFlops", 30_720_255, 30_720_241),
        ("CoMD", 27_975, 27_813),
        ("CoMD-LJ", 23_081, 22_773),
        ("HPGMG", 16_642, 11_938),
        ("LULESH", 12_259, 4_397),
        ("MiniAMR", 16_627, 5_044),
        ("XSBench", 8_563, 2_127),
        ("SNAP", 17_803, 4_357),
    ];
    let profiles = ena_workloads::paper_profiles();
    assert_eq!(profiles.len(), PINNED.len());
    let mut total = 0;
    for (profile, &(name, fixed, banked)) in profiles.iter().zip(&PINNED) {
        assert_eq!(profile.name, name);
        let wavefronts = wavefronts_for(profile, 24, 0xABCD);
        let cfg = CuConfig::default();
        let run = GpuSim::new(cfg, &mut FixedLatency::new(170, 7)).run(wavefronts.clone());
        assert_eq!(run.cycles, fixed, "{name} on fixed latency");
        let run = GpuSim::new(cfg, &mut HbmBackend::new(8)).run(wavefronts);
        assert_eq!(run.cycles, banked, "{name} on banked HBM");
        total += fixed + banked;
    }
    assert_eq!(total, 61_641_895);
}

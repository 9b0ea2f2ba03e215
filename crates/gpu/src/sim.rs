//! The wavefront-level timing simulator.
//!
//! Models one compute unit multiplexing a set of wavefront contexts over
//! its SIMD issue slots. Wavefronts hide memory latency by switching:
//! while one waits on outstanding requests, others issue. This is the
//! mechanism behind the paper's Finding that "the GPU's massive
//! parallelism is effective at latency hiding" (Section V-A), and the
//! cycle-level complement to the analytic model's `parallelism` /
//! `latency_sensitivity` parameters.
//!
//! # The issue loop
//!
//! Each iteration of [`GpuSim::run`] is one cycle, `now`:
//!
//! 1. requests that completed by `now` leave their wavefront's in-flight
//!    set;
//! 2. starting at the round-robin pointer `rr`, each wavefront that is not
//!    busy gets one chance to issue its current op, until `issue_width`
//!    ops have issued. `Compute` needs a free shared pipe and occupies it
//!    for its cycles; a load or store needs an in-flight slot; a satisfied
//!    `Wait` retires without using an issue slot;
//! 3. `rr` advances by one;
//! 4. if anything issued, `now` advances by one. Otherwise it jumps to the
//!    earliest cycle at which any wavefront could progress; if that is the
//!    next cycle while every pipe is busy, it jumps to when the first pipe
//!    frees instead.
//!
//! The makespan runs to the last completion, not the last issue.
//!
//! Step 1 is lazy. A wavefront's in-flight completions are kept sorted
//! and drained only when it is examined for issue, because only their
//! count matters there. The jump in step 4 looks from `now + 1` on, and
//! there a completion at or before `now` changes nothing, drained or not.
//!
//! # The pipe-bound fast path
//!
//! A compute-bound kernel spends nearly all its cycles with every live
//! wavefront's current op a `Compute` queued on one pipe. The loop above
//! then costs two O(wavefronts) iterations per grant: one grants the
//! pipe, one finds nothing to issue and jumps to when the pipe frees.
//! The fast path reproduces those iterations in O(1) per grant. It
//! applies when there is one compute pipe, it is free at `now`, and every
//! live wavefront's current op is `Compute`.
//!
//! It is exact because a wavefront's `busy_until` is only ever set by a
//! pipe grant, so with one pipe no wavefront is busy once the pipe is
//! free. The scan therefore grants the pipe to the first live wavefront at
//! or after `rr`, and no one else issues. That grant cycle advances `rr`
//! and `now` by one. If the grant took two or more cycles, the next
//! iteration issues nothing, advances `rr` once more and jumps exactly to
//! the pipe's free cycle. If it took one cycle, the next iteration is
//! itself a grant. The stretch ends once the grantee finishes or its next
//! op is not `Compute`. A zero-cycle `Compute` frees the pipe within its
//! own cycle, so the general loop handles it.
//!
//! # Whole laps
//!
//! Within a stretch the grantee is a function of `rr` alone, and each
//! grant moves `rr` by one or two and `now` by the op's cycles, leaving
//! the pipe free at the new `now`. So while every grantee stays inside
//! its current run of identical `Compute` ops, the grants repeat once
//! `rr` comes back to where it stood: a lap, at most one grant per
//! wavefront slot. The fast path records one lap grant by grant, then
//! applies `k` more at once, where `k` is the most laps that leave every
//! grantee at least one op of its run: `now`, the pipe's free cycle and
//! each grantee's `busy_until` move by `k` times the lap's cycles, the
//! counters by `k` times its flops and grants, and each grantee's cursor
//! skips `k` times its grants per lap. A lap in which some grantee's run
//! ended does not repeat, and one whose `rr` has not come back after as
//! many grants as there are wavefronts gives way to a new lap from the
//! current `rr`. The last ops of each run go one grant at a time, so a
//! stretch costs O(wavefronts) per run rather than per grant.

use std::collections::VecDeque;
use std::num::NonZeroU32;

use crate::backend::MemoryBackend;
use crate::program::{Cursor, Op, WavefrontProgram};

/// Configuration of one simulated compute unit.
///
/// Every field is nonzero: with no issue slot, or no in-flight slot for a
/// wavefront's load or store, nothing could ever issue and
/// [`GpuSim::run`] would never return. So this does not compile:
///
/// ```compile_fail,E0308
/// use ena_gpu::sim::CuConfig;
///
/// let _ = CuConfig { issue_width: 0, ..CuConfig::default() };
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CuConfig {
    /// Ops issued per cycle across ready wavefronts (SIMD scheduler width).
    pub issue_width: NonZeroU32,
    /// Maximum in-flight memory requests per wavefront.
    pub max_outstanding: NonZeroU32,
    /// Shared compute pipelines: a `Compute` op occupies one for its full
    /// duration. One pipe at 64 FLOPs/cycle models a whole CU's vector
    /// throughput.
    pub compute_pipes: NonZeroU32,
}

impl Default for CuConfig {
    /// Issue width 4, 8 requests in flight per wavefront, one pipe.
    fn default() -> Self {
        Self {
            issue_width: NonZeroU32::MIN.saturating_add(3),
            max_outstanding: NonZeroU32::MIN.saturating_add(7),
            compute_pipes: NonZeroU32::MIN,
        }
    }
}

/// One wavefront's execution state.
#[derive(Clone, Debug)]
struct WavefrontState {
    cursor: Cursor,
    /// The SIMD is occupied by this wavefront's compute until this cycle.
    busy_until: u64,
    /// Completion cycles of in-flight requests, ascending. Entries at or
    /// before the current cycle may linger until [`Self::drain`].
    outstanding: VecDeque<u64>,
}

impl WavefrontState {
    fn new(program: WavefrontProgram) -> Self {
        Self {
            cursor: program.into_cursor(),
            busy_until: 0,
            outstanding: VecDeque::new(),
        }
    }

    fn done(&self) -> bool {
        self.cursor.op().is_none()
    }

    /// Drops the requests completed by `now`; O(1) unless one completed.
    fn drain(&mut self, now: u64) {
        while self.outstanding.front().is_some_and(|&c| c <= now) {
            self.outstanding.pop_front();
        }
    }

    /// Records a request completing at `complete`, keeping the order.
    fn track(&mut self, complete: u64) {
        let at = self.outstanding.partition_point(|&c| c <= complete);
        self.outstanding.insert(at, complete);
    }

    /// The earliest cycle from `at` on at which this wavefront could make
    /// progress, or `None` if it is finished.
    fn next_event(&self, at: u64, cfg: &CuConfig) -> Option<u64> {
        let earliest = self.busy_until.max(at);
        let in_flight = self.outstanding.len();
        let gate = match self.cursor.op()? {
            // Must wait for enough completions: the (len - max)-th earliest.
            Op::Wait { max_outstanding } => in_flight
                .checked_sub(max_outstanding as usize + 1)
                .and_then(|i| self.outstanding.get(i)),
            Op::Load { .. } | Op::Store { .. }
                if in_flight >= cfg.max_outstanding.get() as usize =>
            {
                self.outstanding.front()
            }
            _ => None,
        };
        Some(gate.map_or(earliest, |&c| earliest.max(c)))
    }
}

/// Aggregate results of a timing simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimingStats {
    /// Total cycles until the last wavefront finished.
    pub cycles: u64,
    /// DP FLOPs retired.
    pub flops: u64,
    /// Memory requests issued.
    pub requests: u64,
    /// Issue slots actually used.
    pub issued_ops: u64,
    /// Issue slots available (`cycles x issue_width`; the simulator
    /// models one CU).
    pub issue_slots: u64,
}

impl TimingStats {
    /// Achieved FLOPs per cycle.
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops as f64 / self.cycles as f64
        }
    }

    /// Fraction of issue slots used.
    pub fn issue_utilization(&self) -> f64 {
        if self.issue_slots == 0 {
            0.0
        } else {
            self.issued_ops as f64 / self.issue_slots as f64
        }
    }
}

/// The timing simulator for one CU sharing a memory backend.
pub struct GpuSim<'a, B: MemoryBackend> {
    config: CuConfig,
    backend: &'a mut B,
}

impl<'a, B: MemoryBackend> GpuSim<'a, B> {
    /// Creates a simulator over `backend`.
    pub fn new(config: CuConfig, backend: &'a mut B) -> Self {
        Self { config, backend }
    }

    /// Runs the given wavefronts to completion, returning timing stats.
    ///
    /// # Panics
    ///
    /// Panics if `wavefronts` is empty.
    pub fn run(&mut self, wavefronts: Vec<WavefrontProgram>) -> TimingStats {
        assert!(!wavefronts.is_empty(), "no wavefronts to run");
        let mut m = Machine::new(wavefronts, &self.config);
        while m.waves.iter().any(|w| !w.done()) {
            if !m.pipe_bound_stretch() {
                m.step(&self.config, self.backend);
            }
        }

        // The makespan runs to the last completion, not the last issue:
        // in-flight compute and memory must drain.
        let drain = m
            .waves
            .iter()
            .map(|w| w.busy_until.max(w.outstanding.back().copied().unwrap_or(0)))
            .max()
            .unwrap_or(0);
        let mut stats = m.stats;
        stats.cycles = m.now.max(drain).max(1);
        stats.issue_slots = stats.cycles * u64::from(self.config.issue_width.get());
        stats
    }
}

/// The state of one [`GpuSim::run`].
struct Machine {
    waves: Vec<WavefrontState>,
    /// The cycle at which each compute pipe frees up.
    pipe_free: Vec<u64>,
    now: u64,
    /// Round-robin pointer: where this cycle's issue scan starts.
    rr: usize,
    stats: TimingStats,
}

impl Machine {
    /// The state at cycle 0.
    fn new(wavefronts: Vec<WavefrontProgram>, cfg: &CuConfig) -> Self {
        Self {
            waves: wavefronts.into_iter().map(WavefrontState::new).collect(),
            pipe_free: vec![0; cfg.compute_pipes.get() as usize],
            now: 0,
            rr: 0,
            stats: TimingStats::default(),
        }
    }

    /// One iteration of the issue loop (module docs, steps 1–4).
    fn step<B: MemoryBackend>(&mut self, cfg: &CuConfig, backend: &mut B) {
        let now = self.now;
        let n = self.waves.len();
        let mut issued = 0u32;
        for k in 0..n {
            if issued >= cfg.issue_width.get() {
                break;
            }
            let w = &mut self.waves[(self.rr + k) % n];
            let Some(op) = w.cursor.op() else { continue };
            if w.busy_until > now {
                continue;
            }
            w.drain(now);
            let uses_slot = match op {
                Op::Compute { cycles, flops } => {
                    // Needs a free shared compute pipe.
                    let Some(pipe) = self.pipe_free.iter_mut().find(|f| **f <= now) else {
                        continue;
                    };
                    *pipe = now + u64::from(cycles);
                    w.busy_until = *pipe;
                    self.stats.flops += u64::from(flops);
                    true
                }
                Op::Load { addr } | Op::Store { addr }
                    if w.outstanding.len() < cfg.max_outstanding.get() as usize =>
                {
                    let is_write = matches!(op, Op::Store { .. });
                    w.track(backend.request(addr, is_write, now));
                    self.stats.requests += 1;
                    true
                }
                // Waits retire for free once satisfied.
                Op::Wait { max_outstanding } if w.outstanding.len() <= max_outstanding as usize => {
                    false
                }
                _ => continue,
            };
            w.cursor.advance();
            issued += u32::from(uses_slot);
        }
        self.rr = (self.rr + 1) % n;
        self.stats.issued_ops += u64::from(issued);

        // Advance time: next cycle, or jump to the next event if the
        // machine is fully stalled.
        self.now = if issued == 0 {
            let pipe = self.pipe_free.iter().copied().min().unwrap_or(0);
            self.waves
                .iter()
                .filter_map(|w| w.next_event(now + 1, cfg))
                .min()
                .map_or(now + 1, |e| {
                    // A compute-ready wavefront may be gated on a pipe.
                    if e <= now + 1 && pipe > now {
                        e.max(pipe)
                    } else {
                        e
                    }
                })
                .max(now + 1)
        } else {
            now + 1
        };
    }

    /// Runs the pipe-bound fast path (module docs) from `now` if it
    /// applies, returning whether it granted the pipe at least once.
    fn pipe_bound_stretch(&mut self) -> bool {
        let [pipe] = self.pipe_free.as_mut_slice() else {
            return false;
        };
        if *pipe > self.now
            || !self
                .waves
                .iter()
                .all(|w| matches!(w.cursor.op(), None | Some(Op::Compute { .. })))
        {
            return false;
        }
        // first_live[i]: the first live wavefront at or after i, cyclically.
        // Only a grantee finishing changes the live set, and that ends
        // the stretch.
        let n = self.waves.len();
        let mut first_live = vec![0; n];
        let mut next = self.waves.iter().position(|w| !w.done()).unwrap_or(0);
        for (i, w) in self.waves.iter().enumerate().rev() {
            if !w.done() {
                next = i;
            }
            first_live[i] = next;
        }

        let mut lap = Lap::default();
        lap.start(self.rr, self.now, self.stats.flops);
        // A wavefront's grants in the current lap; zero between laps.
        let mut visits = vec![0u64; n];
        let mut granted = false;
        loop {
            let g = first_live[self.rr];
            let w = &mut self.waves[g];
            let Some(Op::Compute { cycles, flops }) = w.cursor.op() else {
                break;
            };
            if cycles == 0 {
                break;
            }
            lap.repeats &= w.cursor.run_left() > 1;
            // The grant cycle.
            *pipe = self.now + u64::from(cycles);
            w.busy_until = *pipe;
            self.stats.flops += u64::from(flops);
            self.stats.issued_ops += 1;
            w.cursor.advance();
            self.rr = (self.rr + 1) % n;
            self.now += 1;
            granted = true;
            if !matches!(w.cursor.op(), Some(Op::Compute { .. })) {
                break;
            }
            // Still pipe-bound. If the pipe is busy next cycle, that cycle
            // issues nothing and jumps to when the pipe frees.
            if *pipe > self.now {
                self.rr = (self.rr + 1) % n;
                self.now = *pipe;
            }

            lap.grantees.push(g);
            if self.rr != lap.rr && lap.grantees.len() < n {
                continue;
            }
            if self.rr == lap.rr && lap.repeats {
                for &g in &lap.grantees {
                    visits[g] += 1;
                }
                // The most laps that leave each grantee one op of its run.
                let laps = lap
                    .grantees
                    .iter()
                    .map(|&g| (self.waves[g].cursor.run_left() - 1) / visits[g])
                    .min()
                    .unwrap_or(0);
                let cycles = laps * (self.now - lap.now);
                for &g in &lap.grantees {
                    let w = &mut self.waves[g];
                    // Once per grantee: its first appearance zeroes visits.
                    if visits[g] > 0 {
                        w.cursor.skip(laps * visits[g]);
                        w.busy_until += cycles;
                        visits[g] = 0;
                    }
                }
                self.now += cycles;
                *pipe = self.now;
                self.stats.flops += laps * (self.stats.flops - lap.flops);
                self.stats.issued_ops += laps * lap.grantees.len() as u64;
            }
            lap.start(self.rr, self.now, self.stats.flops);
        }
        granted
    }
}

/// One lap of a pipe-bound stretch (module docs) while it is recorded.
#[derive(Default)]
struct Lap {
    /// The round-robin pointer, cycle and flops count at the lap's start.
    rr: usize,
    now: u64,
    flops: u64,
    /// The wavefront granted at each of the lap's grants, in order.
    grantees: Vec<usize>,
    /// False once some grantee's run ended within the lap.
    repeats: bool,
}

impl Lap {
    /// Starts recording a lap from the given state.
    fn start(&mut self, rr: usize, now: u64, flops: u64) {
        self.rr = rr;
        self.now = now;
        self.flops = flops;
        self.grantees.clear();
        self.repeats = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FixedLatency;

    fn compute_only(iters: u32) -> WavefrontProgram {
        (0..iters)
            .map(|_| Op::Compute {
                cycles: 1,
                flops: 64,
            })
            .collect()
    }

    fn streaming(iters: u32, mlp: u32) -> WavefrontProgram {
        let mut p = WavefrontProgram::new();
        for i in 0..iters {
            for j in 0..mlp {
                p = p.push(Op::Load {
                    addr: u64::from(i * mlp + j) * 64,
                });
            }
            p = p.push(Op::Wait { max_outstanding: 0 });
            p = p.push(Op::Compute {
                cycles: 1,
                flops: 64,
            });
        }
        p
    }

    #[test]
    fn compute_bound_wavefronts_saturate_the_pipes() {
        let mut mem = FixedLatency::new(100, 1);
        let cfg = CuConfig {
            compute_pipes: NonZeroU32::new(4).unwrap(),
            ..CuConfig::default()
        };
        let mut sim = GpuSim::new(cfg, &mut mem);
        let stats = sim.run(vec![compute_only(100); 8]);
        // 8 wavefronts x 100 ops / 4 pipes = 200 cycles minimum.
        assert!(stats.cycles >= 200);
        assert!(stats.cycles < 230, "cycles = {}", stats.cycles);
        assert!(stats.issue_utilization() > 0.85);
        assert_eq!(stats.flops, 8 * 100 * 64);
    }

    #[test]
    fn a_single_pipe_serializes_compute() {
        let mut mem = FixedLatency::new(100, 1);
        let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
        let stats = sim.run(vec![compute_only(100); 8]);
        // One shared pipe: 800 one-cycle compute ops serialize.
        assert!(stats.cycles >= 800, "cycles = {}", stats.cycles);
        // The pipe itself stays fully busy: 64 FLOPs every cycle.
        assert!(stats.flops_per_cycle() > 60.0);
    }

    #[test]
    fn a_single_memory_wavefront_is_latency_bound() {
        let mut mem = FixedLatency::new(200, 1);
        let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
        let stats = sim.run(vec![streaming(20, 1)]);
        // Each iteration serializes one 200-cycle round trip.
        assert!(stats.cycles >= 20 * 200, "cycles = {}", stats.cycles);
        assert!(stats.issue_utilization() < 0.05);
    }

    #[test]
    fn more_wavefronts_hide_memory_latency() {
        let run = |count: usize| {
            let mut mem = FixedLatency::new(200, 2);
            let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
            sim.run(vec![streaming(20, 4); count]).flops_per_cycle()
        };
        let one = run(1);
        let eight = run(8);
        let sixteen = run(16);
        assert!(eight > 3.0 * one, "1: {one}, 8: {eight}");
        assert!(sixteen >= eight * 0.95, "8: {eight}, 16: {sixteen}");
    }

    #[test]
    fn bandwidth_limits_cap_wavefront_scaling() {
        // With a 4-cycle service interval the pipe sustains 0.25 req/cycle;
        // piling on wavefronts cannot exceed it.
        let run = |count: usize| {
            let mut mem = FixedLatency::new(100, 4);
            let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
            let s = sim.run(vec![streaming(50, 4); count]);
            s.requests as f64 / s.cycles as f64
        };
        let heavy = run(32);
        assert!(heavy <= 0.26, "requests/cycle = {heavy}");
    }

    #[test]
    fn mlp_improves_latency_bound_throughput() {
        let run = |mlp: u32| {
            let mut mem = FixedLatency::new(200, 1);
            let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
            // Same total loads regardless of mlp.
            sim.run(vec![streaming(24 / mlp, mlp); 2]).cycles
        };
        assert!(run(4) < run(1), "mlp 4: {}, mlp 1: {}", run(4), run(1));
    }

    #[test]
    fn a_stretch_leaves_the_state_the_plain_loop_reaches() {
        // Slot 2 is finished, so it maps to wavefront 3, which the lap
        // from slot 1 then grants twice. No lap comes back to slot 0.
        // Wavefront 3's run ends first and stops the stretch before
        // wavefront 4, granted last, is granted again.
        let program = |cycles: u32, count: u64| {
            WavefrontProgram::new()
                .push_run(Op::Compute { cycles, flops: 64 }, count)
                .push(Op::Load { addr: 0 })
        };
        let wavefronts = vec![
            program(1, 300),
            program(1, 250),
            WavefrontProgram::new(),
            program(1, 280),
            program(2, 400),
        ];
        let cfg = CuConfig::default();
        let mut fast = Machine::new(wavefronts.clone(), &cfg);
        assert!(fast.pipe_bound_stretch());
        let mut plain = Machine::new(wavefronts, &cfg);
        let mut mem = FixedLatency::new(100, 1);
        while plain.now < fast.now {
            plain.step(&cfg, &mut mem);
        }
        assert_eq!(
            (plain.now, plain.rr, &plain.pipe_free, plain.stats),
            (fast.now, fast.rr, &fast.pipe_free, fast.stats)
        );
        for (p, f) in plain.waves.iter().zip(&fast.waves) {
            assert_eq!((p.busy_until, &p.cursor), (f.busy_until, &f.cursor));
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let mut mem = FixedLatency::new(50, 2);
        let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
        let wf = streaming(10, 2);
        let expect_flops = wf.total_flops() * 3;
        let expect_reqs = wf.total_requests() * 3;
        let stats = sim.run(vec![wf; 3]);
        assert_eq!(stats.flops, expect_flops);
        assert_eq!(stats.requests, expect_reqs);
        assert!(stats.issued_ops <= stats.issue_slots);
    }
}

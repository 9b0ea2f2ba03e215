//! Cycle-approximate GPU wavefront timing simulation for the ENA toolkit.
//!
//! The paper adjusts its high-level model with cycle-level (gem5-APU)
//! simulation to account for microarchitectural effects (Section III).
//! This crate is that substrate: a wavefront-level timing model in which
//! compute units multiplex wavefront contexts over SIMD issue slots and
//! hide memory latency by switching — making the analytic model's
//! `parallelism` and `latency_sensitivity` parameters *mechanistic* rather
//! than assumed.
//!
//! - [`program`] — wavefront instruction streams, stored run-length.
//! - [`backend`] — memory backends: a fixed-latency pipe and the detailed
//!   banked-HBM backend built on `ena-memory`.
//! - [`sim`] — the CU scheduler and timing loop, with a fast path that
//!   replays pipe-bound stretches by whole round-robin laps.
//! - [`synth`] — synthesizing wavefront sets from kernel profiles.
//!
//! # Example: latency hiding in action
//!
//! ```
//! use ena_gpu::backend::FixedLatency;
//! use ena_gpu::program::{Op, WavefrontProgram};
//! use ena_gpu::sim::{CuConfig, GpuSim};
//!
//! let streaming: WavefrontProgram = (0..32)
//!     .flat_map(|i| [Op::Load { addr: i * 64 }, Op::Wait { max_outstanding: 0 },
//!                    Op::Compute { cycles: 1, flops: 64 }])
//!     .collect();
//!
//! let run = |wavefronts: usize| {
//!     let mut memory = FixedLatency::new(200, 2);
//!     GpuSim::new(CuConfig::default(), &mut memory)
//!         .run(vec![streaming.clone(); wavefronts])
//!         .flops_per_cycle()
//! };
//! assert!(run(8) > 3.0 * run(1)); // more wavefronts hide the latency
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod program;
pub mod sim;
pub mod synth;

pub use backend::{FixedLatency, HbmBackend, MemoryBackend};
pub use program::{Op, WavefrontProgram};
pub use sim::{CuConfig, GpuSim, TimingStats};

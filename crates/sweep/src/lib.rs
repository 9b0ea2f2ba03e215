//! Deterministic parallel design-space exploration for the ENA toolkit.
//!
//! The paper's central artifact (Sections V-VI) is a sweep: over a
//! thousand EHP configurations evaluated under a 160 W budget to find the
//! best-mean design and the Table II per-app oracles. This crate turns
//! that sweep from a loop into a subsystem:
//!
//! - [`pool`] — a std-only work-stealing pool whose calling thread is
//!   worker 0 (`jobs = 1` starts no thread), with an order-independent,
//!   index-keyed merge and per-chunk supervision (caught panics, bounded
//!   retries, deterministic quarantine).
//! - [`pareto`] — one ordered-scan frontier routine over objective
//!   vectors, which every axis's frontier runs, and the node frontier
//!   over (mean perf, peak power, peak DRAM temperature).
//! - [`engine`] — the one sweep driver tying them together: an [`Axis`]
//!   names its grid, campaign digest, point key, evaluation and
//!   frontier; [`Memo::run`] owns chunking, the supervised pool,
//!   quarantine, the merge by grid index and the state one run's
//!   evaluations share ([`Axis::Shared`]), and reports [`Telemetry`]
//!   (points evaluated, chunks, per-worker utilization). The node axis
//!   ([`NodeAxis`]) runs through [`SweepEngine`]; `ena-fabric`'s
//!   multi-node and recovery axes are two more impls, sharing one
//!   [`RunOptions`]. Every run evaluates every point in memory.
//! - [`cache`] — the content-addressed, crash-consistent disk cache
//!   (bit-exact round-trip, per-line CRC32, flush+fsync per record,
//!   atomic temp-and-rename repair, generation header) behind the
//!   injectable [`Vfs`] filesystem trait. No sweep uses it: it is the
//!   record file of `ena-serve`'s store, the one place an acknowledged
//!   record has to survive a crash.
//!
//! The headline property: a sweep along any axis is **byte-identical**
//! to its sequential oracle (for the node axis, the
//! [`Explorer`](ena_core::Explorer)) for any thread count — parallelism
//! is a pure go-faster knob, never a source of drift.
//!
//! # Example
//!
//! ```
//! use ena_core::dse::DesignSpace;
//! use ena_core::Explorer;
//! use ena_sweep::{SweepEngine, SweepSpec};
//! use ena_workloads::paper_profiles;
//!
//! let engine = SweepEngine::new(Explorer::default());
//! let mut spec = SweepSpec::new(DesignSpace::coarse(), paper_profiles());
//! spec.run.jobs = 2;
//! let outcome = engine.run(&spec).expect("sweep completes");
//! assert_eq!(
//!     outcome.result,
//!     Explorer::default().explore(&spec.space, &spec.profiles).unwrap(),
//! );
//! // The frontier contains the best-mean point.
//! assert!(outcome
//!     .frontier
//!     .iter()
//!     .any(|f| f.point == outcome.result.best_mean));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod pareto;
pub mod pool;

pub use cache::{
    crc32, hex_field, read_file_info, verify_file, CacheError, CacheFileInfo, CacheRecord,
    DiskCache, VerifyError, VerifyReport,
};
pub use engine::{
    campaign_digest, evaluate_batch, point_key, Axis, Failpoint, Memo, NodeAxis, QuarantineEntry,
    QuarantineReport, RunOptions, SweepEngine, SweepError, SweepOutcome, SweepSpec, Swept,
    Telemetry,
};
pub use pareto::{dominates, frontier, pareto_frontier, FrontierPoint};
pub use pool::{map_chunks_supervised, QuarantinedChunk, RetryPolicy, WorkerStats};

pub use ena_testkit::chaos::{RealFs, Vfs};

//! Deterministic parallel design-space exploration for the ENA toolkit.
//!
//! The paper's central artifact (Sections V-VI) is a sweep: over a
//! thousand EHP configurations evaluated under a 160 W budget to find the
//! best-mean design and the Table II per-app oracles. This crate turns
//! that sweep from a loop into a subsystem:
//!
//! - [`pool`] — a std-only work-stealing thread pool with an
//!   order-independent, index-keyed merge and per-chunk supervision
//!   (caught panics, bounded retries, deterministic quarantine).
//! - [`cache`] — content-addressed memoization with a crash-consistent
//!   on-disk layer (bit-exact round-trip, per-line CRC32, flush+fsync
//!   per record, atomic temp-and-rename repair, generation header)
//!   enabling checkpoint/resume, all behind the injectable
//!   [`Vfs`](ena_testkit::chaos::Vfs) filesystem trait.
//! - [`pareto`] — frontier extraction over (mean perf, peak power, peak
//!   DRAM temperature).
//! - [`engine`] — the one sweep driver tying them together: an [`Axis`]
//!   names its grid, campaign digest, point key, evaluation and
//!   frontier; [`Memo::run`] owns the cache open, hit resolution,
//!   `fresh_limit`, chunking, the supervised pool, streaming appends,
//!   quarantine and the grid-order merge, and reports [`Telemetry`]
//!   (cache hit rate, chunks, per-worker utilization). The node axis
//!   ([`NodeAxis`]) runs through [`SweepEngine`]; `ena-fabric`'s
//!   multi-node and recovery axes are two more impls, sharing one
//!   [`RunOptions`].
//! - [`chaos`] — seeded chaos campaigns that drive any axis through
//!   injected I/O faults and worker kills and assert the serving
//!   invariants (parseable caches, no lost acknowledged records,
//!   fault-free frontier).
//!
//! The headline property: a sweep along any axis is **byte-identical**
//! to its sequential oracle (for the node axis, the
//! [`Explorer`](ena_core::Explorer)) for any thread count, cache state,
//! or interruption history — parallelism and memoization are pure
//! go-faster knobs, never sources of drift.
//!
//! # Example
//!
//! ```
//! use ena_core::dse::DesignSpace;
//! use ena_core::Explorer;
//! use ena_sweep::{SweepEngine, SweepSpec};
//! use ena_workloads::paper_profiles;
//!
//! let mut engine = SweepEngine::new(Explorer::default());
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
pub mod chaos;
pub mod engine;
pub mod pareto;
pub mod pool;

pub use cache::{
    crc32, hex_field, read_file_info, verify_file, CacheError, CacheFileInfo, CacheRecord,
    DiskCache, VerifyError, VerifyReport,
};
pub use chaos::{run_chaos_campaign, ChaosError, ChaosReport, ChaosSpec};
pub use engine::{
    campaign_digest, evaluate_batch, point_key, Axis, CacheMode, Failpoint, Memo, NodeAxis,
    QuarantineEntry, QuarantineReport, RunOptions, SweepEngine, SweepError, SweepOutcome,
    SweepSpec, Swept, Telemetry,
};
pub use pareto::{frontier_indices, pareto_frontier, FrontierPoint};
pub use pool::{map_chunks_supervised, QuarantinedChunk, RetryPolicy, WorkerStats};

pub use ena_testkit::chaos::{ChaosConfig, ChaosFs, RealFs, Vfs};

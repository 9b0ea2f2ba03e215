//! HSA-style heterogeneous runtime substrate for the ENA toolkit.
//!
//! The paper's programmability story (Section II-A.1) rests on the
//! Heterogeneous System Architecture: a unified coherent virtual address
//! space, user-mode dispatch queues, signals, task offload in both
//! directions, and scoped synchronization (HRF \[15\], QuickRelease \[14\]).
//! This crate models what those buy in schedule time. User-mode dispatch
//! is one number, [`RuntimeConfig::dispatch_overhead_us`] (2 us for HSA,
//! 25 us for a legacy driver path), charged on every dispatch:
//!
//! - [`task`] — heterogeneous task DAGs with per-agent costs.
//! - [`sync`] — HRF scoped-synchronization cost models, conventional vs
//!   QuickRelease.
//! - [`runtime`] — one list scheduler executing DAGs over CPU cores and
//!   GPU queues, healthy or with agents dying mid-run, accounting
//!   dispatch and synchronization overheads.
//!
//! # Example: why user-mode dispatch matters
//!
//! ```
//! use ena_hsa::runtime::{Runtime, RuntimeConfig};
//! use ena_hsa::task::{TaskCost, TaskGraph};
//!
//! # fn main() -> Result<(), ena_hsa::task::GraphError> {
//! // A chain of fine-grained GPU kernels.
//! let mut graph = TaskGraph::new();
//! let mut prev = graph.add("k0", TaskCost::gpu(5.0), &[])?;
//! for i in 1..50 {
//!     prev = graph.add(format!("k{i}"), TaskCost::gpu(5.0), &[prev])?;
//! }
//!
//! let hsa = Runtime::new(RuntimeConfig::hsa()).execute(&graph);
//! let legacy = Runtime::new(RuntimeConfig::legacy_driver()).execute(&graph);
//! assert!(hsa.makespan_us < legacy.makespan_us / 2.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod runtime;
pub mod sync;
pub mod task;

pub use runtime::{AgentKind, Runtime, RuntimeConfig, Schedule};
pub use sync::SyncModel;
pub use task::{TaskCost, TaskGraph};

//! Shared vocabulary for the ENA (Exascale Node Architecture) toolkit.
//!
//! This crate holds the types every other `ena-*` crate speaks:
//!
//! - [`units`] — typed physical quantities ([`Watts`](units::Watts),
//!   [`GigabytesPerSec`](units::GigabytesPerSec), ...), so that the
//!   simulators cannot confuse a bandwidth for a capacity.
//! - [`config`] — the hardware description of one EHP package and its node
//!   memory system ([`EhpConfig`](config::EhpConfig)), including the paper's
//!   baseline configurations.
//! - [`kernel`] — application-kernel characterization
//!   ([`KernelProfile`](kernel::KernelProfile)), the interface between the
//!   workload crate and the performance/power models.
//! - [`cost`] — die-yield and package-cost modeling (the Section II-A.2
//!   chiplet rationale, quantified).
//! - [`hash`] — stable structural hashing ([`StableHash`](hash::StableHash))
//!   and the [`MODEL_VERSION`](hash::MODEL_VERSION) stamp, the foundation of
//!   sweep memoization keys.
//! - [`error`] — validation error types.
//! - [`paged`] — dense slots for sparse `u64` keys
//!   ([`PagedSlots`](paged::PagedSlots)), shared by the trace footprint
//!   counter and the software-managed placement policy.
//!
//! # Example
//!
//! ```
//! use ena_model::config::EhpConfig;
//! use ena_model::units::{GigabytesPerSec, Megahertz};
//!
//! # fn main() -> Result<(), ena_model::error::ConfigError> {
//! // The paper's best-mean design point: 320 CUs at 1 GHz with 3 TB/s.
//! let baseline = EhpConfig::paper_baseline();
//! assert!((baseline.peak_throughput().teraflops() - 20.48).abs() < 1e-9);
//!
//! // A custom design point for exploration.
//! let candidate = EhpConfig::builder()
//!     .total_cus(384)
//!     .gpu_clock(Megahertz::new(700.0))
//!     .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(5.0))
//!     .build()?;
//! assert!(candidate.ops_per_byte() < baseline.ops_per_byte());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod cost;
pub mod error;
pub mod hash;
pub mod kernel;
pub mod paged;
pub mod units;

pub use config::EhpConfig;
pub use hash::{StableHash, StableHasher, MODEL_VERSION};
pub use kernel::{KernelCategory, KernelProfile};

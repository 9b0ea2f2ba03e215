//! `ena` — a Rust reproduction of the HPCA 2017 exascale-APU study
//! ("Design and Analysis of an APU for Exascale Computing").
//!
//! This facade re-exports the workspace crates:
//!
//! - [`model`] — typed units, hardware configuration, kernel profiles.
//! - [`workloads`] — the executable proxy-application suite (Table I).
//! - [`noc`] — the chiplet/interposer network-on-chip simulator.
//! - [`memory`] — the multi-level memory system (HBM stacks + external
//!   memory network + management policies).
//! - [`power`] — DVFS, per-component power, the Section V-E optimizations.
//! - [`thermal`] — HotSpot-style compact thermal modeling.
//! - [`gpu`] — cycle-approximate wavefront timing simulation (the
//!   "gem5-APU adjustment" substrate).
//! - [`hsa`] — the HSA runtime: task DAGs scheduled over CPU cores and GPU
//!   queues, with user-mode dispatch and scoped synchronization as costs.
//! - [`core`] — the node simulator, design-space exploration, dynamic
//!   reconfiguration, RAS modeling (including `RecoveryModel`, the one
//!   Young/Daly availability model), and system scaling.
//! - [`faults`] — cross-layer fault injection and graceful degradation:
//!   seeded failure campaigns, the `Degradable` contract, and degradation
//!   reports with the machine's analytic and Monte Carlo availability.
//! - [`sweep`] — the deterministic parallel design-space-exploration
//!   engine: work-stealing sweep, content-addressed memoization with
//!   checkpoint/resume, and Pareto-frontier extraction, byte-identical
//!   to the sequential explorer.
//! - [`fabric`] — the inter-node layer: Infinity-Fabric-style links with
//!   asymmetric per-direction latency/bandwidth, cabinet topologies
//!   (fat-tree, torus, dragonfly-lite), collective schedules with
//!   per-link contention, multi-node fault campaigns, and the
//!   (nodes x topology) sweep axis.
//!
//! # Quickstart
//!
//! ```
//! use ena::core::node::{EvalOptions, NodeSimulator};
//! use ena::model::config::EhpConfig;
//! use ena::workloads::profile_for;
//!
//! let sim = NodeSimulator::new();
//! let config = EhpConfig::paper_baseline(); // 320 CUs / 1 GHz / 3 TB/s
//! let profile = profile_for("CoMD").expect("CoMD is in the suite");
//! let eval = sim.evaluate(&config, &profile, &EvalOptions::default());
//!
//! println!(
//!     "CoMD: {:.1} TF at {:.0} W package power",
//!     eval.perf.throughput.teraflops(),
//!     eval.package_power().value(),
//! );
//! assert!(eval.package_power().value() <= 160.0);
//! ```
//!
//! See `examples/` for runnable scenarios and the `figures` binary in
//! `crates/bench` for regenerating every table and figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ena_core as core;
pub use ena_fabric as fabric;
pub use ena_faults as faults;
pub use ena_gpu as gpu;
pub use ena_hsa as hsa;
pub use ena_memory as memory;
pub use ena_model as model;
pub use ena_noc as noc;
pub use ena_power as power;
pub use ena_serve as serve;
pub use ena_sweep as sweep;
pub use ena_thermal as thermal;
pub use ena_workloads as workloads;

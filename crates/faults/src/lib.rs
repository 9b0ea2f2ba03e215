//! # ena-faults — cross-layer fault injection and graceful degradation
//!
//! The EHP node of the source paper (Vijayaraghavan et al., HPCA 2017) is
//! built from many small dice — GPU chiplets, CPU chiplets, HBM stacks,
//! interposer routers — precisely so that a single die failure does not
//! have to kill the node. This crate makes that claim testable: it injects
//! seeded component failures into every layer of the stack and measures
//! what the surviving hardware can still deliver.
//!
//! ## Fault taxonomy
//!
//! [`FaultKind`](plan::FaultKind) enumerates the injectable failures:
//!
//! | fault | layer | degradation path |
//! |---|---|---|
//! | `GpuChiplet` | compute | chiplet leaves the package; its HBM stack is orphaned collateral (TSV-attached) |
//! | `CpuChiplet` | compute | host cores shrink; tasks reschedule onto survivors |
//! | `HbmStack` | memory | address space re-interleaves across surviving stacks; capacity and bandwidth drop |
//! | `InterposerLink` | interconnect | ring segment cut; traffic reroutes the long way; a second cut partitions |
//! | `ExternalInterface` | memory | an external chain is severed from the package |
//! | `SerdesLink` | memory | one hop of an external chain dies; redundancy may cover it |
//! | `ThermalThrottle` | power/thermal | GPU clock drops; throughput falls with no hardware loss |
//!
//! ## The `Degradable` trait
//!
//! [`Degradable`](degrade::Degradable) is the cross-layer contract: a
//! component absorbs a fault and either reconfigures around it or returns
//! a [`DegradeError`](ena_model::error::DegradeError) — never panics. The
//! NoC topology, the memory system, and the [`DegradedNode`] wrapper all
//! implement it, so one [`FaultPlan`] can be broadcast across the stack.
//!
//! ## Node-level plans
//!
//! [`NodeFaultPlan`](multinode::NodeFaultPlan) is the same plan type one
//! level up, over whole EHP nodes: node loss, stragglers, and degraded
//! inter-node routes. The `ena-fabric` crate consumes these plans and
//! derives each straggler's slowdown from an intra-node chiplet-loss
//! campaign, coupling the two fault levels through one cause.
//!
//! ## Transient faults
//!
//! Permanent plans model hardware that *dies*;
//! [`TransientSchedule`](transient::TransientSchedule) models hardware
//! that *glitches*: MTBF-driven streams of correctable / uncorrectable /
//! silent HBM errors (classified through `ena-memory`'s seeded ECC
//! model), link CRC retransmits, and agent soft-hangs.
//! [`run_transient_campaign`] replays a schedule against an iterative
//! checkpointing application and proves no durable work is ever lost.
//!
//! ## Campaigns
//!
//! [`run_campaign`] replays a plan end to end and produces a
//! [`DegradationReport`]: per-fault performance / power / thermal
//! snapshots, rerouted-vs-severed NoC traffic, re-interleaved memory,
//! re-queued runtime tasks, and the full machine's availability on the
//! healthy and on the degraded node: the analytic Young/Daly model next
//! to an injected Monte Carlo campaign, both from
//! [`RecoveryModel`](ena_core::resilience::RecoveryModel), the one
//! availability model. Everything is seeded: the same plan renders a
//! byte-identical report.
//!
//! ```
//! use ena_faults::{run_campaign, CampaignSpec};
//!
//! let report = run_campaign(&CampaignSpec::standard(0xC0FFEE)).unwrap();
//! assert!(report.throughput_retained() > 0.0);
//! assert!(report.throughput_retained() < 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod campaign;
pub mod degrade;
pub mod multinode;
pub mod plan;
pub mod transient;

pub use campaign::{
    run_campaign, sweep_degraded, CampaignSpec, CampaignStep, DegradationReport, MemoryOutcome,
    Snapshot,
};
pub use degrade::{Degradable, DegradedNode};
pub use multinode::{NodeFaultEvent, NodeFaultKind, NodeFaultPlan};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use transient::{
    run_transient_campaign, TransientCampaignSpec, TransientEvent, TransientFaultKind,
    TransientRates, TransientReport, TransientSchedule,
};

// Re-exported so downstream crates (ena-fabric prices retransmits into
// collective schedules) can share the hardened policy without depending on
// the runtime crate directly.
pub use ena_hsa::runtime::RetryPolicy;

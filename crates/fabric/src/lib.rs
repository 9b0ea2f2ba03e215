//! Inter-node fabric modeling for the ENA toolkit.
//!
//! The paper scales its node-level results to the 100,000-node machine by
//! straight multiplication, which assumes inter-node communication is
//! free. This crate supplies the missing layer: Infinity-Fabric-style
//! links between EHP nodes with *asymmetric* per-direction latency and
//! bandwidth, cabinet-level topologies, collective-communication
//! schedules with per-link contention accounting, and the multi-node
//! fault campaigns and design sweeps built on top.
//!
//! - [`topology`] — [`FabricGraph`]: fat-tree / torus / dragonfly-lite
//!   wiring, deterministic breadth-first routing, node/link failure and
//!   bandwidth degradation.
//! - [`collective`] — all-reduce ring, halo exchange, and all-to-all
//!   schedules; round times come from the most-loaded link (contention)
//!   plus the longest route latency.
//! - [`scaleout`] — bulk-synchronous iteration model turning collective
//!   times into a fleet efficiency, cross-checked against the analytic
//!   [`SystemProjection`](ena_core::system::SystemProjection) scaling
//!   path at small node counts.
//! - [`campaign`] — seeded multi-node fault campaigns (node loss,
//!   stragglers backed by intra-node `ena-faults` campaigns, link
//!   degradation) rendered as deterministic text.
//! - [`RecoveryModel`] — Young/Daly checkpoint/restart (achieved
//!   efficiency = f(node MTBF, checkpoint cost, N), analytic and Monte
//!   Carlo legs cross-checked within [`DALY_TOLERANCE`]), re-exported
//!   from `ena_core::resilience`, the one availability model; collective
//!   schedules can additionally be priced for per-link CRC retransmits
//!   ([`schedule_with_retransmits`]).
//! - [`sweep`] — (node count x topology) and (checkpoint-interval x
//!   nodes) as two more axes of the parallel, supervised `ena-sweep`
//!   driver.
//!
//! Everything is a pure function of its inputs: same spec, byte-identical
//! reports, in this process or any other.
//!
//! # Example
//!
//! ```
//! use ena_fabric::{schedule, CollectiveKind, FabricGraph, FabricKind};
//!
//! let mut fabric = FabricGraph::build(FabricKind::DragonflyLite, 16).unwrap();
//! fabric.fail_ehp(5).unwrap();
//! assert!(fabric.all_ehp_mutually_reachable());
//! let reduce = schedule(&fabric, CollectiveKind::AllReduceRing, 1e6).unwrap();
//! assert!(reduce.total.value() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod collective;
pub mod scaleout;
pub mod sweep;
pub mod topology;

pub use campaign::{
    run_multinode_campaign, MultiNodeCampaignSpec, MultiNodeReport, MultiNodeStep, RecoveryOutcome,
    KW_PER_MW, TF_PER_EF,
};
pub use collective::{
    schedule, schedule_with_retransmits, CollectiveKind, CollectiveSchedule, RetransmitModel,
    Round, Transfer,
};
pub use ena_core::resilience::{
    RecoveryEstimate, RecoveryModel, DALY_TOLERANCE, RECOVERY_CAMPAIGN_HOURS,
};
pub use scaleout::{estimate, ScaleOutEstimate, ScaleOutSpec, SMALL_N_TOLERANCE};
pub use sweep::{
    MultiNodePoint, MultiNodeRecord, MultiNodeSpace, MultiNodeSweep, MultiNodeSweepSpec,
    RecoveryPoint, RecoveryRecord, RecoverySpace, RecoverySweep, RecoverySweepSpec,
};
pub use topology::{FabricError, FabricGraph, FabricKind, FabricLink, FabricNodeKind};

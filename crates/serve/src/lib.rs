//! ena-serve: a persistent concurrent evaluation service over the
//! deterministic evaluation kernel.
//!
//! The batch CLI answers one sweep per process; interactive
//! exploration of the paper's design space (HPCA'17 exascale APU) wants
//! the opposite shape — a long-lived process that keeps every evaluated
//! point hot and answers single-point probes in microseconds. This
//! crate provides that as four layers, std-only, plus the chaos campaign
//! that tests its persistence:
//!
//! | Module | Layer |
//! |---|---|
//! | [`protocol`] | Length-prefixed frames, `EVAL`/`SWEEP`/`FRONTIER`/`STATS`/`SNAPSHOT`/`SHUTDOWN` grammar |
//! | [`store`] | Sharded in-memory record store with single-flight dedup over the crash-consistent disk cache |
//! | [`server`] | Worker pool, bounded admission (`BUSY`), request batching |
//! | [`client`] | Blocking client with pipelining |
//! | [`chaos`] | Seeded chaos campaign: injected I/O faults and killed leaders against the store's file |
//!
//! The store is the toolkit's only persistence: the sweeps evaluate in
//! memory, because an analytic sweep costs less than opening a cache of
//! its records.
//!
//! # Guarantees
//!
//! - **Single flight**: K concurrent requests for one uncomputed point
//!   cost exactly one engine evaluation; all K responses are
//!   byte-identical.
//! - **Ack implies durable**: with a cache directory configured, a
//!   record is appended and fsynced before any `OK` carrying it is
//!   written to a client; [`run_chaos_campaign`] checks it under
//!   injected faults.
//! - **Warm restart**: a restarted server reloads every intact record
//!   of the campaign's cache file; `SNAPSHOT` compacts the file
//!   atomically (write-temp → fsync → rename) while serving.
//! - **Key compatibility**: keys are `ena_sweep::point_key` under the
//!   `ena_sweep::campaign_digest` campaign, so cache files written by
//!   earlier servers, or by the node sweep when it still persisted,
//!   warm-start the server.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod store;

pub use chaos::{run_chaos_campaign, ChaosError, ChaosReport, ChaosSpec, RunSummary};
pub use client::Client;
pub use protocol::{write_frame, EvalPoint, FrameReader, Request, BUSY, MAX_FRAME};
pub use server::{Connection, Counters, ServeConfig, Server};
pub use store::{Claim, FollowerTicket, LeaderToken, ShardStore, SHARD_COUNT};

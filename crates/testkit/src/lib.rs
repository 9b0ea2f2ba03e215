//! Hermetic verification substrate for the ENA workspace.
//!
//! The paper's evaluation is entirely model-based, so the reproduction's
//! credibility rests on deterministic, self-contained verification. This
//! crate replaces every external dev-dependency the workspace used to pull
//! from a registry with in-tree equivalents:
//!
//! | Module | Replaces | Purpose |
//! |---|---|---|
//! | [`rng`] | `rand` | Seedable SplitMix64 / xoshiro256++ PRNG |
//! | [`prop`] (+ [`collection`], [`sample`]) | `proptest` | Property harness with pinned seeds |
//! | [`golden`] | — | Figure/table regression against `artifacts/` |
//! | [`process`] | — | Cross-process determinism: one digest in two child processes and the parent |
//!
//! # Seed policy
//!
//! Every property test derives a stable base seed from its fully-qualified
//! test name, so runs are reproducible across machines and reorderings of
//! the suite. Each case gets an independent seed from a SplitMix64 stream
//! over the base seed. On failure the harness prints both seeds; set
//! `ENA_TESTKIT_SEED` to replay (shrinking-lite), and `ENA_TESTKIT_CASES`
//! to change the case count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod collection;
pub mod golden;
mod macros;
pub mod prelude;
pub mod process;
pub mod prop;
pub mod rng;
pub mod sample;
pub mod transport;

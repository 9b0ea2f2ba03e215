//! Power modeling for the ENA toolkit (paper Sections III and V-E).
//!
//! - [`dvfs`] — voltage-frequency curves and near-threshold operation.
//! - [`breakdown`] — the per-component power vector
//!   ([`PowerBreakdown`](breakdown::PowerBreakdown)), including the
//!   paper's Fig. 9 display categories.
//! - [`model`] — the node power model
//!   ([`NodePowerModel`](model::NodePowerModel)): activity x energy
//!   coefficients per component, in two stages — the V/f scaling and the
//!   background components once per configuration
//!   ([`ConfiguredPower`]), the activity-driven
//!   components per activity vector.
//! - [`opts`] — the five power optimizations of Section V-E (NTC,
//!   asynchronous CUs, asynchronous routers, low-power links, DRAM-traffic
//!   compression).
//!
//! # Example
//!
//! ```
//! use ena_model::config::EhpConfig;
//! use ena_power::model::{ActivityVector, NodePowerModel};
//! use ena_power::opts::{savings_fraction, OptimizationContext, PowerOptimization};
//!
//! let config = EhpConfig::paper_baseline();
//! let model = NodePowerModel::default();
//! let breakdown = model.evaluate(&config, &ActivityVector::idle());
//!
//! let ctx = OptimizationContext::new(config.gpu.clock);
//! let saved = savings_fraction(&breakdown, &ctx, &PowerOptimization::ALL);
//! assert!(saved > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod breakdown;
pub mod dvfs;
pub mod model;
pub mod opts;

pub use breakdown::{Component, PowerBreakdown};
pub use dvfs::VfCurve;
pub use model::{ActivityVector, ConfiguredPower, NodePowerModel};
pub use opts::PowerOptimization;

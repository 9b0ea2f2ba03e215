//! Compact thermal modeling for the ENA toolkit (paper Section V-D).
//!
//! Vertical integration puts the 3D DRAM directly above the hottest
//! silicon in the package, and DRAM must stay below 85 C. This crate
//! provides a HotSpot-methodology steady-state solver and the assembled
//! EHP chiplet stack model:
//!
//! - [`solver`] — the grid RC network and its Jacobi-preconditioned
//!   conjugate-gradient solve, checked by residual and energy balance
//!   ([`ThermalGrid`](solver::ThermalGrid)).
//! - [`ehp`] — the GPU-chiplet + DRAM-stack model
//!   ([`ChipletThermalModel`](ehp::ChipletThermalModel)), peak-DRAM
//!   queries, and Fig. 11-style heat-map rendering. The peak DRAM
//!   temperature alone has an exact closed form derived from unit solves
//!   by superposition, [`DramTempEstimator`](ehp::DramTempEstimator),
//!   which callers that read only the peak use.
//!
//! # Example
//!
//! ```
//! use ena_thermal::ehp::{ChipletPower, ChipletThermalModel};
//!
//! # fn main() -> Result<(), ena_thermal::solver::TemperatureError> {
//! let model = ChipletThermalModel::new(ChipletPower {
//!     cu_dynamic_w: 7.0,
//!     cu_static_w: 2.0,
//!     dram_dynamic_w: 2.5,
//!     dram_static_w: 0.5,
//!     interposer_w: 1.5,
//! });
//! let t = model.solve()?;
//! assert!(t.dram_within_limit());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ehp;
pub mod solver;

pub use ehp::{ChipletPower, ChipletThermalModel, DramTempEstimator, DRAM_TEMP_LIMIT};
pub use solver::{LayerSpec, TemperatureError, ThermalGrid};

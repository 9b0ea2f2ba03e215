//! Interconnect energy accounting.
//!
//! The paper computes interconnect power from data-movement counts
//! multiplied by distance-based energy values (Section III, \[41\]). We use
//! the same formulation: every bit crossing a link pays a per-router
//! switching cost plus a per-millimeter wire cost; TSV hops are short and
//! cheap.

use ena_model::units::Picojoules;

use crate::topology::Link;

/// Distance-based link/router energy coefficients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Wire energy per bit per millimeter.
    pub wire_pj_per_bit_mm: f64,
    /// Router traversal energy per bit.
    pub router_pj_per_bit: f64,
    /// TSV traversal energy per bit.
    pub tsv_pj_per_bit: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // 2022-era projections: ~0.1 pJ/bit/mm on-interposer wires,
        // ~0.4 pJ/bit router traversal, ~0.05 pJ/bit TSVs.
        Self {
            wire_pj_per_bit_mm: 0.10,
            router_pj_per_bit: 0.40,
            tsv_pj_per_bit: 0.05,
        }
    }
}

impl EnergyModel {
    /// Charges `tally` for `bytes` crossing `link`.
    pub fn charge_link(&self, tally: &mut EnergyTally, link: Link, bytes: u32) {
        let bits = f64::from(bytes) * 8.0;
        if link.is_tsv {
            tally.tsv += Picojoules::new(bits * self.tsv_pj_per_bit);
        } else {
            tally.wire += Picojoules::new(bits * self.wire_pj_per_bit_mm * link.length_mm);
        }
        tally.router += Picojoules::new(bits * self.router_pj_per_bit);
    }
}

/// Accumulated interconnect energy, broken down by component.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyTally {
    /// Horizontal wire energy.
    pub wire: Picojoules,
    /// Router switching energy.
    pub router: Picojoules,
    /// Vertical TSV energy.
    pub tsv: Picojoules,
}

impl EnergyTally {
    /// Total interconnect energy.
    pub fn total(&self) -> Picojoules {
        self.wire + self.router + self.tsv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroU32;

    fn wire_link(length_mm: f64) -> Link {
        Link {
            from: 0,
            to: 1,
            latency_cycles: 4,
            bytes_per_cycle: NonZeroU32::MIN.saturating_add(63),
            length_mm,
            is_tsv: false,
        }
    }

    #[test]
    fn wire_energy_scales_with_distance() {
        let model = EnergyModel::default();
        let mut short = EnergyTally::default();
        let mut long = EnergyTally::default();
        model.charge_link(&mut short, wire_link(1.0), 64);
        model.charge_link(&mut long, wire_link(10.0), 64);
        assert!((long.wire.value() - 10.0 * short.wire.value()).abs() < 1e-9);
        // Router cost is distance-independent.
        assert_eq!(long.router, short.router);
    }

    #[test]
    fn tsv_hops_are_cheaper_than_interposer_wires() {
        let model = EnergyModel::default();
        let tsv = Link {
            is_tsv: true,
            length_mm: 0.1,
            ..wire_link(0.1)
        };
        let mut t = EnergyTally::default();
        let mut w = EnergyTally::default();
        model.charge_link(&mut t, tsv, 64);
        model.charge_link(&mut w, wire_link(8.0), 64);
        assert!(t.total().value() < w.total().value());
    }

    #[test]
    fn tally_totals_its_parts() {
        let mut tally = EnergyTally::default();
        EnergyModel::default().charge_link(&mut tally, wire_link(2.0), 128);
        let sum = tally.wire + tally.router + tally.tsv;
        assert_eq!(tally.total(), sum);
        assert!(tally.total().value() > 0.0);
    }
}

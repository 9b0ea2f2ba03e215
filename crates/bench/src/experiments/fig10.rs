//! Fig. 10: peak in-package 3D-DRAM temperature per application, at the
//! best-mean configuration and at each application's oracle configuration.
//! The peaks come from the thermal model's closed form
//! ([`NodeSimulator::peak_dram`](ena_core::node::NodeSimulator::peak_dram)),
//! which its tests hold to the full solve within 1e-9 degC.

use ena_core::node::EvalOptions;
use ena_model::units::Celsius;
use ena_thermal::DRAM_TEMP_LIMIT;
use ena_workloads::paper_profiles;

use super::context::{explore_baseline, simulator, DSE_MISS_FRACTION};
use crate::TextTable;

/// One application's thermal result.
#[derive(Clone, Debug)]
pub struct ThermalRow {
    /// Application name.
    pub app: String,
    /// Peak DRAM temperature at the best-mean configuration.
    pub best_mean: Celsius,
    /// Peak DRAM temperature at the app's oracle configuration.
    pub best_per_app: Celsius,
    /// Oracle configuration label.
    pub per_app_config: String,
}

/// Computes the per-app thermal rows.
pub fn rows() -> Vec<ThermalRow> {
    let sim = simulator();
    let dse = explore_baseline();
    let mean_config = dse
        .best_mean
        .try_to_config()
        .expect("swept point is buildable");
    let options = EvalOptions::with_miss_fraction(DSE_MISS_FRACTION);

    paper_profiles()
        .iter()
        .map(|p| {
            let mean_eval = sim.evaluate(&mean_config, p, &options);
            let app_best = dse
                .per_app
                .iter()
                .find(|a| a.app == p.name)
                .expect("every app explored");
            let app_config = app_best
                .point
                .try_to_config()
                .expect("swept point is buildable");
            let app_eval = sim.evaluate(&app_config, p, &options);

            ThermalRow {
                app: p.name.clone(),
                best_mean: sim.peak_dram(&mean_config, &mean_eval),
                best_per_app: sim.peak_dram(&app_config, &app_eval),
                per_app_config: app_best.point.label(),
            }
        })
        .collect()
}

/// Regenerates Fig. 10.
pub fn run() -> String {
    let mut t = TextTable::new([
        "app",
        "best-mean config (degC)",
        "best-per-app config (degC)",
        "per-app config",
    ]);
    for r in rows() {
        t.row([
            r.app.clone(),
            format!("{:.1}", r.best_mean.value()),
            format!("{:.1}", r.best_per_app.value()),
            r.per_app_config.clone(),
        ]);
    }
    format!(
        "Fig. 10: peak in-package 3D-DRAM temperature (limit {} degC, ambient 50 degC)\n\n{}",
        DRAM_TEMP_LIMIT.value(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_temperatures_respect_the_dram_limit() {
        // Paper Finding 1: every kernel stays below 85 degC in both
        // configurations.
        for r in rows() {
            assert!(
                r.best_mean.value() < DRAM_TEMP_LIMIT.value(),
                "{}: mean {:.1}",
                r.app,
                r.best_mean.value()
            );
            assert!(
                r.best_per_app.value() < DRAM_TEMP_LIMIT.value(),
                "{}: per-app {:.1}",
                r.app,
                r.best_per_app.value()
            );
        }
    }

    #[test]
    fn temperatures_are_meaningfully_above_ambient() {
        for r in rows() {
            assert!(
                r.best_mean.value() > 55.0,
                "{}: {:.1}",
                r.app,
                r.best_mean.value()
            );
        }
    }

    #[test]
    fn some_oracle_configs_change_the_temperature() {
        // Paper Finding 2: per-app configs usually run hotter, but some
        // (SNAP, HPGMG) run cooler because power shifts from CUs to DRAM.
        let rs = rows();
        assert!(rs
            .iter()
            .any(|r| (r.best_per_app.value() - r.best_mean.value()).abs() > 0.5));
    }
}

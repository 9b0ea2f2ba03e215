//! Thermal model of one EHP GPU chiplet with its 3D DRAM stack.
//!
//! The thermally critical site in the package is a GPU chiplet with DRAM
//! stacked directly above it (Section V-D): the DRAM dies sit between the
//! hot GPU and the heat sink, and DRAM must stay below 85 C to avoid
//! doubled refresh \[48\]. This module assembles the layer stack —
//! interposer, GPU die, four DRAM dies, TIM, heat spreader — injects the
//! per-die power, and reports the peak DRAM temperature and the bottom
//! DRAM die's heat map (the paper's Figs. 10 and 11).

use ena_model::units::Celsius;

use crate::solver::{LayerSpec, TemperatureError, Temperatures, ThermalGrid};

/// DRAM refresh-doubling limit (paper Section V-D, \[48\]).
pub const DRAM_TEMP_LIMIT: Celsius = Celsius::new(85.0);

/// Per-chiplet power inputs for the thermal model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChipletPower {
    /// GPU CU dynamic power on this chiplet (W).
    pub cu_dynamic_w: f64,
    /// GPU leakage on this chiplet (W).
    pub cu_static_w: f64,
    /// Dynamic power of the DRAM stack above the chiplet (W).
    pub dram_dynamic_w: f64,
    /// Background/refresh power of the DRAM stack (W).
    pub dram_static_w: f64,
    /// Interposer (NoC + I/O) power under the chiplet (W).
    pub interposer_w: f64,
}

/// Grid resolution of the chiplet footprint.
const NX: usize = 16;
const NY: usize = 16;
/// Chiplet footprint in millimeters.
const DIE_EDGE_MM: f64 = 10.0;
/// DRAM dies per stack.
const DRAM_DIES: usize = 4;
/// Per-chiplet share of a high-end air-cooled sink (8 stacks in parallel
/// under one ~0.25 K/W sink).
const SINK_RESISTANCE_PER_CHIPLET: f64 = 1.2;

/// The assembled per-chiplet thermal model.
#[derive(Clone, Debug)]
pub struct ChipletThermalModel {
    grid: ThermalGrid,
    /// Layer index of the bottom-most DRAM die.
    dram_bottom: usize,
}

/// Solved temperatures of the chiplet stack.
#[derive(Clone, Debug)]
pub struct ChipletTemperatures {
    temperatures: Temperatures,
    dram_bottom: usize,
}

impl ChipletTemperatures {
    /// Peak temperature across all DRAM dies.
    pub fn peak_dram(&self) -> Celsius {
        (0..DRAM_DIES)
            .map(|d| self.temperatures.layer_peak(self.dram_bottom + d))
            .fold(Celsius::new(f64::MIN), Celsius::max)
    }

    /// Peak GPU die temperature.
    pub fn peak_gpu(&self) -> Celsius {
        self.temperatures.layer_peak(self.dram_bottom - 1)
    }

    /// True if every DRAM die stays below the refresh-doubling limit.
    pub fn dram_within_limit(&self) -> bool {
        self.peak_dram() < DRAM_TEMP_LIMIT
    }

    /// Heat map of the bottom-most DRAM die (row-major, `16 x 16`).
    pub fn bottom_dram_map(&self) -> &[f64] {
        self.temperatures.layer_map(self.dram_bottom)
    }

    /// Renders the bottom DRAM die heat map as ASCII art (Fig. 11).
    pub fn render_bottom_dram(&self) -> String {
        render_heatmap(self.bottom_dram_map(), NX)
    }

    /// Conjugate-gradient iterations the solve ran.
    pub fn iterations(&self) -> u32 {
        self.temperatures.iterations
    }

    /// True residual `||P - G * dT||_2` of the solve, in watts.
    pub fn residual(&self) -> f64 {
        self.temperatures.residual
    }
}

impl ChipletThermalModel {
    /// Builds the stack for the given per-chiplet power.
    pub fn new(power: ChipletPower) -> Self {
        let layers = vec![
            LayerSpec::silicon("interposer", 0.3),
            LayerSpec::silicon("gpu-die", 0.2),
            LayerSpec::silicon("dram-0", 0.05),
            LayerSpec::silicon("dram-1", 0.05),
            LayerSpec::silicon("dram-2", 0.05),
            LayerSpec::silicon("dram-3", 0.05),
            LayerSpec::tim("tim", 0.1),
            LayerSpec::silicon("spreader", 1.5),
        ];
        let mut grid = ThermalGrid::new(layers, NX, NY, DIE_EDGE_MM, DIE_EDGE_MM);
        grid.sink_resistance = SINK_RESISTANCE_PER_CHIPLET;
        grid.ambient = Celsius::new(50.0);

        // Interposer carries NoC/I/O power, spread uniformly.
        grid.add_power_rect(0, 0.0, 0.0, 1.0, 1.0, power.interposer_w);

        // GPU die: leakage everywhere, dynamic power concentrated in the
        // two shader-engine columns -> the hot spots Fig. 11 shows bleeding
        // into the DRAM above.
        grid.add_power_rect(1, 0.0, 0.0, 1.0, 1.0, power.cu_static_w);
        grid.add_power_rect(1, 0.08, 0.10, 0.42, 0.90, power.cu_dynamic_w / 2.0);
        grid.add_power_rect(1, 0.58, 0.10, 0.92, 0.90, power.cu_dynamic_w / 2.0);

        // DRAM dies share the stack's power evenly.
        let per_die = (power.dram_dynamic_w + power.dram_static_w) / DRAM_DIES as f64;
        for d in 0..DRAM_DIES {
            grid.add_power_rect(2 + d, 0.0, 0.0, 1.0, 1.0, per_die);
        }

        Self {
            grid,
            dram_bottom: 2,
        }
    }

    /// Access to the underlying grid (e.g. to adjust cooling assumptions).
    pub fn grid_mut(&mut self) -> &mut ThermalGrid {
        &mut self.grid
    }

    /// Solves for steady-state temperatures.
    ///
    /// # Errors
    ///
    /// Returns [`TemperatureError`] if the solve does not converge or
    /// fails its energy-balance check.
    pub fn solve(&self) -> Result<ChipletTemperatures, TemperatureError> {
        let temperatures = self.grid.solve()?;
        Ok(ChipletTemperatures {
            temperatures,
            dram_bottom: self.dram_bottom,
        })
    }
}

/// Closed-form peak DRAM temperature of the default chiplet stack.
///
/// The steady-state solve is linear in the injected power, and
/// [`ChipletThermalModel::new`] injects four power shapes: interposer
/// power uniform over layer 0, CU static power uniform over the GPU die,
/// DRAM power spread evenly over the four DRAM dies, and CU dynamic power
/// in the two shader-engine rectangles. Under the uniform sink the three
/// uniform shapes heat every cell of a layer alike, and heat from below
/// warms the bottom DRAM die most. With non-negative powers the hottest
/// DRAM cell of any mix is therefore the hottest cell of the CU-dynamic
/// response (bottom DRAM die, x 3, y 7), and by superposition the solved
/// peak is exactly affine in the powers. Each coefficient is one shape's
/// rise at that cell per watt, read from a unit solve; DRAM dynamic and
/// static power share a shape and so a coefficient.
///
/// This holds for the default stack, sink and ambient and for
/// non-negative powers only: a model changed through
/// [`ChipletThermalModel::grid_mut`] must be solved. The unit tests
/// re-derive every coefficient from [`ChipletThermalModel::solve`] and
/// check both premises, and a property holds the closed form within
/// 1e-9 °C of the solved peak. It costs a handful of multiplies where a
/// solve costs milliseconds, so every caller that reads only the peak
/// (the sweep, serve, Fig. 10 and the fault campaigns) uses it.
#[derive(Clone, Copy, Debug, Default)]
pub struct DramTempEstimator;

impl DramTempEstimator {
    const AMBIENT_C: f64 = 50.0;
    const CU_DYNAMIC_C_PER_W: f64 = 1.5481500063765878;
    const CU_STATIC_C_PER_W: f64 = 1.477083333332608;
    const DRAM_C_PER_W: f64 = 1.470833333332834;
    const INTERPOSER_C_PER_W: f64 = 1.4770833333329563;

    /// Peak DRAM temperature for the given per-chiplet power.
    pub fn peak_dram(power: &ChipletPower) -> Celsius {
        Celsius::new(
            Self::AMBIENT_C
                + Self::CU_DYNAMIC_C_PER_W * power.cu_dynamic_w
                + Self::CU_STATIC_C_PER_W * power.cu_static_w
                + Self::DRAM_C_PER_W * (power.dram_dynamic_w + power.dram_static_w)
                + Self::INTERPOSER_C_PER_W * power.interposer_w,
        )
    }
}

/// Renders a row-major cell map as ASCII art, one character per cell,
/// dark-to-bright by temperature.
pub fn render_heatmap(map: &[f64], nx: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let lo = map.iter().copied().fold(f64::MAX, f64::min);
    let hi = map.iter().copied().fold(f64::MIN, f64::max);
    let span = (hi - lo).max(1e-9);
    let mut out = String::with_capacity(map.len() + map.len() / nx);
    for (i, &v) in map.iter().enumerate() {
        let idx = (((v - lo) / span) * (RAMP.len() - 1) as f64).round() as usize;
        out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
        if (i + 1) % nx == 0 {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical_power() -> ChipletPower {
        // Best-mean configuration, a balanced kernel: ~1/8 of the node's
        // CU and memory power per chiplet.
        ChipletPower {
            cu_dynamic_w: 7.0,
            cu_static_w: 2.0,
            dram_dynamic_w: 2.5,
            dram_static_w: 0.5,
            interposer_w: 1.5,
        }
    }

    #[test]
    fn typical_load_stays_below_the_dram_limit() {
        let t = ChipletThermalModel::new(typical_power()).solve().unwrap();
        let peak = t.peak_dram();
        assert!(t.dram_within_limit(), "peak = {peak}");
        // But well above ambient: the model is not trivially cold.
        assert!(peak.value() > 60.0, "peak = {peak}");
    }

    #[test]
    fn gpu_runs_hotter_than_the_dram_above_it() {
        let t = ChipletThermalModel::new(typical_power()).solve().unwrap();
        assert!(t.peak_gpu().value() > t.peak_dram().value());
    }

    #[test]
    fn dram_heats_with_gpu_power_even_without_dram_activity() {
        let mut cold = typical_power();
        cold.cu_dynamic_w = 2.0;
        let mut hot = typical_power();
        hot.cu_dynamic_w = 12.0;
        let t_cold = ChipletThermalModel::new(cold).solve().unwrap().peak_dram();
        let t_hot = ChipletThermalModel::new(hot).solve().unwrap().peak_dram();
        assert!(t_hot.value() > t_cold.value() + 3.0);
    }

    #[test]
    fn extreme_power_exceeds_the_limit() {
        let mut p = typical_power();
        p.cu_dynamic_w = 40.0;
        p.dram_dynamic_w = 10.0;
        let t = ChipletThermalModel::new(p).solve().unwrap();
        assert!(!t.dram_within_limit());
    }

    #[test]
    fn closed_form_is_the_solvers_unit_responses() {
        const HOT: (usize, usize) = (3, 7);
        let unit = |set: fn(&mut ChipletPower)| {
            let mut power = ChipletPower {
                cu_dynamic_w: 0.0,
                cu_static_w: 0.0,
                dram_dynamic_w: 0.0,
                dram_static_w: 0.0,
                interposer_w: 0.0,
            };
            set(&mut power);
            power
        };
        let shapes = [
            (
                unit(|p| p.cu_dynamic_w = 1.0),
                DramTempEstimator::CU_DYNAMIC_C_PER_W,
            ),
            (
                unit(|p| p.cu_static_w = 1.0),
                DramTempEstimator::CU_STATIC_C_PER_W,
            ),
            (
                unit(|p| p.dram_dynamic_w = 1.0),
                DramTempEstimator::DRAM_C_PER_W,
            ),
            (
                unit(|p| p.dram_static_w = 1.0),
                DramTempEstimator::DRAM_C_PER_W,
            ),
            (
                unit(|p| p.interposer_w = 1.0),
                DramTempEstimator::INTERPOSER_C_PER_W,
            ),
        ];
        for (unit, coefficient) in shapes {
            let t = ChipletThermalModel::new(unit).solve().unwrap();
            let rise = t.temperatures.at(t.dram_bottom, HOT.0, HOT.1).value() - 50.0;
            assert!(
                (rise - coefficient).abs() <= 1e-9,
                "{unit:?}: solved {rise} vs closed form {coefficient} degC/W"
            );
            let map = t.bottom_dram_map();
            if unit.cu_dynamic_w > 0.0 {
                // The CU-dynamic response peaks on the bottom DRAM die at
                // the hot cell, over every DRAM die.
                let mut hottest = (f64::MIN, 0, 0, 0);
                for d in 0..DRAM_DIES {
                    let layer = t.temperatures.layer_map(t.dram_bottom + d);
                    for (cell, &c) in layer.iter().enumerate() {
                        if c > hottest.0 {
                            hottest = (c, d, cell % NX, cell / NX);
                        }
                    }
                }
                assert_eq!((hottest.1, hottest.2, hottest.3), (0, HOT.0, HOT.1));
            } else {
                // Every uniform shape heats the bottom DRAM die flat.
                let lo = map.iter().copied().fold(f64::MAX, f64::min);
                let hi = map.iter().copied().fold(f64::MIN, f64::max);
                assert!(
                    hi - lo <= 1e-9,
                    "{unit:?}: bottom die spans {} degC",
                    hi - lo
                );
            }
        }
    }

    #[test]
    fn chiplet_stack_balances_energy() {
        // Every injected watt leaves through the sink above the spreader.
        let p = typical_power();
        let injected =
            p.cu_dynamic_w + p.cu_static_w + p.dram_dynamic_w + p.dram_static_w + p.interposer_w;
        let model = ChipletThermalModel::new(p);
        let t = model.solve().unwrap();
        let g_sink = 1.0 / (SINK_RESISTANCE_PER_CHIPLET * (NX * NY) as f64);
        let top = t.temperatures.layer_map(model.grid.layer_count() - 1);
        let removed: f64 = top.iter().map(|c| g_sink * (c - 50.0)).sum();
        let imbalance = (removed - injected) / injected;
        assert!(
            imbalance.abs() <= 1e-6,
            "relative imbalance {imbalance:.2e}"
        );
    }

    #[test]
    fn bottom_dram_map_shows_cu_hotspots() {
        let t = ChipletThermalModel::new(typical_power()).solve().unwrap();
        let map = t.bottom_dram_map();
        // Cells above the shader-engine columns are hotter than the die
        // edge between/around them.
        let column_cell = map[8 * 16 + 4]; // over the left column
        let edge_cell = map[8 * 16]; // left edge
        assert!(column_cell > edge_cell);
    }

    #[test]
    fn heatmap_rendering_is_shaped_and_spans_the_ramp() {
        let t = ChipletThermalModel::new(typical_power()).solve().unwrap();
        let art = t.render_bottom_dram();
        assert_eq!(art.lines().count(), 16);
        assert!(art.lines().all(|l| l.chars().count() == 16));
        assert!(art.contains('@'), "hottest cell should render @:\n{art}");
    }
}

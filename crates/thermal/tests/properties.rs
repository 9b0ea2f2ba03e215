//! Property-based tests for the thermal solver.

use ena_model::units::Celsius;
use ena_testkit::collection::vec;
use ena_testkit::prelude::*;
use ena_thermal::ehp::{ChipletPower, ChipletThermalModel, DramTempEstimator};
use ena_thermal::solver::{LayerSpec, Temperatures, ThermalGrid};

fn grid() -> ThermalGrid {
    ThermalGrid::new(
        vec![
            LayerSpec::silicon("die", 0.2),
            LayerSpec::silicon("spreader", 1.0),
        ],
        6,
        6,
        8.0,
        8.0,
    )
}

/// A random stack, grid, cooling and power map.
#[derive(Debug)]
struct Case {
    stack: Vec<LayerSpec>,
    nx: usize,
    ny: usize,
    width_mm: f64,
    height_mm: f64,
    sink_resistance: f64,
    ambient: f64,
    /// `(layer, x0, y0, x1, y1, watts)`.
    rects: Vec<(usize, f64, f64, f64, f64, f64)>,
}

impl Case {
    fn grid(&self) -> ThermalGrid {
        let mut g = ThermalGrid::new(
            self.stack.clone(),
            self.nx,
            self.ny,
            self.width_mm,
            self.height_mm,
        );
        g.sink_resistance = self.sink_resistance;
        g.ambient = Celsius::new(self.ambient);
        for &(l, x0, y0, x1, y1, watts) in &self.rects {
            g.add_power_rect(l, x0, y0, x1, y1, watts);
        }
        g
    }
}

/// Stacks of `1..=max_layers` silicon or TIM layers of random thickness
/// over an `nx x ny` grid with sides in `1..=max_side`, and up to four
/// power rectangles on random layers.
fn cases(max_layers: usize, max_side: usize) -> impl Strategy<Value = Case> {
    let rect = (
        0usize..8,
        (0.0f64..1.0, 0.0f64..1.0),
        (0.0f64..1.0, 0.0f64..1.0),
        0.0f64..30.0,
    );
    (
        vec((any::<bool>(), 0.02f64..2.0), 1..=max_layers),
        (1..=max_side, 1..=max_side),
        (2.0f64..20.0, 2.0f64..20.0),
        (0.1f64..2.0, 20.0f64..60.0),
        vec(rect, 0..=4),
    )
        .prop_map(
            |(layers, (nx, ny), (width_mm, height_mm), (sink, ambient), rects)| {
                let stack: Vec<LayerSpec> = layers
                    .iter()
                    .map(|&(tim, mm)| {
                        if tim {
                            LayerSpec::tim("tim", mm)
                        } else {
                            LayerSpec::silicon("si", mm)
                        }
                    })
                    .collect();
                let rects = rects
                    .into_iter()
                    .map(|(l, (xa, xb), (ya, yb), watts)| {
                        let l = l % stack.len();
                        (l, xa.min(xb), ya.min(yb), xa.max(xb), ya.max(yb), watts)
                    })
                    .collect();
                Case {
                    stack,
                    nx,
                    ny,
                    width_mm,
                    height_mm,
                    sink_resistance: sink,
                    ambient,
                    rects,
                }
            },
        )
}

/// `G * dT = P` assembled densely from the conductance formulas in the
/// solver's module docs, solved by Gaussian elimination with partial
/// pivoting, and returned as temperatures (`layer * cells + y * nx + x`).
fn dense_oracle(case: &Case) -> Vec<f64> {
    let (nx, ny, stack) = (case.nx, case.ny, &case.stack);
    let cells = nx * ny;
    let n = stack.len() * cells;
    let dx = case.width_mm / nx as f64 * 1e-3;
    let dy = case.height_mm / ny as f64 * 1e-3;
    let area = dx * dy;
    // Augmented matrix: column `n` holds the injected power.
    let g = case.grid();
    let mut a: Vec<Vec<f64>> = (0..stack.len())
        .flat_map(|l| g.layer_power(l).to_vec())
        .map(|p| {
            let mut row = vec![0.0; n + 1];
            row[n] = p;
            row
        })
        .collect();
    let mut join = |i: usize, j: usize, c: f64| {
        a[i][i] += c;
        a[j][j] += c;
        a[i][j] -= c;
        a[j][i] -= c;
    };
    for (l, s) in stack.iter().enumerate() {
        let t = s.thickness_mm * 1e-3;
        for y in 0..ny {
            for x in 0..nx {
                let i = l * cells + y * nx + x;
                if x + 1 < nx {
                    join(i, i + 1, s.conductivity * t * dy / dx);
                }
                if y + 1 < ny {
                    join(i, i + nx, s.conductivity * t * dx / dy);
                }
                if let Some(hi) = stack.get(l + 1) {
                    let r = t / 2.0 / (s.conductivity * area)
                        + hi.thickness_mm * 1e-3 / 2.0 / (hi.conductivity * area);
                    join(i, i + cells, 1.0 / r);
                }
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate().skip(n - cells) {
        row[i] += 1.0 / (case.sink_resistance * cells as f64);
    }

    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        let (done, rest) = a.split_at_mut(col + 1);
        let pivot_row = &done[col];
        for row in rest {
            let f = row[col] / pivot_row[col];
            for (x, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
        }
    }
    let mut rise = vec![0.0; n];
    for i in (0..n).rev() {
        let tail: f64 = (i + 1..n).map(|k| a[i][k] * rise[k]).sum();
        rise[i] = (a[i][n] - tail) / a[i][i];
    }
    rise.iter().map(|r| case.ambient + r).collect()
}

/// A per-chiplet power draw in `0..max_w`, exactly zero a quarter of the
/// time.
fn watts(max_w: f64) -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0..max_w, 0.0..max_w, 0.0..max_w]
}

/// Random non-negative chiplet powers spanning the design space and past
/// it, zeros included.
fn chiplet_powers() -> impl Strategy<Value = ChipletPower> {
    (
        watts(40.0),
        watts(10.0),
        watts(15.0),
        watts(5.0),
        watts(8.0),
    )
        .prop_map(
            |(cu_dynamic_w, cu_static_w, dram_dynamic_w, dram_static_w, interposer_w)| {
                ChipletPower {
                    cu_dynamic_w,
                    cu_static_w,
                    dram_dynamic_w,
                    dram_static_w,
                    interposer_w,
                }
            },
        )
}

/// Heat leaving through the sink, from the top layer's temperatures.
fn sink_outflow(g: &ThermalGrid, t: &Temperatures) -> f64 {
    let (nx, ny) = g.dimensions();
    let g_sink = 1.0 / (g.sink_resistance * (nx * ny) as f64);
    let top = t.layer_map(g.layer_count() - 1);
    top.iter().map(|c| g_sink * (c - g.ambient.value())).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn temperatures_never_drop_below_ambient(
        x0 in 0.0f64..0.8, y0 in 0.0f64..0.8, w in 1.0f64..20.0,
    ) {
        let mut g = grid();
        g.add_power_rect(0, x0, y0, (x0 + 0.2).min(1.0), (y0 + 0.2).min(1.0), w);
        let t = g.solve().unwrap();
        for layer in 0..2 {
            for y in 0..6 {
                for x in 0..6 {
                    prop_assert!(t.at(layer, x, y).value() >= 50.0 - 1e-6);
                }
            }
        }
    }

    #[test]
    fn peak_is_monotone_in_power(w in 1.0f64..20.0, extra in 0.5f64..10.0) {
        let solve = |watts: f64| {
            let mut g = grid();
            g.add_power_rect(0, 0.2, 0.2, 0.8, 0.8, watts);
            g.solve().unwrap().layer_peak(0).value()
        };
        prop_assert!(solve(w + extra) > solve(w));
    }

    #[test]
    fn heat_conservation_holds(case in cases(8, 12)) {
        let g = case.grid();
        let t = g.solve().unwrap();
        let injected = g.total_power();
        let removed = sink_outflow(&g, &t);
        prop_assert!(
            (removed - injected).abs() <= 1e-6 * injected,
            "removed {removed} W vs injected {injected} W"
        );
        let p_norm = (0..g.layer_count())
            .flat_map(|l| g.layer_power(l).iter())
            .map(|p| p * p)
            .sum::<f64>()
            .sqrt();
        prop_assert!(t.residual <= 1e-10 * p_norm, "residual {} W", t.residual);
        prop_assert!(t.iterations <= g.max_iterations());
    }

    #[test]
    fn zero_power_is_exactly_ambient_in_zero_iterations(case in cases(8, 12)) {
        let g = Case { rects: Vec::new(), ..case }.grid();
        let t = g.solve().unwrap();
        prop_assert_eq!(t.iterations, 0);
        prop_assert_eq!(t.residual, 0.0);
        for l in 0..g.layer_count() {
            prop_assert!(t.layer_map(l).iter().all(|&c| c == g.ambient.value()));
        }
    }

    #[test]
    fn small_grids_match_a_dense_oracle(case in cases(4, 4)) {
        let t = case.grid().solve().unwrap();
        let expected = dense_oracle(&case);
        let cells = case.nx * case.ny;
        for (l, want) in expected.chunks(cells).enumerate() {
            for (got, want) in t.layer_map(l).iter().zip(want) {
                prop_assert!((got - want).abs() <= 1e-6, "layer {l}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn closed_form_peak_dram_is_the_solved_peak(power in chiplet_powers()) {
        let solved = ChipletThermalModel::new(power).solve().unwrap().peak_dram();
        let closed = DramTempEstimator::peak_dram(&power);
        prop_assert!(
            (solved.value() - closed.value()).abs() <= 1e-9,
            "solved {solved} vs closed form {closed} at {power:?}"
        );
    }
}

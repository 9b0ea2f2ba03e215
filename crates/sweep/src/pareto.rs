//! Pareto-frontier extraction: one ordered scan serving every sweep
//! axis, and the node axis's frontier over (mean performance, peak
//! power, peak temperature).
//!
//! The best-mean reduction answers "which single point wins"; the
//! frontier answers the design question behind Figs. 4-9 — which points
//! are *efficient*, i.e. cannot improve one axis without paying on
//! another. The node frontier reads the run's [`Scores`], the exact
//! normalization [`Explorer::reduce`](ena_core::Explorer::reduce) ranks
//! by, so the frontier provably contains the best-mean point.

use std::cmp::Ordering;

use ena_core::dse::{ConfigPoint, PointRecord, Scores};

/// One efficient design point with its three objective values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontierPoint {
    /// The design point.
    pub point: ConfigPoint,
    /// Geometric-mean log-score across applications (higher is better).
    pub score: f64,
    /// Worst-case package power across applications (W, lower is better).
    pub peak_power_w: f64,
    /// Worst-case estimated peak DRAM temperature across applications
    /// (°C, lower is better).
    pub peak_dram_c: f64,
}

impl FrontierPoint {
    /// The objectives [`frontier`] maximizes: score up, peak power and
    /// peak temperature down.
    pub fn objectives(&self) -> [f64; 3] {
        [self.score, -self.peak_power_w, -self.peak_dram_c]
    }
}

/// True if objective vector `a` Pareto-dominates `b`, every objective
/// to be maximized: no worse on every one, strictly better on at least
/// one. Irreflexive (ties survive) and transitive; a NaN objective
/// neither dominates nor is dominated.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// The indices of the `items` whose objective vector no other item's
/// [`dominates`], in input order. `objectives` maps an item to the
/// values to maximize; negate one to minimize it.
///
/// An ordered scan: items are visited best-first (objective vectors
/// lexicographically descending, `-0.0` equal to `0.0`), and each is
/// checked only against the frontier found so far. That is exact because
/// dominance is a strict partial order: every dominated item is
/// dominated by some undominated one, and a dominator sorts before what
/// it dominates.
pub fn frontier<T, const K: usize>(items: &[T], objectives: impl Fn(&T) -> [f64; K]) -> Vec<usize> {
    let values: Vec<f64> = items.iter().flat_map(objectives).collect();
    ordered_scan(&values, items.len(), K)
}

/// [`frontier`] over `n` items' objectives, `k` per item, one item after
/// another in `values`: not generic, so every axis shares one copy of
/// the sort.
fn ordered_scan(values: &[f64], n: usize, k: usize) -> Vec<usize> {
    let item = |i: usize| &values[i * k..(i + 1) * k];
    // `+ 0.0` turns -0.0 into 0.0, so the total order agrees with `>=`
    // on every non-NaN value.
    let best_first = |a: &usize, b: &usize| {
        item(*b)
            .iter()
            .zip(item(*a))
            .map(|(y, x)| (y + 0.0).total_cmp(&(x + 0.0)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(best_first);
    let mut kept: Vec<usize> = Vec::new();
    for i in order {
        if !kept.iter().any(|&f| dominates(item(f), item(i))) {
            kept.push(i);
        }
    }
    kept.sort_unstable();
    kept
}

/// The Pareto frontier over the budget-feasible records, in the
/// records' (design-space) order. `scores` is
/// [`Explorer::score`](ena_core::Explorer::score) of `records`.
pub fn pareto_frontier(records: &[PointRecord], scores: &Scores) -> Vec<FrontierPoint> {
    let candidates: Vec<FrontierPoint> = scores
        .feasible()
        .iter()
        .map(|&(i, score)| {
            let r = &records[i];
            FrontierPoint {
                point: r.point,
                score,
                peak_power_w: r.evals.iter().map(|e| e.package_power).fold(0.0, f64::max),
                peak_dram_c: r.evals.iter().map(|e| e.peak_dram_c).fold(0.0, f64::max),
            }
        })
        .collect();
    frontier(&candidates, FrontierPoint::objectives)
        .into_iter()
        .map(|i| candidates[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_core::dse::PointEval;
    use ena_core::Explorer;
    use ena_model::units::{GigabytesPerSec, Megahertz};

    fn rec(cus: u32, throughput: f64, power: f64, temp: f64) -> PointRecord {
        PointRecord {
            point: ConfigPoint {
                cus,
                clock: Megahertz::new(1000.0),
                bandwidth: GigabytesPerSec::new(3000.0),
            },
            evals: vec![PointEval {
                throughput,
                package_power: power,
                peak_dram_c: temp,
            }],
        }
    }

    fn frontier_of(records: &[PointRecord]) -> Vec<FrontierPoint> {
        pareto_frontier(records, &Explorer::default().score(records, 1))
    }

    #[test]
    fn dominated_points_are_dropped_and_ties_survive() {
        let records = vec![
            rec(192, 100.0, 100.0, 70.0), // dominated by the 256 point
            rec(256, 120.0, 90.0, 68.0),  // frontier
            rec(320, 150.0, 120.0, 75.0), // frontier: best score
            rec(384, 150.0, 120.0, 75.0), // tie with 320: both survive
        ];
        let frontier = frontier_of(&records);
        let cus: Vec<u32> = frontier.iter().map(|f| f.point.cus).collect();
        assert_eq!(cus, vec![256, 320, 384]);
    }

    #[test]
    fn infeasible_points_never_reach_the_frontier() {
        let records = vec![
            rec(192, 100.0, 100.0, 70.0),
            rec(384, 999.0, 500.0, 95.0), // busts the 160 W budget
        ];
        let frontier = frontier_of(&records);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].point.cus, 192);
    }
}

//! Design-space exploration (paper Sections V and VI).
//!
//! The paper sweeps "over a thousand" hardware configurations — CU count,
//! GPU frequency, in-package bandwidth — and reports the configuration
//! with the best mean performance under the 160 W package budget
//! (320 CUs / 1 GHz / 3 TB/s), plus the per-application oracle
//! configurations of Table II.

use ena_model::config::{EhpConfig, MAX_CUS, NODE_POWER_BUDGET};
use ena_model::error::ConfigError;
use ena_model::kernel::KernelProfile;
use ena_model::units::{GigabytesPerSec, Megahertz, Watts};

use crate::node::{EvalOptions, NodeSimulator};

/// An exploration that cannot produce a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DseError {
    /// The design space has no points.
    EmptySpace,
    /// There are no application profiles to evaluate.
    EmptyProfiles,
    /// No point satisfies the package power budget for every application.
    NoFeasiblePoint,
}

impl core::fmt::Display for DseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DseError::EmptySpace => f.write_str("design space has no points"),
            DseError::EmptyProfiles => f.write_str("no application profiles to evaluate"),
            DseError::NoFeasiblePoint => {
                f.write_str("no configuration is feasible under the package power budget")
            }
        }
    }
}

impl std::error::Error for DseError {}

/// One point in the hardware design space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigPoint {
    /// Total CU count.
    pub cus: u32,
    /// GPU clock.
    pub clock: Megahertz,
    /// Aggregate in-package bandwidth.
    pub bandwidth: GigabytesPerSec,
}

impl ConfigPoint {
    /// Materializes the point as a full configuration.
    ///
    /// # Errors
    ///
    /// Returns the builder's [`ConfigError`] when the point describes a
    /// machine that cannot be built (e.g. a CU count no chiplet split
    /// realizes). Sweep layers treat such points as infeasible rather
    /// than fatal.
    pub fn try_to_config(self) -> Result<EhpConfig, ConfigError> {
        EhpConfig::builder()
            .total_cus(self.cus)
            .gpu_clock(self.clock)
            .hbm_bandwidth(self.bandwidth)
            .build()
    }

    /// `CUs / MHz / TB/s` display form used by Table II.
    pub fn label(&self) -> String {
        format!(
            "{} / {} / {}",
            self.cus,
            self.clock.value() as u32,
            self.bandwidth.terabytes_per_sec()
        )
    }
}

/// The swept design space.
#[derive(Clone, Debug)]
pub struct DesignSpace {
    /// CU counts to sweep.
    pub cu_counts: Vec<u32>,
    /// GPU clocks to sweep.
    pub clocks: Vec<Megahertz>,
    /// In-package bandwidths to sweep.
    pub bandwidths: Vec<GigabytesPerSec>,
}

impl DesignSpace {
    /// The paper's sweep: 192-384 CUs in chiplet-sized steps, 600-1500 MHz
    /// in 25 MHz steps, 1-7 TB/s — over a thousand configurations.
    pub fn paper() -> Self {
        Self {
            cu_counts: (192..=MAX_CUS).step_by(32).collect(),
            clocks: (600..=1500)
                .step_by(25)
                .map(|f| Megahertz::new(f64::from(f)))
                .collect(),
            bandwidths: (1..=7)
                .map(|t| GigabytesPerSec::from_terabytes_per_sec(f64::from(t)))
                .collect(),
        }
    }

    /// A coarser sweep for fast tests (100 MHz steps).
    pub fn coarse() -> Self {
        Self {
            clocks: (600..=1500)
                .step_by(100)
                .map(|f| Megahertz::new(f64::from(f)))
                .collect(),
            ..Self::paper()
        }
    }

    /// All points in the space.
    pub fn points(&self) -> Vec<ConfigPoint> {
        let mut v = Vec::with_capacity(self.len());
        for &cus in &self.cu_counts {
            for &clock in &self.clocks {
                for &bandwidth in &self.bandwidths {
                    v.push(ConfigPoint {
                        cus,
                        clock,
                        bandwidth,
                    });
                }
            }
        }
        v
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.cu_counts.len() * self.clocks.len() * self.bandwidths.len()
    }

    /// True if the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The observables one node evaluation contributes to the sweep
/// reductions, in plain `f64` form so records are cheap to store, hash,
/// and round-trip through a cache bit-exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointEval {
    /// Achieved throughput (GFLOP/s).
    pub throughput: f64,
    /// Package power (W), the feasibility axis.
    pub package_power: f64,
    /// Peak DRAM temperature (°C) via [`NodeSimulator::peak_dram`], the
    /// thermal model's closed form.
    pub peak_dram_c: f64,
}

/// One design point with its per-profile evaluations, in profile order.
#[derive(Clone, Debug, PartialEq)]
pub struct PointRecord {
    /// The evaluated design point.
    pub point: ConfigPoint,
    /// One [`PointEval`] per profile, in the profiles' order.
    pub evals: Vec<PointEval>,
}

/// What every reduction over one run's records reads, computed once per
/// run by [`Explorer::score`]: the records that fit the budget, each with
/// its geometric-mean score.
#[derive(Clone, Debug, PartialEq)]
pub struct Scores {
    feasible: Vec<(usize, f64)>,
}

impl Scores {
    /// `(record index, score)` of every budget-feasible record, in record
    /// order. The score is the mean over apps of `ln(throughput / max)`,
    /// `max` being the app's highest throughput on any feasible record,
    /// with the ratio floored at `1e-12` so a zero-throughput app cannot
    /// produce `-inf`.
    pub fn feasible(&self) -> &[(usize, f64)] {
        &self.feasible
    }
}

/// The best configuration found for one application.
#[derive(Clone, Debug, PartialEq)]
pub struct AppBest {
    /// Application name.
    pub app: String,
    /// Winning configuration.
    pub point: ConfigPoint,
    /// Throughput at the winning point (GFLOP/s).
    pub throughput: f64,
    /// Percent improvement over the best-mean configuration.
    pub benefit_over_mean_pct: f64,
}

/// Full exploration result.
#[derive(Clone, Debug, PartialEq)]
pub struct DseResult {
    /// The best-mean configuration.
    pub best_mean: ConfigPoint,
    /// Per-application evaluations at the best-mean point.
    pub mean_config_throughput: Vec<(String, f64)>,
    /// Per-application oracle configurations (Table II).
    pub per_app: Vec<AppBest>,
    /// Points swept.
    pub evaluated: usize,
    /// Points feasible under the budget for every application.
    pub feasible: usize,
}

/// The design-space explorer.
#[derive(Clone, Debug)]
pub struct Explorer {
    /// Node simulator used for evaluations.
    pub sim: NodeSimulator,
    /// Package power budget (paper: 160 W).
    pub budget: Watts,
    /// Evaluation options (miss model, power optimizations).
    pub options: EvalOptions,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            sim: NodeSimulator::new(),
            budget: NODE_POWER_BUDGET,
            options: EvalOptions::with_miss_fraction(0.15),
        }
    }
}

impl Explorer {
    /// Evaluates every profile at `point`: the configuration stage of
    /// the node model once, then its profile stage per profile.
    ///
    /// This is the pure per-point kernel of the exploration: no shared
    /// state, no ordering dependence. The sequential [`Explorer::explore`]
    /// and the parallel `ena-sweep` engine both call it, which is what
    /// makes their results byte-identical by construction.
    pub fn evaluate_point(&self, point: ConfigPoint, profiles: &[KernelProfile]) -> PointRecord {
        let Ok(config) = point.try_to_config() else {
            // An unbuildable point is infeasible by definition: infinite
            // package power fails every budget check, so the reductions
            // prune it without special cases.
            let evals = profiles
                .iter()
                .map(|_| PointEval {
                    throughput: 0.0,
                    package_power: f64::INFINITY,
                    peak_dram_c: 0.0,
                })
                .collect();
            return PointRecord { point, evals };
        };
        let node = self.sim.configure(&config);
        let evals = profiles
            .iter()
            .map(|p| {
                let eval = node.evaluate(p, &self.options);
                PointEval {
                    throughput: eval.perf.throughput.value(),
                    package_power: eval.package_power().value(),
                    peak_dram_c: self.sim.peak_dram(&config, &eval).value(),
                }
            })
            .collect();
        PointRecord { point, evals }
    }

    /// True if every application fits the package budget at this record.
    pub fn is_feasible(&self, record: &PointRecord) -> bool {
        record
            .evals
            .iter()
            .all(|e| e.package_power <= self.budget.value())
    }

    /// Scores one run's records (in design-space point order) against
    /// `n_apps` profiles: the feasible set and its geomean scores, which
    /// [`Explorer::reduce`] and the sweep's Pareto frontier both read.
    pub fn score(&self, records: &[PointRecord], n_apps: usize) -> Scores {
        let feasible: Vec<usize> = (0..records.len())
            .filter(|&i| self.is_feasible(&records[i]))
            .collect();
        // Per-app maxima across feasible points, for normalization.
        let mut app_max = vec![0.0f64; n_apps];
        for &i in &feasible {
            for (max, e) in app_max.iter_mut().zip(&records[i].evals) {
                *max = max.max(e.throughput);
            }
        }
        let feasible = feasible
            .into_iter()
            .map(|i| {
                let evals = &records[i].evals;
                let score = evals
                    .iter()
                    .zip(&app_max)
                    .map(|(e, max)| (e.throughput / max).max(1e-12).ln())
                    .sum::<f64>()
                    / evals.len() as f64;
                (i, score)
            })
            .collect();
        Scores { feasible }
    }

    /// Reduces per-point records (in design-space point order) and their
    /// [`Explorer::score`] to the best-mean and per-app oracle results.
    ///
    /// Pure function of its inputs: feeding it records produced by
    /// [`Explorer::evaluate_point`] in point order reproduces
    /// [`Explorer::explore`] exactly, whatever produced the records.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptySpace`] / [`DseError::EmptyProfiles`] on
    /// empty inputs and [`DseError::NoFeasiblePoint`] when the budget
    /// rejects every record.
    pub fn reduce(
        &self,
        records: &[PointRecord],
        scores: &Scores,
        profiles: &[KernelProfile],
    ) -> Result<DseResult, DseError> {
        if records.is_empty() {
            return Err(DseError::EmptySpace);
        }
        if profiles.is_empty() {
            return Err(DseError::EmptyProfiles);
        }

        // Best mean: geometric mean of normalized per-app throughput.
        // Strict `>` keeps the earliest point on ties, matching the
        // sequential sweep order.
        let Some(&(best, _)) =
            scores
                .feasible
                .iter()
                .reduce(|best, cand| if cand.1 > best.1 { cand } else { best })
        else {
            return Err(DseError::NoFeasiblePoint);
        };
        let best_record = &records[best];
        let best_mean = best_record.point;
        let mean_config_throughput: Vec<(String, f64)> = profiles
            .iter()
            .zip(&best_record.evals)
            .map(|(p, e)| (p.name.clone(), e.throughput))
            .collect();

        // Per-app oracle: each app may pick any point feasible *for it*
        // (Table II's dynamic-reconfiguration bound).
        let mut per_app = Vec::with_capacity(profiles.len());
        for (i, profile) in profiles.iter().enumerate() {
            let mut best_point = best_mean;
            let mut best_tp = 0.0f64;
            for record in records {
                let e = &record.evals[i];
                if e.package_power <= self.budget.value() && e.throughput > best_tp {
                    best_tp = e.throughput;
                    best_point = record.point;
                }
            }
            let mean_tp = mean_config_throughput[i].1;
            per_app.push(AppBest {
                app: profile.name.clone(),
                point: best_point,
                throughput: best_tp,
                benefit_over_mean_pct: 100.0 * (best_tp / mean_tp - 1.0),
            });
        }

        Ok(DseResult {
            best_mean,
            mean_config_throughput,
            per_app,
            evaluated: records.len(),
            feasible: scores.feasible.len(),
        })
    }

    /// Sweeps the space and returns the best-mean and per-app results.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptySpace`] / [`DseError::EmptyProfiles`] on
    /// empty inputs and [`DseError::NoFeasiblePoint`] when no point fits
    /// the budget.
    pub fn explore(
        &self,
        space: &DesignSpace,
        profiles: &[KernelProfile],
    ) -> Result<DseResult, DseError> {
        if space.is_empty() {
            return Err(DseError::EmptySpace);
        }
        if profiles.is_empty() {
            return Err(DseError::EmptyProfiles);
        }
        let records: Vec<PointRecord> = space
            .points()
            .into_iter()
            .map(|point| self.evaluate_point(point, profiles))
            .collect();
        self.reduce(&records, &self.score(&records, profiles.len()), profiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_workloads::paper_profiles;

    #[test]
    fn paper_space_has_over_a_thousand_points() {
        let space = DesignSpace::paper();
        assert!(space.len() > 1000, "{} points", space.len());
    }

    #[test]
    fn explorer_finds_the_papers_best_mean_region() {
        let result = Explorer::default()
            .explore(&DesignSpace::coarse(), &paper_profiles())
            .unwrap();
        // Paper: 320 CUs / 1000 MHz / 3 TB/s. Accept the immediate
        // neighborhood — the models are calibrated, not fitted.
        let p = result.best_mean;
        assert!((288..=384).contains(&p.cus), "best-mean CUs = {}", p.cus);
        assert!(
            (900.0..=1200.0).contains(&p.clock.value()),
            "best-mean clock = {}",
            p.clock
        );
        let tbps = p.bandwidth.terabytes_per_sec();
        assert!((2.0..=4.0).contains(&tbps), "best-mean bandwidth = {tbps}");
    }

    #[test]
    fn per_app_bests_follow_table_ii_structure() {
        let result = Explorer::default()
            .explore(&DesignSpace::coarse(), &paper_profiles())
            .unwrap();
        let best = |name: &str| {
            result
                .per_app
                .iter()
                .find(|a| a.app == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        // MaxFlops: near-max CUs, minimal bandwidth (paper: 384/925/1).
        let mf = best("MaxFlops");
        assert!(mf.point.cus >= 352, "MaxFlops CUs = {}", mf.point.cus);
        assert!(mf.point.bandwidth.terabytes_per_sec() <= 2.0);
        // Memory-intensive apps provision more bandwidth than the mean
        // config's 3 TB/s.
        for name in ["LULESH", "MiniAMR", "XSBench"] {
            let b = best(name);
            assert!(
                b.point.bandwidth.terabytes_per_sec() >= 3.0,
                "{name}: {}",
                b.point.label()
            );
        }
        // Every oracle config beats (or at worst ties) the mean config.
        for a in &result.per_app {
            assert!(
                a.benefit_over_mean_pct >= -1e-9,
                "{}: {}",
                a.app,
                a.benefit_over_mean_pct
            );
        }
        // And some app gains double digits (Table II: 10.7-47.3 %).
        assert!(result
            .per_app
            .iter()
            .any(|a| a.benefit_over_mean_pct > 10.0));
    }

    #[test]
    fn budget_prunes_the_space() {
        let result = Explorer::default()
            .explore(&DesignSpace::coarse(), &paper_profiles())
            .unwrap();
        assert!(result.feasible < result.evaluated);
        assert!(result.feasible > 0);
    }

    #[test]
    fn tighter_budgets_pick_smaller_configs() {
        let space = DesignSpace::coarse();
        let profiles = paper_profiles();
        let normal = Explorer::default().explore(&space, &profiles).unwrap();
        let tight = Explorer {
            budget: Watts::new(110.0),
            ..Explorer::default()
        }
        .explore(&space, &profiles)
        .unwrap();
        let score = |p: &ConfigPoint| f64::from(p.cus) * p.clock.value();
        assert!(score(&tight.best_mean) < score(&normal.best_mean));
    }
}

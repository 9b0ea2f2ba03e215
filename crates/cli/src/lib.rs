//! Command-line interface logic for the ENA toolkit.
//!
//! The `ena` binary wraps the node simulator for interactive use:
//!
//! ```text
//! ena evaluate --app LULESH --cus 320 --mhz 1000 --tbps 3 [--miss 0.15] [--optimized]
//! ena suite    [--cus N --mhz F --tbps B]       # all eight workloads
//! ena sweep    [--jobs N] [--budget 160] [--fine] [--frontier]
//! ena chiplet  --app SNAP                       # chiplet-vs-monolithic study
//! ena faults   [--seed N] [--app CoMD] [--transient]
//! ena multinode [--nodes N] [--fabric-topology T] [--seed N] [--app CoMD]
//!               [--mtbf HOURS] [--checkpoint-cost MIN]
//! ena multinode --sweep [--jobs N] [--frontier]
//!               [--mtbf H] [--checkpoint-cost MIN] [--fabric-topology T]
//! ena chaos    [--seed N] [--runs N]            # chaos-test the serve store
//! ena serve    [--addr HOST] [--port N] [--workers N] [--queue N] [--batch N]
//!              [--cache DIR] [--port-file PATH] [--budget W]
//! ena client   (--port N | --port-file PATH) --script "CMD; CMD; ..."
//! ena cache verify PATH                         # inspect a serve cache file
//! ```
//!
//! Parsing and rendering live in this library so they are unit-testable;
//! the binary is a thin wrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::str::FromStr;
use std::sync::atomic::{AtomicU32, Ordering};

use ena_core::chiplet::chiplet_study;
use ena_core::dse::{DesignSpace, Explorer, PointRecord};
use ena_core::node::{EvalOptions, NodeSimulator};
use ena_fabric::{
    run_multinode_campaign, FabricKind, MultiNodeCampaignSpec, MultiNodeSpace, MultiNodeSweep,
    MultiNodeSweepSpec, RecoveryModel, RecoverySpace, RecoverySweep, RecoverySweepSpec,
    ScaleOutSpec, KW_PER_MW, TF_PER_EF,
};
use ena_faults::{
    run_campaign, run_transient_campaign, CampaignSpec, NodeFaultPlan, TransientCampaignSpec,
};
use ena_model::config::EhpConfig;
use ena_model::units::{GigabytesPerSec, Megahertz, Watts};
use ena_power::opts::PowerOptimization;
use ena_serve::{run_chaos_campaign, ChaosSpec, Client as ServeClient, ServeConfig, Server};
use ena_sweep::{read_file_info, verify_file, CacheRecord, SweepEngine, SweepSpec, Swept};
use ena_workloads::{paper_profiles, profile_for};

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Evaluate one app on one configuration.
    Evaluate {
        /// Application name (Table I).
        app: String,
        /// Configuration knobs.
        point: Point,
        /// Explicit miss fraction (None = the app's own).
        miss: Option<f64>,
        /// Apply the Section V-E power optimizations.
        optimized: bool,
    },
    /// Evaluate the whole suite on one configuration.
    Suite {
        /// Configuration knobs.
        point: Point,
    },
    /// Run the parallel sweep engine.
    Sweep {
        /// Package power budget in watts.
        budget: f64,
        /// Use the full >1000-point sweep instead of the coarse grid.
        fine: bool,
        /// Worker thread count.
        jobs: usize,
        /// Print the Pareto frontier.
        frontier: bool,
    },
    /// Run the chiplet-vs-monolithic study for one app.
    Chiplet {
        /// Application name.
        app: String,
    },
    /// Run a seeded fault-injection campaign and print the report.
    Faults {
        /// Campaign seed.
        seed: u64,
        /// Application name driving the degraded-node models.
        app: String,
        /// Run the transient-fault (ECC/retry/rollback) campaign instead
        /// of the permanent-fault one.
        transient: bool,
    },
    /// Run a multi-node fabric campaign, or sweep the (nodes x topology)
    /// grid.
    Multinode {
        /// Fleet size (campaign mode).
        nodes: u32,
        /// Cabinet topology (campaign and recovery-sweep modes).
        topology: FabricKind,
        /// Campaign seed.
        seed: u64,
        /// Application name driving the scale-out model.
        app: String,
        /// Sweep the grid instead of running one campaign.
        sweep: bool,
        /// Worker thread count (sweep mode).
        jobs: usize,
        /// Print the Pareto frontier (sweep mode).
        frontier: bool,
        /// Node MTBF in hours; enables checkpoint/restart recovery
        /// reporting (None = derive from the resilience model when
        /// `--checkpoint-cost` is given).
        mtbf: Option<f64>,
        /// Checkpoint cost in minutes (default 3.0 when `--mtbf` is
        /// given alone).
        checkpoint_cost: Option<f64>,
    },
    /// Run a seeded chaos campaign on the serve store: injected I/O
    /// faults and killed leaders, with crash-consistency invariants
    /// checked after every run.
    Chaos {
        /// Campaign seed.
        seed: u64,
        /// Faulted runs before the final clean open.
        runs: u32,
    },
    /// Run the persistent evaluation service until a `SHUTDOWN` request.
    Serve {
        /// Interface to bind.
        addr: String,
        /// TCP port (0 = ephemeral).
        port: u16,
        /// Worker threads serving connections.
        workers: usize,
        /// Pending-connection queue capacity (overflow is answered BUSY).
        queue: usize,
        /// Largest EVAL run folded into one engine dispatch.
        batch: usize,
        /// Package power budget in watts.
        budget: f64,
        /// Persistent cache directory (None = memory only).
        cache: Option<std::path::PathBuf>,
        /// File to write the bound port number to (for scripts binding
        /// port 0).
        port_file: Option<std::path::PathBuf>,
    },
    /// Run a scripted client session against a running server.
    Client {
        /// Server host.
        addr: String,
        /// Server port.
        port: Option<u16>,
        /// File to read the server port from (written by `serve
        /// --port-file`).
        port_file: Option<std::path::PathBuf>,
        /// Semicolon-separated request lines, pipelined in order.
        script: String,
    },
    /// Verify a serve cache file against its own header stamps.
    CacheVerify {
        /// The cache file to inspect.
        path: std::path::PathBuf,
    },
    /// Print usage.
    Help,
}

/// CU count / clock / bandwidth triple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Total CU count.
    pub cus: u32,
    /// GPU clock in MHz.
    pub mhz: f64,
    /// In-package bandwidth in TB/s.
    pub tbps: f64,
}

impl Default for Point {
    fn default() -> Self {
        Self {
            cus: 320,
            mhz: 1000.0,
            tbps: 3.0,
        }
    }
}

impl Point {
    fn to_config(self) -> Result<EhpConfig, String> {
        EhpConfig::builder()
            .total_cus(self.cus)
            .gpu_clock(Megahertz::new(self.mhz))
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(self.tbps))
            .build()
            .map_err(|e| e.to_string())
    }
}

/// Extracts `--name value` from `args`, removing both tokens.
fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{name} requires a value")),
        None => Ok(None),
    }
}

/// Extracts a boolean `--flag`.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Extracts `--name value` parsed as `T`; a value that does not parse
/// is `bad --name: value`.
fn take_parsed<T: FromStr>(args: &mut Vec<String>, name: &str) -> Result<Option<T>, String> {
    take_value(args, name)?
        .map(|v| v.parse().map_err(|_| format!("bad {name}: {v}")))
        .transpose()
}

/// Extracts a count `--name value` that must be at least 1 (`T::default()`
/// is zero), defaulting to `default`.
fn take_count<T: FromStr + Default + PartialEq>(
    args: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    let n = take_parsed(args, name)?.unwrap_or(default);
    if n == T::default() {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(n)
}

fn parse_point(args: &mut Vec<String>) -> Result<Point, String> {
    let d = Point::default();
    Ok(Point {
        cus: take_parsed(args, "--cus")?.unwrap_or(d.cus),
        mhz: take_parsed(args, "--mhz")?.unwrap_or(d.mhz),
        tbps: take_parsed(args, "--tbps")?.unwrap_or(d.tbps),
    })
}

/// Default sweep worker count: one per available hardware thread.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The Pareto frontier table of a fabric sweep, whose frontier indexes
/// its records: `header` names the columns, `row` renders one record.
fn index_frontier<R>(
    swept: &Swept<R, Vec<usize>>,
    header: &str,
    row: impl Fn(&R) -> String,
) -> String {
    let mut out = format!(
        "\nPareto frontier ({} of {} points):\n{header}\n",
        swept.frontier.len(),
        swept.total_points
    );
    for &i in &swept.frontier {
        out.push_str(&row(&swept.records[i]));
        out.push('\n');
    }
    out
}

/// Locates the repository `artifacts/` directory by walking up from the
/// working directory (creating `./artifacts` as a fallback target when
/// none exists yet).
fn artifacts_dir() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    for dir in cwd.ancestors() {
        let candidate = dir.join("artifacts");
        if candidate.is_dir() {
            return candidate;
        }
    }
    cwd.join("artifacts")
}

/// Extracts `--seed` (hex with `0x` prefix or decimal), defaulting to
/// the acceptance seed.
fn take_seed(args: &mut Vec<String>) -> Result<u64, String> {
    take_value(args, "--seed")?
        .map(|v| {
            let digits = v.strip_prefix("0x").unwrap_or(&v);
            let radix = if digits.len() < v.len() { 16 } else { 10 };
            u64::from_str_radix(digits, radix).map_err(|_| format!("bad --seed: {v}"))
        })
        .transpose()
        .map(|seed| seed.unwrap_or(0xC0FFEE))
}

fn require_app(args: &mut Vec<String>) -> Result<String, String> {
    let app = take_value(args, "--app")?.ok_or("--app is required")?;
    if profile_for(&app).is_none() {
        let names: Vec<String> = paper_profiles().iter().map(|p| p.name.clone()).collect();
        return Err(format!("unknown app '{app}'; known: {}", names.join(", ")));
    }
    Ok(app)
}

/// Extracts an optional `--app`, defaulting to CoMD.
fn take_app_or_comd(args: &mut Vec<String>) -> Result<String, String> {
    match take_value(args, "--app")? {
        Some(a) if profile_for(&a).is_none() => Err(format!("unknown app '{a}'")),
        Some(a) => Ok(a),
        None => Ok("CoMD".to_string()),
    }
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for malformed input.
pub fn parse(mut args: Vec<String>) -> Result<Command, String> {
    let Some(cmd) = args.first().cloned() else {
        return Ok(Command::Help);
    };
    args.remove(0);
    let command = match cmd.as_str() {
        "evaluate" => {
            let app = require_app(&mut args)?;
            let point = parse_point(&mut args)?;
            let miss = take_parsed::<f64>(&mut args, "--miss")?;
            if let Some(m) = miss {
                if !(0.0..=1.0).contains(&m) {
                    return Err(format!("--miss must be in [0,1], got {m}"));
                }
            }
            let optimized = take_flag(&mut args, "--optimized");
            Command::Evaluate {
                app,
                point,
                miss,
                optimized,
            }
        }
        "suite" => Command::Suite {
            point: parse_point(&mut args)?,
        },
        "sweep" => {
            let budget = take_parsed(&mut args, "--budget")?.unwrap_or(160.0);
            let jobs = take_count(&mut args, "--jobs", default_jobs())?;
            Command::Sweep {
                budget,
                fine: take_flag(&mut args, "--fine"),
                jobs,
                frontier: take_flag(&mut args, "--frontier"),
            }
        }
        "chiplet" => Command::Chiplet {
            app: require_app(&mut args)?,
        },
        "faults" => {
            let seed = take_seed(&mut args)?;
            let app = take_app_or_comd(&mut args)?;
            Command::Faults {
                seed,
                app,
                transient: take_flag(&mut args, "--transient"),
            }
        }
        "multinode" => {
            let nodes = take_parsed(&mut args, "--nodes")?.unwrap_or(64);
            if nodes < 2 {
                return Err("--nodes must be at least 2".into());
            }
            let topology = match take_value(&mut args, "--fabric-topology")? {
                Some(t) => FabricKind::parse(&t).map_err(|e| e.to_string())?,
                None => FabricKind::DragonflyLite,
            };
            let seed = take_seed(&mut args)?;
            let app = take_app_or_comd(&mut args)?;
            let jobs = take_count(&mut args, "--jobs", default_jobs())?;
            let mtbf = take_parsed::<f64>(&mut args, "--mtbf")?;
            if let Some(m) = mtbf {
                if !(m > 0.0) {
                    return Err(format!("--mtbf must be positive, got {m}"));
                }
            }
            let checkpoint_cost = take_parsed::<f64>(&mut args, "--checkpoint-cost")?;
            if let Some(c) = checkpoint_cost {
                if !(c > 0.0) {
                    return Err(format!("--checkpoint-cost must be positive, got {c}"));
                }
            }
            Command::Multinode {
                nodes,
                topology,
                seed,
                app,
                sweep: take_flag(&mut args, "--sweep"),
                jobs,
                frontier: take_flag(&mut args, "--frontier"),
                mtbf,
                checkpoint_cost,
            }
        }
        "chaos" => {
            let seed = take_seed(&mut args)?;
            let runs = take_count(&mut args, "--runs", 3)?;
            Command::Chaos { seed, runs }
        }
        "serve" => {
            let addr = take_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1".into());
            let port = take_parsed(&mut args, "--port")?.unwrap_or(0);
            let workers = take_count(&mut args, "--workers", 4)?;
            let queue = take_count(&mut args, "--queue", 16)?;
            let batch = take_count(&mut args, "--batch", 64)?;
            let budget = take_parsed(&mut args, "--budget")?.unwrap_or(160.0);
            Command::Serve {
                addr,
                port,
                workers,
                queue,
                batch,
                budget,
                cache: take_value(&mut args, "--cache")?.map(std::path::PathBuf::from),
                port_file: take_value(&mut args, "--port-file")?.map(std::path::PathBuf::from),
            }
        }
        "client" => {
            let addr = take_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1".into());
            let port = take_parsed(&mut args, "--port")?;
            let port_file = take_value(&mut args, "--port-file")?.map(std::path::PathBuf::from);
            if port.is_none() && port_file.is_none() {
                return Err("client needs --port or --port-file".into());
            }
            let script = take_value(&mut args, "--script")?.ok_or("--script is required")?;
            Command::Client {
                addr,
                port,
                port_file,
                script,
            }
        }
        "cache" => match args.first().map(String::as_str) {
            Some("verify") => {
                args.remove(0);
                if args.is_empty() {
                    return Err("cache verify needs a file path".into());
                }
                Command::CacheVerify {
                    path: std::path::PathBuf::from(args.remove(0)),
                }
            }
            _ => return Err("cache supports one subcommand: verify PATH".into()),
        },
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown command '{other}'; try 'ena help'")),
    };
    if let Some(stray) = args.first() {
        return Err(format!("unrecognized argument '{stray}'"));
    }
    Ok(command)
}

/// Usage text.
pub const USAGE: &str = "\
ena — Exascale Node Architecture modeling toolkit

commands:
  evaluate --app NAME [--cus N] [--mhz F] [--tbps B] [--miss M] [--optimized]
  suite    [--cus N] [--mhz F] [--tbps B]
  sweep    [--jobs N] [--budget W] [--fine] [--frontier]
  chiplet  --app NAME
  faults   [--seed N] [--app NAME] [--transient]
  multinode [--nodes N] [--fabric-topology T] [--seed N] [--app NAME]
           [--mtbf HOURS] [--checkpoint-cost MIN]
  multinode --sweep [--jobs N] [--app NAME] [--frontier]
           [--mtbf HOURS] [--checkpoint-cost MIN] [--fabric-topology T]
  chaos    [--seed N] [--runs N]
  serve    [--addr HOST] [--port N] [--workers N] [--queue N] [--batch N]
           [--cache DIR] [--port-file PATH] [--budget W]
  client   (--port N | --port-file PATH) [--addr HOST] --script \"CMD; CMD\"
  cache verify PATH
  help

apps: MaxFlops, CoMD, CoMD-LJ, HPGMG, LULESH, MiniAMR, XSBench, SNAP
fabric topologies: fat-tree, torus, dragonfly
defaults: 320 CUs / 1000 MHz / 3 TB/s (the paper baseline); 64-node dragonfly cabinet
--transient runs the ECC/retry/rollback campaign; --mtbf/--checkpoint-cost add a
Young/Daly checkpoint/restart section (sweep mode: checkpoint-interval x nodes grid
on one topology); sweeps evaluate in memory and persist nothing
serve runs a persistent evaluation service (EVAL / SWEEP coarse|fine / FRONTIER /
STATS / SNAPSHOT / SHUTDOWN) with single-flight memoization; client pipelines a
';'-separated script against it; cache verify audits a serve cache file
chaos injects seeded I/O faults + killed leaders into the serve store's cache
file and verifies crash-consistency invariants (exits nonzero on any violation)";

/// Executes a parsed command, returning the report text.
///
/// # Errors
///
/// Returns a message if the configuration is invalid.
pub fn execute(command: Command) -> Result<String, String> {
    let sim = NodeSimulator::new();
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Evaluate {
            app,
            point,
            miss,
            optimized,
        } => {
            let config = point.to_config()?;
            let profile = profile_for(&app).ok_or_else(|| format!("unknown app: {app}"))?;
            let mut options = match miss {
                Some(m) => EvalOptions::with_miss_fraction(m),
                None => EvalOptions::default(),
            };
            if optimized {
                options.optimizations = PowerOptimization::ALL.to_vec();
            }
            let eval = sim.evaluate(&config, &profile, &options);
            let t = sim.thermal(&config, &eval).map_err(|e| e.to_string())?;
            Ok(format!(
                "{app} on {} CUs / {} / {:.1} TB/s\n\
                 throughput:    {:.2} TF ({:.1}% of peak)\n\
                 package power: {:.1} W\n\
                 node power:    {:.1} W ({:.1} GF/W)\n\
                 peak DRAM:     {:.1} (limit 85 degC)\n\
                 thermal solve: {} CG iterations, residual {:.2e} W",
                config.gpu.total_cus(),
                config.gpu.clock,
                config.hbm.total_bandwidth().terabytes_per_sec(),
                eval.perf.throughput.teraflops(),
                100.0 * eval.perf.throughput.value() / config.peak_throughput().value(),
                eval.package_power().value(),
                eval.node_power().value(),
                eval.efficiency(),
                t.peak_dram(),
                t.iterations(),
                t.residual(),
            ))
        }
        Command::Suite { point } => {
            let config = point.to_config()?;
            let mut out = format!(
                "suite on {} CUs / {} / {:.1} TB/s\n{:<10} {:>8} {:>10} {:>9}\n",
                config.gpu.total_cus(),
                config.gpu.clock,
                config.hbm.total_bandwidth().terabytes_per_sec(),
                "app",
                "TF",
                "package W",
                "GF/W"
            );
            for profile in paper_profiles() {
                let eval = sim.evaluate(&config, &profile, &EvalOptions::default());
                out.push_str(&format!(
                    "{:<10} {:>8.2} {:>10.1} {:>9.1}\n",
                    profile.name,
                    eval.perf.throughput.teraflops(),
                    eval.package_power().value(),
                    eval.efficiency(),
                ));
            }
            Ok(out)
        }
        Command::Sweep {
            budget,
            fine,
            jobs,
            frontier,
        } => {
            let explorer = Explorer {
                budget: Watts::new(budget),
                ..Explorer::default()
            };
            let space = if fine {
                DesignSpace::paper()
            } else {
                DesignSpace::coarse()
            };
            let mut spec = SweepSpec::new(space, paper_profiles());
            spec.run.jobs = jobs;
            let outcome = SweepEngine::new(explorer)
                .run(&spec)
                .map_err(|e| e.to_string())?;
            let t = &outcome.telemetry;
            let result = &outcome.result;
            let mut out = format!(
                "swept {} configurations on {} jobs, {} feasible under {budget} W\n\
                 best-mean: {}\n",
                result.evaluated,
                t.jobs,
                result.feasible,
                result.best_mean.label(),
            );
            let utilization: Vec<String> = t
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| format!("w{i} {} pts/{} steals", w.points, w.steals))
                .collect();
            out.push_str(&format!("workers: {}\n", utilization.join(" | ")));
            out.push_str("\nper-app oracle:\n");
            for a in &result.per_app {
                out.push_str(&format!(
                    "  {:<10} {:<18} {:+.1}%\n",
                    a.app,
                    a.point.label(),
                    a.benefit_over_mean_pct
                ));
            }
            if frontier {
                out.push_str(&format!(
                    "\nPareto frontier ({} of {} feasible points):\n{:<20} {:>10} {:>8} {:>8}\n",
                    outcome.frontier.len(),
                    result.feasible,
                    "config",
                    "geomean",
                    "peak W",
                    "peak C"
                ));
                for f in &outcome.frontier {
                    out.push_str(&format!(
                        "{:<20} {:>9.1}% {:>8.1} {:>8.1}\n",
                        f.point.label(),
                        100.0 * f.score.exp(),
                        f.peak_power_w,
                        f.peak_dram_c
                    ));
                }
            }
            Ok(out)
        }
        Command::Faults {
            seed,
            app,
            transient,
        } => {
            if transient {
                Ok(run_transient_campaign(&TransientCampaignSpec::standard(seed)).render())
            } else {
                let mut spec = CampaignSpec::standard(seed);
                spec.workload = app;
                let report = run_campaign(&spec).map_err(|e| e.to_string())?;
                Ok(report.render())
            }
        }
        Command::Multinode {
            nodes,
            topology,
            seed,
            app,
            sweep,
            jobs,
            frontier,
            mtbf,
            checkpoint_cost,
        } => {
            let recovery = match (mtbf, checkpoint_cost) {
                (None, None) => None,
                (Some(m), cost) => Some(RecoveryModel::new(m, cost.unwrap_or(3.0))),
                (None, Some(cost)) => Some(
                    RecoveryModel::from_node_assessment(&EhpConfig::paper_baseline(), &app, cost)
                        .ok_or_else(|| format!("unknown app: {app}"))?,
                ),
            };
            if sweep {
                let scaleout = ScaleOutSpec::standard(app.clone());
                if let Some(model) = recovery {
                    let mut spec =
                        RecoverySweepSpec::new(RecoverySpace::standard(), scaleout, model);
                    spec.kind = topology;
                    spec.seed = seed;
                    spec.run.jobs = jobs;
                    let outcome = RecoverySweep::new().run(&spec).map_err(|e| e.to_string())?;
                    let best = outcome
                        .records
                        .iter()
                        .max_by(|a, b| a.recovered_exaflops.total_cmp(&b.recovered_exaflops))
                        .ok_or("empty recovery sweep")?;
                    let mut out = format!(
                        "recovery sweep: {} points (checkpoint-interval x nodes) for {app} \
                         on {jobs} jobs ({model})\n\
                         best recovered throughput: {} at {:.1} TF \
                         (interval {:.3} h, {:.1}% efficient)\n",
                        outcome.total_points,
                        best.point.label(),
                        TF_PER_EF * best.recovered_exaflops,
                        best.interval_hours,
                        100.0 * best.simulated,
                    );
                    if frontier {
                        let header = format!(
                            "{:<12} {:>10} {:>12} {:>10} {:>10}",
                            "point", "interval h", "recovered TF", "analytic", "simulated"
                        );
                        out.push_str(&index_frontier(&outcome, &header, |r| {
                            format!(
                                "{:<12} {:>10.3} {:>12.1} {:>10.4} {:>10.4}",
                                r.point.label(),
                                r.interval_hours,
                                TF_PER_EF * r.recovered_exaflops,
                                r.analytic,
                                r.simulated
                            )
                        }));
                    }
                    return Ok(out);
                }
                let mut spec = MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), scaleout);
                spec.run.jobs = jobs;
                let outcome = MultiNodeSweep::new()
                    .run(&spec)
                    .map_err(|e| e.to_string())?;
                let best = outcome
                    .records
                    .iter()
                    .max_by(|a, b| a.exaflops.total_cmp(&b.exaflops))
                    .ok_or("empty multi-node sweep")?;
                let mut out = format!(
                    "multi-node sweep: {} points (nodes x topology) for {app} on {jobs} jobs\n\
                     best throughput: {} at {:.1} TF ({:.1}% efficient, {:.2} kW)\n",
                    outcome.total_points,
                    best.point.label(),
                    TF_PER_EF * best.exaflops,
                    100.0 * best.efficiency,
                    KW_PER_MW * best.power_mw,
                );
                if frontier {
                    let header = format!(
                        "{:<16} {:>9} {:>8} {:>10} {:>10}",
                        "point", "TF", "kW", "eff %", "comm us"
                    );
                    out.push_str(&index_frontier(&outcome, &header, |r| {
                        format!(
                            "{:<16} {:>9.1} {:>8.2} {:>10.2} {:>10.1}",
                            r.point.label(),
                            TF_PER_EF * r.exaflops,
                            KW_PER_MW * r.power_mw,
                            100.0 * r.efficiency,
                            r.comm_us
                        )
                    }));
                }
                Ok(out)
            } else {
                let spec = MultiNodeCampaignSpec {
                    nodes,
                    kind: topology,
                    plan: NodeFaultPlan::scaleout_campaign(seed, nodes),
                    scaleout: ScaleOutSpec::standard(app),
                    recovery,
                };
                let report = run_multinode_campaign(&spec).map_err(|e| e.to_string())?;
                Ok(report.render())
            }
        }
        Command::Chaos { seed, runs } => {
            // A private directory per campaign, so concurrent campaigns in
            // one checkout never touch each other's cache files. Reports
            // name files relative to it, so its name never shows.
            static CAMPAIGNS: AtomicU32 = AtomicU32::new(0);
            let dir = artifacts_dir().join("chaos-cache").join(format!(
                "{}-{}",
                std::process::id(),
                CAMPAIGNS.fetch_add(1, Ordering::Relaxed)
            ));
            let spec = ChaosSpec {
                seed,
                runs,
                ..ChaosSpec::new(dir)
            };
            let report = run_chaos_campaign(&paper_profiles(), &spec).map_err(|e| e.to_string());
            let removed = match std::fs::remove_dir_all(&spec.dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(format!(
                    "cannot remove chaos cache {}: {e}",
                    spec.dir.display()
                )),
                _ => Ok(()),
            };
            let report = report?;
            removed?;
            Ok(report.render())
        }
        Command::Serve {
            addr,
            port,
            workers,
            queue,
            batch,
            budget,
            cache,
            port_file,
        } => {
            let explorer = Explorer {
                budget: Watts::new(budget),
                ..Explorer::default()
            };
            let mut config = ServeConfig::new(explorer, paper_profiles());
            config.workers = workers;
            config.queue_cap = queue;
            config.max_batch = batch;
            config.cache_dir = cache;
            let (server, restored) = Server::new(config).map_err(|e| e.to_string())?;
            let listener =
                std::net::TcpListener::bind(format!("{addr}:{port}")).map_err(|e| e.to_string())?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            if let Some(path) = &port_file {
                std::fs::write(path, local.port().to_string()).map_err(|e| e.to_string())?;
            }
            // Announce readiness before blocking in the accept loop, so
            // scripts (and CI) know when to connect.
            println!("listening on {local} ({restored} records restored)");
            use std::io::Write as _;
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            let stats = server.serve(listener).map_err(|e| e.to_string())?;
            Ok(format!("serve: drained after shutdown\n{stats}"))
        }
        Command::Client {
            addr,
            port,
            port_file,
            script,
        } => {
            let port = match (port, port_file) {
                (Some(port), _) => port,
                (None, Some(path)) => std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())?
                    .trim()
                    .parse::<u16>()
                    .map_err(|_| format!("bad port number in {}", path.display()))?,
                (None, None) => return Err("client needs --port or --port-file".into()),
            };
            let mut client =
                ServeClient::connect(&format!("{addr}:{port}")).map_err(|e| e.to_string())?;
            let lines: Vec<&str> = script
                .split(';')
                .map(str::trim)
                .filter(|line| !line.is_empty())
                .collect();
            if lines.is_empty() {
                return Err("--script has no requests".into());
            }
            let responses = client.pipeline(&lines).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for (line, response) in lines.iter().zip(&responses) {
                out.push_str(&format!(">> {line}\n{response}\n"));
            }
            Ok(out)
        }
        Command::CacheVerify { path } => {
            let info = read_file_info(&path).map_err(|e| e.to_string())?;
            if info.record_tag != <PointRecord as CacheRecord>::TAG {
                return Err(format!(
                    "unknown record tag '{}' in {}",
                    info.record_tag,
                    path.display()
                ));
            }
            let report = verify_file::<PointRecord>(&path, info.campaign, &info.model)
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "cache file {}\n\
                 record: {} model: {} campaign: {:016x}\n\
                 records: {} generation: {} torn_tail: {}",
                path.display(),
                info.record_tag,
                info.model,
                info.campaign,
                report.keys.len(),
                report.generation,
                report.torn_tail,
            ))
        }
        Command::Chiplet { app } => {
            let profile = profile_for(&app).ok_or_else(|| format!("unknown app: {app}"))?;
            let study = chiplet_study(&EhpConfig::paper_baseline(), &profile, 3000, 7);
            Ok(format!(
                "{app}: out-of-chiplet traffic {:.1}%, perf vs monolithic {:.1}%\n\
                 latency: chiplet {:.1} cyc, monolithic {:.1} cyc",
                100.0 * study.out_of_chiplet_fraction,
                100.0 * study.perf_relative_to_monolithic,
                study.chiplet_latency_cycles,
                study.monolithic_latency_cycles,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_model::hash::MODEL_VERSION;
    use ena_serve::{Claim, ShardStore};
    use ena_sweep::{campaign_digest, point_key, RealFs};
    use std::sync::Arc;

    fn parse_str(s: &str) -> Result<Command, String> {
        parse(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn evaluate_parses_all_knobs() {
        let c =
            parse_str("evaluate --app LULESH --cus 256 --mhz 1100 --tbps 4 --miss 0.2 --optimized")
                .unwrap();
        assert_eq!(
            c,
            Command::Evaluate {
                app: "LULESH".into(),
                point: Point {
                    cus: 256,
                    mhz: 1100.0,
                    tbps: 4.0
                },
                miss: Some(0.2),
                optimized: true,
            }
        );
    }

    #[test]
    fn defaults_are_the_paper_baseline() {
        let c = parse_str("suite").unwrap();
        assert_eq!(
            c,
            Command::Suite {
                point: Point::default()
            }
        );
    }

    #[test]
    fn bad_input_is_reported() {
        assert!(parse_str("evaluate").unwrap_err().contains("--app"));
        assert!(parse_str("evaluate --app NotAnApp")
            .unwrap_err()
            .contains("unknown app"));
        assert!(parse_str("evaluate --app CoMD --miss 1.5")
            .unwrap_err()
            .contains("--miss"));
        assert!(parse_str("explode")
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse_str("dse").unwrap_err().contains("unknown command"));
        assert!(parse_str("suite --what")
            .unwrap_err()
            .contains("unrecognized"));
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(Vec::new()).unwrap(), Command::Help);
        assert!(execute(Command::Help).unwrap().contains("commands:"));
    }

    #[test]
    fn evaluate_executes_end_to_end() {
        let out = execute(parse_str("evaluate --app CoMD").unwrap()).unwrap();
        assert!(out.contains("CoMD"));
        assert!(out.contains("package power"));
        assert!(out.contains("peak DRAM"));
        let solve = out
            .lines()
            .find(|l| l.starts_with("thermal solve: "))
            .expect("evaluate reports the thermal solve");
        assert!(solve.contains(" CG iterations, residual "), "{solve}");
        assert!(solve.ends_with(" W"), "{solve}");
        // No wall clock: the line repeats exactly.
        let again = execute(parse_str("evaluate --app CoMD").unwrap()).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn suite_lists_all_apps() {
        let out = execute(parse_str("suite --cus 256").unwrap()).unwrap();
        for app in ["MaxFlops", "XSBench", "SNAP"] {
            assert!(out.contains(app), "{out}");
        }
    }

    #[test]
    fn sweep_parses_all_knobs() {
        assert_eq!(
            parse_str("sweep --jobs 4 --budget 150 --fine --frontier").unwrap(),
            Command::Sweep {
                budget: 150.0,
                fine: true,
                jobs: 4,
                frontier: true,
            }
        );
        assert!(parse_str("sweep --jobs 0").unwrap_err().contains("--jobs"));
        assert!(parse_str("sweep --jobs two")
            .unwrap_err()
            .contains("--jobs"));
    }

    #[test]
    fn sweep_reports_telemetry_and_matches_dse() {
        let out = execute(parse_str("sweep --jobs 2 --frontier").unwrap()).unwrap();
        assert!(out.contains("best-mean"), "{out}");
        assert!(out.contains("\nworkers: w0 "), "{out}");
        assert!(out.contains("per-app oracle"), "{out}");
        assert!(out.contains("Pareto frontier"), "{out}");
        // The engine and the sequential explorer agree on the headline line.
        let dse = Explorer {
            budget: Watts::new(160.0),
            ..Explorer::default()
        }
        .explore(&DesignSpace::coarse(), &paper_profiles())
        .unwrap();
        let best = out
            .lines()
            .find(|l| l.starts_with("best-mean"))
            .expect("best-mean line");
        assert_eq!(best, format!("best-mean: {}", dse.best_mean.label()));
    }

    #[test]
    fn chiplet_reports_the_fig7_quantities() {
        let out = execute(parse_str("chiplet --app SNAP").unwrap()).unwrap();
        assert!(out.contains("out-of-chiplet traffic"));
        assert!(out.contains("perf vs monolithic"));
    }

    #[test]
    fn optimized_evaluation_reports_lower_power() {
        let base = execute(parse_str("evaluate --app LULESH").unwrap()).unwrap();
        let opt = execute(parse_str("evaluate --app LULESH --optimized").unwrap()).unwrap();
        let node_w = |report: &str| -> f64 {
            report
                .lines()
                .find(|l| l.starts_with("node power"))
                .and_then(|l| l.split_whitespace().nth(2))
                .and_then(|v| v.parse().ok())
                .expect("node power line")
        };
        assert!(node_w(&opt) < node_w(&base));
    }

    #[test]
    fn faults_parses_hex_and_decimal_seeds() {
        assert_eq!(
            parse_str("faults --seed 0xBEEF --app SNAP").unwrap(),
            Command::Faults {
                seed: 0xBEEF,
                app: "SNAP".into(),
                transient: false,
            }
        );
        assert_eq!(
            parse_str("faults --seed 42 --transient").unwrap(),
            Command::Faults {
                seed: 42,
                app: "CoMD".into(),
                transient: true,
            }
        );
        assert!(parse_str("faults --seed nope")
            .unwrap_err()
            .contains("--seed"));
        assert!(parse_str("faults --app Nope")
            .unwrap_err()
            .contains("unknown app"));
    }

    #[test]
    fn multinode_parses_all_knobs() {
        assert_eq!(
            parse_str(
                "multinode --nodes 16 --fabric-topology torus --seed 0xBEEF --app SNAP \
                 --sweep --jobs 3 --frontier"
            )
            .unwrap(),
            Command::Multinode {
                nodes: 16,
                topology: FabricKind::Torus,
                seed: 0xBEEF,
                app: "SNAP".into(),
                sweep: true,
                jobs: 3,
                frontier: true,
                mtbf: None,
                checkpoint_cost: None,
            }
        );
        assert!(parse_str("multinode --nodes 1")
            .unwrap_err()
            .contains("--nodes"));
        assert!(parse_str("multinode --fabric-topology hypercube")
            .unwrap_err()
            .contains("unknown fabric topology"));
        assert!(parse_str("multinode --app Nope")
            .unwrap_err()
            .contains("unknown app"));
        assert!(parse_str("multinode --jobs 0")
            .unwrap_err()
            .contains("--jobs"));
    }

    #[test]
    fn multinode_parses_recovery_knobs() {
        let c = parse_str("multinode --mtbf 96 --checkpoint-cost 3").unwrap();
        match c {
            Command::Multinode {
                mtbf,
                checkpoint_cost,
                ..
            } => {
                assert_eq!(mtbf, Some(96.0));
                assert_eq!(checkpoint_cost, Some(3.0));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse_str("multinode --mtbf -5")
            .unwrap_err()
            .contains("--mtbf"));
        assert!(parse_str("multinode --checkpoint-cost 0")
            .unwrap_err()
            .contains("--checkpoint-cost"));
    }

    #[test]
    fn multinode_defaults_are_the_acceptance_cabinet() {
        let c = parse_str("multinode").unwrap();
        assert_eq!(
            c,
            Command::Multinode {
                nodes: 64,
                topology: FabricKind::DragonflyLite,
                seed: 0xC0FFEE,
                app: "CoMD".into(),
                sweep: false,
                jobs: default_jobs(),
                frontier: false,
                mtbf: None,
                checkpoint_cost: None,
            }
        );
    }

    #[test]
    fn multinode_campaign_renders_a_report() {
        let out =
            execute(parse_str("multinode --nodes 8 --fabric-topology fat-tree --seed 7").unwrap())
                .unwrap();
        assert!(out.contains("ENA multi-node fabric campaign"), "{out}");
        assert!(out.contains("fabric fat-tree x8"), "{out}");
        assert!(out.contains("analytic cross-check"), "{out}");
        // The straggler's intra-node campaign is embedded.
        assert!(out.contains("ENA fault-injection campaign"), "{out}");
    }

    #[test]
    fn multinode_sweep_reports_its_frontier() {
        let out = execute(parse_str("multinode --sweep --jobs 2 --frontier").unwrap()).unwrap();
        assert!(out.contains("multi-node sweep: 18 points"), "{out}");
        assert!(out.contains("Pareto frontier"), "{out}");
        assert!(out.contains("best throughput"), "{out}");
    }

    #[test]
    fn chaos_parses_defaults_and_knobs() {
        assert_eq!(
            parse_str("chaos").unwrap(),
            Command::Chaos {
                seed: 0xC0FFEE,
                runs: 3
            }
        );
        assert_eq!(
            parse_str("chaos --seed 9 --runs 2").unwrap(),
            Command::Chaos { seed: 9, runs: 2 }
        );
        assert!(parse_str("chaos --runs 0").is_err());
        assert!(
            parse_str("chaos --jobs 2").is_err(),
            "the campaign runs no pool"
        );
        assert!(parse_str("chaos --bogus").is_err());
    }

    #[test]
    fn chaos_campaign_reports_held_invariants() {
        let out = execute(parse_str("chaos --seed 11 --runs 2").unwrap()).unwrap();
        assert!(
            out.starts_with(
                "chaos campaign seed=0xb points=18 runs=2 store=serve record=dse-point/1\n"
            ),
            "{out}"
        );
        assert!(out.contains("\n  run 0:"), "{out}");
        assert!(out.contains("\n  run 1:"), "{out}");
        assert!(
            out.trim_end()
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("invariants: all hold")),
            "{out}"
        );
    }

    #[test]
    fn faults_renders_a_campaign_report() {
        let out = execute(parse_str("faults --seed 7").unwrap()).unwrap();
        assert!(out.contains("fault-injection campaign"), "{out}");
        assert!(out.contains("healthy baseline"));
        assert!(out.contains("availability"));
    }

    #[test]
    fn transient_faults_render_the_ecc_retry_campaign() {
        let out = execute(parse_str("faults --seed 7 --transient").unwrap()).unwrap();
        assert!(out.contains("transient-fault campaign"), "{out}");
        assert!(out.contains("efficiency"), "{out}");
        // Deterministic: same seed, byte-identical report.
        let again = execute(parse_str("faults --seed 7 --transient").unwrap()).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn multinode_recovery_flags_append_the_daly_section() {
        let plain = execute(parse_str("multinode --nodes 8 --seed 7").unwrap()).unwrap();
        let recovered = execute(
            parse_str("multinode --nodes 8 --seed 7 --mtbf 96 --checkpoint-cost 3").unwrap(),
        )
        .unwrap();
        assert!(!plain.contains("checkpoint/restart recovery"), "{plain}");
        assert!(
            recovered.contains("checkpoint/restart recovery"),
            "{recovered}"
        );
        assert!(recovered.contains("node MTBF 96.0 h"), "{recovered}");
        // --checkpoint-cost alone derives the MTBF from the resilience model.
        let derived =
            execute(parse_str("multinode --nodes 8 --seed 7 --checkpoint-cost 3").unwrap())
                .unwrap();
        assert!(derived.contains("checkpoint/restart recovery"), "{derived}");
    }

    #[test]
    fn multinode_recovery_sweep_crosses_intervals_with_nodes() {
        let out = execute(
            parse_str("multinode --sweep --jobs 2 --mtbf 96 --checkpoint-cost 3 --frontier")
                .unwrap(),
        )
        .unwrap();
        assert!(out.contains("recovery sweep: 30 points"), "{out}");
        assert!(out.contains("best recovered throughput"), "{out}");
        assert!(out.contains("Pareto frontier"), "{out}");
    }

    #[test]
    fn fabric_sweep_reports_resolve_cabinet_scale_figures() {
        let recovery = |topology: &str| {
            let args = format!(
                "multinode --sweep --jobs 1 --mtbf 96 --checkpoint-cost 3 --frontier \
                 --fabric-topology {topology}"
            );
            execute(parse_str(&args).unwrap()).unwrap()
        };
        assert_ne!(recovery("torus"), recovery("dragonfly"));

        let out = execute(parse_str("multinode --sweep --jobs 1 --frontier").unwrap()).unwrap();
        let (_, frontier) = out.split_once("Pareto frontier").expect("frontier table");
        let rows: Vec<&str> = frontier.lines().skip(2).collect();
        assert!(!rows.is_empty(), "{out}");
        for row in rows {
            // Every throughput (TF) and power (kW) cell is above zero.
            for cell in row.split_whitespace().skip(1).take(2) {
                let value: f64 = cell.parse().unwrap_or_else(|_| panic!("{row}"));
                assert!(value > 0.0, "{row}");
            }
        }
    }

    #[test]
    fn count_flags_reject_zero_and_non_numbers() {
        for (command, flag) in [
            ("sweep", "--jobs"),
            ("multinode", "--jobs"),
            ("chaos", "--runs"),
            ("serve", "--workers"),
            ("serve", "--queue"),
            ("serve", "--batch"),
        ] {
            assert_eq!(
                parse_str(&format!("{command} {flag} 0")),
                Err(format!("{flag} must be at least 1"))
            );
            assert_eq!(
                parse_str(&format!("{command} {flag} x")),
                Err(format!("bad {flag}: x"))
            );
        }
    }

    #[test]
    fn invalid_config_surfaces_cleanly() {
        let err = execute(parse_str("evaluate --app CoMD --cus 416").unwrap()).unwrap_err();
        assert!(err.contains("area budget"), "{err}");
    }

    #[test]
    fn serve_parses_all_knobs_and_rejects_zeros() {
        let c = parse_str(
            "serve --addr 0.0.0.0 --port 7878 --workers 2 --queue 8 --batch 32 \
             --budget 150 --cache /tmp/c --port-file /tmp/p",
        )
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "0.0.0.0".into(),
                port: 7878,
                workers: 2,
                queue: 8,
                batch: 32,
                budget: 150.0,
                cache: Some("/tmp/c".into()),
                port_file: Some("/tmp/p".into()),
            }
        );
        // Defaults: ephemeral port, memory-only store.
        let c = parse_str("serve").unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1".into(),
                port: 0,
                workers: 4,
                queue: 16,
                batch: 64,
                budget: 160.0,
                cache: None,
                port_file: None,
            }
        );
        assert!(parse_str("serve --workers 0").is_err());
        assert!(parse_str("serve --queue 0").is_err());
        assert!(parse_str("serve --batch 0").is_err());
        assert!(parse_str("serve --port 99999").is_err());
    }

    #[test]
    fn client_requires_a_port_source_and_a_script() {
        let c = parse_str("client --port 7878 --script STATS").unwrap();
        assert_eq!(
            c,
            Command::Client {
                addr: "127.0.0.1".into(),
                port: Some(7878),
                port_file: None,
                script: "STATS".into(),
            }
        );
        assert!(parse_str("client --script STATS").is_err(), "no port");
        assert!(parse_str("client --port 7878").is_err(), "no script");
        let c = parse_str("client --port-file /tmp/p --script SHUTDOWN").unwrap();
        assert_eq!(
            c,
            Command::Client {
                addr: "127.0.0.1".into(),
                port: None,
                port_file: Some("/tmp/p".into()),
                script: "SHUTDOWN".into(),
            }
        );
    }

    #[test]
    fn cache_verify_parses_and_reports() {
        assert_eq!(
            parse_str("cache verify /tmp/x.cache").unwrap(),
            Command::CacheVerify {
                path: "/tmp/x.cache".into()
            }
        );
        assert!(parse_str("cache").is_err());
        assert!(parse_str("cache verify").is_err());
        assert!(parse_str("cache drop /tmp/x").is_err());

        // End-to-end over a real cache file written by the serve store.
        let dir = std::env::temp_dir().join("ena-cli-cache-verify");
        let _removed = std::fs::remove_dir_all(&dir);
        let explorer = Explorer::default();
        let profiles = paper_profiles();
        let campaign = campaign_digest(&explorer, &profiles);
        let (store, _) =
            ShardStore::open(Some(&dir), Arc::new(RealFs), campaign, MODEL_VERSION).unwrap();
        let point = DesignSpace::coarse().points()[0];
        let Claim::Leader(token) = store.claim(point_key(campaign, &point)) else {
            panic!("a fresh store leads every key");
        };
        store
            .publish(token, explorer.evaluate_point(point, &profiles))
            .unwrap();
        drop(store);
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "sweep"))
            .expect("the store wrote a cache file");
        let out = execute(Command::CacheVerify { path: file }).unwrap();
        assert!(out.contains("record: dse-point/1"), "{out}");
        assert!(out.contains("records: 1"), "{out}");
        assert!(out.contains("torn_tail: false"), "{out}");

        // A foreign file is a typed error naming the path.
        let stray = dir.join("not-a-cache.txt");
        std::fs::write(&stray, "hello\n").unwrap();
        let err = execute(Command::CacheVerify {
            path: stray.clone(),
        })
        .unwrap_err();
        assert!(err.contains("header is missing or foreign"), "{err}");
        assert!(err.contains(stray.display().to_string().as_str()), "{err}");
    }
}

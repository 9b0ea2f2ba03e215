//! Command-line interface logic for the ENA toolkit.
//!
//! The `ena` binary wraps the node simulator for interactive use:
//!
//! ```text
//! ena evaluate --app LULESH --cus 320 --mhz 1000 --tbps 3 [--miss 0.15] [--optimized]
//! ena suite    [--cus N --mhz F --tbps B]       # all eight workloads
//! ena dse      [--budget 160] [--fine]          # design-space exploration
//! ena sweep    [--jobs N] [--budget 160] [--fine] [--resume] [--frontier]
//! ena chiplet  --app SNAP                       # chiplet-vs-monolithic study
//! ena faults   [--seed N] [--app CoMD] [--transient]
//! ena multinode [--nodes N] [--fabric-topology T] [--seed N] [--app CoMD]
//!               [--mtbf HOURS] [--checkpoint-cost MIN]
//! ena multinode --sweep [--jobs N] [--resume] [--frontier]
//!               [--mtbf H] [--checkpoint-cost MIN] [--fabric-topology T]
//! ena chaos    [--seed N] [--runs N] [--jobs N] # chaos-test every sweep axis
//! ena serve    [--addr HOST] [--port N] [--workers N] [--queue N] [--batch N]
//!              [--cache DIR] [--port-file PATH] [--budget W]
//! ena client   (--port N | --port-file PATH) --script "CMD; CMD; ..."
//! ena cache verify PATH                         # inspect a sweep cache file
//! ena lint     [--deny-warnings] [--json]       # determinism & concurrency static analysis
//! ```
//!
//! Parsing and rendering live in this library so they are unit-testable;
//! the binary is a thin wrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ena_core::chiplet::chiplet_study;
use ena_core::dse::{DesignSpace, Explorer};
use ena_core::node::{EvalOptions, NodeSimulator};
use ena_fabric::{
    run_multinode_campaign, FabricKind, MultiNodeCampaignSpec, MultiNodeSpace, MultiNodeSweep,
    MultiNodeSweepSpec, RecoveryModel, RecoverySpace, RecoverySweep, RecoverySweepSpec,
    ScaleOutSpec,
};
use ena_fabric::{MultiNodeRecord, RecoveryRecord};
use ena_faults::{
    run_campaign, run_transient_campaign, CampaignSpec, NodeFaultPlan, TransientCampaignSpec,
};
use ena_model::config::EhpConfig;
use ena_model::units::{GigabytesPerSec, Megahertz, Watts};
use ena_power::opts::PowerOptimization;
use ena_serve::{Client as ServeClient, ServeConfig, Server};
use ena_sweep::{
    read_file_info, run_chaos_campaign, verify_file, CacheMode, CacheRecord, ChaosSpec, NodeAxis,
    RunOptions, SweepEngine, SweepSpec, Swept, Telemetry,
};
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
    /// Run the design-space exploration.
    Dse {
        /// Package power budget in watts.
        budget: f64,
        /// Use the full >1000-point sweep instead of the coarse grid.
        fine: bool,
    },
    /// Run the parallel memoized sweep engine.
    Sweep {
        /// Package power budget in watts.
        budget: f64,
        /// Use the full >1000-point sweep instead of the coarse grid.
        fine: bool,
        /// Worker thread count.
        jobs: usize,
        /// Use the persistent cache under `artifacts/sweep-cache/`.
        resume: bool,
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
        /// Use the persistent cache under `artifacts/sweep-cache/`.
        resume: bool,
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
    /// Run a seeded chaos campaign on every sweep axis (node, multinode,
    /// recovery): injected I/O faults + worker kills, with
    /// crash-consistency invariants checked after every run.
    Chaos {
        /// Campaign seed.
        seed: u64,
        /// Faulted runs before the final clean run.
        runs: u32,
        /// Worker thread count.
        jobs: usize,
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
    /// Verify a sweep cache file against its own header stamps.
    CacheVerify {
        /// The cache file to inspect.
        path: std::path::PathBuf,
    },
    /// Run the `ena-lint` determinism/robustness pass over the workspace.
    Lint {
        /// Treat warnings as failures.
        deny_warnings: bool,
        /// Emit machine-readable JSON instead of the text rendering.
        json: bool,
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

fn parse_point(args: &mut Vec<String>) -> Result<Point, String> {
    let mut p = Point::default();
    if let Some(v) = take_value(args, "--cus")? {
        p.cus = v.parse().map_err(|_| format!("bad --cus: {v}"))?;
    }
    if let Some(v) = take_value(args, "--mhz")? {
        p.mhz = v.parse().map_err(|_| format!("bad --mhz: {v}"))?;
    }
    if let Some(v) = take_value(args, "--tbps")? {
        p.tbps = v.parse().map_err(|_| format!("bad --tbps: {v}"))?;
    }
    Ok(p)
}

/// Default sweep worker count: one per available hardware thread.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Points a sweep at `jobs` workers and, with `resume`, at the one
/// persistent cache directory every axis shares: each campaign has its
/// own file there, and the file header's record tag keeps the axes apart.
fn sweep_options(run: &mut RunOptions, jobs: usize, resume: bool) {
    run.jobs = jobs;
    if resume {
        run.cache = CacheMode::Disk(artifacts_dir().join("sweep-cache"));
    }
}

/// The `cache:` line of every sweep report.
fn cache_line(t: &Telemetry) -> String {
    format!(
        "cache: {} hits / {} points ({:.1}% hit rate)\n",
        t.cache_hits,
        t.total_points,
        100.0 * t.hit_rate()
    )
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
            let miss = take_value(&mut args, "--miss")?
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad --miss: {v}")))
                .transpose()?;
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
        "dse" => {
            let budget = take_value(&mut args, "--budget")?
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad --budget: {v}")))
                .transpose()?
                .unwrap_or(160.0);
            let fine = take_flag(&mut args, "--fine");
            Command::Dse { budget, fine }
        }
        "sweep" => {
            let budget = take_value(&mut args, "--budget")?
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad --budget: {v}")))
                .transpose()?
                .unwrap_or(160.0);
            let jobs = take_value(&mut args, "--jobs")?
                .map(|v| v.parse::<usize>().map_err(|_| format!("bad --jobs: {v}")))
                .transpose()?
                .unwrap_or_else(default_jobs);
            if jobs == 0 {
                return Err("--jobs must be at least 1".into());
            }
            Command::Sweep {
                budget,
                fine: take_flag(&mut args, "--fine"),
                jobs,
                resume: take_flag(&mut args, "--resume"),
                frontier: take_flag(&mut args, "--frontier"),
            }
        }
        "chiplet" => Command::Chiplet {
            app: require_app(&mut args)?,
        },
        "faults" => {
            let seed = take_seed(&mut args)?;
            let app = match take_value(&mut args, "--app")? {
                Some(a) => {
                    if profile_for(&a).is_none() {
                        return Err(format!("unknown app '{a}'"));
                    }
                    a
                }
                None => "CoMD".to_string(),
            };
            Command::Faults {
                seed,
                app,
                transient: take_flag(&mut args, "--transient"),
            }
        }
        "multinode" => {
            let nodes = take_value(&mut args, "--nodes")?
                .map(|v| v.parse::<u32>().map_err(|_| format!("bad --nodes: {v}")))
                .transpose()?
                .unwrap_or(64);
            if nodes < 2 {
                return Err("--nodes must be at least 2".into());
            }
            let topology = match take_value(&mut args, "--fabric-topology")? {
                Some(t) => FabricKind::parse(&t).map_err(|e| e.to_string())?,
                None => FabricKind::DragonflyLite,
            };
            let seed = take_seed(&mut args)?;
            let app = match take_value(&mut args, "--app")? {
                Some(a) => {
                    if profile_for(&a).is_none() {
                        return Err(format!("unknown app '{a}'"));
                    }
                    a
                }
                None => "CoMD".to_string(),
            };
            let jobs = take_value(&mut args, "--jobs")?
                .map(|v| v.parse::<usize>().map_err(|_| format!("bad --jobs: {v}")))
                .transpose()?
                .unwrap_or_else(default_jobs);
            if jobs == 0 {
                return Err("--jobs must be at least 1".into());
            }
            let mtbf = take_value(&mut args, "--mtbf")?
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad --mtbf: {v}")))
                .transpose()?;
            if let Some(m) = mtbf {
                if !(m > 0.0) {
                    return Err(format!("--mtbf must be positive, got {m}"));
                }
            }
            let checkpoint_cost = take_value(&mut args, "--checkpoint-cost")?
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| format!("bad --checkpoint-cost: {v}"))
                })
                .transpose()?;
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
                resume: take_flag(&mut args, "--resume"),
                frontier: take_flag(&mut args, "--frontier"),
                mtbf,
                checkpoint_cost,
            }
        }
        "chaos" => {
            let seed = take_seed(&mut args)?;
            let runs = take_value(&mut args, "--runs")?
                .map(|v| v.parse::<u32>().map_err(|_| format!("bad --runs: {v}")))
                .transpose()?
                .unwrap_or(3);
            if runs == 0 {
                return Err("--runs must be at least 1".into());
            }
            let jobs = take_value(&mut args, "--jobs")?
                .map(|v| v.parse::<usize>().map_err(|_| format!("bad --jobs: {v}")))
                .transpose()?
                .unwrap_or(2);
            if jobs == 0 {
                return Err("--jobs must be at least 1".into());
            }
            Command::Chaos { seed, runs, jobs }
        }
        "serve" => {
            let addr = take_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1".into());
            let port = take_value(&mut args, "--port")?
                .map(|v| v.parse::<u16>().map_err(|_| format!("bad --port: {v}")))
                .transpose()?
                .unwrap_or(0);
            let workers = take_value(&mut args, "--workers")?
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("bad --workers: {v}"))
                })
                .transpose()?
                .unwrap_or(4);
            if workers == 0 {
                return Err("--workers must be at least 1".into());
            }
            let queue = take_value(&mut args, "--queue")?
                .map(|v| v.parse::<usize>().map_err(|_| format!("bad --queue: {v}")))
                .transpose()?
                .unwrap_or(16);
            if queue == 0 {
                return Err("--queue must be at least 1".into());
            }
            let batch = take_value(&mut args, "--batch")?
                .map(|v| v.parse::<usize>().map_err(|_| format!("bad --batch: {v}")))
                .transpose()?
                .unwrap_or(64);
            if batch == 0 {
                return Err("--batch must be at least 1".into());
            }
            let budget = take_value(&mut args, "--budget")?
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad --budget: {v}")))
                .transpose()?
                .unwrap_or(160.0);
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
            let port = take_value(&mut args, "--port")?
                .map(|v| v.parse::<u16>().map_err(|_| format!("bad --port: {v}")))
                .transpose()?;
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
        "lint" => Command::Lint {
            deny_warnings: take_flag(&mut args, "--deny-warnings"),
            json: take_flag(&mut args, "--json"),
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
  dse      [--budget W] [--fine]
  sweep    [--jobs N] [--budget W] [--fine] [--resume] [--frontier]
  chiplet  --app NAME
  faults   [--seed N] [--app NAME] [--transient]
  multinode [--nodes N] [--fabric-topology T] [--seed N] [--app NAME]
           [--mtbf HOURS] [--checkpoint-cost MIN]
  multinode --sweep [--jobs N] [--app NAME] [--resume] [--frontier]
           [--mtbf HOURS] [--checkpoint-cost MIN] [--fabric-topology T]
  chaos    [--seed N] [--runs N] [--jobs N]
  serve    [--addr HOST] [--port N] [--workers N] [--queue N] [--batch N]
           [--cache DIR] [--port-file PATH] [--budget W]
  client   (--port N | --port-file PATH) [--addr HOST] --script \"CMD; CMD\"
  cache verify PATH
  lint     [--deny-warnings] [--json]
  help

apps: MaxFlops, CoMD, CoMD-LJ, HPGMG, LULESH, MiniAMR, XSBench, SNAP
fabric topologies: fat-tree, torus, dragonfly
defaults: 320 CUs / 1000 MHz / 3 TB/s (the paper baseline); 64-node dragonfly cabinet
--transient runs the ECC/retry/rollback campaign; --mtbf/--checkpoint-cost add a
Young/Daly checkpoint/restart section (sweep mode: checkpoint-interval x nodes grid
on one topology); every --resume shares the cache under artifacts/sweep-cache/
chaos injects seeded I/O faults + worker kills into the node, multinode and
recovery sweeps' cache paths and verifies crash-consistency invariants (exits
nonzero on any violation)
serve runs a persistent evaluation service (EVAL / SWEEP coarse|fine / FRONTIER /
STATS / SNAPSHOT / SHUTDOWN) with single-flight memoization; client pipelines a
';'-separated script against it; cache verify audits any sweep cache file";

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
        Command::Dse { budget, fine } => {
            let explorer = Explorer {
                budget: Watts::new(budget),
                ..Explorer::default()
            };
            let space = if fine {
                DesignSpace::paper()
            } else {
                DesignSpace::coarse()
            };
            let result = explorer
                .explore(&space, &paper_profiles())
                .map_err(|e| e.to_string())?;
            let mut out = format!(
                "swept {} configurations, {} feasible under {budget} W\n\
                 best-mean: {}\n\nper-app oracle:\n",
                result.evaluated,
                result.feasible,
                result.best_mean.label()
            );
            for a in &result.per_app {
                out.push_str(&format!(
                    "  {:<10} {:<18} {:+.1}%\n",
                    a.app,
                    a.point.label(),
                    a.benefit_over_mean_pct
                ));
            }
            Ok(out)
        }
        Command::Sweep {
            budget,
            fine,
            jobs,
            resume,
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
            sweep_options(&mut spec.run, jobs, resume);
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
            out.push_str(&cache_line(t));
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
            resume,
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
                    sweep_options(&mut spec.run, jobs, resume);
                    let outcome = RecoverySweep::new().run(&spec).map_err(|e| e.to_string())?;
                    let best = outcome
                        .records
                        .iter()
                        .max_by(|a, b| a.recovered_exaflops.total_cmp(&b.recovered_exaflops))
                        .ok_or("empty recovery sweep")?;
                    let mut out = format!(
                        "recovery sweep: {} points (checkpoint-interval x nodes) for {app} \
                         on {jobs} jobs ({model})\n\
                         best recovered throughput: {} at {:.3} EF \
                         (interval {:.3} h, {:.1}% efficient)\n",
                        outcome.total_points,
                        best.point.label(),
                        best.recovered_exaflops,
                        best.interval_hours,
                        100.0 * best.simulated,
                    );
                    out.push_str(&cache_line(&outcome));
                    if frontier {
                        let header = format!(
                            "{:<12} {:>10} {:>12} {:>10} {:>10}",
                            "point", "interval h", "recovered EF", "analytic", "simulated"
                        );
                        out.push_str(&index_frontier(&outcome, &header, |r| {
                            format!(
                                "{:<12} {:>10.3} {:>12.3} {:>10.4} {:>10.4}",
                                r.point.label(),
                                r.interval_hours,
                                r.recovered_exaflops,
                                r.analytic,
                                r.simulated
                            )
                        }));
                    }
                    return Ok(out);
                }
                let mut spec = MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), scaleout);
                sweep_options(&mut spec.run, jobs, resume);
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
                     best throughput: {} at {:.3} EF ({:.1}% efficient, {:.2} MW)\n",
                    outcome.total_points,
                    best.point.label(),
                    best.exaflops,
                    100.0 * best.efficiency,
                    best.power_mw,
                );
                out.push_str(&cache_line(&outcome));
                if frontier {
                    let header = format!(
                        "{:<16} {:>9} {:>8} {:>10} {:>10}",
                        "point", "EF", "MW", "eff %", "comm us"
                    );
                    out.push_str(&index_frontier(&outcome, &header, |r| {
                        format!(
                            "{:<16} {:>9.3} {:>8.2} {:>10.2} {:>10.1}",
                            r.point.label(),
                            r.exaflops,
                            r.power_mw,
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
        Command::Chaos { seed, runs, jobs } => {
            let space = DesignSpace {
                cu_counts: vec![192, 256, 320],
                clocks: vec![
                    Megahertz::new(900.0),
                    Megahertz::new(1000.0),
                    Megahertz::new(1100.0),
                ],
                bandwidths: vec![
                    GigabytesPerSec::from_terabytes_per_sec(2.0),
                    GigabytesPerSec::from_terabytes_per_sec(3.0),
                ],
            };
            let spec = ChaosSpec {
                seed,
                runs,
                ..ChaosSpec::new(artifacts_dir().join("chaos-cache"))
            };
            let mut node = NodeAxis {
                explorer: Explorer::default(),
                spec: SweepSpec::new(space, paper_profiles()),
            };
            node.spec.run.chunk_points = 4;
            let mut multinode =
                MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"));
            let mut recovery = RecoverySweepSpec::new(
                RecoverySpace::standard(),
                ScaleOutSpec::standard("CoMD"),
                RecoveryModel::new(96.0, 3.0),
            );
            for run in [&mut node.spec.run, &mut multinode.run, &mut recovery.run] {
                run.jobs = jobs;
            }
            // Injected worker kills are caught by the supervised pool;
            // silence the default per-panic stderr backtrace while the
            // campaigns run so the reports stay readable.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let reports = [
                run_chaos_campaign(&node, &spec).map_err(|e| e.to_string()),
                run_chaos_campaign(&multinode, &spec).map_err(|e| e.to_string()),
                run_chaos_campaign(&recovery, &spec).map_err(|e| e.to_string()),
            ];
            std::panic::set_hook(hook);
            let reports = reports.into_iter().collect::<Result<Vec<_>, _>>()?;
            let rendered: Vec<String> = reports.iter().map(|r| r.render()).collect();
            Ok(rendered.join("\n"))
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
            let report = match &info.record_tag {
                t if t == <ena_core::dse::PointRecord as CacheRecord>::TAG => {
                    verify_file::<ena_core::dse::PointRecord>(&path, info.campaign, &info.model)
                }
                t if t == <MultiNodeRecord as CacheRecord>::TAG => {
                    verify_file::<MultiNodeRecord>(&path, info.campaign, &info.model)
                }
                t if t == <RecoveryRecord as CacheRecord>::TAG => {
                    verify_file::<RecoveryRecord>(&path, info.campaign, &info.model)
                }
                other => {
                    return Err(format!(
                        "unknown record tag '{other}' in {}",
                        path.display()
                    ))
                }
            }
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
        Command::Lint {
            deny_warnings,
            json,
        } => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            let root = ena_lint::find_workspace_root(&cwd)
                .ok_or_else(|| format!("no [workspace] Cargo.toml above {}", cwd.display()))?;
            let opts = ena_lint::Options {
                root,
                config_path: None,
                deny_warnings,
            };
            let report = ena_lint::run(&opts).map_err(|e| e.to_string())?;
            let rendered = if json {
                report.to_json()
            } else {
                report.render()
            };
            if report.failed(deny_warnings) {
                Err(rendered)
            } else {
                Ok(rendered)
            }
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
    use ena_sweep::{Axis, DiskCache};

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
    fn dse_reports_a_best_mean() {
        let out = execute(parse_str("dse --budget 150").unwrap()).unwrap();
        assert!(out.contains("best-mean"));
        assert!(out.contains("per-app oracle"));
    }

    #[test]
    fn sweep_parses_all_knobs() {
        assert_eq!(
            parse_str("sweep --jobs 4 --budget 150 --fine --resume --frontier").unwrap(),
            Command::Sweep {
                budget: 150.0,
                fine: true,
                jobs: 4,
                resume: true,
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
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("per-app oracle"), "{out}");
        assert!(out.contains("Pareto frontier"), "{out}");
        // The engine and the sequential dse agree on the headline line.
        let dse = execute(parse_str("dse").unwrap()).unwrap();
        let best = |report: &str| {
            report
                .lines()
                .find(|l| l.starts_with("best-mean"))
                .expect("best-mean line")
                .to_string()
        };
        assert_eq!(
            best(&out).replace("best-mean:", ""),
            best(&dse).replace("best-mean:", "")
        );
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
                 --sweep --jobs 3 --resume --frontier"
            )
            .unwrap(),
            Command::Multinode {
                nodes: 16,
                topology: FabricKind::Torus,
                seed: 0xBEEF,
                app: "SNAP".into(),
                sweep: true,
                jobs: 3,
                resume: true,
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
                resume: false,
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
    fn multinode_sweep_reports_cache_and_frontier() {
        let out = execute(parse_str("multinode --sweep --jobs 2 --frontier").unwrap()).unwrap();
        assert!(out.contains("multi-node sweep: 18 points"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("Pareto frontier"), "{out}");
        assert!(out.contains("best throughput"), "{out}");
    }

    #[test]
    fn lint_parses_and_runs_clean_on_this_workspace() {
        assert_eq!(
            parse_str("lint --deny-warnings").unwrap(),
            Command::Lint {
                deny_warnings: true,
                json: false
            }
        );
        let out = execute(parse_str("lint --deny-warnings").unwrap()).unwrap();
        assert!(out.contains("ena-lint:"), "{out}");
        assert!(out.contains("0 diagnostic(s)"), "{out}");
    }

    #[test]
    fn lint_json_emits_machine_readable_output() {
        assert_eq!(
            parse_str("lint --json").unwrap(),
            Command::Lint {
                deny_warnings: false,
                json: true
            }
        );
        let out = execute(parse_str("lint --deny-warnings --json").unwrap()).unwrap();
        assert!(out.starts_with("{\n  \"version\": 1,"), "{out}");
        assert!(out.contains("\"diagnostics\": []"), "{out}");
    }

    #[test]
    fn chaos_parses_defaults_and_knobs() {
        assert_eq!(
            parse_str("chaos").unwrap(),
            Command::Chaos {
                seed: 0xC0FFEE,
                runs: 3,
                jobs: 2
            }
        );
        assert_eq!(
            parse_str("chaos --seed 9 --runs 2 --jobs 4").unwrap(),
            Command::Chaos {
                seed: 9,
                runs: 2,
                jobs: 4
            }
        );
        assert!(parse_str("chaos --runs 0").is_err());
        assert!(parse_str("chaos --jobs 0").is_err());
        assert!(parse_str("chaos --bogus").is_err());
    }

    #[test]
    fn chaos_campaign_reports_held_invariants() {
        let out = execute(parse_str("chaos --seed 11 --runs 2").unwrap()).unwrap();
        let campaigns: Vec<&str> = out.split("\n\n").collect();
        assert_eq!(campaigns.len(), 3, "{out}");
        for (campaign, (tag, points)) in
            campaigns
                .iter()
                .zip([("dse-point/1", 18), ("multinode/1", 18), ("recovery/1", 30)])
        {
            assert!(
                campaign.starts_with(&format!(
                    "chaos campaign seed=0xb points={points} runs=2 record={tag}\n"
                )),
                "{campaign}"
            );
            assert!(campaign.contains("\n  run 0:"), "{campaign}");
            assert!(campaign.contains("\n  run 1:"), "{campaign}");
            assert!(
                campaign
                    .trim_end()
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("invariants: all hold")),
                "{campaign}"
            );
        }
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
    fn the_recovery_sweep_runs_on_the_requested_topology() {
        // The printed EF columns round the cabinet-scale figures away, so
        // the topology is observed through the campaign's cache file: the
        // torus campaign has its own digest, and `--resume` must write it.
        let torus = RecoverySweepSpec {
            kind: FabricKind::Torus,
            ..RecoverySweepSpec::new(
                RecoverySpace::standard(),
                ScaleOutSpec::standard("CoMD"),
                RecoveryModel::new(96.0, 3.0),
            )
        };
        let campaign = torus.campaign_digest();
        let file = artifacts_dir()
            .join("sweep-cache")
            .join(DiskCache::<RecoveryRecord>::file_name(campaign));
        match std::fs::remove_file(&file) {
            Ok(()) => {}
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}"),
        }
        let out = execute(
            parse_str(
                "multinode --sweep --jobs 2 --mtbf 96 --checkpoint-cost 3 \
                 --fabric-topology torus --resume",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("recovery sweep: 30 points"), "{out}");
        let report = verify_file::<RecoveryRecord>(&file, campaign, MODEL_VERSION)
            .unwrap_or_else(|e| panic!("no torus campaign cache at {}: {e}", file.display()));
        assert_eq!(report.keys.len(), 30);
        assert_ne!(
            campaign,
            RecoverySweepSpec {
                kind: FabricKind::DragonflyLite,
                ..torus
            }
            .campaign_digest(),
            "the topology is part of the campaign"
        );
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

        // End-to-end over a real cache file written by the sweep engine.
        let dir = std::env::temp_dir().join("ena-cli-cache-verify");
        let _removed = std::fs::remove_dir_all(&dir);
        let mut spec = SweepSpec::new(
            DesignSpace {
                cu_counts: vec![320],
                clocks: vec![Megahertz::new(1000.0)],
                bandwidths: vec![GigabytesPerSec::from_terabytes_per_sec(3.0)],
            },
            paper_profiles(),
        );
        spec.run.cache = CacheMode::Disk(dir.clone());
        SweepEngine::new(Explorer::default()).run(&spec).unwrap();
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "sweep"))
            .expect("sweep wrote a cache file");
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

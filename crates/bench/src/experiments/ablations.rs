//! Beyond-paper ablations of design knobs the paper fixes.
//!
//! These use the trace-driven substrates with *real* traces from the
//! executable mini-kernels, each app traced once per report:
//!
//! 1. **Interleave granularity** — how evenly traffic spreads across the
//!    eight DRAM stacks as the interleave granule grows.
//! 2. **Migration epoch** — the software-managed policy's in-package
//!    service fraction vs its monitoring epoch length.
//! 3. **Row-buffer locality** — per-app open-row hit rates in the
//!    in-package stacks, explaining which kernels exploit DRAM pages.

use ena_memory::hbm::{Direction, HbmStack};
use ena_memory::interleave::{AddressMap, Tier};
use ena_memory::policy::{
    run_policy, PlacementPolicy, SetAssociativeCache, SoftwareManaged, StaticPlacement,
};
use ena_noc::sim::NocSim;
use ena_noc::topology::Topology;
use ena_noc::traffic::{stack_for_address, WorkloadTraffic};
use ena_workloads::app::{KernelRun, RunConfig};
use ena_workloads::apps::all_apps;
use ena_workloads::profile_for;
use ena_workloads::trace::AccessKind;

use crate::TextTable;

/// Every proxy app's run at `RunConfig::small()`, in Table I order.
fn suite_runs() -> Vec<(&'static str, KernelRun)> {
    let cfg = RunConfig::small();
    all_apps()
        .iter()
        .map(|app| (app.name(), app.run(&cfg)))
        .collect()
}

/// The run of `app_name` among `runs`.
///
/// # Panics
///
/// Panics if the suite has no such app.
fn run_of<'a>(runs: &'a [(&'static str, KernelRun)], app_name: &str) -> &'a KernelRun {
    runs.iter()
        .find(|(name, _)| *name == app_name)
        .map(|(_, run)| run)
        .unwrap_or_else(|| panic!("unknown app {app_name}"))
}

/// Interleave-granularity ablation: per granule size, the ratio of the
/// busiest stack's traffic to the mean (1.0 = perfectly balanced).
pub fn interleave_balance(run: &KernelRun) -> Vec<(u64, f64)> {
    [256u64, 1024, 4096, 16384, 65536]
        .iter()
        .map(|&granule| {
            let mut counts = [0u64; 8];
            for a in run.trace.accesses() {
                counts[stack_for_address(a.addr, 8, granule) as usize] += 1;
            }
            let total: u64 = counts.iter().sum();
            let mean = total as f64 / 8.0;
            let max = *counts.iter().max().unwrap() as f64;
            (granule, if mean > 0.0 { max / mean } else { 1.0 })
        })
        .collect()
}

/// Migration-epoch ablation: per epoch length, the in-package service
/// fraction and the migration count for one app's trace under a deliberately
/// small in-package capacity (so the policy has real work to do).
pub fn migration_epochs(run: &KernelRun) -> Vec<(u64, f64, u64)> {
    let footprint = run.trace.footprint_bytes();
    let capacity = (footprint / 4).max(16 * 4096);

    [500u64, 2_000, 10_000, 50_000]
        .iter()
        .map(|&epoch| {
            let mut policy = SoftwareManaged::new(capacity);
            let accesses = run
                .trace
                .accesses()
                .iter()
                .map(|a| (a.addr, a.kind == AccessKind::Write));
            let stats = run_policy(&mut policy, accesses, epoch);
            (epoch, stats.in_package_fraction(), stats.migrations)
        })
        .collect()
}

/// Row-buffer ablation: per app, the open-row hit rate of stack 0
/// servicing its share of the page-interleaved trace.
pub fn row_buffer_hit_rates(runs: &[(&'static str, KernelRun)]) -> Vec<(String, f64)> {
    // Fold each app's sparse logical space through the real address map so
    // stack-local offsets preserve the access structure.
    let map = AddressMap::new(8, 32 << 30, 4096);
    runs.iter()
        .map(|(name, run)| {
            let mut stack = HbmStack::with_defaults();
            let mut cycle = 0;
            for a in run.trace.accesses() {
                let folded = a.addr % map.in_package_bytes();
                if let Tier::InPackage { stack: 0, offset } = map.locate(folded) {
                    let dir = if a.kind == AccessKind::Write {
                        Direction::Write
                    } else {
                        Direction::Read
                    };
                    cycle += 4;
                    stack.service(offset, 64, dir, cycle);
                }
            }
            (name.to_string(), stack.stats().row_hit_rate())
        })
        .collect()
}

/// Interposer-topology ablation: mean packet latency for SNAP-shaped
/// traffic on the chain, ring, and monolithic-crossbar interconnects.
pub fn interposer_topologies() -> Vec<(&'static str, f64)> {
    let profile = profile_for("SNAP").expect("suite app");
    let traffic = WorkloadTraffic::from_profile(&profile, 99);
    [
        ("chain", Topology::ehp(8, 8)),
        ("ring", Topology::ehp_ring(8, 8)),
        ("crossbar (monolithic)", Topology::monolithic(8, 8)),
    ]
    .into_iter()
    .map(|(name, topo)| {
        let packets = traffic.generate(&topo, 2000);
        let stats = NocSim::new(&topo).run(&packets);
        (name, stats.avg_latency_cycles())
    })
    .collect()
}

/// Multi-level management comparison: in-package service fraction per
/// policy on one app's trace, at capacity = footprint/2.
pub fn policy_comparison(run: &KernelRun) -> Vec<(&'static str, f64)> {
    let capacity = (run.trace.footprint_bytes() / 2).max(64 * 4096);
    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(StaticPlacement::new(0.5)),
        Box::new(SoftwareManaged::new(capacity)),
        Box::new(ena_memory::policy::HardwareCache::new(capacity)),
        Box::new(SetAssociativeCache::new(capacity, 8)),
    ];
    policies
        .into_iter()
        .map(|mut policy| {
            let name = policy.name();
            let accesses = run
                .trace
                .accesses()
                .iter()
                .map(|a| (a.addr, a.kind == AccessKind::Write));
            let stats = run_policy(policy.as_mut(), accesses, 5_000);
            (name, stats.in_package_fraction())
        })
        .collect()
}

/// Regenerates the ablation report.
pub fn run() -> String {
    let runs = suite_runs();
    let xsbench = run_of(&runs, "XSBench");
    let mut out = String::from("Ablations (beyond the paper)\n\n");

    out.push_str("1. Interleave granularity vs stack balance (XSBench; 1.0 = balanced)\n");
    let mut t = TextTable::new(["granule (B)", "max/mean stack traffic"]);
    for (g, ratio) in interleave_balance(xsbench) {
        t.row([format!("{g}"), format!("{ratio:.3}")]);
    }
    out.push_str(&t.render());

    out.push_str("\n2. Software-managed migration epoch (XSBench, capacity = footprint/4)\n");
    let mut t = TextTable::new(["epoch (accesses)", "in-package fraction", "migrations"]);
    for (epoch, frac, mig) in migration_epochs(xsbench) {
        t.row([format!("{epoch}"), format!("{frac:.3}"), format!("{mig}")]);
    }
    out.push_str(&t.render());

    out.push_str("\n3. In-package DRAM row-buffer hit rate per application\n");
    let mut t = TextTable::new(["app", "row hit rate"]);
    for (app, rate) in row_buffer_hit_rates(&runs) {
        t.row([app, format!("{rate:.3}")]);
    }
    out.push_str(&t.render());

    out.push_str("\n4. Interposer interconnect topology (SNAP traffic)\n");
    let mut t = TextTable::new(["topology", "avg latency (cycles)"]);
    for (name, lat) in interposer_topologies() {
        t.row([name.to_string(), format!("{lat:.1}")]);
    }
    out.push_str(&t.render());

    out.push_str("\n5. Multi-level management policies (SNAP, capacity = footprint/2)\n");
    let mut t = TextTable::new(["policy", "in-package fraction"]);
    for (name, frac) in policy_comparison(run_of(&runs, "SNAP")) {
        t.row([name.to_string(), format!("{frac:.3}")]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(app_name: &str) -> KernelRun {
        let apps = all_apps();
        let app = apps
            .iter()
            .find(|a| a.name() == app_name)
            .expect("suite app");
        app.run(&RunConfig::small())
    }

    #[test]
    fn page_granules_balance_best() {
        // Very fine granules alias with the kernel's structured strides and
        // very coarse granules under-interleave; page granularity balances.
        let balance: std::collections::BTreeMap<u64, f64> =
            interleave_balance(&traced("XSBench")).into_iter().collect();
        assert!(balance[&4096] < 1.3, "page granule = {}", balance[&4096]);
        assert!(balance[&4096] <= balance[&256] + 1e-9);
        assert!(balance[&4096] <= balance[&65536] + 1e-9);
    }

    #[test]
    fn migration_epochs_trade_adaptivity() {
        let sweep = migration_epochs(&traced("XSBench"));
        for (_, frac, _) in &sweep {
            assert!((0.0..=1.0).contains(frac));
        }
        // Shorter epochs migrate at least as often as longer ones.
        assert!(
            sweep.first().unwrap().2 >= sweep.last().unwrap().2,
            "{sweep:?}"
        );
    }

    #[test]
    fn ring_sits_between_chain_and_crossbar() {
        let rows: std::collections::BTreeMap<&str, f64> =
            interposer_topologies().into_iter().collect();
        assert!(rows["ring"] <= rows["chain"] + 1e-9);
        assert!(rows["crossbar (monolithic)"] < rows["ring"]);
    }

    #[test]
    fn software_management_beats_static_placement_on_reuse_heavy_traces() {
        let rows: std::collections::BTreeMap<&str, f64> =
            policy_comparison(&traced("SNAP")).into_iter().collect();
        assert!(rows["software-managed"] > rows["static"], "{rows:?}");
        for frac in rows.values() {
            assert!((0.0..=1.0).contains(frac));
        }
    }

    #[test]
    fn streaming_kernels_hit_rows_harder_than_random_ones() {
        let rates: std::collections::BTreeMap<String, f64> =
            row_buffer_hit_rates(&suite_runs()).into_iter().collect();
        assert!(
            rates["MiniAMR"] > rates["XSBench"],
            "MiniAMR {} vs XSBench {}",
            rates["MiniAMR"],
            rates["XSBench"]
        );
    }
}

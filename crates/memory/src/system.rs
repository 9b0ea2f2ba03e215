//! The assembled multi-level memory system (paper Fig. 3).
//!
//! [`MemorySystem`] joins the in-package stacks, the external network, the
//! physical address map, and a placement policy: each logical access is
//! placed by the policy, routed to its tier, and serviced by the detailed
//! tier model. This is the trace-driven complement to the analytic
//! bandwidth model in `ena-core`.

use ena_model::config::EhpConfig;
use ena_model::error::DegradeError;
use ena_model::units::Picojoules;

use crate::extnet::{ExternalError, ExternalNetwork, ExternalStats};
use crate::hbm::{Direction, HbmStack, HbmStats};
use crate::interleave::AddressMap;
use crate::policy::{Placement, PlacementPolicy, PAGE_BYTES};

/// Aggregate results of replaying a trace through the memory system.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemoryStats {
    /// Total accesses serviced.
    pub accesses: u64,
    /// Accesses serviced in-package.
    pub in_package: u64,
    /// Sum of access latencies (cycles).
    pub total_latency_cycles: u64,
    /// Total energy across tiers.
    pub energy: Picojoules,
    /// Page migrations performed by the policy.
    pub migrations: u64,
    /// Accesses that failed (e.g. link failures without redundancy).
    pub failed: u64,
}

impl MemoryStats {
    /// Mean access latency in cycles.
    pub fn avg_latency_cycles(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.accesses as f64
        }
    }

    /// Fraction of accesses serviced by the in-package DRAM.
    pub fn in_package_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.in_package as f64 / self.accesses as f64
        }
    }
}

/// The node's full memory system.
pub struct MemorySystem {
    stacks: Vec<HbmStack>,
    external: ExternalNetwork,
    map: AddressMap,
    /// Physical indices of the surviving stacks, in interleave order. The
    /// address map spans `live.len()` logical stacks; logical stack `i`
    /// is serviced by physical stack `live[i]`.
    live: Vec<u32>,
    policy: Box<dyn PlacementPolicy>,
    epoch_len: u64,
    since_epoch: u64,
    clock: u64,
    stats: MemoryStats,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("stacks", &self.stacks.len())
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemorySystem {
    /// Builds the memory system for an EHP configuration with the given
    /// placement policy and epoch length (accesses per epoch).
    pub fn new(config: &EhpConfig, policy: Box<dyn PlacementPolicy>, epoch_len: u64) -> Self {
        let stacks = (0..config.hbm.stacks)
            .map(|_| HbmStack::with_defaults())
            .collect();
        let stack_capacity = (config.hbm.capacity_per_stack.value() * 1e9) as u64;
        // Align capacity down to the page size.
        let stack_capacity = stack_capacity / PAGE_BYTES * PAGE_BYTES;
        Self {
            stacks,
            external: ExternalNetwork::new(config.external.clone()),
            map: AddressMap::new(config.hbm.stacks, stack_capacity, PAGE_BYTES),
            live: (0..config.hbm.stacks).collect(),
            policy,
            epoch_len,
            since_epoch: 0,
            clock: 0,
            stats: MemoryStats::default(),
        }
    }

    /// Access the external network model directly (e.g. to inject faults).
    pub fn external_mut(&mut self) -> &mut ExternalNetwork {
        &mut self.external
    }

    /// Fails physical stack `stack`: the address space re-interleaves
    /// across the survivors, shrinking in-package capacity and bandwidth.
    /// Data on the dead stack is assumed restored from checkpoint into the
    /// re-interleaved map; subsequent accesses fold into the smaller
    /// region.
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::UnknownComponent`] if the stack does not
    /// exist or already failed, or [`DegradeError::LastSurvivor`] when it
    /// is the only stack left.
    pub fn fail_stack(&mut self, stack: u32) -> Result<(), DegradeError> {
        let pos =
            self.live
                .iter()
                .position(|&s| s == stack)
                .ok_or(DegradeError::UnknownComponent {
                    component: "HBM stack",
                    index: u64::from(stack),
                })?;
        if self.live.len() == 1 {
            return Err(DegradeError::LastSurvivor("HBM stack"));
        }
        self.live.remove(pos);
        self.map = AddressMap::new(
            self.live.len() as u32,
            self.map.stack_capacity,
            self.map.granularity,
        );
        Ok(())
    }

    /// Number of surviving stacks.
    pub fn live_stacks(&self) -> usize {
        self.live.len()
    }

    /// In-package capacity across surviving stacks, in bytes.
    pub fn in_package_bytes(&self) -> u64 {
        self.map.in_package_bytes()
    }

    /// Services one logical access of `bytes` at `addr`.
    ///
    /// Returns the access latency in cycles, or an [`ExternalError`] if the
    /// external tier could not service it.
    pub fn access(&mut self, addr: u64, bytes: u32, is_write: bool) -> Result<u64, ExternalError> {
        let dir = if is_write {
            Direction::Write
        } else {
            Direction::Read
        };
        self.clock += 1;

        let placement = self.policy.access(addr, is_write);
        self.since_epoch += 1;
        if self.since_epoch >= self.epoch_len {
            self.stats.migrations += self.policy.end_epoch();
            self.since_epoch = 0;
        }

        let latency = match placement {
            Placement::InPackage => {
                // Fold the logical address into the in-package region.
                let (stack, offset) = self.map.fold_in_package(addr);
                let physical = self.live[stack as usize];
                let result = self.stacks[physical as usize].service(offset, bytes, dir, self.clock);
                self.stats.energy += result.energy;
                result.complete_cycle.saturating_sub(self.clock)
            }
            Placement::External => {
                let ext_capacity = (self.external.config().total_capacity().value() * 1e9) as u64;
                let folded = addr % ext_capacity;
                match self.external.service(folded, bytes, dir) {
                    Ok(access) => {
                        self.stats.energy += access.energy;
                        access.latency_cycles
                    }
                    Err(e) => {
                        self.stats.failed += 1;
                        return Err(e);
                    }
                }
            }
        };

        self.stats.accesses += 1;
        if placement == Placement::InPackage {
            self.stats.in_package += 1;
        }
        self.stats.total_latency_cycles += latency;
        Ok(latency)
    }

    /// Replays `(addr, is_write)` pairs, ignoring external failures.
    pub fn replay(&mut self, accesses: impl IntoIterator<Item = (u64, bool)>) -> MemoryStats {
        for (addr, is_write) in accesses {
            let _ = self.access(addr, 64, is_write);
        }
        self.stats.clone()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Per-stack statistics.
    pub fn stack_stats(&self) -> Vec<HbmStats> {
        self.stacks.iter().map(HbmStack::stats).collect()
    }

    /// External network statistics.
    pub fn external_stats(&self) -> ExternalStats {
        self.external.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{SoftwareManaged, StaticPlacement};

    fn system(fraction: f64) -> MemorySystem {
        MemorySystem::new(
            &EhpConfig::paper_baseline(),
            Box::new(StaticPlacement::new(fraction)),
            u64::MAX,
        )
    }

    #[test]
    fn in_package_accesses_are_faster_than_external() {
        let mut all_in = system(1.0);
        let mut all_out = system(0.0);
        for i in 0..500u64 {
            all_in.access(i * 4096, 64, false).unwrap();
            all_out.access(i * 4096, 64, false).unwrap();
        }
        let fast = all_in.stats().avg_latency_cycles();
        let slow = all_out.stats().avg_latency_cycles();
        assert!(
            slow > 3.0 * fast,
            "external {slow} should dwarf in-package {fast}"
        );
    }

    #[test]
    fn miss_fraction_tracks_the_policy() {
        let mut sys = system(0.7);
        for i in 0..20_000u64 {
            sys.access(i * 4096, 64, false).unwrap();
        }
        let frac = sys.stats().in_package_fraction();
        assert!((frac - 0.7).abs() < 0.02, "fraction = {frac}");
    }

    #[test]
    fn software_managed_system_migrates() {
        let mut sys = MemorySystem::new(
            &EhpConfig::paper_baseline(),
            Box::new(SoftwareManaged::new(64 * 4096)),
            256,
        );
        // Hot set of 32 pages + cold streaming.
        let mut accesses = Vec::new();
        for epoch in 0..4u64 {
            for rep in 0..32u64 {
                for hot in 0..32u64 {
                    accesses.push((hot * 4096, false));
                    accesses.push(((100_000 + epoch * 1000 + rep * 32 + hot) * 4096, true));
                }
            }
        }
        let stats = sys.replay(accesses);
        assert!(stats.migrations > 0);
        assert!(stats.in_package_fraction() > 0.4);
    }

    #[test]
    fn energy_accumulates_across_tiers() {
        let mut sys = system(0.5);
        for i in 0..100u64 {
            sys.access(i * 4096, 64, i % 3 == 0).unwrap();
        }
        assert!(sys.stats().energy.value() > 0.0);
        assert!(sys.external_stats().accesses > 0);
        assert!(sys.stack_stats().iter().any(|s| s.accesses > 0));
    }

    #[test]
    fn a_dead_stack_reinterleaves_with_capacity_loss() {
        let mut sys = system(1.0);
        let full = sys.in_package_bytes();
        assert_eq!(sys.live_stacks(), 8);
        sys.fail_stack(3).unwrap();
        assert_eq!(sys.live_stacks(), 7);
        assert_eq!(sys.in_package_bytes(), full / 8 * 7);
        // Every access still lands on a survivor: the dead stack's service
        // count stays frozen while traffic spreads over the other seven.
        let before: u64 = sys.stack_stats()[3].accesses;
        for i in 0..7000u64 {
            sys.access(i * 4096, 64, false).unwrap();
        }
        let per_stack: Vec<u64> = sys.stack_stats().iter().map(|s| s.accesses).collect();
        assert_eq!(per_stack[3], before, "dead stack serviced traffic");
        for (i, &n) in per_stack.iter().enumerate() {
            if i != 3 {
                assert!(n >= 900, "stack {i} underused: {n} accesses");
            }
        }
        // Double-failure and last-survivor guards are error values.
        assert!(matches!(
            sys.fail_stack(3),
            Err(DegradeError::UnknownComponent { .. })
        ));
        for s in [0, 1, 2, 4, 5, 6] {
            sys.fail_stack(s).unwrap();
        }
        assert_eq!(
            sys.fail_stack(7),
            Err(DegradeError::LastSurvivor("HBM stack"))
        );
    }

    #[test]
    fn failed_links_surface_as_errors() {
        let mut sys = system(0.0);
        sys.external_mut().fail_link(crate::extnet::ModuleId {
            interface: 0,
            depth: 0,
        });
        // Interface 0 pages now fail; others succeed.
        let mut failures = 0;
        for i in 0..64u64 {
            if sys.access(i * 4096, 64, false).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0);
        assert_eq!(sys.stats().failed, failures);
    }
}

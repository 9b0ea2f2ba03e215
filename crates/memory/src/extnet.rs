//! External memory network (paper Section II-B.2).
//!
//! The EHP exposes eight external-memory interfaces, each driving a chain
//! of memory modules over point-to-point SerDes links (Hybrid-Memory-Cube
//! style). Requests hop down the chain to their module; deeper modules pay
//! more link traversals. Optional cross-links at the chain ends provide
//! redundancy: if a link fails, traffic re-routes through the neighboring
//! chain (paper: "allow access to memory devices in the event of link
//! failures").

use ena_model::config::{ExternalMemoryConfig, ExternalModuleKind};
use ena_model::units::Picojoules;

use crate::hbm::Direction;

/// Per-hop SerDes link latency in controller cycles (serialization +
/// flight).
const LINK_LATENCY_CYCLES: u64 = 40;

/// Access latency inside a module, by technology.
const DRAM_MODULE_CYCLES: u64 = 60;
const NVM_READ_CYCLES: u64 = 180;
const NVM_WRITE_CYCLES: u64 = 600;

/// Energy coefficients for the external network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExternalEnergy {
    /// SerDes energy per bit per hop.
    pub serdes_pj_per_bit: f64,
    /// DRAM module access energy per bit.
    pub dram_pj_per_bit: f64,
    /// NVM read energy per bit.
    pub nvm_read_pj_per_bit: f64,
    /// NVM write energy per bit.
    pub nvm_write_pj_per_bit: f64,
}

impl Default for ExternalEnergy {
    fn default() -> Self {
        Self {
            serdes_pj_per_bit: 2.0,
            dram_pj_per_bit: 10.0,
            nvm_read_pj_per_bit: 45.0,
            nvm_write_pj_per_bit: 150.0,
        }
    }
}

/// Identifies one module in the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModuleId {
    /// Interface (chain) index.
    pub interface: u32,
    /// Position along the chain, zero-based from the package.
    pub depth: u32,
}

/// Result of one serviced external access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExternalAccess {
    /// Total round-trip latency in cycles.
    pub latency_cycles: u64,
    /// The module that serviced the request.
    pub module: ModuleId,
    /// Module technology.
    pub kind: ExternalModuleKind,
    /// SerDes hops traversed (one way).
    pub hops: u32,
    /// Energy charged (links + module access).
    pub energy: Picojoules,
}

/// Error servicing an external access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExternalError {
    /// The target module is unreachable because of failed links and no
    /// redundant path.
    Unreachable(ModuleId),
    /// The address exceeds the network's capacity.
    OutOfRange(u64),
}

impl core::fmt::Display for ExternalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExternalError::Unreachable(m) => write!(
                f,
                "module (interface {}, depth {}) unreachable due to link failures",
                m.interface, m.depth
            ),
            ExternalError::OutOfRange(addr) => {
                write!(f, "address {addr:#x} exceeds external memory capacity")
            }
        }
    }
}

impl std::error::Error for ExternalError {}

/// The external memory network simulator.
#[derive(Clone, Debug)]
pub struct ExternalNetwork {
    config: ExternalMemoryConfig,
    energy: ExternalEnergy,
    /// `failed[interface][depth]` marks the link *into* that depth as down.
    failed: Vec<Vec<bool>>,
    /// Whether end-around cross-links between adjacent chains exist.
    redundancy: bool,
    stats: ExternalStats,
}

/// Aggregate statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExternalStats {
    /// Serviced accesses.
    pub accesses: u64,
    /// Accesses served by NVM modules.
    pub nvm_accesses: u64,
    /// Writes absorbed by NVM modules (wear-relevant).
    pub nvm_writes: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total energy.
    pub energy: Picojoules,
    /// Accesses that used a redundant path.
    pub rerouted: u64,
}

impl ExternalNetwork {
    /// Builds the network for `config`, without redundancy links.
    pub fn new(config: ExternalMemoryConfig) -> Self {
        let failed = vec![vec![false; config.modules_per_chain()]; config.interfaces as usize];
        Self {
            config,
            energy: ExternalEnergy::default(),
            failed,
            redundancy: false,
            stats: ExternalStats::default(),
        }
    }

    /// Enables end-around cross-links between adjacent chains.
    pub fn with_redundancy(mut self) -> Self {
        self.redundancy = true;
        self
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &ExternalMemoryConfig {
        &self.config
    }

    /// Marks the link feeding `module` as failed.
    ///
    /// # Panics
    ///
    /// Panics if the module does not exist.
    pub fn fail_link(&mut self, module: ModuleId) {
        self.failed[module.interface as usize][module.depth as usize] = true;
    }

    /// Maps an external byte address to its module: addresses interleave
    /// across interfaces at page granularity, then fill chains depth-first
    /// by capacity.
    pub fn locate(&self, addr: u64) -> Result<(ModuleId, ExternalModuleKind), ExternalError> {
        const PAGE: u64 = 4096;
        let interfaces = u64::from(self.config.interfaces);
        let page = addr / PAGE;
        let interface = (page % interfaces) as u32;
        // Offset within this chain.
        let chain_offset = (page / interfaces) * PAGE + (addr % PAGE);
        let mut remaining = chain_offset;
        for (depth, &kind) in self.config.chain.iter().enumerate() {
            let cap_bytes = (self.config.module_capacity(kind).value() * 1e9) as u64;
            if remaining < cap_bytes {
                return Ok((
                    ModuleId {
                        interface,
                        depth: depth as u32,
                    },
                    kind,
                ));
            }
            remaining -= cap_bytes;
        }
        Err(ExternalError::OutOfRange(addr))
    }

    /// True if every link from the package down to `module` is healthy.
    fn path_healthy(&self, module: ModuleId) -> bool {
        (0..=module.depth as usize).all(|d| !self.failed[module.interface as usize][d])
    }

    /// Services `bytes` at external address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`ExternalError::OutOfRange`] for addresses beyond capacity,
    /// or [`ExternalError::Unreachable`] when link failures cut off the
    /// module and redundancy is disabled.
    pub fn service(
        &mut self,
        addr: u64,
        bytes: u32,
        dir: Direction,
    ) -> Result<ExternalAccess, ExternalError> {
        let (module, kind) = self.locate(addr)?;
        let direct_hops = module.depth + 1;

        let (hops, rerouted) = if self.path_healthy(module) {
            (direct_hops, false)
        } else if self.redundancy {
            // End-around: down the adjacent chain to its tail, across the
            // cross-link, back up to the target module.
            let chain_len = self.config.modules_per_chain() as u32;
            let detour = chain_len + 1 + (chain_len - module.depth);
            (detour, true)
        } else {
            return Err(ExternalError::Unreachable(module));
        };

        let module_cycles = match (kind, dir) {
            (ExternalModuleKind::Dram, _) => DRAM_MODULE_CYCLES,
            (ExternalModuleKind::Nvm, Direction::Read) => NVM_READ_CYCLES,
            (ExternalModuleKind::Nvm, Direction::Write) => NVM_WRITE_CYCLES,
        };
        let latency = 2 * u64::from(hops) * LINK_LATENCY_CYCLES + module_cycles;

        let bits = f64::from(bytes) * 8.0;
        let per_bit_module = match (kind, dir) {
            (ExternalModuleKind::Dram, _) => self.energy.dram_pj_per_bit,
            (ExternalModuleKind::Nvm, Direction::Read) => self.energy.nvm_read_pj_per_bit,
            (ExternalModuleKind::Nvm, Direction::Write) => self.energy.nvm_write_pj_per_bit,
        };
        let energy = Picojoules::new(
            bits * (f64::from(hops) * self.energy.serdes_pj_per_bit + per_bit_module),
        );

        self.stats.accesses += 1;
        self.stats.bytes += u64::from(bytes);
        if kind == ExternalModuleKind::Nvm {
            self.stats.nvm_accesses += 1;
            if dir == Direction::Write {
                self.stats.nvm_writes += 1;
            }
        }
        if rerouted {
            self.stats.rerouted += 1;
        }
        self.stats.energy += energy;

        Ok(ExternalAccess {
            latency_cycles: latency,
            module,
            kind,
            hops,
            energy,
        })
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ExternalStats {
        self.stats
    }

    /// Estimated NVM lifetime in hours under perfect wear-leveling, given
    /// a sustained write rate (paper Section II-B.2: NVM "may suffer from
    /// write-endurance issues that could impact the system's MTTF").
    ///
    /// `cell_endurance` is writes per line before wear-out (~1e8 for
    /// PCM-class memory). Returns `f64::INFINITY` when the network holds
    /// no NVM or sees no writes.
    pub fn nvm_lifetime_hours(&self, write_gbps: f64, cell_endurance: f64) -> f64 {
        let nvm_capacity_gb: f64 = self
            .config
            .chain
            .iter()
            .filter(|&&k| k == ExternalModuleKind::Nvm)
            .map(|&k| self.config.module_capacity(k).value())
            .sum::<f64>()
            * f64::from(self.config.interfaces);
        if nvm_capacity_gb == 0.0 || write_gbps <= 0.0 {
            return f64::INFINITY;
        }
        // Every line can absorb `cell_endurance` writes; the write stream
        // consumes them at `write_gbps`.
        let total_line_writes = nvm_capacity_gb * 1e9 / 64.0 * cell_endurance;
        let writes_per_hour = write_gbps * 1e9 / 64.0 * 3600.0;
        total_line_writes / writes_per_hour
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_model::units::Gigabytes;

    fn dram_net() -> ExternalNetwork {
        ExternalNetwork::new(ExternalMemoryConfig::dram_only(4, Gigabytes::new(768.0)))
    }

    #[test]
    fn addresses_interleave_across_interfaces() {
        let net = dram_net();
        let mut seen = std::collections::BTreeSet::new();
        for page in 0..8u64 {
            let (m, _) = net.locate(page * 4096).unwrap();
            seen.insert(m.interface);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn deeper_modules_pay_more_hops() {
        let mut net = dram_net();
        let cap_per_module = 24u64 * 1_000_000_000; // 768 GB / 32 modules
        let shallow = net.service(0, 64, Direction::Read).unwrap();
        // An address deep enough to sit in the last module of chain 0.
        let deep_addr = 8 * cap_per_module * 3; // depth-3 region, interface 0
        let deep = net.service(deep_addr, 64, Direction::Read).unwrap();
        assert_eq!(shallow.module.depth, 0);
        assert_eq!(deep.module.depth, 3);
        assert!(deep.latency_cycles > shallow.latency_cycles);
        assert!(deep.energy.value() > shallow.energy.value());
    }

    #[test]
    fn nvm_writes_are_slow_and_expensive() {
        let cfg = ExternalMemoryConfig::hybrid(4, Gigabytes::new(768.0));
        let mut net = ExternalNetwork::new(cfg);
        // The NVM region starts past the two 24 GB DRAM modules on the
        // chain: pick an address 50 GB down chain 0.
        let chain_page = 50_000_000_000u64 / 4096;
        let addr = chain_page * 4096 * 8; // interface 0, 50 GB deep
        let (_, kind) = net.locate(addr).unwrap();
        assert_eq!(kind, ExternalModuleKind::Nvm);
        let read = net.service(addr, 64, Direction::Read).unwrap();
        let write = net.service(addr, 64, Direction::Write).unwrap();
        let dram = net.service(0, 64, Direction::Read).unwrap();
        // NVM array access is slower than DRAM even before its extra hops.
        let read_module_cycles = read.latency_cycles - 2 * u64::from(read.hops) * 40;
        let dram_module_cycles = dram.latency_cycles - 2 * u64::from(dram.hops) * 40;
        assert!(read_module_cycles > dram_module_cycles);
        assert!(write.latency_cycles > read.latency_cycles);
        assert!(write.energy.value() > read.energy.value());
        assert_eq!(net.stats().nvm_accesses, 2);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut net = dram_net();
        let err = net
            .service(900_000_000_000_000, 64, Direction::Read)
            .unwrap_err();
        assert!(matches!(err, ExternalError::OutOfRange(_)));
    }

    #[test]
    fn link_failure_cuts_off_downstream_modules() {
        let mut net = dram_net();
        net.fail_link(ModuleId {
            interface: 0,
            depth: 1,
        });
        // Depth 0 on the failed chain still works.
        assert!(net.service(0, 64, Direction::Read).is_ok());
        // Depth >= 1 on interface 0 is unreachable.
        let cap_per_module = 24u64 * 1_000_000_000;
        let deep_addr = 8 * cap_per_module; // depth 1 region, interface 0
        let err = net.service(deep_addr, 64, Direction::Read).unwrap_err();
        assert!(matches!(err, ExternalError::Unreachable(_)));
        // Other chains are unaffected.
        assert!(net.service(4096, 64, Direction::Read).is_ok());
    }

    #[test]
    fn redundancy_reroutes_around_failures_at_higher_cost() {
        let mut net = dram_net().with_redundancy();
        net.fail_link(ModuleId {
            interface: 0,
            depth: 0,
        });
        let access = net.service(0, 64, Direction::Read).unwrap();
        assert!(access.hops > 1);
        assert_eq!(net.stats().rerouted, 1);
        // Rerouted access is slower than the healthy direct path would be.
        let healthy = dram_net().service(0, 64, Direction::Read).unwrap();
        assert!(access.latency_cycles > healthy.latency_cycles);
    }

    #[test]
    fn nvm_wear_tracks_write_traffic_and_bounds_lifetime() {
        let cfg = ExternalMemoryConfig::hybrid(4, Gigabytes::new(768.0));
        let mut net = ExternalNetwork::new(cfg);
        let nvm_addr = (50_000_000_000u64 / 4096) * 4096 * 8;
        net.service(nvm_addr, 64, Direction::Write).unwrap();
        net.service(nvm_addr, 64, Direction::Read).unwrap();
        assert_eq!(net.stats().nvm_writes, 1);

        // 100 GB/s of sustained writes into 384 GB of 1e8-endurance NVM:
        // lifetime in the multi-year range, but finite.
        let hours = net.nvm_lifetime_hours(100.0, 1e8);
        assert!(hours.is_finite());
        let years = hours / (24.0 * 365.0);
        assert!((1.0..100_000.0).contains(&years), "lifetime {years} years");
        // More write pressure, shorter life.
        assert!(net.nvm_lifetime_hours(200.0, 1e8) < hours);
        // DRAM-only networks never wear out.
        let dram = ExternalNetwork::new(ExternalMemoryConfig::dram_only(4, Gigabytes::new(768.0)));
        assert!(dram.nvm_lifetime_hours(100.0, 1e8).is_infinite());
    }

    #[test]
    fn locate_is_stable_and_total_over_capacity() {
        let net = dram_net();
        let total_bytes = (net.config().total_capacity().value() * 1e9) as u64;
        for i in 0..1000u64 {
            let addr = i * (total_bytes / 1000);
            let (m, _) = net.locate(addr).unwrap();
            assert!(m.interface < 8);
            assert!((m.depth as usize) < net.config().modules_per_chain());
        }
    }
}

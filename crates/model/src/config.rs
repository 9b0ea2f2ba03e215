//! Hardware configuration types for the Exascale Node Architecture.
//!
//! The central type is [`EhpConfig`], describing one Exascale Heterogeneous
//! Processor package: GPU chiplets, CPU chiplets, in-package 3D DRAM, the
//! chiplet interconnect, and the external memory network attached to the
//! node. Configurations are built with [`EhpConfigBuilder`] which validates
//! the paper's area and sanity constraints.
//!
//! ```
//! use ena_model::config::EhpConfig;
//!
//! let ehp = EhpConfig::paper_baseline();
//! assert_eq!(ehp.gpu.total_cus(), 320);
//! assert_eq!(ehp.hbm.total_bandwidth().terabytes_per_sec(), 3.0);
//! ```

use crate::error::ConfigError;
use crate::units::{Gigabytes, GigabytesPerSec, Gigaflops, Megahertz, Watts};

/// Maximum CU count the EHP package can host (paper Section VI: "area budget
/// of up to 384 CUs per node").
pub const MAX_CUS: u32 = 384;

/// Double-precision FLOPs per CU per clock cycle.
///
/// The paper provisions 2 DP teraflops per 32-CU chiplet at 1 GHz, i.e.
/// 62.5 FLOP/cycle/CU; we round to the realistic power-of-two SIMD width.
pub const FLOPS_PER_CU_CYCLE: f64 = 64.0;

/// Per-node power budget used in the design-space exploration (W).
///
/// The paper sets 160 W for the EHP package to leave headroom for cooling
/// and the inter-node network inside the 200 W node envelope.
pub const NODE_POWER_BUDGET: Watts = Watts::new(160.0);

/// Number of nodes in the envisioned exascale machine.
pub const SYSTEM_NODE_COUNT: u64 = 100_000;

/// GPU complex configuration: chiplets and compute units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuConfig {
    /// Number of GPU chiplets in the package (paper: 8).
    pub chiplets: u32,
    /// Compute units per chiplet.
    pub cus_per_chiplet: u32,
    /// CU clock frequency.
    pub clock: Megahertz,
}

impl GpuConfig {
    /// Total CU count across all chiplets.
    pub fn total_cus(&self) -> u32 {
        self.chiplets * self.cus_per_chiplet
    }

    /// Peak double-precision throughput of the GPU complex.
    pub fn peak_throughput(&self) -> Gigaflops {
        Gigaflops::new(f64::from(self.total_cus()) * self.clock.gigahertz() * FLOPS_PER_CU_CYCLE)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            chiplets: 8,
            cus_per_chiplet: 40,
            clock: Megahertz::new(1000.0),
        }
    }
}

/// CPU complex configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuConfig {
    /// Number of CPU chiplets (paper: 8, in two clusters of four).
    pub chiplets: u32,
    /// Cores per CPU chiplet (paper: 4).
    pub cores_per_chiplet: u32,
    /// Core clock frequency.
    pub clock: Megahertz,
}

impl CpuConfig {
    /// Total core count.
    pub fn total_cores(&self) -> u32 {
        self.chiplets * self.cores_per_chiplet
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            chiplets: 8,
            cores_per_chiplet: 4,
            clock: Megahertz::new(2500.0),
        }
    }
}

/// In-package 3D DRAM (HBM-successor) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HbmConfig {
    /// Number of 3D DRAM stacks (paper: 8, one per GPU chiplet).
    pub stacks: u32,
    /// Capacity per stack (paper projection: 32 GB).
    pub capacity_per_stack: Gigabytes,
    /// Bandwidth per stack (paper projection: 512 GB/s for 4 TB/s total).
    pub bandwidth_per_stack: GigabytesPerSec,
}

impl HbmConfig {
    /// Total in-package capacity.
    pub fn total_capacity(&self) -> Gigabytes {
        self.capacity_per_stack * f64::from(self.stacks)
    }

    /// Total aggregate in-package bandwidth.
    pub fn total_bandwidth(&self) -> GigabytesPerSec {
        self.bandwidth_per_stack * f64::from(self.stacks)
    }
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self {
            stacks: 8,
            capacity_per_stack: Gigabytes::new(32.0),
            bandwidth_per_stack: GigabytesPerSec::new(375.0),
        }
    }
}

/// Kind of module populating the external memory network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExternalModuleKind {
    /// 3D-stacked DRAM module (HMC-like).
    #[default]
    Dram,
    /// Non-volatile memory module: ~4x density, near-zero static power,
    /// higher (and write-asymmetric) dynamic access energy.
    Nvm,
}

/// External memory network configuration (Section II-B.2).
///
/// The EHP exposes eight external-memory interfaces, each driving a chain of
/// memory modules over point-to-point SerDes links.
#[derive(Clone, Debug, PartialEq)]
pub struct ExternalMemoryConfig {
    /// Number of external memory interfaces on the package (paper: 8).
    pub interfaces: u32,
    /// Module kinds along each chain, nearest-first. All chains are
    /// identical (the address space is interleaved across interfaces).
    pub chain: Vec<ExternalModuleKind>,
    /// Capacity of one DRAM module.
    pub dram_module_capacity: Gigabytes,
    /// Capacity of one NVM module (nominally
    /// [`Self::NVM_DENSITY_FACTOR`] times the DRAM module capacity).
    pub nvm_module_capacity: Gigabytes,
    /// Peak bandwidth of one SerDes interface.
    pub interface_bandwidth: GigabytesPerSec,
}

impl ExternalMemoryConfig {
    /// NVM density multiple relative to DRAM (paper footnote 6).
    pub const NVM_DENSITY_FACTOR: f64 = 4.0;

    /// A DRAM-only configuration totalling `capacity` across all chains.
    ///
    /// # Panics
    ///
    /// Panics if `modules_per_chain` is zero.
    pub fn dram_only(modules_per_chain: u32, capacity: Gigabytes) -> Self {
        assert!(
            modules_per_chain > 0,
            "chains must hold at least one module"
        );
        let interfaces = 8;
        let module_cap = capacity / f64::from(interfaces * modules_per_chain);
        Self {
            interfaces,
            chain: vec![ExternalModuleKind::Dram; modules_per_chain as usize],
            dram_module_capacity: module_cap,
            nvm_module_capacity: module_cap * Self::NVM_DENSITY_FACTOR,
            interface_bandwidth: GigabytesPerSec::new(125.0),
        }
    }

    /// The hybrid configuration of Section V-C: half the external DRAM
    /// capacity replaced by NVM at equal total capacity. Because NVM is ~4x
    /// denser, the displaced DRAM modules collapse into roughly a quarter as
    /// many NVM modules, shortening the chains (and shedding SerDes links).
    /// The NVM module capacity is sized so total capacity is preserved
    /// exactly.
    pub fn hybrid(modules_per_chain: u32, capacity: Gigabytes) -> Self {
        let base = Self::dram_only(modules_per_chain, capacity);
        let keep_dram = (modules_per_chain as usize).div_ceil(2);
        let displaced = modules_per_chain as usize - keep_dram;
        let displaced_capacity = base.dram_module_capacity * displaced as f64;
        let nvm_modules = ((displaced as f64 / Self::NVM_DENSITY_FACTOR).round() as usize).max(1);
        let mut chain = vec![ExternalModuleKind::Dram; keep_dram];
        chain.extend(std::iter::repeat_n(ExternalModuleKind::Nvm, nvm_modules));
        Self {
            chain,
            nvm_module_capacity: displaced_capacity / nvm_modules as f64,
            ..base
        }
    }

    /// Modules per chain.
    pub fn modules_per_chain(&self) -> usize {
        self.chain.len()
    }

    /// Total module count across all chains.
    pub fn total_modules(&self) -> usize {
        self.chain.len() * self.interfaces as usize
    }

    /// Total SerDes link count (one link per chain hop, plus the root link
    /// from the package to the first module of each chain).
    pub fn total_links(&self) -> usize {
        self.total_modules()
    }

    /// Capacity of a single module of the given kind.
    pub fn module_capacity(&self, kind: ExternalModuleKind) -> Gigabytes {
        match kind {
            ExternalModuleKind::Dram => self.dram_module_capacity,
            ExternalModuleKind::Nvm => self.nvm_module_capacity,
        }
    }

    /// Total external capacity.
    pub fn total_capacity(&self) -> Gigabytes {
        let per_chain: Gigabytes = self
            .chain
            .iter()
            .map(|&kind| self.module_capacity(kind))
            .sum();
        per_chain * f64::from(self.interfaces)
    }

    /// Aggregate external bandwidth across all interfaces.
    pub fn total_bandwidth(&self) -> GigabytesPerSec {
        self.interface_bandwidth * f64::from(self.interfaces)
    }

    /// Fraction of external capacity that is NVM.
    pub fn nvm_capacity_fraction(&self) -> f64 {
        let nvm: Gigabytes = self
            .chain
            .iter()
            .filter(|&&kind| kind == ExternalModuleKind::Nvm)
            .map(|&kind| self.module_capacity(kind))
            .sum();
        let per_chain: Gigabytes = self
            .chain
            .iter()
            .map(|&kind| self.module_capacity(kind))
            .sum();
        if per_chain.value() == 0.0 {
            0.0
        } else {
            nvm / per_chain
        }
    }
}

impl Default for ExternalMemoryConfig {
    fn default() -> Self {
        // 1 TB node target minus 256 GB in-package = 768 GB external.
        Self::dram_only(4, Gigabytes::new(768.0))
    }
}

/// Physical organization of the compute complex.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PackageOrganization {
    /// The proposed chiplet-on-active-interposer design: remote accesses pay
    /// two extra TSV hops and an interposer traversal.
    #[default]
    Chiplets,
    /// Hypothetical monolithic die used as the Fig. 7 baseline.
    Monolithic,
}

/// Full EHP package + node memory configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct EhpConfig {
    /// GPU complex.
    pub gpu: GpuConfig,
    /// CPU complex.
    pub cpu: CpuConfig,
    /// In-package 3D DRAM.
    pub hbm: HbmConfig,
    /// External memory network.
    pub external: ExternalMemoryConfig,
    /// Chiplet vs monolithic organization.
    pub organization: PackageOrganization,
}

impl EhpConfig {
    /// Starts building a configuration.
    pub fn builder() -> EhpConfigBuilder {
        EhpConfigBuilder::new()
    }

    /// The paper's best-mean configuration: 320 CUs, 1 GHz, 3 TB/s.
    ///
    /// Spelled as a literal (8 chiplets x 40 CUs, 8 stacks x 375 GB/s)
    /// so construction is infallible; the builder round-trip is pinned by
    /// a test.
    pub fn paper_baseline() -> Self {
        Self {
            gpu: GpuConfig {
                chiplets: 8,
                cus_per_chiplet: 40,
                clock: Megahertz::new(1000.0),
            },
            cpu: CpuConfig::default(),
            hbm: HbmConfig {
                stacks: 8,
                capacity_per_stack: Gigabytes::new(32.0),
                bandwidth_per_stack: GigabytesPerSec::new(375.0),
            },
            external: ExternalMemoryConfig::default(),
            organization: PackageOrganization::Chiplets,
        }
    }

    /// The best-mean configuration after power optimizations (Section V-E):
    /// 288 CUs, 1.1 GHz, 3 TB/s.
    pub fn paper_optimized_baseline() -> Self {
        Self {
            gpu: GpuConfig {
                chiplets: 8,
                cus_per_chiplet: 36,
                clock: Megahertz::new(1100.0),
            },
            ..Self::paper_baseline()
        }
    }

    /// Total node memory capacity (in-package plus external).
    pub fn total_memory_capacity(&self) -> Gigabytes {
        self.hbm.total_capacity() + self.external.total_capacity()
    }

    /// Peak GPU throughput of the package.
    pub fn peak_throughput(&self) -> Gigaflops {
        self.gpu.peak_throughput()
    }

    /// Hardware ops-per-byte: peak compute divided by in-package bandwidth.
    ///
    /// This is the x-axis of the paper's Figs. 4-6 (CU count x frequency /
    /// bandwidth, in CU-GHz per GB/s).
    pub fn ops_per_byte(&self) -> f64 {
        f64::from(self.gpu.total_cus()) * self.gpu.clock.gigahertz()
            / self.hbm.total_bandwidth().value()
    }
}

impl Default for EhpConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Builder for [`EhpConfig`] (C-BUILDER).
///
/// ```
/// use ena_model::config::EhpConfig;
/// use ena_model::units::{GigabytesPerSec, Megahertz};
///
/// # fn main() -> Result<(), ena_model::error::ConfigError> {
/// let cfg = EhpConfig::builder()
///     .total_cus(256)
///     .gpu_clock(Megahertz::new(1200.0))
///     .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(4.0))
///     .build()?;
/// assert_eq!(cfg.gpu.total_cus(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct EhpConfigBuilder {
    gpu: GpuConfig,
    cpu: CpuConfig,
    hbm: HbmConfig,
    external: ExternalMemoryConfig,
    organization: PackageOrganization,
}

impl EhpConfigBuilder {
    /// Creates a builder seeded with the paper-baseline values.
    pub fn new() -> Self {
        Self {
            gpu: GpuConfig::default(),
            cpu: CpuConfig::default(),
            hbm: HbmConfig {
                bandwidth_per_stack: GigabytesPerSec::new(375.0),
                ..HbmConfig::default()
            },
            external: ExternalMemoryConfig::default(),
            organization: PackageOrganization::Chiplets,
        }
    }

    /// Sets the total CU count, distributed evenly over the GPU chiplets.
    ///
    /// The count must be divisible by the chiplet count.
    pub fn total_cus(mut self, total: u32) -> Self {
        self.gpu.cus_per_chiplet = total / self.gpu.chiplets;
        self
    }

    /// Sets the GPU CU clock.
    pub fn gpu_clock(mut self, clock: Megahertz) -> Self {
        self.gpu.clock = clock;
        self
    }

    /// Sets the aggregate in-package bandwidth, split evenly over stacks.
    pub fn hbm_bandwidth(mut self, total: GigabytesPerSec) -> Self {
        self.hbm.bandwidth_per_stack = total / f64::from(self.hbm.stacks);
        self
    }

    /// Replaces the GPU complex configuration wholesale.
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Replaces the CPU complex configuration.
    pub fn cpu(mut self, cpu: CpuConfig) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replaces the in-package memory configuration.
    pub fn hbm(mut self, hbm: HbmConfig) -> Self {
        self.hbm = hbm;
        self
    }

    /// Replaces the external memory network configuration.
    pub fn external(mut self, external: ExternalMemoryConfig) -> Self {
        self.external = external;
        self
    }

    /// Selects the package organization (chiplets vs monolithic).
    pub fn organization(mut self, organization: PackageOrganization) -> Self {
        self.organization = organization;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the CU count exceeds the package area
    /// budget, any structural count is zero, or a rate/capacity is
    /// non-positive or non-finite.
    pub fn build(self) -> Result<EhpConfig, ConfigError> {
        let cus = self.gpu.total_cus();
        if cus == 0 {
            return Err(ConfigError::ZeroComponent("GPU compute units"));
        }
        if cus > MAX_CUS {
            return Err(ConfigError::AreaBudgetExceeded { cus, max: MAX_CUS });
        }
        if self.cpu.total_cores() == 0 {
            return Err(ConfigError::ZeroComponent("CPU cores"));
        }
        if self.hbm.stacks == 0 {
            return Err(ConfigError::ZeroComponent("HBM stacks"));
        }
        for (name, v) in [
            ("GPU clock", self.gpu.clock.value()),
            ("CPU clock", self.cpu.clock.value()),
            ("HBM bandwidth", self.hbm.bandwidth_per_stack.value()),
            ("HBM capacity", self.hbm.capacity_per_stack.value()),
            (
                "external bandwidth",
                self.external.interface_bandwidth.value(),
            ),
            (
                "external capacity",
                self.external.dram_module_capacity.value(),
            ),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ConfigError::NonPositive(name));
            }
        }
        Ok(EhpConfig {
            gpu: self.gpu,
            cpu: self.cpu,
            hbm: self.hbm,
            external: self.external,
            organization: self.organization,
        })
    }
}

impl Default for EhpConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_literals_match_the_builder() {
        let built = EhpConfig::builder()
            .total_cus(320)
            .gpu_clock(Megahertz::new(1000.0))
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(3.0))
            .build()
            .unwrap();
        assert_eq!(EhpConfig::paper_baseline(), built);
        let opt = EhpConfig::builder()
            .total_cus(288)
            .gpu_clock(Megahertz::new(1100.0))
            .hbm_bandwidth(GigabytesPerSec::from_terabytes_per_sec(3.0))
            .build()
            .unwrap();
        assert_eq!(EhpConfig::paper_optimized_baseline(), opt);
    }

    #[test]
    fn paper_baseline_matches_section_v() {
        let cfg = EhpConfig::paper_baseline();
        assert_eq!(cfg.gpu.total_cus(), 320);
        assert_eq!(cfg.gpu.clock, Megahertz::new(1000.0));
        assert!((cfg.hbm.total_bandwidth().terabytes_per_sec() - 3.0).abs() < 1e-9);
        assert_eq!(cfg.hbm.total_capacity(), Gigabytes::new(256.0));
        // >= 1 TB total node memory target.
        assert!(cfg.total_memory_capacity().value() >= 1000.0);
    }

    #[test]
    fn peak_throughput_tracks_cus_and_clock() {
        let cfg = EhpConfig::builder()
            .total_cus(256)
            .gpu_clock(Megahertz::new(1000.0))
            .build()
            .unwrap();
        // 256 CUs x 1 GHz x 64 FLOP/cycle = 16.384 TF (paper: ~16 TF).
        assert!((cfg.peak_throughput().teraflops() - 16.384).abs() < 1e-9);
    }

    #[test]
    fn ops_per_byte_matches_figure_axis() {
        let cfg = EhpConfig::paper_baseline();
        // 320 CU x 1 GHz / 3000 GB/s = 0.1067 (within Fig. 4-6's 0-0.35 range).
        assert!((cfg.ops_per_byte() - 320.0 / 3000.0).abs() < 1e-12);
    }

    #[test]
    fn area_budget_is_enforced() {
        let err = EhpConfig::builder().total_cus(416).build().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::AreaBudgetExceeded { cus: 416, max: 384 }
        ));
    }

    #[test]
    fn zero_components_are_rejected() {
        assert!(matches!(
            EhpConfig::builder().total_cus(0).build().unwrap_err(),
            ConfigError::ZeroComponent(_)
        ));
        let bad_cpu = CpuConfig {
            chiplets: 0,
            ..CpuConfig::default()
        };
        assert!(EhpConfig::builder().cpu(bad_cpu).build().is_err());
    }

    #[test]
    fn non_positive_rates_are_rejected() {
        let err = EhpConfig::builder()
            .gpu_clock(Megahertz::new(0.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::NonPositive("GPU clock")));
        assert!(EhpConfig::builder()
            .gpu_clock(Megahertz::new(f64::NAN))
            .build()
            .is_err());
    }

    #[test]
    fn dram_only_external_reaches_target_capacity() {
        let ext = ExternalMemoryConfig::dram_only(4, Gigabytes::new(768.0));
        assert_eq!(ext.total_modules(), 32);
        assert!((ext.total_capacity().value() - 768.0).abs() < 1e-9);
        assert_eq!(ext.nvm_capacity_fraction(), 0.0);
    }

    #[test]
    fn hybrid_keeps_capacity_but_sheds_modules() {
        let dram = ExternalMemoryConfig::dram_only(4, Gigabytes::new(768.0));
        let hybrid = ExternalMemoryConfig::hybrid(4, Gigabytes::new(768.0));
        // Half the capacity is NVM...
        assert!((hybrid.nvm_capacity_fraction() - 0.5).abs() < 1e-9);
        // ...total capacity is preserved...
        assert!((hybrid.total_capacity() / dram.total_capacity() - 1.0).abs() < 1e-9);
        // ...with strictly fewer modules (and hence SerDes links).
        assert!(hybrid.total_modules() < dram.total_modules());
    }

    #[test]
    fn cpu_core_count() {
        assert_eq!(CpuConfig::default().total_cores(), 32);
    }
}

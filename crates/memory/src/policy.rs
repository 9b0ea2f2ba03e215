//! Multi-level memory management policies (paper Section II-B.3).
//!
//! The ENA's primary mode is *software-controlled*: the OS monitors page
//! activity and migrates hot pages into the in-package DRAM each epoch
//! ([`SoftwareManaged`], after the HMA approach the paper cites). The
//! hardware-cache mode ([`HardwareCache`]) instead treats the in-package
//! DRAM as a memory-side cache, sacrificing addressable capacity. A
//! [`StaticPlacement`] baseline pins a fixed fraction of pages in-package.
//!
//! Policies answer one question per access — *was this page serviced
//! in-package?* — and their quality is summarized by the in-package service
//! fraction, the knob Fig. 8 sweeps.

use ena_model::paged::PagedSlots;

/// Page size used by the management policies.
pub const PAGE_BYTES: u64 = 4096;

/// A placement decision for one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Serviced by in-package DRAM.
    InPackage,
    /// Serviced by external memory.
    External,
}

/// A multi-level memory management policy.
///
/// Implementations are driven page-by-page through a trace via
/// [`PlacementPolicy::access`], with [`PlacementPolicy::end_epoch`] called
/// at epoch boundaries (software policies migrate there).
pub trait PlacementPolicy {
    /// Records an access to the page containing `addr` and reports where
    /// it was serviced.
    fn access(&mut self, addr: u64, is_write: bool) -> Placement;

    /// Ends a monitoring epoch; returns the number of pages migrated.
    fn end_epoch(&mut self) -> u64 {
        0
    }

    /// Human-readable policy name.
    fn name(&self) -> &'static str;
}

/// Pins a deterministic, uniformly spread fraction of pages in-package.
///
/// Models first-touch/static allocation where a fixed share of the data
/// set fits in-package, and serves as the Fig. 8 knob: an
/// `in_package_fraction` of `1.0 - miss_rate` produces the paper's
/// artificial miss-rate sweep.
#[derive(Clone, Debug)]
pub struct StaticPlacement {
    fraction: f64,
}

impl StaticPlacement {
    /// Creates a policy servicing `fraction` of pages in-package.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn new(fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        Self { fraction }
    }
}

impl PlacementPolicy for StaticPlacement {
    fn access(&mut self, addr: u64, _is_write: bool) -> Placement {
        let page = addr / PAGE_BYTES;
        // Low-bias multiplicative hash to [0,1).
        let h = page.wrapping_mul(0x9E3779B97F4A7C15);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.fraction {
            Placement::InPackage
        } else {
            Placement::External
        }
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// HMA-style software-managed migration: per-epoch page access counters;
/// at each epoch boundary the hottest pages (up to in-package capacity)
/// are mapped in-package for the next epoch.
///
/// Each page gets a dense slot ([`PagedSlots`]), and its count and
/// residency live in `Vec`s indexed by slot.
#[derive(Clone, Debug)]
pub struct SoftwareManaged {
    capacity_pages: usize,
    slots: PagedSlots,
    /// Access count of each slot's page this epoch.
    counts: Vec<u64>,
    /// Whether each slot's page is resident in-package.
    resident: Vec<bool>,
    /// The resident slots.
    residents: Vec<usize>,
    /// Slots counted this epoch, in first-touch order.
    touched: Vec<usize>,
    /// True until the first epoch ends: pages are first-touch allocated
    /// in-package while space remains (cold start).
    cold_start: bool,
}

impl SoftwareManaged {
    /// Creates a policy with `capacity_bytes` of in-package memory.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_pages: (capacity_bytes / PAGE_BYTES) as usize,
            slots: PagedSlots::new(),
            counts: Vec::new(),
            resident: Vec::new(),
            residents: Vec::new(),
            touched: Vec::new(),
            cold_start: true,
        }
    }

    /// Number of pages currently resident in-package.
    pub fn resident_pages(&self) -> usize {
        self.residents.len()
    }
}

impl PlacementPolicy for SoftwareManaged {
    fn access(&mut self, addr: u64, _is_write: bool) -> Placement {
        let slot = self.slots.slot(addr / PAGE_BYTES);
        self.counts.resize(self.slots.len(), 0);
        self.resident.resize(self.slots.len(), false);
        if self.counts[slot] == 0 {
            self.touched.push(slot);
        }
        self.counts[slot] += 1;
        if self.resident[slot] {
            Placement::InPackage
        } else if self.cold_start && self.residents.len() < self.capacity_pages {
            // First-touch fill while in-package space remains; after the
            // first epoch, placement changes only at epoch boundaries.
            self.resident[slot] = true;
            self.residents.push(slot);
            Placement::InPackage
        } else {
            Placement::External
        }
    }

    fn end_epoch(&mut self) -> u64 {
        self.cold_start = false;
        // Keep the hottest `capacity_pages` of the pages counted this
        // epoch, ranked by (count desc, page asc).
        let mut hottest = std::mem::take(&mut self.touched);
        if hottest.len() > self.capacity_pages {
            hottest.select_nth_unstable_by(self.capacity_pages, |&a, &b| {
                self.counts[b]
                    .cmp(&self.counts[a])
                    .then(self.slots.key(a).cmp(&self.slots.key(b)))
            });
        }
        for &slot in &hottest {
            self.counts[slot] = 0;
        }
        hottest.truncate(self.capacity_pages);
        let migrations = hottest.iter().filter(|&&slot| !self.resident[slot]).count() as u64;
        for &slot in &self.residents {
            self.resident[slot] = false;
        }
        for &slot in &hottest {
            self.resident[slot] = true;
        }
        self.residents = hottest;
        migrations
    }

    fn name(&self) -> &'static str {
        "software-managed"
    }
}

/// Hardware-cache mode: in-package DRAM as a direct-mapped page-granular
/// memory-side cache over the external address space.
///
/// Fig. 8's footnote distinguishes this from the software modes; Section
/// II-B.3 notes it sacrifices addressable capacity (the in-package bytes no
/// longer add to the pool) but needs no software management.
#[derive(Clone, Debug)]
pub struct HardwareCache {
    sets: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
}

impl HardwareCache {
    /// Creates a cache of `capacity_bytes` in-package storage.
    pub fn new(capacity_bytes: u64) -> Self {
        let sets = (capacity_bytes / PAGE_BYTES).max(1) as usize;
        Self {
            sets: vec![None; sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Cache hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl PlacementPolicy for HardwareCache {
    fn access(&mut self, addr: u64, _is_write: bool) -> Placement {
        let page = addr / PAGE_BYTES;
        let set = (page % self.sets.len() as u64) as usize;
        if self.sets[set] == Some(page) {
            self.hits += 1;
            Placement::InPackage
        } else {
            self.sets[set] = Some(page);
            self.misses += 1;
            Placement::External
        }
    }

    fn name(&self) -> &'static str {
        "hardware-cache"
    }
}

/// Set-associative LRU variant of the hardware-cache mode, with dirty-line
/// writeback accounting — the "more advanced DRAM cache organizations" the
/// paper's citations (refs 34, 35) study.
#[derive(Clone, Debug)]
pub struct SetAssociativeCache {
    /// `sets[s]` holds up to `ways` `(page, dirty)` entries, LRU-first.
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl SetAssociativeCache {
    /// Creates a cache of `capacity_bytes` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or capacity holds fewer pages than `ways`.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let pages = (capacity_bytes / PAGE_BYTES) as usize;
        assert!(pages >= ways, "capacity smaller than one set");
        Self {
            sets: vec![Vec::with_capacity(ways); (pages / ways).max(1)],
            ways,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Cache hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Dirty pages written back to external memory so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }
}

impl PlacementPolicy for SetAssociativeCache {
    fn access(&mut self, addr: u64, is_write: bool) -> Placement {
        let page = addr / PAGE_BYTES;
        let set_count = self.sets.len() as u64;
        let set = &mut self.sets[(page % set_count) as usize];
        if let Some(pos) = set.iter().position(|&(p, _)| p == page) {
            let (_, dirty) = set.remove(pos);
            set.push((page, dirty || is_write));
            self.hits += 1;
            return Placement::InPackage;
        }
        self.misses += 1;
        if set.len() == self.ways {
            let (_, dirty) = set.remove(0);
            if dirty {
                self.writebacks += 1;
            }
        }
        set.push((page, is_write));
        Placement::External
    }

    fn name(&self) -> &'static str {
        "set-associative-cache"
    }
}

/// Result of driving a policy through a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PolicyStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses serviced in-package.
    pub in_package: u64,
    /// Total page migrations across epochs.
    pub migrations: u64,
}

impl PolicyStats {
    /// Fraction of accesses serviced by in-package memory.
    pub fn in_package_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.in_package as f64 / self.accesses as f64
        }
    }

    /// The paper's "miss rate": fraction serviced by external memory.
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.in_package_fraction()
    }
}

/// Replays `(addr, is_write)` pairs through `policy`, ending an epoch every
/// `epoch_len` accesses.
pub fn run_policy(
    policy: &mut dyn PlacementPolicy,
    accesses: impl IntoIterator<Item = (u64, bool)>,
    epoch_len: u64,
) -> PolicyStats {
    let mut stats = PolicyStats::default();
    let mut since_epoch = 0u64;
    for (addr, is_write) in accesses {
        if policy.access(addr, is_write) == Placement::InPackage {
            stats.in_package += 1;
        }
        stats.accesses += 1;
        since_epoch += 1;
        if since_epoch == epoch_len {
            stats.migrations += policy.end_epoch();
            since_epoch = 0;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(pages: u64, repeats: u64) -> Vec<(u64, bool)> {
        let mut v = Vec::new();
        for _ in 0..repeats {
            for p in 0..pages {
                v.push((p * PAGE_BYTES, false));
            }
        }
        v
    }

    #[test]
    fn static_placement_tracks_its_fraction() {
        for target in [0.0, 0.25, 0.5, 0.8, 1.0] {
            let mut policy = StaticPlacement::new(target);
            let stats = run_policy(&mut policy, stream(20_000, 1), u64::MAX);
            assert!(
                (stats.in_package_fraction() - target).abs() < 0.02,
                "target {target}, got {}",
                stats.in_package_fraction()
            );
        }
    }

    #[test]
    fn software_managed_captures_hot_pages_after_an_epoch() {
        // 64 pages of capacity; 32 hot pages hit every epoch, 512 cold
        // pages streamed once each epoch.
        let mut policy = SoftwareManaged::new(64 * PAGE_BYTES);
        let mut trace = Vec::new();
        for epoch in 0..4 {
            for rep in 0..8 {
                for hot in 0..32u64 {
                    trace.push((hot * PAGE_BYTES, false));
                    let cold = 1000 + epoch * 512 + rep * 64 + hot;
                    trace.push((cold * PAGE_BYTES, false));
                }
            }
        }
        let epoch_len = trace.len() as u64 / 4;
        let stats = run_policy(&mut policy, trace, epoch_len);
        // After the first epoch, hot pages are resident: roughly half of
        // all accesses (the hot half) hit in-package.
        assert!(
            stats.in_package_fraction() > 0.4,
            "{}",
            stats.in_package_fraction()
        );
        assert!(stats.migrations > 0);
    }

    #[test]
    fn software_managed_respects_capacity() {
        let mut policy = SoftwareManaged::new(16 * PAGE_BYTES);
        let _ = run_policy(&mut policy, stream(1000, 2), 500);
        assert!(policy.resident_pages() <= 16);
    }

    #[test]
    fn hardware_cache_hits_on_reuse_and_thrashes_on_streams() {
        let mut cache = HardwareCache::new(256 * PAGE_BYTES);
        // Reuse of a small set: high hit rate.
        let stats = run_policy(&mut cache, stream(64, 10), u64::MAX);
        assert!(stats.in_package_fraction() > 0.85);

        let mut cache = HardwareCache::new(256 * PAGE_BYTES);
        // Stream over 10x capacity: almost no hits.
        let stats = run_policy(&mut cache, stream(2560, 2), u64::MAX);
        assert!(stats.in_package_fraction() < 0.1);
    }

    #[test]
    fn set_associative_cache_retains_a_working_set_direct_mapping_thrashes() {
        // Two pages aliasing to the same direct-mapped set ping-pong; a
        // 4-way cache holds both.
        let sets = 256u64;
        let a = 0u64;
        let b = sets * PAGE_BYTES; // same set as `a` in the direct-mapped cache
        let mut direct = HardwareCache::new(sets * PAGE_BYTES);
        let mut assoc = SetAssociativeCache::new(sets * PAGE_BYTES, 4);
        for _ in 0..100 {
            direct.access(a, false);
            direct.access(b, false);
            assoc.access(a, false);
            assoc.access(b, false);
        }
        assert!(direct.hit_rate() < 0.05, "direct {}", direct.hit_rate());
        assert!(assoc.hit_rate() > 0.9, "assoc {}", assoc.hit_rate());
    }

    #[test]
    fn dirty_evictions_produce_writebacks() {
        let mut cache = SetAssociativeCache::new(16 * PAGE_BYTES, 2);
        // Write-stream over 10x capacity: every eviction is dirty.
        for p in 0..160u64 {
            cache.access(p * PAGE_BYTES, true);
        }
        assert!(cache.writebacks() > 100, "{}", cache.writebacks());
        // Read-only streams write nothing back.
        let mut clean = SetAssociativeCache::new(16 * PAGE_BYTES, 2);
        for p in 0..160u64 {
            clean.access(p * PAGE_BYTES, false);
        }
        assert_eq!(clean.writebacks(), 0);
    }

    #[test]
    fn miss_rate_complements_in_package_fraction() {
        let stats = PolicyStats {
            accesses: 100,
            in_package: 80,
            migrations: 0,
        };
        assert!((stats.in_package_fraction() - 0.8).abs() < 1e-12);
        assert!((stats.miss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let mut policy = StaticPlacement::new(0.5);
        let stats = run_policy(&mut policy, Vec::new(), 100);
        assert_eq!(stats.accesses, 0);
        assert_eq!(stats.in_package_fraction(), 0.0);
    }
}

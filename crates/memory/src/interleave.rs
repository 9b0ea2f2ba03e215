//! Physical address mapping across the multi-level memory.
//!
//! The ENA's physical address space is interleaved across memory resources
//! with software-controlled granularity (Section II-B.3). The first
//! region maps to the in-package stacks (interleaved stack-by-stack at
//! `granularity` bytes); addresses beyond in-package capacity map to the
//! external network.

/// Where an address physically lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// In-package 3D DRAM: stack index plus stack-local offset.
    InPackage {
        /// Target stack.
        stack: u32,
        /// Byte offset within the stack.
        offset: u64,
    },
    /// External memory network: network-local byte offset.
    External {
        /// Byte offset within the external address region.
        offset: u64,
    },
}

/// The node's physical address map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddressMap {
    /// Number of in-package stacks.
    pub stacks: u32,
    /// Capacity of each stack in bytes.
    pub stack_capacity: u64,
    /// Interleave granularity in bytes (power of two).
    pub granularity: u64,
}

impl AddressMap {
    /// Creates a map.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is not a power of two, or any parameter is
    /// zero, or `stack_capacity` is not a multiple of `granularity`.
    pub fn new(stacks: u32, stack_capacity: u64, granularity: u64) -> Self {
        assert!(
            granularity.is_power_of_two(),
            "granularity must be a power of two"
        );
        assert!(stacks > 0 && stack_capacity > 0, "empty memory");
        assert!(
            stack_capacity.is_multiple_of(granularity),
            "stack capacity must be granule-aligned"
        );
        Self {
            stacks,
            stack_capacity,
            granularity,
        }
    }

    /// Total in-package capacity in bytes.
    pub fn in_package_bytes(&self) -> u64 {
        u64::from(self.stacks) * self.stack_capacity
    }

    /// Maps a physical byte address to its tier.
    pub fn locate(&self, addr: u64) -> Tier {
        let in_pkg = self.in_package_bytes();
        if addr < in_pkg {
            let granule = addr / self.granularity;
            let stack = (granule % u64::from(self.stacks)) as u32;
            let stack_granule = granule / u64::from(self.stacks);
            Tier::InPackage {
                stack,
                offset: stack_granule * self.granularity + addr % self.granularity,
            }
        } else {
            Tier::External {
                offset: addr - in_pkg,
            }
        }
    }

    /// Folds an arbitrary logical address into the in-package region and
    /// maps it: `(stack, offset)` for `addr % in_package_bytes()`.
    ///
    /// Total by construction — callers that already decided an access is
    /// serviced in-package get a placement without re-matching [`Tier`].
    pub fn fold_in_package(&self, addr: u64) -> (u32, u64) {
        let folded = addr % self.in_package_bytes();
        let granule = folded / self.granularity;
        let stack = (granule % u64::from(self.stacks)) as u32;
        let stack_granule = granule / u64::from(self.stacks);
        (
            stack,
            stack_granule * self.granularity + folded % self.granularity,
        )
    }

    /// Inverse of [`Self::locate`] for in-package placements.
    pub fn in_package_address(&self, stack: u32, offset: u64) -> u64 {
        let stack_granule = offset / self.granularity;
        let granule = stack_granule * u64::from(self.stacks) + u64::from(stack);
        granule * self.granularity + offset % self.granularity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        // 8 stacks x 32 GB, 4 KiB granules.
        AddressMap::new(8, 32 << 30, 4096)
    }

    #[test]
    fn low_addresses_interleave_across_stacks() {
        let m = map();
        let mut seen = std::collections::BTreeSet::new();
        for g in 0..8u64 {
            match m.locate(g * 4096) {
                Tier::InPackage { stack, .. } => {
                    seen.insert(stack);
                }
                Tier::External { .. } => panic!("low address mapped external"),
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn high_addresses_map_external() {
        let m = map();
        let boundary = m.in_package_bytes();
        assert!(matches!(m.locate(boundary), Tier::External { offset: 0 }));
        assert!(matches!(m.locate(boundary - 1), Tier::InPackage { .. }));
    }

    #[test]
    fn locate_round_trips() {
        let m = map();
        for addr in [0u64, 4095, 4096, 123_456_789, (200u64 << 30) + 77] {
            if let Tier::InPackage { stack, offset } = m.locate(addr) {
                assert_eq!(m.in_package_address(stack, offset), addr, "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn stack_offsets_stay_within_capacity() {
        let m = map();
        let last = m.in_package_bytes() - 1;
        match m.locate(last) {
            Tier::InPackage { offset, .. } => assert!(offset < m.stack_capacity),
            Tier::External { .. } => panic!("last in-package byte mapped external"),
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_granularity_is_rejected() {
        let _ = AddressMap::new(8, 32 << 30, 3000);
    }
}

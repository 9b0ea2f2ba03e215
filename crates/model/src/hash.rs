//! Stable, platform-independent structural hashing.
//!
//! `ena serve`'s store files each evaluated node record on disk under a
//! digest of everything that determines it: the workload profiles and
//! the evaluation knobs name the campaign's file, and the design point
//! names the record within it. Route tables, collective schedules and
//! fault schedules digest the same way, so tests can pin them.
//! `std::hash::Hash` is unsuitable for such keys — `DefaultHasher` is
//! explicitly not stable across releases — so this module provides a
//! fixed FNV-1a 64-bit hasher and a [`StableHash`] trait whose impls
//! visit every semantically meaningful field (floats by IEEE bit
//! pattern). The same value hashes to the same digest on every platform,
//! every run, every toolchain.
//!
//! [`MODEL_VERSION`] stamps the serve store's record file: any change to
//! the analytic models that moves numbers must bump it, which evicts
//! every stale record at once.

use crate::kernel::{KernelCategory, KernelProfile};

/// Version stamp of the analytic model stack.
///
/// Bump this whenever a calibration or model change alters any evaluated
/// number: the serve store's record file carries the stamp, and a file
/// with another stamp is evicted wholesale on open, so a stale record is
/// never served as a fresh one.
pub const MODEL_VERSION: &str = "ena-model/2";

/// A 64-bit FNV-1a hasher with a fixed, documented algorithm.
#[derive(Clone, Copy, Debug)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: Self::OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a length or index.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Absorbs an `f64` by IEEE-754 bit pattern (NaN payloads included,
    /// `-0.0 != 0.0` — bitwise identity is what cache keys need).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Types with a stable structural digest.
pub trait StableHash {
    /// Feeds every semantically meaningful field to the hasher.
    fn stable_hash(&self, h: &mut StableHasher);
}

impl StableHash for u32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(*self);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(*self);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bool(*self);
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_bool(false),
            Some(v) => {
                h.write_bool(true);
                v.stable_hash(h);
            }
        }
    }
}

impl StableHash for KernelCategory {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(match self {
            KernelCategory::ComputeIntensive => 0,
            KernelCategory::Balanced => 1,
            KernelCategory::MemoryIntensive => 2,
        });
    }
}

impl StableHash for KernelProfile {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(&self.name);
        self.category.stable_hash(h);
        h.write_f64(self.ops_per_byte);
        h.write_f64(self.utilization);
        h.write_f64(self.parallelism);
        h.write_f64(self.latency_sensitivity);
        h.write_f64(self.contention_sensitivity);
        h.write_f64(self.write_fraction);
        h.write_f64(self.ext_traffic_fraction);
        h.write_f64(self.out_of_chiplet_fraction);
        h.write_f64(self.serial_fraction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest<T: StableHash + ?Sized>(value: &T) -> u64 {
        let mut h = StableHasher::new();
        value.stable_hash(&mut h);
        h.finish()
    }

    /// Pin FNV-1a to its reference vectors so the on-disk format cannot
    /// silently change.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = StableHasher::new();
        assert_eq!(h.finish(), 0xCBF2_9CE4_8422_2325);
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
        let mut h = StableHasher::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171F73967E8);
    }

    #[test]
    fn float_hashing_is_bitwise() {
        assert_ne!(digest(&0.0f64), digest(&-0.0f64));
        assert_eq!(digest(&1.5f64), digest(&1.5f64));
    }

    #[test]
    fn string_hashing_is_length_prefixed() {
        let ab_c = digest(&vec!["ab".to_string(), "c".to_string()]);
        let a_bc = digest(&vec!["a".to_string(), "bc".to_string()]);
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn profile_digest_tracks_every_field() {
        let base = KernelProfile {
            name: "k".into(),
            category: KernelCategory::Balanced,
            ops_per_byte: 4.0,
            utilization: 0.6,
            parallelism: 0.8,
            latency_sensitivity: 0.3,
            contention_sensitivity: 0.2,
            write_fraction: 0.3,
            ext_traffic_fraction: 0.5,
            out_of_chiplet_fraction: 0.85,
            serial_fraction: 0.02,
        };
        let d0 = digest(&base);
        let mut tweaked = base.clone();
        tweaked.contention_sensitivity = 0.25;
        assert_ne!(d0, digest(&tweaked));
        let mut renamed = base.clone();
        renamed.name = "k2".into();
        assert_ne!(d0, digest(&renamed));
    }
}

//! Memory-trace recording for the proxy mini-kernels.
//!
//! Each proxy application executes a real (scaled-down) computation while
//! reporting its loads and stores to a [`Tracer`]. Addresses are *logical*
//! byte addresses in the application's flat data space (array base + offset),
//! which downstream consumers (the memory and NoC simulators) interleave
//! across physical resources.
//!
//! Traces are recorded at cache-line granularity with consecutive-duplicate
//! suppression, approximating the request stream a last-level cache would
//! emit toward DRAM.

use ena_model::paged::PagedSlots;

/// Cache-line size used for trace coalescing (bytes).
pub const LINE_BYTES: u64 = 64;

/// Direction of a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One cache-line-granular memory access in a kernel's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Line-aligned logical byte address.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// The cache-line index of this access.
    pub fn line(&self) -> u64 {
        self.addr / LINE_BYTES
    }
}

/// A recorded memory trace plus running statistics.
///
/// The statistics (footprint, sequentiality, read/write mix) cover every
/// recorded access, so they are available even when the access list
/// itself is capped to bound memory use. Sequentiality and the mix are
/// maintained incrementally; the footprint is counted by the [`Tracer`]
/// when it finishes.
#[derive(Clone, Debug, Default)]
pub struct MemoryTrace {
    accesses: Vec<Access>,
    capacity_cap: Option<usize>,
    total_accesses: u64,
    writes: u64,
    sequential: u64,
    last_line: Option<u64>,
    footprint_lines: u64,
}

impl MemoryTrace {
    /// Creates an empty trace with unbounded storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace that stores at most `cap` accesses (statistics keep
    /// counting past the cap).
    pub fn with_capacity_cap(cap: usize) -> Self {
        Self {
            capacity_cap: Some(cap),
            ..Self::default()
        }
    }

    fn record(&mut self, access: Access) {
        self.total_accesses += 1;
        if access.kind == AccessKind::Write {
            self.writes += 1;
        }
        let line = access.line();
        if let Some(last) = self.last_line {
            if line == last + 1 {
                self.sequential += 1;
            }
        }
        self.last_line = Some(line);
        if self
            .capacity_cap
            .is_none_or(|cap| self.accesses.len() < cap)
        {
            self.accesses.push(access);
        }
    }

    /// The stored accesses (possibly truncated to the capacity cap).
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Total number of recorded accesses, including those past the cap.
    pub fn len(&self) -> u64 {
        self.total_accesses
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_accesses == 0
    }

    /// Total bytes moved (accesses x line size).
    pub fn total_bytes(&self) -> u64 {
        self.total_accesses * LINE_BYTES
    }

    /// Fraction of accesses that are writes.
    pub fn write_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.writes as f64 / self.total_accesses as f64
        }
    }

    /// Fraction of accesses whose line directly follows the previous line —
    /// a cheap proxy for streaming (prefetch-friendly) behaviour.
    pub fn sequential_fraction(&self) -> f64 {
        if self.total_accesses <= 1 {
            0.0
        } else {
            self.sequential as f64 / (self.total_accesses - 1) as f64
        }
    }

    /// Number of distinct cache lines touched.
    pub fn footprint_lines(&self) -> u64 {
        self.footprint_lines
    }

    /// Data footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_lines() * LINE_BYTES
    }

    /// Mean number of accesses per touched line (temporal reuse).
    pub fn reuse_factor(&self) -> f64 {
        let lines = self.footprint_lines();
        if lines == 0 {
            0.0
        } else {
            self.total_accesses as f64 / lines as f64
        }
    }
}

/// Operation counters accumulated by a kernel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Double-precision floating-point operations executed.
    pub dp_flops: u64,
    /// Integer/address operations executed (informational).
    pub int_ops: u64,
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` double-precision FLOPs.
    pub fn add_flops(&mut self, n: u64) {
        self.dp_flops += n;
    }

    /// Adds `n` integer operations.
    pub fn add_int_ops(&mut self, n: u64) {
        self.int_ops += n;
    }
}

/// A small set-associative LRU filter cache.
///
/// Models the on-chip cache hierarchy between the kernel and DRAM: only
/// misses (and dirty evictions) reach the recorded trace, so the trace
/// approximates the DRAM-level request stream rather than the raw
/// load/store stream.
#[derive(Clone, Debug)]
struct FilterCache {
    /// `sets[s]` holds up to `ways` entries of `(line, dirty)`, LRU-first.
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
}

/// Outcome of probing the filter cache.
enum FilterOutcome {
    Hit,
    Miss {
        /// Dirty victim line that must be written back, if any.
        writeback: Option<u64>,
    },
}

impl FilterCache {
    fn new(total_lines: usize, ways: usize) -> Self {
        assert!(ways > 0 && total_lines >= ways, "degenerate cache geometry");
        let sets = (total_lines / ways).next_power_of_two();
        Self {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
        }
    }

    fn access(&mut self, line: u64, is_write: bool) -> FilterOutcome {
        let set_count = self.sets.len() as u64;
        let set = &mut self.sets[(line % set_count) as usize];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = set.remove(pos);
            set.push((line, dirty || is_write));
            return FilterOutcome::Hit;
        }
        let writeback = if set.len() == self.ways {
            let (victim, dirty) = set.remove(0);
            dirty.then_some(victim)
        } else {
            None
        };
        set.push((line, is_write));
        FilterOutcome::Miss { writeback }
    }
}

/// The distinct lines a trace touched: one bit per line, a 64-word bitmap
/// per chunk of [`CHUNK`](ena_model::paged::CHUNK) lines, so the footprint is
/// a popcount.
#[derive(Clone, Debug, Default)]
struct TouchedLines {
    slots: PagedSlots,
    /// One bit per slot of `slots`.
    bits: Vec<u64>,
}

impl TouchedLines {
    fn push(&mut self, line: u64) {
        let slot = self.slots.slot(line);
        self.bits.resize(self.slots.len() / 64, 0);
        self.bits[slot / 64] |= 1 << (slot % 64);
    }

    /// The number of distinct lines pushed.
    fn count(&self) -> u64 {
        self.bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// Records a kernel's memory behaviour and op counts as it executes.
///
/// With a filter cache attached (the default for
/// [`Tracer::for_config`]), the recorded trace contains only the accesses
/// that would miss the on-chip hierarchy and the resulting writebacks.
/// The footprint is counted as lines are recorded, one bit per distinct
/// line.
#[derive(Clone, Debug)]
pub struct Tracer {
    trace: MemoryTrace,
    counters: OpCounters,
    coalesce_line: Option<(u64, AccessKind)>,
    filter: Option<FilterCache>,
    touched: TouchedLines,
}

/// Default filter-cache capacity in lines (32 KiB of 64 B lines).
const DEFAULT_FILTER_LINES: usize = 512;
/// Default filter-cache associativity.
const DEFAULT_FILTER_WAYS: usize = 8;

impl Tracer {
    /// Creates a tracer storing the full raw access stream (no cache filter).
    pub fn new() -> Self {
        Self {
            trace: MemoryTrace::new(),
            counters: OpCounters::new(),
            coalesce_line: None,
            filter: None,
            touched: TouchedLines::default(),
        }
    }

    /// Creates a tracer storing at most `cap` accesses (no cache filter).
    pub fn with_capacity_cap(cap: usize) -> Self {
        Self {
            trace: MemoryTrace::with_capacity_cap(cap),
            ..Self::new()
        }
    }

    /// Creates the standard tracer for a proxy-app run: trace storage capped
    /// per the config and a small cache filter so the trace approximates
    /// DRAM-level traffic.
    pub fn for_config(cfg: &crate::app::RunConfig) -> Self {
        let mut t = match cfg.trace_cap {
            Some(cap) => Self::with_capacity_cap(cap),
            None => Self::new(),
        };
        t.filter = Some(FilterCache::new(DEFAULT_FILTER_LINES, DEFAULT_FILTER_WAYS));
        t
    }

    /// Attaches a cache filter of `lines` total lines and `ways`
    /// associativity; subsequent accesses record only misses/writebacks.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or `lines < ways`.
    pub fn with_filter_cache(mut self, lines: usize, ways: usize) -> Self {
        self.filter = Some(FilterCache::new(lines, ways));
        self
    }

    /// Records a load of `bytes` bytes at logical address `addr`.
    pub fn read(&mut self, addr: u64, bytes: u32) {
        self.touch(addr, bytes, AccessKind::Read);
    }

    /// Records a store of `bytes` bytes at logical address `addr`.
    pub fn write(&mut self, addr: u64, bytes: u32) {
        self.touch(addr, bytes, AccessKind::Write);
    }

    fn touch(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        debug_assert!(bytes > 0, "zero-byte access");
        let first = addr / LINE_BYTES;
        let last = (addr + u64::from(bytes) - 1) / LINE_BYTES;
        for line in first..=last {
            // Suppress immediately repeated touches of the same line with the
            // same direction: they would hit in even the smallest cache.
            if self.coalesce_line == Some((line, kind)) {
                continue;
            }
            self.coalesce_line = Some((line, kind));
            let outcome = match &mut self.filter {
                None => FilterOutcome::Miss { writeback: None },
                Some(cache) => cache.access(line, kind == AccessKind::Write),
            };
            if let FilterOutcome::Miss { writeback } = outcome {
                self.record(line, kind);
                if let Some(victim) = writeback {
                    self.record(victim, AccessKind::Write);
                }
            }
        }
    }

    fn record(&mut self, line: u64, kind: AccessKind) {
        self.trace.record(Access {
            addr: line * LINE_BYTES,
            kind,
        });
        self.touched.push(line);
    }

    /// Adds `n` double-precision FLOPs to the counters.
    pub fn flops(&mut self, n: u64) {
        self.counters.add_flops(n);
    }

    /// Adds `n` integer operations to the counters.
    pub fn int_ops(&mut self, n: u64) {
        self.counters.add_int_ops(n);
    }

    /// The accumulated counters.
    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    /// Finishes tracing, returning the trace and counters.
    ///
    /// If a filter cache is attached, its remaining dirty lines are flushed
    /// as writebacks first, so the trace accounts for all DRAM write
    /// traffic the kernel generated. The footprint is then the number of
    /// distinct lines recorded.
    pub fn into_parts(mut self) -> (MemoryTrace, OpCounters) {
        if let Some(cache) = self.filter.take() {
            let mut dirty: Vec<u64> = cache
                .sets
                .iter()
                .flatten()
                .filter(|&&(_, d)| d)
                .map(|&(line, _)| line)
                .collect();
            dirty.sort_unstable();
            for line in dirty {
                self.record(line, AccessKind::Write);
            }
        }
        self.trace.footprint_lines = self.touched.count();
        (self.trace, self.counters)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_repeated_same_line_touches() {
        let mut t = Tracer::new();
        t.read(0, 8);
        t.read(8, 8);
        t.read(16, 8); // all in line 0 -> one access
        t.read(64, 8); // line 1
        let (trace, _) = t.into_parts();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.accesses()[0].line(), 0);
        assert_eq!(trace.accesses()[1].line(), 1);
    }

    #[test]
    fn read_then_write_to_same_line_records_both() {
        let mut t = Tracer::new();
        t.read(0, 8);
        t.write(0, 8);
        let (trace, _) = t.into_parts();
        assert_eq!(trace.len(), 2);
        assert!((trace.write_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut t = Tracer::new();
        t.read(60, 8); // crosses the line-0/line-1 boundary
        let (trace, _) = t.into_parts();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn sequential_fraction_of_streaming_is_high() {
        let mut t = Tracer::new();
        for i in 0..1000u64 {
            t.read(i * LINE_BYTES, 64);
        }
        let (trace, _) = t.into_parts();
        assert!(trace.sequential_fraction() > 0.99);
        assert_eq!(trace.footprint_lines(), 1000);
        assert!((trace.reuse_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_pattern_has_low_sequentiality() {
        let mut t = Tracer::new();
        let mut x = 12345u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.read((x % 100_000) * LINE_BYTES, 8);
        }
        let (trace, _) = t.into_parts();
        assert!(trace.sequential_fraction() < 0.05);
    }

    #[test]
    fn capacity_cap_truncates_storage_not_stats() {
        let mut t = Tracer::with_capacity_cap(10);
        for i in 0..100u64 {
            t.write(i * LINE_BYTES, 64);
        }
        let (trace, _) = t.into_parts();
        assert_eq!(trace.accesses().len(), 10);
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.footprint_lines(), 100);
        assert!((trace.write_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn touched_lines_count_distinct_lines_with_one_bitmap_per_chunk() {
        use ena_model::paged::CHUNK;
        use std::collections::BTreeSet;

        let chunk = CHUNK as u64;
        // The highest line a byte address can name.
        let top = u64::MAX / LINE_BYTES;
        let regions = [0, 17 * chunk, 1 << 40, top - 3 * chunk];
        let mut touched = TouchedLines::default();
        let mut lines = BTreeSet::new();
        let mut chunks = BTreeSet::new();
        let mut x = 7u64;
        for i in 0..50_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let base = regions[(x >> 62) as usize];
            let line = match i % 3 {
                // Random lines in the three chunks after a region's base.
                0 => base + (x >> 20) % (3 * chunk),
                // Either side of a chunk boundary.
                1 => base + ((x >> 20) % 3 + 1) * chunk - (x >> 40) % 2,
                // The last few lines of the space.
                _ => top - (x >> 20) % 8,
            };
            touched.push(line);
            lines.insert(line);
            chunks.insert(line / chunk);
            if i % 1000 == 999 {
                assert_eq!(touched.count(), lines.len() as u64);
                assert_eq!(touched.bits.len(), chunks.len() * 64);
            }
        }
        assert_eq!(touched.count(), lines.len() as u64);
        assert_eq!(touched.bits.len(), chunks.len() * 64);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Tracer::new();
        t.flops(10);
        t.flops(5);
        t.int_ops(3);
        assert_eq!(t.counters().dp_flops, 15);
        assert_eq!(t.counters().int_ops, 3);
    }

    #[test]
    fn empty_trace_stats_are_safe() {
        let trace = MemoryTrace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.write_fraction(), 0.0);
        assert_eq!(trace.sequential_fraction(), 0.0);
        assert_eq!(trace.reuse_factor(), 0.0);
    }
}

//! In-package 3D DRAM (HBM-successor) stack timing and energy model.
//!
//! Models one stack as a set of channels, each with banks and an open-row
//! policy: an access to the open row pays CAS only; a conflict pays
//! precharge + activate + CAS. Bank service times serialize per bank, and
//! data transfer serializes per channel — the two queueing effects that
//! bound a stack's sustainable bandwidth.

use ena_model::units::Picojoules;

/// DRAM timing parameters, in memory-controller cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// Activate-to-column delay (tRCD).
    pub rcd: u32,
    /// Column access latency (tCAS).
    pub cas: u32,
    /// Precharge latency (tRP).
    pub rp: u32,
    /// Data burst length on the channel (tBL).
    pub burst: u32,
}

impl Default for DramTiming {
    fn default() -> Self {
        // HBM-class timings at a 1 GHz controller clock.
        Self {
            rcd: 14,
            cas: 14,
            rp: 14,
            burst: 2,
        }
    }
}

/// DRAM access energy parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramEnergy {
    /// Row activation energy per activate.
    pub activate_pj: f64,
    /// Read data + I/O energy per bit.
    pub read_pj_per_bit: f64,
    /// Write data + I/O energy per bit.
    pub write_pj_per_bit: f64,
}

impl Default for DramEnergy {
    fn default() -> Self {
        // ~1.5 pJ/bit for 2022-era stacked DRAM I/O + array access.
        Self {
            activate_pj: 900.0,
            read_pj_per_bit: 1.5,
            write_pj_per_bit: 1.7,
        }
    }
}

/// Geometry of one stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HbmGeometry {
    /// Independent channels per stack.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
}

impl Default for HbmGeometry {
    fn default() -> Self {
        Self {
            channels: 16,
            banks_per_channel: 16,
            row_bytes: 1024,
        }
    }
}

/// Whether an access read or wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

/// Result of one serviced access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceResult {
    /// Cycle at which the data transfer completes.
    pub complete_cycle: u64,
    /// Whether the access hit the open row.
    pub row_hit: bool,
    /// Energy charged for the access.
    pub energy: Picojoules,
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// One in-package 3D DRAM stack.
#[derive(Clone, Debug)]
pub struct HbmStack {
    geometry: HbmGeometry,
    timing: DramTiming,
    energy: DramEnergy,
    banks: Vec<Bank>,
    channel_busy_until: Vec<u64>,
    stats: HbmStats,
}

/// Aggregate statistics for one stack.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HbmStats {
    /// Serviced accesses.
    pub accesses: u64,
    /// Open-row hits.
    pub row_hits: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Total access energy.
    pub energy: Picojoules,
}

impl HbmStats {
    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

impl HbmStack {
    /// Creates a stack with the given geometry/timing/energy.
    pub fn new(geometry: HbmGeometry, timing: DramTiming, energy: DramEnergy) -> Self {
        let bank_count = (geometry.channels * geometry.banks_per_channel) as usize;
        Self {
            geometry,
            timing,
            energy,
            banks: vec![Bank::default(); bank_count],
            channel_busy_until: vec![0; geometry.channels as usize],
            stats: HbmStats::default(),
        }
    }

    /// Creates a stack with default (HBM-class) parameters.
    pub fn with_defaults() -> Self {
        Self::new(
            HbmGeometry::default(),
            DramTiming::default(),
            DramEnergy::default(),
        )
    }

    /// Maps a stack-local byte address to (channel, bank, row).
    fn map(&self, addr: u64) -> (usize, usize, u64) {
        let row = addr / self.geometry.row_bytes;
        let channel = (row % u64::from(self.geometry.channels)) as usize;
        let bank_in_channel = ((row / u64::from(self.geometry.channels))
            % u64::from(self.geometry.banks_per_channel)) as usize;
        let bank = channel * self.geometry.banks_per_channel as usize + bank_in_channel;
        (channel, bank, row)
    }

    /// Services `bytes` at stack-local address `addr`, arriving at
    /// `arrival_cycle`. Returns the completion cycle, row-hit status, and
    /// energy.
    pub fn service(
        &mut self,
        addr: u64,
        bytes: u32,
        dir: Direction,
        arrival_cycle: u64,
    ) -> ServiceResult {
        let (channel, bank_idx, row) = self.map(addr);
        let t = self.timing;
        let bank = &mut self.banks[bank_idx];

        let start = arrival_cycle.max(bank.busy_until);
        let (array_cycles, row_hit, activates) = match bank.open_row {
            Some(open) if open == row => (u64::from(t.cas), true, 0u32),
            Some(_) => (u64::from(t.rp + t.rcd + t.cas), false, 1),
            None => (u64::from(t.rcd + t.cas), false, 1),
        };
        bank.open_row = Some(row);

        let data_ready = start + array_cycles;
        // Data burst serializes on the channel.
        let burst_cycles = u64::from(t.burst) * (u64::from(bytes).div_ceil(32)).max(1);
        let channel_start = data_ready.max(self.channel_busy_until[channel]);
        let complete = channel_start + burst_cycles;
        self.channel_busy_until[channel] = complete;
        bank.busy_until = data_ready;

        let bits = f64::from(bytes) * 8.0;
        let per_bit = match dir {
            Direction::Read => self.energy.read_pj_per_bit,
            Direction::Write => self.energy.write_pj_per_bit,
        };
        let energy =
            Picojoules::new(bits * per_bit + f64::from(activates) * self.energy.activate_pj);

        self.stats.accesses += 1;
        self.stats.bytes += u64::from(bytes);
        if row_hit {
            self.stats.row_hits += 1;
        }
        self.stats.energy += energy;

        ServiceResult {
            complete_cycle: complete,
            row_hit,
            energy,
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> HbmStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_same_row_accesses_hit_the_row_buffer() {
        let mut stack = HbmStack::with_defaults();
        let first = stack.service(0, 64, Direction::Read, 0);
        assert!(!first.row_hit);
        let second = stack.service(64, 64, Direction::Read, first.complete_cycle);
        assert!(second.row_hit);
        assert!(stack.stats().row_hit_rate() > 0.0);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut stack = HbmStack::with_defaults();
        let geo = HbmGeometry::default();
        // Two rows mapping to the same bank: rows differ by
        // channels * banks_per_channel row strides.
        let stride = geo.row_bytes * u64::from(geo.channels) * u64::from(geo.banks_per_channel);
        let a = stack.service(0, 64, Direction::Read, 0);
        let b = stack.service(stride, 64, Direction::Read, a.complete_cycle);
        assert!(!b.row_hit);
        let t_conflict = b.complete_cycle - a.complete_cycle;
        // Conflict latency exceeds a fresh activate (rp extra).
        let fresh = a.complete_cycle; // first access from idle
        assert!(t_conflict > fresh);
    }

    #[test]
    fn channel_serialization_bounds_bandwidth() {
        let mut stack = HbmStack::with_defaults();
        // Flood one channel: same row, back-to-back 64-byte reads.
        let mut complete = 0;
        for i in 0..1000u64 {
            let r = stack.service(i * 64 % 1024, 64, Direction::Read, 0);
            complete = complete.max(r.complete_cycle);
        }
        // 1000 bursts x 4 cycles each cannot finish faster than serialized.
        assert!(complete >= 1000 * 4);
    }

    #[test]
    fn writes_cost_more_energy_than_reads() {
        let mut a = HbmStack::with_defaults();
        let mut b = HbmStack::with_defaults();
        let r = a.service(0, 64, Direction::Read, 0);
        let w = b.service(0, 64, Direction::Write, 0);
        assert!(w.energy.value() > r.energy.value());
    }

    #[test]
    fn parallel_channels_overlap() {
        let mut stack = HbmStack::with_defaults();
        let geo = HbmGeometry::default();
        // Addresses in different channels (consecutive rows).
        let t1 = stack.service(0, 64, Direction::Read, 0).complete_cycle;
        let t2 = stack
            .service(geo.row_bytes, 64, Direction::Read, 0)
            .complete_cycle;
        // Both finish around the same time: no serialization across channels.
        assert!(t2 <= t1 + 1);
    }
}

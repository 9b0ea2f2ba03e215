//! Deterministic, seeded filesystem fault injection.
//!
//! Production code that persists state (the sweep cache, checkpoint
//! files) talks to the filesystem through the [`Vfs`] trait instead of
//! calling `std::fs` directly. In production the implementation is
//! [`RealFs`], a zero-cost passthrough. Under test, [`ChaosFs`] wraps
//! the real filesystem with a *seeded failpoint registry*: every
//! operation consumes one index from a global counter, and a SplitMix64
//! stream keyed by `(seed, index)` decides whether that operation
//! succeeds, fails outright, lands only a prefix of its bytes
//! (short write), or lands a prefix plus trailing garbage (torn write).
//!
//! Two properties make the layer usable for chaos campaigns:
//!
//! - **Determinism.** The fault schedule is a pure function of the seed
//!   and the operation index, so a failing campaign replays exactly.
//! - **Honest acknowledgement.** An injected fault always surfaces as an
//!   `Err` to the caller; `ChaosFs` never lies about success. Durability
//!   invariants ("no acknowledged record is ever lost") are therefore
//!   meaningful: only operations that returned `Ok` are acknowledged.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::rng::SplitMix64;

/// A writable file handle handed out by a [`Vfs`].
///
/// The `io::Write` supertrait covers buffered writes and `flush`
/// (push to the OS); `sync_all` additionally forces the OS to push the
/// bytes to the device (`fsync`), the step that makes a write durable
/// across a crash.
pub trait VfsFile: io::Write + Send {
    /// Forces everything written so far to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem surface the execution substrate is allowed to use.
///
/// Deliberately small: append-only data files plus the
/// write-temp → `sync_all` → [`rename`](Vfs::rename) idiom for atomic
/// replacement. Everything the sweep cache and checkpoint paths need,
/// and nothing more — a small surface is what makes exhaustive fault
/// injection tractable.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads the entire file as raw bytes.
    ///
    /// Bytes, not a `String`: a torn write can leave non-UTF-8 garbage
    /// at the tail, and readers must be able to salvage the intact
    /// prefix instead of rejecting the whole file.
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Opens `path` for appending, creating it if missing.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Creates `path` fresh (truncating any existing file).
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically renames `from` onto `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: a direct passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RealFs;

impl VfsFile for fs::File {
    fn sync_all(&mut self) -> io::Result<()> {
        fs::File::sync_all(self)
    }
}

impl Vfs for RealFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(file))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(fs::File::create(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
}

/// Per-mille fault rates for a [`ChaosFs`].
///
/// Rates are evaluated per operation in the order fail → short → torn,
/// so `fail + short + torn` out of 1000 data-carrying writes are faulted
/// overall. Short and torn writes only exist for data-carrying writes;
/// other operations (open, rename, read, flush, sync) are only
/// subject to `fail_permille`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Chance (per mille) an operation fails outright with no effect.
    pub fail_permille: u16,
    /// Chance (per mille) a write lands only a prefix, then errors.
    pub short_permille: u16,
    /// Chance (per mille) a write lands a prefix plus garbage bytes,
    /// then errors.
    pub torn_permille: u16,
}

impl ChaosConfig {
    /// A moderately hostile default: 2% hard failures, 1% short writes,
    /// 1% torn writes.
    pub fn default_rates() -> Self {
        Self {
            fail_permille: 20,
            short_permille: 10,
            torn_permille: 10,
        }
    }

    /// A passthrough configuration that never injects anything.
    pub fn quiet() -> Self {
        Self {
            fail_permille: 0,
            short_permille: 0,
            torn_permille: 0,
        }
    }
}

/// Counters of what a [`ChaosFs`] actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Operations observed (faulted or not).
    pub ops: u64,
    /// Operations failed outright.
    pub failed: u64,
    /// Writes cut short (prefix only).
    pub short_writes: u64,
    /// Writes torn (prefix plus garbage).
    pub torn_writes: u64,
}

impl ChaosCounts {
    /// Total injected faults of any kind.
    pub fn injected(&self) -> u64 {
        self.failed + self.short_writes + self.torn_writes
    }
}

/// What the failpoint registry decided for one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    Fail,
    Short,
    Torn,
}

/// A seeded fault-injecting [`Vfs`] over the real filesystem.
///
/// Clones share one operation counter (and counts), so a `ChaosFs`
/// and the file handles it hands out consume indices from the same
/// deterministic schedule.
#[derive(Clone, Debug)]
pub struct ChaosFs {
    seed: u64,
    config: ChaosConfig,
    counts: Arc<Mutex<ChaosCounts>>,
}

impl ChaosFs {
    /// A chaos filesystem drawing its fault schedule from `seed`.
    pub fn new(seed: u64, config: ChaosConfig) -> Self {
        Self {
            seed,
            config,
            counts: Arc::new(Mutex::new(ChaosCounts::default())),
        }
    }

    /// Snapshot of the operation/fault counters so far.
    pub fn counts(&self) -> ChaosCounts {
        *self.lock()
    }

    /// Locks the shared counters, recovering from a poisoned sibling:
    /// the data is plain counters, valid regardless of where a holder
    /// panicked.
    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosCounts> {
        self.counts
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Draws the fault decision for the next operation index and returns
    /// it along with a per-operation RNG for prefix/garbage sampling.
    fn decide(&self, write_sized: bool) -> (Fault, SplitMix64, u64) {
        let mut counts = self.lock();
        let index = counts.ops;
        counts.ops += 1;
        let mut rng = SplitMix64::new(self.seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        let draw = rng.next_u64() % 1000;
        let c = self.config;
        let fail = u64::from(c.fail_permille);
        let short = fail + u64::from(c.short_permille);
        let torn = short + u64::from(c.torn_permille);
        let fault = if draw < fail {
            Fault::Fail
        } else if write_sized && draw < short {
            Fault::Short
        } else if write_sized && draw < torn {
            Fault::Torn
        } else {
            Fault::None
        };
        match fault {
            Fault::None => {}
            Fault::Fail => counts.failed += 1,
            Fault::Short => counts.short_writes += 1,
            Fault::Torn => counts.torn_writes += 1,
        }
        (fault, rng, index)
    }

    fn injected_error(index: u64, what: &str) -> io::Error {
        io::Error::other(format!("chaos: injected {what} (op {index})"))
    }
}

impl Vfs for ChaosFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let (fault, _, index) = self.decide(false);
        if fault != Fault::None {
            return Err(Self::injected_error(index, "create_dir_all failure"));
        }
        RealFs.create_dir_all(dir)
    }

    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (fault, _, index) = self.decide(false);
        if fault != Fault::None {
            return Err(Self::injected_error(index, "read failure"));
        }
        RealFs.read_bytes(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (fault, _, index) = self.decide(false);
        if fault != Fault::None {
            return Err(Self::injected_error(index, "open failure"));
        }
        let inner = RealFs.open_append(path)?;
        Ok(Box::new(ChaosFile {
            inner,
            chaos: self.clone(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (fault, _, index) = self.decide(false);
        if fault != Fault::None {
            return Err(Self::injected_error(index, "create failure"));
        }
        let inner = RealFs.create(path)?;
        Ok(Box::new(ChaosFile {
            inner,
            chaos: self.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (fault, _, index) = self.decide(false);
        if fault != Fault::None {
            return Err(Self::injected_error(index, "rename failure"));
        }
        RealFs.rename(from, to)
    }
}

/// A file handle whose writes pass through the failpoint registry.
struct ChaosFile {
    inner: Box<dyn VfsFile>,
    chaos: ChaosFs,
}

impl io::Write for ChaosFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (fault, mut rng, index) = self.chaos.decide(!buf.is_empty());
        match fault {
            Fault::None => self.inner.write(buf),
            Fault::Fail => Err(ChaosFs::injected_error(index, "write failure")),
            Fault::Short => {
                let keep = (rng.next_u64() % buf.len() as u64) as usize;
                self.inner.write_all(&buf[..keep])?;
                Err(ChaosFs::injected_error(index, "short write"))
            }
            Fault::Torn => {
                let keep = (rng.next_u64() % buf.len() as u64) as usize;
                self.inner.write_all(&buf[..keep])?;
                // 1..=8 garbage bytes, arbitrary values: torn tails may be
                // non-UTF-8, and readers must survive that.
                let garbage_len = 1 + (rng.next_u64() % 8) as usize;
                let garbage: Vec<u8> = (0..garbage_len)
                    .map(|_| {
                        let [byte, ..] = rng.next_u64().to_le_bytes();
                        byte
                    })
                    .collect();
                self.inner.write_all(&garbage)?;
                Err(ChaosFs::injected_error(index, "torn write"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        let (fault, _, index) = self.chaos.decide(false);
        if fault != Fault::None {
            return Err(ChaosFs::injected_error(index, "flush failure"));
        }
        self.inner.flush()
    }
}

impl VfsFile for ChaosFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let (fault, _, index) = self.chaos.decide(false);
        if fault != Fault::None {
            return Err(ChaosFs::injected_error(index, "sync failure"));
        }
        self.inner.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ena-testkit-chaos-{name}"));
        let _removed = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Drives a fixed operation sequence and returns (counts, file bytes).
    fn drive(seed: u64, dir: &Path) -> (ChaosCounts, Vec<u8>) {
        let chaos = ChaosFs::new(seed, ChaosConfig::default_rates());
        let path = dir.join("data");
        let _removed = fs::remove_file(&path);
        for i in 0..200u64 {
            if let Ok(mut f) = chaos.open_append(&path) {
                let _ignored = f.write_all(format!("line-{i:04}\n").as_bytes());
                let _ignored = f.sync_all();
            }
        }
        let bytes = fs::read(&path).unwrap_or_default();
        (chaos.counts(), bytes)
    }

    #[test]
    fn same_seed_same_schedule_and_same_bytes() {
        let dir = tmp("determinism");
        let (c1, b1) = drive(42, &dir);
        let (c2, b2) = drive(42, &dir);
        assert_eq!(c1, c2);
        assert_eq!(b1, b2);
        assert!(c1.injected() > 0, "default rates must inject something");
    }

    #[test]
    fn different_seeds_differ() {
        let dir = tmp("seeds");
        let (c1, _) = drive(1, &dir);
        let (c2, _) = drive(2, &dir);
        // The schedules are independent streams; byte-identical counters
        // across 600 operations would mean the seed is ignored.
        assert_ne!(
            (c1.failed, c1.short_writes, c1.torn_writes),
            (c2.failed, c2.short_writes, c2.torn_writes)
        );
    }

    #[test]
    fn quiet_config_is_a_passthrough() {
        let dir = tmp("quiet");
        let chaos = ChaosFs::new(7, ChaosConfig::quiet());
        let path = dir.join("data");
        let mut f = chaos.open_append(&path).unwrap();
        f.write_all(b"hello\n").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(chaos.read_bytes(&path).unwrap(), b"hello\n");
        let counts = chaos.counts();
        assert_eq!(counts.injected(), 0);
        assert!(counts.ops >= 4);
    }

    #[test]
    fn short_and_torn_writes_leave_only_a_prefix_and_report_an_error() {
        let dir = tmp("torn");
        // Rates force every write to be short or torn.
        let config = ChaosConfig {
            fail_permille: 0,
            short_permille: 500,
            torn_permille: 500,
        };
        let chaos = ChaosFs::new(9, config);
        let path = dir.join("data");
        let payload = b"0123456789abcdef";
        let mut f = chaos.open_append(&path).unwrap();
        let err = f.write_all(payload).unwrap_err();
        assert!(err.to_string().contains("chaos"), "{err}");
        drop(f);
        let on_disk = fs::read(&path).unwrap();
        let counts = chaos.counts();
        if counts.torn_writes > 0 {
            assert!(
                !on_disk.starts_with(payload),
                "torn write must not land fully"
            );
        } else {
            assert!(on_disk.len() < payload.len(), "short write must truncate");
            assert_eq!(&payload[..on_disk.len()], &on_disk[..]);
        }
    }

    #[test]
    fn real_fs_round_trips() {
        let dir = tmp("realfs");
        let vfs = RealFs;
        let path = dir.join("data");
        let tmp_path = dir.join("data.tmp");
        let mut f = vfs.create(&tmp_path).unwrap();
        f.write_all(b"one\n").unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.rename(&tmp_path, &path).unwrap();
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(b"two\n").unwrap();
        drop(f);
        assert_eq!(vfs.read_bytes(&path).unwrap(), b"one\ntwo\n");
        fs::remove_file(&path).unwrap();
        assert_eq!(
            vfs.read_bytes(&path).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }
}

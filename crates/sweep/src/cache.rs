//! Persistent content-addressed record cache, hardened for crash
//! consistency: the record file behind `ena-serve`'s store.
//!
//! One campaign (a fixed budget, evaluation options, and profile set)
//! maps to one append-only file under the cache directory, named by the
//! campaign digest. Each line is one evaluated design point: its
//! content-addressed key, the point coordinates, every `f64` observable
//! as an IEEE-754 bit pattern in hex — so a record round-trips through
//! disk *bit-exactly* — and a CRC32 trailer over the rest of the line.
//!
//! The cache is generic over its record type through [`CacheRecord`];
//! the serve store persists [`PointRecord`]s, and any other record type
//! gets the same header, CRC, eviction, and torn-tail machinery.
//! Crash-consistency rests on three mechanisms:
//!
//! - **Per-line CRC32.** A damaged line — torn tail, flipped bytes, even
//!   a flip that stays valid hex — fails its checksum and degrades the
//!   file to its intact prefix instead of silently decoding to a wrong
//!   number. Non-UTF-8 garbage is handled the same way: parsing is
//!   byte-level, so foreign bytes at the tail only cost the tail.
//! - **One durability policy.** Every append is flushed to the OS and
//!   fsynced before it returns, so an `Ok` from [`DiskCache::append`]
//!   means the record survives power loss. Only acknowledged records
//!   are promised.
//! - **Atomic repair.** Evicting a stale file or truncating a torn tail
//!   never overwrites the live file in place: the repaired image is
//!   written to a temp file, fsynced, and atomically renamed over the
//!   original. A crash mid-repair leaves either the old file or the new
//!   one, never a half-written hybrid. Each rewrite bumps the
//!   `generation` counter in the header, so readers can tell a repaired
//!   lineage from the original.
//!
//! All filesystem access goes through [`Vfs`], so the whole layer can be
//! driven by `ena-testkit`'s seeded [`ChaosFs`](ena_testkit::chaos::ChaosFs)
//! fault injector, as `ena-serve`'s chaos campaign does.

use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ena_core::dse::{ConfigPoint, PointEval, PointRecord};
use ena_model::units::{GigabytesPerSec, Megahertz};
use ena_testkit::chaos::{RealFs, Vfs, VfsFile};

/// Magic tag of the cache file format.
///
/// v2 added the per-line CRC32 trailer and the `generation` header
/// field; v1 files fail the header match and are evicted wholesale,
/// exactly like any other foreign file.
const FORMAT: &str = "ena-sweep-cache/2";

/// A record type the cache can persist: one line of space-separated
/// fields per record, with every `f64` encoded by bit pattern so the
/// round trip is bit-exact.
pub trait CacheRecord: Sized + Clone {
    /// Record-format tag folded into the file header, so caches holding
    /// different record types never deserialize into each other.
    const TAG: &'static str;

    /// Encodes the record as space-separated fields (no newline, no key,
    /// no checksum).
    fn encode(&self) -> String;

    /// Decodes a record from the field iterator positioned just past the
    /// key. Returns `None` for damaged input; the caller treats the line
    /// (and everything after it) as a torn tail.
    fn decode(fields: &mut std::str::Split<'_, char>) -> Option<Self>;
}

/// A cache I/O failure, tagged with the operation and the file or
/// directory involved.
///
/// Only genuine I/O faults reach this type: *corrupt content* (foreign
/// bytes, stale model stamps, torn lines, checksum failures) is not an
/// error — the damaged records are evicted and the affected points
/// simply re-evaluate, so a mangled cache degrades to a miss instead of
/// killing the sweep.
#[derive(Debug)]
pub struct CacheError {
    /// What the cache was doing when the fault hit.
    pub op: &'static str,
    /// The cache file or directory the operation touched.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl CacheError {
    fn new(op: &'static str, path: &Path, source: io::Error) -> Self {
        Self {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep cache {} on {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// On-disk cache of one campaign's evaluated records.
pub struct DiskCache<R: CacheRecord = PointRecord> {
    fs: Arc<dyn Vfs>,
    path: PathBuf,
    writer: Box<dyn VfsFile>,
    campaign: u64,
    version: String,
    generation: u64,
    /// Set when an append or a snapshot fails: the file tail is then in
    /// an unknown state, and blindly appending after it could strand
    /// acknowledged records behind garbage (prefix degradation stops at
    /// the first damaged line). The next append on a poisoned handle
    /// repairs the tail first, exactly as an open does.
    poisoned: bool,
    _record: PhantomData<fn() -> R>,
}

impl<R: CacheRecord> std::fmt::Debug for DiskCache<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache")
            .field("path", &self.path)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

/// What `load` found on disk.
struct Loaded<R> {
    entries: Vec<(u64, R)>,
    generation: u64,
    /// True when the on-disk image needs a repair rewrite: damaged
    /// lines were dropped, the header was foreign, or the file did not
    /// exist yet.
    rewrite: bool,
}

impl<R: CacheRecord> DiskCache<R> {
    /// File name of a campaign's cache inside `dir`.
    pub fn file_name(campaign: u64) -> String {
        format!("campaign-{campaign:016x}.sweep")
    }

    /// Opens (creating if needed) the cache for `campaign` on the real
    /// filesystem, returning the handle plus every intact record already
    /// on disk.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] for any I/O fault; corrupt *content*
    /// never errors (damaged records degrade to cache misses).
    pub fn open(
        dir: &Path,
        campaign: u64,
        version: &str,
    ) -> Result<(Self, Vec<(u64, R)>), CacheError> {
        Self::open_with(Arc::new(RealFs), dir, campaign, version)
    }

    /// Opens (creating if needed) the cache for `campaign` through an
    /// explicit filesystem.
    ///
    /// A file with a foreign or damaged header — including a mismatched
    /// record tag or model-version stamp — is replaced by a fresh one
    /// with a bumped generation; a torn or corrupt tail is truncated to
    /// the intact prefix. Both repairs go through write-temp → fsync →
    /// atomic rename, never an in-place overwrite.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] for any I/O fault creating the
    /// directory, reading the file, rewriting it, or reopening it for
    /// append. Corrupt *content* never errors: damaged records degrade
    /// to cache misses.
    pub fn open_with(
        fs: Arc<dyn Vfs>,
        dir: &Path,
        campaign: u64,
        version: &str,
    ) -> Result<(Self, Vec<(u64, R)>), CacheError> {
        fs.create_dir_all(dir)
            .map_err(|e| CacheError::new("create directory", dir, e))?;
        let path = dir.join(Self::file_name(campaign));
        let (writer, loaded) = Self::repair(fs.as_ref(), &path, campaign, version)?;
        Ok((
            Self {
                fs,
                path,
                writer,
                campaign,
                version: version.to_string(),
                generation: loaded.generation,
                poisoned: false,
                _record: PhantomData,
            },
            loaded.entries,
        ))
    }

    /// Replaces the on-disk image with a live snapshot of `entries`,
    /// through the same write-temp → fsync → atomic-rename machinery as
    /// crash repair: a kill at any instant leaves either the old image
    /// or the new one, never a hybrid. The generation is bumped so the
    /// snapshot lineage is visible to readers, and a handle poisoned by
    /// a failed append is healed (the snapshot rewrote the whole file
    /// from in-memory truth, so the damaged tail is gone).
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] for any I/O fault writing, syncing, or
    /// renaming the snapshot, or reopening the file for append. On
    /// error the live file is untouched and the handle is poisoned.
    pub fn snapshot(&mut self, entries: &[(u64, R)]) -> Result<(), CacheError> {
        let generation = self.generation + 1;
        let result = Self::rewrite(
            self.fs.as_ref(),
            &self.path,
            self.campaign,
            &self.version,
            generation,
            entries,
        )
        .and_then(|()| {
            self.fs
                .open_append(&self.path)
                .map_err(|e| CacheError::new("open for append", &self.path, e))
        });
        match result {
            Ok(writer) => {
                self.writer = writer;
                self.generation = generation;
                self.poisoned = false;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Loads the image at `path`, rewrites it if it is damaged or
    /// missing, and reopens it for append: the repair behind every open
    /// and behind the first append on a poisoned handle.
    fn repair(
        fs: &dyn Vfs,
        path: &Path,
        campaign: u64,
        version: &str,
    ) -> Result<(Box<dyn VfsFile>, Loaded<R>), CacheError> {
        let loaded = Self::load(fs, path, campaign, version)?;
        if loaded.rewrite {
            Self::rewrite(
                fs,
                path,
                campaign,
                version,
                loaded.generation,
                &loaded.entries,
            )?;
        }
        let writer = fs
            .open_append(path)
            .map_err(|e| CacheError::new("open for append", path, e))?;
        Ok((writer, loaded))
    }

    /// Reads and validates the on-disk image, degrading damage to the
    /// intact prefix: a torn tail is truncated under a bumped generation.
    fn load(
        fs: &dyn Vfs,
        path: &Path,
        campaign: u64,
        version: &str,
    ) -> Result<Loaded<R>, CacheError> {
        let bytes = match fs.read_bytes(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // First open of this campaign: fresh file, generation 0.
                return Ok(Loaded {
                    entries: Vec::new(),
                    generation: 0,
                    rewrite: true,
                });
            }
            Err(e) => return Err(CacheError::new("read", path, e)),
        };
        let Some(image) = parse_image::<R>(&bytes, campaign, version) else {
            // Foreign bytes, stale stamp, or wrong record tag: evict
            // wholesale under a bumped generation. The old generation is
            // unreadable, so restart the lineage at 1 to distinguish the
            // replacement from a fresh generation-0 file.
            return Ok(Loaded {
                entries: Vec::new(),
                generation: 1,
                rewrite: true,
            });
        };
        Ok(Loaded {
            entries: image.entries,
            generation: image.generation + u64::from(image.torn_tail),
            rewrite: image.torn_tail,
        })
    }

    /// Writes a repaired image (header + intact entries) to a temp file,
    /// fsyncs it, and atomically renames it over the live file.
    fn rewrite(
        fs: &dyn Vfs,
        path: &Path,
        campaign: u64,
        version: &str,
        generation: u64,
        entries: &[(u64, R)],
    ) -> Result<(), CacheError> {
        let tmp = path.with_extension("sweep.tmp");
        let mut file = fs
            .create(&tmp)
            .map_err(|e| CacheError::new("create repair temp", &tmp, e))?;
        let image: String = std::iter::once(header_line::<R>(campaign, version, generation))
            .chain(entries.iter().map(|(k, r)| entry_line(*k, r)))
            .map(|l| l + "\n")
            .collect();
        file.write_all(image.as_bytes())
            .map_err(|e| CacheError::new("write repair temp", &tmp, e))?;
        file.flush()
            .map_err(|e| CacheError::new("flush repair temp", &tmp, e))?;
        file.sync_all()
            .map_err(|e| CacheError::new("sync repair temp", &tmp, e))?;
        drop(file);
        fs.rename(&tmp, path)
            .map_err(|e| CacheError::new("rename repair temp", path, e))?;
        // Repair is complete and durable; clean up nothing: the rename
        // consumed the temp file.
        Ok(())
    }

    /// Appends one evaluated record, then flushes and fsyncs it.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] for any I/O fault during the append; the
    /// record is only *acknowledged* — promised to survive — when this
    /// returns `Ok`. A failed append poisons the handle (the file tail
    /// may hold a partial line); the next append first repairs the tail
    /// as [`DiskCache::open_with`] does — write-temp → fsync → atomic
    /// rename when the tail is damaged — and clears the poison. If that
    /// repair fails, so does the append, and the handle stays poisoned.
    pub fn append(&mut self, key: u64, record: &R) -> Result<(), CacheError> {
        if self.poisoned {
            let (writer, loaded) =
                Self::repair(self.fs.as_ref(), &self.path, self.campaign, &self.version)?;
            self.writer = writer;
            self.generation = loaded.generation;
            self.poisoned = false;
        }
        let result = self.append_inner(key, record);
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    fn append_inner(&mut self, key: u64, record: &R) -> Result<(), CacheError> {
        let line = entry_line(key, record) + "\n";
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| CacheError::new("append", &self.path, e))?;
        self.writer
            .flush()
            .map_err(|e| CacheError::new("flush append", &self.path, e))?;
        self.writer
            .sync_all()
            .map_err(|e| CacheError::new("sync append", &self.path, e))
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Generation counter from the header: 0 for a fresh file, bumped by
    /// every eviction or torn-tail repair since.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Verification report over one cache file (see [`verify_file`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Keys of every intact record, in file order.
    pub keys: Vec<u64>,
    /// Generation counter from the header.
    pub generation: u64,
    /// True when a torn or corrupt tail was dropped (legal after a
    /// crash: the tail was never acknowledged).
    pub torn_tail: bool,
}

/// Why [`verify_file`] rejected a cache file. Every variant names the
/// offending path: verification failures are operator-facing, and a
/// message that cannot say *which* file failed is useless in a cache
/// directory holding one file per campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The file could not be read at all.
    Unreadable {
        /// The file that could not be read.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        error: String,
    },
    /// The header line is missing or does not parse for this record
    /// type, campaign, and version.
    BadHeader {
        /// The file whose header was rejected.
        path: PathBuf,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unreadable { path, error } => {
                write!(f, "cache file {} unreadable: {error}", path.display())
            }
            Self::BadHeader { path } => write!(
                f,
                "cache file {} header is missing or foreign",
                path.display()
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Strictly verifies a cache file on the real filesystem: the header
/// must parse for this record type and every line up to an optional torn
/// tail must pass its CRC. Used by the chaos campaign to assert that a
/// faulted run can never leave an unparseable file behind.
///
/// # Errors
///
/// [`VerifyError::Unreadable`] when the file cannot be read,
/// [`VerifyError::BadHeader`] when the header is missing or foreign.
/// Damage *after* the header is not an error — it is reported as
/// `torn_tail`, the legal crash residue.
pub fn verify_file<R: CacheRecord>(
    path: &Path,
    campaign: u64,
    version: &str,
) -> Result<VerifyReport, VerifyError> {
    let bytes = RealFs
        .read_bytes(path)
        .map_err(|e| VerifyError::Unreadable {
            path: path.to_path_buf(),
            error: e.to_string(),
        })?;
    let image =
        parse_image::<R>(&bytes, campaign, version).ok_or_else(|| VerifyError::BadHeader {
            path: path.to_path_buf(),
        })?;
    Ok(VerifyReport {
        keys: image.entries.iter().map(|&(key, _)| key).collect(),
        generation: image.generation,
        torn_tail: image.torn_tail,
    })
}

/// What the header of a cache file declares, extracted without knowing
/// the record type, campaign, or version in advance (see
/// [`read_file_info`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheFileInfo {
    /// Record-format tag (e.g. `dse-point/1`).
    pub record_tag: String,
    /// Model-version stamp the file was written under.
    pub model: String,
    /// Campaign digest.
    pub campaign: u64,
    /// Generation counter.
    pub generation: u64,
}

/// Reads just the header of a cache file and returns what it declares,
/// so tooling (e.g. `ena cache verify`) can dispatch to the right
/// [`CacheRecord`] type and then verify the file against its *own*
/// stamps rather than externally supplied ones.
///
/// # Errors
///
/// [`VerifyError::Unreadable`] when the file cannot be read,
/// [`VerifyError::BadHeader`] when the first line is not a well-formed
/// v2 cache header.
pub fn read_file_info(path: &Path) -> Result<CacheFileInfo, VerifyError> {
    let bytes = RealFs
        .read_bytes(path)
        .map_err(|e| VerifyError::Unreadable {
            path: path.to_path_buf(),
            error: e.to_string(),
        })?;
    let bad_header = || VerifyError::BadHeader {
        path: path.to_path_buf(),
    };
    let header = bytes
        .split(|&b| b == b'\n')
        .next()
        .and_then(|raw| std::str::from_utf8(raw).ok())
        .ok_or_else(bad_header)?;
    let mut fields = header.split(' ');
    if fields.next() != Some(FORMAT) {
        return Err(bad_header());
    }
    let mut tagged = |tag: &str| -> Option<String> {
        fields
            .next()?
            .strip_prefix(tag)
            .filter(|v| !v.is_empty())
            .map(str::to_string)
    };
    let record_tag = tagged("record=").ok_or_else(bad_header)?;
    let model = tagged("model=").ok_or_else(bad_header)?;
    let campaign = tagged("campaign=")
        .as_deref()
        .and_then(hex_field)
        .ok_or_else(bad_header)?;
    let generation = tagged("generation=")
        .as_deref()
        .and_then(hex_field)
        .ok_or_else(bad_header)?;
    if fields.next().is_some() {
        return Err(bad_header());
    }
    Ok(CacheFileInfo {
        record_tag,
        model,
        campaign,
        generation,
    })
}

/// Parses one fixed-width hex `u64` field (16 digits exactly).
///
/// Every `u64` and `f64`-bit-pattern field in the cache format is
/// written `{:016x}`, so a shorter field can only be a truncated line —
/// a plain `from_str_radix` would happily decode it to a *different*
/// number, turning a torn tail into silent corruption. Record `decode`
/// implementations should parse hex fields through this.
pub fn hex_field(field: &str) -> Option<u64> {
    if field.len() != 16 {
        return None;
    }
    u64::from_str_radix(field, 16).ok()
}

/// Parses one fixed-width hex `u32` field (8 digits exactly), the shape
/// of the CRC32 trailer.
fn hex_field_u32(field: &str) -> Option<u32> {
    if field.len() != 8 {
        return None;
    }
    u32::from_str_radix(field, 16).ok()
}

/// CRC32 (IEEE 802.3, reflected 0xEDB88320 polynomial) lookup table,
/// built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i: u32 = 0;
    while i < 256 {
        let mut c = i;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i as usize] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the per-line checksum of the cache format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in bytes {
        let index = (c ^ u32::from(b)) & 0xFF;
        c = CRC_TABLE[index as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

fn header_line<R: CacheRecord>(campaign: u64, version: &str, generation: u64) -> String {
    format!(
        "{FORMAT} record={} model={version} campaign={campaign:016x} generation={generation:016x}",
        R::TAG
    )
}

/// A cache file's bytes, parsed (see [`parse_image`]).
struct Image<R> {
    /// Generation counter from the header.
    generation: u64,
    /// Every intact entry, in file order.
    entries: Vec<(u64, R)>,
    /// True when a torn or corrupt tail was dropped.
    torn_tail: bool,
}

/// Parses a cache file's bytes: `None` when the header is missing or
/// does not match this record type, campaign, and version; otherwise
/// every entry up to the first damaged line, byte-level (non-UTF-8
/// garbage only costs the lines it touches).
fn parse_image<R: CacheRecord>(bytes: &[u8], campaign: u64, version: &str) -> Option<Image<R>> {
    // Split into newline-terminated lines; a trailing fragment with no
    // newline is a torn final line and is dropped up front.
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let mut torn_tail = lines.pop().is_some_and(|last| !last.is_empty());
    let mut lines = lines.into_iter();
    let generation = lines
        .next()
        .and_then(|raw| std::str::from_utf8(raw).ok())
        .and_then(|line| parse_header::<R>(line, campaign, version))?;
    let mut entries = Vec::new();
    for raw in lines {
        match std::str::from_utf8(raw).ok().and_then(parse_entry::<R>) {
            Some(entry) => entries.push(entry),
            // Torn or corrupt line: drop it and everything after — with
            // an append-only writer nothing valid follows damage, and the
            // CRC keeps a half-line from decoding.
            None => {
                torn_tail = true;
                break;
            }
        }
    }
    Some(Image {
        generation,
        entries,
        torn_tail,
    })
}

fn parse_header<R: CacheRecord>(line: &str, campaign: u64, version: &str) -> Option<u64> {
    let prefix = format!(
        "{FORMAT} record={} model={version} campaign={campaign:016x} generation=",
        R::TAG
    );
    hex_field(line.strip_prefix(&prefix)?)
}

fn entry_line<R: CacheRecord>(key: u64, record: &R) -> String {
    let body = format!("{key:016x} {}", record.encode());
    let crc = crc32(body.as_bytes());
    format!("{body} {crc:08x}")
}

fn parse_entry<R: CacheRecord>(line: &str) -> Option<(u64, R)> {
    let (body, crc_field) = line.rsplit_once(' ')?;
    if hex_field_u32(crc_field)? != crc32(body.as_bytes()) {
        return None;
    }
    let mut fields = body.split(' ');
    let key = hex_field(fields.next()?)?;
    let record = R::decode(&mut fields)?;
    if fields.next().is_some() {
        return None;
    }
    Some((key, record))
}

impl CacheRecord for PointRecord {
    const TAG: &'static str = "dse-point/1";

    fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "{} {:016x} {:016x} {}",
            self.point.cus,
            self.point.clock.value().to_bits(),
            self.point.bandwidth.value().to_bits(),
            self.evals.len(),
        );
        for e in &self.evals {
            // fmt::Write to a String is infallible; discard the Ok.
            let _ = write!(
                line,
                " {:016x} {:016x} {:016x}",
                e.throughput.to_bits(),
                e.package_power.to_bits(),
                e.peak_dram_c.to_bits(),
            );
        }
        line
    }

    fn decode(fields: &mut std::str::Split<'_, char>) -> Option<Self> {
        let cus: u32 = fields.next()?.parse().ok()?;
        let clock = f64::from_bits(hex_field(fields.next()?)?);
        let bandwidth = f64::from_bits(hex_field(fields.next()?)?);
        let n: usize = fields.next()?.parse().ok()?;
        let mut evals = Vec::with_capacity(n);
        for _ in 0..n {
            let mut f = || Some(f64::from_bits(hex_field(fields.next()?)?));
            evals.push(PointEval {
                throughput: f()?,
                package_power: f()?,
                peak_dram_c: f()?,
            });
        }
        Some(PointRecord {
            point: ConfigPoint {
                cus,
                clock: Megahertz::new(clock),
                bandwidth: GigabytesPerSec::new(bandwidth),
            },
            evals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn record(seed: f64) -> PointRecord {
        PointRecord {
            point: ConfigPoint {
                cus: 320,
                clock: Megahertz::new(1000.0 + seed),
                bandwidth: GigabytesPerSec::new(3000.0),
            },
            evals: vec![
                PointEval {
                    throughput: 1234.5678 + seed,
                    package_power: 158.999,
                    peak_dram_c: 71.25,
                },
                PointEval {
                    throughput: 0.1 + seed,
                    package_power: 140.0,
                    peak_dram_c: 68.0,
                },
            ],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ena-sweep-cache-test-{name}"));
        match fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => panic!("cannot clear scratch dir {}: {e}", dir.display()),
        }
        dir
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let dir = tmp("roundtrip");
        let (mut cache, loaded) = DiskCache::open(&dir, 7, "v1").unwrap();
        assert!(loaded.is_empty());
        cache.append(11, &record(0.0)).unwrap();
        cache.append(22, &record(0.125)).unwrap();
        drop(cache);

        let (_, loaded) = DiskCache::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(11, record(0.0)), (22, record(0.125))]);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC32 check: crc32(b"123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn mismatched_version_stamp_evicts_the_file() {
        let dir = tmp("stamp");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        drop(cache);

        let (cache, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v2").unwrap();
        assert!(loaded.is_empty(), "stale entries must be evicted");
        assert_eq!(cache.generation(), 1, "eviction must bump the generation");
        drop(cache);
        // And the eviction is durable: reopening under the old stamp
        // finds nothing either.
        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn mismatched_record_tag_evicts_the_file() {
        #[derive(Clone, Debug, PartialEq)]
        struct Other(u64);
        impl CacheRecord for Other {
            const TAG: &'static str = "other/1";
            fn encode(&self) -> String {
                format!("{:016x}", self.0)
            }
            fn decode(fields: &mut std::str::Split<'_, char>) -> Option<Self> {
                Some(Other(u64::from_str_radix(fields.next()?, 16).ok()?))
            }
        }

        let dir = tmp("tag");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        drop(cache);

        // Same campaign digest and version, different record type: the
        // header tag differs, so the foreign file is evicted wholesale.
        let (_, loaded) = DiskCache::<Other>::open(&dir, 7, "v1").unwrap();
        assert!(loaded.is_empty(), "foreign record tag must evict");
        let (mut cache, _) = DiskCache::<Other>::open(&dir, 7, "v1").unwrap();
        cache.append(5, &Other(42)).unwrap();
        drop(cache);
        let (_, loaded) = DiskCache::<Other>::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(5, Other(42))]);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal_and_bumps_the_generation() {
        let dir = tmp("torn");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        cache.append(22, &record(1.0)).unwrap();
        let path = cache.path().to_path_buf();
        assert_eq!(cache.generation(), 0);
        drop(cache);

        // Simulate a kill mid-append: truncate the last line in half.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 20]).unwrap();

        let (mut cache, loaded) = DiskCache::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(11, record(0.0))]);
        assert_eq!(cache.generation(), 1, "repair must bump the generation");
        // The repaired file keeps accepting appends.
        cache.append(22, &record(1.0)).unwrap();
        drop(cache);
        let (cache, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(cache.generation(), 1, "clean reopen keeps the generation");
    }

    #[test]
    fn valid_hex_bit_flip_is_caught_by_the_crc() {
        let dir = tmp("bitflip");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        cache.append(22, &record(1.0)).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);

        // Flip one hex digit inside the *last* record's payload. The
        // line still lexes as valid fixed-width hex fields — before the
        // CRC trailer this decoded to a silently wrong number.
        let mut text = fs::read_to_string(&path).unwrap();
        let flip_at = text.len() - 15; // inside the final f64 field, before the CRC
        let original = text.as_bytes()[flip_at];
        let replacement = if original == b'3' { '4' } else { '3' };
        text.replace_range(flip_at..flip_at + 1, &replacement.to_string());
        fs::write(&path, &text).unwrap();

        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(
            loaded,
            vec![(11, record(0.0))],
            "the flipped record must fail its CRC and degrade to a miss"
        );
    }

    #[test]
    fn garbage_in_the_middle_degrades_to_a_shorter_prefix() {
        let dir = tmp("midbytes");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        cache.append(22, &record(1.0)).unwrap();
        cache.append(33, &record(2.0)).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);

        // Flip bytes in the middle record (line 3 of the file): the
        // intact prefix must load, the damage must cost points, not the
        // process.
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mangled: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i == 2 {
                    "zz not-hex 1 &&& garbage".to_string()
                } else {
                    (*l).to_string()
                }
            })
            .collect();
        fs::write(&path, mangled.join("\n") + "\n").unwrap();

        let (mut cache, loaded) = DiskCache::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(11, record(0.0))], "intact prefix survives");
        // The repaired file keeps accepting appends.
        cache.append(22, &record(1.0)).unwrap();
        drop(cache);
        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded.len(), 2);
    }

    #[test]
    fn non_utf8_tail_costs_only_the_tail() {
        let dir = tmp("nonutf8");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);

        // A torn write can leave raw garbage — including invalid UTF-8 —
        // after the acknowledged records. Parsing is byte-level, so the
        // acknowledged prefix must survive (v1 evicted the whole file
        // here, losing acknowledged records).
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xFF, 0xFE, 0x00, 0xC3]);
        fs::write(&path, &bytes).unwrap();

        let (mut cache, loaded) = DiskCache::open(&dir, 7, "v1").unwrap();
        assert_eq!(
            loaded,
            vec![(11, record(0.0))],
            "acknowledged records must survive trailing garbage"
        );
        cache.append(22, &record(1.0)).unwrap();
        drop(cache);
        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(11, record(0.0)), (22, record(1.0))]);
    }

    #[test]
    fn repair_is_atomic_under_injected_rename_failure() {
        use ena_testkit::chaos::{ChaosConfig, ChaosFs};

        let dir = tmp("atomic");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        cache.append(22, &record(1.0)).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);
        // Tear the tail so reopening needs a repair.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 20]).unwrap();

        // Fail *every* operation: the repair cannot even start, and the
        // live file must be untouched (no in-place overwrite).
        let before = fs::read(&path).unwrap();
        let chaos = Arc::new(ChaosFs::new(
            3,
            ChaosConfig {
                fail_permille: 1000,
                short_permille: 0,
                torn_permille: 0,
            },
        ));
        let err = DiskCache::<PointRecord>::open_with(chaos, &dir, 7, "v1").unwrap_err();
        assert!(err.to_string().contains("chaos"), "{err}");
        assert_eq!(
            fs::read(&path).unwrap(),
            before,
            "a failed repair must leave the live file byte-identical"
        );

        // And a clean retry on the real filesystem recovers the prefix.
        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(11, record(0.0))]);
    }

    #[test]
    fn acknowledged_appends_survive_chaos() {
        use ena_testkit::chaos::{ChaosConfig, ChaosFs};

        let dir = tmp("chaos-ack");
        // Drive many appends through a moderately hostile filesystem.
        // Every append that returns Ok is acknowledged; after the dust
        // settles, a clean reopen must see every acknowledged record.
        let mut acknowledged: Vec<u64> = Vec::new();
        for round in 0..8u64 {
            let chaos = Arc::new(ChaosFs::new(round, ChaosConfig::default_rates()));
            let opened = DiskCache::<PointRecord>::open_with(chaos, &dir, 7, "v1");
            let Ok((mut cache, loaded)) = opened else {
                continue; // injected open failure: nothing acknowledged
            };
            let loaded_keys: Vec<u64> = loaded.iter().map(|(k, _)| *k).collect();
            for key in &acknowledged {
                assert!(
                    loaded_keys.contains(key),
                    "round {round}: acknowledged record {key} lost"
                );
            }
            for i in 0..32u64 {
                let key = round * 100 + i;
                if cache.append(key, &record(i as f64)).is_ok() {
                    acknowledged.push(key);
                }
            }
        }
        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        let keys: Vec<u64> = loaded.iter().map(|(k, _)| *k).collect();
        for key in &acknowledged {
            assert!(keys.contains(key), "acknowledged record {key} lost");
        }
        assert!(
            !acknowledged.is_empty(),
            "chaos must let some appends through"
        );
    }

    #[test]
    fn verify_file_accepts_clean_and_torn_rejects_foreign() {
        let dir = tmp("verify");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        cache.append(22, &record(1.0)).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);

        let report = verify_file::<PointRecord>(&path, 7, "v1").unwrap();
        assert_eq!(report.keys, vec![11, 22]);
        assert!(!report.torn_tail);

        // Torn tail: still verifies, flagged as torn.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 20]).unwrap();
        let report = verify_file::<PointRecord>(&path, 7, "v1").unwrap();
        assert_eq!(report.keys, vec![11]);
        assert!(report.torn_tail);

        // Foreign header: rejected, naming the file.
        fs::write(&path, "not a cache file\n").unwrap();
        assert_eq!(
            verify_file::<PointRecord>(&path, 7, "v1").unwrap_err(),
            VerifyError::BadHeader { path: path.clone() }
        );
    }

    #[test]
    fn verify_errors_name_the_offending_path() {
        let dir = tmp("verify-path");
        let missing = dir.join("campaign-0000000000000000.sweep");
        let err = verify_file::<PointRecord>(&missing, 0, "v1").unwrap_err();
        assert!(
            err.to_string().contains(&missing.display().to_string()),
            "{err}"
        );
        fs::create_dir_all(&dir).unwrap();
        let foreign = dir.join("foreign.sweep");
        fs::write(&foreign, "junk\n").unwrap();
        let err = verify_file::<PointRecord>(&foreign, 0, "v1").unwrap_err();
        assert!(
            err.to_string().contains(&foreign.display().to_string()),
            "{err}"
        );
        let err = read_file_info(&foreign).unwrap_err();
        assert!(
            err.to_string().contains(&foreign.display().to_string()),
            "{err}"
        );
    }

    #[test]
    fn read_file_info_reports_the_header_stamps() {
        let dir = tmp("info");
        let (mut cache, _) = DiskCache::open(&dir, 0xABCD, "v7").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);

        let info = read_file_info(&path).unwrap();
        assert_eq!(
            info,
            CacheFileInfo {
                record_tag: "dse-point/1".into(),
                model: "v7".into(),
                campaign: 0xABCD,
                generation: 0,
            }
        );
    }

    #[test]
    fn snapshot_rewrites_atomically_and_heals_poison() {
        let dir = tmp("snapshot");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        cache.append(22, &record(1.0)).unwrap();
        let path = cache.path().to_path_buf();

        // Snapshot a *different* entry set (e.g. the in-memory shard
        // store truth): the image is replaced wholesale, bit-exactly,
        // under a bumped generation.
        let entries = vec![(33, record(2.0)), (44, record(3.0))];
        cache.snapshot(&entries).unwrap();
        assert_eq!(cache.generation(), 1);
        // The handle keeps accepting appends after the snapshot.
        cache.append(55, &record(4.0)).unwrap();
        drop(cache);

        let (cache, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(
            loaded,
            vec![(33, record(2.0)), (44, record(3.0)), (55, record(4.0))]
        );
        assert_eq!(cache.generation(), 1);
        drop(cache);

        let report = verify_file::<PointRecord>(&path, 7, "v1").unwrap();
        assert_eq!(report.keys, vec![33, 44, 55]);
        assert!(!report.torn_tail);
    }

    #[test]
    fn failed_snapshot_leaves_the_live_file_untouched() {
        let dir = tmp("snapshot-fail");
        let (mut cache, _) = DiskCache::open(&dir, 7, "v1").unwrap();
        cache.append(11, &record(0.0)).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);
        let before = fs::read(&path).unwrap();

        // Reopen through a filesystem that fails temp-file creation: the
        // snapshot must error without corrupting the live image, and
        // poison the handle.
        #[derive(Debug)]
        struct NoCreate;
        impl Vfs for NoCreate {
            fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
                RealFs.create_dir_all(dir)
            }
            fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
                RealFs.read_bytes(path)
            }
            fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
                RealFs.open_append(path)
            }
            fn create(&self, _path: &Path) -> io::Result<Box<dyn VfsFile>> {
                Err(io::Error::other("injected create failure"))
            }
            fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
                RealFs.rename(from, to)
            }
        }
        let (mut cache, _) =
            DiskCache::<PointRecord>::open_with(Arc::new(NoCreate), &dir, 7, "v1").unwrap();
        let err = cache.snapshot(&[(99, record(9.0))]).unwrap_err();
        assert!(err.to_string().contains("injected create failure"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), before);
        // The next append repairs the poisoned handle: the live file is
        // intact, so the repair only reopens it (no temp file needed).
        cache.append(22, &record(1.0)).unwrap();
        drop(cache);
        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(11, record(0.0)), (22, record(1.0))]);
    }

    #[test]
    fn the_append_after_a_failed_append_repairs_the_tail() {
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Real files whose first append tears: half the line lands,
        /// then the write fails.
        #[derive(Debug, Default)]
        struct TearFirstAppend {
            torn: Arc<AtomicBool>,
        }
        struct Tearing {
            inner: Box<dyn VfsFile>,
            torn: Arc<AtomicBool>,
        }
        impl Write for Tearing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.torn.swap(true, Ordering::SeqCst) {
                    return self.inner.write(buf);
                }
                self.inner.write_all(&buf[..buf.len() / 2])?;
                Err(io::Error::other("injected torn append"))
            }
            fn flush(&mut self) -> io::Result<()> {
                self.inner.flush()
            }
        }
        impl VfsFile for Tearing {
            fn sync_all(&mut self) -> io::Result<()> {
                self.inner.sync_all()
            }
        }
        impl Vfs for TearFirstAppend {
            fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
                RealFs.create_dir_all(dir)
            }
            fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
                RealFs.read_bytes(path)
            }
            fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
                Ok(Box::new(Tearing {
                    inner: RealFs.open_append(path)?,
                    torn: self.torn.clone(),
                }))
            }
            fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
                RealFs.create(path)
            }
            fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
                RealFs.rename(from, to)
            }
        }

        let dir = tmp("append-heal");
        let (mut cache, _) = DiskCache::<PointRecord>::open_with(
            Arc::new(TearFirstAppend::default()),
            &dir,
            7,
            "v1",
        )
        .unwrap();
        let path = cache.path().to_path_buf();
        let err = cache.append(11, &record(0.0)).unwrap_err();
        assert!(err.to_string().contains("injected torn append"), "{err}");
        // The poisoned handle repairs the torn tail (a rewrite, so the
        // generation moves) and then appends.
        cache.append(22, &record(1.0)).unwrap();
        assert_eq!(cache.generation(), 1);
        drop(cache);

        // The acknowledged record is intact; the unacknowledged torn one
        // is gone.
        let (_, loaded) = DiskCache::<PointRecord>::open(&dir, 7, "v1").unwrap();
        assert_eq!(loaded, vec![(22, record(1.0))]);
        let report = verify_file::<PointRecord>(&path, 7, "v1").unwrap();
        assert_eq!(report.keys, vec![22]);
        assert!(!report.torn_tail);
    }

    #[test]
    fn error_sources_chain_to_the_underlying_io_error() {
        use std::error::Error as _;

        let cache_err = CacheError {
            op: "append",
            path: PathBuf::from("/tmp/x.sweep"),
            source: io::Error::other("disk on fire"),
        };
        assert!(cache_err.source().is_some());
        assert!(
            cache_err.to_string().contains("/tmp/x.sweep"),
            "{cache_err}"
        );

        let chained = cache_err.source().expect("io source");
        assert!(chained.to_string().contains("disk on fire"), "{chained}");

        let verify_err = VerifyError::Unreadable {
            path: PathBuf::from("/tmp/y.sweep"),
            error: "gone".into(),
        };
        // VerifyError carries a rendered message, not a live source.
        assert!(verify_err.source().is_none());
        assert!(
            verify_err.to_string().contains("/tmp/y.sweep"),
            "{verify_err}"
        );
    }

    #[test]
    fn different_campaigns_use_different_files() {
        assert_ne!(
            DiskCache::<PointRecord>::file_name(1),
            DiskCache::<PointRecord>::file_name(2)
        );
    }
}

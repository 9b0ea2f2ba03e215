//! The shared record store: a sharded, in-memory concurrent store over
//! the crash-consistent disk cache, with single-flight deduplication. It
//! is the toolkit's one persistence path.
//!
//! # Sharding
//!
//! Records live in [`SHARD_COUNT`] shards, each a `Mutex<BTreeMap>`
//! keyed by the sweep engine's content address
//! ([`ena_sweep::point_key`]). A request only ever locks the one shard
//! its key hashes to, so unrelated evaluations never contend; within a
//! shard the `BTreeMap` keeps iteration deterministic.
//!
//! # Single flight
//!
//! A lookup of an uncomputed key installs an *in-flight* slot and makes
//! the caller the **leader** for that key; concurrent lookups of the
//! same key become **followers** and block on the leader's result. K
//! concurrent requests for one uncomputed point therefore cost exactly
//! one engine evaluation, and all K observe the same published
//! `Arc<PointRecord>` — byte-identical responses by construction. A
//! leader that dies without publishing (panic, failed append) abandons
//! the flight: followers wake, observe the abandonment, and re-claim,
//! so one crashed request never wedges the key.
//!
//! # Durability
//!
//! With a cache directory configured, every publish appends to the
//! campaign's `ena-sweep-cache/2` file — the append happens *before* the
//! record is acknowledged to any client, and every append is fsynced, so
//! an `OK` response implies the record survives a crash or power loss.
//! A failed append costs only its own publish: the next publish repairs
//! the file's tail before appending. [`ShardStore::snapshot`]
//! additionally rewrites the whole file from the in-memory store through
//! the write-temp → fsync → atomic-rename path, compacting repair
//! lineage. The seeded campaign in [`crate::chaos`] holds both promises
//! under injected I/O faults and killed leaders.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ena_core::dse::PointRecord;
use ena_sweep::{CacheError, DiskCache, Vfs};

/// Number of shards. A small power of two: enough to decorrelate the
/// worker pool's lock traffic, cheap to scan for snapshots.
pub const SHARD_COUNT: usize = 16;

/// One key's in-flight computation: followers block on `done` until the
/// leader publishes into `state` or abandons.
#[derive(Debug, Default)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct FlightState {
    result: Option<Arc<PointRecord>>,
    abandoned: bool,
}

/// A shard slot: either a published record or a flight in progress.
#[derive(Debug, Clone)]
enum Slot {
    Ready(Arc<PointRecord>),
    InFlight(Arc<Flight>),
}

/// What a [`ShardStore::claim`] resolved to.
#[derive(Debug)]
pub enum Claim<'a> {
    /// The record is already published.
    Ready(Arc<PointRecord>),
    /// The caller owns the evaluation: it must [`ShardStore::publish`]
    /// through the token (or drop it to abandon the flight).
    Leader(LeaderToken<'a>),
    /// Another caller is evaluating; wait via [`ShardStore::wait`].
    Follower(FollowerTicket),
}

/// Leadership of one in-flight key. Dropping the token without
/// publishing abandons the flight (followers wake and re-claim), so a
/// panicking evaluation can never wedge the key.
#[derive(Debug)]
pub struct LeaderToken<'a> {
    store: &'a ShardStore,
    key: u64,
    flight: Arc<Flight>,
    published: bool,
}

impl Drop for LeaderToken<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.store.abandon(self.key, &self.flight);
        }
    }
}

/// A follower's handle on another caller's in-flight evaluation.
#[derive(Debug)]
pub struct FollowerTicket {
    flight: Arc<Flight>,
}

/// The sharded single-flight store (see the module docs).
///
/// # Lock order
///
/// The store owns two tiers of locks: the per-shard mutexes and the
/// single `disk` mutex. No method ever holds two of them at once —
/// `publish` appends to disk *before* touching a shard, `snapshot`
/// copies the shards out (via [`ShardStore::records`]) *before* taking
/// `disk` — so the store contributes no shard↔disk edge to the
/// workspace lock-acquisition graph (see `artifacts/lock_graph.txt`;
/// the only outgoing edge is `disk` → the injected VFS's internal
/// bookkeeping lock, which never locks back). Keep it that way: acquire
/// at most one `ShardStore` lock per scope, and if that ever has to
/// change, the documented order is shard → disk, never the reverse.
#[derive(Debug)]
pub struct ShardStore {
    shards: Vec<Mutex<BTreeMap<u64, Slot>>>,
    disk: Option<Mutex<DiskCache<PointRecord>>>,
}

/// Locks a mutex, recovering the guard from a poisoned lock: shard and
/// cache state are always internally consistent at unlock time, so a
/// panicking peer must not cascade into every later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl ShardStore {
    /// Opens the store. With `dir` set, the campaign's v2 cache file is
    /// opened (creating or repairing as needed) through `fs` and
    /// every intact on-disk record is loaded into the shards — the
    /// warm-start path a restarted server takes. Returns the store and
    /// the number of records restored.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] for any I/O fault opening the disk
    /// cache; corrupt content degrades to misses instead of erroring.
    pub fn open(
        dir: Option<&Path>,
        fs: Arc<dyn Vfs>,
        campaign: u64,
        version: &str,
    ) -> Result<(Self, usize), CacheError> {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        for _ in 0..SHARD_COUNT {
            shards.push(Mutex::new(BTreeMap::new()));
        }
        let store = Self { shards, disk: None };
        let Some(dir) = dir else {
            return Ok((store, 0));
        };
        let (cache, entries) = DiskCache::open_with(fs, dir, campaign, version)?;
        let restored = entries.len();
        for (key, record) in entries {
            lock(&store.shards[Self::shard_of(key)]).insert(key, Slot::Ready(Arc::new(record)));
        }
        Ok((
            Self {
                disk: Some(Mutex::new(cache)),
                ..store
            },
            restored,
        ))
    }

    fn shard_of(key: u64) -> usize {
        (key % SHARD_COUNT as u64) as usize
    }

    /// True when the store persists records to disk.
    pub fn is_persistent(&self) -> bool {
        self.disk.is_some()
    }

    /// Number of published records across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock(s)
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// True when no record is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves one key: a published record, leadership of a fresh
    /// flight, or a follower ticket on someone else's flight.
    pub fn claim(&self, key: u64) -> Claim<'_> {
        let mut shard = lock(&self.shards[Self::shard_of(key)]);
        match shard.get(&key) {
            Some(Slot::Ready(record)) => Claim::Ready(record.clone()),
            Some(Slot::InFlight(flight)) => Claim::Follower(FollowerTicket {
                flight: flight.clone(),
            }),
            None => {
                let flight = Arc::new(Flight::default());
                shard.insert(key, Slot::InFlight(flight.clone()));
                Claim::Leader(LeaderToken {
                    store: self,
                    key,
                    flight,
                    published: false,
                })
            }
        }
    }

    /// Publishes the leader's record: appended to the disk cache first
    /// (acknowledgement implies durability), then installed in the shard
    /// and handed to every waiting follower.
    ///
    /// # Errors
    ///
    /// Returns the [`CacheError`] from a failed append. The flight is
    /// abandoned (followers re-claim) and nothing is published — an
    /// error response never leaves a half-acknowledged record behind.
    pub fn publish(
        &self,
        mut token: LeaderToken<'_>,
        record: PointRecord,
    ) -> Result<Arc<PointRecord>, CacheError> {
        if let Some(disk) = &self.disk {
            // ena:durability(disk): append-before-acknowledge — the fsynced
            // append must complete under the cache lock so a concurrent
            // snapshot/append never interleaves with a half-written record.
            lock(disk).append(token.key, &record)?;
            // On Err: token drops unpublished → abandon wakes followers.
        }
        let record = Arc::new(record);
        {
            let mut shard = lock(&self.shards[Self::shard_of(token.key)]);
            shard.insert(token.key, Slot::Ready(record.clone()));
        }
        {
            let mut state = lock(&token.flight.state);
            state.result = Some(record.clone());
        }
        token.flight.done.notify_all();
        token.published = true;
        Ok(record)
    }

    /// Abandons an unpublished flight: the slot is removed so the next
    /// claimant becomes a fresh leader, and waiting followers wake to
    /// `None`.
    fn abandon(&self, key: u64, flight: &Arc<Flight>) {
        {
            let mut shard = lock(&self.shards[Self::shard_of(key)]);
            // Only remove the slot if it still holds *this* flight; a
            // successor leader may already have claimed the key.
            if let Some(Slot::InFlight(current)) = shard.get(&key) {
                if Arc::ptr_eq(current, flight) {
                    shard.remove(&key);
                }
            }
        }
        let mut state = lock(&flight.state);
        state.abandoned = true;
        drop(state);
        flight.done.notify_all();
    }

    /// Blocks until the ticket's flight resolves. `Some` is the leader's
    /// published record; `None` means the leader abandoned — the caller
    /// should re-[`ShardStore::claim`] the key.
    pub fn wait(&self, ticket: FollowerTicket) -> Option<Arc<PointRecord>> {
        let mut state = lock(&ticket.flight.state);
        loop {
            if let Some(record) = &state.result {
                return Some(record.clone());
            }
            if state.abandoned {
                return None;
            }
            state = ticket
                .flight
                .done
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Every published record, in ascending key order (deterministic
    /// regardless of shard layout or publish interleaving).
    pub fn records(&self) -> Vec<(u64, Arc<PointRecord>)> {
        let mut all: Vec<(u64, Arc<PointRecord>)> = Vec::new();
        for shard in &self.shards {
            for (key, slot) in lock(shard).iter() {
                if let Slot::Ready(record) = slot {
                    all.push((*key, record.clone()));
                }
            }
        }
        all.sort_by_key(|(key, _)| *key);
        all
    }

    /// Atomically rewrites the persistent cache from the live store (the
    /// `SNAPSHOT` command): every published record, in key order, lands
    /// in a fresh image via write-temp → fsync → rename. Returns the
    /// record count and the new file generation.
    ///
    /// # Errors
    ///
    /// A [`CacheError`] when no cache directory is configured (`op`
    /// "snapshot") or when the rewrite faults; the live file is left
    /// untouched on fault.
    pub fn snapshot(&self) -> Result<(usize, u64), CacheError> {
        let Some(disk) = &self.disk else {
            return Err(CacheError {
                op: "snapshot",
                path: std::path::PathBuf::new(),
                source: std::io::Error::other("no persistent cache configured"),
            });
        };
        let entries: Vec<(u64, PointRecord)> = self
            .records()
            .into_iter()
            .map(|(key, record)| (key, (*record).clone()))
            .collect();
        // ena:durability(disk): the write-temp → fsync → rename rewrite must
        // run under the cache lock so no append lands between the image
        // write and the generation bump (the entries themselves were copied
        // out above without holding `disk`).
        let mut cache = lock(disk);
        cache.snapshot(&entries)?;
        Ok((entries.len(), cache.generation()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_core::dse::{ConfigPoint, PointEval};
    use ena_model::units::{GigabytesPerSec, Megahertz};
    use ena_sweep::RealFs;

    fn record(seed: f64) -> PointRecord {
        PointRecord {
            point: ConfigPoint {
                cus: 320,
                clock: Megahertz::new(1000.0),
                bandwidth: GigabytesPerSec::new(3000.0),
            },
            evals: vec![PointEval {
                throughput: 100.0 + seed,
                package_power: 150.0,
                peak_dram_c: 70.0,
            }],
        }
    }

    fn memory_store() -> ShardStore {
        ShardStore::open(None, Arc::new(RealFs), 0, "v1").unwrap().0
    }

    #[test]
    fn leader_publishes_and_followers_share_the_arc() {
        let store = memory_store();
        let Claim::Leader(token) = store.claim(7) else {
            panic!("first claim must lead");
        };
        let Claim::Follower(ticket) = store.claim(7) else {
            panic!("second claim must follow");
        };
        let published = store.publish(token, record(0.0)).unwrap();
        let waited = store.wait(ticket).expect("leader published");
        assert!(Arc::ptr_eq(&published, &waited));
        let Claim::Ready(ready) = store.claim(7) else {
            panic!("post-publish claim must be ready");
        };
        assert!(Arc::ptr_eq(&published, &ready));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn abandoned_leader_lets_a_follower_reclaim() {
        let store = memory_store();
        let Claim::Leader(token) = store.claim(7) else {
            panic!("first claim must lead");
        };
        let Claim::Follower(ticket) = store.claim(7) else {
            panic!("second claim must follow");
        };
        drop(token); // leader dies without publishing
        assert!(store.wait(ticket).is_none(), "follower sees abandonment");
        let Claim::Leader(token) = store.claim(7) else {
            panic!("re-claim after abandonment must lead");
        };
        store.publish(token, record(1.0)).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn concurrent_followers_wake_across_threads() {
        let store = Arc::new(memory_store());
        let Claim::Leader(token) = store.claim(42) else {
            panic!("first claim must lead");
        };
        let mut joins = Vec::new();
        for _ in 0..4 {
            let store = store.clone();
            joins.push(std::thread::spawn(move || match store.claim(42) {
                Claim::Ready(r) => r,
                Claim::Follower(t) => store.wait(t).expect("published"),
                Claim::Leader(_) => panic!("leadership is already taken"),
            }));
        }
        let published = store.publish(token, record(2.0)).unwrap();
        for join in joins {
            let seen = join.join().expect("follower thread");
            assert!(Arc::ptr_eq(&published, &seen));
        }
    }

    #[test]
    fn persistent_store_round_trips_and_restores() {
        let dir = std::env::temp_dir().join("ena-serve-store-roundtrip");
        let _removed = std::fs::remove_dir_all(&dir);
        let (store, restored) = ShardStore::open(Some(&dir), Arc::new(RealFs), 0xC0, "v1").unwrap();
        assert_eq!(restored, 0);
        let Claim::Leader(token) = store.claim(7) else {
            panic!("lead");
        };
        store.publish(token, record(0.5)).unwrap();
        let (records, generation) = store.snapshot().unwrap();
        assert_eq!(records, 1);
        assert_eq!(generation, 1);
        drop(store);

        let (warm, restored) = ShardStore::open(Some(&dir), Arc::new(RealFs), 0xC0, "v1").unwrap();
        assert_eq!(restored, 1);
        let Claim::Ready(rec) = warm.claim(7) else {
            panic!("restored record must be ready");
        };
        assert_eq!(*rec, record(0.5));
    }

    #[test]
    fn snapshot_without_disk_is_a_typed_error() {
        let store = memory_store();
        let err = store.snapshot().unwrap_err();
        assert_eq!(err.op, "snapshot");
        assert!(err.to_string().contains("no persistent cache"), "{err}");
    }
}

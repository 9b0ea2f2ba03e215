//! The evaluation server: a fixed worker pool serving framed requests
//! over any `Read + Write` connection, with bounded admission, request
//! batching, and the sharded single-flight store behind every answer.
//!
//! # Concurrency shape
//!
//! One acceptor thread hands connections to a bounded queue; `workers`
//! threads pull connections and run each to completion. A connection
//! arriving while the queue is full is answered with a single [`BUSY`]
//! frame and closed — load sheds at admission instead of queueing
//! unboundedly (typed rejection, never a silent hang).
//!
//! # Batching
//!
//! After blocking for one frame, a handler opportunistically drains
//! every *already received* frame (up to `max_batch`) and folds the
//! leading run of `EVAL` requests into one engine chunk — a pipelining
//! client pays one evaluation dispatch for the whole run, and responses
//! still come back in request order.
//!
//! # Accounting identity
//!
//! Every design-point lookup resolves as exactly one of a hit (served
//! from the store or an in-batch duplicate), an eval (this request ran
//! the engine), or a wait (blocked on another request's flight), so in
//! fault-free operation `lookups == hits + evals + waits` — the balance
//! `STATS` exposes and CI asserts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ena_core::dse::{ConfigPoint, DesignSpace, Explorer, PointRecord};
use ena_model::hash::MODEL_VERSION;
use ena_model::kernel::KernelProfile;
use ena_sweep::{
    campaign_digest, evaluate_batch, pareto_frontier, point_key, CacheError, CacheRecord as _,
    RealFs,
};

use crate::protocol::{write_frame, FrameReader, Request, BUSY};
use crate::store::{Claim, FollowerTicket, LeaderToken, ShardStore};

/// Anything a handler can serve: a TCP stream, or an in-process pipe
/// end from `ena_testkit::transport` in hermetic tests. Blanket-
/// implemented for every `Read + Write + Send` type; the indirection
/// through named methods (rather than `Read`/`Write` supertraits) is
/// what lets `dyn Connection` itself implement `Read + Write` without
/// colliding with std's blanket `Box` impls.
pub trait Connection: Send {
    /// As [`Read::read`].
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// As [`Write::write`].
    fn write_bytes(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// As [`Write::flush`].
    fn flush_bytes(&mut self) -> io::Result<()>;
}

impl<T: Read + Write + Send> Connection for T {
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write_bytes(&mut self, buf: &[u8]) -> io::Result<usize> {
        Write::write(self, buf)
    }

    fn flush_bytes(&mut self) -> io::Result<()> {
        Write::flush(self)
    }
}

impl Read for dyn Connection + '_ {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_bytes(buf)
    }
}

impl Write for dyn Connection + '_ {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_bytes(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_bytes()
    }
}

/// Monotonic serving counters, all updated with relaxed atomics (each
/// counter is independently meaningful; cross-counter identities are
/// read at quiescent points like a `STATS` request).
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections admitted to the service queue.
    pub connections: AtomicU64,
    /// Connections rejected with a `BUSY` frame at admission.
    pub busy: AtomicU64,
    /// Connections dropped for malformed framing.
    pub protocol_errors: AtomicU64,
    /// `EVAL` requests received.
    pub eval_requests: AtomicU64,
    /// `SWEEP` requests received.
    pub sweep_requests: AtomicU64,
    /// `FRONTIER` requests received.
    pub frontier_requests: AtomicU64,
    /// `STATS` requests received.
    pub stats_requests: AtomicU64,
    /// `SNAPSHOT` requests received.
    pub snapshot_requests: AtomicU64,
    /// `SHUTDOWN` requests received.
    pub shutdown_requests: AtomicU64,
    /// Design-point lookups against the store (one per `EVAL`, one per
    /// point of a `SWEEP`).
    pub lookups: AtomicU64,
    /// Lookups answered from the store or an in-batch duplicate.
    pub hits: AtomicU64,
    /// Lookups whose request ran the engine itself.
    pub evals: AtomicU64,
    /// Lookups that blocked on another request's in-flight evaluation.
    pub waits: AtomicU64,
    /// Engine dispatches (each covering one or more points).
    pub batches: AtomicU64,
    /// Points evaluated inside batched dispatches.
    pub batched_evals: AtomicU64,
    /// Records appended to the persistent cache.
    pub appended: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Server construction parameters. Build with [`ServeConfig::new`] and
/// override fields as needed.
#[derive(Clone)]
pub struct ServeConfig {
    /// The explorer evaluating design points.
    pub explorer: Explorer,
    /// Application profiles evaluated at every point (their content is
    /// folded into the campaign digest, hence into every cache key).
    pub profiles: Vec<KernelProfile>,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Pending connections admitted beyond the ones in service; the
    /// next arrival is answered `BUSY`.
    pub queue_cap: usize,
    /// Largest run of `EVAL` requests folded into one engine dispatch,
    /// and the chunk size of a `SWEEP`.
    pub max_batch: usize,
    /// Directory for the persistent cache; `None` serves from memory
    /// only.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl ServeConfig {
    /// A config with the serving defaults: 4 workers, 16 queued
    /// connections, 64-point batches, no persistence.
    pub fn new(explorer: Explorer, profiles: Vec<KernelProfile>) -> Self {
        Self {
            explorer,
            profiles,
            workers: 4,
            queue_cap: 16,
            max_batch: 64,
            cache_dir: None,
        }
    }
}

/// Locks a mutex, recovering from poisoning: queue and address state
/// are always consistent at unlock time.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How one point of a resolve batch is pending, index-aligned with the
/// input points.
enum PendingPoint {
    /// Already published when claimed.
    Ready(Arc<PointRecord>),
    /// This batch leads the key; the result lands in the resolved map.
    Lead,
    /// Duplicate of a key this batch leads.
    LocalDup,
    /// Another request leads the key.
    Wait(FollowerTicket),
}

/// A received frame, parsed once: the request, or why it is malformed.
type Parsed = Result<Request, String>;

/// What one point lookup came to: its key and record, or the error an
/// `ERR` response carries.
type Resolved = (u64, Result<Arc<PointRecord>, String>);

/// The evaluation server (see the module docs).
pub struct Server {
    explorer: Explorer,
    profiles: Vec<KernelProfile>,
    workers: usize,
    queue_cap: usize,
    max_batch: usize,
    campaign: u64,
    store: ShardStore,
    counters: Counters,
    queue: Mutex<VecDeque<Box<dyn Connection>>>,
    queue_ready: Condvar,
    shutdown: AtomicBool,
    wake_addr: Mutex<Option<SocketAddr>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers)
            .field("queue_cap", &self.queue_cap)
            .field("max_batch", &self.max_batch)
            .field("campaign", &format_args!("{:016x}", self.campaign))
            .field("records", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Builds the server: derives the campaign digest from the explorer
    /// and profiles (the digest the node sweep's former disk cache used,
    /// so its files still warm-start a server) and opens the store,
    /// warm-starting from any surviving cache file. Returns the server
    /// and the number of records restored.
    ///
    /// # Errors
    ///
    /// A [`CacheError`] opening the persistent cache.
    pub fn new(config: ServeConfig) -> Result<(Self, usize), CacheError> {
        let campaign = campaign_digest(&config.explorer, &config.profiles);
        let (store, restored) = ShardStore::open(
            config.cache_dir.as_deref(),
            Arc::new(RealFs),
            campaign,
            MODEL_VERSION,
        )?;
        Ok((
            Self {
                explorer: config.explorer,
                profiles: config.profiles,
                workers: config.workers.max(1),
                queue_cap: config.queue_cap.max(1),
                max_batch: config.max_batch.max(1),
                campaign,
                store,
                counters: Counters::default(),
                queue: Mutex::new(VecDeque::new()),
                queue_ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
                wake_addr: Mutex::new(None),
            },
            restored,
        ))
    }

    /// The serving counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The campaign digest every cache key is derived from.
    pub fn campaign(&self) -> u64 {
        self.campaign
    }

    /// The sharded record store.
    pub fn store(&self) -> &ShardStore {
        &self.store
    }

    /// True once a `SHUTDOWN` request has been served.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Admits one connection: queued for a worker (`true`), or — when
    /// the queue is at capacity or the server is draining — answered
    /// with a [`BUSY`] frame and dropped (`false`).
    pub fn submit(&self, mut conn: Box<dyn Connection>) -> bool {
        {
            let mut queue = lock(&self.queue);
            if !self.is_shutdown() && queue.len() < self.queue_cap {
                queue.push_back(conn);
                Counters::bump(&self.counters.connections, 1);
                self.queue_ready.notify_one();
                return true;
            }
        }
        Counters::bump(&self.counters.busy, 1);
        if write_frame(&mut conn, BUSY.as_bytes()).is_err() {
            // The peer is gone; the rejection was moot anyway.
        }
        false
    }

    /// Runs the accept loop plus the worker pool over `listener`,
    /// returning the final stats render once a `SHUTDOWN` request has
    /// been served and every admitted connection has drained.
    ///
    /// # Errors
    ///
    /// Only listener-level faults (reading the local address); per-
    /// connection I/O errors are absorbed by the handlers.
    pub fn serve(&self, listener: TcpListener) -> io::Result<String> {
        let addr = listener.local_addr()?;
        *lock(&self.wake_addr) = Some(addr);
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| self.worker_loop());
            }
            for stream in listener.incoming() {
                if self.is_shutdown() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                self.submit(Box::new(stream));
            }
            // Wake any worker still parked on an empty queue so the
            // scope can join them.
            self.queue_ready.notify_all();
        });
        Ok(self.render_stats())
    }

    /// One worker: pull connections until shutdown *and* the queue has
    /// drained (admitted connections are always served, never dropped).
    fn worker_loop(&self) {
        loop {
            let conn = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(conn) = queue.pop_front() {
                        break Some(conn);
                    }
                    if self.is_shutdown() {
                        break None;
                    }
                    queue = self
                        .queue_ready
                        .wait(queue)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            match conn {
                Some(conn) => self.handle(conn),
                None => return,
            }
        }
    }

    /// Flips the shutdown flag and unblocks the acceptor (via a no-op
    /// connection to its own listener) and all parked workers.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_ready.notify_all();
        let addr = *lock(&self.wake_addr);
        if let Some(addr) = addr {
            drop(TcpStream::connect(addr));
        }
    }

    /// Serves one connection to completion. Public so tests can drive
    /// the full request path over an in-process pipe without sockets.
    pub fn handle<S: Read + Write>(&self, stream: S) {
        let mut reader = FrameReader::new(stream);
        let mut pending: VecDeque<Parsed> = VecDeque::new();
        let mut framing_dead = false;
        let parse = |frame: &[u8]| Request::parse(&String::from_utf8_lossy(frame));
        loop {
            if pending.is_empty() {
                if framing_dead {
                    return;
                }
                match reader.read_frame() {
                    Ok(Some(frame)) => pending.push_back(parse(&frame)),
                    Ok(None) => return, // clean close
                    Err(e) => {
                        Counters::bump(&self.counters.protocol_errors, 1);
                        let body = format!("ERR {e}");
                        drop(write_frame(reader.get_mut(), body.as_bytes()));
                        return;
                    }
                }
                // Fold in everything the client already pipelined.
                while pending.len() < self.max_batch {
                    match reader.buffered_frame() {
                        Ok(Some(frame)) => pending.push_back(parse(&frame)),
                        Ok(None) => break,
                        Err(_) => {
                            Counters::bump(&self.counters.protocol_errors, 1);
                            framing_dead = true;
                            break;
                        }
                    }
                }
            }
            if !self.step(&mut reader, &mut pending) {
                return;
            }
        }
    }

    /// Processes the front of the pending queue: a leading run of
    /// `EVAL`s as one batch, or a single other request. Returns `false`
    /// when the connection should close.
    fn step<S: Read + Write>(
        &self,
        reader: &mut FrameReader<S>,
        pending: &mut VecDeque<Parsed>,
    ) -> bool {
        let Some(front) = pending.pop_front() else {
            return true;
        };
        let request = match front {
            Ok(request) => request,
            Err(message) => {
                Counters::bump(&self.counters.protocol_errors, 1);
                let body = format!("ERR {message}");
                return write_frame(reader.get_mut(), body.as_bytes()).is_ok();
            }
        };
        let (body, keep_open) = match request {
            Request::Eval(point) => {
                // Fold the rest of the leading EVAL run into one batch.
                let mut evals = vec![point.to_config_point()];
                while let Some(Ok(Request::Eval(point))) = pending.front() {
                    evals.push(point.to_config_point());
                    pending.pop_front();
                }
                Counters::bump(&self.counters.eval_requests, evals.len() as u64);
                for (key, result) in self.resolve_batch(&evals) {
                    let body = match result {
                        Ok(record) => format!("OK {key:016x} {}", record.encode()),
                        Err(message) => format!("ERR {message}"),
                    };
                    if write_frame(reader.get_mut(), body.as_bytes()).is_err() {
                        return false;
                    }
                }
                return true;
            }
            Request::Sweep { fine } => {
                Counters::bump(&self.counters.sweep_requests, 1);
                (self.respond_sweep(fine), true)
            }
            Request::Frontier => {
                Counters::bump(&self.counters.frontier_requests, 1);
                (self.respond_frontier(), true)
            }
            Request::Stats => {
                Counters::bump(&self.counters.stats_requests, 1);
                (format!("OK stats\n{}", self.render_stats()), true)
            }
            Request::Snapshot => {
                Counters::bump(&self.counters.snapshot_requests, 1);
                let body = match self.store.snapshot() {
                    Ok((records, generation)) => {
                        format!("OK snapshot records={records} generation={generation}")
                    }
                    Err(e) => format!("ERR {e}"),
                };
                (body, true)
            }
            Request::Shutdown => {
                Counters::bump(&self.counters.shutdown_requests, 1);
                self.begin_shutdown();
                ("OK bye".to_string(), false)
            }
        };
        write_frame(reader.get_mut(), body.as_bytes()).is_ok() && keep_open
    }

    /// Resolves an ordered batch of points against the store with
    /// single-flight semantics: every key this batch claims leadership
    /// of is evaluated in ONE engine dispatch; follower entries block on
    /// their leaders. Returns `(key, record-or-error)` in input order.
    fn resolve_batch(&self, points: &[ConfigPoint]) -> Vec<Resolved> {
        Counters::bump(&self.counters.lookups, points.len() as u64);
        let keyed: Vec<(u64, ConfigPoint)> = points
            .iter()
            .map(|p| (point_key(self.campaign, p), *p))
            .collect();

        // Claim every key, collecting the set this batch must evaluate.
        let mut states: Vec<PendingPoint> = Vec::with_capacity(keyed.len());
        let mut led: BTreeSet<u64> = BTreeSet::new();
        let mut leads: Vec<(u64, ConfigPoint, LeaderToken<'_>)> = Vec::new();
        for &(key, point) in &keyed {
            if led.contains(&key) {
                states.push(PendingPoint::LocalDup);
                continue;
            }
            match self.store.claim(key) {
                Claim::Ready(record) => states.push(PendingPoint::Ready(record)),
                Claim::Leader(token) => {
                    led.insert(key);
                    leads.push((key, point, token));
                    states.push(PendingPoint::Lead);
                }
                Claim::Follower(ticket) => states.push(PendingPoint::Wait(ticket)),
            }
        }
        let resolved: BTreeMap<u64, Result<Arc<PointRecord>, String>> = if leads.is_empty() {
            BTreeMap::new()
        } else {
            self.evaluate_leads(leads).into_iter().collect()
        };
        let led_result = |key: &u64| {
            resolved
                .get(key)
                .cloned()
                .unwrap_or_else(|| Err("evaluation produced no record".into()))
        };

        // Settle every entry in input order.
        states
            .into_iter()
            .zip(keyed)
            .map(|(state, (key, point))| {
                let result = match state {
                    PendingPoint::Ready(record) => {
                        Counters::bump(&self.counters.hits, 1);
                        Ok(record)
                    }
                    PendingPoint::Lead => led_result(&key),
                    PendingPoint::LocalDup => {
                        Counters::bump(&self.counters.hits, 1);
                        led_result(&key)
                    }
                    PendingPoint::Wait(ticket) => self.settle_wait(key, point, ticket),
                };
                (key, result)
            })
            .collect()
    }

    /// The one path by which the server evaluates: every point in `leads`
    /// (keys this request leads) goes through ONE engine dispatch, and
    /// each record is published through its token. Returns `(key,
    /// record-or-error)` in `leads` order.
    fn evaluate_leads(&self, leads: Vec<(u64, ConfigPoint, LeaderToken<'_>)>) -> Vec<Resolved> {
        let n = leads.len() as u64;
        Counters::bump(&self.counters.evals, n);
        Counters::bump(&self.counters.batches, 1);
        Counters::bump(&self.counters.batched_evals, n);
        let (batch, tokens): (Vec<(u64, ConfigPoint)>, Vec<LeaderToken<'_>>) = leads
            .into_iter()
            .map(|(key, point, token)| ((key, point), token))
            .unzip();
        evaluate_batch(&self.explorer, &batch, &self.profiles)
            .into_iter()
            .zip(tokens)
            .map(|((key, record), token)| {
                let outcome = self.store.publish(token, record).map_err(|e| e.to_string());
                if outcome.is_ok() && self.store.is_persistent() {
                    Counters::bump(&self.counters.appended, 1);
                }
                (key, outcome)
            })
            .collect()
    }

    /// Settles a follower entry: wait for the leader; if the leader
    /// abandoned (publish fault), re-claim — possibly becoming the new
    /// leader and evaluating solo.
    fn settle_wait(
        &self,
        key: u64,
        point: ConfigPoint,
        ticket: FollowerTicket,
    ) -> Result<Arc<PointRecord>, String> {
        let mut outcome = self.store.wait(ticket);
        loop {
            if let Some(record) = outcome {
                Counters::bump(&self.counters.waits, 1);
                return Ok(record);
            }
            match self.store.claim(key) {
                Claim::Ready(record) => {
                    Counters::bump(&self.counters.hits, 1);
                    return Ok(record);
                }
                Claim::Follower(ticket) => outcome = self.store.wait(ticket),
                Claim::Leader(token) => {
                    return self
                        .evaluate_leads(vec![(key, point, token)])
                        .pop()
                        .map_or_else(|| Err("evaluation produced no record".into()), |(_, r)| r);
                }
            }
        }
    }

    /// Serves `SWEEP`: the whole design space through the store in
    /// `max_batch` chunks, then the oracle reduction.
    fn respond_sweep(&self, fine: bool) -> String {
        let space = if fine {
            DesignSpace::paper()
        } else {
            DesignSpace::coarse()
        };
        let points = space.points();
        let mut records: Vec<PointRecord> = Vec::with_capacity(points.len());
        for chunk in points.chunks(self.max_batch) {
            for (_, result) in self.resolve_batch(chunk) {
                match result {
                    Ok(record) => records.push((*record).clone()),
                    Err(message) => return format!("ERR {message}"),
                }
            }
        }
        let scores = self.explorer.score(&records, self.profiles.len());
        match self.explorer.reduce(&records, &scores, &self.profiles) {
            Ok(result) => format!(
                "OK sweep points={} feasible={} best cus={} mhz={} gbps={}",
                result.evaluated,
                result.feasible,
                result.best_mean.cus,
                result.best_mean.clock.value(),
                result.best_mean.bandwidth.value(),
            ),
            Err(e) => format!("ERR {e}"),
        }
    }

    /// Serves `FRONTIER`: the Pareto frontier over every record the
    /// store holds, in the store's deterministic key order.
    fn respond_frontier(&self) -> String {
        let records: Vec<PointRecord> = self
            .store
            .records()
            .into_iter()
            .map(|(_, record)| (*record).clone())
            .collect();
        let scores = self.explorer.score(&records, self.profiles.len());
        let frontier = pareto_frontier(&records, &scores);
        let mut body = format!("OK frontier n={}", frontier.len());
        for fp in &frontier {
            use std::fmt::Write as _;
            // fmt::Write to a String is infallible; discard the Ok.
            let _ = write!(
                body,
                "\n{} {} {} score={:.6} peak_w={:.3} peak_c={:.3}",
                fp.point.cus,
                fp.point.clock.value(),
                fp.point.bandwidth.value(),
                fp.score,
                fp.peak_power_w,
                fp.peak_dram_c,
            );
        }
        body
    }

    /// Renders the counters as stable text (no wall-clock, no
    /// addresses) — the `STATS` body and [`Server::serve`]'s return.
    pub fn render_stats(&self) -> String {
        let c = &self.counters;
        let lookups = Counters::get(&c.lookups);
        let hits = Counters::get(&c.hits);
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64 * 100.0
        };
        format!(
            "connections={} busy={} protocol_errors={}\n\
             requests: eval={} sweep={} frontier={} stats={} snapshot={} shutdown={}\n\
             cache: lookups={lookups} hits={hits} evals={} waits={} hit_rate={hit_rate:.1}%\n\
             batch: batches={} batched_evals={}\n\
             store: records={} appended={} persistent={}",
            Counters::get(&c.connections),
            Counters::get(&c.busy),
            Counters::get(&c.protocol_errors),
            Counters::get(&c.eval_requests),
            Counters::get(&c.sweep_requests),
            Counters::get(&c.frontier_requests),
            Counters::get(&c.stats_requests),
            Counters::get(&c.snapshot_requests),
            Counters::get(&c.shutdown_requests),
            Counters::get(&c.evals),
            Counters::get(&c.waits),
            Counters::get(&c.batches),
            Counters::get(&c.batched_evals),
            self.store.len(),
            Counters::get(&c.appended),
            self.store.is_persistent(),
        )
    }
}

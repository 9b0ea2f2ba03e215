//! `serve`: an in-process `Server::serve` on loopback with a durable
//! cache directory under the default `SyncPolicy`, driven closed loop by
//! two connections through `ena_serve::Client`. Each connection sends a
//! seeded mix: ~70% `EVAL` hits on the warm set loaded at set-up, ~20%
//! `EVAL` misses on points never seen in the run, ~10% 16-deep `EVAL`
//! pipelines (each entry a hit or a miss).
//!
//! Every `OK` body must equal the `Explorer::evaluate_point` +
//! `point_key` rendering, and the end-of-run `STATS` must satisfy
//! `lookups == hits + evals + waits`.

use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use ena_core::dse::{ConfigPoint, DesignSpace, Explorer, PointRecord};
use ena_model::hash::MODEL_VERSION;
use ena_model::kernel::KernelProfile;
use ena_serve::{Client, EvalPoint, ServeConfig, Server};
use ena_sweep::{campaign_digest, evaluate_batch, point_key, CacheRecord, DiskCache};
use ena_testkit::rng::Xoshiro256pp;
use ena_testkit::transport;
use ena_workloads::paper_profiles;

use crate::trace::{Trace, Tracer};
use crate::util::{self, median, Budget, Metrics, Op, Run, Tracing, WorkDir};

/// Client connections, and server workers.
const CONNECTIONS: usize = 2;
/// Design points loaded into the cache at set-up.
const WARM: usize = 1024;
/// Requests in one pipelined op.
const PIPE_DEPTH: usize = 16;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 9;
/// Opens of the warm cache file timed in a traced run.
const OPEN_REPS: usize = 5;

/// The request kinds of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Pipe16,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Hit, Kind::Miss, Kind::Pipe16];

    fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::Pipe16 => "pipe16",
        }
    }

    /// A seeded draw from the mix. The first six ops of a connection
    /// send each kind twice in a row, so even a short run whose ops
    /// alternate between traced and untraced measures every kind both
    /// ways.
    fn draw(i: usize, rng: &mut Xoshiro256pp) -> Kind {
        if let Some(&kind) = Kind::ALL.get(i / 2) {
            return kind;
        }
        match rng.next_f64() {
            r if r < 0.7 => Kind::Hit,
            r if r < 0.9 => Kind::Miss,
            _ => Kind::Pipe16,
        }
    }
}

/// The evaluation context shared by the server and the checks.
struct Fixture {
    explorer: Explorer,
    profiles: Vec<KernelProfile>,
    campaign: u64,
    warm: Vec<EvalPoint>,
    /// Fractional MHz offset of this seed's miss points (never on the
    /// integer-MHz grid the warm set comes from).
    miss_frac: f64,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let explorer = Explorer::default();
        let profiles = paper_profiles();
        let campaign = campaign_digest(&explorer, &profiles);
        let mut points = DesignSpace::paper().points();
        util::shuffle(&mut points, &mut util::rng(seed, 3));
        let warm = points[..WARM]
            .iter()
            .map(|p| EvalPoint {
                cus: p.cus,
                mhz: p.clock.value(),
                tbps: p.bandwidth.terabytes_per_sec(),
            })
            .collect();
        Self {
            explorer,
            profiles,
            campaign,
            warm,
            miss_frac: 0.01 * (1 + seed % 49) as f64,
        }
    }

    fn keyed(&self, p: EvalPoint) -> (u64, ConfigPoint) {
        let point = p.to_config_point();
        (point_key(self.campaign, &point), point)
    }

    /// The body a correct server answers for `p`, with its record.
    fn expected(&self, p: EvalPoint) -> (String, u64, PointRecord) {
        let (key, point) = self.keyed(p);
        let record = self.explorer.evaluate_point(point, &self.profiles);
        (format!("OK {key:016x} {}", record.encode()), key, record)
    }

    /// The `i`-th miss point of connection `conn`: unique per
    /// `(conn, i)` and off the warm grid.
    fn miss_point(&self, conn: usize, i: usize) -> EvalPoint {
        let slot = (i / 49) * CONNECTIONS + conn;
        EvalPoint {
            cus: 192 + 32 * (i % 7) as u32,
            mhz: 600.0 + self.miss_frac + 0.5 * slot as f64,
            tbps: (1 + (i / 7) % 7) as f64,
        }
    }

    /// Writes the warm set into `dir` as a cache snapshot and opens a
    /// durable server on it: the set-up every run pays.
    fn warm_server(&self, dir: &Path) -> Result<Server, String> {
        let batch: Vec<_> = self.warm.iter().map(|&p| self.keyed(p)).collect();
        let records = evaluate_batch(&self.explorer, &batch, &self.profiles);
        let (mut cache, _) = DiskCache::<PointRecord>::open(dir, self.campaign, MODEL_VERSION)
            .map_err(|e| e.to_string())?;
        cache.snapshot(&records).map_err(|e| e.to_string())?;
        drop(cache);
        let mut config = ServeConfig::new(self.explorer.clone(), self.profiles.clone());
        config.workers = CONNECTIONS;
        config.cache_dir = Some(dir.to_path_buf());
        let (server, restored) = Server::new(config).map_err(|e| e.to_string())?;
        if restored != WARM {
            return Err(format!("warm start restored {restored} of {WARM} records"));
        }
        Ok(server)
    }
}

/// One op as sent, for the socket-free replay.
struct Sent {
    kind: Kind,
    lines: Vec<String>,
    op: Op,
}

/// What one connection did.
#[derive(Default)]
struct ConnLog {
    sent: Vec<Sent>,
    /// `(key, record)` of every miss, for the cache-append replay.
    misses: Vec<(u64, PointRecord)>,
}

/// What every connection of one run shares.
#[derive(Clone, Copy)]
struct Session<'a> {
    fx: &'a Fixture,
    /// Request line and expected answer of every warm point.
    warm: &'a [(String, String)],
    addr: &'a str,
    seed: u64,
    budget: Budget,
    tracing: Tracing<'a>,
    loop_start: Instant,
}

/// Drives connection `conn` closed loop until its budget is spent.
fn drive(session: Session<'_>, conn: usize) -> ConnLog {
    let Session {
        fx,
        warm,
        addr,
        seed,
        budget,
        tracing,
        loop_start,
    } = session;
    let mut log = ConnLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: connection {conn} failed: {e}");
            log.sent.push(Sent {
                kind: Kind::Hit,
                lines: Vec::new(),
                op: Op {
                    ms: 0.0,
                    ok: false,
                    traced: false,
                },
            });
            return log;
        }
    };
    let mut rng = util::rng(seed, 100 + conn as u64);
    let mut misses = 0usize;
    let mut last = 0.0;
    while budget.more(log.sent.len(), util::secs(loop_start), last) {
        let i = log.sent.len();
        let kind = Kind::draw(i, &mut rng);
        let depth = if kind == Kind::Pipe16 { PIPE_DEPTH } else { 1 };
        // Each request: Ok(index into the warm set) or Err(miss point).
        let targets: Vec<Result<usize, EvalPoint>> = (0..depth)
            .map(|_| {
                let hit = match kind {
                    Kind::Hit => true,
                    Kind::Miss => false,
                    Kind::Pipe16 => rng.next_f64() < 0.7,
                };
                if hit {
                    Ok(rng.bounded_u64(warm.len() as u64) as usize)
                } else {
                    misses += 1;
                    Err(fx.miss_point(conn, misses - 1))
                }
            })
            .collect();
        let lines: Vec<String> = targets
            .iter()
            .map(|t| match t {
                Ok(w) => warm[*w].0.clone(),
                Err(p) => format!("EVAL {} {} {}", p.cus, p.mhz, p.tbps),
            })
            .collect();

        let t: Trace<'_> = tracing.for_op(i);
        let req = ((conn as u64) << 32) | i as u64;
        let start = Instant::now();
        let responses = t.span(
            &format!("serve.rtt.{}", kind.name()),
            None,
            Some(req),
            |_| {
                if depth == 1 {
                    client.request(&lines[0]).map(|r| vec![r])
                } else {
                    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
                    client.pipeline(&refs)
                }
            },
        );
        last = util::secs(start);

        let broken = responses.is_err();
        let ok = match responses {
            Ok(responses) => {
                let mut ok = responses.len() == targets.len();
                for (target, response) in targets.iter().zip(&responses) {
                    let want = match target {
                        Ok(w) => warm[*w].1.clone(),
                        Err(p) => {
                            let (body, key, record) = fx.expected(*p);
                            log.misses.push((key, record));
                            body
                        }
                    };
                    if *response != want {
                        eprintln!("serve: {conn}/{i} answered {response:?}, want {want:?}");
                        ok = false;
                    }
                }
                ok
            }
            Err(e) => {
                eprintln!("serve: connection {conn} request {i} failed: {e}");
                false
            }
        };
        log.sent.push(Sent {
            kind,
            lines,
            op: Op {
                ms: last * 1e3,
                ok,
                traced: t.on(),
            },
        });
        if broken {
            break;
        }
    }
    log
}

/// Parses `key=<u64>` out of a `STATS` body.
fn stat(body: &str, key: &str) -> Option<u64> {
    body.split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Runs the workload.
pub fn run(seed: u64, budget: Budget, tracing: Tracing<'_>, work: &WorkDir) -> Result<Run, String> {
    let fx = Fixture::new(seed);
    let (setup_s, server) = util::timed_setups(SETUP_REPS, |rep| -> Result<_, String> {
        let server = fx.warm_server(&work.path(&format!("serve-setup-{rep}")))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok((server, listener))
    });
    let (server, listener) = server?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    // The checker's oracle for the warm set: request line and answer.
    let warm: Vec<(String, String)> = fx
        .warm
        .iter()
        .map(|p| {
            (
                format!("EVAL {} {} {}", p.cus, p.mhz, p.tbps),
                fx.expected(*p).0,
            )
        })
        .collect();

    let loop_start = Instant::now();
    let (logs, wall_s, stats) = std::thread::scope(|s| {
        let server = &server;
        let serving = s.spawn(move || server.serve(listener));
        let session = Session {
            fx: &fx,
            warm: &warm,
            addr: &addr,
            seed,
            budget,
            tracing,
            loop_start,
        };
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|conn| s.spawn(move || drive(session, conn)))
            .collect();
        let logs: Vec<ConnLog> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        let wall_s = util::secs(loop_start);
        let stats = Client::connect(&addr).and_then(|mut c| {
            let stats = c.request("STATS")?;
            c.request("SHUTDOWN")?;
            Ok(stats)
        });
        if stats.is_err() {
            // Without a served SHUTDOWN the accept loop never returns.
            eprintln!("serve: cannot stop the server: {stats:?}");
            std::process::exit(1);
        }
        drop(serving.join().expect("serve thread panicked"));
        (logs, wall_s, stats)
    });

    let mut end_failures = 0;
    let stats = stats.unwrap_or_default();
    match (
        stat(&stats, "lookups"),
        stat(&stats, "hits"),
        stat(&stats, "evals"),
        stat(&stats, "waits"),
    ) {
        (Some(l), Some(h), Some(e), Some(w)) if l == h + e + w => {}
        _ => {
            eprintln!("serve: STATS breaks lookups == hits + evals + waits:\n{stats}");
            end_failures += 1;
        }
    }

    let ops = logs
        .iter()
        .flat_map(|l| l.sent.iter().map(|s| s.op))
        .collect();
    let layers = match tracing.tracer() {
        Some(tr) => layer_metrics(tr, &fx, &server, &logs, work)?,
        None => Metrics::default(),
    };
    Ok(Run {
        setup_s,
        ops,
        wall_s,
        end_failures,
        layers,
    })
}

/// The traced extras: round trips by kind, the same requests replayed
/// through `Server::handle` over an in-process pipe, the server's
/// counters, and the cache's append and open costs.
fn layer_metrics(
    tr: &Tracer,
    fx: &Fixture,
    server: &Server,
    logs: &[ConnLog],
    work: &WorkDir,
) -> Result<Metrics, String> {
    let trace = Trace(Some(tr));
    let mut m = Metrics::default();
    let rtt = |kind: Kind| median(&tr.self_times(&format!("serve.rtt.{}", kind.name())));
    for kind in Kind::ALL {
        m.push(format!("serve.rtt_ms.{}", kind.name()), rtt(kind), "ms");
    }

    // Socket-free replay of every op, in per-connection order.
    let replay = fx.warm_server(&work.path("serve-replay"))?;
    let (client_end, server_end) = transport::pair();
    let mut replay_failures = 0;
    std::thread::scope(|s| {
        let replay = &replay;
        let handler = s.spawn(move || replay.handle(server_end));
        let mut client = Client::new(client_end);
        for (n, sent) in logs.iter().flat_map(|l| &l.sent).enumerate() {
            if sent.lines.is_empty() {
                continue;
            }
            let name = format!("serve.handle.{}", sent.kind.name());
            let responses = trace.span(&name, None, Some(n as u64), |_| {
                let refs: Vec<&str> = sent.lines.iter().map(String::as_str).collect();
                client.pipeline(&refs)
            });
            if !responses.is_ok_and(|r| r.iter().all(|r| r.starts_with("OK "))) {
                replay_failures += 1;
            }
        }
        drop(client);
        handler.join().expect("replay handler panicked");
    });
    if replay_failures > 0 {
        return Err(format!("{replay_failures} replayed requests failed"));
    }
    let handle_us =
        |kind: Kind| 1e3 * median(&tr.self_times(&format!("serve.handle.{}", kind.name())));
    for kind in Kind::ALL {
        m.push(
            format!("serve.handle_us.{}", kind.name()),
            handle_us(kind),
            "us",
        );
    }
    m.push(
        "serve.stall_ms",
        rtt(Kind::Hit) - handle_us(Kind::Hit) / 1e3,
        "ms",
    );

    let c = server.counters();
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    for (name, value) in [
        ("lookups", get(&c.lookups)),
        ("hits", get(&c.hits)),
        ("evals", get(&c.evals)),
        ("waits", get(&c.waits)),
        ("batches", get(&c.batches)),
        ("appended", get(&c.appended)),
        ("busy", get(&c.busy)),
    ] {
        m.push(format!("serve.{name}"), value, "count");
    }
    let lookups = get(&c.lookups);
    m.push(
        "serve.hit_ratio",
        if lookups > 0.0 {
            get(&c.hits) / lookups
        } else {
            0.0
        },
        "ratio",
    );

    // The run's miss records appended under the serving policy.
    let (mut cache, _) =
        DiskCache::<PointRecord>::open(&work.path("cache-append"), fx.campaign, MODEL_VERSION)
            .map_err(|e| e.to_string())?;
    for (key, record) in logs.iter().flat_map(|l| &l.misses) {
        trace
            .span("cache.append", None, None, |_| cache.append(*key, record))
            .map_err(|e| e.to_string())?;
    }
    drop(cache);
    m.push(
        "cache.append_us",
        1e3 * median(&tr.self_times("cache.append")),
        "us",
    );
    // Warm opens of a set-up's snapshot (no server holds it any more).
    let warm_dir = work.path("serve-setup-0");
    for _ in 0..OPEN_REPS {
        trace
            .span("cache.open", None, None, |_| {
                DiskCache::<PointRecord>::open(&warm_dir, fx.campaign, MODEL_VERSION)
            })
            .map_err(|e| e.to_string())?;
    }
    m.push("cache.open_ms", median(&tr.self_times("cache.open")), "ms");
    Ok(m)
}

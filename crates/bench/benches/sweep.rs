//! Benchmarks the parallel sweep engine against the sequential oracle
//! (points/sec on the coarse grid at `jobs = 1` versus `jobs = N`, with
//! a fresh engine per iteration so memoization never shortcuts the
//! work) plus the disk-cache hot paths: fsynced appends and a warm open
//! that parses and CRC-checks every line.
//!
//! Run with `cargo bench -p ena-bench --features timing`. The scaling
//! summary lands in `artifacts/sweep_scaling.txt`; cache measurements
//! land machine-readably in `artifacts/BENCH_sweep.json` and, when a
//! previous file exists, each median is regression-guarded against it
//! (a > `timing::GUARD_FACTOR`x slowdown fails the run; set
//! `ENA_BENCH_NO_GUARD=1` to bypass, e.g. when changing machines).

use std::path::PathBuf;

use ena_core::dse::{DesignSpace, Explorer};
use ena_sweep::{hex_field, CacheRecord, DiskCache, SweepEngine, SweepSpec};
use ena_testkit::golden::artifacts_dir;
use ena_testkit::timing::Harness;
use ena_workloads::paper_profiles;

/// Records appended per iteration of the cache benches.
const APPENDS: usize = 64;

/// A cheap record so the benches time the cache, not the model.
#[derive(Clone, Debug)]
struct BenchRecord {
    value: f64,
}

impl CacheRecord for BenchRecord {
    const TAG: &'static str = "bench/1";

    fn encode(&self) -> String {
        format!("{:016x}", self.value.to_bits())
    }

    fn decode(fields: &mut std::str::Split<'_, char>) -> Option<Self> {
        Some(BenchRecord {
            value: f64::from_bits(hex_field(fields.next()?)?),
        })
    }
}

fn bench_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _removed = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a fresh cache and appends [`APPENDS`] records.
fn append_run(dir: &PathBuf) -> u64 {
    let _removed = std::fs::remove_dir_all(dir);
    let (mut cache, _) =
        DiskCache::<BenchRecord>::open(dir, 0xBE9C, "bench-v1").expect("open cache");
    for i in 0..APPENDS as u64 {
        let rec = BenchRecord {
            value: 0.25 + i as f64,
        };
        cache.append(i + 1, &rec).expect("append");
    }
    cache.generation()
}

fn sweep_once(jobs: usize) -> usize {
    let mut engine = SweepEngine::new(Explorer::default());
    let mut spec = SweepSpec::new(DesignSpace::coarse(), paper_profiles());
    spec.run.jobs = jobs;
    engine
        .run(&spec)
        .expect("coarse sweep completes")
        .telemetry
        .total_points
}

fn main() {
    let points = DesignSpace::coarse().len() as f64;
    let parallel_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);

    let mut h = Harness::new("sweep");
    h.sample_size(10);
    let seq = h.bench("coarse_sweep_jobs_1", || {
        std::hint::black_box(sweep_once(1))
    });
    let seq_pps = points / (seq.median_ns() * 1e-9);
    let par = h.bench(&format!("coarse_sweep_jobs_{parallel_jobs}"), || {
        std::hint::black_box(sweep_once(parallel_jobs))
    });
    let par_pps = points / (par.median_ns() * 1e-9);

    let summary = format!(
        "sweep scaling — coarse grid, {points:.0} points, fresh engine per run\n\
         jobs=1: {seq_pps:.0} points/sec\n\
         jobs={parallel_jobs}: {par_pps:.0} points/sec\n\
         speedup: {:.2}x\n",
        par_pps / seq_pps
    );
    print!("{summary}");
    let path = artifacts_dir().join("sweep_scaling.txt");
    std::fs::write(&path, summary).expect("write sweep_scaling.txt");
    println!("wrote {}", path.display());

    // Cache hot paths: fsynced appends, and a warm open that re-parses
    // (and CRC-checks) every line.
    let per_record_dir = bench_dir("bench-cache-per-record");
    let per_record = h
        .bench("cache_append_64_per_record", || {
            std::hint::black_box(append_run(&per_record_dir))
        })
        .clone();

    let warm_dir = bench_dir("bench-cache-warm");
    append_run(&warm_dir);
    let warm = h
        .bench("cache_open_warm_64", || {
            let (_, loaded) =
                DiskCache::<BenchRecord>::open(&warm_dir, 0xBE9C, "bench-v1").expect("warm open");
            assert_eq!(loaded.len(), APPENDS, "warm open must hit every record");
            std::hint::black_box(loaded.len())
        })
        .clone();

    let path = artifacts_dir().join("BENCH_sweep.json");
    let clean = h
        .record(&path, &[&per_record, &warm])
        .expect("write BENCH_sweep.json");
    if !clean {
        std::process::exit(1);
    }
}

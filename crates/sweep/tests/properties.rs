//! Property-based tests for the sweep engine's headline guarantees:
//! parallel == sequential, resumed == uninterrupted, frontier sanity,
//! and bit-exact persistence.

use std::path::PathBuf;

use ena_core::dse::{DesignSpace, PointRecord};
use ena_core::Explorer;
use ena_model::hash::MODEL_VERSION;
use ena_model::units::Watts;
use ena_sweep::{
    campaign_digest, hex_field, map_chunks_supervised, point_key, CacheMode, CacheRecord,
    DiskCache, RetryPolicy, SweepEngine, SweepError, SweepSpec,
};
use ena_testkit::prelude::*;
use ena_workloads::paper_profiles;

/// A fresh per-test scratch directory under the cargo tmp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn coarse_spec() -> SweepSpec {
    SweepSpec::new(DesignSpace::coarse(), paper_profiles())
}

/// Byte-level rendering of a result: `Debug` of `f64` prints the shortest
/// round-trip decimal, so distinct bit patterns render distinctly.
fn render<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

#[test]
fn parallel_equals_sequential_for_every_job_count() {
    let spec = coarse_spec();
    let oracle = render(
        &Explorer::default()
            .explore(&spec.space, &spec.profiles)
            .unwrap(),
    );
    for jobs in [1, 2, 7] {
        let mut spec = spec.clone();
        spec.run.jobs = jobs;
        let outcome = SweepEngine::new(Explorer::default())
            .run(&spec)
            .expect("sweep completes");
        assert_eq!(render(&outcome.result), oracle, "jobs = {jobs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chunk geometry is a pure scheduling knob: any chunk size at any
    /// worker count merges to the same bytes.
    #[test]
    fn chunking_never_changes_the_result(
        chunk_points in 1u32..64,
        jobs in 1u32..8,
    ) {
        let mut spec = coarse_spec();
        spec.run.jobs = jobs as usize;
        spec.run.chunk_points = chunk_points as usize;
        let oracle = render(&Explorer::default().explore(&spec.space, &spec.profiles).unwrap());
        let outcome = SweepEngine::new(Explorer::default())
            .run(&spec)
            .expect("sweep completes");
        prop_assert!(render(&outcome.result) == oracle);
    }

    /// Killing a campaign after `k` fresh points and resuming from its
    /// checkpoint reproduces the uninterrupted sweep byte-for-byte.
    #[test]
    fn resumed_sweep_equals_uninterrupted(k in 1u32..489) {
        let dir = scratch(&format!("resume-{k}"));
        let mut spec = coarse_spec();
        spec.run.jobs = 2;
        spec.run.cache = CacheMode::Disk(dir.clone());
        let total = spec.space.len();

        let mut limited = spec.clone();
        limited.run.fresh_limit = Some(k as usize);
        let interrupted = SweepEngine::new(Explorer::default()).run(&limited);
        match interrupted {
            Err(SweepError::Interrupted { completed, remaining }) => {
                prop_assert!(completed == k as usize);
                prop_assert!(completed + remaining == total);
            }
            other => prop_assert!(false, "expected interruption, got {other:?}"),
        }

        // A brand-new engine (fresh process) resumes from disk.
        let resumed = SweepEngine::new(Explorer::default())
            .run(&spec)
            .expect("resumed sweep completes");
        prop_assert!(resumed.telemetry.cache_hits == k as usize);
        prop_assert!(resumed.telemetry.fresh_evals == total - k as usize);

        let oracle = Explorer::default().explore(&spec.space, &spec.profiles).unwrap();
        prop_assert!(render(&resumed.result) == render(&oracle));
    }

    /// Parallel equals sequential under any (feasible) power budget, not
    /// just the paper's 160 W.
    #[test]
    fn budgets_do_not_break_the_equivalence(budget_w in 110u32..220) {
        let explorer = Explorer {
            budget: Watts::new(f64::from(budget_w)),
            ..Explorer::default()
        };
        let mut spec = coarse_spec();
        spec.run.jobs = 7;
        let oracle = render(&explorer.explore(&spec.space, &spec.profiles).unwrap());
        let outcome = SweepEngine::new(explorer)
            .run(&spec)
            .expect("sweep completes");
        prop_assert!(render(&outcome.result) == oracle);
    }
}

/// A minimal record type for corrupting caches without paying for real
/// design-point evaluations.
#[derive(Clone, Debug, PartialEq)]
struct TestRecord {
    value: f64,
}

impl CacheRecord for TestRecord {
    const TAG: &'static str = "proptest/1";

    fn encode(&self) -> String {
        format!("{:016x}", self.value.to_bits())
    }

    fn decode(fields: &mut std::str::Split<'_, char>) -> Option<Self> {
        Some(TestRecord {
            value: f64::from_bits(hex_field(fields.next()?)?),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any corruption of a cache file — truncation at an arbitrary byte,
    /// or an arbitrary flipped byte — degrades to cache misses, never a
    /// `CacheError`: `open` still succeeds, returns a (possibly empty)
    /// prefix of the original records, and the rewritten file serves
    /// clean hits on the next open.
    #[test]
    fn corrupt_cache_entries_degrade_to_misses(
        records in 1u32..8,
        damage_at in 0.0f64..1.0,
        mode in 0u32..3,
    ) {
        let flip = mode >= 1;
        let dir = scratch(&format!("corrupt-{records}-{mode}"));
        let originals: Vec<(u64, TestRecord)> = (0..u64::from(records))
            .map(|i| (i + 1, TestRecord { value: 0.25 + i as f64 }))
            .collect();
        let (mut cache, _) = DiskCache::<TestRecord>::open(&dir, 7, "v1").unwrap();
        for (key, rec) in &originals {
            cache.append(*key, rec).unwrap();
        }
        let path = cache.path().to_path_buf();
        drop(cache);

        // Damage an arbitrary offset: cut the tail (mode 0), overwrite
        // one byte with a character outside the format's alphabet
        // (mode 1), or — the case only the CRC trailer can catch —
        // overwrite it with a *valid* hex digit (mode 2).
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = ((bytes.len() - 1) as f64 * damage_at) as usize;
        if flip {
            bytes[offset] = if mode == 1 {
                b'z'
            } else if bytes[offset] == b'a' {
                b'b'
            } else {
                b'a'
            };
            std::fs::write(&path, &bytes).unwrap();
        } else {
            std::fs::write(&path, &bytes[..offset]).unwrap();
        }

        // Corrupt content is not an I/O error; the survivors are an
        // exact prefix of what was written.
        let (mut cache, loaded) = DiskCache::<TestRecord>::open(&dir, 7, "v1")
            .expect("corruption must degrade to misses, not CacheError");
        prop_assert!(loaded.len() <= originals.len());
        prop_assert!(
            loaded == originals[..loaded.len()],
            "flip={flip} offset={offset} loaded={loaded:?}"
        );

        // The repaired file accepts the missing records again and then
        // serves the full campaign cleanly.
        for (key, rec) in &originals[loaded.len()..] {
            cache.append(*key, rec).unwrap();
        }
        drop(cache);
        let (_, reloaded) = DiskCache::<TestRecord>::open(&dir, 7, "v1").unwrap();
        prop_assert!(reloaded == originals);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A panicking closure in one chunk neither deadlocks the pool nor
    /// corrupts any other chunk: at every worker count the poisoned
    /// chunk is quarantined after its full retry allowance and every
    /// other chunk's results are byte-identical to the panic-free run.
    #[test]
    fn a_panicking_chunk_is_contained(
        n_chunks in 2usize..12,
        victim in 0usize..12,
        jobs_pick in 0usize..4,
        retries in 0u32..3,
    ) {
        let jobs = [1, 2, 4, 8][jobs_pick];
        let victim = victim % n_chunks;
        let chunks: Vec<Vec<u64>> = (0..n_chunks as u64)
            .map(|c| (0..4).map(|i| c * 100 + i).collect())
            .collect();
        let retry = RetryPolicy { max_retries: retries, backoff_us: 5.0 };
        let victim_marker = victim as u64 * 100;

        let (verdicts, _) = map_chunks_supervised(
            jobs,
            chunks.clone(),
            &retry,
            |x| {
                assert!(*x != victim_marker, "poisoned item {x}");
                x * 3
            },
            |index, _| assert!(index != victim, "quarantined chunk reached on_chunk"),
        ).expect("supervised pool never dies from a caught panic");

        let (oracle, _) = map_chunks_supervised(
            jobs,
            chunks,
            &retry,
            |x| x * 3,
            |_, _| {},
        ).expect("panic-free run completes");

        prop_assert!(verdicts.len() == n_chunks);
        for (i, (got, want)) in verdicts.iter().zip(&oracle).enumerate() {
            if i == victim {
                let q = got.as_ref().expect_err("victim chunk must be quarantined");
                prop_assert!(q.index == victim);
                prop_assert!(q.attempts == retries + 1, "attempts={}", q.attempts);
                prop_assert!(q.message.contains("poisoned item"), "{}", q.message);
            } else {
                prop_assert!(
                    got.as_ref().ok() == want.as_ref().ok(),
                    "chunk {i} corrupted by a panic in chunk {victim}"
                );
            }
        }
    }
}

#[test]
fn pareto_frontier_contains_the_best_mean_point() {
    let spec = coarse_spec();
    let outcome = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("sweep completes");
    assert!(
        outcome
            .frontier
            .iter()
            .any(|f| f.point == outcome.result.best_mean),
        "frontier misses best-mean {:?}",
        outcome.result.best_mean
    );
    // Frontier points are mutually non-dominated on the raw axes.
    for a in &outcome.frontier {
        for b in &outcome.frontier {
            let dominates = a.score >= b.score
                && a.peak_power_w <= b.peak_power_w
                && a.peak_dram_c <= b.peak_dram_c
                && (a.score > b.score
                    || a.peak_power_w < b.peak_power_w
                    || a.peak_dram_c < b.peak_dram_c);
            assert!(!dominates, "{:?} dominates {:?}", a.point, b.point);
        }
    }
}

#[test]
fn disk_cache_round_trips_bit_exactly() {
    let mut spec = coarse_spec();
    spec.run.jobs = 2;
    spec.run.cache = CacheMode::Disk(scratch("roundtrip"));
    let cold = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("cold sweep completes");
    assert_eq!(cold.telemetry.cache_hits, 0);

    let warm = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("warm sweep completes");
    assert_eq!(warm.telemetry.cache_hits, spec.space.len());
    assert_eq!(warm.telemetry.fresh_evals, 0);

    // Every record — not just the reductions — survives the disk
    // round-trip bit-for-bit.
    assert_eq!(render(&cold.records), render(&warm.records));
    assert_eq!(render(&cold.result), render(&warm.result));
    assert_eq!(render(&cold.frontier), render(&warm.frontier));
}

#[test]
fn bumping_the_model_version_forces_full_reevaluation() {
    let mut spec = coarse_spec();
    spec.run.cache = CacheMode::Disk(scratch("version-bump"));
    let total = spec.space.len();

    let v1 = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("v1 sweep completes");
    assert_eq!(v1.telemetry.fresh_evals, total);

    // Same cache directory, bumped stamp: every stale entry is evicted
    // and every point re-evaluated.
    let bumped = SweepEngine::new(Explorer::default()).with_version("ena-model/test-bump");
    let v2 = bumped.run(&spec).expect("bumped sweep completes");
    assert_eq!(v2.telemetry.cache_hits, 0, "stale entries must not hit");
    assert_eq!(v2.telemetry.fresh_evals, total);
    assert_eq!(render(&v1.result), render(&v2.result));

    // The rewritten cache now serves the bumped stamp.
    let again = bumped.run(&spec).expect("warm bumped sweep completes");
    assert_eq!(again.telemetry.cache_hits, total);
}

#[test]
fn disk_hits_interleaved_with_fresh_points_merge_in_grid_order() {
    let dir = scratch("interleaved-hits");
    let explorer = Explorer::default();
    let mut spec = coarse_spec();
    spec.run.jobs = 2;
    let cold = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("cold sweep completes");

    // Every third point is already on disk; the rest are fresh.
    let campaign = campaign_digest(&explorer, &spec.profiles);
    let (mut cache, on_disk) =
        DiskCache::<PointRecord>::open(&dir, campaign, MODEL_VERSION).expect("cache opens");
    assert!(on_disk.is_empty());
    let points = spec.space.points();
    let mut seeded = 0;
    for point in points.iter().step_by(3) {
        let record = explorer.evaluate_point(*point, &spec.profiles);
        cache
            .append(point_key(campaign, point), &record)
            .expect("append lands");
        seeded += 1;
    }
    drop(cache);

    spec.run.cache = CacheMode::Disk(dir);
    let mixed = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("mixed sweep completes");
    assert_eq!(mixed.telemetry.cache_hits, seeded);
    assert_eq!(mixed.telemetry.fresh_evals, points.len() - seeded);
    assert!(mixed
        .records
        .iter()
        .map(|r| r.point)
        .eq(points.iter().copied()));
    assert_eq!(render(&mixed.records), render(&cold.records));
    assert_eq!(render(&mixed.result), render(&cold.result));
    assert_eq!(render(&mixed.frontier), render(&cold.frontier));
}

#[test]
fn worker_telemetry_accounts_for_every_point() {
    let mut spec = coarse_spec();
    spec.run.jobs = 4;
    spec.run.chunk_points = 8;
    let outcome = SweepEngine::new(Explorer::default())
        .run(&spec)
        .expect("sweep completes");
    let t = &outcome.telemetry;
    assert_eq!(t.workers.len(), 4);
    assert_eq!(
        t.workers.iter().map(|w| w.points).sum::<u64>(),
        spec.space.len() as u64
    );
    assert_eq!(t.hit_rate(), 0.0);
}

//! Property-based tests for the sweep engine's headline guarantees:
//! parallel == sequential, supervision, frontier sanity, and the record
//! cache's degradation to misses.

use std::path::PathBuf;

use ena_core::dse::DesignSpace;
use ena_core::Explorer;
use ena_model::units::Watts;
use ena_sweep::{
    hex_field, map_chunks_supervised, CacheRecord, DiskCache, RetryPolicy, SweepEngine, SweepSpec,
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
        ).expect("supervised pool never dies from a caught panic");

        let (oracle, _) = map_chunks_supervised(jobs, chunks, &retry, |x| x * 3)
            .expect("panic-free run completes");

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
    assert_eq!(t.fresh_evals, spec.space.len());
}

//! Property-based tests for the tracing infrastructure.

use ena_testkit::prelude::*;
use ena_testkit::process::assert_same_digest_across_processes;
use ena_workloads::trace::{Tracer, LINE_BYTES};

proptest! {
    #[test]
    fn trace_statistics_are_internally_consistent(
        ops in ena_testkit::collection::vec((0u64..1u64 << 24, 1u32..256, any::<bool>()), 1..500),
    ) {
        let mut t = Tracer::new();
        for &(addr, bytes, write) in &ops {
            if write {
                t.write(addr, bytes);
            } else {
                t.read(addr, bytes);
            }
        }
        let (trace, _) = t.into_parts();
        prop_assert!(!trace.is_empty());
        prop_assert_eq!(trace.total_bytes(), trace.len() * LINE_BYTES);
        prop_assert!(trace.footprint_lines() <= trace.len());
        let wf = trace.write_fraction();
        prop_assert!((0.0..=1.0).contains(&wf));
        let sf = trace.sequential_fraction();
        prop_assert!((0.0..=1.0).contains(&sf));
        prop_assert!(trace.reuse_factor() >= 1.0);
        // Stored accesses are line-aligned.
        for a in trace.accesses() {
            prop_assert_eq!(a.addr % LINE_BYTES, 0);
        }
    }

    #[test]
    fn filter_cache_only_removes_traffic(
        ops in ena_testkit::collection::vec((0u64..1u64 << 20, any::<bool>()), 1..500),
    ) {
        let mut raw = Tracer::new();
        let mut filtered = Tracer::new().with_filter_cache(128, 4);
        for &(addr, write) in &ops {
            if write {
                raw.write(addr, 8);
                filtered.write(addr, 8);
            } else {
                raw.read(addr, 8);
                filtered.read(addr, 8);
            }
        }
        let (raw_trace, _) = raw.into_parts();
        let (filtered_trace, _) = filtered.into_parts();
        // The filter can add writebacks but each miss line was also in the
        // raw trace, so the footprint can only shrink or stay equal.
        prop_assert!(filtered_trace.footprint_lines() <= raw_trace.footprint_lines());
        // And read traffic can only shrink.
        let reads = |t: &ena_workloads::trace::MemoryTrace| {
            (t.len() as f64 * (1.0 - t.write_fraction())).round() as u64
        };
        prop_assert!(reads(&filtered_trace) <= reads(&raw_trace));
    }

    #[test]
    fn capacity_cap_never_loses_statistics(
        ops in ena_testkit::collection::vec(0u64..1u64 << 16, 1..300),
        cap in 1usize..50,
    ) {
        let mut unbounded = Tracer::new();
        let mut capped = Tracer::with_capacity_cap(cap);
        for &addr in &ops {
            unbounded.read(addr, 8);
            capped.read(addr, 8);
        }
        let (a, _) = unbounded.into_parts();
        let (b, _) = capped.into_parts();
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.footprint_lines(), b.footprint_lines());
        prop_assert!(b.accesses().len() <= cap);
    }
}

/// Digest of the full characterization of every proxy app at the small
/// reference configuration — every statistic the paper's Table I
/// methodology extracts, hashed bit-exactly.
fn characterization_digest() -> u64 {
    use ena_workloads::app::RunConfig;
    use ena_workloads::apps::all_apps;
    use ena_workloads::characterize::Characterization;
    let mut h = ena_model::hash::StableHasher::new();
    for app in all_apps() {
        let c = Characterization::measure(app.as_ref(), &RunConfig::small());
        h.write_str(&c.name);
        h.write_f64(c.ops_per_byte);
        h.write_f64(c.write_fraction);
        h.write_f64(c.sequential_fraction);
        h.write_u64(c.footprint_bytes);
        h.write_f64(c.reuse_factor);
        h.write_u64(c.dp_flops);
        h.write_u64(c.total_bytes);
    }
    h.finish()
}

/// Satellite invariant: workload characterization is identical across
/// two *separate process* runs. The test re-executes its own binary
/// twice in digest mode and compares the printed digests with each
/// other and with the in-process value.
#[test]
fn characterization_is_identical_across_two_process_runs() {
    assert_same_digest_across_processes(
        "characterization_is_identical_across_two_process_runs",
        characterization_digest,
    );
}

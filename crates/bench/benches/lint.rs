//! Benchmarks the ena-lint static-analysis pass over the real
//! workspace: the scan/lex phase alone (`load_workspace`) and the full
//! run with every per-file, crate-level, and workspace concurrency rule
//! enabled. The full scan is the CI gate's latency floor, so it is
//! regression-guarded like every other bench.
//!
//! Run with `cargo bench -p ena-bench --features timing --bench lint`.
//! Measurements land in `artifacts/BENCH_lint.json`; when a previous
//! file exists each median is guarded against it (> `timing::GUARD_FACTOR`x
//! slowdown fails; `ENA_BENCH_NO_GUARD=1` bypasses, e.g. on a new
//! machine).

use std::path::Path;

use ena_testkit::golden::artifacts_dir;
use ena_testkit::timing::Harness;

fn main() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = ena_lint::find_workspace_root(here).expect("inside the ena workspace");

    let mut h = Harness::new("lint");
    h.sample_size(10);

    let root_for_scan = root.clone();
    let scan = h
        .bench("workspace_scan_and_lex", move || {
            let crates = ena_lint::scan::load_workspace(&root_for_scan).expect("workspace scans");
            let files: usize = crates.iter().map(|c| c.files.len()).sum();
            std::hint::black_box(files)
        })
        .clone();

    let root_for_run = root.clone();
    let full = h
        .bench("workspace_full_lint", move || {
            let opts = ena_lint::Options {
                root: root_for_run.clone(),
                config_path: None,
                deny_warnings: true,
            };
            let report = ena_lint::run(&opts).expect("workspace lints");
            assert!(
                report.diagnostics.is_empty(),
                "bench expects a clean workspace:\n{}",
                report.render()
            );
            std::hint::black_box(report.files_scanned)
        })
        .clone();

    let path = artifacts_dir().join("BENCH_lint.json");
    let clean = h
        .record(&path, &[&scan, &full])
        .expect("write BENCH_lint.json");
    if !clean {
        std::process::exit(1);
    }
}

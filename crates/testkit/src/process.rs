//! Cross-process determinism checks.
//!
//! Per-process state — randomly seeded hash maps, address-dependent
//! ordering — can make a computation repeat exactly within one process
//! and still differ between two. [`assert_same_digest_across_processes`]
//! catches that by re-running the calling test in two fresh processes
//! and comparing a digest of the computation.

use std::process::Command;

/// Environment variable that puts a child run in digest mode.
const DIGEST_MODE: &str = "ENA_TESTKIT_DIGEST_MODE";

/// Asserts that `digest` gives one value in two child processes and in
/// this one.
///
/// Call it from the `#[test]` function named `test`. The test binary
/// re-runs itself twice, filtered to exactly that test and in digest
/// mode, where the call prints `digest()` and returns. Back in the
/// parent, the two printed digests must equal each other and the
/// parent's own `digest()`.
///
/// # Panics
///
/// Panics when a child run fails or prints no digest, or when the
/// digests disagree.
pub fn assert_same_digest_across_processes(test: &str, digest: impl FnOnce() -> u64) {
    if std::env::var_os(DIGEST_MODE).is_some() {
        println!("digest={:016x}", digest());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let child_digest = || {
        let out = Command::new(&exe)
            .args([test, "--exact", "--nocapture"])
            .env(DIGEST_MODE, "1")
            .output()
            .expect("child test process");
        assert!(out.status.success(), "child run failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // Under `--nocapture` libtest may print the digest on the same
        // line as the test name, so search by substring.
        let at = stdout
            .find("digest=")
            .unwrap_or_else(|| panic!("no digest in child output: {stdout}"));
        stdout[at + "digest=".len()..]
            .chars()
            .take_while(char::is_ascii_hexdigit)
            .collect::<String>()
    };
    let first = child_digest();
    let second = child_digest();
    assert_eq!(first, second, "{test}: digest differs between processes");
    assert_eq!(
        first,
        format!("{:016x}", digest()),
        "{test}: parent and child disagree"
    );
}

//! The `ena` binary prints its usage text after a malformed command line
//! only; a command that parses but then fails prints just its cause.
//! Both exit with status 1.

use std::process::{Command, Output};

fn ena(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ena"))
        .args(args)
        .output()
        .expect("the ena binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

#[test]
fn a_parse_error_prints_its_cause_and_the_usage() {
    let out = ena(&["sweep", "--jobs", "0"]);
    let stderr = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(
        stderr,
        format!("error: --jobs must be at least 1\n{}\n", ena_cli::USAGE)
    );
}

#[test]
fn a_runtime_error_prints_only_its_cause() {
    let out = ena(&["sweep", "--budget", "-5", "--jobs", "1"]);
    let stderr = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("no configuration is feasible"),
        "{stderr}"
    );
}

//! The `bench` binary takes no arguments: anything on its command line
//! is a one-line usage error with exit code 2, reported before any
//! section runs.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench binary runs")
}

#[test]
fn any_argument_is_a_usage_error() {
    for args in [
        &["--tny"][..],
        &["--out"],
        &["--out", "report.json"],
        &["--tiny"],
    ] {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote a report");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr: {stderr}");
        assert!(
            stderr.starts_with("usage: bench"),
            "{args:?}: stderr: {stderr}"
        );
        assert!(stderr.contains(args[0]), "{args:?}: stderr: {stderr}");
    }
}

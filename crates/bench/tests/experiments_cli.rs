//! CLI misuse of the `experiments` binary fails fast with exit code 2.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_before_generating_the_corpus() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["no-such-experiment", "--scale", "small"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
    assert!(!stderr.contains("generating corpus"), "stderr: {stderr}");
}

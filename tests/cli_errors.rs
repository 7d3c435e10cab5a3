//! The `kdchoice` binary rejects bad input with an error and the usage
//! (exit code 1), never with a panic (exit code 101 and a backtrace).

use std::process::{Command, Output};

fn kdchoice(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kdchoice"))
        .args(args)
        .output()
        .expect("the kdchoice binary runs")
}

/// Asserts that `args` fail cleanly with `message` on stderr.
fn assert_rejected(args: &[&str], message: &str) {
    let out = kdchoice(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("error: {message}")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
}

#[test]
fn zero_bins_are_rejected() {
    for cmd in ["run", "compare", "trace"] {
        assert_rejected(&[cmd, "--n", "0"], "--n must be at least 1");
    }
}

#[test]
fn bounds_below_four_bins_are_rejected() {
    assert_rejected(&["bounds", "--n", "3"], "--n must be at least 4");
}

#[test]
fn zero_trials_are_rejected() {
    assert_rejected(
        &["run", "--n", "64", "--trials", "0"],
        "--trials must be at least 1",
    );
    assert_rejected(
        &["compare", "--n", "64", "--trials", "0"],
        "--trials must be at least 1",
    );
}

#[test]
fn degenerate_scheduler_clusters_are_rejected() {
    assert_rejected(
        &["scheduler", "--workers", "0"],
        "--workers must be at least 1",
    );
    assert_rejected(&["scheduler", "--k", "0"], "--k must be at least 1");
    assert_rejected(&["scheduler", "--jobs", "0"], "--jobs must be at least 1");
    assert_rejected(&["scheduler", "--util", "1.5"], "--util must be in (0, 1)");
}

#[test]
fn degenerate_storage_clusters_are_rejected() {
    assert_rejected(
        &["storage", "--servers", "0"],
        "--servers must be at least 1",
    );
    assert_rejected(
        &["storage", "--servers", "5", "--failures", "5"],
        "--failures must be below --servers",
    );
    assert_rejected(&["storage", "--k", "0"], "--k must be at least 1");
    assert_rejected(
        &["storage", "--k", "4", "--d", "2"],
        "--d must be at least --k",
    );
}

#[test]
fn valid_small_inputs_still_run() {
    let out = kdchoice(&["run", "--n", "2", "--trials", "2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 trial(s)"), "{stdout}");
    // Theorem 1's prediction needs n >= 4, so it is left out here.
    assert!(!stdout.contains("theory"), "{stdout}");
    assert!(kdchoice(&["bounds", "--n", "4"]).status.success());
}

//! The `repro` binary's usage text states the defaults `Ctx::default()`
//! actually runs with, and `--help` prints it as a success.

use bnb_experiments::Ctx;
use std::process::Command;

/// The value printed as `(default N)` on the usage line of `option`.
fn printed_default(usage: &str, option: &str) -> u64 {
    let line = usage
        .lines()
        .find(|l| l.trim_start().starts_with(option))
        .unwrap_or_else(|| panic!("no {option} line in:\n{usage}"));
    let (_, rest) = line
        .split_once("(default ")
        .unwrap_or_else(|| panic!("{option} line states no default: {line}"));
    rest.trim_end_matches(')')
        .parse()
        .unwrap_or_else(|e| panic!("{option} default does not parse ({e}): {line}"))
}

#[test]
fn usage_prints_the_context_defaults() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "no arguments is a usage error");
    let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
    let defaults = Ctx::default();
    assert_eq!(printed_default(&usage, "--seed"), defaults.master_seed);
    assert_eq!(
        printed_default(&usage, "--ball-budget"),
        defaults.ball_budget
    );
}

#[test]
fn help_prints_the_usage_to_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(flag)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(0), "{flag} is not an error");
        let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(usage.starts_with("Usage: repro"), "{flag} stdout: {usage}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}

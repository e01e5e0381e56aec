//! `cluster-sim` runs every scenario on the serial engine: neither `run`
//! nor `sweep` accepts a worker count.

use std::process::Command;

#[test]
fn run_and_sweep_reject_a_worker_count() {
    let run = ["--scenario", "two-class", "--smoke", "--workers", "2"];
    let sweep = [
        "sweep",
        "--scenario",
        "two-class",
        "--smoke",
        "--workers",
        "2",
    ];
    for args in [&run[..], &sweep[..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cluster-sim"))
            .args(args)
            .output()
            .expect("cluster-sim runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(
            stderr.starts_with("unknown option '--workers'"),
            "{args:?} stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran: wrote to stdout");
    }
}

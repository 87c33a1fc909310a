//! The experiment binaries reject an argument they do not know before
//! they do any work: exit status 2, nothing on stdout, and the argument
//! and a usage line on stderr. `fig1_finetune` takes no arguments; the
//! grid binaries parse theirs with `HarnessArgs`.

use std::process::Command;

#[test]
fn an_unknown_argument_exits_2_before_any_work() {
    for bin in [
        env!("CARGO_BIN_EXE_fig1_finetune"),
        env!("CARGO_BIN_EXE_table3_results"),
        env!("CARGO_BIN_EXE_ablation_task1"),
        env!("CARGO_BIN_EXE_ablation_drift_agreement"),
    ] {
        let started = std::time::Instant::now();
        let out = Command::new(bin).arg("--bogus").output().expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin}: printed results for a bad argument");
        assert!(stderr.contains("`--bogus`") && stderr.contains("usage:"), "{bin}: {stderr}");
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(5), "{bin}: ran {took:?} before it failed");
    }
}

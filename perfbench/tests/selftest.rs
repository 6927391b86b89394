//! Proves the benchmark's checks fire. A run whose oracle is handed one
//! wrong expected label, or whose server is handed a model with a
//! tampered clause, must count failed operations, report `correct: false`
//! and exit non-zero; the same run untampered passes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

struct Run {
    success: bool,
    result: String,
    stderr: String,
}

fn run(tamper: Option<&str>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    cmd.args(["--workload", "serve", "--seed", "7", "--seconds", "1", "--trace", "0"]);
    if let Some(t) = tamper {
        cmd.args(["--tamper", t]);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    Run {
        success: out.status.success(),
        result: stdout.lines().last().unwrap_or_default().to_string(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn failed(result: &str) -> u64 {
    let rest = &result[result.find("\"failed\": ").expect("result has failed") + 10..];
    rest[..rest.find(',').expect("failed is followed by metrics")].parse().expect("a count")
}

#[test]
fn untampered_run_passes() {
    let r = run(None);
    assert!(r.success, "clean run failed: {}\n{}", r.result, r.stderr);
    assert!(r.result.starts_with("{\"correct\": true"), "{}", r.result);
    assert_eq!(failed(&r.result), 0);
}

#[test]
fn wrong_expected_label_fails_every_phase() {
    let r = run(Some("label"));
    assert!(!r.success, "a wrong expected label must fail the run");
    assert!(r.result.starts_with("{\"correct\": false"), "{}", r.result);
    assert!(failed(&r.result) > 0);
    for phase in ["fit:", "labels-only:", "explain:", "overlay:", "disk:", "read:", "mixed read:"] {
        assert!(
            r.stderr.contains(&format!("FAILED {phase}")),
            "no {phase} failure in\n{}",
            r.stderr
        );
    }
}

#[test]
fn tampered_clause_fails_the_run() {
    let r = run(Some("clause"));
    assert!(!r.success, "a tampered clause must fail the run");
    assert!(r.result.starts_with("{\"correct\": false"), "{}", r.result);
    assert!(failed(&r.result) > 0);
    assert!(r.stderr.contains("FAILED labels-only:"), "{}", r.stderr);
}

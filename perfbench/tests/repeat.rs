//! Runs the benchmark briefly, traced, and checks its own guarantees:
//! every run is correct, the exact counts repeat bit for bit between two
//! runs of one seed, and the fold pipeline's layer spans add up to the
//! operation they sit in.
//!
//! The runs are of `serve_batch`: its set-up runs the same fold pipeline
//! as `train_fold` (at a smaller epoch budget, which changes none of the
//! counts), and its traced run reports every exact count.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use serde::Value;
use std::process::Command;

/// Per-layer counts that must not move between runs of one seed.
const EXACT: [&str; 5] = [
    "store.bytes_read",
    "runtime.allocs_per_req",
    "serve.request_bytes",
    "serve.response_bytes",
    "router.retries",
];

/// The fold's layer spans must cover its operation to within this
/// share; what is left is the glue between the calls.
const COVERAGE_TOLERANCE: f64 = 0.01;

fn run() -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "serve_batch", "--seed", "3", "--seconds", "1", "--trace", "1"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn exact_counts_repeat_and_fold_spans_cover_the_operation() {
    let first = run();
    let second = run();
    for result in [&first, &second] {
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{result:?}");
        let coverage = metric(result, "trace.fold_coverage");
        assert!(
            (1.0 - coverage).abs() <= COVERAGE_TOLERANCE,
            "fold spans cover {coverage} of the operation"
        );
    }
    for name in EXACT {
        let (a, b) = (metric(&first, name), metric(&second, name));
        assert_eq!(a.to_bits(), b.to_bits(), "{name} moved from {a} to {b}");
    }
}

//! End-to-end smoke tests for the `ams-check` binary: every seeded
//! defect fixture (tape-IR, lint, and lock-order) must be detected
//! with the right rule id and location, and the documented exit codes
//! (0 clean, 1 errors, 2 internal failure) must be stable.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ams-check"))
        .args(args)
        .output()
        .expect("ams-check binary runs")
}

fn json_report(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(stdout.trim()).unwrap_or_else(|e| panic!("bad JSON {e:?}: {stdout}"))
}

fn diagnostics(report: &Value) -> Vec<Value> {
    report.get("diagnostics").and_then(Value::as_array).expect("diagnostics array").to_vec()
}

fn rule_of(d: &Value) -> &str {
    d.get("rule").and_then(Value::as_str).unwrap_or("")
}

#[test]
fn shape_mismatch_fixture_is_detected_at_the_matmul_node() {
    let spec = fixture("shape_mismatch.json");
    let out = run(&["plan", spec.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = json_report(&out);
    let shape_errors: Vec<Value> =
        diagnostics(&report).into_iter().filter(|d| rule_of(d) == "shape-mismatch").collect();
    assert_eq!(shape_errors.len(), 1, "{report:?}");
    let d = &shape_errors[0];
    assert_eq!(d.get("severity").and_then(Value::as_str), Some("error"));
    assert_eq!(d.get("node").and_then(Value::as_f64), Some(2.0));
    assert_eq!(d.get("op").and_then(Value::as_str), Some("matmul"));
    let msg = d.get("message").and_then(Value::as_str).unwrap();
    assert!(msg.contains("32×16 · 8×4"), "{msg}");
    let chain = d.get("chain").and_then(Value::as_str).unwrap();
    assert!(chain.contains("leaf(32×16)"), "{chain}");
}

#[test]
fn detached_param_fixture_names_the_dead_parameter() {
    let spec = fixture("detached_param.json");
    let out = run(&["plan", spec.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let report = json_report(&out);
    let detached: Vec<Value> =
        diagnostics(&report).into_iter().filter(|d| rule_of(d) == "detached-param").collect();
    assert_eq!(detached.len(), 1, "{report:?}");
    let d = &detached[0];
    assert_eq!(d.get("severity").and_then(Value::as_str), Some("error"));
    assert_eq!(d.get("node").and_then(Value::as_f64), Some(2.0));
    let msg = d.get("message").and_then(Value::as_str).unwrap();
    assert!(msg.contains("`w_detached`"), "{msg}");
    assert!(msg.contains("gradient is identically zero"), "{msg}");
}

#[test]
fn planted_unwrap_fixture_is_detected_with_file_and_line() {
    let planted = fixture("serve/src/engine.rs");
    let out = run(&["lint", planted.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let report = json_report(&out);
    let diags = diagnostics(&report);
    let unwraps: Vec<&Value> =
        diags.iter().filter(|d| rule_of(d) == "no-unwrap-in-serve").collect();
    assert_eq!(unwraps.len(), 1, "{report:?}");
    assert_eq!(unwraps[0].get("line").and_then(Value::as_f64), Some(9.0));
    let file = unwraps[0].get("file").and_then(Value::as_str).unwrap();
    assert!(file.ends_with("serve/src/engine.rs"), "{file}");
    // The planted unreachable!() is the second seeded finding; the
    // suppressed unwrap must NOT appear.
    assert!(diags.iter().any(|d| rule_of(d) == "no-panic-in-inference"), "{report:?}");
    assert_eq!(report.get("errors").and_then(Value::as_f64), Some(2.0), "{report:?}");
}

#[test]
fn lock_inversion_fixture_yields_a_named_cycle() {
    let planted = fixture("conc/lock_inversion.rs");
    let out = run(&["conc", planted.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = json_report(&out);
    let cycles: Vec<Value> =
        diagnostics(&report).into_iter().filter(|d| rule_of(d) == "lock-order-cycle").collect();
    assert_eq!(cycles.len(), 1, "{report:?}");
    let msg = cycles[0].get("message").and_then(Value::as_str).unwrap();
    assert!(msg.contains("Bank.ledger") && msg.contains("Bank.audit"), "{msg}");
    let hint = cycles[0].get("hint").and_then(Value::as_str).unwrap();
    assert!(hint.contains("`transfer`") && hint.contains("`reconcile`"), "{hint}");
}

#[test]
fn guard_across_io_fixture_is_detected_at_the_write() {
    let planted = fixture("conc/guard_across_io.rs");
    let out = run(&["conc", planted.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let report = json_report(&out);
    let hits: Vec<Value> =
        diagnostics(&report).into_iter().filter(|d| rule_of(d) == "no-lock-across-io").collect();
    // One per blocking call under the guard: write_all, then flush.
    assert_eq!(hits.len(), 2, "{report:?}");
    let msg = hits[0].get("message").and_then(Value::as_str).unwrap();
    assert!(msg.contains("Conn.out") && msg.contains("write_all"), "{msg}");
    let file = hits[0].get("file").and_then(Value::as_str).unwrap();
    assert!(file.ends_with("conc/guard_across_io.rs"), "{file}");
}

#[test]
fn deep_inversion_fixture_is_reported_through_the_call_chain() {
    let planted = fixture("conc/deep_inversion.rs");
    let out = run(&["conc", planted.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = json_report(&out);
    let diags = diagnostics(&report);
    let cycles: Vec<&Value> = diags.iter().filter(|d| rule_of(d) == "lock-order-cycle").collect();
    assert_eq!(cycles.len(), 1, "{report:?}");
    let msg = cycles[0].get("message").and_then(Value::as_str).unwrap();
    assert!(msg.contains("Bank.ledger") && msg.contains("Bank.audit"), "{msg}");
    assert!(msg.contains("transfer → a → b"), "{msg}");
    let hint = cycles[0].get("hint").and_then(Value::as_str).unwrap();
    assert!(hint.contains("`reconcile`"), "{hint}");
    let io: Vec<&Value> = diags.iter().filter(|d| rule_of(d) == "no-lock-across-io").collect();
    assert_eq!(io.len(), 1, "{report:?}");
    let msg = io[0].get("message").and_then(Value::as_str).unwrap();
    assert!(msg.contains("Bank.ledger") && msg.contains("write_all"), "{msg}");
    assert!(msg.contains("publish → send"), "{msg}");
    assert_eq!(io[0].get("line").and_then(Value::as_f64), Some(42.0), "{msg}");
}

#[test]
fn conc_bench_line_records_the_resolved_surface() {
    let bench = std::env::temp_dir().join(format!("conc-bench-{}.json", std::process::id()));
    let planted = fixture("conc/deep_inversion.rs");
    let args = ["conc", planted.to_str().unwrap(), "--bench", bench.to_str().unwrap()];
    assert_eq!(run(&args).status.code(), Some(1));
    let text = std::fs::read_to_string(&bench).unwrap();
    std::fs::remove_file(&bench).ok();
    let v: Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(v.get("tool").and_then(Value::as_str), Some("ams-check conc"), "{v:?}");
    assert!(v.get("wall_ms").and_then(Value::as_f64).is_some(), "{v:?}");
    // transfer, b, reconcile ×2, publish; the a(…) and send(…) calls
    // release what they take, so they order but are not sites.
    for (key, want) in [("files", 1.0), ("functions", 6.0), ("acquisitions", 5.0)] {
        assert_eq!(v.get(key).and_then(Value::as_f64), Some(want), "{key}: {v:?}");
    }
    assert!(v.get("edges").and_then(Value::as_f64).unwrap_or(0.0) >= 2.0, "{v:?}");
}

#[test]
fn workspace_conc_surface_is_clean_and_exits_zero() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let args = ["conc", "--root", repo_root.to_str().unwrap(), "--format", "json"];
    let out = run(&args);
    let report = json_report(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} found errors: {}",
        serde_json::to_string(&report).unwrap()
    );
    assert_eq!(report.get("errors").and_then(Value::as_f64), Some(0.0));
    // `--conc` is gone: the `conc` subcommand is the one way in.
    assert_eq!(run(&["--conc", "plan", "x.json"]).status.code(), Some(2));
}

#[test]
fn workspace_lint_is_clean_and_exits_zero() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let out = run(&["--root", repo_root.to_str().unwrap(), "--format", "json"]);
    let report = json_report(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint found errors: {}",
        serde_json::to_string(&report).unwrap()
    );
    assert_eq!(report.get("errors").and_then(Value::as_f64), Some(0.0));
}

#[test]
fn internal_failures_exit_two() {
    // Unknown flag.
    assert_eq!(run(&["--bogus"]).status.code(), Some(2));
    // Unreadable plan file.
    assert_eq!(run(&["plan", "/nonexistent/plan.json"]).status.code(), Some(2));
    // Malformed spec.
    let bad = std::env::temp_dir().join("ams_check_bad_spec.json");
    std::fs::write(&bad, "{\"nodes\": [{\"op\": \"conv2d\"}]}").unwrap();
    let out = run(&["plan", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown op"));
    // Nonexistent root.
    assert_eq!(run(&["--root", "/nonexistent/dir"]).status.code(), Some(2));
}

#[test]
fn text_format_renders_chain_and_summary() {
    let spec = fixture("shape_mismatch.json");
    let out = run(&["plan", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[shape-mismatch]"), "{text}");
    assert!(text.contains("chain:"), "{text}");
    assert!(text.contains("error(s)"), "{text}");
}

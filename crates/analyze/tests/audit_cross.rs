//! Cross-validation of the two allocation oracles, in one test: the
//! static audit's alloc-free verdict for `Engine::predict_batch_with`
//! (interprocedural, over the real workspace sources) must agree with
//! the dynamic `Workspace` alloc counter (empirical, over a real
//! trained engine at steady state). If either oracle weakens — a new
//! hot allocation slips in, or the counter stops counting — this test
//! is the tripwire.

use ams_analyze::audit;
use ams_serve::demo::train_demo;
use ams_serve::Engine;
use ams_tensor::runtime::{seq, Workspace};
use std::path::Path;

#[test]
fn static_and_dynamic_alloc_oracles_agree_on_the_serve_hot_path() {
    // --- Static half: audit the real workspace against audit.toml. ---
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let config = root.join("audit.toml");
    let (report, stats) = audit::audit_workspace(&root, &config).expect("workspace audit runs");
    assert!(
        !report.has_errors(),
        "static oracle reports hot-path violations:\n{}",
        report.render_text()
    );
    assert!(stats.roots >= 11, "audit.toml roots went missing: {}", stats.roots);
    let verdicts: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "audit-root-clean")
        .map(|d| d.message.clone())
        .collect();
    let serve_verdict = verdicts
        .iter()
        .find(|m| m.contains("predict_batch_with"))
        .expect("serve-batch-hot-path root verified");
    assert!(
        serve_verdict.contains("alloc-free") && serve_verdict.contains("panic-free"),
        "static verdict lost a fact: {serve_verdict}"
    );

    // --- Dynamic half: the alloc counter on a real trained engine. ---
    let bundle = train_demo(7);
    let engine = Engine::new(bundle.artifact).expect("engine loads");
    let backend = seq();
    let mut ws = Workspace::new();

    // Warm-up: the arena is allowed to allocate while it grows.
    for _ in 0..3 {
        let pred = engine
            .predict_batch_with(&bundle.test_x, backend.as_ref(), &mut ws)
            .expect("warm-up predict");
        ws.give(pred.into_vec());
    }
    let (allocs_before, _) = ws.counters();

    // Steady state: the path the static oracle certified must add
    // zero fresh allocations through the arena.
    for _ in 0..5 {
        let pred = engine
            .predict_batch_with(&bundle.test_x, backend.as_ref(), &mut ws)
            .expect("steady-state predict");
        assert_eq!(pred.rows(), bundle.test_y.rows());
        ws.give(pred.into_vec());
    }
    let (allocs_after, reuses) = ws.counters();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "dynamic oracle disagrees: {} fresh allocations at steady state (static verdict: {serve_verdict})",
        allocs_after - allocs_before
    );
    assert!(reuses > 0, "arena never reused a buffer — the dynamic oracle saw no traffic");
}

/// The serve hot path runs the one generic AMS forward: its closure
/// must reach the engine's `Executor` ops and through them the kernels,
/// and must not reach the training tape (`Graph`, `Tape`) — the
/// `ForwardOps = Executor` bind in audit.toml is what keeps dispatch on
/// the serving side.
#[test]
fn serve_batch_closure_runs_the_executor_not_the_tape() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let closure = audit::root_closure(&root, &root.join("audit.toml"), "serve-batch-hot-path")
        .expect("closure of the serve batch root");
    for want in [
        "AmsModel::forward",
        "GatLayer::forward",
        "GatHead::forward",
        "Executor::matmul",
        "Executor::graph_attention",
        "Executor::concat_push",
        "Executor::rowwise_dot",
        "graph_attention",
        "mac_row",
        "add_bias_rows",
        "matmul",
    ] {
        assert!(closure.iter().any(|f| f == want), "`{want}` missing from {closure:?}");
    }
    let tape: Vec<&String> =
        closure.iter().filter(|f| f.starts_with("Graph::") || f.starts_with("Tape::")).collect();
    assert!(tape.is_empty(), "tape methods in the serve closure: {tape:?}");
}

//! `perfbench --suite`: every workload, untraced and traced, at two
//! seeds, each run in a fresh process of this binary so that its peak
//! memory is its own. Prints each metric for both seeds side by side,
//! and the tracing overhead (traced minus untraced) of every end-to-end
//! metric.

use crate::WORKLOADS;
use serde::Value;
use std::process::Command;

/// The parsed output of one run: its result line, and for a traced run
/// the end-to-end numbers it measured with tracing on.
struct RunOutput {
    result: Value,
    traced_end_to_end: Option<Value>,
}

fn invoke(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let mut traced_end_to_end = None;
    let mut result = None;
    for line in stdout.lines() {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("bad output line: {e}"))?;
        if let Some(t) = v.get("traced_end_to_end") {
            traced_end_to_end = Some(t.clone());
        }
        result = Some(v);
    }
    let result = result.ok_or(format!("{workload} seed {seed} printed nothing"))?;
    Ok(RunOutput { result, traced_end_to_end })
}

/// `(name, value, unit)` of every metric in a metrics object.
fn metrics(obj: Option<&Value>) -> Vec<(String, f64, String)> {
    let Some(Value::Object(fields)) = obj else { return Vec::new() };
    fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            (name.clone(), value, unit)
        })
        .collect()
}

fn value_of(obj: Option<&Value>, name: &str) -> f64 {
    obj.and_then(|o| o.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

pub fn run(seed: u64, seconds: f64) -> i32 {
    let seeds = [seed, seed + 1];
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        for &s in &seeds {
            match (invoke(workload, s, seconds, false), invoke(workload, s, seconds, true)) {
                (Ok(p), Ok(t)) => {
                    for r in [&p, &t] {
                        all_correct &=
                            r.result.get("correct").and_then(Value::as_bool) == Some(true);
                    }
                    plain.push(p);
                    traced.push(t);
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("perfbench --suite: {e}");
                    return 1;
                }
            }
        }
        println!("== {workload} (seeds {} and {}, {seconds} s per run)", seeds[0], seeds[1]);
        println!(
            "{:<28} {:<6} {:>14} {:>14} {:>14} {:>14}",
            "end to end", "unit", "seed a", "seed b", "trace ovh a", "trace ovh b"
        );
        for (name, a, unit) in metrics(plain[0].result.get("metrics")) {
            let b = value_of(plain[1].result.get("metrics"), &name);
            let ovh = |i: usize, plain_value: f64| {
                value_of(traced[i].traced_end_to_end.as_ref(), &name) - plain_value
            };
            println!(
                "{name:<28} {unit:<6} {a:>14.4} {b:>14.4} {:>+14.4} {:>+14.4}",
                ovh(0, a),
                ovh(1, b)
            );
        }
        println!("{:<28} {:<6} {:>14} {:>14}", "per layer", "unit", "seed a", "seed b");
        for (name, a, unit) in metrics(traced[0].result.get("metrics")) {
            let b = value_of(traced[1].result.get("metrics"), &name);
            println!("{name:<28} {unit:<6} {a:>14.4} {b:>14.4}");
        }
        println!();
    }
    if all_correct {
        0
    } else {
        eprintln!("perfbench --suite: some run reported correct=false");
        1
    }
}

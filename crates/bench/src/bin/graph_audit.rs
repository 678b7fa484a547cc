//! Static tape-IR audit of the AMS training graph across every
//! Table III ablation variant (plus the architecture knobs: residual
//! off, slave-column subset, reduced widths).
//!
//! For each variant this records one real epoch-0 training graph via
//! `AmsModel::training_audit` — phase-1 anchored LR, warm-started
//! parameters, dropout masks and all — and runs the full `ams-analyze`
//! pass suite over its plan: symbolic shape inference, gradient
//! reachability of every parameter from Γ_master, dead-node /
//! duplicate detection and numerical-risk rules. CI runs this next to
//! `ams-check`: exit 1 if any variant's graph carries an
//! error-severity finding.

use ams_analyze::{analyze, PlanAudit};
use ams_core::{AmsConfig, AmsModel, QuarterBatch};
use ams_graph::CompanyGraph;
use ams_tensor::init::standard_normal;
use ams_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// Small synthetic universe with the same structure the experiment
/// harness feeds `fit`: one feature matrix and label column per
/// quarter, rows aligned to graph nodes.
fn synthetic_quarters(
    n: usize,
    d: usize,
    quarters: usize,
    seed: u64,
) -> (CompanyGraph, Vec<QuarterBatch>) {
    let graph = CompanyGraph::complete(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let train = (0..quarters)
        .map(|_| {
            let mut x = Matrix::zeros(n, d);
            let mut y = Matrix::zeros(n, 1);
            for i in 0..n {
                for j in 0..d {
                    x[(i, j)] = standard_normal(&mut rng);
                }
                y[(i, 0)] = x[(i, 0)] - 0.5 * x[(i, 1)] + 0.05 * standard_normal(&mut rng);
            }
            QuarterBatch { x, y }
        })
        .collect();
    (graph, train)
}

fn main() -> ExitCode {
    let base = AmsConfig { epochs: 1, ..Default::default() };
    let variants: Vec<(&str, AmsConfig)> = vec![
        ("AMS (full)", base.clone()),
        ("w/o supervised gen (λ_slg=0)", AmsConfig { lambda_slg: 0.0, ..base.clone() }),
        ("w/o assembly (γ=1)", AmsConfig { gamma: 1.0, ..base.clone() }),
        ("Γ₁ only (γ=1, λ_slg=0)", AmsConfig { gamma: 1.0, lambda_slg: 0.0, ..base.clone() }),
        ("global only (γ=0)", AmsConfig { gamma: 0.0, ..base.clone() }),
        ("w/o residual skip", AmsConfig { residual: false, ..base.clone() }),
        ("slave columns subset", AmsConfig { slave_cols: Some(vec![0, 2, 4]), ..base.clone() }),
        (
            "reduced widths (-na regime)",
            AmsConfig {
                nt_hidden: vec![16],
                gat_hidden: 4,
                gat_heads: 2,
                gat_out: 8,
                gen_hidden: vec![16],
                ..base.clone()
            },
        ),
        ("no dropout", AmsConfig { dropout: 0.0, ..base }),
    ];

    let (graph, train) = synthetic_quarters(12, 6, 3, 2024);
    println!("{:<32} {:>7} {:>7} {:>7} {:>7}", "Variant", "nodes", "params", "errors", "warns");
    let mut failed = false;
    for (name, config) in variants {
        let model = AmsModel::new(config);
        let audit = model.training_audit(&graph, &train);
        let nodes = audit.plan.len();
        let n_params = audit.params.len();
        let report =
            analyze(&PlanAudit { plan: audit.plan, params: audit.params, loss: Some(audit.loss) });
        println!(
            "{:<32} {:>7} {:>7} {:>7} {:>7}",
            name,
            nodes,
            n_params,
            report.errors(),
            report.warnings()
        );
        if report.has_errors() {
            failed = true;
            for d in &report.diagnostics {
                println!("  {}", d.render_text().replace('\n', "\n  "));
            }
        }
    }
    if failed {
        eprintln!("graph_audit: at least one variant's training graph has error findings");
        ExitCode::from(1)
    } else {
        println!("all variants clean: every parameter reachable, all shapes consistent");
        ExitCode::SUCCESS
    }
}

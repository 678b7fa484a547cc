//! Design-choice ablation: the two regularization techniques of §III-E.
//!
//! Compares full AMS against variants with supervised LR generation
//! disabled (λ_slg = 0), model assembly disabled (γ = 1), the pure
//! generated-LR objective Γ₁ of Eq. 7 (both off), and the degenerate
//! global model (γ = 0 — the slave never adapts). The paper motivates
//! both techniques as overfitting control for the generated slave
//! models; this bench quantifies that on the transaction panel.

use ams_bench::exp::{Dataset, DATA_SEED, MODEL_SEED, N_SEEDS};
use ams_core::AmsConfig;
use ams_eval::{run_model, EvalOptions, ModelKind};

fn main() {
    let dataset = Dataset::Transaction;
    let base = AmsConfig { seed: MODEL_SEED, ..Default::default() };
    let variants: Vec<(&str, AmsConfig)> = vec![
        ("AMS (full)", base.clone()),
        ("AMS w/o supervised gen (λ_slg=0)", AmsConfig { lambda_slg: 0.0, ..base.clone() }),
        ("AMS w/o assembly (γ=1)", AmsConfig { gamma: 1.0, ..base.clone() }),
        ("Γ₁ only (γ=1, λ_slg=0)", AmsConfig { gamma: 1.0, lambda_slg: 0.0, ..base.clone() }),
        ("global only (γ=0)", AmsConfig { gamma: 0.0, ..base.clone() }),
    ];
    println!("Regularizer ablation on {} dataset (mean over {N_SEEDS} seeds)", dataset.name());
    println!("{:<36} {:>9} {:>9}", "Variant", "BA", "SR");
    for (name, config) in variants {
        let kind = ModelKind::Ams { config, graph_k: 5 };
        let (mut ba, mut sr) = (0.0, 0.0);
        for seed in DATA_SEED..DATA_SEED + N_SEEDS {
            eprintln!("  running {name} (seed {seed}) ...");
            let panel = dataset.panel_for_seed(seed);
            let cv = run_model(&panel, &kind, &EvalOptions::paper_for(&panel));
            ba += cv.mean_ba();
            sr += cv.mean_sr();
        }
        println!("{:<36} {:>9.3} {:>9.4}", name, ba / N_SEEDS as f64, sr / N_SEEDS as f64);
    }
}

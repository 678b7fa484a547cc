//! Extension study (beyond the paper's own tables): AMS's "aggressive"
//! adaptation vs the related-work adaptive families of §V-B — the
//! semi-lazy local-regression approach and a passive online-RLS model
//! — on the transaction panel.

use ams_bench::exp::{Dataset, DATA_SEED, MODEL_SEED, N_SEEDS};
use ams_core::AmsConfig;
use ams_eval::{run_model, EvalOptions, ModelKind};

fn main() {
    let dataset = Dataset::Transaction;
    let kinds = vec![
        ModelKind::Ams { config: AmsConfig { seed: MODEL_SEED, ..Default::default() }, graph_k: 5 },
        ModelKind::SemiLazy { k: 40, lambda: 1.0 },
        ModelKind::SemiLazy { k: 120, lambda: 1.0 },
        ModelKind::OnlineRidge { forgetting: 0.98 },
        ModelKind::OnlineRidge { forgetting: 1.0 },
        ModelKind::Ridge { lambda: 1.0 },
    ];
    println!(
        "Adaptive-family comparison on {} dataset (mean over {N_SEEDS} seeds)",
        dataset.name()
    );
    println!("{:<28} {:>9} {:>9}", "Model", "BA", "SR");
    for kind in &kinds {
        let label = match kind {
            ModelKind::SemiLazy { k, .. } => format!("SemiLazy (k={k})"),
            ModelKind::OnlineRidge { forgetting } => format!("OnlineRidge (λ={forgetting})"),
            other => other.name(),
        };
        let (mut ba, mut sr) = (0.0, 0.0);
        for seed in DATA_SEED..DATA_SEED + N_SEEDS {
            eprintln!("  running {label} (seed {seed}) ...");
            let panel = dataset.panel_for_seed(seed);
            let cv = run_model(&panel, kind, &EvalOptions::paper_for(&panel));
            ba += cv.mean_ba();
            sr += cv.mean_sr();
        }
        println!("{:<28} {:>9.3} {:>9.4}", label, ba / N_SEEDS as f64, sr / N_SEEDS as f64);
    }
}

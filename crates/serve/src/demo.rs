//! End-to-end demo/fixture builder: synthesize a small universe, train
//! an AMS model the same way the evaluation harness does (train-split
//! standardization, leakage-safe correlation graph), and export a
//! [`ModelArtifact`].
//!
//! Used by the `serve --demo` quickstart, the crate's unit tests and
//! the workspace integration tests, so they all exercise one code
//! path.

use crate::artifact::{ModelArtifact, Provenance};
use ams_core::{AmsConfig, AmsModel, QuarterBatch};
use ams_data::{generate, FeatureSet, Standardizer, SynthConfig};
use ams_graph::{CompanyGraph, GraphConfig};
use ams_tensor::Matrix;

/// Everything the demo training run produces. `artifact` embeds copies
/// of the other fields; they are exposed separately so tests can
/// compare the served path against the in-process model.
pub struct TrainedBundle {
    /// The exported artifact (reference features = the test quarter).
    pub artifact: ModelArtifact,
    /// The in-process fitted model the artifact was exported from.
    pub model: AmsModel,
    /// Standardized test-quarter features (one row per company).
    pub test_x: Matrix,
    /// Standardized test-quarter labels.
    pub test_y: Matrix,
}

/// Train a small AMS on a seeded synthetic universe and export it.
///
/// The schedule mirrors one fold of the paper's expanding window:
/// quarters `k..=7` train, quarter 8 validates, quarter 9 is the test
/// quarter whose features become the artifact's reference features.
pub fn train_demo(seed: u64) -> TrainedBundle {
    // Slave model on a leading slice of the continuous block — small so
    // the demo trains in well under a second, and a strict subset so
    // the slave-column projection path is exercised end to end.
    let config = AmsConfig {
        nt_hidden: vec![16],
        gen_hidden: vec![16],
        epochs: 40,
        dropout: 0.0,
        slave_cols: Some((0..8).collect()),
        seed,
        ..AmsConfig::default()
    };
    train_with(seed, config)
}

/// [`train_demo`]'s universe and schedule, fitted under `config`.
pub(crate) fn train_with(seed: u64, config: AmsConfig) -> TrainedBundle {
    let synth = generate(&SynthConfig::tiny(seed));
    let panel = &synth.panel;
    let k = 4;
    let fs = FeatureSet::build(panel, k);
    let (val_q, test_q) = (8, 9);

    let train_quarters: Vec<usize> = (k..val_q).collect();
    let train_ids = fs.samples_at_quarters(&train_quarters);
    let st = Standardizer::fit(&fs, &train_ids);
    let z = st.transform(&fs);

    // Correlation graph from revenue history strictly before the test
    // quarter (§III-C leakage discipline).
    let graph =
        CompanyGraph::from_series(&panel.all_revenue_series(0, test_q), GraphConfig::default());

    let batch_at = |t: usize| {
        let ids = z.samples_at_quarter(t);
        let (x, rows, cols, y) = z.design(&ids);
        QuarterBatch { x: Matrix::from_vec(rows, cols, x), y: Matrix::from_vec(rows, 1, y) }
    };
    let train: Vec<QuarterBatch> = train_quarters.iter().map(|&t| batch_at(t)).collect();
    let val = batch_at(val_q);
    let test = batch_at(test_q);

    let mut model = AmsModel::new(config);
    model.fit_with_validation(&graph, &train, Some(&val));

    let artifact = ModelArtifact::export(
        "ams-demo",
        1,
        &model,
        &graph,
        Some(&st),
        &fs.names,
        &test.x,
        Provenance {
            created_by: "ams-serve demo".to_string(),
            description: format!("synthetic tiny universe, seed {seed}, test quarter {test_q}"),
            seed,
        },
    );
    TrainedBundle { artifact, model, test_x: test.x, test_y: test.y }
}

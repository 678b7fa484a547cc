//! The paper-fold pipeline: store file → panel → features and
//! standardizer → correlation graph → `AmsModel::fit` on the first fold
//! of the paper's expanding window → test-quarter prediction → artifact
//! export → `Engine`. Every layer call sits in its own span.

use crate::trace::Tracer;
use ams_core::{AmsConfig, AmsModel, QuarterBatch};
use ams_data::{generate, CvSchedule, FeatureSet, Standardizer, SynthConfig};
use ams_eval::harness::{continuous_columns, EvalOptions};
use ams_eval::metrics::bounded_accuracy;
use ams_graph::{CompanyGraph, GraphConfig};
use ams_serve::engine::fast_vs_batch_deviation;
use ams_serve::{Engine, ModelArtifact, Provenance};
use ams_store::{write_panel, StoreReader};
use ams_tensor::Matrix;
use std::path::{Path, PathBuf};

/// Epoch budget of one `train_fold` operation. Training runs without a
/// validation quarter, so nothing stops it early and every fit does the
/// same amount of work whatever the float order.
pub const FOLD_EPOCHS: usize = 300;

/// Lowest bounded accuracy (percent) a `train_fold` operation may score
/// on its test quarter. Random guessing scores near 0 (BA counts a hit
/// only when the prediction beats the consensus); the 300-epoch fold
/// scored 38–63% on seeds 1–8.
pub const BA_FLOOR: f64 = 25.0;

/// Largest |engine − tape| the exported engine may deviate by
/// (`train_and_export` asserts the same bound).
const ENGINE_TOLERANCE: f64 = 1e-10;

/// Companies per store block (the store's random-access unit).
const STORE_BLOCK: usize = 16;

/// Write the seed's 71-company, 16-quarter transaction panel as a store
/// file; this is the `train_fold` set-up.
pub fn write_store(seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let synth = generate(&SynthConfig::transaction_paper(seed));
    let path = dir.join(format!("panel-{seed}.ams"));
    write_panel(&path, &synth.panel, STORE_BLOCK).map_err(|e| format!("write store: {e}"))?;
    Ok(path)
}

/// A fold's model inputs, as the data and graph layers produce them.
pub struct FoldInputs {
    fs: FeatureSet,
    st: Standardizer,
    train: Vec<QuarterBatch>,
    test: QuarterBatch,
    test_ids: Vec<usize>,
    graph: CompanyGraph,
}

/// What one fold run produced, for the caller's checks and for serving.
pub struct FoldRun {
    pub inputs: FoldInputs,
    pub engine: Engine,
    pub bytes_read: u64,
}

/// Read the panel from the store and build the first paper fold's
/// inputs; returns them with the store bytes the read took.
fn prepare(store: &Path, tr: &mut Tracer) -> Result<(FoldInputs, u64), String> {
    let s = tr.enter("store.read_panel");
    let mut reader = StoreReader::open(store).map_err(|e| format!("open store: {e}"))?;
    let panel = reader.read_panel().map_err(|e| format!("read panel: {e}"))?;
    let bytes_read = reader.bytes_read();
    tr.exit(s);

    let s = tr.enter("data.features");
    let opts = EvalOptions::paper_for(&panel);
    let schedule = CvSchedule::paper(panel.num_quarters(), opts.k, opts.n_folds);
    let fold = &schedule.folds()[0];
    let fs = FeatureSet::build(&panel, opts.k);
    let st = Standardizer::fit(&fs, &fs.samples_at_quarters(&fold.train));
    let z = st.transform(&fs);
    let design = |t: usize| {
        let (x, rows, cols, y) = z.design(&z.samples_at_quarter(t));
        QuarterBatch { x: Matrix::from_vec(rows, cols, x), y: Matrix::from_vec(rows, 1, y) }
    };
    let train = fold.train.iter().map(|&t| design(t)).collect();
    let test = design(fold.test);
    let test_ids = z.samples_at_quarter(fold.test);
    tr.exit(s);

    let s = tr.enter("graph.build");
    let graph =
        CompanyGraph::from_series(&panel.all_revenue_series(0, fold.test), GraphConfig::default());
    tr.exit(s);
    Ok((FoldInputs { fs, st, train, test, test_ids, graph }, bytes_read))
}

/// One paper-fold run from the store file. `epochs` is the fit budget;
/// the result is checked (finite predictions, engine ≡ tape, and the
/// test-quarter BA against `ba_floor` when given) and any violation is
/// an `Err`.
pub fn run_fold(
    store: &Path,
    seed: u64,
    epochs: usize,
    ba_floor: Option<f64>,
    tr: &mut Tracer,
) -> Result<FoldRun, String> {
    let fold_span = tr.enter("fold");
    let (inputs, bytes_read) = prepare(store, tr)?;

    let s = tr.enter("core.fit");
    let model = fit(&inputs, seed, epochs);
    tr.exit(s);

    let s = tr.enter("core.predict");
    let pred = model.predict(&inputs.test.x);
    tr.exit(s);

    let export_span = tr.enter("serve.export");
    let artifact = ModelArtifact::export(
        "ams-fold",
        1,
        &model,
        &inputs.graph,
        Some(&inputs.st),
        &inputs.fs.names,
        &inputs.test.x,
        Provenance {
            created_by: "perfbench".to_string(),
            description: format!("transaction panel, seed {seed}, fold 0"),
            seed,
        },
    );
    let s = tr.enter("serve.artifact_serialize");
    let json = artifact.to_json();
    tr.exit(s);
    let s = tr.enter("serve.artifact_parse");
    let loaded = ModelArtifact::from_json(&json);
    tr.exit(s);
    let s = tr.enter("serve.engine_load");
    let engine = loaded.and_then(Engine::new);
    tr.exit(s);
    tr.exit(export_span);
    let engine = engine.map_err(|e| format!("exported artifact does not load: {e}"))?;

    let s = tr.enter("check");
    let checked = check_fold(&engine, &pred, &inputs, ba_floor);
    tr.exit(s);
    tr.exit(fold_span);
    checked?;
    Ok(FoldRun { inputs, engine, bytes_read })
}

/// The fit the paper's harness runs on a fold (default hyperparameters,
/// continuous columns to the slave), at a fixed budget and without
/// early stopping.
fn fit(inputs: &FoldInputs, seed: u64, epochs: usize) -> AmsModel {
    let config = AmsConfig {
        epochs,
        seed,
        slave_cols: Some(continuous_columns(&inputs.fs)),
        ..AmsConfig::default()
    };
    let mut model = AmsModel::new(config);
    model.fit(&inputs.graph, &inputs.train);
    model
}

fn check_fold(
    engine: &Engine,
    pred: &Matrix,
    inputs: &FoldInputs,
    ba_floor: Option<f64>,
) -> Result<(), String> {
    if pred.as_slice().iter().any(|v| !v.is_finite()) {
        return Err("non-finite test-quarter prediction".to_string());
    }
    let served = engine.predict_batch(&engine.artifact().reference_features)?;
    let worst = pred
        .as_slice()
        .iter()
        .zip(served.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if worst >= ENGINE_TOLERANCE {
        return Err(format!("engine deviates from the tape by {worst:e}"));
    }
    let fast = fast_vs_batch_deviation(engine)?;
    if fast >= ENGINE_TOLERANCE {
        return Err(format!("engine fast path deviates from its batch path by {fast:e}"));
    }
    let Some(floor) = ba_floor else { return Ok(()) };
    let (pred_ur, actual_ur): (Vec<f64>, Vec<f64>) = inputs
        .test_ids
        .iter()
        .zip(pred.as_slice())
        .map(|(&i, &p)| {
            let s = &inputs.fs.samples[i];
            (inputs.st.destandardize_label(p) * s.denom, s.unexpected_revenue())
        })
        .unzip();
    let ba = bounded_accuracy(&pred_ur, &actual_ur);
    if ba.is_nan() || ba < floor {
        return Err(format!("test-quarter BA {ba:.1}% is below the {floor}% floor"));
    }
    Ok(())
}

/// Per-epoch cost growth from two public `fit` calls on the same fold:
/// the marginal per-epoch cost of the last two thirds of a full-budget
/// fit (`full_secs`, measured by the caller) over the per-epoch cost of
/// a one-third-budget fit run here. 1.0 means an epoch costs the same
/// however many came before it.
pub fn epoch_cost_growth(inputs: &FoldInputs, seed: u64, epochs: usize, full_secs: f64) -> f64 {
    let third = (epochs / 3).max(1);
    let t = std::time::Instant::now();
    std::hint::black_box(fit(inputs, seed, third));
    let short = t.elapsed().as_secs_f64();
    ((full_secs - short) / (epochs - third) as f64) / (short / third as f64)
}

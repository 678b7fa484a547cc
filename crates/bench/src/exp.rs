//! Shared experiment plumbing for the experiment binaries.
//!
//! Every binary reproduces paper artifacts from the same two panels
//! (fixed data seeds) and the same model lineup (fixed model seed), so
//! results are bit-reproducible. Tables I–V and Figures 6/7 all read one
//! set of cross-validation cells: [`DatasetRuns::compute`] runs each
//! cell once, in memory, and the `paper` binary renders every table
//! from it. Nothing is read back from disk.

use std::fs;
use std::path::PathBuf;

use ams_backtest::{BacktestResult, MarketConfig, MarketSim, Signals};
use ams_data::{generate, Panel, SynthConfig};
use ams_eval::ablation::AblationRow;
use ams_eval::{run_model, CvResult, EvalOptions, ModelKind};

/// Base data seed used by every experiment binary.
pub const DATA_SEED: u64 = 42;
/// Model seed used by every experiment binary.
pub const MODEL_SEED: u64 = 7;
/// Number of independent panel realizations averaged by the table
/// binaries. The paper repeats training 10 times; on synthetic data the
/// dominant variance is the panel realization itself, so we draw
/// several panels (seeds `DATA_SEED..DATA_SEED+N`) and aggregate
/// metrics across all seed × fold cells.
pub const N_SEEDS: u64 = 5;

/// The two datasets of §II-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// 71 companies × 16 quarters, one transaction-amount channel.
    Transaction,
    /// 62 companies × 9 quarters, store + parking map-query channels.
    MapQuery,
}

impl Dataset {
    /// Directory-safe name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Transaction => "transaction",
            Dataset::MapQuery => "map_query",
        }
    }

    /// Generate the panel for the base seed.
    pub fn panel(self) -> Panel {
        self.panel_for_seed(DATA_SEED)
    }

    /// Generate the panel for an explicit seed.
    pub fn panel_for_seed(self, seed: u64) -> Panel {
        match self {
            Dataset::Transaction => generate(&SynthConfig::transaction_paper(seed)).panel,
            Dataset::MapQuery => generate(&SynthConfig::map_query_paper(seed)).panel,
        }
    }

    /// Number of alternative channels.
    pub fn n_channels(self) -> usize {
        match self {
            Dataset::Transaction => 1,
            Dataset::MapQuery => 2,
        }
    }
}

/// Where the bench binaries write their outputs (override with
/// `AMS_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("AMS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Write a `BENCH_*.json` record into [`results_dir`] and say where.
pub fn write_bench(file: &str, json: &str) {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(file);
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {}", path.display());
}

/// Whether a lineup model learns from features: the eight models of
/// Tables III–V. ARIMA never sees alternative data and QoQ/YoY *are*
/// alternative-data rules, so neither has a `-na` variant or a backtest.
pub(crate) fn is_learned(kind: &ModelKind) -> bool {
    !matches!(kind, ModelKind::Arima(_) | ModelKind::Naive { .. })
}

/// Every cross-validation cell the paper's evaluation reads on one
/// dataset, for the [`N_SEEDS`] panels `DATA_SEED..DATA_SEED+N_SEEDS`.
pub struct DatasetRuns {
    /// The dataset.
    pub dataset: Dataset,
    /// `with[m][s]`: Table I/II lineup model `m` on panel seed
    /// `DATA_SEED + s`.
    with: Vec<Vec<CvResult>>,
    /// `without[m][s]`: the same cell with the alternative-data columns
    /// dropped; empty for the models that are not learned.
    without: Vec<Vec<CvResult>>,
}

impl DatasetRuns {
    /// Run every cell once: the Table I/II lineup with alternative
    /// data, and its learned models without it.
    pub fn compute(dataset: Dataset) -> Self {
        let lineup = ModelKind::paper_lineup(dataset.n_channels(), MODEL_SEED);
        let mut with = vec![Vec::new(); lineup.len()];
        let mut without = vec![Vec::new(); lineup.len()];
        for seed in DATA_SEED..DATA_SEED + N_SEEDS {
            let panel = dataset.panel_for_seed(seed);
            let opts = EvalOptions::paper_for(&panel);
            let na_opts = EvalOptions { drop_alternative: true, ..opts.clone() };
            for (m, kind) in lineup.iter().enumerate() {
                eprintln!("  running {} on {} (seed {seed}) ...", kind.name(), dataset.name());
                with[m].push(run_model(&panel, kind, &opts));
                if is_learned(kind) {
                    without[m].push(run_model(&panel, kind, &na_opts));
                }
            }
        }
        Self { dataset, with, without }
    }

    /// The learned models' cells, `(with, without)` per model.
    fn learned(&self) -> impl Iterator<Item = (&[CvResult], &[CvResult])> {
        self.with
            .iter()
            .zip(&self.without)
            .filter(|(_, without)| !without.is_empty())
            .map(|(with, without)| (with.as_slice(), without.as_slice()))
    }

    /// The Table I/II input: each lineup model's per-quarter results
    /// over every seed, concatenated, so BA/SR means and t-tests
    /// aggregate over all seed × fold cells.
    pub fn merged(&self) -> Vec<CvResult> {
        self.with
            .iter()
            .map(|cells| CvResult {
                model: cells[0].model.clone(),
                per_quarter: cells.iter().flat_map(|cv| cv.per_quarter.iter().cloned()).collect(),
            })
            .collect()
    }

    /// The Table III rows, one per learned model.
    pub fn ablation_rows(&self) -> Vec<AblationRow> {
        self.learned().map(|(with, without)| AblationRow::from_cells(with, without)).collect()
    }

    /// The Tables IV/V backtests (and Figures 6/7): the base seed's
    /// learned-model cells, every strategy trading on the same
    /// simulated price paths.
    pub fn backtests(&self) -> Vec<BacktestResult> {
        let panel = self.dataset.panel();
        let mut market: Option<MarketSim> = None;
        self.learned()
            .map(|(with, _)| {
                let (quarters, signals) = signals_from_cv(&panel, &with[0]);
                let sim = market.get_or_insert_with(|| market_for(&panel, &quarters));
                ams_backtest::run_strategy(&panel, sim, &signals, &with[0].model, 100.0)
            })
            .collect()
    }
}

/// Average each model's per-quarter metric by calendar quarter across
/// seeds — the per-quarter columns of the map-query tables.
pub fn per_quarter_means(cv: &CvResult) -> Vec<(String, f64, f64)> {
    let mut labels: Vec<String> = Vec::new();
    for q in &cv.per_quarter {
        let l = q.quarter.to_string();
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    labels
        .into_iter()
        .map(|l| {
            let (mut ba, mut sr, mut n) = (0.0, 0.0, 0.0);
            for q in &cv.per_quarter {
                if q.quarter.to_string() == l {
                    ba += q.ba;
                    sr += q.sr;
                    n += 1.0;
                }
            }
            (l, ba / n, sr / n)
        })
        .collect()
}

/// Convert a CV result into per-window trading signals aligned with the
/// panel's company ids. Quarters are the CV test quarters in order.
fn signals_from_cv(panel: &Panel, cv: &CvResult) -> (Vec<usize>, Signals) {
    let mut quarters = Vec::with_capacity(cv.per_quarter.len());
    let mut signals = Vec::with_capacity(cv.per_quarter.len());
    for q in &cv.per_quarter {
        let tq = panel.quarter_index(q.quarter).expect("test quarter in panel");
        quarters.push(tq);
        let mut sig = vec![0.0; panel.num_companies()];
        for rec in &q.preds {
            sig[rec.company] = rec.pred_ur;
        }
        signals.push(sig);
    }
    (quarters, signals)
}

/// The shared market simulation for a dataset's backtest window.
fn market_for(panel: &Panel, quarters: &[usize]) -> MarketSim {
    MarketSim::simulate(panel, quarters, MarketConfig { seed: DATA_SEED, ..Default::default() })
}

/// Write every model's daily asset curve to a CSV (day, model columns).
pub fn write_curves_csv(path: &std::path::Path, results: &[BacktestResult]) {
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let mut out = String::from("day");
    for r in results {
        out.push(',');
        out.push_str(&r.model);
    }
    out.push('\n');
    let days = results.iter().map(|r| r.asset_curve.len()).max().unwrap_or(0);
    for d in 0..days {
        out.push_str(&d.to_string());
        for r in results {
            out.push(',');
            if let Some(v) = r.asset_curve.get(d) {
                out.push_str(&format!("{v:.4}"));
            }
        }
        out.push('\n');
    }
    fs::write(path, out).expect("write curves csv");
}

/// Eight-level unicode sparkline of a series.
pub fn sparkline(xs: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);
    // Subsample to at most 60 columns.
    let step = (xs.len() / 60).max(1);
    xs.iter().step_by(step).map(|&x| BARS[(((x - lo) / range) * 7.0).round() as usize]).collect()
}

/// Render a Table IV/V style backtest report.
pub fn format_backtest_table(title: &str, dataset: Dataset, results: &[BacktestResult]) -> String {
    let ams = results.iter().find(|r| r.model == "AMS").expect("AMS in lineup");
    let mut out = format!("\n{title} — backtest on {} dataset\n", dataset.name());
    out += &format!(
        "{:<12} {:>11} {:>9} {:>13} {:>9}\n",
        "Model", "Earning(%)", "MDD(%)", "Sharpe Ratio", "AER(%)"
    );
    for r in results {
        let (sharpe, aer) = if r.model == "AMS" {
            ("-".to_string(), "-".to_string())
        } else {
            let sharpe = ams_backtest::sharpe_vs(r, ams).map_or("-".into(), |s| format!("{s:.4}"));
            (sharpe, format!("{:.4}", ams_backtest::aer_vs(r, ams)))
        };
        out += &format!(
            "{:<12} {:>11.4} {:>9.4} {:>13} {:>9}\n",
            r.model, r.earning_pct, r.mdd_pct, sharpe, aer
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::Quarter;
    use ams_eval::{PredRecord, QuarterResult};

    fn fake_cv() -> CvResult {
        let mk = |q: Quarter, ba: f64| QuarterResult {
            quarter: q,
            ba,
            sr: 1.0,
            preds: vec![PredRecord {
                company: 0,
                pred_ur: 1.0,
                actual_ur: 2.0,
                consensus: 10.0,
                revenue: 12.0,
            }],
        };
        CvResult {
            model: "M".into(),
            per_quarter: vec![
                mk(Quarter::new(2018, 1), 40.0),
                mk(Quarter::new(2018, 2), 50.0),
                // Second seed's pass over the same quarters.
                mk(Quarter::new(2018, 1), 60.0),
                mk(Quarter::new(2018, 2), 70.0),
            ],
        }
    }

    #[test]
    fn per_quarter_means_group_by_label() {
        let cv = fake_cv();
        let means = per_quarter_means(&cv);
        assert_eq!(means.len(), 2);
        assert_eq!(means[0].0, "2018q1");
        assert!((means[0].1 - 50.0).abs() < 1e-12);
        assert!((means[1].1 - 60.0).abs() < 1e-12);
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert!(chars[0] < chars[3], "rising series should rise: {s}");
    }

    #[test]
    fn sparkline_handles_flat_series() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn curves_csv_contains_all_models_and_days() {
        let dir = std::env::temp_dir().join("ams_exp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("curves.csv");
        let results = vec![
            ams_backtest::BacktestResult {
                model: "A".into(),
                asset_curve: vec![100.0, 101.0, 102.0],
                quarter_ends: vec![2],
                earning_pct: 2.0,
                mdd_pct: 0.0,
            },
            ams_backtest::BacktestResult {
                model: "B".into(),
                asset_curve: vec![100.0, 99.0],
                quarter_ends: vec![1],
                earning_pct: -1.0,
                mdd_pct: 1.0,
            },
        ];
        write_curves_csv(&path, &results);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "day,A,B");
        assert_eq!(lines.len(), 1 + 3); // header + longest curve
        assert!(lines[1].starts_with("0,100.0000,100.0000"));
        // Shorter series leaves the trailing cell empty.
        assert!(lines[3].ends_with(','));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dataset_shapes() {
        assert_eq!(Dataset::Transaction.n_channels(), 1);
        assert_eq!(Dataset::MapQuery.n_channels(), 2);
        assert_eq!(Dataset::Transaction.name(), "transaction");
    }

    #[test]
    fn learned_models_are_the_eight_without_naive_and_arima() {
        let lineup = ModelKind::paper_lineup(2, MODEL_SEED);
        let learned: Vec<String> =
            lineup.iter().filter(|k| is_learned(k)).map(|k| k.name()).collect();
        assert_eq!(learned.len(), 8);
        assert!(learned.iter().all(|n| n != "ARIMA" && !n.contains("[ch")));
    }

    #[test]
    fn runs_merge_seeds_and_pair_ablation_cells() {
        let seed = |ba: f64| {
            let mut cv = fake_cv();
            cv.per_quarter.iter_mut().for_each(|q| q.ba = ba);
            cv
        };
        let runs = DatasetRuns {
            dataset: Dataset::Transaction,
            with: vec![vec![seed(50.0), seed(60.0)], vec![seed(30.0), seed(30.0)]],
            without: vec![vec![seed(40.0), seed(44.0)], Vec::new()],
        };
        let merged = runs.merged();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].per_quarter.len(), 8, "two seeds of four quarters each");
        assert!((merged[0].mean_ba() - 55.0).abs() < 1e-12);
        let rows = runs.ablation_rows();
        assert_eq!(rows.len(), 1, "only the model with -na cells is ablated");
        assert_eq!(rows[0].model, "M-na");
        assert!((rows[0].ba_with - 55.0).abs() < 1e-12);
        assert!((rows[0].ba_m - (42.0 - 55.0)).abs() < 1e-12);
    }
}

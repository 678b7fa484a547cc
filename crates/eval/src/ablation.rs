//! The feature-effectiveness ablation of §IV-E (Table III).
//!
//! Every model is re-trained with the alternative-data columns removed
//! (the `-na` variants); the table reports
//!
//! * `SR-m = SR(model-na) − SR(model)` — positive means alternative
//!   data helped (removing it raised the error ratio);
//! * `BA-m = BA(model-na) − BA(model)` — negative means alternative
//!   data helped (removing it lowered accuracy).

use ams_data::Panel;

use crate::harness::{run_model, CvResult, EvalOptions, ModelKind};

/// One row of the Table III style report.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AblationRow {
    /// Model name with the `-na` suffix, as in the paper.
    pub model: String,
    /// SR(without alt) − SR(with alt).
    pub sr_m: f64,
    /// BA(without alt) − BA(with alt), percentage points.
    pub ba_m: f64,
    /// The underlying four aggregates, for inspection.
    pub ba_with: f64,
    /// BA without alternative features.
    pub ba_without: f64,
    /// SR with alternative features.
    pub sr_with: f64,
    /// SR without alternative features.
    pub sr_without: f64,
}

impl AblationRow {
    /// The row of one model from its cells with (`with[s]`) and without
    /// (`without[s]`) alternative data on each panel `s`: the panel
    /// means of BA and SR, and their change.
    pub fn from_cells(with: &[CvResult], without: &[CvResult]) -> Self {
        let n = with.len() as f64;
        let panel_mean = |cells: &[CvResult], f: fn(&CvResult) -> f64| {
            cells.iter().fold(0.0, |acc, cv| acc + f(cv)) / n
        };
        let (ba_with, ba_without) =
            (panel_mean(with, CvResult::mean_ba), panel_mean(without, CvResult::mean_ba));
        let (sr_with, sr_without) =
            (panel_mean(with, CvResult::mean_sr), panel_mean(without, CvResult::mean_sr));
        AblationRow {
            model: format!("{}-na", with[0].model),
            sr_m: sr_without - sr_with,
            ba_m: ba_without - ba_with,
            ba_with,
            ba_without,
            sr_with,
            sr_without,
        }
    }
}

/// Run the ablation for a set of models. QoQ/YoY/ARIMA are skipped:
/// the first two *are* alternative-data rules (no `-na` variant
/// exists) and ARIMA never sees alternative data, matching the paper's
/// Table III row set.
pub fn feature_effectiveness(
    panel: &Panel,
    kinds: &[ModelKind],
    opts: &EvalOptions,
) -> Vec<AblationRow> {
    let with_opts = EvalOptions { drop_alternative: false, ..opts.clone() };
    let without_opts = EvalOptions { drop_alternative: true, ..opts.clone() };
    kinds
        .iter()
        .filter(|k| !matches!(k, ModelKind::Naive { .. } | ModelKind::Arima(_)))
        .map(|kind| {
            let with = run_model(panel, kind, &with_opts);
            let without = run_model(panel, kind, &without_opts);
            AblationRow::from_cells(&[with], &[without])
        })
        .collect()
}

/// Render the Table III style report.
pub fn format_ablation_table(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<16} {:>9} {:>9}\n", "Model", "SR-m", "BA-m(%)"));
    for r in rows {
        out.push_str(&format!("{:<16} {:>9.4} {:>9.3}\n", r.model, r.sr_m, r.ba_m));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::{generate, SynthConfig};
    use ams_models::NaiveRule;

    #[test]
    fn ablation_skips_naive_and_arima() {
        let panel =
            generate(&SynthConfig { n_companies: 8, n_quarters: 11, ..SynthConfig::tiny(200) })
                .panel;
        let kinds = vec![
            ModelKind::Ridge { lambda: 1.0 },
            ModelKind::Naive { rule: NaiveRule::QoQ, channel: 0 },
            ModelKind::Arima(Default::default()),
        ];
        let rows = feature_effectiveness(
            &panel,
            &kinds,
            &EvalOptions { k: 4, n_folds: 2, drop_alternative: false },
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].model, "Ridge-na");
        // Differences are consistent with the stored aggregates.
        assert!((rows[0].sr_m - (rows[0].sr_without - rows[0].sr_with)).abs() < 1e-12);
        assert!((rows[0].ba_m - (rows[0].ba_without - rows[0].ba_with)).abs() < 1e-12);
    }

    #[test]
    fn lasso_with_heavy_penalty_is_invariant_to_alt_features() {
        // The paper's observation: strong L1 discards the (weaker)
        // alternative features, so Lasso-na can equal Lasso. With a
        // very large alpha, everything but the intercept is zeroed and
        // the ablation deltas must be exactly 0.
        let panel =
            generate(&SynthConfig { n_companies: 8, n_quarters: 11, ..SynthConfig::tiny(201) })
                .panel;
        let rows = feature_effectiveness(
            &panel,
            &[ModelKind::Lasso { alpha: 1e3 }],
            &EvalOptions { k: 4, n_folds: 2, drop_alternative: false },
        );
        assert_eq!(rows[0].sr_m, 0.0, "huge-alpha lasso should ignore alt features entirely");
        assert_eq!(rows[0].ba_m, 0.0);
    }

    #[test]
    fn table_renders() {
        let rows = vec![AblationRow {
            model: "AMS-na".into(),
            sr_m: 0.0269,
            ba_m: -5.633,
            ba_with: 58.5,
            ba_without: 52.9,
            sr_with: 0.96,
            sr_without: 0.987,
        }];
        let s = format_ablation_table(&rows);
        assert!(s.contains("AMS-na"));
        assert!(s.contains("-5.633"));
    }
}

//! The paper's shape claims, one predicate per table row.
//!
//! Absolute numbers are not expected to match the paper (the panels are
//! synthetic, DESIGN.md §1). The claims under reproduction are the
//! shape statements of EXPERIMENTS.md: AMS far above ARIMA and the
//! QoQ/YoY rules, AMS significantly above Ridge/LSTM/GRU, every learned
//! model worse without alternative data, and every baseline's
//! Sharpe-vs-AMS negative in the backtests.
//!
//! Each [`Claim`] is one statement about one table row. It carries the
//! status today's code is expected to show: [`Status::Holds`], or
//! [`Status::Deviation`] for the rows listed in [`DEVIATIONS`], whose
//! causes EXPERIMENTS.md gives. [`evaluate`] measures every claim's
//! margin. The `paper` binary fails when an observed status differs from
//! the expected one, so a claim that starts to fail shows, and so does
//! a deviation that goes away.

use std::fmt::Write;

use ams_backtest::{sharpe_vs, BacktestResult};
use ams_eval::ablation::AblationRow;
use ams_eval::report::TableRow;
use ams_eval::ModelKind;

use crate::exp::{is_learned, Dataset, DATA_SEED, MODEL_SEED, N_SEEDS};

/// The smallest BA gap, in points, that counts as "AMS ≫ model".
pub const FAR_ABOVE_PP: f64 = 10.0;
/// Significance level of the paired t-tests of Table I.
pub const ALPHA: f64 = 0.05;

/// Whether a claim's statement is true of the measured tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The statement is true.
    Holds,
    /// The statement is false: a documented deviation from the paper.
    Deviation,
}

impl Status {
    fn of(holds: bool) -> Self {
        if holds {
            Status::Holds
        } else {
            Status::Deviation
        }
    }

    /// Lower-case name, as written to `BENCH_paper.json`.
    pub fn name(self) -> &'static str {
        match self {
            Status::Holds => "holds",
            Status::Deviation => "deviation",
        }
    }
}

/// The four kinds of shape statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// Table I: `BA(AMS) − BA(model) ≥ FAR_ABOVE_PP`. Margin: the gap.
    FarAbove,
    /// Table I: AMS's BA is above the model's and the paired t-test of
    /// their per-cell BA series gives `p < ALPHA`. Margin: `p`.
    SignificantlyAbove,
    /// Table III: `BA-m = BA(model-na) − BA(model) < 0`. Margin: BA-m.
    LosesWithoutAlt,
    /// Tables IV/V: the model's Sharpe-vs-AMS is `< 0`. Margin: the
    /// Sharpe ratio (0 when the two return series are identical).
    SharpeBelowAms,
}

impl Predicate {
    /// Snake-case name, as written to `BENCH_paper.json`.
    pub fn name(self) -> &'static str {
        match self {
            Predicate::FarAbove => "ams_far_above",
            Predicate::SignificantlyAbove => "ams_significantly_above",
            Predicate::LosesWithoutAlt => "loses_ba_without_alt",
            Predicate::SharpeBelowAms => "sharpe_vs_ams_negative",
        }
    }

    /// The margin's threshold.
    pub fn threshold(self) -> f64 {
        match self {
            Predicate::FarAbove => FAR_ABOVE_PP,
            Predicate::SignificantlyAbove => ALPHA,
            Predicate::LosesWithoutAlt | Predicate::SharpeBelowAms => 0.0,
        }
    }

    /// The paper table the claimed row belongs to.
    pub fn table(self, dataset: Dataset) -> &'static str {
        match (self, dataset) {
            (Predicate::FarAbove | Predicate::SignificantlyAbove, _) => "Table I",
            (Predicate::LosesWithoutAlt, _) => "Table III",
            (Predicate::SharpeBelowAms, Dataset::Transaction) => "Table IV",
            (Predicate::SharpeBelowAms, Dataset::MapQuery) => "Table V",
        }
    }

    /// `(margin, holds)` of the claim about `model`. Panics if a row the
    /// claim reads is missing.
    pub fn measure(self, model: &str, ev: &Evidence) -> (f64, bool) {
        let row = |name: &str| {
            ev.rows.iter().find(|r| r.model == name).unwrap_or_else(|| panic!("{name} in Table I"))
        };
        match self {
            Predicate::FarAbove => {
                let gap = row("AMS").ba - row(model).ba;
                (gap, gap >= FAR_ABOVE_PP)
            }
            Predicate::SignificantlyAbove => {
                let (ams, r) = (row("AMS"), row(model));
                let p = r.ba_pvalue.unwrap_or(1.0);
                (p, ams.ba > r.ba && p < ALPHA)
            }
            Predicate::LosesWithoutAlt => {
                let na = format!("{model}-na");
                let r = ev.ablation.iter().find(|r| r.model == na).expect("row in Table III");
                (r.ba_m, r.ba_m < 0.0)
            }
            Predicate::SharpeBelowAms => {
                let curve = |name: &str| {
                    ev.backtests.iter().find(|r| r.model == name).expect("model in backtest")
                };
                let sharpe = sharpe_vs(curve(model), curve("AMS")).unwrap_or(0.0);
                (sharpe, sharpe < 0.0)
            }
        }
    }
}

/// One shape statement about one table row.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The dataset whose table the row is in.
    pub dataset: Dataset,
    /// The statement.
    pub predicate: Predicate,
    /// The row's model, as named in the tables (without `-na`).
    pub model: String,
    /// The status today's code is expected to show.
    pub expected: Status,
}

/// The rows known not to reproduce. EXPERIMENTS.md gives each cause.
pub const DEVIATIONS: &[(Dataset, Predicate, &str)] = &[
    (Dataset::Transaction, Predicate::SignificantlyAbove, "Ridge"),
    (Dataset::Transaction, Predicate::SignificantlyAbove, "Lstm"),
    (Dataset::Transaction, Predicate::SignificantlyAbove, "GRU"),
    (Dataset::Transaction, Predicate::SharpeBelowAms, "MLP"),
    (Dataset::MapQuery, Predicate::SignificantlyAbove, "GRU"),
    (Dataset::MapQuery, Predicate::LosesWithoutAlt, "Ridge"),
    (Dataset::MapQuery, Predicate::LosesWithoutAlt, "Lstm"),
];

/// Every claim, in table order: for each dataset, Table I (ARIMA/QoQ/
/// YoY gaps, then the Ridge/LSTM/GRU t-tests), Table III (every learned
/// model), then Table IV or V (every learned baseline).
pub fn claims() -> Vec<Claim> {
    let mut out = Vec::new();
    for dataset in [Dataset::Transaction, Dataset::MapQuery] {
        let lineup = ModelKind::paper_lineup(dataset.n_channels(), MODEL_SEED);
        let naive = lineup.iter().filter(|k| !is_learned(k)).map(ModelKind::name);
        let tested = ["Ridge", "Lstm", "GRU"].map(String::from);
        let ablated = lineup.iter().filter(|k| is_learned(k)).map(ModelKind::name);
        let traded =
            lineup.iter().filter(|k| is_learned(k)).map(ModelKind::name).filter(|n| n != "AMS");
        let rows: Vec<(Predicate, String)> = naive
            .map(|m| (Predicate::FarAbove, m))
            .chain(tested.into_iter().map(|m| (Predicate::SignificantlyAbove, m)))
            .chain(ablated.map(|m| (Predicate::LosesWithoutAlt, m)))
            .chain(traded.map(|m| (Predicate::SharpeBelowAms, m)))
            .collect();
        for (predicate, model) in rows {
            let deviation = DEVIATIONS.contains(&(dataset, predicate, model.as_str()));
            let expected = Status::of(!deviation);
            out.push(Claim { dataset, predicate, model, expected });
        }
    }
    out
}

/// What the predicates read on one dataset.
pub struct Evidence<'a> {
    /// The Table I/II rows.
    pub rows: &'a [TableRow],
    /// The Table III rows.
    pub ablation: &'a [AblationRow],
    /// The Table IV/V backtests.
    pub backtests: &'a [BacktestResult],
}

/// One claim with its measured margin.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The claim.
    pub claim: Claim,
    /// The predicate's margin (see [`Predicate`]).
    pub margin: f64,
    /// The status the margin shows.
    pub observed: Status,
}

impl Outcome {
    /// Whether the observed status is the expected one.
    pub fn as_expected(&self) -> bool {
        self.observed == self.claim.expected
    }
}

/// Measure each claim about `dataset` against its evidence.
pub fn evaluate(claims: &[Claim], dataset: Dataset, ev: &Evidence) -> Vec<Outcome> {
    claims
        .iter()
        .filter(|c| c.dataset == dataset)
        .map(|c| {
            let (margin, holds) = c.predicate.measure(&c.model, ev);
            Outcome { claim: c.clone(), margin, observed: Status::of(holds) }
        })
        .collect()
}

/// Render the outcomes as a text table, flagging every unexpected one.
pub fn format_outcomes(outcomes: &[Outcome]) -> String {
    let mut out = format!(
        "{:<9} {:<11} {:<10} {:<23} {:>10} {:>9} {:<9} {}\n",
        "Table", "Dataset", "Model", "Claim", "Margin", "Threshold", "Expected", "Observed"
    );
    for o in outcomes {
        let c = &o.claim;
        let _ = writeln!(
            out,
            "{:<9} {:<11} {:<10} {:<23} {:>10.4} {:>9} {:<9} {}{}",
            c.predicate.table(c.dataset),
            c.dataset.name(),
            c.model,
            c.predicate.name(),
            o.margin,
            c.predicate.threshold(),
            c.expected.name(),
            o.observed.name(),
            if o.as_expected() { "" } else { "  UNEXPECTED" },
        );
    }
    out
}

/// The `BENCH_paper.json` record: every claim with its margin at full
/// precision, so drift shows before a claim flips.
pub fn bench_json(outcomes: &[Outcome]) -> String {
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let c = &o.claim;
            format!(
                "    {{\"table\": \"{}\", \"dataset\": \"{}\", \"model\": \"{}\", \
                 \"claim\": \"{}\", \"margin\": {}, \"threshold\": {}, \
                 \"expected\": \"{}\", \"observed\": \"{}\"}}",
                c.predicate.table(c.dataset),
                c.dataset.name(),
                c.model,
                c.predicate.name(),
                o.margin,
                c.predicate.threshold(),
                c.expected.name(),
                o.observed.name(),
            )
        })
        .collect();
    let unexpected = outcomes.iter().filter(|o| !o.as_expected()).count();
    let seeds: Vec<String> = (DATA_SEED..DATA_SEED + N_SEEDS).map(|s| s.to_string()).collect();
    format!(
        "{{\n  \"model_seed\": {MODEL_SEED}, \"data_seeds\": [{}], \
         \"unexpected\": {unexpected},\n  \"claims\": [\n{}\n  ]\n}}\n",
        seeds.join(", "),
        rows.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::Quarter;
    use ams_eval::report::build_rows;
    use ams_eval::{CvResult, QuarterResult};

    fn cv(model: &str, bas: &[f64]) -> CvResult {
        let per_quarter = bas
            .iter()
            .enumerate()
            .map(|(i, &ba)| QuarterResult {
                quarter: Quarter::new(2017, 1).add(i as i64),
                ba,
                sr: 1.0,
                preds: Vec::new(),
            })
            .collect();
        CvResult { model: model.into(), per_quarter }
    }

    /// Measure `predicate` on `model` against Table I rows built from
    /// `results`, and Table III / backtest evidence as given.
    fn measure(
        predicate: Predicate,
        model: &str,
        results: &[CvResult],
        ablation: &[AblationRow],
        backtests: &[BacktestResult],
    ) -> (f64, bool) {
        let rows = build_rows(results, "AMS");
        predicate.measure(model, &Evidence { rows: &rows, ablation, backtests })
    }

    #[test]
    fn far_above_needs_a_gap_of_ten_points() {
        let ams = cv("AMS", &[60.0, 62.0, 58.0, 60.0]);
        let at = cv("ARIMA", &[50.0, 52.0, 48.0, 50.0]);
        let below = cv("ARIMA", &[50.0, 52.0, 48.0, 50.000_01]);
        let (gap, holds) = measure(Predicate::FarAbove, "ARIMA", &[ams.clone(), at], &[], &[]);
        assert_eq!((gap, holds), (10.0, true));
        let (gap, holds) = measure(Predicate::FarAbove, "ARIMA", &[ams, below], &[], &[]);
        assert!(gap < FAR_ABOVE_PP && !holds, "gap {gap}");
    }

    /// AMS at 60 and a model whose per-quarter gap alternates
    /// `5 ± spread`: the mean gap is 5 and the spread sets `p`.
    fn spread_pair(spread: f64) -> [CvResult; 2] {
        let model: Vec<f64> =
            (0..6).map(|i| if i % 2 == 0 { 55.0 + spread } else { 55.0 - spread }).collect();
        [cv("AMS", &[60.0; 6]), cv("Ridge", &model)]
    }

    #[test]
    fn significantly_above_flips_at_five_percent() {
        let p_of = |spread: f64| {
            measure(Predicate::SignificantlyAbove, "Ridge", &spread_pair(spread), &[], &[]).0
        };
        // Bisect for the spread at which p crosses ALPHA; p grows with it.
        let (mut lo, mut hi) = (0.1, 50.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if p_of(mid) < ALPHA {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (p, holds) =
            measure(Predicate::SignificantlyAbove, "Ridge", &spread_pair(lo), &[], &[]);
        assert!(holds && p < ALPHA && p > 0.049_999, "p {p}");
        let (p, holds) =
            measure(Predicate::SignificantlyAbove, "Ridge", &spread_pair(hi * 1.000_001), &[], &[]);
        assert!(!holds && (ALPHA..0.050_001).contains(&p), "p {p}");
    }

    #[test]
    fn significantly_above_needs_ams_on_top() {
        // Ridge far above AMS with a tiny p: significant, the wrong way.
        let results =
            [cv("AMS", &[50.0, 51.0, 50.0, 51.0]), cv("Ridge", &[70.0, 70.5, 70.0, 70.5])];
        let (p, holds) = measure(Predicate::SignificantlyAbove, "Ridge", &results, &[], &[]);
        assert!(p < 1e-4 && !holds);
    }

    #[test]
    fn loses_without_alt_needs_a_negative_ba_m() {
        let with = [cv("Lasso", &[50.0, 50.0]), cv("Lasso", &[52.0, 52.0])];
        let row = |without_ba: f64| {
            AblationRow::from_cells(
                &with,
                &[cv("Lasso", &[50.0, 50.0]), cv("Lasso", &[without_ba; 2])],
            )
        };
        let (m, holds) = measure(Predicate::LosesWithoutAlt, "Lasso", &[], &[row(51.999_99)], &[]);
        assert!(m < 0.0 && m > -1e-4 && holds, "BA-m {m}");
        let (m, holds) = measure(Predicate::LosesWithoutAlt, "Lasso", &[], &[row(52.0)], &[]);
        assert!(m == 0.0 && !holds, "an unchanged BA is not a loss");
    }

    fn curve(model: &str, returns: &[f64]) -> BacktestResult {
        let mut asset_curve = vec![100.0];
        for r in returns {
            asset_curve.push(asset_curve.last().unwrap() * (1.0 + r));
        }
        BacktestResult {
            model: model.into(),
            asset_curve,
            quarter_ends: vec![returns.len()],
            earning_pct: 0.0,
            mdd_pct: 0.0,
        }
    }

    #[test]
    fn sharpe_below_ams_flips_at_zero() {
        let ams = curve("AMS", &[0.01, -0.005, 0.002, 0.004]);
        // The model's excess daily returns are ±1e-3 plus a tilt.
        let model = |tilt: f64| curve("MLP", &[0.011 + tilt, -0.006, 0.003, 0.003]);
        let (s, holds) =
            measure(Predicate::SharpeBelowAms, "MLP", &[], &[], &[ams.clone(), model(-1e-6)]);
        assert!(s < 0.0 && s > -0.01 && holds, "Sharpe {s}");
        let (s, holds) =
            measure(Predicate::SharpeBelowAms, "MLP", &[], &[], &[ams.clone(), model(1e-6)]);
        assert!(s > 0.0 && s < 0.01 && !holds, "Sharpe {s}");
        let (s, holds) = measure(Predicate::SharpeBelowAms, "AMS", &[], &[], &[ams]);
        assert!(s == 0.0 && !holds, "identical curves have no Sharpe");
    }

    #[test]
    fn claims_cover_every_table_row_once() {
        let all = claims();
        let count = |d: Dataset, p: Predicate| {
            all.iter().filter(|c| c.dataset == d && c.predicate == p).count()
        };
        for (d, naive) in [(Dataset::Transaction, 3), (Dataset::MapQuery, 5)] {
            assert_eq!(count(d, Predicate::FarAbove), naive, "ARIMA + YoY/QoQ per channel");
            assert_eq!(count(d, Predicate::SignificantlyAbove), 3, "Ridge, LSTM, GRU");
            assert_eq!(count(d, Predicate::LosesWithoutAlt), 8, "every learned model");
            assert_eq!(count(d, Predicate::SharpeBelowAms), 7, "every learned baseline");
        }
        for &(d, p, m) in DEVIATIONS {
            let hits: Vec<_> =
                all.iter().filter(|c| c.dataset == d && c.predicate == p && c.model == m).collect();
            assert_eq!(hits.len(), 1, "deviation {m} names exactly one claim");
            assert_eq!(hits[0].expected, Status::Deviation);
        }
        let deviations = all.iter().filter(|c| c.expected == Status::Deviation).count();
        assert_eq!(deviations, DEVIATIONS.len());
    }

    #[test]
    fn a_flipped_expectation_is_unexpected_and_recorded() {
        let results = [cv("AMS", &[60.0, 62.0]), cv("ARIMA", &[20.0, 22.0])];
        let rows = build_rows(&results, "AMS");
        let ev = Evidence { rows: &rows, ablation: &[], backtests: &[] };
        let mut claim = Claim {
            dataset: Dataset::Transaction,
            predicate: Predicate::FarAbove,
            model: "ARIMA".into(),
            expected: Status::Holds,
        };
        let ok = evaluate(std::slice::from_ref(&claim), Dataset::Transaction, &ev);
        assert!(ok[0].as_expected());
        claim.expected = Status::Deviation;
        let flipped = evaluate(&[claim], Dataset::Transaction, &ev);
        assert!(!flipped[0].as_expected());
        let json = bench_json(&flipped);
        assert!(json.contains("\"unexpected\": 1"));
        assert!(json.contains(
            "\"model\": \"ARIMA\", \"claim\": \"ams_far_above\", \"margin\": 40, \"threshold\": 10, \
             \"expected\": \"deviation\", \"observed\": \"holds\""
        ));
        assert!(format_outcomes(&flipped).contains("UNEXPECTED"));
        assert!(evaluate(
            &ok.iter().map(|o| o.claim.clone()).collect::<Vec<_>>(),
            Dataset::MapQuery,
            &ev
        )
        .is_empty());
    }
}

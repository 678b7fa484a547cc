//! Feature assembly per Definition II.3 and §II-D.
//!
//! For a company `i` and target quarter `t` the financial features are
//! `X_i^t = {C_i^{t−k..t−1}, VE_i^t, A_i^t}` with `k = 4` so every
//! sample carries at least one year of history. Following the paper's
//! normalization protocol, revenue-scale quantities (historical
//! revenues and all analyst estimates) are divided by the oldest
//! in-window revenue `R_i^{t−k}`, and each alternative channel by its
//! own oldest value `A_i^{t−k}`, so features capture *relative changes*.
//! Ratio features enter in natural-log form (`ln(R_i^{t−1}/R_i^{t−k})`
//! etc.): growth processes are multiplicative, and the log keeps a
//! *linear* slave model faithful to the underlying structure — raw
//! ratios would bury the few-percent surprise signal under
//! second-order linearization error. One-hot encodings of the target
//! quarter, the company's fiscal end month and its sector are
//! appended. The label is the unexpected revenue in the paper's
//! normalized units: `(R_i^t − E_i^t) / R_i^{t−k}`.

use crate::panel::Panel;
use crate::universe::Sector;

/// One supervised example: a (company, target-quarter) pair.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Company id (node id in the correlation graph).
    pub company: usize,
    /// Target quarter index within the panel.
    pub quarter_idx: usize,
    /// Feature vector, aligned with [`FeatureSet::names`].
    pub features: Vec<f64>,
    /// Normalized label `UR_i^t / R_i^{t−k}`.
    pub label: f64,
    /// Normalizer `R_i^{t−k}` (multiply by it to return to millions).
    pub denom: f64,
    /// Actual reported revenue `R_i^t` (millions).
    pub revenue: f64,
    /// Analyst consensus `E_i^t` (millions).
    pub consensus: f64,
}

impl Sample {
    /// Actual unexpected revenue in millions.
    pub fn unexpected_revenue(&self) -> f64 {
        self.revenue - self.consensus
    }
}

/// A featurized panel: all samples plus column metadata.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// Column names (e.g. `R_dq3`, `E_dq0`, `alt0_dq1`, `sector_travel`).
    pub names: Vec<String>,
    /// All samples, ordered company-major then quarter.
    pub samples: Vec<Sample>,
    /// Column indices of alternative-data features (dropped by the
    /// `-na` ablation of §IV-E).
    pub alt_cols: Vec<usize>,
    /// History length `k`.
    pub k: usize,
}

impl FeatureSet {
    /// Build features for every (company, quarter ≥ k) pair.
    ///
    /// # Panics
    /// Panics if the panel has fewer than `k + 1` quarters or `k == 0`.
    pub fn build(panel: &Panel, k: usize) -> Self {
        assert!(k > 0, "history length k must be positive");
        assert!(panel.num_quarters() > k, "panel too short for k={k}");
        let n_ch = panel.alt_names.len();

        let mut names: Vec<String> = vec!["bias".into()];
        let mut alt_cols = Vec::new();
        // Historical block, oldest lag first. `dq{j}` = j quarters ago,
        // matching Figure 8's labeling. The oldest revenue R_{t-k} is
        // identically 1 after normalization, so it is skipped.
        for lag in (1..=k).rev() {
            if lag != k {
                names.push(format!("R_dq{lag}"));
            }
            names.push(format!("E_dq{lag}"));
            names.push(format!("LE_dq{lag}"));
            names.push(format!("HE_dq{lag}"));
            for ch in 0..n_ch {
                alt_cols.push(names.len());
                names.push(format!("{}_dq{lag}", panel.alt_names[ch]));
            }
        }
        // Current-quarter block: estimates and alternative data.
        names.push("E_dq0".into());
        names.push("LE_dq0".into());
        names.push("HE_dq0".into());
        for ch in 0..n_ch {
            alt_cols.push(names.len());
            names.push(format!("{}_dq0", panel.alt_names[ch]));
        }
        // One-hot calendar and sector features.
        for q in 1..=4 {
            names.push(format!("quarter_q{q}"));
        }
        for m in 1..=12 {
            names.push(format!("month_{m}"));
        }
        for s in Sector::ALL {
            names.push(format!("sector_{}", s.name()));
        }

        let width = names.len();
        let n_companies = panel.companies.len();
        let n_quarters = panel.quarters.len();
        let mut samples = Vec::new();
        for c in 0..n_companies {
            for t in k..n_quarters {
                let denom = panel.get(c, t - k).revenue;
                let alt_denoms: Vec<f64> =
                    (0..n_ch).map(|ch| panel.get(c, t - k).alt[ch]).collect();
                let mut f = Vec::with_capacity(width);
                f.push(1.0);
                for lag in (1..=k).rev() {
                    let o = panel.get(c, t - lag);
                    if lag != k {
                        f.push((o.revenue / denom).ln());
                    }
                    f.push((o.consensus / denom).ln());
                    f.push((o.low_est / denom).ln());
                    f.push((o.high_est / denom).ln());
                    for (a, d) in o.alt.iter().zip(&alt_denoms) {
                        f.push((a / d).ln());
                    }
                }
                let cur = panel.get(c, t);
                f.push((cur.consensus / denom).ln());
                f.push((cur.low_est / denom).ln());
                f.push((cur.high_est / denom).ln());
                for (a, d) in cur.alt.iter().zip(&alt_denoms) {
                    f.push((a / d).ln());
                }
                let q = panel.quarters[t];
                for qi in 1..=4 {
                    f.push(if q.q() == qi { 1.0 } else { 0.0 });
                }
                let month = panel.companies[c].fiscal_end_month(q);
                for m in 1..=12 {
                    f.push(if month == m { 1.0 } else { 0.0 });
                }
                for s in Sector::ALL {
                    f.push(if panel.companies[c].sector == s { 1.0 } else { 0.0 });
                }
                debug_assert_eq!(f.len(), width);
                samples.push(Sample {
                    company: c,
                    quarter_idx: t,
                    features: f,
                    label: (cur.revenue - cur.consensus) / denom,
                    denom,
                    revenue: cur.revenue,
                    consensus: cur.consensus,
                });
            }
        }
        Self { names, samples, alt_cols, k }
    }

    /// Number of feature columns.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// The `-na` variant: drop every alternative-data column (§IV-E).
    pub fn without_alternative(&self) -> FeatureSet {
        let keep: Vec<usize> = (0..self.width()).filter(|i| !self.alt_cols.contains(i)).collect();
        let names = keep.iter().map(|&i| self.names[i].clone()).collect();
        let samples = self
            .samples
            .iter()
            .map(|s| Sample {
                features: keep.iter().map(|&i| s.features[i]).collect(),
                ..s.clone()
            })
            .collect();
        FeatureSet { names, samples, alt_cols: Vec::new(), k: self.k }
    }

    /// Indices of samples whose target quarter is `t`.
    pub fn samples_at_quarter(&self, t: usize) -> Vec<usize> {
        (0..self.samples.len()).filter(|&i| self.samples[i].quarter_idx == t).collect()
    }

    /// Indices of samples whose target quarter is in `ts`.
    pub fn samples_at_quarters(&self, ts: &[usize]) -> Vec<usize> {
        (0..self.samples.len()).filter(|&i| ts.contains(&self.samples[i].quarter_idx)).collect()
    }

    /// Dense design matrix and label vector for the given sample ids,
    /// as flat row-major storage `(x, rows, cols, y)`.
    pub fn design(&self, ids: &[usize]) -> (Vec<f64>, usize, usize, Vec<f64>) {
        let cols = self.width();
        let mut x = Vec::with_capacity(ids.len() * cols);
        let mut y = Vec::with_capacity(ids.len());
        for &i in ids {
            x.extend_from_slice(&self.samples[i].features);
            y.push(self.samples[i].label);
        }
        (x, ids.len(), cols, y)
    }
}

/// Train-split standardization (§II-D: "we normalize dataset with the
/// mean and variance from the training set in each cross-validation
/// step"). Columns with zero variance (the bias, unused one-hots) and
/// binary 0/1 columns (the one-hot encodings — z-scoring a rare
/// indicator would inflate it into a high-leverage memorization
/// direction) are left untouched.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
    skip: Vec<bool>,
    /// Label moments (labels are standardized too; predictions must be
    /// mapped back with [`Standardizer::destandardize_label`]).
    label_mean: f64,
    label_std: f64,
}

impl Standardizer {
    /// Fit column means/stds on the training samples.
    pub fn fit(fs: &FeatureSet, train_ids: &[usize]) -> Self {
        assert!(!train_ids.is_empty(), "Standardizer::fit: empty training set");
        let w = fs.width();
        let n = train_ids.len() as f64;
        let mut means = vec![0.0; w];
        for &i in train_ids {
            for (m, &v) in means.iter_mut().zip(&fs.samples[i].features) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; w];
        for &i in train_ids {
            for ((s, &m), &v) in stds.iter_mut().zip(&means).zip(&fs.samples[i].features) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
        }
        // Binary 0/1 columns (one-hots) are exempt from scaling.
        let skip: Vec<bool> = (0..w)
            .map(|j| {
                train_ids
                    .iter()
                    .all(|&i| matches!(fs.samples[i].features[j], v if v == 0.0 || v == 1.0))
            })
            .collect();
        let labels: Vec<f64> = train_ids.iter().map(|&i| fs.samples[i].label).collect();
        let label_mean = ams_stats::mean(&labels);
        let label_std = {
            let v = labels.iter().map(|l| (l - label_mean) * (l - label_mean)).sum::<f64>()
                / labels.len() as f64;
            v.sqrt()
        };
        Self { means, stds, skip, label_mean, label_std }
    }

    /// Apply to a whole feature set, producing standardized copies of
    /// every sample (labels standardized too).
    pub fn transform(&self, fs: &FeatureSet) -> FeatureSet {
        let mut out = fs.clone();
        for s in &mut out.samples {
            for (j, v) in s.features.iter_mut().enumerate() {
                if !self.skip[j] && self.stds[j] > 1e-12 {
                    *v = (*v - self.means[j]) / self.stds[j];
                }
            }
            s.label = self.standardize_label(s.label);
        }
        out
    }

    /// Standardize a single raw feature row in place, exactly as
    /// [`Standardizer::transform`] would. This is the serving-time entry
    /// point: inference receives one company's raw features, not a
    /// whole [`FeatureSet`].
    ///
    /// # Panics
    /// Panics if the row width disagrees with the fitted width.
    pub fn transform_row(&self, features: &mut [f64]) {
        assert_eq!(features.len(), self.width(), "transform_row: feature width mismatch");
        let columns = self.skip.iter().zip(self.means.iter().zip(&self.stds));
        for (v, (&skip, (&mean, &std))) in features.iter_mut().zip(columns) {
            if !skip && std > 1e-12 {
                *v = (*v - mean) / std;
            }
        }
    }

    /// The feature width this standardizer was fitted on.
    pub fn width(&self) -> usize {
        self.means.len()
    }

    /// Standardize one label value.
    pub fn standardize_label(&self, label: f64) -> f64 {
        if self.label_std > 1e-12 {
            (label - self.label_mean) / self.label_std
        } else {
            label - self.label_mean
        }
    }

    /// Invert [`Standardizer::standardize_label`].
    pub fn destandardize_label(&self, z: f64) -> f64 {
        if self.label_std > 1e-12 {
            z * self.label_std + self.label_mean
        } else {
            z + self.label_mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    fn tiny_fs() -> FeatureSet {
        let s = generate(&SynthConfig::tiny(11));
        FeatureSet::build(&s.panel, 4)
    }

    #[test]
    fn sample_count_and_width() {
        let fs = tiny_fs();
        // 12 companies × (10 − 4) target quarters.
        assert_eq!(fs.samples.len(), 12 * 6);
        // 1 bias + hist 4×(1R+3VE+1A)−1 + cur(3VE+1A) + 4 + 12 + 8.
        assert_eq!(fs.width(), 1 + (4 * 5 - 1) + 4 + 4 + 12 + 8);
        assert_eq!(fs.names.len(), fs.width());
    }

    #[test]
    fn oldest_revenue_normalizes_to_one_and_is_dropped() {
        let fs = tiny_fs();
        assert!(!fs.names.contains(&"R_dq4".to_string()));
        assert!(fs.names.contains(&"R_dq1".to_string()));
        assert!(fs.names.contains(&"E_dq4".to_string()));
    }

    #[test]
    fn alt_cols_point_at_alt_features() {
        let fs = tiny_fs();
        // k=4 historical + 1 current = 5 alt columns for one channel.
        assert_eq!(fs.alt_cols.len(), 5);
        for &c in &fs.alt_cols {
            assert!(fs.names[c].starts_with("txn_amount"), "col {c} = {}", fs.names[c]);
        }
    }

    #[test]
    fn normalization_is_relative_to_oldest() {
        let s = generate(&SynthConfig::tiny(12));
        let fs = FeatureSet::build(&s.panel, 4);
        let sample = &fs.samples[0];
        let (c, t) = (sample.company, sample.quarter_idx);
        let denom = s.panel.get(c, t - 4).revenue;
        assert_eq!(sample.denom, denom);
        // R_dq1 is the log of revenue one quarter before target over denom.
        let col = fs.names.iter().position(|n| n == "R_dq1").unwrap();
        let expected = (s.panel.get(c, t - 1).revenue / denom).ln();
        assert!((sample.features[col] - expected).abs() < 1e-12);
        // Label = (R - E)/denom.
        let o = s.panel.get(c, t);
        assert!((sample.label - (o.revenue - o.consensus) / denom).abs() < 1e-12);
    }

    #[test]
    fn one_hots_are_exclusive() {
        let fs = tiny_fs();
        let qcols: Vec<usize> =
            (0..fs.width()).filter(|&i| fs.names[i].starts_with("quarter_")).collect();
        let mcols: Vec<usize> =
            (0..fs.width()).filter(|&i| fs.names[i].starts_with("month_")).collect();
        let scols: Vec<usize> =
            (0..fs.width()).filter(|&i| fs.names[i].starts_with("sector_")).collect();
        for s in &fs.samples {
            assert_eq!(qcols.iter().map(|&i| s.features[i]).sum::<f64>(), 1.0);
            assert_eq!(mcols.iter().map(|&i| s.features[i]).sum::<f64>(), 1.0);
            assert_eq!(scols.iter().map(|&i| s.features[i]).sum::<f64>(), 1.0);
        }
    }

    #[test]
    fn without_alternative_removes_only_alt() {
        let fs = tiny_fs();
        let na = fs.without_alternative();
        assert_eq!(na.width(), fs.width() - fs.alt_cols.len());
        assert!(na.alt_cols.is_empty());
        assert!(!na.names.iter().any(|n| n.starts_with("txn_amount")));
        // Labels and metadata unchanged.
        assert_eq!(na.samples[5].label, fs.samples[5].label);
        assert_eq!(na.samples[5].company, fs.samples[5].company);
    }

    #[test]
    fn samples_at_quarter_filters() {
        let fs = tiny_fs();
        let ids = fs.samples_at_quarter(5);
        assert_eq!(ids.len(), 12);
        assert!(ids.iter().all(|&i| fs.samples[i].quarter_idx == 5));
        let ids2 = fs.samples_at_quarters(&[4, 5]);
        assert_eq!(ids2.len(), 24);
    }

    #[test]
    fn standardizer_zero_mean_unit_var_on_train() {
        let fs = tiny_fs();
        let train: Vec<usize> = fs.samples_at_quarters(&[4, 5, 6]);
        let st = Standardizer::fit(&fs, &train);
        let z = st.transform(&fs);
        // Check one continuous column over the training rows.
        let col = fs.names.iter().position(|n| n == "E_dq0").unwrap();
        let vals: Vec<f64> = train.iter().map(|&i| z.samples[i].features[col]).collect();
        assert!(ams_stats::mean(&vals).abs() < 1e-9);
        let var = vals.iter().map(|v| v * v).sum::<f64>() / vals.len() as f64;
        assert!((var - 1.0).abs() < 1e-9);
        // Bias column untouched.
        assert_eq!(z.samples[0].features[0], 1.0);
    }

    #[test]
    fn standardizer_label_roundtrip() {
        let fs = tiny_fs();
        let train: Vec<usize> = fs.samples_at_quarters(&[4, 5]);
        let st = Standardizer::fit(&fs, &train);
        for &i in &[0usize, 10, 20] {
            let l = fs.samples[i].label;
            let back = st.destandardize_label(st.standardize_label(l));
            assert!((back - l).abs() < 1e-12);
        }
    }

    #[test]
    fn standardizer_serde_round_trip_matches_transform() {
        let fs = tiny_fs();
        let train: Vec<usize> = fs.samples_at_quarters(&[4, 5, 6]);
        let st = Standardizer::fit(&fs, &train);
        let back: Standardizer =
            serde_json::from_str(&serde_json::to_string(&st).unwrap()).unwrap();
        assert_eq!(back.width(), st.width());
        // Row-wise transform through the round-tripped standardizer is
        // bit-identical to the batch transform through the original.
        let z = st.transform(&fs);
        for i in [0usize, 7, 33] {
            let mut row = fs.samples[i].features.clone();
            back.transform_row(&mut row);
            for (a, b) in row.iter().zip(&z.samples[i].features) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(
                back.standardize_label(fs.samples[i].label).to_bits(),
                st.standardize_label(fs.samples[i].label).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn transform_row_rejects_wrong_width() {
        let fs = tiny_fs();
        let st = Standardizer::fit(&fs, &fs.samples_at_quarter(4));
        st.transform_row(&mut [1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn build_rejects_short_panel() {
        let s = generate(&SynthConfig { n_quarters: 4, ..SynthConfig::tiny(1) });
        FeatureSet::build(&s.panel, 4);
    }

    #[test]
    fn design_matrix_shapes() {
        let fs = tiny_fs();
        let ids = fs.samples_at_quarter(4);
        let (x, rows, cols, y) = fs.design(&ids);
        assert_eq!(rows, 12);
        assert_eq!(cols, fs.width());
        assert_eq!(x.len(), rows * cols);
        assert_eq!(y.len(), rows);
    }
}

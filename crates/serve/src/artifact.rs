//! The trained-model artifact: everything a serving process needs to
//! score companies without retraining — and without the training-side
//! crates' autodiff machinery ever running.
//!
//! An artifact is a single JSON document (floats are written with
//! shortest-round-trip formatting, so parameters survive export →
//! import bit-for-bit). The layout is versioned: [`FORMAT_VERSION`] is
//! embedded on export and checked on load, so a serving binary refuses
//! an artifact written by an incompatible build instead of
//! mis-scoring it.

use ams_core::{edge_list, AmsModel, ModelSnapshot};
use ams_data::Standardizer;
use ams_graph::CompanyGraph;
use ams_tensor::Matrix;

/// Current artifact layout version. Bump on any breaking change to
/// [`ModelArtifact`] or the structures it embeds. (An additive
/// `Option` field does not need a bump: a missing field reads back as
/// `None`.)
pub const FORMAT_VERSION: u32 = 2;

/// Header magic for artifact files written by
/// [`ModelArtifact::write_file`].
pub const ARTIFACT_MAGIC: &str = "AMS-ART";

/// The cheap degraded-mode predictor an engine builds from its
/// artifact: the anchored LR (a single global linear model, §III-B's
/// `B_acr`, from the snapshot) plus every company's last-good
/// prediction from export time ([`ModelArtifact::last_good`]). When the
/// GAT engine errors, the circuit is open, or the input is out of
/// domain, the server answers from this instead of failing the request.
#[derive(Debug, Clone)]
pub struct FallbackModel {
    /// Anchored-LR weights in slave-column space (`m×1`).
    pub anchor: Matrix,
    /// Per-company predictions at the reference features (`n×1`),
    /// materialized at export.
    pub last_good: Matrix,
}

impl FallbackModel {
    /// Degradation ladder for one company:
    /// 1. finite slave-space features → anchored-LR dot product;
    /// 2. unusable features but a known company → its last-good
    ///    prediction;
    /// 3. neither → the mean of the finite last-good predictions (0.0
    ///    when none is finite).
    ///
    /// Always returns a finite number — the whole point of the
    /// fallback is that it cannot itself fail.
    pub fn predict(&self, company: Option<usize>, slave_row: Option<&[f64]>) -> f64 {
        self.predict_from(company, slave_row.map(|row| row.iter().copied()))
    }

    /// [`FallbackModel::predict`] with the slave row given as its values
    /// in column order, so a caller can project a full feature row
    /// without materializing the slave row.
    pub fn predict_from(
        &self,
        company: Option<usize>,
        slave_row: Option<impl ExactSizeIterator<Item = f64>>,
    ) -> f64 {
        if let Some(row) = slave_row.filter(|row| row.len() == self.anchor.rows()) {
            // The anchor answers only for an all-finite row.
            let mut finite = true;
            let dot: f64 = row
                .zip(self.anchor.as_slice())
                .map(|(x, &w)| {
                    finite &= x.is_finite();
                    x * w
                })
                .sum();
            if finite && dot.is_finite() {
                return dot;
            }
        }
        if let Some(c) = company {
            if c < self.last_good.rows() {
                let p = self.last_good[(c, 0)];
                if p.is_finite() {
                    return p;
                }
            }
        }
        let finite = || self.last_good.as_slice().iter().filter(|v| v.is_finite());
        let mean = finite().sum::<f64>() / finite().count() as f64;
        if mean.is_finite() {
            mean
        } else {
            0.0
        }
    }
}

/// Where an artifact came from: enough to reproduce or audit it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Provenance {
    /// Tool that produced the artifact (e.g. `train_and_export`).
    pub created_by: String,
    /// Free-form description (dataset, fold, experiment id…).
    pub description: String,
    /// Training seed, duplicated out of the config for quick audit.
    pub seed: u64,
}

/// A self-contained, versioned export of a fitted AMS model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelArtifact {
    /// Artifact layout version; must equal [`FORMAT_VERSION`] on load.
    pub format_version: u32,
    /// Registry name (e.g. `"ams"`).
    pub name: String,
    /// Monotonically increasing model version within a name.
    pub version: u64,
    /// Learned parameters: node-transform, GAT and generator weights,
    /// the anchored LR `B_acr`, the assembly `β_c` and the full
    /// [`ams_core::AmsConfig`].
    pub snapshot: ModelSnapshot,
    /// The correlation graph the model was trained on (CSR form), which
    /// graph attention walks.
    pub graph: CompanyGraph,
    /// Train-split standardization stats, when the model was trained on
    /// standardized features. Lets the server accept raw feature rows.
    pub standardizer: Option<Standardizer>,
    /// Feature column names, aligned with the feature width.
    pub feature_names: Vec<String>,
    /// Per-company slave-LR weights `β` (n×m, slave-column space),
    /// materialized at [`ModelArtifact::reference_features`]. The
    /// single-company fast path is a dot product against one row.
    pub slave_weights: Matrix,
    /// The (standardized) feature matrix the slave weights were
    /// materialized at — one row per graph node.
    pub reference_features: Matrix,
    /// Every company's prediction at the reference features (`n×1`),
    /// materialized at export: the last-good rung of the engine's
    /// [`FallbackModel`], whose anchored LR is `snapshot.b_acr`.
    pub last_good: Matrix,
    /// Reproducibility metadata.
    pub provenance: Provenance,
}

impl ModelArtifact {
    /// Export a fitted model. Materializes the per-company slave
    /// weights by running the master once on `reference_features`.
    ///
    /// # Panics
    /// Panics if the model is unfitted, `graph` is not the graph it was
    /// fit on, or `reference_features` has the wrong row count (all
    /// caller bugs, not runtime conditions).
    #[allow(clippy::too_many_arguments)] // an export IS the bundling of these inputs
    pub fn export(
        name: &str,
        version: u64,
        model: &AmsModel,
        graph: &CompanyGraph,
        standardizer: Option<&Standardizer>,
        feature_names: &[String],
        reference_features: &Matrix,
        provenance: Provenance,
    ) -> Self {
        let fitted = model.fitted_edges().expect("export before fit");
        assert!(
            *fitted == edge_list(graph),
            "export: `graph` is not the graph the model was fit on"
        );
        let (slave_weights, _beta_v) = model.slave_weights(reference_features);
        Self {
            format_version: FORMAT_VERSION,
            name: name.to_string(),
            version,
            snapshot: model.snapshot(),
            graph: graph.clone(),
            standardizer: standardizer.cloned(),
            feature_names: feature_names.to_vec(),
            slave_weights,
            reference_features: reference_features.clone(),
            last_good: model.predict(reference_features),
            provenance,
        }
    }

    /// Atomically write this artifact to `path` under a checksummed
    /// header (write-temp + fsync + rename), so a crash mid-export
    /// never leaves a torn file and at-rest bit rot is detected on
    /// load instead of silently mis-scoring.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        ams_fault::framed::write_atomic(path, ARTIFACT_MAGIC, &self.to_json())
    }

    /// Read an artifact written by [`ModelArtifact::write_file`],
    /// verifying the checksum before parsing — a corrupted file is
    /// rejected with the frame error, never partially loaded.
    pub fn read_file(path: &std::path::Path) -> Result<Self, String> {
        let body = ams_fault::framed::read_verified(path, ARTIFACT_MAGIC)
            .map_err(|e| format!("artifact {}: {e}", path.display()))?;
        Self::from_json(&body)
    }

    /// Load an artifact file in either form: a checksummed file
    /// written by [`ModelArtifact::write_file`] (recognized by its
    /// [`ARTIFACT_MAGIC`] header; corruption is refused) or a plain
    /// JSON export.
    pub fn load_file(path: &std::path::Path) -> Result<Self, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if bytes.starts_with(ARTIFACT_MAGIC.as_bytes()) {
            return Self::read_file(path);
        }
        let json =
            String::from_utf8(bytes).map_err(|e| format!("{}: not UTF-8: {e}", path.display()))?;
        Self::from_json(&json)
    }

    /// Serialize to a JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization is infallible")
    }

    /// Parse and validate a JSON artifact. The format version is
    /// checked *before* the full structure is decoded so a future
    /// layout fails with "unsupported version", not a field error.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let value = serde_json::from_str::<serde::Value>(json)
            .map_err(|e| format!("artifact: invalid JSON: {e}"))?;
        let version = value
            .get("format_version")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| "artifact: missing format_version".to_string())?;
        if version != FORMAT_VERSION as f64 {
            return Err(format!(
                "artifact: unsupported format_version {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let artifact: ModelArtifact =
            serde::Deserialize::from_value(&value).map_err(|e| format!("artifact: {e}"))?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Cross-field consistency checks, run on every load.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.graph.num_nodes();
        if self.slave_weights.rows() != n {
            return Err(format!(
                "artifact: slave_weights has {} rows but the graph has {n} nodes",
                self.slave_weights.rows()
            ));
        }
        if self.reference_features.rows() != n {
            return Err(format!(
                "artifact: reference_features has {} rows but the graph has {n} nodes",
                self.reference_features.rows()
            ));
        }
        if !self.feature_names.is_empty()
            && self.feature_names.len() != self.reference_features.cols()
        {
            return Err(format!(
                "artifact: {} feature names for width {}",
                self.feature_names.len(),
                self.reference_features.cols()
            ));
        }
        if let Some(st) = &self.standardizer {
            if st.width() != self.reference_features.cols() {
                return Err(format!(
                    "artifact: standardizer width {} != feature width {}",
                    st.width(),
                    self.reference_features.cols()
                ));
            }
        }
        if self.last_good.shape() != (n, 1) {
            return Err(format!(
                "artifact: last_good is {}x{} but the graph has {n} nodes",
                self.last_good.rows(),
                self.last_good.cols()
            ));
        }
        let d = self.reference_features.cols();
        if let Some(cols) = &self.snapshot.config.slave_cols {
            if cols.iter().any(|&c| c >= d) {
                return Err("artifact: slave column index out of feature range".to_string());
            }
            if self.slave_weights.cols() != cols.len() {
                return Err(format!(
                    "artifact: slave_weights width {} != {} slave columns",
                    self.slave_weights.cols(),
                    cols.len()
                ));
            }
        } else if self.slave_weights.cols() != d {
            return Err(format!(
                "artifact: slave_weights width {} != feature width {d}",
                self.slave_weights.cols()
            ));
        }
        let m = self.slave_weights.cols();
        match &self.snapshot.b_acr {
            Some(b) if b.shape() == (m, 1) => Ok(()),
            Some(b) => Err(format!(
                "artifact: b_acr is {}x{} but the slave model has {m} columns",
                b.rows(),
                b.cols()
            )),
            None => Err("artifact: snapshot has no b_acr (unfitted model?)".to_string()),
        }
    }

    /// Quantize the forward-pass weights to f32 (DESIGN.md §14): every
    /// parameter rounded once, at export/load time, to the nearest f32.
    /// The result is the plan the engine's mixed-precision batch path
    /// executes.
    pub fn quantize_f32(&self) -> crate::plan::ForwardPlan<f32> {
        crate::plan::ForwardPlan::from_artifact(self)
    }

    /// Number of companies (graph nodes) this model scores.
    pub fn num_companies(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Full feature width the model consumes.
    pub fn feature_width(&self) -> usize {
        self.reference_features.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;

    #[test]
    fn json_round_trip_is_bit_exact() {
        let fx = trained_fixture(31);
        let json = fx.artifact.to_json();
        let back = ModelArtifact::from_json(&json).expect("round trip");
        assert_eq!(back.format_version, FORMAT_VERSION);
        assert_eq!(back.name, fx.artifact.name);
        assert_eq!(back.version, fx.artifact.version);
        assert_eq!(back.graph, fx.artifact.graph);
        assert_eq!(back.feature_names, fx.artifact.feature_names);
        let (a, b) = (&back.slave_weights, &fx.artifact.slave_weights);
        assert_eq!(a.shape(), b.shape());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn rejects_unknown_format_version() {
        let fx = trained_fixture(32);
        // A future layout, and the previous one: no older reader is kept.
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1] {
            let mut other = fx.artifact.clone();
            other.format_version = version;
            let err = ModelArtifact::from_json(&other.to_json()).unwrap_err();
            assert!(err.contains("unsupported format_version"), "{err}");
        }
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let fx = trained_fixture(33);
        let a = &fx.artifact;
        let (n, m) = (a.num_companies(), a.slave_weights.cols());
        let with_b_acr = |b_acr| ModelSnapshot { b_acr, ..a.snapshot.clone() };
        let cases = [
            ("slave_weights", ModelArtifact { slave_weights: Matrix::zeros(1, m), ..a.clone() }),
            ("last_good", ModelArtifact { last_good: Matrix::zeros(n + 1, 1), ..a.clone() }),
            (
                "b_acr is",
                ModelArtifact { snapshot: with_b_acr(Some(Matrix::zeros(m + 1, 1))), ..a.clone() },
            ),
            ("no b_acr", ModelArtifact { snapshot: with_b_acr(None), ..a.clone() }),
        ];
        for (want, bad) in cases {
            let err = ModelArtifact::from_json(&bad.to_json()).unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "not the graph the model was fit on")]
    fn export_refuses_a_graph_the_model_was_not_fit_on() {
        let fx = trained_fixture(35);
        let graph = &fx.artifact.graph;
        let rows: Vec<Vec<u32>> = (0..graph.num_nodes())
            .map(|i| {
                let row = graph.neighbors(i);
                if i == 0 {
                    row[1..].to_vec()
                } else {
                    row.to_vec()
                }
            })
            .collect();
        let a = &fx.artifact;
        ModelArtifact::export(
            &a.name,
            a.version,
            &fx.model,
            &CompanyGraph::from_adjacency(rows),
            a.standardizer.as_ref(),
            &a.feature_names,
            &a.reference_features,
            a.provenance.clone(),
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(ModelArtifact::from_json("not json").is_err());
        assert!(ModelArtifact::from_json("{}").is_err());
    }

    #[test]
    fn export_populates_fallback() {
        let fx = trained_fixture(34);
        let engine = crate::Engine::new(fx.artifact.clone()).unwrap();
        let fb = engine.fallback();
        // Bit for bit: the anchor is the snapshot's B_acr, and last-good
        // is the engine's batch path at the reference features.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let b_acr = fx.artifact.snapshot.b_acr.as_ref().expect("fitted B_acr");
        assert_eq!(fb.anchor.shape(), (fx.artifact.slave_weights.cols(), 1));
        assert_eq!(bits(&fb.anchor), bits(b_acr));
        let batch = engine.predict_batch(&fx.artifact.reference_features).unwrap();
        assert_eq!(fb.last_good.shape(), (fx.artifact.num_companies(), 1));
        assert_eq!(bits(&fb.last_good), bits(&batch));
        assert!(fb.last_good.as_slice().iter().all(|v| v.is_finite()));
        // The ladder always yields a finite number, whatever it's fed.
        assert!(fb.predict(Some(0), None).is_finite());
        assert!(fb.predict(None, Some(&vec![f64::NAN; fb.anchor.rows()])).is_finite());
        assert!(fb.predict(Some(usize::MAX), None).is_finite());
    }

    #[test]
    fn fallback_mean_skips_non_finite_rows() {
        let fb = |last_good: Vec<f64>| FallbackModel {
            anchor: Matrix::zeros(2, 1),
            last_good: Matrix::from_vec(last_good.len(), 1, last_good),
        };
        // The last rung averages the finite predictions only: a NaN row
        // neither counts nor pulls the mean toward zero.
        assert_eq!(fb(vec![1.0, f64::NAN, 2.0]).predict(None, None), 1.5);
        assert_eq!(fb(vec![1.0, 3.0]).predict(Some(7), None), 2.0);
        assert_eq!(fb(vec![f64::NAN, f64::INFINITY]).predict(None, None), 0.0);
    }

    #[test]
    fn file_round_trip_and_bit_flip_rejection() {
        let fx = trained_fixture(35);
        let dir = std::env::temp_dir().join(format!("ams-art-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.artifact");
        fx.artifact.write_file(&path).expect("write");
        let back = ModelArtifact::read_file(&path).expect("read back");
        assert_eq!(back.to_json(), fx.artifact.to_json());
        // `load_file` takes the framed file and a plain JSON export alike.
        let framed = ModelArtifact::load_file(&path).expect("load framed");
        assert_eq!(framed.to_json(), fx.artifact.to_json());
        let plain_path = dir.join("m.json");
        std::fs::write(&plain_path, fx.artifact.to_json()).unwrap();
        let plain = ModelArtifact::load_file(&plain_path).expect("load plain JSON");
        assert_eq!(plain.to_json(), fx.artifact.to_json());
        // A single flipped bit anywhere must be caught by the checksum,
        // whichever loader reads the file.
        ams_fault::bit_flip_file(&path, 8 * 200 + 3).expect("flip");
        for err in [
            ModelArtifact::read_file(&path).unwrap_err(),
            ModelArtifact::load_file(&path).unwrap_err(),
        ] {
            assert!(
                err.contains("checksum") || err.contains("header") || err.contains("magic"),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

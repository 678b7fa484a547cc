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
use ams_tensor::runtime::EdgeList;
use ams_tensor::Matrix;

/// Current artifact layout version. Bump on any breaking change to
/// [`ModelArtifact`] or the structures it embeds. (Additive `Option`
/// fields — like `fallback` — do not need a bump: missing fields read
/// back as `None`.)
pub const FORMAT_VERSION: u32 = 1;

/// Header magic for artifact files written by
/// [`ModelArtifact::write_file`].
pub const ARTIFACT_MAGIC: &str = "AMS-ART";

/// The cheap degraded-mode predictor carried inside an artifact: the
/// anchored LR (a single global linear model, §III-B's `B_acr`) plus
/// every company's last-good prediction from export time. When the GAT
/// engine errors, the circuit is open, or the input is out of domain,
/// the server answers from this instead of failing the request.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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
    /// 3. neither → the cross-company mean of the last-good vector.
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
        let n = self.last_good.rows().max(1) as f64;
        let mean = self.last_good.as_slice().iter().filter(|v| v.is_finite()).sum::<f64>() / n;
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
    /// the anchored LR `B_acr`, the assembly `β_c`, the training-graph
    /// mask and the full [`ams_core::AmsConfig`].
    pub snapshot: ModelSnapshot,
    /// The correlation graph the model was trained on (CSR form; the
    /// snapshot's dense mask is its materialization).
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
    /// Degraded-mode predictor (anchored LR + last-good predictions).
    /// `None` in artifacts written before this field existed; the
    /// engine rebuilds it from the snapshot on load.
    pub fallback: Option<FallbackModel>,
    /// Reproducibility metadata.
    pub provenance: Provenance,
}

impl ModelArtifact {
    /// Export a fitted model. Materializes the per-company slave
    /// weights by running the master once on `reference_features`.
    ///
    /// # Panics
    /// Panics if the model is unfitted or `reference_features` has the
    /// wrong row count (both are caller bugs, not runtime conditions).
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
        let (slave_weights, _beta_v) = model.slave_weights(reference_features);
        let snapshot = model.snapshot();
        let fallback = snapshot.b_acr.as_ref().map(|anchor| FallbackModel {
            anchor: anchor.clone(),
            last_good: model.predict(reference_features),
        });
        Self {
            format_version: FORMAT_VERSION,
            name: name.to_string(),
            version,
            snapshot,
            graph: graph.clone(),
            standardizer: standardizer.cloned(),
            feature_names: feature_names.to_vec(),
            slave_weights,
            reference_features: reference_features.clone(),
            fallback,
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
        match &self.snapshot.mask {
            Some(mask) if mask.rows() == n && mask.cols() == n => {
                // The tape walks the mask's edges and the engine the
                // graph's: they must be one graph, or the two would
                // serve different models without a word.
                if EdgeList::from_mask(mask.as_slice(), n) != edge_list(&self.graph) {
                    return Err(
                        "artifact: snapshot mask and graph disagree on the edges".to_string()
                    );
                }
            }
            Some(mask) => {
                return Err(format!(
                    "artifact: mask is {}x{} but the graph has {n} nodes",
                    mask.rows(),
                    mask.cols()
                ))
            }
            None => return Err("artifact: snapshot has no mask (unfitted model?)".to_string()),
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
        Ok(())
    }

    /// Quantize the forward-pass weights to f32 (DESIGN.md §14): every
    /// parameter rounded once, at export/load time, to the nearest f32.
    /// The result is the plan the engine's mixed-precision batch path
    /// executes, and it serializes standalone via
    /// [`crate::plan::ForwardPlan::to_bytes`].
    pub fn quantize_f32(&self) -> Result<crate::plan::ForwardPlan<f32>, String> {
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
        let mut bumped = fx.artifact.clone();
        bumped.format_version = FORMAT_VERSION + 1;
        let err = ModelArtifact::from_json(&bumped.to_json()).unwrap_err();
        assert!(err.contains("unsupported format_version"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let fx = trained_fixture(33);
        let mut bad = fx.artifact.clone();
        bad.slave_weights = Matrix::zeros(1, bad.slave_weights.cols());
        let err = ModelArtifact::from_json(&bad.to_json()).unwrap_err();
        assert!(err.contains("slave_weights"), "{err}");
    }

    #[test]
    fn rejects_a_mask_that_disagrees_with_the_graph() {
        // Hand edits that keep every shape right: the tape would walk
        // the mask's edges and the engine the graph's.
        let fx = trained_fixture(35);
        let n = fx.artifact.num_companies();
        let missing = (0..n).find(|&j| !fx.artifact.graph.has_edge(0, j)).expect("a non-edge");

        let mut added = fx.artifact.clone();
        added.snapshot.mask.as_mut().expect("fitted mask")[(0, missing)] = 1.0;
        let err = ModelArtifact::from_json(&added.to_json()).unwrap_err();
        assert!(err.contains("mask and graph disagree"), "{err}");

        let mut dropped = fx.artifact.clone();
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let row = fx.artifact.graph.neighbors(i);
                if i == 0 {
                    row[1..].to_vec()
                } else {
                    row.to_vec()
                }
            })
            .collect();
        dropped.graph = CompanyGraph::from_adjacency(rows);
        let err = ModelArtifact::from_json(&dropped.to_json()).unwrap_err();
        assert!(err.contains("mask and graph disagree"), "{err}");

        // The same edges with a different nonzero weight are one graph.
        let mut reweighted = fx.artifact.clone();
        let mask = reweighted.snapshot.mask.as_mut().expect("fitted mask");
        *mask = mask.map(|m| m * 2.0);
        assert!(ModelArtifact::from_json(&reweighted.to_json()).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(ModelArtifact::from_json("not json").is_err());
        assert!(ModelArtifact::from_json("{}").is_err());
    }

    #[test]
    fn export_populates_fallback() {
        let fx = trained_fixture(34);
        let fb = fx.artifact.fallback.as_ref().expect("fitted model exports a fallback");
        assert_eq!(fb.anchor.cols(), 1);
        assert_eq!(fb.anchor.rows(), fx.artifact.slave_weights.cols());
        assert_eq!(fb.last_good.rows(), fx.artifact.num_companies());
        assert!(fb.last_good.as_slice().iter().all(|v| v.is_finite()));
        // The ladder always yields a finite number, whatever it's fed.
        assert!(fb.predict(Some(0), None).is_finite());
        assert!(fb.predict(None, Some(&vec![f64::NAN; fb.anchor.rows()])).is_finite());
        assert!(fb.predict(Some(usize::MAX), None).is_finite());
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

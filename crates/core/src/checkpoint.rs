//! Training checkpoints: periodic, atomic, checksummed snapshots of a
//! phase-2 fit that [`crate::AmsModel::fit_resume`] can restart from
//! **bit-identically**.
//!
//! A checkpoint captures everything the epoch loop mutates — the flat
//! parameter list, Adam's moment buffers and step counter, the xoshiro
//! dropout-RNG state, and the early-stopping bookkeeping (best
//! validation tuple + patience counter). Everything else the loop needs
//! (the anchored LR `B_acr`, the graph's edges, the parameter *structure*)
//! is a pure function of the training inputs and is recomputed on
//! resume, which keeps checkpoints small and makes stale-checkpoint
//! mistakes (resuming against different data) loud rather than subtle.
//!
//! Files are written through [`ams_fault::framed`] (write-temp, fsync,
//! rename, under a CRC-32 header), so a crash never leaves a torn
//! checkpoint and at-rest corruption is rejected at load time —
//! [`latest_valid`] then silently falls back to the previous retained
//! file.
//!
//! The RNG state is serialized as four hex *strings*, not JSON numbers:
//! the vendored `serde_json` (like JavaScript) carries all numbers as
//! `f64`, which silently destroys `u64` words above 2^53.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use ams_fault::framed;
use ams_tensor::Matrix;

/// Header magic for checkpoint files.
pub const CKPT_MAGIC: &str = "AMS-CKPT";

/// How a fit run checkpoints itself.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory checkpoints are written into (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint every this many epochs (must be ≥ 1).
    pub every: usize,
    /// Retain at most this many newest checkpoint files (≥ 1); older
    /// ones are pruned after each successful write.
    pub keep: usize,
    /// Test hook simulating a crash: abort the fit (returning
    /// [`FitHalted`]) immediately after completing this epoch, leaving
    /// whatever checkpoints were written on disk. `None` in production.
    pub halt_after_epoch: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint every `every` epochs into `dir`, keeping 3 files.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        Self { dir: dir.into(), every, keep: 3, halt_after_epoch: None }
    }
}

/// Returned by checkpointed fits when [`CheckpointConfig::halt_after_epoch`]
/// fired: the simulated crash point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitHalted {
    /// The last epoch that completed before the simulated crash.
    pub epoch: usize,
}

impl fmt::Display for FitHalted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fit halted after epoch {} (simulated crash)", self.epoch)
    }
}

impl std::error::Error for FitHalted {}

/// One serializable snapshot of the phase-2 epoch loop, taken *after*
/// `epoch`'s optimizer step and validation check.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainCheckpoint {
    /// Last completed epoch (resume continues at `epoch + 1`).
    pub epoch: usize,
    /// Flat parameter list in `param_list` order.
    pub params: Vec<Matrix>,
    /// Adam step counter.
    pub adam_t: usize,
    /// Adam first moments, aligned with `params`.
    pub adam_m: Vec<Matrix>,
    /// Adam second moments, aligned with `params`.
    pub adam_v: Vec<Matrix>,
    /// xoshiro256** dropout-RNG state as four 16-digit hex words
    /// (strings because JSON numbers are f64 and truncate u64).
    pub rng_state: Vec<String>,
    /// Best validation MSE so far (NaN when no validation batch).
    pub best_vmse: f64,
    /// Parameters at the best validation check, when one exists.
    pub best_params: Option<Vec<Matrix>>,
    /// Validation checks since the best (early-stopping patience).
    pub checks_since_best: usize,
}

impl TrainCheckpoint {
    /// Encode a raw RNG state for the `rng_state` field.
    pub fn encode_rng(state: [u64; 4]) -> Vec<String> {
        state.iter().map(|w| format!("{w:016x}")).collect()
    }

    /// Decode `rng_state` back into raw words.
    pub fn decode_rng(&self) -> Result<[u64; 4], String> {
        if self.rng_state.len() != 4 {
            return Err(format!("rng_state has {} words, want 4", self.rng_state.len()));
        }
        let mut s = [0u64; 4];
        for (i, w) in self.rng_state.iter().enumerate() {
            s[i] = u64::from_str_radix(w, 16).map_err(|e| format!("rng_state[{i}]: {e}"))?;
        }
        Ok(s)
    }

    /// Internal consistency checks beyond what the checksum covers:
    /// aligned moment buffers, decodable RNG state.
    pub fn validate(&self) -> Result<(), String> {
        if self.adam_m.len() != self.params.len() && !self.adam_m.is_empty() {
            return Err(format!(
                "adam_m has {} entries for {} params",
                self.adam_m.len(),
                self.params.len()
            ));
        }
        if self.adam_v.len() != self.adam_m.len() {
            return Err(format!(
                "adam_v has {} entries, adam_m has {}",
                self.adam_v.len(),
                self.adam_m.len()
            ));
        }
        if let Some(bp) = &self.best_params {
            if bp.len() != self.params.len() {
                return Err(format!(
                    "best_params has {} entries for {} params",
                    bp.len(),
                    self.params.len()
                ));
            }
        }
        self.decode_rng().map(|_| ())
    }
}

/// The file name for a checkpoint of `epoch`.
fn file_name(epoch: usize) -> String {
    format!("ckpt-{epoch:08}.json")
}

/// List retained checkpoint files in `dir`, oldest first (by epoch
/// embedded in the name). Missing directory → empty list.
pub fn list(dir: &Path) -> Vec<(usize, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else { return out };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".json")) {
            if let Ok(epoch) = num.parse::<usize>() {
                out.push((epoch, entry.path()));
            }
        }
    }
    out.sort_by_key(|&(e, _)| e);
    out
}

/// Atomically write a checkpoint into `cfg.dir` and prune down to
/// `cfg.keep` newest files.
pub fn write(cfg: &CheckpointConfig, ck: &TrainCheckpoint) -> std::io::Result<PathBuf> {
    fs::create_dir_all(&cfg.dir)?;
    let path = cfg.dir.join(file_name(ck.epoch));
    let body = serde_json::to_string(ck)
        .map_err(|e| std::io::Error::other(format!("checkpoint serialize: {e}")))?;
    framed::write_atomic(&path, CKPT_MAGIC, &body)?;
    let files = list(&cfg.dir);
    if files.len() > cfg.keep.max(1) {
        for (_, old) in &files[..files.len() - cfg.keep.max(1)] {
            let _ = fs::remove_file(old);
        }
    }
    Ok(path)
}

/// Load the newest checkpoint in `dir` that passes checksum and
/// structural validation, skipping (and reporting) corrupt ones.
/// Returns `None` when no usable checkpoint exists.
pub fn latest_valid(dir: &Path) -> Option<(PathBuf, TrainCheckpoint)> {
    for (_, path) in list(dir).into_iter().rev() {
        match read(&path) {
            Ok(ck) => return Some((path, ck)),
            Err(e) => {
                // Corrupt or torn: fall back to the next-newest file.
                eprintln!("checkpoint {}: {e}; falling back", path.display());
            }
        }
    }
    None
}

/// Read and fully validate one checkpoint file.
pub fn read(path: &Path) -> Result<TrainCheckpoint, String> {
    let body = framed::read_verified(path, CKPT_MAGIC).map_err(|e| e.to_string())?;
    let ck: TrainCheckpoint = serde_json::from_str(&body).map_err(|e| format!("parse: {e}"))?;
    ck.validate()?;
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ams-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample(epoch: usize) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch,
            params: vec![Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])],
            adam_t: epoch,
            adam_m: vec![Matrix::zeros(2, 2)],
            adam_v: vec![Matrix::zeros(2, 2)],
            rng_state: TrainCheckpoint::encode_rng([u64::MAX, 1, 2, 0xDEAD_BEEF_DEAD_BEEF]),
            best_vmse: f64::NAN,
            best_params: None,
            checks_since_best: 0,
        }
    }

    #[test]
    fn rng_state_round_trips_full_u64_range() {
        // u64::MAX is far above 2^53; a JSON-number encoding would
        // corrupt it, the hex-string encoding must not.
        let ck = sample(1);
        assert_eq!(ck.decode_rng().unwrap(), [u64::MAX, 1, 2, 0xDEAD_BEEF_DEAD_BEEF]);
    }

    #[test]
    fn write_read_and_prune() {
        let dir = temp_dir("prune");
        let cfg = CheckpointConfig { dir: dir.clone(), every: 1, keep: 2, halt_after_epoch: None };
        for e in [10, 20, 30, 40] {
            write(&cfg, &sample(e)).unwrap();
        }
        let files = list(&dir);
        assert_eq!(files.iter().map(|&(e, _)| e).collect::<Vec<_>>(), vec![30, 40]);
        let (_, newest) = latest_valid(&dir).unwrap();
        assert_eq!(newest.epoch, 40);
        assert_eq!(newest.params[0].as_slice(), sample(40).params[0].as_slice());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let cfg = CheckpointConfig { dir: dir.clone(), every: 1, keep: 3, halt_after_epoch: None };
        write(&cfg, &sample(1)).unwrap();
        let newest = write(&cfg, &sample(2)).unwrap();
        ams_fault::bit_flip_file(&newest, 200).unwrap();
        let (path, ck) = latest_valid(&dir).expect("older checkpoint should survive");
        assert_eq!(ck.epoch, 1);
        assert!(path.ends_with(file_name(1)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_dir_yields_none() {
        let dir = temp_dir("empty");
        assert!(latest_valid(&dir).is_none());
        fs::create_dir_all(&dir).unwrap();
        assert!(latest_valid(&dir).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_rejects_misaligned_moments() {
        let mut ck = sample(1);
        ck.adam_v.clear();
        assert!(ck.validate().is_err());
        let mut ck = sample(1);
        ck.rng_state.pop();
        assert!(ck.validate().is_err());
    }
}

//! Named, versioned model registry with atomic hot-swap.
//!
//! Server workers hold the registry behind an `Arc` and resolve a
//! model per request; publishing a new version takes the write lock
//! only long enough to swap an `Arc<Engine>` in, so in-flight requests
//! keep scoring against the engine they already resolved — the classic
//! read-copy-update shape, built from `std::sync` only.

use crate::artifact::ModelArtifact;
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::engine::Engine;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A name's live state: every retained version plus the active one.
struct Entry {
    /// Versions in publish order (ascending version number).
    versions: Vec<Arc<Engine>>,
    /// The name's circuit breaker. Deliberately shared across versions:
    /// engine health is a property of the *serving path* for this name,
    /// and a hot-swap should inherit (then quickly clear, via the
    /// half-open probe) the previous version's state rather than reset
    /// an open breaker to closed.
    breaker: Arc<CircuitBreaker>,
}

impl Entry {
    /// The latest published engine; `None` only for an entry that
    /// never finished its first publish.
    fn active(&self) -> Option<Arc<Engine>> {
        self.versions.last().map(Arc::clone)
    }
}

/// Thread-safe model registry.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<HashMap<String, Entry>>,
    breaker_config: BreakerConfig,
}

impl Registry {
    /// Empty registry with default breaker tuning.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty registry whose entries trip their breakers per `config`.
    pub fn with_breaker_config(config: BreakerConfig) -> Self {
        Self { inner: RwLock::default(), breaker_config: config }
    }

    /// The circuit breaker guarding `name`'s serving path.
    pub fn breaker(&self, name: &str) -> Option<Arc<CircuitBreaker>> {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        map.get(name).map(|e| Arc::clone(&e.breaker))
    }

    /// Health label for `name`, as reported by the `health` endpoint:
    /// `"open-circuit"` while the breaker rejects engine traffic,
    /// `"degraded"` under a non-zero failure streak, else `"healthy"`.
    pub fn health_state(&self, name: &str) -> Option<&'static str> {
        let breaker = self.breaker(name)?;
        Some(match breaker.state() {
            BreakerState::Open | BreakerState::HalfOpen => "open-circuit",
            BreakerState::Closed if breaker.failure_streak() > 0 => "degraded",
            BreakerState::Closed => "healthy",
        })
    }

    /// Validate and publish an artifact under its embedded name. The
    /// new version must be strictly greater than the latest published
    /// one — stale re-publishes are rejected instead of silently
    /// rolling traffic back.
    pub fn publish(&self, artifact: ModelArtifact) -> Result<Arc<Engine>, String> {
        let engine = Arc::new(Engine::new(artifact)?);
        let name = engine.artifact().name.clone();
        let version = engine.artifact().version;
        // A poisoned lock means a worker panicked mid-swap; the map
        // itself is still structurally sound (every mutation is a
        // single push/drain), so recover the guard rather than
        // cascading the panic through every serving thread.
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(name).or_insert_with(|| Entry {
            versions: Vec::new(),
            breaker: Arc::new(CircuitBreaker::new(self.breaker_config)),
        });
        if let Some(latest) = entry.versions.last() {
            let latest_v = latest.artifact().version;
            if version <= latest_v {
                return Err(format!(
                    "version {version} is not newer than published version {latest_v}"
                ));
            }
        }
        entry.versions.push(Arc::clone(&engine));
        Ok(engine)
    }

    /// Publish an artifact from a checksummed file written by
    /// [`ModelArtifact::write_file`]. At-rest corruption (torn write,
    /// bit rot, truncation) fails the checksum and is rejected here —
    /// the previously published version keeps serving untouched.
    pub fn publish_file(&self, path: &std::path::Path) -> Result<Arc<Engine>, String> {
        let artifact = ModelArtifact::read_file(path)?;
        self.publish(artifact)
    }

    /// The active (latest) engine for a name.
    pub fn get(&self, name: &str) -> Option<Arc<Engine>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).get(name).and_then(Entry::active)
    }

    /// A specific retained version.
    pub fn get_version(&self, name: &str, version: u64) -> Option<Arc<Engine>> {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        map.get(name)?.versions.iter().find(|e| e.artifact().version == version).map(Arc::clone)
    }

    /// The active engine when exactly one model is published, else
    /// `Err` with the number of published models (0, or 2 and more).
    /// What a request that names no model resolves to; one read lock,
    /// no allocation.
    pub fn sole_active(&self) -> Result<Arc<Engine>, usize> {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut live = map.values().filter_map(Entry::active);
        match (live.next(), live.next()) {
            (Some(only), None) => Ok(only),
            (None, _) => Err(0),
            (Some(_), Some(_)) => Err(2 + live.count()),
        }
    }

    /// `(name, active version, retained count)` for every model.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<(String, u64, usize)> = map
            .iter()
            .filter_map(|(name, e)| {
                e.active().map(|a| (name.clone(), a.artifact().version, e.versions.len()))
            })
            .collect();
        out.sort();
        out
    }

    /// Drop old versions of `name`, keeping the newest `keep`. Returns
    /// how many were dropped. In-flight requests holding a dropped
    /// engine's `Arc` finish unharmed.
    pub fn prune(&self, name: &str, keep: usize) -> usize {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        match map.get_mut(name) {
            Some(e) if e.versions.len() > keep.max(1) => {
                let drop_n = e.versions.len() - keep.max(1);
                e.versions.drain(..drop_n);
                drop_n
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;
    use std::thread;

    fn artifact_with_version(seed: u64, version: u64) -> ModelArtifact {
        let mut a = trained_fixture(seed).artifact;
        a.version = version;
        a
    }

    #[test]
    fn publish_get_and_version_ordering() {
        let reg = Registry::new();
        reg.publish(artifact_with_version(51, 1)).unwrap();
        reg.publish(artifact_with_version(52, 2)).unwrap();
        assert_eq!(reg.get("ams-demo").unwrap().artifact().version, 2);
        assert_eq!(reg.get_version("ams-demo", 1).unwrap().artifact().version, 1);
        assert!(reg.get("nope").is_none());
        // Stale publish rejected.
        let err = reg.publish(artifact_with_version(53, 2)).unwrap_err();
        assert!(err.contains("not newer"), "{err}");
        assert_eq!(reg.list(), vec![("ams-demo".to_string(), 2, 2)]);
    }

    #[test]
    fn sole_active_counts_published_names() {
        let reg = Registry::new();
        assert_eq!(reg.sole_active().err(), Some(0));
        let v1 = artifact_with_version(56, 1);
        let mut v2 = v1.clone();
        v2.version = 2;
        let mut other = v1.clone();
        other.name = "other".into();
        reg.publish(v1).unwrap();
        reg.publish(v2).unwrap();
        assert_eq!(reg.sole_active().unwrap().artifact().version, 2, "versions are one name");
        reg.publish(other).unwrap();
        assert_eq!(reg.sole_active().err(), Some(2));
    }

    #[test]
    fn prune_keeps_newest() {
        let reg = Registry::new();
        for v in 1..=4 {
            reg.publish(artifact_with_version(54, v)).unwrap();
        }
        assert_eq!(reg.prune("ams-demo", 2), 2);
        assert!(reg.get_version("ams-demo", 1).is_none());
        assert_eq!(reg.get("ams-demo").unwrap().artifact().version, 4);
    }

    #[test]
    fn hot_swap_is_atomic_under_concurrent_reads() {
        // Readers resolve + score while a writer publishes new
        // versions; every resolved engine must stay fully usable.
        let reg = Arc::new(Registry::new());
        reg.publish(artifact_with_version(55, 1)).unwrap();
        let width = reg.get("ams-demo").unwrap().feature_width();

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let engine = reg.get("ams-demo").expect("always published");
                        engine.predict_company(0, &vec![0.1; width]).expect("scores");
                        n += 1;
                    }
                    n
                })
            })
            .collect();

        // Publish a few new versions while readers hammer the registry.
        // Reuse the same artifact body (only the version differs) so the
        // test spends its time on the swap, not on training.
        let base = trained_fixture(55).artifact;
        for v in 2..=5 {
            let mut a = base.clone();
            a.version = v;
            reg.publish(a).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(reg.get("ams-demo").unwrap().artifact().version, 5);
    }

    #[test]
    fn corrupt_artifact_file_is_rejected_and_previous_version_serves() {
        let reg = Registry::new();
        reg.publish(artifact_with_version(56, 1)).unwrap();

        let dir = std::env::temp_dir().join(format!("ams-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.artifact");
        artifact_with_version(56, 2).write_file(&path).unwrap();

        // An intact file publishes; roll back to test the corrupt case
        // at the same version number.
        let clean = Registry::new();
        clean.publish_file(&path).unwrap();
        assert_eq!(clean.get("ams-demo").unwrap().artifact().version, 2);

        ams_fault::bit_flip_file(&path, 8 * 512 + 1).unwrap();
        let err = reg.publish_file(&path).unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("header") || err.contains("magic"),
            "{err}"
        );
        // The registry is untouched: version 1 keeps serving.
        assert_eq!(reg.get("ams-demo").unwrap().artifact().version, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn breaker_is_per_name_and_survives_hot_swap() {
        let reg = Registry::new();
        reg.publish(artifact_with_version(57, 1)).unwrap();
        let b = reg.breaker("ams-demo").unwrap();
        assert_eq!(reg.health_state("ams-demo"), Some("healthy"));
        b.record_failure();
        assert_eq!(reg.health_state("ams-demo"), Some("degraded"));
        // A hot-swap publish keeps the same breaker (same Arc).
        reg.publish(artifact_with_version(57, 2)).unwrap();
        assert!(Arc::ptr_eq(&b, &reg.breaker("ams-demo").unwrap()));
        assert_eq!(reg.health_state("ams-demo"), Some("degraded"));
        b.record_success();
        assert_eq!(reg.health_state("ams-demo"), Some("healthy"));
        assert_eq!(reg.health_state("nope"), None);
    }

    #[test]
    fn poisoned_lock_recovers_and_keeps_serving() {
        // A worker panicking while holding the registry's write lock
        // poisons it; every accessor goes through
        // `PoisonError::into_inner`, so reads AND later publishes must
        // keep working.
        let reg = Arc::new(Registry::new());
        reg.publish(artifact_with_version(58, 1)).unwrap();

        let poisoner = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _guard = reg.inner.write().unwrap();
                panic!("simulated worker crash mid-publish");
            })
        };
        assert!(poisoner.join().is_err(), "poisoner must panic");
        assert!(reg.inner.is_poisoned(), "lock must actually be poisoned");

        // Reads still serve the published version…
        let engine = reg.get("ams-demo").expect("get() recovers from poisoning");
        assert_eq!(engine.artifact().version, 1);
        let width = engine.feature_width();
        engine.predict_company(0, &vec![0.1; width]).expect("resolved engine still scores");
        // …and the registry still accepts new publishes.
        reg.publish(artifact_with_version(58, 2)).expect("publish() recovers from poisoning");
        assert_eq!(reg.get("ams-demo").unwrap().artifact().version, 2);
        assert_eq!(reg.list(), vec![("ams-demo".to_string(), 2, 2)]);
    }
}

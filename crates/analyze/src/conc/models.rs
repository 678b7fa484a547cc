//! The serving/runtime protocols re-expressed as explorer models.
//!
//! Each model mirrors one of the riskiest concurrent protocols in the
//! workspace, line-for-line close to the code it abstracts:
//!
//! * [`registry_hot_swap`] — `serve::registry::Registry::publish`
//!   versus concurrent `latest()` readers: version validation and the
//!   push happen under **one** write guard.
//! * [`breaker_half_open`] — `serve::breaker::CircuitBreaker::allow`:
//!   the `Open → HalfOpen` single-probe transition happens under
//!   **one** mutex guard (`Instant` elapse is modeled as a logical
//!   flag, set before the race starts, so no wall clock is involved).
//! * [`shed_queue`] — `serve::server`'s bounded admission queue:
//!   `try_send` sheds on full while a worker drains concurrently; a
//!   sentinel models shutdown.
//! * [`router_failover`] — `cluster::router`'s failover protocol: the
//!   health prober and a request-draining dispatcher race for a
//!   quarantined replica's half-open probe. Both go through `allow()`
//!   (check + transition under **one** guard), so at most one spends
//!   the probe; whoever wins records the outcome, re-admitting the
//!   replica (`Closed`) exactly once. The prober's preliminary
//!   `state() != Closed` peek is a benign stale read — the admission
//!   decision itself stays guarded.
//!
//! Each correct model has a deliberately broken sibling
//! ([`registry_hot_swap_lost_update`], [`breaker_double_probe`],
//! [`router_failover_unguarded_probe`]) that re-introduces the classic
//! bug the real code avoids — a read-validate-then-write gap. The unit
//! tests assert the explorer *catches* those, which is what makes a
//! clean pass over the correct models evidence rather than vacuity.
//!
//! All models pass exhaustively at the documented CI bound
//! ([`Config::ci`], two pre-emptions); registry and breaker also pass
//! with the bound removed (see `tests/conc_models.rs` at the
//! workspace root).

use super::sched::{explore, spawn, Config, Stats, Violation};
use super::shim::{sync_channel, Mutex, RaceCell, RwLock};
use std::sync::Arc;

/// Registry hot-swap: two publishers race to publish versions 1 and 2
/// while a reader snapshots concurrently. Mirrors
/// `Registry::publish`'s validate-and-push under a single write guard.
/// Invariant: the version list is strictly increasing in every
/// schedule, from the reader's snapshot and at the end.
pub fn registry_hot_swap(cfg: Config) -> Result<Stats, Box<Violation>> {
    explore(cfg, || {
        let versions = Arc::new(RwLock::new(Vec::<u32>::new()));
        let publishers: Vec<_> = [1u32, 2u32]
            .into_iter()
            .map(|v| {
                let versions = Arc::clone(&versions);
                spawn(move || {
                    // One write guard covers both the validation and
                    // the push — the real publish's shape.
                    let mut g = versions.write();
                    let latest = g.last().copied().unwrap_or(0);
                    if v > latest {
                        g.push(v);
                    }
                })
            })
            .collect();
        let reader = {
            let versions = Arc::clone(&versions);
            spawn(move || {
                let g = versions.read();
                assert_strictly_increasing(&g);
            })
        };
        for p in publishers {
            p.join();
        }
        reader.join();
        let g = versions.read();
        assert!(!g.is_empty(), "at least one publish must land");
        assert_strictly_increasing(&g);
    })
}

/// The classic lost-update bug re-introduced: each publisher computes
/// `next = latest + 1` under a *read* guard, drops it, then pushes
/// under a separate write guard. Two publishers can both compute the
/// same `next`, so the strictly-increasing invariant breaks. The
/// explorer must find this within one pre-emption.
pub fn registry_hot_swap_lost_update(cfg: Config) -> Result<Stats, Box<Violation>> {
    explore(cfg, || {
        let versions = Arc::new(RwLock::new(Vec::<u32>::new()));
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let versions = Arc::clone(&versions);
                spawn(move || {
                    let next = {
                        let g = versions.read();
                        g.last().copied().unwrap_or(0) + 1
                    };
                    // BUG: the validation above is stale by the time
                    // this write guard is acquired.
                    let mut g = versions.write();
                    g.push(next);
                })
            })
            .collect();
        for p in publishers {
            p.join();
        }
        let g = versions.read();
        assert_strictly_increasing(&g);
    })
}

fn assert_strictly_increasing(versions: &[u32]) {
    assert!(
        versions.windows(2).all(|w| w[0] < w[1]),
        "version list not strictly increasing: {versions:?}"
    );
}

/// Breaker state as the model sees it; `Open`'s cooldown `Instant` is
/// a logical `elapsed` flag fixed before the race begins.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Open { elapsed: bool },
    HalfOpen,
}

/// `CircuitBreaker::allow`'s single-probe discipline: the
/// `Open → HalfOpen` transition and the elapse check happen under one
/// guard, so exactly one of two racing callers wins the probe. The
/// winner releases its probe (`release_probe` → back to `Open`, not
/// yet elapsed), mirroring the real half-open release path.
pub fn breaker_half_open(cfg: Config) -> Result<Stats, Box<Violation>> {
    explore(cfg, || {
        let state = Arc::new(Mutex::new(BreakerState::Open { elapsed: true }));
        let grants: Vec<Arc<RaceCell<bool>>> =
            (0..2).map(|_| Arc::new(RaceCell::new(false))).collect();
        let callers: Vec<_> = grants
            .iter()
            .map(|grant| {
                let state = Arc::clone(&state);
                let grant = Arc::clone(grant);
                spawn(move || {
                    let granted = {
                        // One guard covers check and transition — the
                        // real allow()'s shape.
                        let mut g = state.lock();
                        match *g {
                            BreakerState::Open { elapsed: true } => {
                                *g = BreakerState::HalfOpen;
                                true
                            }
                            BreakerState::Open { .. } | BreakerState::HalfOpen => false,
                        }
                    };
                    if granted {
                        grant.set(true);
                        // release_probe: the probe failed, reopen.
                        let mut g = state.lock();
                        *g = BreakerState::Open { elapsed: false };
                    }
                })
            })
            .collect();
        for c in callers {
            c.join();
        }
        let probes = grants.iter().filter(|g| g.get()).count();
        assert_eq!(probes, 1, "exactly one caller may win the half-open probe");
    })
}

/// The double-probe bug re-introduced: the elapse check happens under
/// one guard, the `HalfOpen` transition under a later one. Both
/// callers can observe an elapsed `Open` before either transitions,
/// and both win a probe. The explorer must find this within one
/// pre-emption.
pub fn breaker_double_probe(cfg: Config) -> Result<Stats, Box<Violation>> {
    explore(cfg, || {
        let state = Arc::new(Mutex::new(BreakerState::Open { elapsed: true }));
        let grants: Vec<Arc<RaceCell<bool>>> =
            (0..2).map(|_| Arc::new(RaceCell::new(false))).collect();
        let callers: Vec<_> = grants
            .iter()
            .map(|grant| {
                let state = Arc::clone(&state);
                let grant = Arc::clone(grant);
                spawn(move || {
                    // BUG: check and transition under separate guards.
                    let may_probe = { *state.lock() == BreakerState::Open { elapsed: true } };
                    if may_probe {
                        let mut g = state.lock();
                        *g = BreakerState::HalfOpen;
                        grant.set(true);
                    }
                })
            })
            .collect();
        for c in callers {
            c.join();
        }
        let probes = grants.iter().filter(|g| g.get()).count();
        assert!(probes <= 1, "two callers won the half-open probe");
    })
}

/// The bounded admission queue of `ams_serve::net`'s connection core,
/// which both the server and the router run on: a producer admits two
/// connections via `try_send` (shedding on full, like its
/// `accept_loop`) while a worker drains concurrently (like its
/// `worker_loop`); a `0` sentinel models shutdown. Invariants, in every schedule: the worker handles
/// exactly the admitted connections, nothing is both shed and
/// handled, and the protocol never deadlocks.
pub fn shed_queue(cfg: Config) -> Result<Stats, Box<Violation>> {
    explore(cfg, || {
        let queue = Arc::new(sync_channel::<u32>(1));
        let admitted = Arc::new(RaceCell::new(0u32));
        let shed = Arc::new(RaceCell::new(0u32));
        let handled = Arc::new(RaceCell::new(0u32));
        let producer = {
            let queue = Arc::clone(&queue);
            let admitted = Arc::clone(&admitted);
            let shed = Arc::clone(&shed);
            spawn(move || {
                for conn in [1u32, 2u32] {
                    match queue.try_send(conn) {
                        Ok(()) => admitted.set(admitted.get() + 1),
                        Err(_) => shed.set(shed.get() + 1),
                    }
                }
                // Shutdown sentinel: a blocking send, so it waits for
                // queue space rather than shedding the shutdown.
                queue.send(0);
            })
        };
        let worker = {
            let queue = Arc::clone(&queue);
            let handled = Arc::clone(&handled);
            spawn(move || loop {
                let conn = queue.recv();
                if conn == 0 {
                    break;
                }
                handled.set(handled.get() + 1);
            })
        };
        producer.join();
        worker.join();
        // Joins order these reads after both threads' writes.
        assert_eq!(admitted.get() + shed.get(), 2, "every connection admitted or shed");
        assert_eq!(handled.get(), admitted.get(), "worker drains exactly what was admitted");
    })
}

/// Replica breaker state as the router failover model sees it;
/// `Open`'s cooldown is the usual logical `elapsed` flag.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    Open { elapsed: bool },
    HalfOpen,
    Closed,
}

/// What the modeled `allow()` granted.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// The caller spent the half-open probe (`Open → HalfOpen`).
    Probe,
    /// Normal admission on a closed breaker.
    Normal,
    /// Quarantined: skip this replica (degrade / try the next one).
    Denied,
}

/// `CircuitBreaker::allow` as the router uses it per upstream: check
/// and transition under one guard.
fn replica_allow(state: &Mutex<ReplicaState>) -> Admission {
    let mut g = state.lock();
    match *g {
        ReplicaState::Closed => Admission::Normal,
        ReplicaState::Open { elapsed: true } => {
            *g = ReplicaState::HalfOpen;
            Admission::Probe
        }
        ReplicaState::Open { .. } | ReplicaState::HalfOpen => Admission::Denied,
    }
}

/// The router's replica failover/re-admission protocol: a quarantined
/// replica whose cooldown has elapsed is raced for by the health
/// prober (stale `state() != Closed` peek, then `allow()`) and a
/// dispatcher draining a live request (straight to `allow()`). The
/// upstream answers both probes and requests, so every admitted
/// attempt records success. Invariants, in every schedule: exactly one
/// caller spends the half-open probe, a denied dispatcher degrades
/// instead of dispatching, and the replica ends re-admitted
/// (`Closed`) — re-admission is neither lost nor doubled.
pub fn router_failover(cfg: Config) -> Result<Stats, Box<Violation>> {
    explore(cfg, || {
        let state = Arc::new(Mutex::new(ReplicaState::Open { elapsed: true }));
        let probed: Vec<Arc<RaceCell<bool>>> =
            (0..2).map(|_| Arc::new(RaceCell::new(false))).collect();
        let degraded = Arc::new(RaceCell::new(false));
        let prober = {
            let state = Arc::clone(&state);
            let probed = Arc::clone(&probed[0]);
            spawn(move || {
                // The real prober only bothers with non-closed
                // upstreams; this peek may go stale, which is safe —
                // admission is re-checked under allow()'s guard.
                let quarantined = { *state.lock() != ReplicaState::Closed };
                if !quarantined {
                    return;
                }
                match replica_allow(&state) {
                    Admission::Denied => {}
                    admission => {
                        if admission == Admission::Probe {
                            probed.set(true);
                        }
                        // The health round trip succeeds: record it,
                        // re-admitting the replica.
                        *state.lock() = ReplicaState::Closed;
                    }
                }
            })
        };
        let dispatcher = {
            let state = Arc::clone(&state);
            let probed = Arc::clone(&probed[1]);
            let degraded = Arc::clone(&degraded);
            spawn(move || match replica_allow(&state) {
                Admission::Denied => degraded.set(true),
                admission => {
                    if admission == Admission::Probe {
                        probed.set(true);
                    }
                    // The request succeeds: record_success.
                    *state.lock() = ReplicaState::Closed;
                }
            })
        };
        prober.join();
        dispatcher.join();
        let probes = probed.iter().filter(|p| p.get()).count();
        assert_eq!(probes, 1, "exactly one caller may spend the half-open probe");
        assert!(
            *state.lock() == ReplicaState::Closed,
            "a successful probe must re-admit the replica"
        );
    })
}

/// The unguarded-probe bug re-introduced: the prober trusts its
/// `state() != Closed` peek and probes *without* spending the breaker's
/// half-open admission. A dispatcher that legitimately won the probe
/// can then be mid-flight while the prober probes too — two callers
/// hammering a replica that earned exactly one trial request. The
/// explorer must find this within one pre-emption.
pub fn router_failover_unguarded_probe(cfg: Config) -> Result<Stats, Box<Violation>> {
    explore(cfg, || {
        let state = Arc::new(Mutex::new(ReplicaState::Open { elapsed: true }));
        let probed: Vec<Arc<RaceCell<bool>>> =
            (0..2).map(|_| Arc::new(RaceCell::new(false))).collect();
        let prober = {
            let state = Arc::clone(&state);
            let probed = Arc::clone(&probed[0]);
            spawn(move || {
                // BUG: the peek alone admits the probe — no allow().
                let quarantined = { *state.lock() != ReplicaState::Closed };
                if quarantined {
                    probed.set(true);
                    *state.lock() = ReplicaState::Closed;
                }
            })
        };
        let dispatcher = {
            let state = Arc::clone(&state);
            let probed = Arc::clone(&probed[1]);
            spawn(move || {
                if replica_allow(&state) == Admission::Probe {
                    probed.set(true);
                    *state.lock() = ReplicaState::Closed;
                }
            })
        };
        prober.join();
        dispatcher.join();
        let probes = probed.iter().filter(|p| p.get()).count();
        assert!(probes <= 1, "two callers probed the quarantined replica");
    })
}

#[cfg(test)]
mod tests {
    use super::super::sched::ViolationKind;
    use super::*;

    #[test]
    fn registry_hot_swap_is_clean_at_the_ci_bound() {
        let stats = registry_hot_swap(Config::ci()).expect("hot swap must be clean");
        assert!(stats.complete, "bounded space must be fully explored");
    }

    #[test]
    fn registry_lost_update_variant_is_caught() {
        let err = registry_hot_swap_lost_update(Config::ci())
            .expect_err("read-then-write publish must lose an update");
        assert_eq!(err.kind, ViolationKind::Panic);
        assert!(err.message.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn breaker_half_open_grants_exactly_one_probe() {
        let stats = breaker_half_open(Config::ci()).expect("single-probe discipline must hold");
        assert!(stats.complete);
    }

    #[test]
    fn breaker_double_probe_variant_is_caught() {
        let err = breaker_double_probe(Config::ci())
            .expect_err("check-then-transition must double-probe");
        assert_eq!(err.kind, ViolationKind::Panic);
        assert!(err.message.contains("probe"), "{err}");
    }

    #[test]
    fn shed_queue_is_clean_at_the_ci_bound() {
        let stats = shed_queue(Config::ci()).expect("admission/drain must be clean");
        assert!(stats.complete, "bounded space must be fully explored");
    }

    #[test]
    fn router_failover_readmits_exactly_once() {
        let stats = router_failover(Config::ci()).expect("failover protocol must be clean");
        assert!(stats.complete, "bounded space must be fully explored");
    }

    #[test]
    fn router_failover_unguarded_probe_is_caught() {
        let err = router_failover_unguarded_probe(Config::ci())
            .expect_err("an unguarded prober must double-probe");
        assert_eq!(err.kind, ViolationKind::Panic);
        assert!(err.message.contains("probed"), "{err}");
    }
}

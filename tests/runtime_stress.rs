//! Multi-threaded stress tests of the `runtime` subsystem: N client
//! threads × M mixed operations against a shared `FleetManager` and
//! `EstimateCache`, with invariants checked throughout and a watchdog
//! asserting the whole run completes (no deadlock).

mod common;

use common::journaled;
use contention::Method;
use platform::{AppId, Application, SystemSpec, UseCase};
use rand::{rngs::StdRng, RngCore, SeedableRng};
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, EstimateCache, FleetConfig,
    FleetManager, JournalReplayer, RoutingPolicy, ServiceError,
};
use sdf::figure2_graphs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 150;
const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `f` on a fresh thread and fails the test if it does not finish
/// within [`WATCHDOG`] — a deadlocked manager hangs forever otherwise.
fn with_watchdog<F: FnOnce() + Send + 'static>(f: F) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).expect("watchdog receiver lives");
    });
    rx.recv_timeout(WATCHDOG)
        .expect("stress run deadlocked: watchdog expired");
    worker.join().expect("stress thread panicked");
}

fn two_app_spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(platform::Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

/// Figure-2 applications A, B, A, B. On a two-shard group app indices 0,
/// 1 and 3 hash to one shard and 2 to the other, so both shards decide.
fn four_app_spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    let mut builder = SystemSpec::builder();
    for i in 0..2 {
        builder = builder
            .application(Application::new(format!("A{i}"), a.clone()).expect("valid"))
            .application(Application::new(format!("B{i}"), b.clone()).expect("valid"));
    }
    builder
        .mapping(platform::Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

/// Per-thread deterministic operation stream.
fn next(rng: &mut StdRng) -> u64 {
    rng.next_u64()
}

#[test]
fn manager_survives_concurrent_admit_release_query() {
    with_watchdog(|| {
        let spec = four_app_spec();
        let config = FleetConfig::uniform(1, 2, 4, RoutingPolicy::LeastUtilised);
        let fleet = FleetManager::new(spec.clone(), config.clone()).expect("valid fleet");
        let capacity_total = 2 * 4;
        let decisions = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let fleet = fleet.clone();
                let decisions = &decisions;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5EED_0000 + t as u64);
                    let mut residents = Vec::new();
                    for _ in 0..OPS_PER_THREAD {
                        match next(&mut rng) % 100 {
                            // Admit, sometimes with a contract tight enough
                            // to be rejected under load.
                            0..=49 => {
                                let app_index = (next(&mut rng) % 4) as usize;
                                let mut request = AdmissionRequest::new(app_index).on(0);
                                if next(&mut rng).is_multiple_of(3) {
                                    let app = fleet.spec().application(AppId(app_index));
                                    request = request.with_contract(
                                        app.isolation_throughput() * sdf::Rational::new(4, 5),
                                    );
                                }
                                match fleet.admit(&request) {
                                    Ok(AdmissionDecision::Admitted { resident, .. }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        residents.push(resident);
                                    }
                                    Ok(AdmissionDecision::Rejected { violations, .. }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        assert!(!violations.is_empty());
                                    }
                                    Ok(AdmissionDecision::Saturated { .. }) => {}
                                    Err(e) => panic!("unexpected admit error: {e}"),
                                }
                            }
                            // Release the oldest held resident.
                            50..=74 => {
                                if !residents.is_empty() {
                                    fleet.release(residents.remove(0)).expect("held resident");
                                }
                            }
                            // Query a held resident.
                            75..=89 => {
                                if let Some(&resident) = residents.last() {
                                    assert_eq!(fleet.group_of(resident), Ok(0));
                                }
                            }
                            // Global invariant probe.
                            _ => {
                                assert!(fleet.resident_count() <= capacity_total);
                            }
                        }
                    }
                    // Release every still-held resident.
                    for resident in residents {
                        fleet.release(resident).expect("held resident");
                    }
                });
            }
        });

        assert!(decisions.load(Ordering::Relaxed) > 0, "no decisions made");
        // Every resident was released: both shards must be fully drained
        // and the books must balance.
        assert_eq!(fleet.resident_count(), 0);
        assert_eq!(fleet.resident_count_of(0), Ok(0));
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.admitted, snapshot.released, "resident leak");
        // The racing two-shard recording replays decision for decision.
        let (report, _) = JournalReplayer::new(&spec)
            .replay(fleet.journal(), config)
            .expect("replay");
        assert!(report.is_equivalent(), "{}", report.render());
    });
}

#[test]
fn estimate_cache_is_consistent_under_concurrency() {
    with_watchdog(|| {
        let spec = Arc::new(two_app_spec());
        let cache = Arc::new(EstimateCache::new(2));
        let lookups = THREADS * 60;

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let spec = Arc::clone(&spec);
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xCAC4E + t as u64);
                    for _ in 0..60 {
                        let mask = next(&mut rng) % 3 + 1;
                        let est = cache
                            .get_or_estimate(&spec, UseCase::from_mask(mask), Method::SECOND_ORDER)
                            .expect("estimates");
                        // Cache consistency: every result for a key equals
                        // a fresh uncached estimate.
                        let fresh = contention::estimate(
                            &spec,
                            UseCase::from_mask(mask),
                            Method::SECOND_ORDER,
                        )
                        .expect("estimates");
                        assert_eq!(est.periods(), fresh.periods(), "mask {mask}");
                    }
                });
            }
        });

        // Counter consistency: every lookup is classified exactly once.
        assert_eq!(cache.hits() + cache.misses(), lookups as u64);
        assert!(cache.hits() > 0, "no hits under repeated keys");
        // 3 distinct keys never fit the capacity-2 cache: evictions forced
        // misses beyond the 3 cold ones.
        assert!(cache.len() <= cache.capacity());
        assert!(cache.misses() > 3, "evictions must produce re-misses");
    });
}

#[test]
fn one_connection_pipelines_a_thousand_admissions() {
    use runtime::{Completion, Metered, RemoteClient, RemoteServer};

    const IN_FLIGHT: usize = 1200;

    with_watchdog(|| {
        // One connection carries a metered fleet's whole request stream:
        // every admission is sent before any completion is reaped, so
        // IN_FLIGHT admissions are in flight at once without a thread per
        // waiter.
        // One shard per group: the 2-app spec only routes to the shards its
        // two app indices hash to, so single-shard groups fill completely.
        let fleet = FleetManager::new(
            two_app_spec(),
            FleetConfig::uniform(4, 1, 16, RoutingPolicy::LeastUtilised),
        )
        .expect("valid fleet");
        let server = RemoteServer::bind(
            &"tcp:127.0.0.1:0".parse().expect("addr"),
            Arc::new(Metered::new(fleet.clone())),
        )
        .expect("server binds");
        let client = RemoteClient::connect(server.local_addr()).expect("connects");

        let completions: Vec<Completion> = (0..IN_FLIGHT)
            .map(|i| client.submit(AdmissionRequest::new(i)))
            .collect();

        // Every submission resolves: admitted until the fleet saturates,
        // saturated afterwards — never an error, never a lost completion.
        let mut admitted = Vec::new();
        let mut saturated = 0usize;
        for completion in completions {
            match completion.wait() {
                Ok(decision) => match decision.resident() {
                    Some(resident) => admitted.push(resident),
                    None => saturated += 1,
                },
                Err(e) => panic!("submission lost: {e}"),
            }
        }
        assert_eq!(admitted.len(), fleet.capacity());
        assert_eq!(admitted.len() + saturated, IN_FLIGHT);

        // Release on the same connection, then verify the books balance.
        let capacity = admitted.len() as u64;
        let releases: Vec<Completion<()>> = admitted
            .into_iter()
            .map(|resident| client.submit_release(resident))
            .collect();
        for release in releases {
            release.wait().expect("releases succeed");
        }
        assert_eq!(fleet.resident_count(), 0);
        let snapshot = AdmissionService::snapshot(&client);
        assert_eq!(snapshot.admitted, snapshot.released);
        // The metered layer counted every pipelined operation.
        let metered = snapshot
            .layers
            .iter()
            .find(|layer| layer.layer == "metered")
            .expect("metered layer");
        let count = |op: &str| {
            metered
                .ops
                .iter()
                .find(|row| row.op == op)
                .map(|row| row.count)
        };
        assert_eq!(count("admit"), Some(IN_FLIGHT as u64));
        assert_eq!(count("release"), Some(capacity));
        assert_eq!(client.stats().pending, 0, "nothing left in flight");

        client.close();
        server.shutdown();
    });
}

#[test]
fn fleet_survives_concurrent_admits_with_rebalancer() {
    use runtime::DecisionEvent;
    use std::sync::atomic::AtomicBool;

    with_watchdog(|| {
        let fleet = FleetManager::new(
            {
                let (a, b) = figure2_graphs();
                SystemSpec::builder()
                    .application(Application::new("A", a).expect("valid"))
                    .application(Application::new("B", b).expect("valid"))
                    .mapping(platform::Mapping::by_actor_index(3))
                    .build()
                    .expect("valid spec")
            },
            FleetConfig::uniform(4, 1, 3, RoutingPolicy::LeastUtilised),
        )
        .expect("valid fleet");
        let decisions = AtomicU64::new(0);
        let stop_rebalancer = AtomicBool::new(false);

        std::thread::scope(|scope| {
            // A dedicated rebalancer races against every client thread.
            {
                let fleet = fleet.clone();
                let stop_rebalancer = &stop_rebalancer;
                scope.spawn(move || {
                    while !stop_rebalancer.load(Ordering::Relaxed) {
                        fleet.rebalance();
                        std::thread::yield_now();
                    }
                });
            }
            let mut clients = Vec::new();
            for t in 0..THREADS {
                let fleet = fleet.clone();
                let decisions = &decisions;
                clients.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xF1EE7 + t as u64);
                    let mut residents = Vec::new();
                    for _ in 0..OPS_PER_THREAD {
                        match next(&mut rng) % 100 {
                            // Admit across the whole fleet, sometimes with a
                            // contract tight enough to reject under load.
                            0..=54 => {
                                let app_index = next(&mut rng) as usize;
                                let mut request = AdmissionRequest::new(app_index);
                                if next(&mut rng).is_multiple_of(3) {
                                    request = request.with_contract(sdf::Rational::new(1, 400));
                                }
                                let request =
                                    request.with_affinity(format!("uc{}", next(&mut rng) % 4));
                                match fleet.admit(&request) {
                                    Ok(AdmissionDecision::Admitted { resident, .. }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        residents.push(resident);
                                    }
                                    Ok(AdmissionDecision::Rejected { violations, .. }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        assert!(!violations.is_empty());
                                    }
                                    Ok(AdmissionDecision::Saturated { domain }) => {
                                        decisions.fetch_add(1, Ordering::Relaxed);
                                        assert!(domain < fleet.group_count());
                                    }
                                    Err(e) => panic!("unexpected fleet error: {e}"),
                                }
                            }
                            // Release the oldest held resident (it may have
                            // been rebalanced to another group meanwhile).
                            55..=84 => {
                                if !residents.is_empty() {
                                    fleet.release(residents.remove(0)).expect("held resident");
                                }
                            }
                            // Explicit cross-group move of a held resident.
                            85..=92 => {
                                if let Some(&resident) = residents.last() {
                                    let to = next(&mut rng) as usize % fleet.group_count();
                                    // Saturated/same-group failures are
                                    // expected under load; moves must never
                                    // error structurally or lose residents.
                                    let _ = fleet.move_resident(resident, to);
                                }
                            }
                            // Global invariant probe.
                            _ => {
                                let per_group: usize = (0..fleet.group_count())
                                    .map(|g| fleet.resident_count_of(g).expect("valid group"))
                                    .sum();
                                // The per-group counts are read one group at
                                // a time while moves complete concurrently:
                                // a mid-move resident briefly occupies both
                                // groups (sum leads the registry), and a move
                                // finishing between two reads can be missed
                                // by both (sum trails it) — each by at most
                                // one per in-flight move. Only bound the
                                // drift; steady-state equality is asserted
                                // after the scope ends.
                                assert!(per_group + THREADS >= fleet.resident_count());
                                assert!(per_group <= fleet.capacity() + fleet.group_count());
                            }
                        }
                    }
                    // Release every still-held resident.
                    for resident in residents {
                        fleet.release(resident).expect("held resident");
                    }
                }));
            }
            // Keep the rebalancer racing until every client is done, then
            // wind it down (the scope would otherwise join it forever).
            for client in clients {
                client.join().expect("client thread does not panic");
            }
            stop_rebalancer.store(true, Ordering::Relaxed);
        });

        assert!(decisions.load(Ordering::Relaxed) > 0, "no decisions made");
        // Steady state: fully drained, no group over capacity, books balance.
        assert_eq!(fleet.resident_count(), 0);
        for g in 0..fleet.group_count() {
            assert_eq!(fleet.resident_count_of(g).expect("valid group"), 0);
        }
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.admitted, snapshot.released, "resident leak");
        // The journal saw every decision and still verifies.
        fleet.journal().verify().expect("journal integrity");
        let events = journaled(fleet.journal());
        let admits = events
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Admit { .. }))
            .count();
        let releases = events
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Release { .. }))
            .count();
        assert_eq!(releases as u64, snapshot.released);
        assert!(admits as u64 >= snapshot.admitted);
    });
}

#[test]
fn stop_under_load_drains_cleanly() {
    with_watchdog(|| {
        let fleet = FleetManager::new(
            two_app_spec(),
            FleetConfig::uniform(2, 1, 2, RoutingPolicy::LeastUtilised),
        )
        .expect("valid fleet");
        let admit = |app: usize| fleet.admit(&AdmissionRequest::new(app));
        let a = admit(0).unwrap().resident().unwrap();
        let b = admit(1).unwrap().resident().unwrap();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let fleet = fleet.clone();
                scope.spawn(move || {
                    // Admissions decide until the stop lands, then every
                    // one fails with Stopped — never a hang.
                    loop {
                        match fleet.admit(&AdmissionRequest::new(t)) {
                            Ok(decision) => {
                                // Release at once.
                                if let Some(resident) = decision.resident() {
                                    fleet.release(resident).expect("just admitted");
                                }
                            }
                            Err(ServiceError::Stopped) => break,
                            Err(e) => panic!("unexpected fleet error: {e}"),
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(50));
            fleet.stop();
        });

        // Stopped: nothing decides and nothing is journaled ...
        let journaled = fleet.journal().len();
        assert_eq!(admit(0).unwrap_err(), ServiceError::Stopped);
        assert_eq!(fleet.journal().len(), journaled);
        // ... but the residents drain gracefully.
        fleet.release(a).expect("live resident");
        fleet.release(b).expect("live resident");
        assert_eq!(fleet.resident_count(), 0);
        assert_eq!(fleet.journal().len(), journaled + 2);
        let snapshot = fleet.snapshot();
        assert_eq!(snapshot.admitted, snapshot.released);
    });
}

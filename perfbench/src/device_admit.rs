//! `device-admit`: the paper's run-time controller on one device, with only
//! the kernel running.
//!
//! One thread calls `AdmissionController::admit`/`remove` directly on the
//! paper's ten applications. With k residents it admits when k = 0, removes
//! when k = 10, and otherwise admits with probability 55% or removes a
//! uniformly chosen resident. The admitted application is uniform over the
//! ten; half the admits carry a contract at 60% of isolation throughput.
//! Each admit maps actor j to node j of one of two 10-node clusters, picked
//! by a seeded coin, so about half of all candidate–resident pairs share no
//! node.

use crate::probe::analyze_period_us;
use crate::report::Report;
use crate::rng::Rng;
use crate::rounds::{merged, timed_setups, Budget, Fastest, RoundRates};
use crate::stats::{peak_rss_mb, share, OutputHash, Samples};
use contention::{AdmissionController, AdmissionOutcome};
use experiments::workload::{paper_workload, DEFAULT_SEED};
use platform::{AppId, Application, NodeId};
use sdf::Rational;
use std::time::Instant;

const STREAM: u64 = 1;
const WARMUP_OPS: usize = 1000;
const ROUND_OPS: usize = 6000;
const MAX_RESIDENTS: usize = 10;
const CLUSTERS: usize = 2;
const CLUSTER_NODES: usize = 10;
const ADMIT_PERCENT: usize = 55;
const CONTRACT_PERCENT: usize = 50;
/// Resident-count buckets of the per-layer admit metrics.
const BUCKETS: [(&str, usize, usize); 3] = [("k0-3", 0, 3), ("k4-6", 4, 6), ("k7-9", 7, 9)];

struct Device {
    /// Pre-built applications: `Application::new` re-runs the isolation
    /// analysis, so admits clone these instead.
    apps: Vec<Application>,
    /// 60% of each application's isolation throughput.
    contracts: Vec<Rational>,
}

/// The controller, what the benchmark knows of its residents, the stream
/// position and the hash of every decision so far: cloned at the start of
/// each round.
#[derive(Clone)]
struct Mix {
    ctrl: AdmissionController,
    /// Resident ids in admission order, with the cluster each was mapped to.
    residents: Vec<(AppId, usize)>,
    rng: Rng,
    hash: OutputHash,
}

#[derive(Default)]
struct Tally {
    /// Admit latency by resident count before the admit.
    admit_by_k: [Samples; MAX_RESIDENTS],
    /// `predicted_period` of the new resident right after its admit, by the
    /// same resident count (traced rounds only).
    predict_by_k: [Samples; MAX_RESIDENTS],
    remove: Samples,
    admitted: u64,
    rejected: u64,
    pairs: u64,
    disjoint_pairs: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn admits(&self) -> u64 {
        self.admit_by_k.iter().map(|s| s.len() as u64).sum()
    }

    fn admit_samples(&self, lo: usize, hi: usize) -> Samples {
        merged(&self.admit_by_k[lo..=hi])
    }

    fn predict_samples(&self, lo: usize, hi: usize) -> Samples {
        merged(&self.predict_by_k[lo..=hi])
    }
}

fn setup(seed: u64) -> Result<(Device, Mix), String> {
    let spec = paper_workload(DEFAULT_SEED).map_err(|e| e.to_string())?;
    let apps = spec.applications().to_vec();
    let contracts = apps
        .iter()
        .map(|a| a.isolation_throughput() * Rational::new(3, 5))
        .collect();
    let device = Device { apps, contracts };
    let mut mix = Mix {
        ctrl: AdmissionController::new(),
        residents: Vec::new(),
        rng: Rng::new(seed, STREAM),
        hash: OutputHash::default(),
    };
    let mut warmup = Tally::default();
    for _ in 0..WARMUP_OPS {
        step(&mut mix, &device, &mut warmup, false);
    }
    match warmup.errors.first() {
        Some(e) => Err(format!("warm-up: {e}")),
        None => Ok((device, mix)),
    }
}

/// One call of the stream: an admit or a remove, timed around the call
/// alone; with `probe`, also one `predicted_period` after each admission.
/// Returns whether it admitted, and the call's time in microseconds.
fn step(mix: &mut Mix, device: &Device, tally: &mut Tally, probe: bool) -> (bool, f64) {
    let k = mix.residents.len();
    let admit = k == 0 || (k < MAX_RESIDENTS && mix.rng.chance(ADMIT_PERCENT));
    if !admit {
        let (id, _) = mix.residents.remove(mix.rng.below(k));
        let start = Instant::now();
        let result = mix.ctrl.remove(id);
        let elapsed = start.elapsed();
        tally.remove.push(elapsed);
        mix.hash.u64(3);
        mix.hash.u64(id.0 as u64);
        if let Err(e) = result {
            tally.failed += 1;
            tally.errors.push(format!("remove {id}: {e}"));
        }
        return (false, elapsed.as_secs_f64() * 1e6);
    }

    let index = mix.rng.below(device.apps.len());
    let contract = mix
        .rng
        .chance(CONTRACT_PERCENT)
        .then(|| device.contracts[index]);
    let cluster = mix.rng.below(CLUSTERS);
    let app = device.apps[index].clone();
    let assignment: Vec<NodeId> = (0..app.graph().actor_count())
        .map(|j| NodeId(cluster * CLUSTER_NODES + j))
        .collect();
    for &(_, other) in &mix.residents {
        tally.pairs += 1;
        tally.disjoint_pairs += u64::from(other != cluster);
    }

    let start = Instant::now();
    let result = mix.ctrl.admit(app, &assignment, contract);
    let elapsed = start.elapsed();
    tally.admit_by_k[k].push(elapsed);

    mix.hash.u64(1);
    mix.hash.u64(index as u64);
    mix.hash.u64(cluster as u64);
    mix.hash.u64(u64::from(contract.is_some()));
    match result {
        Ok(AdmissionOutcome::Admitted {
            id,
            predicted_periods,
        }) => {
            tally.admitted += 1;
            mix.hash.u64(id.0 as u64);
            for (app, period) in &predicted_periods {
                mix.hash.u64(app.0 as u64);
                mix.hash.rational(*period);
            }
            mix.residents.push((id, cluster));
            if probe {
                let start = Instant::now();
                let period = mix.ctrl.predicted_period(id);
                tally.predict_by_k[k].push(start.elapsed());
                if period.as_ref().ok() != predicted_periods.get(&id) {
                    tally.errors.push(format!(
                        "predicted_period({id}) = {period:?} right after admit, which predicted {:?}",
                        predicted_periods.get(&id)
                    ));
                }
            }
        }
        Ok(AdmissionOutcome::Rejected { violations }) => {
            tally.rejected += 1;
            mix.hash.u64(u64::MAX);
            for v in &violations {
                mix.hash.u64(v.app.map_or(u64::MAX, |a| a.0 as u64));
                mix.hash.rational(v.required);
                mix.hash.rational(v.predicted);
            }
            if violations.is_empty() {
                tally.errors.push("rejection without a violation".into());
            }
        }
        Err(e) => {
            tally.failed += 1;
            tally.errors.push(format!("admit: {e}"));
        }
    }
    (true, elapsed.as_secs_f64() * 1e6)
}

/// Runs the workload; returns the output hash of the warm-up plus one round.
pub fn run(seed: u64, budget: &Budget, report: &mut Report) -> Result<u64, String> {
    let ((device, warm), setup_s, setups) = timed_setups(budget, || setup(seed))?;

    let mut rates = RoundRates::default();
    let mut fastest = Fastest::default();
    let mut admit_at = Vec::with_capacity(ROUND_OPS);
    let mut times = Vec::with_capacity(ROUND_OPS);
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let mut round_hash = None;
    let started = Instant::now();
    let mut round = 0;
    while budget.more(round, started) {
        let is_traced = budget.traced_round(round);
        let tally = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        let mut mix = warm.clone();
        admit_at.clear();
        times.clear();
        let start = Instant::now();
        for _ in 0..ROUND_OPS {
            let (admit, micros) = step(&mut mix, &device, tally, is_traced);
            admit_at.push(admit);
            times.push(micros);
        }
        rates.push(is_traced, ROUND_OPS as u64, start.elapsed());
        if !is_traced {
            fastest.record(&times);
        }
        let hash = mix.hash.finish();
        let first = *round_hash.get_or_insert(hash);
        report.check(hash == first, || {
            format!("round {round} hashed {hash:#018x}, round 0 hashed {first:#018x}")
        });
        round += 1;
    }

    for tally in [&untraced, &traced] {
        report.attempted += tally.admits() + tally.remove.len() as u64;
        report.failed += tally.failed;
        report.errors.extend(tally.errors.iter().take(5).cloned());
    }

    let admits = untraced.admits() + traced.admits();
    let admitted = untraced.admitted + traced.admitted;
    let rejected = untraced.rejected + traced.rejected;
    let pairs = untraced.pairs + traced.pairs;
    let disjoint = untraced.disjoint_pairs + traced.disjoint_pairs;
    if budget.traced {
        for (name, lo, hi) in BUCKETS {
            let admit = traced.admit_samples(lo, hi);
            let predict = traced.predict_samples(lo, hi);
            report.latency(format!("contention.admit_us.{name}"), &admit, Samples::p50);
            let analyses = if predict.len() == 0 {
                0.0
            } else {
                admit.p50() / predict.p50()
            };
            report.metric(
                format!("contention.analyses_per_admit.{name}"),
                "ratio",
                analyses,
                predict.len() as u64,
            );
        }
        let predict = traced.predict_samples(0, MAX_RESIDENTS - 1);
        report.latency("contention.predict_one_us", &predict, Samples::p50);
        report.latency("contention.remove_us", &traced.remove, Samples::p50);
        report.ratio("contention.admitted_share", admitted, admits);
        report.ratio("contention.disjoint_pair_share", disjoint, pairs);
        let analyze = analyze_period_us(&device.apps, 20)?;
        report.latency("sdf.analyze_period_us", &analyze, Samples::p50);
        report.metric(
            "probe.overhead_pct",
            "%",
            rates.overhead_pct(),
            rates.traced.len() as u64,
        );
    } else {
        // Every round replays the same calls, so each counts at its
        // fastest across rounds (see `rounds`).
        let calls = fastest.samples(|_| true);
        let admit = fastest.samples(|i| admit_at[i]);
        let remove = fastest.samples(|i| !admit_at[i]);
        report.metric("setup_s", "s", setup_s, setups as u64);
        report.metric(
            "ops_per_s",
            "ops/s",
            fastest.ops_per_s(),
            calls.len() as u64,
        );
        report.latency("call_p99_us", &calls, Samples::p99);
        report.latency("admit_p50_us", &admit, Samples::p50);
        report.latency("admit_p99_us", &admit, Samples::p99);
        report.latency("release_p99_us", &remove, Samples::p99);
        report.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
    }

    let tally = if budget.traced { &traced } else { &untraced };
    let histogram: Vec<String> = tally
        .admit_by_k
        .iter()
        .enumerate()
        .map(|(k, s)| format!("k{k}={:.3}", share(s.len() as u64, tally.admits())))
        .collect();
    // Each admit analyses every resident plus the candidate.
    let analyses: u64 = tally
        .admit_by_k
        .iter()
        .enumerate()
        .map(|(k, s)| (k as u64 + 1) * s.len() as u64)
        .sum();
    report.property(format!(
        "admits by resident count (share of {} admits): {}; {:.2} period analyses per call",
        tally.admits(),
        histogram.join(" "),
        share(analyses, tally.admits() + tally.remove.len() as u64)
    ));
    report.property(format!(
        "node-disjoint candidate-resident pairs: {:.3} of {pairs}",
        share(disjoint, pairs)
    ));
    report.property(format!(
        "admit outcomes: {admitted} admitted, {rejected} rejected, 0 saturated (of {admits})"
    ));
    report.property("estimate keys: none (this workload calls no estimator)");
    report.property(format!(
        "rounds: {} untraced + {} traced, {ROUND_OPS} calls each after a {WARMUP_OPS}-call warm-up",
        rates.untraced.len(),
        rates.traced.len()
    ));
    Ok(round_hash.unwrap_or_default())
}

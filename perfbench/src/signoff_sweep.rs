//! `signoff-sweep`: the paper's design-time use (Table 1).
//!
//! One thread calls `contention::estimate` once per (use-case, method) over
//! all 1023 use-cases of the paper's ten applications × `Method::table1()`,
//! in a seeded order: the estimator and the state space with no admission
//! controller and no reuse between inputs. Accuracy is computed outside the
//! timed phase, by `experiments::runner::evaluate` (Composability against
//! `mpsoc-sim`) on a seeded sample of 32 use-cases.

use crate::expected;
use crate::probe::analyze_period_us;
use crate::report::Report;
use crate::rng::Rng;
use crate::rounds::{merged, timed_setups, Budget, Fastest, RoundRates};
use crate::stats::{peak_rss_mb, OutputHash, Samples};
use contention::Method;
use experiments::metrics::overall_period_inaccuracy;
use experiments::runner::{evaluate, EvalOptions};
use experiments::workload::{paper_workload, DEFAULT_SEED, PAPER_APP_COUNT};
use mpsoc_sim::SimConfig;
use platform::{SystemSpec, UseCase};
use std::time::Instant;

const ORDER_STREAM: u64 = 2;
const SAMPLE_STREAM: u64 = 5;
/// Every 8th use-case, under every method, before timing starts.
const WARMUP_STRIDE: usize = 8;
const ACCURACY_SAMPLE: usize = 32;
/// Active-application buckets of the per-layer estimate metrics.
const BUCKETS: [(&str, usize, usize); 3] =
    [("apps1-3", 1, 3), ("apps4-7", 4, 7), ("apps8-10", 8, 10)];

struct Sweep {
    spec: SystemSpec,
    use_cases: Vec<UseCase>,
    /// Every (index into `Method::table1()`, use-case) pair, in the seeded
    /// order each sweep calls them.
    order: Vec<(usize, UseCase)>,
}

#[derive(Default)]
struct Tally {
    /// Estimate latency per method, in `Method::table1()` order.
    by_method: [Samples; 4],
    /// Estimate latency by active-application count.
    by_apps: [Samples; PAPER_APP_COUNT + 1],
    failed: u64,
    errors: Vec<String>,
}

fn setup(seed: u64) -> Result<Sweep, String> {
    let spec = paper_workload(DEFAULT_SEED).map_err(|e| e.to_string())?;
    let use_cases = UseCase::all(PAPER_APP_COUNT);
    let mut order: Vec<(usize, UseCase)> = (0..Method::table1().len())
        .flat_map(|m| use_cases.iter().map(move |&u| (m, u)))
        .collect();
    let mut rng = Rng::new(seed, ORDER_STREAM);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    for use_case in use_cases.iter().step_by(WARMUP_STRIDE) {
        for method in Method::table1() {
            contention::estimate(&spec, *use_case, method)
                .map_err(|e| format!("warm-up estimate {use_case} {method}: {e}"))?;
        }
    }
    Ok(Sweep {
        spec,
        use_cases,
        order,
    })
}

/// One full sweep, appending each call's time in microseconds to `times`;
/// returns the hash of every (method, use-case, app, period).
fn sweep(s: &Sweep, tally: &mut Tally, times: &mut Vec<f64>) -> u64 {
    let mut hash = OutputHash::default();
    let methods = Method::table1();
    for &(m, use_case) in &s.order {
        let method = methods[m];
        let start = Instant::now();
        let result = contention::estimate(&s.spec, use_case, method);
        let elapsed = start.elapsed();
        times.push(elapsed.as_secs_f64() * 1e6);
        tally.by_method[m].push(elapsed);
        tally.by_apps[use_case.len()].push(elapsed);
        match result {
            Ok(estimate) => {
                hash.u64(m as u64);
                hash.u64(use_case.mask());
                for (app, period) in estimate.periods() {
                    hash.u64(app.0 as u64);
                    hash.rational(*period);
                }
                let apps: Vec<_> = estimate.periods().keys().copied().collect();
                let want: Vec<_> = use_case.app_ids().collect();
                if apps != want || estimate.periods().values().any(|p| !p.is_positive()) {
                    tally.errors.push(format!(
                        "{method} on {use_case}: periods {:?}",
                        estimate.periods()
                    ));
                }
            }
            Err(e) => {
                tally.failed += 1;
                tally.errors.push(format!("{method} on {use_case}: {e}"));
            }
        }
    }
    hash.finish()
}

/// Composability's mean period inaccuracy against the simulator on a
/// seeded sample of distinct use-cases, in percent.
fn prediction_error_pct(s: &Sweep, seed: u64) -> Result<f64, String> {
    let mut rng = Rng::new(seed, SAMPLE_STREAM);
    let mut sample: Vec<UseCase> = Vec::with_capacity(ACCURACY_SAMPLE);
    while sample.len() < ACCURACY_SAMPLE {
        let use_case = s.use_cases[rng.below(s.use_cases.len())];
        if !sample.contains(&use_case) {
            sample.push(use_case);
        }
    }
    let options = EvalOptions {
        methods: vec![Method::Composability],
        sim: SimConfig::default(),
    };
    let eval = evaluate(&s.spec, &sample, &options).map_err(|e| format!("evaluate: {e}"))?;
    overall_period_inaccuracy(&eval, Method::Composability)
        .ok_or_else(|| "evaluation produced no Composability data".to_string())
}

/// Runs the workload; returns the output hash of one sweep.
pub fn run(seed: u64, budget: &Budget, report: &mut Report) -> Result<u64, String> {
    let (sweep_state, setup_s, setups) = timed_setups(budget, || setup(seed))?;

    let mut rates = RoundRates::default();
    let mut fastest = Fastest::default();
    let mut times = Vec::new();
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let mut round_hash = None;
    let started = Instant::now();
    let mut round = 0;
    let calls = (sweep_state.use_cases.len() * Method::table1().len()) as u64;
    while budget.more(round, started) {
        let is_traced = budget.traced_round(round);
        let tally = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        times.clear();
        let start = Instant::now();
        let hash = sweep(&sweep_state, tally, &mut times);
        rates.push(is_traced, calls, start.elapsed());
        if !is_traced {
            fastest.record(&times);
        }
        let first = *round_hash.get_or_insert(hash);
        report.check(hash == first, || {
            format!("sweep {round} hashed {hash:#018x}, sweep 0 hashed {first:#018x}")
        });
        round += 1;
    }
    let rss_mb = peak_rss_mb();
    for tally in [&untraced, &traced] {
        report.attempted += merged(&tally.by_method).len() as u64;
        report.failed += tally.failed;
        report.errors.extend(tally.errors.iter().take(5).cloned());
    }

    let error_pct = prediction_error_pct(&sweep_state, seed)?;
    if seed == DEFAULT_SEED {
        let want = expected::PREDICTION_ERROR_PCT;
        report.check(
            (error_pct - want).abs() <= 1e-9 * want.abs().max(1.0),
            || format!("prediction error {error_pct}% at seed {seed}, expected {want}%"),
        );
    }

    if budget.traced {
        for (m, method) in Method::table1().into_iter().enumerate() {
            report.latency(
                format!("contention.estimate_us.{method}"),
                &traced.by_method[m],
                Samples::p50,
            );
        }
        for (name, lo, hi) in BUCKETS {
            let samples = merged(&traced.by_apps[lo..=hi]);
            report.latency(
                format!("contention.estimate_us.{name}"),
                &samples,
                Samples::p50,
            );
        }
        let analyze = analyze_period_us(sweep_state.spec.applications(), 20)?;
        report.latency("sdf.analyze_period_us", &analyze, Samples::p50);
        report.metric(
            "experiments.prediction_error_pct",
            "%",
            error_pct,
            ACCURACY_SAMPLE as u64,
        );
        report.metric(
            "probe.overhead_pct",
            "%",
            rates.overhead_pct(),
            rates.traced.len() as u64,
        );
    } else {
        // Every sweep makes the same calls, so each counts at its fastest
        // across sweeps (see `rounds`).
        let estimates = fastest.samples(|_| true);
        report.metric("setup_s", "s", setup_s, setups as u64);
        report.metric(
            "ops_per_s",
            "ops/s",
            fastest.ops_per_s(),
            estimates.len() as u64,
        );
        report.latency("call_p99_us", &estimates, Samples::p99);
        report.latency("estimate_p50_us", &estimates, Samples::p50);
        report.latency("estimate_p99_us", &estimates, Samples::p99);
        report.metric(
            "prediction_error_pct",
            "%",
            error_pct,
            ACCURACY_SAMPLE as u64,
        );
        report.metric("peak_rss_mb", "MB", rss_mb, 1);
    }

    report.property(format!(
        "estimate keys: {calls} distinct (use-case, method) calls per sweep, all uncached"
    ));
    report.property("admit outcomes: none (this workload admits nothing)");
    report.property(format!(
        "rounds: {} untraced + {} traced sweeps of {calls} calls after a warm-up of every \
         {WARMUP_STRIDE}th use-case",
        rates.untraced.len(),
        rates.traced.len()
    ));
    report.property(format!(
        "accuracy sample: {ACCURACY_SAMPLE} use-cases, Composability vs mpsoc-sim (horizon {})",
        SimConfig::default().horizon
    ));
    Ok(round_hash.unwrap_or_default())
}

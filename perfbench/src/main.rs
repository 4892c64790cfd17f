//! probcon's benchmark: three seeded, closed-loop workloads driven through
//! the public API of `sdf`, `contention`, `experiments` and `runtime`.
//!
//! ```text
//! perfbench --workload <device-admit|signoff-sweep|serve-remote>
//!           [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) prints each layer's self time from the benchmark's own
//! probes. Both print a human-readable report first and, as the last line
//! of standard output, one JSON object. A run whose outputs are wrong exits
//! with status 1. See `README.md` in this directory.

mod device_admit;
mod expected;
mod probe;
mod report;
mod rng;
mod rounds;
mod serve_remote;
mod signoff_sweep;
mod stats;

use report::Report;
use rounds::Budget;

/// The end-to-end metrics every untraced run prints, by name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("call_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints; a layer the workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("contention.admit_us.k0-3", "us"),
    ("contention.admit_us.k4-6", "us"),
    ("contention.admit_us.k7-9", "us"),
    ("contention.predict_one_us", "us"),
    ("contention.analyses_per_admit.k0-3", "ratio"),
    ("contention.analyses_per_admit.k4-6", "ratio"),
    ("contention.analyses_per_admit.k7-9", "ratio"),
    ("contention.remove_us", "us"),
    ("contention.estimate_us.worst-case-rr", "us"),
    ("contention.estimate_us.composability", "us"),
    ("contention.estimate_us.order-4", "us"),
    ("contention.estimate_us.order-2", "us"),
    ("contention.estimate_us.apps1-3", "us"),
    ("contention.estimate_us.apps4-7", "us"),
    ("contention.estimate_us.apps8-10", "us"),
    ("sdf.analyze_period_us", "us"),
    ("remote.admit_self_us", "us"),
    ("remote.release_self_us", "us"),
    ("remote.estimate_self_us", "us"),
    ("telemetry.traced_self_us", "us"),
    ("service.metered_self_us", "us"),
    ("cache.self_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("fleet.admit_us.p50", "us"),
    ("fleet.admit_us.p99", "us"),
    ("fleet.saturated_admit_us", "us"),
    ("fleet.release_us.p50", "us"),
    ("fleet.release_us.p99", "us"),
    ("wal.bytes_per_decision", "B"),
    ("contention.admitted_share", "ratio"),
    ("contention.disjoint_pair_share", "ratio"),
    ("fleet.admitted_share", "ratio"),
    ("fleet.rejected_share", "ratio"),
    ("fleet.saturated_share", "ratio"),
    ("telemetry.trace_dropped_share", "ratio"),
    ("experiments.prediction_error_pct", "%"),
    ("probe.overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["device-admit", "signoff-sweep", "serve-remote"];

struct Options {
    workload: String,
    seed: u64,
    budget: Budget,
    /// Replaces the committed expected hash (for the self-test).
    expect_hash: Option<u64>,
    /// Replays the serve-remote journal against a fleet of this per-group
    /// capacity instead of the recorded one (for the self-test).
    replay_capacity: Option<usize>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = experiments::workload::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut quick = false;
    let mut expect_hash = None;
    let mut replay_capacity = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--expect-hash" => {
                let hex = value.trim_start_matches("0x");
                expect_hash = Some(u64::from_str_radix(hex, 16).map_err(|e| bad(&e))?);
            }
            "--replay-capacity" => replay_capacity = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Options {
        workload,
        seed,
        budget: Budget {
            seconds,
            traced,
            quick,
        },
        expect_hash,
        replay_capacity,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let mut report = Report::default();
    let budget = &options.budget;
    let hash = match options.workload.as_str() {
        "device-admit" => device_admit::run(options.seed, budget, &mut report),
        "signoff-sweep" => signoff_sweep::run(options.seed, budget, &mut report),
        _ => serve_remote::run(options.seed, budget, options.replay_capacity, &mut report),
    };
    match hash {
        Ok(hash) => {
            let expected = options
                .expect_hash
                .or_else(|| expected::hash(&options.workload, options.seed));
            match expected {
                Some(want) => report.check(hash == want, || {
                    format!("output hash {hash:#018x}, expected {want:#018x}")
                }),
                None => report.property(format!(
                    "output hash {hash:#018x} (no expected value for seed {}; compare runs)",
                    options.seed
                )),
            }
            if expected == Some(hash) {
                report.property(format!(
                    "output hash {hash:#018x} matches the expected value"
                ));
            }
        }
        Err(e) => report.errors.push(e),
    }

    if !budget.traced {
        let failed_share = stats::share(report.failed, report.attempted);
        report.metric("failed_share", "ratio", failed_share, report.attempted);
    }
    let line = if budget.traced {
        report.render_json(&PER_LAYER, true)
    } else {
        report.render_json(&END_TO_END, false)
    };
    let mode = if budget.traced { "traced" } else { "untraced" };
    print!(
        "{}",
        report.render_text(&format!(
            "perfbench {} seed={} mode={mode}{}",
            options.workload,
            options.seed,
            if budget.quick { " quick" } else { "" }
        ))
    );
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}

//! `probcon` — command-line front-end for the library.
//!
//! ```text
//! probcon generate --seed 7 [--actors N] [--out graph.json] [--dot graph.dot]
//! probcon analyze  <graph.json>
//! probcon estimate --seed 2007 --apps 10 --use-case 1023 [--method order-2]
//! probcon simulate --seed 2007 --apps 10 --use-case 1023 [--horizon 500000]
//! probcon fleet-bench --requests 1000 [--groups 4] [--journal fleet.jsonl]
//! probcon serve    --listen unix:/tmp/probcon.sock [--once] [--wire json|binary]
//! probcon fleet-bench --connect unix:/tmp/probcon.sock --requests 1000 [--connections 64]
//! probcon top      [--connect unix:/tmp/probcon.sock] [--watch 2] [--prometheus] [--connections]
//! probcon trace    [--connect unix:/tmp/probcon.sock] [--tail 20] [--json] [--chrome out.json]
//! probcon replay   <journal.jsonl | wal-dir>
//! probcon plan     <journal.jsonl | wal-dir> [--capacity-scale 0.5] [--groups 2..6]
//! probcon journal  split <j.jsonl> | merge <a.jsonl> <b.jsonl> --out <f> | compact <wal-dir>
//! probcon paper    [--quick]
//! ```

use contention::{estimate, Method};
use experiments::{
    report::{render_fig5, render_fig6, render_table1, render_timing},
    runner::{evaluate, EvalOptions},
    workload::workload_with,
};
use mpsoc_sim::{simulate, SimConfig};
use platform::UseCase;
use sdf::{
    analyze_period, buffer_requirements, generate_graph, iteration_latency, repetition_vector,
    to_dot, GeneratorConfig, SdfGraph,
};
use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

const USAGE: &str = "\
probcon — probabilistic resource-contention performance estimation (DAC 2007 reproduction)

USAGE:
  probcon generate --seed <u64> [--actors <n>] [--out <file.json>] [--dot <file.dot>]
      Generate a random consistent, strongly connected, live SDF graph.

  probcon analyze <graph.json>
      Repetition vector, period, throughput, latency and buffer needs of a graph.

  probcon estimate --seed <u64> --apps <n> --use-case <mask> [--method <m>]
      Estimate per-application periods under contention for one use-case of a
      seeded random workload. Methods: exact, order-2, order-4, composability,
      worst-case-rr, worst-case-tdma.

  probcon simulate --seed <u64> --apps <n> --use-case <mask> [--horizon <cycles>]
      Simulate the same use-case (ground truth).

  probcon signoff --seed <u64> --apps <n> [--method <m>]
      Per-application worst/best predicted period over ALL 2^n - 1 use-cases.

  probcon fleet-bench --requests <m> [--threads <n>] [--seed <u64>] [--apps <n>]
                      [--actors <n>] [--groups <n>] [--shards <n>] [--capacity <n>]
                      [--policy least-utilised|round-robin|affinity]
                      [--journal <file.jsonl>] [--journal-dir <dir>] [--warm-cache]
                      [--fsync always|every-N|on-rotate] [--segment-entries <n>]
                      [--telemetry <file.json>] [--telemetry-interval <ms>]
                      [--autoscale <policy.json>] [--autoscale-interval <ms>]
                      [--connect tcp:HOST:PORT|unix:PATH] [--client NAME]
                      [--wire json|binary] [--connections <n>]
      Drive a metered + cached service stack over a multi-group fleet manager
      with a seeded admit/release/rebalance/estimate stream, print per-group
      utilisation and per-layer service metrics, optionally pre-warm the
      estimate cache from the sign-off artefact (reporting warm-vs-cold hit
      rates), and optionally record every decision to an append-only
      checksummed journal. With --connect, drive a fleet served by `probcon
      serve` in another process instead: the workload spec arrives in the
      handshake, and --journal fetches the server-side decision journal for
      local replay. --client NAME announces an identity in the handshake:
      the server stamps it into every journaled decision this run drives,
      so multi-client recordings split per client (`probcon journal split`).
      --journal-dir records into a segmented write-ahead log directory
      instead of memory: appends stream to disk with bounded RSS, --fsync
      picks the durability policy (default every-256) and
      --segment-entries the rotation threshold (default 8192).
      --telemetry samples the stack's live telemetry (residents, outcome
      totals, admit p50/p99/p999) every --telemetry-interval ms (default
      250) and writes the trajectory as a JSON array; it works locally and
      with --connect alike. With --connect each sample also records
      per-connection fan-in counters (requests sent, responses,
      transport errors, in-flight) so the trajectory shows whether the
      round-robin spread across --connections stayed even. --autoscale runs the elastic capacity
      controller (see `probcon serve`) against the benched fleet for the
      duration of the run, ticking every --autoscale-interval ms (default
      50); every resize it makes is journaled alongside the admissions,
      so the recording replays and plans like any other. Local only — a
      remote fleet's shape is the server's to scale. --wire picks the
      frame encoding requested at handshake (default binary; json for
      greppable debug frames — either way the granted mode is printed).
      --connections opens <n> client connections to the one
      server and round-robins the request stream across them — the fan-in
      shape the readiness-loop server serves at flat memory.

  probcon serve --listen tcp:HOST:PORT|unix:PATH [--seed <u64>] [--apps <n>]
                [--actors <n>] [--groups <n>] [--shards <n>] [--capacity <n>]
                [--policy least-utilised|round-robin|affinity] [--cache <n>]
                [--trace <events>] [--once] [--journal <file.jsonl>]
                [--journal-dir <dir>] [--fsync always|every-N|on-rotate]
                [--segment-entries <n>] [--checkpoint-every <n>]
                [--autoscale <policy.json>] [--autoscale-interval <ms>]
                [--wire json|binary]
      Serve a traced + metered + estimate-cached multi-group fleet manager
      over the remote admission protocol (TCP or Unix domain socket). Every
      decision lands in the fleet's header-stamped journal, served to
      clients over the wire, and in a --trace-event flight recorder
      (default 4096) that `probcon trace --connect` tails live. --once
      exits after the first client disconnects (for scripted drivers);
      --journal also writes the journal to a file at shutdown.
      A background checkpointer folds the served journal into a snapshot
      checkpoint every --checkpoint-every entries (default 4096), so the
      server holds the fold plus about one interval of entries at any
      traffic volume; the journal fetched or written then starts at that
      checkpoint, which `probcon journal split` refuses. A larger
      --checkpoint-every keeps more (or, past the run's length, all) of
      the history. --journal-dir makes the journal DURABLE: decisions
      stream to a segmented write-ahead log in <dir> (created on first
      start), each checkpoint is written there and garbage-collects the
      segments it covers, and a restart on the same directory RECOVERS
      the fleet from the WAL alone: the workload
      and fleet shape its header records, then the residents and group
      resizes its log folds to (snapshot plus entry tail), after
      truncating any torn final write. A restart refuses --seed, --apps,
      --actors, --groups, --shards, --capacity and --policy, which shape
      only a fresh fleet. --fsync picks the append durability policy
      (always | every-N | on-rotate, default every-256);
      --segment-entries the rotation threshold (default 8192).
      --autoscale loads a ScalePolicy from a JSON file and runs the
      elastic capacity controller in a background thread: it samples the
      stack's telemetry every --autoscale-interval ms (default 250),
      holds fleet utilisation inside the policy's target band by growing/
      shrinking group capacity (escalating to adding or draining whole
      groups when configured), and journals every resize as a first-class
      decision — an autoscaled run replays outcome-for-outcome and
      `probcon top --connect` shows the controller's live status line.
      --wire json forces greppable JSON-lines debug frames on every
      connection; the default grants each client the frames it requests
      (compact binary unless it asks for JSON).

  probcon top [--connect tcp:HOST:PORT|unix:PATH] [--watch <secs>] [--prometheus]
              [--connections] [--wire json|binary] [--seed <u64>] [--requests <n>]
      Live telemetry of an admission stack: per-layer operation latency
      distributions (count, ops/s, p50/p90/p99/p999), fleet utilisation,
      flight-recorder counters, per-tenant admit/reject breakdowns and —
      from a served stack — per-connection transport counters plus
      event-loop health (poll ticks, tick duration percentiles, ready-set
      sizes). With --connect, polls a `probcon serve` process over the
      wire without disturbing it; --watch re-renders every <secs> seconds
      (default 2) until interrupted. Without --connect, drives a seeded
      local demo stack (--seed, default 2007; --requests, default 400) and
      renders its telemetry once. --prometheus emits the Prometheus text
      exposition format instead of the human table.
      --connections (needs --connect) renders only the transport view:
      one row per live connection (client, wire mode, frames/bytes each
      way, write-buffer depth, in-flight requests, backpressure pauses)
      and the event-loop line.

  probcon trace [--connect tcp:HOST:PORT|unix:PATH] [--tail <n>] [--json]
                [--chrome <file.json>] [--wire json|binary]
                [--seed <u64>] [--requests <n>]
      The newest <n> (default 20) structured decision events from a stack's
      flight recorder, oldest first: admit/reject/saturate/release/estimate
      with request ids, groups, durations, cache hit/miss attribution,
      client provenance and span identity (trace/span/parent ids linking
      each decision to the request that caused it, across the wire). With
      --connect, tails a live `probcon serve` process; without, a seeded
      local demo stack. --json emits the events as a JSON array. --chrome
      exports the events as a Chrome-trace/Perfetto JSON file instead
      (load at https://ui.perfetto.dev): spans nest per trace id, tracks
      map to server connections and event loops, and each request tree
      gets a synthetic client-process slice so the cross-process handoff
      is visible; --tail defaults to the full 4096-event ring here.

  probcon replay <journal.jsonl | wal-dir>
      Rebuild the workload and fleet named in a journal's header, re-execute
      every recorded decision against a fresh fleet and verify
      outcome-for-outcome equivalence (exit code 1 on divergence, with every
      divergence detailed on stderr). A WAL directory replays from its
      newest snapshot checkpoint: the snapshotted residents are restored
      first, then the remaining entries verify outcome-for-outcome.

  probcon plan <journal.jsonl | wal-dir> [--groups <n|lo..hi>] [--capacity-scale <x|lo..hi>]
               [--scale-steps <k>] [--policy <p>] [--routing auto|recorded|replanned]
               [--sweep] [--workers <n>] [--flip-budget <n>]
               [--policy-file <policy.json>] [--policy-every <n>]
               [--fail-on-flips] [--json]
      Offline capacity planning: re-decide a recorded journal's admission
      stream against a HYPOTHETICAL fleet shape and report which decisions
      would have flipped (admitted-now-rejected regressions,
      rejected-now-admitted recoveries, reroutes), plus per-group peak/mean
      utilisation and saturation windows. Plan re-executes the journal
      through the same engine as `replay`, from a WAL's snapshot checkpoint
      (residents and group shape) alike, so on the recorded shape (no
      options) a journal that replays EQUIVALENT reports zero flips. With
      --sweep, ranges build a shape grid executed in parallel (--workers)
      and summarized by a frontier: the smallest shape with zero
      regressions and the cheapest within --flip-budget regressions.
      --fail-on-flips exits 1 when any flip is reported (CI identity
      check); --json emits the full report. Two limits: a recorded
      absolute grow/shrink, or a snapshot's capacities, replaces a scaled
      capacity once applied, so on a resized journal the capacity axis
      measures little; and a recorded rejection the shape admits stays
      resident until the journal ends (nothing recorded releases it), so
      more capacity can report more regressions — the sweep's frontier is
      not monotone in capacity.
      --policy-file evaluates an autoscaling policy OFFLINE: recorded
      resizes are set aside and the policy re-decides scaling against the
      hypothetical fleet every --policy-every events (default 8); the
      report lists each action the policy would have taken and when —
      dry-run a policy against production history before serving it.

  probcon journal split <journal.jsonl> [--out-dir <dir>]
      Split a multi-client recording into one valid header-stamped journal
      per client id (see fleet-bench --client), preserving original
      positions for lossless re-merging. File journals only: on a WAL
      directory this fails fast with a typed error — export one first
      with `probcon journal compact <dir> --out <file.jsonl>`. A journal
      that starts at a snapshot checkpoint (one `serve` compacted every
      --checkpoint-every entries) is refused: its folded decisions name
      no client.

  probcon journal merge <a.jsonl> <b.jsonl> --out <file.jsonl>
      Interleave two compatible journals (same workload, shape and policy)
      by original sequence/timestamp into one replayable log; merging the
      files produced by `journal split` reconstructs the original exactly.
      File journals only (same WAL limitation and workaround as split).

  probcon journal compact <wal-dir> [--keep <k>] [--out <file.jsonl>]
      Fold a WAL directory's full history into a fresh snapshot checkpoint
      and garbage-collect every segment the snapshot covers. Replay output
      is unchanged — the snapshot restores the same resident state the
      dropped entries would have rebuilt — while the directory shrinks to
      the snapshot plus the uncovered tail. --keep retains the last <k>
      snapshot checkpoints (default 1) so older snapshots stay on disk as
      point-in-time recovery anchors; --out additionally exports the full
      logical journal as a single .jsonl file (the bridge to the
      file-journal tools: split, merge, plan on a plain file).

  probcon paper [--quick]
      Regenerate Table 1, Figure 5, Figure 6 and the timing comparison.
";

/// The options each command reads, space-separated. `run` refuses any
/// other before the command starts, so a misspelt flag fails instead of
/// being dropped.
const FLAGS: &[(&str, &str)] = &[
    ("generate", "seed actors out dot"),
    ("analyze", ""),
    ("estimate", "seed apps use-case method"),
    ("simulate", "seed apps use-case horizon"),
    ("signoff", "seed apps method"),
    (
        "fleet-bench",
        "requests threads seed apps actors groups shards capacity policy journal \
         journal-dir warm-cache fsync segment-entries telemetry telemetry-interval \
         autoscale autoscale-interval connect client wire connections",
    ),
    (
        "serve",
        "listen seed apps actors groups shards capacity policy cache trace once journal \
         journal-dir fsync segment-entries checkpoint-every autoscale autoscale-interval wire",
    ),
    (
        "top",
        "connect watch prometheus connections wire seed requests",
    ),
    ("trace", "connect tail json chrome wire seed requests"),
    ("replay", ""),
    (
        "plan",
        "groups capacity-scale scale-steps policy routing sweep workers flip-budget \
         policy-file policy-every fail-on-flips json",
    ),
    ("journal split", "out-dir"),
    ("journal merge", "out"),
    ("journal compact", "keep out"),
    ("paper", "quick"),
    ("help", ""),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `args` into positional arguments and `--key value` options.
fn parse(args: &[String]) -> (Vec<&str>, HashMap<&str, &str>) {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                options.insert(key, args[i + 1].as_str());
                i += 2;
            } else {
                options.insert(key, "true");
                i += 1;
            }
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    (positional, options)
}

fn opt_u64(options: &HashMap<&str, &str>, key: &str) -> Result<Option<u64>, String> {
    options
        .get(key)
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--{key}: expected a number, got '{v}'"))
        })
        .transpose()
}

fn require_u64(options: &HashMap<&str, &str>, key: &str) -> Result<u64, String> {
    opt_u64(options, key)?.ok_or_else(|| format!("missing required option --{key}"))
}

fn parse_method(s: &str) -> Result<Method, String> {
    s.parse()
}

/// Dispatches one command. `Ok(code)` is a decided outcome (e.g. `replay`
/// reporting divergence exits 1 *without* re-printing the usage text);
/// `Err` is a usage/configuration error that does print it.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let (positional, options) = parse(args);
    let Some(&command) = positional.first() else {
        if args.len() == 1 && options.contains_key("help") {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        return Err("no command given".into());
    };
    let name = match (command, positional.get(1)) {
        ("journal", Some(sub)) => format!("journal {sub}"),
        _ => command.to_string(),
    };
    if let Some((_, known)) = FLAGS.iter().find(|(c, _)| *c == name) {
        let mut keys = args.iter().filter_map(|arg| arg.strip_prefix("--"));
        if let Some(key) = keys.find(|key| !known.split_whitespace().any(|k| k == *key)) {
            return Err(format!("unknown option --{key} for {name}"));
        }
    }

    let done = |result: Result<(), String>| result.map(|()| ExitCode::SUCCESS);
    match command {
        "generate" => done(cmd_generate(&options)),
        "analyze" => done(cmd_analyze(positional.get(1).copied(), &options)),
        "estimate" => done(cmd_estimate(&options)),
        "simulate" => done(cmd_simulate(&options)),
        "signoff" => done(cmd_signoff(&options)),
        "fleet-bench" => done(cmd_fleet_bench(&options)),
        "serve" => done(cmd_serve(&options)),
        "top" => done(cmd_top(&options)),
        "trace" => done(cmd_trace(&options)),
        "replay" => cmd_replay(positional.get(1).copied(), &options),
        "plan" => cmd_plan(positional.get(1).copied(), &options),
        "journal" => done(cmd_journal(&positional[1..], &options)),
        "paper" => done(cmd_paper(&options)),
        "help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn cmd_generate(options: &HashMap<&str, &str>) -> Result<(), String> {
    let seed = require_u64(options, "seed")?;
    let config = match opt_u64(options, "actors")? {
        Some(0) => return Err("--actors must be at least 1".into()),
        Some(n) => GeneratorConfig::with_actors(n as usize),
        None => GeneratorConfig::default(),
    };
    let graph = generate_graph(&config, seed);
    println!(
        "generated '{}': {} actors, {} channels",
        graph.name(),
        graph.actor_count(),
        graph.channel_count()
    );
    if let Some(path) = options.get("out") {
        let json = serde_json::to_string_pretty(&graph).map_err(|e| format!("serialize: {e}"))?;
        fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = options.get("dot") {
        fs::write(path, to_dot(&graph)).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_analyze(path: Option<&str>, _options: &HashMap<&str, &str>) -> Result<(), String> {
    let path = path.ok_or("analyze needs a graph file")?;
    let json = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let graph: SdfGraph = serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;

    let q = repetition_vector(&graph).map_err(|e| e.to_string())?;
    let analysis = analyze_period(&graph).map_err(|e| e.to_string())?;
    let latency = iteration_latency(&graph).map_err(|e| e.to_string())?;
    let buffers = buffer_requirements(&graph).map_err(|e| e.to_string())?;

    println!("graph '{}'", graph.name());
    println!("  actors            : {}", graph.actor_count());
    println!("  channels          : {}", graph.channel_count());
    println!("  repetition vector : {q}");
    println!(
        "  period            : {} (≈ {:.3})",
        analysis.period,
        analysis.period.to_f64()
    );
    println!(
        "  throughput        : {} (≈ {:.6})",
        analysis.throughput(),
        analysis.throughput().to_f64()
    );
    println!(
        "  iteration latency : {} (≈ {:.3})",
        latency,
        latency.to_f64()
    );
    println!("  buffer tokens     : {} total", buffers.total_tokens());
    for (cid, c) in graph.channels() {
        println!(
            "    {} {} -> {} : capacity {}",
            cid,
            graph.actor(c.src()).name(),
            graph.actor(c.dst()).name(),
            buffers.capacity(cid)
        );
    }
    Ok(())
}

/// Builds the seeded workload of `apps` generated applications mapped by
/// actor index: `actors` actors each, or the generator's default range for
/// `None`. Commands that read these parameters from flags or from a
/// journal header build the workload here, so all of them reject the same
/// out-of-range values.
fn seeded_workload(
    seed: u64,
    apps: u64,
    actors: Option<u64>,
) -> Result<platform::SystemSpec, String> {
    if apps == 0 || apps > 20 {
        return Err(format!("the workload needs 1..=20 apps, got {apps}"));
    }
    let config = match actors {
        Some(0) => return Err("the workload needs at least 1 actor per app, got 0".into()),
        Some(n) => GeneratorConfig::with_actors(n as usize),
        None => GeneratorConfig::default(),
    };
    workload_with(seed, apps as usize, &config).map_err(|e| e.to_string())
}

fn workload_from(options: &HashMap<&str, &str>) -> Result<platform::SystemSpec, String> {
    seeded_workload(
        require_u64(options, "seed")?,
        require_u64(options, "apps")?,
        None,
    )
}

fn use_case_from(options: &HashMap<&str, &str>, apps: usize) -> Result<UseCase, String> {
    let mask = require_u64(options, "use-case")?;
    if mask == 0 {
        return Err("--use-case mask must be non-zero".into());
    }
    if mask >= (1u64 << apps) {
        return Err(format!("--use-case mask {mask} exceeds 2^{apps} - 1"));
    }
    Ok(UseCase::from_mask(mask))
}

fn cmd_estimate(options: &HashMap<&str, &str>) -> Result<(), String> {
    let spec = workload_from(options)?;
    let uc = use_case_from(options, spec.application_count())?;
    let method = parse_method(options.get("method").copied().unwrap_or("order-2"))?;

    let start = std::time::Instant::now();
    let est = estimate(&spec, uc, method).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();

    println!("use-case {uc}, method {method} ({elapsed:?}):");
    for (&app, period) in est.periods() {
        let iso = spec.application(app).isolation_period();
        println!(
            "  {:<6} period {:>10.1} ({:.2}x isolation {:.1})",
            spec.application(app).name(),
            period.to_f64(),
            (period.to_f64() / iso.to_f64()),
            iso.to_f64()
        );
    }
    Ok(())
}

fn cmd_simulate(options: &HashMap<&str, &str>) -> Result<(), String> {
    let spec = workload_from(options)?;
    let uc = use_case_from(options, spec.application_count())?;
    let horizon = opt_u64(options, "horizon")?.unwrap_or(500_000);

    let start = std::time::Instant::now();
    let result =
        simulate(&spec, uc, SimConfig::with_horizon(horizon)).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();

    println!(
        "use-case {uc}, horizon {horizon} ({} events, {elapsed:?}):",
        result.events_processed()
    );
    for m in result.apps() {
        let name = spec.application(m.app()).name();
        match (m.average_period(), m.worst_period()) {
            (Some(avg), Some(worst)) => println!(
                "  {:<6} period {:>10.1} (worst {:>8}) over {} iterations",
                name,
                avg,
                worst,
                m.iterations()
            ),
            _ => println!("  {name:<6} completed too few iterations"),
        }
    }
    Ok(())
}

fn cmd_signoff(options: &HashMap<&str, &str>) -> Result<(), String> {
    let spec = workload_from(options)?;
    let method = parse_method(options.get("method").copied().unwrap_or("composability"))?;
    let start = std::time::Instant::now();
    let report = experiments::signoff::sign_off(&spec, method, None).map_err(|e| e.to_string())?;
    println!("{}", report.render());
    println!("({:?} total)", start.elapsed());
    Ok(())
}

/// Builds the local fleet a `fleet-bench` run or a fresh `serve` drives:
/// the seeded workload and uniform shape their flags name, journaling into
/// memory or into a new WAL under --journal-dir.
fn fleet_from_flags(options: &HashMap<&str, &str>) -> Result<runtime::FleetManager, String> {
    use runtime::{
        FleetConfig, FleetManager, Journal, JournalHeader, RoutingPolicy, JOURNAL_VERSION,
    };

    let seed = opt_u64(options, "seed")?.unwrap_or(experiments::workload::DEFAULT_SEED);
    let apps = opt_u64(options, "apps")?.unwrap_or(6);
    let actors = opt_u64(options, "actors")?.unwrap_or(5);
    let spec = seeded_workload(seed, apps, Some(actors))?;
    let groups = opt_u64(options, "groups")?.unwrap_or(4);
    if groups == 0 {
        return Err("--groups must be positive".into());
    }
    let shards = opt_u64(options, "shards")?.unwrap_or(1);
    let capacity = opt_u64(options, "capacity")?.unwrap_or(4);
    let policy = options
        .get("policy")
        .copied()
        .unwrap_or("least-utilised")
        .parse::<RoutingPolicy>()?;
    // The header records the workload parameters beside the shape, so the
    // journal is self-contained: `probcon replay` and a restarted `serve`
    // rebuild this fleet from it alone. The fleet is decoded from it too,
    // so the flags pass the same size check a recorded header does.
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        seed,
        apps,
        actors,
        groups,
        shards_per_group: shards,
        capacity_per_shard: capacity,
        policy: policy.to_string(),
        group_shapes: Vec::new(),
    };
    let config = FleetConfig::from_header(&header).map_err(|e| e.to_string())?;
    let header = FleetManager::stamped_header(&config, header);
    let journal = match options.get("journal-dir") {
        Some(dir) => Journal::create_wal(dir, header, wal_config_from(options)?)
            .map_err(|e| e.to_string())?,
        None => {
            for flag in ["fsync", "segment-entries"] {
                if options.contains_key(flag) {
                    return Err(format!(
                        "--{flag} tunes the write-ahead log and needs --journal-dir"
                    ));
                }
            }
            Journal::new(header)
        }
    };
    FleetManager::with_journal(spec, config, journal).map_err(|e| e.to_string())
}

/// `true` when `dir` already holds a WAL (its manifest exists).
fn holds_wal(dir: &str) -> bool {
    std::path::Path::new(dir)
        .join(runtime::MANIFEST_FILE)
        .exists()
}

/// The workload and fleet shape a journal header records, as the
/// `fleet-bench` and `serve` banners print it.
fn shape_line(header: &runtime::JournalHeader) -> String {
    format!(
        "{} applications × {} actors, {} groups × {} shards × capacity {}, {} routing",
        header.apps,
        header.actors,
        header.groups,
        header.shards_per_group,
        header.capacity_per_shard,
        header.policy
    )
}

fn cmd_fleet_bench(options: &HashMap<&str, &str>) -> Result<(), String> {
    use runtime::{run_requests, seeded_fleet_requests, Cached, FleetRequest, Metered};

    if let Some(&addr) = options.get("connect") {
        return cmd_fleet_bench_remote(addr, options);
    }
    if options.contains_key("client") {
        return Err(
            "--client announces an identity to a remote server and needs --connect \
             (local runs journal without provenance)"
                .into(),
        );
    }
    for flag in ["wire", "connections"] {
        if options.contains_key(flag) {
            return Err(format!(
                "--{flag} shapes the remote transport and needs --connect"
            ));
        }
    }

    let requests = require_u64(options, "requests")? as usize;
    if requests == 0 {
        return Err("--requests must be positive".into());
    }
    let threads = opt_u64(options, "threads")?.unwrap_or(1) as usize;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let wal_dir = options.get("journal-dir").copied();
    if let Some(dir) = wal_dir.filter(|dir| holds_wal(dir)) {
        return Err(format!(
            "--journal-dir {dir}: already a WAL; fleet-bench records fresh runs — \
             replay or compact the existing log, or pick an empty directory"
        ));
    }
    let fleet = fleet_from_flags(options)?;
    let (spec, header) = (fleet.spec(), fleet.journal().header());
    println!("fleet-bench: {}", shape_line(header));
    let stream = seeded_fleet_requests(spec, header.groups as usize, requests, header.seed);

    // --autoscale: run the elastic controller against the benched fleet
    // for the duration of the run; every resize it makes lands in the
    // same journal the bench records.
    let autoscaler = options
        .get("autoscale")
        .map(|path| -> Result<_, String> {
            let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let policy =
                runtime::ScalePolicy::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
            let interval = opt_u64(options, "autoscale-interval")?.unwrap_or(50);
            if interval == 0 {
                return Err("--autoscale-interval must be positive".into());
            }
            println!(
                "autoscaling with policy [{}] every {interval}ms",
                policy.label()
            );
            let controller = std::sync::Arc::new(runtime::Autoscaler::new(
                std::sync::Arc::new(fleet.clone()),
                policy,
            ));
            Ok((
                std::sync::Arc::clone(&controller),
                std::sync::Arc::clone(&controller)
                    .spawn(std::time::Duration::from_millis(interval)),
            ))
        })
        .transpose()?;
    if autoscaler.is_none() && options.contains_key("autoscale-interval") {
        return Err("--autoscale-interval needs --autoscale".into());
    }

    // The service stack: latency metering over estimate caching over the
    // fleet; admissions/releases/estimates flow through it, rebalances go
    // to the fleet directly.
    let cached = Cached::new(fleet.clone(), 256);
    let warm = options.contains_key("warm-cache");
    if warm {
        // 2^8 - 1 = 255 warmed entries fit the 256-slot LRU without
        // eviction — beyond that, warming would evict itself and the cold
        // baseline below would stop being exact.
        if header.apps > 8 {
            return Err("--warm-cache enumerates 2^apps - 1 use-cases; use --apps <= 8".into());
        }
        let report = experiments::signoff::sign_off(spec, Method::Composability, None)
            .map_err(|e| e.to_string())?;
        let warmed = cached
            .warm_from_signoff(&report)
            .map_err(|e| e.to_string())?;
        println!("warmed {warmed} estimates from the sign-off artefact");
    }
    // Cold baseline for the warm-vs-cold comparison: without warming, every
    // first occurrence of an estimate key is a miss (the 256-entry cache
    // never evicts for apps <= 8 masks x 1 method).
    let estimate_lookups = stream
        .iter()
        .filter(|r| matches!(r, FleetRequest::Estimate { .. }))
        .count() as u64;
    let distinct_estimates = stream
        .iter()
        .filter_map(|r| match r {
            FleetRequest::Estimate { use_case, method } => Some((use_case.mask(), *method)),
            _ => None,
        })
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;

    let stack = Metered::new(cached);
    let interval = telemetry_interval(options)?;
    let (report, points) = run_requests(&stack, Some(&fleet), stream, threads, interval, None);
    if let Some((controller, handle)) = autoscaler {
        handle.stop();
        println!("{}", controller.status().render());
    }
    print!("{}", report.render());
    write_telemetry(options, &points)?;

    if estimate_lookups > 0 {
        let hits = report.stack.counter("cached", "hits").unwrap_or(0);
        let cold_hits = estimate_lookups - distinct_estimates.min(estimate_lookups);
        let rate = |h: u64| 100.0 * h as f64 / estimate_lookups as f64;
        if warm {
            println!(
                "estimate cache: {:.1}% hit rate warm vs {:.1}% cold baseline \
                 ({} lookups, {} distinct use-cases pre-warmed)",
                rate(hits),
                rate(cold_hits),
                estimate_lookups,
                distinct_estimates,
            );
        } else {
            println!(
                "estimate cache: {:.1}% hit rate cold ({} lookups, {} distinct use-cases; \
                 re-run with --warm-cache to pre-populate from the sign-off artefact)",
                rate(hits),
                estimate_lookups,
                distinct_estimates,
            );
        }
    }

    if let Some(path) = options.get("journal") {
        fleet.journal().write_to(path).map_err(|e| e.to_string())?;
        println!(
            "wrote {} decisions to {path} (replay with: probcon replay {path})",
            fleet.journal().len()
        );
    }
    if let Some(dir) = wal_dir {
        fleet.journal().sync().map_err(|e| e.to_string())?;
        if let Some(stats) = fleet.journal().wal_stats() {
            println!(
                "wal: {} decisions in {} segment(s), {} bytes at {dir} \
                 (replay with: probcon replay {dir}; fold with: probcon journal compact {dir})",
                fleet.journal().len(),
                stats.segments,
                stats.disk_bytes,
            );
        }
    }
    fleet.stop();
    Ok(())
}

/// `fleet-bench --connect`: the same seeded driver, but against a fleet
/// served by `probcon serve` in another process. The workload spec and
/// domain count arrive in the protocol handshake, so the only knobs left
/// are the request stream's.
/// Parses `--telemetry` / `--telemetry-interval` into a sampling interval:
/// `Some` when a trajectory file was requested.
fn telemetry_interval(
    options: &HashMap<&str, &str>,
) -> Result<Option<std::time::Duration>, String> {
    if !options.contains_key("telemetry") {
        if options.contains_key("telemetry-interval") {
            return Err("--telemetry-interval needs --telemetry <file.json>".into());
        }
        return Ok(None);
    }
    let millis = opt_u64(options, "telemetry-interval")?.unwrap_or(250);
    if millis == 0 {
        return Err("--telemetry-interval must be positive".into());
    }
    Ok(Some(std::time::Duration::from_millis(millis)))
}

/// Writes the sampled telemetry trajectory where `--telemetry` points.
fn write_telemetry(
    options: &HashMap<&str, &str>,
    points: &[runtime::TelemetryPoint],
) -> Result<(), String> {
    let Some(path) = options.get("telemetry") else {
        return Ok(());
    };
    let json = serde_json::to_string_pretty(&points).map_err(|e| format!("serialize: {e}"))?;
    fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {} telemetry points to {path}", points.len());
    Ok(())
}

/// Round-robins requests across several client connections to one
/// server — the fan-in driver behind `fleet-bench --connections N`, and
/// the load shape the readiness-loop server is built for: many sockets,
/// a fixed set of event loops.
struct FanInClient {
    clients: Vec<runtime::RemoteClient>,
    next: std::sync::atomic::AtomicUsize,
}

impl FanInClient {
    fn pick(&self) -> &runtime::RemoteClient {
        let i = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        &self.clients[i % self.clients.len()]
    }
}

impl runtime::AdmissionService for FanInClient {
    fn admit(
        &self,
        request: &runtime::AdmissionRequest,
    ) -> Result<runtime::AdmissionDecision, runtime::ServiceError> {
        self.pick().admit(request)
    }

    fn release(&self, resident: u64) -> Result<(), runtime::ServiceError> {
        self.pick().release(resident)
    }

    fn snapshot(&self) -> runtime::ServiceSnapshot {
        self.clients[0].snapshot()
    }

    fn workload(&self) -> Option<&platform::SystemSpec> {
        self.clients[0].workload()
    }

    fn estimate(
        &self,
        use_case: UseCase,
        method: Method,
    ) -> Result<std::sync::Arc<contention::Estimate>, runtime::ServiceError> {
        self.pick().estimate(use_case, method)
    }

    fn telemetry(&self) -> runtime::TelemetrySnapshot {
        self.clients[0].telemetry()
    }

    fn trace_tail(&self, limit: usize) -> Vec<runtime::TraceEvent> {
        self.clients[0].trace_tail(limit)
    }
}

fn cmd_fleet_bench_remote(addr: &str, options: &HashMap<&str, &str>) -> Result<(), String> {
    use runtime::{
        run_requests, seeded_fleet_requests, AdmissionService, ClientConfig, ConnectionPoint,
        Endpoint, Metered, RemoteClient, WireMode,
    };

    // Fleet shape, workload and journal durability are the server's to
    // decide.
    for flag in [
        "apps",
        "actors",
        "groups",
        "shards",
        "capacity",
        "policy",
        "warm-cache",
        "journal-dir",
        "fsync",
        "segment-entries",
        "autoscale",
        "autoscale-interval",
    ] {
        if options.contains_key(flag) {
            return Err(format!(
                "--{flag} configures a local fleet and is not valid with --connect \
                 (the server decides it; pass it to `probcon serve` instead)"
            ));
        }
    }
    let requests = require_u64(options, "requests")? as usize;
    if requests == 0 {
        return Err("--requests must be positive".into());
    }
    let threads = opt_u64(options, "threads")?.unwrap_or(1) as usize;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let seed = opt_u64(options, "seed")?.unwrap_or(experiments::workload::DEFAULT_SEED);
    let wire = match options.get("wire") {
        Some(&mode) => mode.parse::<WireMode>()?,
        None => WireMode::Binary,
    };
    let connections = opt_u64(options, "connections")?.unwrap_or(1) as usize;
    if connections == 0 {
        return Err("--connections must be positive".into());
    }

    let addr: Endpoint = addr.parse()?;
    let connect_one = || {
        RemoteClient::connect_config(
            &addr,
            ClientConfig {
                client: options.get("client").map(|&name| name.to_string()),
                wire,
                ..ClientConfig::default()
            },
        )
        .map_err(|e| e.to_string())
    };
    let clients = (0..connections)
        .map(|_| connect_one())
        .collect::<Result<Vec<_>, _>>()?;
    let spec = clients[0]
        .workload()
        .ok_or("server advertised no workload spec")?
        .clone();
    let groups = clients[0].domains();
    println!(
        "fleet-bench: {} applications across {groups} remote domains at {addr} \
         ({connections} connection(s), {} frames)",
        spec.application_count(),
        clients[0].wire_mode(),
    );

    let stream = seeded_fleet_requests(&spec, groups, requests, seed);
    let stack = Metered::new(FanInClient {
        clients,
        next: std::sync::atomic::AtomicUsize::new(0),
    });
    // Each telemetry sample also captures per-connection fan-in counters,
    // so a trajectory shows whether the round-robin spread stayed even.
    let sampler = {
        let fan_in: &FanInClient = stack.inner();
        move || {
            fan_in
                .clients
                .iter()
                .enumerate()
                .map(|(i, client)| {
                    let stats = client.stats();
                    ConnectionPoint {
                        conn: i as u64,
                        requests_sent: stats.requests_sent,
                        responses: stats.responses,
                        transport_errors: stats.transport_errors,
                        pending: stats.pending,
                    }
                })
                .collect()
        }
    };
    let interval = telemetry_interval(options)?;
    let (report, points) = run_requests(&stack, None, stream, threads, interval, Some(&sampler));
    print!("{}", report.render());
    write_telemetry(options, &points)?;

    if let Some(path) = options.get("journal") {
        let journal = stack.inner().clients[0]
            .fetch_journal()
            .map_err(|e| e.to_string())?;
        journal.write_to(path).map_err(|e| e.to_string())?;
        println!(
            "fetched {} server-side decisions to {path} (replay with: probcon replay {path})",
            journal.len()
        );
    }
    for client in &stack.inner().clients {
        client.close();
    }
    Ok(())
}

fn cmd_serve(options: &HashMap<&str, &str>) -> Result<(), String> {
    use runtime::{
        Cached, Endpoint, FleetManager, Journal, Metered, RemoteServer, RemoteServerConfig,
        TraceRecorder, Traced, WireMode, WirePolicy,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let listen = options
        .get("listen")
        .ok_or("missing required option --listen")?;
    let addr: Endpoint = listen.parse()?;
    // --wire json forces greppable JSON-lines frames on every connection;
    // the default negotiates binary with any client that asks for it.
    let wire = match options.get("wire") {
        Some(&mode) => match mode.parse::<WireMode>()? {
            WireMode::Json => WirePolicy::JsonOnly,
            WireMode::Binary => WirePolicy::Auto,
        },
        None => WirePolicy::Auto,
    };
    let cache = opt_u64(options, "cache")?.unwrap_or(256) as usize;
    if cache == 0 {
        return Err("--cache must be positive".into());
    }
    let trace_capacity = opt_u64(options, "trace")?.unwrap_or(4096) as usize;
    if trace_capacity == 0 {
        return Err("--trace capacity must be positive".into());
    }

    let autoscale_policy = options
        .get("autoscale")
        .map(|path| {
            let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            runtime::ScalePolicy::from_json(&json).map_err(|e| format!("{path}: {e}"))
        })
        .transpose()?;
    let autoscale_interval = opt_u64(options, "autoscale-interval")?.unwrap_or(250);
    if autoscale_interval == 0 {
        return Err("--autoscale-interval must be positive".into());
    }
    if autoscale_policy.is_none() && options.contains_key("autoscale-interval") {
        return Err("--autoscale-interval needs --autoscale".into());
    }

    let wal_dir = options.get("journal-dir").copied();
    let checkpoint_every = opt_u64(options, "checkpoint-every")?.unwrap_or(4096);
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }

    let fleet = match wal_dir {
        // A manifest in the directory means a previous serve recorded
        // here: the fleet restarts from the WAL alone — the workload and
        // shape its header records, the state its log folds to.
        Some(dir) if holds_wal(dir) => {
            for flag in [
                "seed", "apps", "actors", "groups", "shards", "capacity", "policy",
            ] {
                if options.contains_key(flag) {
                    return Err(format!(
                        "--{flag} shapes a fresh fleet and is not valid on the existing WAL \
                         {dir}: a restart serves the workload and fleet shape its journal \
                         header records"
                    ));
                }
            }
            let (journal, recovery) =
                Journal::open_wal(dir, wal_config_from(options)?).map_err(|e| e.to_string())?;
            report_recovery(dir, &recovery);
            let spec = spec_from_header(dir, journal.header())?;
            let fleet = FleetManager::recover(spec, journal).map_err(|e| e.to_string())?;
            println!(
                "recovered {} resident(s) from WAL {dir} ({} journaled decisions)",
                fleet.resident_count(),
                fleet.journal().len(),
            );
            fleet
        }
        _ => fleet_from_flags(options)?,
    };

    // The served stack, outermost first: flight recording over latency
    // metering over estimate caching over the fleet. The cache layer
    // shares the outer recorder so estimate hits/misses land inline with
    // the decision trace `probcon trace --connect` tails.
    let recorder = Arc::new(TraceRecorder::new(trace_capacity));
    let cached = Cached::new(fleet.clone(), cache);
    cached.attach_trace(Arc::clone(&recorder));
    fleet.attach_trace(Arc::clone(&recorder));
    let stack = Traced::with_recorder(Metered::new(cached), Arc::clone(&recorder));

    // --autoscale: an elastic capacity controller ticks in the background,
    // resizing the served fleet through the journaled resize path, and an
    // Autoscaled layer stamps its status into the telemetry `probcon top`
    // polls.
    let autoscaler = autoscale_policy.map(|policy| {
        println!(
            "autoscaling with policy [{}] every {autoscale_interval}ms",
            policy.label()
        );
        let controller = Arc::new(runtime::Autoscaler::new(Arc::new(fleet.clone()), policy));
        let handle =
            Arc::clone(&controller).spawn(std::time::Duration::from_millis(autoscale_interval));
        (controller, handle)
    });
    let stack: Arc<dyn runtime::AdmissionService> = match &autoscaler {
        Some((controller, _)) => Arc::new(runtime::Autoscaled::new(stack, Arc::clone(controller))),
        None => Arc::new(stack),
    };

    let server = RemoteServer::bind_with(
        &addr,
        stack,
        Some(fleet.clone()),
        RemoteServerConfig {
            once: options.contains_key("once"),
            wire,
            ..RemoteServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;

    // The checkpointer: every --checkpoint-every journaled decisions,
    // install the journal's fold as its base, so a memory journal drops
    // the folded entries and a WAL's recovery starts there instead of seq
    // 0, with fully covered segments garbage-collected. Either way the
    // served journal holds its fold plus at most about one interval.
    let stop = Arc::new(AtomicBool::new(false));
    let checkpointer = {
        let fleet = fleet.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = fleet.journal().base_seq();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(200));
                let next = fleet.journal().next_seq();
                if next.saturating_sub(last) < checkpoint_every {
                    continue;
                }
                match fleet.journal().compact() {
                    Ok(checkpoint) => last = checkpoint.upto_seq,
                    Err(e) => eprintln!("checkpoint failed: {e}"),
                }
            }
        })
    };

    println!(
        "serving {}, {cache}-entry estimate cache, {trace_capacity}-event flight recorder",
        shape_line(fleet.journal().header())
    );
    println!("listening on {}", server.local_addr());
    println!(
        "connect with: probcon fleet-bench --connect {} --requests 1000",
        server.local_addr()
    );
    println!(
        "observe with: probcon top --connect {}  |  probcon trace --connect {}",
        server.local_addr(),
        server.local_addr()
    );

    // Blocks until shutdown: with --once, until the first client
    // disconnects; otherwise until the process is killed.
    server.wait();
    if let Some((controller, handle)) = autoscaler {
        handle.stop();
        println!("{}", controller.status().render());
    }
    stop.store(true, Ordering::Relaxed);
    if checkpointer.join().is_err() {
        eprintln!("checkpointer panicked");
    }
    if wal_dir.is_some() {
        // Graceful shutdown: everything on disk, folded to a snapshot.
        if let Err(e) = fleet.journal().sync() {
            eprintln!("final WAL sync failed: {e}");
        }
        match fleet.journal().compact() {
            Ok(checkpoint) => println!(
                "checkpointed {} resident(s) at seq {}",
                checkpoint.residents.len(),
                checkpoint.upto_seq
            ),
            Err(e) => eprintln!("final checkpoint failed: {e}"),
        }
        if let Some(stats) = fleet.journal().wal_stats() {
            println!(
                "wal: {} segment(s), {} bytes on disk, {} append I/O error(s)",
                stats.segments,
                stats.disk_bytes,
                fleet.journal().io_errors(),
            );
        }
    }
    let stats = server.stats();
    println!(
        "served {} requests over {} connections ({} protocol errors, {} handshake rejects)",
        stats.requests, stats.connections, stats.protocol_errors, stats.handshake_rejects
    );
    let trace = recorder.stats();
    println!(
        "flight recorder: {} events recorded, {} dropped (capacity {})",
        trace.recorded, trace.dropped, trace.capacity
    );
    print!("{}", fleet.snapshot().render());
    if let Some(path) = options.get("journal") {
        fleet.journal().write_to(path).map_err(|e| e.to_string())?;
        println!(
            "wrote {} decisions to {path} (replay with: probcon replay {path})",
            fleet.journal().len()
        );
    }
    fleet.stop();
    Ok(())
}

/// Builds the full telemetry demo stack — traced + metered + cached over a
/// two-group fleet — and drives a seeded request stream through it, so
/// `probcon top` / `probcon trace` without --connect have live numbers to
/// show. Returns the still-assembled stack for rendering.
fn demo_telemetry_stack(
    options: &HashMap<&str, &str>,
) -> Result<runtime::Traced<runtime::Metered<runtime::Cached<runtime::FleetManager>>>, String> {
    use runtime::{
        run_requests, seeded_fleet_requests, Cached, FleetConfig, FleetManager, Metered,
        RoutingPolicy, TraceRecorder, Traced,
    };
    use std::sync::Arc;

    let seed = opt_u64(options, "seed")?.unwrap_or(experiments::workload::DEFAULT_SEED);
    let requests = opt_u64(options, "requests")?.unwrap_or(400) as usize;
    if requests == 0 {
        return Err("--requests must be positive".into());
    }
    let spec =
        workload_with(seed, 4, &GeneratorConfig::with_actors(4)).map_err(|e| e.to_string())?;
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(2, 1, 4, RoutingPolicy::LeastUtilised),
    )
    .map_err(|e| e.to_string())?;
    let recorder = Arc::new(TraceRecorder::new(4096));
    let cached = Cached::new(fleet.clone(), 64);
    cached.attach_trace(Arc::clone(&recorder));
    let stack = Traced::with_recorder(Metered::new(cached), recorder);
    let stream = seeded_fleet_requests(&spec, 2, requests, seed);
    let _ = run_requests(&stack, Some(&fleet), stream, 2, None, None);
    Ok(stack)
}

fn cmd_top(options: &HashMap<&str, &str>) -> Result<(), String> {
    use runtime::{AdmissionService, Endpoint};
    use std::time::Duration;

    let prometheus = options.contains_key("prometheus");
    let connections = options.contains_key("connections");
    if prometheus && connections {
        return Err("--connections renders the human table; drop --prometheus".into());
    }
    let watch = match options.get("watch").copied() {
        None => None,
        Some("true") => Some(2u64),
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--watch: expected seconds, got '{v}'"))?,
        ),
    };

    let Some(&addr) = options.get("connect") else {
        if watch.is_some() {
            return Err("--watch polls a live server and needs --connect".into());
        }
        if connections {
            return Err(
                "--connections shows a server's per-connection transport stats \
                 and needs --connect"
                    .into(),
            );
        }
        let stack = demo_telemetry_stack(options)?;
        let telemetry = AdmissionService::telemetry(&stack);
        print!(
            "{}",
            if prometheus {
                telemetry.render_prometheus()
            } else {
                telemetry.render()
            }
        );
        return Ok(());
    };

    let addr: Endpoint = addr.parse()?;
    let client = connect_observer(&addr, options)?;
    loop {
        let telemetry = client.remote_telemetry().map_err(|e| e.to_string())?;
        print!(
            "{}",
            if prometheus {
                telemetry.render_prometheus()
            } else if connections {
                telemetry.render_connections()
            } else {
                telemetry.render()
            }
        );
        let Some(secs) = watch else { break };
        println!();
        std::thread::sleep(Duration::from_secs(secs.max(1)));
    }
    client.close();
    Ok(())
}

/// Connects an observer command (`top`/`trace`), honouring `--wire`
/// (binary by default — observers move bulky telemetry frames).
fn connect_observer(
    addr: &runtime::Endpoint,
    options: &HashMap<&str, &str>,
) -> Result<runtime::RemoteClient, String> {
    let wire = match options.get("wire") {
        Some(&mode) => mode.parse::<runtime::WireMode>()?,
        None => runtime::WireMode::Binary,
    };
    runtime::RemoteClient::connect_config(
        addr,
        runtime::ClientConfig {
            wire,
            ..runtime::ClientConfig::default()
        },
    )
    .map_err(|e| e.to_string())
}

fn cmd_trace(options: &HashMap<&str, &str>) -> Result<(), String> {
    use runtime::{AdmissionService, Endpoint};

    let chrome = options.get("chrome").copied();
    if chrome == Some("true") {
        return Err("--chrome needs an output path, e.g. --chrome trace.json".into());
    }
    // A Perfetto export wants whole request trees, not the last few
    // lines, so --chrome defaults to draining the full ring.
    let tail = match opt_u64(options, "tail")? {
        Some(n) => n as usize,
        None if chrome.is_some() => 4096,
        None => 20,
    };
    if tail == 0 {
        return Err("--tail must be positive".into());
    }
    let (events, anchor) = match options.get("connect") {
        Some(&addr) => {
            let addr: Endpoint = addr.parse()?;
            let client = connect_observer(&addr, options)?;
            let events = client.remote_trace(tail).map_err(|e| e.to_string())?;
            let anchor = if chrome.is_some() {
                let telemetry = client.remote_telemetry().map_err(|e| e.to_string())?;
                telemetry.trace.anchor_micros.unwrap_or(0)
            } else {
                0
            };
            client.close();
            (events, anchor)
        }
        None => {
            let stack = demo_telemetry_stack(options)?;
            let anchor = stack.recorder().anchor_micros();
            (AdmissionService::trace_tail(&stack, tail), anchor)
        }
    };

    if let Some(path) = chrome {
        let json = runtime::render_chrome_trace(&events, anchor);
        fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "wrote {} event(s) as Chrome trace to {path} \
             (open at https://ui.perfetto.dev → Open trace file)",
            events.len()
        );
        return Ok(());
    }
    if options.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&events).map_err(|e| format!("serialize: {e}"))?
        );
        return Ok(());
    }
    for event in &events {
        println!("{}", render_trace_event(event));
    }
    println!("{} event(s)", events.len());
    Ok(())
}

/// One flight-recorder event as a human-readable line.
fn render_trace_event(event: &runtime::TraceEvent) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "#{:<6} {:>10.3}ms {:<10} app={} domain={}",
        event.seq,
        event.at_micros as f64 / 1000.0,
        event.kind.name(),
        event.app_index,
        event.domain,
    );
    if let Some(resident) = event.resident {
        let _ = write!(out, " resident={resident}");
    }
    if event.duration_micros > 0 {
        let _ = write!(out, " {}µs", event.duration_micros);
    }
    if let Some(hit) = event.cache_hit {
        let _ = write!(out, " cache={}", if hit { "hit" } else { "miss" });
    }
    if let Some(client) = &event.client {
        let _ = write!(out, " client={client}");
    }
    out
}

/// Parses `--fsync` / `--segment-entries` into a [`runtime::WalConfig`].
fn wal_config_from(options: &HashMap<&str, &str>) -> Result<runtime::WalConfig, String> {
    let mut config = runtime::WalConfig::default();
    if let Some(n) = opt_u64(options, "segment-entries")? {
        if n == 0 {
            return Err("--segment-entries must be positive".into());
        }
        config.segment_max_entries = n;
    }
    if let Some(&policy) = options.get("fsync") {
        config.fsync = policy.parse()?;
    }
    Ok(config)
}

/// Surfaces a WAL recovery's torn-tail truncation on stderr — evidence of
/// an unclean shutdown that scripted drivers may want to capture.
fn report_recovery(path: &str, recovery: &runtime::WalRecovery) {
    if recovery.truncated_bytes > 0 {
        eprintln!(
            "recovered WAL {path}: truncated {} torn byte(s) off the active segment \
             ({} entries survive)",
            recovery.truncated_bytes, recovery.recovered_entries
        );
    }
}

/// Loads a journal — a single `.jsonl` file or a WAL directory — and
/// rebuilds the workload spec its header names.
fn journal_with_spec(path: &str) -> Result<(runtime::Journal, platform::SystemSpec), String> {
    let (journal, recovery) = runtime::Journal::load(path).map_err(|e| e.to_string())?;
    if let Some(recovery) = &recovery {
        report_recovery(path, recovery);
    }
    let spec = spec_from_header(path, journal.header())?;
    Ok((journal, spec))
}

/// Rebuilds the workload spec the header of the journal at `path` names —
/// the step `replay`, `plan` and a restarted `serve` share.
fn spec_from_header(
    path: &str,
    header: &runtime::JournalHeader,
) -> Result<platform::SystemSpec, String> {
    if header.apps == 0 {
        return Err(format!(
            "journal {path} records no workload parameters in its header \
             (recorded outside `probcon fleet-bench`?); drive it through the \
             runtime API against the original spec instead"
        ));
    }
    seeded_workload(header.seed, header.apps, Some(header.actors))
        .map_err(|e| format!("journal {path} header: {e}"))
}

fn cmd_replay(path: Option<&str>, _options: &HashMap<&str, &str>) -> Result<ExitCode, String> {
    use runtime::{FleetConfig, JournalReplayer};

    let path = path.ok_or("replay needs a journal file")?;
    let (journal, spec) = journal_with_spec(path)?;
    let header = journal.header().clone();
    println!(
        "replaying {}: {} decisions ({} applications × {} actors, {} groups, {} routing)",
        path,
        journal.len(),
        header.apps,
        header.actors,
        header.groups,
        header.policy,
    );

    let config = FleetConfig::from_header(&header).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let (report, fleet) = JournalReplayer::new(&spec)
        .replay(&journal, config)
        .map_err(|e| e.to_string())?;
    print!("{}", report.render());
    print!("{}", fleet.snapshot().render());
    println!("({:?} total)", start.elapsed());
    if report.is_equivalent() {
        Ok(ExitCode::SUCCESS)
    } else {
        // Divergence details go to stderr — in full, before the exit — so
        // scripted replays (CI) capture exactly which decisions flipped
        // even when stdout is discarded.
        for d in &report.divergences {
            eprintln!(
                "replay divergence at seq {}: expected `{}`, got `{}`",
                d.seq, d.expected, d.got
            );
        }
        eprintln!(
            "replay diverged from the recording in {} of {} decisions",
            report.divergences.len(),
            report.events
        );
        Ok(ExitCode::FAILURE)
    }
}

/// Parses `lo..hi` (inclusive) or a single value into a range pair.
fn parse_range<T: std::str::FromStr + Copy>(value: &str, flag: &str) -> Result<(T, T), String> {
    let parse_one =
        |s: &str| -> Result<T, String> { s.parse().map_err(|_| format!("--{flag}: bad '{s}'")) };
    match value.split_once("..") {
        Some((lo, hi)) => Ok((parse_one(lo)?, parse_one(hi)?)),
        None => {
            let v = parse_one(value)?;
            Ok((v, v))
        }
    }
}

fn cmd_plan(path: Option<&str>, options: &HashMap<&str, &str>) -> Result<ExitCode, String> {
    use runtime::{FleetConfig, PlanRun, PlanSweep, RouteMode, RoutingPolicy};

    let path = path.ok_or("plan needs a journal file")?;
    let (journal, spec) = journal_with_spec(path)?;
    let base = FleetConfig::from_header(journal.header()).map_err(|e| e.to_string())?;

    let routing = match options.get("routing").copied() {
        None | Some("auto") => RouteMode::Auto,
        Some("recorded") => RouteMode::Recorded,
        Some("replanned") | Some("replan") => RouteMode::Replan,
        Some(other) => return Err(format!("--routing: unknown mode '{other}'")),
    };
    let policy = options
        .get("policy")
        .map(|p| p.parse::<RoutingPolicy>())
        .transpose()?;
    let json = options.contains_key("json");
    let fail_on_flips = options.contains_key("fail-on-flips");

    let (groups_lo, groups_hi) = match options.get("groups") {
        Some(value) => parse_range::<usize>(value, "groups")?,
        None => (base.groups.len(), base.groups.len()),
    };
    if groups_lo == 0 || groups_lo > groups_hi {
        return Err("--groups: range must be 1-based and ordered".into());
    }
    // The largest shape asked for passes the fleet size cap before any grid
    // is built; a one-shot plan runs exactly it.
    let largest = base
        .clone()
        .with_group_count(groups_hi)
        .map_err(|e| e.to_string())?;
    let (scale_lo, scale_hi) = match options.get("capacity-scale") {
        Some(value) => parse_range::<f64>(value, "capacity-scale")?,
        None => (1.0, 1.0),
    };
    if !(scale_lo > 0.0 && scale_hi >= scale_lo) {
        return Err("--capacity-scale: range must be positive and ordered".into());
    }

    // --policy-file evaluates an elastic scale policy against the
    // recorded stream (the policy decides capacity; recorded resizes are
    // skipped). One-shot only: a sweep already varies shape itself.
    let scale_policy = options
        .get("policy-file")
        .map(|path| {
            if options.contains_key("sweep") {
                return Err("--policy-file does not combine with --sweep".to_string());
            }
            let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            runtime::ScalePolicy::from_json(&json).map_err(|e| format!("{path}: {e}"))
        })
        .transpose()?;
    let policy_every = opt_u64(options, "policy-every")?.unwrap_or(8);
    if policy_every == 0 {
        return Err("--policy-every must be positive".into());
    }
    if scale_policy.is_none() && options.contains_key("policy-every") {
        return Err("--policy-every needs --policy-file".into());
    }

    if !options.contains_key("sweep") {
        for flag in ["workers", "flip-budget", "scale-steps"] {
            if options.contains_key(flag) {
                return Err(format!("--{flag} only applies with --sweep"));
            }
        }
        if groups_lo != groups_hi || (scale_lo - scale_hi).abs() > f64::EPSILON {
            return Err(
                "ranges need --sweep; pass single --groups / --capacity-scale values \
                 for a one-shot plan"
                    .into(),
            );
        }
        let mut shape = largest.scale_capacity(scale_lo);
        if let Some(policy) = policy {
            shape.policy = policy;
        }
        println!(
            "planning {path}: {} events against shape {} (recorded {})",
            journal.len(),
            shape.label(),
            base.label(),
        );
        let mut run = PlanRun::new(&spec, &journal, &shape).with_routing(routing);
        if let Some(policy) = scale_policy {
            run = run.with_scale_policy(policy, policy_every);
        }
        let report = run.execute().map_err(|e| e.to_string())?;
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
        } else {
            print!("{}", report.render());
        }
        return Ok(exit_for_flips(fail_on_flips, report.flip_count()));
    }

    // Sweep: cross the requested axes into a shape grid.
    let workers = opt_u64(options, "workers")?.unwrap_or(8) as usize;
    if workers == 0 {
        return Err("--workers must be positive".into());
    }
    let scale_steps = opt_u64(options, "scale-steps")?.unwrap_or(4) as usize;
    if scale_steps == 0 {
        return Err("--scale-steps must be positive".into());
    }
    let group_counts: Vec<usize> = (groups_lo..=groups_hi).collect();
    let scales: Vec<f64> = if (scale_hi - scale_lo).abs() < f64::EPSILON {
        vec![scale_lo]
    } else {
        (0..scale_steps)
            .map(|i| scale_lo + (scale_hi - scale_lo) * i as f64 / (scale_steps - 1).max(1) as f64)
            .collect()
    };
    let policies: Vec<RoutingPolicy> = policy.into_iter().collect();
    let shapes =
        PlanSweep::grid(&base, &group_counts, &scales, &policies).map_err(|e| e.to_string())?;
    // Default regression budget: 5% of the recorded admissions — "almost
    // everything still served" — unless the caller picks a number.
    let recorded_admissions = journal
        .try_entries()
        .map_err(|e| e.to_string())?
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                runtime::DecisionEvent::Admit {
                    outcome: runtime::JournalOutcome::Admitted { .. },
                    ..
                }
            )
        })
        .count() as u64;
    let flip_budget = opt_u64(options, "flip-budget")?.unwrap_or(recorded_admissions / 20);

    println!(
        "sweeping {path}: {} events × {} shapes on {} workers (recorded {}, budget {})",
        journal.len(),
        shapes.len(),
        workers,
        base.label(),
        flip_budget,
    );
    let report = PlanSweep::new(&spec, &journal)
        .shapes(shapes)
        .routing(routing)
        .workers(workers)
        .flip_budget(flip_budget)
        .execute()
        .map_err(|e| e.to_string())?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.render());
    }
    let flips: usize = report.reports.iter().map(|r| r.flip_count()).sum();
    Ok(exit_for_flips(fail_on_flips, flips))
}

fn exit_for_flips(fail_on_flips: bool, flips: usize) -> ExitCode {
    if fail_on_flips && flips > 0 {
        eprintln!("plan reported {flips} flips and --fail-on-flips is set");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_journal(positional: &[&str], options: &HashMap<&str, &str>) -> Result<(), String> {
    use runtime::Journal;

    match positional.first().copied() {
        Some("split") => {
            let path = positional
                .get(1)
                .copied()
                .ok_or("journal split needs a journal file")?;
            let journal = Journal::read_from(path).map_err(|e| e.to_string())?;
            let source = std::path::Path::new(path);
            let out_dir = options
                .get("out-dir")
                .map(std::path::PathBuf::from)
                .or_else(|| source.parent().map(std::path::Path::to_path_buf))
                .unwrap_or_else(|| std::path::PathBuf::from("."));
            std::fs::create_dir_all(&out_dir)
                .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
            let stem = source
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("journal");
            let parts = journal.split_by_client().map_err(|e| e.to_string())?;
            println!(
                "splitting {path}: {} decisions across {} client(s)",
                journal.len(),
                parts.len()
            );
            let mut used_names: Vec<String> = Vec::new();
            for (client, part) in &parts {
                // Client ids arrive over the wire and are untrusted: keep
                // only filename-safe characters so a hostile id (path
                // separators, `..`) cannot steer the write outside
                // --out-dir, and suffix sanitized collisions so no part
                // silently overwrites another.
                let base = match client {
                    Some(client) => {
                        let safe: String = client
                            .chars()
                            .map(|c| {
                                if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                                    c
                                } else {
                                    '_'
                                }
                            })
                            .collect();
                        let safe = safe.trim_matches('.');
                        if safe.is_empty() {
                            format!("{stem}.client-anon")
                        } else {
                            format!("{stem}.client-{safe}")
                        }
                    }
                    None => format!("{stem}.unattributed"),
                };
                let mut name = format!("{base}.jsonl");
                let mut suffix = 2;
                while used_names.contains(&name) {
                    name = format!("{base}-{suffix}.jsonl");
                    suffix += 1;
                }
                used_names.push(name.clone());
                let out = out_dir.join(name);
                part.write_to(&out).map_err(|e| e.to_string())?;
                println!(
                    "  {:<24} {} decisions -> {}",
                    client.as_deref().unwrap_or("(unattributed)"),
                    part.len(),
                    out.display()
                );
            }
            Ok(())
        }
        Some("merge") => {
            let (Some(a), Some(b)) = (positional.get(1).copied(), positional.get(2).copied())
            else {
                return Err("journal merge needs two journal files".into());
            };
            let out = options.get("out").ok_or("journal merge needs --out")?;
            let left = Journal::read_from(a).map_err(|e| e.to_string())?;
            let right = Journal::read_from(b).map_err(|e| e.to_string())?;
            let merged = Journal::merge(&left, &right).map_err(|e| e.to_string())?;
            merged.write_to(out).map_err(|e| e.to_string())?;
            println!(
                "merged {} + {} decisions -> {} ({} total; replay with: probcon replay {out})",
                left.len(),
                right.len(),
                out,
                merged.len()
            );
            Ok(())
        }
        Some("compact") => {
            let dir = positional
                .get(1)
                .copied()
                .ok_or("journal compact needs a WAL directory")?;
            // --keep K retains the last K snapshot checkpoints: segments
            // are only garbage-collected up to the OLDEST retained
            // snapshot, so any of the last K checkpoints is a valid
            // point-in-time replay base.
            let keep = opt_u64(options, "keep")?.unwrap_or(1) as usize;
            if keep == 0 {
                return Err("--keep must be at least 1".into());
            }
            let config = runtime::WalConfig {
                keep_snapshots: keep,
                ..runtime::WalConfig::default()
            };
            let (journal, recovery) = Journal::open_wal(dir, config).map_err(|e| e.to_string())?;
            report_recovery(dir, &recovery);
            let before = journal.wal_stats().expect("open_wal yields a WAL journal");
            // --out renders the whole WAL into one flat journal file — the
            // bridge `journal split`/`merge` point at when handed a WAL
            // directory. It must happen BEFORE the fold below: compaction
            // garbage-collects exactly the per-entry history (and client
            // attribution) the flat export preserves.
            if let Some(out) = options.get("out") {
                journal.write_to(out).map_err(|e| e.to_string())?;
                println!(
                    "rendered {} decision(s) to {out} (replay with: probcon replay {out})",
                    journal.len()
                );
            }
            let checkpoint = journal.compact().map_err(|e| e.to_string())?;
            let after = journal.wal_stats().expect("open_wal yields a WAL journal");
            println!(
                "compacted {dir}: snapshot at seq {}, {} -> {} segment(s), {} -> {} bytes, \
                 {} snapshot(s) retained",
                checkpoint.upto_seq,
                before.segments,
                after.segments,
                before.disk_bytes,
                after.disk_bytes,
                after.snapshots,
            );
            println!(
                "{} resident(s) folded into the snapshot; replay output is unchanged",
                checkpoint.residents.len()
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown journal subcommand '{other}'")),
        None => Err("journal needs a subcommand: split | merge | compact".into()),
    }
}

fn cmd_paper(options: &HashMap<&str, &str>) -> Result<(), String> {
    let horizon = if options.contains_key("quick") {
        50_000
    } else {
        500_000
    };
    let spec = workload_with(
        experiments::workload::DEFAULT_SEED,
        experiments::workload::PAPER_APP_COUNT,
        &GeneratorConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let all = UseCase::all(spec.application_count());
    let mut methods = Method::table1().to_vec();
    methods.push(Method::Exact);
    let eval = evaluate(
        &spec,
        &all,
        &EvalOptions {
            methods,
            sim: SimConfig::with_horizon(horizon),
        },
    )
    .map_err(|e| e.to_string())?;

    println!("===== Table 1 =====");
    println!("{}", render_table1(&experiments::table1::table1(&eval)));
    println!("===== Figure 5 =====");
    if let Some(rows) = experiments::fig5::figure5_from_eval(&spec, &eval) {
        println!("{}", render_fig5(&rows));
    }
    println!("===== Figure 6 =====");
    println!(
        "{}",
        render_fig6(&experiments::fig6::figure6(&eval, spec.application_count()))
    );
    println!("===== Timing =====");
    println!(
        "{}",
        render_timing(&experiments::timing::TimingSummary::from_evaluation(&eval))
    );
    Ok(())
}

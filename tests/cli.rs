//! Integration tests of the `probcon` command-line binary.

use std::process::Command;

fn probcon(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_probcon"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Asserts that `args` is rejected as a usage error: exit code 1 with an
/// `error:` line on stderr. A panic exits 101 and does not count.
fn assert_rejected(args: &[&str]) {
    let out = probcon(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "should reject {args:?}:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(
        stderr.contains("error:"),
        "{args:?} gave no message:\n{stderr}"
    );
}

#[test]
fn help_prints_usage() {
    for help in ["help", "--help", "-h"] {
        let out = probcon(&[help]);
        assert!(out.status.success(), "{help}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE"));
        assert!(stdout.contains("estimate"));
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = probcon(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn misspelt_options_fail_before_the_command_runs() {
    // `--metod` once ran the default method and exited 0.
    let out = probcon(&[
        "estimate",
        "--seed",
        "2007",
        "--apps",
        "3",
        "--use-case",
        "7",
        "--metod",
        "exact",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown option --metod for estimate"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");

    // `--jornal-dir` once served without a WAL. The server must neither
    // bind its socket nor create the directory; a build that serves is
    // killed rather than left listening.
    let base = std::env::temp_dir().join(format!("probcon-cli-misspelt-{}", std::process::id()));
    let (socket, wal) = (base.join("serve.sock"), base.join("wal"));
    let mut serve = Command::new(env!("CARGO_BIN_EXE_probcon"))
        .args([
            "serve",
            "--listen",
            &format!("unix:{}", socket.display()),
            "--jornal-dir",
            wal.to_str().expect("utf8 path"),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = serve.try_wait().expect("waits") {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            let _ = serve.kill();
            let _ = serve.wait();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut serve.stderr.take().expect("piped"), &mut stderr)
        .expect("stderr");
    assert_eq!(status.and_then(|s| s.code()), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown option --jornal-dir for serve"),
        "{stderr}"
    );
    assert!(!socket.exists() && !wal.exists() && !base.exists());
}

#[test]
fn generate_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let json = dir.join("g.json");
    let dot = dir.join("g.dot");

    let out = probcon(&[
        "generate",
        "--seed",
        "7",
        "--out",
        json.to_str().expect("utf8 path"),
        "--dot",
        dot.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{:?}", out);
    assert!(json.exists() && dot.exists());
    assert!(std::fs::read_to_string(&dot)
        .expect("dot written")
        .starts_with("digraph"));

    let out = probcon(&["analyze", json.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("repetition vector"));
    assert!(stdout.contains("period"));
    assert!(stdout.contains("buffer tokens"));
}

#[test]
fn estimate_and_simulate_agree_roughly() {
    let est = probcon(&[
        "estimate",
        "--seed",
        "2007",
        "--apps",
        "2",
        "--use-case",
        "3",
    ]);
    assert!(est.status.success(), "{:?}", est);
    let sim = probcon(&[
        "simulate",
        "--seed",
        "2007",
        "--apps",
        "2",
        "--use-case",
        "3",
        "--horizon",
        "50000",
    ]);
    assert!(sim.status.success(), "{:?}", sim);
    let est_out = String::from_utf8_lossy(&est.stdout);
    let sim_out = String::from_utf8_lossy(&sim.stdout);
    assert!(est_out.contains("use-case {0,1}"));
    assert!(sim_out.contains("iterations"));
}

#[test]
fn estimate_validates_inputs() {
    for bad in [
        vec!["estimate", "--seed", "1", "--apps", "0", "--use-case", "1"],
        vec!["estimate", "--seed", "1", "--apps", "2", "--use-case", "0"],
        vec!["estimate", "--seed", "1", "--apps", "2", "--use-case", "9"],
        vec!["estimate", "--seed", "x", "--apps", "2", "--use-case", "1"],
        vec![
            "estimate",
            "--seed",
            "1",
            "--apps",
            "2",
            "--use-case",
            "1",
            "--method",
            "bogus",
        ],
        // A zeroth-order truncation is not a method.
        vec![
            "estimate",
            "--seed",
            "1",
            "--apps",
            "2",
            "--use-case",
            "1",
            "--method",
            "order-0",
        ],
        vec![
            "signoff", "--seed", "1", "--apps", "2", "--method", "order-0",
        ],
        vec!["generate", "--seed", "1", "--actors", "0"],
    ] {
        assert_rejected(&bad);
    }
}

#[test]
fn fleet_bench_warm_cache_reports_warm_vs_cold_hit_rates() {
    let out = probcon(&[
        "fleet-bench",
        "--requests",
        "120",
        "--apps",
        "3",
        "--actors",
        "4",
        "--groups",
        "2",
        "--warm-cache",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "warmed 7 estimates",
        "hit rate warm",
        "cold baseline",
        "cached",
        "metered",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }
    // Warming covers every estimate in the stream: zero cache misses.
    assert!(
        stdout.contains("100.0% hit rate warm"),
        "warmed run must serve all estimate traffic from the cache:\n{stdout}"
    );
    // Too many apps would enumerate 2^n - 1 use-cases; refused.
    let out = probcon(&[
        "fleet-bench",
        "--requests",
        "10",
        "--apps",
        "13",
        "--warm-cache",
    ]);
    assert!(!out.status.success(), "{:?}", out);
}

#[test]
fn fleet_bench_records_journal_and_replay_verifies_it() {
    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let journal = dir.join("fleet.jsonl");

    let out = probcon(&[
        "fleet-bench",
        "--requests",
        "150",
        "--apps",
        "3",
        "--actors",
        "4",
        "--groups",
        "3",
        "--capacity",
        "2",
        "--policy",
        "affinity",
        "--journal",
        journal.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "fleet-bench",
        "affinity routing",
        "req/s",
        "journal entries",
        "group0",
        "admitted",
        "rebalances",
        "wrote",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }
    assert!(journal.exists());

    // The recorded journal must replay outcome-for-outcome equivalent.
    let out = probcon(&["replay", journal.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EQUIVALENT"), "{stdout}");
    assert!(stdout.contains("0 diverged"), "{stdout}");

    // A tampered journal must fail the checksum and exit non-zero.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let corrupted = dir.join("fleet-corrupt.jsonl");
    std::fs::write(&corrupted, text.replace("Admitted", "admitteD")).expect("written");
    let out = probcon(&["replay", corrupted.to_str().expect("utf8 path")]);
    assert!(!out.status.success(), "tampered journal must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum"), "{stderr}");
}

#[test]
fn fleet_bench_and_replay_validate_inputs() {
    let recorded = record_plan_journal("zero-actors.jsonl");
    let text = std::fs::read_to_string(&recorded).expect("journal written");
    assert!(text.contains("\"actors\":4"), "{text}");
    let zero_actors = recorded.with_file_name("zero-actors-edited.jsonl");
    std::fs::write(
        &zero_actors,
        text.replacen("\"actors\":4", "\"actors\":0", 1),
    )
    .expect("written");
    let zero_actors = zero_actors.to_str().expect("utf8 path").to_string();
    let never_bound = format!(
        "unix:{}",
        std::env::temp_dir()
            .join("probcon-cli-test")
            .join("never-bound.sock")
            .display()
    );
    for bad in [
        vec!["fleet-bench"],
        vec!["fleet-bench", "--requests", "0"],
        vec!["fleet-bench", "--requests", "10", "--threads", "0"],
        vec!["fleet-bench", "--requests", "10", "--apps", "0"],
        vec!["fleet-bench", "--requests", "10", "--groups", "0"],
        vec!["fleet-bench", "--requests", "10", "--policy", "bogus"],
        // --client announces an identity to a remote server; local runs
        // have no handshake to carry it.
        vec!["fleet-bench", "--requests", "10", "--client", "alpha"],
        // --wire and --connections shape the remote transport; without
        // --connect there is no wire to shape.
        vec!["fleet-bench", "--requests", "10", "--wire", "binary"],
        vec!["fleet-bench", "--requests", "10", "--connections", "4"],
        vec!["fleet-bench", "--requests", "10", "--actors", "0"],
        vec!["serve", "--listen", &never_bound, "--actors", "0"],
        vec!["replay"],
        vec!["replay", "/nonexistent/journal.jsonl"],
        // A journal header naming a workload no generator can build.
        vec!["replay", &zero_actors],
        vec!["plan", &zero_actors],
    ] {
        assert_rejected(&bad);
    }
}

/// Records the seeded fleet-bench journal the plan tests replay.
fn record_plan_journal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let journal = dir.join(name);
    let out = probcon(&[
        "fleet-bench",
        "--requests",
        "150",
        "--apps",
        "3",
        "--actors",
        "4",
        "--groups",
        "2",
        "--capacity",
        "3",
        "--journal",
        journal.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    journal
}

#[test]
fn plan_identity_reports_zero_flips_and_halved_capacity_regresses() {
    let journal = record_plan_journal("plan.jsonl");
    let journal = journal.to_str().expect("utf8 path");

    // The recorded shape replays flip-free — and --fail-on-flips agrees.
    let out = probcon(&["plan", journal, "--fail-on-flips"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "0 flips",
        "recorded routing",
        "mean-util",
        "saturation windows",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }

    // Halving capacity turns served admissions away: at least one
    // admitted-now-rejected flip, reported per event.
    let out = probcon(&["plan", journal, "--capacity-scale", "0.5"]);
    assert!(out.status.success(), "flips are data, not failure: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("admitted-now-rejected") && !stdout.contains("(0 admitted-now-rejected"),
        "halved capacity must regress at least one admission:\n{stdout}"
    );
    assert!(stdout.contains("FLIP seq"), "{stdout}");

    // ... and --fail-on-flips makes that an exit-1 for CI gates.
    let out = probcon(&[
        "plan",
        journal,
        "--capacity-scale",
        "0.5",
        "--fail-on-flips",
    ]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--fail-on-flips"), "{stderr}");

    // --json emits the machine-readable report.
    let out = probcon(&["plan", journal, "--json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["\"flips\"", "\"shape\"", "\"mean_utilisation\""] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }
}

#[test]
fn plan_sweep_runs_grid_in_parallel_and_prints_frontier() {
    let journal = record_plan_journal("plan-sweep.jsonl");
    let out = probcon(&[
        "plan",
        journal.to_str().expect("utf8 path"),
        "--sweep",
        "--groups",
        "1..3",
        "--capacity-scale",
        "0.5..1.5",
        "--scale-steps",
        "3",
        "--workers",
        "8",
        "--flip-budget",
        "2",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "on 8 workers",
        "frontier",
        "smallest clean",
        "verdict",
        "a->r",
        "regression budget 2",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }
    // The identity shape sits in the grid, so a clean shape always exists.
    assert!(!stdout.contains("no candidate shape"), "{stdout}");
}

/// `probcon plan` over the golden journal (a checkpoint with group
/// overrides and an `AddGroup` resize, so the plans go through the restore
/// and resize paths), with `args` after the path; stdout on success.
fn plan_golden(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_probcon"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["plan", "tests/fixtures/journal.jsonl"])
        .args(args)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "plan {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn plan_of_the_golden_journal_reproduces_the_recorded_reports() {
    // Recorded by an earlier build: the identity plan, a reshaped one and
    // a sweep (without its wall-clock line) must not move a byte.
    assert_eq!(
        plan_golden(&["--json"]),
        include_str!("fixtures/plan_identity.txt")
    );
    assert_eq!(
        plan_golden(&[
            "--groups",
            "3",
            "--capacity-scale",
            "2",
            "--policy",
            "round-robin",
            "--json",
        ]),
        include_str!("fixtures/plan_reshaped.txt")
    );
    let sweep = plan_golden(&["--sweep", "--groups", "1..3", "--capacity-scale", "0.5..2"]);
    let untimed: String = sweep
        .lines()
        .filter(|line| !line.starts_with("sweep: "))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(untimed, include_str!("fixtures/plan_sweep.txt"));
}

#[test]
fn replay_refuses_a_header_past_the_fleet_size_cap() {
    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let golden = include_str!("fixtures/journal.jsonl");
    let (header, rest) = golden.split_once('\n').expect("header line");
    // One group of 10^12 shards, or 10^12 groups named by the summary
    // fields alone: each once made `replay` abort allocating controllers.
    let deep = header.replacen(
        r#"{"name":"group-0","shards":1,"#,
        r#"{"name":"group-0","shards":1000000000000,"#,
        1,
    );
    let (summary, _) = header.split_once(r#","group_shapes""#).expect("shapes");
    let wide = format!(
        "{}{}",
        summary.replacen(r#""groups":2,"#, r#""groups":1000000000000,"#, 1),
        r#","group_shapes":[]}"#
    );
    for (name, header, count) in [
        ("deep-group.jsonl", deep, "1000000000001"),
        ("wide-fleet.jsonl", wide, "1000000000000"),
    ] {
        assert_ne!(header.as_str(), golden.split('\n').next().unwrap());
        let path = dir.join(name);
        std::fs::write(&path, format!("{header}\n{rest}")).expect("written");
        let path = path.to_str().expect("utf8 path");
        assert_rejected(&["replay", path]);
        let stderr = String::from_utf8_lossy(&probcon(&["replay", path]).stderr).into_owned();
        assert!(
            stderr.contains(&format!("{count} admission controllers")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn plan_and_replay_refuse_a_recorded_group_of_no_shards() {
    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let golden = include_str!("fixtures/journal.jsonl");
    let edited = golden.replacen(
        r#"{"name":"group-0","shards":1,"#,
        r#"{"name":"group-0","shards":0,"#,
        1,
    );
    assert_ne!(edited, golden);
    let path = dir.join("zero-shards.jsonl");
    std::fs::write(&path, edited).expect("written");
    let path = path.to_str().expect("utf8 path");
    for command in ["plan", "replay"] {
        assert_rejected(&[command, path]);
        let stderr = String::from_utf8_lossy(&probcon(&[command, path]).stderr).into_owned();
        assert!(
            stderr.contains("group group-0 has 0 shard(s)"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn plan_validates_inputs() {
    let journal = record_plan_journal("plan-validate.jsonl");
    let journal = journal.to_str().expect("utf8 path");
    for bad in [
        vec!["plan"],
        vec!["plan", "/nonexistent/journal.jsonl"],
        vec!["plan", journal, "--groups", "0"],
        vec!["plan", journal, "--capacity-scale", "-1"],
        vec!["plan", journal, "--routing", "bogus"],
        vec!["plan", journal, "--policy", "bogus"],
        // Ranges and sweep-only flags need --sweep.
        vec!["plan", journal, "--groups", "1..3"],
        vec!["plan", journal, "--workers", "4"],
        vec!["plan", journal, "--sweep", "--workers", "0"],
    ] {
        assert_rejected(&bad);
    }
}

#[test]
fn replay_divergence_details_land_on_stderr_before_exit() {
    use probcon::runtime::{DecisionEvent, Journal, JournalHeader, JournalOutcome};
    use probcon::sdf::Rational;

    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("divergent.jsonl");

    // A journal claiming app 0 was admitted with a period of 1 — no real
    // replay can reproduce that, so seq 0 must diverge.
    let journal = Journal::new(JournalHeader {
        seed: 1,
        apps: 2,
        actors: 4,
        groups: 1,
        shards_per_group: 1,
        capacity_per_shard: 2,
        ..JournalHeader::default()
    });
    journal.append(DecisionEvent::Admit {
        group: 0,
        app_index: 0,
        required_throughput: None,
        outcome: JournalOutcome::Admitted {
            resident: 0,
            predicted_period: Rational::integer(1),
        },
        affinity: None,
    });
    journal.write_to(&path).expect("writes");

    let out = probcon(&["replay", path.to_str().expect("utf8 path")]);
    assert!(!out.status.success(), "divergence must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The details — sequence number, expected vs got — are on stderr, in
    // full, before the exit; and a decided divergence is not a usage
    // error, so the usage text stays off the output.
    assert!(
        stderr.contains("replay divergence at seq 0"),
        "missing seq detail in stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("expected `admitted period 1`"),
        "missing expected outcome in stderr:\n{stderr}"
    );
    assert!(stderr.contains("got `admitted period"), "{stderr}");
    assert!(
        stderr.contains("diverged from the recording in 1 of 1 decisions"),
        "{stderr}"
    );
    assert!(!stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn journal_split_and_merge_roundtrip_via_cli() {
    use probcon::platform::SystemSpec;
    use probcon::runtime::{
        AdmissionRequest, AdmissionService, ClientScope, FleetConfig, FleetManager, JournalHeader,
        RoutingPolicy,
    };
    use probcon::sdf::GeneratorConfig;

    let dir = std::env::temp_dir().join("probcon-cli-test").join("split");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    // A replayable two-client recording: real fleet traffic, with each
    // decision journaled under the thread's client scope — exactly what a
    // RemoteServer does per connection.
    let spec: SystemSpec =
        probcon::experiments::workload::workload_with(1, 2, &GeneratorConfig::with_actors(4))
            .expect("workload builds");
    let header = JournalHeader {
        seed: 1,
        apps: 2,
        actors: 4,
        ..JournalHeader::default()
    };
    let fleet = FleetManager::with_header(
        spec,
        FleetConfig::uniform(1, 1, 4, RoutingPolicy::LeastUtilised),
        header.clone(),
    )
    .expect("fleet builds");
    let admit = |app: usize| {
        fleet
            .admit(&AdmissionRequest::new(app))
            .unwrap()
            .resident()
            .unwrap()
    };
    let r0 = {
        let _alpha = ClientScope::enter("alpha");
        admit(0)
    };
    let r1 = {
        let _beta = ClientScope::enter("beta");
        admit(1)
    };
    {
        let _alpha = ClientScope::enter("alpha");
        fleet.release(r0).unwrap();
    }
    {
        let _beta = ClientScope::enter("beta");
        fleet.release(r1).unwrap();
    }
    let recording = dir.join("two-clients.jsonl");
    fleet.journal().write_to(&recording).expect("writes");

    // Split: one valid journal per client.
    let out = probcon(&[
        "journal",
        "split",
        recording.to_str().expect("utf8 path"),
        "--out-dir",
        dir.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 client(s)"), "{stdout}");
    let alpha = dir.join("two-clients.client-alpha.jsonl");
    let beta = dir.join("two-clients.client-beta.jsonl");
    assert!(alpha.exists() && beta.exists(), "{stdout}");

    // Merge reconstructs the original interleaving...
    let merged = dir.join("merged.jsonl");
    let out = probcon(&[
        "journal",
        "merge",
        alpha.to_str().expect("utf8 path"),
        beta.to_str().expect("utf8 path"),
        "--out",
        merged.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");

    // ... which replays outcome-for-outcome equivalent.
    let out = probcon(&["replay", merged.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EQUIVALENT"), "{stdout}");

    // Incompatible headers refuse to merge, naming the difference.
    let other = probcon::runtime::Journal::new(JournalHeader { seed: 99, ..header });
    let other_path = dir.join("other-seed.jsonl");
    other.write_to(&other_path).expect("writes");
    let out = probcon(&[
        "journal",
        "merge",
        alpha.to_str().expect("utf8 path"),
        other_path.to_str().expect("utf8 path"),
        "--out",
        dir.join("nope.jsonl").to_str().expect("utf8 path"),
    ]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("seed"), "{stderr}");

    // Subcommand validation.
    for bad in [
        vec!["journal"],
        vec!["journal", "frobnicate"],
        vec!["journal", "split"],
        vec!["journal", "merge", "a.jsonl"],
    ] {
        assert_rejected(&bad);
    }
}

#[test]
fn journal_split_sanitizes_hostile_client_ids() {
    use probcon::runtime::{ClientScope, DecisionEvent, Journal, JournalHeader};

    let dir = std::env::temp_dir()
        .join("probcon-cli-test")
        .join("split-hostile");
    let out_dir = dir.join("parts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");

    // Client ids are wire-supplied and untrusted: a path-traversal id must
    // not steer the split's write outside --out-dir, and two ids that
    // sanitize identically must not overwrite each other.
    let journal = Journal::new(JournalHeader::default());
    for client in ["../../escape", ".._.._escape", "ok-name"] {
        let _scope = ClientScope::enter(client);
        journal.append(DecisionEvent::Release { resident: 0 });
    }
    let recording = dir.join("hostile.jsonl");
    journal.write_to(&recording).expect("writes");

    let out = probcon(&[
        "journal",
        "split",
        recording.to_str().expect("utf8 path"),
        "--out-dir",
        out_dir.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    // Every split file landed inside --out-dir — nothing above it.
    let written: Vec<String> = std::fs::read_dir(&out_dir)
        .expect("out dir exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(written.len(), 3, "{written:?}");
    assert!(
        !dir.join("escape.jsonl").exists() && !dir.join("hostile.client-ok-name.jsonl").exists(),
        "no file may escape the out dir"
    );
    assert!(written.iter().any(|n| n.contains("ok-name")), "{written:?}");
    // The two hostile ids sanitize to the same stem; the collision gets a
    // numeric suffix instead of overwriting.
    assert!(
        written.iter().any(|n| n.ends_with("-2.jsonl")),
        "{written:?}"
    );
}

#[test]
fn analyze_rejects_garbage_file() {
    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json").expect("written");
    let out = probcon(&["analyze", bad.to_str().expect("utf8 path")]);
    assert!(!out.status.success());
}

/// The value under `key` of a JSON object.
fn field<'a>(object: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
    let serde::Value::Object(fields) = object else {
        panic!("not an object")
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1
}

/// Element `i` of a JSON array.
fn item(array: &mut serde::Value, i: usize) -> &mut serde::Value {
    let serde::Value::Array(items) = array else {
        panic!("not an array")
    };
    &mut items[i]
}

/// The execution time of a JSON graph's first actor.
fn first_time(graph: &mut serde::Value) -> &mut serde::Value {
    field(item(field(graph, "actors"), 0), "execution_time")
}

#[test]
fn analyze_refuses_inconsistent_graph_files_without_panicking() {
    use serde::Value;
    let dir = std::env::temp_dir().join(format!("probcon-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let good = dir.join("g.json");
    let good = good.to_str().expect("utf8 path");
    let out = probcon(&["generate", "--seed", "7", "--actors", "3", "--out", good]);
    assert!(out.status.success(), "{out:?}");
    let tree: Value =
        serde_json::from_str(&std::fs::read_to_string(good).expect("read")).expect("json");
    assert!(probcon(&["analyze", good]).status.success());

    for name in [
        "adjacency",
        "src",
        "zero-denominator",
        "negative-time",
        "overflowing-times",
    ] {
        let mut hostile = tree.clone();
        match name {
            "adjacency" => {
                if let Value::Array(channels) = item(field(&mut hostile, "incoming"), 0) {
                    channels.push(Value::Int(99));
                }
            }
            "src" => *field(item(field(&mut hostile, "channels"), 0), "src") = Value::Int(42),
            "zero-denominator" => *field(first_time(&mut hostile), "denom") = Value::Int(0),
            "negative-time" => *field(first_time(&mut hostile), "numer") = Value::Int(-5),
            _ => {
                // Valid times whose common denominator overflows the
                // explorer's clock.
                let ten37 = 10i128.pow(37);
                for (actor, denom) in [(0, ten37 - 1), (1, ten37 - 3)] {
                    let time = field(item(field(&mut hostile, "actors"), actor), "execution_time");
                    *field(time, "numer") = Value::Int(1);
                    *field(time, "denom") = Value::Int(denom);
                }
            }
        }
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string(&hostile).expect("encodes")).expect("written");
        assert_rejected(&["analyze", path.to_str().expect("utf8 path")]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn serve_connect_journal_replay_roundtrip_over_uds() {
    // The full remote loop in one test: a `probcon serve --once` process
    // on a Unix domain socket, a `fleet-bench --connect` run against it
    // that fetches the server-side journal over the wire, and a
    // `probcon replay` verifying the fetched journal outcome-for-outcome.
    let dir = std::env::temp_dir().join("probcon-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let socket = dir.join(format!("serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let journal = dir.join(format!("remote-{}.jsonl", std::process::id()));
    let listen = format!("unix:{}", socket.display());

    let mut server = Command::new(env!("CARGO_BIN_EXE_probcon"))
        .args([
            "serve", "--listen", &listen, "--once", "--apps", "3", "--actors", "4", "--groups", "2",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    // Wait for the socket to appear (the server binds before accepting).
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(socket.exists(), "server never bound {}", socket.display());

    let out = probcon(&[
        "fleet-bench",
        "--connect",
        &listen,
        "--requests",
        "200",
        "--journal",
        journal.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "remote domains",
        "req/s",
        "remote",
        "fleet",
        "metered",
        "fetched",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }

    // --once: the server exits by itself after the client disconnects.
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exit: {status:?}");

    // The journal recorded in the *server* process replays equivalently
    // in this one.
    let out = probcon(&["replay", journal.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EQUIVALENT"), "{stdout}");
    assert!(stdout.contains("0 diverged"), "{stdout}");
}

/// A `serve --journal-dir` restart takes its workload and shape from the
/// WAL's header: with no shape flags it recovers and keeps a log that
/// replays EQUIVALENT, and a shape flag is refused with an error naming
/// the header.
#[cfg(unix)]
#[test]
fn serve_restarts_from_the_wal_header_and_refuses_shape_flags() {
    let root = std::env::temp_dir().join(format!("probcon-cli-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("tmp dir");
    let wal = root.join("wal");
    let wal_str = wal.to_str().expect("utf8 path");
    let socket = root.join("serve.sock");
    let listen = format!("unix:{}", socket.display());

    // One `serve --once` run on the WAL, driven by 200 remote requests.
    let serve_once = |shape: &[&str]| -> String {
        let _ = std::fs::remove_file(&socket);
        let mut args = vec![
            "serve",
            "--listen",
            &listen,
            "--once",
            "--journal-dir",
            wal_str,
        ];
        args.extend_from_slice(shape);
        let server = Command::new(env!("CARGO_BIN_EXE_probcon"))
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("server starts");
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(socket.exists(), "server never bound {}", socket.display());
        let out = probcon(&["fleet-bench", "--connect", &listen, "--requests", "200"]);
        assert!(out.status.success(), "{out:?}");
        let out = server.wait_with_output().expect("server exits");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let banner = "serving 3 applications × 4 actors, 2 groups × 1 shards × capacity 2";

    let first = serve_once(&[
        "--apps",
        "3",
        "--actors",
        "4",
        "--groups",
        "2",
        "--capacity",
        "2",
    ]);
    assert!(first.contains(banner), "{first}");
    let restarted = serve_once(&[]);
    assert!(restarted.contains("recovered"), "{restarted}");
    assert!(restarted.contains(banner), "{restarted}");
    let out = probcon(&["replay", wal_str]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EQUIVALENT"), "{stdout}");

    let out = probcon(&[
        "serve",
        "--listen",
        &listen,
        "--once",
        "--journal-dir",
        wal_str,
        "--capacity",
        "4",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--capacity") && stderr.contains("header"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_bench_connect_rejects_local_fleet_flags_and_dead_endpoints() {
    for bad in [
        vec![
            "fleet-bench",
            "--connect",
            "unix:/tmp/x.sock",
            "--requests",
            "10",
            "--groups",
            "2",
        ],
        vec![
            "fleet-bench",
            "--connect",
            "unix:/tmp/x.sock",
            "--requests",
            "10",
            "--warm-cache",
        ],
        vec![
            "fleet-bench",
            "--connect",
            "bogus-address",
            "--requests",
            "10",
        ],
        // Nothing listening: a typed connect error, not a hang.
        vec![
            "fleet-bench",
            "--connect",
            "tcp:127.0.0.1:1",
            "--requests",
            "10",
        ],
        // An unknown wire mode fails before any connection is attempted.
        vec![
            "fleet-bench",
            "--connect",
            "unix:/tmp/x.sock",
            "--requests",
            "10",
            "--wire",
            "bogus",
        ],
        vec!["serve"],
        vec!["serve", "--listen", "bogus-address"],
        vec!["serve", "--listen", "tcp:127.0.0.1:0", "--wire", "bogus"],
    ] {
        assert_rejected(&bad);
    }
}

#[test]
fn fleet_bench_wal_dir_records_compacts_and_replays_identically() {
    let root = std::env::temp_dir().join(format!("probcon-cli-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("tmp dir");
    let wal = root.join("wal");
    let wal_str = wal.to_str().expect("utf8 path");

    // Record into a segmented WAL directory (tiny segments force rotation).
    let out = probcon(&[
        "fleet-bench",
        "--requests",
        "200",
        "--apps",
        "3",
        "--actors",
        "4",
        "--groups",
        "3",
        "--capacity",
        "2",
        "--journal-dir",
        wal_str,
        "--segment-entries",
        "32",
        "--fsync",
        "on-rotate",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wal:"), "{stdout}");
    assert!(wal.join("MANIFEST.json").exists());

    // The per-group occupancy a replay ends in (name, residents, capacity,
    // util) — the invariant that must survive compaction. Cumulative
    // admitted/rejected counters legitimately reset when history folds
    // into a snapshot, so only the state columns are compared.
    let group_state = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with("group") && !l.contains("capacity"))
            .map(|l| l.split_whitespace().take(4).collect::<Vec<_>>().join(" "))
            .collect()
    };

    // The WAL directory replays like any journal file.
    let out = probcon(&["replay", wal_str]);
    assert!(out.status.success(), "{out:?}");
    let before = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(before.contains("EQUIVALENT"), "{before}");
    assert!(!group_state(&before).is_empty(), "{before}");

    // ... and plans: the identity shape reports zero flips.
    let out = probcon(&["plan", wal_str, "--fail-on-flips"]);
    assert!(out.status.success(), "{out:?}");

    // Compaction shrinks the directory on disk.
    let dir_bytes = |p: &std::path::Path| -> u64 {
        std::fs::read_dir(p)
            .expect("readable")
            .map(|e| e.expect("entry").metadata().expect("meta").len())
            .sum()
    };
    let bytes_before = dir_bytes(&wal);
    let out = probcon(&["journal", "compact", wal_str]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compacted"), "{stdout}");
    let bytes_after = dir_bytes(&wal);
    assert!(
        bytes_after < bytes_before,
        "compaction must shrink: {bytes_before} -> {bytes_after}"
    );

    // Replay still verifies and lands the fleet in the SAME final per-group
    // occupancy as before compaction. (A fleet-bench run drains every
    // resident at end-of-run, so the folded snapshot is legitimately empty
    // of residents — snapshot *restore* with live residents is exercised by
    // the fleet_replay integration tests and the serve crash-recovery
    // smoke.)
    let out = probcon(&["replay", wal_str]);
    assert!(out.status.success(), "{out:?}");
    let after = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(after.contains("EQUIVALENT"), "{after}");
    assert_eq!(group_state(&before), group_state(&after));

    // The planner accepts the compacted WAL too: identity stays flip-free.
    let out = probcon(&["plan", wal_str, "--fail-on-flips"]);
    assert!(out.status.success(), "{out:?}");

    // fleet-bench records fresh runs: it refuses an existing WAL.
    let out = probcon(&["fleet-bench", "--requests", "10", "--journal-dir", wal_str]);
    assert!(
        !out.status.success(),
        "must refuse to clobber an existing WAL"
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// `journal split`/`merge` read single-file journals only: handed a WAL
/// directory they fail FAST with the typed `IsWalDirectory` error, which
/// names the limitation and the `journal compact --out` workaround — and
/// the workaround actually works.
#[test]
fn journal_split_and_merge_fail_fast_on_wal_dirs_with_workaround() {
    let root = std::env::temp_dir().join(format!("probcon-cli-waldir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("tmp dir");
    let wal = root.join("wal");
    let wal_str = wal.to_str().expect("utf8 path");

    let out = probcon(&[
        "fleet-bench",
        "--requests",
        "60",
        "--apps",
        "3",
        "--journal-dir",
        wal_str,
    ]);
    assert!(out.status.success(), "{out:?}");

    for args in [
        vec!["journal", "split", wal_str],
        vec!["journal", "merge", wal_str, wal_str, "--out", "/dev/null"],
    ] {
        let out = probcon(&args);
        assert!(!out.status.success(), "must refuse a WAL dir: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("segmented WAL directory"),
            "error must name the limitation: {stderr}"
        );
        assert!(
            stderr.contains("journal compact") && stderr.contains("--out"),
            "error must name the workaround: {stderr}"
        );
    }

    // The workaround the error points at: compact --out renders the WAL
    // into a flat file that split/replay accept.
    let flat = root.join("flat.jsonl");
    let flat_str = flat.to_str().expect("utf8 path");
    let out = probcon(&[
        "journal", "compact", wal_str, "--keep", "2", "--out", flat_str,
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("snapshot(s) retained"), "{stdout}");
    assert!(stdout.contains("rendered"), "{stdout}");
    let out = probcon(&["replay", flat_str]);
    assert!(out.status.success(), "{out:?}");
    let out = probcon(&["journal", "split", flat_str]);
    assert!(out.status.success(), "{out:?}");

    let _ = std::fs::remove_dir_all(&root);
}

/// `fleet-bench --autoscale` runs the elastic controller against the
/// benched fleet; its resizes are journaled, so the recording replays
/// and plans cleanly afterwards.
#[test]
fn fleet_bench_autoscale_journals_resizes_and_replays() {
    let root = std::env::temp_dir().join(format!("probcon-cli-autoscale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("tmp dir");
    let policy = root.join("policy.json");
    // An eager policy so even a short bench provokes scaling.
    std::fs::write(
        &policy,
        "{\"Target\":{\"low\":0.05,\"high\":0.3,\"grow_after\":1,\"shrink_after\":1,\
         \"cooldown\":0,\"min_capacity_per_shard\":1,\"max_capacity_per_shard\":16,\
         \"step\":1,\"add_group_at_max\":false,\"drain_at_min\":false}}",
    )
    .expect("policy file");
    let journal = root.join("run.jsonl");

    let out = probcon(&[
        "fleet-bench",
        "--requests",
        "400",
        "--apps",
        "3",
        "--capacity",
        "2",
        "--autoscale",
        policy.to_str().expect("utf8 path"),
        "--autoscale-interval",
        "1",
        "--journal",
        journal.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("autoscaling with policy"), "{stdout}");
    assert!(stdout.contains("autoscaler["), "{stdout}");

    // Whatever the controller did, the recording replays exactly and the
    // identity shape stays flip-free.
    let out = probcon(&["replay", journal.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{out:?}");
    let out = probcon(&[
        "plan",
        journal.to_str().expect("utf8 path"),
        "--fail-on-flips",
    ]);
    assert!(out.status.success(), "{out:?}");

    let _ = std::fs::remove_dir_all(&root);
}

/// `plan --policy-file` evaluates a scaling policy offline against a
/// recorded journal and reports the decision timeline.
#[test]
fn plan_policy_file_reports_the_policy_decision_timeline() {
    let journal = record_plan_journal("policy-eval");
    let journal = journal.to_str().expect("utf8 path");
    let root = std::env::temp_dir().join(format!("probcon-cli-planpol-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("tmp dir");
    let policy = root.join("policy.json");
    std::fs::write(
        &policy,
        "{\"Target\":{\"low\":0.05,\"high\":0.25,\"grow_after\":1,\"shrink_after\":4,\
         \"cooldown\":2,\"min_capacity_per_shard\":1,\"max_capacity_per_shard\":16,\
         \"step\":1,\"add_group_at_max\":false,\"drain_at_min\":false}}",
    )
    .expect("policy file");
    let policy = policy.to_str().expect("utf8 path");

    let out = probcon(&[
        "plan",
        journal,
        "--policy-file",
        policy,
        "--policy-every",
        "4",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("policy under evaluation"), "{stdout}");

    // Guard rails: no sweep combo, no orphan --policy-every, no garbage.
    for bad in [
        vec!["plan", journal, "--policy-file", policy, "--sweep"],
        vec!["plan", journal, "--policy-every", "4"],
        vec!["plan", journal, "--policy-file", "/nonexistent/policy.json"],
    ] {
        assert_rejected(&bad);
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn autoscale_flags_validate_inputs() {
    for bad in [
        // --autoscale-interval needs --autoscale; --autoscale is local-only.
        vec![
            "fleet-bench",
            "--requests",
            "10",
            "--autoscale-interval",
            "5",
        ],
        vec![
            "fleet-bench",
            "--requests",
            "10",
            "--connect",
            "tcp:127.0.0.1:1",
            "--autoscale",
            "/nonexistent/policy.json",
        ],
        vec![
            "fleet-bench",
            "--requests",
            "10",
            "--autoscale",
            "/nonexistent/policy.json",
        ],
        vec![
            "serve",
            "--listen",
            "tcp:127.0.0.1:0",
            "--autoscale-interval",
            "5",
        ],
        // journal compact --keep must be positive.
        vec!["journal", "compact", "/tmp", "--keep", "0"],
    ] {
        assert_rejected(&bad);
    }
}

#[test]
fn wal_flags_validate_inputs() {
    for bad in [
        // WAL tuning flags need --journal-dir.
        vec!["fleet-bench", "--requests", "10", "--fsync", "always"],
        vec!["fleet-bench", "--requests", "10", "--segment-entries", "64"],
        // ... and valid values.
        vec!["journal", "compact"],
        vec!["journal", "compact", "/nonexistent/wal-dir"],
    ] {
        assert_rejected(&bad);
    }
}

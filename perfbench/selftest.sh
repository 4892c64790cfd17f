#!/usr/bin/env bash
# The benchmark's self-test. Runs the quick mode of every workload, untraced
# and traced, at seed 2007 (every output check must pass and the JSON line
# must carry exactly the metrics BENCHMARK.json declares), then checks that
# a wrong expected hash and a diverging journal replay each fail the run.
# Run from the repository root: bash perfbench/selftest.sh
set -u
cd "$(dirname "$0")/.." || exit 1
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml || exit 1
cargo test --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml || exit 1
bench="$CARGO_TARGET_DIR/release/perfbench"
status=0
out=$(mktemp -d "${CARGO_TARGET_DIR}/selftest.XXXXXX")

for workload in device-admit signoff-sweep serve-remote; do
    for trace in 0 1; do
        log="$out/$workload-$trace.txt"
        if "$bench" --workload "$workload" --quick --trace "$trace" >"$log" \
            && python3 - "$log" "$trace" <<'PY'
import json, sys
log, trace = sys.argv[1], sys.argv[2]
result = json.loads(open(log).read().strip().splitlines()[-1])
declared = json.load(open("BENCHMARK.json"))["end_to_end" if trace == "0" else "per_layer"]
want = {m["name"]: m["unit"] for m in declared}
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
assert result["correct"] is True and result["attempted"] >= 1, result
assert got == want, (got, want)
PY
        then
            echo "ok    $workload --trace $trace"
        else
            echo "FAIL  $workload --trace $trace (see $log)"
            status=1
        fi
    done
done

if "$bench" --workload device-admit --quick --expect-hash 0x1 >"$out/wrong-hash.txt"; then
    echo "FAIL  a wrong expected hash passed"
    status=1
else
    echo "ok    a wrong expected hash fails the run"
fi
if "$bench" --workload serve-remote --quick --replay-capacity 1 >"$out/diverged.txt"; then
    echo "FAIL  a diverging replay passed"
    status=1
else
    echo "ok    a diverging replay fails the run"
fi

[ "$status" -eq 0 ] && rm -rf "$out"
exit "$status"

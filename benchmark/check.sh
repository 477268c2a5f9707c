#!/usr/bin/env bash
# Builds, lints and tests the benchmark package, then checks the benchmark
# against its own bounds: two sets of runs at the default seed must agree
# (virtual-clock metrics to the last digit, host-clock metrics within the
# bounds BENCHMARK.json fixes), a third set at seed 12 must pass every
# correctness check, every traced run must print every per-layer metric,
# and every oracle self-test must fail the run without printing metrics.
#
# Runs are sequential on purpose: the sandbox has two cores and a second
# process would show up in the first one's host-clock metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --locked --offline --manifest-path "$manifest"
cargo fmt --check --manifest-path "$manifest"
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/rstore-benchmark"
out=benchmark/out/check
mkdir -p "$out"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in $workloads; do
    echo "== $w"
    "$bin" --workload "$w" --seed 11 --seconds "$seconds" --trace 0 > "$out/$w.a"
    "$bin" --workload "$w" --seed 11 --seconds "$seconds" --trace 0 > "$out/$w.b"
    "$bin" --workload "$w" --seed 12 --seconds "$seconds" --trace 0 > "$out/$w.c"
    "$bin" --workload "$w" --seed 11 --seconds "$seconds" --trace 1 > "$out/$w.t"
    if "$bin" --workload "$w" --seed 11 --self-test > "$out/$w.selftest" 2> "$out/$w.selftest.err"; then
        echo "FAIL: $w --self-test exited 0" >&2
        exit 1
    fi
    if grep -q '"metrics"' "$out/$w.selftest"; then
        echo "FAIL: $w --self-test printed metrics" >&2
        exit 1
    fi
    echo "   self-test tripped: $(tail -n 2 "$out/$w.selftest.err" | head -n 1)"
done

python3 - "$out" <<'EOF'
import json, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
failures = []

def result(path):
    last = open(path).read().strip().splitlines()[-1]
    r = json.loads(last)
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, path
    return r["metrics"]

for w in (x["name"] for x in spec["workloads"]):
    a, b, c, t = (result(f"{out}/{w}.{x}") for x in "abct")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for run in (a, b, c):
            if name not in run or not run[name]["value"] > 0 or run[name]["unit"] != m["unit"]:
                failures.append(f"{w}: {name} missing, not positive or in the wrong unit")
        va, vb = a[name]["value"], b[name]["value"]
        # Virtual-clock metrics (and the attempt count) repeat per seed.
        if name.startswith("sim_") or name == "op_attempts_per_op":
            if va != vb:
                failures.append(f"{w}: {name} differs between identical runs: {va!r} vs {vb!r}")
        else:
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            if abs(worse) > bound:
                failures.append(f"{w}: {name} moved {worse:+.1%} between identical runs (bound {bound:.0%})")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in t]
    extra = [n for n in t if n not in {m["name"] for m in spec["per_layer"]}]
    if missing or extra:
        failures.append(f"{w}: traced run lacks {missing} / adds {extra}")
    # A layer's self cost is a difference of two noisy rungs: allow it to
    # dip below zero by 3 % of the rung it was subtracted from, no more.
    stack = ["fabric.ns_per_small_rt", "rdma.ns_per_read_128", "core.region.ns_per_read_128", "core.kv.ns_per_get_hinted"]
    for rung, name in zip(("fabric", "rdma", "core.region", "core.kv"), stack):
        if t[f"ladder.get128_self_ns.{rung}"]["value"] < -0.03 * t[name]["value"]:
            failures.append(f"{w}: ladder self cost of {rung} is negative")
    if w != "elastic_chaos" and t["core.client.ctrl_rpcs_per_kop"]["value"] != 0:
        failures.append(f"{w}: control RPCs on the data path")

if failures:
    print("\n".join("FAIL: " + f for f in failures), file=sys.stderr)
    sys.exit(1)
print("benchmark check: all runs agree within the benchmark's own bounds")
EOF

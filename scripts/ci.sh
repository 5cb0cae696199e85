#!/usr/bin/env bash
# CI for the hermetic workspace: everything runs --offline; a network
# fetch (i.e. any external dependency creeping back in) is a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: tests (count-floored) =="
# The full workspace suite includes the golden-report fixtures
# (tests/golden/) and the determinism-under-faults suite; both gate
# here. The passed-test count is compared against a checked-in floor
# so a suite cannot silently shrink or stop being discovered.
mkdir -p target
cargo test -q --workspace --offline | tee target/test-output.txt
passed=$(grep -Eo '[0-9]+ passed' target/test-output.txt | awk '{s += $1} END {print s + 0}')
floor=$(grep -Eo '^[0-9]+' reports/test_floor.txt | head -n1)
echo "tests passed: ${passed} (floor: ${floor})"
if [ "${passed}" -lt "${floor}" ]; then
  echo "test count ${passed} fell below the floor ${floor} (reports/test_floor.txt)" >&2
  exit 1
fi

echo "== lint =="
# The in-repo analyzer (DESIGN.md §8, §11): exits 1 on any deny finding
# not grandfathered by the fingerprint baseline. The JSON output is then
# spot-checked against the published schema (reports/lint-schema.json):
# schema_version 2 with per-finding reformat-stable fingerprints.
cargo run -q --release --offline -p apples-bench --bin xp -- \
  lint --json --baseline reports/lint_baseline.json | tee target/lint.json
for key in '"schema_version": 2' '"legacy"' '"deny"' '"warn"' '"suppressed"' '"findings"'; do
  if ! grep -q "${key}" target/lint.json; then
    echo "lint --json output is missing ${key} (see reports/lint-schema.json)" >&2
    exit 1
  fi
done
# Per-finding keys (fingerprint, legacy flag) only show up when there
# ARE findings, so check them against the known-bad fixture tree (which
# exits 1 by design — that exit is the fixture working, not a failure).
cargo run -q --release --offline -p apples-bench --bin xp -- \
  lint --json --root crates/lint/tests/fixtures/bad_workspace \
  > target/lint-fixture.json || true
for key in '"fingerprint"' '"legacy": false' '"rule"' '"severity"' '"snippet"'; do
  if ! grep -q "${key}" target/lint-fixture.json; then
    echo "fixture lint --json output is missing ${key} (see reports/lint-schema.json)" >&2
    exit 1
  fi
done

echo "== sanitizer: order invariants + perturbed byte-identity =="
# The dynamic half of the shard-safety analyzer (DESIGN.md §11): each
# worked-example scenario runs plain, order-checked, and with the
# seeded interleaving perturber shuffling every same-timestamp
# equivalence class; any byte divergence or invariant trip exits 1.
# Schedulers alternate so both disciplines stay under the sanitizer.
cargo run -q --release --offline -p apples-bench --bin xp -- \
  sanitize base-2c --scheduler wheel
cargo run -q --release --offline -p apples-bench --bin xp -- \
  sanitize smartnic --scheduler heap --severity 0.5
cargo run -q --release --offline -p apples-bench --bin xp -- \
  sanitize switch-2c --scheduler wheel --perturb-seed 7

echo "== shards: epoch-barrier runs are byte-identical to serial =="
# The sharded engine's identity gate (DESIGN.md §12): three shardable
# scenarios run at shard counts 1, 2, and 4; the plain run inside each
# sanitize invocation stays serial, so every invocation is a live
# serial-vs-sharded byte comparison (exit 1 on any divergence). The
# perturber is armed on every run, so the cluster x4 case doubles as the
# required sanitizer-perturbation-on-a-sharded-run check. Scaling
# efficiency itself is measured by the bench stage below and lands in
# BENCH_simnet.json under "single_run_scaling".
for n in 1 2 4; do
  cargo run -q --release --offline -p apples-bench --bin xp -- \
    sanitize cluster --shards "${n}" --severity 0.3
  cargo run -q --release --offline -p apples-bench --bin xp -- \
    sanitize rss --shards "${n}" --scheduler heap
  cargo run -q --release --offline -p apples-bench --bin xp -- \
    sanitize smartnic --shards "${n}" --perturb-seed 7
done

echo "== store: incremental experiment cache =="
# The content-addressed experiment store (DESIGN.md §13): a cold run
# populates target/store-ci, a warm run must be 100% hits (0 stale, 0
# miss, 0 torn) with byte-identical stdout, --no-cache must reproduce
# the same bytes while bypassing the store, flipping one fault-spec
# severity rung (via the sanctioned override) must re-run exactly that
# experiment's subtree, and `xp gc` must reap exactly the four
# override-keyed orphans it left behind.
rm -rf target/store-ci
XP=(cargo run -q --release --offline -p apples-bench --bin xp --)
"${XP[@]}" --store-dir target/store-ci --explain all \
  > target/store-cold.txt 2> target/store-cold-explain.txt
grep -q "re-ran 27/27 experiments" target/store-cold-explain.txt
"${XP[@]}" --store-dir target/store-ci --explain all \
  > target/store-warm.txt 2> target/store-warm-explain.txt
grep -q "0 stale, 0 miss, 0 torn" target/store-warm-explain.txt
grep -q "re-ran 0/27 experiments" target/store-warm-explain.txt
cmp target/store-cold.txt target/store-warm.txt
"${XP[@]}" --store-dir target/store-ci --no-cache all > target/store-fresh.txt
cmp target/store-cold.txt target/store-fresh.txt
APPLES_SEVERITY_OVERRIDE="robustness-verdict:moderate=0.55" \
  "${XP[@]}" --store-dir target/store-ci --explain all \
  > /dev/null 2> target/store-flip-explain.txt
grep -q "re-ran 1/27 experiments" target/store-flip-explain.txt
grep -q "stale run/robustness-verdict" target/store-flip-explain.txt
if grep "stale run/" target/store-flip-explain.txt | grep -qv "robustness-verdict"; then
  echo "severity flip dirtied an unrelated experiment subtree:" >&2
  grep "stale run/" target/store-flip-explain.txt >&2
  exit 1
fi
"${XP[@]}" --store-dir target/store-ci --explain all \
  > /dev/null 2> target/store-warm2-explain.txt
grep -q "re-ran 0/27 experiments" target/store-warm2-explain.txt
"${XP[@]}" gc --store-dir target/store-ci | tail -n 1 | tee target/store-gc.txt
grep -q "removed 4" target/store-gc.txt
"${XP[@]}" --store-dir target/store-ci --explain all \
  > /dev/null 2> target/store-warm3-explain.txt
grep -q "re-ran 0/27 experiments" target/store-warm3-explain.txt

echo "== perf sanity: scheduler + harness identity, relative baseline =="
# Quick micro-benchmark gated against the *measured* baseline
# (reports/baseline.json, recorded via --export-baseline): fails if the
# wheel/heap, fused/unfused, or serial/parallel identity checks break,
# if any scenario's CI falls below the recorded CI lower bound shrunk
# by its resolved max_drop (per-entry override > --max-drop > file
# defaults > built-in 0.15; the checked-in file ships 0.30 for shared
# runners), if forward-2stage/wheel drops under its absolute min_floor,
# or if any fused_speedup lands below 0.85.
cargo run -q --release --offline -p apples-bench --bin xp -- \
  bench --quick --out target/bench-quick.json \
  --baseline reports/baseline.json --strict \
  > /dev/null
# The post-rearchitecture identity sweep: all golden reports and the
# golden trace fixture must be byte-identical to the checked-in files
# (they run inside the tier-1 suite too; re-running them here makes the
# perf stage self-contained against a stale tier-1 skip).
cargo test -q --release --offline --test golden_reports | tail -n 2
cargo test -q --release --offline --test observability golden | tail -n 2

echo "== robustness: fault injection stays deterministic =="
# Re-runs the bench identity gate with the fault layer armed: every
# severity's serial/parallel and replay digests must agree bit-for-bit
# (the robustness section folds into identical_results, which the
# --baseline gate requires to be true). DESIGN.md §7 has the contract.
cargo run -q --release --offline -p apples-bench --bin xp -- \
  bench --quick --faults --out target/bench-faults.json \
  --baseline reports/baseline.json --strict \
  > /dev/null

echo "== observability: trace determinism + overhead ceiling =="
# A traced run is a pure function of (seed, spec): the same scenario
# exported twice — once per scheduler — must produce byte-identical
# Chrome trace files. Note: APPLES_TOOLCHAIN / APPLES_GIT_REV are left
# unset here on purpose; golden fixtures bake in the "unrecorded"
# fallback, and stamping real values is an opt-in for humans.
cargo run -q --release --offline -p apples-bench --bin xp -- \
  trace smartnic --severity 0.5 --ring 4096 --scheduler wheel \
  --out target/trace-wheel.json > /dev/null
cargo run -q --release --offline -p apples-bench --bin xp -- \
  trace smartnic --severity 0.5 --ring 4096 --scheduler heap \
  --out target/trace-heap.json > /dev/null
if ! cmp -s target/trace-wheel.json target/trace-heap.json; then
  echo "trace files differ across schedulers: tracing leaked schedule state" >&2
  exit 1
fi
# Flamegraph export smoke: a sharded diagnosed run must exit 0 (its
# measurement byte-identical to the unobserved reference) and emit
# well-formed folded stacks — every line `frames... <integer>`, with
# both the engine-phase and per-shard lane roots present.
cargo run -q --release --offline -p apples-bench --bin xp -- \
  profile cluster --shards 2 --out target/prof.folded > /dev/null
if [ ! -s target/prof.folded ]; then
  echo "xp profile emitted an empty folded-stack file" >&2
  exit 1
fi
if grep -qvE '^[^ ]+ [0-9]+$' target/prof.folded; then
  echo "malformed folded-stack lines in target/prof.folded:" >&2
  grep -vE '^[^ ]+ [0-9]+$' target/prof.folded >&2
  exit 1
fi
grep -q '^engine;dispatch ' target/prof.folded
grep -q '^shards;shard-1;barrier-wait ' target/prof.folded
# The diagnosis set's "cheap enough to leave on" budget (span profiler
# + sim-time metrics ring): the full bench already ran above; re-gate
# the quick bench with the obs ceiling so a hook-path regression fails
# CI (<5%, reports/obs_overhead.txt).
cargo run -q --release --offline -p apples-bench --bin xp -- \
  bench --quick --out target/bench-obs.json --check-obs reports/obs_overhead.txt \
  > /dev/null

echo "== perfbench smoke =="
# perfbench/ is a Cargo package of its own (perfbench/README.md), so no
# workspace build above compiles it and a simnet API change could break
# the benchmark unseen. One short traced run per sim workload must
# build, pass every output check, and end in "correct":true.
for wl in sim-ips sim-firewall; do
  python3 perfbench/run.py --workload "${wl}" --seed 1 --seconds 1 --trace 1 \
    > "target/perfbench-${wl}.txt"
  if ! tail -n 1 "target/perfbench-${wl}.txt" | grep -q '"correct":true'; then
    echo "perfbench ${wl} smoke is not correct (target/perfbench-${wl}.txt)" >&2
    exit 1
  fi
done

echo "== dependency hygiene: workspace members only =="
if cargo tree --offline -e normal --prefix none | grep -v '^apples' | grep -q '[^[:space:]]'; then
  echo "external crates found in cargo tree:" >&2
  cargo tree --offline -e normal --prefix none | grep -v '^apples' >&2
  exit 1
fi

echo "CI OK"

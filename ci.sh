#!/usr/bin/env bash
# Tier-1 verification, fully offline: the workspace has no external
# dependencies (dev- or otherwise), so this must pass with an empty cargo
# registry cache and no network.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# --workspace: a root `cargo build` builds only the `ena` library, so the
# binaries the smokes below run (target/release/ena among them) would
# otherwise be whatever an earlier build left there.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> simulator exactness properties: 2000 cases each, release build"
ENA_TESTKIT_CASES=2000 cargo test -q --release -p ena-gpu --test exactness run_matches_the_reference_loop
ENA_TESTKIT_CASES=2000 cargo test -q --release -p ena-noc --test oracle

echo "==> example smoke runs"
cargo run --release --example resilient_reconfiguration
cargo run --release --example fault_campaign
cargo run --release --example thermal_headroom
cargo run --release --example heterogeneous_dag
cargo run --release --example design_space_exploration

echo "==> figures smoke: every report must reproduce its golden byte for byte"
figures_dir=$(mktemp -d)
cargo run --release -p ena-bench --bin figures -- all --out "$figures_dir" >/dev/null
reports=0
for report in "$figures_dir"/*.txt; do
  name=$(basename "$report")
  if ! cmp "$report" "artifacts/$name"; then
    echo "ci.sh: figures $name diverged from artifacts/$name" >&2
    exit 1
  fi
  reports=$((reports + 1))
done
if [ "$reports" -ne 17 ]; then
  echo "ci.sh: figures all wrote $reports reports, expected 17" >&2
  exit 1
fi
echo "all $reports reports match artifacts/"
rm -rf "$figures_dir"

# Runs one sweep axis with --frontier at --jobs 1 (the caller-only pool)
# and at --jobs 2 (a threaded one): the two reports must agree on every
# line but the scheduling-dependent worker line and the job count the
# header names.
sweep_smoke_both_jobs() {
  local one_job two_jobs
  one_job=$(cargo run --release -p ena-cli --bin ena -- "$@" --frontier --jobs 1 | grep -v '^workers:')
  two_jobs=$(cargo run --release -p ena-cli --bin ena -- "$@" --frontier --jobs 2 | grep -v '^workers:')
  if ! diff <(echo "$one_job" | sed 's/ on [0-9]* jobs/ on N jobs/') \
    <(echo "$two_jobs" | sed 's/ on [0-9]* jobs/ on N jobs/'); then
    echo "ci.sh: '$* --jobs 1' and '$* --jobs 2' reports differ" >&2
    exit 1
  fi
}

echo "==> sweep smokes: every axis at --jobs 1 and 2"
sweep_smoke_both_jobs sweep
sweep_smoke_both_jobs multinode --sweep
sweep_smoke_both_jobs multinode --sweep --mtbf 96 --checkpoint-cost 3

echo "==> sweep frontier smoke: the fine paper-space frontier must match the golden report"
frontier_out=$(cargo run --release -p ena-cli --bin ena -- sweep --fine --frontier --jobs 1)
if ! diff <(echo "$frontier_out") artifacts/sweep_frontier.txt; then
  echo "ci.sh: fine sweep frontier diverged from artifacts/sweep_frontier.txt" >&2
  exit 1
fi

echo "==> fabric sweep smoke: the multinode and recovery frontiers must match the golden report"
if ! diff <(
  cargo run --release -p ena-cli --bin ena -- multinode --sweep --frontier --jobs 1
  cargo run --release -p ena-cli --bin ena -- multinode --sweep --checkpoint-cost 3 --frontier --jobs 1
) artifacts/fabric_sweeps.txt; then
  echo "ci.sh: fabric sweep reports diverged from artifacts/fabric_sweeps.txt" >&2
  exit 1
fi

echo "==> multinode campaign smoke: the seeded campaign must match the golden report"
cargo run --release -p ena-cli --bin ena -- multinode --nodes 8 --seed 0xC0FFEE >/dev/null
multinode_out=$(cargo run --release -p ena-cli --bin ena -- multinode --seed 0xC0FFEE)
if ! diff <(echo "$multinode_out") artifacts/multinode_campaign.txt; then
  echo "ci.sh: multinode campaign diverged from artifacts/multinode_campaign.txt" >&2
  exit 1
fi

echo "==> chaos smoke: the seeded serve-store campaign must hold every invariant and match the golden report"
rm -rf artifacts/chaos-cache
chaos_report=$(cargo run --release -p ena-cli --bin ena -- chaos --seed 0xC0FFEE --runs 2)
echo "$chaos_report" | grep '^chaos campaign\|^invariants:'
held=$(echo "$chaos_report" | grep -c '^invariants: all hold' || true)
if [ "$held" -ne 1 ]; then
  echo "ci.sh: the chaos campaign held its invariants $held times, expected once" >&2
  exit 1
fi
if ! diff <(echo "$chaos_report") artifacts/chaos_campaign.txt; then
  echo "ci.sh: chaos campaign diverged from artifacts/chaos_campaign.txt" >&2
  exit 1
fi

echo "==> fault campaign smoke: the seeded campaign must match the golden report"
# Pins the degraded-ring NoC replay (the delivered / dropped / latency
# line after every fault) byte for byte.
faults_out=$(cargo run --release -p ena-cli --bin ena -- faults --seed 0xC0FFEE)
if ! diff <(echo "$faults_out") artifacts/fault_campaign.txt; then
  echo "ci.sh: fault campaign diverged from artifacts/fault_campaign.txt" >&2
  exit 1
fi

echo "==> transient smoke: seeded campaign must match the golden report"
transient_out=$(cargo run --release -p ena-cli --bin ena -- faults --seed 0xC0FFEE --transient)
if ! diff <(echo "$transient_out") artifacts/transient_campaign.txt; then
  echo "ci.sh: transient campaign diverged from artifacts/transient_campaign.txt" >&2
  exit 1
fi

echo "==> serve smoke: cold mix, kill -9, warm restart must serve from the store"
rm -rf artifacts/serve-cache artifacts/serve-port
ENA=target/release/ena
serve_wait_port() {
  for _ in $(seq 1 100); do
    [ -s artifacts/serve-port ] && return 0
    sleep 0.1
  done
  echo "ci.sh: server never wrote artifacts/serve-port" >&2
  return 1
}
# Server A: cold. The client mix computes the coarse sweep, snapshots,
# then appends one more record past the snapshot.
$ENA serve --port 0 --port-file artifacts/serve-port --cache artifacts/serve-cache >/dev/null &
SERVE_PID=$!
serve_wait_port
$ENA client --port-file artifacts/serve-port \
  --script "SWEEP coarse; SNAPSHOT; EVAL 384 1500 4" >/dev/null
# Unclean death: every acknowledged record must already be durable.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
verify_out=$($ENA cache verify artifacts/serve-cache/campaign-*.sweep)
echo "$verify_out"
if ! echo "$verify_out" | grep -q 'torn_tail: false'; then
  echo "ci.sh: serve cache failed verify" >&2
  exit 1
fi
# Server B: warm restart on the survivor. The same mix must be ~all hits.
rm -f artifacts/serve-port
$ENA serve --port 0 --port-file artifacts/serve-port --cache artifacts/serve-cache >/dev/null &
SERVE_PID=$!
serve_wait_port
serve_out=$($ENA client --port-file artifacts/serve-port \
  --script "SWEEP coarse; EVAL 384 1500 4; STATS; SHUTDOWN")
wait "$SERVE_PID"
serve_line=$(echo "$serve_out" | grep '^cache: lookups=')
echo "warm $serve_line"
echo "$serve_line" | awk '{
  for (i = 1; i <= NF; i++) {
    split($i, kv, "=")
    if (kv[1] == "lookups") lookups = kv[2] + 0
    if (kv[1] == "hits") hits = kv[2] + 0
    if (kv[1] == "evals") evals = kv[2] + 0
    if (kv[1] == "waits") waits = kv[2] + 0
    if (kv[1] == "hit_rate") { sub(/%/, "", kv[2]); rate = kv[2] + 0 }
  }
  if (lookups != hits + evals + waits) {
    printf "ci.sh: serve accounting broken: %d != %d+%d+%d\n", lookups, hits, evals, waits > "/dev/stderr"
    exit 1
  }
  if (rate < 90.0) {
    printf "ci.sh: warm serve hit rate %s%% is below 90%%\n", rate > "/dev/stderr"
    exit 1
  }
}'

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ena-lint (determinism, robustness & concurrency static analysis)"
cargo run -q -p ena-lint -- --deny-warnings --emit-lock-graph artifacts/lock_graph.txt
cargo run -q -p ena-lint -- --deny-warnings --json > artifacts/lint.json
echo "wrote artifacts/lock_graph.txt and artifacts/lint.json"

echo "ci.sh: all checks passed"

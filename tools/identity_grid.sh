#!/usr/bin/env bash
# Output-identity grid: runs a fixed set of helios_sim experiments and
# writes every deterministic artifact (sweep JSON, trace, metrics, the
# printed result tables) into one directory. Two builds print the same
# results exactly when `diff -r` of their output directories is clean, so
# a refactor that claims "no behaviour change" can be checked by running
# this against the parent commit's binary and the new one.
#
# Usage: tools/identity_grid.sh <helios_sim> <out_dir>
#
# The five parts:
#   grid.json        all 7 protocols, seeds 1,2, 20 clients, 1 s + 3 s
#   crash.json       the recovery-smoke crash grid: DC1 down 2 s..4 s,
#                    client timeouts, serializability checked
#   loss.json        helios1/rc/2pc at 0% and 5% loss with 5% duplication,
#                    client timeouts on
#   shards.json      helios1/helios2 over 2 range shards
#   trace-<p>.*      --trace_out/--metrics_out runs of helios1, rc and 2pc
#
# Wall-clock timing goes to stderr only and is discarded.

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <helios_sim> <out_dir>" >&2
  exit 2
fi

sim="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
out="$2"
mkdir -p "$out"
cd "$out"
jobs="$(nproc 2>/dev/null || echo 4)"
all=helios0,helios1,helios2,heliosb,mf,rc,2pc

run_grid() {
  local name="$1"
  shift
  "$sim" "$@" --jobs="$jobs" --json_out="$name.json" >"$name.txt" 2>/dev/null
}

run_grid grid --protocols="$all" --seeds=1,2 --clients=20 \
  --warmup_s=1 --measure_s=3

run_grid crash --protocols="$all" --clients=10 --warmup_s=1 --measure_s=4 \
  --keys=500 --crash=1:2000:4000 --client_timeout_us=2000000 \
  --client_retries=10 --check_serializability

run_grid loss --protocols=helios1,rc,2pc --losses=0,0.05 --dup=0.05 \
  --clients=20 --warmup_s=1 --measure_s=2 --client_timeout_us=2000000 \
  --client_retries=10

run_grid shards --protocols=helios1,helios2 --seeds=7,8 --shards=2 \
  --shard_by=range --keys=2000 --clients=20 --warmup_s=1 --measure_s=2

pids=()
for p in helios1 rc 2pc; do
  "$sim" --protocol="$p" --clients=10 --warmup_s=1 --measure_s=2 \
    --trace_out="trace-$p.json" --metrics_out="metrics-$p.json" \
    >"trace-$p.txt" 2>/dev/null &
  pids+=("$!")
done
for pid in "${pids[@]}"; do wait "$pid"; done

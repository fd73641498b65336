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
# The parts:
#   grid.json        all 7 protocols, seeds 1,2, 20 clients, 1 s + 3 s
#   crash.json       the recovery-smoke crash grid: DC1 down 2 s..4 s,
#                    client timeouts, serializability checked
#   loss.json        helios1/rc/2pc at 0% and 5% loss with 5% duplication,
#                    client timeouts on
#   shards.json      helios1/helios2 over 2 range shards
#   shards-ro.json   helios1/helios2 over 2 hash shards with 30% read-only
#                    transactions: the cross-shard read-only merge
#   trace-<p>.*      --trace_out/--metrics_out runs of helios1, rc and 2pc
#   trace-rc-lossy.*       traced rc over a 5% lossy, duplicating WAN with
#                          a crash: reliable sessions, net.retransmit spans
#                          and baseline recovery
#   trace-sharded.*        traced helios1 over 2 range shards with a crash:
#                          the sharded metrics export and its recovery
#   trace-health.*         traced helios1 on example3 with a stall, a crash
#                          and --health: the health.* export
#   trace-sharded-health.* traced helios1 over 2 hash shards with read-only
#                          transactions, a stall, a crash and --health: the
#                          stall fan-out and each peer's phi as the max
#                          across shards
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

run_grid shards-ro --protocols=helios1,helios2 --seeds=7,8 --shards=2 \
  --keys=2000 --read_only=0.3 --theta=0.7 --clients=20 --warmup_s=1 \
  --measure_s=2

pids=()
run_traced() {
  local name="$1"
  shift
  "$sim" "$@" --trace_out="trace-$name.json" \
    --metrics_out="metrics-$name.json" >"trace-$name.txt" 2>/dev/null &
  pids+=("$!")
}
for p in helios1 rc 2pc; do
  run_traced "$p" --protocol="$p" --clients=10 --warmup_s=1 --measure_s=2
done
timeouts=(--client_timeout_us=2000000 --client_retries=10)
run_traced rc-lossy --protocol=rc --clients=10 --warmup_s=1 --measure_s=3 \
  --loss=0.05 --dup=0.05 --crash=1:1500:2500 "${timeouts[@]}"
run_traced sharded --protocol=helios1 --shards=2 --shard_by=range \
  --keys=2000 --clients=10 --warmup_s=1 --measure_s=3 --crash=1:1500:2500 \
  "${timeouts[@]}"
run_traced health --protocol=helios1 --topology=example3 --clients=10 \
  --warmup_s=1 --measure_s=3 --stall=2:1500:3000 --crash=0:1500:2500 \
  --health "${timeouts[@]}"
run_traced sharded-health --protocol=helios1 --shards=2 --keys=2000 \
  --read_only=0.3 --clients=10 --warmup_s=1 --measure_s=3 \
  --stall=2:1500:3000 --crash=0:1500:2500 --health "${timeouts[@]}"
for pid in "${pids[@]}"; do wait "$pid"; done

#!/usr/bin/env bash
# shard_e2e.sh — the end-to-end gate behind CI's sharded reconstruction step.
#
# Boots two cscv_shardd workers on ephemeral loopback ports and proves the
# acceptance criteria of the sharded path (docs/SHARDING.md):
#
#   1. A coordinator run over both workers produces a volume BITWISE
#      IDENTICAL to the in-process LocalBackend reference with the same
#      shard boundaries (`cscv_cli shard-run --check`), for SIRT and for
#      OS-SART (whose stratum applies travel compacted per shard).
#   2. Killing one worker degrades gracefully: the coordinator reshards onto
#      the survivor and produces the SAME volume bitwise — the reduce order
#      is pinned by shard id, not by which process computed the partials.
#   3. With every worker dead, shard-run fails with the structured ShardError
#      exit code (4) instead of hanging.
#
# Usage: tools/shard_e2e.sh [BUILD_DIR]   (default: build)
# SHARD_E2E_WORKDIR overrides the scratch dir (CI points it at a path it
# uploads as an artifact on failure; default: a fresh mktemp -d).
set -euo pipefail

BUILD_DIR="${1:-build}"
SHARDD="$BUILD_DIR/tools/cscv_shardd"
CLI="$BUILD_DIR/tools/cscv_cli"
[ -x "$SHARDD" ] || { echo "shard_e2e: $SHARDD not built" >&2; exit 2; }
[ -x "$CLI" ] || { echo "shard_e2e: $CLI not built" >&2; exit 2; }

WORK="${SHARD_E2E_WORKDIR:-$(mktemp -d)}"
mkdir -p "$WORK"
W0_PID=""
W1_PID=""

cleanup() {
  for pid in "$W0_PID" "$W1_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
}
trap cleanup EXIT

fail() {
  echo "shard_e2e: FAIL: $*" >&2
  for log in "$WORK"/worker*.log; do
    [ -f "$log" ] || continue
    echo "--- $log ---" >&2
    sed 's/^/  worker| /' "$log" >&2
  done
  exit 1
}

start_worker() {  # start_worker <index>  -> sets W<index>_PID, writes port file
  local i="$1"
  "$SHARDD" --port=0 --port-file="$WORK/port$i.txt" --spill="$WORK/spill" \
    > "$WORK/worker$i.log" 2>&1 &
  local pid=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port$i.txt" ] && break
    kill -0 "$pid" 2>/dev/null || fail "worker $i died during startup"
    sleep 0.1
  done
  [ -s "$WORK/port$i.txt" ] || fail "worker $i never wrote its port file"
  eval "W${i}_PID=$pid"
}

start_worker 0
start_worker 1
P0="$(cat "$WORK/port0.txt")"
P1="$(cat "$WORK/port1.txt")"
ENDPOINTS="127.0.0.1:$P0,127.0.0.1:$P1"
echo "shard_e2e: two workers up on ports $P0 and $P1 (logs: $WORK)"

# 4 shards on 2 workers exercises the depth-1 pipelining (each connection
# carries two shards); --shards=4 pins the boundaries so every later run —
# whatever its worker count — reduces the identical partition.
JOB_FLAGS="--image=64 --views=48 --algorithm=sirt --iters=8 --shards=4"

echo "shard_e2e: healthy cluster run (+ bitwise --check vs local reference)"
"$CLI" shard-run --endpoints="$ENDPOINTS" $JOB_FLAGS --check \
  --save-volume="$WORK/vol_healthy.raw" || fail "healthy shard-run failed"

echo "shard_e2e: healthy cluster OS-SART run (+ bitwise --check vs local reference)"
"$CLI" shard-run --endpoints="$ENDPOINTS" --image=64 --views=48 --algorithm=ossart \
  --subsets=4 --iters=4 --shards=4 --check || fail "healthy OS-SART shard-run failed"

echo "shard_e2e: killing worker 1 (pid $W1_PID); coordinator must fail over"
kill -KILL "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
"$CLI" shard-run --endpoints="$ENDPOINTS" $JOB_FLAGS \
  --save-volume="$WORK/vol_failover.raw" || fail "failover shard-run failed"

echo "shard_e2e: comparing failover volume against the healthy one (bitwise)"
cmp "$WORK/vol_healthy.raw" "$WORK/vol_failover.raw" \
  || fail "failover volume differs from the healthy run"

echo "shard_e2e: killing worker 0; all-dead run must exit 4 (ShardError)"
kill -KILL "$W0_PID"
wait "$W0_PID" 2>/dev/null || true
W0_PID=""
set +e
DEAD_OUT="$("$CLI" shard-run --endpoints="$ENDPOINTS" $JOB_FLAGS \
  --connect-timeout=2 2>&1)"
DEAD_EXIT=$?
set -e
[ "$DEAD_EXIT" -eq 4 ] \
  || fail "all-dead shard-run exited $DEAD_EXIT (want 4): $DEAD_OUT"
echo "$DEAD_OUT" | grep -qi "shard" || fail "no structured shard error: $DEAD_OUT"

echo "shard_e2e: PASS"

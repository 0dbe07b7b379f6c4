#!/usr/bin/env bash
# Multi-process loopback acceptance test for the TCP transport.
#
# Launches four real `waved` daemons per query mode (count / distinct /
# basic / sum), points `wavecli query --connect` at them, and diffs the
# output byte-for-byte against `wavecli query --local` over the identical
# feed — the networked referee must answer bit-identically to the
# in-process one. Then kills a party and checks the documented partial-
# quorum behavior: totals degrade (exit 0, "degraded ... missing=1"),
# union counting fails closed (exit 4) — promptly, never a hang.
#
# Crash-safety legs (PR 4): SIGTERM drain exits 0 after a final durable
# checkpoint; kill -9 mid-ingest recovers from --state-dir with parity
# intact; a corrupt checkpoint.bin is rejected by CRC and full replay keeps
# parity; a WAVES_FAULTS total partition fails closed and the deployment
# answers bit-identically once faults subside; a restart with another
# --window rejects its checkpoint and replays in full.
#
# Usage: net_loopback_test.sh <path-to-waved> <path-to-wavecli>
#
# Feed parameters below must stay in lockstep with tools/feed_config.hpp
# defaults where not passed explicitly; we pass everything explicitly to
# both binaries so there is nothing to drift.
set -u -o pipefail

WAVED=${1:?usage: net_loopback_test.sh <waved> <wavecli>}
WAVECLI=${2:?usage: net_loopback_test.sh <waved> <wavecli>}

TMP=$(mktemp -d)
PIDS=()

cleanup() {
  local pid
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

PARTIES=4
# Identical stream/synopsis parameters for daemons and the local referee.
COMMON=(--parties "$PARTIES" --eps 0.1 --window 4096 --instances 3
        --seed 99 --items 20000 --stream-seed 1 --density 0.2 --noise 0.05
        --value-space 65536 --skew 1.2 --max-value 1000)

# start_daemons <role>: launches $PARTIES waved
# processes on ephemeral ports, waits for their READY lines, fills
# $ENDPOINTS and $PIDS.
start_daemons() {
  local role=$1 j log port
  PIDS=()
  ENDPOINTS=""
  for ((j = 0; j < PARTIES; ++j)); do
    log="$TMP/waved_${role}_${j}.log"
    # Truncate here, not in the background child: a log left by an earlier
    # leg must not be read for its stale READY port before the child runs.
    : >"$log"
    "$WAVED" --role "$role" --party-id "$j" --port 0 "${COMMON[@]}" \
      >"$log" 2>&1 &
    PIDS+=("$!")
  done
  for ((j = 0; j < PARTIES; ++j)); do
    log="$TMP/waved_${role}_${j}.log"
    port=""
    for _ in $(seq 1 200); do
      port=$(sed -n 's/.*WAVED READY .*port=\([0-9][0-9]*\).*/\1/p' "$log")
      [[ -n "$port" ]] && break
      sleep 0.05
    done
    if [[ -z "$port" ]]; then
      cat "$log" >&2
      fail "party $j (role=$role) never printed READY"
    fi
    ENDPOINTS="${ENDPOINTS:+$ENDPOINTS,}127.0.0.1:$port"
  done
}

stop_daemons() {
  local pid
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  PIDS=()
}

# --- Parity: every query mode, networked vs in-process, byte-for-byte. ---
for mode in count distinct basic sum; do
  start_daemons "$mode"
  "$WAVECLI" query --mode "$mode" --connect "$ENDPOINTS" "${COMMON[@]}" \
    >"$TMP/net_$mode.out" ||
    fail "networked $mode query exited $?"
  "$WAVECLI" query --mode "$mode" --local "${COMMON[@]}" \
    >"$TMP/local_$mode.out" ||
    fail "local $mode query exited $?"
  diff -u "$TMP/local_$mode.out" "$TMP/net_$mode.out" >&2 ||
    fail "$mode: networked answer differs from in-process answer"
  echo "PARITY $mode: $(cat "$TMP/net_$mode.out")"
  stop_daemons
done

# --- Keep-alive + delta steady state: 5 rounds over one client must ---
# --- print 5 identical lines, matching --local, for both delta roles. ---
# Round 1 bootstraps a full snapshot; rounds 2-5 ride the persistent
# connection and the delta/cache path, so this leg diffs the fast query
# path — not just the bootstrap fetch — against the in-process referee.
ROUNDS=5
for mode in count distinct; do
  start_daemons "$mode"
  "$WAVECLI" query --mode "$mode" --connect "$ENDPOINTS" "${COMMON[@]}" \
    --rounds "$ROUNDS" >"$TMP/net_ka_$mode.out" ||
    fail "multi-round networked $mode query exited $?"
  "$WAVECLI" query --mode "$mode" --local "${COMMON[@]}" \
    --rounds "$ROUNDS" >"$TMP/local_ka_$mode.out" ||
    fail "multi-round local $mode query exited $?"
  [[ $(wc -l <"$TMP/net_ka_$mode.out") -eq $ROUNDS ]] ||
    fail "$mode: expected $ROUNDS result lines, got \
$(wc -l <"$TMP/net_ka_$mode.out")"
  diff -u "$TMP/local_ka_$mode.out" "$TMP/net_ka_$mode.out" >&2 ||
    fail "$mode: keep-alive rounds differ from the in-process answer"
  echo "KEEP-ALIVE $mode: $ROUNDS rounds identical"
  stop_daemons
done

# --- Kill a party: totals degrade with widened error, exit 0. ---
start_daemons basic
kill "${PIDS[3]}" 2>/dev/null || true
wait "${PIDS[3]}" 2>/dev/null || true
start_s=$SECONDS
"$WAVECLI" query --mode basic --connect "$ENDPOINTS" "${COMMON[@]}" \
  --deadline-ms 300 --attempts 2 >"$TMP/degraded.out" ||
  fail "degraded basic query should still exit 0 (got $?)"
elapsed=$((SECONDS - start_s))
grep -q '^degraded	' "$TMP/degraded.out" ||
  fail "expected a 'degraded' line, got: $(cat "$TMP/degraded.out")"
grep -q 'missing=1' "$TMP/degraded.out" ||
  fail "expected missing=1, got: $(cat "$TMP/degraded.out")"
[[ $elapsed -le 30 ]] || fail "degraded query took ${elapsed}s — not bounded"
echo "DEGRADED basic: $(cat "$TMP/degraded.out") (${elapsed}s)"
stop_daemons

# --- Kill a party: union counting fails closed, exit 4, no hang. ---
start_daemons count
kill "${PIDS[3]}" 2>/dev/null || true
wait "${PIDS[3]}" 2>/dev/null || true
start_s=$SECONDS
set +e
"$WAVECLI" query --mode count --connect "$ENDPOINTS" "${COMMON[@]}" \
  --deadline-ms 300 --attempts 2 >"$TMP/failed.out" 2>"$TMP/failed.err"
rc=$?
set -e
elapsed=$((SECONDS - start_s))
[[ $rc -eq 4 ]] || fail "union count with a dead party must exit 4, got $rc"
grep -q 'fails closed' "$TMP/failed.err" ||
  fail "expected a 'fails closed' diagnostic, got: $(cat "$TMP/failed.err")"
[[ $elapsed -le 30 ]] || fail "failed query took ${elapsed}s — not bounded"
echo "FAIL-CLOSED count: rc=4 '$(cat "$TMP/failed.err")' (${elapsed}s)"
stop_daemons

# --- Crash safety: SIGTERM drains gracefully and persists a checkpoint. ---
STATE="$TMP/state"
mkdir -p "$STATE"
log="$TMP/drain.log"
"$WAVED" --role basic --party-id 0 "${COMMON[@]}" --state-dir "$STATE/p0" \
  >"$log" 2>&1 &
pid=$!
for _ in $(seq 1 200); do
  grep -q 'WAVED READY' "$log" && break
  sleep 0.05
done
grep -q 'WAVED READY' "$log" || { cat "$log" >&2; fail "drain: no READY"; }
kill -TERM "$pid"
wait "$pid"
rc=$?
[[ $rc -eq 0 ]] || fail "SIGTERM drain must exit 0, got $rc"
grep -q 'WAVED DRAINED' "$log" || fail "drain: no DRAINED line"
[[ -s "$STATE/p0/checkpoint.bin" ]] || fail "drain: no checkpoint written"
echo "DRAIN basic: exit 0, checkpoint $(stat -c%s "$STATE/p0/checkpoint.bin") bytes"

# --- kill -9 mid-ingest: restart recovers from the checkpoint and the ---
# --- recovered deployment stays byte-identical to the in-process referee. ---
rm -rf "$STATE/p0"
log="$TMP/crash.log"
"$WAVED" --role basic --party-id 0 "${COMMON[@]}" --state-dir "$STATE/p0" \
  --ingest-chunk 1000 --ingest-delay-ms 100 --checkpoint-every-items 2000 \
  >"$log" 2>&1 &
pid=$!
for _ in $(seq 1 200); do
  [[ -s "$STATE/p0/checkpoint.bin" ]] && break
  sleep 0.05
done
[[ -s "$STATE/p0/checkpoint.bin" ]] || fail "crash: no mid-ingest checkpoint"
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
grep -q 'WAVED READY' "$log" &&
  fail "crash: party finished ingest before kill -9 — pacing too fast"

# start_basic_with_state: four basic daemons, party 0 restarting from the
# crashed state dir (differential replay), the rest fresh.
start_basic_with_state() {
  local j log port
  PIDS=()
  ENDPOINTS=""
  for ((j = 0; j < PARTIES; ++j)); do
    log="$TMP/waved_recover_${j}.log"
    extra=()
    [[ $j -eq 0 ]] && extra=(--state-dir "$STATE/p0")
    : >"$log"  # no stale READY line from an earlier leg (see start_daemons)
    "$WAVED" --role basic --party-id "$j" --port 0 "${COMMON[@]}" \
      "${extra[@]}" >"$log" 2>&1 &
    PIDS+=("$!")
  done
  for ((j = 0; j < PARTIES; ++j)); do
    log="$TMP/waved_recover_${j}.log"
    port=""
    for _ in $(seq 1 200); do
      port=$(sed -n 's/.*WAVED READY .*port=\([0-9][0-9]*\).*/\1/p' "$log")
      [[ -n "$port" ]] && break
      sleep 0.05
    done
    if [[ -z "$port" ]]; then
      cat "$log" >&2
      fail "recovery party $j never printed READY"
    fi
    ENDPOINTS="${ENDPOINTS:+$ENDPOINTS,}127.0.0.1:$port"
  done
}

start_basic_with_state
grep -q 'WAVED RESTORED' "$TMP/waved_recover_0.log" ||
  fail "restarted party 0 did not restore its checkpoint"
cursor=$(sed -n 's/.*WAVED RESTORED .*cursor=\([0-9][0-9]*\).*/\1/p' \
  "$TMP/waved_recover_0.log")
[[ "$cursor" -gt 0 && "$cursor" -lt 20000 ]] ||
  fail "restored cursor $cursor should be mid-stream"
"$WAVECLI" query --mode basic --connect "$ENDPOINTS" "${COMMON[@]}" \
  >"$TMP/recovered.out" || fail "recovered basic query exited $?"
diff -u "$TMP/local_basic.out" "$TMP/recovered.out" >&2 ||
  fail "recovered deployment differs from the in-process answer"
echo "RECOVERED basic: cursor=$cursor, parity holds"
stop_daemons

# --- Corrupt checkpoint: CRC rejects it, full replay keeps parity. ---
printf '\xff' | dd of="$STATE/p0/checkpoint.bin" bs=1 seek=24 count=1 \
  conv=notrunc 2>/dev/null
start_basic_with_state
grep -q 'WAVED CHECKPOINT REJECTED reason=bad-crc' \
  "$TMP/waved_recover_0.log" ||
  fail "corrupt checkpoint must be rejected with reason=bad-crc: \
$(cat "$TMP/waved_recover_0.log")"
"$WAVECLI" query --mode basic --connect "$ENDPOINTS" "${COMMON[@]}" \
  >"$TMP/replayed.out" || fail "post-corruption basic query exited $?"
diff -u "$TMP/local_basic.out" "$TMP/replayed.out" >&2 ||
  fail "full-replay fallback differs from the in-process answer"
echo "CORRUPT-FALLBACK basic: rejected via CRC, parity holds"
stop_daemons

# --- Fault injection: total partition fails closed; once the faults ---
# --- subside the same daemons answer bit-identically again. ---
start_daemons count
set +e
WAVES_FAULTS="seed=5,drop=1.0" \
  "$WAVECLI" query --mode count --connect "$ENDPOINTS" "${COMMON[@]}" \
  --deadline-ms 300 --attempts 2 >"$TMP/faulted.out" 2>"$TMP/faulted.err"
rc=$?
set -e
[[ $rc -eq 4 ]] ||
  fail "union count under drop=1.0 must fail closed with exit 4, got $rc"
grep -q 'fails closed' "$TMP/faulted.err" ||
  fail "expected a 'fails closed' diagnostic, got: $(cat "$TMP/faulted.err")"
"$WAVECLI" query --mode count --connect "$ENDPOINTS" "${COMMON[@]}" \
  >"$TMP/healed.out" || fail "post-fault count query exited $?"
diff -u "$TMP/local_count.out" "$TMP/healed.out" >&2 ||
  fail "answer after faults subside differs from the in-process answer"
echo "FAULTS count: partition fails closed (rc=4), parity after healing"
stop_daemons

# --- kill -9 a paced daemon mid-ingest; the restarted ---
# --- deployment recovers from its checkpoint with parity intact. ---
rm -rf "$STATE/p0"
log="$TMP/io_crash.log"
"$WAVED" --role basic --party-id 0 "${COMMON[@]}" --state-dir "$STATE/p0" \
  --ingest-chunk 1000 --ingest-delay-ms 100 \
  --checkpoint-every-items 2000 >"$log" 2>&1 &
pid=$!
for _ in $(seq 1 200); do
  [[ -s "$STATE/p0/checkpoint.bin" ]] && break
  sleep 0.05
done
[[ -s "$STATE/p0/checkpoint.bin" ]] ||
  fail "io crash: no mid-ingest checkpoint"
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
start_basic_with_state
grep -q 'WAVED RESTORED' "$TMP/waved_recover_0.log" ||
  fail "restarted party 0 did not restore its checkpoint"
"$WAVECLI" query --mode basic --connect "$ENDPOINTS" "${COMMON[@]}" \
  >"$TMP/io_recovered.out" || fail "recovered query exited $?"
diff -u "$TMP/local_basic.out" "$TMP/io_recovered.out" >&2 ||
  fail "recovered deployment differs from the in-process answer"
echo "IO-CRASH: kill -9 -> restart -> parity holds"
stop_daemons

# --- Restart with another --window: the checkpoint no longer fits the ---
# --- party's waves, so it is rejected and the daemon replays in full. ---
for window in 1000 100000; do
  log="$TMP/window_$window.log"
  set +e
  "$WAVED" --role count --port 0 --instances 2 --window "$window" \
    --items 5000 --state-dir "$STATE/window" --serve-seconds 1 >"$log" 2>&1
  rc=$?
  set -e
  [[ $rc -eq 0 ]] ||
    { cat "$log" >&2; fail "count waved --window $window exited $rc"; }
  grep -q 'WAVED READY .*items=5000' "$log" ||
    fail "count waved --window $window never READY"
done
grep -q 'WAVED CHECKPOINT REJECTED reason=bad-body' "$TMP/window_100000.log" ||
  fail "a checkpoint from another --window must be rejected"
echo "WINDOW-RESTART count: checkpoint rejected, full replay, exit 0"
# The agg role, smaller window then larger: each run's checkpoint holds
# other than min(items, window) values for the next, so both are rejected.
for window in 1000 100 2000; do
  log="$TMP/agg_window_$window.log"
  set +e
  "$WAVED" --role agg --port 0 --window "$window" --items 5000 \
    --state-dir "$STATE/agg_window" --serve-seconds 0.3 >"$log" 2>&1
  rc=$?
  set -e
  [[ $rc -eq 0 ]] ||
    { cat "$log" >&2; fail "agg waved --window $window exited $rc"; }
  grep -q 'WAVED READY .*items=5000' "$log" ||
    fail "agg waved --window $window never READY"
  [[ $window -eq 1000 ]] ||
    grep -q 'WAVED CHECKPOINT REJECTED reason=bad-body' "$log" ||
    fail "agg waved --window $window must reject the old checkpoint"
done
echo "WINDOW-RESTART agg: smaller and larger window replay, exit 0"

# --- Continuous monitoring: hub + watcher parity, kill -9 epoch resync. ---
# Four count daemons (party 0 state-backed so its epoch persists), one
# `wavecli hub` pushing legs at them, and `wavecli watch` one-update runs
# diffed byte-for-byte against `wavecli query` polls of the same daemons.
# Then party 0 is kill -9'd mid-subscription and restarted on the same
# port: the bumped generation must surface as a HUB RESYNC line and the
# watcher must return to byte parity without touching the hub or watcher.
MON_STATE="$TMP/mon_state"
mkdir -p "$MON_STATE"
MON_PIDS=()
MON_PORTS=()
ENDPOINTS=""
for ((j = 0; j < PARTIES; ++j)); do
  log="$TMP/waved_mon_${j}.log"
  extra=()
  [[ $j -eq 0 ]] && extra=(--state-dir "$MON_STATE/p0")
  "$WAVED" --role count --party-id "$j" --port 0 "${COMMON[@]}" \
    "${extra[@]}" >"$log" 2>&1 &
  MON_PIDS+=("$!")
done
for ((j = 0; j < PARTIES; ++j)); do
  log="$TMP/waved_mon_${j}.log"
  port=""
  for _ in $(seq 1 200); do
    port=$(sed -n 's/.*WAVED READY .*port=\([0-9][0-9]*\).*/\1/p' "$log")
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  if [[ -z "$port" ]]; then
    cat "$log" >&2
    fail "monitor party $j never printed READY"
  fi
  MON_PORTS+=("$port")
  ENDPOINTS="${ENDPOINTS:+$ENDPOINTS,}127.0.0.1:$port"
done
PIDS=("${MON_PIDS[@]}")

"$WAVECLI" hub --mode count --connect "$ENDPOINTS" "${COMMON[@]}" \
  >"$TMP/hub.log" 2>&1 &
HUB_PID=$!
PIDS+=("$HUB_PID")
HUB_PORT=""
for _ in $(seq 1 200); do
  HUB_PORT=$(sed -n 's/.*HUB READY port=\([0-9][0-9]*\).*/\1/p' \
    "$TMP/hub.log")
  [[ -n "$HUB_PORT" ]] && break
  sleep 0.05
done
[[ -n "$HUB_PORT" ]] || { cat "$TMP/hub.log" >&2; fail "hub never READY"; }

# watch_matches_poll <tag>: one-update watch vs a polling query of the same
# daemons, byte-for-byte. Retried because push legs converge asynchronously
# (and report failed/degraded while a leg is still down).
watch_matches_poll() {
  local tag=$1
  "$WAVECLI" query --mode count --connect "$ENDPOINTS" "${COMMON[@]}" \
    >"$TMP/mon_poll_$tag.out" || fail "monitor polling query exited $?"
  local _i
  for _i in $(seq 1 100); do
    "$WAVECLI" watch --connect "127.0.0.1:$HUB_PORT" --mode count \
      "${COMMON[@]}" --updates 1 >"$TMP/mon_watch_$tag.out" 2>/dev/null
    diff -q "$TMP/mon_poll_$tag.out" "$TMP/mon_watch_$tag.out" \
      >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  diff -u "$TMP/mon_poll_$tag.out" "$TMP/mon_watch_$tag.out" >&2
  fail "watcher never reached byte parity with the polling query ($tag)"
}

watch_matches_poll before
echo "MONITOR count: watcher == poll ($(cat "$TMP/mon_watch_before.out"))"

kill -9 "${MON_PIDS[0]}" 2>/dev/null || true
wait "${MON_PIDS[0]}" 2>/dev/null || true
log="$TMP/waved_mon_0_gen2.log"
"$WAVED" --role count --party-id 0 --port "${MON_PORTS[0]}" "${COMMON[@]}" \
  --state-dir "$MON_STATE/p0" >"$log" 2>&1 &
MON_PIDS[0]=$!
PIDS+=("${MON_PIDS[0]}")
for _ in $(seq 1 200); do
  grep -q 'WAVED READY' "$log" && break
  sleep 0.05
done
grep -q 'WAVED READY' "$log" ||
  { cat "$log" >&2; fail "restarted monitor party never printed READY"; }

for _ in $(seq 1 200); do
  grep -q 'HUB RESYNC party=0' "$TMP/hub.log" && break
  sleep 0.05
done
grep -q 'HUB RESYNC party=0' "$TMP/hub.log" ||
  { cat "$TMP/hub.log" >&2; fail "hub never logged the epoch resync"; }

watch_matches_poll after
diff -u "$TMP/mon_poll_before.out" "$TMP/mon_poll_after.out" >&2 ||
  fail "deterministic replay should restore the pre-crash answer"
echo "MONITOR resync: epoch bump -> HUB RESYNC, watcher parity restored"

kill "$HUB_PID" 2>/dev/null || true
wait "$HUB_PID" 2>/dev/null || true
grep -q 'HUB DRAINED' "$TMP/hub.log" ||
  { cat "$TMP/hub.log" >&2; fail "hub did not drain cleanly"; }
for pid in "${MON_PIDS[@]}"; do
  kill "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done
PIDS=()

# --- Observability: remote scrape, aggregate top, trace stitch, flight ---
# --- recorder. A WAVES_OBS=OFF build still answers the scrape (with the ---
# --- "compiled out" stub), so only the content assertions are ON-only. ---
start_daemons count
first_ep=${ENDPOINTS%%,*}
"$WAVECLI" metrics --connect "$first_ep" >"$TMP/scrape_one.out" ||
  fail "metrics scrape of a live daemon exited $?"
if grep -q 'compiled out' "$TMP/scrape_one.out"; then
  echo "SCRAPE count: OBS-OFF stub answered; skipping content legs"
  stop_daemons
else
  "$WAVECLI" metrics --connect "$ENDPOINTS" >"$TMP/scrape_all.out" ||
    fail "multi-endpoint metrics scrape exited $?"
  grep -q '^waves_party_generation ' "$TMP/scrape_all.out" ||
    fail "scrape lacks waves_party_generation: $(head "$TMP/scrape_all.out")"
  [[ $(grep -c '^# party ' "$TMP/scrape_all.out") -eq $PARTIES ]] ||
    fail "expected $PARTIES '# party' headers in the multi-endpoint scrape"
  "$WAVECLI" metrics --connect "$ENDPOINTS" --format json \
    >"$TMP/scrape.json" || fail "json scrape exited $?"
  grep -q '"counters"' "$TMP/scrape.json" || fail "json scrape has no counters"
  "$WAVECLI" top --connect "$ENDPOINTS" >"$TMP/top.out" ||
    fail "wavecli top exited $?"
  grep -q "parties=$PARTIES" "$TMP/top.out" ||
    fail "top merged no family across all parties: $(head "$TMP/top.out")"
  echo "SCRAPE count: prom+json+top over $PARTIES daemons"

  # One query, one stitched trace: the client's fanout/fetch spans and all
  # four parties' server spans under a single trace id, plus one flight-
  # recorder line per fetch (round 2 must ride the delta path).
  "$WAVECLI" query --mode count --connect "$ENDPOINTS" "${COMMON[@]}" \
    --rounds 2 --trace --flight-recorder >"$TMP/traced.out" ||
    fail "traced query exited $?"
  trace=$(sed -n 's/^TRACE \([0-9a-f]\{16\}\)$/\1/p' "$TMP/traced.out")
  [[ -n "$trace" ]] || fail "no TRACE line in: $(head "$TMP/traced.out")"
  [[ $(grep -c "^span trace=$trace .* name=party.answer" "$TMP/traced.out") \
     -ge $PARTIES ]] ||
    fail "stitched trace misses party.answer spans: $(cat "$TMP/traced.out")"
  grep -q "^span trace=$trace .* name=net.fanout" "$TMP/traced.out" ||
    fail "stitched trace misses the client fanout span"
  [[ $(grep -c '^span trace=' "$TMP/traced.out") \
     -eq $(grep -c "^span trace=$trace" "$TMP/traced.out") ]] ||
    fail "span dump mixes trace ids"
  [[ $(grep -c '^fetch trace=' "$TMP/traced.out") -ge $PARTIES ]] ||
    fail "flight recorder has fewer than $PARTIES fetch lines"
  # Ingest finished before the query, so round 2's delta reply is the
  # "unchanged" echo: delta path taken on the kept connection.
  grep -q '^fetch .* reused=1 delta=1 ' "$TMP/traced.out" ||
    fail "round 2 should ride the delta path on a reused connection"
  echo "TRACE count: one trace ($trace), $PARTIES party spans, flight ok"
  stop_daemons

  # --- Scrape survives kill -9: the restarted daemon reports a higher ---
  # --- generation and exports its recovery.restore span. ---
  OBS_STATE="$TMP/obs_state"
  rm -rf "$OBS_STATE"
  start_obs_daemon() {
    local log=$1
    "$WAVED" --role count --party-id 0 --port 0 "${COMMON[@]}" \
      --state-dir "$OBS_STATE" >"$log" 2>&1 &
    OBS_PID=$!
    OBS_PORT=""
    local _i
    for _i in $(seq 1 200); do
      OBS_PORT=$(sed -n 's/.*WAVED READY .*port=\([0-9][0-9]*\).*/\1/p' \
        "$log")
      [[ -n "$OBS_PORT" ]] && break
      sleep 0.05
    done
    [[ -n "$OBS_PORT" ]] || { cat "$log" >&2; fail "obs daemon never READY"; }
  }
  start_obs_daemon "$TMP/waved_obs_gen1.log"
  "$WAVECLI" metrics --connect "127.0.0.1:$OBS_PORT" >"$TMP/gen1.out" ||
    fail "pre-crash scrape exited $?"
  gen1=$(sed -n 's/^waves_party_generation \([0-9][0-9]*\)$/\1/p' \
    "$TMP/gen1.out")
  [[ -n "$gen1" ]] || fail "no waves_party_generation in pre-crash scrape"
  kill -9 "$OBS_PID" 2>/dev/null || true
  wait "$OBS_PID" 2>/dev/null || true
  start_obs_daemon "$TMP/waved_obs_gen2.log"
  grep -q 'WAVED RESTORED' "$TMP/waved_obs_gen2.log" ||
    fail "restarted obs daemon did not restore its checkpoint"
  "$WAVECLI" metrics --connect "127.0.0.1:$OBS_PORT" >"$TMP/gen2.out" ||
    fail "post-crash scrape exited $?"
  gen2=$(sed -n 's/^waves_party_generation \([0-9][0-9]*\)$/\1/p' \
    "$TMP/gen2.out")
  [[ -n "$gen2" && "$gen2" -gt "$gen1" ]] ||
    fail "generation must bump across kill -9 (before=$gen1 after=$gen2)"
  grep -q 'span="recovery.restore"' "$TMP/gen2.out" ||
    fail "post-crash scrape lacks the recovery.restore span"
  kill -9 "$OBS_PID" 2>/dev/null || true
  wait "$OBS_PID" 2>/dev/null || true
  echo "SCRAPE-SURVIVES-CRASH count: generation $gen1 -> $gen2, restore span"
fi

echo "net_loopback_test: all checks passed"

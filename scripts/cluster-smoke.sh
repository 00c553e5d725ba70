#!/usr/bin/env bash
# cluster-smoke.sh — three-node midasd cluster end-to-end smoke:
#
#   1. boot three replicating nodes hosting three federations, with the
#      failure detector and auto-failover armed,
#   2. drive routing-aware load at every federation (exits non-zero on
#      any failed request, so the load run is itself an assertion),
#   3. SIGKILL one node mid-cluster (no drain, no checkpoint),
#   4. wait for the survivors to detect the death and auto-promote the
#      victim's federations from their shipped WALs — no operator
#      takeover is issued anywhere in this script,
#   5. assert zero acked-write loss (history lengths are unchanged) and
#      that the survivors serve every federation,
#   6. hand one federation from one survivor to the other and back under
#      load, and assert no request failed, no acked write was lost, both
#      nodes counted a handoff and replication did not degrade.
#
# Requirements: go, curl, jq. Usage: scripts/cluster-smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d /tmp/midas-cluster-smoke.XXXXXX)}"
MIDASD="${MIDASD:-$WORK/midasd}"
MIDASLOAD="${MIDASLOAD:-$WORK/midasload}"
BASE_PORT="${BASE_PORT:-9101}"
FEDS=(fedA fedB fedC)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]}"; do kill -KILL "$pid" 2> /dev/null || true; done
}
trap cleanup EXIT

log() { echo "[cluster-smoke] $*"; }

[ -x "$MIDASD" ] || go build -o "$MIDASD" ./cmd/midasd
[ -x "$MIDASLOAD" ] || go build -o "$MIDASLOAD" ./cmd/midasload

# --- membership -------------------------------------------------------
peers=""
addrs=""
for i in 1 2 3; do
  port=$((BASE_PORT + i - 1))
  peers="${peers:+$peers,}n$i=http://127.0.0.1:$port"
  addrs="${addrs:+$addrs,}http://127.0.0.1:$port"
done

cat > "$WORK/federations.json" <<'EOF'
{"federations": [
  {"name": "fedA", "sf": 0.05, "bootstrap": 12, "node_choices": [1, 2], "queries": ["Q12"]},
  {"name": "fedB", "sf": 0.05, "bootstrap": 12, "node_choices": [1, 2], "queries": ["Q12"]},
  {"name": "fedC", "sf": 0.05, "bootstrap": 12, "node_choices": [1, 2], "queries": ["Q12"]}
]}
EOF

# --- boot -------------------------------------------------------------
for i in 1 2 3; do
  port=$((BASE_PORT + i - 1))
  "$MIDASD" -addr "127.0.0.1:$port" -config "$WORK/federations.json" \
    -data-dir "$WORK/n$i" -node-id "n$i" -cluster-peers "$peers" \
    -cluster-replicate -cluster-sync-interval 200ms \
    -cluster-auto-failover -cluster-probe-interval 200ms \
    -cluster-suspect-after 3 -cluster-down-after 10 \
    -cluster-auto-rebalance \
    > "$WORK/n$i.log" 2>&1 &
  PIDS+=($!)
done
for i in 1 2 3; do
  port=$((BASE_PORT + i - 1))
  for _ in $(seq 1 120); do
    curl -sf "http://127.0.0.1:$port/readyz" > /dev/null && break
    kill -0 "${PIDS[$((i - 1))]}" 2> /dev/null || { log "n$i died during startup"; cat "$WORK/n$i.log"; exit 1; }
    sleep 1
  done
  curl -sf "http://127.0.0.1:$port/readyz" > /dev/null || { log "n$i never became ready"; exit 1; }
done
log "three nodes up: $peers"

table() { curl -sf "http://127.0.0.1:$BASE_PORT/v1/cluster" 2> /dev/null \
  || curl -sf "http://127.0.0.1:$((BASE_PORT + 1))/v1/cluster" \
  || curl -sf "http://127.0.0.1:$((BASE_PORT + 2))/v1/cluster"; }
owner_of() { table | jq -r ".placements[\"$1\"].owner"; }
standby_of() { table | jq -r ".placements[\"$1\"].standby"; }
addr_of() { table | jq -r ".members[] | select(.id == \"$1\") | .addr"; }
hist_len() { # hist_len <addr> <federation>
  curl -sf "$1/v1/history/Q12?federation=$2&limit=0" | jq .len
}

# --- load against every federation, through the routing table ---------
for fed in "${FEDS[@]}"; do
  log "load: $fed (owner $(owner_of "$fed"))"
  "$MIDASLOAD" -addr "$addrs" -federation "$fed" -clients 10 -requests 3
done

# Let the 200ms standby sync ship anything appended before its stream
# armed; once armed, every acked write is on the standby synchronously.
sleep 1

declare -A BEFORE
for fed in "${FEDS[@]}"; do
  BEFORE[$fed]="$(hist_len "$(addr_of "$(owner_of "$fed")")" "$fed")"
  log "$fed: ${BEFORE[$fed]} acked observations on $(owner_of "$fed")"
done

# --- kill one owner outright ------------------------------------------
victim="$(owner_of fedA)"
vidx="${victim#n}"
log "SIGKILL $victim (owner of fedA)"
kill -KILL "${PIDS[$((vidx - 1))]}"
wait "${PIDS[$((vidx - 1))]}" 2> /dev/null || true

# --- auto-failover: the detector must promote, not this script --------
# Down verdict needs down-after(10) consecutive missed 200ms probes, so
# ~2s of detection plus the promotion itself; 60s is a generous ceiling.
for fed in "${FEDS[@]}"; do
  if [ "$(owner_of "$fed")" != "$victim" ]; then continue; fi
  log "waiting for auto-promotion of $fed (owner $victim is dead)"
  promoted=""
  for _ in $(seq 1 120); do
    now="$(owner_of "$fed")"
    if [ "$now" != "$victim" ] && [ -n "$now" ] && [ "$now" != null ]; then
      promoted="$now"
      break
    fi
    sleep 0.5
  done
  [ -n "$promoted" ] || { log "FAIL: $fed never auto-promoted off $victim"; exit 1; }
  log "auto-promoted: $fed -> $promoted"
done

# --- zero acked-write loss + survivors serve everything ---------------
for fed in "${FEDS[@]}"; do
  owner="$(owner_of "$fed")"
  [ "$owner" != "$victim" ] || { log "$fed still routed at the dead node"; exit 1; }
  after="$(hist_len "$(addr_of "$owner")" "$fed")"
  if [ "$after" != "${BEFORE[$fed]}" ]; then
    log "FAIL: $fed lost acked writes across the kill: ${BEFORE[$fed]} -> $after"
    exit 1
  fi
  log "$fed: $after observations intact on $owner"
done

# The routing-aware client must ride out the dead seed: it refreshes
# the table from the survivors and lands every request.
for fed in "${FEDS[@]}"; do
  "$MIDASLOAD" -addr "$addrs" -federation "$fed" -clients 5 -requests 2
done

# --- a live handoff between the survivors, under load ------------------
# One federation goes from its owner to the other survivor and back while
# midasload drives it: the shards ride the replication stream between two
# real processes, rolled segments included (the load takes the history
# past its first roll). fedA, so the first cut is of files a promoted
# replica wrote.
metric() { # metric <addr> <series, labels included> -> value (0 when absent)
  curl -sf "$1/metrics" | awk -v s="$2" '$1 == s { v = $2 } END { print v + 0 }'
}
moved=fedA
src="$(owner_of "$moved")"
dst=""
for i in 1 2 3; do
  [ "n$i" = "$victim" ] || [ "n$i" = "$src" ] || dst="n$i"
done
src_addr="$(addr_of "$src")"
dst_addr="$(addr_of "$dst")"
initial="$(hist_len "$src_addr" "$moved")"
declare -A HANDOFFS_BEFORE
degraded_before=0
for a in "$src_addr" "$dst_addr"; do
  HANDOFFS_BEFORE[$a]="$(metric "$a" 'midas_cluster_handoffs_total{role="source"}')"
  degraded_before=$((degraded_before + $(metric "$a" midas_cluster_replication_degraded_total)))
done
LOAD_CLIENTS=4
LOAD_REQUESTS=5000
log "handoff under load: $moved $src -> $dst -> $src ($initial observations, standby $(standby_of "$moved"))"
"$MIDASLOAD" -addr "$addrs" -federation "$moved" -clients "$LOAD_CLIENTS" -requests "$LOAD_REQUESTS" \
  > "$WORK/handoff-load.log" 2>&1 &
load_pid=$!
sleep 0.3
curl -sf -X POST "$src_addr/v1/admin/handoff?federation=$moved&target=$dst" | jq -c . \
  || { log "FAIL: handoff $src -> $dst"; exit 1; }
[ "$(owner_of "$moved")" = "$dst" ] || { log "FAIL: $moved is on $(owner_of "$moved") after the handoff to $dst"; exit 1; }
sleep 0.3
kill -0 "$load_pid" 2> /dev/null || log "note: the load finished before the handoff back"
curl -sf -X POST "$dst_addr/v1/admin/handoff?federation=$moved&target=$src" | jq -c . \
  || { log "FAIL: handoff back $dst -> $src"; exit 1; }
wait "$load_pid" || { log "FAIL: a request failed across the handoffs"; cat "$WORK/handoff-load.log"; exit 1; }
[ "$(owner_of "$moved")" = "$src" ] || { log "FAIL: $moved is on $(owner_of "$moved") after the handoff back to $src"; exit 1; }
want=$((initial + LOAD_CLIENTS * LOAD_REQUESTS))
after="$(hist_len "$src_addr" "$moved")"
[ "$after" = "$want" ] || { log "FAIL: $moved holds $after observations after two handoffs, want $want (initial + acked)"; exit 1; }
degraded_after=0
for a in "$src_addr" "$dst_addr"; do
  now="$(metric "$a" 'midas_cluster_handoffs_total{role="source"}')"
  [ "$now" -gt "${HANDOFFS_BEFORE[$a]}" ] || { log "FAIL: handoffs_total{role=source} on $a did not move ($now)"; exit 1; }
  degraded_after=$((degraded_after + $(metric "$a" midas_cluster_replication_degraded_total)))
done
[ "$degraded_after" = "$degraded_before" ] \
  || { log "FAIL: replication degraded during the handoffs ($degraded_before -> $degraded_after)"; exit 1; }
log "$moved: $after observations = $initial + $((LOAD_CLIENTS * LOAD_REQUESTS)) acked, back on $src"

# Operator view of the aftermath: one survivor's routing table plus
# per-member health (the victim shows UNREACHABLE).
survivor_port=$BASE_PORT
[ "$victim" = "n1" ] && survivor_port=$((BASE_PORT + 1))
MIDASCTL="${MIDASCTL:-$WORK/midasctl}"
[ -x "$MIDASCTL" ] || go build -o "$MIDASCTL" ./cmd/midasctl
"$MIDASCTL" -addr "http://127.0.0.1:$survivor_port" cluster-status

log "PASS: node kill survived with auto-failover, live handoffs under load, zero acked-write loss"

#!/usr/bin/env bash
# cluster-smoke.sh — five legs against real holidayd clusters:
#
#   leg 1  break-glass: detector disabled (-failover-after 0), SIGKILL the
#          owner, operator promotes a survivor, answers byte-identical.
#   leg 2  no-operator: detector armed, no election while every node
#          answers, SIGKILL the owner, a survivor self-promotes the hot
#          community with ZERO holidayctl calls, answers byte-identical
#          across the automatic failover.
#   leg 3  join-rebalance: a fourth node joins, holidayctl rebalance
#          live-moves its communities over epoch-bumped handoffs, every
#          community answers byte-identically afterwards; every node
#          reaches the new owner's write, and a rebalance without the
#          fourth node returns its communities with that write kept.
#   leg 4  rotation under load: holidayload drives mega-ci against three
#          nodes while moving one community per second over live handoffs;
#          the snapshot must record zero failed ops and at least 3 handoffs
#          (writes a move's fenced window refuses are re-sent, not counted).
#   leg 5  large state: -demo powerlaw:n=500000,m=3, whose state and create
#          record pass wire.MaxFrame, reaches every follower at its owner's
#          seq, answering a window byte-identically.
#
# Run from the repo root. Builds into a temp dir; cleans up on every exit.
set -euo pipefail

WORK=$(mktemp -d)
BIN="$WORK/bin"
mkdir -p "$BIN"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
fail() {
  echo "FAIL: $1" >&2
  for log in "$WORK"/*.log; do
    echo "--- $(basename "$log") ---" >&2
    tail -40 "$log" >&2 || true
  done
  exit 1
}
trap cleanup EXIT

go build -o "$BIN/holidayd" ./cmd/holidayd
go build -o "$BIN/holidayctl" ./cmd/holidayctl
go build -o "$BIN/holidayload" ./cmd/holidayload

# One port per node: replication and handoffs are plain requests to its
# /v1/stream.
declare -A ADDR=(
  [a]=http://127.0.0.1:18081 [b]=http://127.0.0.1:18082
  [c]=http://127.0.0.1:18083 [d]=http://127.0.0.1:18084
)
declare -A PID

write_topology() { # write_topology <file> <node>...
  local file=$1; shift
  {
    echo '{"nodes": ['
    local sep=""
    for n in "$@"; do
      printf '%s{"id": "%s", "addr": "%s"}' "$sep" "$n" "${ADDR[$n]}"
      sep=$',\n'
    done
    echo $'\n]}'
  } > "$file"
}

start_node() { # start_node <leg> <id> <topology> <failover-after> [flag]...
  local leg=$1 id=$2 topo=$3 fo=$4; shift 4
  "$BIN/holidayd" -addr "${ADDR[$id]#http://}" -node-id "$id" \
    -peers "$topo" -follow all -failover-after "$fo" \
    -data-dir "$WORK/$leg-data-$id" "$@" >"$WORK/$leg-$id.log" 2>&1 &
  PID[$id]=$!
  PIDS+=($!)
}

await_healthy() {
  for i in $(seq 1 60); do
    curl -sf "$1/healthz" >/dev/null && return 0
    sleep 0.25
  done
  fail "node at $1 never became healthy"
}

stop_cluster() { # stop nodes and wait until their ports are released
  for n in "$@"; do kill "${PID[$n]}" 2>/dev/null || true; done
  for n in "$@"; do
    for i in $(seq 1 40); do
      curl -sf --max-time 1 "${ADDR[$n]}/healthz" >/dev/null 2>&1 || break
      sleep 0.25
    done
  done
}

COMMS=(comm-0 comm-1 comm-2 comm-3 comm-4 comm-5)

seed_cluster() { # create and churn every community through one node
  local via=$1
  for id in "${COMMS[@]}"; do
    curl -sf -X POST "${ADDR[$via]}/v1/communities" -d "{\"id\":\"$id\",\"families\":8}" >/dev/null \
      || fail "create $id"
  done
  for id in "${COMMS[@]}"; do
    for i in 1 2 3; do
      curl -sf -X POST "${ADDR[$via]}/v1/communities/$id/churn" \
        -d '[{"op":"marry","u":0,"v":'"$i"'},{"op":"marry","u":'"$i"',"v":'"$((i+1))"'}]' >/dev/null \
        || fail "churn $id"
    done
  done
}

comm_seq() { # comm_seq <node> <community> — seq from a node's status
  curl -sf "${ADDR[$1]}/v1/status" \
    | jq -r --arg id "$2" '.communities[] | select(.id==$id) | .seq'
}

comm_space() { # comm_space <node> <community> — sequence space from a node's status
  curl -sf "${ADDR[$1]}/v1/status" \
    | jq -c --arg id "$2" '.communities[] | select(.id==$id) | .space'
}

marriages() { # marriages <node> <community> — from the node's own copy
  curl -sf "${ADDR[$1]}/v1/communities/$2" | jq -r '.marriages'
}

comm_role() { # comm_role <node> <community>
  curl -sf "${ADDR[$1]}/v1/status" 2>/dev/null \
    | jq -r --arg id "$2" '.communities[] | select(.id==$id) | .role' 2>/dev/null || true
}

await_replication() { # await_replication <owner> <community> <node>...
  local owner=$1 hot=$2; shift 2
  local want
  want=$(comm_seq "$owner" "$hot")
  [ -n "$want" ] || fail "owner has no sequence for $hot"
  for n in "$@"; do
    [ "$n" = "$owner" ] && continue
    for i in $(seq 1 120); do
      got=$(comm_seq "$n" "$hot" || true)
      [ "$got" = "$want" ] && break
      sleep 0.25
      [ "$i" = 120 ] && fail "node $n never replicated $hot to seq $want (at: ${got:-none})"
    done
  done
}

# ---------------------------------------------------------------- leg 1 ---
echo "=== leg 1: break-glass promote (detector disabled) ==="
TOPO1="$WORK/leg1-nodes.json"
write_topology "$TOPO1" a b c
for n in a b c; do start_node leg1 "$n" "$TOPO1" 0; done
for n in a b c; do await_healthy "${ADDR[$n]}"; done
seed_cluster a

HOT=comm-0
OWNER=$("$BIN/holidayctl" -topology "$TOPO1" place "$HOT" | awk '{print $3}')
echo "hot community $HOT is owned by node $OWNER"
await_replication "$OWNER" "$HOT" a b c

curl -sf "${ADDR[$OWNER]}/v1/communities/$HOT/window?from=1&to=100" > "$WORK/window.pre" \
  || fail "pre-kill window"
curl -sf "${ADDR[$OWNER]}/v1/communities/$HOT/families/3/next?from=1" > "$WORK/next.pre" \
  || fail "pre-kill next"
for n in a b c; do
  [ "$n" = "$OWNER" ] && continue
  curl -sf "${ADDR[$n]}/v1/communities/$HOT/window?from=1&to=100" > "$WORK/window.$n"
  cmp -s "$WORK/window.pre" "$WORK/window.$n" || fail "replica window on $n differs from owner before the kill"
done

kill -9 "${PID[$OWNER]}" || fail "kill owner"
echo "killed owner $OWNER"

for n in a b c; do
  if [ "$n" != "$OWNER" ]; then PROMOTE=$n; break; fi
done
"$BIN/holidayctl" -topology "$TOPO1" promote "$HOT" "$PROMOTE" \
  || fail "promote $HOT to $PROMOTE"
echo "promoted $HOT on $PROMOTE"

curl -sf "${ADDR[$PROMOTE]}/v1/communities/$HOT/window?from=1&to=100" > "$WORK/window.post" \
  || fail "post-failover window"
curl -sf "${ADDR[$PROMOTE]}/v1/communities/$HOT/families/3/next?from=1" > "$WORK/next.post" \
  || fail "post-failover next"
cmp -s "$WORK/window.pre" "$WORK/window.post" || fail "window answer changed across break-glass failover"
cmp -s "$WORK/next.pre" "$WORK/next.post" || fail "next answer changed across break-glass failover"
curl -sf -X POST "${ADDR[$PROMOTE]}/v1/communities/$HOT/churn" \
  -d '[{"op":"divorce","u":0,"v":1}]' >/dev/null \
  || fail "write to promoted node"
echo "leg 1 OK: break-glass promote, byte-identical answers"
stop_cluster a b c

# ---------------------------------------------------------------- leg 2 ---
echo "=== leg 2: no-operator failover (detector armed) ==="
TOPO2="$WORK/leg2-nodes.json"
write_topology "$TOPO2" a b c
for n in a b c; do start_node leg2 "$n" "$TOPO2" 2s; done
for n in a b c; do await_healthy "${ADDR[$n]}"; done
seed_cluster b

OWNER=$("$BIN/holidayctl" -topology "$TOPO2" place "$HOT" | awk '{print $3}')
echo "hot community $HOT is owned by node $OWNER"
await_replication "$OWNER" "$HOT" a b c

curl -sf "${ADDR[$OWNER]}/v1/communities/$HOT/window?from=1&to=100" > "$WORK/window2.pre" \
  || fail "pre-kill window"
curl -sf "${ADDR[$OWNER]}/v1/communities/$HOT/families/3/next?from=1" > "$WORK/next2.pre" \
  || fail "pre-kill next"

# Every node answers every placement pull, so none may have run an
# election yet.
for n in a b c; do
  E=$(curl -sf "${ADDR[$n]}/v1/status" | jq -r '.epoch')
  [ "$E" = 0 ] || fail "node $n is at epoch $E before the kill: an election ran while every node answered"
done

KILLED_AT=$(date +%s.%N)
kill -9 "${PID[$OWNER]}" || fail "kill owner"
echo "killed owner $OWNER; waiting for automatic promotion (no operator calls)"

SURVIVORS=()
for n in a b c; do [ "$n" != "$OWNER" ] && SURVIVORS+=("$n"); done

NEWOWNER=""
for i in $(seq 1 120); do
  for n in "${SURVIVORS[@]}"; do
    if [ "$(comm_role "$n" "$HOT")" = "owner" ]; then NEWOWNER=$n; break 2; fi
  done
  sleep 0.25
done
[ -n "$NEWOWNER" ] || fail "no survivor self-promoted $HOT within 30s"
TAKEOVER_S=$(awk -v a="$KILLED_AT" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
echo "node $NEWOWNER self-promoted $HOT ${TAKEOVER_S}s after the SIGKILL"

curl -sf "${ADDR[$NEWOWNER]}/v1/communities/$HOT/window?from=1&to=100" > "$WORK/window2.post" \
  || fail "post-failover window"
curl -sf "${ADDR[$NEWOWNER]}/v1/communities/$HOT/families/3/next?from=1" > "$WORK/next2.post" \
  || fail "post-failover next"
cmp -s "$WORK/window2.pre" "$WORK/window2.post" || fail "window answer changed across automatic failover"
cmp -s "$WORK/next2.pre" "$WORK/next2.post" || fail "next answer changed across automatic failover"
curl -sf -X POST "${ADDR[$NEWOWNER]}/v1/communities/$HOT/churn" \
  -d '[{"op":"divorce","u":0,"v":1}]' >/dev/null \
  || fail "write to self-promoted node"
EPOCH=$(curl -sf "${ADDR[$NEWOWNER]}/v1/status" | jq -r '.epoch')
[ "$EPOCH" -ge 1 ] || fail "automatic failover did not advance the placement epoch (at $EPOCH)"
echo "leg 2 OK: automatic failover at epoch $EPOCH ${TAKEOVER_S}s after the SIGKILL, byte-identical answers, zero operator calls"
stop_cluster "${SURVIVORS[@]}"

# ---------------------------------------------------------------- leg 3 ---
echo "=== leg 3: join-rebalance over live handoffs ==="
TOPO3="$WORK/leg3-nodes.json"
write_topology "$TOPO3" a b c
for n in a b c; do start_node leg3 "$n" "$TOPO3" 0; done
for n in a b c; do await_healthy "${ADDR[$n]}"; done
seed_cluster c

declare -A FIRST
for id in "${COMMS[@]}"; do
  curl -sf "${ADDR[a]}/v1/communities/$id/window?from=1&to=100" > "$WORK/prejoin.$id" \
    || fail "pre-join window for $id"
  FIRST[$id]=$("$BIN/holidayctl" -topology "$TOPO3" place "$id" | awk '{print $3}')
done

# Join updates the topology file; the live rebalance inside can't reach the
# new node yet, so it degrades to the file edit (by design).
"$BIN/holidayctl" -topology "$TOPO3" join d "${ADDR[d]}" || fail "join d"
start_node leg3 d "$TOPO3" 0
await_healthy "${ADDR[d]}"

"$BIN/holidayctl" -topology "$TOPO3" rebalance || fail "rebalance onto d"

MOVED=$(curl -sf "${ADDR[d]}/v1/status" | jq -r '[.communities[] | select(.role=="owner")] | length')
echo "node d owns $MOVED communities after the rebalance"

# Every community answers byte-identically after the moves, wherever it
# now lives (reads forward to wherever the window can be served).
for id in "${COMMS[@]}"; do
  curl -sf "${ADDR[d]}/v1/communities/$id/window?from=1&to=100" > "$WORK/postjoin.$id" \
    || fail "post-join window for $id"
  cmp -s "$WORK/prejoin.$id" "$WORK/postjoin.$id" || fail "window for $id changed across the join-rebalance"
done

# Moved communities take writes at their new owner.
if [ "$MOVED" -gt 0 ]; then
  MOVED_ID=$(curl -sf "${ADDR[d]}/v1/status" | jq -r '[.communities[] | select(.role=="owner")][0].id')
  curl -sf -X POST "${ADDR[d]}/v1/communities/$MOVED_ID/churn" \
    -d '[{"op":"divorce","u":0,"v":1}]' >/dev/null \
    || fail "write to moved community $MOVED_ID on d"

  # Every other node follows d's write: d's seq, space and marriages.
  D_SEQ=$(comm_seq d "$MOVED_ID"); D_SPACE=$(comm_space d "$MOVED_ID"); D_MARR=$(marriages d "$MOVED_ID")
  for n in a b c; do
    for i in $(seq 1 120); do
      [ "$(comm_seq "$n" "$MOVED_ID")" = "$D_SEQ" ] && [ "$(comm_space "$n" "$MOVED_ID")" = "$D_SPACE" ] \
        && [ "$(marriages "$n" "$MOVED_ID")" = "$D_MARR" ] && break
      sleep 0.25
      [ "$i" = 120 ] && fail "node $n never reached d's $MOVED_ID: seq $D_SEQ, space $D_SPACE, $D_MARR marriages"
    done
  done
fi

# d leaves: its communities return to their first owners with its writes.
declare -A D_OWNED
for id in $(curl -sf "${ADDR[d]}/v1/status" | jq -r '.communities[] | select(.role=="owner") | .id'); do
  D_OWNED[$id]=$(marriages d "$id")
done
write_topology "$TOPO3" a b c
"$BIN/holidayctl" -topology "$TOPO3" rebalance || fail "rebalance off d"
for id in "${!D_OWNED[@]}"; do
  owner=${FIRST[$id]}
  [ "$(comm_role "$owner" "$id")" = "owner" ] || fail "$id did not return to its first owner $owner"
  got=$(marriages "$owner" "$id")
  [ "$got" = "${D_OWNED[$id]}" ] || fail "$id returned to $owner with $got marriages, d had ${D_OWNED[$id]}"
  await_replication "$owner" "$id" a b c d
done
echo "leg 3 OK: join-rebalance moved $MOVED communities, byte-identical answers; ${#D_OWNED[@]} returned with d's writes"

"$BIN/holidayctl" -topology "$TOPO3" status || true
stop_cluster a b c d

# ---------------------------------------------------------------- leg 4 ---
echo "=== leg 4: rotation under load (a live handoff every second) ==="
TOPO4="$WORK/leg4-nodes.json"
write_topology "$TOPO4" a b c
for n in a b c; do start_node leg4 "$n" "$TOPO4" 0; done
for n in a b c; do await_healthy "${ADDR[$n]}"; done

"$BIN/holidayload" -scenario mega-ci -cluster "$TOPO4" -rotate-every 1s -duration 6s \
  -out "$WORK/rotate.json" >"$WORK/leg4-holidayload.log" 2>&1 || fail "holidayload rotation run"
ERRORS=$(jq -r '.totals.errors' "$WORK/rotate.json")
HANDOFFS=$(jq -r '.handoffs // 0' "$WORK/rotate.json")
jq -e '.totals.errors == 0' "$WORK/rotate.json" >/dev/null \
  || fail "rotation run counted $ERRORS failed ops, want 0"
jq -e '.handoffs >= 3' "$WORK/rotate.json" >/dev/null \
  || fail "rotation run completed $HANDOFFS handoffs, want at least 3"
echo "leg 4 OK: $HANDOFFS live handoffs under mega-ci load, 0 failed ops"
stop_cluster a b c

# ---------------------------------------------------------------- leg 5 ---
echo "=== leg 5: a community whose state passes the frame bound reaches every follower ==="
TOPO5="$WORK/leg5-nodes.json"
write_topology "$TOPO5" a b c
for n in a b c; do start_node leg5 "$n" "$TOPO5" 0 -demo 'powerlaw:n=500000,m=3'; done
for n in a b c; do await_healthy "${ADDR[$n]}"; done
OWNER=$("$BIN/holidayctl" -topology "$TOPO5" place demo | awk '{print $3}')
echo "demo is owned by node $OWNER"
await_replication "$OWNER" demo a b c
curl -sf "${ADDR[$OWNER]}/v1/communities/demo/window?from=1&to=8" > "$WORK/large.$OWNER" \
  || fail "owner window for demo"
for n in a b c; do
  [ "$n" = "$OWNER" ] && continue
  curl -sf "${ADDR[$n]}/v1/communities/demo/window?from=1&to=8" > "$WORK/large.$n" \
    || fail "follower window for demo on $n"
  cmp -s "$WORK/large.$OWNER" "$WORK/large.$n" || fail "follower $n answers demo unlike its owner"
done
echo "leg 5 OK: demo at seq $(comm_seq "$OWNER" demo) on every node, byte-identical answers"
echo "cluster smoke OK: break-glass, operator-free failover, join-rebalance, rotation under load, large state"

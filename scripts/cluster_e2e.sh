#!/usr/bin/env bash
# cluster_e2e.sh — the fleet lane's end-to-end smoke, now a fault drill:
# boot a real 3-node pipeschedd fleet (R=2) plus a single-node reference
# on loopback, with one node's peer traffic crossing a chaosproxy driven
# by a seeded fault schedule (flapping latency, 5xx bursts, dropped
# connections). Then, in order: drive a verified Zipf stream through the
# chaotic fleet, kill one clean node mid-fleet and stream against the
# survivors, restart it (rolling restart), wait until its start-up
# anti-entropy round has pulled entries from its peers and stream again,
# shrink the fleet by rewriting the shared peers file and SIGHUPing the
# survivors (dynamic membership), and finally run the membership-churn
# drill: the node left off the shrunk peers file must surface as a
# disagreement in /metrics on every side (never adopted, never silent),
# a brand-new node must join the fleet from a seed URL alone (-join, no
# peers file) and serve verified traffic, and partitioning that joiner
# must NOT move the disagreement counters — an unreachable peer is a
# health event, not a membership dispute. Every phase byte-compares every fleet response
# against the reference via pipeschedbench -verify and must finish with
# zero client-visible errors and zero mismatches — pipeschedbench exits
# 1 otherwise, and so does this script.
#
# Usage:  scripts/cluster_e2e.sh
# Env:    REQUESTS (default 400)   requests per phase
#         SEED     (default 7)     workload/key-sequence seed
set -euo pipefail
cd "$(dirname "$0")/.."

REQUESTS="${REQUESTS:-400}"
SEED="${SEED:-7}"

workdir="$(mktemp -d)"
pids=()
cleanup() {
    local pid alive
    # Phase 5b stops node 4; a stopped pipeschedd leaves SIGTERM pending
    # until it is continued, and the wait below would block forever.
    for pid in "${pids[@]:-}"; do
        kill -CONT "$pid" 2>/dev/null || true
        kill "$pid" 2>/dev/null || true
    done
    # Daemons drain for up to their 15 s -drain-timeout; anything still
    # alive after 20 s is killed.
    for _ in $(seq 1 200); do
        alive=0
        for pid in "${pids[@]:-}"; do
            if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
                alive=1
            fi
        done
        [ "$alive" -eq 1 ] || break
        sleep 0.1
    done
    for pid in "${pids[@]:-}"; do
        kill -KILL "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building pipeschedd, pipeschedbench and chaosproxy"
go build -o "$workdir/pipeschedd" ./cmd/pipeschedd
go build -o "$workdir/pipeschedbench" ./cmd/pipeschedbench
go build -o "$workdir/chaosproxy" ./cmd/chaosproxy

# pick_ports: choose N distinct loopback ports that nothing is listening
# on right now, drawn below the kernel's ephemeral range: a port inside
# it can be handed to some outgoing connection (the fleet's own peer
# traffic included) between the probe and the daemon's listen. The
# remaining bind race is negligible on a CI runner; a daemon that does
# lose it exits non-zero and fails the wait below loudly.
ephemeral_lo=32768
if [ -r /proc/sys/net/ipv4/ip_local_port_range ]; then
    read -r ephemeral_lo _ </proc/sys/net/ipv4/ip_local_port_range
fi
port_lo=$((ephemeral_lo > 21024 ? ephemeral_lo - 20000 : 1024))
port_span=$((ephemeral_lo - port_lo))
pick_ports() {
    local n=$1 found=0 port
    local chosen=()
    while [ "$found" -lt "$n" ]; do
        port=$((port_lo + RANDOM % port_span))
        case " ${chosen[*]:-} " in *" $port "*) continue ;; esac
        # The probe runs in a subshell, so no fd leaks either way; a
        # refused connection means nothing is listening there.
        if ! (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            chosen+=("$port")
            found=$((found + 1))
        fi
    done
    echo "${chosen[@]}"
}

read -r P1 P2 P3 PCHAOS PREF <<<"$(pick_ports 5)"

# Node 3 advertises the chaosproxy's address: every forward, hedge and
# sync pull aimed at it crosses the fault schedule, while its own
# client port P3 stays clean — faults are injected into the fleet's
# internal traffic only, which is exactly what must never leak out.
URL1="http://127.0.0.1:$P1"
URL2="http://127.0.0.1:$P2"
URL3="http://127.0.0.1:$PCHAOS"
PEERS_FILE="$workdir/peers.txt"
printf '# e2e fleet\n%s\n%s\n%s\n' "$URL1" "$URL2" "$URL3" >"$PEERS_FILE"

# The schedule: latency flapping past the hedge delay (so forwards hedge
# to the other replica), 5xx bursts (so peer health marks the node down
# and traffic routes around it), and a background drop rate. Seeded, so
# failures reproduce.
cat >"$workdir/chaos.json" <<'JSON'
{
  "seed": 42,
  "rules": [
    {"name": "lag",   "latency_ms": 150, "jitter_ms": 100, "period_ms": 2000, "on_ms": 1000},
    {"name": "burst", "status": 500, "status_prob": 0.5, "period_ms": 1500, "on_ms": 500},
    {"name": "part",  "drop_prob": 0.1}
  ]
}
JSON

start_daemon() { # start_daemon logfile args...
    local log=$1
    shift
    "$workdir/pipeschedd" "$@" >"$log" 2>&1 &
    pids+=($!)
}

node_args() { # node_args port advertise-url
    echo "-addr 127.0.0.1:$1 -peers-file $PEERS_FILE -advertise $2 \
          -peer-timeout 2s -peer-backoff 500ms -hedge-after 50ms \
          -gossip-interval 500ms -sync-interval 2s"
}

wait_metric() { # wait_metric url regex description
    local url=$1 re=$2 desc=$3 i
    for i in $(seq 1 100); do
        if curl -sf "$url/metrics" | grep -qE "$re"; then
            return 0
        fi
        sleep 0.1
    done
    echo "timed out waiting for $desc at $url; metrics:" >&2
    curl -sf "$url/metrics" >&2 || true
    echo >&2
    return 1
}

wait_healthy() { # wait_healthy url
    local url=$1 i
    for i in $(seq 1 100); do
        if curl -sf "$url/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "daemon at $url never became healthy; logs:" >&2
    cat "$workdir"/*.log >&2
    return 1
}

echo "== starting 3-node fleet (node 3 peer traffic behind chaosproxy :$PCHAOS) and reference (:$PREF)"
# shellcheck disable=SC2046 # node_args is a deliberate word list
start_daemon "$workdir/node1.log" $(node_args "$P1" "$URL1")
NODE1_PID=${pids[-1]}
start_daemon "$workdir/node2.log" $(node_args "$P2" "$URL2")
NODE2_PID=${pids[-1]}
start_daemon "$workdir/node3.log" $(node_args "$P3" "$URL3")
NODE3_PID=${pids[-1]}
"$workdir/chaosproxy" -listen "127.0.0.1:$PCHAOS" -target "http://127.0.0.1:$P3" \
    -schedule "$workdir/chaos.json" >"$workdir/chaosproxy.log" 2>&1 &
pids+=($!)
CHAOS_PID=${pids[-1]}
start_daemon "$workdir/ref.log" -addr "127.0.0.1:$PREF"

for port in "$P1" "$P2" "$P3" "$PCHAOS" "$PREF"; do
    wait_healthy "http://127.0.0.1:$port"
done

# Clients talk to the daemons directly (P3, not the proxy): the chaos is
# peer-path-only, like a flaky NIC between racks.
CLIENTS="$URL1,$URL2,http://127.0.0.1:$P3"

echo "== phase 1: chaos — full fleet under the fault schedule, $REQUESTS verified requests"
"$workdir/pipeschedbench" \
    -targets "$CLIENTS" \
    -verify "http://127.0.0.1:$PREF" \
    -requests "$REQUESTS" -seed "$SEED" -keys 64 -zipf-s 1.2 \
    -stages 6 -procs 4 -workers 8

echo "== phase 2: kill node 2 mid-fleet; replicas must absorb its keys"
kill "$NODE2_PID"
wait "$NODE2_PID" 2>/dev/null || true
"$workdir/pipeschedbench" \
    -targets "$URL1,http://127.0.0.1:$P3" \
    -verify "http://127.0.0.1:$PREF" \
    -requests "$REQUESTS" -seed $((SEED + 1)) -keys 64 -zipf-s 1.2 \
    -stages 6 -procs 4 -workers 8

echo "== phase 3: rolling restart — node 2 rejoins cold and warms from peers"
# shellcheck disable=SC2046
start_daemon "$workdir/node2-restarted.log" $(node_args "$P2" "$URL2")
NODE2_PID=${pids[-1]}
wait_healthy "$URL2"
# The restarted node's start-up anti-entropy round must pull the entries
# it replicates from its peers before the stream begins.
wait_metric "$URL2" '"sync_pulled":[1-9]' "start-up sync round on restarted node 2"
"$workdir/pipeschedbench" \
    -targets "$CLIENTS" \
    -verify "http://127.0.0.1:$PREF" \
    -requests "$REQUESTS" -seed $((SEED + 2)) -keys 64 -zipf-s 1.2 \
    -stages 6 -procs 4 -workers 8

echo "== phase 4: dynamic membership — drop the chaotic node from the peers file, SIGHUP the survivors"
# Node 3 (and its proxy) leave the fleet for real: first the file, then
# the signal, then the processes. The survivors swap to the 2-node
# topology and each runs one sync round under it; no restart involved.
printf '# e2e fleet, shrunk\n%s\n%s\n' "$URL1" "$URL2" >"$PEERS_FILE"
kill -HUP "$NODE1_PID" "$NODE2_PID"
for port in "$P1" "$P2"; do
    for i in $(seq 1 50); do
        if curl -sf "http://127.0.0.1:$port/metrics" | grep -q '"reloads":1'; then
            break
        fi
        if [ "$i" -eq 50 ]; then
            echo "node on port $port never reloaded its topology" >&2
            exit 1
        fi
        sleep 0.1
    done
done
"$workdir/pipeschedbench" \
    -targets "$URL1,$URL2" \
    -verify "http://127.0.0.1:$PREF" \
    -requests "$REQUESTS" -seed $((SEED + 3)) -keys 64 -zipf-s 1.2 \
    -stages 6 -procs 4 -workers 8

echo "== phase 5: membership churn — stale node visible as disagreement, seed-list join, partition"
# Node 3 never saw the shrunk peers file: it still gossips the 3-node
# epoch-0 view. The survivors' epoch-1 view excludes it, so node 3 must
# refuse to adopt (a node never adopts a view without itself) and the
# split must be VISIBLE on every side — mismatch counters on the
# survivors, rejected adoptions on the stale node — not silently healed.
wait_metric "$URL1" '"membership_mismatches":[1-9]' "stale-node disagreement on node 1"
wait_metric "$URL2" '"membership_mismatches":[1-9]' "stale-node disagreement on node 2"
wait_metric "http://127.0.0.1:$P3" '"memberships_rejected":[1-9]' "rejected adoption on stale node 3"

# The stale node and its proxy leave for real; the fleet is nodes 1+2.
kill "$NODE3_PID" "$CHAOS_PID"
wait "$NODE3_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true

# A brand-new node joins from a seed URL alone: no peers file, no static
# list — it learns the fleet from node 1, announces itself, and both
# survivors must adopt the grown view by gossip/join, stamp-identical.
read -r P4 <<<"$(pick_ports 1)"
URL4="http://127.0.0.1:$P4"
start_daemon "$workdir/node4.log" -addr "127.0.0.1:$P4" -join "$URL1" -advertise "$URL4" \
    -peer-timeout 2s -peer-backoff 500ms -hedge-after 50ms \
    -gossip-interval 500ms -sync-interval 1s
NODE4_PID=${pids[-1]}
wait_healthy "$URL4"
wait_metric "$URL1" '"peers":3' "join propagated to node 1"
wait_metric "$URL2" '"peers":3' "join propagated to node 2"
HASH4="$(curl -sf "$URL4/metrics" | grep -o '"membership_hash":"[^"]*"' | cut -d'"' -f4)"
[ -n "$HASH4" ] || { echo "joiner serves no membership hash" >&2; exit 1; }
wait_metric "$URL1" "\"membership_hash\":\"$HASH4\"" "stamp convergence on node 1"
wait_metric "$URL2" "\"membership_hash\":\"$HASH4\"" "stamp convergence on node 2"

echo "== phase 5a: joined fleet (node 4 booted via -join only), $REQUESTS verified requests"
"$workdir/pipeschedbench" \
    -targets "$URL1,$URL2,$URL4" \
    -verify "http://127.0.0.1:$PREF" \
    -requests "$REQUESTS" -seed $((SEED + 4)) -keys 64 -zipf-s 1.2 \
    -stages 6 -procs 4 -workers 8

echo "== phase 5b: partition the joiner; survivors must stay clean — no phantom disagreement"
# SIGSTOP is a partition, not a membership change: connections to node 4
# hang and time out, but nobody's view moves and nobody's stamp differs,
# so the disagreement counters must NOT advance while the survivors
# serve verified traffic around the hole.
get_mismatches() { curl -sf "$1/metrics" | grep -o '"membership_mismatches":[0-9]*' | cut -d: -f2; }
M1_BEFORE="$(get_mismatches "$URL1")"
M2_BEFORE="$(get_mismatches "$URL2")"
kill -STOP "$NODE4_PID"
"$workdir/pipeschedbench" \
    -targets "$URL1,$URL2" \
    -verify "http://127.0.0.1:$PREF" \
    -requests "$REQUESTS" -seed $((SEED + 5)) -keys 64 -zipf-s 1.2 \
    -stages 6 -procs 4 -workers 8
M1_AFTER="$(get_mismatches "$URL1")"
M2_AFTER="$(get_mismatches "$URL2")"
kill -CONT "$NODE4_PID"
if [ "$M1_AFTER" != "$M1_BEFORE" ] || [ "$M2_AFTER" != "$M2_BEFORE" ]; then
    echo "partition moved disagreement counters: node1 $M1_BEFORE->$M1_AFTER, node2 $M2_BEFORE->$M2_AFTER" >&2
    exit 1
fi

echo "== survivor cluster metrics"
for port in "$P1" "$P2" "$P4"; do
    echo "-- 127.0.0.1:$port"
    curl -sf "http://127.0.0.1:$port/metrics" | tr ',' '\n' |
        grep -E 'forwarded|remote|hedged|fallback|peers|reloads|membership|gossip|joins|sync' || true
done
echo "-- chaosproxy log"
tail -2 "$workdir/chaosproxy.log" || true

echo "== cluster e2e passed: chaos, peer death, rolling restart, membership shrink and churn (join + partition), all phases verified clean"

#!/usr/bin/env bash
# Failover smoke test: a daemon that crashed, was reclaimed and came back
# under its old ID must be a live member at every daemon, so that the fleet
# still allocates after the owner dies too — the shell twin of
# TestRejoinedMemberIsAliveEverywhere, with the real binaries over real
# sockets. CI runs this after the fleet smoke.
set -euo pipefail

QUORUMD=${QUORUMD:-./quorumd}
QUORUMCTL=${QUORUMCTL:-./quorumctl}
SPACE=10.0.0.1-10.0.0.64
FLEET=127.0.0.1:18411,127.0.0.1:18412,127.0.0.1:18413

pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT

fail() {
    echo "smoke_failover: FAIL: $*" >&2
    exit 1
}

# start <id> [extra flags]: boot daemon <id> in the background; pids[id-1]
# is its process.
start() {
    local id=$1 peers="" j
    shift
    for j in 1 2 3; do
        [ "$j" = "$id" ] || peers+="${peers:+,}$j=127.0.0.1:1741$j"
    done
    "$QUORUMD" -id "$id" -space "$SPACE" \
        -listen "127.0.0.1:1741$id" -http "127.0.0.1:1841$id" \
        -peers "$peers" -heartbeat 100ms "$@" &
    pids[id - 1]=$!
}

# crash <id>: kill -9, no departure exchange.
crash() {
    kill -9 "${pids[$1 - 1]}"
    wait "${pids[$1 - 1]}" 2>/dev/null || true
}

# await <what> <command...>: poll until the command succeeds (20 s).
await() {
    local what=$1
    shift
    for _ in $(seq 1 100); do
        if "$@" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    fail "timed out waiting for $what"
}

# Piped checks grep to the end of quorumctl's output: `grep -q` stops at
# the first match, and under pipefail quorumctl's SIGPIPE on the lines
# after it would fail a check that matched (and pass owner_forgot_3).
status_says() { "$QUORUMCTL" -fleet "$FLEET" status 2>&1 | grep "$1" >/dev/null; }
owner_lists_3() { "$QUORUMCTL" -fleet "$FLEET" member list | grep -E '^ *3 ' >/dev/null; }
owner_forgot_3() { "$QUORUMCTL" -fleet "$FLEET" member list >/dev/null && ! owner_lists_3; }

start 1 -bootstrap
start 2
start 3
# "up" only says the HTTP ports answer: daemons 2 and 3 may still be joining.
await "formation" status_says "3/3 daemons up, owner 1"
await "node 2 to join" status_says ":18412 *2 *member"
await "node 3 to join" status_says ":18413 *3 *member"

crash 3
await "the owner to reclaim node 3" owner_forgot_3

# "up" only says reachable: wait until daemon 3 has joined, or its next
# CH_REQ retry could land at the promoted owner and be admitted afresh there.
start 3
await "node 3 to come back" status_says "3/3 daemons up, owner 1"
await "node 3 to rejoin" status_says ":18413 *3 *member"

crash 1
await "daemon 2 to take over" status_says "2/3 daemons up, owner 2"

"$QUORUMCTL" -fleet "$FLEET" allocate | grep "allocated 10.0.0." >/dev/null ||
    fail "the promoted owner does not allocate"

echo "smoke_failover: PASS"

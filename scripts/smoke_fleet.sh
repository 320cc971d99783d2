#!/usr/bin/env bash
# Fleet smoke test: boot three quorumd daemons, drive them with quorumctl,
# and assert clean exit codes end to end. CI runs this after the unit
# suites; it exercises the real binaries over real sockets.
set -euo pipefail

QUORUMD=${QUORUMD:-./quorumd}
QUORUMCTL=${QUORUMCTL:-./quorumctl}
SPACE=10.0.0.1-10.0.0.64
FLEET=127.0.0.1:18401,127.0.0.1:18402,127.0.0.1:18403

pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT

fail() {
    echo "smoke_fleet: FAIL: $*" >&2
    exit 1
}

"$QUORUMD" -id 1 -bootstrap -space "$SPACE" \
    -listen 127.0.0.1:17401 -http 127.0.0.1:18401 \
    -peers "2=127.0.0.1:17402,3=127.0.0.1:17403" \
    -heartbeat 100ms -replication-target 2 &
pids+=($!)
"$QUORUMD" -id 2 -space "$SPACE" \
    -listen 127.0.0.1:17402 -http 127.0.0.1:18402 \
    -peers "1=127.0.0.1:17401,3=127.0.0.1:17403" \
    -heartbeat 100ms &
pids+=($!)
"$QUORUMD" -id 3 -space "$SPACE" \
    -listen 127.0.0.1:17403 -http 127.0.0.1:18403 \
    -peers "1=127.0.0.1:17401,2=127.0.0.1:17402" \
    -heartbeat 100ms &
pids+=($!)

# Wait for formation: status exits 0, reports the full fleet up, and shows
# daemons 2 and 3 as members ("up" only says their HTTP ports answer).
formed=""
for _ in $(seq 1 100); do
    if out=$("$QUORUMCTL" -fleet "$FLEET" status 2>&1) &&
        grep -q "3/3 daemons up, owner 1" <<<"$out" &&
        grep -q ":18402 *2 *member" <<<"$out" &&
        grep -q ":18403 *3 *member" <<<"$out"; then
        formed=yes
        break
    fi
    sleep 0.2
done
[ -n "$formed" ] || fail "cluster never formed; last status: $out"
echo "$out"

# Piped checks grep to the end of quorumctl's output: `grep -q` stops at
# the first match, and under pipefail quorumctl's SIGPIPE on the lines
# after it would fail a check that matched.
"$QUORUMCTL" -fleet "$FLEET" member list || fail "member list exited $?"
"$QUORUMCTL" -fleet "$FLEET" health || fail "health exited $?"
"$QUORUMCTL" -fleet "$FLEET" allocate | grep "allocated 10.0.0." >/dev/null ||
    fail "allocate did not report an address"

# Graceful removal of node 3, then the fleet table must show it departed.
"$QUORUMCTL" -fleet "$FLEET" member remove 3 || fail "member remove exited $?"
"$QUORUMCTL" -fleet "$FLEET" status | grep "departed" >/dev/null ||
    fail "status does not show node 3 departed"
"$QUORUMCTL" -fleet "$FLEET" trace tail -kind=node_departed |
    grep node_departed >/dev/null || fail "no node_departed trace event"

# Unknown node and unknown trace kind are clean failures (exit 1), not 0.
if "$QUORUMCTL" -fleet "$FLEET" member remove 9 2>/dev/null; then
    fail "removing an unknown node exited 0"
fi
if "$QUORUMCTL" -fleet "$FLEET" trace tail -kind=bogus 2>/dev/null; then
    fail "an unknown trace kind exited 0"
fi

echo "smoke_fleet: PASS"

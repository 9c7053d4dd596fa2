#!/bin/sh
# Repo health check: static analysis, the test suite under the race
# detector, and the end-to-end determinism smoke — the figure document must
# be byte-identical between -j 1 and -j N, two identical instrumented runs
# must produce byte-identical metrics snapshots, Chrome traces and blame
# reports, and the fault-injected postmortem must name its blame.
#
# Usage: check.sh [-guards] [-short] [-full] [-j N] [-faults] [-rail] [-chaos] [-seed N]
#
# The determinism smoke also re-renders the document at -shards 4 and
# requires the same bytes as the serial engine (docs/MODEL.md §17).
#
#   -guards  run only the banned-pattern guards (seconds; the CI build
#            job runs this)
#   -short   pass -short to go test (the CI race-shard budget: quick-mode
#            suites only, minutes-long class B gates skipped)
#   -full    nightly mode: the complete class B suite including the
#            reproduction acceptance gates, with a generous timeout
#   -j N     worker count for the determinism smoke's parallel run
#            (default 8)
#   -faults  also run the fault-injection smoke (all three interconnects,
#            healthy and 1% drop) and its seeded-replay determinism check
#   -rail    also run the multi-rail failover smoke (bonded pairs x
#            {failover, stripe}) and its seeded-replay determinism check
#   -chaos   also run the Clos chaos soak (kill storms x interconnects x
#            routing policies — every scenario must land typed-or-success,
#            never hang) with sharded and unsharded seeded-replay checks
#   -seed N  fault-plan seed for -faults/-rail/-chaos (default 0 = the
#            committed seed)
#
# The default (no flags) runs the full test suite with a 30m timeout; since
# the experiment suite parallelizes across cores, this fits comfortably on
# multi-core hosts where the old serial suite needed 60m under race.
set -eu
cd "$(dirname "$0")/.."

guards=""
short=""
timeout=30m
jobs=8
faults=""
railsmoke=""
chaos=""
seed=0
while [ $# -gt 0 ]; do
    case "$1" in
    -guards) guards=1 ;;
    -short) short="-short" ;;
    -full) short="" timeout=60m ;;
    -j)
        shift
        jobs="$1"
        ;;
    -faults) faults=1 ;;
    -rail) railsmoke=1 ;;
    -chaos) chaos=1 ;;
    -seed)
        shift
        seed="$1"
        ;;
    *)
        echo "usage: check.sh [-guards] [-short] [-full] [-j N] [-faults] [-rail] [-chaos] [-seed N]" >&2
        exit 2
        ;;
    esac
    shift
done

echo "== engine hot-path guards =="
# The engine overhaul (docs/MODEL.md §15) removed interface boxing and
# closure-per-wake scheduling from internal/sim; neither may creep back.
# (Tests may use Schedule(0, ...) closures — only the library is guarded.)
if grep -rn --include='*.go' '"container/heap"' internal/sim/; then
    echo "FAIL: internal/sim imports container/heap (one boxed allocation per event)" >&2
    exit 1
fi
if grep -rn --include='*.go' --exclude='*_test.go' 'Schedule(0, func()' internal/sim/; then
    echo "FAIL: internal/sim wakes procs via per-event closures again (allocation per park/wake)" >&2
    exit 1
fi
# Park and resume are a coroutine switch (iter.Pull); a channel handoff
# costs two trips through the Go scheduler per cycle and may not return.
if grep -nw 'chan' internal/sim/proc.go || grep -n '<-' internal/sim/proc.go; then
    echo "FAIL: internal/sim/proc.go hands processes off over a channel again (scheduler round trip per park/wake)" >&2
    exit 1
fi
# The shard scheduler must stay deterministic: wall-clock reads and shared
# mutable counters inside the window loop would make the commit order (and
# so the replay bytes) depend on host scheduling. Process-wide counters
# accumulate per shard and merge through engine.go helpers instead.
if grep -n 'time\.Now\|time\.Since\|atomic\.' internal/sim/shard.go; then
    echo "FAIL: internal/sim/shard.go reads wall-clock or shared atomics (nondeterministic under shard scheduling)" >&2
    exit 1
fi
# The retry ladder (node-down check, route re-resolve, partition check,
# verdict, backoff) lives once, in internal/nic; a NIC model supplies only
# its hooks. Any of the ladder's own calls in a model means it forked again.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'NodeDeadDetected|LastRouteOf|VerdictExtra|FlightRetransmit' \
    internal/verbs/ internal/gm/ internal/elan/; then
    echo "FAIL: a NIC model runs its own retry ladder again (it belongs to internal/nic)" >&2
    exit 1
fi
echo "banned patterns absent"
if [ -n "$guards" ]; then
    exit 0
fi

echo "== go vet =="
go vet ./...

echo "== go test -race $short =="
go test -race $short -timeout "$timeout" ./...

echo "== determinism smoke test =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/paperrepro" ./cmd/paperrepro

# The parallel-runner contract: -j 1 and -j N render byte-identical docs.
"$tmp/paperrepro" -quick -j 1 -o "$tmp/doc_j1.md" 2>/dev/null
"$tmp/paperrepro" -quick -j "$jobs" -o "$tmp/doc_jN.md" 2>/dev/null
cmp "$tmp/doc_j1.md" "$tmp/doc_jN.md" || {
    echo "FAIL: figure document differs between -j 1 and -j $jobs" >&2
    exit 1
}
echo "figure document byte-identical at -j 1 and -j $jobs"

# The sharded-engine contract (docs/MODEL.md §17): partitioning each
# world's event queue is an execution knob like -j, never visible in output.
"$tmp/paperrepro" -quick -j 2 -shards 4 -o "$tmp/doc_s4.md" 2>/dev/null
cmp "$tmp/doc_j1.md" "$tmp/doc_s4.md" || {
    echo "FAIL: figure document differs between -shards 1 and -shards 4" >&2
    exit 1
}
echo "figure document byte-identical at -shards 1 and -shards 4"

# The observability contract: identical runs, identical artifacts.
for i in 1 2; do
    "$tmp/paperrepro" -obsnet Myri \
        -metrics "$tmp/snap$i.txt" -tracefile "$tmp/trace$i.json" 2>/dev/null
done
cmp "$tmp/snap1.txt" "$tmp/snap2.txt" || {
    echo "FAIL: metrics snapshots differ between identical runs" >&2
    exit 1
}
cmp "$tmp/trace1.json" "$tmp/trace2.json" || {
    echo "FAIL: Chrome traces differ between identical runs" >&2
    exit 1
}
echo "observability artifacts byte-identical across runs"

# The tracing contract: the fully-traced demo's blame report and
# flow-arrow Chrome trace are byte-identical across identical runs, and
# the fault-injected postmortem names the blamed rank, stage and message.
for i in 1 2; do
    "$tmp/paperrepro" -obsnet Myri -tracemsgs 1 \
        -tracefile "$tmp/flows$i.json" -blame "$tmp/blame$i.json" 2>/dev/null
done
cmp "$tmp/blame1.json" "$tmp/blame2.json" || {
    echo "FAIL: blame reports differ between identical traced runs" >&2
    exit 1
}
cmp "$tmp/flows1.json" "$tmp/flows2.json" || {
    echo "FAIL: traced Chrome traces differ between identical runs" >&2
    exit 1
}
"$tmp/paperrepro" -postmortem >"$tmp/postmortem.txt" || {
    echo "FAIL: postmortem scenario errored" >&2
    exit 1
}
grep -q 'blamed rank' "$tmp/postmortem.txt" || {
    echo "FAIL: postmortem output does not name a blamed rank" >&2
    exit 1
}
echo "tracing artifacts byte-identical; postmortem names its blame"

if [ -n "$faults" ]; then
    echo "== fault-injection smoke =="
    # Every interconnect must survive both the healthy control and 1% drop
    # (completing slower or failing typed — never hanging)...
    for rate in 0 0.01; do
        "$tmp/paperrepro" -faults -droprate "$rate" -seed "$seed" >"$tmp/faults_$rate.txt"
    done
    # ...and the seeded fault run must replay byte-identically.
    "$tmp/paperrepro" -faults -droprate 0.01 -seed "$seed" >"$tmp/faults_replay.txt"
    cmp "$tmp/faults_0.01.txt" "$tmp/faults_replay.txt" || {
        echo "FAIL: seeded fault run differs between identical replays" >&2
        exit 1
    }
    echo "fault smoke passed; seeded run byte-identical across replays"
fi

if [ -n "$railsmoke" ]; then
    echo "== multi-rail failover smoke =="
    # Every bonded pair must survive its primary dying at 50% of LU under
    # both policies (the solo control failing typed is asserted inside)...
    for pair in IBA+Myri IBA+QSN Myri+QSN; do
        for policy in failover stripe; do
            "$tmp/paperrepro" -railfail -railpair "$pair" -railpolicy "$policy" \
                -seed "$seed" >"$tmp/rail_${pair}_${policy}.txt"
        done
    done
    # ...and the seeded failover cascade must replay byte-identically.
    "$tmp/paperrepro" -railfail -railpair IBA+Myri -railpolicy failover \
        -seed "$seed" >"$tmp/rail_replay.txt"
    cmp "$tmp/rail_IBA+Myri_failover.txt" "$tmp/rail_replay.txt" || {
        echo "FAIL: seeded rail-failover run differs between identical replays" >&2
        exit 1
    }
    echo "rail smoke passed; seeded failover byte-identical across replays"
fi

if [ -n "$chaos" ]; then
    echo "== Clos chaos soak =="
    # Every interconnect under both routing policies must ride out the storm
    # schedule (kill+repair, correlated kill storm, node crash, full
    # partition), each scenario landing in its contracted outcome — the soak
    # exits non-zero on a hang, a wrong outcome or an untyped error...
    for net in IBA Myri QSN; do
        for routing in deterministic adaptive; do
            "$tmp/paperrepro" -chaos -faultnet "$net" -routing "$routing" \
                -seed "$seed" >"$tmp/chaos_${net}_${routing}.txt"
            if grep -q 'UNTYPED' "$tmp/chaos_${net}_${routing}.txt"; then
                echo "FAIL: untyped failure in the $net/$routing storm schedule" >&2
                exit 1
            fi
        done
    done
    # ...and the seeded storm must replay byte-identically, sharded or not.
    "$tmp/paperrepro" -chaos -faultnet IBA -routing deterministic \
        -seed "$seed" >"$tmp/chaos_replay.txt"
    cmp "$tmp/chaos_IBA_deterministic.txt" "$tmp/chaos_replay.txt" || {
        echo "FAIL: seeded chaos soak differs between identical replays" >&2
        exit 1
    }
    "$tmp/paperrepro" -chaos -faultnet IBA -routing deterministic \
        -seed "$seed" -shards 8 >"$tmp/chaos_s8.txt"
    cmp "$tmp/chaos_IBA_deterministic.txt" "$tmp/chaos_s8.txt" || {
        echo "FAIL: chaos soak differs between -shards 1 and -shards 8" >&2
        exit 1
    }
    echo "chaos soak passed; seeded storms byte-identical, sharded and not"
fi

echo "OK"

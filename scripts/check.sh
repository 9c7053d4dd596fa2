#!/bin/sh
# Repo health check: static analysis, the test suite under the race
# detector, and the end-to-end determinism smoke — the figure document must
# be byte-identical between -j 1 and -j N, two identical instrumented runs
# must produce byte-identical metrics snapshots, Chrome traces and blame
# reports, and the fault-injected postmortem must name its blame.
#
# Usage: check.sh [-guards] [-coverage] [-programs] [-short] [-full] [-j N] [-faults] [-rail] [-chaos] [-seed N]
#
#   -guards  run only the banned-pattern guards (seconds; the CI build
#            job runs this)
#   -coverage
#            run only the guards and the never-run check: the whole test
#            suite under coverage (minutes), failing on any function
#            outside cmd/ and examples/ that reads 0.0% and is not on
#            scripts/coverage-allow.txt, and on any allow-list entry that
#            no longer reads 0.0% (the nightly job runs this)
#   -programs
#            run only the guards and the unreached check: build every
#            cmd/* and examples/* with coverage, run the fixed program set
#            (minutes), and fail on any function outside cmd/ and
#            examples/ that no program reaches and that is not on
#            scripts/program-allow.txt, and on any entry there that a
#            program now reaches (the nightly job runs this)
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
#            never hang) and its seeded-replay determinism check
#   -seed N  fault-plan seed for -faults/-rail/-chaos (default 0 = the
#            committed seed)
#
# The default (no flags) runs the full test suite with a 30m timeout; since
# the experiment suite parallelizes across cores, this fits comfortably on
# multi-core hosts where the old serial suite needed 60m under race.
set -eu
cd "$(dirname "$0")/.."

guards=""
coverage=""
programs=""
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
    -coverage) coverage=1 ;;
    -programs) programs=1 ;;
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
        echo "usage: check.sh [-guards] [-coverage] [-programs] [-short] [-full] [-j N] [-faults] [-rail] [-chaos] [-seed N]" >&2
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
# The retry ladder (node-down check, route re-resolve, partition check,
# verdict, backoff) lives once, in internal/nic; a NIC model supplies only
# its hooks. Any of the ladder's own calls in a model means it forked again.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'NodeDownDetected|RoutePartitioned|VerdictExtra|FlightRetransmit' \
    internal/verbs/ internal/gm/ internal/elan/; then
    echo "FAIL: a NIC model runs its own retry ladder again (it belongs to internal/nic)" >&2
    exit 1
fi
# A message's trace ID rides the dev.Endpoint call and nic.Msg.TID; the
# recorder's ambient current-message cursor may not come back.
if grep -rnE --include='*.go' --exclude='*_test.go' 'SetCur|ClearCur|CurRail' internal/; then
    echo "FAIL: the trace ID travels through an ambient recorder cursor again (pass it to Eager/Control/Bulk)" >&2
    exit 1
fi
# The device verbs are implemented once, in internal/nic; a model supplies
# hooks (Shaper, Holder, Resender), not a send path of its own.
if grep -rnE --include='*.go' --exclude='*_test.go' 'func \(ep \*endpoint\) (Eager|Control|Bulk)\(' \
    internal/verbs/ internal/gm/ internal/elan/; then
    echo "FAIL: a NIC model defines its own Eager/Control/Bulk again (they belong to internal/nic)" >&2
    exit 1
fi
# There is one timing model, so no device model may branch on an
# execution mode again.
if grep -rnE --include='*.go' --exclude='*_test.go' '\bScale\(\)|\.scale\b' \
    internal/nic/ internal/verbs/ internal/gm/ internal/elan/; then
    echo "FAIL: a NIC model branches on an execution mode again (one timing model; see internal/nic)" >&2
    exit 1
fi
# The endpoint resolves each message's fabric segment once and routes it
# between the model's source and destination sides, built once and shared;
# a model that asks the topology for a route itself bypasses that and
# rebuilds a path per message.
if grep -rn --include='*.go' --exclude='*_test.go' 'Between(' \
    internal/verbs/ internal/gm/ internal/elan/; then
    echo "FAIL: a NIC model resolves fabric routes itself again (the endpoint hands it the segment; see internal/nic)" >&2
    exit 1
fi
# Every capability all networks share is a required dev.Network /
# dev.Endpoint / fabric.Topology method; only Elan's NIC matching
# (dev.NICMatcher) stays discovered by type assertion. An assertion to an
# anonymous interface or to another dev/metrics interface means a
# capability went optional again, with a dead fallback branch behind it.
if grep -rnE --include='*.go' --exclude='*_test.go' '\.\(interface ?\{|\.\((dev|metrics)\.' internal/ |
    grep -v '\.(dev\.NICMatcher)'; then
    echo "FAIL: a device capability is discovered by type assertion again (make it a required method; see internal/dev)" >&2
    exit 1
fi
# A device operation reports its failure on its own completion, so the
# issuer knows which operation failed; an endpoint-wide failure sink, and
# the bond's guess at which in-flight operation a report refers to, may
# not come back.
if grep -rnE --include='*.go' --exclude='*_test.go' 'OnFault\(|matchFailure' internal/; then
    echo "FAIL: a device failure travels through an endpoint-wide sink again (report it on the operation's done callback; see internal/dev)" >&2
    exit 1
fi
# A bond op has at most one member issue in flight and each completes
# once, so nothing can arrive twice: no duplicate suppression, no pair
# epoch, no per-endpoint in-flight lists to search. The op and probe
# records are reused, so no probe allocates its own timer.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'dup_suppressed|dupSuppressed|\.epoch\+\+|pending\[|AfterTimer\(' internal/rail/; then
    echo "FAIL: the bond guards against duplicates or allocates per probe again (one in-flight set, reused records; see internal/rail)" >&2
    exit 1
fi
# A Clos routes every message, healthy or faulty, through one function
# whose only memo is the stage pair per (source leaf, destination leaf,
# plane). A route cache, its on/off knob or the fault-transition epochs
# that invalidated it may not come back.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'SetRouteCache|closRoute|cacheOff|transitions|advance\(' internal/fabric/; then
    echo "FAIL: the Clos caches routes or keys them by fault epochs again (route every message through Clos.route; see internal/fabric)" >&2
    exit 1
fi
# Every recycled record has one owner inside its world: a free list kept
# by the network, world, rank or bond that issues it. A process-global
# sync.Pool shares records across the worlds of a -j run and drops them at
# random under the race detector, where the zero-alloc gates then fail.
if grep -rn --include='*.go' --exclude='*_test.go' 'sync\.Pool' internal/; then
    echo "FAIL: a record is recycled through a process-global sync.Pool again (keep it on its owner's free list, as rail.Network.newOp does)" >&2
    exit 1
fi
# Point-to-point has one implementation, the communicator's: Rank's calls
# are MPI_COMM_WORLD's, and every user entry runs Comm.check once. Every
# request has one lifetime: the one wait function frees it, for the user's
# waits as for the library's. A second front end, a per-request recycling
# flag, a second wait function or a second copy of the tag check may not
# come back.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'isendImpl|irecvImpl|\bpooled\s+bool|\.pooled\b|\bwaitOne\b|\bwaitFree\b' internal/mpi/; then
    echo "FAIL: a second point-to-point front end, a pooled request flag or a second wait function is back (check through Comm.check, free through wait; see internal/mpi/request.go)" >&2
    exit 1
fi
# The user holds requests through the Request value handle, whose stale use
# the handle check refuses by name; a bare record pointer handed out again
# could wait on a record its rank has since reused.
if grep -nE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*\([^{]*\*Request\b' internal/mpi/*.go | grep -v '_test\.go:'; then
    echo "FAIL: an exported internal/mpi function takes or returns *Request (hand out the Request value handle; see internal/mpi/request.go)" >&2
    exit 1
fi
if [ "$(grep -rnE --include='*.go' --exclude='*_test.go' 'panic\(.*user tag' internal/mpi/ | wc -l)" -ne 1 ]; then
    grep -rnE --include='*.go' --exclude='*_test.go' 'panic\(.*user tag' internal/mpi/ >&2
    echo "FAIL: the user-tag check is not in exactly one place (keep it in Comm.check)" >&2
    exit 1
fi
# Metrics registration only appends: every Counter, Gauge, Timer or
# SizeHist call hands out a fresh handle, probes and sources sit in one
# slice, and Snapshot folds same-name entries once. A name-keyed map in the
# registry brings back a hash and map growth per metric at wiring time.
if grep -n 'map\[string\]' internal/metrics/metrics.go; then
    echo "FAIL: the metrics registry keys metrics by name at registration again (append, and fold names once in Snapshot)" >&2
    exit 1
fi
# The metrics span log, the msgtrace span and message logs and the MPI
# timeline keep "the first N records, count the rest" once, in
# internal/reclog, and so does the varint coding of the packed span logs.
# A record slice, chunk array, drop counter, cap or record encoding of a
# log's own means the rule forked again.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    '^\s+\w+(, \w+)*\s+\[\](SpanRec|MsgRec|Event|spanRec)\b|[cC]hunk\w*\]|[dD]ropped\w*\s*(\+\+|\+=)|\w*Max\s+int\b|(spans|msgs|[eE]vents) = append\(|binary\.(Append|Put)U?[vV]arint' \
    internal/metrics/ internal/msgtrace/ internal/trace/ | grep -vE '^[^:]+:[0-9]+:\s*//'; then
    echo "FAIL: a record log grows, chunks, caps, counts drops or encodes records itself again (append through reclog.Log or reclog.Packed)" >&2
    exit 1
fi
# Both span streams share the packed layout: a msgtrace span is a
# reclog.Packed record coded against its sender's last span. The 48-byte
# fixed-width span log may not come back.
if grep -rnE --include='*.go' --exclude='*_test.go' 'reclog\.(Log|New)\[SpanRec\]' internal/msgtrace/; then
    echo "FAIL: the msgtrace span log holds fixed-width SpanRecs again (append through reclog.Packed; see newSpanLog)" >&2
    exit 1
fi
# The benchmark is bench/ (bash bench/run.sh, declared in BENCHMARK.json);
# the 1k-rank bytes/rank gate is TestScaleMemoryOrdering. A second
# benchmark script, committed baseline or host-timing record may not come
# back.
for f in scripts/bench* BENCH_*.json; do
    if [ -e "$f" ]; then
        echo "FAIL: $f is back: a second benchmark script or committed baseline (the benchmark is bench/run.sh)" >&2
        exit 1
    fi
done
if grep -rnE --include='*.go' --exclude='*_test.go' 'benchjson|SuiteMetrics|Timings\(\)' cmd internal examples ./*.go; then
    echo "FAIL: a host-timing record of the suite is back (the benchmark is bench/run.sh)" >&2
    exit 1
fi
# Recording a record stays inline at every call site: an unobserved world
# pays one nil or enabled check, never a call.
inl=$(go build -gcflags=-m ./internal/metrics ./internal/msgtrace ./internal/trace 2>&1)
for fn in '(*SpanTrack).Emit' '(*Recorder).Span' '(*Recorder).Finish' '(*Timeline).Add'; do
    if ! printf '%s\n' "$inl" | sed 's/$/|/' | grep -qF "can inline $fn|"; then
        echo "FAIL: $fn no longer inlines (keep its body under the inlining budget; see internal/reclog)" >&2
        exit 1
    fi
done
echo "banned patterns absent"
if [ -n "$guards" ]; then
    exit 0
fi

# unreached ALLOW FUNCS: compare a per-function coverage listing (go tool
# cover -func or go tool covdata func) with an allow-list of entries
# "<file> <function> <reason>". It prints every 0.0% function outside
# cmd/ and examples/ that is not listed, and every listed function that no
# longer reads 0.0%, and fails if there is either. cover -func names a
# method without its receiver, so there an entry covers every same-named
# function in its file; covdata func keeps the receiver (*Comm.Bcast).
unreached() {
    awk '
        FNR == NR {
            if ($0 !~ /^#/ && NF >= 3) allow[$1 " " $2] = 1
            next
        }
        $NF == "0.0%" && $1 !~ /^mpinet\/(cmd|examples)\// {
            key = substr($1, 1, index($1, ":") - 1) " " $2
            if (key in allow) {
                seen[key] = 1
            } else {
                print "0.0% and not allow-listed: " $1 " " $2
                bad = 1
            }
        }
        END {
            for (k in allow) {
                if (!(k in seen)) {
                    print "allow-list entry no longer 0.0% (remove it): " k
                    bad = 1
                }
            }
            exit bad
        }' "$1" "$2" >&2
}

if [ -n "$coverage" ]; then
    echo "== never-run functions =="
    # Every function the suite never runs is dead (delete it), a second
    # route to the same thing (fold it), public API without a test (test
    # it), or listed in scripts/coverage-allow.txt with the reason it
    # stays.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go test -timeout 30m -coverpkg=./... -coverprofile="$tmp/c.out" ./... >"$tmp/test.log" 2>&1 || {
        cat "$tmp/test.log" >&2
        echo "FAIL: the test suite failed under coverage" >&2
        exit 1
    }
    go tool cover -func="$tmp/c.out" >"$tmp/func.txt"
    unreached scripts/coverage-allow.txt "$tmp/func.txt" || {
        echo "FAIL: never-run functions outside the allow-list (delete, fold or test them)" >&2
        exit 1
    }
    echo "every never-run function is allow-listed"
    exit 0
fi

if [ -n "$programs" ]; then
    echo "== functions no program reaches =="
    # The tests call functions no program does, so the never-run check
    # cannot see code that only its own tests keep alive. This pass counts
    # what the commands and examples reach. Every function none of them
    # reaches is dead (delete it), a second route to the same thing (fold
    # it), or listed in scripts/program-allow.txt with the reason it stays.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mkdir "$tmp/bin" "$tmp/cov"
    for d in cmd/* examples/*; do
        go build -cover -coverpkg=./... -o "$tmp/bin/${d#*/}" "./$d"
    done
    prog() {
        GOCOVERDIR="$tmp/cov" "$tmp/bin/$@" >"$tmp/out.txt" 2>&1 || {
            cat "$tmp/out.txt" >&2
            echo "FAIL: $* exited non-zero" >&2
            exit 1
        }
    }
    prog paperrepro -quick -j 2 -csv "$tmp/csv"
    for net in IBA Myri QSN; do
        prog paperrepro -faults -faultnet "$net"
        prog paperrepro -chaos -faultnet "$net"
        prog paperrepro -obsnet "$net" -tracemsgs 4 -metrics "$tmp/m.txt" \
            -tracefile "$tmp/t.json" -blame "$tmp/b.json"
        prog paperrepro -postmortem -obsnet "$net"
        prog nasbench -app LU -net "$net" -procs 1024 -classB=false -topo clos:3:24:2
        prog nasbench -app LU -net "$net" -procs 8 -classB=false -timeline 20 -util
    done
    prog paperrepro -chaos -routing adaptive
    for pair in IBA+Myri IBA+QSN Myri+QSN IBA+Myri+QSN; do
        for policy in failover stripe; do
            prog paperrepro -railfail -railpair "$pair" -railpolicy "$policy"
        done
    done
    prog nasbench -quick
    prog nasbench -app LU -procs 8 -classB=false -topo crossbar
    prog nasbench -app LU -procs 8 -classB=false -topo fattree:24:2
    prog mpibench -quick
    prog mpibench -logp
    prog mpibench -fig 1 -plot -quick
    prog mpibench -fig 2 -csv -quick
    prog lowbench
    for d in examples/*; do
        prog "${d#*/}"
    done
    go tool covdata func -i "$tmp/cov" >"$tmp/func.txt"
    unreached scripts/program-allow.txt "$tmp/func.txt" || {
        echo "FAIL: functions no program reaches outside the allow-list (delete or fold them, or list them with a reason)" >&2
        exit 1
    }
    echo "every function no program reaches is allow-listed ($(tail -n 1 "$tmp/func.txt" | awk '{print $NF}') of statements reached)"
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
    # ...and the seeded storm must replay byte-identically.
    "$tmp/paperrepro" -chaos -faultnet IBA -routing deterministic \
        -seed "$seed" >"$tmp/chaos_replay.txt"
    cmp "$tmp/chaos_IBA_deterministic.txt" "$tmp/chaos_replay.txt" || {
        echo "FAIL: seeded chaos soak differs between identical replays" >&2
        exit 1
    }
    echo "chaos soak passed; seeded storms byte-identical"
fi

echo "OK"

#!/bin/sh
# Host-performance benchmarks. Two modes:
#
#   bench.sh [-j N] [-o FILE] [-quick|-full]
#       Suite parallelism record: run the figure suite serially (-j 1) and
#       parallel (-j N), verify the outputs are byte-identical, and emit
#       BENCH_parallel.json with both runs' wall-clock and event
#       throughput, plus the per-message trace-overhead record
#       (BenchmarkTraceOverhead: events/sec with tracing off, sampled
#       1-in-16, and full). On a single-CPU host the speedup is reported
#       as null with a reason — a wall-clock ratio taken where -j cannot
#       help is noise, not a parallelism measurement.
#
#   bench.sh -engine [-o FILE]
#       Engine hot-path record: run the macro suite-throughput benchmark
#       (BenchmarkSuiteEventsPerSec) plus the park/wake, typed-event and
#       transfer-chunk micro-benchmarks plus the 1024-rank Clos
#       scale-out record (BenchmarkScaleWorld: events/sec, bytes/rank,
#       allocs/op and peak live heap per interconnect), and emit
#       BENCH_engine.json with events/sec and allocs/op. The committed
#       copy is the baseline CI's perf-smoke and scale-perf jobs diff
#       against (warn at >10% events/sec regression; scale-perf hard-fails
#       a >5% bytes/rank regression). The before/after block records the
#       full-suite measurement taken at the overhaul boundary (both
#       binaries interleaved on one host); see docs/MODEL.md §15.
#
#   -j N     parallel worker count (default: host core count)
#   -o FILE  output path (default BENCH_parallel.json / BENCH_engine.json)
#   -full    benchmark the full class B suite instead of quick mode
#            (minutes per run; what the nightly job records)
set -eu
cd "$(dirname "$0")/.."

host_cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
jobs=$host_cpus
out=""
mode="-quick"
engine=""
while [ $# -gt 0 ]; do
    case "$1" in
    -j)
        shift
        jobs="$1"
        ;;
    -o)
        shift
        out="$1"
        ;;
    -quick) mode="-quick" ;;
    -full) mode="" ;;
    -engine) engine=1 ;;
    *)
        echo "usage: bench.sh [-engine] [-j N] [-o FILE] [-quick|-full]" >&2
        exit 2
        ;;
    esac
    shift
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ -n "$engine" ]; then
    out=${out:-BENCH_engine.json}

    echo "== macro: quick suite throughput (3 rounds) ==" >&2
    go test -run '^$' -bench 'BenchmarkSuiteEventsPerSec$' -benchtime 3x \
        ./internal/experiments/ >"$tmp/macro.txt"
    echo "== micro: park/wake, typed events, timers, transfer chunks ==" >&2
    go test -run '^$' -benchmem \
        -bench 'BenchmarkEngineCall$|BenchmarkProcParkWake$|BenchmarkTimerArmStop$' \
        ./internal/sim/ >"$tmp/sim.txt"
    go test -run '^$' -benchmem -bench 'BenchmarkTransferChunk$' \
        ./internal/fabric/ >"$tmp/fabric.txt"
    echo "== scale-out: 1024-rank Clos worlds (events/sec, bytes/rank) ==" >&2
    go test -run '^$' -benchmem -bench 'BenchmarkScaleWorld$' -benchtime 3x \
        ./internal/experiments/ >"$tmp/scale.txt"

    # metric FILE BENCH UNIT: the value reported with UNIT on BENCH's line.
    metric() {
        awk -v name="$2" -v unit="$3" \
            '$1 ~ "^"name {for (i = 2; i < NF; i++) if ($(i+1) == unit) {print $i; exit}}' "$1"
    }
    # go test suffixes benchmark names with -GOMAXPROCS (no suffix = 1).
    gmp=$(awk '$1 ~ /^BenchmarkSuiteEventsPerSec/ {n = split($1, a, "-"); if (n > 1) print a[n]; exit}' "$tmp/macro.txt")
    [ -n "$gmp" ] || gmp=1

    # scale_m NET UNIT: a BenchmarkScaleWorld sub-benchmark's metric.
    scale_m() { metric "$tmp/scale.txt" "BenchmarkScaleWorld/$1" "$2"; }

    micro() { # NAME FILE BENCH -> one JSON object line
        printf '    "%s": {"ns_per_op": %s, "allocs_per_op": %s}' \
            "$1" "$(metric "$2" "$3" ns/op)" "$(metric "$2" "$3" allocs/op)"
    }

    {
        printf '{\n'
        printf '  "host_cpus": %s,\n' "$host_cpus"
        printf '  "gomaxprocs": %s,\n' "$gmp"
        printf '  "go": "%s",\n' "$(go env GOVERSION)"
        printf '  "suite": {\n'
        printf '    "bench": "BenchmarkSuiteEventsPerSec",\n'
        printf '    "mode": "quick",\n'
        printf '    "events_per_op": %s,\n' "$(metric "$tmp/macro.txt" BenchmarkSuiteEventsPerSec events/op)"
        printf '    "events_per_sec": %s\n' "$(metric "$tmp/macro.txt" BenchmarkSuiteEventsPerSec events/s)"
        printf '  },\n'
        printf '  "scale_1k": {\n'
        printf '    "bench": "BenchmarkScaleWorld",\n'
        printf '    "workload": "1024 ranks on a 3-level radix-24 2:1 Clos, neighbor exchange + allreduce",\n'
        printf '    "events_per_sec": {"IBA": %s, "Myri": %s, "QSN": %s},\n' \
            "$(scale_m IBA events/s)" "$(scale_m Myri events/s)" "$(scale_m QSN events/s)"
        printf '    "bytes_per_rank": {"IBA": %s, "Myri": %s, "QSN": %s},\n' \
            "$(scale_m IBA bytes/rank)" "$(scale_m Myri bytes/rank)" "$(scale_m QSN bytes/rank)"
        printf '    "allocs_per_op": {"IBA": %s, "Myri": %s, "QSN": %s},\n' \
            "$(scale_m IBA allocs/op)" "$(scale_m Myri allocs/op)" "$(scale_m QSN allocs/op)"
        printf '    "peak_heap_bytes": {"IBA": %s, "Myri": %s, "QSN": %s}\n' \
            "$(scale_m IBA heap-bytes)" "$(scale_m Myri heap-bytes)" "$(scale_m QSN heap-bytes)"
        printf '  },\n'
        printf '  "overhaul_reference": {\n'
        printf '    "note": "full suite (-j 1), both binaries interleaved on the same single-CPU host at the overhaul commit; see docs/MODEL.md \\u00a715",\n'
        printf '    "events_dispatched": 1777554495,\n'
        printf '    "before_events_per_sec": 4102333,\n'
        printf '    "after_events_per_sec": 6628071,\n'
        printf '    "speedup": 1.62\n'
        printf '  },\n'
        printf '  "micro": {\n'
        micro engine_call "$tmp/sim.txt" BenchmarkEngineCall
        printf ',\n'
        micro proc_park_wake "$tmp/sim.txt" BenchmarkProcParkWake
        printf ',\n'
        micro timer_arm_stop "$tmp/sim.txt" BenchmarkTimerArmStop
        printf ',\n'
        micro transfer_chunk "$tmp/fabric.txt" BenchmarkTransferChunk
        printf '\n  }\n}\n'
    } >"$out"

    echo "wrote $out ($(metric "$tmp/macro.txt" BenchmarkSuiteEventsPerSec events/s) events/s on the quick suite)" >&2
    exit 0
fi

out=${out:-BENCH_parallel.json}
go build -o "$tmp/paperrepro" ./cmd/paperrepro

echo "== serial run (-j 1) ==" >&2
"$tmp/paperrepro" $mode -j 1 -o "$tmp/doc_serial.md" -benchjson "$tmp/serial.json" 2>/dev/null

echo "== parallel run (-j $jobs) ==" >&2
"$tmp/paperrepro" $mode -j "$jobs" -o "$tmp/doc_parallel.md" -benchjson "$tmp/parallel.json" 2>/dev/null

cmp "$tmp/doc_serial.md" "$tmp/doc_parallel.md" || {
    echo "FAIL: suite output differs between -j 1 and -j $jobs" >&2
    exit 1
}

echo "== trace overhead (observability demo: off / sampled 1-in-16 / full) ==" >&2
go test -run '^$' -bench 'BenchmarkTraceOverhead$' -benchtime 10x \
    ./internal/experiments/ >"$tmp/traceov.txt"

# bmetric BENCH UNIT: the value reported with UNIT on BENCH's output line
# (go test suffixes sub-benchmark names with -GOMAXPROCS).
bmetric() {
    awk -v name="$1" -v unit="$2" \
        '$1 ~ "^"name {for (i = 2; i < NF; i++) if ($(i+1) == unit) {print $i; exit}}' "$tmp/traceov.txt"
}
ov_off=$(bmetric BenchmarkTraceOverhead/off events/s)
ov_sampled=$(bmetric BenchmarkTraceOverhead/sampled16 events/s)
ov_full=$(bmetric BenchmarkTraceOverhead/full events/s)
ov_pct=$(awk "BEGIN { printf \"%.1f\", (1 - $ov_full / $ov_off) * 100 }")

# Pull one scalar field out of a per-run JSON (flat top-level keys).
field() {
    sed -n "s/^  \"$2\": \([0-9.eE+-]*\),*$/\1/p" "$1" | head -1
}
serial_wall=$(field "$tmp/serial.json" wall_seconds)
parallel_wall=$(field "$tmp/parallel.json" wall_seconds)
gomaxprocs=$(field "$tmp/serial.json" gomaxprocs)

# A speedup is only a parallelism measurement when the host can actually
# run workers in parallel; otherwise report null and say why.
if [ "$gomaxprocs" -le 1 ] 2>/dev/null; then
    speedup=null
    speedup_note="GOMAXPROCS=1: workers cannot run in parallel, wall-clock ratio would be scheduling noise"
else
    speedup=$(awk "BEGIN { printf \"%.3f\", $serial_wall / $parallel_wall }")
    speedup_note=""
fi

{
    printf '{\n'
    printf '  "host_cpus": %s,\n' "$host_cpus"
    printf '  "gomaxprocs": %s,\n' "${gomaxprocs:-0}"
    printf '  "mode": "%s",\n' "$([ -n "$mode" ] && echo quick || echo full)"
    printf '  "byte_identical": true,\n'
    printf '  "speedup": %s,\n' "$speedup"
    printf '  "speedup_note": "%s",\n' "$speedup_note"
    printf '  "trace_overhead": {\n'
    printf '    "bench": "BenchmarkTraceOverhead",\n'
    printf '    "workload": "observability demo (8 ranks, 4 nodes, IBA)",\n'
    printf '    "untraced_events_per_sec": %s,\n' "$ov_off"
    printf '    "sampled16_events_per_sec": %s,\n' "$ov_sampled"
    printf '    "full_events_per_sec": %s,\n' "$ov_full"
    printf '    "full_overhead_pct": %s\n' "$ov_pct"
    printf '  },\n'
    printf '  "serial": '
    cat "$tmp/serial.json"
    printf ',\n  "parallel": '
    cat "$tmp/parallel.json"
    printf '}\n'
} >"$out"

echo "wrote $out (serial ${serial_wall}s, parallel ${parallel_wall}s at -j $jobs, speedup ${speedup}x)" >&2

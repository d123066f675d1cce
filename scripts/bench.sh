#!/bin/sh
# bench.sh — run the engine benchmarks and write a machine-readable
# BENCH_<PR>.json in the repo root.
#
# Runs the four headline benchmarks (BFDNExplore, CTEExplore,
# TreeGeneration, SweepE14) plus the sweep-engine reuse variants with
# -benchmem, parses `go test -bench` output into JSON (ns/op, B/op,
# allocs/op, and any extra ReportMetric units such as points/sec and
# allocs/point), and embeds the previous snapshot's results as the baseline
# so before/after is one file. The header records the environment the
# numbers were taken on (go version, GOMAXPROCS, CPU model) — comparisons
# across machines are comparisons of machines, not code. See EXPERIMENTS.md
# ("Engine cost") for how to read the numbers, and scripts/benchdiff.sh for
# the delta table between two snapshots.
#
# Environment knobs:
#   BENCH_PR    suffix for the output file (default: highest existing
#               BENCH_*.json + 1, so a fresh run never overwrites a
#               committed snapshot)
#   BENCHTIME   passed to -benchtime (default 5x; use 20x for steady-state
#               allocs/point on the *Sweep benchmarks)
set -eu

cd "$(dirname "$0")/.."

# highest_pr prints the largest numeric BENCH_*.json suffix, or 0. With an
# argument, only snapshots containing that string count.
highest_pr() {
    highest=0
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        [ -z "${1:-}" ] || grep -q "$1" "$f" || continue
        num="${f#BENCH_}"
        num="${num%.json}"
        case "$num" in
            *[!0-9]*) continue ;;
        esac
        [ "$num" -gt "$highest" ] && highest=$num
    done
    echo "$highest"
}

PREV="$(highest_pr)"
PR="${BENCH_PR:-$((PREV + 1))}"
BENCHTIME="${BENCHTIME:-5x}"
OUT="BENCH_${PR}.json"
BENCH_RE='^(BenchmarkBFDNExplore|BenchmarkCTEExplore|BenchmarkTreeMiningExplore|BenchmarkPotentialExplore|BenchmarkTreeGeneration|BenchmarkSweepE14|BenchmarkBFDNExploreSweep|BenchmarkCTEExploreSweep|BenchmarkTreeMiningExploreSweep|BenchmarkPotentialExploreSweep)$'

# Environment header fields. CPU model comes from /proc/cpuinfo on Linux and
# degrades to "unknown" elsewhere; GOMAXPROCS defaults to the core count
# unless the caller overrides it in the environment.
GO_VERSION="$(go env GOVERSION)"
MAXPROCS="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)}"
CPU_MODEL="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[ -n "$CPU_MODEL" ] || CPU_MODEL="unknown"

# The baseline is the previous snapshot's results keyed by benchmark name —
# derived, not hand-maintained, so it can never drift from what was actually
# measured. The first snapshot on a fresh checkout gets an empty baseline.
# End-to-end records from scripts/benchrecord.sh share the BENCH_ numbering
# but hold no "results", so they are skipped here.
BASE_PR="$(highest_pr '"results"')"
BASELINE_FILE=""
[ "$BASE_PR" -gt 0 ] && BASELINE_FILE="BENCH_${BASE_PR}.json"

raw=$(go test -run '^$' -bench "$BENCH_RE" -benchmem -benchtime "$BENCHTIME" .)

# A non-numeric suffix (CI uses BENCH_PR=smoke) is emitted as a JSON string.
case "$PR" in
    *[!0-9]*) PR_JSON="\"$PR\"" ;;
    *) PR_JSON="$PR" ;;
esac

{
    printf '{\n'
    printf '  "pr": %s,\n' "$PR_JSON"
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "goVersion": "%s",\n' "$GO_VERSION"
    printf '  "gomaxprocs": %s,\n' "$MAXPROCS"
    printf '  "cpu": "%s",\n' "$CPU_MODEL"
    if [ -n "$BASELINE_FILE" ]; then
        printf '  "baselineFrom": "%s",\n' "$BASELINE_FILE"
        printf '  "baseline": '
        python3 - "$BASELINE_FILE" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    prev = json.load(f)
out = {r["name"]: r["metrics"] for r in prev.get("results", [])}
body = json.dumps(out, indent=4)
print("\n".join("  " + l if i else l for i, l in enumerate(body.splitlines())) + ",")
EOF
    else
        printf '  "baseline": {},\n'
    fi
    printf '  "results": [\n'
    printf '%s\n' "$raw" | awk '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", name, $2)
            msep = ""
            for (i = 3; i + 1 <= NF; i += 2) {
                line = line sprintf("%s\"%s\": %s", msep, $(i + 1), $i)
                msep = ", "
            }
            line = line "}}"
            if (sep != "") print sep
            printf "%s", line
            sep = ","
        }
        END { print "" }
    '
    printf '  ]\n'
    printf '}\n'
} >"$OUT"

# Fail loudly if the assembled JSON is malformed rather than committing a
# snapshot no tool can read.
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$OUT"

echo "wrote $OUT"

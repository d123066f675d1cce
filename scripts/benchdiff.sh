#!/bin/sh
# benchdiff.sh — print the delta table between two BENCH_*.json snapshots
# (as written by scripts/bench.sh) and exit non-zero when any benchmark
# regressed past the threshold; or, with -r, gate one end-to-end record
# written by scripts/benchrecord.sh on its own spread.
#
# Usage:
#   scripts/benchdiff.sh [-t ALLOWED] [OLD.json] [NEW.json]
#   scripts/benchdiff.sh -r RECORD.json
#
# Record mode (-r) reads the --trace 0 summary of every workload in the
# record and checks each end-to-end metric BENCHMARK.json declares. It flags
# a metric only when both hold: the ratio of the change's median to the
# parent's is worse than the metric's BENCHMARK.json bound (25% means a
# lower-is-better metric above 1.25, a higher-is-better one below 0.75),
# and the parent's and the change's min–max ranges do not overlap. A shift
# inside the runs' own spread is noise, not a regression. -t does not apply
# in this mode.
#
# With no files, compares the two highest-numbered BENCH_*.json in the repo
# root (previous → latest) that scripts/bench.sh wrote; the end-to-end
# records of scripts/benchrecord.sh hold no "results" and are skipped. With one file, compares its embedded "baseline"
# block against its own results. -t sets the allowed fractional regression
# per metric (default 0.25 = 25% worse); CI's smoke step passes -t 2.0
# (new ≤ 3× old) because a -benchtime 1x run is noise-bound and only meant
# to catch order-of-magnitude regressions.
#
# Direction matters per metric: ns/op, B/op, allocs/op and allocs/point
# regress upward; points/sec regresses downward. Informational metrics
# (nodes) are ignored. Benchmarks present on only one side are reported but
# never fail the run.
#
# When the two snapshots were taken at different -benchtime values, the
# iteration-amortized metrics (B/op, allocs/op, allocs/point) are skipped:
# the *Sweep benchmarks run b.N points in one sweep, so per-op allocations
# at 1x are pure construction cost and at 20x mostly steady state —
# comparing them across benchtimes measures the amortization horizon, not
# the code. Only ns/op and points/sec are compared in that case.
set -eu

cd "$(dirname "$0")/.."

ALLOWED=0.25 RECORD=""
while getopts t:r: opt; do
    case "$opt" in
        t) ALLOWED="$OPTARG" ;;
        r) RECORD="$OPTARG" ;;
        *) echo "usage: $0 [-t allowed-regression] [old.json] [new.json] | -r record.json" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))

if [ -n "$RECORD" ]; then
    export BENCHDIFF_RECORD="$RECORD"
    exec python3 - <<'EOF'
import json, os, sys

path = os.environ["BENCHDIFF_RECORD"]
with open(path) as f:
    rec = json.load(f)
with open("BENCHMARK.json") as f:
    spec = json.load(f)
if rec.get("kind") != "e2ebench":
    sys.exit(f"benchdiff: {path} is not a scripts/benchrecord.sh record")

rows, failures = [], []
for w, runs in rec["workloads"].items():
    summary = runs["trace0"]["summary"]
    n = len(runs["trace0"]["pairs"])
    for m in spec["end_to_end"]:
        row = summary.get(m["name"])
        if row is None or row["ratio_of_medians"] is None:
            continue
        par, chg, ratio = row["parent"], row["change"], row["ratio_of_medians"]
        if m["better"] == "lower":
            past_bound = ratio > 1 + m["bound"]
        else:
            past_bound = ratio < 1 - m["bound"]
        apart = par["max"] < chg["min"] or chg["max"] < par["min"]
        flag = ""
        if past_bound and apart:
            flag = "REGRESSION"
            failures.append(f"{w} {m['name']}: median {par['median']:.4g} -> {chg['median']:.4g} "
                            f"(x{ratio:.3f}, bound {m['bound']:.0%}), ranges "
                            f"[{par['min']:.4g}, {par['max']:.4g}] and [{chg['min']:.4g}, {chg['max']:.4g}]")
        elif past_bound:
            flag = "within spread"
        rows.append((f"{w} [{m['name']}]", str(n), f"{par['median']:.4g}", f"[{par['min']:.4g}, {par['max']:.4g}]",
                     f"{chg['median']:.4g}", f"[{chg['min']:.4g}, {chg['max']:.4g}]", f"x{ratio:.3f}", flag))

header = ("workload [metric]", "pairs", "parent", "range", "change", "range", "ratio", "")
widths = [max(len(r[i]) for r in (header,) + tuple(rows)) for i in range(len(header))]
print(f"record: {path}   parent {rec['parent']}")
for r in (header,) + tuple(rows):
    print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())
if failures:
    print(f"\n{len(failures)} regression(s) past their bound and outside the spread:", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
EOF
fi

OLD="${1:-}"
NEW="${2:-}"

if [ -z "$NEW" ] && [ -n "$OLD" ]; then
    NEW="$OLD"
    OLD=""
fi
if [ -z "$NEW" ]; then
    # Pick the two highest-numbered snapshots.
    set -- $(grep -l '"results"' BENCH_*.json 2>/dev/null | sort -t_ -k2 -n)
    if [ $# -lt 1 ]; then
        echo "benchdiff: no BENCH_*.json snapshots found" >&2
        exit 2
    fi
    if [ $# -ge 2 ]; then
        eval "OLD=\${$(($# - 1))}"
    fi
    eval "NEW=\${$#}"
fi

export BENCHDIFF_OLD="$OLD" BENCHDIFF_NEW="$NEW" BENCHDIFF_ALLOWED="$ALLOWED"
exec python3 - <<'EOF'
import json, os, sys

old_path = os.environ["BENCHDIFF_OLD"]
new_path = os.environ["BENCHDIFF_NEW"]
allowed = float(os.environ["BENCHDIFF_ALLOWED"])

with open(new_path) as f:
    new_doc = json.load(f)
new = {r["name"]: r["metrics"] for r in new_doc.get("results", [])}
old_benchtime = new_benchtime = new_doc.get("benchtime")
if old_path:
    with open(old_path) as f:
        old_doc = json.load(f)
    old = {r["name"]: r["metrics"] for r in old_doc.get("results", [])}
    old_benchtime = old_doc.get("benchtime")
    old_label = old_path
else:
    old = new_doc.get("baseline", {})
    old_label = f"{new_path}:baseline"
    if not old:
        print(f"benchdiff: {new_path} has an empty baseline and no old snapshot was given",
              file=sys.stderr)
        sys.exit(2)

# (metric, regresses-when) pairs; anything else is informational.
UP_IS_WORSE = ("ns/op", "B/op", "allocs/op", "allocs/point")
DOWN_IS_WORSE = ("points/sec",)
benchtime_note = ""
if old_benchtime != new_benchtime:
    UP_IS_WORSE = ("ns/op",)
    benchtime_note = (f"benchtime {old_benchtime} vs {new_benchtime}: "
                      "iteration-amortized metrics (B/op, allocs/*) skipped")

rows, failures = [], []
for name in sorted(set(old) | set(new)):
    if name not in old or name not in new:
        side = "new only" if name not in old else "removed"
        rows.append((name, "-", "-", "-", side))
        continue
    for metric in UP_IS_WORSE + DOWN_IS_WORSE:
        o, n = old[name].get(metric), new[name].get(metric)
        if o is None or n is None or o == 0:
            continue
        delta = (n - o) / o
        worse = delta if metric in UP_IS_WORSE else -delta
        flag = ""
        if worse > allowed:
            flag = "REGRESSION"
            failures.append(f"{name} {metric}: {o:g} -> {n:g} ({delta:+.1%})")
        rows.append((f"{name} [{metric}]", f"{o:g}", f"{n:g}", f"{delta:+.1%}", flag))

widths = [max(len(r[i]) for r in rows) for i in range(5)] if rows else [0] * 5
print(f"old: {old_label}")
print(f"new: {new_path}   allowed regression: {allowed:.0%}")
if benchtime_note:
    print(benchtime_note)
header = ("benchmark [metric]", "old", "new", "delta", "")
for r in (header,) + tuple(rows):
    print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())

if failures:
    print(f"\n{len(failures)} regression(s) past the {allowed:.0%} threshold:", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
EOF

#!/bin/sh
# benchrecord.sh — record end-to-end benchmark numbers for a change against
# its parent, with their spread, as BENCH_<PR>.json in the repo root.
#
# It wraps the repository benchmark (e2ebench/run.sh, declared by
# BENCHMARK.json) and changes neither. Two source trees are compared: the
# base revision (-b, default HEAD), unpacked with git archive, and the
# change, a snapshot of the working tree (tracked and untracked, not
# ignored, files). Each side builds from its own tree into its own
# directory under the work directory.
#
# Runs, all with the same workload seed and BENCHMARK.json's run_seconds:
#   - PAIRS parent/change pairs of the main workload at --trace 0, the order
#     inside a pair alternating (parent first, then change first, ...), so a
#     drift of the host over the recording hits both sides alike;
#   - five pairs of every other workload in BENCHMARK.json at --trace 0,
#     alternating the same way, so a workload the change should not move
#     also gets a spread to show that it did not;
#   - TRACED pairs of the main workload at --trace 1, which give the layer
#     self times (their medians over the pairs) and the per-layer metrics.
#
# The pairs run round-robin: pair i of every workload, traced pairs
# included, runs before pair i+1 of any, so a drift of the host's load
# over the recording spreads over all workloads instead of landing on the
# one whose block it overlaps.
#
# For every metric of every workload the output holds each side's median,
# quartiles (inclusive method), min and max over the pairs, the ratio of
# the medians, how many pairs the change won in the metric's direction
# (from BENCHMARK.json), and whether the medians differ by more than the
# parent's interquartile range. scripts/benchdiff.sh -r gates on it. Each run's
# correct/attempted/failed counts are kept; a run that fails a check makes
# the script exit 2 after the file is written.
#
# Usage:
#   scripts/benchrecord.sh [-b BASE] [-w WORKLOAD] [-p PAIRS] [-t TRACED]
#                          [-S SEED] [-d WORKDIR] [-o OUT]
#
#   -b  base revision (default HEAD)
#   -w  main workload (default async-sweep)
#   -p  pairs of the main workload (default 10)
#   -t  traced pairs of the main workload (default 1)
#   -S  --seed (default 1)
#   -d  work directory for the two trees and their builds
#       (default .bench_build/record)
#   -o  output file (default BENCH_<n>.json, n one past the highest
#       existing BENCH_*.json)
set -eu

cd "$(dirname "$0")/.."

BASE=HEAD WORKLOAD=async-sweep PAIRS=10 TRACED=1 SEED=1
WORKDIR=.bench_build/record OUT=""
while getopts b:w:p:t:S:d:o: opt; do
    case "$opt" in
        b) BASE="$OPTARG" ;;
        w) WORKLOAD="$OPTARG" ;;
        p) PAIRS="$OPTARG" ;;
        t) TRACED="$OPTARG" ;;
        S) SEED="$OPTARG" ;;
        d) WORKDIR="$OPTARG" ;;
        o) OUT="$OPTARG" ;;
        *) echo "usage: $0 [-b base] [-w workload] [-p pairs] [-t traced] [-S seed] [-d workdir] [-o out]" >&2; exit 2 ;;
    esac
done

if [ -z "$OUT" ]; then
    highest=0
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        num="${f#BENCH_}"
        num="${num%.json}"
        case "$num" in *[!0-9]*) continue ;; esac
        [ "$num" -gt "$highest" ] && highest=$num
    done
    OUT="BENCH_$((highest + 1)).json"
fi

case "$WORKDIR" in /*) ;; *) WORKDIR="$(pwd)/$WORKDIR" ;; esac
rm -rf "$WORKDIR/parent" "$WORKDIR/change"
mkdir -p "$WORKDIR/parent" "$WORKDIR/change"
git archive "$BASE" | tar -x -C "$WORKDIR/parent"
git ls-files -z -c -o --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$WORKDIR/change"

export REC_BASE="$(git rev-parse "$BASE")" REC_CHANGE="working tree on $(git rev-parse HEAD)"
export REC_WORKLOAD="$WORKLOAD" REC_PAIRS="$PAIRS" REC_TRACED="$TRACED" REC_SEED="$SEED" REC_WORKDIR="$WORKDIR" REC_OUT="$OUT"
exec python3 - <<'EOF'
import datetime, json, os, re, statistics, subprocess, sys

env = os.environ
workdir, out = env["REC_WORKDIR"], env["REC_OUT"]
main, pairs, seed = env["REC_WORKLOAD"], int(env["REC_PAIRS"]), env["REC_SEED"]
traced_pairs = int(env["REC_TRACED"])

with open("BENCHMARK.json") as f:
    spec = json.load(f)
seconds = str(spec["run_seconds"])
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
end_to_end = [m["name"] for m in spec["end_to_end"]]
workloads = [w["name"] for w in spec["workloads"]]
if main not in workloads:
    sys.exit(f"benchrecord: unknown workload {main!r}; BENCHMARK.json has {workloads}")

LAYER = re.compile(r"^layer\s+(\S+)\s+self\s+([0-9.]+) ms\s+([0-9.]+)%")
all_correct = True


def run(side, workload, trace):
    """One e2ebench run in side's tree; returns its parsed result."""
    global all_correct
    tree = os.path.join(workdir, side)
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", seconds, "--trace", str(trace)]
    e = dict(os.environ, CARGO_TARGET_DIR=os.path.join(workdir, side + "-build"))
    p = subprocess.run(cmd, cwd=tree, env=e, capture_output=True, text=True)
    lines = p.stdout.splitlines()
    rec = {"exit": p.returncode, "env": None, "layers": {}}
    for line in lines:
        if line.startswith("env "):
            rec["env"] = json.loads(line[4:])
        m = LAYER.match(line)
        if m:
            rec["layers"][m.group(1)] = {"self_ms": float(m.group(2)), "share_pct": float(m.group(3))}
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-4000:])
        sys.exit(f"benchrecord: {side} {workload} --trace {trace} exited {p.returncode} with no result line")
    rec.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
               metrics={k: v["value"] for k, v in last["metrics"].items()})
    if not last["correct"] or p.returncode != 0:
        all_correct = False
    print(f"{workload} trace={trace} {side:6s} exit={p.returncode} correct={last['correct']} "
          + " ".join(f"{k}={rec['metrics'][k]:.4g}" for k in end_to_end if k in rec["metrics"]),
          file=sys.stderr, flush=True)
    return rec


def pair(i, workload, trace):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    r = {side: run(side, workload, trace) for side in order}
    return {"first": order[0], "parent": r["parent"], "change": r["change"]}


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs)}


def summarize(ps, names):
    s = {}
    for name in names:
        if not all(name in p[side]["metrics"] for p in ps for side in ("parent", "change")):
            continue
        par = [p["parent"]["metrics"][name] for p in ps]
        chg = [p["change"]["metrics"][name] for p in ps]
        row = {"parent": spread(par), "change": spread(chg)}
        pm, cm = row["parent"]["median"], row["change"]["median"]
        row["ratio_of_medians"] = cm / pm if pm else None
        if name in better:
            wins = sum((c > p) if better[name] == "higher" else (c < p) for p, c in zip(par, chg))
            row["better"] = better[name]
            row["change_wins"] = f"{wins}/{len(ps)}"
            if len(ps) > 1:
                iqr = row["parent"]["q3"] - row["parent"]["q1"]
                gain = cm - pm if better[name] == "higher" else pm - cm
                row["gain_exceeds_parent_iqr"] = gain > iqr
        s[name] = row
    return s


def median_layers(layers):
    """Per layer, the median self time and share over the traced runs."""
    names = sorted(set().union(*layers))
    return {n: {k: statistics.median(l[n][k] for l in layers if n in l) for k in ("self_ms", "share_pct")}
            for n in names}


def strip(p):
    """A pair as stored: metrics and check counts, no env."""
    keep = ("exit", "correct", "attempted", "failed", "metrics")
    return {"first": p["first"], **{side: {k: p[side][k] for k in keep} for side in ("parent", "change")}}


result = {"kind": "e2ebench", "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
          "command": " ".join(spec["command"]), "seed": int(seed), "seconds": float(seconds),
          "parent": env["REC_BASE"], "change": env["REC_CHANGE"], "workloads": {}}

OTHER_PAIRS = 5
# Round-robin over (workload, trace) series: round i runs pair i of every
# series that has one.
series = {(main, 0): pairs, (main, 1): traced_pairs}
series.update({(w, 0): OTHER_PAIRS for w in workloads if w != main})
runs = {s: [] for s in series}
for i in range(max(series.values())):
    for s, n in series.items():
        if i < n:
            runs[s].append(pair(i, *s))

main_pairs = runs[(main, 0)]
result["env"] = {side: main_pairs[0][side]["env"] for side in ("parent", "change")}
result["workloads"][main] = {"trace0": {"pairs": [strip(p) for p in main_pairs],
                                        "summary": summarize(main_pairs, end_to_end)}}
for w in workloads:
    if w != main:
        ps = runs[(w, 0)]
        result["workloads"][w] = {"trace0": {"pairs": [strip(p) for p in ps], "summary": summarize(ps, end_to_end)}}
traced = runs[(main, 1)]
if traced:
    result["workloads"][main]["trace1"] = {
        "pairs": [strip(p) for p in traced],
        "layers": {side: median_layers([p[side]["layers"] for p in traced]) for side in ("parent", "change")},
        "summary": summarize(traced, sorted(traced[0]["parent"]["metrics"])),
    }
result["all_correct"] = all_correct

with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out}", file=sys.stderr)
sys.exit(0 if all_correct else 2)
EOF

#!/usr/bin/env bash
# Is the benchmark steady enough to judge a change on this machine?
#
#   ledger/check-noise.sh            two alternating sets of three runs per
#                                    workload (A B A B A B, same seeds on both
#                                    sides): prints each side's medians and the
#                                    relative gap per end-to-end metric; exits
#                                    non-zero if a gap exceeds the metric's
#                                    bound in BENCHMARK.json
#   ledger/check-noise.sh spread     ten runs per workload, each with another
#                                    seed: prints, per end-to-end metric, the
#                                    distance between the first and third
#                                    quartile as a share of the median, next to
#                                    the bound (the benchmark driver's own test)
#
# Output is Markdown; the committed copy is ledger/NOISE.md.
# Runs the command, the window and the bounds BENCHMARK.json names.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-pairs}" <<'PY'
import json, statistics, subprocess, sys, time

mode = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
seconds = str(bench["run_seconds"])

def run(workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}

def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    gap = (second - first) / first
    return gap if metric["better"] == "lower" else -gap

print(f"# Noise check ({mode})\n")
print(f"`{' '.join(bench['command'])}`, {seconds} s windows, "
      f"{time.strftime('%Y-%m-%d %H:%M:%S %Z')}.\n")
failed = []
for w in (w["name"] for w in bench["workloads"]):
    if mode == "spread":
        runs = [run(w, seed) for seed in range(1, 11)]
        print(f"## {w}\n\n| metric | median | q1 | q3 | (q3-q1)/median | bound |\n|---|---|---|---|---|---|")
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] or m["name"] == "setup_s" else " **over**"
            if flag:
                failed.append(f"{w} {m['name']}")
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f}{flag} | {m['bound']} |")
    else:
        sides = ([], [])
        for seed in (1, 2, 3):
            for side in sides:
                side.append(run(w, seed))
        print(f"## {w}\n\n| metric | set A median | set B median | B worse than A by | bound |\n|---|---|---|---|---|")
        for m in metrics:
            a, b = (statistics.median(r[m["name"]] for r in side) for side in sides)
            gap = worse_by(m, a, b)
            flag = "" if abs(gap) <= m["bound"] else " **over**"
            if flag:
                failed.append(f"{w} {m['name']}")
            print(f"| {m['name']} | {a:.6g} | {b:.6g} | {gap:+.4f}{flag} | {m['bound']} |")
    print(flush=True)
print("All within bounds." if not failed else "Over the bound: " + ", ".join(failed))
sys.exit(1 if failed else 0)
PY

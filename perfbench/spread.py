#!/usr/bin/env python3
"""Repeat the benchmark over seeds and judge its spread, or compare two sets.

    python3 perfbench/spread.py --workload onboard_512 [--workload ...]
        [--seeds 1-10] [--seconds S] [--out runs.jsonl] [--baseline old.jsonl]

Runs perfbench/run.py once per workload and seed (--trace 0), appends every
result with its host fingerprint to --out (JSON lines), and prints for each
end-to-end metric the median, the quartiles and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share of
the median, against the metric's bound from BENCHMARK.json. A spread under a
third of the bound is steady; setup_s is reported but not judged.

With --baseline, the medians are compared with an earlier --out file: a
metric is a regression when it is worse by more than its bound. Sets measured
on different host fingerprints are reported as incomparable, not compared.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "host": host, "result": result}


def load(path):
    return [json.loads(l) for l in Path(path).read_text().splitlines() if l.strip()]


def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["result"]]


def report(runs, spec, baseline):
    steady = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        bad = [r["seed"] for r in mine if r["exit"] != 0]
        print(f"\n{workload}: {len(mine)} runs, non-zero exits for seeds {bad or 'none'}")
        hosts = {json.dumps(r["host"], sort_keys=True) for r in mine}
        if len(hosts) > 1:
            print("  WARNING: runs come from more than one host fingerprint")
        base = [r for r in baseline if r["workload"] == workload]
        comparable = bool(base) and {json.dumps(r["host"], sort_keys=True) for r in base} == hosts
        if base and not comparable:
            print("  baseline: incomparable (different host fingerprint)")
        for m in spec["end_to_end"]:
            v = values(mine, workload, m["name"])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            judged = m["name"] != "setup_s"
            ok = spread < m["bound"] / 3 or not judged
            steady &= ok
            line = (f"  {m['name']:16s} median {med:12.5g} q1 {q1:12.5g} q3 {q3:12.5g} "
                    f"spread {spread:7.4f} bound {m['bound']:.2f} "
                    f"{'' if not judged else ('steady' if ok else 'NOT STEADY')}")
            if comparable:
                old = statistics.median(values(base, workload, m["name"]))
                worse = (med - old) / abs(old) if old else 0.0
                if m["better"] == "higher":
                    worse = -worse
                line += f" | baseline {old:.5g} worse by {worse:+.4f}"
                line += " REGRESSION" if worse > m["bound"] else ""
            print(line)
    return steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="JSON lines file the runs are appended to")
    parser.add_argument("--baseline", help="earlier --out file to compare medians with")
    parser.add_argument("--report", help="only report an existing --out file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    if args.report:
        runs = load(args.report)
    else:
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        runs = []
        for w in workloads:
            for seed in parse_seeds(args.seeds):
                r = run_once(w, seed, seconds)
                runs.append(r)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(r) + "\n")
                print(f"{w} seed {seed}: exit {r['exit']}", flush=True)
    baseline = load(args.baseline) if args.baseline else []
    sys.exit(0 if report(runs, spec, baseline) else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Proves, at tiny sizes, what the benchmark promises instead of assuming it:

  * every workload, untraced and traced, exits 0 with a correct result that
    names exactly the metrics of BENCHMARK.json (run.py rejects any other set);
  * a fault plan on network.forward raises the failed count, fails the
    correctness check and makes the run exit non-zero. The plan fires at
    random (p=0.5) because the serving tier re-runs a failed micro-batch
    frame by frame, which would absorb a fault on every n-th call. The int8
    forward (QuantizedNetwork::forward) never calls Network::forward, so on
    onboard_512_int8 the plan cannot fire: the test asserts that instead, and
    failure accounting there is the same code as on onboard_512;
  * a directory holding only BENCHMARK.json and perfbench/ makes run.py exit
    non-zero without printing a result.

Exits 0 when every case holds. Takes a few minutes (one build if needed).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAULT_PLAN = "network.forward:throw:p=0.5"


def run(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            proc, result = run(w, trace)
            expect(proc.returncode == 0 and result is not None and result["correct"]
                   and result["failed"] == 0,
                   f"{w} --trace {trace}: exit 0, correct, no failures, every metric named")
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr[-2000:])
        proc, result = run(w, 0, "--fault-plan", FAULT_PLAN)
        if w.endswith("_int8"):
            expect(proc.returncode == 0 and result is not None and result["failed"] == 0,
                   f"{w} with fault plan {FAULT_PLAN!r}: no injection site, runs clean")
        else:
            expect(proc.returncode == 1 and result is not None and not result["correct"]
                   and result["failed"] > 0,
                   f"{w} with fault plan {FAULT_PLAN!r}: failed > 0, correct false, exit 1")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc, result = run(spec["workloads"][0]["name"], 0, root=bare)
    expect(proc.returncode != 0 and result is None,
           "BENCHMARK.json + perfbench/ alone: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the DroNet benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--fault-plan PLAN] [--trace-out FILE]

Run from anywhere; paths resolve against the checkout holding this file. The
first run configures and builds the libraries, tools/serve_worker and the
harness in Release under $CARGO_TARGET_DIR (default .bench_build) of the
checkout; later runs rebuild incrementally. The harness's stdout is passed
through once its last line has been checked against BENCHMARK.json: exactly
the keys correct/attempted/failed/metrics, and exactly the end-to-end
(--trace 0) or per-layer (--trace 1) metric names.

Exit codes: the harness's own (0 ok, 1 a correctness check failed), 2 when
the checkout is incomplete or the build fails, 3 when the result line does
not match BENCHMARK.json, 4 on timeout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/serve_worker.cpp",
            "weights/DroNet.weights", "weights/DroNet.meta", "BENCHMARK.json"]
RUN_TIMEOUT_S = 175


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build(out):
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(2, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "dronet_perfbench", "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail(2, "build failed")


def check_result(line, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not a JSON result"
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    names = list(result["metrics"])
    missing = sorted(set(expected) - set(names))
    extra = sorted(set(names) - set(expected))
    if missing or extra or len(names) != len(set(names)):
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    bad = [n for n, m in result["metrics"].items()
           if m.get("unit") != units[n] or not isinstance(m.get("value"), (int, float))]
    if bad:
        return f"metrics with a wrong unit or a non-numeric value: {bad}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--trace-out")
    args, extra = parser.parse_known_args()

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        fail(2, f"incomplete checkout, missing {missing}")
    out = build_dir()
    # Compilers and the harness keep their temporary files inside the build
    # directory, so a run touches nothing outside the checkout.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    build(out)

    trace_out = args.trace_out or str(out / f"trace-{args.workload}.json")
    cmd = [str(out / "dronet_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--worker-bin", str(out / "dronet" / "tools" / "serve_worker")]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = (f"harness exited {proc.returncode}" if proc.returncode not in (0, 1)
               else check_result(lines[-1], args.trace))
    if problem:
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("{")))
        fail(3 if proc.returncode in (0, 1) else 2, problem)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

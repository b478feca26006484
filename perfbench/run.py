#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  The first run configures and builds
the simulator and the benchmark (Release) under $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed.  The benchmark's output
is printed once it has finished and its last line has been checked: one JSON
object holding exactly the metrics BENCHMARK.json lists for the mode.  Any
failure exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def expected_metrics(trace: str):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    bench = json.loads(spec.read_text())
    return [m["name"] for m in bench["end_to_end" if trace == "0" else "per_layer"]]


def check_result(line: str, expected) -> str:
    """Return an error message, or '' when the result line is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if expected is not None and list(result["metrics"]) != expected:
        return "metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(result["metrics"]) ^ set(expected)))
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans-dir", str(build_dir / "spans")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    error = check_result(lines[-1], expected_metrics(args.trace))
    if error:
        sys.stderr.write(proc.stdout)
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write one point of the benchmark trajectory, ``BENCH_<number>.json``.

For every workload in ``BENCHMARK.json`` this runs ``perfbench/run.py``
once untraced (the six end-to-end metrics) and once traced (the per-layer
metrics), both at seed 0 for 10 s, and then times the Tier-1 test suite.  The
file also records the environment: Python, numpy, CPU count and machine.

Usage, from the repository root:

    python3 tools/bench_point.py --number N
    python3 tools/bench_point.py --number M --root ../old-checkout --out old.json

``--root`` measures another checkout with that checkout's own benchmark and
tests; the file goes to ``<root>/BENCH_<number>.json`` unless ``--out`` is
given.  One point takes a few minutes: six benchmark runs of 10 s each plus
their checks, and one Tier-1 pass.  Each subprocess has a fixed time limit;
one that runs past it is stopped and recorded in the point as timed out
(``"timed_out": true``), so a hang cannot block the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
SEED = 0
SECONDS = 10.0
#: limits per subprocess: one benchmark run (10 s of rounds, its set-up and
#: checks; a round takes under 30 s), and the whole Tier-1 suite
BENCH_TIMEOUT_S = 600.0
TIER1_TIMEOUT_S = 1800.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, required=True, help="point number, used in the file name")
    p.add_argument("--root", type=Path, default=HERE.parent, help="checkout to measure")
    p.add_argument("--out", type=Path, default=None, help="output file")
    return p.parse_args(argv)


def bench(root: Path, workload: str, trace: int) -> dict | None:
    """One perfbench run; its last stdout line is the result object.  None
    if the run passed BENCH_TIMEOUT_S."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=BENCH_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{' '.join(cmd)}: timed out after {BENCH_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(root: Path) -> dict:
    """Wall time and summary of the Tier-1 suite (ROADMAP.md's command)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {
            "wall_s": {"value": time.perf_counter() - t0, "unit": "s"},
            "exit_code": None,
            "summary": f"timed out after {TIER1_TIMEOUT_S:.0f} s",
            "timed_out": True,
        }
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else None,
        "timed_out": False,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    point = {
        "number": args.number,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for name in names:
        untraced, traced = (bench(root, name, trace) for trace in (0, 1))
        point["workloads"][name] = {
            "correct": bool(untraced and traced and untraced["correct"] and traced["correct"]),
            "timed_out": {"untraced": untraced is None, "traced": traced is None},
            "attempted": untraced and untraced["attempted"],
            "failed": untraced and untraced["failed"],
            "end_to_end": untraced and untraced["metrics"],
            "per_layer": traced and traced["metrics"],
        }
        print(f"{name}: {json.dumps(untraced and untraced['metrics'])}", file=sys.stderr)
    point["tier1"] = tier1(root)
    out = args.out or root / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

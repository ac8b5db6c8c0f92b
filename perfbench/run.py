"""anchorkit benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-a512 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end figures with tracing off.
``--trace 1`` is the separate traced run: it times the same loop first
untraced and then traced, reports the per-layer figures and the tracing
overhead, and checks that the traced outputs are byte-identical to the
untraced ones. ``all`` runs every workload in its own process and prints
each one's figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
name every figure with its unit and sample count, and the ``env`` record.
A full report (and, when traced, every span) is written under
``.perfbench_runs/`` in the checkout.

BLAS and OpenMP pools are pinned to ``nproc`` threads through environment
variables before numpy is imported; the count actually in effect is read
back from OpenBLAS and recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-a512", "train-a8", "infer-m8192", "full-m8192", "cli-pipeline")


def pin_threads() -> int:
    """Pin every BLAS/OpenMP pool to nproc threads; must precede numpy's import."""
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"workload {name} failed (exit {proc.returncode})", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    pinned = pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import harness
    except ImportError as exc:
        print(f"error: cannot import the package under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return harness.run_one(args.workload, args.seed, args.seconds, bool(args.trace), pinned)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for permlcp: lcp(), the decomposition layer and the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload separable_square --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --baseline      # every workload, untraced and traced
    python3 bench/run.py --record        # rewrite bench/reference.json

A timed run prints notes and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see BENCHMARK.json).
Only the standard library is used; the package is imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_harness():
    """Import the harness with the checkout's own permlcp, or exit with an error."""
    if not (SRC / "permlcp" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'permlcp'}; run from a permlcp checkout")
    sys.path.insert(0, str(SRC))
    import permlcp

    if Path(permlcp.__file__).resolve().parent != SRC / "permlcp":
        sys.exit(f"error: imported permlcp from {permlcp.__file__}, not from {SRC}")
    import harness

    return harness


def result_line(metrics: dict, ledger) -> str:
    return json.dumps(
        {
            "correct": ledger.correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    )


def run_one(args) -> None:
    harness = import_harness()
    cpu = harness.pin_to_one_cpu()
    if args.trace:
        metrics, ledger, notes = harness.run_traced(args.workload, args.seed)
    else:
        metrics, ledger, notes = harness.run_timed(args.workload, args.seed, args.seconds)
    for line in [f"pinned to CPU {cpu}", *notes, *ledger.messages]:
        print(f"# {args.workload}: {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload}: {name} = {value:.6g} {unit}")
    print(result_line(metrics, ledger))


def run_baseline(args) -> None:
    """Every workload in its own fresh process, untraced then traced; writes baseline.json."""
    import_harness()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {}
        for trace in (0, 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.exit(f"error: {workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["notes"] = [line[2:] for line in lines[:-1] if line.startswith("# ")]
            runs[workload]["traced" if trace else "untraced"] = result
    baseline = {
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--baseline", action="store_true", help="run every workload, write bench/baseline.json")
    mode.add_argument("--record", action="store_true", help="rewrite bench/reference.json")
    args = parser.parse_args()
    if args.record:
        harness = import_harness()
        reference = harness.record_reference()
        harness.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    elif args.baseline:
        run_baseline(args)
    elif args.workload:
        run_one(args)
    else:
        parser.error("give --workload, --baseline or --record")


if __name__ == "__main__":
    main()

"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload markowitz-mc --seed 1 --seconds 15 --trace 0

The program is esarb from ``src/`` of the checkout that holds this
directory: it is byte-compiled first, then each worker process imports it
from there.
With ``--trace 0`` the last line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics ``setup_s`` (median of five set-ups, each in
a fresh process), ``wall_s`` and ``peak_rss_mb``. With ``--trace 1`` one
traced worker runs instead and the metrics are the per-layer ones. See
``README.md`` for the workloads, metrics and reference figures.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("markowitz-mc", "density-threshold", "incomplete-study")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _worker(args, out_dir, deadline, setup_only=False):
    """Run one worker to its end and return its result object."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills the worker and waits for it when the deadline passes
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "esarb" / "__init__.py").is_file():
        print(f"error: no esarb package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: esarb does not byte-compile", file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = _worker(args, out_dir, deadline)
            units = _per_layer_units()
            unknown = sorted(set(units) - set(result["layers"]))
            if unknown:
                raise RuntimeError(f"the trace gives no value for {', '.join(unknown)}")
            metrics = {name: {"value": result["layers"][name], "unit": unit}
                       for name, unit in units.items()}
        else:
            setups = [_worker(args, out_dir, deadline, setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = _worker(args, out_dir, deadline)
            result["setup_s"] = statistics.median(setups + [result["setup_s"]])
            metrics = {name: {"value": result[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in out_dir.glob("*"):
            if not leftover.name.startswith("trace-"):
                leftover.unlink()
        if not any(out_dir.iterdir()):
            out_dir.rmdir()
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

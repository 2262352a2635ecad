"""rdplab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload {gauss-mc,uniform-mc,exact-sweep}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in its own
single-threaded process (``worker.py``), closed-loop with one caller.
Set-up is timed from process start to the first timed call; it is
repeated in ``SETUP_RUNS - 1`` set-up-only processes, half before and half
after the measured process so that they sample the machine at both ends
of the run, and reported as the median.  Every end-to-end time is
normalised by the machine speed the calibration kernel measures next to
it (``speed.py``); the raw figures are printed too, but not in the JSON.
Human-readable lines come first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, when the workload
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_RUNS = 5
TIME_LIMIT_S = 170.0


def _units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics this run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _worker(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run one worker process; returns its JSON and its start time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    # subprocess.run kills and reaps the worker if the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _setup_s(out: dict, started: float) -> float:
    """Normalised set-up time of one worker process."""
    return (out["setup_end"] - started) / out["setup_speed"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        units = _units(args.trace)
        setups = []
        probes = 0 if args.trace else SETUP_RUNS - 1
        for _ in range(probes // 2):
            probe, started = _worker(args, deadline, setup_only=True)
            setups.append(_setup_s(probe, started))
        out, main_started = _worker(args, deadline, setup_only=False)
        for _ in range(probes - probes // 2):
            probe, started = _worker(args, deadline, setup_only=True)
            setups.append(_setup_s(probe, started))
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        setups.append(_setup_s(out, main_started))
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
              f"measured and listed in BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {out['cycles']}  calls {out['attempted']}")
    print(f"  failed_frac  {out['failed'] / out['attempted']:.6g}  "
          f"({out['failed']} of {out['attempted']} calls)")
    for reason, count in out["failures"].items():
        print(f"    {count} x {reason}")
    if not args.trace:
        print(f"  machine speed  {out['speed']:.4g} x calibration nominal "
              f"(median over calls; times below are normalised by it)")
        for name, value in out["raw"].items():
            print(f"  {name} raw  {value:.6g} 1/s  (wall time, not normalised)")
    q = out["call_ms_quartiles"]
    print(f"  call_p50_ms  {q[1]:.6g} ms  (p25 {q[0]:.4g}, p75 {q[2]:.4g}, "
          f"over {out['attempted']} calls)")
    print(f"  call_p90_ms  {out['call_p90_ms']:.6g} ms"
          + ("" if out["attempted"] >= 100 else
             "  (unresolved: fewer than 100 calls, so fewer than ten beyond p90)"))
    if not args.trace:
        sq = statistics.quantiles(setups, n=4)
        print(f"  setup_s  {len(setups)} set-ups  p25 {sq[0]:.4g}  "
              f"p50 {sq[1]:.4g}  p75 {sq[2]:.4g}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this process and print one JSON object.

    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0|1
                                 [--setup-only]

``run.py`` starts this with one thread per math library.  The process sets
up (imports, inputs, check references, warm-up), then runs whole cycles of
the workload closed-loop -- one caller, each call after the previous one
returned -- until ``--seconds`` have passed, checking every output.
Between calls it runs blocks of the calibration kernel (``speed.py``), and
the end-to-end timings are normalised by the machine speed those blocks
measure; the raw figures are reported beside them.

With ``--trace 1`` each cycle runs twice on the same inputs, untraced and
then traced; the two must return bit-identical rows, and the difference in
call time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rdplab  # noqa: E402
import rdplab.cli  # noqa: E402,F401  (its import cost belongs to set-up)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_CAL_RUNS = 60   # kernel runs right after set-up


@dataclass
class Record:
    """Outcome of one timed call."""

    kind: str
    seconds: float
    samples: int
    points: int
    rows: list | None
    error: str | None        # the call raised
    wrong: str | None        # the call returned, and its output failed a check
    cycle: int = 0
    speed: float = 1.0       # kernel time next to the call over speed.NOMINAL_S


def run_calls(calls, refs, tracer=None, first_id=0) -> list[Record]:
    """Time each call, closed-loop, and check its output."""
    records = []
    for k, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = first_id + k
        t0 = time.perf_counter()
        try:
            out = workloads.invoke(call)
            error = None
        except Exception as exc:  # a raising call is one failed call
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        rows = wrong = None
        if error is None:
            rows = workloads.result_rows(call, out)
            wrong = refs.check(call, out)
        records.append(Record(call.kind, seconds, workloads.samples(call),
                              len(rows) if rows else 0, rows, error, wrong))
    return records


def setup(workload: str):
    """Inputs' check references and one warm-up call of each kind."""
    refs = checks.References(workloads.cycle_calls(workload, 0, 0))
    for call in workloads.warmup_calls(workload):
        workloads.invoke(call)
    return refs


def _failures(records) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in records:
        reason = r.error or r.wrong
        if reason:
            key = f"{r.kind}: {reason}"
            out[key] = out.get(key, 0) + 1
    return out


def _per_cycle_rates(records, normalised: bool) -> dict[str, float]:
    """Median over cycles of samples and points of the successful calls
    per second of call time (checks between calls are not counted)."""
    cycles = defaultdict(lambda: [0, 0, 0.0])
    for r in records:
        c = cycles[r.cycle]
        c[2] += r.seconds / r.speed if normalised else r.seconds
        if r.error is None and r.wrong is None:
            c[0] += r.samples
            c[1] += r.points
    return {"samples_per_s": statistics.median(s / t for s, _, t in cycles.values()),
            "points_per_s": statistics.median(p / t for _, p, t in cycles.values())}


def _summary(records, cycles: int) -> dict:
    ok = [r for r in records if r.error is None and r.wrong is None]
    ms = sorted(r.seconds / r.speed * 1e3 for r in records)
    quart = statistics.quantiles(ms, n=4) if len(ms) > 1 else [ms[0]] * 3
    return {
        "cycles": cycles,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "correct": not any(r.wrong for r in records),
        "failures": _failures(records),
        "call_ms_quartiles": quart,
        "call_p90_ms": (statistics.quantiles(ms, n=10)[8]
                        if len(ms) > 1 else ms[0]),
        "raw": _per_cycle_rates(records, normalised=False),
        "speed": statistics.median(r.speed for r in records),
        "metrics": {
            **_per_cycle_rates(records, normalised=True),
            "call_p50_ms": quart[1],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def measure(workload: str, seed: int, seconds: float, refs,
            before: tuple[float, int]) -> dict:
    """Closed-loop cycles with a calibration block after every call;
    ``before`` is the (time, runs) of the block before the first call."""
    records, cycle = [], 0
    cal_s, cal_runs = before
    deadline = time.perf_counter() + seconds
    while cycle == 0 or time.perf_counter() < deadline:
        for call in workloads.cycle_calls(workload, seed, cycle):
            (r,) = run_calls([call], refs)
            runs = speed.runs_after(r.seconds)
            after_s = speed.block(runs)
            r.speed = (cal_s + after_s) / (cal_runs + runs) / speed.NOMINAL_S
            r.cycle, r.rows = cycle, None
            cal_s, cal_runs = after_s, runs
            records.append(r)
        cycle += 1
    return _summary(records, cycle)


def measure_traced(workload: str, seed: int, seconds: float, refs) -> dict:
    tracer = tracing.Tracer()
    plain, traced, cycle, mismatched = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while cycle == 0 or time.perf_counter() < deadline:
        calls = workloads.cycle_calls(workload, seed, cycle)
        first = run_calls(calls, refs)
        with tracing.installed(tracer):
            second = run_calls(calls, refs, tracer, cycle * len(calls))
        mismatched += sum(a.rows != b.rows for a, b in zip(first, second))
        for r in first + second:
            r.rows = None
        plain += first
        traced += second
        cycle += 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    records = plain + traced
    out = _summary(records, cycle)
    layers = tracing.layer_metrics(tracer, cycle)
    layers["trace.overhead_s"] = (sum(r.seconds for r in traced)
                                  - sum(r.seconds for r in plain)) / cycle
    layers["trace.spans"] = len(tracer.start) / cycle
    layers["simlab.run_peak_mb"] = tracing.run_peak_mb(
        workloads.cycle_calls(workload, seed, 0))
    out["metrics"] = layers
    if mismatched:
        out["failures"]["traced rows differ from untraced rows"] = mismatched
        out["correct"] = False
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if Path(rdplab.__file__).resolve().parent != ROOT / "src" / "rdplab":
        print(f"rdplab imported from {rdplab.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    refs = setup(args.workload)
    setup_end = time.monotonic()
    cal_s = speed.block(SETUP_CAL_RUNS)
    if args.setup_only:
        out = {}
    elif args.trace:
        out = measure_traced(args.workload, args.seed, args.seconds, refs)
    else:
        out = measure(args.workload, args.seed, args.seconds, refs,
                      (cal_s, SETUP_CAL_RUNS))
    out["setup_end"] = setup_end
    out["setup_speed"] = cal_s / SETUP_CAL_RUNS / speed.NOMINAL_S
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

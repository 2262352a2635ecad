"""A/B benchmark of two source trees, in alternating pairs of harness runs.

    python tools/ab_bench.py PARENT CHANGE --label NAME [--pairs K]
                             [--first-seed S] [--seconds T] [--workload W ...]

PARENT and CHANGE are the roots of two checkouts; a plain copy made with
``git archive`` or ``git clone`` serves.  For each workload (by default
every one in CHANGE's ``BENCHMARK.json``) it runs K pairs of
``benchmarks/run.py --trace 0``, one run per tree, each from its own
root.  Pair i, counted from 1, runs seed S + i - 1 on both sides, the
parent first in odd pairs and the change first in even ones.  It only
calls ``run.py``, and edits nothing in either tree.

Writes ``BENCH_<NAME>.json`` in the current directory.  Per workload it
holds the seeds, which side ran first, and each run's ``correct``,
``attempted`` and ``failed``; per end-to-end metric, both sides' values
in pair order, their medians, the parent's interquartile range, the
ratios change/parent, the change's wins (pairs where it reads better;
ties count for neither), ``gain`` (at least nine wins in ten, and the
medians further apart, the change's way, than the parent's IQR) and
``within_bound`` (the change's median no worse than the parent's by more
than the metric's bound).  A run that fails stops the command with exit
status 1 and writes no file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def harness_run(root: Path, workload: str, seed: int,
                seconds: float) -> dict:
    """One ``run.py --trace 0`` run in the tree at ``root``: its JSON."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(workloads, pairs: int, first_seed: int, run) -> dict:
    """``pairs`` alternating pairs per workload; ``run(side, workload,
    seed)`` makes one run and returns its JSON.  Returns, per workload,
    the seeds, the side that ran first in each pair, and each side's runs
    in pair order."""
    out = {}
    for workload in workloads:
        seeds = [first_seed + i for i in range(pairs)]
        first = [SIDES[i % 2] for i in range(pairs)]
        runs = {side: [] for side in SIDES}
        for seed, lead in zip(seeds, first):
            for side in (SIDES if lead == "parent" else SIDES[::-1]):
                runs[side].append(run(side, workload, seed))
        out[workload] = {"seeds": seeds, "first": first, "runs": runs}
    return out


def quartiles(values) -> tuple[float, float, float]:
    """The quartiles of ``values``, interpolated between the order
    statistics (the 'inclusive' method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better: str, bound: float) -> dict:
    """One metric's A/B figures from both sides' values in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": q3 - q1,
        "ratios": [c / p if p else None for p, c in zip(parent, change)],
        "median_ratio": c_med / p_med if p_med else None,
        "wins": wins,
        "gain": 10 * wins >= 9 * len(parent)
                and sign * (c_med - p_med) > q3 - q1,
        "within_bound": sign * (c_med - p_med) >= -bound * abs(p_med),
    }


def summarize(paired: dict, spec: dict) -> dict:
    """Per workload, the A/B report of ``run_pairs``' output against the
    end-to-end metrics of ``spec`` (a parsed ``BENCHMARK.json``)."""
    report = {}
    for workload, got in paired.items():
        runs = got["runs"]
        entry = {"seeds": got["seeds"], "first": got["first"]}
        for key in ("correct", "attempted", "failed"):
            entry[key] = {side: [r[key] for r in runs[side]] for side in SIDES}
        entry["metrics"] = {}
        for m in spec["end_to_end"]:
            parent, change = ([r["metrics"][m["name"]]["value"]
                               for r in runs[side]] for side in SIDES)
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **compare(parent, change, m["better"], m["bound"])}
        report[workload] = entry
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--label", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--workload", action="append")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not args.label or "/" in args.label:
        p.error("--label must be a non-empty name without '/'")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    roots = {"parent": args.parent, "change": args.change}

    def run(side, workload, seed):
        print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
        return harness_run(roots[side], workload, seed, args.seconds)

    try:
        paired = run_pairs(workloads, args.pairs, args.first_seed, run)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"ab_bench: {exc}", file=sys.stderr)
        return 1
    report = {"label": args.label, "pairs": args.pairs,
              "first_seed": args.first_seed, "seconds": args.seconds,
              "workloads": summarize(paired, spec)}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:12s} {name:14s} {m['parent_median']:12.6g} -> "
                  f"{m['change_median']:12.6g}  wins {m['wins']}/{args.pairs}"
                  f"  IQR {m['parent_iqr']:.4g}  gain {m['gain']}  "
                  f"within bound {m['within_bound']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cross-check traced per-layer times against cProfile on one cycle.

    python3 benchmarks/profile_check.py --workload W [--seed N]

Runs cycle 0 of the workload once under cProfile (no wrappers) and once
traced, then prints, per traced name: calls seen by each, inclusive time
(cProfile ``cumtime``) and self time (cProfile ``cumtime`` minus the
``cumtime`` of traced callees reached from it).  cProfile charges every
Python-level call, so its times run high on Python-heavy code such as the
quadrature integrands; native numpy work is charged equally by both.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict

import worker  # first: it puts the checkout's src on the import path
import tracing
import workloads

# traced span name -> (file, function) pairs cProfile reports it as
FUNCS = {
    "rng.block": [("rng.py", "block")],
    "sources.quantile": [("sources.py", "quantile")],
    "sources.cdf": [("sources.py", "cdf")],
    "sources.sample": [("sources.py", "sample")],
    "stagger.build_boundaries": [("stagger.py", "build_boundaries")],
    "stagger.encode": [("stagger.py", "encode")],
    "stagger.simulate_pipeline": [("stagger.py", "simulate_pipeline")],
    "stagger.dithered_reference": [("stagger.py", "dithered_reference")],
    "stagger.exact_code_distribution": [("stagger.py", "exact_code_distribution")],
    "circle.simulate": [("circle.py", "simulate_staggered_circle"),
                        ("circle.py", "simulate_dithered_circle")],
    "metrics.ks_statistic": [("metrics.py", "ks_statistic")],
    "metrics.plugin_entropy": [("metrics.py", "plugin_entropy")],
    "metrics.moments_update": [("metrics.py", "update")],
    "quadrature.adaptive_simpson": [("quadrature.py", "adaptive_simpson")],
    "frontier.rdp_point": [("frontier.py", "rdp_point")],
    "frontier.rdp_curve": [("frontier.py", "rdp_curve")],
    "frontier.rate_at_distortion": [("frontier.py", "rate_at_distortion")],
    "simlab.run_experiment": [("simlab.py", "run_experiment")],
}


def _profile(calls, refs):
    prof = cProfile.Profile()
    prof.enable()
    worker.run_calls(calls, refs)
    prof.disable()
    stats = pstats.Stats(prof).stats
    owner = {}
    for key in stats:
        for name, funcs in FUNCS.items():
            if any(key[0].endswith("rdplab/" + f) and key[2] == fn
                   for f, fn in funcs):
                owner[key] = name
    calls_n, cum, child = defaultdict(int), defaultdict(float), defaultdict(float)

    def charge(key, amount, seen):
        """Give ``amount`` of traced-callee time to the nearest traced
        callers of ``key``, splitting through untraced functions by the
        time each of their callers spent in them."""
        if key in owner:
            child[owner[key]] += amount
            return
        callers = {c: v for c, v in (stats[key][4] if key in stats else {}).items()
                   if c not in seen}
        total = sum(v[3] for v in callers.values())
        for caller, v in callers.items():
            if total > 0:
                charge(caller, amount * v[3] / total, seen | {caller})

    for key, name in owner.items():
        _, nc, _, ct, callers = stats[key]
        calls_n[name] += nc
        cum[name] += ct
        for caller, v in callers.items():
            charge(caller, v[3], {key, caller})
    return {n: (calls_n[n], cum[n], cum[n] - child[n]) for n in calls_n}


def _traced(calls, refs):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        worker.run_calls(calls, refs, tracer)
    return {n: v[:3] for n, v in tracing.spans_by_name(tracer).items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    refs = worker.setup(args.workload)
    calls = workloads.cycle_calls(args.workload, args.seed, 0)
    prof = _profile(calls, refs)
    traced = _traced(calls, refs)
    print(f"{args.workload} seed {args.seed}, cycle 0")
    print(f"{'name':34s} {'calls tr/cp':>15s} {'incl s tr':>10s} "
          f"{'incl s cp':>10s} {'self s tr':>10s} {'self s cp':>10s}")
    for name in sorted(set(prof) | set(traced)):
        tn, ti, ts = traced.get(name, (0, 0.0, 0.0))
        pn, pi, ps = prof.get(name, (0, 0.0, 0.0))
        print(f"{name:34s} {tn:>7d}/{pn:<7d} {ti:10.4f} {pi:10.4f} "
              f"{ts:10.4f} {ps:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

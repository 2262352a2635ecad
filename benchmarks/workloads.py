"""The benchmark's workloads: which library calls each one makes.

A workload is an endless sequence of *cycles*; a cycle is a fixed list of
public library calls.  Every Monte Carlo seed in cycle ``c`` is derived
from ``(workload seed, c, position)``, so the same workload seed always
yields the same inputs, and the exact inputs (specs, lambda grid,
distortions) are the same in every cycle.

Why these workloads:

* ``gauss-mc`` -- one scalar-staggered Gaussian pipeline per cycle.  About
  90% of its time is the Gaussian quantile (decode and W1), so a faster
  quantile shows here and nowhere near as much elsewhere.
* ``uniform-mc`` -- circle-staggered, circle-dithered and a scalar uniform
  pipeline, all with closed-form quantiles.  Time goes to the per-block
  loop, substream derivation, encoding, the KS sort and ``np.unique``:
  what a streaming simulation engine changes.  A Gaussian-quantile change
  should move nothing here.
* ``exact-sweep`` -- what a parameter sweep runs: exact code distributions
  over a grid of specs (including a fine Gaussian grid that currently
  raises a false mass-identity fault and is counted as failed), the
  quadrature frontier, and short 2^13-sample simulations of the same specs.
  Little sampling, so table builds, adaptive Simpson and per-call fixed
  cost dominate; work moved into per-call set-up shows here as a loss.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from rdplab import frontier, simlab, stagger
from rdplab.rng import BLOCK
from rdplab.sources import parse_source

WORKLOADS = ("gauss-mc", "uniform-mc", "exact-sweep")

MC_SAMPLES = 1 << 20
SWEEP_SAMPLES = 1 << 13

# Scalar specs as (source, delta, offsets, origin).
SWEEP_GRID = tuple((src, delta, n, 0.0)
                   for src in ("uniform:0,1", "gauss:0,1")
                   for delta in (0.25, 0.5)
                   for n in (1, 2, 4))
# Fine Gaussian grids; the Delta=1e-3 one trips the false "mass identity
# violated" fault of the boundary table and must stay in the sweep.
FINE_GRID = (("gauss:0,1", 0.01, 8, 0.0), ("gauss:0,1", 1e-3, 8, 0.0))
FRONTIER_LAMBDAS = tuple(float(v) for v in np.geomspace(0.01, 100.0, 25))
FRONTIER_DISTORTIONS = (0.05, 0.2, 0.5, 1.0)


@dataclass(frozen=True)
class Call:
    """One public library call.

    ``kind`` is ``mc`` (``simlab.run_experiment``), ``exact``
    (``stagger.exact_code_distribution``), ``curve`` (``frontier.rdp_curve``)
    or ``rate`` (``frontier.rate_at_distortion``).  ``arg`` is the single
    argument handed to the library; ``key`` names the scalar spec an
    ``mc``/``exact`` call uses (``None`` for circle schemes and frontier).
    """

    kind: str
    arg: object
    key: tuple | None = None


def scalar_spec(key: tuple) -> stagger.StaggeredSpec:
    source, delta, offsets, origin = key
    return stagger.StaggeredSpec(parse_source(source), delta, offsets, origin)


def _scalar_config(key: tuple, samples: int, seed: int) -> simlab.ExperimentConfig:
    source, delta, offsets, origin = key
    return simlab.ExperimentConfig("scalar-staggered", source=source,
                                   delta=delta, offsets=offsets, origin=origin,
                                   n_samples=samples, seed=seed)


def _seeds(seed: int, cycle: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, cycle]).generate_state(count)
    return [int(s) for s in state]


def cycle_calls(workload: str, seed: int, cycle: int) -> list[Call]:
    """The calls of one cycle of ``workload`` (inputs depend on seed, cycle)."""
    if workload == "gauss-mc":
        key = ("gauss:0,1", 0.25, 4, 0.0)
        (s0,) = _seeds(seed, cycle, 1)
        return [Call("mc", _scalar_config(key, MC_SAMPLES, s0), key)]
    if workload == "uniform-mc":
        key = ("uniform:0,1", 0.25, 2, 0.125)
        s0, s1, s2 = _seeds(seed, cycle, 3)
        return [
            Call("mc", simlab.ExperimentConfig(
                "circle-staggered", levels=2, offsets=4,
                n_samples=MC_SAMPLES, seed=s0)),
            Call("mc", simlab.ExperimentConfig(
                "circle-dithered", levels=4, n_samples=MC_SAMPLES, seed=s1)),
            Call("mc", _scalar_config(key, MC_SAMPLES, s2), key),
        ]
    if workload == "exact-sweep":
        calls = [Call("exact", scalar_spec(key), key)
                 for key in SWEEP_GRID + FINE_GRID]
        calls.append(Call("curve", FRONTIER_LAMBDAS))
        calls.extend(Call("rate", d) for d in FRONTIER_DISTORTIONS)
        seeds = _seeds(seed, cycle, len(SWEEP_GRID))
        calls.extend(Call("mc", _scalar_config(key, SWEEP_SAMPLES, s), key)
                     for key, s in zip(SWEEP_GRID, seeds))
        return calls
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")


def warmup_calls(workload: str) -> list[Call]:
    """Small calls of every kind a workload makes, run once before timing."""
    calls = cycle_calls(workload, 0, 0)
    small = [dataclasses.replace(c, arg=dataclasses.replace(c.arg, n_samples=BLOCK))
             for c in calls if c.kind == "mc"]
    if workload == "exact-sweep":
        small += [calls[0], Call("curve", FRONTIER_LAMBDAS[::12])]
    return small


def invoke(call: Call):
    """Run one call.  Library functions are looked up at call time, so
    wrappers installed on the modules by the tracer are seen."""
    if call.kind == "mc":
        return simlab.run_experiment(call.arg)
    if call.kind == "exact":
        return stagger.exact_code_distribution(call.arg)
    if call.kind == "curve":
        return frontier.rdp_curve(call.arg)
    if call.kind == "rate":
        return frontier.rate_at_distortion(call.arg)
    raise ValueError(f"unknown call kind {call.kind!r}")


def samples(call: Call) -> int:
    """Monte Carlo samples the call draws."""
    return call.arg.n_samples if call.kind == "mc" else 0


def result_rows(call: Call, out) -> list[tuple]:
    """The call's output flattened to comparable rows; floats are kept
    exactly and arrays as raw bytes, so equality means bit-identical."""
    if call.kind == "mc":
        return [tuple(sorted(row.items())) for row in out]
    if call.kind == "exact":
        return [(out.avg_conditional_entropy_bits, out.pooled_entropy_bits,
                 out.mse_exact, out.dithered.entropy_bits,
                 out.codes.tobytes(), out.pooled_masses.tobytes(),
                 out.dithered.masses.tobytes())]
    if call.kind == "curve":
        return [(p.rate_bits, p.distortion, p.params) for p in out]
    return [(out,)]

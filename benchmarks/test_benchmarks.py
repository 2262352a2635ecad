"""Tests of the benchmark itself: tracing must not change results, the
wrappers must see every call, and the seed must drive the inputs.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from worker import Record, _per_cycle_rates, run_calls  # noqa: E402

SMALL = 3000    # not a multiple of the 1024-sample block


def _small(calls):
    return [dataclasses.replace(c, arg=dataclasses.replace(c.arg, n_samples=SMALL))
            if c.kind == "mc" else c for c in calls]


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_pair(request):
    calls = _small(workloads.cycle_calls(request.param, 7, 0))
    refs = checks.References(calls)
    plain = run_calls(calls, refs)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_calls(calls, refs, tracer)
    return calls, plain, traced, tracer


def test_traced_rows_bit_identical(traced_pair):
    calls, plain, traced, _ = traced_pair
    assert [r.rows for r in plain] == [r.rows for r in traced]
    assert [r.error for r in plain] == [r.error for r in traced]
    assert not any(r.wrong for r in plain + traced)


def test_wrappers_intercept_every_call(traced_pair):
    calls, _, _, tracer = traced_pair
    layers = tracing.layer_metrics(tracer, cycles=1)
    assert layers["rng.blocks"] == sum(math.ceil(workloads.samples(c) / 1024)
                                       for c in calls)
    assert layers["stagger.table_builds"] == sum(c.key is not None for c in calls)
    assert layers["metrics.ks_elems"] == SMALL * sum(c.kind == "mc" for c in calls)


def test_wrappers_removed_after_block():
    before = (workloads.simlab.run_experiment, tracing.rng.SampleStreams.block)
    with tracing.installed(tracing.Tracer()):
        assert workloads.simlab.run_experiment is not before[0]
    assert (workloads.simlab.run_experiment,
            tracing.rng.SampleStreams.block) == before


def test_exact_sweep_counts_the_fine_grid_fault(traced_pair):
    calls, plain, _, _ = traced_pair
    raised = [c.key for c, r in zip(calls, plain) if r.error]
    if any(c.kind == "exact" for c in calls):
        assert raised == [("gauss:0,1", 1e-3, 8, 0.0)]
    else:
        assert raised == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_drives_inputs(workload):
    a = workloads.cycle_calls(workload, 1, 0)
    assert a == workloads.cycle_calls(workload, 1, 0)
    assert a != workloads.cycle_calls(workload, 2, 0)
    assert a != workloads.cycle_calls(workload, 1, 1)


def test_checks_reject_wrong_outputs():
    calls = _small(workloads.cycle_calls("uniform-mc", 3, 0))
    refs = checks.References(calls)
    for call in calls:
        rows = workloads.invoke(call)
        assert refs.check(call, rows) is None
        for field, factor in (("distortion", 1.5), ("rate_bits", 1.1),
                              ("perception_ks", 50.0)):
            bad = [dict(rows[0], **{field: rows[0][field] * factor})]
            assert refs.check(call, bad) is not None, (call, field)

    curve = workloads.Call("curve", workloads.FRONTIER_LAMBDAS[:3])
    points = workloads.invoke(curve)
    assert refs.check(curve, points) is None
    shifted = [dataclasses.replace(p, distortion=p.distortion + 1e-6)
               for p in points]
    assert refs.check(curve, shifted) is not None


def test_normalised_rates_scale_with_machine_speed():
    def rec(cycle, seconds, speed_factor, error=None):
        return Record("mc", seconds, 1000, 1, None, error, None,
                      cycle, speed_factor)

    # A machine twice as slow as nominal makes calls twice as long and the
    # kernel twice as slow: the normalised rate is the nominal one.
    slow = [rec(0, 2.0, 2.0), rec(1, 2.0, 2.0), rec(2, 2.0, 2.0)]
    nominal = [rec(0, 1.0, 1.0), rec(1, 1.0, 1.0), rec(2, 1.0, 1.0)]
    assert _per_cycle_rates(slow, normalised=True) == \
        _per_cycle_rates(nominal, normalised=True) == \
        {"samples_per_s": 1000.0, "points_per_s": 1.0}
    assert _per_cycle_rates(slow, normalised=False)["samples_per_s"] == 500.0
    # failed calls cost time but complete no work
    failed = [rec(0, 1.0, 1.0), rec(0, 1.0, 1.0, error="boom")]
    assert _per_cycle_rates(failed, normalised=True)["samples_per_s"] == 500.0


def test_calibration_block_scales_with_call_time():
    assert speed.runs_after(0.0) == speed.MIN_RUNS
    assert speed.runs_after(3.0) == math.ceil(speed.SHARE * 3.0 / speed.NOMINAL_S)
    assert speed.block(3) > 0.0

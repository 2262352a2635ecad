"""Per-layer tracing from outside the library.

``installed(tracer)`` replaces each traced public function with a wrapper,
on the object where callers look the name up: the module attribute for
module functions (``stagger.ks_statistic`` and ``circle.ks_statistic``
are separate names), the class attribute for methods.  A wrapper records
one span per call -- name, start, end, parent span, benchmark call id and
one work count -- into the tracer's arrays and passes the result through
untouched.  Spans stay in memory until ``save``.

Self time is a span's duration minus the durations of its direct child
spans.  Every ``*_s`` per-layer metric is a sum of self times, so the
layers add up to the traced time without double counting.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
import tracemalloc
from array import array

import numpy as np

from rdplab import circle, frontier, metrics, rng, simlab, sources, stagger


class Tracer:
    """In-memory span store."""

    def __init__(self):
        self.call_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack: list[int] = []
        self.table_candidates = 0   # codes scanned by successful table builds

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_id)
        self.work.append(0)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, work: int = 0) -> None:
        self.end[i] = time.perf_counter()
        self.work[i] = work
        self._stack.pop()

    def save(self, path) -> None:
        """Write every span once, as arrays, to ``path`` (.npz)."""
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), call=np.array(self.call),
                 start=np.array(self.start), end=np.array(self.end),
                 work=np.array(self.work))


def _spanned(tracer: Tracer, name: str, fn, work=None):
    """Wrapper recording a span per call; ``work(args, result)`` -> count."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        count = 0
        try:
            out = fn(*args, **kwargs)
            if work is not None:
                count = work(args, out)
            return out
        finally:
            tracer.close(i, count)
    return wrapper


def _quadrature(tracer: Tracer, fn):
    """adaptive_simpson wrapper; work = integrand evaluations."""
    nid = tracer.name_id("quadrature.adaptive_simpson")

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        i = tracer.open(nid)
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(i, evals)
    return wrapper


def _candidate_codes(spec) -> int:
    """Codes build_boundaries considers before dropping inactive ones (the
    same j_min..j_max range it scans)."""
    lo, hi = spec.source.effective_support()
    n, o, d = spec.n_offsets, spec.origin, spec.delta
    j_min = math.ceil(n * ((lo - o) / d - 0.5)) - 1
    j_max = math.floor(n * ((hi - o) / d + 0.5)) + 1
    return j_max - j_min + 1


def _table_work(tracer: Tracer):
    """build_boundaries work: active codes; candidates tallied alongside."""
    def work(args, table):
        tracer.table_candidates += _candidate_codes(table.spec)
        return table.codes.size
    return work


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced name."""
    out = [(rng.SampleStreams, "block",
            _spanned(tracer, "rng.block", rng.SampleStreams.block))]
    for cls in (sources.UniformSource, sources.GaussianSource,
                sources.CircleSource):
        out += [
            (cls, "quantile", _spanned(
                tracer, "sources.quantile", cls.quantile,
                lambda args, _: int(np.size(args[1])))),
            (cls, "cdf", _spanned(tracer, "sources.cdf", cls.cdf)),
            (cls, "sample", _spanned(tracer, "sources.sample", cls.sample)),
        ]
    for name in ("encode", "simulate_pipeline", "dithered_reference",
                 "exact_code_distribution"):
        out.append((stagger, name, _spanned(tracer, f"stagger.{name}",
                                            getattr(stagger, name))))
    out.append((stagger, "build_boundaries", _spanned(
        tracer, "stagger.build_boundaries", stagger.build_boundaries,
        _table_work(tracer))))
    for name in ("simulate_staggered_circle", "simulate_dithered_circle"):
        out.append((circle, name, _spanned(tracer, "circle.simulate",
                                           getattr(circle, name))))
    for mod in (stagger, circle):
        out += [
            (mod, "ks_statistic", _spanned(
                tracer, "metrics.ks_statistic", mod.ks_statistic,
                lambda args, _: int(np.size(args[0])))),
            (mod, "plugin_entropy", _spanned(
                tracer, "metrics.plugin_entropy", mod.plugin_entropy)),
        ]
    out.append((metrics.RunningMoments, "update", _spanned(
        tracer, "metrics.moments_update", metrics.RunningMoments.update)))
    for mod in (stagger, frontier):
        out.append((mod, "adaptive_simpson",
                    _quadrature(tracer, mod.adaptive_simpson)))
    for name in ("rdp_point", "rdp_curve", "rate_at_distortion"):
        out.append((frontier, name, _spanned(tracer, f"frontier.{name}",
                                             getattr(frontier, name))))
    out.append((simlab, "run_experiment", _spanned(
        tracer, "simlab.run_experiment", simlab.run_experiment)))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block; code run
    outside it calls the library untouched."""
    targets = _targets(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def spans_by_name(tracer: Tracer) -> dict[str, tuple[int, float, float, int]]:
    """name -> (spans, inclusive seconds, self seconds, work) over all spans."""
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    work = np.frombuffer(tracer.work, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    inner = parent >= 0
    self_s = dur - np.bincount(parent[inner], weights=dur[inner],
                               minlength=dur.size)
    out = {}
    for i, n in enumerate(tracer.names):
        mask = name == i
        out[n] = (int(mask.sum()), float(dur[mask].sum()),
                  float(self_s[mask].sum()), int(work[mask].sum()))
    return out


def _rdp_points_per_answer(tracer: Tracer) -> float:
    """rdp_point spans whose parent is a rate_at_distortion span, per
    rate_at_distortion span."""
    ids = {n: i for i, n in enumerate(tracer.names)}
    rate_id = ids.get("frontier.rate_at_distortion")
    if rate_id is None:
        return 0.0
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    answers = int((name == rate_id).sum())
    in_rate = (name == ids["frontier.rdp_point"]) & (parent >= 0) \
        & (name[np.maximum(parent, 0)] == rate_id)
    return int(in_rate.sum()) / answers if answers else 0.0


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer metrics per cycle from the recorded spans."""
    spans = spans_by_name(tracer)

    def get(field, *names):
        return sum(spans[n][field] for n in names if n in spans) / cycles

    def count(*names):
        return get(0, *names)

    def busy(*names):
        return get(2, *names)

    def total_work(*names):
        return get(3, *names)

    built = total_work("stagger.build_boundaries") * cycles
    return {
        "rng.blocks": count("rng.block"),
        "rng.block_s": busy("rng.block"),
        "sources.quantile_calls": count("sources.quantile"),
        "sources.quantile_elems": total_work("sources.quantile"),
        "sources.quantile_s": busy("sources.quantile"),
        "sources.cdf_s": busy("sources.cdf"),
        "sources.sample_s": busy("sources.sample"),
        "stagger.table_builds": count("stagger.build_boundaries"),
        "stagger.table_build_s": busy("stagger.build_boundaries"),
        "stagger.table_active_ratio": (built / tracer.table_candidates
                                       if tracer.table_candidates else 0.0),
        "stagger.encode_s": busy("stagger.encode"),
        "stagger.simulate_self_s": busy("stagger.simulate_pipeline"),
        "stagger.dithered_reference_s": busy("stagger.dithered_reference"),
        "stagger.exact_self_s": busy("stagger.exact_code_distribution"),
        "circle.simulate_self_s": busy("circle.simulate"),
        "metrics.ks_s": busy("metrics.ks_statistic"),
        "metrics.ks_elems": total_work("metrics.ks_statistic"),
        "metrics.moments_updates": count("metrics.moments_update"),
        "metrics.moments_s": busy("metrics.moments_update"),
        "metrics.entropy_s": busy("metrics.plugin_entropy"),
        "quadrature.integrals": count("quadrature.adaptive_simpson"),
        "quadrature.integrand_evals": total_work("quadrature.adaptive_simpson"),
        "quadrature.s": busy("quadrature.adaptive_simpson"),
        "frontier.rdp_points": count("frontier.rdp_point"),
        "frontier.rdp_points_per_answer": _rdp_points_per_answer(tracer),
        "frontier.self_s": busy("frontier.rdp_point", "frontier.rdp_curve",
                                "frontier.rate_at_distortion"),
        "simlab.run_self_s": busy("simlab.run_experiment"),
    }


def run_peak_mb(calls) -> float:
    """Largest tracemalloc peak of one ``run_experiment`` call, in MiB.

    Kept out of the timed passes: tracing every allocation slows
    allocation-heavy code by tens of percent."""
    peak = 0
    for call in calls:
        if call.kind != "mc":
            continue
        tracemalloc.start()
        try:
            simlab.run_experiment(call.arg)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20

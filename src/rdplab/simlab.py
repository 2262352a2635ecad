"""Experiment orchestration: seeded runs, sweeps, config files.

Determinism contract: a given (scheme, params, samples, seed) always
produces bit-identical statistics.  Randomness is consumed in fixed
1024-sample blocks with one counter-based substream per block (see
``rng``).  A long run splits its blocks into contiguous ranges: the
first runs in the calling process, the others in helper processes that
it forks at its first split run and keeps (``metrics.simulate_chunks``).
Every range writes its blocks' distortion moments into run-long arrays
indexed by block and its integer bin counts into its own row, and the
caller combines the moments in block order and adds the rows, so the
statistics do not depend on the number of processes, on which process
ran which range, or on what the helpers ran before.  Seeds are
non-negative integers of any size.

Every output row, Monte Carlo or exact, is built by :func:`row`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import circle, frontier, stagger
from .rng import SampleStreams
from .sources import parse_source

SCHEMES = ("circle-staggered", "circle-dithered", "scalar-staggered", "frontier")


def parse_count(text) -> int:
    """An integer count, within +/-2^53 so that it is exact as a double."""
    value = int(text)
    if abs(value) > 2 ** 53:
        raise ValueError(f"must lie within +/-2^53, got a "
                         f"{len(str(abs(value)))}-digit integer")
    return value


def parse_seed(text) -> int:
    """A seed: any non-negative integer, of any size."""
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


# config-file key -> (ExperimentConfig field, value parser)
CONFIG_KEYS = {
    "scheme": ("scheme", str),
    "source": ("source", str),
    "delta": ("delta", float),
    "levels": ("levels", parse_count),
    "offsets": ("offsets", parse_count),
    "lambda": ("lam", float),
    "samples": ("n_samples", parse_count),
    "seed": ("seed", parse_seed),
    "origin": ("origin", float),
}

# scheme -> the config keys a sweep may vary: those its run reads
SCHEME_AXES = {
    "circle-staggered": ("levels", "offsets", "samples", "seed"),
    "circle-dithered": ("levels", "samples", "seed"),
    "scalar-staggered": ("delta", "offsets", "samples", "seed"),
    "frontier": ("lambda",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one experiment (mirrors the config-file keys)."""

    scheme: str
    source: str = "circle"
    delta: float = 0.25
    levels: int = 2
    offsets: int = 1
    lam: float = 1.0
    n_samples: int = 100_000
    seed: int = 0
    origin: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the engine counts about L bins per run, and its entropy reads them
        if (self.scheme in ("circle-staggered", "circle-dithered")
                and self.levels > circle.MAX_LEVELS):
            raise ValueError(
                f"levels (--L) must lie in [1, {circle.MAX_LEVELS}] "
                f"for {self.scheme}, got {self.levels}")
        if self.scheme == "circle-dithered" and self.offsets != 1:
            raise ValueError(
                "circle-dithered has no offsets, so offsets (--N) must be "
                f"1, got {self.offsets}")


def fmt(value) -> str:
    """Format one output field: integers exactly, floats to 9 significant
    digits, None as the empty string."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def row(scheme: str, params: str, provenance: str, rate_bits=None,
        distortion=None, perception_ks=None, seed=None,
        n_samples=None) -> dict:
    """One row of the shared output schema."""
    return {
        "scheme": scheme,
        "params": params,
        "rate_bits": rate_bits,
        "distortion": distortion,
        "perception_ks": perception_ks,
        "provenance": provenance,
        "seed": seed,
        "n_samples": n_samples,
    }


def _result_row(scheme: str, params: str, res) -> dict:
    return row(scheme, params, "monte-carlo", res.rate_bits, res.mse,
               res.perception_ks, res.seed, res.n_samples)


def staggered_spec(config: ExperimentConfig) -> tuple[stagger.StaggeredSpec, str]:
    """The scalar staggered spec of a config and the params string that
    labels its rows."""
    spec = stagger.StaggeredSpec(parse_source(config.source), config.delta,
                                 config.offsets, config.origin)
    return spec, (f"source={config.source};delta={fmt(config.delta)};"
                  f"N={config.offsets};origin={fmt(config.origin)}")


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Dispatch one config to the matching simulator or evaluator.

    Returns rows in the shared output schema (scheme, params, rate_bits,
    distortion, perception_ks, provenance, seed, n_samples).
    """
    streams = SampleStreams(config.seed)
    if config.scheme == "circle-staggered":
        res = circle.simulate_staggered_circle(config.levels, config.offsets,
                                               config.n_samples, streams)
        return [_result_row(config.scheme,
                            f"L={config.levels};N={config.offsets}", res)]
    if config.scheme == "circle-dithered":
        res = circle.simulate_dithered_circle(config.levels, config.n_samples,
                                              streams)
        return [_result_row(config.scheme, f"L={config.levels}", res)]
    if config.scheme == "scalar-staggered":
        spec, params = staggered_spec(config)
        res = stagger.simulate_pipeline(spec, config.n_samples, streams)
        return [_result_row(config.scheme, params, res)]
    # frontier: single quadrature point, no randomness involved
    point = frontier.rdp_point(config.lam)
    return [row("frontier", point.params, point.provenance, point.rate_bits,
                point.distortion)]


def sweep(base: ExperimentConfig, axis: str, values) -> list[dict]:
    """One run per value of a numeric parameter, rows ordered by value.

    The axis must be one the base config's scheme reads (``SCHEME_AXES``),
    so that no sweep repeats one run under one label.
    """
    if axis not in SCHEME_AXES[base.scheme]:
        raise ValueError(f"{base.scheme} reads only "
                         f"{', '.join(SCHEME_AXES[base.scheme])}; cannot "
                         f"sweep {axis!r}")
    if len(values) == 0:
        raise ValueError(f"no values to sweep {axis!r} over")
    field, parse = CONFIG_KEYS[axis]
    try:
        parsed = [parse(v) for v in values]
    except ValueError as exc:
        raise ValueError(f"{axis} value: {exc}") from None
    rows = []
    for v in parsed:
        rows.extend(run_experiment(dataclasses.replace(base, **{field: v})))
    return rows


def parse_config_file(path: str) -> ExperimentConfig:
    """Read the flat ``key = value`` config format ('#' starts a comment).

    A later line overrides an earlier one with the same key.
    """
    kwargs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field, parse = CONFIG_KEYS[key]
            try:
                kwargs[field] = parse(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    if "scheme" not in kwargs:
        raise ValueError(f"{path}: missing required key 'scheme'")
    return ExperimentConfig(**kwargs)

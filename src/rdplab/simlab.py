"""Experiment orchestration: seeded runs, sweeps, config files.

Determinism contract: a given (scheme, params, samples, seed) always
produces bit-identical statistics.  Randomness is consumed in fixed
1024-sample blocks with one counter-based substream per block (see
``rng``), and partial results merge in block order.  ``chunk_size`` is
validated (a positive multiple of the block) but nothing reads it yet.

Every output row, Monte Carlo or exact, is built by :func:`row`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import circle, frontier, stagger
from .rng import BLOCK, SampleStreams
from .sources import parse_source

SCHEMES = ("circle-staggered", "circle-dithered", "scalar-staggered", "frontier")

CONFIG_KEYS = ("scheme", "source", "delta", "levels", "offsets", "lambda",
               "samples", "seed", "chunk_size", "origin",
               "literal_paper_indexing")


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
    chunk_size: int = 65_536
    origin: float = 0.0
    literal_paper_indexing: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_samples < 1:
            raise ValueError("samples must be >= 1")
        if self.chunk_size < BLOCK or self.chunk_size % BLOCK:
            raise ValueError(
                f"chunk_size must be a positive multiple of {BLOCK}")


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


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Dispatch one config to the matching simulator or evaluator.

    Returns rows in the shared output schema (scheme, params, rate_bits,
    distortion, perception_ks, provenance, seed, n_samples).
    """
    streams = SampleStreams(config.seed)
    if config.scheme == "circle-staggered":
        scheme = circle.CircleScheme("staggered", config.levels, config.offsets)
        res = circle.simulate_staggered_circle(scheme, config.n_samples, streams)
        return [_result_row(config.scheme,
                            f"L={config.levels};N={config.offsets}", res)]
    if config.scheme == "circle-dithered":
        res = circle.simulate_dithered_circle(config.levels, config.n_samples,
                                              streams)
        return [_result_row(config.scheme, f"L={config.levels}", res)]
    if config.scheme == "scalar-staggered":
        spec = stagger.StaggeredSpec(
            source=parse_source(config.source),
            delta=config.delta,
            n_offsets=config.offsets,
            origin=config.origin,
            literal_paper_indexing=config.literal_paper_indexing,
        )
        res = stagger.simulate_pipeline(spec, config.n_samples, streams)
        params = (f"source={config.source};delta={fmt(config.delta)};"
                  f"N={config.offsets};origin={fmt(config.origin)}")
        if config.literal_paper_indexing:
            params += ";literal"
        return [_result_row(config.scheme, params, res)]
    # frontier: single quadrature point, no randomness involved
    point = frontier.rdp_point(config.lam)
    return [row("frontier", point.params, point.provenance, point.rate_bits,
                point.distortion)]


_AXES = {"levels": int, "offsets": int, "delta": float, "lambda": float,
         "seed": int, "samples": int}
_AXIS_FIELD = {"lambda": "lam", "samples": "n_samples"}


def sweep(base: ExperimentConfig, axis: str, values) -> list[dict]:
    """One run per value of a numeric parameter, rows ordered by value."""
    if axis not in _AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; use one of {sorted(_AXES)}")
    field = _AXIS_FIELD.get(axis, axis)
    rows = []
    for v in values:
        cfg = dataclasses.replace(base, **{field: _AXES[axis](v)})
        rows.extend(run_experiment(cfg))
    return rows


def parse_config_file(path: str) -> ExperimentConfig:
    """Read the flat ``key = value`` config format ('#' starts a comment)."""
    raw: dict[str, str] = {}
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
            raw[key] = value.strip()
    if "scheme" not in raw:
        raise ValueError(f"{path}: missing required key 'scheme'")

    kwargs: dict = {"scheme": raw["scheme"]}
    if "source" in raw:
        kwargs["source"] = raw["source"]
    for key, field, cast in (("delta", "delta", float),
                             ("levels", "levels", int),
                             ("offsets", "offsets", int),
                             ("lambda", "lam", float),
                             ("samples", "n_samples", int),
                             ("seed", "seed", int),
                             ("chunk_size", "chunk_size", int),
                             ("origin", "origin", float)):
        if key in raw:
            kwargs[field] = cast(raw[key])
    if "literal_paper_indexing" in raw:
        kwargs["literal_paper_indexing"] = raw["literal_paper_indexing"].lower() \
            in ("1", "true", "yes")
    return ExperimentConfig(**kwargs)

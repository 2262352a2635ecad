import math

import numpy as np
import pytest

from rdplab.circle import staggered_circle_rd
from rdplab.simlab import (ExperimentConfig, parse_config_file, run_experiment,
                           sweep)


def test_run_twice_is_identical():
    cfg = ExperimentConfig(scheme="circle-staggered", levels=2, offsets=2,
                           n_samples=20_480, seed=7)
    assert run_experiment(cfg) == run_experiment(cfg)


def test_circle_staggered_run_matches_closed_form():
    cfg = ExperimentConfig(scheme="circle-staggered", levels=2, offsets=1,
                           n_samples=200_000, seed=7)
    row = run_experiment(cfg)[0]
    assert row["scheme"] == "circle-staggered"
    assert row["provenance"] == "monte-carlo"
    assert abs(row["distortion"] - (2 - 8 / math.pi ** 2)) < 0.01


def test_scalar_run_row_fields():
    cfg = ExperimentConfig(scheme="scalar-staggered", source="gauss:0,1",
                           delta=0.5, offsets=2, n_samples=10_240, seed=5)
    row = run_experiment(cfg)[0]
    assert row["seed"] == 5 and row["n_samples"] == 10_240
    assert row["rate_bits"] > 0 and 0 <= row["perception_ks"] <= 1


@pytest.mark.parametrize("scheme", ["circle-staggered", "circle-dithered"])
def test_circle_levels_are_capped_at_the_table_limit(scheme):
    ExperimentConfig(scheme=scheme, levels=2 ** 20)
    with pytest.raises(ValueError, match=r"^levels \(--L\) must lie in "
                                         r"\[1, 1048576\]"):
        ExperimentConfig(scheme=scheme, levels=2 ** 20 + 1)


def test_circle_levels_cap_leaves_other_schemes_alone():
    # the scalar and frontier schemes never read levels
    for scheme in ("scalar-staggered", "frontier"):
        ExperimentConfig(scheme=scheme, levels=2 ** 20 + 1)


def test_frontier_scheme_row():
    cfg = ExperimentConfig(scheme="frontier", lam=2.0)
    row = run_experiment(cfg)[0]
    assert row["provenance"] == "quadrature"
    assert row["distortion"] == pytest.approx(0.6044506840719845, abs=1e-8)


def test_sweep_offsets_distortion_decreases():
    base = ExperimentConfig(scheme="circle-staggered", levels=2, offsets=1,
                            n_samples=100_000, seed=11)
    rows = sweep(base, "offsets", [1, 2, 4, 8, 16])
    dists = [r["distortion"] for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_sweep_dithered_levels_match_extreme_points():
    base = ExperimentConfig(scheme="circle-dithered", levels=2,
                            n_samples=100_000, seed=12)
    rows = sweep(base, "levels", [1, 2, 4, 8])
    for row, levels in zip(rows, (1, 2, 4, 8)):
        target = 2.0 if levels == 1 else \
            2.0 - 2.0 * math.sin(math.pi / levels) / (math.pi / levels)
        assert abs(row["distortion"] - target) < 0.02


def test_sweep_lambda_gives_convex_curve():
    base = ExperimentConfig(scheme="frontier")
    grid = np.geomspace(0.05, 20.0, 9)
    rows = sweep(base, "lambda", grid)
    d = np.array([r["distortion"] for r in rows])
    r_ = np.array([r["rate_bits"] for r in rows])
    assert np.all(np.diff(d) < 0) and np.all(np.diff(r_) > 0)
    for k in range(1, len(rows) - 1):
        t = (d[k] - d[k - 1]) / (d[k + 1] - d[k - 1])
        chord = r_[k - 1] + t * (r_[k + 1] - r_[k - 1])
        assert r_[k] <= chord + 1e-9


def test_sweep_rejects_unknown_axis():
    base = ExperimentConfig(scheme="circle-staggered")
    with pytest.raises(ValueError):
        sweep(base, "shape", [1, 2])


def test_sweep_rejects_empty_values():
    base = ExperimentConfig(scheme="circle-staggered")
    with pytest.raises(ValueError, match="no values"):
        sweep(base, "levels", [])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="frontier", n_samples=0)
    with pytest.raises(ValueError, match="circle-dithered"):
        ExperimentConfig(scheme="circle-dithered", offsets=2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentConfig(scheme="circle-staggered", seed=-1)
    assert ExperimentConfig(scheme="circle-dithered", offsets=1).offsets == 1


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# demo sweep config\n"
        "scheme = circle-staggered\n"
        "levels = 2   # one bit\n"
        "offsets = 4\n"
        "samples = 2048\n"
        "seed = 9\n")
    cfg = parse_config_file(str(path))
    assert cfg.levels == 2 and cfg.offsets == 4 and cfg.seed == 9
    assert cfg.n_samples == 2048
    row = run_experiment(cfg)[0]
    assert abs(row["distortion"]
               - staggered_circle_rd(2, 4).distortion) < 0.05


def test_parse_config_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scheme = frontier\nshape = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file(str(bad))
    nokey = tmp_path / "nokey.cfg"
    nokey.write_text("levels = 2\n")
    with pytest.raises(ValueError, match="scheme"):
        parse_config_file(str(nokey))
    # the output file is set with --out only
    out = tmp_path / "out.cfg"
    out.write_text("scheme = frontier\nout = x.csv\n")
    with pytest.raises(ValueError, match="unknown key 'out'"):
        parse_config_file(str(out))
    # the paper's index convention is no setting
    old = tmp_path / "old.cfg"
    old.write_text("scheme = scalar-staggered\nliteral_paper_indexing = 1\n")
    with pytest.raises(ValueError, match=r"old\.cfg:2: unknown key "
                                         r"'literal_paper_indexing'$"):
        parse_config_file(str(old))
    count = tmp_path / "count.cfg"
    count.write_text("scheme = frontier\nsamples = 2.5\n")
    with pytest.raises(ValueError, match=r"count\.cfg:2: samples"):
        parse_config_file(str(count))


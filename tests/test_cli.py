import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from rdplab import circle, simlab
from rdplab.cli import CSV_HEADER, cli_dispatch
from rdplab.sources import GaussianSource
from rdplab.stagger import InactiveCodeError, StaggeredSpec, decode
from reference_tables import paper_table


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert ",".join(rows[0]) == CSV_HEADER
    return rows[1:]


def test_circle_closed_form_row(capsys):
    code, out, _ = run_cli(capsys, "circle-closed-form", "--L", "2", "--N", "1")
    assert code == 0
    fields = parse_csv(out)[0]
    assert fields[0] == "circle-staggered"
    assert fields[2] == "1"
    assert fields[3] == "1.18943053"      # 9 significant digits
    assert fields[5] == "closed-form"


def test_one_shot_frontier_single_row(capsys):
    code, out, _ = run_cli(capsys, "one-shot-frontier", "--Lmax", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2:4] == ["0", "2"]


def test_scalar_exact_rates(capsys):
    code, out, _ = run_cli(capsys, "scalar-exact", "--source", "uniform:0,1",
                           "--delta", "0.25", "--offsets", "2",
                           "--origin", "0.125")
    assert code == 0
    rows = parse_csv(out)
    stag = next(r for r in rows if r[0] == "scalar-staggered")
    dith = next(r for r in rows if r[0] == "scalar-dithered")
    assert stag[2] == "2.125"
    assert dith[2] == f"{math.log2(5):.9g}"
    assert float(dith[3]) == pytest.approx(0.25 ** 2 / 12, abs=1e-9)
    # a single cell covers the support: zero entropy prints as 0, not -0
    code, out, _ = run_cli(capsys, "scalar-exact", "--source", "uniform:0,1",
                           "--delta", "2", "--origin", "0.5")
    assert code == 0
    stag = parse_csv(out)[0]
    assert stag[1].endswith(";pooled_H=0") and stag[2] == "0"


def test_scalar_exact_labels_rows_like_simulate(capsys):
    spec = ["--source", "gauss:0,1", "--delta", "0.25", "--origin", "0.1"]
    code, out, _ = run_cli(capsys, "scalar-exact", *spec)
    assert code == 0
    exact = parse_csv(out)[0][1]
    code, out, _ = run_cli(capsys, "scalar-simulate", *spec, "--samples", "1024")
    assert code == 0
    simulated = parse_csv(out)[0][1]
    assert simulated == "source=gauss:0,1;delta=0.25;N=1;origin=0.1"
    assert exact.startswith(simulated + ";pooled_H=")


def test_json_output_matches_csv_values(capsys):
    code, out, _ = run_cli(capsys, "circle-closed-form", "--L", "4", "--N", "2",
                           "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["rate_bits"] == 2.0
    assert rows[0]["distortion"] == pytest.approx(0.2452919, abs=1e-6)
    assert rows[0]["perception_ks"] is None


def test_rdp_frontier_rows(capsys):
    code, out, _ = run_cli(capsys, "rdp-frontier", "--lambda-min", "0.1",
                           "--lambda-max", "10", "--points", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    dists = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_rdp_frontier_from_tiny_lambda(capsys):
    # rates of order 1e-17 bits at lam = 1e-8 still increase strictly
    code, out, err = run_cli(capsys, "rdp-frontier", "--lambda-min", "1e-8",
                             "--lambda-max", "10000", "--points", "49",
                             "--json")
    assert code == 0, err
    rates = [row["rate_bits"] for row in json.loads(out)]
    assert len(rates) == 49 and rates[0] > 0.0
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_rdp_frontier_refuses_lambda_below_its_floor(capsys):
    # D rounds to 2 near lam = 1e-17, which the monotonicity check took
    # for a quadrature fault
    code, out, err = run_cli(capsys, "rdp-frontier", "--lambda-min", "1e-20",
                             "--lambda-max", "1e-19", "--points", "3")
    assert code == 1 and out == ""
    assert err.startswith("rdplab: error:") and "[1e-08, 10000]" in err


def test_scalar_exact_literal_mode_rejects_an_empty_interval(capsys,
                                                             paper_tables):
    # on the aligned uniform grid the paper's table's first code has an
    # empty interval: both routes refuse it with the decoder's error
    spec = ["--source", "uniform:0,1", "--delta", "0.25", "--offsets", "2",
            "--origin", "0.125"]
    errors = []
    for argv in (["scalar-exact", *spec],
                 ["scalar-simulate", *spec, "--samples", "1024"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        errors.append(err)
    assert errors[0] == errors[1] == \
        "rdplab: error: code -1 has a degenerate interval\n"


def test_scalar_exact_literal_mode_rejects_a_degenerate_interval(
        capsys, paper_tables):
    # codes -30 .. -23 of the paper's table have intervals holding less
    # than DEGENERATE_MASS but more than nothing; the exact route refuses
    # the first with the decoder's own error instead of summing over them
    spec = ["--source", "gauss:0,1", "--delta", "2", "--offsets", "8"]
    code, out, err = run_cli(capsys, "scalar-exact", *spec)
    assert code == 1 and out == ""
    table = paper_table(StaggeredSpec(GaussianSource(0.0, 1.0), 2.0, 8))
    k = -30 - table.j_first
    assert table.b[k] > table.a[k] and table.fb[k] - table.fa[k] < 1e-12
    with pytest.raises(InactiveCodeError) as exc:
        decode(table, np.array([-30]), np.random.default_rng(0).random(1))
    assert err == f"rdplab: error: {exc.value}\n" \
        == "rdplab: error: code -30 has a degenerate interval\n"


def test_two_cell_row(capsys):
    code, out, _ = run_cli(capsys, "two-cell", "--r", "0.5", "--lambda", "10",
                           "--grid", "10001")
    assert code == 0
    row = out.strip().splitlines()[1]
    assert "is_midpoint=1" in row and "grid-search" in row


def test_seeded_rerun_is_byte_identical(capsys):
    args = ("circle-simulate", "--L", "2", "--N", "2",
            "--samples", "20480", "--seed", "13")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("scalar-simulate", "--source", "gauss:0,1", "--delta", "0.5",
            "--offsets", "2", "--samples", "10240", "--seed", "21")
    _, out3, _ = run_cli(capsys, *args)
    _, out4, _ = run_cli(capsys, *args)
    assert out3 == out4
    # one level: the index entropy is zero and prints as 0, not -0
    code, out, _ = run_cli(capsys, "circle-simulate", "--L", "1", "--N", "3",
                           "--samples", "2048", "--seed", "13")
    assert code == 0 and parse_csv(out)[0][2] == "0"


def test_undrawn_offset_still_reports_a_rate(capsys):
    # 2 samples over 4 offsets: at least two offsets are never drawn
    code, out, err = run_cli(capsys, "scalar-simulate", "--source",
                             "uniform:0,1", "--delta", "0.25", "--offsets",
                             "4", "--samples", "2")
    assert code == 0, err
    fields = parse_csv(out)[0]
    assert 0.0 <= float(fields[2]) <= 1.0 and fields[7] == "2"


NON_FINITE_INPUTS = [
    *(pytest.param(["--source", s, "--delta", "0.25"], id=s)
      for s in ("uniform:0,inf", "uniform:-inf,0", "gauss:inf,1",
                "gauss:0,inf", "gauss:1e400,1")),
    *(pytest.param(["--source", "uniform:0,1", "--delta", "0.25",
                    "--origin", v], id=f"origin={v}") for v in ("inf", "nan")),
    pytest.param(["--source", "uniform:0,1", "--delta", "inf"], id="delta=inf"),
]


@pytest.mark.parametrize("source", NON_FINITE_INPUTS)
@pytest.mark.parametrize("command", [["scalar-exact"],
                                     ["scalar-simulate", "--samples", "1024"]],
                         ids=["scalar-exact", "scalar-simulate"])
def test_non_finite_source_parameters_exit_one(capsys, command, source):
    code, _, err = run_cli(capsys, *command, *source)
    assert code == 1
    assert err.startswith("rdplab: error:") and "Traceback" not in err


@pytest.mark.parametrize("source,delta", [("uniform:0,1", "1e-9"),
                                          ("uniform:-1e308,1e308", "1")])
def test_oversized_grid_exits_one(capsys, source, delta):
    # rejected before any array is sized from the grid
    code, _, err = run_cli(capsys, "scalar-exact", "--source", source,
                           "--delta", delta)
    assert code == 1
    assert err.startswith("rdplab: error:") and "Traceback" not in err


def exact(source, delta):
    return ["scalar-exact", "--source", source, "--delta", delta]


@pytest.mark.parametrize("argv", [
    exact("gauss:0,1", "1e160"), exact("gauss:0,1", "1e300"),
    exact("uniform:0,1", "1e160"), exact("uniform:0,1", "1e300"),
    # wide supports: delta passes the spec's checks and reaches the
    # dithered reference, where delta^2/12 overflows
    exact("uniform:0,1e60", "1e155"), exact("gauss:0,1e60", "1e160"),
    # squared errors that overflow, cell edges that overflow once
    # standardized, and a Gaussian support that rounds to one point
    exact("gauss:0,1e300", "1e300"),
    ["scalar-simulate", "--source", "uniform:-1e300,1e300", "--delta",
     "1e299", "--samples", "100"],
    ["scalar-simulate", "--source", "gauss:1e-9,1e-9", "--delta", "1e300",
     "--offsets", "5", "--samples", "100"],
    exact("gauss:1e300,1", "1")])
def test_out_of_range_scales_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("rdplab: error:") and "Traceback" not in err


def test_overflowing_law_exits_one_with_its_own_message(capsys):
    # the law refuses its infinite width before a table counts its codes
    code, out, err = run_cli(capsys, *exact("gauss:0,1e308", "1e300"))
    assert code == 1 and out == ""
    assert err == ("rdplab: error: mu +/- 10 sigma has width inf at mu 0, "
                   "sigma 1e+308; need a positive, finite width\n")


# the largest integer flag accepted, and one beyond the float range
HUGE = str(2 ** 53)
FAR = str(10 ** 400)


def far(flag):
    return f"rdplab: error: {flag} must lie within +/-2^53, got a 401-digit integer\n"


@pytest.mark.parametrize("argv,message", [
    pytest.param(["circle-simulate", "--L", HUGE, "--samples", "10"], None,
                 id="L"),
    pytest.param(["circle-simulate", "--L", "2", "--samples", HUGE], None,
                 id="circle-samples"),
    pytest.param(["scalar-simulate", "--source", "uniform:0,1", "--delta",
                  "0.25", "--samples", HUGE], None, id="scalar-samples"),
    pytest.param(["two-cell", "--r", "0.5", "--lambda", "1", "--grid", HUGE],
                 None, id="grid"),
    pytest.param(["circle-closed-form", "--L", FAR], far("--L"),
                 id="closed-form-L-far"),
    pytest.param(["circle-closed-form", "--L", "2", "--N", FAR], far("--N"),
                 id="closed-form-N-far"),
    pytest.param(["circle-simulate", "--L", FAR, "--samples", "10"],
                 far("--L"), id="L-far"),
    pytest.param(["scalar-simulate", "--source", "uniform:0,1", "--delta",
                  "0.25", "--offsets", FAR, "--samples", "10"],
                 far("--offsets"), id="offsets-far"),
    pytest.param(["rdp-frontier", "--points", FAR], far("--points"),
                 id="points-far"),
    pytest.param(["two-cell", "--r", "0.5", "--lambda", "1", "--grid", FAR],
                 far("--grid"), id="grid-far"),
    pytest.param(["one-shot-frontier", "--Lmax", FAR], far("--Lmax"),
                 id="Lmax-far"),
    # one-shot-frontier checks its cap before it builds a point
    pytest.param(["one-shot-frontier", "--Lmax", "65537"],
                 "rdplab: error: l_max must lie in [1, 65536]\n", id="Lmax-cap"),
    # rdp-frontier checks its cap before it builds the grid
    pytest.param(["rdp-frontier", "--points", "65537"],
                 "rdplab: error: --points must lie in [1, 65536], got 65537\n",
                 id="points-cap"),
    # a circle simulation's count array is L long: capped before any draw
    pytest.param(["circle-simulate", "--L", "1048577", "--samples", "10"],
                 "rdplab: error: levels (--L) must lie in [1, 1048576] for "
                 "circle-staggered, got 1048577\n", id="staggered-levels-cap"),
    pytest.param(["circle-simulate", "--dithered", "--L", "1048577",
                  "--samples", "10"],
                 "rdplab: error: levels (--L) must lie in [1, 1048576] for "
                 "circle-dithered, got 1048577\n", id="dithered-levels-cap"),
])
def test_oversized_allocation_exits_one(capsys, argv, message):
    # 2^53 elements exceed any address space, so numpy refuses at once;
    # an integer flag beyond 2^53 is refused by name before any use
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("rdplab: error:") and "Traceback" not in err
    assert message is None or err == message


def test_two_cell_grid_cap_is_checked_before_the_grid(capsys):
    # one float array of 2^22 + 1 points would be 32 MiB, the whole search
    # about 128 MiB; the cap refuses the grid before any of it exists
    cap = circle.MAX_TWO_CELL_GRID
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "two-cell", "--r", "0.5",
                                 "--lambda", "1", "--grid", str(cap + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == (f"rdplab: error: grid_size must lie in [3, {cap}], "
                   f"got {cap + 1}\n")
    assert peak < 2 ** 20


def test_seed_takes_any_integer(capsys):
    code, _, err = run_cli(capsys, "circle-simulate", "--L", "2",
                           "--samples", "10", "--seed", FAR)
    assert code == 0, err


@pytest.mark.parametrize("bounds", [["--lambda-max", "inf"],
                                    ["--lambda-max", "nan"],
                                    ["--lambda-min", "nan"]])
def test_rdp_frontier_rejects_non_finite_lambda(capsys, bounds):
    code, out, err = run_cli(capsys, "rdp-frontier", *bounds)
    assert code == 1 and out == ""
    assert err.startswith("rdplab: error:") and "Traceback" not in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "circle-closed-form", "--L", "2",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith(CSV_HEADER)


def test_sweep_subcommand(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scheme = circle-dithered\nlevels = 2\n"
                   "samples = 10240\nseed = 4\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--axis", "levels", "--values", "2,4,8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    rates = [float(l.split(",")[2]) for l in lines[1:]]
    assert rates == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("values", ["", ","])
def test_sweep_rejects_empty_values(tmp_path, capsys, values):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scheme = circle-dithered\nlevels = 2\nsamples = 1024\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--axis", "levels", "--values", values)
    assert code == 1 and out == ""
    assert err.startswith("rdplab: error:") and "--values" in err
    assert "Traceback" not in err


def test_removed_literal_flag_and_key_fail_cleanly(tmp_path, capsys):
    # the paper's index convention is no setting: its flag is unknown to
    # argparse and its config key is unknown to the config reader
    code, out, err = run_cli(capsys, "scalar-simulate", "--source",
                             "uniform:0,1", "--delta", "0.25", "--samples",
                             "1024", "--literal-paper-indexing")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --literal-paper-indexing" in err
    assert "Traceback" not in err
    cfg = tmp_path / "old.cfg"
    cfg.write_text("scheme = scalar-staggered\nsource = uniform:0,1\n"
                   "samples = 1024\nliteral_paper_indexing = 1\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == (f"rdplab: error: {cfg}:4: unknown key "
                   f"'literal_paper_indexing'\n")


@pytest.mark.parametrize("key", ["levels", "offsets", "samples"])
def test_sweep_rejects_oversized_config_integers(tmp_path, capsys, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"scheme = circle-staggered\n{key} = {FAR}\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == (f"rdplab: error: {cfg}:2: {key}: must lie within "
                   f"+/-2^53, got a 401-digit integer\n")


def test_sweep_rejects_oversized_values(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scheme = circle-staggered\nsamples = 10\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--axis",
                             "levels", "--values", f"2,{FAR}")
    assert code == 1 and out == ""
    assert err == ("rdplab: error: levels value: must lie within +/-2^53, "
                   "got a 401-digit integer\n")


def test_config_seed_takes_any_integer(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"scheme = circle-dithered\nsamples = 10\nseed = {FAR}\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("circle-simulate", "--L", "2", "--samples", "10"),
    ("circle-simulate", "--L", "2", "--dithered", "--samples", "10"),
    ("scalar-simulate", "--source", "gauss:0,1", "--delta", "0.5",
     "--samples", "10"),
], ids=["circle-staggered", "circle-dithered", "scalar"])
def test_negative_seed_flag_names_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert err == "rdplab: error: --seed must be >= 0, got -1\n"


def test_negative_config_seed_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scheme = circle-staggered\nsamples = 10\nseed = -3\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"rdplab: error: {cfg}:3: seed: must be >= 0, got -3\n"


def test_negative_sweep_seed_is_rejected_before_any_run(tmp_path, capsys,
                                                        monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scheme = circle-staggered\nsamples = 10\n")
    runs = []
    monkeypatch.setattr(simlab, "run_experiment", runs.append)
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--axis",
                             "seed", "--values", "1,-1")
    assert code == 1 and out == "" and runs == []
    assert err == "rdplab: error: seed value: must be >= 0, got -1\n"


def test_dithered_circle_rejects_offsets(capsys):
    code, out, err = run_cli(capsys, "circle-simulate", "--L", "2", "--N",
                             "-5", "--dithered", "--samples", "10")
    assert code == 1 and out == ""
    assert err.startswith("rdplab: error:") and "Traceback" not in err


def test_sweep_over_offsets_rejects_dithered_circle(tmp_path, capsys):
    cfg = tmp_path / "dithered.cfg"
    cfg.write_text("scheme = circle-dithered\nlevels = 2\nsamples = 1024\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--axis", "offsets", "--values", "1,2,4")
    assert code == 1 and out == ""
    assert err.startswith("rdplab: error:") and "Traceback" not in err


@pytest.mark.parametrize("scheme, axis", [
    ("scalar-staggered", "levels"), ("frontier", "seed"),
    ("frontier", "samples"), ("circle-staggered", "delta"),
    ("circle-staggered", "lambda")])
def test_sweep_over_an_axis_the_scheme_ignores_exits_one(tmp_path, capsys,
                                                         scheme, axis):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"scheme = {scheme}\nsource = gauss:0,1\nsamples = 1024\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--axis", axis, "--values", "2,3")
    reads = ", ".join(simlab.SCHEME_AXES[scheme])
    assert code == 1 and out == ""
    assert err == (f"rdplab: error: {scheme} reads only {reads}; cannot "
                   f"sweep '{axis}'\n")


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    for sub in ("circle-closed-form", "circle-simulate", "one-shot-frontier",
                "rdp-frontier", "scalar-simulate", "scalar-exact", "two-cell",
                "sweep"):
        assert cli_dispatch([sub, "--help"]) == 0


def test_unknown_subcommand_exits_two(capsys):
    assert cli_dispatch(["not-a-command"]) == 2
    assert cli_dispatch(["circle-closed-form", "--bogus"]) == 2
    assert cli_dispatch([]) == 2


def test_numeric_failure_exits_one(capsys):
    code = cli_dispatch(["rdp-frontier", "--lambda-min", "-1",
                         "--lambda-max", "10", "--points", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert cli_dispatch(["circle-closed-form", "--L", "0"]) == 1
    capsys.readouterr()
    assert cli_dispatch(["sweep", "--config", "/nonexistent/x.cfg"]) == 1

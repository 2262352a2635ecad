import csv
import io
import json
import math

import pytest

from rdplab.cli import CSV_HEADER, cli_dispatch


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


@pytest.mark.parametrize("source", ["uniform:0,inf", "uniform:-inf,0",
                                    "gauss:inf,1", "gauss:0,inf",
                                    "gauss:1e400,1"])
@pytest.mark.parametrize("command", [["scalar-exact"],
                                     ["scalar-simulate", "--samples", "1024"]],
                         ids=["scalar-exact", "scalar-simulate"])
def test_non_finite_source_parameters_exit_one(capsys, command, source):
    code, _, err = run_cli(capsys, *command, "--source", source,
                           "--delta", "0.25")
    assert code == 1
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

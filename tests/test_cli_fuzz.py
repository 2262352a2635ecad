"""In-process fuzz of every subcommand: the CLI exits 0, 1 or 2 and never
prints a traceback.

Numbers come from a fixed set of edge values, sources include malformed
specs, and sizes are capped so each example runs well under 1 s:
samples <= 2048 (a 2048-sample run takes about 5 ms), grid <= 1000,
points <= 5 and Lmax <= 1024 (each about 20 ms or less).
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdplab.cli import CSV_HEADER, cli_dispatch
from rdplab.simlab import SCHEMES

NUMBERS = ["0", "1", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "1e160",
           "1e-9", "1e8"]
NUMERIC_COLUMNS = ("rate_bits", "distortion", "perception_ks", "seed",
                   "n_samples")


def ints(limit):
    """Integer flag values from -2 to ``limit``; one draw in eight is a
    string argparse rejects."""
    return st.builds(lambda k, v, bad: bad if k == 0 else str(v),
                     st.integers(0, 7), st.integers(-2, limit),
                     st.sampled_from(["nan", "1e8", "1.5", ""]))


numbers = st.sampled_from(NUMBERS)
sources = st.one_of(
    st.sampled_from(["circle", "gauss:0,1", "uniform:0,1"]),
    st.sampled_from(["gauss:", "gauss:1", "uniform:1,2,3", "foo:1,2", "",
                     "circle:1", "gauss:a,b", "uniform:1,0", "gauss:0,-1"]),
    st.builds(lambda kind, p1, p2: f"{kind}:{p1},{p2}",
              st.sampled_from(["gauss", "uniform"]), numbers, numbers))


@st.composite
def scalar_flags(draw):
    flags = ["--source", draw(sources), "--delta", draw(numbers),
             "--offsets", draw(ints(5))]
    if draw(st.booleans()):
        flags += ["--origin", draw(numbers)]
    if draw(st.booleans()):
        flags.append("--literal-paper-indexing")
    return flags


@st.composite
def config_text(draw):
    """A config file for ``sweep``: a scheme, a few keys and a sample cap."""
    lines = [f"scheme = {draw(st.sampled_from(SCHEMES + ('bogus',)))}"]
    for key, values in [("source", sources), ("delta", numbers),
                        ("levels", ints(64)), ("offsets", ints(5)),
                        ("lambda", numbers), ("seed", ints(10)),
                        ("origin", numbers),
                        ("literal_paper_indexing",
                         st.sampled_from(["1", "no", "ture"]))]:
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(values)}")
    lines.append(f"samples = {draw(st.integers(1, 2048))}")
    return "\n".join(lines) + "\n"


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(["circle-closed-form", "circle-simulate",
                                "one-shot-frontier", "rdp-frontier",
                                "scalar-simulate", "scalar-exact", "two-cell",
                                "sweep"]))
    if cmd == "circle-closed-form":
        argv = [cmd, "--L", draw(ints(1024)), "--N", draw(ints(64))]
    elif cmd == "circle-simulate":
        argv = [cmd, "--L", draw(ints(1024)), "--N", draw(ints(64)),
                "--samples", draw(ints(2048)), "--seed", draw(ints(10))]
        if draw(st.booleans()):
            argv.append("--dithered")
    elif cmd == "one-shot-frontier":
        argv = [cmd, "--Lmax", draw(ints(1024))]
    elif cmd == "rdp-frontier":
        argv = [cmd, "--lambda-min", draw(numbers), "--lambda-max",
                draw(numbers), "--points", draw(ints(5))]
    elif cmd == "scalar-simulate":
        argv = [cmd, *draw(scalar_flags()), "--samples", draw(ints(2048)),
                "--seed", draw(ints(10))]
    elif cmd == "scalar-exact":
        argv = [cmd, *draw(scalar_flags())]
    elif cmd == "two-cell":
        argv = [cmd, "--r", draw(numbers), "--lambda", draw(numbers),
                "--grid", draw(ints(1000))]
    else:
        argv = [cmd, "--config", draw(config_text())]
        if draw(st.booleans()):
            axis = draw(st.sampled_from(["levels", "offsets", "delta",
                                         "lambda", "samples", "seed",
                                         "source"]))
            values = draw(st.lists(ints(5) if axis in ("levels", "offsets",
                                                       "samples", "seed")
                                   else numbers, max_size=3))
            argv += ["--axis", axis, "--values", ",".join(values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def assert_finite_rows(text: str, as_json: bool):
    if as_json:
        rows = json.loads(text)
    else:
        lines = list(csv.reader(io.StringIO(text)))
        assert ",".join(lines[0]) == CSV_HEADER
        assert all(len(line) == 8 for line in lines[1:])
        rows = [dict(zip(CSV_HEADER.split(","), line)) for line in lines[1:]]
    for row in rows:
        for col in NUMERIC_COLUMNS:
            if row[col] not in (None, ""):
                assert math.isfinite(float(row[col])), (col, row)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argvs())
@example(argv=["scalar-exact", "--source", "gauss:0,1", "--delta", "1e160"])
def test_cli_never_prints_a_traceback(tmp_path_factory, argv):
    if argv[0] == "sweep":
        cfg = tmp_path_factory.mktemp("fuzz") / "run.cfg"
        cfg.write_text(argv[2])
        argv = [argv[0], argv[1], str(cfg), *argv[3:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 1:
        assert err.startswith("rdplab: error:"), (argv, err)
    if code == 0:
        assert_finite_rows(out, "--json" in argv)

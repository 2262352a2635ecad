"""The golden rows keep their bits at numpy's baseline SIMD level.

numpy picks its kernels at run time from the CPU features it finds, so
the same seed could give other bits on a host without them.  One
subprocess, with ``NPY_DISABLE_CPU_FEATURES`` naming every feature numpy
found beyond its baseline, prints the CLI row and the pinned fields of
every case of ``test_golden``, and they must be the pinned bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rdplab
from test_golden import CASES, FIELDS

ROWS = """
import io, json, sys
from contextlib import redirect_stdout
from numpy._core._multiarray_umath import __cpu_features__
from rdplab.cli import cli_dispatch
from test_golden import CASES, FIELDS, SAMPLES, SEED

rows = {"enabled": sorted(f for f in sys.argv[1:] if __cpu_features__[f])}
for name, (argv, _, run, _) in CASES.items():
    out = io.StringIO()
    with redirect_stdout(out):
        cli_dispatch(argv + ["--samples", str(SAMPLES), "--seed", str(SEED)])
    result = run()
    rows[name] = [out.getvalue().splitlines()[1:],
                  [float(getattr(result, f)).hex() for f in FIELDS]]
print(json.dumps(rows))
"""


def test_golden_rows_keep_their_bits_at_the_baseline_simd_level():
    found = np.__config__.CONFIG["SIMD Extensions"]["found"] or []
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(found))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rdplab.__file__).resolve().parent.parent),
         str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    rows = json.loads(subprocess.run(
        [sys.executable, "-c", ROWS, *found], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert rows.pop("enabled") == []
    for name, (_, row, _, bits) in CASES.items():
        assert rows[name] == [[row], list(bits)], name

"""Seeded Monte Carlo rows pinned to the values the engine has always given.

The rows below were printed by the per-block engine that drew every
uniform with ``Generator.random`` and every offset with ``integers`` or
its raw-word equivalent.  65537 samples end in a one-sample block, so the
last chunk is odd-sized; the third case draws its offsets through
``integers``.  Beside the CLI rows, the library's fields are pinned to the
bit, so any change in the draw path fails here.
"""

import io
from contextlib import redirect_stdout

import pytest

from rdplab.circle import simulate_dithered_circle, simulate_staggered_circle
from rdplab.cli import cli_dispatch
from rdplab.rng import SampleStreams
from rdplab.sources import parse_source
from rdplab.stagger import StaggeredSpec, simulate_pipeline

SAMPLES, SEED = 65537, 11
FIELDS = ("rate_bits", "mse", "perception_ks", "mc_radius_mse",
          "index_entropy_bits")


def _pipeline(source, delta, n, origin=0.0):
    spec = StaggeredSpec(parse_source(source), delta, n, origin=origin)
    return lambda: simulate_pipeline(spec, SAMPLES, SampleStreams(SEED))


CASES = {
    "gauss-n4": (
        ["scalar-simulate", "--source", "gauss:0,1", "--delta", "0.25",
         "--offsets", "4"],
        'scalar-staggered,"source=gauss:0,1;delta=0.25;N=4;origin=0",'
        '4.04965716,0.00550211709,0.00209852823,monte-carlo,11,65537',
        _pipeline("gauss:0,1", 0.25, 4),
        ("0x1.032d953e62a11p+2", "0x1.689634f6f4f5ap-8",
         "0x1.130eec3fa8b00p-9", "0x1.06b3a615c6806p-14",
         "0x1.832cc3a923433p+2")),
    "uniform-n2": (
        ["scalar-simulate", "--source", "uniform:0,1", "--delta", "0.25",
         "--offsets", "2", "--origin", "0.125"],
        'scalar-staggered,"source=uniform:0,1;delta=0.25;N=2;origin=0.125",'
        '2.12532757,0.00599985357,0.0039837948,monte-carlo,11,65537',
        _pipeline("uniform:0,1", 0.25, 2, 0.125),
        ("0x1.100abbd3ee47ep+1", "0x1.8934d6dd2756bp-8",
         "0x1.0514fc5d76fc0p-8", "0x1.4eabbe7b7ba3ep-14",
         "0x1.8ffd4432dab4bp+1")),
    "gauss-n3": (
        ["scalar-simulate", "--source", "gauss:0,1", "--delta", "0.5",
         "--offsets", "3"],
        'scalar-staggered,"source=gauss:0,1;delta=0.5;N=3;origin=0",'
        '3.06177752,0.0227223155,0.00230815926,monte-carlo,11,65537',
        _pipeline("gauss:0,1", 0.5, 3),
        ("0x1.87e853659d48dp+1", "0x1.74484c725eb96p-6",
         "0x1.2e88f91659700p-9", "0x1.1bb912109f869p-12",
         "0x1.296337fc57059p+2")),
    "staggered-circle-l2-n4": (
        ["circle-simulate", "--L", "2", "--N", "4"],
        "circle-staggered,L=2;N=4,0.999988383,0.756056299,0.00484960824,"
        "monte-carlo,11,65537",
        lambda: simulate_staggered_circle(2, 4, SAMPLES, SampleStreams(SEED)),
        ("0x1.fffe7a3501107p-1", "0x1.8319cfaa0aebep-1",
         "0x1.3dd2eccab4900p-8", "0x1.046f0268c0656p-7",
         "0x1.fffe7a3501107p-1")),
    "staggered-circle-l3-n5": (
        ["circle-simulate", "--L", "3", "--N", "5"],
        "circle-staggered,L=3;N=5,1.58494587,0.357702372,0.00480322892,"
        "monte-carlo,11,65537",
        lambda: simulate_staggered_circle(3, 5, SAMPLES, SampleStreams(SEED)),
        ("0x1.95bf033995a06p+0", "0x1.6e4987dad8cc5p-2",
         "0x1.3ac8cf220a800p-8", "0x1.f809878f600e8p-9",
         "0x1.95bf033995a06p+0")),
    "dithered-circle-l4": (
        ["circle-simulate", "--L", "4", "--dithered"],
        "circle-dithered,L=4,2,0.198434721,0.00466408768,monte-carlo,11,65537",
        lambda: simulate_dithered_circle(4, SAMPLES, SampleStreams(SEED)),
        ("0x1.0000000000000p+1", "0x1.9664f16e4facep-3",
         "0x1.31aa680d530c0p-8", "0x1.0d4ecdb508316p-9",
         "0x1.fffcdd3ae98cdp+0")),
}


@pytest.mark.parametrize("name", CASES)
def test_cli_rows_are_pinned(name):
    argv, row, _, _ = CASES[name]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_dispatch(argv + ["--samples", str(SAMPLES),
                                    "--seed", str(SEED)])
    assert code == 0
    assert out.getvalue().splitlines()[1:] == [row]


@pytest.mark.parametrize("name", CASES)
def test_result_fields_are_pinned_to_the_bit(name):
    _, _, run, bits = CASES[name]
    result = run()
    assert tuple(float(getattr(result, f)).hex() for f in FIELDS) == bits

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy import special

import rdplab
from rdplab.circle import one_shot_frontier
from rdplab.frontier import (VonMisesLikeLaw, gaussian_rdp_reference,
                             rate_at_distortion, rdp_curve, rdp_point)

LAMBDAS = (0.01, 0.1, 1.0, 2.0, 10.0, 100.0)


def bessel_ratio_series(lam, terms=400):
    """I1(lam)/I0(lam) by direct series summation (independent oracle)."""
    half = lam / 2.0
    t = 1.0           # (lam/2)^(2k) / (k!)^2 at k = 0
    s0 = 0.0
    s1 = 0.0
    for k in range(terms):
        s0 += t
        s1 += t * half / (k + 1)
        t *= half * half / ((k + 1) * (k + 1))
        if t < 1e-18 * s0 and k > half:
            break
    return s1 / s0


def test_law_normalization():
    for lam in LAMBDAS:
        law = VonMisesLikeLaw(lam)
        total, _ = scipy.integrate.quad(law.pdf, -math.pi, math.pi,
                                        epsabs=1e-12, limit=400)
        assert total == pytest.approx(1.0, abs=1e-9), lam


def test_mean_cos_matches_bessel_ratio():
    for lam in LAMBDAS:
        got = VonMisesLikeLaw(lam).mean_cos()
        assert abs(got - bessel_ratio_series(lam)) <= 1e-8, lam


BESSEL_LAMBDAS = np.concatenate([np.geomspace(1e-8, 1e4, 400),
                                 np.geomspace(0.01, 100.0, 25)]).tolist()


def test_frontier_matches_bessel_functions():
    # E[cos Z] = I1/I0 and ln C = ln(2 pi) + lam + ln i0e(lam), so the rate
    # is (lam*r - lam - ln i0e(lam)) / ln 2 bits
    # one law over all 425 lam spans two blocks of the (lam x node) array
    mean_cos = VonMisesLikeLaw(BESSEL_LAMBDAS).mean_cos()
    for lam, got in zip(BESSEL_LAMBDAS, mean_cos):
        r = special.i1e(lam) / special.i0e(lam)
        assert abs(got - r) <= 1e-12, lam
        rate = (lam * r - lam - math.log(special.i0e(lam))) / math.log(2.0)
        assert abs(rdp_point(lam).rate_bits - rate) <= 1e-9, lam


def bessel_rate_at(distortion):
    """Rate at a distortion by bisection in log(lam) on the Bessel
    identities D = 2 - 2 I1/I0 and R = (lam*r - lam - ln i0e(lam)) / ln 2."""
    lo, hi = math.log(1e-8), math.log(1e4)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lam = math.exp(mid)
        if 2.0 - 2.0 * special.i1e(lam) / special.i0e(lam) > distortion:
            lo = mid
        else:
            hi = mid
    lam = math.exp(0.5 * (lo + hi))
    r = special.i1e(lam) / special.i0e(lam)
    return (lam * r - lam - math.log(special.i0e(lam))) / math.log(2.0)


@pytest.mark.parametrize("distortion", [3e-4, 1e-3, 0.05, 0.2, 0.5, 1.0,
                                        1.5, 1.99, 2.0 - 1e-6])
def test_rate_at_distortion_matches_bessel_bisection(distortion):
    assert rate_at_distortion(distortion) == pytest.approx(
        bessel_rate_at(distortion), rel=1e-11, abs=1e-12)


def test_rate_at_distortion_takes_a_few_curve_calls(monkeypatch):
    # each bracket round evaluates R and D on one grid, without building
    # frontier points; a round after the first keeps its bracket ends'
    # R and D and evaluates only the points between them
    from rdplab import frontier
    calls = []
    law = frontier.VonMisesLikeLaw

    def counted(lam):
        calls.append(np.size(lam))
        return law(lam)

    monkeypatch.setattr(frontier, "VonMisesLikeLaw", counted)
    monkeypatch.setattr(frontier, "rdp_curve", None)
    rate_at_distortion(0.2)
    assert calls == [frontier.BRACKET_POINTS] + [frontier.BRACKET_POINTS - 2] * 4


def rate_by_curve_points(distortion):
    """rate_at_distortion's bracket and cubic, run on rdp_curve's points."""
    from rdplab.frontier import BRACKET_POINTS, BRACKET_WIDTH
    lo, hi = 1e-8, 1e4
    while True:
        grid = np.geomspace(lo, hi, BRACKET_POINTS)
        points = rdp_curve(grid)
        d = np.array([p.distortion for p in points])
        above = int(np.count_nonzero(d > distortion))
        if above == 0:
            return points[0].rate_bits
        if math.log(hi / lo) < BRACKET_WIDTH:
            break
        lo, hi = grid[above - 1], grid[above]
    first = min(max(above - 2, 0), BRACKET_POINTS - 4)
    d = d[first:first + 4]
    rate = 0.0
    for i, p in enumerate(points[first:first + 4]):
        others = np.delete(d, i)
        rate += p.rate_bits * np.prod((distortion - others) / (d[i] - others))
    return float(rate)


def test_rate_at_distortion_has_the_curve_points_bits():
    # the benchmark's distortions, then 66 across [3e-4, 2) as the
    # BRACKET_POINTS comment has them
    for d in [0.05, 0.2, 0.5, 1.0] + list(np.geomspace(3e-4, 1.999, 66)):
        got = rate_at_distortion(float(d))
        assert type(got) is float
        assert got.hex() == rate_by_curve_points(float(d)).hex(), d


def test_monotonicity_failure_names_its_lambdas(monkeypatch):
    from rdplab import frontier
    mean_cos = VonMisesLikeLaw.mean_cos

    def bent(law):
        out = mean_cos(law)
        out[2] = out[1]             # D stops falling between points 1 and 2
        return out

    monkeypatch.setattr(VonMisesLikeLaw, "mean_cos", bent)
    grid = [0.5, 1.0, 2.0, 4.0]
    for call in (lambda: rdp_curve(grid),
                 lambda: frontier._rates_and_distortions(grid),
                 lambda: rate_at_distortion(0.2)):
        with pytest.raises(RuntimeError,
                           match="frontier not monotone between lambda="):
            call()
    with pytest.raises(RuntimeError, match="lambda=1 and lambda=2$"):
        rdp_curve(grid)


def test_law_works_elementwise_on_a_lambda_array():
    lams = np.geomspace(1e-3, 1e3, 7)
    law = VonMisesLikeLaw(lams)
    for k, lam in enumerate(lams):
        one = VonMisesLikeLaw(lam)
        for method in ("mean_cos", "divergence_nats"):
            assert getattr(law, method)()[k] == getattr(one, method)(), method


def test_trapezoid_rule_raises_when_its_halves_disagree():
    # beyond LAMBDA_MAX the M/2-node rule no longer resolves the peak
    with pytest.raises(RuntimeError, match="trapezoid rule unresolved"):
        VonMisesLikeLaw(1e6)


def test_no_library_path_falls_back_to_simpson(monkeypatch):
    from rdplab import frontier, stagger
    from rdplab.sources import GaussianSource

    def refuse(*args, **kwargs):
        raise AssertionError("adaptive Simpson called")

    for mod in (stagger, frontier):
        monkeypatch.setattr(mod, "adaptive_simpson", refuse)
    stagger.exact_code_distribution(
        stagger.StaggeredSpec(GaussianSource(0.0, 1.0), 0.25, 4))
    rdp_curve(np.geomspace(0.01, 100.0, 5))
    rate_at_distortion(0.2)


def test_rdp_point_small_lambda_endpoint():
    p = rdp_point(1e-8)
    assert abs(p.rate_bits - 0.0) < 1e-6
    assert abs(p.distortion - 2.0) < 1e-6


def test_small_lambda_rate_matches_series():
    # the rate is the divergence from the uniform law, lam^2/(4 ln 2) -
    # 3 lam^4/(64 ln 2) + O(lam^6) bits, computed without subtracting two
    # entropies near ln(2 pi)
    for lam in np.geomspace(1e-8, 1e-3, 21):
        series = (lam ** 2 / 4.0 - 3.0 * lam ** 4 / 64.0) / math.log(2.0)
        rate = rdp_point(lam).rate_bits
        assert rate == pytest.approx(series, rel=1e-6, abs=0.0), lam


def test_rdp_point_at_lambda_two():
    # frozen against the Bessel identities: E[cos Z] = I1(2)/I0(2),
    # h = ln(2*pi*I0(2)) - 2*E[cos Z]
    p = rdp_point(2.0)
    law = VonMisesLikeLaw(2.0)
    assert law.mean_cos() == pytest.approx(0.6977746579640078, abs=1e-8)
    assert p.distortion == pytest.approx(0.6044506840719845, abs=1e-8)
    assert p.rate_bits == pytest.approx(0.8245806813834694, abs=1e-8)
    assert math.log(math.tau) - law.divergence_nats() == pytest.approx(
        1.2663212921212032, abs=1e-8)


def test_distortion_matches_rejection_sampling():
    rng = np.random.default_rng(2024)
    for lam in (1.0, 5.0):
        accepted = []
        while len(accepted) < 200_000:
            z = rng.uniform(-math.pi, math.pi, 500_000)
            u = rng.random(500_000)
            accepted.extend(z[u < np.exp(lam * (np.cos(z) - 1.0))].tolist())
        z = np.asarray(accepted[:200_000])
        d = 2.0 - 2.0 * np.cos(z)
        radius = 3.0 * d.std(ddof=1) / math.sqrt(d.size)
        assert abs(rdp_point(lam).distortion - d.mean()) <= radius


def test_curve_monotone_and_convex():
    grid = np.geomspace(0.01, 100.0, 41)
    points = rdp_curve(grid)
    rates = np.array([p.rate_bits for p in points])
    dists = np.array([p.distortion for p in points])
    assert np.all(np.diff(rates) > 0)
    assert np.all(np.diff(dists) < 0)
    # convexity in (D, R): middle point on or below the chord
    for k in range(1, len(points) - 1):
        t = (dists[k] - dists[k - 1]) / (dists[k + 1] - dists[k - 1])
        chord = rates[k - 1] + t * (rates[k + 1] - rates[k - 1])
        assert rates[k] <= chord + 1e-9


def test_one_shot_points_above_information_frontier():
    for point in one_shot_frontier(8)[1:]:
        reference = rate_at_distortion(point.distortion)
        assert point.rate_bits > reference


def test_frontier_ordering_chain():
    # at equal distortion: information frontier <= one-shot hull <= any
    # finite-offset staggered point; the extreme points are the hull's
    # vertices (test_circle::test_every_extreme_point_is_a_hull_vertex)
    from rdplab.circle import staggered_circle_rd

    hull = one_shot_frontier(64)
    hull_d = np.array([p.distortion for p in hull])[::-1]
    hull_r = np.array([p.rate_bits for p in hull])[::-1]

    def hull_rate(distortion):
        return float(np.interp(distortion, hull_d, hull_r))

    for levels in (2, 4, 8):
        for offsets in (1, 2, 4):
            point = staggered_circle_rd(levels, offsets)
            assert point.rate_bits >= hull_rate(point.distortion) - 1e-12
            assert point.rate_bits > rate_at_distortion(point.distortion)


def test_curve_input_validation():
    with pytest.raises(ValueError):
        rdp_point(0.0)
    with pytest.raises(ValueError):
        rdp_point(-1.0)
    with pytest.raises(ValueError):
        rdp_point(2e4)
    with pytest.raises(ValueError):
        rdp_curve([])
    with pytest.raises(ValueError):
        rdp_curve([1.0, 1.0])


def test_gaussian_reference_values():
    assert gaussian_rdp_reference(2.0, 1.0) == 0.0
    assert gaussian_rdp_reference(0.5, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert gaussian_rdp_reference(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        gaussian_rdp_reference(2.1, 1.0)
    with pytest.raises(ValueError):
        gaussian_rdp_reference(0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_rdp_reference(0.5, -1.0)
    for bits in (-0.5, math.nan):
        with pytest.raises(ValueError, match="common_bits"):
            gaussian_rdp_reference(0.5, 1.0, bits)
    # common randomness lowers the rate; at D = 2 sigma^2 it stays zero
    # (with the discriminant as (1 + b)^2 - 4bc, R_c = 2e-9 takes the
    # square root of a negative number there)
    assert gaussian_rdp_reference(0.5, 1.0, 1.0) < 1.0
    for bits in (0.0, 2e-9, 0.5, 1.0, 20.0, math.inf):
        assert gaussian_rdp_reference(2.0, 1.0, bits) == 0.0
    assert gaussian_rdp_reference(0.5, 1.0, math.inf) == pytest.approx(
        -0.5 * math.log2(1.0 - 0.75 ** 2), abs=1e-15)


def test_gaussian_reference_at_extreme_sigma():
    # 2 sigma^2 overflows from sigma ~ 1.34e154; the ratio D/(2 sigma^2)
    # does not, and R = 0.5*log2(2 sigma^2 / D) = 1 + 155*log2(10) here
    assert gaussian_rdp_reference(0.5, 1e155) == pytest.approx(
        1.0 + 155.0 * math.log2(10.0), rel=1e-14)
    # where the ratio itself underflows, the refusal says so
    for distortion, sigma in ((0.5, 1e200), (1e-300, 1e100)):
        with pytest.raises(ValueError, match="underflows"):
            gaussian_rdp_reference(distortion, sigma)
    for sigma in (math.inf, -math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            gaussian_rdp_reference(0.5, sigma)
    with pytest.raises(ValueError, match="distortion"):
        gaussian_rdp_reference(math.inf, 1e155)


def test_gaussian_reference_keeps_its_bits_at_unit_sigma():
    # at sigma = 1 the ratio 0.5*(D/sigma)/sigma is D/2, as D/(2 sigma^2) was
    for distortion in np.linspace(0.01, 2.0, 37):
        for bits in (0.0, 0.5, 2.0):
            d = distortion / 2.0
            b = 2.0 ** (-2.0 * bits)
            a = 2.0 * d * (2.0 - d) / ((1.0 + b) + math.sqrt(
                (1.0 - b) ** 2 + 4.0 * b * (1.0 - d) ** 2))
            assert gaussian_rdp_reference(distortion, 1.0, bits) == max(
                0.0, -0.5 * math.log2(a)), (distortion, bits)


def test_import_loads_no_scipy_subpackage_but_special():
    # scipy.optimize alone costs about 22 MB of RSS and 0.3-0.6 s of import;
    # solvers and references stay on scipy.special
    src = str(Path(rdplab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, rdplab, rdplab.cli; print(' '.join(sorted("
            "{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert {name for name in out if not name.startswith("_")} - {"version"} \
        == {"special"}

"""Correctness checks: every benchmark call's output against a second route.

False-alarm budget: at most 1e-6 per call.  A Monte Carlo call has four
random checks, each given ``ALPHA = 2.5e-7``:

* distortion: ``|mse - D| <= z * sigma_D / sqrt(n)`` with ``z`` the
  two-sided normal quantile at ``ALPHA`` (5.16), a normal approximation
  for a mean of at least 2^13 light-tailed terms;
* rate, linear term: the same ``z`` on the standard deviation of the
  plug-in entropy;
* rate, plug-in bias: the rate may fall short of the exact entropy by the
  upper ``ALPHA`` quantile of the chi-square deficit of the plug-in
  estimator, ``chi2_{K-1} / (2 n ln 2)`` (K active codes);
* perception: ``KS <= sqrt(ln(2/ALPHA) / (2n))``, the DKW bound at
  ``ALPHA`` (2.75e-3 at n = 2^20, coefficient 2.82 against the
  alpha = 0.01 coefficient 1.628).

Reference values (the second route):

* circle-staggered: ``2 - 2 sinc(pi/(LN)) sinc(pi/L)`` and rate log2 L;
* circle-dithered: ``2 - 2 sinc(pi/L)`` and rate exactly log2 L;
* scalar pipelines: ``exact_code_distribution`` (``mse_exact`` and the
  per-offset code masses), with sigma_D from Gauss-Legendre moments of the
  per-code error over the boundary table;
* exact code distributions: code masses recomputed from cell edges, the
  telescoping mass identity within ``MASS_TOL``, dithered masses summing
  to 1, and ``mse_exact`` against the Gauss-Legendre route;
* frontier points: ``E[cos Z] = I1(lam)/I0(lam)`` from
  ``scipy.special.i1e/i0e``, and ``rate_at_distortion`` against a
  bisection on that Bessel ratio.  The quadrature's E[cos Z] is held to
  ``MEAN_COS_TOL`` (the accuracy the library's own tests pin), which
  allows 2e-8 in D and ``(lam + 1) * 1e-8 / ln 2`` in the rate at lam; at
  a given distortion the rate also moves by ``dR/dD = -lam / (2 ln 2)``
  times the D error.

Deterministic checks have tolerances above their numerical error, so they
spend none of the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from rdplab import stagger
from rdplab.stagger import MASS_TOL
from workloads import scalar_spec

ALPHA = 2.5e-7
Z = float(special.ndtri(1.0 - ALPHA / 2.0))
MEAN_COS_TOL = 1e-8
MSE_REL_TOL = 1e-8

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def _sinc(x: float) -> float:
    return math.sin(x) / x


def _ks_bound(n: int) -> float:
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * n))


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class EntropyRef:
    """Exact per-group entropies of a rate that averages G plug-in entropies."""

    entropy_bits: float          # mean of the group entropies
    var_sum: float               # sum over groups of Var(-log2 p)
    dof: int                     # sum over groups of (active codes - 1)
    groups: int


def _entropy_ref(group_masses) -> EntropyRef:
    ents, var_sum, dof = [], 0.0, 0
    for p in group_masses:
        p = p[p > 0]
        h = _entropy_bits(p)
        ents.append(h)
        var_sum += max(float((p * np.log2(p) ** 2).sum()) - h * h, 0.0)
        dof += p.size - 1
    return EntropyRef(float(np.mean(ents)), var_sum, dof, len(ents))


def _check_rate(rate: float, ref: EntropyRef, n: int) -> str | None:
    g = ref.groups
    # every group sees at least n_min samples except with negligible odds
    n_min = n / g - 6.0 * math.sqrt(n / g * (1.0 - 1.0 / g))
    sd = math.sqrt(ref.var_sum / n_min) / g
    deficit = 0.0
    if ref.dof:
        deficit = float(special.chdtri(ref.dof, ALPHA)) / (2.0 * n_min * math.log(2.0) * g)
    gap = rate - ref.entropy_bits
    if not -(Z * sd + deficit) - 1e-12 <= gap <= Z * sd + 1e-12:
        return (f"rate {rate:.9g} vs exact {ref.entropy_bits:.9g} "
                f"(allowed -{Z * sd + deficit:.3g}/+{Z * sd:.3g})")
    return None


def _check_mse(mse: float, exact: float, sigma: float, n: int) -> str | None:
    radius = Z * sigma / math.sqrt(n) + 1e-12 * exact
    if abs(mse - exact) > radius:
        return f"distortion {mse:.9g} vs exact {exact:.9g} (radius {radius:.3g})"
    return None


def _check_ks(ks: float, n: int) -> str | None:
    if ks > _ks_bound(n):
        return f"KS {ks:.4g} above {_ks_bound(n):.4g}"
    return None


@dataclass(frozen=True)
class ScalarRef:
    """Second-route values for one scalar spec."""

    masses: np.ndarray              # P(code) from cell edges, table codes
    identity_error: float           # max |F(b) - F(a) - P| over the table
    mse_gl: float                   # E(X - Xhat)^2 by Gauss-Legendre
    sigma_d: float                  # std of (X - Xhat)^2 by Gauss-Legendre
    exact: stagger.CodeDistribution | None    # for Monte Carlo checks
    entropy: EntropyRef | None


def _truncated_moments(source, lo, hi, center):
    """Raw moments 1..4 about ``center`` of the source restricted to each
    [lo, hi], by 16-point Gauss-Legendre on the density."""
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    x = mid + half * _NODES
    w = _WEIGHTS * np.asarray(source.pdf(x))
    w = w / w.sum(axis=1, keepdims=True)
    d = x - center[:, None]
    return [(w * d ** r).sum(axis=1) for r in range(1, 5)]


def _scalar_ref(key, with_exact: bool) -> ScalarRef | None:
    """None when the library cannot build the spec's boundary table; calls
    on that spec then raise too and count as failed."""
    spec = scalar_spec(key)
    try:
        table = stagger.build_boundaries(spec)
    except (RuntimeError, ValueError):
        return None
    src, n_off, delta = spec.source, spec.n_offsets, spec.delta
    j = table.codes.astype(float)
    left = spec.origin + delta * (j / n_off - 0.5)
    right = spec.origin + delta * ((j + n_off) / n_off - 0.5)
    masses = (np.asarray(src.cdf(right)) - np.asarray(src.cdf(left))) / n_off
    identity = float(np.max(np.abs(np.asarray(src.cdf(table.b))
                                   - np.asarray(src.cdf(table.a)) - masses)))

    keep = (masses > stagger.ACTIVE_EPS) & (table.b > table.a) \
        & (table.cell_hi > table.cell_lo)
    p = masses[keep]
    center = 0.5 * (table.cell_lo[keep] + table.cell_hi[keep])
    x1, x2, x3, x4 = _truncated_moments(src, table.cell_lo[keep],
                                        table.cell_hi[keep], center)
    y1, y2, y3, y4 = _truncated_moments(src, table.a[keep], table.b[keep],
                                        center)
    d2 = x2 - 2.0 * x1 * y1 + y2
    d4 = x4 - 4.0 * x3 * y1 + 6.0 * x2 * y2 - 4.0 * x1 * y3 + y4
    mse_gl = float((p * d2).sum())
    sigma = math.sqrt(max(float((p * d4).sum()) - mse_gl ** 2, 0.0))

    exact = entropy = None
    if with_exact:
        exact = stagger.exact_code_distribution(spec)
        entropy = _entropy_ref(exact.per_offset_masses)
    return ScalarRef(masses, identity, mse_gl, sigma, exact, entropy)


class References:
    """Second-route values for the calls of one workload, built once."""

    def __init__(self, calls):
        simulated = {c.key for c in calls if c.kind == "mc"}
        self.scalar: dict[tuple, ScalarRef | None] = {
            key: _scalar_ref(key, key in simulated)
            for key in {c.key for c in calls if c.key is not None}}
        self.rate_at: dict[float, tuple[float, float]] = {
            call.arg: _bessel_rate_at(call.arg)
            for call in calls if call.kind == "rate"}

    def check(self, call, out) -> str | None:
        """None when ``out`` passes, else why it does not."""
        if call.kind == "mc":
            return self._check_mc(call, out)
        if call.kind == "exact":
            return self._check_exact(call, out)
        if call.kind == "curve":
            return _check_curve(call.arg, out)
        want, lam = self.rate_at[call.arg]
        if not abs(out - want) <= (2.0 * lam + 1.0) * MEAN_COS_TOL / math.log(2.0):
            return f"rate_at_distortion({call.arg}) = {out:.12g}, Bessel {want:.12g}"
        return None

    def _check_mc(self, call, rows) -> str | None:
        cfg = call.arg
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = rows[0]
        n = cfg.n_samples
        if row["n_samples"] != n or row["seed"] != cfg.seed:
            return "row does not echo its samples and seed"
        if cfg.scheme == "scalar-staggered":
            ref = self.scalar[call.key]
            return (_check_mse(row["distortion"], ref.exact.mse_exact,
                               ref.sigma_d, n)
                    or _check_rate(row["rate_bits"], ref.entropy, n)
                    or _check_ks(row["perception_ks"], n))
        lev = cfg.levels
        if cfg.scheme == "circle-staggered":
            cells = lev * cfg.offsets
            c1 = _sinc(math.pi / lev) * _sinc(math.pi / cells)
            c2 = _sinc(2 * math.pi / lev) * _sinc(2 * math.pi / cells)
            rate = _check_rate(row["rate_bits"],
                               _entropy_ref([np.full(lev, 1.0 / lev)]), n)
        else:
            c1 = _sinc(math.pi / lev)
            c2 = _sinc(2 * math.pi / lev)
            rate = None if row["rate_bits"] == math.log2(lev) else \
                f"dithered rate {row['rate_bits']!r} is not log2 L"
        # D = 2 - 2cos(E) with E[cos kE] = c_k, so E[D^2] = 6 - 8 c1 + 2 c2
        d = 2.0 - 2.0 * c1
        sigma = math.sqrt(max(6.0 - 8.0 * c1 + 2.0 * c2 - d * d, 0.0))
        return (_check_mse(row["distortion"], d, sigma, n) or rate
                or _check_ks(row["perception_ks"], n))

    def _check_exact(self, call, out) -> str | None:
        ref = self.scalar[call.key]
        if ref.identity_error > MASS_TOL:
            return f"mass identity off by {ref.identity_error:.3g}"
        if out.pooled_masses.shape != ref.masses.shape \
                or np.max(np.abs(out.pooled_masses - ref.masses)) > 1e-15:
            return "code masses differ from the cell-edge masses"
        if abs(out.pooled_masses.sum() - 1.0) > MASS_TOL:
            return f"code masses sum to {out.pooled_masses.sum():.12g}"
        if abs(out.dithered.masses.sum() - 1.0) > MASS_TOL:
            return f"dithered masses sum to {out.dithered.masses.sum():.12g}"
        if abs(out.mse_exact - ref.mse_gl) > MSE_REL_TOL * ref.mse_gl:
            return (f"mse_exact {out.mse_exact:.12g} vs Gauss-Legendre "
                    f"{ref.mse_gl:.12g}")
        return None


def _bessel_mean_cos(lam):
    return special.i1e(lam) / special.i0e(lam)


def _bessel_point(lam: float) -> tuple[float, float]:
    """(rate bits, distortion) of the frontier at lam from Bessel functions:
    ln C = ln(2 pi) + lam + ln i0e(lam), h = ln C - lam E[cos Z]."""
    r = float(_bessel_mean_cos(lam))
    rate = (lam * r - lam - math.log(float(special.i0e(lam)))) / math.log(2.0)
    return max(rate, 0.0), 2.0 - 2.0 * r


def _bessel_rate_at(distortion: float) -> tuple[float, float]:
    """(rate, lam) of the frontier at a distortion, by bisection in
    log(lam) on I1/I0."""
    lo, hi = math.log(1e-8), math.log(1e4)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _bessel_point(math.exp(mid))[1] > distortion:
            lo = mid
        else:
            hi = mid
    lam = math.exp(0.5 * (lo + hi))
    return _bessel_point(lam)[0], lam


def _check_curve(lams, points) -> str | None:
    if len(points) != len(lams):
        return f"expected {len(lams)} frontier points, got {len(points)}"
    for lam, p in zip(lams, points):
        rate, dist = _bessel_point(lam)
        if abs(p.distortion - dist) > 2.0 * MEAN_COS_TOL \
                or abs(p.rate_bits - rate) > (lam + 1.0) * MEAN_COS_TOL / math.log(2.0):
            return (f"frontier at lambda={lam:g}: ({p.rate_bits:.12g}, "
                    f"{p.distortion:.12g}) vs Bessel ({rate:.12g}, {dist:.12g})")
    return None

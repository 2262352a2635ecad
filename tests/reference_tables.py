"""Boundary tables built from first principles, in either index convention.

``reference_table`` builds a staggered spec's boundary table in separate
passes: the source CDF is evaluated afresh on the edges of each mass, on
each term of the N-term average and on each of a and b.  In the default
convention ``stagger.build_boundaries`` must reproduce it bit for bit.

With ``paper_indexing`` it places a(j) at the quantile of the mean of F
over the cell edges j-N .. j-1, the index convention the paper prints,
instead of j .. j+N-1.  Every interval then sits one full step away from
its cell, the mass identity breaks and, on most specs, the first
intervals hold (next to) no mass.  The library builds only the default
table; tests that need faulty codes pass the paper's table to ``decode``,
or patch ``stagger.build_boundaries`` to return it.
"""

import math

import numpy as np

from rdplab.stagger import (ACTIVE_EPS, MASS_TOL, MAX_CODE_INDEX,
                            MAX_TABLE_CODES, BoundaryTable, cell_left)


def reference_table(spec, paper_indexing=False) -> BoundaryTable:
    """The table of ``spec``, built in separate passes.  It raises the
    library's errors for an oversized grid and, in the default convention
    only, for a mass-identity violation."""
    source, n_off = spec.source, spec.n_offsets
    lo, hi = source.effective_support()
    t_lo = n_off * ((lo - spec.origin) / spec.delta - 0.5)
    t_hi = n_off * ((hi - spec.origin) / spec.delta + 0.5)
    if not (max(abs(t_lo), abs(t_hi)) < MAX_CODE_INDEX
            and t_hi - t_lo < MAX_TABLE_CODES):
        raise ValueError(f"delta {spec.delta:g}, origin {spec.origin:g} and "
                         f"{n_off} offsets give codes {t_lo:.3g} .. "
                         f"{t_hi:.3g}; a table takes at most "
                         f"{MAX_TABLE_CODES} codes, within +/-2^53")
    js = np.arange(int(math.ceil(t_lo)) - 1, int(math.floor(t_hi)) + 2)
    prob = (source.cdf(cell_left(spec, js + n_off))
            - source.cdf(cell_left(spec, js))) / n_off
    active = np.nonzero(prob > ACTIVE_EPS)[0]
    if active.size == 0:
        raise ValueError("no active codes: source mass does not meet the grid")
    codes = js[active[0]:active[-1] + 1]
    prob = prob[active[0]:active[-1] + 1]
    shift = 0 if paper_indexing else n_off
    edge_js = np.arange(codes[0], codes[-1] + 2)
    u = np.zeros(edge_js.size)
    for k in range(1, n_off + 1):
        u += source.cdf(cell_left(spec, edge_js - k + shift))
    u /= n_off
    bounds = np.empty(edge_js.size)
    interior = (u > 0.0) & (u < 1.0)
    bounds[u <= 0.0] = lo
    bounds[u >= 1.0] = hi
    if np.any(interior):
        bounds[interior] = np.clip(source.quantile(u[interior]), lo, hi)
    bounds[0], bounds[-1] = lo, hi
    a, b = bounds[:-1], bounds[1:]
    fa, fb = source.cdf(a), source.cdf(b)
    if not paper_indexing:
        err = float(np.max(np.abs((fb - fa) - prob)))
        if err > MASS_TOL:
            raise RuntimeError(
                f"mass identity violated by {err:.3e} (indexing fault?)")
    return BoundaryTable(spec=spec, codes=codes, a=a, b=b, prob=prob, fa=fa,
                         fb=fb, cell_lo=np.clip(cell_left(spec, codes), lo, hi),
                         cell_hi=np.clip(cell_left(spec, codes + n_off), lo,
                                         hi))


def paper_table(spec) -> BoundaryTable:
    """The table of ``spec`` in the paper's printed index convention."""
    return reference_table(spec, paper_indexing=True)


def exact_ks_gap(table) -> float:
    """KS distance between the decoder's output law and the source law.

    The decoder draws code j from F restricted to [a(j), b(j)], and the
    intervals tile the support, so the output CDF is 0 at a(0) and the
    sum of P(i) over i <= j at b(j).  Within an interval both CDFs are
    affine in F, so the largest gap lies on a boundary.
    """
    output = np.concatenate(([0.0], np.cumsum(table.prob)))
    return float(np.max(np.abs(output - np.append(table.fa[0], table.fb))))

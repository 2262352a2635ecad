"""Adaptive Simpson quadrature.

Used wherever an integral must be pinned to a fixed absolute tolerance:
the normalizer and mean cosine of the exponential-cosine law, and the
dithered cell masses.
"""

from __future__ import annotations


class QuadratureError(RuntimeError):
    """Raised when the adaptive subdivision budget is exhausted."""


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 60) -> float:
    """Integrate ``f`` on ``[a, b]`` to absolute tolerance ``tol``.

    Classic memoized adaptive Simpson with the 15*eps acceptance rule.
    Exceeding ``max_depth`` levels of subdivision is a hard error rather
    than a silent loss of accuracy.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _recurse(f, a, fa, b, fb, tol, whole, m, fm, max_depth)


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(f, a, fa, b, fb, tol, whole, m, fm, depth):
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson failed to converge on [{a}, {b}]")
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_recurse(f, a, fa, m, fm, tol / 2.0, left, lm, flm, depth - 1)
            + _recurse(f, m, fm, b, fb, tol / 2.0, right, rm, frm, depth - 1))

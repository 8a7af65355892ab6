"""Scalar numerical utilities: bisection and adaptive Simpson quadrature.

Simpson backs the quadrature expectation path of the distribution
machinery; bisection is the closed-form-free route that the piece inverses
are checked against.  Both routines are deliberately scalar: every
integrand and every function to invert in this package is a cheap
closed-form piece.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import QuadratureNonConvergence


def bisect_increasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float = 1e-12,
) -> float:
    """Locate ``inf{x in [lo, hi] : f(x) >= target}`` for non-decreasing f.

    Absolute tolerance ``tol`` on x.  If the target is never reached the
    right endpoint is returned; if it is already met at ``lo`` the left
    endpoint is returned (infimum-of-preimage semantics on flat pieces).
    """
    if f(lo) >= target:
        return lo
    if f(hi) < target:
        return hi
    a, b = lo, hi
    while b - a > tol:
        m = 0.5 * (a + b)
        if f(m) >= target:
            b = m
        else:
            a = m
    return b


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 60,
) -> float:
    """Integrate ``f`` over [a, b] by recursive adaptive Simpson's rule.

    The classic subdivision scheme with Richardson extrapolation: a half
    is accepted when the two-panel and one-panel estimates agree to
    ``15 * tol``.  Raises :class:`QuadratureNonConvergence` if a subinterval
    still disagrees at recursion depth ``max_depth``.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(
        x0: float,
        x2: float,
        f0: float,
        f1: float,
        f2: float,
        whole: float,
        tol: float,
        depth: int,
    ) -> float:
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, xm, f0, flm, f1)
        right = simpson(xm, x2, f1, frm, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise QuadratureNonConvergence(
                f"Simpson subdivision at depth {depth} on "
                f"[{x0:.6g}, {x2:.6g}] still has error {abs(err):.3g}"
            )
        return recurse(x0, xm, f0, flm, f1, left, tol / 2.0, depth + 1) + recurse(
            xm, x2, f1, frm, f2, right, tol / 2.0, depth + 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)

"""Power-series solutions of Schwarzian-type differential equations.

S_f = phi is solved through the classical linearization: if h'' + (1/2) phi h
= 0 has the basis h1, h2, every solution of the Schwarzian equation is a
Moebius transformation applied to h1/h2.  Everything here is jet-local at a
single center; with Fraction coefficients the whole pipeline (recurrence,
division, reversion) stays in exact rational arithmetic, so residuals of the
homogeneous identities come out as literal zeros rather than small floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .jets import (
    Jet,
    JetError,
    _fractions,
    _is_exact,
    _over_common,
    jet_antiderive,
    jet_derive,
    jet_from_coeffs,
    jet_pow,
    jet_reciprocal,
    jet_reverse,
)
from .maps import _maximum
from .symbolic import evaluate_jet, sigma_a, sigma_b


@dataclass(frozen=True)
class OdeSolution:
    """Basis of h'' + (1/2) phi h = 0 and the induced Schwarzian solution.

    The labels are ordered so that the ratio f = h1/h2 is regular at the
    center: h1 is the solution with h(0) = 0, h'(0) = 1 and h2 the one with
    h(0) = 1, h'(0) = 0, giving f the 1-point normalization f(0) = 0,
    f'(0) = 1.  The Wronskian h1' h2 - h1 h2' is constant (= 1) to
    truncation order.
    """

    phi: Jet
    h1: Jet
    h2: Jet
    f: Jet
    wronskian: complex


def _linear_basis(phi: Jet, order: int, c0, c1) -> Jet:
    """Solve h'' + (1/2) phi h = 0 with h(center) = c0, h'(center) = c1.

    An exact phi = y/d runs the recurrence on numerators over b (2d)^N N!,
    where b is the common denominator of c0 and c1, each step dividing its
    integer sum by 2d (m+1)(m+2) exactly."""
    exact = _over_common(phi.coeffs)
    if exact:
        y, d, _ = exact
        c0, c1 = Fraction(c0), Fraction(c1)
        b = lcm(c0.denominator, c1.denominator)
        two_d = 2 * d
        scale = b * two_d**order * factorial(order)
        r0, r1 = (c.numerator * (scale // c.denominator) for c in (c0, c1))
        h = _basis(y, order, r0, r1, lambda s, k: -s // (two_d * k))
        return jet_from_coeffs(_fractions(h, scale), phi.center)
    return jet_from_coeffs(_basis(phi.coeffs, order, c0, c1, lambda s, k: -0.5 * s / k), phi.center)


def _basis(y, order: int, c0, c1, step) -> list:
    """h_0 = c0, h_1 = c1 and h_(m+2) = step(sum_j y_j h_(m-j), (m+1)(m+2))
    through h_order."""
    h = [c0, c1]
    for m in range(order - 1):
        h.append(step(sum(map(mul, y[: m + 1], h[m::-1])), (m + 1) * (m + 2)))
    return h[: order + 1]


def schwarzian_solve(phi: Jet, order: int | None = None) -> OdeSolution:
    """Jet solution of S_f = phi with f(c) = 0, f'(c) = 1.

    The basis recurrence is h_{m+2} = -(phi h)_m / (2 (m+1)(m+2)); the ratio
    of the two normalized solutions satisfies the Schwarzian equation to
    truncation order.  A change of basis by an invertible matrix (a b; c d)
    turns f into (a f + b)/(c f + d), i.e. post-composition by a Moebius map.
    """
    order = phi.order + 3 if order is None else order
    if order < 3:
        raise ValueError("order must be at least 3 to carry a Schwarzian")
    exact = all(_is_exact(c) for c in phi.coeffs)
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    h1 = _linear_basis(phi, order, zero, one)
    h2 = _linear_basis(phi, order, one, zero)
    f = h1 * jet_reciprocal(h2)
    wron = jet_derive(h1, 1) * h2 - h1 * jet_derive(h2, 1)
    return OdeSolution(phi, h1, h2, f, wron.coeffs[0])


def max_abs(values) -> float:
    """max |v| over numbers that convert to complex, by `maps._maximum`: NaN if any is."""
    return _maximum(*(abs(complex(v)) for v in values))


def ode_residual(sol: OdeSolution) -> float:
    """max |coefficient| of h'' + (1/2) phi h over both basis solutions."""
    return max_abs(c for h in (sol.h1, sol.h2) for c in (jet_derive(h, 2) + 0.5 * (sol.phi * h)).coeffs)


def homogeneous_b(n: int, alpha, order: int = 14) -> Jet:
    """Jet with f' = (alpha_0 + ... + alpha_{n-2} z^{n-2})^(-2/(n-2)), f(0)=0.

    These are exactly the functions annihilated by the n-th B-series
    operator.  With alpha_0 = 1 and rational alpha the jet is exact.
    """
    if n < 4:
        raise ValueError("B-series homogeneous solutions need n >= 4")
    alpha = list(alpha)
    if len(alpha) > n - 1:
        raise ValueError(f"at most {n - 1} coefficients allowed for n = {n}")
    if alpha[0] == 0:
        raise JetError("leading coefficient must not vanish at the center")
    coeffs = alpha + [0] * (order + 1 - len(alpha))
    p = jet_from_coeffs(coeffs[: order + 1], 0.0)
    fp = jet_pow(p, Fraction(-2, n - 2))
    return jet_antiderive(fp, Fraction(0) if all(_is_exact(c) for c in fp.coeffs) else 0.0)


def homogeneous_b_residual(n: int, alpha, order: int = 14, through: int = 8) -> float:
    """max |coefficient| of the sigma^B_n jet of homogeneous_b through the
    given order.

    The jet is built to order min(order, n + through - 1), the least that
    carries the coefficients read (the antiderivative adds one order and
    sigma^B_n takes n off); each truncated-jet coefficient depends only on
    the coefficients at or below it, so a deeper jet reads the same values."""
    f = homogeneous_b(n, alpha, min(order, n + through - 1))
    res = evaluate_jet(sigma_b(n), f)
    take = min(through, res.order)
    return max_abs(res.coeffs[: take + 1])


def homogeneous_a_check(poly, n: int, order: int = 14, through: int = 8) -> float:
    """Residual of the A-series homogeneous construction.

    A function is annihilated by the n-th A-series operator exactly when the
    Schwarzian of its inverse is a polynomial of degree <= n-4.  So: solve
    S_g = P for the given polynomial P, revert the jet, and measure the
    sigma^A_n coefficients of the reverse through the given order.

    The jets are built to order min(order, n + through), the least that
    carries the coefficients read; each truncated-jet coefficient depends
    only on the coefficients at or below it, so a deeper jet reads the same
    values.
    """
    poly = list(poly)
    if n < 4:
        raise ValueError("need n >= 4")
    if len(poly) - 1 > n - 4:
        raise ValueError(f"polynomial degree must be <= {n - 4}")
    order = min(order, n + through)
    coeffs = poly + [0] * (order + 1 - len(poly))
    phi = jet_from_coeffs(coeffs[: order + 1], 0.0)
    g = schwarzian_solve(phi, order).f
    f = jet_reverse(g)
    res = evaluate_jet(sigma_a(n), f)
    take = min(through, res.order)
    return max_abs(res.coeffs[: take + 1])

"""Truncated Taylor-jet arithmetic.

A ``Jet`` is the finite stand-in for a holomorphic germ: the center point
together with Taylor coefficients c_0..c_N (c_k = f^(k)(center)/k!).  All
operations are pure and truncate to the minimum order of their operands;
nothing is ever padded silently.

Coefficients are duck-typed.  The usual substrate is ``complex``, but every
operation that does not force a branch cut works verbatim over
``fractions.Fraction``, which the exact-arithmetic tests rely on.  The center
and the coefficients may also be numpy arrays over sample points: the
recurrences then run elementwise, one jet standing for a whole batch of germs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np


class JetError(ValueError):
    pass


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _is_mp(x) -> bool:
    """True for mpmath numbers, which carry their own working precision."""
    return type(x).__module__.startswith("mpmath.")


def _any(flags) -> bool:
    """True if any flag is set; Python bools pass through without numpy."""
    return flags if isinstance(flags, bool) else bool(np.any(flags))


@dataclass(frozen=True)
class Jet:
    """Taylor jet sum c_k (z - center)^k, truncated at k = order."""

    center: complex
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise JetError("a jet needs at least a constant term")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, w):
        """Evaluate at center + w by Horner's rule."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * w + c
        return acc

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            _check_centers(self, other)
            n = min(self.order, other.order)
            return Jet(self.center, tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])))
        return Jet(self.center, (self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            _check_centers(self, other)
            n = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            prod = [sum(a[i] * b[k - i] for i in range(max(0, k - (len(b) - 1)), min(k, len(a) - 1) + 1)) for k in range(n + 1)]
            return Jet(self.center, tuple(prod))
        return Jet(self.center, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_reciprocal(other)
        return self * (Fraction(1, other) if _is_exact(other) else 1.0 / other)

    def __rtruediv__(self, other):
        return jet_reciprocal(self) * other

    def __pow__(self, alpha):
        return jet_pow(self, alpha)


def _check_centers(a: Jet, b: Jet):
    if _any(a.center != b.center):
        raise JetError(f"center mismatch: {a.center} vs {b.center}")


def jet_variable(center, order: int) -> Jet:
    """The identity function z as a jet at `center`."""
    one = 1 if _is_exact(center) else 1.0
    return Jet(center, (center, one) + (0 * one,) * max(0, order - 1))


def jet_const(value, center, order: int) -> Jet:
    return Jet(center, (value,) + (0 * value if not _is_exact(value) else 0,) * order)


def jet_from_coeffs(coeffs, center=0j) -> Jet:
    return Jet(center, tuple(coeffs))


def jet_reciprocal(a: Jet) -> Jet:
    """Multiplicative inverse; requires nonvanishing constant term."""
    c0 = a.coeffs[0]
    if _any(c0 == 0):
        raise JetError("reciprocal of a jet with vanishing constant term")
    inv0 = Fraction(1, 1) / c0 if _is_exact(c0) else 1.0 / c0
    out = [inv0]
    for n in range(1, a.order + 1):
        s = sum(a.coeffs[k] * out[n - k] for k in range(1, n + 1))
        out.append(-inv0 * s)
    return Jet(a.center, tuple(out))


def jet_pow(a: Jet, alpha) -> Jet:
    """a**alpha for integer, rational, or float alpha.

    The branch is the principal value of c0**alpha.  For integer alpha the
    result agrees with repeated multiplication/reciprocal; over exact
    coefficients with integer alpha (or with c0 == 1) the computation stays
    exact.  Internally solves f*g' = alpha*f'*g coefficientwise, which divides
    by c0; a vanishing c0 is allowed only for a nonnegative integer alpha,
    where the result is the repeated product.  Over mpmath coefficients the
    leading power and the 1/n factors are taken at the working precision.
    """
    c0 = a.coeffs[0]
    if _any(c0 == 0):
        if not (isinstance(alpha, (int, Fraction, float)) and alpha >= 0 and alpha == int(alpha)):
            raise JetError("power of a jet with vanishing constant term")
        if alpha > 0:
            out = a
            for _ in range(int(alpha) - 1):
                out = out * a
            return out
    if alpha == 0:
        return jet_const(1 if _is_exact(c0) else 1.0 + 0j, a.center, a.order)

    exact = _is_exact(c0) and all(_is_exact(c) for c in a.coeffs) and isinstance(alpha, (int, Fraction))
    if exact and not (isinstance(alpha, int) or alpha.denominator == 1 or c0 == 1):
        exact = False
    mp = _is_mp(c0)
    if exact:
        if isinstance(alpha, int) or alpha.denominator == 1:
            g0 = Fraction(c0) ** int(alpha) if int(alpha) >= 0 else Fraction(1, 1) / Fraction(c0) ** (-int(alpha))
        else:
            g0 = Fraction(1)  # c0 == 1 here
        alph = Fraction(alpha)
    elif mp:
        alph = c0.context.mpf(alpha.numerator) / alpha.denominator if isinstance(alpha, Fraction) else alpha
        g0 = c0**alph
    else:
        g0 = np.power(c0, complex(alpha)) if isinstance(c0, np.ndarray) else complex(c0) ** complex(alpha)
        alph = float(Fraction(alpha)) if isinstance(alpha, Fraction) else alpha

    out = [g0]
    inv_c0 = (Fraction(1, 1) / c0) if exact else 1.0 / c0
    for n in range(1, a.order + 1):
        s = sum((alph * k - (n - k)) * a.coeffs[k] * out[n - k] for k in range(1, n + 1))
        out.append(inv_c0 * s / n if mp else inv_c0 * s * (Fraction(1, n) if exact else 1.0 / n))
    return Jet(a.center, tuple(out))


def jet_compose(outer: Jet, inner: Jet, tol: float = 1e-9) -> Jet:
    """Jet of outer∘inner at inner's center.

    Requires the value of `inner` at its center to coincide with the center
    of `outer` (recentering is the caller's job, e.g. via `jet_shift`).
    """
    v = inner.coeffs[0]
    mismatch = abs(v - outer.center)
    if _any((mismatch > tol) & (mismatch > tol * abs(v))):
        raise JetError(f"composition value/center mismatch: inner(center)={v}, outer.center={outer.center}")
    n = min(outer.order, inner.order)
    zero = 0 if _is_exact(v) and _is_exact(outer.coeffs[0]) else 0.0 + 0j
    u = Jet(inner.center, (zero,) + inner.coeffs[1 : n + 1])
    acc = jet_const(outer.coeffs[n], inner.center, n)
    for k in range(n - 1, -1, -1):
        acc = acc * u + outer.coeffs[k]
    return acc


def jet_reverse(a: Jet) -> Jet:
    """Compositional inverse: g with a∘g = id to truncation order.

    Supported at center 0 with a(0) = 0 and a'(0) != 0 (the fixed-point
    normalization every caller uses), so that the inverse is again a jet at 0.
    A batched jet is reversed elementwise; every germ in it must qualify.

    Power-table reversion (Knuth, TAOCP vol. 2, §4.7): column m of
    P[k][m] = [z^m] g^k, k >= 2, needs only g_1..g_{m-1}, and then
    g_m = -(1/a_1) sum_{k=2}^{m} a_k P[k][m].  O(n^3) coefficient products at
    order n, no intermediate jets; exact over Fraction coefficients.
    """
    if _any(a.center != 0):
        raise JetError("reversion is supported at center 0 only")
    if _any(a.coeffs[0] != 0):
        raise JetError("reversion needs vanishing constant term")
    if len(a.coeffs) < 2 or _any(a.coeffs[1] == 0):
        raise JetError("reversion needs nonvanishing linear term")
    n = a.order
    c = a.coeffs
    inv1 = Fraction(1, 1) / c[1] if _is_exact(c[1]) else 1.0 / c[1]
    zero = c[0] * 0
    g = [zero, inv1] + [zero] * (n - 1)
    powers = [None, g] + [[zero] * (n + 1) for _ in range(n - 1)]
    for m in range(2, n + 1):
        for k in range(2, m + 1):
            lower = powers[k - 1]
            powers[k][m] = sum(g[j] * lower[m - j] for j in range(1, m - k + 2))
        g[m] = -inv1 * sum(c[k] * powers[k][m] for k in range(2, m + 1))
    return Jet(a.center, tuple(g))


def jet_derive(a: Jet, k: int = 1) -> Jet:
    """k-th derivative; order drops by k."""
    if k < 0:
        raise JetError("negative derivative order")
    if k > a.order:
        raise JetError(f"derivative order {k} exceeds jet order {a.order}")
    coeffs = a.coeffs
    for _ in range(k):
        coeffs = tuple(coeffs[j] * j for j in range(1, len(coeffs)))
    return Jet(a.center, coeffs)


def jet_antiderive(a: Jet, const=0) -> Jet:
    """Termwise antiderivative with prescribed value at the center."""
    exact = all(_is_exact(c) for c in a.coeffs)
    if exact:
        coeffs = (const,) + tuple(c * Fraction(1, j + 1) for j, c in enumerate(a.coeffs))
    else:
        coeffs = (const,) + tuple(c / (j + 1) for j, c in enumerate(a.coeffs))
    return Jet(a.center, coeffs)


def jet_shift(a: Jet, w) -> Jet:
    """Recenter: the jet of the same truncated polynomial at center + w.

    Exact for polynomials; for truncations of longer series this is the
    documented recentering convention (the discarded tail stays discarded).
    """
    n = a.order
    coeffs = []
    for j in range(n + 1):
        coeffs.append(sum(comb(k, j) * a.coeffs[k] * w ** (k - j) for k in range(j, n + 1)))
    return Jet(a.center + w, tuple(coeffs))


def derivative_values(a: Jet):
    """Tuple (f(c), f'(c), ..., f^(N)(c)) of actual derivatives at the center."""
    fact = 1
    out = []
    for k, c in enumerate(a.coeffs):
        if k > 0:
            fact *= k
        out.append(c * fact)
    return tuple(out)

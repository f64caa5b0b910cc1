"""Truncated Taylor-jet arithmetic.

A ``Jet`` is the finite stand-in for a holomorphic germ: the center point
together with Taylor coefficients c_0..c_N (c_k = f^(k)(center)/k!).  All
operations are pure and truncate to the minimum order of their operands;
nothing is ever padded silently.

Coefficients are duck-typed.  The usual substrate is ``complex``; the center
and the coefficients may also be numpy arrays over sample points, and the
recurrences then run elementwise, one jet standing for a whole batch of germs.

Exact jets (every coefficient an ``int`` or a ``fractions.Fraction``) run the
same loops on integer numerators: each operand is put over one common
denominator, the output numerators over a denominator fixed before the loop
starts, and where the float step divides, the exact step divides its integer
sum exactly (``//`` with no remainder), one ``Fraction`` per output
coefficient.  Products, reciprocals, powers (integer exponent, or rational
exponent with c_0 = 1) and reversion, whose one loop takes integer
coefficients pre-scaled by powers of x_1, stay exact this way, at one gcd per
output coefficient instead of one per partial product.  Composition needs no
scaling (its power table only adds and multiplies), nor does an antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from operator import mul, truediv

import numpy as np


class JetError(ValueError):
    pass


# Exactness is decided by exact type: one set lookup, where isinstance would
# go through the numbers.Rational ABC for every float, numpy or mpmath value.
_EXACT_TYPES = frozenset((int, Fraction))


def _is_exact(x) -> bool:
    return type(x) in _EXACT_TYPES


def _inverse(x):
    """1/x, kept exact (a Fraction) for an int or Fraction x."""
    return Fraction(1, x) if _is_exact(x) else 1.0 / x


def _over_common(coeffs):
    """Integer numerators over one common denominator for exact coefficients.

    Returns (numerators, denominator, has_fraction) with
    coeffs[k] == numerators[k] / denominator, or None as soon as one
    coefficient is neither an int nor a Fraction (so a numpy or float jet is
    turned away at its first coefficient).
    """
    den, frac = 1, False
    for c in coeffs:
        t = type(c)
        if t is Fraction:
            frac = True
            d = c.denominator
            if den % d:
                den = den // gcd(den, d) * d
        elif t is not int:
            return None
    if not frac:
        return list(coeffs), 1, False
    return [c.numerator * (den // c.denominator) for c in coeffs], den, True


def _fractions(nums, den) -> tuple:
    return tuple(Fraction(n, den) for n in nums)


def _convolve(a, b, n: int) -> list:
    """The first n+1 coefficients of the product of a and b, where b holds at
    least n+1 terms and a may be shorter (zero past its end): term k sums
    a_i b_(k-i) for i = 0, 1, ... in that order."""
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1)]


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
        return _horner(self.coeffs, w)

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
            exact_a = _over_common(a[: n + 1])
            exact_b = exact_a and _over_common(b[: n + 1])
            if exact_b:
                (na, da, fa), (nb, db, fb) = exact_a, exact_b
                prod = _convolve(na, nb, n)
                return Jet(self.center, _fractions(prod, da * db) if fa or fb else tuple(prod))
            return Jet(self.center, tuple(_convolve(a, b, n)))
        return Jet(self.center, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_reciprocal(other)
        return self * _inverse(other)

    def __rtruediv__(self, other):
        return jet_reciprocal(self) * other

    def __pow__(self, alpha):
        return jet_pow(self, alpha)


def _horner(coeffs, w):
    """sum_j coeffs[j] w^j by Horner's rule from the top coefficient; an
    array w gives an array of its shape, also for a constant."""
    acc = np.full(np.shape(w), coeffs[-1]) if np.ndim(w) else coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * w + c
    return acc


def _check_centers(a: Jet, b: Jet):
    if a.center is not b.center and _any(a.center != b.center):
        raise JetError(f"center mismatch: {a.center} vs {b.center}")


def jet_variable(center, order: int) -> Jet:
    """The identity function z as a jet at `center`, order + 1 coefficients."""
    one = 1 if _is_exact(center) else 1.0
    return Jet(center, ((center, one) + (0 * one,) * (order - 1))[: order + 1])


def jet_const(value, center, order: int) -> Jet:
    return Jet(center, (value,) + (0 * value if not _is_exact(value) else 0,) * order)


def jet_from_coeffs(coeffs, center=0j) -> Jet:
    return Jet(center, tuple(coeffs))


def jet_reciprocal(a: Jet) -> Jet:
    """Multiplicative inverse; requires nonvanishing constant term.

    An exact a = x/d runs the loop on numerators over x_0^(N+1), from
    d x_0^N, each step dividing its integer sum by x_0 exactly."""
    c0 = a.coeffs[0]
    if _any(c0 == 0):
        raise JetError("reciprocal of a jet with vanishing constant term")
    n = a.order
    exact = _over_common(a.coeffs)
    if exact:
        x, d, _ = exact
        return Jet(a.center, _fractions(*_exact_reciprocal(x, n, d)))
    inv0 = 1.0 / c0
    return Jet(a.center, tuple(_reciprocal(a.coeffs, n, inv0, lambda s: -inv0 * s)))


def _reciprocal(x, order: int, first, step) -> list:
    """r_0 = first and r_n = step(sum_{k=1}^{n} x_k r_(n-k)) for n = 1..order,
    the recurrence of 1/x; x may be shorter than order + 1 (zero past its
    end), which keeps a polynomial's reciprocal at O(order * degree)."""
    out = [first]
    for n in range(1, order + 1):
        out.append(step(sum(map(mul, x[1 : n + 1], out[::-1]))))
    return out


def _exact_reciprocal(x, order: int, d) -> tuple:
    """(numerators, denominator) of 1/(x/d) to `order` for integers x, d."""
    x0 = x[0]
    return _reciprocal(x, order, d * x0**order, lambda s: -s // x0), x0 ** (order + 1)


def jet_pow(a: Jet, alpha) -> Jet:
    """a**alpha for integer, rational, or float alpha.

    The branch is the principal value of c0**alpha.  For integer alpha the
    result agrees with repeated multiplication/reciprocal; over exact
    coefficients with integer alpha (or with c0 == 1) the computation stays
    exact.  Internally solves f*g' = alpha*f'*g coefficientwise, which divides
    by c0; a vanishing c0 is allowed only for a nonnegative integer alpha,
    where the result is the repeated product.  Over mpmath coefficients the
    leading power and the 1/n factors are taken at the working precision.

    With alpha = p/q the step is
    g_n = sum_k (p k - q (n-k)) c_k g_(n-k) / (n q c_0), with q = 1 for a
    float or mpmath alpha.  An exact a = x/d runs it on numerators over
    g0_den N! (q x_0)^N, from g0_num N! (q x_0)^N, each step dividing its
    integer sum by n q x_0 exactly.
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

    n = a.order
    if _is_exact(c0) and isinstance(alpha, (int, Fraction)) and (Fraction(alpha).denominator == 1 or c0 == 1):
        exact = _over_common(a.coeffs)
        if exact:
            x, d, _ = exact
            p, q = Fraction(alpha).as_integer_ratio()
            x0 = x[0]
            if q == 1:
                g0_num, g0_den = (x0**p, d**p) if p >= 0 else (d ** (-p), x0 ** (-p))
            else:
                g0_num = g0_den = 1  # c0 == 1
            step, scale = q * x0, factorial(n) * (q * x0) ** n
            out = _power(x, n, g0_num * scale, p, q, lambda s, m: s // (m * step))
            return Jet(a.center, _fractions(out, g0_den * scale))
    mp = _is_mp(c0)
    if mp:
        alph = c0.context.mpf(alpha.numerator) / alpha.denominator if isinstance(alpha, Fraction) else alpha
        g0 = c0**alph
    else:
        g0 = np.power(c0, complex(alpha)) if isinstance(c0, np.ndarray) else complex(c0) ** complex(alpha)
        alph = float(Fraction(alpha)) if isinstance(alpha, Fraction) else alpha
    inv_c0 = 1.0 / c0
    step = (lambda s, m: inv_c0 * s / m) if mp else (lambda s, m: inv_c0 * s * (1.0 / m))
    return Jet(a.center, tuple(_power(a.coeffs, n, g0, alph, 1, step)))


def _power(x, order: int, first, p, q, step) -> list:
    """g_0 = first and g_n = step(sum_{k=1}^{n} (p k - q (n-k)) x_k g_(n-k), n)
    for n = 1..order, the recurrence of x^(p/q)."""
    out = [first]
    for n in range(1, order + 1):
        out.append(step(sum((p * k - q * (n - k)) * x[k] * out[n - k] for k in range(1, n + 1)), n))
    return out


def _fill_column(u, powers, m: int):
    """Column m of the power table P[k][m] = sum_j u_j P[k-1][m-j] for
    k = 2..m, from the columns before it and row 1: j runs up from 1 to
    m-k+1, so row k-1 is read down from column m-1 to column k-1."""
    for k in range(2, m + 1):
        powers[k][m] = sum(map(mul, u[1 : m - k + 2], powers[k - 1][m - 1 : k - 2 : -1]))


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of outer∘inner at inner's center.

    Requires the value of `inner` at its center to coincide with the center
    of `outer` to 1e-9, absolute or relative (recentering is the caller's
    job, e.g. via `jet_shift`).

    Power-table composition (Knuth, TAOCP vol. 2, §4.7): with u = inner - v
    and P[k][m] = [w^m] u^k, which vanishes below m = k,
    P[k][m] = sum_j u_j P[k-1][m-j] and out_m = sum_{k=1}^{m} outer_k P[k][m],
    filled column by column.  About n^3/6 coefficient products at order n,
    no intermediate jets.  The table never divides, so int and Fraction
    coefficients stay exact.
    """
    v = inner.coeffs[0]
    mismatch = abs(v - outer.center)
    if _any((mismatch > 1e-9) & (mismatch > 1e-9 * abs(v))):
        raise JetError(f"composition value/center mismatch: inner(center)={v}, outer.center={outer.center}")
    n = min(outer.order, inner.order)
    c, u = outer.coeffs[: n + 1], inner.coeffs[: n + 1]
    powers = [None, u] + [[None] * (n + 1) for _ in range(n - 1)]
    out = [c[0]]
    for m in range(1, n + 1):
        _fill_column(u, powers, m)
        out.append(sum(c[k] * powers[k][m] for k in range(1, m + 1)))
    return Jet(inner.center, tuple(out))


def jet_reverse(a: Jet) -> Jet:
    """Compositional inverse: g with a∘g = id to truncation order.

    Supported at center 0 with a(0) = 0 and a'(0) != 0 (the fixed-point
    normalization every caller uses), so that the inverse is again a jet at 0.
    A batched jet is reversed elementwise; every germ in it must qualify.

    Power-table reversion (Knuth, TAOCP vol. 2, §4.7): column m of
    P[k][m] = [z^m] g^k, k >= 2, needs only g_1..g_{m-1}, and then
    g_m = -(1/a_1) sum_{k=2}^{m} a_k P[k][m].  O(n^3) coefficient products at
    order n, no intermediate jets.

    Exact a = x/d runs the same loop on integers, x_k x_1^(k-2) for a_k and
    1 for 1/a_1, to G_m = x_1^(2m-1) g_m / d^m; over one denominator D for
    every g_m, row k of the table would carry D^k.
    """
    if _any(a.center != 0):
        raise JetError("reversion is supported at center 0 only")
    if _any(a.coeffs[0] != 0):
        raise JetError("reversion needs vanishing constant term")
    if len(a.coeffs) < 2 or _any(a.coeffs[1] == 0):
        raise JetError("reversion needs nonvanishing linear term")
    n = a.order
    c = a.coeffs
    exact = _over_common(c)
    if exact:
        x, d, _ = exact
        x1 = x[1]
        g = _reverse([0, 0] + [x[k] * x1 ** (k - 2) for k in range(2, n + 1)], n, 0, 1, lambda s: -s)
        return Jet(a.center, (Fraction(0),) + tuple(Fraction(d**m * g[m], x1 ** (2 * m - 1)) for m in range(1, n + 1)))
    inv1 = 1.0 / c[1]
    return Jet(a.center, tuple(_reverse(c, n, c[0] * 0, inv1, lambda s: -inv1 * s)))


def _reverse(c, order: int, zero, first, step) -> list:
    """g_0 = zero, g_1 = first and g_m = step(sum_{k=2}^{m} c_k P[k][m])
    for m = 2..order, P[k][m] = [z^m] g^k filled by `_fill_column`: the
    recurrence of the compositional inverse."""
    g = [zero, first] + [zero] * (order - 1)
    powers = [None, g] + [[zero] * (order + 1) for _ in range(order - 1)]
    for m in range(2, order + 1):
        _fill_column(g, powers, m)
        g[m] = step(sum(c[k] * powers[k][m] for k in range(2, m + 1)))
    return g


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
    """Termwise antiderivative with prescribed value at the center; `Fraction`s
    when every coefficient is exact, each built from two ints."""
    div = (lambda c, k: Fraction(c.numerator, c.denominator * k)) if all(map(_is_exact, a.coeffs)) else truediv
    return Jet(a.center, (const,) + tuple(div(c, j + 1) for j, c in enumerate(a.coeffs)))


def jet_shift(a: Jet, w, order: int | None = None) -> Jet:
    """Recenter: the jet of the same truncated polynomial at center + w,
    truncated at `order` when one is given.

    Exact for polynomials; for truncations of longer series this is the
    documented recentering convention (the discarded tail stays discarded).

    Repeated synthetic division (Horner): pass i folds w * b_(k+1) into b_k
    for k = N-1 down to i, which leaves b_j = sum_k C(k, j) a_k w^(k-j) after
    N passes, N(N+1)/2 products and no powers of w.  No later pass touches
    b_i, so the order + 1 passes that settle b_0 .. b_order give the full
    shift's coefficients, bit for bit, in O(order * N) products.  The top
    coefficient takes w's batch shape too, so every output coefficient has it.
    """
    b = list(a.coeffs)
    n = len(b) - 1
    keep = n if order is None else min(order, n)
    b[n] = b[n] + 0 * w
    for i in range(min(keep + 1, n)):
        for k in range(n - 1, i - 1, -1):
            b[k] = b[k] + w * b[k + 1]
    return Jet(a.center + w, tuple(b[: keep + 1]))


def derivative_values(a: Jet):
    """Tuple (f(c), f'(c), ..., f^(N)(c)) of actual derivatives at the center."""
    fact = 1
    out = []
    for k, c in enumerate(a.coeffs):
        if k > 0:
            fact *= k
        out.append(c * fact)
    return tuple(out)

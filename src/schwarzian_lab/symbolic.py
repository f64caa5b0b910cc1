"""Exact symbolic engine for differential operators in jet variables.

A ``DiffExpr`` is a Laurent polynomial over Q in the variables u_1, u_2, ...
where u_k stands for the k-th derivative f^(k) of an undetermined holomorphic
function.  The exponent of u_1 lives in (1/2)Z because the B-series
construction passes through (f')^{1-n/2}; exponents of u_2, u_3, ... are
nonnegative integers.  An expression is *canonical* when every u_1 exponent
is integral — the final form of both Schwarzian series is canonical.

Exponent keys are stored as integer tuples ``(2*e_1, e_2, ..., e_K)`` with
trailing zeros trimmed; coefficients are ``fractions.Fraction``.  The formal
derivative behind both series runs on plain integers: an expression is put
over the lcm D of its denominators, one derivative maps integer numerators
over D to integer numerators over 2D, and ``Fraction`` values are built
once at the end.  The A series takes one derivative per order from the
order below; the B series reads every order from one chain of partial Bell
polynomials (Faa di Bruno's formula), one derivative per row.  Evaluation
is one loop over the terms that reads every factor from one power table,
run on point values (``evaluate``), on float, batched or mpmath jets, or on
series of integer numerators over one denominator (``evaluate_jet`` on an
exact jet).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm

from .jets import (
    Jet,
    _any,
    _convolve,
    _exact_reciprocal,
    _fractions,
    _inverse,
    _is_exact,
    _is_mp,
    _over_common,
    derivative_values,
    jet_const,
    jet_derive,
    jet_reciprocal,
)

Key = tuple  # (2*e1, e2, e3, ..., eK), trailing zeros trimmed


class CriticalPointError(ValueError):
    """`evaluate` or `evaluate_jet` met u_1 = f' = 0."""


def _trim(key) -> Key:
    key = list(key)
    while len(key) > 1 and key[-1] == 0:
        key.pop()
    return tuple(key)


def _mul_keys(k1: Key, k2: Key) -> Key:
    n = max(len(k1), len(k2))
    k1 = k1 + (0,) * (n - len(k1))
    k2 = k2 + (0,) * (n - len(k2))
    return _trim(tuple(a + b for a, b in zip(k1, k2)))


class DiffExpr:
    """Immutable Laurent differential polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[_trim(tuple(key))] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("DiffExpr is immutable")

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "DiffExpr") -> "DiffExpr":
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return DiffExpr(terms)

    def __sub__(self, other: "DiffExpr") -> "DiffExpr":
        return self + other.scale(-1)

    def __mul__(self, other: "DiffExpr") -> "DiffExpr":
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _mul_keys(k1, k2)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return DiffExpr(terms)

    def scale(self, c) -> "DiffExpr":
        c = Fraction(c)
        return DiffExpr({k: c * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure ---------------------------------------------------------

    def is_canonical(self) -> bool:
        """True when every u_1 exponent is an integer."""
        return all(key[0] % 2 == 0 for key in self.terms)

    def max_index(self) -> int:
        """Largest k with u_k occurring (at least 1)."""
        return max((len(key) for key in self.terms), default=1)

    def weights(self) -> set:
        """Set of monomial weights sum_k (k-1)*e_k, as integers.

        u_1 carries weight 0, so its half-integer exponent never enters."""
        return {sum(i * e for i, e in enumerate(key)) for key in self.terms}

    def __repr__(self):
        return f"DiffExpr({to_string(self)!r})"


def monomial(coeff, e1_doubled: int = 0, **powers) -> DiffExpr:
    """Single term; `powers` maps 'u2', 'u3', ... to exponents."""
    top = max([1] + [int(name[1:]) for name in powers])
    key = [0] * top
    key[0] = e1_doubled
    for name, e in powers.items():
        key[int(name[1:]) - 1] = e
    return DiffExpr({tuple(key): Fraction(coeff)})


def classical(kind: str) -> DiffExpr:
    """The classical operators: 'schwarzian' S_f or 'pre_schwarzian' f''/f'."""
    if kind == "pre_schwarzian":
        return monomial(1, -2, u2=1)
    if kind == "schwarzian":
        return monomial(1, -2, u3=1) + monomial(Fraction(-3, 2), -4, u2=2)
    raise ValueError(f"unknown classical operator {kind!r}")


def _numerators(e: DiffExpr) -> tuple:
    """({key: integer numerator}, D) with e's coefficients put over D, the
    lcm of their denominators."""
    den = lcm(*(c.denominator for c in e.terms.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in e.terms.items()}, den


def _over(nums: dict, den: int) -> DiffExpr:
    """The DiffExpr {key: num/den}; `nums` holds trimmed keys and no zeros."""
    e = object.__new__(DiffExpr)
    object.__setattr__(e, "terms", {key: Fraction(v, den) for key, v in nums.items()})
    return e


def _derive(nums: dict) -> dict:
    """Formal z-derivative on integer numerators: {key: a} over D maps to
    {key: b} over 2D.  The key holds u_1's exponent doubled, as e, so the
    Leibniz term from u_1^(e/2) is (a/D)*(e/2) = a*e/(2D), and the one from
    u_k^e (k >= 2) is (a/D)*e = 2*a*e/(2D).  Keys keep their order of first
    appearance and zero sums are dropped at the end, as the Leibniz loop over
    Fraction coefficients did, so terms and term order are unchanged."""
    out = {}
    get = out.get
    for key, c in nums.items():
        last = len(key) - 1
        for i, exp in enumerate(key):
            if not exp:
                continue
            new = list(key)
            if i:
                new[i] -= 1
                coeff = 2 * exp * c
            else:
                new[0] -= 2
                coeff = exp * c
            if i == last:
                new.append(1)
            else:
                new[i + 1] += 1
            new = tuple(new)
            out[new] = get(new, 0) + coeff
    return {key: v for key, v in out.items() if v}


def sym_derive(e: DiffExpr) -> DiffExpr:
    """Formal z-derivative: u_k -> u_{k+1} via the Leibniz rule."""
    nums, den = _numerators(e)
    return _over(_derive(nums), 2 * den)


@lru_cache(maxsize=None)
def sigma_a(n: int) -> DiffExpr:
    """A-series higher Schwarzian: sigma_3 = S_f, then
    sigma_{n+1} = sigma_n' - (n-1)*(f''/f')*sigma_n.

    Each order is one step from the cached order below it, taken over
    integer numerators."""
    if n < 3:
        raise ValueError("A-series starts at n = 3")
    if n == 3:
        return classical("schwarzian")
    nums, den = _numerators(sigma_a(n - 1))
    out = _derive(nums)  # over 2*den
    for key, c in nums.items():  # minus (n-2) * u_2/u_1 * sigma_{n-1}
        key = _mul_keys((-2, 1), key)
        out[key] = out.get(key, 0) - 2 * (n - 2) * c
    return _over({key: v for key, v in out.items() if v}, 2 * den)


@lru_cache(maxsize=None)
def _bell_row(m: int) -> tuple:
    """The partial Bell polynomials B_{m,k}(u_2, u_3, ...), k = 0..m, each
    as {key: integer coefficient} over keys whose u_1 slot is 0.

    B_{0,0} = 1 and B_{m+1,k} = B_{m,k}' + u_2 * B_{m,k-1}, where ' is the
    formal derivative u_j -> u_{j+1}: Faa di Bruno's formula for d^m g(f'),
    with g^(k)(f') * B_{m,k} the terms that carry the k-th derivative of g
    (Comtet, Advanced Combinatorics, 1974, sec. 3.3)."""
    if m == 0:
        return ({(0,): 1},)
    prev = _bell_row(m - 1)
    row = [{}]
    for k in range(1, m + 1):
        # `_derive` gives the derivative over the denominator 2 on these keys
        nums = {key: v // 2 for key, v in _derive(prev[k]).items()} if k < m else {}
        for key, v in prev[k - 1].items():  # times u_2
            key = (0, key[1] + 1) + key[2:] if len(key) > 1 else (0, 1)
            nums[key] = nums.get(key, 0) + v
        row.append(nums)
    return tuple(row)


@lru_cache(maxsize=None)
def sigma_b(n: int) -> DiffExpr:
    """B-series higher Schwarzian: -2*(f')^{n/2-1} * d^{n-1}/dz^{n-1} (f')^{1-n/2}.

    By Faa di Bruno, d^{n-1} (f')^a = sum_k (a)_k (f')^(a-k) B_{n-1,k}, with
    (a)_k = a (a-1) ... (a-k+1) the falling factorial, so
    sigma_n = -2 sum_k (1-n/2)_k u_1^(-k) B_{n-1,k}: the Bell rows of
    `_bell_row` serve every n, and u_1's exponent is an integer by
    construction.  The terms are put in ascending order of their keys, the
    order the Leibniz chain over (f')^{1-n/2} produced, which fixes the float
    summation order of `evaluate`.

    Some published coefficient tables for n = 4, 5 differ in signs and one
    exponent from this direct expansion; the defining derivative formula is
    what is implemented, and the jet-arithmetic oracle in the test suite
    confirms it.
    """
    if n < 3:
        raise ValueError("B-series starts at n = 3")
    # -2 (1-n/2)_k over the denominator 2^(n-1), with (1-n/2)_k = prod_{j<k} (2-n-2j)/2
    nums, falling = {}, -2 * 2 ** (n - 1)
    for k, poly in enumerate(_bell_row(n - 1)):
        if k:
            falling = falling * (4 - n - 2 * k) // 2
        for key, v in poly.items():
            nums[(-2 * k,) + key[1:]] = falling * v
    return _over(dict(sorted(nums.items())), 2 ** (n - 1))


def series_letter(series: str) -> str:
    """The series letter "A" or "B", given in either case; ValueError for
    anything else.  Every choice between the two series is made through
    here, so no caller can fall through to one series on a typo."""
    letter = series.upper()
    if letter not in ("A", "B"):
        raise ValueError(f"unknown series {series!r}")
    return letter


def sigma_expr(series: str, n: int) -> DiffExpr:
    """sigma_n of the named series (see `series_letter`)."""
    return sigma_a(n) if series_letter(series) == "A" else sigma_b(n)


def monomial_part(e: DiffExpr) -> DiffExpr:
    """Terms of degree exactly one in the higher variables u_2, u_3, ...

    These carry the coefficients a_{k,l} that drive the differential of the
    higher Bers maps at the origin.
    """
    return DiffExpr({key: coeff for key, coeff in e.terms.items() if sum(key[1:]) == 1})


def monomial_coefficients(e: DiffExpr) -> dict:
    """Map (k, l) -> a_{k,l} for the degree-one terms a_{k,l} * u_k / u_1^l."""
    out = {}
    for key, coeff in monomial_part(e).terms.items():
        if key[0] % 2 != 0:
            raise ValueError("monomial coefficients need a canonical expression")
        out[(len(key), -key[0] // 2)] = coeff  # the single u_k factor sits at the top index
    return out


def series_constant(e: DiffExpr) -> Fraction:
    """Coefficient c of the leading monomial c * u_n / u_1 (0 if absent)."""
    coeffs = monomial_coefficients(e)
    n = max((k for (k, _l) in coeffs), default=0)
    return coeffs.get((n, 1), Fraction(0))


# -- evaluation -------------------------------------------------------------


def _coeff_cast(values):
    """How sigma's Fraction coefficients enter an evaluation over `values`,
    decided once per call: exact values keep them exact, mpmath values take
    them at the working precision, and anything else (complex scalars, numpy
    arrays) takes them as floats."""
    if all(_is_exact(v) for v in values):
        return lambda c: c
    mp = next((v for v in values if _is_mp(v)), None)
    if mp is not None:
        mpf = mp.context.mpf
        return lambda c: mpf(c.numerator) / c.denominator
    return float


class _Series:
    """A truncated series as integer numerators over one denominator: `*`
    convolves the numerators and multiplies the denominators, `+` meets over
    the lcm, and an int or a Fraction enters as a constant series."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: list, den: int):
        self.nums, self.den = nums, den

    def __mul__(self, other):
        if isinstance(other, _Series):
            return _Series(_convolve(self.nums, other.nums, len(self.nums) - 1), self.den * other.den)
        return _Series([other.numerator * x for x in self.nums], self.den * other.denominator)

    def __add__(self, other):
        if not isinstance(other, _Series):
            other = _Series([other.numerator] + [0] * (len(self.nums) - 1), other.denominator)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _Series([a * x + b * y for x, y in zip(self.nums, other.nums)], den)

    __rmul__, __radd__ = __mul__, __add__


def _sum_terms(e: DiffExpr, us, inv1, cast):
    """The sum of e's terms over u_k = us[k - 1] and 1/u_1 = inv1, or None if
    e has none: each term is its cast coefficient times powers read from one
    table per call, whose row of u_k holds u_k, u_k^2, ... by repeated
    products as far as some term has needed, and one more row those of 1/u_1.
    The u_k are point values, jets, or `_Series`."""
    rows = [[None, u] for u in us]
    inv = [None, inv1]
    total = None
    for key, coeff in e.terms.items():
        v = cast(coeff)
        for i, x in enumerate(key):
            if not x:
                continue
            row = rows[i]
            if i == 0:
                if x % 2 != 0:
                    raise ValueError("evaluation needs a canonical expression (integral u_1 exponents)")
                x //= 2
                if x < 0:
                    row, x = inv, -x
            while len(row) <= x:
                row.append(row[-1] * row[1])
            v = v * row[x]
        total = v if total is None else total + v
    return total


def evaluate(e: DiffExpr, f: Jet):
    """Numeric value of e[f] at f.center: the term loop on the values
    u_k = f^(k) and on 1/u_1.  Requires jet order >= the largest derivative
    index in `e` and u_1 != 0 there.  A batched jet gives an array of values,
    one per point."""
    top = e.max_index()
    if f.order < top:
        raise ValueError(f"jet order {f.order} below required derivative index {top}")
    us = derivative_values(f)[1:]
    u1 = us[0]
    if _any(u1 == 0):
        raise CriticalPointError("vanishing first derivative at evaluation point")
    total = _sum_terms(e, us, _inverse(u1), _coeff_cast(us))
    if total is None:
        return Fraction(0) if all(_is_exact(u) for u in us) else 0j
    return total


def evaluate_jet(e: DiffExpr, f: Jet) -> Jet:
    """e[f] as a jet at f.center (order drops by the top derivative index):
    the term loop on the jets u_k = f^(k) cut to the output order and on one
    jet reciprocal 1/u_1.  On an exact jet f = x/d the u_k are `_Series` over
    d, and 1/u_1 is the jets' exact reciprocal, cut by its one common gcd to
    the least denominator."""
    top = e.max_index()
    if f.order < top:
        raise ValueError(f"jet order {f.order} below required derivative index {top}")
    if _any(f.coeffs[1] == 0):
        raise CriticalPointError("vanishing first derivative at the jet's center")
    n = f.order - top
    exact = _over_common(f.coeffs)
    if exact:
        x, d, _ = exact
        us = [_Series([x[j + k] * perm(j + k, k) for j in range(n + 1)], d) for k in range(1, top + 1)]
        inv, den = _exact_reciprocal(us[0].nums, n, d)
        g = gcd(den, *inv)
        total = _sum_terms(e, us, _Series([r // g for r in inv], den // g), lambda c: c)
        total = _Series([0] * (n + 1), 1) + (0 if total is None else total)
        return Jet(f.center, _fractions(total.nums, total.den))
    us = [Jet(f.center, jet_derive(f, k).coeffs[: n + 1]) for k in range(1, top + 1)]
    total = _sum_terms(e, us, jet_reciprocal(us[0]), _coeff_cast(f.coeffs))
    if not isinstance(total, Jet):  # no terms, or only constant ones
        total = jet_const(0 if total is None else total, f.center, n)
    return jet_const(0j, f.center, n) + total


# -- rendering --------------------------------------------------------------


def _sort_key(key: Key):
    # key[i] is the exponent of u_{i+1}; the factors run from the highest index down
    factors = ()
    for i in range(len(key) - 1, 0, -1):
        factors += (-(i + 1),) * key[i]
    return (sum(key[1:]), factors, -key[0])


def to_string(e: DiffExpr) -> str:
    """Canonical rendering, e.g. ``u4/u1 - 6*u3*u2/u1^2 + 6*u2^3/u1^3``.

    Terms are ordered by (total degree in u_2.., then index-lexicographic);
    this ordering is what the golden CLI tests pin down.
    """
    if not e.terms:
        return "0"
    pieces = []
    for key in sorted(e.terms, key=_sort_key):
        coeff = e.terms[key]
        num_factors = []
        for i in range(len(key) - 1, 0, -1):
            if key[i]:
                name = f"u{i + 1}"
                num_factors.append(name if key[i] == 1 else f"{name}^{key[i]}")
        d = key[0]
        if d > 0:
            num_factors.append("u1" if d == 2 else (f"u1^{d // 2}" if d % 2 == 0 else f"u1^({d}/2)"))
        body = "*".join(num_factors) if num_factors else "1"
        num, den = coeff.numerator, coeff.denominator
        size = abs(num)
        if size != 1 or den != 1:
            shown = str(size) if den == 1 else f"{size}/{den}"
            body = f"{shown}*{body}" if num_factors else shown
        if d < 0:
            body += "/u1" if d == -2 else (f"/u1^{-d // 2}" if d % 2 == 0 else f"/u1^({-d}/2)")
        pieces.append(("- " if num < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]

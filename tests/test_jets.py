"""Truncated-jet arithmetic: products, reciprocals, powers, composition,
reversion, and the calculus operations, on both float and exact rational
coefficients."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from schwarzian_lab import (
    Jet,
    jet_compose,
    jet_derive,
    jet_from_coeffs,
    jet_pow,
    jet_reciprocal,
    jet_reverse,
    jet_variable,
)
from schwarzian_lab.jets import JetError, _convolve, _reciprocal, jet_antiderive, jet_const, jet_shift


def test_variable_jet():
    z = jet_variable(2j, 3)
    assert z.coeffs == (2j, 1, 0, 0)
    assert z(0.5) == 2j + 0.5


def test_call_keeps_the_shape_of_the_points():
    w = np.array([[0.5, -1j], [2.0, 0.25 + 0.5j]])  # dyadic, so every sum below is exact
    assert np.array_equal(Jet(0j, (2 + 1j,))(w), np.full(w.shape, 2 + 1j))
    f = jet_from_coeffs([1, 2, 3])
    assert np.array_equal(f(w), 1 + 2 * w + 3 * w * w)
    assert f(Fraction(1, 2)) == Fraction(11, 4) and type(f(Fraction(1, 2))) is Fraction


def test_variable_jet_has_exactly_order_plus_one_coefficients():
    assert jet_variable(2j, 0).coeffs == (2j,)
    assert jet_variable(Fraction(1, 3), 1).coeffs == (Fraction(1, 3), 1)
    assert jet_variable(0, 2).coeffs == (0, 1, 0)


def test_product_truncates():
    f = jet_from_coeffs([0, 1, 1])  # z + z^2, order 2
    assert (f * f).coeffs == (0, 0, 1)  # z^4 term is beyond the order
    g = jet_from_coeffs([0, 1, 1, 0])
    assert (g * g).coeffs == (0, 0, 1, 2)


def test_reciprocal_exact():
    f = jet_from_coeffs([Fraction(2), Fraction(1), Fraction(0)])
    inv = jet_reciprocal(f)
    assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    assert (f * inv).coeffs == (1, 0, 0)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(JetError):
        jet_reciprocal(jet_from_coeffs([0, 1]))


def test_composition():
    outer = jet_from_coeffs([1, 1, 1, 1], center=0)  # 1 + w + w^2 + w^3
    inner = jet_from_coeffs([0, 1, 1, 0])  # z + z^2
    assert jet_compose(outer, inner).coeffs == (1, 1, 2, 3)


def _sympy_compose(outer, inner):
    """Truncated composition of the two jets' polynomials in sympy."""
    z = sympy.symbols("z")
    rat = lambda x: sympy.Rational(x.numerator, x.denominator)
    n = min(outer.order, inner.order)
    u = sum(rat(Fraction(c)) * z**k for k, c in enumerate(inner.coeffs[1:], 1))
    poly = sympy.expand(sum(rat(Fraction(c)) * u**k for k, c in enumerate(outer.coeffs)))
    return tuple(Fraction(str(poly.coeff(z, k))) for k in range(n + 1))


def _horner_compose(outer, inner):
    """outer∘inner by Horner's rule over full jet products."""
    n = min(outer.order, inner.order)
    u = Jet(inner.center, (0j,) + inner.coeffs[1 : n + 1])
    acc = jet_const(outer.coeffs[n], inner.center, n)
    for k in range(n - 1, -1, -1):
        acc = acc * u + outer.coeffs[k]
    return acc


@pytest.mark.parametrize("seed", range(4))
def test_exact_composition_matches_sympy(seed):
    rng = random.Random(seed)
    frac = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    value = frac()
    outer = jet_from_coeffs([frac() for _ in range(rng.randint(3, 8))], center=value)
    inner = jet_from_coeffs([value] + [frac() for _ in range(rng.randint(3, 8))], center=frac())
    got = jet_compose(outer, inner)
    assert got.coeffs == _sympy_compose(outer, inner)
    assert got.center == inner.center
    assert all(type(c) is Fraction for c in got.coeffs)


def test_integer_composition_stays_integer():
    outer = jet_from_coeffs([2, -1, 3, 0, 5], center=1)
    inner = jet_from_coeffs([1, 4, -2, 7, 1], center=0)
    got = jet_compose(outer, inner).coeffs
    assert got == _sympy_compose(outer, inner) and all(type(c) is int for c in got)


def test_batched_composition_matches_horner():
    rng = np.random.default_rng(11)
    draw = lambda: rng.normal(size=5) + 1j * rng.normal(size=5)
    center = draw()
    inner = jet_from_coeffs([center] + [draw() for _ in range(9)], center=0.3 * draw())
    outer = jet_from_coeffs([draw() for _ in range(8)], center=center)
    got, want = jet_compose(outer, inner), _horner_compose(outer, inner)
    assert got.order == want.order == 7
    for g, w in zip(got.coeffs, want.coeffs):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_composition_center_mismatch():
    outer = jet_from_coeffs([1, 1], center=5.0)
    inner = jet_from_coeffs([0, 1])
    with pytest.raises(JetError):
        jet_compose(outer, inner)


def test_batched_center_mismatch_raises():
    # equal centers held in two array objects still combine; unequal ones raise
    z = np.array([0.1, 0.2j, -0.3])
    a = jet_from_coeffs([1, 1], center=z)
    same = jet_from_coeffs([2, 1], center=z.copy())
    assert (a + same).coeffs[0] == 3 and (a * same).coeffs[1] == 3
    moved = jet_from_coeffs([2, 1], center=z + np.array([0.0, 0.0, 1e-12]))
    with pytest.raises(JetError):
        a + moved
    with pytest.raises(JetError):
        a * moved


def test_reversion():
    f = jet_from_coeffs([Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(0)])
    g = jet_reverse(f)
    # compositional inverse of z + z^2: signed Catalan numbers
    assert g.coeffs == (0, 1, -1, 2, -5)
    assert jet_compose(f, g).coeffs == (0, 1, 0, 0, 0)
    assert jet_compose(g, f).coeffs == (0, 1, 0, 0, 0)


def test_reversion_needs_unit_slope():
    with pytest.raises(JetError):
        jet_reverse(jet_from_coeffs([1, 1, 0]))
    with pytest.raises(JetError):
        jet_reverse(jet_from_coeffs([0, 0, 1]))


def test_batched_reversion_is_elementwise():
    # one germ per column; a batch is rejected when any germ fails a guard
    cols = [[0j, 1 + 0j, 0.3j, -0.2], [0j, 2 - 1j, 0.1, 0.05j]]
    batch = jet_reverse(jet_from_coeffs([np.array(c) for c in zip(*cols)], center=0))
    for j, col in enumerate(cols):
        single = jet_reverse(jet_from_coeffs(col, center=0))
        assert all(abs(b[j] - s) <= 1e-15 * max(1.0, abs(s)) for b, s in zip(batch.coeffs, single.coeffs))
    for bad in ([np.array([0j, 0j]), np.array([1 + 0j, 0j])], [np.array([0j, 0.1j]), np.array([1 + 0j, 1 + 0j])]):
        with pytest.raises(JetError):
            jet_reverse(jet_from_coeffs(bad + [np.zeros(2, complex)], center=0))
    with pytest.raises(JetError):
        jet_reverse(jet_from_coeffs([0j, 1 + 0j, 0j], center=np.array([0j, 0.5])))


def _lagrange_reverse(coeffs):
    """Reversion by Lagrange inversion in sympy, independent of the jets
    module: [z^m] g = (1/m) [w^(m-1)] (w/a(w))^m, with w/a(w) the inverse of
    a(w)/w modulo w^n by the extended Euclidean algorithm."""
    w = sympy.symbols("w")
    n = len(coeffs) - 1
    a = sum(sympy.Rational(c.numerator, c.denominator) * w**k for k, c in enumerate(coeffs))
    mod = sympy.Poly(w**n, w)
    h = sympy.Poly(sympy.cancel(a / w), w).invert(mod)
    power = sympy.Poly(1, w)
    out = [Fraction(0)]
    for m in range(1, n + 1):
        power = (power * h).rem(mod)
        c = power.coeff_monomial(w ** (m - 1)) / m
        out.append(Fraction(int(c.p), int(c.q)))
    return tuple(out)


def test_reversion_matches_lagrange_inversion():
    rng = random.Random(3)
    for n in range(2, 17):
        slope = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        coeffs = [Fraction(0), slope] + [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n - 1)]
        g = jet_reverse(jet_from_coeffs(coeffs, center=0))
        assert all(isinstance(c, Fraction) for c in g.coeffs)
        assert g.coeffs == _lagrange_reverse(coeffs), n


def test_mpmath_reversion_matches_lagrange_inversion():
    # the 50-digit recheck of `verify schwinv` reverses mpc jets
    import mpmath

    rng = random.Random(5)
    coeffs = [Fraction(0), Fraction(-3, 2)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(11)]
    with mpmath.workdps(50):
        mp = lambda c: mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator)
        g = jet_reverse(jet_from_coeffs([mp(c) for c in coeffs], center=0))
        assert all(type(c) is mpmath.mpc for c in g.coeffs)
        for m, (got, want) in enumerate(zip(g.coeffs, _lagrange_reverse(coeffs))):
            assert abs(got - mp(want)) <= 1e-45 * abs(mp(want)), (m, got, want)


small = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
slopes = st.complex_numbers(min_magnitude=0.5, max_magnitude=2, allow_nan=False, allow_infinity=False)


@given(slopes, st.lists(small, min_size=1, max_size=9))
def test_reversion_inverts_both_ways_complex(slope, tail):
    a = jet_from_coeffs([0j, slope] + tail, center=0)
    g = jet_reverse(a)
    ident = (0, 1) + (0,) * (a.order - 1)
    scale = max(1.0, max(abs(c) for c in g.coeffs))
    for comp in (jet_compose(a, g), jet_compose(g, a)):
        assert max(abs(c - e) for c, e in zip(comp.coeffs, ident)) <= 1e-12 * scale


def test_rational_power_exact():
    f = jet_from_coeffs([Fraction(1), Fraction(1), 0, 0])  # 1 + z
    g = jet_pow(f, Fraction(-1, 2))
    assert g.coeffs == (1, Fraction(-1, 2), Fraction(3, 8), Fraction(-5, 16))
    # third derivative of (1+z)^(-1/2) at 0
    assert 6 * g.coeffs[3] == Fraction(-15, 8)


def test_integer_power_matches_repeated_product():
    f = jet_from_coeffs([2.0, 0.5, -0.25, 0.125])
    cube = jet_pow(f, 3)
    byhand = f * f * f
    assert max(abs(a - b) for a, b in zip(cube.coeffs, byhand.coeffs)) < 1e-14
    inv2 = jet_pow(f, -2)
    rec = jet_reciprocal(f)
    assert max(abs(a - b) for a, b in zip(inv2.coeffs, (rec * rec).coeffs)) < 1e-14


def test_power_keeps_mpmath_precision():
    import mpmath

    with mpmath.workdps(50):
        f = jet_from_coeffs([mpmath.mpc(1.5, 0.5), mpmath.mpc(0.25, -1), mpmath.mpc(0.5, 0), mpmath.mpc(0, 0.125)])
        cube_root = jet_pow(f, Fraction(1, 3))
        worst = max(abs(a - b) for a, b in zip((cube_root * cube_root * cube_root).coeffs, f.coeffs))
        assert worst < 1e-45, worst
        inv_cube = jet_pow(f, -3)
        worst = max(abs(a - b) for a, b in zip(inv_cube.coeffs, jet_reciprocal(f * f * f).coeffs))
        assert worst < 1e-45, worst


def test_integer_power_of_vanishing_constant_term():
    z = jet_variable(0j, 3)
    assert (z**2).coeffs == (0, 0, 1, 0)
    assert jet_pow(z + z * z, 3).coeffs == (0, 0, 0, 1)
    exact = jet_from_coeffs([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(0)])
    assert jet_pow(exact, 2).coeffs == (0, 0, Fraction(1, 4), Fraction(1, 3))
    assert all(isinstance(c, Fraction) for c in jet_pow(exact, 2).coeffs)
    assert jet_pow(exact, 0).coeffs == (1, 0, 0, 0)
    for alpha in (-1, Fraction(1, 2), 0.5):
        with pytest.raises(JetError):
            jet_pow(z, alpha)


def test_derive_antiderive_roundtrip():
    f = jet_from_coeffs([3, 1, 4, 1, 5])
    g = jet_antiderive(jet_derive(f), const=3)
    assert g.coeffs == f.coeffs[: g.order + 1]
    assert all(type(c) is Fraction for c in g.coeffs[1:])
    assert jet_derive(f, 2).coeffs == (8, 6, 60)
    # one complex coefficient makes the whole jet inexact, its ints included
    mixed = jet_antiderive(jet_from_coeffs([3, 2j, 4, 1]), const=0j)
    assert mixed.coeffs == (0j, 3.0, 1j, 4 / 3, 0.25)
    assert not any(isinstance(c, (int, Fraction)) for c in mixed.coeffs), mixed.coeffs


def test_shift_reexpands():
    f = jet_from_coeffs([1, 2, 1, 0, 0], center=0)  # (1+z)^2 padded
    g = jet_shift(f, 1.0)  # recenter at z = 1
    assert g.center == 1.0
    assert abs(g(0.25) - f(1.25)) < 1e-12


def _binomial_shift(coeffs, w) -> tuple:
    """b_j = sum_k C(k, j) a_k w^(k-j), the shift formula term by term."""
    n = len(coeffs) - 1
    return tuple(sum(comb(k, j) * coeffs[k] * w ** (k - j) for k in range(j, n + 1)) for j in range(n + 1))


def test_shift_equals_the_binomial_formula():
    rng = random.Random(18)
    pts = np.array([0.3 - 0.2j, -1.1j, 0.75])
    for deg in range(8):
        exact = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(deg + 1)]
        w = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        got = jet_shift(jet_from_coeffs(exact, Fraction(1, 3)), w)
        assert got.coeffs == _binomial_shift(exact, w) and got.center == Fraction(1, 3) + w
        assert all(type(c) is Fraction for c in got.coeffs)
        ints = [rng.randint(-9, 9) for _ in range(deg + 1)]
        got = jet_shift(jet_from_coeffs(ints), 3).coeffs
        assert got == _binomial_shift(ints, 3) and all(type(c) is int for c in got)

        cplx = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg + 1)]
        wc = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        got = jet_shift(jet_from_coeffs(cplx), wc).coeffs
        for g, want in zip(got, _binomial_shift(cplx, wc)):
            assert abs(g - want) <= 1e-14 * max(1.0, abs(want)), (deg, g, want)
        # a batch of shifts: every coefficient, the top one too, has w's shape
        batched = jet_shift(jet_from_coeffs(cplx), pts).coeffs
        assert all(np.shape(c) == pts.shape for c in batched)
        for i, wi in enumerate(pts):
            for g, want in zip(batched, _binomial_shift(cplx, complex(wi))):
                assert abs(g[i] - want) <= 1e-14 * max(1.0, abs(want)), (deg, i)


def test_shift_cut_at_an_order_is_the_full_shift_truncated():
    rng = random.Random(22)
    pts = np.array([0.3 - 0.2j, -1.1j, 0.75, -0.0])
    for deg in (0, 1, 4, 9):
        exact = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(deg + 1)]
        ints = [rng.randint(-9, 9) for _ in range(deg + 1)]
        cplx = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg + 1)]
        cases = [(exact, Fraction(-7, 3)), (ints, 3), (cplx, complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))), (cplx, pts)]
        for coeffs, w in cases:
            full = jet_shift(jet_from_coeffs(coeffs, Fraction(1, 3)), w)
            for order in range(deg + 3):
                cut = jet_shift(jet_from_coeffs(coeffs, Fraction(1, 3)), w, order)
                assert np.array_equal(cut.center, full.center) and cut.order == min(order, deg)
                for c, f in zip(cut.coeffs, full.coeffs):
                    assert type(c) is type(f) and np.shape(c) == np.shape(w)
                    same = c.tobytes() == f.tobytes() if isinstance(c, np.ndarray) else repr(c) == repr(f)
                    assert same, (deg, order, w)


# -- algebra laws on exact coefficients ---------------------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
jets = st.lists(fracs, min_size=4, max_size=4).map(lambda c: jet_from_coeffs(c, center=0))


@given(jets, jets, jets)
def test_ring_laws(a, b, c):
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs


@given(jets, jets)
def test_product_rule(a, b):
    lhs = jet_derive(a * b)
    rhs = jet_derive(a) * b + a * jet_derive(b)
    assert lhs.coeffs == rhs.coeffs[: lhs.order + 1]


@given(jets)
def test_reciprocal_inverts(a):
    if a.coeffs[0] == 0:
        with pytest.raises(JetError):
            jet_reciprocal(a)
    else:
        unit = a * jet_reciprocal(a)
        assert unit.coeffs == (1, 0, 0, 0)


@given(jets, st.lists(fracs, min_size=4, max_size=4))
def test_chain_rule(outer, inner_tail):
    inner = jet_from_coeffs([outer.center] + inner_tail[:3], center=0)
    composed = jet_compose(outer, inner)
    lhs = jet_derive(composed)
    rhs = jet_compose(jet_derive(outer), inner) * jet_derive(inner)
    assert lhs.coeffs == rhs.coeffs[: lhs.order + 1]


# -- the integer-numerator kernel against the Fraction loops it replaced -------


def _ref_mul(a, b):
    n = min(len(a), len(b)) - 1
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1))


def _ref_reciprocal(a):
    inv0 = Fraction(1, 1) / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        out.append(-inv0 * sum(a[k] * out[n - k] for k in range(1, n + 1)))
    return tuple(out)


def _ref_pow(a, alpha):
    """Integer alpha, or rational alpha with a[0] == 1."""
    alpha = Fraction(alpha)
    g0 = Fraction(a[0]) ** int(alpha) if alpha.denominator == 1 else Fraction(1)
    inv_c0 = Fraction(1, 1) / a[0]
    out = [g0]
    for n in range(1, len(a)):
        s = sum((alpha * k - (n - k)) * a[k] * out[n - k] for k in range(1, n + 1))
        out.append(inv_c0 * s * Fraction(1, n))
    return tuple(out)


def _ref_reverse(a):
    n = len(a) - 1
    inv1 = Fraction(1, 1) / a[1]
    g = [Fraction(0), inv1] + [Fraction(0)] * (n - 1)
    powers = [None, g] + [[Fraction(0)] * (n + 1) for _ in range(n - 1)]
    for m in range(2, n + 1):
        for k in range(2, m + 1):
            powers[k][m] = sum(g[j] * powers[k - 1][m - j] for j in range(1, m - k + 2))
        g[m] = -inv1 * sum(a[k] * powers[k][m] for k in range(2, m + 1))
    return tuple(g)


def _ref_antiderive(a, const):
    return (const,) + tuple(c * Fraction(1, j + 1) for j, c in enumerate(a))


def _assert_exact_match(got, want):
    assert got == want
    assert all(isinstance(c, (int, Fraction)) for c in got), got


exact_coeff = st.one_of(st.integers(-12, 12), st.fractions(min_value=-12, max_value=12, max_denominator=9))
nonzero_coeff = exact_coeff.filter(lambda c: c != 0)
exact_lists = st.lists(exact_coeff, min_size=1, max_size=15)


@given(exact_lists, exact_lists, exact_coeff)
def test_exact_product_and_antiderivative_match_fraction_loops(a, b, const):
    _assert_exact_match((jet_from_coeffs(a, 0) * jet_from_coeffs(b, 0)).coeffs, _ref_mul(a, b))
    _assert_exact_match(jet_antiderive(jet_from_coeffs(a, 0), const).coeffs, _ref_antiderive(a, const))


@given(nonzero_coeff, st.lists(exact_coeff, max_size=14), st.integers(-4, 5))
def test_exact_reciprocal_and_integer_power_match_fraction_loops(c0, tail, alpha):
    a = [c0] + tail
    jet = jet_from_coeffs(a, 0)
    _assert_exact_match(jet_reciprocal(jet).coeffs, _ref_reciprocal(a))
    _assert_exact_match(jet_pow(jet, alpha).coeffs, _ref_pow(a, alpha))
    _assert_exact_match(jet_pow(jet, Fraction(alpha)).coeffs, _ref_pow(a, alpha))


@given(st.sampled_from([1, Fraction(1)]), st.lists(exact_coeff, max_size=14),
       st.fractions(min_value=-5, max_value=5, max_denominator=12))
def test_exact_rational_power_of_unit_constant_matches_fraction_loop(one, tail, alpha):
    a = [one] + tail
    _assert_exact_match(jet_pow(jet_from_coeffs(a, 0), alpha).coeffs, _ref_pow(a, alpha))


@given(nonzero_coeff, st.lists(exact_coeff, max_size=13))
def test_exact_reversion_matches_fraction_power_table(slope, tail):
    a = [0, slope] + tail
    got = jet_reverse(jet_from_coeffs(a, 0)).coeffs
    _assert_exact_match(got, _ref_reverse(a))
    assert all(isinstance(c, Fraction) for c in got)


def test_exact_kernel_keeps_integer_products_integer():
    prod = (jet_from_coeffs([1, -2, 3]) * jet_from_coeffs([0, 4, 5])).coeffs
    assert prod == (0, 4, -3) and all(type(c) is int for c in prod)
    assert all(isinstance(c, Fraction) for c in (jet_from_coeffs([Fraction(2), 1]) * jet_from_coeffs([1, 1])).coeffs)


@pytest.mark.parametrize(
    "a",
    [
        [Fraction(-3, 2)],  # order 0
        [Fraction(-3, 2), Fraction(5, 7)],  # order 1
        [-3, 2],
        [Fraction(-9, 4), 1, Fraction(-2, 3), 0, Fraction(7, 5), -6],
        [Fraction(-12, 7)] + [Fraction((-1) ** k * (k + 1), k + 2) for k in range(14)],
    ],
)
def test_exact_reciprocal_and_power_at_low_orders_and_a_negative_non_unit_constant(a):
    """The scaled loops start at d x_0^N (reciprocal) and g0_num N! (q x_0)^N
    (power): orders 0 and 1 and a negative x_0 pin the start and the sign of
    the exact divisions."""
    jet = jet_from_coeffs(a, 0)
    _assert_exact_match(jet_reciprocal(jet).coeffs, _ref_reciprocal(a))
    for alpha in (-3, -1, 1, 2, 5):
        _assert_exact_match(jet_pow(jet, alpha).coeffs, _ref_pow(a, alpha))
    unit = [Fraction(1)] + a[1:]
    for alpha in (Fraction(-1, 2), Fraction(2, 3), Fraction(-7, 5)):
        _assert_exact_match(jet_pow(jet_from_coeffs(unit, 0), alpha).coeffs, _ref_pow(unit, alpha))


def _power_table(u, n: int) -> list:
    """Row-wise power table P[k][m] = [w^m] (u - u_0)^k, the loop that
    composition filled before it went column by column."""
    powers = [None, list(u)]
    for k in range(2, n + 1):
        lower = powers[k - 1]
        row = [None] * k
        for m in range(k, n + 1):
            row.append(sum(u[j] * lower[m - j] for j in range(1, m - k + 2)))
        powers.append(row)
    return powers


def test_batched_composition_has_the_bits_of_the_row_wise_power_table():
    rng = np.random.default_rng(23)
    draw = lambda: rng.normal(size=6) + 1j * rng.normal(size=6)
    for n in range(10):
        center = draw()
        inner = jet_from_coeffs([center] + [draw() for _ in range(n)], center=draw())
        outer = jet_from_coeffs([draw() for _ in range(n + 1)], center=center)
        powers = _power_table(inner.coeffs, n)
        c = outer.coeffs
        want = [c[0]] + [sum(c[k] * powers[k][m] for k in range(1, m + 1)) for m in range(1, n + 1)]
        got = jet_compose(outer, inner).coeffs
        assert len(got) == n + 1
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and g.tobytes() == w.tobytes()


def test_reciprocal_and_product_read_a_short_polynomial_as_zero_padded():
    rng = np.random.default_rng(29)
    cases = []
    for deg in range(4):
        scalar = [complex(x, y) for x, y in rng.uniform(-1, 1, (deg + 1, 2))]
        scalar[0] += 2.0
        batched = [rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5) for _ in range(deg + 1)]
        batched[0] = batched[0] + 2.0
        cases += [scalar, batched]
    for q in cases:
        for order in range(8):
            padded = (list(q) + [0 * q[-1]] * order)[: order + 1]
            inv0 = 1.0 / q[0]
            short = _reciprocal(q, order, inv0, lambda s: -inv0 * s)
            full = jet_reciprocal(Jet(0j, padded)).coeffs
            b = [x + 0.5 for x in full]
            assert len(short) == order + 1
            for got, want in zip(short + _convolve(q, b, order), full + tuple(_convolve(padded, b, order))):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

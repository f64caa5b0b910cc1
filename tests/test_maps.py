"""Moebius transformations, hyperbolic domain densities, and the serializable
analytic-function catalog."""

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from schwarzian_lab import (
    DISC,
    EXTERIOR_DISC,
    LOWER_HALF,
    UPPER_HALF,
    AnalyticFn,
    Moebius,
    catalog,
    poincare_density,
    rotated_koebe,
    schlicht_family,
)
from schwarzian_lab.jets import Jet, JetError, jet_compose, jet_from_coeffs, jet_reciprocal, jet_shift
from schwarzian_lab.maps import moebius_jet, taylor_jet

SAMPLES = [0.1 + 0.2j, -0.4j, 0.55, -0.3 - 0.25j]


def test_moebius_group_laws():
    g = Moebius(2, 1, 1, 1)
    h = Moebius(1, -1j, 0.5, 2)
    gh = g.compose(h)
    for z in SAMPLES:
        assert abs(gh(z) - g(h(z))) < 1e-12
        assert abs(g.inverse()(g(z)) - z) < 1e-12
    ident = g.compose(g.inverse())
    z = 0.3 - 0.7j
    assert abs(ident(z) - z) < 1e-12


def test_moebius_derivative():
    g = Moebius(2, 1, 1, 3)
    for z in SAMPLES:
        h = 1e-6
        fd = (g(z + h) - g(z - h)) / (2 * h)
        assert abs(g.deriv(z) - fd) < 1e-7


def test_cayley_maps_disc_to_upper_half():
    c = Moebius.cayley()
    assert abs(c(0) - 1j) < 1e-14
    for z in SAMPLES:
        assert c(z).imag > 0


def test_density_values():
    assert poincare_density(DISC, 0) == 1.0
    assert abs(poincare_density(EXTERIOR_DISC, 2.0) - 1 / 3) < 1e-15
    assert abs(poincare_density(UPPER_HALF, 1j) - 1 / 2) < 1e-15
    assert abs(poincare_density(LOWER_HALF, -2j) - 1 / 4) < 1e-15


def test_density_transfer_under_cayley():
    # lambda_D(z) = lambda_D'(psi z) |psi'(z)| for a biholomorphism psi
    c = Moebius.cayley()
    for z in SAMPLES:
        lhs = poincare_density(DISC, z)
        rhs = poincare_density(UPPER_HALF, c(z)) * abs(c.deriv(z))
        assert abs(lhs - rhs) < 1e-12


def test_hyperbolic_generator():
    g = Moebius.hyperbolic(0.3, 2.1, 4.0)
    p, q = cmath.exp(0.3j), cmath.exp(2.1j)
    assert abs(g(p) - p) < 1e-12 and abs(g(q) - q) < 1e-12
    for z in SAMPLES:
        assert abs(g(z)) < 1  # disc preserved
    with pytest.raises(ValueError):
        Moebius.hyperbolic(0.3, 2.1, 1.0)  # parabolic limit is excluded
    with pytest.raises(ValueError):
        Moebius.hyperbolic(0.3, 0.3, 4.0)  # coincident axis endpoints


@pytest.mark.parametrize("theta1, theta2, multiplier", [(0.3, 2.1, math.nan), (0.3, math.inf, 4.0), (math.nan, 2.1, 4.0), (0.3, 2.1, math.inf)])
def test_hyperbolic_generator_rejects_non_finite_parameters(theta1, theta2, multiplier):
    with pytest.raises(ValueError, match="finite"):
        Moebius.hyperbolic(theta1, theta2, multiplier)


def test_koebe_jet_and_values():
    k = catalog("koebe")
    assert k.jet(0, 5).coeffs == (0, 1, 2, 3, 4, 5)
    z = 0.3 + 0.1j
    assert abs(k(z) - z / (1 - z) ** 2) < 1e-14
    fd = (k(z + 1e-6) - k(z - 1e-6)) / 2e-6
    assert abs(k.jet(z, 1).coeffs[1] - fd) < 1e-7


def test_rotated_koebe_matches_formula():
    th = 0.8
    f = rotated_koebe(th)
    k = catalog("koebe")
    for z in SAMPLES:
        w = cmath.exp(1j * th) * z
        assert abs(f(z) - cmath.exp(-1j * th) * k(w)) < 1e-13


def test_json_round_trip():
    fns = [catalog("koebe"), catalog("rotation", theta=0.4), rotated_koebe(1.1),
           catalog("taylor", coeffs=[0, 1, 0.5 + 0.25j])]
    for fn in fns:
        back = AnalyticFn(json.loads(fn.to_json()))
        for z in SAMPLES:
            assert abs(back(z) - fn(z)) < 1e-14


def test_pullback_difference_element():
    g = Moebius.hyperbolic(0.0, math.pi, 2.0)
    k, q = 3, 2
    p = AnalyticFn(
        {
            "kind": "pullback_diff",
            "k": k,
            "q": q,
            "mat": [[g.a.real, g.a.imag], [g.b.real, g.b.imag], [g.c.real, g.c.imag], [g.d.real, g.d.imag]],
        }
    )
    for z in SAMPLES:
        direct = z**k - g(z) ** k * g.deriv(z) ** q
        assert abs(p(z) - direct) < 1e-12
    # jets agree with pointwise values nearby
    j = p.jet(0.1, 6)
    assert abs(j(0.05) - p(0.1 + 0.05)) < 1e-8


def test_schlicht_family_normalization():
    for name, fn in schlicht_family():
        j = fn.jet(0, 2)
        assert abs(j.coeffs[0]) < 1e-14, name
        assert abs(j.coeffs[1] - 1) < 1e-14, name


def test_descriptor_validation():
    with pytest.raises((KeyError, ValueError)):
        AnalyticFn({"kind": "frobnicate"})
    with pytest.raises((KeyError, ValueError)):
        catalog("frobnicate")
    # required fields are checked when the descriptor is read, not when used
    with pytest.raises(ValueError, match="'theta'"):
        AnalyticFn({"kind": "rotation"})
    with pytest.raises(ValueError, match="'den'"):
        AnalyticFn({"kind": "rational", "num": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="unknown function kind 'compose'"):
        AnalyticFn({"kind": "compose", "fns": [{"kind": "koebe"}]})


def test_descriptors_with_a_pole_are_rejected_when_read():
    mat = [[1, 0], [0, 0], [0, 0], [1, 0]]
    with pytest.raises(ValueError, match="'den' must have a nonzero coefficient"):
        AnalyticFn({"kind": "rational", "num": [[1, 0]], "den": [[0, 0], [0.0, -0.0]]})
    with pytest.raises(ValueError, match="'k' must be an integer >= 0"):
        AnalyticFn({"kind": "pullback_diff", "k": -1, "q": 2, "mat": mat})
    # the nearest valid descriptors still read and evaluate
    assert AnalyticFn({"kind": "rational", "num": [[1, 0]], "den": [[0, 0], [1, 0]]})(0.5) == 2.0
    assert AnalyticFn({"kind": "pullback_diff", "k": 0, "q": 2, "mat": mat})(0.5) == 0.0


def test_vectorized_evaluation():
    k = catalog("koebe")
    zs = np.array(SAMPLES)
    vals = k(zs)
    assert np.max(np.abs(vals - zs / (1 - zs) ** 2)) < 1e-14


def test_array_jets_match_scalar_jets():
    g = Moebius.hyperbolic(0.3, 2.0, 3.0)
    mat = [[v.real, v.imag] for v in (g.a, g.b, g.c, g.d)]
    descriptors = [
        {"kind": "koebe"},
        {"kind": "identity"},
        {"kind": "cayley"},
        {"kind": "rotation", "theta": 0.7},
        {"kind": "taylor", "center": [0.1, -0.2], "coeffs": [[0.5, 0.0], [1.0, 0.5], [0.0, -0.25], [0.125, 0.0]]},
        {"kind": "moebius", "mat": [[2.0, 0.0], [1.0, 0.0], [0.5, 0.5], [3.0, 0.0]]},
        {"kind": "rational", "num": [[0.0, 0.0], [1.0, 0.0]], "den": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]},
        rotated_koebe(1.1).descriptor(),
        {"kind": "pullback_diff", "k": 3, "q": 2, "mat": mat},
    ]
    # the origin is a sample point: pullback_diff takes z^k there with z(0) = 0
    pts = np.array([0.0, 0.3 + 0.2j, -0.55j, -0.7 + 0.1j, 0.9 - 0.05j])
    order = 6
    for desc in descriptors:
        fn = AnalyticFn(desc)
        batched = fn.jet(pts, order)
        assert batched.order == order
        for i, z in enumerate(pts):
            scalar = fn.jet(complex(z), order)
            for k in range(order + 1):
                b = np.broadcast_to(batched.coeffs[k], pts.shape)[i]
                assert abs(b - scalar.coeffs[k]) <= 1e-12 * max(1.0, abs(scalar.coeffs[k])), (desc["kind"], z, k)


def _padded_quotient(num, den, z0, order):
    """num/den as the quotient of the zero-padded (or truncated) shifted
    polynomials: a full reciprocal and a full product, the zeros included."""

    def padded(coeffs):
        shifted = jet_shift(jet_from_coeffs([complex(*c) for c in coeffs], 0), z0).coeffs
        return Jet(z0, (shifted + (0 * shifted[-1],) * order)[: order + 1])

    return padded(num) * jet_reciprocal(padded(den))


def _rational_rotated_koebe(theta):
    """z/(1 - e^{i theta} z)^2 as a literal ``rational`` descriptor."""
    e = cmath.exp(1j * theta)
    return {"kind": "rational", "num": [[0.0, 0.0], [1.0, 0.0]],
            "den": [[1.0, 0.0], [(-2 * e).real, (-2 * e).imag], [(e * e).real, (e * e).imag]]}


def test_rational_jet_has_the_bits_of_the_padded_quotient():
    rng = np.random.default_rng(18)
    random_den = [[1.0, 0.0]] + [[float(x), float(y)] for x, y in rng.uniform(-0.3, 0.3, (2, 2))]
    descriptors = [
        {"kind": "rational", "num": [[0.0, 0.0], [1.0, 0.0]], "den": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]},
        _rational_rotated_koebe(1.1),
        _rational_rotated_koebe(math.pi / 3),
        {"kind": "rational", "num": [[float(x), float(y)] for x, y in rng.uniform(-2, 2, (4, 2))], "den": random_den},
    ]
    points = [np.array([0.0, 0.5, 0.3 + 0.2j, -0.55j, -0.7 + 0.1j, 0.999 - 0.01j, 0.9375j]), 0.25 - 0.6j]
    for desc in descriptors:
        fn = AnalyticFn(desc)
        for z0 in points:
            for order in (0, 1, 2, 5, 7):  # below, at and above both degrees
                got, want = fn.jet(z0, order), _padded_quotient(desc["num"], desc["den"], z0, order)
                assert got.center is z0 and got.order == order
                for k in range(order + 1):
                    assert np.shape(got.coeffs[k]) == np.shape(z0)
                    assert np.array_equal(got.coeffs[k], want.coeffs[k]), (desc, order, k)


def test_taylor_values_keep_the_bits_of_horner_from_zero():
    coeffs = [0.5 - 0.25j, 1.0 + 0.5j, -0.25j, 0.125, 2.0 - 1.0j]
    fn = catalog("taylor", coeffs=coeffs, center=0.1 - 0.2j)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
    acc = np.zeros_like(pts)
    for c in reversed(coeffs):
        acc = acc * (pts - (0.1 - 0.2j)) + c
    assert np.array_equal(fn(pts), acc)
    for z in pts[:8]:
        scalar = 0j
        for c in reversed(coeffs):
            scalar = scalar * (complex(z) - (0.1 - 0.2j)) + c
        assert fn(complex(z)) == scalar
    assert np.array_equal(catalog("taylor", coeffs=[0.5j])(pts.reshape(8, 8)), np.full((8, 8), 0.5j))


def test_taylor_jet_keeps_exact_coefficients_exact():
    # 1/2 + z + z^2/3 at z0 = 1/3, asked for more orders than it has terms
    jet = taylor_jet([Fraction(1, 2), 1, Fraction(1, 3)], 0, Fraction(1, 3), 5)
    assert jet.coeffs == (Fraction(47, 54), Fraction(11, 9), Fraction(1, 3), 0, 0, 0)
    assert all(type(c) is Fraction for c in jet.coeffs)


# -- closed-form jets against sympy series -------------------------------------


def _series_coeffs(expr, z0, order):
    """Taylor coefficients of a sympy expression in z at the rational z0."""
    z, w = sympy.symbols("z w")
    center = sympy.Rational(z0.numerator, z0.denominator)
    poly = sympy.series(expr(z).subs(z, center + w), w, 0, order + 1).removeO()
    return tuple(Fraction(str(poly.coeff(w, k))) for k in range(order + 1))


def _rat(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


@pytest.mark.parametrize(
    "a, b, c, d, z0",
    [
        (2, 1, 3, 5, Fraction(1, 3)),
        (Fraction(-1, 2), 3, Fraction(4, 7), Fraction(2, 3), Fraction(-5, 4)),
        (1, -2, -3, 1, 0),
        (Fraction(3, 2), Fraction(1, 5), 0, Fraction(-2, 3), Fraction(7, 3)),  # c = 0: affine
    ],
)
def test_moebius_jet_matches_the_sympy_series(a, b, c, d, z0):
    order = 7
    jet = moebius_jet(a, b, c, d, z0, order)
    want = _series_coeffs(lambda z: (_rat(a) * z + _rat(b)) / (_rat(c) * z + _rat(d)), Fraction(z0), order)
    assert jet.coeffs == want
    assert all(type(x) in (int, Fraction) for x in jet.coeffs)
    assert jet.center == z0 and jet.order == order


def test_batched_moebius_jet_matches_scalar_jets():
    rng = np.random.default_rng(5)
    a, b, c, d = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(4))
    c[2] = 0.0
    z0 = 0.4 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    batched = moebius_jet(a, b, c, d, z0, 8)
    for i in range(6):
        scalar = moebius_jet(complex(a[i]), complex(b[i]), complex(c[i]), complex(d[i]), complex(z0[i]), 8)
        for got, want in zip(batched.coeffs, scalar.coeffs):
            assert abs(got[i] - want) <= 1e-14 * max(1.0, abs(want))


def test_moebius_jet_raises_next_to_the_pole():
    # (z + 2)/(z - 1/2): the pole at 1/2, approached to within 1e-15
    with pytest.raises(JetError):
        moebius_jet(1.0, 2.0, 1.0, -0.5, 0.5 + 1e-15, 4)
    with pytest.raises(JetError):
        moebius_jet(1, 2, 2, -1, Fraction(1, 2), 4)
    with pytest.raises(JetError):
        moebius_jet(1.0, 2.0, 1.0, -0.5, np.array([0.0, 0.5 - 1e-15j]), 4)


@pytest.mark.parametrize("z0", [Fraction(1, 3), Fraction(-2, 5)])
def test_koebe_jet_matches_the_sympy_series(z0):
    jet = catalog("koebe").jet(z0, 6)
    assert jet.coeffs == _series_coeffs(lambda z: z / (1 - z) ** 2, z0, 6)
    assert all(type(x) in (int, Fraction) for x in jet.coeffs)


def test_koebe_jet_at_the_origin_is_exact():
    coeffs = catalog("koebe").jet(0, 5).coeffs
    assert coeffs == (0, 1, 2, 3, 4, 5)
    assert all(type(x) in (int, Fraction) for x in coeffs)


def test_koebe_jet_raises_at_the_pole():
    with pytest.raises(JetError):
        catalog("koebe").jet(1, 3)
    with pytest.raises(JetError):
        catalog("koebe").jet(np.array([0.5, 1.0 + 0j]), 3)
    # theta = 0 gives e = 1 exactly, so e z0 = 1 at z0 = 1
    with pytest.raises(JetError):
        rotated_koebe(0.0).jet(1.0, 3)
    with pytest.raises(JetError):
        rotated_koebe(0.0).jet(np.array([0.5, 1.0 + 0j]), 3)


def _koebe_formula_jet(z0, order):
    """The plain Koebe jet as the closed form has always computed it."""
    t = 1.0 / (1 - z0)
    power = t * t
    coeffs = [z0 * power]
    for j in range(1, order + 1):
        power = power * t
        coeffs.append((j + z0) * power)
    return coeffs


def test_plain_koebe_jet_keeps_its_bits():
    pts = np.array([0.0, 0.5, 0.3 + 0.2j, -0.55j, -0.7 + 0.1j, 0.999 - 0.01j, -(1 - 2.0**-13) + 0j])
    for z0 in (pts, 0.25 - 0.6j, -0.3):
        for order in range(8):
            got = catalog("koebe").jet(z0, order).coeffs
            want = _koebe_formula_jet(z0, order)
            assert len(got) == order + 1
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (z0, order)


@pytest.mark.parametrize("theta", [0.7, 1.1, math.pi / 3, 2.9])
def test_rotated_koebe_closed_form_matches_the_rational_quotient(theta):
    fn, rational = rotated_koebe(theta), AnalyticFn(_rational_rotated_koebe(theta))
    assert fn.descriptor() == {"kind": "koebe", "theta": theta}
    pts = np.array([0.0, 0.5, 0.3 + 0.2j, -0.55j, -0.7 + 0.1j, 0.8 * cmath.exp(-1j * theta), 0.9375j])
    for z0 in (pts, 0.25 - 0.6j, complex(pts[5])):
        assert np.all(np.abs(fn(z0) - rational(z0)) <= 1e-13 * np.maximum(1.0, np.abs(rational(z0))))
        for order in range(8):
            got, want = fn.jet(z0, order).coeffs, rational.jet(z0, order).coeffs
            assert len(got) == order + 1
            for k in range(order + 1):
                assert np.shape(got[k]) == np.shape(z0)
                err = np.abs(got[k] - want[k]) / np.maximum(1.0, np.abs(want[k]))
                assert np.max(err) <= 1e-13, (theta, z0, order, k, np.max(err))


# -- schlicht-catalog jets -------------------------------------------------------


def _old_rotated_koebe_jet(theta, z0, order):
    """The former rotation∘Koebe∘rotation chain, composed jet by jet."""
    inner = Moebius.rotation(theta).jet(z0, order)
    middle = catalog("koebe").jet(inner.coeffs[0], order)
    outer = Moebius.rotation(-theta).jet(middle.coeffs[0], order)
    return jet_compose(outer, jet_compose(middle, inner))


def _sympy_taylor(expr, z, z0, order):
    """Taylor coefficients f^(k)(z0)/k! of a sympy expression in z, to 30 digits."""
    return [complex(sympy.N((sympy.diff(expr, z, k) / sympy.factorial(k)).subs(z, z0), 30)) for k in range(order + 1)]


@pytest.mark.parametrize("theta", [1.1, math.pi / 3])
def test_rotated_koebe_jet_matches_the_composed_chain_and_sympy(theta):
    pts = np.array([0.0, 0.3 + 0.2j, -0.55j, -0.7 + 0.1j, 0.6 - 0.35j])
    order = 7
    jet = rotated_koebe(theta).jet(pts, order)
    chain = _old_rotated_koebe_jet(theta, pts, order)
    z = sympy.symbols("z")
    expr = z / (1 - sympy.exp(sympy.I * theta) * z) ** 2
    assert jet.order == order
    for i, z0 in enumerate(pts):
        want = _sympy_taylor(expr, z, complex(z0), order)
        for k in range(order + 1):
            got = np.broadcast_to(jet.coeffs[k], pts.shape)[i]
            old = np.broadcast_to(chain.coeffs[k], pts.shape)[i]
            assert abs(got - want[k]) <= 1e-13 * max(1.0, abs(want[k])), (theta, z0, k)
            assert abs(got - old) <= 1e-13 * max(1.0, abs(old)), (theta, z0, k)


def test_half_plane_jet_is_the_moebius_jet():
    half_plane = dict(schlicht_family())["half_plane"]
    pts = np.array([0.0, 0.3 + 0.2j, -0.55j, 0.9 - 0.05j])
    for z0 in (pts, 0.25 - 0.5j):
        got = half_plane.jet(z0, 6).coeffs
        want = moebius_jet(1, 0, -1, 1, z0, 6).coeffs
        assert len(got) == len(want) == 7
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("z0", [Fraction(1, 5), Fraction(-1, 3)])
def test_pullback_diff_jet_matches_the_sympy_series(z0):
    # g(z) = (2z + 1)/(z + 3), g'(z) = 5/(z + 3)^2, stored unnormalized; the
    # descriptor scales it to determinant 1, which leaves g and g' unchanged
    k, q, order = 3, 2, 6
    fn = AnalyticFn({"kind": "pullback_diff", "k": k, "q": q,
                     "mat": [[2.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 0.0]]})
    want = _series_coeffs(lambda z: z**k - ((2 * z + 1) / (z + 3)) ** k * (5 / (z + 3) ** 2) ** q, z0, order)
    jet = fn.jet(float(z0), order)
    assert jet.order == order
    for got, w in zip(jet.coeffs, want):
        assert abs(got - float(w)) <= 1e-13 * max(1.0, abs(float(w)))


def test_taylor_jet_below_at_and_above_the_degree():
    # 2 - z + 3 z^3 (degree 3) at z0 = 1/2: shifted it is
    # 15/8 + 5/4 w + 9/2 w^2 + 3 w^3
    coeffs = [2, -1, 0, 3]
    full = (Fraction(15, 8), Fraction(5, 4), Fraction(9, 2), 3)
    for order in (1, 3, 5):
        jet = taylor_jet(coeffs, 0, Fraction(1, 2), order)
        assert jet.coeffs == (full + (0, 0))[: order + 1]
        assert jet.order == order and jet.center == Fraction(1, 2)
        assert all(type(c) in (int, Fraction) for c in jet.coeffs)
    # all-int polynomial at an int point stays int, padding included
    assert taylor_jet([1, 1], 0, 2, 3).coeffs == (3, 1, 0, 0)
    assert all(type(c) is int for c in taylor_jet([1, 1], 0, 2, 3).coeffs)
    # a center other than 0: (z - 1)^2 at z0 = 3 is 4 + 4 w + w^2
    assert taylor_jet([0, 0, 1], 1, 3, 4).coeffs == (4, 4, 1, 0, 0)


def test_batched_taylor_jet_pads_with_the_batch_shape():
    pts = np.array([0.1 + 0.2j, -0.4j, 0.55])
    coeffs = [0.5, 1.0 - 0.5j, 0.25j]
    jet = taylor_jet(coeffs, 0.1, pts, 5)
    assert jet.order == 5
    for k, c in enumerate(jet.coeffs):
        assert np.shape(c) == pts.shape, k
    for i, z0 in enumerate(pts):
        scalar = taylor_jet(coeffs, 0.1, complex(z0), 5)
        w = z0 - 0.1
        assert abs(scalar.coeffs[0] - (coeffs[0] + coeffs[1] * w + coeffs[2] * w * w)) < 1e-15
        for k in range(6):
            assert abs(jet.coeffs[k][i] - scalar.coeffs[k]) <= 1e-15
    assert all(np.array_equal(c, np.zeros(3)) for c in jet.coeffs[3:])

"""Series solutions of S_f = phi and the homogeneous-solution checks.

With rational data the solver pipeline (linear recurrence, jet division,
reversion) never leaves Fraction arithmetic, so the interesting assertions
here are literal equalities, not tolerances.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schwarzian_lab.jets import JetError, jet_derive, jet_from_coeffs, jet_reverse
from schwarzian_lab.maps import Moebius
from schwarzian_lab.ode import (
    _linear_basis,
    homogeneous_a_check,
    homogeneous_b,
    homogeneous_b_residual,
    max_abs,
    ode_residual,
    schwarzian_solve,
)
from schwarzian_lab.symbolic import evaluate_jet, sigma_a, sigma_b


def _phi():
    return jet_from_coeffs([Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 3)] + [0] * 8, 0)


def test_solution_is_normalized_and_exact():
    sol = schwarzian_solve(_phi())
    assert sol.f.coeffs[0] == 0
    assert sol.f.coeffs[1] == 1
    assert all(isinstance(c, (int, Fraction)) for c in sol.f.coeffs)
    assert ode_residual(sol) == 0.0


def test_wronskian_is_exactly_one():
    sol = schwarzian_solve(_phi())
    assert sol.wronskian == Fraction(1)
    wron = jet_derive(sol.h1, 1) * sol.h2 - sol.h1 * jet_derive(sol.h2, 1)
    assert set(wron.coeffs[1:]) == {Fraction(0)}


def test_ratio_satisfies_schwarzian_equation():
    phi = _phi()
    res = evaluate_jet(sigma_a(3), schwarzian_solve(phi).f)
    assert res.coeffs[: phi.order + 1] == phi.coeffs


def test_basis_change_acts_as_moebius():
    # (a h1 + b h2)/(c h1 + d h2) must agree with the Moebius map
    # (a f + b)/(c f + d) applied to f = h1/h2, and must solve the same
    # Schwarzian equation.
    phi = _phi()
    sol = schwarzian_solve(phi)
    a, b, c, d = 2, 1, 1, 3
    g = (a * sol.h1 + b * sol.h2) / (c * sol.h1 + d * sol.h2)
    m = Moebius(a, b, c, d)
    for w in (0.05, 0.02 + 0.03j):
        assert abs(complex(g(w)) - m(complex(sol.f(w)))) < 1e-12
    res = evaluate_jet(sigma_a(3), g)
    assert res.coeffs[: phi.order + 1] == phi.coeffs


def test_float_coefficients_fall_back_to_float():
    phi = jet_from_coeffs([0.3, -0.12, 0.07, 0.0, 0.01] + [0.0] * 6, 0.0)
    sol = schwarzian_solve(phi)
    assert ode_residual(sol) < 1e-13
    assert abs(sol.wronskian - 1) < 1e-13


def test_order_must_carry_a_schwarzian():
    with pytest.raises(ValueError):
        schwarzian_solve(_phi(), order=2)


def test_homogeneous_b_arctangent_oracle():
    # n = 4, P = 1 + z^2: f' = (1 + z^2)^(-1), so f is the arctangent series.
    f = homogeneous_b(4, (1, 0, 1), order=9)
    expect = [0, 1, 0, Fraction(-1, 3), 0, Fraction(1, 5), 0, Fraction(-1, 7), 0, Fraction(1, 9)]
    assert list(f.coeffs[:10]) == expect


@pytest.mark.parametrize(
    "n, alpha",
    [
        (4, (1, 0, 1)),
        (4, (1, Fraction(1, 2), Fraction(-1, 4))),
        (5, (1, Fraction(1, 3), Fraction(-2, 7))),
        (5, (1, 0, 0, Fraction(1, 6))),
        (6, (1, Fraction(1, 5), 0, Fraction(1, 8), Fraction(-1, 9))),
    ],
)
def test_b_series_annihilates_its_homogeneous_solutions(n, alpha):
    assert homogeneous_b_residual(n, alpha) == 0.0


@pytest.mark.parametrize(
    "n, poly",
    [
        (4, (Fraction(1, 2),)),
        (5, (Fraction(1, 2), Fraction(1, 4))),
        (6, (Fraction(1, 3), 0, Fraction(-1, 5))),
    ],
)
def test_a_series_annihilates_reverted_solutions(n, poly):
    assert homogeneous_a_check(poly, n) == 0.0


def test_homogeneous_input_validation():
    with pytest.raises(ValueError):
        homogeneous_b(3, (1,))
    with pytest.raises(ValueError):
        homogeneous_b(4, (1, 0, 0, 1))  # too many coefficients for n = 4
    with pytest.raises(JetError):
        homogeneous_b(4, (0, 1))
    with pytest.raises(ValueError):
        homogeneous_a_check((Fraction(1, 2), 1), 4)  # degree 1 needs n >= 5
    with pytest.raises(ValueError):
        homogeneous_a_check((1,), 3)


def test_solution_coefficients_are_fractions():
    sol = schwarzian_solve(jet_from_coeffs([Fraction((-1) ** k, k + 2) for k in range(12)], Fraction(0)), 14)
    for jet in (sol.f, sol.h1, sol.h2):
        assert all(isinstance(c, Fraction) for c in jet.coeffs), jet.coeffs
    assert isinstance(sol.wronskian, Fraction) and sol.wronskian == 1


@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=8) | st.integers(-6, 6), min_size=1, max_size=12),
       st.integers(3, 14))
def test_basis_matches_the_fraction_recurrence(phi, order):
    """h_(m+2) = -(1/2) (phi h)_m / ((m+1)(m+2)) run in Fractions."""
    sol = schwarzian_solve(jet_from_coeffs(phi, 0), order)
    for h, start in ((sol.h1, [Fraction(0), Fraction(1)]), (sol.h2, [Fraction(1), Fraction(0)])):
        want = start + [Fraction(0)] * (order - 1)
        for m in range(order - 1):
            conv = sum(phi[j] * want[m - j] for j in range(min(m, len(phi) - 1) + 1))
            want[m + 2] = -Fraction(1, 2) * conv / ((m + 1) * (m + 2))
        assert h.coeffs == tuple(want)
        assert all(isinstance(c, Fraction) for c in h.coeffs)


@pytest.mark.parametrize("c0, c1", [(Fraction(-3, 2), Fraction(5, 7)), (-2, 0), (Fraction(0), Fraction(-4, 9))])
@pytest.mark.parametrize("order", [0, 1, 3, 14])
def test_basis_from_negative_non_unit_data_matches_the_fraction_recurrence(c0, c1, order):
    """The scaled loop starts at c b (2d)^N N!: orders 0 and 1, negative and
    non-unit initial values and a negative fractional phi_0 pin the start
    and the exact divisions."""
    phi = [Fraction(-5, 3), 2, Fraction(-1, 6), 0, Fraction(7, 4)]
    want = [Fraction(c0), Fraction(c1)] + [Fraction(0)] * max(order - 1, 0)
    for m in range(order - 1):
        conv = sum(phi[j] * want[m - j] for j in range(min(m, len(phi) - 1) + 1))
        want[m + 2] = -Fraction(1, 2) * conv / ((m + 1) * (m + 2))
    got = _linear_basis(jet_from_coeffs(phi, 0), order, c0, c1).coeffs
    assert got == tuple(want[: order + 1])
    assert all(type(c) is Fraction for c in got)


def test_ode_residual_carries_a_nan_past_the_first_coefficient():
    # phi = 1e300 + 1e300 z overflows the basis recurrence: h1 is NaN from z^5 on
    phi = jet_from_coeffs([1e300 + 0j, 1e300 + 0j] + [0j] * 13, 0.0)
    sol = schwarzian_solve(phi, 14)
    res = jet_derive(sol.h1, 2) + 0.5 * (sol.phi * sol.h1)
    assert res.coeffs[0] == 0 and any(c != c for c in res.coeffs)
    assert ode_residual(sol) != ode_residual(sol)


def test_max_abs_carries_a_nan_in_any_place():
    assert max_abs([1, -3j, Fraction(1, 2)]) == 3.0
    nan = float("nan")
    for values in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, complex(0.0, nan)]):
        assert max_abs(values) != max_abs(values)


def test_homogeneous_residuals_read_the_same_bits_as_deeper_jets():
    # the residuals build their jets only as deep as the coefficients they
    # read; float data leaves round-off in those coefficients, so a deeper
    # jet that changed any of them would change the residual
    alpha, poly = (1, 0.3, -0.2), (0.5, 0.25)
    deep_b = evaluate_jet(sigma_b(5), homogeneous_b(5, alpha, 20))
    g = schwarzian_solve(jet_from_coeffs(list(poly) + [0] * 19, 0.0), 20).f
    deep_a = evaluate_jet(sigma_a(5), jet_reverse(g))
    assert 0 < homogeneous_b_residual(5, alpha) < 1e-12 and 0 < homogeneous_a_check(poly, 5) < 1e-12
    for through in range(9):
        assert homogeneous_b_residual(5, alpha, through=through) == max_abs(deep_b.coeffs[: through + 1]), through
        assert homogeneous_a_check(poly, 5, through=through) == max_abs(deep_a.coeffs[: through + 1]), through

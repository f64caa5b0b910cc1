"""Exact symbolic expansion of the two higher-Schwarzian series.

Golden values for sigma_a(4) and sigma_a(5) are the published display
formulas.  The B-series coefficients are pinned from the defining divided
derivative -2 (f')^(n/2-1) d^(n-1)/dz^(n-1) (f')^(1-n/2), which the jet
route below recomputes independently; published tables of these operators
contain misprints, so the formula is authoritative here.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import bell, stirling

from schwarzian_lab import (
    DiffExpr,
    classical,
    evaluate_jet,
    jet_derive,
    jet_from_coeffs,
    jet_pow,
    jet_reciprocal,
    monomial,
    monomial_part,
    series_constant,
    sigma_a,
    sigma_b,
    sym_derive,
    to_string,
)
from schwarzian_lab.checks import random_function
from schwarzian_lab.jets import derivative_values
from schwarzian_lab.symbolic import CriticalPointError, _bell_row, evaluate, monomial_coefficients


def test_classical_schwarzian_string():
    assert to_string(sigma_a(3)) == "u3/u1 - 3/2*u2^2/u1^2"
    assert sigma_a(3) == classical("schwarzian")
    assert sigma_b(3) == classical("schwarzian")


def test_sigma_a4_golden():
    expected = monomial(1, -2, u4=1) + monomial(-6, -4, u3=1, u2=1) + monomial(6, -6, u2=3)
    assert sigma_a(4) == expected
    assert to_string(sigma_a(4)) == "u4/u1 - 6*u3*u2/u1^2 + 6*u2^3/u1^3"


def test_sigma_a5_golden():
    expected = (
        monomial(1, -2, u5=1)
        + monomial(-10, -4, u4=1, u2=1)
        + monomial(-6, -4, u3=2)
        + monomial(48, -6, u3=1, u2=2)
        + monomial(-36, -8, u2=4)
    )
    assert sigma_a(5) == expected


def test_sigma_b45_golden():
    b4 = monomial(2, -2, u4=1) + monomial(-12, -4, u3=1, u2=1) + monomial(12, -6, u2=3)
    assert sigma_b(4) == b4
    b5 = (
        monomial(3, -2, u5=1)
        + monomial(-30, -4, u4=1, u2=1)
        + monomial(Fraction(-45, 2), -4, u3=2)
        + monomial(Fraction(315, 2), -6, u3=1, u2=2)
        + monomial(Fraction(-945, 8), -8, u2=4)
    )
    assert sigma_b(5) == b5


def test_leading_monomials():
    for n in range(3, 9):
        assert series_constant(sigma_a(n)) == 1
        assert series_constant(sigma_b(n)) == n - 2
        assert monomial_coefficients(sigma_a(n)) == {(n, 1): Fraction(1)}
        assert monomial_coefficients(sigma_b(n)) == {(n, 1): Fraction(n - 2)}
        assert monomial_part(sigma_a(n)) == monomial(1, -2, **{f"u{n}": 1})


def test_weight_homogeneity():
    for n in range(3, 9):
        assert sigma_a(n).weights() == {n - 1}
        assert sigma_b(n).weights() == {n - 1}
    assert sym_derive(sigma_a(4)).weights() == {4}
    # u_1 carries no weight, whatever its (half-integer) exponent
    assert (monomial(1, -3, u2=1) + monomial(2, 5, u3=2)).weights() == {1, 4}
    assert all(type(w) is int for w in sigma_b(9).weights())


def reference_derive(e):
    """The formal derivative as a Leibniz loop over Fraction coefficients:
    the term-order oracle for the integer-numerator kernel of `sym_derive`."""
    terms = {}
    for key, coeff in e.terms.items():
        for i, exp in enumerate(key):
            if exp == 0:
                continue
            ek = Fraction(exp, 2) if i == 0 else Fraction(exp)
            new = list(key) + [0] * max(0, (i + 2) - len(key))
            new[i] -= 2 if i == 0 else 1
            new[i + 1] += 1
            while len(new) > 1 and new[-1] == 0:
                new.pop()
            new = tuple(new)
            terms[new] = terms.get(new, Fraction(0)) + coeff * ek
    return DiffExpr(terms)


def reference_sigma_b(n):
    expr = DiffExpr({(2 - n,): 1})
    for _ in range(n - 1):
        expr = reference_derive(expr)
    return (expr * DiffExpr({(n - 2,): 1})).scale(-2)


def test_series_match_the_fraction_leibniz_reference():
    """sigma_a and sigma_b, term for term and in the same term order (which
    fixes the float summation order of `evaluate`), against the expansion
    re-run from scratch through the Fraction reference."""
    expr = classical("schwarzian")
    for n in range(3, 21):
        if n > 3:
            expr = reference_derive(expr) - (classical("pre_schwarzian") * expr).scale(n - 2)
        assert list(sigma_a(n).terms.items()) == list(expr.terms.items()), n
        assert list(sigma_b(n).terms.items()) == list(reference_sigma_b(n).terms.items()), n
        for c in list(sigma_a(n).terms.values()) + list(sigma_b(n).terms.values()):
            assert type(c) is Fraction


def test_bell_rows_match_sympy():
    # B_{m,k}(1, 1, ...) counts the partitions of m things into k blocks;
    # through m = 10 the rows are also sympy's Bell polynomials term by term
    xs = sympy.symbols("x1:11")
    for m in range(16):
        row = _bell_row(m)
        assert len(row) == m + 1
        for k, poly in enumerate(row):
            assert all(key[0] == 0 and type(v) is int and v > 0 for key, v in poly.items())
            assert sum(poly.values()) == stirling(m, k), (m, k)
            if 0 < k and m <= 10:
                ours = {key[1:] + (0,) * (11 - len(key)): v for key, v in poly.items()}
                assert ours == dict(sympy.Poly(bell(m, k, xs[: m - k + 1]), *xs).terms()), (m, k)


def test_sigma_b_reads_one_bell_chain():
    sigma_b.cache_clear()
    _bell_row.cache_clear()
    sigma_b(16)
    assert _bell_row.cache_info().misses == 16
    sigma_b(9)
    assert _bell_row.cache_info().misses == 16


_terms = st.dictionaries(
    st.tuples(st.integers(-5, 4).map(lambda h: 2 * h + 1), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    max_size=6,
)


@given(_terms, _terms)
def test_sym_derive_matches_reference_and_leibniz_rule(ta, tb):
    # half-integer u_1 exponents and denominators up to 12
    a, b = DiffExpr(ta), DiffExpr(tb)
    for e in (a, b, a * b):
        assert list(sym_derive(e).terms.items()) == list(reference_derive(e).terms.items())
    assert sym_derive(a * b) == sym_derive(a) * b + a * sym_derive(b)


def reference_to_string(e):
    """The renderer before it read signs and sizes off the numerator: the
    oracle for `to_string`'s term order and text."""

    def sort_key(key):
        factors = []
        for i, exp in enumerate(key[1:], start=2):
            factors.extend([i] * exp)
        factors.sort(reverse=True)
        return (sum(key[1:]), tuple(-x for x in factors), -key[0])

    def coeff_str(c):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    if not e.terms:
        return "0"
    pieces = []
    for key in sorted(e.terms, key=sort_key):
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
        if abs(coeff) != 1:
            body = f"{coeff_str(abs(coeff))}*{body}" if num_factors else coeff_str(abs(coeff))
        if d < 0:
            body += "/u1" if d == -2 else (f"/u1^{-d // 2}" if d % 2 == 0 else f"/u1^({-d}/2)")
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def test_rendering_matches_reference_for_both_series():
    for n in range(3, 17):
        for expr in (sigma_a(n), sigma_b(n)):
            assert to_string(expr) == reference_to_string(expr), n


@given(
    st.dictionaries(
        st.tuples(st.integers(-9, 9), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=8,
    )
)
@example({(-2, 1): Fraction(1, 2), (3,): Fraction(-1, 3), (0,): Fraction(-1), (-4, 0, 1): Fraction(7, 4), (1, 1, 1): 1})
def test_rendering_matches_reference(terms):
    # u_1 exponents of either parity, unit and fractional coefficients of both signs
    e = DiffExpr(terms)
    assert to_string(e) == reference_to_string(e)


def test_sigma_a_matches_direct_expansion():
    """Each cached order built from the one below equals the expansion
    re-run from sigma_3, term for term and in the same term order (which
    fixes the float summation order of `evaluate`)."""

    def direct(n):
        expr = classical("schwarzian")
        ps = classical("pre_schwarzian")
        for m in range(3, n):
            expr = sym_derive(expr) - (ps * expr).scale(m - 1)
        return expr

    sigma_a.cache_clear()
    top = sigma_a(16)
    for n in range(3, 17):
        expected = direct(n)
        assert sigma_a(n) == expected
        assert list(sigma_a(n).terms) == list(expected.terms)
    assert top is sigma_a(16)


def test_integer_coefficients_a_series():
    # from n = 4 on the A recursion only adds/multiplies integers
    for n in (4, 5, 6, 7):
        for coeff in sigma_a(n).terms.values():
            assert coeff.denominator == 1


def test_exact_rational_coefficients():
    for n in (3, 4, 5, 6, 7):
        for expr in (sigma_a(n), sigma_b(n)):
            assert all(isinstance(c, Fraction) for c in expr.terms.values())
            assert expr.is_canonical()  # integral powers of u1 only


def test_a_recursion_against_jet_arithmetic():
    """sigma_{n+1} = sigma_n' - (n-1)(f''/f') sigma_n, replayed on raw jets."""
    rng = random.Random(3)
    f = random_function(rng)
    order = 10
    fj = f.jet(0.1 + 0.05j, order)
    s = evaluate_jet(sigma_a(3), fj)
    for n in range(3, 8):
        ps = jet_derive(fj, 2) * jet_pow(jet_derive(fj), -1)
        s_next = jet_derive(s) - (n - 1) * ps * s
        direct = evaluate_jet(sigma_a(n + 1), fj)
        m = min(s_next.order, direct.order)
        worst = max(abs(a - b) for a, b in zip(direct.coeffs[: m + 1], s_next.coeffs[: m + 1]))
        assert worst < 1e-9, (n, worst)
        s = s_next


def test_b_series_against_divided_derivative():
    """sigma_b(n) evaluated symbolically == -2 (f')^(n/2-1) d^(n-1) (f')^(1-n/2)."""
    rng = random.Random(4)
    f = random_function(rng)
    order = 12
    fj = f.jet(0.07 - 0.12j, order)
    fp = jet_derive(fj)
    for n in range(3, 8):
        half = Fraction(n, 2)
        direct = -2 * jet_pow(fp, half - 1) * jet_derive(jet_pow(fp, 1 - half), n - 1)
        sym = evaluate_jet(sigma_b(n), fj)
        m = min(direct.order, sym.order)
        worst = max(abs(a - b) for a, b in zip(direct.coeffs[: m + 1], sym.coeffs[: m + 1]))
        assert worst < 1e-8, (n, worst)


def _evaluate_by_jet_products(e, f):
    """The term-by-term loop: coefficient times repeated jet products."""
    top = e.max_index()
    u = {k: jet_derive(f, k) for k in range(1, top + 1)}
    u1_inv = jet_reciprocal(u[1])
    total = jet_from_coeffs([Fraction(0)] * (f.order - top + 1), f.center)
    for key, coeff in e.terms.items():
        term = jet_from_coeffs([coeff] + [0] * (f.order - top), f.center)
        p = key[0] // 2
        for _ in range(abs(p)):
            term = term * (u[1] if p >= 0 else u1_inv)
        for i, exp in enumerate(key[1:], start=2):
            for _ in range(exp):
                term = term * u[i]
        total = total + term
    return total.coeffs


exact_values = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=7))


@given(st.integers(3, 7), st.sampled_from(["A", "B"]), exact_values,
       exact_values.filter(lambda c: c != 0), st.lists(exact_values, min_size=7, max_size=12))
def test_exact_evaluation_matches_jet_products(n, series, c0, c1, tail):
    f = jet_from_coeffs([c0, c1] + tail, 0)
    e = (sigma_a if series == "A" else sigma_b)(n)
    got = evaluate_jet(e, f).coeffs
    assert got == _evaluate_by_jet_products(e, f)
    assert all(isinstance(c, Fraction) for c in got)


def test_exact_evaluation_of_an_expression_without_u1_power():
    import mpmath

    f = jet_from_coeffs([0, 2, Fraction(1, 3), 0, Fraction(-1, 2)], 0)
    e = monomial(Fraction(3, 2), 0, u2=1)  # (3/2) f'' = 1 - 9 z^2
    const = monomial(5)  # the term with no factors, key (0,)
    # the constant after the other terms, before them, alone, and no terms at all
    cases = [(e, (1, 0, -9)), (e + const, (6, 0, -9)), (const + e, (6, 0, -9)), (const, (5, 0, 0, 0)), (DiffExpr({}), (0, 0, 0, 0))]
    assert list((const + e).terms) == [(0,), (0, 1)]
    two = np.ones(2)
    for expr, want in cases:
        got = evaluate_jet(expr, f).coeffs
        assert got == want and all(type(c) is Fraction for c in got), expr
        value = evaluate(expr, f)
        assert value == want[0] and type(value) is Fraction, expr
        # the same jet as complex scalars, as a batch of two equal points, and at 50 digits
        floats = evaluate_jet(expr, jet_from_coeffs([complex(c) for c in f.coeffs], 0j)).coeffs
        assert floats == want and all(type(c) is complex for c in floats), expr
        assert evaluate(expr, jet_from_coeffs([complex(c) for c in f.coeffs], 0j)) == want[0]
        batch = jet_from_coeffs([complex(c) * two for c in f.coeffs], 0 * two)
        assert all(np.all(c == w) for c, w in zip(evaluate_jet(expr, batch).coeffs, want)), expr
        assert np.all(evaluate(expr, batch) == want[0]), expr
        with mpmath.workdps(50):
            hp = evaluate_jet(expr, jet_from_coeffs([mpmath.mpc(c.numerator) / c.denominator for c in map(Fraction, f.coeffs)], 0))
        assert hp.coeffs == want and all(type(c) is (mpmath.mpc if expr.terms else complex) for c in hp.coeffs), expr


def test_float_evaluation_matches_jet_products():
    import mpmath

    rng = random.Random(20)
    for n in (3, 5, 8):
        for e in (sigma_a(n), sigma_b(n)):
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n + 5)]
            coeffs[1] += 2
            scalar = jet_from_coeffs(coeffs, 0.1j)
            batched = jet_from_coeffs([np.array([c, 1j * c, c + 0.25]) for c in coeffs], np.full(3, 0.1j))
            for f in (scalar, batched):
                got = np.array(evaluate_jet(e, f).coeffs, dtype=complex)
                want = np.array(_evaluate_by_jet_products(e, f), dtype=complex)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, e)
            with mpmath.workdps(50):
                hp = jet_from_coeffs([mpmath.mpc(c) for c in coeffs], 0.1j)
                got, want = evaluate_jet(e, hp).coeffs, _evaluate_by_jet_products(e, hp)
                assert max(abs(a - b) for a, b in zip(got, want)) <= mpmath.mpf(10) ** -45 * max(abs(b) for b in want)


def test_evaluate_jet_at_a_critical_point_raises_critical_point_error():
    # f = z^2 + ... has f'(0) = 0, where every sigma divides by u_1
    coeffs = [0, 0, 1, 2, 3, 4, 5, 6]
    batched = [np.array([c, c, c]) for c in coeffs]
    batched[1] = np.array([1.0, 0.0, 2.0])  # one zero in the batch
    for f in (coeffs, [float(c) for c in coeffs], batched):
        with pytest.raises(CriticalPointError):
            evaluate_jet(sigma_a(4), jet_from_coeffs(f, 0))


def test_evaluate_jet_needs_enough_order():
    f = random_function(random.Random(5))
    with pytest.raises(ValueError):
        evaluate_jet(sigma_a(6), f.jet(0, 3))


def test_expr_algebra():
    e = classical("pre_schwarzian")
    assert to_string(e) == "u2/u1"
    zero = e - e
    assert zero == DiffExpr({})
    assert e.scale(2).terms == {(-2, 1): Fraction(2)}
    assert sym_derive(e) == monomial(1, -2, u3=1) + monomial(-1, -4, u2=2)


def _diffexpr_to_sympy(e, u):
    import sympy

    total = sympy.Integer(0)
    for key, coeff in e.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator) * u[1] ** sympy.Rational(key[0], 2)
        for i, exp in enumerate(key[1:], start=2):
            term *= u[i] ** exp
        total += term
    return total


@pytest.mark.parametrize("series", ["A", "B"])
def test_expansion_matches_sympy_differentiation(series):
    # the defining formulas differentiated by sympy, with f^(k) -> u_k, agree
    # with the DiffExpr expansion exactly; n stops at 7 because sympy's cost
    # grows steeply (n = 8 takes seconds, n = 10 most of a minute)
    import sympy

    z = sympy.Symbol("z")
    f = sympy.Function("f")(z)
    u = {k: sympy.Symbol(f"u{k}", positive=True) for k in range(1, 9)}
    to_u = {f.diff(z, k): u[k] for k in range(1, 9)}
    fp = f.diff(z)
    sigma = fp.diff(z, 2) / fp - sympy.Rational(3, 2) * (fp.diff(z) / fp) ** 2
    for n in range(3, 8):
        if series == "A":
            if n > 3:
                sigma = sigma.diff(z) - (n - 2) * (fp.diff(z) / fp) * sigma
            reference, ours = sigma, sigma_a(n)
        else:
            half = sympy.Rational(n, 2)
            reference, ours = -2 * fp ** (half - 1) * (fp ** (1 - half)).diff(z, n - 1), sigma_b(n)
        diff = reference.xreplace(to_u) - _diffexpr_to_sympy(ours, u)
        assert sympy.cancel(diff) == 0, (series, n)


def _per_term_product(e, f):
    """e[f] term by term, each factor raised with `**`: the sum over e's
    terms of c * u_1^(e_1) * u_2^(e_2) * ... with u_k = f^(k)."""
    us = (None,) + derivative_values(f)[1:]
    total = Fraction(0)
    for key, coeff in e.terms.items():
        term = coeff * Fraction(us[1]) ** (key[0] // 2)
        for k, exp in enumerate(key[1:], start=2):
            term *= us[k] ** exp
        total += term
    return total


def test_evaluate_on_exact_jets_equals_the_per_term_product():
    import mpmath

    rng = random.Random(18)
    # gaps in the key, a constant term and u_1 powers of both signs
    mixed = DiffExpr({(-6, 0, 2): Fraction(3, 7), (4, 1): Fraction(-1, 2), (0,): 5, (-2, 0, 0, 1): 2})
    # a constant first term, and no terms at all
    for n in range(3, 9):
        for expr in (sigma_a(n), sigma_b(n), mixed, DiffExpr({(0,): Fraction(-2, 3), (-2, 1): 1}), DiffExpr({})):
            top = max(expr.max_index(), n)
            for center in (Fraction(1, 3), 2):
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(top + 1)]
                coeffs[1] = coeffs[1] or Fraction(1, 2)
                for jet in (jet_from_coeffs(coeffs, center), jet_from_coeffs([c.numerator for c in coeffs], center)):
                    got = evaluate(expr, jet)
                    assert type(got) is Fraction and got == _per_term_product(expr, jet), (n, expr)
                    # mpmath coefficients keep their working precision
                    with mpmath.workdps(50):
                        hp = evaluate(expr, jet_from_coeffs([mpmath.mpf(c.numerator) / c.denominator for c in jet.coeffs], center))
                        assert abs(hp - mpmath.mpf(got.numerator) / got.denominator) <= mpmath.mpf(10) ** -45 * max(1, abs(hp))

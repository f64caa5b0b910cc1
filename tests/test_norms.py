"""Hyperbolic sup-norm estimation and the sharp schlicht-function bounds.

The extremal function attains the bound, so grid estimates land within float
noise of it; since the estimates can overshoot by rounding, the pass margin
is relative (the sharp values grow like 4^n n!).
"""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from schwarzian_lab import (
    DISC,
    AnalyticFn,
    Jet,
    SampleGrid,
    a_series_bound,
    ahlfors_weill_density,
    b_series_bound,
    bn_norm_estimate,
    bn_norm_report,
    bound_check,
    catalog,
    d0_beta_norm_bound,
    exterior_disc_quadrature,
    kernel_criterion_check,
    norms,
    rotated_koebe,
    schlicht_family,
    sigma_a,
    sigma_b,
    sigma_phi,
)
from schwarzian_lab.integrals import vec_eval
from schwarzian_lab.jets import JetError
from schwarzian_lab.maps import NonFiniteError
from schwarzian_lab.norms import _sample_table, bound_row
from schwarzian_lab.symbolic import CriticalPointError, evaluate, sigma_expr

REL_SLACK = 1e-9


def s_koebe(z):
    # the Schwarzian of z/(1-z)^2 in closed form
    return -6.0 / (1 - np.asarray(z) ** 2) ** 2


def test_sharp_bound_constants():
    assert [a_series_bound(n) for n in (3, 4, 5)] == [6.0, 48.0, 576.0]
    assert [b_series_bound(n) for n in (3, 4, 5)] == [6.0, 96.0, 1890.0]


def test_koebe_schwarzian_norm_is_six():
    est = bn_norm_estimate(s_koebe, 2)
    assert 6 - 1e-6 <= est <= 6 + 1e-9


def test_argmax_on_real_axis():
    rep = bn_norm_report(s_koebe, 2)
    # the weighted Schwarzian of the Koebe function is constant 6 on (-1, 1)
    assert abs(rep["argmax"].imag) < 1e-12
    assert rep["kind"] == "lower_bound"


@pytest.mark.parametrize("series,n", [(s, n) for s in "AB" for n in (3, 4, 5)])
def test_schlicht_bounds(series, n):
    for name, fn in schlicht_family():
        row = bound_check(series, n, fn)
        assert row["margin"] >= -REL_SLACK * max(1.0, row["bound"]), (name, row)


@pytest.mark.parametrize("series", ["A", "B"])
def test_koebe_attains_bound(series):
    for n in (3, 4, 5):
        row = bound_check(series, n, catalog("koebe"))
        assert abs(row["margin"]) <= 1e-6 * row["bound"], row


def test_moebius_has_vanishing_schwarzian_norm():
    half_plane = dict(schlicht_family())["half_plane"]
    est = bn_norm_estimate(sigma_phi(half_plane, sigma_a(3)), 2)
    assert est < 1e-12


def test_norm_concentrates_at_origin_for_large_weight():
    phi = catalog("taylor", coeffs=[0.5, 0.25, 0.125])
    grid = SampleGrid(J=12, M=64)
    ests = [bn_norm_estimate(phi, n, grid) for n in (4, 12, 24, 48)]
    assert all(a >= b for a, b in zip(ests, ests[1:]))
    assert abs(ests[-1] - 0.5) < 0.05  # |phi(0)|


def test_rejects_non_finite_samples():
    grid = SampleGrid(J=6, M=8)
    bad = lambda z: np.where(np.abs(z) < 0.5, np.nan, 1.0)
    with pytest.raises(ValueError):
        bn_norm_report(bad, 2, grid)


def test_scalar_only_callable_raises():
    # no per-point fallback: a callable that cannot take an array is an error
    grid = SampleGrid(J=6, M=8)
    with pytest.raises(TypeError):
        bn_norm_report(lambda z: cmath.exp(z), 2, grid)
    with pytest.raises(ValueError):
        bn_norm_report(lambda z: 1.0, 2, grid)


def test_sample_points_and_weights_are_built_once_per_grid_and_weight():
    grid = SampleGrid(J=6, M=8)
    pts, weights = _sample_table(grid, 2)
    assert _sample_table(SampleGrid(J=6, M=8), 2)[0] is pts
    assert _sample_table(grid, 3)[1] is not weights
    for array in (pts, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    _sample_table.cache_clear()
    fresh_pts, fresh_weights = _sample_table(grid, 2)
    assert fresh_pts is not pts
    assert np.array_equal(fresh_pts, pts) and np.array_equal(fresh_pts, grid.points())
    assert np.array_equal(fresh_weights, weights) and np.array_equal(weights, DISC.density(pts) ** -2.0)
    phi = catalog("taylor", coeffs=[0.5, 0.25, 0.125])
    assert bn_norm_estimate(phi, 2, grid) == np.max(np.abs(phi(pts)) * DISC.density(pts) ** -2.0)


def test_vec_eval_rejects_shape_mismatch():
    pts = np.linspace(0, 0.5, 5) + 0j
    assert vec_eval(lambda z: 2 * z, pts).shape == pts.shape
    with pytest.raises(ValueError):
        vec_eval(lambda z: np.ones(3), pts)


@pytest.mark.parametrize("series,n", [(s, n) for s in "AB" for n in (3, 4, 5)])
def test_batched_sigma_matches_scalar_jets(series, n):
    # every radial level of the default grid, on fewer angles: the per-point
    # scalar jets are the reference for the batched path
    grid = SampleGrid(J=14, M=16)
    pts = grid.points()
    weight = DISC.density(pts) ** (1.0 - n)
    expr = sigma_a(n) if series == "A" else sigma_b(n)
    bound = a_series_bound(n) if series == "A" else b_series_bound(n)
    fns = schlicht_family() + [("rotated_koebe", rotated_koebe(t)) for t in (0.7, 2.9)]
    for name, fn in fns:
        batched = sigma_phi(fn, expr)(pts)
        scalar = np.array([evaluate(expr, fn.jet(complex(z), n)) for z in pts])
        err = np.max(np.abs(batched - scalar) * weight)
        assert err <= 1e-10 * max(1.0, bound), (name, err)


def _criterion(series):
    nu = ahlfors_weill_density(catalog("taylor", coeffs=(1, 0.5, 0.25j, 1)))
    return kernel_criterion_check(nu, 4, 0.3 + 0.1j, series, exterior_disc_quadrature(R=8, M=16))


SERIES_USERS = {
    "bound_row": lambda series: bound_row(series, 4, 100.0),
    "bound_check": lambda series: bound_check(series, 4, catalog("koebe")),
    "d0_beta_norm_bound": lambda series: d0_beta_norm_bound(4, series),
    "kernel_criterion_check": _criterion,
}


@pytest.mark.parametrize("name", sorted(SERIES_USERS))
def test_series_is_validated_and_case_blind(name):
    use = SERIES_USERS[name]
    with pytest.raises(ValueError, match="unknown series"):
        use("x")
    assert use("a") == use("A") != use("B")


@pytest.mark.parametrize("series,n,bound", [("A", 3, 6), ("A", 4, 48), ("A", 5, 576), ("B", 4, 96), ("B", 5, 1890)])
def test_exact_koebe_jet_attains_the_sharp_bounds(series, n, bound):
    # the dyadic grid point where the A5 and B5 rows take their argmax: at a
    # Fraction point the Koebe jet stays exact and meets each bound exactly
    z = -(1 - Fraction(1, 2**13))
    jet = catalog("koebe").jet(z, n)
    assert all(type(c) is Fraction for c in jet.coeffs)
    value = evaluate(sigma_a(n) if series == "A" else sigma_b(n), jet)
    assert abs(value) * (1 - z * z) ** (n - 1) == bound
    assert bound == (a_series_bound(n) if series == "A" else b_series_bound(n))


def _mp_taylor(desc, z, order):
    """Taylor coefficients at z of the rational or Koebe descriptor's
    function, rotated Koebe z/(1 - e^{i theta} z)^2 included, by mpmath's
    own differentiation at the working precision."""
    import mpmath

    if desc["kind"] == "koebe":
        e = mpmath.expj(desc.get("theta", 0))
        return mpmath.taylor(lambda w: w / (1 - e * w) ** 2, z, order)
    num, den = ([mpmath.mpc(*c) for c in reversed(desc[side])] for side in ("num", "den"))
    return mpmath.taylor(lambda w: mpmath.polyval(num, w) / mpmath.polyval(den, w), z, order)


@pytest.mark.parametrize("name", ["koebe", "rotated_koebe", "odd_koebe", "rotated_koebe(0.7)", "rotated_koebe(2.9)"])
def test_bound_table_estimates_match_mpmath_at_their_argmax(name):
    # the float sampler's value at its argmax against sigma_n of the same
    # function from an independent 50-digit jet.  Odd Koebe's argmax sits
    # 6e-5 from its pole, where a less stable quotient loses digits: the
    # recurrence f_n = (p_n - sum_j q_j f_(n-j)) / q_0 reads 9e-13 there
    import mpmath

    fn = dict(schlicht_family() + [(f"rotated_koebe({t})", rotated_koebe(t)) for t in (0.7, 2.9)])[name]
    desc = fn.descriptor()
    for series in "AB":
        for n in (3, 4, 5):
            expr = sigma_a(n) if series == "A" else sigma_b(n)
            report = bn_norm_report(sigma_phi(fn, expr), n - 1)
            with mpmath.workdps(50):
                z = mpmath.mpc(report["argmax"])
                value = evaluate(expr, Jet(z, tuple(_mp_taylor(desc, z, n))))
                reference = abs(value) * (1 - abs(z) ** 2) ** (n - 1)
                relerr = float(abs(report["estimate"] - reference) / reference)
            assert relerr <= 1e-13, (name, series, n, report["argmax"], relerr)


@pytest.mark.parametrize("theta", [0.7, 2.9])
def test_rotated_koebe_sigma_matches_mpmath_near_its_extremal_ray(theta):
    # at the origin, where every rotated-Koebe row takes its argmax, |sigma_n|
    # does not see a unimodular factor in the jet; off it, near the extremal
    # ray e^{-i theta} r, the complex sigma_n does.  The default grid's two
    # angles around -theta on each of the levels r = 1/2, 3/4 and 7/8
    import mpmath

    fn = rotated_koebe(theta)
    grid = SampleGrid()
    pts, _weights = _sample_table(grid, 2)
    near = np.abs(np.angle(pts * cmath.exp(1j * theta))) < 2 * np.pi / grid.M
    pts = pts[near & np.isin(np.abs(pts).round(12), [0.5, 0.75, 0.875])]
    assert pts.size == 6
    for series in "AB":
        for n in (3, 4, 5):
            expr = sigma_a(n) if series == "A" else sigma_b(n)
            values = sigma_phi(fn, expr)(pts)
            with mpmath.workdps(50):
                for z, value in zip(pts, values):
                    zm = mpmath.mpc(z)
                    reference = evaluate(expr, Jet(zm, tuple(_mp_taylor(fn.descriptor(), zm, n))))
                    relerr = float(abs(value - reference) / abs(reference))
                    assert relerr <= 1e-13, (theta, series, n, z, relerr)


def _outcome(fn, series, n):
    """The default-grid estimate and argmax of sigma_n[fn] in B_{n-1}, or the
    type and message of the error it raises."""
    try:
        report = bn_norm_report(sigma_phi(fn, sigma_expr(series, n)), n - 1)
    except Exception as exc:
        return type(exc), str(exc)
    return report["estimate"], report["argmax"]


def _seeded_taylor(seed):
    rng = np.random.default_rng(seed)
    return catalog("taylor", coeffs=[0, 1, *(0.3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)))])


PARTITION_FNS = (
    schlicht_family()
    + [(f"rotated_koebe({t})", rotated_koebe(t)) for t in (0.7, 2.9)]
    + [(f"taylor(seed {s})", _seeded_taylor(s)) for s in (5, 6, 7)]
    + [
        # a pole at the grid point 1/2, f' = 0 at the grid point 0, and an overflow
        ("pole", AnalyticFn({"kind": "rational", "num": [[1, 0]], "den": [[-0.5, 0], [1, 0]]})),
        ("critical", catalog("taylor", coeffs=[0, 0, 1])),
        ("overflow", catalog("taylor", coeffs=[0, 1, 1e200])),
    ]
)


ERRORS = {"pole": JetError, "critical": CriticalPointError, "overflow": NonFiniteError}


def test_the_block_partition_never_shows(monkeypatch):
    # every sample is elementwise in the points, so the estimate, its argmax
    # and the error raised do not depend on how the grid is cut into blocks
    rows = [(name, fn, series, n) for name, fn in PARTITION_FNS for series in "AB" for n in (3, 4, 5, 6)]
    reference = None
    for size in (1024, 2048, SampleGrid().points().size):
        monkeypatch.setattr(norms, "BLOCK_POINTS", size)
        outcomes = {(name, series, n): _outcome(fn, series, n) for name, fn, series, n in rows}
        reference = reference or outcomes
        assert outcomes == reference, size
    for (name, series, n), outcome in reference.items():
        assert outcome[0] is ERRORS[name] if name in ERRORS else type(outcome[0]) is float, (name, series, n)


def test_the_default_grid_is_read_in_two_equal_blocks():
    sizes = []

    def phi(z):
        sizes.append(z.size)
        return s_koebe(z)

    bn_norm_report(phi, 2)
    assert sizes == [1793, 1792]
    sizes.clear()
    bn_norm_report(phi, 2, SampleGrid(J=16, M=256))  # 4,097 points
    assert sizes == [1366, 1366, 1365]

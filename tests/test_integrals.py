"""Quadrature grids and the integral-operator identities: the bounded section,
the differential of the period-type map at the origin, the reproducing
formula, and the kernel-power pairing criterion."""

import math

import numpy as np
import pytest

from schwarzian_lab import (
    DISC,
    EXTERIOR_DISC,
    DensityFn,
    ahlfors_weill,
    ahlfors_weill_density,
    catalog,
    d0_beta,
    disc_quadrature,
    exterior_disc_quadrature,
    half_plane_quadrature,
    kernel_criterion_check,
    poincare_density,
    repro_check,
    sigma_a,
    sigma_b,
    weighted_pairing,
)
from schwarzian_lab.automorphic import fundamental_annulus_grid
from schwarzian_lab.integrals import (
    beltrami_from_bers,
    finite_difference,
    legendre_rule,
    quad2d,
    w1_term,
)


def test_disc_quadrature_oracles():
    g = disc_quadrature()
    assert abs(np.sum(g.weights) - math.pi) < 1e-12
    assert abs(quad2d(lambda z: np.abs(z) ** 2, g) - math.pi / 2) < 1e-10
    assert abs(quad2d(lambda z: z, g)) < 1e-12  # odd integrand cancels


def test_exterior_quadrature_oracle():
    g = exterior_disc_quadrature()
    # the inversion image of the area of the disc
    assert abs(quad2d(lambda eta: np.abs(eta) ** -4.0, g) - math.pi) < 1e-10
    assert np.all(np.abs(g.nodes) > 1)


def test_half_plane_quadrature_oracle():
    g = half_plane_quadrature()
    val = quad2d(lambda eta: np.abs(eta + 1j) ** -4.0, g)
    # analytic value pi/4; the grid is truncated at a finite radius
    assert abs(val - math.pi / 4) < 5e-3
    assert np.all(g.nodes.imag > 0)


def test_grid_refine_doubles_meta():
    g = disc_quadrature(R=8, M=16)
    r = g.refine(2)
    assert r.meta["R"] == 16 and r.meta["M"] == 32


def test_weighted_pairing_constant():
    val = weighted_pairing(lambda z: np.ones_like(z), lambda z: np.ones_like(z), 2, disc_quadrature())
    assert abs(val - math.pi / 3) < 1e-12


def test_weighted_pairing_sesquilinear():
    g = disc_quadrature(R=24, M=48)
    f = lambda z: np.asarray(z) ** 2
    h = lambda z: np.asarray(z) ** 2 + 0.5
    a = 0.7 - 0.2j
    lhs = weighted_pairing(lambda z: a * f(z), h, 2, g)
    assert abs(lhs - a * weighted_pairing(f, h, 2, g)) < 1e-12
    rhs = weighted_pairing(f, lambda z: a * h(z), 2, g)
    assert abs(rhs - np.conj(a) * weighted_pairing(f, h, 2, g)) < 1e-12


def test_ahlfors_weill_density_bound():
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[1.0]))
    assert nu.domain is EXTERIOR_DISC
    assert abs(nu.sup_bound - 0.5) < 1e-3  # half the B_2 norm of phi == 1
    eta = np.array([1.5 + 0.2j, -2.0 + 1.0j, 3.0j])
    assert np.max(np.abs(nu(eta))) <= nu.sup_bound + 1e-12


def test_section_round_trip():
    # applying the origin differential to the section recovers the input
    grid = exterior_disc_quadrature()
    for coeffs in ([0, 1], [0, 0, 1], [0.3, 0.1, 0.5]):
        phi = catalog("taylor", coeffs=coeffs)
        nu = ahlfors_weill_density(phi)
        for z in (0.2 + 0.1j, -0.35j):
            val = d0_beta(sigma_a(3), nu, z, grid)
            assert abs(val - phi(z)) < 1e-10, coeffs


def test_section_values_finite_at_infinity_side():
    phi = catalog("taylor", coeffs=[1.0])
    s = ahlfors_weill(phi, 3.0 + 1.0j)
    assert np.isfinite(s.real) and np.isfinite(s.imag)


def test_repro_formula_converges_in_q():
    phi2 = lambda z: (np.asarray(z, dtype=complex) - 1j) ** -4.0
    phi3 = lambda z: (np.asarray(z, dtype=complex) - 1j) ** -6.0
    r2 = repro_check(phi2, 2, -2j)
    r3 = repro_check(phi3, 3, -2j)
    assert r2["relerr"] < 1e-3
    assert r3["relerr"] < 1e-5
    assert 0 < r2["tail_estimate"] < 1e-4
    # the mirrored kernel orientation does not reproduce; keep it visible
    alt3 = abs(r3["rhs_alt_sign"] - r3["lhs"]) / abs(r3["lhs"])
    assert alt3 > 0.5


def test_kernel_criterion_identity():
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[0, 0, 1]))
    for n in (3, 4, 5):
        for series in ("A", "B"):
            rep = kernel_criterion_check(nu, n, 0.3 + 0.1j, series)
            assert abs(rep["lhs"]) > 1e-3  # nondegenerate comparison
            assert rep["relerr"] < 1e-8, (n, series)


def test_w1_normalization_invariance():
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[0, 1]))
    grid = exterior_disc_quadrature()
    z = 0.25 + 0.15j
    w1a = lambda w: w1_term(nu, w, grid)
    w1b = lambda w: w1_term(nu, w, grid, norm_terms=(0.3, -0.2))
    d2a = finite_difference(w1a, z, 2, h=1e-2)
    d2b = finite_difference(w1b, z, 2, h=1e-2)
    assert abs(d2a - d2b) < 1e-10  # affine terms drop out of d^2/dz^2
    direct = d0_beta({(2, 1): 1}, nu, z, grid)
    assert abs(d2a - direct) / abs(direct) < 1e-3


def test_beltrami_from_bers_density():
    phi = lambda z: np.asarray(z, dtype=complex) ** 0 * 1.0
    mu = beltrami_from_bers(phi, 2)
    eta = 1.0 + 2.0j
    expect = -(3 / math.pi) * (eta - np.conj(eta)) ** 2
    assert abs(mu(eta) - expect) < 1e-12


def test_density_domain_mismatch_rejected():
    nu = DensityFn(lambda eta: np.ones_like(eta), DISC, 1.0)
    with pytest.raises(ValueError):
        d0_beta(sigma_a(3), nu, 0.1, exterior_disc_quadrature(R=8, M=8))


def test_legendre_rule_is_read_only():
    x, w = legendre_rule(96)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize(
    "build",
    [
        exterior_disc_quadrature,
        half_plane_quadrature,
        lambda: fundamental_annulus_grid(0.5, 2.8, 4.0),
    ],
    ids=["exterior_disc", "half_plane", "fundamental_annulus"],
)
def test_grids_unchanged_by_cached_rules(build):
    build()  # fill the rule cache
    cached = build()
    legendre_rule.cache_clear()
    fresh = build()
    assert np.array_equal(cached.nodes, fresh.nodes)
    assert np.array_equal(cached.weights, fresh.weights)


@pytest.mark.parametrize("coeffs", [[0, 0, 1], [1, 0.5, 0.25j, 1]])
def test_d0_beta_matches_closed_form(coeffs):
    # For the Ahlfors-Weill section of phi(w) = sum c_m w^m the differential
    # is c(n) times the n-th derivative of the triple antiderivative
    # sum c_m w^(m+3) / ((m+1)(m+2)(m+3)), with c(n) = 1 (A) or n-2 (B).
    nu = ahlfors_weill_density(catalog("taylor", coeffs=coeffs))
    grid = exterior_disc_quadrature()
    z = 0.3 + 0.1j
    for n in (3, 5):
        for series, expr, c in (("A", sigma_a(n), 1), ("B", sigma_b(n), n - 2)):
            exact = c * math.factorial(n) * sum(
                cm * math.comb(m + 3, n) * z ** (m + 3 - n) / ((m + 1) * (m + 2) * (m + 3))
                for m, cm in enumerate(coeffs)
            )
            assert abs(exact) >= 1e-3, (n, series)
            relerr = abs(d0_beta(expr, nu, z, grid) - exact) / abs(exact)
            assert relerr < 1e-2, (n, series, relerr)

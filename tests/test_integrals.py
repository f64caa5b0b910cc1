"""Quadrature grids and the integral-operator identities: the bounded section,
the differential of the period-type map at the origin, the reproducing
formula, and the kernel-power pairing criterion."""

import cmath
import json
import math
import random
import tracemalloc
import warnings

import mpmath
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
from schwarzian_lab import automorphic, integrals
from schwarzian_lab.automorphic import bergman_project, fundamental_annulus_grid, sup_on_disc
from schwarzian_lab.cli import main
from schwarzian_lab.integrals import (
    NonFiniteError,
    QuadGrid,
    beltrami_from_bers,
    exterior_grid,
    legendre_rule,
    product_rings,
    quad2d,
    ring_moments,
    w1_term,
)
from schwarzian_lab.maps import _ring_nodes
from schwarzian_lab.norms import SampleGrid, bn_norm_report
from schwarzian_lab.symbolic import monomial_coefficients, series_constant


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
    g = half_plane_quadrature(8, 16)
    val = quad2d(lambda eta: np.abs(eta + 1j) ** -4.0, g)
    # analytic value pi/4
    assert abs(val - math.pi / 4) < 1e-13
    assert np.all(g.nodes.imag > 0)


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
    assert r2["relerr"] < 1e-13
    assert r3["relerr"] < 1e-13
    # the mirrored kernel orientation does not reproduce; keep it visible
    alt3 = abs(r3["rhs_alt_sign"] - r3["lhs"]) / abs(r3["lhs"])
    assert alt3 > 0.5


@pytest.mark.parametrize(
    "q, z, tol",
    [(q, z, 5e-9) for q in (2, 3, 4) for z in (-2j, -0.5j, 3 - 1j, 0.2 - 0.05j)] + [(1, -2j, 1e-3)],
)
def test_repro_formula_on_the_default_grid(q, z, tol):
    # q = 1 pulls back to a density that is not smooth at zeta = 1, and converges slowly
    phi = lambda w: (np.asarray(w, dtype=complex) - 1j) ** (-2.0 * q)
    assert repro_check(phi, q, z)["relerr"] <= tol


def test_kernel_criterion_identity():
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[0, 0, 1]))
    for n in (3, 4, 5):
        for series in ("A", "B"):
            rep = kernel_criterion_check(nu, n, 0.3 + 0.1j, series)
            assert abs(rep["lhs"]) > 1e-3  # nondegenerate comparison
            assert rep["relerr"] < 1e-10, (n, series)


def finite_difference(fn, z: complex, k: int, h: float = 1e-2) -> complex:
    """Central finite difference of order k (binomial stencil)."""
    total = 0j
    for j in range(k + 1):
        total += (-1.0) ** j * math.comb(k, j) * fn(z + (k / 2.0 - j) * h)
    return total / h**k


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


def mp_legendre_rule(n: int, dps: int = 40):
    """Gauss-Legendre rule at dps digits: Newton on the three-term recurrence,
    started from numpy's `leggauss` nodes."""
    with mpmath.workdps(dps):
        nodes, weights = [], []
        for start in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(float(start))
            for _ in range(20):
                p0, p1 = mpmath.mpf(1), x
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                dp = n * (p0 - x * p1) / (1 - x * x)
                x -= p1 / dp
                if abs(p1 / dp) < mpmath.mpf(10) ** (5 - dps):
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 31, 32, 48, 96, 97])
def test_legendre_rule_matches_mpmath(n):
    x, w = legendre_rule(n)
    xm, wm = mp_legendre_rule(n)
    assert all(a < b for a, b in zip(xm, xm[1:]))  # n distinct roots, ascending
    assert max(abs(float(a - b)) for a, b in zip(x, xm)) <= 2.3e-16
    assert max(abs(float(a / b - 1)) for a, b in zip(w, wm)) <= 1e-11
    assert abs(math.fsum(w) - 2.0) <= 1e-14


@pytest.mark.parametrize("n", [192, 384])
def test_legendre_rule_matches_leggauss_at_high_order(n):
    x, w = legendre_rule(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xl)) <= 2.3e-16
    # leggauss's own weights are off by 4e-11 (n = 192) and 4e-10 (n = 384) against 40-digit values
    assert np.max(np.abs(w / wl - 1.0)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 96, 97, 192])
def test_legendre_rule_is_exactly_symmetric(n):
    x, w = legendre_rule(n)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    if n % 2:
        assert x[n // 2] == 0.0


@pytest.mark.parametrize("n", [0, -3])
def test_legendre_rule_needs_a_positive_order(n):
    with pytest.raises(ValueError):
        legendre_rule(n)


def test_disc_grid_keeps_its_node_by_node_bits():
    x, w = legendre_rule(96)
    r, wr = 0.5 * x + 0.5, 0.5 * w
    theta = 2.0 * math.pi * np.arange(256) / 256
    grid = disc_quadrature(96, 256)
    assert np.array_equal(grid.nodes, (r[:, None] * np.exp(1j * theta)[None, :]).ravel())
    assert np.array_equal(grid.weights, ((wr * r)[:, None] * np.full(256, 2.0 * math.pi / 256)[None, :]).ravel())


def mapped_exterior_grid(R, M):
    """The disc grid, then eta = 1/conj(zeta) node by node."""
    base = disc_quadrature(R, M)
    return 1.0 / np.conj(base.nodes), base.weights * np.abs(base.nodes) ** -4


def mapped_half_plane_grid(R, M):
    """The disc grid, then the Cayley map node by node."""
    base = disc_quadrature(R, M)
    zeta = base.nodes
    return 1j * (1.0 + zeta) / (1.0 - zeta), base.weights * 4.0 * np.abs(1.0 - zeta) ** -4


@pytest.mark.parametrize("R, M", [(8, 16), (96, 256), (192, 512)])
@pytest.mark.parametrize(
    "build, reference",
    [(exterior_disc_quadrature, mapped_exterior_grid), (half_plane_quadrature, mapped_half_plane_grid)],
    ids=["exterior_disc", "half_plane"],
)
def test_grids_match_the_mapped_disc_grid(build, reference, R, M):
    grid = build(R, M)
    nodes, weights = reference(R, M)
    assert grid.meta["R"] == R and grid.meta["M"] == M
    assert np.max(np.abs(grid.nodes - nodes) / np.abs(nodes)) <= 4e-15
    assert np.max(np.abs(grid.weights / weights - 1.0)) <= 4e-15


def test_legendre_rule_is_read_only():
    x, w = legendre_rule(96)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


GRID_CACHES = (disc_quadrature, exterior_disc_quadrature, half_plane_quadrature, integrals._exterior_powers)


@pytest.mark.parametrize(
    "build",
    [
        disc_quadrature,
        exterior_disc_quadrature,
        half_plane_quadrature,
        lambda: fundamental_annulus_grid(0.5, 2.8, 4.0),
    ],
    ids=["disc", "exterior_disc", "half_plane", "fundamental_annulus"],
)
def test_grids_unchanged_by_cached_rules(build):
    build()  # fill the rule cache
    cached = build()
    legendre_rule.cache_clear()
    for cache in GRID_CACHES:
        cache.cache_clear()
    fresh = build()
    assert fresh is not cached
    assert np.array_equal(cached.nodes, fresh.nodes)
    assert np.array_equal(cached.weights, fresh.weights)


@pytest.mark.parametrize(
    "build",
    [disc_quadrature, exterior_disc_quadrature, half_plane_quadrature, integrals._exterior_powers],
    ids=["disc", "exterior_disc", "half_plane", "exterior_powers"],
)
def test_grids_and_tables_are_built_once_per_size_and_read_only(build):
    def arrays(built):
        return [built] if isinstance(built, np.ndarray) else [built.nodes, built.weights]

    built = build(8, 16)
    assert build(8, 16) is built
    assert build(12, 16) is not built
    for array in arrays(built):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    build.cache_clear()
    rebuilt = build(8, 16)
    assert rebuilt is not built
    assert all(np.array_equal(a, b) for a, b in zip(arrays(built), arrays(rebuilt)))


def test_quad_grids_compare_by_identity():
    small, large = exterior_disc_quadrature(8, 16), exterior_disc_quadrature(96, 256)
    assert small != large and small == small
    assert len({small, large, exterior_disc_quadrature(8, 16)}) == 2
    assert QuadGrid(small.domain, small.nodes, small.weights, small.meta) != small


def one_shot_moments(nu_vals, grid):
    """The moments from every node at once: one array of values, of FFT modes
    and of weighted powers, and one sum over the rings."""
    r, ring_w, m = product_rings(grid, "exterior_disc")
    rings = np.reshape(nu_vals, (r.size, m))
    powers = np.cumprod(np.hstack((ring_w[:, None], np.tile(r[:, None], m - 1))), axis=1)
    absolute = np.abs(rings).sum(axis=1) @ powers
    modes = np.fft.fft(rings, axis=1)
    modes *= powers
    return modes.sum(axis=0), absolute


@pytest.mark.parametrize("block", [integrals.BLOCK_NODES, 1, 100, 2048])
@pytest.mark.parametrize("R, M", [(192, 512), (32, 256), (8, 16)])
def test_blocked_moments_have_the_bits_of_the_one_shot_sum(monkeypatch, R, M, block):
    monkeypatch.setattr(integrals, "BLOCK_NODES", block)
    grid = exterior_disc_quadrature(R, M)
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[1, 0.5, 0.25j, 1]))
    vals = nu(grid.nodes)
    want = one_shot_moments(vals, grid)
    powers = integrals._exterior_powers(R, M)
    for source in (nu, vals):
        moments, ring_sums = ring_moments(source, grid, powers)
        got = moments, ring_sums @ powers
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def reference_ring_moments(f, grid, table):
    """`ring_moments` as it read a grid whose nodes were all built: each block
    of rings sliced out of `grid.nodes`."""
    m = grid.meta["M"]
    rings, p = table.shape
    step = max(1, integrals.BLOCK_NODES // m)
    ring_sums = np.empty(rings)
    moments = np.zeros(p, dtype=complex)
    for i in range(0, rings, step):
        block = slice(i * m, (i + step) * m)
        vals = integrals.vec_eval(f, grid.nodes[block]) if callable(f) else f[block]
        block_rings = np.reshape(vals, (-1, m))
        ring_sums[i : i + step] = np.abs(block_rings).sum(axis=1)
        modes = np.fft.fft(block_rings, axis=1)[:, :p]
        modes *= table[i : i + step]
        modes[0] += moments
        moments = modes.sum(axis=0)
    return moments, ring_sums


# one ring per block past BLOCK_NODES angles; 7 rings of 1,000 angles are two
# blocks of 4 rings, the second one short
@pytest.mark.parametrize("R, M", [(1, 8), (5, 300), (40, 1000), (96, 256), (192, 512), (3, integrals.BLOCK_NODES + 4), (7, 1000)])
def test_rings_made_per_block_have_the_bits_of_sliced_nodes(monkeypatch, R, M):
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[1, 0.5, 0.25j, 1]))
    f = lambda w: np.exp(w) * np.abs(w) ** 2
    exterior, disc = exterior_disc_quadrature(R, M), disc_quadrature(R, M)
    tables = ((nu, exterior, integrals._exterior_powers(R, M)), (f, disc, automorphic._projection_tables(disc, 2)[0]))
    for source, grid, table in tables:
        got, want = ring_moments(source, grid, table), reference_ring_moments(source, grid, table)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def outputs():
        zs = np.array([0.0, 0.3 + 0.2j, -0.5j])
        return d0_beta(sigma_a(3), nu, 0.3 + 0.1j, exterior), bergman_project(f, 2, zs, disc)

    generated = outputs()
    monkeypatch.setattr(integrals, "ring_moments", reference_ring_moments)
    monkeypatch.setattr(automorphic, "ring_moments", reference_ring_moments)
    assert all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(generated, outputs()))


def built_arrays(grid):
    """Which of a grid's node and weight arrays exist."""
    return {"nodes", "weights"} & vars(grid).keys()


@pytest.mark.parametrize("build", [disc_quadrature, exterior_disc_quadrature], ids=["disc", "exterior_disc"])
def test_product_grids_build_nodes_and_weights_on_first_read(build):
    build.cache_clear()
    grid = build(12, 40)
    assert not built_arrays(grid)
    radii, ring_weights, roots = grid.rings
    assert roots.tobytes() == _ring_nodes([1.0], 40).tobytes()
    assert grid.nodes.tobytes() == _ring_nodes(radii, 40).tobytes()
    assert grid.weights.tobytes() == np.repeat(ring_weights, 40).tobytes()
    assert grid.nodes is grid.nodes and grid.weights is grid.weights
    for array in (grid.nodes, grid.weights, *grid.rings):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def clear_grid_caches():
    for cache in (legendre_rule, *GRID_CACHES, automorphic._projection_tables):
        cache.cache_clear()


def test_spectral_integrals_build_no_node_array():
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[1.0]))
    expr = sigma_a(3)
    d0_beta(expr, nu, 0.2 + 0.1j, exterior_disc_quadrature(8, 16))  # the code paths, not the grid caches
    clear_grid_caches()
    tracemalloc.start()
    try:
        grid = exterior_disc_quadrature(192, 512)
        d0_beta(expr, nu, 0.2 + 0.1j, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.94 MB while the grid held its 98,304 nodes and weights
    assert peak < 2e6
    assert not built_arrays(grid)
    bergman_project(lambda w: np.ones_like(w), 2, 0.0)
    assert not built_arrays(disc_quadrature())


def test_half_plane_grids_build_no_disc_nodes():
    clear_grid_caches()
    half_plane_quadrature(8, 16)
    assert not built_arrays(disc_quadrature(8, 16))


@pytest.mark.parametrize("R, M", [(192, 512), (8, 16)])
def test_non_finite_density_in_the_last_block_raises(R, M):
    grid = exterior_disc_quadrature(R, M)
    last = grid.nodes[-1]

    def nu(eta):
        return np.where(eta == last, np.nan, 1.0 / eta**4)

    for source in (nu, nu(grid.nodes)):
        with pytest.raises(ValueError, match="non-finite density value"):
            ring_moments(source, grid, integrals._exterior_powers(R, M))
    with pytest.raises(ValueError, match="non-finite density value"):
        d0_beta(sigma_a(3), nu, 0.2, grid)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)])
def test_every_kind_of_non_finite_value_raises(bad):
    # the check reads the rings' sums of |f|, which every non-finite value makes non-finite
    grid = disc_quadrature(8, 16)
    vals = np.ones(grid.nodes.size, dtype=complex)
    vals[70] = bad
    with pytest.raises(ValueError, match="non-finite density value"):
        ring_moments(vals, grid, np.ones((8, 16)))


def test_finite_values_whose_ring_sums_overflow_do_not_raise():
    # an overflowing sum of |f| alone is no non-finite value
    grid = disc_quadrature(8, 16)
    with np.errstate(over="ignore", invalid="ignore"):  # the modes overflow too
        _moments, ring_sums = ring_moments(np.full(grid.nodes.size, 1e308 + 0j), grid, np.ones((8, 16)))
    assert np.all(np.isinf(ring_sums))


def aw_closed_form(coeffs, n, series, z):
    """d0_beta(sigma_n) on the Ahlfors-Weill section of phi(w) = sum c_m w^m:
    c(n) times the n-th derivative of the triple antiderivative
    sum c_m w^(m+3) / ((m+1)(m+2)(m+3)), with c(n) = 1 (A) or n-2 (B)."""
    c = 1 if series == "A" else n - 2
    return c * math.factorial(n) * sum(
        cm * math.comb(m + 3, n) * z ** (m + 3 - n) / ((m + 1) * (m + 2) * (m + 3))
        for m, cm in enumerate(coeffs)
        if m + 3 >= n
    )


@pytest.mark.parametrize("coeffs", [[0, 0, 1], [1, 0.5, 0.25j, 1]])
def test_d0_beta_matches_closed_form(coeffs):
    nu = ahlfors_weill_density(catalog("taylor", coeffs=coeffs))
    z = 0.3 + 0.1j
    for n in (3, 5):
        for series, expr in (("A", sigma_a(n)), ("B", sigma_b(n))):
            exact = aw_closed_form(coeffs, n, series, z)
            assert abs(exact) >= 1e-3, (n, series)
            relerr = abs(d0_beta(expr, nu, z) - exact) / abs(exact)
            assert relerr < 1e-10, (n, series, relerr)


# -- auto-sized exterior grids -------------------------------------------------


def random_sections(seed, count, max_radius):
    """Seeded Ahlfors-Weill sections of random polynomials with a coefficient
    of degree >= n-3 (lower degrees are annihilated), and points |z| <= max_radius."""
    rng = random.Random(seed)
    while count:
        n, series = rng.choice((3, 4, 5, 6)), rng.choice("AB")
        coeffs = [rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                  for _ in range(n - 2 + rng.randint(0, 3))]
        z = rng.uniform(0.0, max_radius) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        exact = aw_closed_form(coeffs, n, series, z)
        if abs(exact) < 1e-3:
            continue
        count -= 1
        yield coeffs, n, series, z, exact


def test_auto_grid_matches_closed_form_on_random_sections():
    worst, radius, nodes = 0.0, 0.0, 0
    for coeffs, n, series, z, exact in random_sections(0, 200, 0.9):
        nu = ahlfors_weill_density(catalog("taylor", coeffs=coeffs))
        expr = sigma_a(n) if series == "A" else sigma_b(n)
        value = d0_beta(expr, nu, z)
        rep = kernel_criterion_check(nu, n, z, series)
        for got in (value, rep["lhs"], rep["rhs"]):
            worst = max(worst, abs(got - exact) / abs(exact))
        # the reported error bounds the true one on both sides
        assert abs(rep["lhs"] - exact) <= rep["quad_error"], (coeffs, n, series, z)
        assert abs(rep["rhs"] - exact) <= rep["quad_error"], (coeffs, n, series, z)
        nodes += rep["nodes"]
        radius = max(radius, abs(z))
    assert worst <= 1e-10
    assert radius > 0.85  # the samples reach close to |z| = 0.9
    # both levels together average under a quarter of the fixed 96 x 256 grid
    assert nodes / 200 < 96 * 256 / 4


def monomial_density(a, b):
    return DensityFn(lambda eta: eta ** (-a) * np.conj(eta) ** (-b), EXTERIOR_DISC, 1.0)


def monomial_closed_form(a, b, k, z):
    """(k, l) term with coefficient 1 of d0_beta on eta^-a conj(eta)^-b: only the
    mode j = b-a-k-1 of (z-eta)^-(k+1) survives the angular integral, and the
    radial integral of r^(1-2b) over (1, inf) is 1/(2b-2)."""
    j = b - a - k - 1
    return 0.0 if j < 0 else -math.factorial(k) * math.comb(b - a - 1, k) * z**j / (b - 1)


@pytest.mark.parametrize("a, b, k", [(0, 2, 0), (-1, 4, 2), (-2, 5, 3), (0, 6, 3), (-3, 3, 4), (1, 3, 3), (0, 2, 3)])
@pytest.mark.parametrize("z", [0.3 + 0.1j, -0.5j, 0.8 * cmath.exp(2.0j)])
def test_auto_grid_matches_monomial_closed_form(a, b, k, z):
    exact = monomial_closed_form(a, b, k, z)
    value = d0_beta({(k, 1): 1}, monomial_density(a, b), z)
    if exact == 0.0:
        assert abs(value) < 1e-12
    else:
        assert abs(exact) > 1e-3
        assert abs(value - exact) / abs(exact) <= 1e-10


def test_auto_grid_rejects_density_on_wrong_domain():
    nu = DensityFn(lambda eta: np.ones_like(eta), DISC, 1.0)
    with pytest.raises(ValueError, match="density lives on disc"):
        d0_beta(sigma_a(3), nu, 0.1)
    with pytest.raises(ValueError, match="density lives on disc"):
        kernel_criterion_check(nu, 3, 0.1)


@pytest.mark.parametrize(
    "check",
    [lambda nu, grid: d0_beta(sigma_a(5), nu, 0.3, grid), lambda nu, grid: kernel_criterion_check(nu, 5, 0.3, grid=grid)],
    ids=["d0_beta", "kernel_criterion_check"],
)
def test_too_few_angles_are_refused_before_any_node_is_read(check):
    # the n = 5 kernel needs more than 6 angles; the grid's 48 nodes are never read
    reads = []
    nu = DensityFn(lambda eta: reads.append(np.size(eta)) or np.ones_like(eta), EXTERIOR_DISC, 1.0)
    with pytest.raises(ValueError, match="a kernel of order 5 needs more than 6 angles, the grid has 6"):
        check(nu, exterior_disc_quadrature(8, 6))
    assert sum(reads) == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ahlfors_weill(catalog("taylor", coeffs=[1.0]), math.nan), "lives on the exterior of the closed disc"),
        (lambda: repro_check(catalog("taylor", coeffs=[1.0]), 2, complex(0.0, math.nan)), "must lie in the lower half-plane"),
    ],
    ids=["ahlfors_weill", "repro_check"],
)
def test_a_nan_point_lies_in_no_domain(call, message):
    # the domain's own membership test refuses NaN, before any value is computed
    with pytest.raises(ValueError, match=message):
        call()


def test_auto_grid_raises_where_no_level_confirms():
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[0, 0, 1]))
    z = 0.995 * cmath.exp(0.4j)
    with pytest.raises(ValueError, match="more than 768 angles"):
        d0_beta(sigma_a(3), nu, z)
    with pytest.raises(ValueError, match="more than 768 angles"):
        kernel_criterion_check(nu, 3, z)


def test_exterior_grid_follows_z_and_order():
    near, far = exterior_grid(0.2, 3).meta, exterior_grid(0.8, 3).meta
    assert near["M"] < far["M"]  # more angles as |z| nears the circle
    assert exterior_grid(0.2, 6).meta["R"] > near["R"]  # more radii for a higher order
    for meta in (near, far):
        assert meta["M"] >= 2 * meta["R"]


def symbolic_coeffs(n, series):
    return monomial_coefficients(sigma_a(n) if series == "A" else sigma_b(n))


def explicit_closed_form(coeffs, nu_spec, z):
    """d0_beta of a {(k, l): a_kl} map on the density nu_spec: a Taylor list for
    its Ahlfors-Weill section (the (k, l) term is a_kl times the k-th
    derivative of the triple antiderivative) or an (a, b) monomial pair."""
    if isinstance(nu_spec, tuple):
        return sum(float(a) * monomial_closed_form(*nu_spec, k, z) for (k, _l), a in coeffs.items())
    return sum(float(a) * aw_closed_form(nu_spec, k, "A", z) for (k, _l), a in coeffs.items())


@pytest.mark.parametrize("grid", [exterior_disc_quadrature(R=24, M=48), exterior_disc_quadrature(R=10, M=30)],
                         ids=["24x48", "10x30"])
def test_explicit_grid_values_match_per_term_loop(grid):
    z = 0.3 + 0.1j
    taylor = [1, 0.5, 0.25j, 1]
    for nu, spec in ((ahlfors_weill_density(catalog("taylor", coeffs=taylor)), taylor), (monomial_density(-1, 4), (-1, 4))):
        for coeffs in ({(2, 1): 1, (3, 1): -0.5, (4, 2): 2}, symbolic_coeffs(5, "B")):
            exact = explicit_closed_form(coeffs, spec, z)
            assert abs(d0_beta(coeffs, nu, z, grid) - exact) <= 1e-12 * max(abs(exact), 1.0), (coeffs, spec)
        for n, series in ((3, "A"), (5, "B")):
            rep = kernel_criterion_check(nu, n, z, series, grid)
            expr = sigma_a(n) if series == "A" else sigma_b(n)
            c = float(series_constant(expr))
            pairing = weighted_pairing(lambda w: (w - z) ** (-(n + 1.0)),
                                       lambda w: np.conj(nu(w)) * grid.domain.density(w) ** 2, 2, grid)
            assert set(rep) == {"lhs", "rhs", "relerr", "n", "series"}
            assert rep["lhs"] == d0_beta(expr, nu, z, grid)
            assert rep["rhs"] == -(math.factorial(n) * c / math.pi) * pairing


@pytest.mark.parametrize("radius, tol", [(0.3, 1e-12), (0.7, 1e-12), (0.9, 1e-12), (0.97, 1e-10)])
def test_moment_series_matches_closed_form_near_the_circle(radius, tol):
    coeffs = [1, 0.5, 0.25j, 1]
    nu = ahlfors_weill_density(catalog("taylor", coeffs=coeffs))
    grid = exterior_disc_quadrature(32, 256)
    for z in (radius, radius * cmath.exp(2.2j)):
        for n in (3, 4, 5):
            for series, expr in (("A", sigma_a(n)), ("B", sigma_b(n))):
                exact = aw_closed_form(coeffs, n, series, z)
                assert abs(exact) > 1e-3
                assert abs(d0_beta(expr, nu, z, grid) - exact) / abs(exact) <= tol, (z, n, series)


def test_dzero_on_the_default_grid_near_the_circle(capsys):
    # a node sum on this 96 x 256 grid reads 210.48, the kernel's high modes
    # aliased onto the section's; the closed form is d^5/dz^5 z^5/60 = 2
    assert main(["dzero", "--z", "0.97", "--n", "5", "--density", "aw:taylor:0,0,1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    value = complex(*report["value"])
    assert abs(value - 2.0) <= 1e-10


def test_moment_series_needs_an_exterior_product_grid():
    ones = lambda eta: np.ones_like(eta)
    square = exterior_disc_quadrature(8, 16)
    for grid in (disc_quadrature(8, 16), QuadGrid(EXTERIOR_DISC, square.nodes, square.weights)):
        with pytest.raises(ValueError, match="exterior_disc_quadrature product grid"):
            d0_beta(sigma_a(3), ones, 0.1, grid)
        with pytest.raises(ValueError, match="exterior_disc_quadrature product grid"):
            kernel_criterion_check(ones, 3, 0.1, "A", grid)


def test_repro_check_values_match_per_call_density():
    grid = half_plane_quadrature(R=32, M=24)
    phi = lambda z: (np.asarray(z, dtype=complex) - 1j) ** -6.0
    rep = repro_check(phi, 3, -2j, grid)
    mu = beltrami_from_bers(phi, 3)
    assert rep["rhs"] == quad2d(lambda eta: mu(eta) / (eta + 2j) ** 5, grid)
    assert rep["rhs_alt_sign"] == quad2d(lambda eta: mu(eta) / (-2j - eta) ** 5, grid)


def _pole_at_first(w):
    return 1.0 / (w - w.flat[0])


@pytest.mark.parametrize(
    "site, where, message",
    [
        (lambda: bn_norm_report(lambda z: 1.0 / z, 2, SampleGrid(J=2, M=8)), "a sample point", "non-finite sample in norm"),
        (lambda: sup_on_disc(lambda z: 1.0 / z), "a sample point", "non-finite sample in sup estimation"),
        (lambda: ring_moments(_pole_at_first, disc_quadrature(8, 16), np.ones((8, 16))), "a node", "non-finite density value"),
        (lambda: quad2d(_pole_at_first, disc_quadrature(8, 16)), "a node", "non-finite integrand value"),
        (lambda: weighted_pairing(_pole_at_first, np.conj, 2, disc_quadrature(8, 16)), "a node", "non-finite pairing integrand"),
    ],
    ids=["bn_norm_report", "sup_on_disc", "ring_moments", "quad2d", "weighted_pairing"],
)
def test_each_finiteness_check_raises_a_non_finite_error_without_warnings(site, where, message):
    # each site silences the numpy warnings of the values it checks, and names where it read them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=message) as exc:
            site()
    assert isinstance(exc.value, ValueError) and exc.value.where == where


def test_overflowing_ring_sums_still_warn():
    # the ring sums are returned unchecked, so their overflow stays visible
    grid = disc_quadrature(8, 16)
    with pytest.warns(RuntimeWarning, match="overflow"), np.errstate(invalid="ignore"):
        ring_moments(np.full(grid.nodes.size, 1e308 + 0j), grid, np.ones((8, 16)))


@pytest.mark.parametrize(
    "check",
    [lambda nu, grid: kernel_criterion_check(nu, 3, 0.3, grid=grid), lambda nu, grid: d0_beta(sigma_a(3), nu, 0.3, grid)],
    ids=["kernel_criterion_check", "d0_beta"],
)
def test_scalar_density_is_the_shape_error(check):
    # every density is read through vec_eval, whose shape check names the fault
    nu = DensityFn(lambda eta: 1.0, EXTERIOR_DISC, 1.0)
    with pytest.raises(ValueError, match=r"callable returned shape \(\) for points of shape"):
        check(nu, exterior_disc_quadrature(8, 16))

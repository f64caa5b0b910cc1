"""Poincare series over cyclic Fuchsian groups, Weil-Petersson pairings over
fundamental domains, and the weighted Bergman projection.

The lemma-scalar and symmetry checks deliberately use parity-breaking test
functions: on a symmetric axis with parity-pure functions both sides of
these identities vanish and the comparison degenerates to noise over noise.
"""

import math
import tracemalloc

import numpy as np
import pytest

from schwarzian_lab import (
    DISC,
    UPPER_HALF,
    Moebius,
    PairingSpec,
    automorphy_residual,
    bergman_kernel,
    bergman_project,
    catalog,
    disc_quadrature,
    fundamental_annulus_grid,
    group_ball,
    group_from_descriptor,
    half_plane_quadrature,
    lemma_scalar_check,
    metzger_element,
    poincare_theta,
    s_bergman_kernel,
    theta_l1_check,
    wp_pairing,
)
from schwarzian_lab import automorphic, integrals
from schwarzian_lab.automorphic import _preserves_disc, sup_on_disc, theta_values, dilation_conjugator
from schwarzian_lab.integrals import product_rings
from schwarzian_lab.jets import _horner

CYCLIC = {"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": 4.0}


def _cyclic_gens():
    return group_from_descriptor(CYCLIC)


def test_group_ball_cyclic_sizes():
    gens = _cyclic_gens()
    ball = group_ball(gens, 3)
    assert len(ball) == 7  # g^-3 .. g^3
    ident = ball.by_length(0)[0]
    coeffs = np.array([ident.a, ident.b, ident.c, ident.d])
    # the identity of PSL(2,C): coefficients (1, 0, 0, 1) up to overall sign
    assert min(np.abs(coeffs - [1, 0, 0, 1]).max(), np.abs(coeffs + [1, 0, 0, 1]).max()) < 1e-9
    assert sorted(ball.word_lengths)[:3] == [0, 1, 1]


def test_group_ball_two_generators():
    gens = [Moebius.hyperbolic(0.0, math.pi, 4.0), Moebius.hyperbolic(math.pi / 2, 3 * math.pi / 2, 4.0)]
    sizes = [len(group_ball(gens, r)) for r in (1, 2, 3)]
    assert sizes == [5, 17, 53]  # free-group growth, no collisions


def test_group_ball_rejects_non_disc_maps():
    with pytest.raises(ValueError, match="does not preserve the unit disc"):
        group_ball([Moebius(2, 1, 1, 1)], 2)


@pytest.mark.parametrize(
    "g, preserves",
    [
        (Moebius.rotation(0.7), True),
        (group_from_descriptor(CYCLIC)[0], True),
        (Moebius.hyperbolic(0.0, math.pi, 4.0), True),
        (Moebius.hyperbolic(math.pi / 2, 3 * math.pi / 2, 4.0), True),
        (Moebius.hyperbolic(0.5, 2.8, 4.0).compose(Moebius.hyperbolic(1.0, 4.0, 3.0)), True),
        (Moebius(0, 1, 1, 0), False),  # z -> 1/z swaps the disc and its exterior
        (Moebius(2, 1, 1, 1), False),
        (Moebius(2, 0, 0, 1), False),  # z -> 2z
    ],
    ids=["rotation", "cyclic", "two-gen-a", "two-gen-b", "product", "inversion", "2111", "dilation"],
)
def test_preserves_disc_reads_the_matrix(g, preserves):
    assert _preserves_disc(g) is preserves


def test_group_descriptor_validation():
    assert group_from_descriptor({"kind": "trivial"}) == []
    with pytest.raises(ValueError):
        group_from_descriptor({"kind": "cyclic", "fixpoints": [0.5, 0.5], "multiplier": 4.0})
    with pytest.raises(ValueError):
        group_from_descriptor({"kind": "nonsense"})


def test_theta_trivial_group_is_identity_operator():
    f = catalog("taylor", coeffs=[0, 0.5, 1])
    ball = group_ball([], 4)
    z = 0.3 + 0.2j
    rep = poincare_theta(f, 2, ball, z)
    assert complex(rep) == f(z)


def test_theta_automorphy_within_reported_bound():
    f = catalog("taylor", coeffs=[0, 0.5, 1])
    ball = group_ball(_cyclic_gens(), 8)
    z = 0.3 + 0.2j
    rep = poincare_theta(f, 2, ball, z)
    res = automorphy_residual(f, 2, ball, z)
    # truncating the orbit sum breaks exact automorphy by the boundary words;
    # the reported bound dominates the symmetric difference of the two sums
    assert res <= rep.automorphy_bound
    assert rep.automorphy_bound < 1e-6
    assert rep.tail_estimate < rep.automorphy_bound


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_theta_small_balls_report_a_bound_that_holds(radius):
    # a radius-0 ball of a nontrivial group has no boundary words to
    # estimate decay from; its bound must still dominate the residual
    f = catalog("taylor", coeffs=[0, 0.5, 1])
    ball = group_ball(_cyclic_gens(), radius)
    z = 0.3 + 0.2j
    rep = poincare_theta(f, 2, ball, z)
    assert automorphy_residual(f, 2, ball, z) <= rep.automorphy_bound


def test_theta_reindexing_residual_shrinks_with_radius():
    f = catalog("taylor", coeffs=[0, 0.5, 1])
    gens = _cyclic_gens()
    z = 0.3 + 0.2j
    res = [automorphy_residual(f, 2, group_ball(gens, r), z) for r in (4, 8, 12)]
    assert res[0] > res[1] > res[2]


def _theta_reference(f, q, ball, z):
    """The series as one Moebius call and one derivative call per element."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for g in ball.elements:
        acc = acc + integrals.vec_eval(f, g(z)) * g.deriv(z) ** q
    return acc


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q", [2, 3])
def test_theta_values_has_the_bits_of_the_per_element_calls(monkeypatch, q):
    f = catalog("taylor", coeffs=[0.3j, 1 - 0.5j, 0.7j, 0.2])
    ball = group_ball(_cyclic_gens(), 8)
    z = 0.3 + 0.2j
    pts = fundamental_annulus_grid(0.5, 2.8, 4.0).nodes
    assert len(ball) == 17 and pts.size > 1000
    assert _same_bits(theta_values(f, q, ball, z), _theta_reference(f, q, ball, z))
    assert _same_bits(theta_values(f, q, ball, pts), _theta_reference(f, q, ball, pts))
    fast = (complex(poincare_theta(f, q, ball, z)), automorphy_residual(f, q, ball, z), _lemma(12))
    monkeypatch.setattr(automorphic, "theta_values", _theta_reference)
    slow = (complex(poincare_theta(f, q, ball, z)), automorphy_residual(f, q, ball, z), _lemma(12))
    assert _same_bits(fast[0], slow[0]) and fast[1] == slow[1]
    assert fast[2] == slow[2] and abs(fast[2]["lhs"]) > 1e-4  # the lemma's every field, on a nondegenerate pairing


def test_metzger_element_theta_decays():
    g = Moebius.hyperbolic(0.5, 2.8, 2.0)  # small multiplier keeps the tail
    # above the float cancellation floor at radius 16
    p = metzger_element(3, g, 2)
    vals = [abs(complex(poincare_theta(p, 2, group_ball([g], r), 0.25 + 0.15j))) for r in (4, 8, 16)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6


def test_wp_pairing_constant():
    val = wp_pairing(lambda z: np.ones_like(z), lambda z: np.ones_like(z), PairingSpec(2), disc_quadrature())
    assert abs(val - math.pi / 3) < 1e-12


def test_wp_pairing_rejects_a_grid_on_another_domain():
    grid = half_plane_quadrature(R=8, M=8)
    with pytest.raises(ValueError, match="on the disc"):
        wp_pairing(lambda z: z, lambda z: z, PairingSpec(2), grid)


def test_dilation_conjugator_straightens_generator():
    # the closed form over seeded axes and multipliers on both sides of 1
    rng = np.random.default_rng(21)
    zetas = np.array([1j, 0.5 + 2j, -3 + 0.1j])
    for _ in range(60):
        theta1 = rng.uniform(0, 2 * math.pi)
        gap = rng.uniform(0.3, 2 * math.pi - 0.3)
        theta2 = theta1 + gap
        m = rng.choice([rng.uniform(0.2, 0.95), rng.uniform(1.05, 5.0)])
        p, q = np.exp(1j * theta1), np.exp(1j * theta2)
        t = dilation_conjugator(theta1, theta2)
        assert abs(t(p)) <= 1e-12
        assert abs(t.c * q + t.d) <= 1e-12 * (abs(t.c) + abs(t.d))
        assert t(0).imag > 0
        # four boundary points on each arc between the axis endpoints land on the real line
        arcs = np.concatenate([theta1 + gap * np.arange(1, 5) / 5, theta2 + (2 * math.pi - gap) * np.arange(1, 5) / 5])
        images = t(np.exp(1j * arcs))
        assert np.all(np.abs(images.imag) <= 1e-12 * np.abs(images))
        dil = t.compose(Moebius.hyperbolic(theta1, theta2, m)).compose(t.inverse())
        assert np.max(np.abs(dil(zetas) - m * zetas)) <= 1e-12 * np.max(np.abs(m * zetas))


def test_fundamental_domain_takes_the_multiplier_or_its_inverse():
    for theta1, theta2, m in [(0.5, 2.8, 0.25), (1.0, 4.0, 0.7), (-2.0, 0.3, 1 / 3)]:
        small = fundamental_annulus_grid(theta1, theta2, m, n_rad=8, n_ang=8)
        large = fundamental_annulus_grid(theta1, theta2, 1 / m, n_rad=8, n_ang=8)
        assert np.array_equal(small.nodes, large.nodes) and np.array_equal(small.weights, large.weights)
    for bad in (1.0, 0.0, -4.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            fundamental_annulus_grid(0.5, 2.8, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fundamental_domain_rejects_a_non_finite_angle(bad):
    # the grid checks its axis as Moebius.hyperbolic does, not only its multiplier
    with pytest.raises(ValueError, match="axis angles and multiplier must be finite"):
        fundamental_annulus_grid(bad, 2.8, 4.0)


def test_fundamental_domain_base_radius_invariance():
    spec = PairingSpec(2)
    ball = group_ball(_cyclic_gens(), 12)
    f = catalog("taylor", coeffs=[0, 1, 0.5])
    h = catalog("taylor", coeffs=[0, 0, 1, 0.2])
    tf = lambda z: theta_values(f, 2, ball, z)
    th = lambda z: theta_values(h, 2, ball, z)
    g1 = fundamental_annulus_grid(0.5, 2.8, 4.0)
    g2 = fundamental_annulus_grid(0.5, 2.8, 4.0, r0=2.0)  # shifted by sqrt(multiplier)
    v1 = wp_pairing(tf, th, spec, g1)
    v2 = wp_pairing(tf, th, spec, g2)
    assert abs(v1 - v2) / abs(v1) < 1e-5


def _lemma(radius, f=None, h=None):
    spec = PairingSpec(2)
    ball = group_ball(_cyclic_gens(), radius)
    fd = fundamental_annulus_grid(0.5, 2.8, 4.0)
    F = catalog("taylor", coeffs=[0, 0, 0.5, 0.2])
    f = f or (lambda z: theta_values(F, 2, ball, z))
    return lemma_scalar_check(f, h or catalog("taylor", coeffs=[0, 1, 1]), spec, ball, fd)


def test_lemma_scalar_pairing():
    # <f, Theta h>_G over the fundamental domain == <f, h> over the disc,
    # for automorphic f (here a truncated series itself)
    for h in (None, catalog("taylor", coeffs=[0.3j, 1 - 0.5j, 0.7j])):
        rep = _lemma(12, h=h)
        assert abs(rep["lhs"]) > 1e-4  # nondegenerate configuration
        assert rep["relerr"] < 1e-10
        assert rep["coeff_tail"] < 1e-8


def test_lemma_error_falls_with_the_ball_radius():
    # the disc side is exact, so what is left is the truncation of Theta
    errs = [_lemma(r)["relerr"] for r in (8, 12, 16)]
    assert errs[0] > errs[1] > errs[2]


def test_lemma_fails_for_a_non_automorphic_f():
    rep = _lemma(12, f=catalog("taylor", coeffs=[0, 0, 0.5, 0.2]))
    assert rep["relerr"] > 1e-3


def test_lemma_needs_a_polynomial_h():
    with pytest.raises(ValueError):
        _lemma(4, h=catalog("koebe"))
    with pytest.raises(ValueError):
        _lemma(4, h=lambda z: z)
    with pytest.raises(ValueError):
        _lemma(4, h=catalog("taylor", coeffs=[0] * 40 + [1]))


def test_theta_l1_contraction():
    ball = group_ball(_cyclic_gens(), 10)
    fd = fundamental_annulus_grid(0.5, 2.8, 4.0)
    rep = theta_l1_check(catalog("taylor", coeffs=[0, 1, 1]), 2, ball, fd)
    assert rep["ok"] and rep["lhs"] <= rep["rhs"]


def test_sup_on_disc():
    assert abs(sup_on_disc(lambda z: np.abs(z) ** 2) - 1.0) < 5e-3


def test_sup_on_disc_rejects_a_pole_on_a_sample():
    # 1/z is infinite at the sample point 0, and no finite estimate bounds it
    with pytest.raises(ValueError, match="non-finite sample"), np.errstate(divide="ignore", invalid="ignore"):
        sup_on_disc(lambda z: 1.0 / z)


# -- weighted Bergman projection ----------------------------------------------


def test_bergman_kernel_values():
    k = bergman_kernel(DISC)
    assert abs(k(0.0, 0.0) - 1 / math.pi) < 1e-15
    ks = s_bergman_kernel(DISC, 2)
    assert abs(ks(0.3 + 0.1j, 0.0) - 3 / math.pi) < 1e-14


def test_bergman_kernel_pullback_covariance():
    c = Moebius.cayley()
    k_d = bergman_kernel(DISC)
    k_h = bergman_kernel(UPPER_HALF)
    for z, w in [(0.1 + 0.2j, -0.3j), (0.4, 0.2 - 0.1j)]:
        lhs = k_h(c(z), c(w)) * c.deriv(z) * np.conj(c.deriv(w))
        assert abs(lhs - k_d(z, w)) < 1e-12


def test_projection_fixes_holomorphic_monomials():
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6])
    for k in range(5):
        vals = bergman_project(lambda w, k=k: np.asarray(w) ** k, 2, zs)
        assert np.max(np.abs(vals - zs**k)) < 1e-12, k


def test_projection_constant_at_origin():
    v = bergman_project(lambda w: np.ones_like(np.asarray(w, dtype=complex)), 2, 0.0)
    assert abs(v - 1.0) < 1e-12


def test_projection_kills_antiholomorphic():
    v = bergman_project(lambda w: np.conj(w), 2, 0.35 + 0.1j)
    assert abs(v) < 1e-12


def test_projection_symmetry_in_pairing():
    # f = w^2 conj(w), g = w + conj(w): beta f = 2w/5, so both sides equal
    # <2w/5, w + conj(w)> = pi/30.  The projection is exact on the basis z^k,
    # so each side and every nodal value of beta f meet the closed form to
    # round-off on every grid, the coarse one included.
    from schwarzian_lab.automorphic import projection_symmetry_check

    f = lambda w: np.asarray(w) ** 2 * np.conj(w)
    g = lambda w: np.asarray(w) + np.conj(w)
    for R, M in [(24, 48), (48, 96), (96, 256)]:
        grid = disc_quadrature(R=R, M=M)
        rep = projection_symmetry_check(f, g, 2, grid)
        assert abs(rep["lhs"] - math.pi / 30) < 1e-12, (R, M)
        assert abs(rep["rhs"] - math.pi / 30) < 1e-12, (R, M)
        nodal = bergman_project(f, 2, grid.nodes, grid)
        assert np.max(np.abs(nodal - 2 * grid.nodes / 5)) < 1e-12, (R, M)


def test_projection_sums_by_the_shared_horner_rule(monkeypatch):
    # the coefficients the projection hands to the shared rule, summed by the
    # zeros-then-Horner loop it used to run, give the same bits
    calls = []

    def recording(coeffs, w):
        calls.append((coeffs, w))
        return _horner(coeffs, w)

    monkeypatch.setattr(automorphic, "_horner", recording)
    f = lambda w: np.exp(w) * np.abs(w) ** 2
    for z in (np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6]), 0.25 - 0.1j):
        vals = bergman_project(f, 2, z)
        c, _ = calls.pop()
        zs = np.asarray(z, dtype=complex)
        ref = np.zeros_like(zs)
        for ck in c[::-1]:
            ref = ref * zs + ck
        assert np.shape(vals) == np.shape(z) and np.array_equal(vals, ref)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_projection_matches_dense_kernel_sum(s):
    # oracle: the node sum of K_s(z, w) f(w) (1-|w|^2)^(2s-2) for a smooth
    # non-polynomial f; at |z| <= 1/2 the kernel is smooth, so the sum is
    # accurate on the default grid
    f = lambda w: np.exp(w) * np.abs(w) ** 2
    grid = disc_quadrature()
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.5, 0.25 - 0.35j])
    wgt = f(grid.nodes) * (1.0 - np.abs(grid.nodes) ** 2) ** (2 * s - 2) * grid.weights
    dense = s_bergman_kernel(DISC, s)(zs[:, None], grid.nodes[None, :]) @ wgt
    assert np.max(np.abs(dense)) > 0.1  # nondegenerate
    assert np.max(np.abs(bergman_project(f, s, zs) - dense)) < 1e-10


def whole_grid_projection(f, s, z, grid):
    """The projection from every node at once: one array of values, of FFT
    modes and of Gauss moments, and one sum over the rings."""
    r, ring_w, m = product_rings(grid, "disc")
    rings = np.asarray(f(grid.nodes), dtype=complex).reshape(r.size, m)
    k = np.arange(m // 2)
    modes = np.fft.fft(rings, axis=1)[:, : m // 2]
    moments = (ring_w * (1.0 - r * r) ** (2 * s - 2))[:, None] * r[:, None] ** k
    binom = np.ones(k.size)  # C(k+2s-1, k)
    for j in range(1, 2 * s):
        binom *= (k + j) / j
    return _horner((2 * s - 1) / math.pi * binom * np.sum(moments * modes, axis=0), np.asarray(z, dtype=complex))


@pytest.mark.parametrize("block", [integrals.BLOCK_NODES, 1, 100, 2048])
@pytest.mark.parametrize("R, M", [(8, 16), (24, 48), (96, 256)])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_projection_has_the_bits_of_the_whole_grid_sum(monkeypatch, block, R, M, s):
    monkeypatch.setattr(integrals, "BLOCK_NODES", block)
    grid = disc_quadrature(R, M)
    f = lambda w: np.exp(w) * np.abs(w) ** 2
    for z in (np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6]), grid.nodes):
        assert bergman_project(f, s, z, grid).tobytes() == whole_grid_projection(f, s, z, grid).tobytes()


@pytest.mark.parametrize("R, M", [(96, 256), (8, 16)])
def test_projection_of_a_non_finite_f_raises(R, M):
    grid = disc_quadrature(R, M)
    last = grid.nodes[-1]
    with pytest.raises(ValueError, match="non-finite density value"):
        bergman_project(lambda w: np.where(w == last, np.nan, w), 2, 0.1, grid)


def test_projection_holds_no_whole_grid_temporaries():
    # values, modes and moments for all 24,576 nodes of the default grid at
    # once peaked at 1.32 MB; a block of rings and the moment table stay under 0.6 MB
    grid = disc_quadrature()
    f = lambda w: np.exp(w) * np.abs(w) ** 2
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6])
    bergman_project(f, 2, zs, grid)  # fill the rule and grid caches
    tracemalloc.start()
    try:
        bergman_project(f, 2, zs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6e6


def test_projection_rejects_grids_without_rings():
    fd = fundamental_annulus_grid(0.5, 2.8, 4.0, n_rad=8, n_ang=8)
    with pytest.raises(ValueError):
        bergman_project(lambda w: w, 2, 0.1, fd)
    with pytest.raises(ValueError):
        bergman_project(lambda w: w, 2, 0.1, half_plane_quadrature(R=8, M=8))

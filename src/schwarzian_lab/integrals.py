"""Two-dimensional quadrature over hyperbolic domains and the integral
operators built on it: the differential of the higher Bers maps at the
origin, the first-order Beltrami term, the Ahlfors-Weill section, the
corrected reproducing formula, and the omega-function pairing criterion.

Every grid is a Gauss-Legendre x trapezoid product rule.  Each Gauss-Legendre
rule (`legendre_rule`) is Newton on the three-term recurrence for P_n from
asymptotic guesses: O(n^2) work in a few sweeps of O(n) vector operations, no eigenproblem.
Exterior-disc integrals are computed through the substitution
eta = 1/conj(zeta), d^2 eta = |zeta|^-4 d^2 zeta, which maps the exterior
onto the punctured disc and removes all tail truncation for kernels decaying
like |eta|^-4; the grid is built from its radial and angular factors.
Half-plane ones go through the Cayley map eta = i(1+zeta)/(1-zeta),
d^2 eta = 4|1-zeta|^-4 d^2 zeta, and are not truncated.  Each grid, like
each rule, is built once per size and process (`functools.lru_cache`) and
shared read-only, so a caller must not edit a grid's `meta` in place.  A disc
or exterior product grid keeps only its rings: node radii, ring weights and
the M roots of unity.  Its `nodes` and `weights` arrays are built, read-only,
the first time a node sum reads them; `ring_moments` never does.

Every spectral integral, `d0_beta`, the left side of `kernel_criterion_check`
and `automorphic.bergman_project`, is one loop, `ring_moments`: one FFT per
ring of a product grid times a radial table, summed over the rings a block at
a time.  On the exterior the table is w r^p and the sums are the moments
m_p = integral of nu eta^-p, p < M, the coefficients of (z-eta)^-(k+1) as a
power series in z for |z| < 1 < |eta|.
Both share one setup that reads the coefficients, sizes a grid a priori when
given none (`exterior_grid`) and checks nu's domain and the grid's angles
before nu is read; the criterion reports `nodes` and `quad_error`.  Its
right side (`weighted_pairing`) and `w1_term` stay node sums, not moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .maps import DISC, EXTERIOR_DISC, LOWER_HALF, UPPER_HALF, HyperbolicDomain, NonFiniteError, _read_only, _ring_nodes, _roots_of_unity, compare, quiet, vec_eval
from .norms import bn_norm_estimate
from .symbolic import DiffExpr, monomial_coefficients, series_constant, series_letter, sigma_expr

# Nodes per block of whole rings in which `ring_moments` reads an integrand:
# the block's nodes, values, modes and moduli then take about 64 kB each, where
# the 192 x 512 grid's nodes and values would take 1.5 MB each.
BLOCK_NODES = 4096


class QuadGrid:
    """Nodes and weights of a rule on `domain`, and its `meta`.  A product
    grid (`_ring_grid`) holds only its rings, `rings` = (node radii, ring
    weights, the M roots of unity), and builds its `nodes`, ring by ring from
    angle 0, and `weights` from them on first read, read-only; any other grid
    has `rings` None.  Two grids are equal only when they are the same
    object, so grids of different sizes never collide as keys."""

    def __init__(self, domain: HyperbolicDomain, nodes=None, weights=None, meta=None, rings=None):
        self.domain, self.meta, self.rings = domain, {} if meta is None else meta, rings
        if rings is None:
            self.nodes, self.weights = nodes, weights

    def _ring_block(self, rings: slice) -> np.ndarray:
        """The nodes of the product grid's rings `rings`, ring by ring."""
        radii, _ring_weights, roots = self.rings
        return (radii[rings, None] * roots).ravel()

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(self._ring_block(slice(None)))

    @cached_property
    def weights(self) -> np.ndarray:
        _radii, ring_weights, roots = self.rings
        return _read_only(np.repeat(ring_weights, roots.size))


@lru_cache(maxsize=None)
def legendre_rule(n: int) -> tuple:
    """Gauss-Legendre nodes and weights of order n >= 1 on [-1, 1], computed
    once per process and shared read-only by every grid that uses them.

    Newton on P_n from Tricomi's guesses cos(t_k) (1 - (n-1)/(8n^3) -
    (39 - 28/sin^2 t_k)/(384n^4)), t_k = pi(4k-1)/(4n+2), over the
    nonnegative nodes only: each step is one sweep of the three-term
    recurrence, O(n) vector operations, which also gives the weights
    2/((1-x^2) P_n'^2), with P_n' carried to the updated node by one Taylor
    step of Legendre's equation.  It stops once the step's own quadratic
    error, x dx^2/(1-x^2), is at most 2^-55.  The negative nodes
    follow by exact symmetry, and odd n has the node 0 exactly.  No
    eigenproblem is solved.
    """
    if n < 1:
        raise ValueError(f"Gauss-Legendre rule needs order n >= 1, got {n}")
    t = math.pi / (4 * n + 2) * (4 * np.arange(1, (n + 1) // 2 + 1) - 1)
    x = (1.0 - (n - 1) / (8 * n**3) - (39.0 - 28.0 / np.sin(t) ** 2) / (384 * n**4)) * np.cos(t)
    if n % 2:
        x[-1] = 0.0
    for _ in range(10):
        p, q = _legendre_pair(n, x)
        s = 1.0 - x * x
        dp = n * (q - x * p) / s  # P_n'
        dx = p / dp
        if np.all(x * dx * dx <= 2.0**-55 * s):
            break
        x = x - dx
    else:
        raise ArithmeticError(f"Newton on P_{n} did not settle in 10 sweeps")
    dp *= 1.0 - dx * (2.0 * x - n * (n + 1) * dx) / s  # P_n' at x - dx, by P_n'' = (2x P_n' - n(n+1) P_n)/(1-x^2)
    x = x - dx
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = n // 2
    x, w = np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_pair(n: int, x: np.ndarray):
    """P_n(x) and P_(n-1)(x) by the recurrence (j+1) P_(j+1) = (2j+1) x P_j -
    j P_(j-1), written as P_(j+1) = t - j/(j+1) (P_(j-1) - t), t = x P_j, in
    four in-place vector operations per degree."""
    p0, p1 = np.ones_like(x), x.copy()
    for j in range(1, n):
        t = x * p1
        p0 -= t
        p0 *= j / (j + 1)
        t -= p0
        p0, p1 = p1, t
    return p1, p0


def _gauss_legendre(n: int):
    x, w = legendre_rule(n)
    return 0.5 * x + 0.5, 0.5 * w


def _ring_grid(domain, radii, ring_weights, M: int, kind: str, R: int) -> QuadGrid:
    """Product grid of M nodes radii[i] e^(i theta_j) on ring i, each weighted
    ring_weights[i], kept as its rings."""
    rings = tuple(map(_read_only, (radii, ring_weights, _roots_of_unity(M))))
    return QuadGrid(domain, meta={"kind": kind, "R": R, "M": M}, rings=rings)


def _disc_rings(R: int, M: int):
    """Gauss radii r and ring weights w_r r 2 pi/M of the disc grid."""
    r, wr = _gauss_legendre(R)
    return r, wr * r * (2.0 * math.pi / M)


@lru_cache(maxsize=None)
def disc_quadrature(R: int = 96, M: int = 256) -> QuadGrid:
    """Gauss-Legendre radial x uniform angular product rule on the unit disc:
    nodes r e^(i theta), weights w_r r 2 pi/M.  Built once per (R, M) and
    shared read-only."""
    return _ring_grid(DISC, *_disc_rings(R, M), M, "disc", R)


def _exterior_rings(R: int, M: int):
    """Disc radii r and ring weights w_r r^-3 2 pi/M of the exterior grid."""
    r, wr = _gauss_legendre(R)
    return r, wr * (1.0 / r) ** 3 * (2.0 * math.pi / M)


@lru_cache(maxsize=None)
def exterior_disc_quadrature(R: int = 96, M: int = 256) -> QuadGrid:
    """Exterior of the closed unit disc as the image eta = 1/conj(zeta) of
    `disc_quadrature`, d^2 eta = |zeta|^-4 d^2 zeta, built from its factors:
    nodes e^(i theta)/r, weights w_r r^-3 2 pi/M.  Built once per (R, M) and
    shared read-only."""
    r, ring_weights = _exterior_rings(R, M)
    return _ring_grid(EXTERIOR_DISC, 1.0 / r, ring_weights, M, "exterior_disc", R)


@lru_cache(maxsize=None)
def _exterior_powers(R: int, M: int) -> np.ndarray:
    """Row i holds w_i r_i^p for p < M, the ring weights of
    `exterior_disc_quadrature(R, M)` times the powers of its disc radii;
    built once per (R, M), from the rule and not from the grid, read-only."""
    r, ring_weights = _exterior_rings(R, M)
    powers = np.empty((R, M))
    powers[:, 0] = ring_weights
    powers[:, 1:] = r[:, None]
    return _read_only(np.cumprod(powers, axis=1, out=powers))


def product_rings(grid: QuadGrid, kind: str):
    """Gauss radii r, ring weights and angle count M of a `disc_quadrature`
    (kind "disc") or `exterior_disc_quadrature` grid (kind "exterior_disc"),
    whose nodes run ring by ring from angle 0: r e^(i theta) on the disc,
    e^(i theta) / r on the exterior.  ValueError for any other grid."""
    if grid.rings is None or grid.meta.get("kind") != kind:
        raise ValueError(f"expected a {kind}_quadrature product grid, got {grid.meta.get('kind', grid.domain.tag)!r}")
    return _gauss_legendre(grid.meta["R"])[0], grid.rings[1], grid.meta["M"]


def ring_moments(f, grid: QuadGrid, table: np.ndarray):
    """sum over rings i of table[i, p] FFT_p(ring i) for p < P, and the sum of
    |f| over each ring, on a disc or exterior product grid of R rings of M
    nodes and an R x P table, P <= M.  f is a callable on arrays of nodes or
    its values at the grid's nodes, read in blocks of whole rings of about
    BLOCK_NODES nodes, whose nodes are made from the grid's rings, so the
    grid's node array is never built; NonFiniteError if a ring sum or a
    moment is not finite.  The rings' weighted modes are added in ring order,
    as `sum(axis=0)` over all rings adds them, so the sums have the same bits
    at every block size."""
    m = grid.meta["M"]
    rings, p = table.shape
    step = max(1, BLOCK_NODES // m)
    ring_sums = np.empty(rings)
    moments = np.zeros(p, dtype=complex)
    with quiet():
        for i in range(0, rings, step):
            vals = vec_eval(f, grid._ring_block(slice(i, i + step))) if callable(f) else f[i * m : (i + step) * m]
            block_rings = np.reshape(vals, (-1, m))
            ring_sums[i : i + step] = np.abs(block_rings).sum(axis=1)
            modes = np.fft.fft(block_rings, axis=1)[:, :p]
            modes *= table[i : i + step]
            modes[0] += moments
            moments = modes.sum(axis=0)  # row by row, in ring order
    if not (np.all(np.isfinite(ring_sums)) and np.all(np.isfinite(moments))):
        raise NonFiniteError("non-finite density value or overflowing sum on quadrature nodes", "a node")
    return moments, ring_sums


@lru_cache(maxsize=None)
def half_plane_quadrature(R: int = 32, M: int = 256) -> QuadGrid:
    """Upper half-plane as the Cayley image eta = i(1+zeta)/(1-zeta) of the
    disc rule, weights times 4/|1-zeta|^4.  Nothing is truncated, and for q >= 2
    `repro_check`'s integrands pull back analytic on the closed disc.  Built
    once per (R, M) and shared read-only, from the disc rule's rings."""
    r, ring_weights = _disc_rings(R, M)
    zeta = _ring_nodes(r, M)
    d = 1.0 - zeta
    nodes = 1j * (1.0 + zeta) / d
    s = 1.0 / (d.real * d.real + d.imag * d.imag)  # 1/|1-zeta|^2
    weights = np.repeat(ring_weights, M) * 4.0 * (s * s)
    return QuadGrid(UPPER_HALF, _read_only(nodes), _read_only(weights), {"kind": "half_plane", "R": R, "M": M})


def quad2d(integrand, grid: QuadGrid) -> complex:
    """Weighted node sum, NonFiniteError if it is not finite.  Deterministic for a
    fixed grid: evaluation order and pairwise reduction follow the node layout."""
    with quiet():
        total = np.sum(vec_eval(integrand, grid.nodes) * grid.weights)
    if not np.isfinite(total):
        raise NonFiniteError("non-finite integrand value or overflowing sum on quadrature nodes", "a node")
    return complex(total)


def half_plane_tail_estimate(integrand, grid: QuadGrid, decay: float = 4.0) -> float:
    """Bound on the discarded |z| > radius mass, assuming |F| <= C r^-decay
    beyond the truncation circle with C calibrated on the outer arc.  No
    library grid truncates; the name stays only because perfbench pins it."""
    radius = grid.meta["radius"]
    theta = np.linspace(1e-3, math.pi - 1e-3, 181)
    ring = radius * np.exp(1j * theta)
    peak = float(np.max(np.abs(vec_eval(integrand, ring))))
    if decay <= 2.0:
        return math.inf
    # integral of C r^-decay * r dr dtheta over r > radius, angle range pi
    return math.pi * peak * radius**2 / (decay - 2.0)


def weighted_pairing(f, g, s: int, grid: QuadGrid) -> complex:
    """integral over the grid of f * conj(g) * lambda^(2-2s), by `quad2d`."""

    def integrand(w):
        fv, lam = vec_eval(f, w), grid.domain.density(w)  # named: one unnamed expression moves the last bits
        return fv * np.conj(vec_eval(g, w)) * lam ** (2.0 - 2.0 * s)

    return quad2d(integrand, grid)


# -- densities ---------------------------------------------------------------


@dataclass(frozen=True)
class DensityFn:
    """Bounded measurable coefficient on a domain, with its sup-norm bound."""

    fn: object
    domain: HyperbolicDomain
    sup_bound: float

    def __call__(self, z):
        return self.fn(z)


def ahlfors_weill(phi, z) -> complex:
    """Ahlfors-Weill dilatation at a single exterior point:

        s(phi)(z) = -1/2 * phi(1/conj(z)) * (1 - |z|^2)^2 / conj(z)^4.

    Substituting w = 1/conj(z) shows |s(phi)(z)| = 1/2 |phi(w)| (1-|w|^2)^2,
    so the section is bounded by half the B_2 norm of phi and vanishes
    quadratically at the unit circle; this is exactly the normalization under
    which the differential of the Bers map at the origin inverts it.
    """
    if np.ndim(z) == 0 and not EXTERIOR_DISC.contains(z):
        raise ValueError("Ahlfors-Weill section lives on the exterior of the closed disc")
    zb = np.conj(z)
    zb2 = zb * zb
    return -0.5 * phi(1.0 / zb) * (1.0 - np.abs(z) ** 2) ** 2 / (zb2 * zb2)


def ahlfors_weill_density(phi) -> DensityFn:
    """The section as a DensityFn on the exterior disc, bounded by half the
    sampled B_2 norm of phi."""
    return DensityFn(lambda z: ahlfors_weill(phi, z), EXTERIOR_DISC, 0.5 * bn_norm_estimate(phi, 2))


# -- integral operators --------------------------------------------------------


# Largest size of the first kernel mode an auto-sized exterior grid drops.
QUAD_TOL = 1e-9
# Node counts per direction of the auto-sized exterior grids, about 1.5x apart.
EXTERIOR_RUNGS = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768)


def exterior_grid(z: complex, power: int) -> QuadGrid:
    """The grid `d0_beta` and `kernel_criterion_check` build when given none,
    sized a priori from |z| and the top kernel power p = k + 1 of (z-eta)^-p:
    R >= 2p radii, with which the radial Gauss rule settles on Ahlfors-Weill
    sections at |z| <= 0.9, and the fewest angles M >= 2R that bring the first
    dropped kernel mode, about C(M + p, p) |z|^M, below QUAD_TOL.  Both counts
    come from EXTERIOR_RUNGS; ValueError past its 768 angles."""
    R = next((R for R in EXTERIOR_RUNGS if R >= 2 * power), EXTERIOR_RUNGS[-1])
    M = next((M for M in EXTERIOR_RUNGS if M >= 2 * R and math.comb(M + power, power) * abs(z) ** M <= QUAD_TOL), None)
    if M is None:
        raise ValueError(f"kernel power {power} at |z| = {abs(z):.3g} needs more than {EXTERIOR_RUNGS[-1]} angles")
    return exterior_disc_quadrature(R, M)


def _d0_setup(coeffs, nu, z: complex, grid: QuadGrid | None):
    """The coefficient map (read off a DiffExpr) and the grid (`exterior_grid`
    if None); ValueError before nu is read if nu lives on another domain, or
    the grid is no exterior product grid with more than top k + 1 angles."""
    if isinstance(coeffs, DiffExpr):
        coeffs = monomial_coefficients(coeffs)
    top = max((k for k, _l in coeffs), default=0)
    grid = grid or exterior_grid(z, 1 + top)
    if getattr(nu, "domain", grid.domain) != grid.domain:
        raise ValueError(f"density lives on {nu.domain.tag}, grid on {grid.domain.tag}")
    m = product_rings(grid, "exterior_disc")[2]
    if m <= top + 1:
        raise ValueError(f"a kernel of order {top} needs more than {top + 1} angles, the grid has {m}")
    return coeffs, grid


def _d0_series(coeffs: dict, nu, z: complex, grid: QuadGrid):
    """The d0_beta sum from nu (a callable or its values, as `ring_moments`
    takes it) on an exterior product grid, and a bound on its error: the
    series' tail past the last mode plus round-off.  NonFiniteError if the sum
    is not finite, as it may be when finite moments are large.

    I_k = (-1)^(k+1) S_k with S_k = sum_j C(j+k, k) z^j m_(j+k+1), so the
    (k, l) term is -(a_kl k!/pi) S_k.  The same sums over the moments of |nu|
    weigh the round-off, and the last of those bounds every dropped |m_p|.
    """
    radii, _ring_weights, m = product_rings(grid, "exterior_disc")
    powers = _exterior_powers(radii.size, m)
    moments, ring_sums = ring_moments(nu, grid, powers)
    total, size, tail, r = 0j, 0.0, 0.0, abs(z)
    with quiet():
        absolute = ring_sums @ powers
        for (k, _l), a in coeffs.items():
            a = float(a) * math.factorial(k)
            j = np.arange(1, m - k - 1)
            t = np.cumprod(np.r_[1.0, z * (j + k) / j])  # C(j+k, k) z^j for j < M-k-1
            total += a * np.dot(t, moments[k + 1 :])
            size += abs(a) * np.dot(np.abs(t), absolute[k + 1 :])
            ratio = r * m / (m - k)  # bounds the ratio of successive dropped terms
            tail += abs(a) * math.comb(m - 1, k) * r ** (m - k - 1) * absolute[-1] / (1.0 - ratio) if ratio < 1.0 else math.inf
    if not np.isfinite(total):
        raise NonFiniteError(f"the d0_beta moment series is {total}", "a node")
    return complex(-total / math.pi), (tail + size * np.finfo(float).eps * m) / math.pi


def d0_beta(coeffs, nu, z: complex, grid: QuadGrid | None = None) -> complex:
    """Differential at the origin of a higher Bers map, applied to nu:

        sum over (k,l) of a_{k,l} * ((-1)^k k!/pi) * I_k,
        I_k = integral over the exterior disc of nu(eta)/(z-eta)^(k+1)
            = (-1)^(k+1) sum_j C(j+k, k) z^j m_(j+k+1),

    with the moments m_p = integral of nu eta^-p dA from `ring_moments`.
    `coeffs` is either the {(k,l): a_kl} map of degree-one coefficients or a
    canonical DiffExpr from which they are extracted.  Linear in nu, which is
    evaluated once per node, a block of rings at a time.  The grid must be an
    `exterior_disc_quadrature` grid (ValueError for any other); with none,
    `exterior_grid` sizes one from |z| and the top kernel power.
    """
    coeffs, grid = _d0_setup(coeffs, nu, z, grid)
    return _d0_series(coeffs, nu, z, grid)[0]


def d0_beta_norm_bound(n: int, series: str) -> float:
    """Operator-norm bound 2*4^(n-1) n! c(n) / (n-1) for the weighted value
    |d0_beta(sigma_n)(nu)(z)| * lambda(z)^(1-n) against ||nu||_inf."""
    c = series_constant(sigma_expr(series, n))
    return 2.0 * 4.0 ** (n - 1) * math.factorial(n) * c / (n - 1)


def w1_term(nu: DensityFn, z, grid: QuadGrid | None = None, norm_terms=(0.0, 0.0)) -> complex:
    """First-order term of the normalized deformation in direction nu:

        w1(z) = -(z(z-1)/pi) * integral of nu(eta) / (eta (eta-1) (eta-z)).

    `norm_terms` = (A, B) adds the normalization kernel A*z/(eta-1) +
    B*(z-1)/eta inside the integral; these affine-in-z terms change no
    second or higher z-derivative, which is what makes the normalization
    choice irrelevant for the Schwarzian data extracted from w1.
    """
    grid = grid or exterior_disc_quadrature()
    A, B = norm_terms

    def integrand(eta):
        base = z * (z - 1.0) / (eta * (eta - 1.0) * (eta - z))
        extra = A * z / (eta - 1.0) + B * (z - 1.0) / eta
        return nu(eta) * (base + extra)

    return -quad2d(integrand, grid) / math.pi


def beltrami_from_bers(phi, q: int) -> DensityFn:
    """Coefficient mu on the upper half-plane reproducing phi in B_q of the
    lower half-plane:  mu(eta) = -((q+1)/pi) * phi(conj eta) * (eta - conj eta)^q.

    Built from the reflection h(z) = conj(z): the factor (eta - h(eta))^q is
    (2i Im eta)^q and d-bar of h is 1.  The constant -(q+1)/pi is the s = (q+2)/2
    specialization of the reproducing-kernel coefficient.
    """
    c_q = -(q + 1) / math.pi

    def mu(eta):
        return c_q * phi(np.conj(eta)) * (eta - np.conj(eta)) ** q

    return DensityFn(mu, UPPER_HALF, math.nan)


def repro_check(phi, q: int, z: complex, grid: QuadGrid | None = None) -> dict:
    """Reproducing identity phi(z) = integral over the upper half-plane of
    mu^q_phi(eta)/(eta-z)^(q+2), for phi in B_q of the lower half-plane.

    Nothing is truncated, so `relerr` against the exact phi(z) is the check's
    whole error.  The two kernel orientations (eta-z) and (z-eta) agree for
    even q and differ by a sign for odd q; the (eta-z)^(q+2) form is the one
    that reproduces phi for all q (the q = 3 case decides it), and the report
    records the opposite orientation alongside rather than hiding it.
    """
    if not LOWER_HALF.contains(z):
        raise ValueError("evaluation point must lie in the lower half-plane")
    grid = grid or half_plane_quadrature()
    with quiet():  # quad2d checks both sums, which a non-finite value makes non-finite
        mu_vals = vec_eval(beltrami_from_bers(phi, q), grid.nodes)
    lhs = complex(phi(z))
    rhs = quad2d(lambda eta: mu_vals / (eta - z) ** (q + 2), grid)
    rhs_alt = quad2d(lambda eta: mu_vals / (z - eta) ** (q + 2), grid)
    return compare(lhs, rhs, rhs_alt_sign=rhs_alt, grid=dict(grid.meta))


def kernel_criterion_check(nu, n: int, z: complex, series: str = "A", grid: QuadGrid | None = None) -> dict:
    """Pairing form of the differential:  d0_beta(sigma_n)(nu)(z) equals
    -(n! c(n)/pi) * <omega_z^{n+1}, conj(nu) lambda^2>_2 with
    omega_z^l(w) = (w-z)^(-l), the pairing taken over the exterior disc at
    weight s = 2.  The left side is d0_beta's moment series, the right side a
    node sum of `weighted_pairing` over the same values of nu.  With no grid,
    `exterior_grid` sizes one and the report adds `nodes` and `quad_error`:
    the series' own bound plus |lhs - rhs|, which bounds both sides."""
    expr = sigma_expr(series, n)
    c = float(series_constant(expr))
    auto = grid is None
    coeffs, grid = _d0_setup(expr, nu, z, grid)
    with quiet():  # ring_moments checks its sums of these values
        nu_vals = vec_eval(nu, grid.nodes)
    lhs, error = _d0_series(coeffs, nu_vals, z, grid)
    pairing = weighted_pairing(lambda w: (w - z) ** (-(n + 1.0)), lambda w: np.conj(nu_vals) * grid.domain.density(w) ** 2, 2, grid)
    rhs = -(math.factorial(n) * c / math.pi) * pairing
    extra = {"quad_error": error + abs(lhs - rhs), "nodes": grid.nodes.size} if auto else {}
    return compare(lhs, rhs, n=n, series=series_letter(series), **extra)

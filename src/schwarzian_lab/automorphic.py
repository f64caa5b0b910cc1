"""Fuchsian-group machinery on the unit disc.

Word-ball enumeration for finitely generated groups of disc automorphisms,
truncated Poincare series with decay-based tail estimates, Weil-Petersson
pairings over fundamental domains, the weighted Bergman kernel and its
projection operator, and the difference functions z^k - g(z)^k g'(z)^q that
group averaging annihilates.  A bad generator or axis is a ValueError.

The only groups with a fundamental domain we parameterize exactly are cyclic
hyperbolic ones: conjugating the generator to a pure dilation turns the
quotient into a round half-annulus, which we sample with Gauss-Legendre
nodes and pull back to the disc with the exact Jacobian.  That is accurate
to quadrature order, unlike rejection sampling against isometric circles.

The disc-side integrals of the Bergman projection and of the unfolding lemma
are computed on the basis z^k, which the rotation-invariant weight
(1 - |w|^2)^(2s-2) keeps orthogonal, with

    <z^k, z^k>_s = integral of |w|^(2k) (1 - |w|^2)^(2s-2) dA
                 = pi k! (2s-2)! / (k+2s-1)!.

The projection takes one FFT per ring of a `disc_quadrature` grid, where the
trapezoid rule in the angle is spectrally accurate, and Gauss moments in the
radius, in `integrals.ring_moments`; the lemma reads Taylor coefficients off
an FFT on a circle.  Neither builds a kernel matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .integrals import QuadGrid, disc_quadrature, legendre_rule, product_rings, ring_moments, weighted_pairing
from .jets import _horner
from .maps import DISC, LOWER_HALF, UPPER_HALF, AnalyticFn, HyperbolicDomain, Moebius, _axis, _c2pair, _read_only, _ring_nodes, compare, poincare_density, vec_eval
from .norms import _weighted_max


def _preserves_disc(g: Moebius) -> bool:
    """g, of determinant 1, maps the disc onto itself iff its matrix is +-(a, b; conj b, conj a)."""
    return abs(g.c - g.b.conjugate()) + abs(g.d - g.a.conjugate()) <= 1e-9 * max(abs(g.a), 1)


def _psl_key(g: Moebius) -> tuple:
    """Hashable key identifying g up to overall matrix scale.

    The matrix is projectivized by its largest-modulus entry before rounding,
    which keeps every key entry O(1).  Rounding the raw entries instead would
    start missing duplicates once long words push entries past ~1e3, where
    accumulated float drift crosses the absolute rounding grid (seen as word
    balls growing beyond the group's true element count)."""
    mat = (g.a, g.b, g.c, g.d)
    big = max(abs(v) for v in mat)
    pivot = next(v for v in mat if abs(v) >= big * (1 - 1e-12))
    mat = tuple(v / pivot for v in mat)
    return tuple((round(v.real, 9), round(v.imag, 9)) for v in mat)


@dataclass(frozen=True)
class GroupBall:
    """All reduced words of length <= radius in a set of generators.

    ``elements[i]`` carries the Moebius value of the i-th word and
    ``word_lengths[i]`` its length; the identity sits at index 0.  Values
    are deduplicated up to matrix sign, so the ball is closed under
    inversion and contains no repeated maps.
    """

    generators: tuple
    radius: int
    elements: tuple
    word_lengths: tuple

    def by_length(self, r: int) -> list:
        return [g for g, l in zip(self.elements, self.word_lengths) if l == r]

    def boundary_sum(self, z: complex, q: int, r: int | None = None) -> float:
        """sum of |g'(z)|^q over words of length r (default: the ball radius)."""
        r = self.radius if r is None else r
        return float(sum(abs(g.deriv(z)) ** q for g in self.by_length(r)))

    def __len__(self) -> int:
        return len(self.elements)


def group_ball(gens, radius: int) -> GroupBall:
    """Breadth-first enumeration of the word ball of the given radius."""
    gens = tuple(gens)
    for g in gens:
        if not _preserves_disc(g):
            raise ValueError("generator does not preserve the unit disc")
    steps = list(gens) + [g.inverse() for g in gens]
    ident = Moebius.identity()
    seen = {_psl_key(ident)}
    elements, lengths = [ident], [0]
    frontier = [ident]
    for r in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for s in steps:
                cand = s.compose(w)
                key = _psl_key(cand)
                if key in seen:
                    continue
                seen.add(key)
                elements.append(cand)
                lengths.append(r)
                nxt.append(cand)
        frontier = nxt
    return GroupBall(gens, radius, tuple(elements), tuple(lengths))


def group_from_descriptor(desc: dict) -> list:
    """Generators from {"kind": "cyclic", "fixpoints": [t1, t2],
    "multiplier": m} or {"kind": "trivial"}."""
    kind = desc.get("kind")
    if kind == "trivial":
        return []
    if kind == "cyclic":
        t1, t2 = desc["fixpoints"]
        return [Moebius.hyperbolic(float(t1), float(t2), float(desc["multiplier"]))]
    raise ValueError(f"unknown group descriptor kind {kind!r}")


# -- Poincare series ----------------------------------------------------------


_SUP_POINTS = _read_only(np.concatenate(([0j], _ring_nodes(np.linspace(0.0, 0.999, 25)[1:], 64))))


def sup_on_disc(f) -> float:
    """Sampled estimate of sup |f| over the closed unit disc, the weighted max of `norms` at
    weight 1 over `_SUP_POINTS`, built once: the origin, then 24 radii up to 0.999 crossed
    with 64 angles.  NonFiniteError if it is not finite."""
    return _weighted_max(f, _SUP_POINTS)[0]


def theta_values(f, q: int, ball: GroupBall, z):
    """Truncated Poincare series sum_{g in ball} f(g z) g'(z)^q, vectorized.
    Each element's c z + d is computed once, for g(z) = (a z + b)/(c z + d)
    and g'(z) = 1/(c z + d)^2, by the operations of `Moebius.__call__` and
    `Moebius.deriv`, so the sum has their bits."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for g in ball.elements:
        w = g.c * z + g.d
        acc = acc + vec_eval(f, (g.a * z + g.b) / w) * (1.0 / w**2) ** q
    return acc


@dataclass(frozen=True)
class ThetaResult:
    value: complex
    tail_estimate: float
    automorphy_bound: float
    boundary_sum: float
    ratio: float
    radius: int

    def __complex__(self) -> complex:
        return self.value


def poincare_theta(f, q: int, ball: GroupBall, z: complex) -> ThetaResult:
    """Truncated Poincare series at z with decay-based error bounds.

    The tail over words longer than the ball radius is estimated
    geometrically: with B_r = sum_{|w|=r} |g'(z)|^q and rho = B_r/B_{r-1},
    the omitted mass is at most sup|f| * B_r * rho/(1-rho).  The reported
    automorphy bound sup|f| * B_r * (1+rho) dominates the defect
    |Theta(g0 z) g0'(z)^q - Theta(z)| of the truncated sum, because the
    symmetric difference between the ball and its g0-translate consists of
    words of length r and r+1 only.  A ball holding only the identity is
    exact for the trivial group (both bounds 0); for a radius-0 ball of any
    other group there are no boundary words to estimate decay from, so both
    bounds are infinite.
    """
    if q < 2:
        raise ValueError("weight must be >= 2")
    z = complex(z)
    if not DISC.contains(z):
        raise ValueError("evaluation point must lie in the unit disc")
    value = complex(theta_values(f, q, ball, z))
    if ball.radius == 0 or len(ball) == 1:
        # at radius >= 1 a one-element ball means every generator is the identity
        bound = 0.0 if ball.radius > 0 or not ball.generators else math.inf
        return ThetaResult(value, bound, bound, 0.0, 0.0, ball.radius)
    f_sup = sup_on_disc(f)
    b_r = ball.boundary_sum(z, q)
    b_prev = ball.boundary_sum(z, q, ball.radius - 1)
    ratio = b_r / b_prev if b_prev > 0 else 0.0
    tail = f_sup * b_r * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    auto = f_sup * b_r * (1.0 + ratio) if ratio < 1.0 else math.inf
    return ThetaResult(value, tail, auto, b_r, ratio, ball.radius)


def automorphy_residual(f, q: int, ball: GroupBall, z: complex) -> float:
    """|Theta(g0 z) g0'(z)^q - Theta(z)| for the truncated series, with g0
    the ball's first generator."""
    g0 = ball.generators[0]
    z = complex(z)
    lhs = complex(theta_values(f, q, ball, g0(z))) * g0.deriv(z) ** q
    rhs = complex(theta_values(f, q, ball, z))
    return abs(lhs - rhs)


def metzger_element(k: int, g: Moebius, q: int) -> AnalyticFn:
    """The function p(z) = z^k - g(z)^k g'(z)^q.

    Averaging p over the full group <g> gives zero: the series telescopes,
    since the subtracted term is exactly the weight-q pull-back of z^k by g.
    Truncated averages therefore shrink to the two boundary words, which is
    the decay the tests measure.
    """
    if k < 0 or q < 2:
        raise ValueError("need k >= 0 and weight q >= 2")
    mat = [_c2pair(g.a), _c2pair(g.b), _c2pair(g.c), _c2pair(g.d)]
    return AnalyticFn({"kind": "pullback_diff", "k": k, "q": q, "mat": mat})


# -- pairings over fundamental domains ----------------------------------------


@dataclass(frozen=True)
class PairingSpec:
    """Weight of a Weil-Petersson pairing <f,g> = integral of f conj(g)
    lambda^(2-2s) over a fundamental domain in the disc."""

    s: int

    def __post_init__(self):
        if int(self.s) != self.s or self.s < 2:
            raise ValueError("pairing weight must be an integer >= 2")


def wp_pairing(f, g, spec: PairingSpec, grid: QuadGrid) -> complex:
    if grid.domain is not DISC:
        raise ValueError(f"a Weil-Petersson pairing is taken on the disc, the grid is on {grid.domain.tag}")
    return weighted_pairing(f, g, spec.s, grid)


def dilation_conjugator(theta1: float, theta2: float) -> Moebius:
    """Moebius map sending the disc onto the upper half-plane with the
    boundary points p = e^{i theta1}, q = e^{i theta2} going to 0 and infinity.

    Closed form t(z) = u (z - p)/(z - q) with u = conj(v)/|v|, v = i p/(p - q).
    (z - p)/(z - q) sends the circle to a line through 0 and carries the
    circle's counter-clockwise tangent i p at p to v; the unit u turns v onto
    the positive real axis.  The disc lies to the left of that tangent, so it
    goes to the upper half-plane, with no choice of sign left: t(0) = u p/q
    has Im t(0) = |t(0)| |p - q|/2 > 0.  Conjugating the hyperbolic generator
    with these axis endpoints and multiplier m by t yields the pure dilation
    zeta -> m zeta.
    """
    _axis(theta1, theta2)
    p, q = np.exp(1j * theta1), np.exp(1j * theta2)
    v = 1j * p / (p - q)
    u = np.conj(v) / abs(v)
    return Moebius(u, -u * p, 1, -q)


def fundamental_annulus_grid(
    theta1: float,
    theta2: float,
    multiplier: float,
    n_rad: int = 48,
    n_ang: int = 96,
    r0: float = 1.0,
) -> QuadGrid:
    """Quadrature over a fundamental domain of the cyclic group generated by
    the hyperbolic map with the given axis and multiplier.

    In the conjugated picture the group is the dilation zeta -> m zeta on the
    upper half-plane, m = max(multiplier, 1/multiplier) for the generator or
    its inverse, and {r0 <= |zeta| < m r0, 0 < arg zeta < pi} is a
    fundamental domain for any r0 > 0.  Nodes are Gauss-Legendre in
    (log|zeta|, arg zeta), pulled back to the disc with the area Jacobian
    |(T^{-1})'|^2, so the grid's nodes live in the disc and its weights
    integrate d^2z there.
    """
    _axis(theta1, theta2, multiplier)
    t = dilation_conjugator(theta1, theta2)
    m = max(multiplier, 1 / multiplier)
    xs, wx = legendre_rule(n_rad)
    ps, wp = legendre_rule(n_ang)
    length = math.log(m)
    x = 0.5 * length * (xs + 1.0) + math.log(r0)
    wx = 0.5 * length * wx
    phi = 0.5 * math.pi * (ps + 1.0)
    wp = 0.5 * math.pi * wp
    zeta = np.exp(x[:, None] + 1j * phi[None, :]).ravel()
    w2d = (np.exp(2 * x)[:, None] * wx[:, None] * wp[None, :]).ravel()
    tinv = t.inverse()
    nodes = tinv(zeta)
    weights = w2d * np.abs(tinv.deriv(zeta)) ** 2
    meta = {
        "kind": "cyclic_fundamental_domain",
        "fixpoints": [theta1, theta2],
        "multiplier": multiplier,
        "n_rad": n_rad,
        "n_ang": n_ang,
        "r0": r0,
    }
    return QuadGrid(DISC, nodes, weights.astype(float), meta)


LEMMA_FFT = 64  # points of the FFT that reads f's Taylor coefficients
LEMMA_RADIUS = 0.5  # radius of the circle it samples


def lemma_scalar_check(f, h, spec: PairingSpec, ball: GroupBall, fd_grid: QuadGrid) -> dict:
    """Compare <f, Theta[h]> over a fundamental domain against <f, h> over
    the whole disc, for automorphic f.  Unfolding makes the two equal.

    h must be a polynomial, a `taylor` AnalyticFn of degree d < LEMMA_FFT/2
    (ValueError otherwise).  The disc side is then the coefficient sum

        <f, h>_D = sum_{k<=d} f_k conj(h_k) pi k! (2s-2)! / (k+2s-1)!,

    with h_k from h's jet at 0 and f_k from a LEMMA_FFT-point FFT of f on
    |z| = LEMMA_RADIUS.  `coeff_tail` is the largest coefficient in the
    upper half of that FFT.  For holomorphic f that half holds only modes
    >= LEMMA_FFT/2, so for decaying coefficients it bounds the modes
    >= LEMMA_FFT that alias onto each f_k LEMMA_RADIUS^k.
    """
    desc = h.descriptor() if isinstance(h, AnalyticFn) else {}
    if desc.get("kind") != "taylor":
        raise ValueError("lemma_scalar_check needs a polynomial h: a taylor AnalyticFn")
    d = len(desc["coeffs"]) - 1
    if d >= LEMMA_FFT // 2:
        raise ValueError(f"h has degree {d}; the coefficient FFT resolves degrees below {LEMMA_FFT // 2}")
    theta_h = lambda z: theta_values(h, spec.s, ball, z)
    lhs = wp_pairing(f, theta_h, spec, fd_grid)
    circle = _ring_nodes([LEMMA_RADIUS], LEMMA_FFT)
    modes = np.fft.fft(vec_eval(f, circle)) / LEMMA_FFT
    f_k = modes[: d + 1] / LEMMA_RADIUS ** np.arange(d + 1)
    h_k = np.asarray(h.jet(0.0, d).coeffs, dtype=complex)
    s2 = 2 * spec.s - 2
    norms = [math.pi * math.factorial(k) * math.factorial(s2) / math.factorial(k + s2 + 1) for k in range(d + 1)]
    rhs = complex(np.sum(f_k * np.conj(h_k) * norms))
    return compare(lhs, rhs, coeff_tail=float(np.max(np.abs(modes[LEMMA_FFT // 2 :]))))


def theta_l1_check(h, s: int, ball: GroupBall, fd_grid: QuadGrid) -> dict:
    """Truncated check of ||Theta[h]||_{L^1_s(F)} <= ||h||_{L^1_s(D)}, the
    right side on the default `disc_quadrature` grid."""
    disc_grid = disc_quadrature()
    lam_f = poincare_density(fd_grid.domain, fd_grid.nodes)
    lam_d = poincare_density(disc_grid.domain, disc_grid.nodes)
    lhs = float(np.sum(np.abs(theta_values(h, s, ball, fd_grid.nodes)) * lam_f ** (2 - s) * fd_grid.weights))
    rhs = float(np.sum(np.abs(vec_eval(h, disc_grid.nodes)) * lam_d ** (2 - s) * disc_grid.weights))
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1 + 1e-9)}


# -- Bergman kernels and projection -------------------------------------------


def bergman_kernel(domain: HyperbolicDomain = DISC):
    """Classical Bergman kernel k(z, w) of the disc or a half-plane,
    vectorized in both arguments.  On the disc k(z,w) = 1/(pi (1 - z
    conj(w))^2); the half-planes carry the pull-back of this along a
    biholomorphism."""
    if domain is DISC:
        return lambda z, w: 1.0 / (np.pi * (1.0 - np.asarray(z) * np.conj(w)) ** 2)
    if domain in (UPPER_HALF, LOWER_HALF):
        return lambda z, w: -1.0 / (np.pi * (np.asarray(z) - np.conj(w)) ** 2)
    raise ValueError(f"no Bergman kernel for domain {domain!r}")


def s_bergman_kernel(domain: HyperbolicDomain, s: int):
    """Weighted kernel K_s = (2s-1) pi^(s-1) k^s."""
    if s < 2:
        raise ValueError("weight must be >= 2")
    k = bergman_kernel(domain)
    pref = (2 * s - 1) * math.pi ** (s - 1)
    return lambda z, w: pref * k(z, w) ** s


@lru_cache(maxsize=None)
def _projection_tables(grid: QuadGrid, s: int) -> tuple:
    """The Gauss moments w_r r^(k+1) (1-r^2)^(2s-2), a row per ring, and the
    factors ((2s-1)/pi) C(k+2s-1, k), k < M/2, of a `disc_quadrature` grid;
    built once per grid and weight and shared, so never written to."""
    r, ring_w, m = product_rings(grid, "disc")
    k = np.arange(m // 2)
    binom = np.ones(k.size)  # C(k+2s-1, k)
    for j in range(1, 2 * s):
        binom *= (k + j) / j
    return (ring_w * (1.0 - r * r) ** (2 * s - 2))[:, None] * r[:, None] ** k, (2 * s - 1) / math.pi * binom


def bergman_project(f, s: int, z, grid: QuadGrid | None = None):
    """Weighted Bergman projection (beta f)(z) = integral of
    lambda^(2-2s)(w) K_s(z,w) f(w) over the disc, on the basis z^k:

        beta f = sum_k c_k z^k,
        c_k = ((2s-1)/pi) C(k+2s-1, k) integral of f conj(w)^k (1-|w|^2)^(2s-2) dA.

    On a `disc_quadrature` grid (ValueError for any other) of M angles,
    `ring_moments` reads f in blocks of rings (NonFiniteError if its sums are
    not finite) and takes the c_k, k < M/2, by one FFT per ring against the
    Gauss moments of `_projection_tables`; Horner's rule sums the series.  Fixes
    holomorphic f of the right growth; z may be a scalar or an array.
    """
    if s < 2:
        raise ValueError("weight must be >= 2")
    grid = grid or disc_quadrature()
    table, scale = _projection_tables(grid, s)
    c = scale * ring_moments(f, grid, table)[0]
    vals = _horner(c, np.asarray(z, dtype=complex))
    return complex(vals) if np.ndim(z) == 0 else vals


def projection_symmetry_check(f, g, s: int, grid: QuadGrid | None = None) -> dict:
    """<beta f, g> vs <f, beta g> on a shared grid, both by `weighted_pairing`."""
    grid = grid or disc_quadrature(R=24, M=48)
    bf = bergman_project(f, s, grid.nodes, grid)
    bg = bergman_project(g, s, grid.nodes, grid)
    return compare(weighted_pairing(lambda w: bf, g, s, grid), weighted_pairing(f, lambda w: bg, s, grid))

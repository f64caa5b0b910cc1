"""Möbius maps, hyperbolic domains with Poincaré densities, a catalog
of named analytic functions evaluable to jets, and the helpers that evaluate
a function on an array of points (`vec_eval`, `quiet`, `NonFiniteError`,
`_ring_nodes`), which the norm, quadrature and group layers share.

Densities use the curvature -4 normalization lambda_D(z) = (1-|z|^2)^{-1} on
the unit disc, which is the convention under which the sharp Schwarzian-norm
constant for schlicht functions is 6.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .jets import Jet, JetError, _any, _convolve, _horner, _is_exact, _reciprocal, jet_derive, jet_from_coeffs, jet_shift, jet_variable


class DomainError(ValueError):
    pass


# -- functions on arrays of points ---------------------------------------------


class NonFiniteError(ValueError):
    """A value that a sum or a sup needs finite is not, at `where`: "a sample point" or "a node"."""

    def __init__(self, message: str, where: str):
        super().__init__(message)
        self.where = where


# No numpy divide, overflow or invalid warnings, for values a NonFiniteError check reads.
quiet = partial(np.errstate, divide="ignore", over="ignore", invalid="ignore")


def vec_eval(fn, pts: np.ndarray) -> np.ndarray:
    """Evaluate fn on an array of complex points in one call; fn must return
    an array of the same shape."""
    vals = np.asarray(fn(pts), dtype=complex)
    if vals.shape != np.shape(pts):
        raise ValueError(f"callable returned shape {vals.shape} for points of shape {np.shape(pts)}")
    return vals


def _ring_nodes(radii, M: int) -> np.ndarray:
    """Nodes radii[i] e^(i theta_j), theta_j = 2 pi j / M, ring by ring from
    angle 0: one outer product."""
    return np.outer(radii, np.exp(1j * (2.0 * math.pi * np.arange(M) / M))).ravel()


def _inverse(x):
    """1/x, kept exact (a Fraction) for an int or Fraction x."""
    return Fraction(1, x) if _is_exact(x) else 1.0 / x


def moebius_jet(a, b, c, d, z0, order: int) -> Jet:
    """Jet of z -> (a z + b)/(c z + d) at z0.  The coefficients and z0 may be
    numpy arrays over a batch of maps and points: one batched jet.

    Closed form, O(order) operations: with t = 1/(c z0 + d), the jet is
    c_0 = (a z0 + b) t and c_k = (ad - bc) (-c)^(k-1) t^(k+1) for k >= 1.
    Exact inputs (ints and Fractions) give exact coefficients."""
    pole = c * z0 + d
    if _any(abs(pole) < 1e-14):
        raise JetError("jet at the pole of a Moebius map")
    t = _inverse(pole)
    coeffs = [(a * z0 + b) * t, (a * d - b * c) * t * t]
    step = -c * t
    for _ in range(order - 1):
        coeffs.append(coeffs[-1] * step)
    return Jet(z0, tuple(coeffs[: order + 1]))


def taylor_jet(coeffs, center, z0, order: int) -> Jet:
    """Jet at z0 of the polynomial sum c_k (z - center)^k.  The coefficients
    and z0 may be numpy arrays over a batch of polynomials and points.

    Shifts the polynomial's own coefficients up to `order`, then pads with
    zeros of the top coefficient's type and batch shape."""
    shifted = jet_shift(jet_from_coeffs(coeffs, center), z0 - center, order).coeffs
    zero = 0 * shifted[-1]
    return Jet(z0, shifted + (zero,) * (order + 1 - len(shifted)))


@dataclass(frozen=True)
class Moebius:
    """Fractional-linear map normalized to determinant 1 (up to overall sign)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise ValueError("singular coefficient matrix")
        s = cmath.sqrt(det)
        for name, v in (("a", self.a / s), ("b", self.b / s), ("c", self.c / s), ("d", self.d / s)):
            object.__setattr__(self, name, v)

    def __call__(self, z):
        return (self.a * z + self.b) / (self.c * z + self.d)

    def deriv(self, z):
        return 1.0 / (self.c * z + self.d) ** 2

    def compose(self, other: "Moebius") -> "Moebius":
        """self after other: (self∘other)(z) = self(other(z))."""
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)

    def jet(self, z0, order: int) -> Jet:
        """Jet at z0, a point or an array of points."""
        return moebius_jet(self.a, self.b, self.c, self.d, z0, order)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls) -> "Moebius":
        return cls(1, 0, 0, 1)

    @classmethod
    def rotation(cls, theta: float) -> "Moebius":
        return cls(cmath.exp(0.5j * theta), 0, 0, cmath.exp(-0.5j * theta))

    @classmethod
    def cayley(cls) -> "Moebius":
        """Unit disc onto the upper half-plane, z -> i(1+z)/(1-z)."""
        return cls(1j, 1j, -1, 1)

    @classmethod
    def hyperbolic(cls, theta1: float, theta2: float, multiplier: float) -> "Moebius":
        """Disc-preserving hyperbolic map with axis endpoints e^{i theta_j}
        and the given real multiplier > 0 (translation length 2*log sqrt(m))."""
        if not all(map(math.isfinite, (theta1, theta2, multiplier))):
            raise ValueError("axis angles and multiplier must be finite")
        if multiplier <= 0 or multiplier == 1:
            raise ValueError("multiplier must be positive and != 1")
        p, q = cmath.exp(1j * theta1), cmath.exp(1j * theta2)
        if abs(p - q) < 1e-12:
            raise ValueError("axis endpoints coincide")
        t = cls(1, -p, 1, -q)  # sends p -> 0, q -> inf
        s = math.sqrt(multiplier)
        dil = cls(s, 0, 0, 1 / s)
        return t.inverse().compose(dil).compose(t)


# -- hyperbolic domains ------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicDomain:
    tag: str

    def contains(self, z) -> bool:
        if self.tag == "disc":
            return abs(z) < 1
        if self.tag == "exterior_disc":
            return abs(z) > 1
        if self.tag == "upper_half":
            return z.imag > 0
        if self.tag == "lower_half":
            return z.imag < 0
        raise DomainError(self.tag)

    def density(self, z):
        """Poincaré density lambda_D, curvature -4 normalization.

        Accepts scalars or numpy arrays; strictly positive inside the domain.
        """
        if self.tag == "disc":
            return 1.0 / (1.0 - np.abs(z) ** 2)
        if self.tag == "exterior_disc":
            return 1.0 / (np.abs(z) ** 2 - 1.0)
        if self.tag == "upper_half":
            return 1.0 / (2.0 * np.imag(z))
        if self.tag == "lower_half":
            return 1.0 / (-2.0 * np.imag(z))
        raise DomainError(self.tag)


DISC = HyperbolicDomain("disc")
EXTERIOR_DISC = HyperbolicDomain("exterior_disc")
UPPER_HALF = HyperbolicDomain("upper_half")
LOWER_HALF = HyperbolicDomain("lower_half")


def poincare_density(dom: HyperbolicDomain, z) -> float:
    if np.ndim(z) == 0 and not dom.contains(complex(z)):
        raise DomainError(f"{z} is not inside {dom.tag}")
    return dom.density(z)


# -- analytic function catalog ------------------------------------------------


def _c2pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


class _Fields(dict):
    """A descriptor's fields, recording each one its kind's reader reads."""

    def __init__(self, descriptor: dict):
        super().__init__(descriptor)
        self.read = {"kind"}

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def _get(d: dict, name: str, ok, want: str):
    """Field `name` of the descriptor d; ValueError if it is missing or not ok."""
    if name not in d:
        raise ValueError(f"{d['kind']} descriptor lacks {name!r}")
    if not ok(d[name]):
        raise ValueError(f"{d['kind']} field {name!r} must be {want}, got {d[name]!r}")
    return d[name]


def _is_real(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _is_pair(p) -> bool:
    return type(p) in (list, tuple) and len(p) == 2 and _is_real(p[0]) and _is_real(p[1])


def _complexes(d: dict, name: str, count: int = 0) -> list:
    """A nonempty list of [re, im] pairs, exactly `count` of them if given."""
    ok = lambda ps: type(ps) in (list, tuple) and 0 < len(ps) == (count or len(ps)) and all(map(_is_pair, ps))
    return [complex(*p) for p in _get(d, name, ok, f"{count or 'a nonempty list of'} [re, im] pairs of finite numbers")]


def _koebe_jet(z0, order: int, e=None) -> Jet:
    # z/(1-ez)^2 = sum_k c_k (z - z0)^k with w0 = e z0 and t = 1/(1-w0):
    # c_0 = z0 t^2, c_k = (k + w0) e^(k-1) t^(k+2).  With no e it is Koebe's
    # z/(1-z)^2 itself, with no product by e, so exact inputs stay exact
    w0 = z0 if e is None else e * z0
    if _any(w0 == 1):
        raise JetError("jet at the pole of the Koebe function")
    t = _inverse(1 - w0)
    step = t if e is None else e * t
    power = t * t
    coeffs = [z0 * power]
    for j in range(1, order + 1):
        power = power * (t if j == 1 else step)
        coeffs.append((j + w0) * power)
    return Jet(z0, tuple(coeffs))


def _read_koebe(d: dict):
    if "theta" not in d:
        return (lambda z: z / (1.0 - z) ** 2), _koebe_jet
    e = cmath.exp(1j * _get(d, "theta", _is_real, "a finite number"))
    return (lambda z: z / (1.0 - e * z) ** 2), lambda z0, order: _koebe_jet(z0, order, e)


def _read_taylor(d: dict):
    c0 = complex(*_get(d, "center", _is_pair, "an [re, im] pair of finite numbers"))
    coeffs = _complexes(d, "coeffs")
    return (lambda z: _horner(coeffs, z - c0)), lambda z0, order: taylor_jet(coeffs, c0, z0, order)


def _read_rational(d: dict):
    num, den = _complexes(d, "num"), _complexes(d, "den")
    if not any(den):
        raise ValueError(f"rational field 'den' must have a nonzero coefficient, got {d['den']!r}")
    return (lambda z: _horner(num, z) / _horner(den, z)), lambda z0, order: _rational_jet(num, den, z0, order)


def _rational_jet(num, den, z0, order: int) -> Jet:
    """Jet at z0 of num/den, the product p * (1/q) of the two shifted
    polynomials p and q, each shifted only up to `order`.  The reciprocal
    and the product read p and q as zero past their ends, O(order * degree)
    products: the terms they skip are exact zeros, so the result has the
    bits of the quotient of the zero-padded jets."""
    p = jet_shift(jet_from_coeffs(num, 0), z0, order).coeffs
    q = jet_shift(jet_from_coeffs(den, 0), z0, order).coeffs
    if _any(q[0] == 0):
        raise JetError("jet at a pole of a rational function")
    inv0 = 1.0 / q[0]
    return Jet(z0, tuple(_convolve(p, _reciprocal(q, order, inv0, lambda s: -inv0 * s), order)))


def _read_pullback_diff(d: dict):
    k = _get(d, "k", lambda x: type(x) is int and x >= 0, "an integer >= 0 (z^k has a pole at 0 for k < 0)")
    q = _get(d, "q", lambda x: type(x) is int, "an integer")
    g = Moebius(*_complexes(d, "mat", 4))

    def jet(z0, order):
        gz = g.jet(z0, order + 1)
        return jet_variable(z0, order) ** k - gz**k * jet_derive(gz) ** q

    return (lambda z: z**k - g(z) ** k * g.deriv(z) ** q), jet


def _maps(m: Moebius):
    return m, m.jet


_KINDS = {
    "koebe": _read_koebe,
    "identity": lambda d: _maps(Moebius.identity()),
    "cayley": lambda d: _maps(Moebius.cayley()),
    "rotation": lambda d: _maps(Moebius.rotation(_get(d, "theta", _is_real, "a finite number"))),
    "moebius": lambda d: _maps(Moebius(*_complexes(d, "mat", 4))),
    "taylor": _read_taylor,
    "rational": _read_rational,
    "pullback_diff": _read_pullback_diff,
}


class AnalyticFn:
    """A holomorphic function given by a JSON-serializable descriptor.

    Kinds: ``koebe`` (with an optional theta, the rotated Koebe function
    z/(1 - e^{i theta} z)^2), ``identity``, ``cayley``, ``rotation`` (theta),
    ``taylor`` (center + coefficients, i.e. a polynomial), ``moebius``
    (coefficient matrix), ``rational`` (numerator/denominator coefficient
    lists around 0), and ``pullback_diff`` (z^k minus its weight-q pull-back
    under a Moebius map, z^k - g(z)^k g'(z)^q). Descriptors round-trip
    through JSON bit-exactly.

    The descriptor is read once: its kind's reader in `_KINDS` checks and
    converts the fields and returns the value and jet maps (`ValueError` on
    a missing or malformed field, or on one the reader does not read).
    Jets: the Moebius kinds and Koebe, rotated or not, in closed form,
    ``taylor`` by shifting its coefficients, ``rational`` as the quotient of
    two such shifted polynomials over their own coefficients, and
    ``pullback_diff`` from the Moebius jet and its derivative.
    """

    def __init__(self, descriptor: dict):
        self._d = dict(descriptor)
        kind = self._d.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown function kind {kind!r}")
        fields = _Fields(self._d)
        self._value, self._jet = _KINDS[kind](fields)
        unread = sorted(fields.keys() - fields.read)
        if unread:
            raise ValueError(f"{kind} descriptor does not take {', '.join(map(repr, unread))}")

    def descriptor(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        return json.dumps(self._d, sort_keys=True)

    def __call__(self, z):
        return self._value(z)

    def jet(self, z0, order: int) -> Jet:
        """Jet at z0, a point or an array of points (one batched jet)."""
        return self._jet(z0, order)


def catalog(name: str, **params) -> AnalyticFn:
    """Named analytic functions: koebe | identity | cayley | rotation(theta)
    | taylor(coeffs, center=0)."""
    if name in ("koebe", "identity", "cayley"):
        return AnalyticFn({"kind": name})
    if name == "rotation":
        return AnalyticFn({"kind": "rotation", "theta": float(params["theta"])})
    if name == "taylor":
        coeffs = [_c2pair(c) for c in params["coeffs"]]
        return AnalyticFn({"kind": "taylor", "center": _c2pair(params.get("center", 0)), "coeffs": coeffs})
    raise ValueError(f"unknown catalog entry {name!r}")


def rotated_koebe(theta: float) -> AnalyticFn:
    """e^{-i theta} k(e^{i theta} z) = z/(1 - e^{i theta} z)^2: schlicht, same
    norm profile as Koebe.  The ``koebe`` descriptor with a finite theta, so
    its jets are in closed form."""
    return AnalyticFn({"kind": "koebe", "theta": float(theta)})


def schlicht_family() -> list:
    """Named functions that are univalent on the unit disc; the test bed for
    the sharp B_n norm bounds."""
    half_plane = AnalyticFn({"kind": "moebius", "mat": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]})
    # a quotient: as the Moebius sum (1/(1-z) - 1/(1+z))/2 it loses digits
    # by cancellation next to the critical points +-i
    odd_koebe = AnalyticFn(
        {"kind": "rational", "num": [[0.0, 0.0], [1.0, 0.0]], "den": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}
    )
    return [
        ("identity", catalog("identity")),
        ("koebe", catalog("koebe")),
        ("rotated_koebe", rotated_koebe(math.pi / 3)),
        ("half_plane", half_plane),  # z/(1-z)
        ("odd_koebe", odd_koebe),  # z/(1-z^2)
    ]

"""Randomized verification suites for the operator identities.

Each identity is a `Spec`: how to draw one trial (polynomial, Moebius map,
point) from a seeded RNG, and one `sides` per identity, which builds the
jets a batch of trials needs once and returns both sides.  One harness,
`run_suite`, draws every trial first, groups the trials by operator order
and has `sides` evaluate each group as one batch of jets whose coefficients
are numpy arrays over the trials.  A trial whose float relative error
reaches the tolerance is recomputed through the same spec on mpmath numbers
at 50 digits, and that value decides its verdict.  The suites are
deterministic for a fixed seed, so CLI reports are byte-stable.  They are
shared between the command-line front end and the test bench.  The weight
suite is exact and needs no batch.  Every suite and CLI subcommand builds
its report through `report`, and every two-sided numerical check in the
library through `maps.compare`.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

import numpy as np

from .jets import jet_compose, jet_derive, jet_pow, jet_reverse
from .maps import AnalyticFn, Moebius, _maximum, _relerr, catalog, moebius_jet, taylor_jet
from .symbolic import classical, evaluate, evaluate_jet, series_constant, sigma_a, sigma_expr


def report(operation: str, inputs: dict, ok, **fields) -> dict:
    """The one report envelope: `operation`, `inputs`, the fields in the
    order given, then `ok` as a Python bool.  The verify suites and every CLI
    subcommand build their reports here; the CLI adds the schema tag when it
    writes one out."""
    return {"operation": operation, "inputs": inputs, **fields, "ok": bool(ok)}


def series_bound_constant(series: str, n: int) -> int:
    """The u_n/u_1 coefficient of the series: 1 for A, n-2 for B."""
    return int(series_constant(sigma_expr(series, n)))


def random_coeffs(rng: random.Random, deg: int = 6) -> tuple:
    """Taylor coefficients at 0 with f(0) = 0, f'(0) = 1 and higher ones
    uniform in the square of half-side 0.15/k, so jets stay locally injective
    near the origin."""
    coeffs = [0j, 1 + 0j]
    for k in range(2, deg + 1):
        r = 0.15 / k
        coeffs.append(complex(rng.uniform(-r, r), rng.uniform(-r, r)))
    return tuple(coeffs)


def random_function(rng: random.Random) -> AnalyticFn:
    """The polynomial of `random_coeffs` as a catalog function."""
    return catalog("taylor", coeffs=random_coeffs(rng))


def random_moebius(rng: random.Random) -> Moebius:
    while True:
        a, b, c, d = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4))
        if abs(a * d - b * c) > 0.3:
            return Moebius(a, b, c, d)


def random_point(rng: random.Random) -> complex:
    """Uniform in the square of half-side 0.35 about 0."""
    return complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))


FLOAT_EPS = float(np.finfo(float).eps)


def _coeff_relerr(lhs, rhs):
    """Worst coefficient difference of two jets, relative to max(1, |rhs|)."""
    m = min(len(lhs), len(rhs))
    diff = _maximum(*(abs(a - b) for a, b in zip(lhs[:m], rhs[:m])))
    return diff / _maximum(1.0, *(abs(c) for c in rhs[:m]))


class Spec(NamedTuple):
    """One seeded identity.  `draw(rng)` draws a trial: a dict of its inputs,
    with its operator order under "n".  `sides(batch)` builds the jets of a
    batch of trials of one order (see `make_batch`) once and returns the
    identity's two sides, and `relerr(lhs, rhs)` compares them elementwise."""

    draw: Callable
    sides: Callable
    relerr: Callable = _relerr


def draw_trials(spec: Spec, trials: int, seed: int) -> list:
    rng = random.Random(seed)
    return [spec.draw(rng) for _ in range(trials)]


def by_order(draws: list) -> dict:
    """Trial indices grouped by operator order, in order of first appearance."""
    groups = {}
    for i, trial in enumerate(draws):
        groups.setdefault(trial["n"], []).append(i)
    return groups


def make_batch(trials: list, cast=None) -> dict:
    """One batch from trials of one order: each input (each entry of a tuple
    input) becomes a numpy array over the trials.  With `cast`, the batch
    holds a single trial as scalars of that type instead (complex, or
    mpmath.mpc for the high-precision recheck)."""

    def pack(values):
        return cast(values[0]) if cast else np.array(values)

    batch = {"n": trials[0]["n"]}
    for key, value in trials[0].items():
        if isinstance(value, tuple):
            batch[key] = tuple(pack([t[key][k] for t in trials]) for k in range(len(value)))
        elif key != "n":
            batch[key] = pack([t[key] for t in trials])
    return batch


def trial_relerrs(spec: Spec, draws: list) -> np.ndarray:
    """Float relative error of every trial, one batched evaluation per order."""
    errs = np.empty(len(draws))
    for idx in by_order(draws).values():
        batch = make_batch([draws[i] for i in idx])
        errs[idx] = spec.relerr(*spec.sides(batch))
    return errs


def hp_relerr(spec: Spec, trial: dict) -> float:
    """The trial's relative error recomputed through the same spec on
    mpmath.mpc inputs at 50 significant digits.  Every spec stays at that
    precision end to end (`jet_pow` included), so on a true identity the
    recomputed error is near 1e-45 or below, not at the float level."""
    import mpmath

    with mpmath.workdps(50):
        batch = make_batch([trial], mpmath.mpc)
        return float(spec.relerr(*spec.sides(batch)))


def run_suite(operation: str, spec: Spec, trials: int, seed: int, tol: float, **shown) -> dict:
    """Draw every trial, evaluate them batched by order, and recheck each
    trial at or over `tol` in high precision, which decides its verdict.

    Float round-off in the expanded sigma_n can exceed `tol` on trials where
    the identity holds exactly; the recheck separates that from a false
    identity.  It only excuses round-off, so a `tol` below the float machine
    epsilon, which no float evaluation can meet, gets no recheck and keeps
    the float verdict.  `max_relerr` stays the worst float error, so the
    engine's error stays visible; `escalated` counts the rechecked trials and
    `hp_defect` is their worst recomputed error (0.0 when none)."""
    draws = draw_trials(spec, trials, seed)
    errs = trial_relerrs(spec, draws)
    over = [i for i in range(trials) if not errs[i] < tol]
    rechecked = [hp_relerr(spec, draws[i]) for i in over] if tol >= FLOAT_EPS else []
    return report(
        operation,
        {**shown, "trials": trials, "seed": seed},
        len(rechecked) == len(over) and all(e < tol for e in rechecked),
        max_relerr=float(np.max(errs)),
        tolerance=tol,
        escalated=len(rechecked),
        hp_defect=float(np.max(rechecked, initial=0.0)),
    )


def _jets_at(t) -> tuple:
    """The trial's Moebius jet gj at z and the jet of its f at g(z), both of
    order n, the highest derivative either side reads; gj's first two
    coefficients are g(z) and g'(z)."""
    gj = moebius_jet(*t["g"], t["z"], t["n"])
    return taylor_jet(t["f"], 0j, gj.coeffs[0], t["n"]), gj


def covariance_spec(series: str, n_values=(3, 4, 5, 6)) -> Spec:
    """Precomposition law sigma_n[f o g] = (sigma_n[f] o g) * (g')^(n-1)
    for Moebius g, checked pointwise through jets."""
    n_values = tuple(n_values)

    def draw(rng):
        n = rng.choice(n_values)
        f = random_coeffs(rng)
        while True:
            g = random_moebius(rng)
            z = random_point(rng)
            gz = g(z)
            # f'(gz), the linear coefficient of f's jet at gz
            fp = sum(k * f[k] * gz ** (k - 1) for k in range(1, len(f)))
            if abs(g.deriv(z)) > 1e-2 and abs(gz) < 20 and abs(fp) > 1e-3:
                return {"n": n, "f": f, "g": (g.a, g.b, g.c, g.d), "z": z}

    def sides(t):
        fj, gj = _jets_at(t)
        sigma = sigma_expr(series, t["n"])
        return evaluate(sigma, jet_compose(fj, gj)), evaluate(sigma, fj) * gj.coeffs[1] ** (t["n"] - 1)

    return Spec(draw, sides)


def altrec_spec(n_values=(3, 4, 5, 6)) -> Spec:
    """A-series recursion in divided form:
    sigma_{n+1}[f]/(f')^(n-1) = (sigma_n[f]/(f')^(n-1))', on jets of order
    n + 1: sigma_{n+1} reads u_{n+1}, and the quotient's jet keeps the one
    order its derivative reads."""
    n_values = tuple(n_values)

    def draw(rng):
        n = rng.choice(n_values)
        return {"n": n, "f": random_coeffs(rng), "z": random_point(rng)}

    def sides(t):
        n = t["n"]
        fj = taylor_jet(t["f"], 0j, t["z"], n + 1)
        quotient = evaluate_jet(sigma_a(n), fj) * jet_pow(jet_derive(fj, 1), -(n - 1))
        return evaluate(sigma_a(n + 1), fj) / fj.coeffs[1] ** (n - 1), jet_derive(quotient, 1).coeffs[0]

    return Spec(draw, sides)


def schwinv_spec(n_values=(4, 5, 6)) -> Spec:
    """sigma^A_n[f] = -(d^(n-3) S_{f^-1}) o f * (f')^(n-1), via jet reversion
    at the origin, compared coefficient by coefficient on jets of order
    n + 6: both sides keep 7 coefficients.

    The minus sign is forced by the chain rule: S_{f^-1} o f * (f')^2 = -S_f
    (differentiate f^-1 o f = id), and the divided recursion propagates that
    sign unchanged to every order.  Printed statements of this identity
    sometimes drop it; the engine agrees with the signed form to machine
    precision and disagrees with the unsigned one by exactly a factor -1.
    """
    n_values = tuple(n_values)

    def draw(rng):
        return {"n": rng.choice(n_values), "f": random_coeffs(rng)}

    def sides(t):
        n = t["n"]
        fj = taylor_jet(t["f"], 0j, 0.0, n + 6)
        s_inv = evaluate_jet(classical("schwarzian"), jet_reverse(fj))
        lhs = jet_compose(jet_derive(s_inv, n - 3), fj) * jet_pow(jet_derive(fj, 1), n - 1) * (-1)
        return lhs.coeffs, evaluate_jet(sigma_a(n), fj).coeffs

    return Spec(draw, sides, _coeff_relerr)


def affine_spec(n_values=(3, 4, 5, 6)) -> Spec:
    """sigma^A_n[a f + b] = sigma^A_n[f] for affine postcomposition, on jets
    of order n."""
    n_values = tuple(n_values)

    def draw(rng):
        n = rng.choice(n_values)
        f = random_coeffs(rng)
        z = random_point(rng)
        a = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return {"n": n, "f": f, "z": z, "a": a, "b": b}

    def sides(t):
        fj = taylor_jet(t["f"], 0j, t["z"], t["n"])
        return evaluate(sigma_a(t["n"]), fj * t["a"] + t["b"]), evaluate(sigma_a(t["n"]), fj)

    return Spec(draw, sides)


def bol_spec(n_values=(4, 6)) -> Spec:
    """Derivative identity behind the B-series covariance: if
    f2 = (f1 o g) * (g')^(1-n/2) with Moebius g, then
    f2^(n-1) = (f1^(n-1) o g) * (g')^(n/2).

    Even weights keep the half-integer powers single-valued, so instances
    are drawn from even n.  f1 has degree at least n-1, so that f1^(n-1)
    does not vanish identically.
    """
    n_values = tuple(n_values)
    if any(n % 2 for n in n_values):
        raise ValueError("Bol instances are checked at even n")

    def draw(rng):
        n = rng.choice(n_values)
        f1 = random_coeffs(rng, deg=max(6, n - 1))
        while True:
            g = random_moebius(rng)
            z = random_point(rng)
            if abs(g.deriv(z)) > 1e-2 and abs(g(z)) < 20:
                return {"n": n, "f": f1, "g": (g.a, g.b, g.c, g.d), "z": z}

    def sides(t):
        n = t["n"]
        f1j, gj = _jets_at(t)
        f2 = jet_compose(f1j, gj) * jet_pow(jet_derive(gj, 1), 1 - n // 2)
        return jet_derive(f2, n - 1).coeffs[0], jet_derive(f1j, n - 1).coeffs[0] * gj.coeffs[1] ** (n // 2)

    return Spec(draw, sides)


def covariance_suite(series: str, n_values=(3, 4, 5, 6), trials: int = 200, seed: int = 0, tol: float = 1e-9) -> dict:
    spec = covariance_spec(series, n_values)
    return run_suite("covariance", spec, trials, seed, tol, series=series.upper(), n=list(n_values))


def altrec_suite(n_values=(3, 4, 5, 6), trials: int = 100, seed: int = 0, tol: float = 1e-8) -> dict:
    return run_suite("altrec", altrec_spec(n_values), trials, seed, tol, n=list(n_values))


def schwinv_suite(n_values=(4, 5, 6), trials: int = 100, seed: int = 0, tol: float = 1e-8) -> dict:
    return run_suite("schwinv", schwinv_spec(n_values), trials, seed, tol, n=list(n_values))


def affine_suite(n_values=(3, 4, 5, 6), trials: int = 100, seed: int = 0, tol: float = 1e-8) -> dict:
    return run_suite("affine", affine_spec(n_values), trials, seed, tol, n=list(n_values))


def bol_suite(n_values=(4, 6), trials: int = 100, seed: int = 0, tol: float = 1e-8) -> dict:
    return run_suite("bol", bol_spec(n_values), trials, seed, tol, n=list(n_values))


WEIGHT_N_MAX = 8


def weight_suite(trials: int = 100, seed: int = 0) -> dict:
    """Weight homogeneity: every monomial of sigma_n has total weight n-1
    (u_k counts k-1), for randomly drawn series and order 3..WEIGHT_N_MAX."""
    rng = random.Random(seed)
    draws = [(rng.choice(("A", "B")), rng.randint(3, WEIGHT_N_MAX)) for _ in range(trials)]
    bad = [(series, n) for series, n in draws if sigma_expr(series, n).weights() != {n - 1}]
    return report("weight_homogeneity", {"trials": trials, "seed": seed, "n_max": WEIGHT_N_MAX}, not bad, failures=bad)


VERIFY_SUITES = {
    "covariance": covariance_suite,
    "altrec": altrec_suite,
    "schwinv": schwinv_suite,
    "affine": affine_suite,
    "bol": bol_suite,
    "weights": weight_suite,
}

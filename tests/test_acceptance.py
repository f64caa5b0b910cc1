"""Acceptance bench: one test per numbered criterion, fixed tolerances.

Every test prints a single PASS/FAIL line (live, outside pytest's capture)
with the measured numbers and its runtime against the stated budget, then
asserts.  Tolerances here are pinned contract values, not tuned to the
implementation; where a float artifact forces any slack beyond them, the
slack is stated inline.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from schwarzian_lab.automorphic import (
    PairingSpec,
    automorphy_residual,
    bergman_project,
    fundamental_annulus_grid,
    group_ball,
    group_from_descriptor,
    lemma_scalar_check,
    metzger_element,
    poincare_theta,
    theta_values,
)
from schwarzian_lab.checks import (
    affine_suite,
    altrec_suite,
    bol_suite,
    covariance_suite,
    schwinv_suite,
    weight_suite,
)
from schwarzian_lab.integrals import (
    ahlfors_weill_density,
    d0_beta,
    d0_beta_norm_bound,
    disc_quadrature,
    exterior_disc_quadrature,
    kernel_criterion_check,
    repro_check,
)
from schwarzian_lab.maps import DISC, Moebius, catalog, poincare_density, schlicht_family
from schwarzian_lab.norms import bn_norm_estimate, bound_check
from schwarzian_lab.ode import homogeneous_a_check, homogeneous_b_residual
from schwarzian_lab.symbolic import classical, monomial, monomial_part, sigma_a, sigma_b

CYCLIC = {"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": 4.0}


def _aw_closed_form(coeffs, n, series, z):
    """d0_beta(sigma_n)(nu)(z) for nu the Ahlfors-Weill section of
    phi(w) = sum c_m w^m: c(n) n! sum c_m C(m+3, n) z^(m+3-n) / ((m+1)(m+2)(m+3)),
    the n-th derivative of c(n) times the triple antiderivative of phi, with
    c(n) = 1 (A) or n-2 (B); monomials with m+3 < n drop out."""
    c = 1 if series == "A" else n - 2
    return c * math.factorial(n) * sum(
        cm * math.comb(m + 3, n) * z ** (m + 3 - n) / ((m + 1) * (m + 2) * (m + 3))
        for m, cm in enumerate(coeffs)
        if m + 3 >= n
    )


def _finish(capsys, num, name, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    line = f"criterion {num:02d} {name}: {status} [{elapsed:.2f}s / {budget:.0f}s] {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line
    assert in_time, line


def test_criterion_01_symbolic_goldens(capsys):
    t0 = time.perf_counter()
    a4 = monomial(1, -2, u4=1) + monomial(-6, -4, u3=1, u2=1) + monomial(6, -6, u2=3)
    a5 = (
        monomial(1, -2, u5=1)
        + monomial(-10, -4, u4=1, u2=1)
        + monomial(-6, -4, u3=2)
        + monomial(48, -6, u3=1, u2=2)
        + monomial(-36, -8, u2=4)
    )
    ok = sigma_a(4) == a4 and sigma_a(5) == a5 and sigma_b(3) == classical("schwarzian")
    parts = True
    for n in range(3, 9):
        parts &= monomial_part(sigma_a(n)) == monomial(1, -2, **{f"u{n}": 1})
        parts &= monomial_part(sigma_b(n)) == monomial(n - 2, -2, **{f"u{n}": 1})
    _finish(capsys, 1, "symbolic goldens", ok and parts,
            f"a4/a5 exact={ok} monomial parts n=3..8 exact={parts}", t0, 1.0)


def test_criterion_02_moebius_covariance(capsys):
    t0 = time.perf_counter()
    worst = {}
    for series in ("A", "B"):
        rep = covariance_suite(series, n_values=(3, 4, 5, 6), trials=200, tol=1e-9)
        worst[series] = rep["max_relerr"]
    ok = all(w < 1e-9 for w in worst.values())
    _finish(capsys, 2, "covariance 2x200 trials", ok,
            f"max relerr A={worst['A']:.2e} B={worst['B']:.2e} (tol 1e-9)", t0, 10.0)


def test_criterion_03_identity_suites(capsys):
    t0 = time.perf_counter()
    reps = {
        "altrec": altrec_suite(trials=100, tol=1e-8),
        "schwinv": schwinv_suite(trials=100, tol=1e-8),
        "affine": affine_suite(trials=100, tol=1e-8),
        "bol": bol_suite(trials=100, tol=1e-8),
        "weights": weight_suite(trials=100),
    }
    ok = all(r["ok"] for r in reps.values())
    errs = " ".join(f"{k}={v['max_relerr']:.1e}" for k, v in reps.items() if "max_relerr" in v)
    _finish(capsys, 3, "identity suites 5x100 trials", ok, errs + " (tol 1e-8)", t0, 30.0)


def test_criterion_04_sharp_norm_bounds(capsys):
    t0 = time.perf_counter()
    s_koebe = lambda z: -6.0 / (1 - np.asarray(z) ** 2) ** 2
    est = bn_norm_estimate(s_koebe, 2)
    # the analytic sup is exactly 6 along the real axis; the sampled float
    # value may exceed it by one rounding step, hence the +1e-9 headroom
    koebe_ok = 6 - 1e-6 <= est <= 6 + 1e-9
    worst_margin, attained = math.inf, []
    table_ok = True
    for series in ("A", "B"):
        for n in (3, 4, 5):
            for name, fn in schlicht_family():
                row = bound_check(series, n, fn)
                margin = row["margin"]
                worst_margin = min(worst_margin, margin / max(1.0, row["bound"]))
                table_ok &= margin >= -1e-9 * max(1.0, row["bound"])
                if name == "koebe" and n == 3:
                    attained.append(abs(row["estimate"] - 6.0) < 1e-6)
    ok = koebe_ok and table_ok and all(attained) and len(attained) == 2
    _finish(capsys, 4, "sharp hyperbolic-norm bounds", ok,
            f"koebe S estimate={est:.15g} worst rel margin={worst_margin:.1e}", t0, 20.0)


def test_criterion_05_differential_inverts_section(capsys):
    t0 = time.perf_counter()
    nu = ahlfors_weill_density(catalog("taylor", coeffs=[1.0]))
    z = 0.2 + 0.1j
    errs = []
    for scale in (1, 2):
        grid = exterior_disc_quadrature(R=96 * scale, M=256 * scale)
        errs.append(abs(d0_beta(sigma_a(3), nu, z, grid) - 1.0))
    ok = errs[0] < 2e-2 and errs[1] < 5e-3
    _finish(capsys, 5, "differential o section = id", ok,
            f"|err| default={errs[0]:.2e} (tol 2e-2), 2x grid={errs[1]:.2e} (tol 5e-3)", t0, 60.0)


def test_criterion_06_reproducing_formula(capsys):
    t0 = time.perf_counter()
    errs = {}
    for q in (2, 3):
        phi = lambda z, p=2 * q: (np.asarray(z, dtype=complex) - 1j) ** (-float(p))
        rep = repro_check(phi, q, -2j)
        errs[q] = rep["relerr"]
    ok = all(e < 1e-2 for e in errs.values())
    _finish(capsys, 6, "reproducing formula", ok,
            f"relerr q=2: {errs[2]:.2e}, q=3: {errs[3]:.2e} (tol 1e-2)", t0, 60.0)


def test_criterion_07_kernel_criterion(capsys):
    t0 = time.perf_counter()
    # both densities vanish quadratically at the unit circle, as the pairing
    # side's lambda^2 weight requires, and both are generic enough that the
    # compared values stay well away from zero at every order
    # both sides are also checked against the closed form on these sections
    z = 0.3 + 0.1j
    worst, worst_lhs, worst_rhs, degenerate = 0.0, 0.0, 0.0, False
    for coeffs in ([0, 0, 1], [1, 0.5, 0.25j, 1]):
        nu = ahlfors_weill_density(catalog("taylor", coeffs=coeffs))
        for n in (3, 5):
            for series in ("A", "B"):
                rep = kernel_criterion_check(nu, n, z, series)
                exact = _aw_closed_form(coeffs, n, series, z)
                worst = max(worst, rep["relerr"])
                worst_lhs = max(worst_lhs, abs(rep["lhs"] - exact) / abs(exact))
                worst_rhs = max(worst_rhs, abs(rep["rhs"] - exact) / abs(exact))
                degenerate |= abs(rep["lhs"]) < 1e-6 or abs(exact) < 1e-6
    ok = worst < 1e-2 and worst_lhs < 1e-2 and worst_rhs < 1e-2 and not degenerate
    _finish(capsys, 7, "kernel pairing form of the differential", ok,
            f"max relerr pairing={worst:.2e}, lhs vs closed form={worst_lhs:.2e}, "
            f"rhs vs closed form={worst_rhs:.2e} (tol 1e-2), nondegenerate={not degenerate}", t0, 60.0)


def test_criterion_08_automorphic_suite(capsys):
    t0 = time.perf_counter()
    gens = group_from_descriptor(CYCLIC)
    f = catalog("taylor", coeffs=[0, 0.5, 1])
    z = 0.3 + 0.2j

    ball8 = group_ball(gens, 8)
    res = automorphy_residual(f, 2, ball8, z)
    bound = poincare_theta(f, 2, ball8, z).automorphy_bound
    auto_ok = res <= bound

    ball12 = group_ball(gens, 12)
    fd = fundamental_annulus_grid(0.5, 2.8, 4.0)
    big_f = catalog("taylor", coeffs=[0, 0, 0.5, 0.2])
    f_auto = lambda w: theta_values(big_f, 2, ball12, w)
    lemma = lemma_scalar_check(f_auto, catalog("taylor", coeffs=[0, 1, 1]), PairingSpec(2), ball12, fd)
    lemma_ok = lemma["relerr"] < 1e-10 and abs(lemma["lhs"]) > 1e-4

    grid = disc_quadrature()
    pts = np.array([0.3, 0.2 + 0.4j, -0.5j])
    fix_err = max(
        float(np.max(np.abs(bergman_project(lambda w, k=k: np.asarray(w) ** k, 2, pts, grid) - pts**k)))
        for k in range(5)
    )
    const = bergman_project(lambda w: np.ones_like(w), 2, 0.0, grid)
    berg_ok = fix_err < 1e-12 and abs(const - 1.0) < 1e-12

    g = Moebius.hyperbolic(0.5, 2.8, 2.0)
    p = metzger_element(3, g, 2)
    vals = [abs(complex(poincare_theta(p, 2, group_ball([g], r), 0.25 + 0.15j))) for r in (4, 8, 16)]
    metz_ok = vals[0] > vals[1] > vals[2]

    ok = auto_ok and lemma_ok and berg_ok and metz_ok
    _finish(capsys, 8, "automorphic suite", ok,
            f"residual={res:.2e}<=bound={bound:.2e}; lemma relerr={lemma['relerr']:.2e}; "
            f"projection err={fix_err:.1e}, const={abs(const - 1):.1e}; "
            f"kernel-element decay {vals[0]:.1e}>{vals[1]:.1e}>{vals[2]:.1e}", t0, 120.0)


def test_criterion_09_homogeneous_solutions(capsys):
    t0 = time.perf_counter()
    alphas = {4: (1, 0, 1), 5: (1, Fraction(1, 3), Fraction(-2, 7)), 6: (1, Fraction(1, 5), 0, Fraction(1, 8))}
    polys = {4: (Fraction(1, 2),), 5: (Fraction(1, 2), Fraction(1, 4)), 6: (Fraction(1, 3), 0, Fraction(-1, 5))}
    worst = 0.0
    for n in (4, 5, 6):
        worst = max(worst, homogeneous_b_residual(n, alphas[n], through=8))
        worst = max(worst, homogeneous_a_check(polys[n], n, through=8))
    ok = worst < 1e-9
    _finish(capsys, 9, "homogeneous solutions annihilated", ok,
            f"max residual through order 8 = {worst:.1e} (tol 1e-9)", t0, 10.0)


def test_criterion_10_operator_norm_bound(capsys):
    t0 = time.perf_counter()
    rng = random.Random(0)
    grid = exterior_disc_quadrature()
    worst_ratio, worst_relerr, smallest = 0.0, 0.0, math.inf
    for series in ("A", "B"):
        for n in (3, 4, 5):
            expr = sigma_a(n) if series == "A" else sigma_b(n)
            bound = d0_beta_norm_bound(n, series)
            for _ in range(50):
                # Ahlfors-Weill sections of polynomials with a coefficient of
                # degree >= n-3: the operator annihilates lower degrees
                deg = n - 3 + rng.randint(0, 2)
                coeffs = [rng.uniform(0.3, 1.0) * complex(math.cos(t), math.sin(t))
                          for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(deg + 1))]
                rad, ang = rng.uniform(0.0, 0.6), rng.uniform(0.0, 2.0 * math.pi)
                z = complex(rad * math.cos(ang), rad * math.sin(ang))
                nu = ahlfors_weill_density(catalog("taylor", coeffs=coeffs))
                value = d0_beta(expr, nu, z, grid)
                exact = _aw_closed_form(coeffs, n, series, z)
                smallest = min(smallest, abs(exact))
                worst_relerr = max(worst_relerr, abs(value - exact) / abs(exact))
                weighted = abs(value) * poincare_density(DISC, z) ** (1 - n)
                worst_ratio = max(worst_ratio, weighted / (bound * nu.sup_bound))
    ok = worst_ratio <= 1.0 and worst_relerr < 2e-2 and smallest >= 1e-3
    _finish(capsys, 10, "operator-norm bound on samples", ok,
            f"max |d0 beta| lambda^(1-n) / (bound ||nu||) = {worst_ratio:.3g} over 300 samples; "
            f"relerr vs closed form={worst_relerr:.1e} (tol 2e-2), min |closed form|={smallest:.2g} (floor 1e-3)",
            t0, 60.0)

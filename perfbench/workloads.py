"""The benchmark's three workloads.

Each workload draws its inputs from the seed, lists its operations (one
public library call that yields one checked number) and gives each an
independent check.  Checks run after a pass, outside the timed region, and
compare against references that do not come from the code under test:
closed forms, exact rationals and published goldens.  Every reference is
looked up under a label naming its check; perfbench/selftest.py perturbs
one label at a time, then all of them, to show that each check can fail.

Why these three: `schlicht-bounds` is where per-point scalar jets in maps,
jets, symbolic and norms do the work (ROADMAP item 2 acts there, integrals
and automorphic do none); `identity-suites` drives the same jets layer as
many small scalar and exact-Fraction jets through the CLI, checks, ode and
symbolic expansion; `quadrature-operators` is vectorized numpy quadrature and
group sums (ROADMAP item 4 acts there) and builds no jets at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from math import comb, factorial

import numpy as np

# sigma_A(4) as printed in the README, sigma_A(5) from the published display
# formula u5/u1 - 10 u4 u2/u1^2 - 6 u3^2/u1^2 + 48 u3 u2^2/u1^3 - 36 u2^4/u1^4.
GOLDEN_A = {
    4: "u4/u1 - 6*u3*u2/u1^2 + 6*u2^3/u1^3",
    5: "u5/u1 - 10*u4*u2/u1^2 - 6*u3^2/u1^2 + 48*u3*u2^2/u1^3 - 36*u2^4/u1^4",
}
CYCLIC = {"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": 4.0}


class Op:
    """One timed call.  `call(done)` gets the results of the operations
    already run in this pass; `check(result, done)` returns None when the
    result is right and a message when it is not."""

    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name, self.call, self.check = name, call, check


class Workload:
    """Operations with the run shape: at least `min_passes` passes per run,
    and `tail_percentile`, the latency percentile reported as op_s.tail.

    The percentile is fixed per workload so every run and every commit
    reports the same one.  It leaves at least ten operations beyond it in
    the shortest run, and sits inside a group of operations of similar cost
    rather than on the step between two groups, where it would jump between
    them from run to run."""

    def __init__(self, name, ops, min_passes, tail_percentile):
        if len(ops) * min_passes * (100 - tail_percentile) / 100 < 10:
            raise ValueError(f"{name}: fewer than 10 operations beyond p{tail_percentile}")
        self.name = name
        self.ops = ops
        self.min_passes = min_passes
        self.tail_percentile = tail_percentile


class Refs:
    """Reference values by label.  The labels in `wrong` (or every label,
    when it holds "all") are perturbed: flags negated, integers and
    fractions +1, strings altered, other numbers x1.5+1, or `wrong` where a
    check's limit needs a value on its failing side.  `labels` collects
    every label looked up."""

    def __init__(self):
        self.wrong = set()
        self.labels = set()

    def __call__(self, label, value, wrong=None):
        self.labels.add(label)
        if label not in self.wrong and "all" not in self.wrong:
            return value
        if wrong is not None:
            return wrong
        if isinstance(value, bool):
            return not value
        if isinstance(value, (int, Fraction)):
            return value + 1
        if isinstance(value, str):
            return value + " (wrong)"
        if isinstance(value, (tuple, list)):
            return type(value)(self(label, v) for v in value)
        return value * 1.5 + 1.0


def _fail_unless(ok: bool, message: str):
    return None if ok else message


# -- schlicht-bounds ----------------------------------------------------------


def sharp_bound(series: str, n: int) -> float:
    """Sharp B_{n-1} bound on schlicht functions: 6 * 4^(n-3) * (n-2)! for
    the A series, 2(n-2) * n(n+2)...(3n-6) for the B series."""
    if series == "A":
        return 6.0 * 4 ** (n - 3) * factorial(n - 2)
    return 2.0 * (n - 2) * math.prod(n + 2 * j for j in range(n - 2))


def koebe_schwarzian(z):
    """S_k(z) = -6/(1-z^2)^2 for the Koebe function k(z) = z/(1-z)^2."""
    return -6.0 / (1 - np.asarray(z) ** 2) ** 2


def schlicht_bounds(seed: int, ref: Refs, counts) -> Workload:
    from schwarzian_lab import maps, norms

    rng = random.Random(seed)
    rows = [(series, n, name, fn) for series in "AB" for n in (3, 4, 5) for name, fn in maps.schlicht_family()]
    for _ in range(2):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        fn = maps.rotated_koebe(theta)
        rows += [(series, 3, f"rotated_koebe({theta:.17g})", fn) for series in "AB"]

    def row_check(series, n, name):
        def check(row, done):
            bound = sharp_bound(series, n)
            est = row["estimate"]
            if not math.isclose(row["bound"], ref("sharp-bound", bound), rel_tol=1e-12):
                return f"bound {row['bound']!r} != {bound!r}"
            limit = ref("margin", bound, wrong=-1.0)
            if not math.isfinite(est) or limit - est < -1e-9 * max(1.0, limit):
                return f"estimate {est!r} exceeds the sharp bound {limit!r}"
            # |S_f| (1-|z|^2)^2 = 6 along the extremal ray of every rotated
            # Koebe function, and at the origin, which is a grid point
            koebe = name == "koebe" or name.startswith("rotated_koebe")
            return _fail_unless(not (koebe and n == 3) or abs(est - ref("koebe-6", 6.0)) <= 1e-6,
                                f"Koebe estimate {est!r} is not within 1e-6 of 6")
        return check

    ops = [
        Op(f"bound_check {series}{n} {name}",
           lambda done, series=series, n=n, fn=fn: norms.bound_check(series, n, fn),
           row_check(series, n, name))
        for series, n, name, fn in rows
    ]

    def koebe_check(est, done):
        six = ref("closed-form-koebe", 6.0)
        return _fail_unless(six - 1e-6 <= est <= six + 1e-9, f"closed-form Koebe estimate {est!r} not in [6-1e-6, 6+1e-9]")

    ops.append(Op("bn_norm_estimate koebe-schwarzian B2", lambda done: norms.bn_norm_estimate(koebe_schwarzian, 2), koebe_check))
    # 10 of the 35 operations per pass are rotated-Koebe rows; the four
    # seeded n = 3 rows, of like cost, hold the fractions 25/35 to 29/35 of
    # the sorted times, and p77 is their middle, clear of the slower
    # catalog rotated-Koebe rows above them
    return Workload("schlicht-bounds", ops, min_passes=2, tail_percentile=77)


# -- identity-suites ----------------------------------------------------------


def identity_suites(seed: int, ref: Refs, counts) -> Workload:
    from schwarzian_lab import cli, jets, ode

    argvs = [["verify", "covariance", "--series", s, "--trials", "200", "--seed", str(seed)] for s in "AB"]
    argvs += [["verify", t, "--seed", str(seed)] for t in ("altrec", "schwinv", "affine", "bol", "weights")]
    argvs += [["expand", "--series", s, "--n", str(n)] for s in "AB" for n in range(3, 17)]
    first_output = {}

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--format", "json"])
        out = buf.getvalue()
        counts["cli.bytes_out"] += len(out.encode())
        return code, out

    def cli_check(argv):
        key = " ".join(argv)

        def check(result, done):
            code, out = result
            if code != ref("exit-code", 0):
                return f"exit code {code}"
            doc = json.loads(out)
            if doc.get("ok") is not ref("ok", True):
                return f"report not ok: {out[:200]}"
            if ref("same-bytes", first_output.setdefault(key, out)) != out:
                return "same seed gave different JSON bytes"
            if argv[0] == "verify":
                return _fail_unless(doc["inputs"]["seed"] == ref("seed", seed), f"report seed {doc['inputs']['seed']!r}")
            series, n = argv[2], int(argv[4])
            if series == "A" and n in GOLDEN_A and doc["expression"] != ref("golden", GOLDEN_A[n]):
                return f"sigma_A({n}) = {doc['expression']!r}"
            if doc["weights"] != [ref("weights", n - 1)]:
                return f"weights {doc['weights']!r}, expected [{n - 1}]"
            constant = 1 if series == "A" else n - 2
            return _fail_unless(doc["series_constant"] == ref("series-constant", str(constant)),
                                f"series constant {doc['series_constant']!r}")
        return check

    ops = [Op(" ".join(argv), lambda done, argv=argv: run_cli(argv), cli_check(argv)) for argv in argvs]

    phi = jets.jet_from_coeffs([Fraction((-1) ** k, k + 2) for k in range(12)], Fraction(0))

    def wronskian_check(sol, done):
        if not all(isinstance(c, Fraction) for c in sol.f.coeffs) or sol.f.coeffs[:2] != ref("normalization", (0, 1)):
            return "solution left exact arithmetic or lost its normalization"
        w = sol.wronskian
        return _fail_unless(isinstance(w, Fraction) and w == ref("wronskian", Fraction(1)), f"Wronskian {w!r} != 1")

    ops.append(Op("schwarzian_solve exact order 14", lambda done: ode.schwarzian_solve(phi, 14), wronskian_check))

    # criterion 09 inputs: exact coefficients, so the residuals are exact zeros
    alphas = {4: (1, 0, 1), 5: (1, Fraction(1, 3), Fraction(-2, 7)), 6: (1, Fraction(1, 5), 0, Fraction(1, 8))}
    polys = {4: (Fraction(1, 2),), 5: (Fraction(1, 2), Fraction(1, 4)), 6: (Fraction(1, 3), 0, Fraction(-1, 5))}

    def residual_check(res, done):
        return _fail_unless(abs(res - ref("residual", 0.0)) < 1e-9, f"residual {res!r}")

    for n in (4, 5, 6):
        ops.append(Op(f"homogeneous_b_residual n={n}",
                      lambda done, n=n: ode.homogeneous_b_residual(n, alphas[n], through=8), residual_check))
        ops.append(Op(f"homogeneous_a_check n={n}",
                      lambda done, n=n: ode.homogeneous_a_check(polys[n], n, through=8), residual_check))
    # p95 falls among the three homogeneous_a_check calls, below verify schwinv
    return Workload("identity-suites", ops, min_passes=8, tail_percentile=95)


# -- quadrature-operators -----------------------------------------------------


def d0_beta_closed_form(coeffs, n: int, series: str, z: complex) -> complex:
    """d0_beta(sigma_n)(nu)(z) for nu the Ahlfors-Weill section of
    phi(w) = sum c_m w^m.  Expanding (z-eta)^-(n+1) in z/eta and integrating
    over |eta| > 1 leaves one term per monomial:
    c(n) n! C(m+3, n) z^(m+3-n) / ((m+1)(m+2)(m+3)), zero when m < n-3;
    c(n) is 1 for the A series and n-2 for the B series."""
    c = 1 if series == "A" else n - 2
    return sum(
        cm * c * factorial(n) * comb(m + 3, n) * z ** (m + 3 - n) / ((m + 1) * (m + 2) * (m + 3))
        for m, cm in enumerate(coeffs)
        if m + 3 >= n
    )


def d0_beta_bound(n: int, series: str) -> float:
    c = 1 if series == "A" else n - 2
    return 2.0 * 4.0 ** (n - 1) * factorial(n) * c / (n - 1)


def _powers(matrix, j: int):
    return np.linalg.matrix_power(matrix if j >= 0 else np.linalg.inv(matrix), abs(j))


def _pullback(f, matrix, z, q: int) -> complex:
    """f(w(z)) w'(z)^q for the Moebius map w with the given matrix."""
    (a, b), (c, d) = matrix
    return complex(f((a * z + b) / (c * z + d)) * ((a * d - b * c) / (c * z + d) ** 2) ** q)


def quadrature_operators(seed: int, ref: Refs, counts) -> Workload:
    from schwarzian_lab import automorphic, integrals, maps, symbolic

    rng = random.Random(seed)
    ops = []

    def sigma(series, n):
        return symbolic.sigma_a(n) if series == "A" else symbolic.sigma_b(n)

    def aw(coeffs):
        return integrals.ahlfors_weill_density(maps.catalog("taylor", coeffs=coeffs))

    def close_to(label, reference, tol):
        def check(value, done):
            want = ref(label, reference)
            err = abs(complex(value) - want) / max(abs(want), 1e-300)
            return _fail_unless(err < tol, f"{complex(value)!r} vs closed form {want!r}: relerr {err:.2e} >= {tol}")
        return check

    # criterion 05: the differential inverts the section; phi = 1, so phi(z) = 1
    z5 = 0.2 + 0.1j
    ops.append(Op("d0_beta aw(1) default grid", lambda done: integrals.d0_beta(sigma("A", 3), aw([1.0]), z5),
                  close_to("criterion-05", d0_beta_closed_form([1.0], 3, "A", z5), 2e-2)))
    ops.append(Op("d0_beta aw(1) 2x grid",
                  lambda done: integrals.d0_beta(sigma("A", 3), aw([1.0]), z5, integrals.exterior_disc_quadrature(R=192, M=512)),
                  close_to("criterion-05", d0_beta_closed_form([1.0], 3, "A", z5), 5e-3)))

    # criterion 06: the half-plane reproducing formula returns phi(z)
    for q in (2, 3):
        def phi(z, p=2 * q):
            return (np.asarray(z, dtype=complex) - 1j) ** (-float(p))

        ops.append(Op(f"repro_check q={q}", lambda done, q=q, phi=phi: integrals.repro_check(phi, q, -2j),
                      lambda rep, done, q=q: close_to("reproduced", (-2j - 1j) ** (-2 * q), 1e-2)(rep["rhs"], done)))

    # criterion 07 inputs; the left side is checked against the closed form too
    zk = 0.3 + 0.1j
    for coeffs in ([0, 0, 1], [1, 0.5, 0.25j, 1]):
        for n in (3, 5):
            for series in "AB":
                reference = d0_beta_closed_form(coeffs, n, series, zk)

                def kernel_check(rep, done, reference=reference):
                    if not rep["relerr"] < ref("pairing", 1e-2, wrong=0.0) or not abs(rep["lhs"]) >= ref("kernel-floor", 1e-6, wrong=math.inf):
                        return f"pairing relerr {rep['relerr']:.2e}, |lhs| {abs(rep['lhs']):.2e}"
                    return close_to("kernel-closed-form", reference, 1e-2)(rep["lhs"], done)

                ops.append(Op(f"kernel_criterion_check aw{coeffs} n={n} {series}",
                              lambda done, c=coeffs, n=n, s=series: integrals.kernel_criterion_check(aw(c), n, zk, s),
                              kernel_check))

    # criterion 08: group balls, Poincare series, automorphy, unfolding, Bergman
    gen = maps.Moebius.hyperbolic(0.5, 2.8, 4.0)
    gmat = np.array([[gen.a, gen.b], [gen.c, gen.d]])
    for r in (8, 12, 16):
        ops.append(Op(f"group_ball r={r}",
                      lambda done, r=r: automorphic.group_ball(automorphic.group_from_descriptor(CYCLIC), r),
                      lambda ball, done, r=r: _fail_unless(len(ball) == ref("ball-size", 2 * r + 1), f"{len(ball)} elements, cyclic ball has {2 * r + 1}")))

    zt = 0.25 + 0.15j
    metzger = automorphic.metzger_element(3, gen, 2)

    def monomial3(w):
        return w**3

    for r in (8, 12, 16):
        # the series of z^3 - g^3 (g')^2 over {g^j : |j| <= r} telescopes to
        # F(g^-r) - F(g^(r+1)) with F(h) = h(z)^3 h'(z)^2
        telescoped = _pullback(monomial3, _powers(gmat, -r), zt, 2) - _pullback(monomial3, _powers(gmat, r + 1), zt, 2)
        ops.append(Op(f"poincare_theta metzger r={r}",
                      lambda done, r=r: automorphic.poincare_theta(metzger, 2, done[f"group_ball r={r}"], zt),
                      lambda th, done, t=telescoped: _fail_unless(abs(th.value - ref("telescoped", t)) <= 1e-12, f"theta {th.value!r} vs telescoped {t!r}")))

    f8 = maps.catalog("taylor", coeffs=[0, 0.5, 1])
    za = 0.3 + 0.2j

    def poly8(w):
        return 0.5 * w + w**2

    direct = sum(_pullback(poly8, _powers(gmat, j), za, 2) for j in range(-8, 9))
    shifted = _pullback(poly8, _powers(gmat, 9), za, 2) - _pullback(poly8, _powers(gmat, -8), za, 2)

    def theta8_check(th, done):
        if not (0 < th.automorphy_bound < ref("bound-finite", math.inf, wrong=0.0)):
            return f"automorphy bound {th.automorphy_bound!r}"
        want = ref("direct-sum", direct)
        return _fail_unless(abs(th.value - want) <= 1e-12 * max(1.0, abs(want)), f"theta {th.value!r} vs direct sum {want!r}")

    def residual8_check(res, done):
        want = ref("telescoped-residual", abs(shifted))
        if abs(res - want) > 1e-12 + 1e-9 * want:
            return f"automorphy residual {res!r} vs telescoped {want!r}"
        bound = ref("automorphy-bound", done["poincare_theta f r=8"].automorphy_bound, wrong=0.0)
        return _fail_unless(res <= bound, f"automorphy residual {res!r} above its bound {bound!r}")

    ops.append(Op("poincare_theta f r=8", lambda done: automorphic.poincare_theta(f8, 2, done["group_ball r=8"], za), theta8_check))
    ops.append(Op("automorphy_residual f r=8",
                  lambda done: automorphic.automorphy_residual(f8, 2, done["group_ball r=8"], za), residual8_check))

    big_f = maps.catalog("taylor", coeffs=[0, 0, 0.5, 0.2])
    h = maps.catalog("taylor", coeffs=[0, 1, 1])

    def lemma(done):
        ball = done["group_ball r=12"]
        fd = automorphic.fundamental_annulus_grid(0.5, 2.8, 4.0)
        return automorphic.lemma_scalar_check(lambda w: automorphic.theta_values(big_f, 2, ball, w), h,
                                              automorphic.PairingSpec(2), ball, fd)

    def lemma_check(rep, done):
        want = ref("unfolding", rep["rhs"])
        err = abs(rep["lhs"] - want) / max(abs(want), 1e-300)
        return _fail_unless(err < 1e-2 and abs(rep["lhs"]) > ref("lemma-floor", 1e-4, wrong=math.inf), f"unfolding relerr {err:.2e}, |lhs| {abs(rep['lhs']):.2e}")

    ops.append(Op("lemma_scalar_check r=12", lemma, lemma_check))

    pts = np.array([0.3, 0.2 + 0.4j, -0.5j])
    for k in range(5):
        ops.append(Op(f"bergman_project w^{k}",
                      lambda done, k=k: automorphic.bergman_project(lambda w, k=k: np.asarray(w) ** k, 2, pts),
                      lambda vals, done, k=k: _fail_unless(float(np.max(np.abs(vals - ref("projection", pts**k)))) < 1e-3, f"projection of w^{k} moved it")))
    ops.append(Op("bergman_project 1 at 0", lambda done: automorphic.bergman_project(lambda w: np.ones_like(w), 2, 0.0),
                  lambda v, done: _fail_unless(abs(v - ref("projection", 1.0)) < 1e-3, f"projection of 1 at 0 = {v!r}")))

    # operator-norm samples: Ahlfors-Weill sections of seeded polynomials with
    # a coefficient of degree >= n-3, so the operator does not annihilate them
    samples = 0
    while samples < 12:
        series, n = rng.choice("AB"), rng.choice((3, 4, 5))
        deg = n - 3 + rng.randint(0, 2)
        coeffs = [rng.uniform(0.3, 1.0) * complex(math.cos(t), math.sin(t))
                  for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(deg + 1))]
        rad, ang = rng.uniform(0.0, 0.6), rng.uniform(0.0, 2.0 * math.pi)
        z = complex(rad * math.cos(ang), rad * math.sin(ang))
        reference = d0_beta_closed_form(coeffs, n, series, z)
        if abs(reference) < 1e-3:
            continue
        samples += 1
        fn = maps.catalog("taylor", coeffs=coeffs)

        def sample(done, series=series, n=n, fn=fn, z=z):
            nu = integrals.ahlfors_weill_density(fn)
            return integrals.d0_beta(sigma(series, n), nu, z), nu.sup_bound

        def sample_check(result, done, series=series, n=n, z=z, reference=reference):
            value, sup = result
            if not abs(value) > ref("nonzero", 0.0, wrong=math.inf):
                return "d0_beta annihilated the sample"
            ratio = abs(value) * (1 - abs(z) ** 2) ** (n - 1) / (ref("operator-norm", d0_beta_bound(n, series), wrong=1e-300) * sup)
            if not ratio <= 1.0:
                return f"operator-norm ratio {ratio:.3g} > 1"
            return close_to("sample-closed-form", reference, 2e-2)(value, done)

        ops.append(Op(f"d0_beta sample {samples} {series}{n}", sample, sample_check))
    # p90 falls among the ten kernel-criterion and reproducing-formula checks,
    # below the lemma and the 2x-grid d0_beta
    return Workload("quadrature-operators", ops, min_passes=10, tail_percentile=90)


MAKERS = {
    "schlicht-bounds": schlicht_bounds,
    "identity-suites": identity_suites,
    "quadrature-operators": quadrature_operators,
}


def build(name: str, seed: int, counts, ref=None) -> Workload:
    return MAKERS[name](seed, Refs() if ref is None else ref, counts)

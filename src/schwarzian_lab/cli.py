"""Command-line front end.

Subcommands emit symbolic expansions, verification reports, and norm tables.
Reports are plain data: ``--format json`` serializes them canonically
(schema "v1", sorted keys, complex numbers as [re, im] pairs), so a fixed
command line and seed produce byte-identical output.  Exit status: 0 when
every check in the report passed, 1 when one failed, 2 for invalid usage.

The norm, quadrature and group layers are imported by the subcommands that
use them, so `verify`, `expand` and `solve` never load them.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import checks
from .jets import JetError, jet_from_coeffs
from .maps import DISC, EXTERIOR_DISC, LOWER_HALF, AnalyticFn, NonFiniteError, catalog, poincare_density, quiet, rotated_koebe, schlicht_family
from .ode import homogeneous_a_check, homogeneous_b_residual, max_abs, ode_residual, schwarzian_solve
from .symbolic import CriticalPointError, classical, evaluate_jet, monomial_part, series_constant, to_string


# -- report plumbing -----------------------------------------------------------


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x) -> float | str:
    """x as a float, or as the string "NaN", "Infinity" or "-Infinity":
    JSON has no number for those, and `json.dumps` would write bare tokens
    that only lenient parsers read."""
    x = float(x)
    return x if math.isfinite(x) else _NON_FINITE[repr(x)]


def _jsonify(obj, number=float):
    """obj as plain dicts, lists, strings and numbers, with every real (and
    each part of a complex number, as [re, im]) passed through `number`."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v, number) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, number) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (np.floating, float)):
        return number(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return [number(z.real), number(z.imag)]
    if isinstance(obj, np.integer):
        return int(obj)
    return str(obj)


def _text_lines(obj, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)):
                yield f"{pad}{k}:"
                yield from _text_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {v}"
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                yield f"{pad}-"
                yield from _text_lines(v, indent + 1)
            else:
                yield f"{pad}- {v}"
    else:
        yield f"{pad}{obj}"


def _emit(report: dict, args) -> None:
    data = _jsonify({"schema": "v1", **report}, _json_number if args.format == "json" else float)
    if args.format == "json":
        text = json.dumps(data, sort_keys=True, indent=2, allow_nan=False)
    elif args.format == "csv":
        rows = data["rows"]
        cols = list(rows[0])
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in cols))
        text = "\n".join(lines)
    else:
        text = "\n".join(_text_lines(data))
    if args.out:
        try:
            out = open(args.out, "w")
        except OSError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        with out:
            print(text, file=out)
    else:
        print(text)


# -- argument parsing helpers --------------------------------------------------


def _complex(text: str) -> complex:
    """argparse type: a finite complex number."""
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return z


def _point_in(dom):
    """argparse type: a complex number inside the given domain."""

    def parse(text: str) -> complex:
        z = _complex(text)
        if not dom.contains(z):
            raise argparse.ArgumentTypeError(f"{z} is not inside {dom.tag}")
        return z

    return parse


def _require(ok: bool, msg: str) -> None:
    """Reject a parameter whose valid range depends on the other parameters."""
    if not ok:
        raise argparse.ArgumentTypeError(msg)


def _complex_list(text: str) -> list:
    return [_complex(part) for part in text.split(",") if part.strip()]


def _positive_float(text: str) -> float:
    """argparse type: a finite real number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {value}")
    return value


def _int_at_least(lo: int, even: bool = False):
    """argparse type: an integer >= lo, and even if asked."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo or (even and value % 2):
            raise argparse.ArgumentTypeError(f"expected {'an even' if even else 'an'} integer >= {lo}, got {value}")
        return value

    return parse


def parse_function(spec: str) -> AnalyticFn:
    """Function descriptors: catalog names (koebe, identity, cayley),
    ``rotation:theta``, ``rotated-koebe:theta`` (the descriptor
    ``{"kind": "koebe", "theta": theta}``), ``taylor:c0,c1,...``, inline JSON
    descriptors, or ``@path`` to a JSON file.  A spec that does not parse, or
    a descriptor of an unknown kind or with a missing, malformed or unread
    field, is an `ArgumentTypeError` (exit 2)."""
    try:
        if spec.startswith("@"):
            with open(spec[1:]) as fh:
                return AnalyticFn(json.load(fh))
        if spec.startswith("{"):
            return AnalyticFn(json.loads(spec))
        if spec.startswith("taylor:"):
            return catalog("taylor", coeffs=_complex_list(spec[len("taylor:") :]))
        if spec.startswith("rotation:"):
            return catalog("rotation", theta=float(spec.split(":", 1)[1]))
        if spec.startswith("rotated-koebe:"):
            return rotated_koebe(float(spec.split(":", 1)[1]))
        return catalog(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"invalid function spec {spec!r}: {exc}") from None
    except OSError as exc:  # the @path file cannot be read
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_density(spec: str):
    """The `integrals.DensityFn` on the exterior disc that ``aw:<function>``
    (the bounded section of a holomorphic function) or ``const:<c>`` names."""
    from .integrals import DensityFn, ahlfors_weill_density

    if spec.startswith("aw:"):
        return ahlfors_weill_density(parse_function(spec[3:]))
    if spec.startswith("const:"):
        c = _complex(spec[len("const:") :])
        return DensityFn(lambda eta: np.full_like(np.asarray(eta, dtype=complex), c), EXTERIOR_DISC, abs(c))
    raise argparse.ArgumentTypeError(f"unknown density spec {spec!r} (use aw:<fn> or const:<c>)")


def inverse_power_fn(q: int) -> AnalyticFn:
    """(z - i)^(-2q) as a rational descriptor (binomial denominator)."""
    den = [math.comb(2 * q, k) * (-1j) ** (2 * q - k) for k in range(2 * q + 1)]
    return AnalyticFn({"kind": "rational", "num": [[1.0, 0.0]], "den": [[c.real, c.imag] for c in den]})


def _group(args) -> tuple:
    from .automorphic import group_from_descriptor

    try:
        desc = json.loads(args.group)
        return group_from_descriptor(desc), desc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"argument --group: invalid group descriptor: {exc}") from None


# -- subcommands ---------------------------------------------------------------


def cmd_expand(args) -> dict:
    expr = checks.sigma_expr(args.series, args.n)
    mono = monomial_part(expr)  # the series constant is read off the monomial part
    return checks.report(
        "expand",
        {"series": args.series, "n": args.n},
        True,
        expression=to_string(expr),
        monomial_part=to_string(mono),
        series_constant=str(series_constant(mono)),
        weights=sorted(expr.weights()),
    )


def cmd_verify(args) -> dict:
    _require(args.series is None or args.target == "covariance", f"argument --series: {args.target} takes no series")
    if args.target == "weights":
        _require(args.n is None, "argument --n: weights draws its own orders")
        _require(args.tol is None, "argument --tol: weights is exact and takes no tolerance")
        return checks.weight_suite(trials=args.trials, seed=args.seed)
    if args.n:
        bol = args.target == "bol"
        lo = 2 if bol else 3
        bad = [n for n in args.n if n < lo or (bol and n % 2)]
        _require(not bad, f"argument --n: {args.target} needs {'even ' if bol else ''}orders >= {lo}, got {bad}")
    kwargs = {"trials": args.trials, "seed": args.seed}
    if args.target == "covariance":
        kwargs["series"] = args.series or "A"
    if args.n:
        kwargs["n_values"] = tuple(args.n)
    if args.tol is not None:
        kwargs["tol"] = args.tol
    return checks.VERIFY_SUITES[args.target](**kwargs)


def cmd_norm(args) -> dict:
    from .norms import SampleGrid, bn_norm_report, bound_ok, bound_row, sigma_phi

    fn = parse_function(args.function)
    expr = checks.sigma_expr(args.series, args.n)
    grid = SampleGrid(J=args.grid_j, M=args.grid_m)
    rep = bn_norm_report(sigma_phi(fn, expr), args.n - 1, grid)
    row = bound_row(args.series, args.n, rep["estimate"])
    inputs = {"function": args.function, "series": args.series, "n": args.n}
    return checks.report("norm", inputs, bound_ok(row), report=rep, rows=[{"function": args.function, **row}])


def cmd_bound(args) -> dict:
    from .norms import bound_check, bound_ok

    fams = schlicht_family()
    rows = [
        {"function": name, **bound_check(args.series, n, fn)}
        for name, fn in fams
        if args.function in ("all", name)
        for n in args.n
    ]
    if not rows:
        names = [name for name, _ in fams]
        raise argparse.ArgumentTypeError(f"argument --function: unknown catalog function {args.function!r}; have {names} or 'all'")
    inputs = {"series": args.series, "n": args.n, "function": args.function}
    return checks.report("bound", inputs, all(bound_ok(row) for row in rows), rows=rows)


def _exterior_grid(args, order: int):
    from .integrals import exterior_disc_quadrature

    # the moment series of a kernel of order k reads the modes past k + 1
    _require(args.grid_m > order + 1, f"argument --grid-m: a kernel of order {order} needs more than {order + 1} angles")
    return exterior_disc_quadrature(R=args.grid_r, M=args.grid_m)


def cmd_dzero(args) -> dict:
    from .integrals import d0_beta, d0_beta_norm_bound

    nu = parse_density(args.density)
    grid = _exterior_grid(args, args.n)
    expr = checks.sigma_expr(args.series, args.n)
    val = d0_beta(expr, nu, args.z, grid)
    lam = poincare_density(DISC, args.z)
    weighted = abs(val) * lam ** (1 - args.n)
    bound = d0_beta_norm_bound(args.n, args.series) * nu.sup_bound
    inputs = {"series": args.series, "n": args.n, "z": args.z, "density": args.density, "grid": dict(grid.meta)}
    return checks.report("dzero", inputs, weighted <= bound, value=val, weighted_magnitude=weighted, norm_bound=bound)


def cmd_aw(args) -> dict:
    from .integrals import ahlfors_weill, ahlfors_weill_density, d0_beta

    phi = parse_function(args.phi)
    w = 1 / np.conj(args.z)
    with quiet():  # no warnings from a pole or an overflow at w
        target = complex(phi(w))
    _require(np.isfinite(target), f"argument --phi: {args.phi!r} is not finite at 1/conj(z) = {w}")
    sval = ahlfors_weill(phi, args.z)
    nu = ahlfors_weill_density(phi)
    grid = _exterior_grid(args, 3)
    round_trip = d0_beta(checks.sigma_expr("A", 3), nu, w, grid)
    relerr = abs(round_trip - target) / max(abs(target), 1e-300)  # relative to the target alone
    return checks.report(
        "aw",
        {"phi": args.phi, "z": args.z, "grid": dict(grid.meta)},
        relerr < args.tol,
        section_value=sval,
        sup_bound=nu.sup_bound,
        roundtrip={"lhs": round_trip, "rhs": target, "relerr": relerr},
    )


def cmd_repro(args) -> dict:
    from .integrals import half_plane_quadrature, repro_check

    phi = parse_function(args.phi) if args.phi else inverse_power_fn(args.q)
    grid = half_plane_quadrature(R=args.grid_r, M=args.grid_m)
    inputs = {"q": args.q, "z": args.z, "phi": args.phi or f"(z-i)^(-{2 * args.q})"}
    try:
        rep = repro_check(phi, args.q, args.z, grid)
    except NonFiniteError as exc:
        with quiet():  # a usage error if the default phi, set by --q, is what overflows
            if args.phi or np.all(np.isfinite(phi(grid.nodes))):
                raise
        raise argparse.ArgumentTypeError(f"argument --q: the default phi {inputs['phi']} is not finite at {exc.where}: {exc}")
    return checks.report("repro", inputs, rep["relerr"] < args.tol, **rep)


def cmd_kernel_criterion(args) -> dict:
    from .integrals import kernel_criterion_check

    nu = parse_density(args.density)
    grid = _exterior_grid(args, args.n)
    rep = kernel_criterion_check(nu, args.n, args.z, args.series, grid)
    inputs = {"series": args.series, "n": args.n, "z": args.z, "density": args.density}
    return checks.report("kernel-criterion", inputs, rep["relerr"] < args.tol, **rep)


def cmd_theta(args) -> dict:
    from .automorphic import automorphy_residual, group_ball, poincare_theta

    gens, desc = _group(args)
    ball = group_ball(gens, args.radius)
    f = parse_function(args.f)
    rep = poincare_theta(f, args.q, ball, args.z)
    res = automorphy_residual(f, args.q, ball, args.z) if gens else 0.0
    return checks.report(
        "theta",
        {"group": desc, "radius": args.radius, "q": args.q, "f": args.f, "z": args.z},
        # an infinite bound holds nothing, and a non-finite value (a pole at z) satisfies nothing
        bool(np.isfinite(rep.value)) and math.isfinite(rep.automorphy_bound) and res <= rep.automorphy_bound,
        value=rep.value,
        tail_estimate=rep.tail_estimate,
        automorphy_bound=rep.automorphy_bound,
        automorphy_residual=res,
        ball_size=len(ball),
    )


def cmd_pairing(args) -> dict:
    from .automorphic import PairingSpec, fundamental_annulus_grid, wp_pairing
    from .integrals import disc_quadrature

    f = parse_function(args.f)
    g = parse_function(args.g)
    spec = PairingSpec(args.s)
    if args.group:
        gens, desc = _group(args)
        if len(gens) != 1:
            raise argparse.ArgumentTypeError("argument --group: fundamental-domain pairing needs a cyclic group")
        t1, t2 = map(float, desc["fixpoints"])
        grid = fundamental_annulus_grid(t1, t2, float(desc["multiplier"]), n_rad=args.grid_r, n_ang=args.grid_m)
        domain_note = "cyclic fundamental domain"
    else:
        grid = disc_quadrature(R=args.grid_r, M=args.grid_m)
        domain_note = "unit disc"
    val = wp_pairing(f, g, spec, grid)
    flipped = wp_pairing(g, f, spec, grid)
    sym = abs(val - np.conj(flipped)) / max(abs(val), 1e-300)  # relative to <f, g> alone
    inputs = {"f": args.f, "g": args.g, "s": args.s, "domain": domain_note, "grid": dict(grid.meta)}
    return checks.report("pairing", inputs, sym < 1e-9, value=val, conjugate_symmetry_relerr=sym)


def cmd_bergman(args) -> dict:
    from .automorphic import bergman_project, projection_symmetry_check
    from .integrals import disc_quadrature

    # the projection resolves the angular modes below M/2 only
    _require(args.grid_m > 2 * args.k, f"argument --grid-m: fixing w^{args.k} needs more than {2 * args.k} angles")
    grid = disc_quadrature(R=args.grid_r, M=args.grid_m)
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6])
    checks_list = []
    for k in range(args.k + 1):
        f = lambda w, k=k: np.asarray(w, dtype=complex) ** k
        vals = bergman_project(f, args.s, zs, grid)
        err = float(np.max(np.abs(vals - zs**k)))
        checks_list.append({"check": f"fixes w^{k}", "max_abs_err": err})
    worst = np.max([c["max_abs_err"] for c in checks_list])  # NaN if any is, where max drops it
    one = lambda w: np.ones_like(np.asarray(w, dtype=complex))
    v0 = bergman_project(one, args.s, 0.0, grid)
    checks_list.append({"check": "constant at origin", "lhs": v0, "rhs": 1.0, "abs_err": abs(v0 - 1)})
    sym = projection_symmetry_check(
        lambda w: np.asarray(w) ** 2 * np.conj(w), lambda w: np.asarray(w) + np.conj(w), args.s, grid
    )
    checks_list.append({"check": "pairing symmetry", "relerr": sym["relerr"]})
    ok = worst < args.tol and abs(v0 - 1) < args.tol and sym["relerr"] < 1e-2
    return checks.report("bergman", {"s": args.s, "k": args.k, "grid": dict(grid.meta)}, ok, checks=checks_list)


def cmd_solve(args) -> dict:
    if args.what == "ode":
        coeffs = args.phi or [0.5 + 0j]
        phi = jet_from_coeffs(list(coeffs) + [0j] * max(0, args.order - len(coeffs) + 1), 0.0)
        sol = schwarzian_solve(phi, args.order)
        s_f = evaluate_jet(classical("schwarzian"), sol.f)
        m = min(s_f.order, phi.order)
        residual = max_abs(a - b for a, b in zip(s_f.coeffs[: m + 1], phi.coeffs[: m + 1]))
        return checks.report(
            "solve-ode",
            {"phi": list(coeffs), "order": args.order},
            residual < args.tol,
            # complex throughout: the float bases start from the reals 0.0 and 1.0
            f_coeffs=[complex(c) for c in sol.f.coeffs],
            wronskian=complex(sol.wronskian),
            linear_residual=ode_residual(sol),
            schwarzian_residual=residual,
        )
    _require(args.n >= 4, f"argument --n: {args.what} needs n >= 4, got {args.n}")
    # sigma_n reads u_n: the homog-b jet is one order above --order (an antiderivative)
    least = args.n - 1 if args.what == "homog-b" else args.n
    _require(args.order >= least, f"argument --order: {args.what} needs order >= {least} for n = {args.n}, got {args.order}")
    if args.what == "homog-b":
        _require(len(args.alpha) <= args.n - 1, f"argument --alpha: at most {args.n - 1} coefficients for n = {args.n}")
        _require(bool(args.alpha) and args.alpha[0] != 0, "argument --alpha: the leading coefficient must not vanish")
        res = homogeneous_b_residual(args.n, args.alpha, order=args.order)
        inputs = {"n": args.n, "alpha": list(args.alpha), "order": args.order}
    else:
        _require(len(args.poly) <= args.n - 3, f"argument --poly: degree must be <= {args.n - 4} for n = {args.n}")
        res = homogeneous_a_check(args.poly, args.n, order=args.order)
        inputs = {"n": args.n, "poly": list(args.poly), "order": args.order}
    return checks.report(f"solve-{args.what}", inputs, res < args.tol, residual=res)


# -- parser --------------------------------------------------------------------


def _add_common(p, tol: float | None = None, grid: bool = False, formats=("text", "json")) -> None:
    """The options a subcommand ends with, --format one of `formats` (csv only for tabular
    reports); with `grid`, they start with the 96 x 256 grid's --grid-r and --grid-m."""
    if grid:
        p.add_argument("--grid-r", type=_int_at_least(1), default=96)
        p.add_argument("--grid-m", type=_int_at_least(1), default=256)
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    if tol is not None:
        p.add_argument("--tol", type=_positive_float, default=tol)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later `main` call.
    List-valued defaults are tuples, so no call can mutate them for the next."""
    ap = argparse.ArgumentParser(
        prog="schwarzian-lab",
        description="Construct higher Schwarzian operators, evaluate them on "
        "holomorphic functions, and verify the identities and bounds they satisfy.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print a higher Schwarzian operator in canonical form")
    p.add_argument("--series", choices=("A", "B"), required=True)
    p.add_argument("--n", type=_int_at_least(3), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="randomized identity suites")
    p.add_argument("target", choices=sorted(checks.VERIFY_SUITES))
    p.add_argument("--series", choices=("A", "B"), default=None, help="series for the covariance law (default A)")
    p.add_argument("--n", type=int, nargs="+", help="operator orders to draw from")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.add_argument("--tol", type=_positive_float, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("norm", help="hyperbolic sup-norm estimate of sigma_n applied to a function")
    p.add_argument("--function", required=True)
    p.add_argument("--series", choices=("A", "B"), default="A")
    p.add_argument("--n", type=_int_at_least(3), default=3)
    p.add_argument("--grid-j", type=_int_at_least(0), default=14)
    p.add_argument("--grid-m", type=_int_at_least(8, even=True), default=256)
    _add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_norm, reads="--function")

    p = sub.add_parser("bound", help="sharp-bound table over the schlicht catalog")
    p.add_argument("--series", choices=("A", "B"), default="A")
    p.add_argument("--n", type=_int_at_least(3), nargs="+", default=(3, 4, 5))
    p.add_argument("--function", default="all")
    _add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("dzero", help="differential of the higher Bers map at the origin")
    p.add_argument("--series", choices=("A", "B"), default="A")
    p.add_argument("--n", type=_int_at_least(3), default=3)
    p.add_argument("--z", type=_point_in(DISC), default=0.2 + 0.1j)
    p.add_argument("--density", default="aw:identity")
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_dzero, reads="--density")

    p = sub.add_parser("aw", help="bounded holomorphic section and its round trip through the differential")
    p.add_argument("--phi", default="identity")
    p.add_argument("--z", type=_point_in(EXTERIOR_DISC), default=2 + 0j, help="exterior evaluation point")
    _add_common(p, tol=2e-2, grid=True)
    p.set_defaults(func=cmd_aw, reads="--phi")

    p = sub.add_parser(
        "repro",
        help="half-plane reproducing formula for Bers-type densities",
        description="Half-plane reproducing formula, on the Cayley image of the disc rule. "
        "For the default phi = (w-i)^(-2q) the error falls geometrically in the grid size at a rate set by the pulled-back pole "
        "zeta0 = (z-i)/(z+i): the nearer |zeta0| is to 1 (z near the real axis or far from i), the slower, "
        "and z = 100-1j reads relerr 1.07 on the default 96 x 256 grid. For q = 1 the pulled-back density "
        "is not smooth at zeta = 1 and the error falls only like M^-2 in the angle count "
        "(4.4e-4 at z = -2i on 96 x 256, 2.8e-5 on 96 x 1024).",
    )
    p.add_argument("--q", type=_int_at_least(1), default=2)
    p.add_argument("--z", type=_point_in(LOWER_HALF), default=-2j)
    p.add_argument("--phi", default=None, help="defaults to (z-i)^(-2q)")
    _add_common(p, tol=1e-2, grid=True)
    p.set_defaults(func=cmd_repro, reads="--phi")

    p = sub.add_parser(
        "kernel-criterion",
        help="pairing form of the differential against the kernel power",
        description="Pairing form of the differential against the kernel power. The left side is the moment series, "
        "the right side a node sum on the grid, and near the unit circle the node sum needs more angles: "
        "--z 0.97 --n 5 --density aw:taylor:0,0,1 reads relerr 0.99 on the default 96 x 256 grid "
        "and 1.6e-4 with --grid-m 768.",
    )
    p.add_argument("--series", choices=("A", "B"), default="A")
    p.add_argument("--n", type=_int_at_least(3), default=3)
    p.add_argument("--z", type=_point_in(DISC), default=0.3 + 0.1j)
    p.add_argument("--density", default="aw:taylor:0,0,1")
    _add_common(p, tol=1e-2, grid=True)
    p.set_defaults(func=cmd_kernel_criterion, reads="--density")

    p = sub.add_parser("theta", help="truncated Poincare series with tail and automorphy bounds")
    p.add_argument("--group", default='{"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": 4.0}')
    p.add_argument("--radius", type=_int_at_least(1), default=8)
    p.add_argument("--q", type=_int_at_least(2), default=2)
    p.add_argument("--f", default="taylor:0,0.5,1")
    p.add_argument("--z", type=_point_in(DISC), default=0.3 + 0.2j)
    _add_common(p)
    p.set_defaults(func=cmd_theta, reads="--f")

    p = sub.add_parser("pairing", help="Weil-Petersson pairing over the disc or a cyclic fundamental domain")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--s", type=_int_at_least(2), default=2)
    p.add_argument("--group", default=None)
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_pairing, reads="--f/--g")

    p = sub.add_parser("bergman", help="weighted Bergman projection checks")
    p.add_argument("--s", type=_int_at_least(2), default=2)
    p.add_argument("--k", type=_int_at_least(0), default=4)
    _add_common(p, tol=1e-3, grid=True)
    p.set_defaults(func=cmd_bergman)

    p = sub.add_parser("solve", help="power-series solutions of the Schwarzian equations")
    p.add_argument("what", choices=("ode", "homog-a", "homog-b"))
    p.add_argument("--phi", type=_complex_list, default=None, help="Taylor coefficients of the target Schwarzian")
    p.add_argument("--alpha", type=_complex_list, default=(1 + 0j, 0j, 1 + 0j))
    p.add_argument("--poly", type=_complex_list, default=(0.5 + 0j,))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--order", type=_int_at_least(3), default=14)
    _add_common(p, tol=1e-9)
    p.set_defaults(func=cmd_solve)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        _emit(report, args)
    except (NonFiniteError, JetError, CriticalPointError) as exc:
        # a usage error where the function a subcommand reads (its option `reads`) fails on its grid
        specs = [getattr(args, name[2:]) for name in args.reads.split("/")] if "reads" in args else [None]
        if None in specs:
            raise
        fails = "is not finite" if isinstance(exc, NonFiniteError) else "has a pole" if isinstance(exc, JetError) else "has f' = 0"
        where = getattr(exc, "where", "a sample point")  # only norm takes jets, at its sample points
        error = f"argument {args.reads}: {'/'.join(map(repr, specs))} {fails} at {where}: {exc}"
    except argparse.ArgumentTypeError as exc:
        error = exc
    else:
        return 0 if report.get("ok", False) else 1
    # the same one-line form argparse uses for the errors it finds itself
    print(f"schwarzian-lab {args.command}: error: {error}", file=sys.stderr)
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())

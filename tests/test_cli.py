"""Command-line front end: exit codes, output formats, determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from schwarzian_lab import AnalyticFn, automorphic, catalog, cli, integrals, rotated_koebe
from schwarzian_lab.automorphic import projection_symmetry_check
from schwarzian_lab.cli import build_parser, main, parse_function
from schwarzian_lab.integrals import NonFiniteError, disc_quadrature, weighted_pairing
from schwarzian_lab.jets import JetError

SRC = str(Path(cli.__file__).resolve().parents[1])


def run(args):
    return main(args)


def test_expand_text_golden(capsys):
    code = run(["expand", "--series", "A", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "u4/u1 - 6*u3*u2/u1^2 + 6*u2^3/u1^3" in out


def test_expand_json_schema(capsys):
    code = run(["expand", "--series", "B", "--n", "5", "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == "v1"
    assert rep["inputs"]["series"] == "B"
    assert rep["weights"] == [4]


def test_verify_exit_codes(capsys):
    assert run(["verify", "affine", "--trials", "5"]) == 0
    capsys.readouterr()
    # an absurd tolerance forces a failed check -> exit 1
    assert run(["verify", "affine", "--trials", "5", "--tol", "1e-30"]) == 1


def test_unknown_function_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--function", "no-such-map"])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "descriptor, reason",
    [
        ('{"kind": "frobnicate"}', "unknown function kind 'frobnicate'"),
        ('{"kind": ', "Expecting value"),
        ('{"kind": "rotation"}', "rotation descriptor lacks 'theta'"),
        ('{"kind": "compose", "fns": [{"kind": "koebe"}]}', "unknown function kind 'compose'"),
    ],
    ids=["unknown-kind", "truncated-json", "missing-field", "compose"],
)
def test_bad_function_descriptor_is_a_one_line_usage_error(capsys, tmp_path, descriptor, reason):
    path = tmp_path / "fn.json"
    path.write_text(descriptor)
    for spec in (descriptor, f"@{path}"):
        with pytest.raises(SystemExit) as exc:
            run(["norm", "--function", spec, "--grid-j", "2", "--grid-m", "8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("schwarzian-lab norm: error: invalid function spec "), err
        assert reason in err[0]


@pytest.mark.parametrize(
    "spec, build",
    [
        ('{"kind": "rotation", "theta": "x"}', None),
        ('{"kind": "rotation", "theta": NaN}', None),
        ("rotation:nan", lambda: catalog("rotation", theta=float("nan"))),
        ("rotated-koebe:inf", lambda: rotated_koebe(float("inf"))),
        ('{"kind": "taylor", "center": [0, 0], "coeffs": []}', None),
        ('{"kind": "taylor", "center": [0, 0, 1], "coeffs": [[0, 0], [1, 0]]}', None),
        ('{"kind": "moebius", "mat": [[1, 0], [2, 0], [1, 0], [2, 0]]}', None),
        ('{"kind": "moebius", "mat": [[1, 0], [0, 0]]}', None),
        ('{"kind": "pullback_diff", "k": 1.5, "q": 2, "mat": [[1, 0], [0, 0], [0, 0], [1, 0]]}', None),
        ('{"kind": "rational", "num": [[1, 0]], "den": [[0, 0], [0, 0]]}', None),
        ('{"kind": "pullback_diff", "k": -1, "q": 2, "mat": [[1, 0], [0, 0], [0, 0], [1, 0]]}', None),
        ('{"kind": "koebe", "angle": 1.1}', None),
        ('{"kind": "identity", "theta": 1.1}', None),
        ('{"kind": "koebe", "theta": "x"}', None),
        ('{"kind": "koebe", "theta": NaN}', None),
    ],
    ids=["theta-string", "theta-nan", "rotation-nan", "rotated-koebe-inf", "empty-coeffs", "3-entry-center",
         "singular-mat", "2-pair-mat", "fractional-k", "zero-den", "negative-k", "koebe-angle", "identity-theta",
         "koebe-theta-string", "koebe-theta-nan"],
)
def test_malformed_descriptor_is_a_value_error_and_a_usage_error(capsys, spec, build):
    # the descriptor is checked when the function is built, not when it is used
    with pytest.raises(ValueError):
        build() if build else AnalyticFn(json.loads(spec))
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--function", spec, "--grid-j", "2", "--grid-m", "8"])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schwarzian-lab norm: error: invalid function spec "), lines


@pytest.mark.parametrize(
    "spec",
    ['{"kind": "rational", "num": [[1, 0]], "den": [[0, 0]]}',
     '{"kind": "pullback_diff", "k": -1, "q": 2, "mat": [[1, 0], [0, 0], [0, 0], [1, 0]]}'],
    ids=["zero-den", "negative-k"],
)
def test_descriptor_with_a_pole_is_a_usage_error_under_theta(capsys, spec):
    # rejected when read, before theta evaluates a pole everywhere or at 0
    with pytest.raises(SystemExit) as exc:
        run(["theta", "--f", spec, "--radius", "2"])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schwarzian-lab theta: error: invalid function spec "), lines


@pytest.mark.parametrize(
    "den",
    ["[[0.5, 0], [-1, 0]]", "[[0, 0], [1, 0]]"],
    ids=["pole-at-grid-point-0.5", "pole-at-0"],
)
def test_pole_at_a_sample_point_is_a_usage_error_under_norm(capsys, den):
    # a valid descriptor, so it reads; 1/den has its pole on the grid
    spec = f'{{"kind": "rational", "num": [[1, 0]], "den": {den}}}'
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--function", spec, "--grid-j", "2", "--grid-m", "8"])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schwarzian-lab norm: error: argument --function: "), lines
    assert "has a pole at a sample point" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [["aw", "--phi", '{"kind":"rational","num":[[1,0]],"den":[[0,0],[1,0]]}'],
     ["dzero", "--density", 'aw:{"kind":"rational","num":[[1,0]],"den":[[0,0],[1,0]]}'],
     ["kernel-criterion", "--density", 'aw:{"kind":"moebius","mat":[[1,0],[0,0],[1,0],[-0.5,0]]}']],
    ids=["aw-pole-at-0", "dzero-pole-at-0", "kernel-criterion-pole-at-grid-point-0.5"],
)
def test_pole_at_a_norm_sample_point_is_a_usage_error_under_the_section(capsys, argv):
    # the section's sup bound samples phi's B_2 norm on the disc grid, where phi has its pole
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"schwarzian-lab {argv[0]}: error: argument {argv[1]}: "), lines
    assert "is not finite at a sample point" in lines[0]


def test_pole_at_the_reflected_point_is_a_usage_error_under_aw(capsys):
    # phi's pole 0.25 is off the B_2 sample grid but is 1/conj(z) for z = 4,
    # where both the section and the round trip's target read phi
    phi = '{"kind":"rational","num":[[1,0]],"den":[[-0.25,0],[1,0]]}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run(["aw", "--z", "4", "--phi", phi])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schwarzian-lab aw: error: argument --phi: "), lines
    assert "is not finite at 1/conj(z) = (0.25+0j)" in lines[0]


@pytest.mark.parametrize("side", ["--f", "--g"])
def test_pole_on_a_node_is_a_usage_error_under_pairing(capsys, side):
    # the one-node radial rule puts a node at 0.5, the pole of 1/(z - 0.5)
    pole = '{"kind":"rational","num":[[1,0]],"den":[[-0.5,0],[1,0]]}'
    other = "--g" if side == "--f" else "--f"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run(["pairing", side, pole, other, "identity", "--grid-r", "1", "--grid-m", "8", "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1, (out, lines)
    assert lines[0].startswith("schwarzian-lab pairing: error: argument --f/--g: ") and "not finite at a node" in lines[0]
    with pytest.raises(ValueError, match="non-finite integrand value"), np.errstate(divide="ignore", invalid="ignore"):
        weighted_pairing(parse_function(pole), parse_function("identity"), 2, disc_quadrature(1, 8))


def test_vanishing_derivative_at_a_sample_point_is_a_usage_error_under_norm(capsys):
    # f(z) = z^2 has f'(0) = 0 at the grid point 0, where sigma_n[f] divides by f'
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--function", "taylor:0,0,1"])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schwarzian-lab norm: error: argument --function: "), lines
    assert "f' = 0 at a sample point" in lines[0]


def test_taylor_spec_builds_the_catalog_descriptor():
    fn = parse_function("taylor:0,1,0.5-0.25j")
    assert fn.descriptor() == {"kind": "taylor", "center": [0.0, 0.0], "coeffs": [[0.0, 0.0], [1.0, 0.0], [0.5, -0.25]]}


def test_non_object_descriptor_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "fn.json"
    path.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--function", f"@{path}"])
    assert exc.value.code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_rotated_koebe_norm_runs(capsys):
    assert run(["norm", "--function", "rotated-koebe:1.1", "--series", "B", "--n", "5", "--grid-j", "6", "--grid-m", "32"]) == 0
    assert "rotated-koebe:1.1" in capsys.readouterr().out


def test_csv_requires_tabular_report(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["expand", "--series", "A", "--n", "3", "--format", "csv"])
    assert exc.value.code == 2


def test_csv_is_offered_by_norm_and_bound_only(capsys):
    # argparse refuses csv elsewhere, so verify stops before it runs a trial
    with pytest.raises(SystemExit) as exc:
        run(["verify", "affine", "--trials", "5", "--format", "csv"])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    formats = {name: [a.choices for a in p._actions if "--format" in a.option_strings] for name, p in subparsers.choices.items()}
    assert sorted(name for name, (choices,) in formats.items() if "csv" in choices) == ["bound", "norm"]


def test_bound_csv_table(capsys):
    code = run(["bound", "--series", "A", "--n", "3", "--function", "koebe", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "function,series,n,estimate,bound,margin"
    assert lines[1].startswith("koebe,A,3,")


def test_json_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["verify", "covariance", "--series", "B", "--trials", "10", "--format", "json", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["ok"] is True
    assert rep["max_relerr"] < 1e-9


def test_complex_values_encode_as_pairs(tmp_path):
    out = tmp_path / "aw.json"
    assert run(["aw", "--phi", "identity", "--z", "2+0j", "--format", "json", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "v1"
    val = rep["section_value"]
    assert isinstance(val, list) and len(val) == 2
    assert all(isinstance(x, float) for x in val)


def test_solve_default_ok(capsys):
    assert run(["solve", "ode"]) == 0
    capsys.readouterr()
    assert run(["solve", "homog-b", "--n", "4"]) == 0
    capsys.readouterr()
    assert run(["solve", "homog-a", "--n", "5", "--poly", "0.5,0.25"]) == 0


def _pairs(values):
    return all(isinstance(v, list) and len(v) == 2 for v in values)


@pytest.mark.parametrize("phi", [None, "0.3-0.2j,1j"])
def test_solve_ode_writes_every_coefficient_and_the_wronskian_as_a_pair(capsys, phi):
    # the float bases start from the reals 0.0 and 1.0; the report is complex throughout
    argv = ["solve", "ode", "--order", "6"] + (["--phi", phi] if phi else [])
    run(argv + ["--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["f_coeffs"]) == 7 and _pairs(rep["f_coeffs"]) and _pairs([rep["wronskian"]])
    assert rep["f_coeffs"][:2] == [[0.0, 0.0], [1.0, 0.0]] and rep["wronskian"] == [1.0, 0.0]
    run(argv)
    lines = capsys.readouterr().out.splitlines()
    top, w = lines.index("f_coeffs:"), lines.index("wronskian:")
    assert lines[top + 1 : top + 4] == ["  -", "    - 0.0", "    - 0.0"]
    assert lines[w + 1 : w + 3] == ["  - 1.0", "  - 0.0"]


def test_theta_report(capsys):
    code = run(["theta", "--radius", "6", "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["automorphy_residual"] <= rep["automorphy_bound"]
    assert rep["ball_size"] == 13


def test_pole_at_a_sample_point_is_a_usage_error_under_theta(capsys):
    # 1/z has its pole at sup_on_disc's sample point 0, so no finite bound holds
    spec = '{"kind": "rational", "num": [[1, 0]], "den": [[0, 0], [1, 0]]}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run(["theta", "--f", spec, "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1, (out, lines)
    assert lines[0].startswith(f"schwarzian-lab theta: error: argument --f: {spec!r} is not finite at a sample point: "), lines


def test_pole_at_z_off_the_sample_points_warns_and_fails_under_theta(capsys):
    # 1/(w - 0.3) is finite on sup_on_disc's samples; its pole is the evaluation point itself,
    # so the series evaluation warns and the verdict fails on the non-finite value
    spec = '{"kind": "rational", "num": [[1, 0]], "den": [[-0.3, 0], [1, 0]]}'
    with pytest.warns(RuntimeWarning):
        code = run(["theta", "--f", spec, "--z", "0.3", "--group", '{"kind": "trivial"}', "--format", "json"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert any(v in ("NaN", "Infinity", "-Infinity") for v in rep["value"]) and not rep["ok"]


@pytest.mark.parametrize("multiplier", [4.0, 1.01, 1.1, 1.5])
def test_theta_fails_where_the_automorphy_bound_is_infinite(capsys, multiplier):
    # at radius 1 the boundary words do not decay, and an infinite bound holds nothing
    group = json.dumps({"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": multiplier})
    assert run(["theta", "--radius", "1", "--group", group, "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["automorphy_bound"] == "Infinity" and not rep["ok"]


def test_bergman_passes_on_a_coarse_grid(capsys):
    # the projection is exact on the basis z^k, so an 8 x 16 grid fixes
    # w^0..w^4 to round-off
    assert run(["bergman", "--k", "4", "--grid-r", "8", "--grid-m", "16", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    errs = [c["max_abs_err"] for c in rep["checks"] if "max_abs_err" in c]
    assert len(errs) == 5 and max(errs) < 1e-12


def test_bergman_symmetry_check_runs_on_the_given_grid(capsys):
    assert run(["bergman", "--grid-r", "8", "--grid-m", "16", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    [sym] = [c for c in rep["checks"] if c["check"] == "pairing symmetry"]
    want = projection_symmetry_check(
        lambda w: np.asarray(w) ** 2 * np.conj(w), lambda w: np.asarray(w) + np.conj(w), 2, disc_quadrature(8, 16)
    )
    assert sym["relerr"] == want["relerr"]
    # the 24 x 48 grid the check used to fall back to gives another value
    default = projection_symmetry_check(
        lambda w: np.asarray(w) ** 2 * np.conj(w), lambda w: np.asarray(w) + np.conj(w), 2
    )
    assert sym["relerr"] != default["relerr"]


def test_bad_group_descriptor(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["theta", "--group", '{"kind": "NOPE"}'])
    assert exc.value.code == 2


def test_pairing_reads_group_numbers_as_floats(capsys):
    # JSON strings that name numbers pass the group check, so the fundamental
    # domain must read them the same way
    grid = ["--f", "taylor:0,1", "--g", "taylor:0,0.5,1", "--grid-r", "8", "--grid-m", "16", "--format", "json"]
    assert run(["pairing", "--group", '{"kind": "cyclic", "fixpoints": ["0.5", 2.8], "multiplier": "4"}'] + grid) == 0
    as_strings = json.loads(capsys.readouterr().out)
    assert run(["pairing", "--group", '{"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": 4.0}'] + grid) == 0
    assert as_strings == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--series", "A", "--n", "2"],
        ["norm", "--function", "koebe", "--n", "2"],
        ["bound", "--n", "3", "2"],
        ["norm", "--function", "koebe", "--grid-m", "7"],
        ["norm", "--function", "koebe", "--grid-m", "6"],
        ["norm", "--function", "koebe", "--grid-j", "-1"],
        ["verify", "affine", "--trials", "0"],
        ["dzero", "--n", "2"],
        ["kernel-criterion", "--n", "2"],
        ["verify", "bol", "--n", "5"],
        ["solve", "homog-b", "--n", "3"],
        ["solve", "homog-a", "--n", "3"],
        ["theta", "--q", "1"],
        ["dzero", "--z", "1.5"],
        ["verify", "affine", "--n", "2"],
        ["solve", "homog-a", "--n", "4", "--poly", "1,2"],
        ["solve", "homog-b", "--n", "4", "--alpha", "0,1"],
        ["kernel-criterion", "--z", "1.5"],
        ["pairing", "--f", "identity", "--g", "identity", "--s", "1"],
        ["theta", "--group", '{"kind": "cyclic", "fixpoints": [0.5, 0.5], "multiplier": 4.0}'],
        ["dzero", "--grid-r", "0"],
        ["bergman", "--grid-m", "-4"],
        ["bergman", "--k", "8", "--grid-r", "8", "--grid-m", "16"],
        ["repro", "--grid-r", "0"],
        ["repro", "--grid-m", "-4"],
        ["solve", "homog-b", "--n", "5", "--order", "3"],
        ["solve", "homog-a", "--n", "6", "--order", "3"],
        ["solve", "homog-a", "--n", "6", "--order", "5"],
        ["solve", "ode", "--phi", "1e400"],
        ["solve", "homog-b", "--alpha", "nan"],
        ["solve", "homog-a", "--poly", "0.5,inf"],
        ["solve", "ode", "--tol", "nan"],
        ["solve", "homog-b", "--tol", "-1"],
        ["verify", "affine", "--tol", "nan"],
        ["verify", "affine", "--tol", "-1"],
        ["verify", "weights", "--n", "4"],
        ["verify", "affine", "--n"],
        ["verify", "weights", "--tol", "1e-3"],
        ["verify", "weights", "--series", "A"],
        ["verify", "affine", "--series", "B"],
        ["verify", "bol", "--series", "A"],
        ["aw", "--tol", "0"],
        ["repro", "--tol", "inf"],
        ["kernel-criterion", "--tol", "nan"],
        ["bergman", "--tol", "-1e-3"],
        ["theta", "--group", '{"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": "nan"}'],
        ["theta", "--group", '{"kind": "cyclic", "fixpoints": [0.5, "inf"], "multiplier": 4.0}'],
        ["pairing", "--f", "identity", "--g", "identity", "--group", '{"kind": "cyclic", "fixpoints": [0.5, 2.8], "multiplier": 1e400}'],
        ["dzero", "--n", "5", "--grid-m", "6"],
        ["aw", "--grid-m", "4"],
        ["kernel-criterion", "--n", "4", "--grid-m", "5"],
    ],
)
def test_bad_numeric_parameters_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("schwarzian-lab ") and "error: argument" in err[-1]


def test_repro_has_no_radius_and_reproduces_on_the_default_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["repro", "--radius", "40"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --radius 40" in capsys.readouterr().err
    for q in ("2", "3", "4"):
        assert run(["repro", "--q", q, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["relerr"] <= 1e-13


def test_in_range_edge_parameters_still_run(capsys):
    assert run(["verify", "covariance", "--trials", "3"]) == 0
    assert "series: A" in capsys.readouterr().out
    assert run(["verify", "bol", "--n", "2", "--trials", "3"]) == 0
    assert run(["solve", "homog-a", "--n", "4", "--poly", "0.5"]) == 0
    assert run(["solve", "homog-b", "--n", "5", "--alpha", "1,0.5,0.25,0.1"]) == 0
    assert run(["solve", "homog-b", "--n", "5", "--order", "4"]) == 0
    assert run(["solve", "homog-a", "--n", "6", "--poly", "0.5", "--order", "6"]) == 0
    assert run(["dzero", "--n", "5", "--grid-r", "8", "--grid-m", "7"]) == 0
    # runs, and fails: 5 angles fold the section's mode 5 onto mode 0
    assert run(["aw", "--grid-r", "8", "--grid-m", "5"]) == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_outputs(capsys):
    first = ["bound", "--series", "A", "--n", "3", "--function", "koebe", "--format", "json"]
    outs = []
    for argv in (first, ["solve", "homog-b", "--n", "4", "--format", "json"], first):
        run(argv)
        outs.append(capsys.readouterr().out)
    assert outs[2] == outs[0]
    assert json.loads(outs[0])["inputs"]["n"] == [3]


ENVELOPE = {"schema", "operation", "inputs", "ok"}


@pytest.mark.parametrize(
    "args, operation, fields",
    [
        (["expand", "--series", "A", "--n", "4"], "expand", {"expression", "monomial_part", "series_constant", "weights"}),
        (["verify", "affine", "--trials", "3"], "affine", {"max_relerr", "tolerance", "escalated", "hp_defect"}),
        (["verify", "weights", "--trials", "3"], "weight_homogeneity", {"failures"}),
        (["norm", "--function", "koebe", "--grid-j", "3", "--grid-m", "8"], "norm", {"report", "rows"}),
        (["bound", "--n", "3", "--function", "koebe"], "bound", {"rows"}),
        (["dzero", "--grid-r", "8", "--grid-m", "16"], "dzero", {"value", "weighted_magnitude", "norm_bound"}),
        (["aw", "--grid-r", "8", "--grid-m", "16"], "aw", {"section_value", "sup_bound", "roundtrip"}),
        (
            ["repro", "--grid-r", "16", "--grid-m", "16"],
            "repro",
            {"lhs", "rhs", "rhs_alt_sign", "relerr", "grid"},
        ),
        (["kernel-criterion", "--grid-r", "8", "--grid-m", "16"], "kernel-criterion", {"lhs", "rhs", "relerr", "n", "series"}),
        (["theta", "--radius", "2"], "theta", {"value", "tail_estimate", "automorphy_bound", "automorphy_residual", "ball_size"}),
        (
            ["pairing", "--f", "identity", "--g", "identity", "--grid-r", "8", "--grid-m", "16"],
            "pairing",
            {"value", "conjugate_symmetry_relerr"},
        ),
        (["bergman", "--k", "1", "--grid-r", "8", "--grid-m", "16"], "bergman", {"checks"}),
        (["solve", "ode", "--order", "6"], "solve-ode", {"f_coeffs", "wronskian", "linear_residual", "schwarzian_residual"}),
        (["solve", "homog-a", "--n", "5"], "solve-homog-a", {"residual"}),
        (["solve", "homog-b", "--n", "4"], "solve-homog-b", {"residual"}),
    ],
)
def test_every_subcommand_reports_in_one_envelope(capsys, args, operation, fields):
    code = run(args + ["--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == ENVELOPE | fields
    assert rep["schema"] == "v1" and rep["operation"] == operation
    assert isinstance(rep["ok"], bool) and code == (0 if rep["ok"] else 1)


def test_text_report_runs_schema_operation_inputs_fields_ok(capsys):
    run(["repro", "--grid-r", "16", "--grid-m", "16"])
    keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert keys == ["schema", "operation", "inputs", "lhs", "rhs", "relerr", "rhs_alt_sign", "grid", "ok"]


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["dzero"], "exterior_disc"),
        (["aw"], "exterior_disc"),
        (["pairing", "--f", "taylor:0,0,1", "--g", "taylor:0,1,1"], "disc"),
        (["bergman", "--k", "4"], "disc"),
    ],
    ids=["dzero", "aw", "pairing", "bergman"],
)
def test_reports_copy_the_cached_grid_meta(argv, kind):
    # both calls get the same cached grid; the second report must not see the edit
    args = build_parser().parse_args([*argv, "--grid-r", "8", "--grid-m", "16"])
    args.func(args)["inputs"]["grid"]["kind"] = "edited"
    assert args.func(args)["inputs"]["grid"] == {"kind": kind, "R": 8, "M": 16}


@pytest.mark.parametrize(
    "argv, where",
    [
        (["norm", "--function", "taylor:0,1,1e200", "--n", "3"], "a sample point"),
        (["dzero", "--density", "aw:taylor:0,1e300,1e300"], "a node"),
        (["aw", "--phi", "taylor:0,1e300,1e300"], "a node"),
        (["kernel-criterion", "--density", "aw:taylor:0,1e300,1e300"], "a node"),
        (["repro", "--phi", "taylor:1e300,1e300"], "a node"),
    ],
    ids=["norm", "dzero", "aw", "kernel-criterion", "repro"],
)
def test_function_that_overflows_on_the_grid_is_a_usage_error(capsys, argv, where):
    # finite coefficients whose values, or the values built from them, overflow on the grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1, (out, lines)
    prefix = f"schwarzian-lab {argv[0]}: error: argument {argv[1]}: {argv[2]!r} is not finite at {where}: "
    assert lines[0].startswith(prefix), lines


def test_point_errors_propagate_where_no_function_spec_was_read(monkeypatch):
    def jet_error(*args):
        raise JetError("pole at the center")

    def non_finite(*args):
        raise NonFiniteError("non-finite integrand value on quadrature node", "a node")

    # solve reads no function spec, so a JetError there is no usage error
    monkeypatch.setattr(cli, "schwarzian_solve", jet_error)
    with pytest.raises(JetError):
        run(["solve", "ode"])
    # repro with no --phi fails on its own default function; with one, on the user's
    # (cli imports repro_check from integrals when repro runs)
    monkeypatch.setattr(integrals, "repro_check", non_finite)
    with pytest.raises(NonFiniteError):
        run(["repro"])
    with pytest.raises(SystemExit) as exc:
        run(["repro", "--phi", "identity"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["dzero", "--density", "const:1e308"], "--density: 'const:1e308'"),
        (["repro", "--q", "40"], "--q: the default phi (z-i)^(-80)"),
    ],
    ids=["dzero-moments", "repro-default-phi"],
)
def test_overflow_set_by_an_option_is_a_usage_error(argv, named):
    # the constant density is finite at every node but its moments overflow; the default
    # phi's binomial denominator overflows at the outermost half-plane node.  A fresh
    # interpreter shows the warnings numpy prints on the way, which may precede the line.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "schwarzian_lab.cli", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr, (proc.returncode, proc.stderr)
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith(f"schwarzian-lab {argv[0]}: error: argument {named} is not finite at a node: "), last


def test_overflowing_density_warns_once():
    # ring_moments computes under quiet() and raises on its overflowing sums, so nothing warns
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "schwarzian_lab.cli", "dzero", "--density", "const:1e308"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 2 and lines[-1].startswith("schwarzian-lab dzero: error: "), proc.stderr
    assert sum("RuntimeWarning" in line for line in lines) == 0, proc.stderr


def test_phi_that_overflows_at_the_aw_target_is_one_error_line():
    # phi(1/conj(z)) = 1e308 + 0.99e308 overflows; the usage error is all that stderr holds
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "schwarzian_lab.cli", "aw", "--phi", "taylor:1e308,1e308", "--z", "1.01"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2 and proc.stdout == "", (proc.returncode, proc.stderr)
    assert len(lines) == 1 and lines[0].startswith("schwarzian-lab aw: error: argument --phi: 'taylor:1e308,1e308' is not finite"), lines


def test_overflowing_ode_solution_fails(capsys):
    # f's coefficients are NaN from index 4 on, after finite leading residual coefficients
    assert run(["solve", "ode", "--phi", "1e300,1e300", "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["schwarzian_residual"] == "NaN" and rep["linear_residual"] == "NaN" and rep["ok"] is False


def _strict_json(text):
    """json.loads that refuses the bare NaN and Infinity tokens, which are not JSON."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_json_reports_write_non_finite_numbers_as_strings(capsys):
    # the text format keeps Python's spelling of the same values
    assert run(["theta", "--radius", "1", "--format", "json"]) == 1
    rep = _strict_json(capsys.readouterr().out)
    assert rep["automorphy_bound"] == rep["tail_estimate"] == "Infinity"
    assert run(["solve", "ode", "--phi", "1e300,1e300", "--format", "json"]) == 1
    rep = _strict_json(capsys.readouterr().out)
    assert rep["f_coeffs"][:4] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.6666666666666668e299, 0.0]]
    assert rep["f_coeffs"][4:] == [["NaN", "NaN"]] * 11 and rep["wronskian"] == [1.0, 0.0]
    assert run(["theta", "--radius", "1", "--format", "text"]) == 1
    assert "automorphy_bound: inf" in capsys.readouterr().out.splitlines()


def test_bergman_fails_on_a_nan_error_in_any_place(monkeypatch, capsys):
    # only the projection of w^2 is NaN; max over the errors would drop it.
    # At 2i only w^2 reads -4 (the pairing check's w + conj(w) reads 0 there,
    # and it projects through the same patched function)
    real = automorphic.bergman_project

    def nan_for_w2(f, s, zs, grid):
        vals = real(f, s, zs, grid)
        return vals * np.nan if f(np.array([2j]))[0] == -4 else vals

    monkeypatch.setattr(automorphic, "bergman_project", nan_for_w2)
    assert run(["bergman", "--k", "4", "--grid-r", "8", "--grid-m", "16"]) == 1


@pytest.mark.parametrize(
    "argv",
    [lambda d: ["expand", "--series", "A", "--n", "3", "--out", str(d)], lambda d: ["norm", "--function", f"@{d}"]],
    ids=["out", "at-path"],
)
def test_directory_path_is_a_one_line_usage_error(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv(tmp_path))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1 and "Is a directory" in lines[0], (out, lines)


def test_closed_stdout_is_not_a_usage_error():
    # writing the report into a pipe that nobody reads raises BrokenPipeError;
    # that is not a bad argument, so the CLI must not report it as exit 2
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schwarzian_lab.cli", "expand", "--series", "B", "--n", "8"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode != 2 and "error: [Errno 32]" not in proc.stderr, (proc.returncode, proc.stderr)
    assert "BrokenPipeError" in proc.stderr, proc.stderr

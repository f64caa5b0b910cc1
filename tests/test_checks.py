"""The randomized verification suites, run at reduced trial counts.

The full-size runs live in the acceptance bench; these just pin the report
shapes, the determinism of the seeded draws, and that each identity actually
holds on a handful of instances.
"""

import math

import mpmath
import numpy as np
import pytest

from schwarzian_lab import checks
from schwarzian_lab.checks import (
    VERIFY_SUITES,
    Spec,
    _coeff_relerr,
    _maximum,
    affine_spec,
    affine_suite,
    altrec_spec,
    altrec_suite,
    bol_spec,
    bol_suite,
    by_order,
    covariance_spec,
    covariance_suite,
    draw_trials,
    hp_relerr,
    make_batch,
    run_suite,
    schwinv_spec,
    schwinv_suite,
    series_bound_constant,
    sigma_expr,
    trial_relerrs,
    weight_suite,
)
from schwarzian_lab.jets import jet_compose, jet_derive, jet_pow, jet_reverse
from schwarzian_lab.maps import moebius_jet, taylor_jet
from schwarzian_lab.symbolic import classical, evaluate, evaluate_jet, sigma_a


@pytest.mark.parametrize("series", ["A", "B"])
def test_covariance_small(series):
    rep = covariance_suite(series, trials=20)
    assert rep["ok"]
    assert rep["max_relerr"] < 1e-9
    assert rep["inputs"]["series"] == series


def test_altrec_small():
    rep = altrec_suite(trials=20)
    assert rep["ok"] and rep["max_relerr"] < 1e-8


def test_schwinv_small():
    rep = schwinv_suite(trials=20)
    assert rep["ok"] and rep["max_relerr"] < 1e-8


def test_affine_small():
    rep = affine_suite(trials=20)
    assert rep["ok"] and rep["max_relerr"] < 1e-8


def test_bol_small():
    rep = bol_suite(trials=20)
    assert rep["ok"] and rep["max_relerr"] < 1e-8
    with pytest.raises(ValueError):
        bol_suite(n_values=(4, 5), trials=1)


def test_weight_suite_exhausts_orders():
    rep = weight_suite(trials=50)
    assert rep["ok"]
    assert rep["failures"] == []


def test_suites_are_deterministic():
    a = covariance_suite("A", trials=10, seed=7)
    b = covariance_suite("A", trials=10, seed=7)
    assert a == b
    c = covariance_suite("A", trials=10, seed=8)
    assert c["max_relerr"] != a["max_relerr"]


def test_registry_and_constants():
    assert set(VERIFY_SUITES) == {"covariance", "altrec", "schwinv", "affine", "bol", "weights"}
    assert series_bound_constant("A", 5) == 1
    assert series_bound_constant("B", 5) == 3
    with pytest.raises(ValueError):
        sigma_expr("C", 4)


def test_report_shape():
    rep = affine_suite(trials=5)
    assert set(rep) == {"operation", "inputs", "max_relerr", "tolerance", "ok", "escalated", "hp_defect"}
    assert rep["operation"] == "affine"


def _trial(values, j):
    """Trial j of a batched side: a value, or a tuple of jet coefficients."""
    if isinstance(values, tuple):
        return tuple(_trial(v, j) for v in values)
    return complex(values[j] if np.ndim(values) else values)


def _close(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)


SPECS = [
    ("covariance A", covariance_spec("A")),
    ("covariance B", covariance_spec("B")),
    ("covariance B n=3,7", covariance_spec("B", (3, 7))),
    ("altrec", altrec_spec()),
    ("altrec n=5,3,5", altrec_spec((5, 3, 5))),
    ("schwinv", schwinv_spec()),
    ("schwinv n=4", schwinv_spec((4,))),
    ("affine", affine_spec()),
    ("affine n=3,8", affine_spec((3, 8))),
    ("bol", bol_spec()),
    ("bol n=2", bol_spec((2,))),
    ("bol n=2,8", bol_spec((2, 8))),
]


@pytest.mark.parametrize("name,spec", SPECS, ids=[name for name, _ in SPECS])
def test_batched_sides_match_scalar_sides(name, spec):
    # each order's trials evaluated as one batch agree with the same trials
    # evaluated one at a time on Python complex scalars
    draws = draw_trials(spec, 20, seed=0)
    groups = by_order(draws)
    assert sorted(i for idx in groups.values() for i in idx) == list(range(20))
    for n, idx in groups.items():
        batch = make_batch([draws[i] for i in idx])
        assert batch["n"] == n
        lhs, rhs = spec.sides(batch)
        for j, i in enumerate(idx):
            lhs1, rhs1 = spec.sides(make_batch([draws[i]], complex))
            assert _close(lhs1, _trial(lhs, j)), (name, n, i)
            assert _close(rhs1, _trial(rhs, j)), (name, n, i)


def _sides_at_deeper_jets(name, t):
    """The two sides of the named spec on trial batch t, rebuilt through the
    public jets API on jets of order n + 2 (n + 4 for altrec), deeper than
    the specs build them; schwinv, which reads every coefficient, at its
    own order n + 6."""
    n, kind = t["n"], name.split()[0]
    if kind in ("covariance", "bol"):
        gj = moebius_jet(*t["g"], t["z"], n + 2)
        fj = taylor_jet(t["f"], 0j, gj.coeffs[0], n + 2)
        if kind == "bol":
            f2 = jet_compose(fj, gj) * jet_pow(jet_derive(gj, 1), 1 - n // 2)
            return jet_derive(f2, n - 1).coeffs[0], jet_derive(fj, n - 1).coeffs[0] * gj.coeffs[1] ** (n // 2)
        sigma = sigma_expr(name.split()[1], n)
        return evaluate(sigma, jet_compose(fj, gj)), evaluate(sigma, fj) * gj.coeffs[1] ** (n - 1)
    if kind == "altrec":
        fj = taylor_jet(t["f"], 0j, t["z"], n + 4)
        quotient = evaluate_jet(sigma_a(n), fj) * jet_pow(jet_derive(fj, 1), -(n - 1))
        return evaluate(sigma_a(n + 1), fj) / fj.coeffs[1] ** (n - 1), jet_derive(quotient, 1).coeffs[0]
    if kind == "schwinv":
        fj = taylor_jet(t["f"], 0j, 0.0, n + 6)
        s_inv = evaluate_jet(classical("schwarzian"), jet_reverse(fj))
        lhs = jet_compose(jet_derive(s_inv, n - 3), fj) * jet_pow(jet_derive(fj, 1), n - 1) * (-1)
        return lhs.coeffs, evaluate_jet(sigma_a(n), fj).coeffs
    fj = taylor_jet(t["f"], 0j, t["z"], n + 2)
    return evaluate(sigma_a(n), fj * t["a"] + t["b"]), evaluate(sigma_a(n), fj)


@pytest.mark.parametrize("name,spec", SPECS, ids=[name for name, _ in SPECS])
def test_each_batch_builds_its_jets_once(name, spec, monkeypatch):
    # both sides of an identity read one set of jets per order group: one
    # Taylor jet each, and one Moebius jet for the specs that compose with g
    calls = {"taylor_jet": 0, "moebius_jet": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (taylor_jet, moebius_jet):
        monkeypatch.setattr(checks, fn.__name__, counted(fn))
    draws = draw_trials(spec, 20, seed=0)
    groups = len(by_order(draws))
    trial_relerrs(spec, draws)
    moebius = groups if name.split()[0] in ("covariance", "bol") else 0
    assert calls == {"taylor_jet": groups, "moebius_jet": moebius}, (name, groups)


@pytest.mark.parametrize("name,spec", SPECS, ids=[name for name, _ in SPECS])
def test_jets_cut_to_the_order_read_change_no_bits(name, spec):
    # a truncated-jet coefficient depends only on the coefficients at or
    # below it, so the specs' jets, built no deeper than each side reads,
    # give the relative errors of deeper jets bit for bit
    draws = draw_trials(spec, 40, seed=0)
    deeper = np.empty(len(draws))
    for idx in by_order(draws).values():
        deeper[idx] = spec.relerr(*_sides_at_deeper_jets(name, make_batch([draws[i] for i in idx])))
    assert trial_relerrs(spec, draws).tobytes() == deeper.tobytes()


def test_cli_orders_run_batched():
    # every order the CLI accepts, including bol at n = 2, forms its own batch
    assert bol_suite(n_values=(2,), trials=10)["ok"]
    assert bol_suite(n_values=(2, 4, 2, 8), trials=30)["ok"]
    assert covariance_suite("A", n_values=(3, 7, 8), trials=30)["ok"]
    assert schwinv_suite(n_values=(4, 9), trials=20)["ok"]


@pytest.mark.parametrize("seed", [91, 146])
@pytest.mark.parametrize("series", ["A", "B"])
def test_recheck_clears_float_roundoff(seed, series):
    # on these seeds one n = 6 trial exceeds 1e-9 in floats because the
    # expanded sigma_6 cancels; recomputed at 50 digits the identity holds
    rep = covariance_suite(series, trials=200, seed=seed)
    assert rep["ok"]
    assert rep["escalated"] >= 1
    assert rep["hp_defect"] < 1e-13
    assert rep["max_relerr"] > 1e-9


def test_recheck_still_fails_a_perturbed_identity():
    spec = covariance_spec("A")

    def perturbed(batch):
        lhs, rhs = spec.sides(batch)
        return lhs, rhs * (1 + 1e-8)

    rep = run_suite("covariance", spec._replace(sides=perturbed), 20, 0, 1e-9)
    assert rep["ok"] is False
    assert rep["escalated"] == 20
    assert rep["hp_defect"] > 5e-9


def test_no_recheck_below_tolerance():
    rep = covariance_suite("A", trials=50)
    assert rep["escalated"] == 0 and rep["hp_defect"] == 0.0


@pytest.mark.parametrize("name", ["bol", "altrec", "schwinv"])
def test_recheck_keeps_precision_through_jet_pow(name):
    # these specs go through jet_pow; at 50 digits their trials recheck far
    # below float round-off, as covariance and affine do
    spec = {"bol": bol_spec, "altrec": altrec_spec, "schwinv": schwinv_spec}[name]()
    worst = max(hp_relerr(spec, trial) for trial in draw_trials(spec, 5, seed=0))
    assert worst < 1e-30, (name, worst)


@pytest.mark.parametrize(
    "spec",
    [covariance_spec("A", (20,)), covariance_spec("B", (20,)), altrec_spec((16,))],
    ids=["covariance-A-20", "covariance-B-20", "altrec-16"],
)
def test_recheck_keeps_coefficient_precision_at_high_order(spec):
    # sigma_n's coefficients grow past 1e20 by n = 20; cast to float they
    # would cap the 50-digit recheck near float round-off
    worst = max(hp_relerr(spec, trial) for trial in draw_trials(spec, 3, seed=0))
    assert worst < 1e-30, worst


def test_high_order_covariance_passes_on_recheck():
    rep = covariance_suite("B", n_values=(24,), trials=3)
    assert rep["ok"] and rep["escalated"] == 3 and rep["hp_defect"] < 1e-30


def test_scalar_maximum_carries_a_nan_in_any_place():
    nan = float("nan")
    assert _maximum(1.0, 3.0, 2.0) == 3.0
    assert math.isnan(_maximum(1.0, nan, 2.0)) and math.isnan(_maximum(nan, 1.0))
    assert mpmath.isnan(_maximum(mpmath.mpf(1), mpmath.mpf("nan"), mpmath.mpf(2)))
    # the high-precision recheck compares mpmath coefficients through the scalar branch
    one = mpmath.mpc(1)
    assert mpmath.isnan(_coeff_relerr([one, one, one], [one, mpmath.mpc("nan"), one]))


def test_hp_defect_carries_a_nan(monkeypatch):
    # every trial misses by far, so all three are rechecked; the second recheck is NaN
    spec = Spec(lambda rng: {"n": 3, "x": rng.random()}, lambda batch: (batch["x"], batch["x"] + 1.0))
    rechecks = iter([0.0, float("nan"), 0.0])
    monkeypatch.setattr(checks, "hp_relerr", lambda spec, trial: next(rechecks))
    rep = run_suite("nan", spec, 3, 0, 1e-9)
    assert rep["escalated"] == 3 and math.isnan(rep["hp_defect"]) and rep["ok"] is False

"""Layer tracer for the traced benchmark run.

`Tracer.install()` replaces the public entry points of every schwarzian_lab
module with wrappers, in every namespace where callers look them up (module
globals, class attributes and the `checks.VERIFY_SUITES` table).  A wrapper
returns exactly what it wrapped and lets every exception propagate.

A call that crosses from one layer into another opens a span.  Spans below
operation level are not stored one by one (the sharp-bound table crosses
layer boundaries about two million times per pass); each is folded into a
record keyed by (operation id, layer, caller layer) holding the call count,
the total time and the self time.  Self time is a span's duration minus the
time of the spans it opened.  Calls inside one layer open no span, so their
time stays in the span of the layer that is already running; counters are
updated on every call either way.

The tracer's own cost is kept out of the self times: the caller counts a
whole wrapped call as child time and the callee only the wrapped function's
time, and what the timers cannot see is charged as per-call constants
calibrated at install.  The rest of each operation's time in wrapped calls
is `trace.wrapper_s`, so the layers' self times add up to about the
untraced time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import numpy as np

# Public entry points per layer: module-level functions, then class methods.
ENTRY_POINTS = {
    "jets": (
        ["jet_variable", "jet_const", "jet_from_coeffs", "jet_reciprocal", "jet_pow", "jet_compose",
         "jet_reverse", "jet_derive", "jet_antiderive", "jet_shift", "derivative_values"],
        {"Jet": ["__call__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__"]},
    ),
    "symbolic": (
        ["sigma_a", "sigma_b", "evaluate", "evaluate_jet", "to_string", "monomial_part", "monomial_coefficients",
         "series_constant", "classical", "sym_derive", "monomial"],
        {"DiffExpr": ["weights", "max_index"]},
    ),
    "maps": (
        ["catalog", "rotated_koebe", "schlicht_family", "poincare_density"],
        {"Moebius": ["__call__", "deriv", "jet", "compose", "inverse"],
         "AnalyticFn": ["__call__", "jet"],
         "HyperbolicDomain": ["density"]},
    ),
    "norms": (
        ["bn_norm_estimate", "bn_norm_report", "bound_check", "sigma_phi", "a_series_bound", "b_series_bound"],
        {"SampleGrid": ["points"]},
    ),
    "integrals": (
        ["vec_eval", "quad2d", "weighted_pairing", "half_plane_tail_estimate", "ahlfors_weill",
         "ahlfors_weill_density", "d0_beta", "d0_beta_norm_bound", "beltrami_from_bers", "repro_check",
         "kernel_criterion_check", "disc_quadrature", "exterior_disc_quadrature", "half_plane_quadrature"],
        {"DensityFn": ["__call__"]},
    ),
    "automorphic": (
        ["group_ball", "group_from_descriptor", "sup_on_disc", "theta_values", "poincare_theta",
         "automorphy_residual", "metzger_element", "wp_pairing", "fundamental_annulus_grid",
         "lemma_scalar_check", "theta_l1_check", "bergman_kernel", "s_bergman_kernel", "bergman_project",
         "projection_symmetry_check"],
        {"GroupBall": ["boundary_sum"]},
    ),
    "ode": (
        ["schwarzian_solve", "ode_residual", "homogeneous_b", "homogeneous_b_residual", "homogeneous_a_check"],
        {},
    ),
    "checks": (
        ["covariance_suite", "altrec_suite", "schwinv_suite", "affine_suite", "bol_suite", "weight_suite",
         "random_function", "random_moebius", "random_point", "sigma_expr", "series_bound_constant"],
        {},
    ),
    "cli": (["main"], {}),
}

GRID_CONSTRUCTORS = ("disc_quadrature", "exterior_disc_quadrature", "half_plane_quadrature")
SUITES = ("covariance_suite", "altrec_suite", "schwinv_suite", "affine_suite", "bol_suite", "weight_suite")

# Computed bytes per quadrature node: node, weight and integrand value for a
# weighted sum; node, weight, both factors and the density for a pairing.
QUAD_BYTES_PER_NODE = 16 + 8 + 16
PAIRING_BYTES_PER_NODE = 16 + 8 + 16 + 16 + 8


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    def __init__(self, counts):
        self.layer = "bench"
        self.child = [0.0]
        self.op = None
        self.records = defaultdict(lambda: [0, 0.0, 0.0])  # (op, layer, caller) -> calls, total_s, self_s
        self.counts = counts
        self.op_spans = []
        # per-call costs the wrappers' own timers cannot see; see calibrate()
        self.bias = {"fast": 0.0, "outer": 0.0, "inner": 0.0, "jet": 0.0}
        self.grid_depth = 0
        self.last_grid_nodes = 0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer, fn, note=None, prepare=None):
        """Wrapper that opens a span when the call enters `layer` from another
        layer.  `prepare(args, kwargs)` may swap an argument for a counting
        proxy; `note(args, kwargs, result, seconds)` updates counters.

        The wrapper's own bookkeeping (proxies, notes, span records) is timed
        and kept out of the layers: the caller counts the whole wrapped call
        as child time, the callee only the time of `fn`.  What the timers
        cannot see (the wrapper's frame, the timer calls themselves) is
        charged as calibrated per-call constants; a same-layer call without
        note or proxy is charged only its constant."""
        tracer = self
        bias = self.bias

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = tracer.layer
            cross = caller != layer
            if not cross and note is None and prepare is None:
                tracer.child[-1] += bias["fast"]
                return fn(*args, **kwargs)
            t_in = t0 = t1 = perf_counter()
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                if cross:
                    tracer.layer = layer
                    tracer.child.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    if cross:
                        inner = tracer.child.pop()
                        tracer.layer = caller
                        rec = tracer.records[(tracer.op, layer, caller)]
                        rec[0] += 1
                        rec[1] += t1 - t0 - bias["inner"]
                        rec[2] += t1 - t0 - inner - bias["inner"]
                if note is not None:
                    note(args, kwargs, result, t1 - t0)
                return result
            finally:
                wall = perf_counter() - t_in + bias["outer"]
                tracer.child[-1] += wall if cross else wall - (t1 - t0) + bias["inner"]

        return wrapper

    def calibrate(self, jet_cls, hook, calls=20_000, rounds=7):
        """Measure the per-call costs of tracing that the wrappers' timers do
        not see, the way the `profile` module calibrates its bias: loops of
        calls to a wrapped no-op, and Jet constructions through the counting
        `hook`, against bare ones.  The loops take turns for `rounds` rounds
        and each keeps its fastest round.

        fast:  a same-layer call without note (wrapped minus bare call);
        outer: the part of a timed wrapper outside its own timer;
        inner: what the callee's timed interval holds beyond the bare call;
        jet:   counting one Jet construction."""

        def noop(x):
            return x

        def construct(x):
            return jet_cls(x, (1.0,))

        bare_init = jet_cls.__post_init__
        loops = {"loop": lambda x: None, "bare": noop, "fast": self.wrap("calibration", noop),
                 "timed": self.wrap("calibration.callee", noop), "jet_bare": construct, "jet_hooked": construct}
        best = {}  # loop -> (seconds per call, callee seconds recorded, wrapper seconds charged)
        layer, self.layer = self.layer, "calibration"
        for _ in range(rounds):
            for name, fn in loops.items():
                self.records.clear()
                self.child = [0.0]
                if name == "jet_hooked":
                    jet_cls.__post_init__ = hook
                t0 = perf_counter()
                for _ in range(calls):
                    fn(0.0)
                per_call = (perf_counter() - t0) / calls
                jet_cls.__post_init__ = bare_init
                if name not in best or per_call < best[name][0]:
                    best[name] = (per_call, sum(r[1] for r in self.records.values()) / calls, self.child[0] / calls)
        self.layer = layer
        self.records.clear()
        self.child = [0.0]
        loop, bare = best["loop"][0], best["bare"][0]
        timed, callee, wall = best["timed"]
        self.bias.update(fast=best["fast"][0] - bare, outer=timed - loop - wall, inner=callee - (bare - loop),
                         jet=best["jet_hooked"][0] - best["jet_bare"][0])

    def _grid_constructor(self, fn):
        """Grid constructors count once per outermost call (the exterior rule
        builds its disc rule internally) and time the whole build."""
        inner = self.wrap("integrals", fn)
        tracer = self

        @functools.wraps(fn)
        def construct(*args, **kwargs):
            outer = tracer.grid_depth == 0
            tracer.grid_depth += 1
            t0 = perf_counter()
            try:
                grid = inner(*args, **kwargs)
            finally:
                tracer.grid_depth -= 1
            if outer:
                tracer.counts["integrals.grids_built"] += 1
                tracer.counts["integrals.grid_build_s"] += perf_counter() - t0
                tracer.last_grid_nodes = grid.nodes.size
            return grid

        return construct

    def _counter(self, key):
        counts = self.counts

        def note(args, kwargs, result, dur):
            counts[key] += 1

        return note

    def _notes(self):
        """Counters and argument proxies for the entry points that have them."""
        c = self.counts
        tracer = self
        notes, prepares = {}, {}

        def mul(args, kwargs, result, dur):
            a, b = args[0], args[1]
            la = len(a.coeffs)
            if hasattr(b, "coeffs"):
                n = min(la, len(b.coeffs))
                products = n * (n + 1) // 2
            else:
                products = la
            c["jets.mul.calls"] += 1
            c["jets.coeff_products"] += products * getattr(a.coeffs[0], "size", 1)

        def recurrence(key, per_order):
            def note(args, kwargs, result, dur):
                order = len(args[0].coeffs) - 1
                c[key] += 1
                c["jets.coeff_products"] += per_order(order) * getattr(args[0].coeffs[0], "size", 1)
            return note

        notes[("jets", "Jet.__mul__")] = notes[("jets", "Jet.__rmul__")] = mul
        notes[("jets", "jet_reciprocal")] = recurrence("jets.reciprocal.calls", lambda n: n * (n + 1) // 2 + n)
        notes[("jets", "jet_pow")] = recurrence("jets.pow.calls", lambda n: n * (n + 1) + 2 * n)
        notes[("jets", "jet_compose")] = self._counter("jets.compose.calls")
        notes[("jets", "jet_reverse")] = self._counter("jets.reverse.calls")

        def evaluate(args, kwargs, result, dur):
            c["symbolic.evaluate.calls"] += 1
            c["symbolic.terms_evaluated"] += len(args[0].terms)

        notes[("symbolic", "evaluate")] = evaluate
        notes[("symbolic", "evaluate_jet")] = self._counter("symbolic.evaluate_jet.calls")
        notes[("maps", "AnalyticFn.jet")] = self._counter("maps.fn_jet.calls")
        for method in ENTRY_POINTS["maps"][1]["Moebius"]:
            notes[("maps", f"Moebius.{method}")] = self._counter("maps.moebius.calls")

        def point_proxy(phi):
            def proxy(z):
                if isinstance(z, np.ndarray):
                    c["norms.array_attempts"] += 1
                    vals = phi(z)
                    if np.shape(vals) == z.shape:
                        c["norms.array_ok"] += 1
                        c["norms.array_points"] += z.size
                    return vals
                c["norms.scalar_points"] += 1
                return phi(z)
            return proxy

        prepares[("norms", "bn_norm_report")] = lambda args, kwargs: ((point_proxy(args[0]),) + args[1:], kwargs)

        def scalar_proxy(fn):
            def proxy(z):
                if not isinstance(z, np.ndarray):
                    c["integrals.scalar_evals"] += 1
                return fn(z)
            return proxy

        def vec_eval(args, kwargs):
            # only an array of points can fall back to per-point calls
            if np.ndim(args[1]) >= 1:
                args = (scalar_proxy(args[0]),) + args[1:]
            return args, kwargs

        prepares[("integrals", "vec_eval")] = vec_eval

        def quad(bytes_per_node, grid_index):
            def note(args, kwargs, result, dur):
                nodes = _arg(args, kwargs, grid_index, "grid").nodes.size
                c["integrals.quad.calls"] += 1
                c["integrals.nodes"] += nodes
                c["integrals.computed_bytes"] += nodes * bytes_per_node
            return note

        notes[("integrals", "quad2d")] = quad(QUAD_BYTES_PER_NODE, 1)
        notes[("integrals", "weighted_pairing")] = quad(PAIRING_BYTES_PER_NODE, 3)

        def group_ball(args, kwargs, result, dur):
            c["automorphic.group_elements"] += len(result)
            c["automorphic.group_ball_s"] += dur

        def theta_values(args, kwargs, result, dur):
            ball = _arg(args, kwargs, 2, "ball")
            c["automorphic.theta_terms"] += len(ball.elements) * np.size(_arg(args, kwargs, 3, "z"))

        def bergman_project(args, kwargs, result, dur):
            grid = _arg(args, kwargs, 3, "grid")
            nodes = grid.nodes.size if grid is not None else tracer.last_grid_nodes
            c["automorphic.kernel_entries"] += np.size(_arg(args, kwargs, 2, "z")) * nodes

        notes[("automorphic", "group_ball")] = group_ball
        notes[("automorphic", "theta_values")] = theta_values
        notes[("automorphic", "bergman_project")] = bergman_project

        exact_inputs = {
            "schwarzian_solve": lambda args, kwargs: _is_exact(_arg(args, kwargs, 0, "phi").coeffs),
            "ode_residual": lambda args, kwargs: _is_exact(_arg(args, kwargs, 0, "sol").phi.coeffs),
            "homogeneous_b": lambda args, kwargs: _is_exact(_arg(args, kwargs, 1, "alpha")),
            "homogeneous_b_residual": lambda args, kwargs: _is_exact(_arg(args, kwargs, 1, "alpha")),
            "homogeneous_a_check": lambda args, kwargs: _is_exact(_arg(args, kwargs, 0, "poly")),
        }
        for name, is_exact in exact_inputs.items():
            def ode_note(args, kwargs, result, dur, is_exact=is_exact):
                c["ode.calls"] += 1
                c["ode.exact_calls"] += bool(is_exact(args, kwargs))
            notes[("ode", name)] = ode_note

        def suite(args, kwargs, result, dur):
            c["checks.trials"] += result["inputs"]["trials"]

        for name in SUITES:
            notes[("checks", name)] = suite
        notes[("cli", "main")] = self._counter("cli.calls")
        return notes, prepares

    def _expand_wrapper(self, cached):
        """sigma_a / sigma_b are lru-cached: a call that misses the cache is
        one symbolic expansion."""
        c = self.counts
        misses = [0]

        def prepare(args, kwargs):
            misses[0] = cached.cache_info().misses
            return args, kwargs

        def note(args, kwargs, result, dur):
            if cached.cache_info().misses > misses[0]:
                c["symbolic.expand.calls"] += 1
                c["symbolic.expand_s"] += dur
            else:
                c["symbolic.cache_hits"] += 1

        return self.wrap("symbolic", cached, note=note, prepare=prepare)

    def install(self):
        """Patch every entry point wherever the package's modules look it up."""
        import schwarzian_lab
        from schwarzian_lab import automorphic, checks, cli, integrals, jets, maps, norms, ode, symbolic

        modules = {"jets": jets, "symbolic": symbolic, "maps": maps, "norms": norms, "integrals": integrals,
                   "automorphic": automorphic, "ode": ode, "checks": checks, "cli": cli}
        namespaces = [vars(m) for m in modules.values()] + [vars(schwarzian_lab), checks.VERIFY_SUITES]
        notes, prepares = self._notes()
        replaced = {}
        for layer, (functions, classes) in ENTRY_POINTS.items():
            module = modules[layer]
            for name in functions:
                fn = getattr(module, name)
                if name in GRID_CONSTRUCTORS:
                    replaced[id(fn)] = self._grid_constructor(fn)
                elif name in ("sigma_a", "sigma_b"):
                    replaced[id(fn)] = self._expand_wrapper(fn)
                else:
                    replaced[id(fn)] = self.wrap(layer, fn, notes.get((layer, name)), prepares.get((layer, name)))
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    key = (layer, f"{cls_name}.{method}")
                    setattr(cls, method, self.wrap(layer, fn, notes.get(key), prepares.get(key)))
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in replaced:
                    ns[key] = replaced[id(value)]
        built = self.counts
        tracer = self
        bias = self.bias

        def count_jet(self_, _init=jets.Jet.__post_init__):
            built["jets.jets_built"] += 1
            tracer.child[-1] += bias["jet"]
            return _init(self_)

        self.calibrate(jets.Jet, count_jet)
        built["jets.jets_built"] = 0
        jets.Jet.__post_init__ = count_jet

    # -- operation spans and results -----------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.child = [0.0]

    def end_op(self, op_id, name, start, end):
        """`library_s` is the time the operation spent in wrapped calls,
        tracing included: the layers' self times plus the trace bucket."""
        self.op_spans.append({"id": op_id, "name": name, "start": start, "end": end, "parent": None,
                              "library_s": self.child[0]})
        self.op = None

    def metrics(self, op_ids, counts) -> dict:
        """Per-layer metrics from the spans of the given operations and a
        snapshot of the counters taken when they ended."""
        c = defaultdict(float, counts)
        self_s, total_s = defaultdict(float), defaultdict(float)
        for (op, layer, _caller), (_calls, total, own) in self.records.items():
            if op in op_ids:
                self_s[layer] += own
                total_s[layer] += total
        library_s = sum(span["library_s"] for span in self.op_spans if span["id"] in op_ids)
        wrapper_s = library_s - sum(self_s.values())

        def ratio(num, den):
            return num / den if den else 0.0

        points = c["norms.array_points"] + c["norms.scalar_points"]
        expand_calls = c["symbolic.expand.calls"]
        return {
            "jets.jets_built": c["jets.jets_built"],
            "jets.mul.calls": c["jets.mul.calls"],
            "jets.reciprocal.calls": c["jets.reciprocal.calls"],
            "jets.pow.calls": c["jets.pow.calls"],
            "jets.compose.calls": c["jets.compose.calls"],
            "jets.reverse.calls": c["jets.reverse.calls"],
            "jets.self_s": self_s["jets"],
            "jets.coeff_products": c["jets.coeff_products"],
            "jets.mprod_per_s": ratio(c["jets.coeff_products"] / 1e6, self_s["jets"]),
            "maps.fn_jet.calls": c["maps.fn_jet.calls"],
            "maps.moebius.calls": c["maps.moebius.calls"],
            "maps.self_s": self_s["maps"],
            "symbolic.evaluate.calls": c["symbolic.evaluate.calls"],
            "symbolic.terms_evaluated": c["symbolic.terms_evaluated"],
            "symbolic.self_s": self_s["symbolic"],
            "symbolic.expand.calls": expand_calls,
            "symbolic.expand_s": c["symbolic.expand_s"],
            "symbolic.cache_hit_ratio": ratio(c["symbolic.cache_hits"], c["symbolic.cache_hits"] + expand_calls),
            "symbolic.evaluate_jet.calls": c["symbolic.evaluate_jet.calls"],
            "norms.points": points,
            "norms.self_s": self_s["norms"],
            "norms.array_points_share": ratio(c["norms.array_points"], points),
            "norms.array_attempt_ok_ratio": ratio(c["norms.array_ok"], c["norms.array_attempts"]),
            "ode.calls": c["ode.calls"],
            "ode.exact_share": ratio(c["ode.exact_calls"], c["ode.calls"]),
            "ode.self_s": self_s["ode"],
            "checks.trials": c["checks.trials"],
            "checks.self_s": self_s["checks"],
            "checks.trials_per_s": ratio(c["checks.trials"], total_s["checks"]),
            "cli.calls": c["cli.calls"],
            "cli.self_s": self_s["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
            "integrals.quad.calls": c["integrals.quad.calls"],
            "integrals.nodes": c["integrals.nodes"],
            "integrals.grids_built": c["integrals.grids_built"],
            "integrals.grid_build_s": c["integrals.grid_build_s"],
            "integrals.scalar_evals": c["integrals.scalar_evals"],
            "integrals.self_s": self_s["integrals"],
            "integrals.nodes_per_s": ratio(c["integrals.nodes"], self_s["integrals"]),
            "integrals.computed_bytes": c["integrals.computed_bytes"],
            "automorphic.group_elements": c["automorphic.group_elements"],
            "automorphic.group_ball_s": c["automorphic.group_ball_s"],
            "automorphic.theta_terms": c["automorphic.theta_terms"],
            "automorphic.kernel_entries": c["automorphic.kernel_entries"],
            "automorphic.self_s": self_s["automorphic"],
            "trace.wrapper_s": wrapper_s,
        }

    def dump(self) -> dict:
        """Everything recorded, for the trace file written at the end of a run."""
        return {
            "operations": self.op_spans,
            "layer_spans": [
                {"op": op, "name": layer, "parent": caller, "calls": calls, "total_s": total, "self_s": own}
                for (op, layer, caller), (calls, total, own) in self.records.items()
            ],
            "bias_s": self.bias,
            "counts": dict(self.counts),
        }

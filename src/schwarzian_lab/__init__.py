"""Higher Schwarzian operators: exact symbolic expansion, truncated-jet
evaluation, and numerical verification of the identities they satisfy
(Moebius covariance, sharp hyperbolic norm bounds, the differential of the
associated period-type maps, and Poincare series over Fuchsian groups).

The namespace is lazy (PEP 562): `import schwarzian_lab` loads no
submodule, and each public name imports its module on first access and is
then cached here, so a process compiles only the layers it uses.  The
modules import one way, jets -> maps -> symbolic -> norms -> integrals ->
automorphic, with checks, ode and cli on top.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it lends the package.
_EXPORTS = {
    "jets": ("Jet", "jet_compose", "jet_derive", "jet_from_coeffs", "jet_pow", "jet_reciprocal", "jet_reverse", "jet_variable"),
    "maps": ("DISC", "EXTERIOR_DISC", "LOWER_HALF", "UPPER_HALF", "AnalyticFn", "Moebius", "catalog", "poincare_density", "rotated_koebe", "schlicht_family"),
    "symbolic": ("DiffExpr", "classical", "evaluate_jet", "monomial", "monomial_part", "series_constant", "sigma_a", "sigma_b", "sym_derive", "to_string"),
    "norms": ("SampleGrid", "a_series_bound", "b_series_bound", "bn_norm_estimate", "bn_norm_report", "bound_check", "sigma_phi"),
    "integrals": (
        "DensityFn",
        "ahlfors_weill",
        "ahlfors_weill_density",
        "beltrami_from_bers",
        "d0_beta",
        "d0_beta_norm_bound",
        "disc_quadrature",
        "exterior_disc_quadrature",
        "half_plane_quadrature",
        "kernel_criterion_check",
        "repro_check",
        "weighted_pairing",
    ),
    "automorphic": (
        "GroupBall",
        "PairingSpec",
        "ThetaResult",
        "automorphy_residual",
        "bergman_kernel",
        "bergman_project",
        "fundamental_annulus_grid",
        "group_ball",
        "group_from_descriptor",
        "lemma_scalar_check",
        "metzger_element",
        "poincare_theta",
        "s_bergman_kernel",
        "theta_l1_check",
        "wp_pairing",
    ),
    "ode": ("OdeSolution", "homogeneous_a_check", "homogeneous_b", "homogeneous_b_residual", "ode_residual", "schwarzian_solve"),
    "checks": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

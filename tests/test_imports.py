"""The import graph: a process loads only the layers it uses.

Each check runs in a fresh interpreter, since this one has already imported
every module.  The modules import one way, jets -> maps -> symbolic ->
norms -> integrals -> automorphic, with checks, ode and cli on top, and the
package namespace loads a submodule only when one of its names is read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import schwarzian_lab

SRC = str(Path(schwarzian_lab.__file__).resolve().parents[1])

# The package's public names: its eight library modules and what they lend it.
PUBLIC = [
    "AnalyticFn", "DISC", "DensityFn", "DiffExpr", "EXTERIOR_DISC", "GroupBall", "Jet", "LOWER_HALF", "Moebius",
    "OdeSolution", "PairingSpec", "SampleGrid", "ThetaResult", "UPPER_HALF", "a_series_bound", "ahlfors_weill",
    "ahlfors_weill_density", "automorphic", "automorphy_residual", "b_series_bound", "beltrami_from_bers",
    "bergman_kernel", "bergman_project", "bn_norm_estimate", "bn_norm_report", "bound_check", "catalog", "checks",
    "classical", "d0_beta", "d0_beta_norm_bound", "disc_quadrature", "evaluate_jet", "exterior_disc_quadrature",
    "fundamental_annulus_grid", "group_ball", "group_from_descriptor", "half_plane_quadrature",
    "homogeneous_a_check", "homogeneous_b", "homogeneous_b_residual", "integrals", "jet_compose", "jet_derive",
    "jet_from_coeffs", "jet_pow", "jet_reciprocal", "jet_reverse", "jet_variable", "jets", "kernel_criterion_check",
    "lemma_scalar_check", "maps", "metzger_element", "monomial", "monomial_part", "norms", "ode", "ode_residual",
    "poincare_density", "poincare_theta", "repro_check", "rotated_koebe", "s_bergman_kernel", "schlicht_family",
    "schwarzian_solve", "series_constant", "sigma_a", "sigma_b", "sigma_phi", "sym_derive", "symbolic",
    "theta_l1_check", "to_string", "weighted_pairing", "wp_pairing",
]


def _fresh(code: str):
    """Run `code` in a new interpreter that imports the package from this
    source tree; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _loaded_after(statement: str) -> set:
    """The package's modules in sys.modules after `statement`."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('schwarzian_lab'))))"
    return set(_fresh(code))


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import schwarzian_lab") == {"schwarzian_lab"}


def test_the_norm_layer_loads_only_the_layers_below_it():
    layers = {"jets", "maps", "symbolic", "norms"}
    assert _loaded_after("import schwarzian_lab.norms") == {"schwarzian_lab"} | {f"schwarzian_lab.{m}" for m in layers}


def test_the_cli_loads_no_norm_quadrature_or_group_layer():
    loaded = _loaded_after("import schwarzian_lab.cli")
    assert "schwarzian_lab.cli" in loaded
    assert not loaded & {"schwarzian_lab.integrals", "schwarzian_lab.automorphic", "schwarzian_lab.norms"}, loaded


def test_star_import_gives_every_public_name():
    # reading __all__ loads nothing; the star import then binds exactly its names
    code = (
        "import json, sys\nimport schwarzian_lab\nlisted = list(schwarzian_lab.__all__)\n"
        "early = sorted(m for m in sys.modules if m.startswith('schwarzian_lab'))\nbefore = set(dir())\n"
        "from schwarzian_lab import *\nprint(json.dumps([listed, early, sorted(set(dir()) - before - {'before'})]))"
    )
    listed, early, added = _fresh(code)
    assert early == ["schwarzian_lab"]
    assert listed == added == PUBLIC


def test_a_name_resolves_to_its_module_and_is_cached():
    # one name loads its own module and those it imports, and is then a plain attribute
    code = (
        "import json, sys\nimport schwarzian_lab as lab\nfn = lab.bound_check\n"
        "print(json.dumps([fn is sys.modules['schwarzian_lab.norms'].bound_check, 'bound_check' in vars(lab),"
        " 'schwarzian_lab.integrals' in sys.modules]))"
    )
    assert _fresh(code) == [True, True, False]

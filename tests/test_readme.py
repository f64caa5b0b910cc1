"""The README's library tour runs, and the values its comments state hold."""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def _line(block: str, start: str) -> str:
    (line,) = [line for line in block.splitlines() if line.startswith(start)]
    return line


def test_library_tour_runs_and_its_comments_hold():
    block = _tour()
    ns = {}
    exec(block, ns)

    code, comment = _line(block, "to_string(sigma_a(4))").split("#", 1)
    assert eval(code, ns) == ast.literal_eval(comment.strip())

    code = _line(block, "sigma_b(3) == sigma_a(3)").split("#", 1)[0]
    assert eval(code, ns) is True

    code, comment = _line(block, "bn_norm_estimate(s_koebe, 2)").split("#", 1)
    assert comment.strip() == "~6.0"
    assert abs(eval(code, ns) - 6.0) <= 1e-6

    assert "wronskian == 1" in _line(block, "sol = schwarzian_solve(phi)")
    assert type(ns["sol"].wronskian) is Fraction and ns["sol"].wronskian == 1

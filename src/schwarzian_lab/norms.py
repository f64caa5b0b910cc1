"""Hyperbolic sup-norm (B_n) estimation on structured sample grids.

The B_n norm of a function phi on the unit disc is
sup |phi(z)| * lambda(z)^(-n).  Sampling can only certify lower bounds for a
sup, so every estimate here is reported as a lower bound; the sharp-bound
checks phrase their claims accordingly (estimate <= bound + fp slack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .maps import DISC, AnalyticFn, NonFiniteError, _ring_nodes, quiet, vec_eval
from .symbolic import DiffExpr, evaluate, series_letter, sigma_expr

# The most points per evaluation call: a grid is read in the fewest equal
# blocks of at most this many, so the default 3,585 points go in two of
# 1,793 and 1,792.  Each block pays the fixed cost of every numpy operation
# of the jet and of sigma's terms, which dominates small blocks; large ones
# make the allocator hand pages back to the OS between rows.  One bound
# table (A and B, n = 3..5 over the schlicht catalog, plus four rotated-Koebe
# n = 3 rows) on an x86-64 Linux host with glibc malloc, read in blocks of B
# points and a shorter remainder: best pass 12.5 ms at B = 1,024 (the earlier
# rule, 3 x 1,024 + 513), 8.9 ms at 1,793 (this rule's two blocks), 10.1 ms
# at 2,048, 10.5 ms at 2,560, 13.2 ms at 3,072 and 12.4 ms at 4,096 (the
# whole grid); minor page faults per pass 0, 0, 1,352, 2,048, 4,060 and 4,918
# (the allocator's, so host-dependent; they start between 1,856 and 1,920);
# tracemalloc peak of a warm pass 0.40, 0.66, 0.73, 0.91, 1.09 and 1.27 MB.
BLOCK_POINTS = 2048


@dataclass(frozen=True)
class SampleGrid:
    """Radial levels r_j = 1 - 2^-j for j = 0..J crossed with M uniform
    angles.  M even keeps the real diameter (where Koebe extremality lives)
    in the grid; the levels are nested as J grows, so refined grids contain
    coarser ones and max-estimates can only increase."""

    J: int = 14
    M: int = 256

    def __post_init__(self):
        if self.M < 8 or self.M % 2:
            raise ValueError("angular count must be even and >= 8")
        if self.J < 0:
            raise ValueError("negative radial depth")

    def points(self) -> np.ndarray:
        rings = _ring_nodes(1.0 - 0.5 ** np.arange(1, self.J + 1), self.M)
        return np.concatenate([np.array([0.0 + 0.0j]), rings])


def bn_norm_estimate(phi, n: int, grid: SampleGrid | None = None) -> float:
    """Lower-bound estimate of sup |phi| * lambda^(-n) over the grid."""
    return bn_norm_report(phi, n, grid)["estimate"]


@lru_cache(maxsize=None)
def _sample_table(grid: SampleGrid, n) -> tuple:
    """The grid's points and their weights lambda^-n, built once per
    (grid, n) and shared read-only."""
    pts = grid.points()
    weights = DISC.density(pts) ** (-float(n))
    pts.setflags(write=False)
    weights.setflags(write=False)
    return pts, weights


def bn_norm_report(phi, n: int, grid: SampleGrid | None = None) -> dict:
    """`phi` maps an array of points to an array of values of the same shape; NonFiniteError at a non-finite one."""
    grid = grid or SampleGrid()
    pts, weights = _sample_table(grid, n)
    with quiet():
        blocks = np.array_split(pts, -(-pts.size // BLOCK_POINTS))
        vals = np.concatenate([vec_eval(phi, block) for block in blocks])
        weighted = np.abs(vals) * weights
    i = int(np.argmax(weighted))  # the first NaN, if there is one
    if not np.isfinite(weighted[i]):
        raise NonFiniteError("non-finite sample in norm estimation", "a sample point")
    return {
        "estimate": float(weighted[i]),
        "argmax": complex(pts[i]),
        "n": n,
        "grid": {"J": grid.J, "M": grid.M, "domain": DISC.tag},
        "kind": "lower_bound",
    }


def sigma_phi(fn: AnalyticFn, expr: DiffExpr):
    """Map z -> sigma[f](z) over an array of points, through one batched jet of `fn`."""
    top = expr.max_index()

    def phi(z):
        return evaluate(expr, fn.jet(z, top))

    return phi


def a_series_bound(n: int) -> float:
    """Sharp B_{n-1} bound for the A series on schlicht functions."""
    return 6.0 * 4.0 ** (n - 3) * math.factorial(n - 2)


def b_series_bound(n: int) -> float:
    """Sharp B_{n-1} bound for the B series: 2(n-2) * n(n+2)...(3n-6)."""
    return 2.0 * (n - 2) * math.prod(range(n, 3 * n - 5, 2))


def bound_row(series: str, n: int, estimate: float) -> dict:
    """Compare an estimate of ||sigma_n[f]||_{B_{n-1}} to the sharp schlicht
    bound: margin = bound - estimate.  `bound_ok` decides the row."""
    series = series_letter(series)
    bound = a_series_bound(n) if series == "A" else b_series_bound(n)
    return {"series": series, "n": n, "estimate": estimate, "bound": bound, "margin": bound - estimate}


def bound_ok(row: dict) -> bool:
    """The pass rule of a `bound_row`: margin >= -1e-9 * max(1, bound).
    Sampling gives lower bounds, so the estimate may meet the bound but not
    pass it beyond the float slack, which is relative because the extremal
    values grow like 4^n n!."""
    return bool(row["margin"] >= -1e-9 * max(1.0, row["bound"]))


def bound_check(series: str, n: int, fn: AnalyticFn) -> dict:
    """Estimate ||sigma_n[f]||_{B_{n-1}} on the default grid; the row of `bound_row`."""
    return bound_row(series, n, bn_norm_estimate(sigma_phi(fn, sigma_expr(series, n)), n - 1))

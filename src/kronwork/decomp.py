"""Staircase decompositions, and the pipeline that reaches every
partition from an irregular staircase square with a short run of block
moves: one prover call per partition, and at most k moves for
n = m(m+1)/2 + k."""

import math

from . import partitions as pt
from .certificates import base_generalized_dominance, combine_h
from .prover import Budget, prove_in_staircase_square

# the budget of the pipeline's one prover call; the prover's default
# budget would change a corpus certificate (uniform, n = 210, seed
# 20260826, draw 13)
_PIPELINE_NODES = 30000


class SmoothingError(ValueError):
    """No choice of split variants keeps all flake lengths within 1."""


def replay(recipe):
    """The partition a ("stair", s) / ("H", [...]) / ("V", [...]) recipe
    builds."""
    return pt.fold(recipe, lambda s: pt.staircase(max(0, s)), pt.hsum, pt.vsum)


class LayerDecomposition:
    """A staircase written as a sum of smaller staircases."""

    def __init__(self, m, core, flakes, recipe):
        self.m = m
        self.core = core
        self.flakes = flakes
        self.recipe = recipe

    def replay(self):
        return replay(self.recipe)


def stairgrid(n, k):
    """Split rho_n into a k-by-k grid of staircases.

    Piece (j, i) is the staircase of side (n + i - j) // k; pieces sum
    horizontally within a row and the rows sum vertically.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    recipe = pt.stair_grid(n, k)
    flat = sorted(pt.recipe_sides(recipe), reverse=True)
    return LayerDecomposition(m=n, core=pt.staircase(flat[0]),
                              flakes=flat[1:], recipe=recipe)


def layer_decomposition(m, k, i, smooth=False):
    """Peel rho_m into a core of side about (i/k)m plus k*k - i*i flakes.

    Applies one layer split for each parameter k, k-1, ..., i+1, always
    to the current core.  With smooth=True the split variants are chosen
    by backtracking so that all flake sides pairwise differ by at most 1;
    SmoothingError is raised when no choice works.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if k < 2 or not 1 <= i <= k - 1:
        raise ValueError("need k >= 2 and 1 <= i <= k-1")
    if smooth and 2 * i > k:
        raise ValueError("smooth variant needs 2i <= k")
    params = list(range(k, i, -1))

    def search(idx, core, lo, hi):
        if idx == len(params):
            return []
        kk = params[idx]
        for part in (1, 2):
            step = pt.layer_sides(core, kk, part)
            if step is None:
                continue
            n, y, zs = step
            sides = [y] * (kk - 1) + zs
            nlo = min([lo] + sides)
            nhi = max([hi] + sides)
            if smooth and nhi - nlo > 1:
                continue
            rest = search(idx + 1, n, nlo, nhi)
            if rest is not None:
                return [(kk, n, y, zs)] + rest
            if not smooth:
                break
        return None

    steps = search(0, m, m, 0)
    if steps is None:
        raise SmoothingError(
            "no smooth split choices for m=%d, k=%d, i=%d" % (m, k, i))
    core_side = steps[-1][1]
    recipe = ("stair", core_side)
    for kk, _, y, zs in reversed(steps):
        recipe = pt.layer_step(recipe, kk, y, zs)
    # the core is the recipe's first piece, the flakes are the rest
    return LayerDecomposition(m=m, core=pt.staircase(core_side),
                              flakes=sorted(pt.recipe_sides(recipe)[1:], reverse=True),
                              recipe=recipe)


def caret_decompose(k):
    """The caret shape as two small staircases around a split rho_2k."""
    if k < 1:
        raise ValueError("k must be positive")
    grid = stairgrid(2 * k, 2)
    recipe = ("V", [("H", [grid.recipe, ("stair", k - 1)]),
                    ("stair", k - 1)])
    return LayerDecomposition(m=k, core=grid.core,
                              flakes=grid.flakes + [k - 1, k - 1],
                              recipe=recipe)


def fourth_power_pipeline(nu):
    """Certificate for a partition nu_hat near nu inside the square of the
    irregular staircase xi, plus the block moves joining them.

    With n = m(m+1)/2 + k, k height-1 columns are spun off nu, one box
    moved at a time, and set aside as the leftover row (k).  What remains,
    mu_hat, goes to the prover once, inside the square of rho_m with a
    budget of _PIPELINE_NODES nodes; nu_hat is mu_hat beside the row (k).
    Only the spin-off separates nu_hat from nu, so d <= k.  Raises
    ValueError, naming nu_hat, m and the budget, when the prover finds no
    certificate for mu_hat.

    Returns a report with nu_hat, its certificate, the move trace back to
    nu, and the move count d with d / sqrt(2n).
    """
    nu = pt.check_partition(nu)
    n = pt.size(nu)
    if n < 1:
        raise ValueError("nu must be nonempty")
    m, k = pt.staircase_fit(n)
    xi = pt.irregular_staircase(n)

    # spin off k height-1 columns so the leftover row can be peeled
    cols = list(pt.conjugate(nu))
    while sum(1 for c in cols if c == 1) < k:
        tall = next(i for i, c in enumerate(cols) if c >= 2)
        cols[tall] -= 1
        cols.append(1)
    for _ in range(k):
        cols.remove(1)
    mu_hat = pt.from_columns(cols)
    nu_hat = pt.hsum(mu_hat, (k,)) if k else mu_hat

    cert = prove_in_staircase_square(m, mu_hat, budget=Budget(_PIPELINE_NODES))
    if cert is None:
        raise ValueError(
            "no certificate for nu_hat=%s: the prover did not place %s in "
            "the square of rho_%d within %d nodes"
            % (pt.format_partition(nu_hat), pt.format_partition(mu_hat), m,
               _PIPELINE_NODES))
    if k:
        row = base_generalized_dominance((k,), (k,))
        cert = combine_h(cert, row)
    if cert.goal != (nu_hat, xi, xi):
        raise AssertionError("pipeline certificate proves the wrong goal")

    trace = pt.move_trace(nu_hat, nu)
    d = len(trace) - 1
    return {
        "nu": nu,
        "n": n,
        "m": m,
        "leftover": k,
        "nu_hat": nu_hat,
        "certificate": cert,
        "trace": trace,
        "d": d,
        "ratio": d / math.sqrt(2 * n),
    }

"""Staircase decompositions, and the pipeline that reaches every
partition from an irregular staircase square with a short run of block
moves."""

import math

from . import partitions as pt
from .certificates import (
    base_generalized_dominance,
    combine_h,
    conjugate_cert,
    fold_certs,
)
from .prover import Budget, prove_in_staircase_square


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


class CutTailResult:
    """Adjustment of a partition onto a horizontal sum of staircases."""

    def __init__(self, mu, mu_hat, targets, parts, part_certs, certificate,
                 trace, structured_moves, exceptional_moves, bound):
        self.mu = mu
        self.mu_hat = mu_hat
        self.targets = targets
        self.parts = parts
        self.part_certs = part_certs
        self.certificate = certificate
        self.trace = trace
        self.structured_moves = structured_moves
        self.exceptional_moves = exceptional_moves
        self.bound = bound

    @property
    def moves(self):
        return len(self.trace) - 1


def _greedy_columns(cols, caps):
    """Deal ascending columns into bins with size caps; a column that no
    longer fits ends its bin.  Returns the bins and the leftover columns."""
    bins = [[] for _ in caps]
    idx = 0
    for b, cap in enumerate(caps):
        total = 0
        while idx < len(cols) and total + cols[idx] <= cap:
            total += cols[idx]
            bins[b].append(cols[idx])
            idx += 1
    return bins, cols[idx:]


class _MoveLog:
    """Column-multiset view of the whole shape, one block op at a time."""

    def __init__(self, pieces, pool):
        self.pieces = pieces  # lists of column heights
        self.pool = sorted(pool, reverse=True)
        self.trace = [self._shape()]

    def _shape(self):
        cols = list(self.pool)
        for p in self.pieces:
            cols.extend(p)
        return pt.from_columns(cols)

    def _draw(self):
        """Take one block from the tallest pool column, if any."""
        if not self.pool:
            return
        self.pool[0] -= 1
        if self.pool[0] == 0:
            self.pool.pop(0)
        else:
            self.pool.sort(reverse=True)

    def add_block(self, piece, tall):
        self._draw()
        cols = self.pieces[piece]
        if tall and cols:
            cols[cols.index(max(cols))] += 1
        else:
            cols.append(1)
        shape = self._shape()
        if shape != self.trace[-1]:  # a pool relabeling is not a move
            self.trace.append(shape)


def cut_tail(mu, targets, C):
    """Grow mu into a partition proved inside the tensor square of a
    horizontal sum of staircases, logging every block move.

    The targets must all have side b or b-1 for some b; columns are dealt
    smallest-first, pieces with only short columns are padded by new
    height-1 columns, tall pieces are split four ways and padded by unit
    rows, and any stubborn piece falls back to the staircase prover.
    """
    mu = pt.check_partition(mu)
    targets = list(targets)
    if not targets:
        raise ValueError("need at least one target")
    b = max(targets)
    if any(s not in (b - 1, b) for s in targets):
        raise ValueError("targets must have side b or b-1")
    cols = sorted(pt.conjugate(mu))
    if cols and cols[-1] > C:
        raise ValueError("tallest column exceeds C")
    gap = sum(pt.triangular(s) for s in targets) - pt.size(mu)
    if not 0 <= gap <= C:
        raise ValueError("size gap outside [0, C]")
    half = -(-b // 2)

    bins, leftover = _greedy_columns(cols, [pt.triangular(s) for s in targets])
    # pieces: [side, columns, tall flag]; each target's recipe joins its
    # pieces, one staircase or the k=2 grid split
    pieces = []
    recipes = []
    pool = list(leftover)
    for s, own in zip(targets, bins):
        whole = pt.from_columns(own)
        if (sum(own) == pt.triangular(s)
                and pt.comparable(whole, pt.staircase(s))):
            recipes.append(("stair", s))
            pieces.append([s, list(own), bool(own) and min(own) >= s])
            continue
        if not own or max(own) <= half:
            recipes.append(("stair", s))
            pieces.append([s, list(own), False])
            continue
        # tall piece: split four ways like the k=2 staircase grid
        recipes.append(pt.stair_grid(s, 2))
        subsides = pt.recipe_sides(recipes[-1])
        subs, extra = _greedy_columns(sorted(own),
                                      [pt.triangular(t) for t in subsides])
        pool.extend(extra)
        for t, sub in zip(subsides, subs):
            tall = bool(sub) and min(sub) >= t
            pieces.append([t, sub, tall])

    log = _MoveLog([p[1] for p in pieces], pool)
    for idx, (s, _, tall) in enumerate(pieces):
        need = pt.triangular(s) - sum(log.pieces[idx])
        for _ in range(need):
            log.add_block(idx, tall)
    if log.pool:
        raise AssertionError("leftover columns not consumed")

    exceptional = 0
    piece_certs = []
    for (s, _, _), colset in zip(pieces, log.pieces):
        part = pt.from_columns(colset)
        cert = prove_in_staircase_square(s, part)
        if cert is None:
            # walk the piece toward the staircase until it is provable
            for step in pt.move_trace(part, pt.staircase(s))[1:]:
                exceptional += 1
                part = step
                colset[:] = list(pt.conjugate(part))
                log.trace.append(log._shape())
                cert = prove_in_staircase_square(s, part)
                if cert is not None:
                    break
        piece_certs.append(cert)

    # each target's recipe takes its pieces' certificates off one iterator
    certs = iter(piece_certs)
    part_certs = [fold_certs(r, certs) for r in recipes]
    if any(c.goal[1] != pt.staircase(s) for c, s in zip(part_certs, targets)):
        raise AssertionError("piece reassembly mismatch")
    parts = [c.goal[0] for c in part_certs]
    cert = fold_certs(("H", [("stair", s) for s in targets]), part_certs)
    mu_hat = cert.goal[0]

    structured = len(log.trace) - 1 - exceptional
    bound = (4 * len(targets) + 9) * C
    if structured > bound:
        raise AssertionError("structured moves exceed the bound")
    if log.trace[-1] != mu_hat:
        raise AssertionError("trace does not end at the adjusted partition")
    return CutTailResult(mu=mu, mu_hat=mu_hat, targets=targets, parts=parts,
                         part_certs=part_certs, certificate=cert,
                         trace=log.trace, structured_moves=structured,
                         exceptional_moves=exceptional, bound=bound)


def _shed_blocks(nu, count):
    """Remove count boxes, always from the end of the last row."""
    rows = list(nu)
    for _ in range(count):
        rows[-1] -= 1
        if rows[-1] == 0:
            rows.pop()
    return pt.from_rows(rows)


def _near_square(m, mu, attempt_nodes=30000):
    """A partition provable in the square of rho_m, near mu.

    Tries the prover on mu itself, then conjugates so the arm of the
    Durfee square is at least the leg, peels a four-layer split of the
    staircase, and fixes the two remaining pieces recursively.
    """
    cert = prove_in_staircase_square(m, mu, budget=Budget(attempt_nodes))
    if cert is not None:
        return mu, cert
    rho = pt.staircase(m)
    conj = pt.conjugate(mu)
    durfee = pt.durfee(mu)
    arm = pt.size(mu[:durfee]) - durfee * durfee
    leg = pt.size(conj[:durfee]) - durfee * durfee
    if leg > arm:
        target, cert = _near_square(m, conj, attempt_nodes)
        flipped = conjugate_cert(cert, (0, 1))
        if flipped.goal != (pt.conjugate(target), rho, rho):
            raise AssertionError("conjugate retry mismatch")
        return pt.conjugate(target), flipped

    x, y, zs = pt.layer_sides(m, 4, 1) or pt.layer_sides(m, 4, 2)
    recipe = pt.layer_step(("stair", x), 4, y, zs)
    cols = list(pt.conjugate(mu))
    total = 0
    j = 0
    while total < pt.triangular(x):
        total += cols[j]
        j += 1
    head = pt.from_columns(cols[:j])
    tail = pt.from_columns(cols[j:])
    C = max(1, cols[j - 1])
    ct = cut_tail(tail, pt.recipe_sides(recipe)[1:], C)

    excess = pt.size(head) - pt.triangular(x)
    _, head_cert = _near_square(x, _shed_blocks(head, excess), attempt_nodes)

    full = fold_certs(recipe, [head_cert] + ct.part_certs)
    if full.goal[1] != rho:
        raise AssertionError("layer reassembly does not rebuild the staircase")
    return full.goal[0], full


def fourth_power_pipeline(nu, attempt_nodes=30000):
    """Certificate for a partition near nu inside the square of the
    irregular staircase, plus the block moves joining them.

    Returns a report with the adjusted partition, its certificate, the
    move trace back to nu, and the move count d with d / sqrt(2n).
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

    inner_target, cert = _near_square(m, mu_hat, attempt_nodes)
    nu_hat = inner_target
    if k:
        row = base_generalized_dominance((k,), (k,))
        cert = combine_h(cert, row)
        nu_hat = pt.hsum(inner_target, (k,))
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

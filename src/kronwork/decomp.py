"""Staircase decompositions, column-splitting algorithms, and the
pipeline that reaches every partition from an irregular staircase
square with a short run of block moves."""

import math
from dataclasses import dataclass, field

from . import partitions as pt
from .certificates import (
    base_dominance,
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


@dataclass
class LayerDecomposition:
    """A staircase written as a sum of smaller staircases."""

    m: int
    core: tuple
    flakes: list
    recipe: tuple

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


def _split_recipe(m):
    """The 2x2 grid split of rho_m with each row's pieces largest first."""
    return ("V", [("H", row[::-1]) for _, row in pt.stair_grid(m, 2)[1]])


def split_targets(m):
    """Staircase sides for the four column-split pieces of rho_m."""
    return pt.recipe_sides(_split_recipe(m))


@dataclass
class SplitResult:
    """Outcome of splitting a partition into staircase-comparable pieces."""

    nu: tuple
    m: int
    targets: list
    parts: list
    statuses: list
    ok: bool
    certificate: object
    log: list = field(default_factory=list)
    unassigned: int = 0
    block_moves: int = 0


def _assemble_split(nu, m, targets, parts, statuses, log, unassigned=0):
    ok = not unassigned and all(s == "ok" for s in statuses)
    cert = None
    if ok:
        cert = fold_certs(_split_recipe(m), map(base_dominance, targets, parts))
        rho = pt.staircase(m)
        if cert.goal != (nu, rho, rho):
            raise AssertionError("split assembly mismatch")
    return SplitResult(nu=nu, m=m, targets=targets, parts=parts,
                       statuses=statuses, ok=ok, certificate=cert,
                       log=log, unassigned=unassigned)


def _part_status(part, target, goal):
    if pt.size(part) != goal:
        return "size %d != %d" % (pt.size(part), goal)
    if not pt.comparable(part, pt.staircase(target)):
        return "incomparable"
    return "ok"


def uniform_split(nu, m):
    """Greedy column split of nu into four pieces sized like the grid
    split of rho_m.

    Columns are taken largest first; each of the first three pieces may
    finish with one smaller out-of-place column, and columns of height 1
    are held back to pad the sizes exactly.  Failure is reported in the
    result, never raised.
    """
    nu = pt.check_partition(nu)
    if pt.size(nu) != pt.triangular(m):
        raise ValueError("nu must have size m(m+1)/2")
    targets = split_targets(m)
    goals = [pt.triangular(t) for t in targets]
    cols = list(pt.conjugate(nu))
    big = [c for c in cols if c > 1]
    ones = len(cols) - len(big)
    log = []
    groups = [[] for _ in range(4)]
    idx = 0
    for p in range(3):
        total = 0
        while idx < len(big) and total + big[idx] <= goals[p]:
            total += big[idx]
            groups[p].append(big[idx])
            idx += 1
        if total < goals[p]:
            # one out-of-place column: the largest later one that fits
            for j in range(idx, len(big)):
                if big[j] <= goals[p] - total:
                    total += big[j]
                    groups[p].append(big.pop(j))
                    log.append("part %d topped up with column %d"
                               % (p + 1, groups[p][-1]))
                    break
    groups[3] = big[idx:]
    # size-1 columns pad the first three pieces, the rest join piece 4
    for p in range(3):
        need = goals[p] - sum(groups[p])
        if 0 <= need <= ones:
            groups[p].extend([1] * need)
            ones -= need
            if need:
                log.append("part %d padded with %d singletons" % (p + 1, need))
        elif need > ones:
            log.append("part %d short %d with only %d singletons left"
                       % (p + 1, need, ones))
    groups[3].extend([1] * ones)
    parts = [_columns_to_partition(g) for g in groups]
    statuses = [_part_status(p, t, g)
                for p, t, g in zip(parts, targets, goals)]
    return _assemble_split(nu, m, targets, parts, statuses, log)


def plancherel_split(nu, m, threshold=None):
    """Column split of nu that deals the tall columns out cyclically.

    Columns of height at least the threshold (default ceil(n^(1/4))) go
    to the four pieces in rotation; the short ones then fill whichever
    piece has the largest remaining deficit.
    """
    nu = pt.check_partition(nu)
    n = pt.size(nu)
    if n != pt.triangular(m):
        raise ValueError("nu must have size m(m+1)/2")
    if threshold is None:
        threshold = max(2, math.ceil(n ** 0.25))
    targets = split_targets(m)
    goals = [pt.triangular(t) for t in targets]
    cols = list(pt.conjugate(nu))
    tall = [c for c in cols if c >= threshold]
    small = [c for c in cols if c < threshold]
    log = ["threshold %d: %d tall, %d small" % (threshold, len(tall),
                                                len(small))]
    groups = [[] for _ in range(4)]
    pos = 0
    for c in tall:
        p = pos % 4
        if sum(groups[p]) + c <= goals[p]:
            groups[p].append(c)
            pos += 1
        else:
            # the slot is full at this scale; redistribute later
            small.append(c)
            log.append("column %d diverted from part %d" % (c, p + 1))
    small.sort(reverse=True)
    unassigned = 0
    for c in small:
        deficits = [g - sum(grp) for g, grp in zip(goals, groups)]
        best = max(range(4), key=lambda p: deficits[p])
        if deficits[best] >= c:
            groups[best].append(c)
        else:
            unassigned += c
    if unassigned:
        log.append("%d blocks of short columns left unplaced" % unassigned)
    parts = [_columns_to_partition(g) for g in groups]
    statuses = [_part_status(p, t, g)
                for p, t, g in zip(parts, targets, goals)]
    return _assemble_split(nu, m, targets, parts, statuses, log, unassigned)


def height_criterion(k, nu):
    """Column heights all at least k, or all at most floor(k/2) + 1.

    Either condition forces dominance comparability with rho_k, which is
    checked before returning True.
    """
    nu = pt.check_partition(nu)
    if pt.size(nu) != pt.triangular(k):
        raise ValueError("nu must have size k(k+1)/2")
    cols = pt.conjugate(nu)
    ok = not cols or cols[-1] >= k or cols[0] <= k // 2 + 1
    if ok and not pt.comparable(nu, pt.staircase(k)):
        raise AssertionError("height criterion held but dominance failed")
    return ok


@dataclass
class CutTailResult:
    """Adjustment of a partition onto a horizontal sum of staircases."""

    mu: tuple
    mu_hat: tuple
    targets: list
    parts: list
    part_certs: list
    certificate: object
    trace: list
    structured_moves: int
    exceptional_moves: int
    bound: int

    @property
    def moves(self):
        return len(self.trace) - 1


def _columns_to_partition(cols):
    return pt.from_rows(pt.conjugate(tuple(sorted(cols, reverse=True))))


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
        self.created = 0

    def _shape(self):
        cols = list(self.pool)
        for p in self.pieces:
            cols.extend(p)
        return _columns_to_partition(cols)

    def _draw(self):
        """Take one block from the tallest pool column, if any."""
        if not self.pool:
            self.created += 1
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
        whole = _columns_to_partition(own)
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
        part = _columns_to_partition(colset)
        cert = base_dominance(s, part)
        if cert is None:
            cert = prove_in_staircase_square(s, part)
        if cert is None:
            # walk the piece toward the staircase until it is provable
            for step in pt.move_trace(part, pt.staircase(s))[1:]:
                exceptional += 1
                part = step
                colset[:] = list(pt.conjugate(part))
                log.trace.append(log._shape())
                cert = base_dominance(s, part)
                if cert is None:
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


@dataclass
class MoveBudget:
    """Recursive upper bound for the moves the pipeline may need."""

    m: int
    bound: int


def move_budget(m):
    if m <= 8:
        return MoveBudget(m, 148 * max(m, 0))
    inner = move_budget(3 * m // 4 + 2).bound + move_budget(m // 8 + 2).bound
    return MoveBudget(m, inner + 148 * m)


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
        target, cert = _near_square(m, conj)
        flipped = conjugate_cert(cert, (0, 1))
        if flipped.goal != (pt.conjugate(target), rho, rho):
            raise AssertionError("conjugate retry mismatch")
        return pt.conjugate(target), flipped

    x, y, zs = pt.layer_sides(m, 4, 1) or pt.layer_sides(m, 4, 2)
    recipe = pt.layer_step(("stair", x), 4, y, zs)
    cols = sorted(pt.conjugate(mu), reverse=True)
    total = 0
    j = 0
    while total < pt.triangular(x):
        total += cols[j]
        j += 1
    head = _columns_to_partition(cols[:j])
    tail = _columns_to_partition(cols[j:])
    C = max(1, cols[j - 1])
    ct = cut_tail(tail, pt.recipe_sides(recipe)[1:], C)

    excess = pt.size(head) - pt.triangular(x)
    _, head_cert = _near_square(x, _shed_blocks(head, excess))

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
    cols = sorted(pt.conjugate(nu), reverse=True)
    while sum(1 for c in cols if c == 1) < k:
        tall = next(i for i, c in enumerate(cols) if c >= 2)
        cols[tall] -= 1
        cols.append(1)
    for _ in range(k):
        cols.remove(1)
    mu_hat = _columns_to_partition(cols)

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

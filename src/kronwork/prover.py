"""Certificate search for positivity in staircase tensor squares."""

import math
import os
import sys
from contextlib import ExitStack
from functools import lru_cache, partial
from itertools import accumulate, groupby, repeat, zip_longest

from . import partitions as pt
from .certificates import (
    DECODE_ERRORS,
    Certificate,
    Table,
    base_dominance,
    base_hook,
    base_oracle,
    base_symmetric_cube,
    combine_h,
    combine_vvh,
    conjugate_cert,
    fold_certs,
)
from .characters import DEFAULT_ORACLE_CEILING
from .verify import verify_certificate

DEFAULT_NODE_BUDGET = 100000

# entries kept by each search cache (oracle leaves, piece leaves, splits)
_CACHE_SIZE = 200000

# targets handed to a saxl pool worker at a time
_CHUNK = 16


class Budget:
    """Shared node counter for one search."""

    def __init__(self, nodes=DEFAULT_NODE_BUDGET):
        self.nodes = nodes

    def spend(self, cost=1):
        self.nodes -= cost
        return self.nodes >= 0

    @property
    def exhausted(self):
        return self.nodes < 0


def _oracle_leaf(goal):
    """Oracle leaf for a goal given as a tuple of tuples, or None.  Goals
    above the oracle ceiling are turned away before the cache, so they
    cannot crowd out the leaves it holds."""
    if pt.size(goal[0]) > DEFAULT_ORACLE_CEILING:
        return None
    return _cached_oracle(goal)


@lru_cache(maxsize=_CACHE_SIZE)
def _cached_oracle(goal):
    """`base_oracle(goal)` for a 3-factor goal, or None at once when
    Dvir's bound rules it out (`_dvir_zero`)."""
    return None if _dvir_zero(goal) else base_oracle(goal)


def _dvir_zero(goal):
    """Whether Dvir's bound makes g(lam; mu, nu) zero: a nonzero
    coefficient has len(lam) <= |mu & nu'|, the size of the intersection of
    the diagrams of mu and of the conjugate of nu (Y. Dvir, On the
    Kronecker product of S_n characters, J. Algebra 154, 1993).  It needs
    no character arithmetic, and it turns away most zero goals: 478 of
    the 516 that a cold m = 6 run meets."""
    lam, mu, nu = goal
    return len(lam) > sum(map(min, mu, pt.conjugate(nu)))


def _staircase_leaf(m, nu):
    """The dominance leaf for (nu; rho_m, rho_m), else the hook leaf, or None."""
    return base_dominance(m, nu) or base_hook(m, nu)


@lru_cache(maxsize=_CACHE_SIZE)
def _piece_leaf(side, cols):
    """The staircase leaf of the piece of side `side` whose columns are the
    tuple cols, or None.  The packings of a search share few pieces, so
    each one is built and checked once."""
    return _staircase_leaf(side, pt.from_columns(cols))


def prove_in_staircase_square(m, nu, budget=None):
    """Find a certificate for (nu; rho_m, rho_m), or None.

    The search runs in two levels, the target and the pieces of its pack
    layouts, and each level runs the same staircase steps on nu and then on
    its conjugate nu': the dominance and hook leaves; the 2x2 grid split
    with the columns dealt greedily, then cyclically (`deal_grid`); and
    packing the columns, with backtracking, into the pieces of each split
    of `_split_recipes`, until the budget runs out.  Only at the top does
    a failed packing keep near misses, which it retries with their stubborn
    pieces proved at the piece level.  After the steps on nu' come the
    oracle on (nu'; rho_m, rho_m), when the size is at most
    `DEFAULT_ORACLE_CEILING`, and at the top the chunk search on that goal,
    which peels oracle-sized pieces off all three coordinates.  What is
    found for nu' is conjugated back.  rho_m is self-conjugate, so
    g(nu'; rho_m, rho_m) = g(nu; rho_m, rho_m), and the oracle is asked
    about nu' only.

    `budget` bounds the pack search only.  The leaves and the two dealt
    grids are checks on a fixed assignment and cost no nodes, and the
    chunk search runs on its own Budget(60000), so even Budget(0) can
    return a certificate: (9,7,6,5,2,2,2,2,1) at m = 8 gets a `Conjugate`
    of oracle leaves.
    """
    nu = pt.check_partition(nu)
    if pt.size(nu) != pt.triangular(m):
        raise ValueError("nu must have size m(m+1)/2")
    if budget is None:
        budget = Budget()
    cert = _prove(m, nu, budget, top=True)
    if cert is not None:
        rho = pt.staircase(m)
        if cert.goal != (nu, rho, rho):
            raise AssertionError("certificate proves the wrong goal")
    return cert


def _prove(m, nu, budget, top):
    """The cascade on (nu; rho_m, rho_m): the staircase steps on nu, then on
    its conjugate, then the oracle and, at the top, the chunk search on the
    conjugate.  top is False for a piece of a pack layout."""
    cert = _staircase_steps(m, nu, budget, top)
    if cert is not None:
        return cert
    rho = pt.staircase(m)
    goal = (pt.conjugate(nu), rho, rho)
    cert = (_staircase_steps(m, goal[0], budget, top) or _oracle_leaf(goal)
            or top and _chunk_search(goal, Budget(60000)))
    return conjugate_cert(cert, (0, 1)) if cert else None


def _staircase_steps(m, nu, budget, top):
    """The leaf, the dealt grids, then the pack search over each layout
    until the budget runs out."""
    cert = _staircase_leaf(m, nu)
    cols = pt.conjugate(nu)
    for deal in DEALINGS.values():
        cert = cert or deal_grid(m, cols, deal)
    for layout in _pack_layouts(m):
        if cert is not None:
            break
        cert = _pack_search(m, cols, layout, budget, top)
        if budget.exhausted:
            break
    return cert


# ---------------------------------------------------------------------------
# the column splits of the uniform and Plancherel measures: one dealing of
# nu's columns into the 2x2 grid each


def _deal_greedy(cols, caps):
    """Deal columns, tallest first, into bins of the given capacities,
    largest first.

    Each bin but the last takes columns in order while they fit, then the
    tallest later column that fills part of its gap; columns of height 1
    are held back to pad those bins exactly, and the rest go to the last.
    """
    big = [c for c in cols if c > 1]
    ones = len(cols) - len(big)
    bins = [[] for _ in caps]
    idx = 0
    for b, cap in enumerate(caps[:-1]):
        total = 0
        while idx < len(big) and total + big[idx] <= cap:
            total += big[idx]
            bins[b].append(big[idx])
            idx += 1
        # one out-of-place column: the tallest later one that fits
        for j in range(idx, len(big)):
            if big[j] <= cap - total:
                bins[b].append(big.pop(j))
                break
    bins[-1] = big[idx:]
    for b, cap in enumerate(caps[:-1]):
        need = cap - sum(bins[b])
        if 0 <= need <= ones:
            bins[b].extend([1] * need)
            ones -= need
    bins[-1].extend([1] * ones)
    return bins


def _deal_cyclic(cols, caps):
    """Deal columns, tallest first, into bins of the given capacities,
    largest first.

    Columns of height at least ceil(n^(1/4)) (and at least 2) go to the
    bins in rotation, a column that overflows its bin's turn waiting with
    the short ones; those then go, tallest first, to the bin with the
    largest gap, and a column that fits in no gap is left out.
    """
    threshold = max(2, math.ceil(sum(caps) ** 0.25))
    bins = [[] for _ in caps]
    gaps = list(caps)
    rest = []
    pos = 0
    for c in cols:
        b = pos % len(caps)
        if threshold <= c <= gaps[b]:
            bins[b].append(c)
            gaps[b] -= c
            pos += 1
        else:
            rest.append(c)
    rest.sort(reverse=True)
    for c in rest:
        b = max(range(len(caps)), key=gaps.__getitem__)
        if c <= gaps[b]:
            bins[b].append(c)
            gaps[b] -= c
    return bins


# the dealing of each measure's column split, in the order the cascade tries them
DEALINGS = {"uniform": _deal_greedy, "plancherel": _deal_cyclic}


def deal_grid(m, cols, deal):
    """Certificate for (nu; rho_m, rho_m) from the 2x2 grid, the first
    layout of `_pack_layouts(m)`, with the columns `cols` of nu dealt into
    its pieces by `deal`, largest first, or None unless every dealt piece is
    a staircase leaf.  Below m = 2 there is no layout, and nu must be a
    staircase leaf itself."""
    if m < 2:
        return _staircase_leaf(m, pt.from_columns(cols))
    layout = _pack_layouts(m)[0]
    sides, caps = layout[1], layout[2]
    order = sorted(range(len(sides)), key=sides.__getitem__, reverse=True)
    return _assemble(m, cols, layout, zip(order, deal(cols, [caps[b] for b in order])))


def _assemble(m, cols, layout, pieces, prove=None):
    """The certificate of (nu; rho_m, rho_m), for nu with the columns cols,
    folded over one layout of `_pack_layouts(m)` with the columns of each
    (b, columns) of pieces in piece b, or None.  Each piece in turn gets its
    staircase leaf, else prove(b, lam) for its partition lam, and the first
    piece with neither gives None.  An empty piece of side 0 needs none."""
    recipe, sides, _ = layout
    certs = [None] * len(sides)
    for b, piece in pieces:
        if sides[b] or piece:
            certs[b] = (_piece_leaf(sides[b], tuple(piece))
                        or (prove and prove(b, pt.from_columns(piece))))
            if certs[b] is None:
                return None
    cert = fold_certs(recipe, certs)
    rho = pt.staircase(m)
    if cert.goal != (pt.from_columns(cols), rho, rho):
        raise AssertionError("grid assembly mismatch")
    return cert


# ---------------------------------------------------------------------------
# grid and layer splits: pack the columns of nu into the pieces of a recipe


def _split_recipes(m):
    """The splits of rho_m the pack search tries, in order: the 2x2 grid,
    then the k = 3, 4 layer splits.  For every m the k = 2 layer split is
    the grid itself, in order or with its two rows swapped, so it is not
    repeated."""
    if m < 2:
        return
    yield pt.stair_grid(m, 2)
    for k in (3, 4):
        for part in (1, 2):
            step = pt.layer_sides(m, k, part)
            if step is not None and 1 <= step[0] < m:
                x, y, zs = step
                yield pt.layer_step(("stair", x), k, y, zs)


@lru_cache(maxsize=256)
def _pack_layouts(m):
    """(recipe, sides, caps) for each split of `_split_recipes(m)`, in
    order: the staircase sides of its pieces in fold order, and their
    sizes."""
    layouts = []
    for recipe in _split_recipes(m):
        sides = tuple(pt.recipe_sides(recipe))
        layouts.append((recipe, sides, tuple(pt.triangular(s) for s in sides)))
    return tuple(layouts)


def _pack_search(m, cols, layout, budget, top):
    """Pack the columns `cols` of the target into the pieces of one layout of
    `_pack_layouts(m)`, each piece a staircase leaf.  At the top, up to 64
    packings with at most two pieces short of a leaf are kept, and once the
    packing fails they are tried again with those pieces proved at the
    piece level, `_prove` with top False."""
    _, flat, caps = layout
    bins = [[] for _ in flat]
    remaining = list(caps)
    failed = set()
    stash = []

    def finish(bins):
        cert = _assemble(m, cols, layout, enumerate(bins))
        if cert is None and top and len(stash) < 64 and sum(
                _piece_leaf(side, tuple(piece)) is None
                for side, piece in zip(flat, bins) if side) <= 2:
            stash.append([list(b) for b in bins])
        return cert

    def rec(idx):
        if not budget.spend():
            return "stop"
        if idx == len(cols):
            return finish(bins)
        key = (idx, tuple(remaining))
        if key in failed:
            return None
        h = cols[idx]
        for b in range(len(flat)):
            if remaining[b] < h:
                continue
            if (
                b > 0
                and flat[b] == flat[b - 1]
                and remaining[b] == remaining[b - 1]
                and bins[b] == bins[b - 1]
            ):
                continue
            bins[b].append(h)
            remaining[b] -= h
            out = rec(idx + 1)
            bins[b].pop()
            remaining[b] += h
            if out is not None:
                return out
        failed.add(key)
        return None

    out = rec(0)
    # rec holds itself through its closure: without the name, that cycle
    # and the sets it reaches are freed now, not at a full collection
    del rec
    if isinstance(out, Certificate):
        return out
    for pieces in stash:
        cert = _assemble(m, cols, layout, enumerate(pieces),
                         lambda b, lam: _prove(flat[b], lam, budget, top=False))
        if cert is not None:
            return cert
        if budget.exhausted:
            break
    return None


# ---------------------------------------------------------------------------
# semigroup splits: the chunk search cuts goals along these


def _h_splits(p, s):
    """Partitions mu of size s, no longer than p and at most p row by row,
    whose rowwise remainder p - mu is a partition with first row at most s,
    in strictly decreasing tuple order.

    That bound drops some horizontal splits: `_h_splits((3,), 1)` is empty.
    Lifting it to p's first row changed 3 of 300 sampled m = 8
    certificates and made the pipeline about ten times slower, so the
    chunk search keeps it.

    The walk gives each row of mu at least one box, as a zero row could
    only be followed by zeros, and turns back once the boxes left exceed
    what the rows left can take: their sum, and the last row of mu times
    their number.
    """
    out = []
    rows = list(p)
    room = list(accumulate(reversed(rows)))[::-1] + [0]

    def rec(i, left, prev_mu, prev_rest, acc):
        if left == 0:
            if i == len(rows) or rows[i] <= prev_rest:
                out.append(tuple(acc))
            return
        if left > room[i] or left > prev_mu * (len(rows) - i):
            return
        hi = min(rows[i], prev_mu, left)
        lo = max(1, rows[i] - prev_rest)
        for v in range(hi, lo - 1, -1):
            acc.append(v)
            rec(i + 1, left - v, v, rows[i] - v, acc)
            acc.pop()

    rec(0, s, s, s, [])
    del rec  # as in `_pack_search`
    return out


def _v_splits(p, s):
    """Row submultisets of p of total size s, as partitions.

    Equal rows are taken as one group, 0..count copies at a time.  The
    results go into a set in the order an exclude-first walk over single
    rows first meets them, so the list keeps that walk's set order.
    """
    out = set()
    groups = [(v, len(list(run))) for v, run in groupby(p)]

    def rec(j, left, acc):
        if left == 0:
            out.add(acc)
            return
        if j == len(groups):
            return
        v, count = groups[j]
        for k in range(min(count, left // v) + 1):
            rec(j + 1, left - k * v, acc + (v,) * k)

    rec(0, s, ())
    del rec  # as in `_pack_search`
    return list(out)


@lru_cache(maxsize=_CACHE_SIZE)
def _coord_splits(p, s, vertical):
    """(piece, complement) for each split of p at size s."""
    pieces = _v_splits(p, s) if vertical else _h_splits(p, s)
    return [(q, _complement(p, q, vertical)) for q in pieces]


def _complement(p, piece, vertical):
    """p minus piece, as a row multiset or row by row.  `_coord_splits` only
    passes pieces that fit, so the result is always a partition."""
    if vertical:
        rest = list(p)
        for r in piece:
            rest.remove(r)
        return pt.from_rows(rest)
    rows = [a - b for a, b in zip_longest(p, piece, fillvalue=0)]
    return tuple(x for x in rows if x > 0)


_VERTICAL_PATTERNS = ((), (0, 1), (0, 2), (1, 2))


def _chunk_search(goal, budget):
    """Peel oracle-sized pieces off all three coordinates, biggest first.

    The walk takes, for each pattern of vertical coordinates and each
    piece size t, every triple of splits of the three coordinates, and
    charges one node per pair (piece, rest) before any check.  Each pair is
    checked cheapest first: a one-row or one-column piece against its
    pairing rule; a leaf-sized rest (n - t at most the ceiling) by its
    oracle leaf, which is most often zero; the piece by its oracle leaf;
    and a bigger rest by this search.  A pair is taken only when every
    check passes, so the order of the checks changes neither the first
    pair taken nor its certificate, nor the nodes charged.  The second and
    third coordinates' splits depend only on the pattern and the size, so
    they are looked up once for both, before the first coordinate's, and a
    size where either has none is skipped; what depends only on the first
    coordinate's split is worked out once for it.
    """
    memo = set()

    def rec(goal):
        n = pt.size(goal[0])
        if n <= DEFAULT_ORACLE_CEILING:
            return _oracle_leaf(goal)
        if goal in memo:
            return None
        for vertical in _VERTICAL_PATTERNS:
            v0, v1, v2 = (c in vertical for c in range(3))
            for t in range(min(DEFAULT_ORACLE_CEILING, n - 1), 0, -1):
                splits1 = _coord_splits(goal[1], t, v1)
                splits2 = _coord_splits(goal[2], t, v2)
                if not (splits1 and splits2):
                    continue
                leaf_sized = n - t <= DEFAULT_ORACLE_CEILING
                for p0, c0 in _coord_splits(goal[0], t, v0):
                    # one-row and one-column pieces pair up by the trivial
                    # and sign characters, skip the oracle
                    one_row = p0 == (t,)
                    one_col = not one_row and t > 1 and p0 == (1,) * t
                    for p1, c1 in splits1:
                        want = p1 if one_row else pt.conjugate(p1) if one_col else None
                        for p2, c2 in splits2:
                            if not budget.spend():
                                return None
                            if want is not None and p2 != want:
                                continue
                            # t and a leaf-sized n - t are within the
                            # ceiling, so the oracle cache takes them as is
                            rest = (c0, c1, c2)
                            if leaf_sized:
                                tail = _cached_oracle(rest)
                                if tail is None:
                                    continue
                            leaf = _cached_oracle((p0, p1, p2))
                            if leaf is None:
                                continue
                            if not leaf_sized:
                                tail = rec(rest)
                                if tail is None:
                                    continue
                            cert = combine_vvh(leaf, tail, vertical)
                            if cert.goal != goal:
                                raise AssertionError("chunk assembly mismatch")
                            return cert
                    if budget.exhausted:
                        return None
        memo.add(goal)
        return None

    try:
        return rec(goal)
    finally:
        del rec  # as in `_pack_search`


# ---------------------------------------------------------------------------
# Saxl driver


def log_path(cache_dir, m):
    """The certificate log of m: one certificate JSON per line, whose
    repeated sub-certificates refer back to earlier lines (`Table`)."""
    return os.path.join(cache_dir, "m%d.jsonl" % m)


def _find(targets, nu, start):
    """The index of nu in targets, which are in reverse lex order, so
    strictly decreasing as tuples, or None.  Index start is tried first: a
    log this code writes is in target order."""
    if start < len(targets) and targets[start] == nu:
        return start
    lo, hi = 0, len(targets)
    while lo < hi:
        mid = (lo + hi) // 2
        if targets[mid] > nu:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo < len(targets) and targets[lo] == nu else None


def _read(path, targets, rho, proved, table, memo, shapes):
    """Set proved[i] for each target targets[i] that a line of the log at
    path proves, reading it a line at a time; a missing log has no lines.
    Each line is decoded as the next line of table.  Returns the number of
    targets proved and the rejected lines by reason.

    A line is a hit when it decodes, proves exactly (nu; rho, rho) for a
    target nu not yet proved, and verifies.  A later line for a proved
    target is skipped unverified; any other line is a miss, and stderr says
    why.  A reference to an earlier line resolves to the node decoded there,
    and the lines are verified over the caller's memo and dict of factor
    shapes (`verify_certificate`), so a sub-certificate or a factor that
    recurs across lines, as the staircase pieces do, is one object, checked
    once; each line is still verified in full.  The memo then holds each
    distinct sub-certificate verified, and the table each one decoded, for
    the caller to check and write its fresh certificates against.
    """
    rejected = {}
    hits = nxt = 0
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return hits, rejected
    with fh:
        for number, text in enumerate(fh, 1):
            try:
                cert = Certificate.from_json(text, table)
            except DECODE_ERRORS as e:
                reason, why = "unreadable", "unreadable (%s)" % e
            else:
                goal = cert.goal
                i = _find(targets, goal[0], nxt) if goal[1:] == (rho, rho) else None
                if i is None:
                    reason, why = "foreign", "it proves %r" % (goal,)
                elif proved[i]:
                    continue
                else:
                    nxt = i + 1
                    ok, msg = verify_certificate(cert, memo=memo, shapes=shapes)
                    if ok:
                        proved[i] = 1
                        hits += 1
                        continue
                    reason, why = "invalid", "invalid (%s)" % msg
            rejected[reason] = rejected.get(reason, 0) + 1
            print("saxl: skipping %s line %d: %s" % (path, number, why), file=sys.stderr)
    return hits, rejected


def _prove_into(m, nu, budget_nodes):
    """The certificate of nu inside the square of rho_m, or None when none
    was found; it proves exactly (nu; rho_m, rho_m), or the prover raises.
    It is not verified here: `verify_saxl` checks each one it gets back."""
    return prove_in_staircase_square(m, nu, budget=Budget(budget_nodes))


def _open_log(path):
    """A descriptor appending to the log at path, and the bytes to write
    before its first new line: a newline when the log ends in a cut line."""
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    end = os.fstat(fd).st_size
    return fd, b"\n" if end and os.pread(fd, 1, end - 1) != b"\n" else b""


def verify_saxl(m, cache_dir=None, budget_nodes=DEFAULT_NODE_BUDGET, threads=1):
    """Prove every partition of m(m+1)/2 inside the staircase square.

    Returns a report dict.  With a cache directory, `_read` reads the log
    of m there (`log_path`), one certificate per line, over the run's table,
    memo and shapes dict; no other file there is read.
    The targets it does not prove are proved by `_prove_into`, in a pool of
    at most `threads` processes and at most one per `_CHUNK` misses, or in
    this process when that is one.  Their certificates come back here in
    target order, and this process checks each one, with a cache or
    without: its goal must be exactly (nu; rho_m, rho_m), and it is
    interned into the log's table (`Table.intern`) and verified over the
    log's memo and shapes dict, so a sub-certificate that an earlier line
    or certificate holds is checked once.  A certificate that fails raises
    an AssertionError that names its target, before any line for it is
    written.  With a cache, each one is then appended in one write of a
    whole line, encoded against the table, so neither the report nor the
    log depends on the thread count, and a killed run loses at most the
    line being written.  The table and the memo keep each distinct
    sub-certificate of the run until it ends.  Stderr notes the progress
    every 1000 targets it proves here and, with a cache, ends with a line
    that sums up where the proofs came from.
    """
    n = pt.triangular(m)
    rho = pt.staircase(m)
    targets = pt.partitions_of(n)
    proved = bytearray(len(targets))
    table, memo, shapes = Table(), {}, {}
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        path = log_path(cache_dir, m)
        from_log, rejected = _read(path, targets, rho, proved, table, memo, shapes)
        shared = len(memo)
    todo = [i for i, ok in enumerate(proved) if not ok]
    jobs = (repeat(m), [targets[i] for i in todo], repeat(budget_nodes))
    workers = min(threads, -(-len(todo) // _CHUNK))
    fresh = 0
    with ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            pool = stack.enter_context(
                ProcessPoolExecutor(workers, mp_context=get_context("spawn")))
            run = partial(pool.map, chunksize=_CHUNK)
        fd = None
        for done, (i, cert) in enumerate(zip(todo, run(_prove_into, *jobs)), 1):
            if cert is not None:
                nu = targets[i]
                if cert.goal != (nu, rho, rho):
                    raise AssertionError("the certificate for %s proves %r" % (nu, cert.goal))
                cert = table.intern(cert)
                ok, msg = verify_certificate(cert, memo=memo, shapes=shapes)
                if not ok:
                    raise AssertionError("bad certificate for %s: %s" % (nu, msg))
                proved[i] = 1
                fresh += 1
                if cache_dir is not None:
                    if fd is None:
                        fd, lead = _open_log(path)
                        stack.callback(os.close, fd)
                    line = lead + cert.to_json(table).encode() + b"\n"
                    if os.write(fd, line) != len(line):
                        raise OSError("short write to %s" % path)
                    lead = b""
            if done % 1000 == 0:
                print("saxl m=%d: %d/%d" % (m, done, len(todo)), file=sys.stderr)
    if cache_dir is not None:
        print("saxl m=%d cache: %d targets proved from the log, %d in this run; "
              "log lines rejected: %s; distinct sub-certificates verified from "
              "the log: %d"
              % (m, from_log, fresh,
                 ", ".join("%d %s" % (rejected[k], k) for k in sorted(rejected))
                 or "none", shared), file=sys.stderr)
    failures = [pt.format_partition(nu) for nu, ok in zip(targets, proved) if not ok]
    return {
        "m": m,
        "size": n,
        "total": len(targets),
        "proved": len(targets) - len(failures),
        "failed": failures,
        "complete": not failures,
    }


# ---------------------------------------------------------------------------
# rectangles inside staircase tensor cubes


def prove_rectangle_cube(a, b):
    """Certificate for the rectangle R(a, b) inside rho_m tensor cubed."""
    if a <= 0 or b <= 0:
        raise ValueError("rectangle sides must be positive")
    m, rest = pt.staircase_fit(a * b)
    if rest != 0:
        raise ValueError("a * b must be a triangular number")
    return _rect_cube(a, b, m)


def _rect_cube(a, b, m):
    if a < b:
        flipped = _rect_cube(b, a, m)
        return conjugate_cert(flipped, (0, 1, 2, 3))
    rect = pt.rectangle(a, b)
    if a >= m:
        cert = base_dominance(m, rect, arity=3)
        if cert is None:
            raise AssertionError("wide rectangle should dominate the staircase")
        return cert
    mu = pt.rectangle(2 * a - m, 2 * m - 2 * a + 1)
    head = base_symmetric_cube(mu)
    mid = _rect_cube(m - a, 2 * m - 2 * a + 1, 2 * m - 2 * a)
    cert = combine_h(head, mid)
    b2 = b + 2 * a - 2 * m - 1
    if b2 > 0:
        tail = _rect_cube(a, b2, 2 * a - m - 1)
        cert = combine_vvh(cert, tail, (0, 1, 2, 3))
    want = (rect,) + (pt.staircase(m),) * 3
    if cert.goal != want:
        raise AssertionError("rectangle cube assembly mismatch")
    return cert

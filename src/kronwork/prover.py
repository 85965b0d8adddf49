"""Certificate search for positivity in staircase tensor squares."""

import os
import sys
from itertools import groupby, repeat

from . import partitions as pt
from . import characters as ch
from .certificates import (
    DECODE_ERRORS,
    Certificate,
    base_dominance,
    base_generalized_dominance,
    base_hook,
    base_oracle,
    base_symmetric_cube,
    combine_h,
    combine_vvh,
    conjugate_cert,
    fold_certs,
    permute_cert,
)
from .verify import verify_certificate

DEFAULT_NODE_BUDGET = 100000


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


def _oracle_leaf(goal, ceiling):
    """Oracle leaf attempt with a failure cache."""
    goal = tuple(tuple(p) for p in goal)
    if pt.size(goal[0]) > ceiling:
        return None
    cached = _ORACLE_CACHE.get(goal)
    if cached is None:
        cert = base_oracle(goal, ceiling=ceiling)
        _ORACLE_CACHE[goal] = cert if cert is not None else False
        return cert
    if cached is False:
        return None
    return cached


_ORACLE_CACHE = {}


def prove_in_staircase_square(m, nu, budget=None, ceiling=ch.DEFAULT_ORACLE_CEILING):
    """Find a certificate for (nu; rho_m, rho_m), or None.

    Search order: the dominance and hook leaves; packing the columns of
    nu, with backtracking, into the pieces of the 2x2 grid split and then
    of the k = 2, 3, 4 layer splits, proving stubborn pieces recursively;
    a conjugate retry, which runs this whole search on the conjugate of
    nu; the tree search, seeded with symmetric cubes and then general; the
    chunk search, which peels oracle-sized pieces off all three
    coordinates; and finally the oracle when the size is small.
    """
    nu = pt.check_partition(nu)
    if pt.size(nu) != pt.triangular(m):
        raise ValueError("nu must have size m(m+1)/2")
    if budget is None:
        budget = Budget()
    cert = _prove(m, nu, budget, ceiling, depth=2, allow_flip=True)
    if cert is not None:
        rho = pt.staircase(m)
        if cert.goal != (nu, rho, rho):
            raise AssertionError("certificate proves the wrong goal")
    return cert


def _prove(m, nu, budget, ceiling, depth, allow_flip):
    cert = base_dominance(m, nu)
    if cert is not None:
        return cert
    cert = base_hook(m, nu)
    if cert is not None:
        return cert
    if m >= 2:
        cert = _grid_search(m, nu, budget, ceiling, depth)
        if cert is not None:
            return cert
        cert = _layer_search(m, nu, budget, ceiling, depth)
        if cert is not None:
            return cert
    if allow_flip:
        flipped = _prove(m, pt.conjugate(nu), budget, ceiling, depth, False)
        if flipped is not None:
            return conjugate_cert(flipped, (0, 1))
    if depth > 0 and not budget.exhausted:
        rho = pt.staircase(m)
        cert = _tree_search((nu, rho, rho), budget, ceiling, max_leaves=4)
        if cert is not None:
            return cert
    if depth >= 2:
        rho = pt.staircase(m)
        cert = _chunk_search((nu, rho, rho), Budget(60000), ceiling)
        if cert is not None:
            return cert
    return _oracle_leaf((nu, pt.staircase(m)) + (pt.staircase(m),), ceiling)


# ---------------------------------------------------------------------------
# grid and layer splits: pack the columns of nu into the pieces of a recipe


def _grid_search(m, nu, budget, ceiling, depth):
    return _pack_search(m, nu, pt.stair_grid(m, 2), budget, ceiling, depth)


def _layer_search(m, nu, budget, ceiling, depth):
    """Pack columns of nu into the pieces of a staircase layer split."""
    for k in (2, 3, 4):
        for part in (1, 2):
            step = pt.layer_sides(m, k, part)
            if step is None:
                continue
            x, y, zs = step
            if x >= m or x < 1:
                continue
            recipe = pt.layer_step(("stair", x), k, y, zs)
            cert = _pack_search(m, nu, recipe, budget, ceiling, depth)
            if cert is not None:
                return cert
            if budget.exhausted:
                return None
    return None


def _pack_search(m, nu, recipe, budget, ceiling, depth):
    flat = pt.recipe_sides(recipe)
    caps = [pt.triangular(s) for s in flat]
    cols = list(pt.conjugate(nu))
    bins = [[] for _ in flat]
    remaining = [c for c in caps]
    failed = set()
    stash = []

    def parts_of(bins):
        return [pt.conjugate(tuple(b)) for b in bins]

    def cheap_cert(s, lam):
        cert = base_dominance(s, lam)
        if cert is None:
            cert = base_hook(s, lam)
        return cert

    def build(certs):
        cert = fold_certs(recipe, certs)
        rho = pt.staircase(m)
        if cert.goal != (nu, rho, rho):
            raise AssertionError("pack assembly mismatch")
        return cert

    def finish(bins, recurse):
        lams = parts_of(bins)
        certs = []
        hard = []
        for b, lam in enumerate(lams):
            if flat[b] == 0:
                certs.append(None)
                continue
            cert = cheap_cert(flat[b], lam)
            certs.append(cert)
            if cert is None:
                hard.append(b)
        if hard and not recurse:
            if len(hard) <= 2 and len(stash) < 64:
                stash.append([list(b) for b in bins])
            return None
        for b in hard:
            sub = _prove(flat[b], lams[b], budget, ceiling, depth - 1, True)
            if sub is None:
                sub = _oracle_leaf(
                    (lams[b], pt.staircase(flat[b]), pt.staircase(flat[b])), ceiling
                )
            if sub is None:
                return None
            certs[b] = sub
        return build(certs)

    def rec(idx):
        if not budget.spend():
            return "stop"
        if idx == len(cols):
            return finish(bins, recurse=False)
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
    if isinstance(out, Certificate):
        return out
    if depth > 0:
        for bins_snapshot in stash:
            cert = finish(bins_snapshot, recurse=True)
            if cert is not None:
                return cert
            if budget.exhausted:
                break
    return None


# ---------------------------------------------------------------------------
# general semigroup tree search (used for rectangles and other targets the
# grid split cannot reach; seeded to prefer symmetric square leaves)


def _leaf_cert(goal, ceiling, need_square):
    t, f1, f2 = goal
    if t == f1 == f2 and pt.is_symmetric(t):
        return base_symmetric_cube(t)
    if need_square:
        return None
    if f1 == f2:
        if pt.has_distinct_rows(f1) and pt.dominates(t, f1):
            return base_generalized_dominance(f1, t)
        s = pt.staircase_fit(pt.size(f1))
        if s[1] == 0 and f1 == pt.staircase(s[0]):
            cert = base_dominance(s[0], t)
            if cert is None:
                cert = base_hook(s[0], t)
            if cert is not None:
                return cert
    if t == f1 and pt.has_distinct_rows(t) and pt.dominates(f2, t):
        inner = base_generalized_dominance(t, f2)
        if inner is not None:
            return permute_cert(inner, (2, 1, 0))
    if t == f2 and pt.has_distinct_rows(t) and pt.dominates(f1, t):
        inner = base_generalized_dominance(t, f1)
        if inner is not None:
            return permute_cert(inner, (1, 0, 2))
    return _oracle_leaf(goal, ceiling)


def _h_splits(p, s):
    """Partitions mu of size s with both mu and p - mu valid rowwise."""
    out = []
    rows = list(p)

    def rec(i, left, prev_mu, prev_rest, acc):
        if left == 0:
            if i == len(rows) or rows[i] <= prev_rest:
                out.append(tuple(x for x in acc if x > 0))
            return
        if i == len(rows):
            return
        hi = min(rows[i], prev_mu, left)
        lo = max(0, rows[i] - prev_rest)
        for v in range(hi, lo - 1, -1):
            acc.append(v)
            rec(i + 1, left - v, v, rows[i] - v, acc)
            acc.pop()

    rec(0, s, s, s, [])
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
    return list(out)


_SPLIT_CACHE = {}


def _coord_splits(p, s, vertical):
    """(piece, complement) for each split of p at size s; the complement is
    None when p minus the piece is not a partition."""
    key = (p, s, vertical)
    hit = _SPLIT_CACHE.get(key)
    if hit is None:
        pieces = _v_splits(p, s) if vertical else _h_splits(p, s)
        hit = [(q, _complement(p, q, vertical)) for q in pieces]
        if len(_SPLIT_CACHE) > 200000:
            _SPLIT_CACHE.clear()
        _SPLIT_CACHE[key] = hit
    return hit


_INDEX_CACHE = {}


def _split_index(p, s, vertical):
    """The splits of p at size s that have a complement, in `_coord_splits`
    order, with the rank of each piece and of each complement among them."""
    key = (p, s, vertical)
    hit = _INDEX_CACHE.get(key)
    if hit is None:
        valid = [pc for pc in _coord_splits(p, s, vertical) if pc[1] is not None]
        hit = (
            valid,
            {q: r for r, (q, _) in enumerate(valid)},
            {c: r for r, (_, c) in enumerate(valid)},
        )
        if len(_INDEX_CACHE) > 200000:
            _INDEX_CACHE.clear()
        _INDEX_CACHE[key] = hit
    return hit


def _complement(p, piece, vertical):
    if vertical:
        rest = list(p)
        try:
            for r in piece:
                rest.remove(r)
        except ValueError:
            return None
        return pt.from_rows(rest)
    if len(piece) > len(p):
        return None
    rows = []
    piece = list(piece) + [0] * (len(p) - len(piece))
    for a, b in zip(p, piece):
        if b > a:
            return None
        rows.append(a - b)
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        return None
    return tuple(x for x in rows if x > 0)


_VERTICAL_PATTERNS = ((), (0, 1), (0, 2), (1, 2))

def _chunk_search(goal, budget, ceiling):
    """Peel oracle-sized pieces off all three coordinates, biggest first."""
    memo = set()

    def rec(goal):
        n = pt.size(goal[0])
        if n <= ceiling:
            return _oracle_leaf(goal, ceiling)
        if goal in memo:
            return None
        for vertical in _VERTICAL_PATTERNS:
            vflags = [c in vertical for c in range(3)]
            for t in range(min(ceiling, n - 1), 0, -1):
                for p0, c0 in _coord_splits(goal[0], t, vflags[0]):
                    if c0 is None:
                        continue
                    for p1, c1 in _coord_splits(goal[1], t, vflags[1]):
                        if c1 is None:
                            continue
                        for p2, c2 in _coord_splits(goal[2], t, vflags[2]):
                            if not budget.spend():
                                return None
                            # one-row and one-column pieces pair up by the
                            # trivial and sign characters, skip the oracle
                            if p0 == (t,):
                                if p1 != p2:
                                    continue
                            elif t > 1 and p0 == (1,) * t:
                                if p2 != pt.conjugate(p1):
                                    continue
                            if c2 is None:
                                continue
                            leaf = _oracle_leaf((p0, p1, p2), ceiling)
                            if leaf is None:
                                continue
                            tail = rec((c0, c1, c2))
                            if tail is not None:
                                cert = combine_vvh(leaf, tail, vertical)
                                if cert.goal != goal:
                                    raise AssertionError("chunk assembly mismatch")
                                return cert
        memo.add(goal)
        return None

    return rec(tuple(tuple(p) for p in goal))



def _tree_search(goal, budget, ceiling, max_leaves=4):
    """Semigroup tree of at most max_leaves leaves proving goal, or None.

    The seeded phase looks for trees with a symmetric cube (lam; lam, lam)
    as one leaf, with 2, 3, ... leaves, each size on its own slice of at
    most 60,000 nodes.  For each split p0 | c0 of the target, a 2-leaf tree
    can only pair a cube with one other leaf, so instead of walking every
    split (p1, p2) of the factors it tries the at most two pairs that
    complete a cube: p1 == p2 == p0 or c1 == c2 == c0 (`_cube_pairs`).  It
    still charges one node for each pair the walk would have visited, so a
    slice ends where it did rather than running on through the costlier
    nodes of the larger trees.  In every seeded
    split a one-leaf cube side is tested before the other side.  The
    general phase then walks every split on whatever budget remains.
    """
    goal = tuple(tuple(p) for p in goal)
    memo = {}
    cert = _tree(goal, 1, False, budget, ceiling, memo)
    if cert is not None:
        return cert
    # square-seeded phase, one budget slice per tree size, then the
    # general phase on whatever budget remains
    for leaves in range(2, max_leaves + 1):
        if budget.exhausted:
            return None
        take = max(1, min(budget.nodes, 60000))
        seeded = Budget(take)
        cert = _tree(goal, leaves, True, seeded, ceiling, memo)
        budget.spend(take - max(0, seeded.nodes))
        if cert is not None:
            return cert
    memo = {k: v for k, v in memo.items() if not k[2]}
    for leaves in range(2, max_leaves + 1):
        cert = _tree(goal, leaves, False, budget, ceiling, memo)
        if cert is not None:
            return cert
        if budget.exhausted:
            return None
    return None


def _tree(goal, leaves, need_square, budget, ceiling, memo):
    key = (goal, leaves, need_square)
    if key in memo:
        return None
    if not budget.spend():
        return None
    if leaves == 1:
        cert = _leaf_cert(goal, ceiling, need_square)
        if cert is None:
            memo[key] = None
        return cert
    if need_square:
        cert = _square_peel(goal, leaves, budget, ceiling, memo)
        if cert is not None:
            return cert
    n = pt.size(goal[0])
    for vertical in _VERTICAL_PATTERNS:
        vflags = [c in vertical for c in range(3)]
        for s in range(1, n):
            first = _coord_splits(goal[0], s, vflags[0])
            if not first:
                continue
            for p0, c0 in first:
                if c0 is None:
                    continue
                ok = _expand_factors(
                    goal, s, vflags, p0, c0, leaves, need_square, budget, ceiling, memo
                )
                if ok is not None:
                    return ok
                if budget.exhausted:
                    return None
    memo[key] = None
    return None


def _square_peel(goal, leaves, budget, ceiling, memo):
    """Split a symmetric square off every coordinate at once."""
    n = pt.size(goal[0])
    top = int(n ** 0.5)
    for s in range(top, 0, -1):
        if s * s >= n:
            continue
        sq = pt.rectangle(s, s)
        for vertical in _VERTICAL_PATTERNS:
            if not budget.spend():
                return None
            rest = tuple(
                _complement(goal[c], sq, c in vertical) for c in range(3)
            )
            if any(r is None for r in rest):
                continue
            tail = _tree(rest, leaves - 1, False, budget, ceiling, memo)
            if tail is None:
                continue
            cert = combine_vvh(base_symmetric_cube(sq), tail, vertical)
            if cert.goal != goal:
                raise AssertionError("semigroup assembly mismatch")
            return cert
    return None


def _expand_factors(goal, s, vflags, p0, c0, leaves, need_square, budget, ceiling, memo):
    if need_square and leaves == 2:
        pairs = _cube_pairs(goal, s, vflags, p0, c0, budget)
    else:
        pairs = _walk_pairs(goal, s, vflags, p0, c0, budget)
    vertical = tuple(c for c in range(3) if vflags[c])
    needs = ((True, False), (False, True)) if need_square else ((False, False),)
    for left, right in pairs:
        for lv in range(1, leaves):
            rv = leaves - lv
            for nl, nr in needs:
                cr = None
                if nr and rv == 1:
                    # a one-leaf square side is one comparison: test it first
                    cr = _tree(right, rv, nr, budget, ceiling, memo)
                    if cr is None:
                        continue
                cl = _tree(left, lv, nl, budget, ceiling, memo)
                if cl is None:
                    continue
                if cr is None:
                    cr = _tree(right, rv, nr, budget, ceiling, memo)
                    if cr is None:
                        continue
                cert = combine_vvh(cl, cr, vertical)
                if cert.goal != goal:
                    raise AssertionError("semigroup assembly mismatch")
                return cert
        if budget.exhausted:
            return None
    return None


def _walk_pairs(goal, s, vflags, p0, c0, budget):
    """Every (left, right) pair of triples that extends the split p0 | c0,
    one node each."""
    for p1, c1 in _coord_splits(goal[1], s, vflags[1]):
        if c1 is None:
            continue
        for p2, c2 in _coord_splits(goal[2], s, vflags[2]):
            if c2 is None:
                continue
            if not budget.spend():
                return
            yield (p0, p1, p2), (c0, c1, c2)


def _cube_pairs(goal, s, vflags, p0, c0, budget):
    """The pairs of `_walk_pairs` that can give a seeded 2-leaf tree.

    With one leaf on each side, one side must be a symmetric cube: the left
    when p1 == p2 == p0, the right when c1 == c2 == c0.  These are at most
    two pairs, found by rank and yielded in walk order.  The budget is
    charged as the walk would be: up to and including each pair yielded,
    and through to the walk's end when none of them succeeds.
    """
    valid1, pieces1, rests1 = _split_index(goal[1], s, vflags[1])
    valid2, pieces2, rests2 = _split_index(goal[2], s, vflags[2])
    ranks = set()
    if p0 in pieces1 and p0 in pieces2 and pt.is_symmetric(p0):
        ranks.add((pieces1[p0], pieces2[p0]))
    if c0 in rests1 and c0 in rests2 and pt.is_symmetric(c0):
        ranks.add((rests1[c0], rests2[c0]))
    charged = 0
    for r1, r2 in sorted(ranks):
        walked = r1 * len(valid2) + r2 + 1
        if not budget.spend(walked - charged):
            return
        charged = walked
        (p1, c1), (p2, c2) = valid1[r1], valid2[r2]
        yield (p0, p1, p2), (c0, c1, c2)
    budget.spend(len(valid1) * len(valid2) - charged)


# ---------------------------------------------------------------------------
# Saxl driver


def cache_path(cache_dir, m, nu):
    """Where the certificate of nu inside the square of rho_m is cached."""
    return os.path.join(cache_dir, "m%d_%s.json" % (m, "-".join(map(str, nu)) or "0"))


def write_cached(path, cert):
    """Write cert to path atomically, through a temporary file of this
    process, so a crash or a concurrent writer never leaves half a file."""
    tmp = "%s.tmp%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(cert.to_json())
    os.replace(tmp, path)


def _read_cached(path, goal, ceiling):
    """The certificate cached at path, or None unless it verifies and proves
    exactly goal.

    A missing, unreadable, foreign or invalid entry is a cache miss, so the
    caller proves the target again and overwrites it.
    """
    try:
        with open(path) as fh:
            cert = Certificate.from_json(fh.read())
    except FileNotFoundError:
        return None
    except DECODE_ERRORS as e:
        print("saxl: re-proving %s: unreadable (%s)" % (path, e), file=sys.stderr)
        return None
    if cert.goal != goal:
        print("saxl: re-proving %s: it proves %r" % (path, cert.goal),
              file=sys.stderr)
        return None
    ok, msg = verify_certificate(cert, ceiling=ceiling)
    if not ok:
        print("saxl: re-proving %s: invalid (%s)" % (path, msg), file=sys.stderr)
        return None
    return cert


def _prove_into(m, nu, path, ceiling, budget_nodes):
    """Prove nu inside the square of rho_m and verify the certificate,
    then cache it at path unless path is None.  None if no proof is found."""
    cert = prove_in_staircase_square(
        m, nu, budget=Budget(budget_nodes), ceiling=ceiling
    )
    if cert is not None:
        ok, msg = verify_certificate(cert, ceiling=ceiling)
        if not ok:
            raise AssertionError("bad certificate for %s: %s" % (nu, msg))
        if path is not None:
            write_cached(path, cert)
    return cert


def verify_saxl(m, cache_dir=None, ceiling=ch.DEFAULT_ORACLE_CEILING,
                budget_nodes=DEFAULT_NODE_BUDGET, progress=False, threads=1):
    """Prove every partition of m(m+1)/2 inside the staircase square.

    Returns a report dict; certificates are verified before being counted
    or cached as JSON files when a cache directory is given.  With a cache
    and threads > 1, a pool of that many processes first proves the
    targets that have no cache file; the report is then aggregated in this
    process from the cache, so it does not depend on the thread count.
    """
    n = pt.triangular(m)
    rho = pt.staircase(m)
    targets = pt.partitions_of(n)
    total = len(targets)
    proved = 0
    failures = []
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
    if cache_dir is not None and threads > 1:
        # the targets with no cache file are proved into it by the pool
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        todo = [nu for nu in targets
                if not os.path.exists(cache_path(cache_dir, m, nu))]
        paths = [cache_path(cache_dir, m, nu) for nu in todo]
        with ProcessPoolExecutor(threads, mp_context=get_context("spawn")) as pool:
            jobs = pool.map(_prove_into, repeat(m), todo, paths, repeat(ceiling),
                            repeat(budget_nodes), chunksize=16)
            for done, _ in enumerate(jobs, 1):
                if progress and done % 1000 == 0:
                    print("saxl m=%d: %d/%d" % (m, done, len(todo)), file=sys.stderr)
    for done, nu in enumerate(targets, 1):
        cert = path = None
        if cache_dir is not None:
            path = cache_path(cache_dir, m, nu)
            cert = _read_cached(path, (nu, rho, rho), ceiling)
        if cert is None:
            cert = _prove_into(m, nu, path, ceiling, budget_nodes)
        if cert is None:
            failures.append(nu)
        else:
            proved += 1
        if progress and done % 2000 == 0:
            print("saxl m=%d: %d/%d" % (m, done, total), file=sys.stderr)
    return {
        "m": m,
        "size": n,
        "total": total,
        "proved": proved,
        "failed": [pt.format_partition(f) for f in failures],
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
    head = base_symmetric_cube(mu, arity=3)
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

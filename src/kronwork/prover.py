"""Certificate search for positivity in staircase tensor squares."""

import os
import sys

from . import partitions as pt
from . import characters as ch
from .certificates import (
    Certificate,
    base_dominance,
    base_generalized_dominance,
    base_hook,
    base_oracle,
    base_symmetric_cube,
    combine_h,
    combine_vvh,
    conjugate_cert,
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

    Search order: direct base facts, the four-part grid split with
    backtracking over column assignments, recursion on stubborn parts,
    a conjugate retry, a square-seeded tree search for rectangles and
    other hard targets, and finally the oracle when the size is small.
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
# grid split: rho_m as a 2x2 array of smaller staircases


def grid_sizes(m):
    """Staircase parameters of the four grid pieces, rows then columns."""
    return [[(m + i - j) // 2 for i in (0, 1)] for j in (0, 1)]


def layer_sides(m, k, part):
    """Sides for one layer split of rho_m: core, repeated flake, bottom
    flakes.  Returns None when the variant does not reach m."""
    if part == 1:
        if m % k == k - 1:
            return None
        n = (m // k) * (k - 1) + m % k
    else:
        if m % k == 0 or (m - 1) % k == k - 1:
            return None
        n = ((m - 1) // k) * (k - 1) + (m - 1) % k
    y = n // (k - 1)
    base = n + y + (1 - k if part == 1 else 1)
    return n, y, [max(0, (base + i) // k) for i in range(k)]


def _grid_search(m, nu, budget, ceiling, depth):
    sizes = grid_sizes(m)

    def assemble(certs, flat):
        row_certs = []
        for j in (0, 1):
            picked = [certs[2 * j + i] for i in (0, 1) if flat[2 * j + i] > 0]
            c = picked[0]
            for other in picked[1:]:
                c = combine_h(c, other)
            row_certs.append(c)
        if len(row_certs) == 1:
            return row_certs[0]
        return combine_vvh(row_certs[0], row_certs[1], (1, 2))

    flat = [s for row in sizes for s in row]
    return _pack_search(m, nu, flat, assemble, budget, ceiling, depth)


def _layer_search(m, nu, budget, ceiling, depth):
    """Pack columns of nu into the pieces of a staircase layer split."""
    for k in (2, 3, 4):
        for part in (1, 2):
            step = layer_sides(m, k, part)
            if step is None:
                continue
            x, y, zs = step
            if x >= m or x < 1:
                continue
            flat = [x] + [y] * (k - 1) + zs

            def assemble(certs, flat, k=k):
                cert = certs[0]
                ys = [c for c, s in zip(certs[1:k], flat[1:k]) if s > 0]
                if ys:
                    stack = ys[0]
                    for other in ys[1:]:
                        stack = combine_vvh(stack, other, (1, 2))
                    cert = combine_h(cert, stack)
                zc = [c for c, s in zip(certs[k:], flat[k:]) if s > 0]
                if zc:
                    bottom = zc[0]
                    for other in zc[1:]:
                        bottom = combine_h(bottom, other)
                    cert = combine_vvh(cert, bottom, (1, 2))
                return cert

            cert = _pack_search(m, nu, flat, assemble, budget, ceiling, depth)
            if cert is not None:
                return cert
            if budget.exhausted:
                return None
    return None


def _pack_search(m, nu, flat, assemble, budget, ceiling, depth):
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
        cert = assemble(certs, flat)
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
    """Row submultisets of p of total size s, as partitions."""
    out = set()
    rows = list(p)

    def rec(i, left, acc):
        if left == 0:
            out.add(tuple(acc))
            return
        if i == len(rows) or left < 0:
            return
        rec(i + 1, left, acc)
        if rows[i] <= left:
            acc.append(rows[i])
            rec(i + 1, left - rows[i], acc)
            acc.pop()

    rec(0, s, [])
    return [lam for lam in out]


_SPLIT_CACHE = {}


def _coord_splits(p, s, vertical):
    key = (p, s, vertical)
    hit = _SPLIT_CACHE.get(key)
    if hit is None:
        hit = _v_splits(p, s) if vertical else _h_splits(p, s)
        if len(_SPLIT_CACHE) > 200000:
            _SPLIT_CACHE.clear()
        _SPLIT_CACHE[key] = hit
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
                for p0 in _coord_splits(goal[0], t, vflags[0]):
                    c0 = _complement(goal[0], p0, vflags[0])
                    if c0 is None:
                        continue
                    for p1 in _coord_splits(goal[1], t, vflags[1]):
                        c1 = _complement(goal[1], p1, vflags[1])
                        if c1 is None:
                            continue
                        for p2 in _coord_splits(goal[2], t, vflags[2]):
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
                            c2 = _complement(goal[2], p2, vflags[2])
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
            for p0 in first:
                g1 = [p0]
                g2 = [_complement(goal[0], p0, vflags[0])]
                if g2[0] is None:
                    continue
                ok = _expand_factors(
                    goal, s, vflags, g1, g2, leaves, need_square, budget, ceiling, memo
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


def _expand_factors(goal, s, vflags, g1, g2, leaves, need_square, budget, ceiling, memo):
    for p1 in _coord_splits(goal[1], s, vflags[1]):
        c1 = _complement(goal[1], p1, vflags[1])
        if c1 is None:
            continue
        for p2 in _coord_splits(goal[2], s, vflags[2]):
            c2 = _complement(goal[2], p2, vflags[2])
            if c2 is None:
                continue
            if not budget.spend():
                return None
            left = (g1[0], p1, p2)
            right = (g2[0], c1, c2)
            vertical = tuple(c for c in range(3) if vflags[c])
            for lv in range(1, leaves):
                rv = leaves - lv
                needs = ((True, False), (False, True)) if need_square else ((False, False),)
                for nl, nr in needs:
                    cl = _tree(left, lv, nl, budget, ceiling, memo)
                    if cl is None:
                        continue
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


# ---------------------------------------------------------------------------
# Saxl driver


def _read_cached(path, goal):
    """The certificate cached at path, or None unless it proves exactly goal.

    A missing, unreadable or foreign entry is a cache miss, so the caller
    proves the target again and overwrites it.
    """
    try:
        with open(path) as fh:
            cert = Certificate.from_json(fh.read())
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError) as e:
        print("saxl: re-proving %s: unreadable (%s)" % (path, e), file=sys.stderr)
        return None
    if cert.goal != goal:
        print("saxl: re-proving %s: it proves %r" % (path, cert.goal),
              file=sys.stderr)
        return None
    return cert


def verify_saxl(m, cache_dir=None, ceiling=ch.DEFAULT_ORACLE_CEILING,
                budget_nodes=DEFAULT_NODE_BUDGET, progress=False):
    """Prove every partition of m(m+1)/2 inside the staircase square.

    Returns a report dict; certificates are verified before being counted
    and cached as JSON files when a cache directory is given.
    """
    n = pt.triangular(m)
    rho = pt.staircase(m)
    total = pt.partition_count(n)
    proved = 0
    failures = []
    done = 0
    for nu in pt.partitions_of(n):
        done += 1
        cert = None
        path = None
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            path = os.path.join(
                cache_dir, "m%d_%s.json" % (m, "-".join(str(r) for r in nu) or "0")
            )
            cert = _read_cached(path, (nu, rho, rho))
        if cert is None:
            cert = prove_in_staircase_square(
                m, nu, budget=Budget(budget_nodes), ceiling=ceiling
            )
            if cert is not None and path is not None:
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(cert.to_json())
                os.replace(tmp, path)
        if cert is None:
            failures.append(nu)
        else:
            ok, msg = verify_certificate(cert, ceiling=ceiling)
            if not ok:
                raise AssertionError("bad certificate for %s: %s" % (nu, msg))
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

"""Integer partitions: construction, orders, sums, families, staircase split
recipes, and block moves.

Partitions are plain tuples of positive ints in weakly decreasing order.
The empty partition is ().
"""

from functools import lru_cache
from operator import lt


def check_partition(parts):
    """Validate and normalize an iterable of row lengths into a partition."""
    rows = tuple(filter(None, map(int, parts)))
    if min(rows, default=0) < 0:
        raise ValueError("negative row length")
    if any(map(lt, rows, rows[1:])):
        raise ValueError("rows must be weakly decreasing: %r" % (rows,))
    return rows


def parse_partition(text):
    """Parse '4,3,2,1' into (4, 3, 2, 1).  Empty string is ()."""
    text = text.strip()
    if not text:
        return ()
    return check_partition(map(int, text.split(",")))


def format_partition(lam):
    return ",".join(str(r) for r in lam)


def size(lam):
    return sum(lam)


def from_rows(rows):
    """Sort an arbitrary multiset of row lengths into a partition."""
    return tuple(sorted((r for r in rows if r), reverse=True))


def conjugate(lam):
    if not lam:
        return ()
    cols = []
    for height in range(1, lam[0] + 1):
        # number of rows of length >= height
        cols.append(sum(1 for r in lam if r >= height))
    return tuple(reversed(sorted(cols)))


def dominates(lam, mu):
    """Prefix-sum dominance: every prefix of lam is >= that of mu.

    Only meaningful for equal sizes; callers compare same-size partitions.
    """
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def comparable(lam, mu):
    return dominates(lam, mu) or dominates(mu, lam)


def hsum(lam, mu):
    """Horizontal sum: rowwise addition (column multisets unite)."""
    n = max(len(lam), len(mu))
    return tuple(
        (lam[i] if i < len(lam) else 0) + (mu[i] if i < len(mu) else 0)
        for i in range(n)
    )


def vsum(lam, mu):
    """Vertical sum: union of row multisets (conjugate of hsum of conjugates)."""
    return from_rows(lam + mu)


def staircase(m):
    """The staircase with rows m, m-1, ..., 1."""
    if m < 0:
        raise ValueError("negative staircase index")
    return tuple(range(m, 0, -1))


def triangular(m):
    return m * (m + 1) // 2


def staircase_fit(n):
    """Largest m with m(m+1)/2 <= n, and the remainder."""
    m = int((2 * n) ** 0.5)
    while triangular(m + 1) <= n:
        m += 1
    while triangular(m) > n:
        m -= 1
    return m, n - triangular(m)


def irregular_staircase(n):
    """Staircase of maximal fit extended horizontally by the leftover row."""
    m, k = staircase_fit(n)
    return hsum(staircase(m), (k,) if k else ())


def rectangle(a, b):
    """b rows of length a."""
    if a < 0 or b < 0:
        raise ValueError("negative rectangle side")
    if a == 0 or b == 0:
        return ()
    return (a,) * b


def caret(m):
    """Rows 3m-1, 3m-3, ..., m+1, then m, then m-1, m-1, ..., 1, 1."""
    if m < 1:
        raise ValueError("caret index must be >= 1")
    rows = list(range(3 * m - 1, m, -2)) + [m]
    for r in range(m - 1, 0, -1):
        rows.extend((r, r))
    return check_partition(rows)


# Staircase splits.  A recipe is a tree of ("stair", s) pieces and
# ("H", [...]) / ("V", [...]) nodes, horizontal and vertical sums; the
# splits of the semigroup property are written here once, and the prover,
# the decompositions and the pipeline fold them.


def fold(recipe, leaf, h, v):
    """Evaluate a recipe: leaf(s) for each ("stair", s), in fold order
    (depth first, left to right), joined left to right by h at an H node
    and by v at a V node.  A None value is left out of its join, and a
    node whose values are all None is None."""
    op, arg = recipe
    if op == "stair":
        return leaf(arg)
    join = h if op == "H" else v
    out = None
    for child in arg:
        val = fold(child, leaf, h, v)
        if val is not None:
            out = val if out is None else join(out, val)
    return out


def recipe_sides(recipe):
    """The staircase sides of a recipe's pieces, in fold order."""
    if recipe[0] == "stair":
        return [recipe[1]]
    return [s for child in recipe[1] for s in recipe_sides(child)]


def stair_grid(n, k):
    """rho_n as a k-by-k grid: piece (j, i) has side (n + i - j) // k, the
    pieces of a row sum horizontally and the rows vertically."""
    return ("V", [("H", [("stair", (n + i - j) // k) for i in range(k)])
                  for j in range(k)])


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


def layer_step(core, k, y, zs):
    """One layer split around the recipe `core`: the core beside k - 1
    stacked staircases of side y, over a row of staircases of sides zs."""
    top = ("H", [core, ("V", [("stair", y)] * (k - 1))])
    return ("V", [top, ("H", [("stair", z) for z in zs])])


def durfee(lam):
    """Side of the largest square fitting in the diagram."""
    d = 0
    while d < len(lam) and lam[d] >= d + 1:
        d += 1
    return d


def is_hook(lam):
    return bool(lam) and all(r == 1 for r in lam[1:])


def is_symmetric(lam):
    """lam == conjugate(lam), compared row by row without building the
    conjugate: column i holds lam[i] cells exactly when rows 0..lam[i]-1
    reach past column i and row lam[i] does not."""
    n = len(lam)
    if n and lam[0] != n:
        return False
    for i, r in enumerate(lam):
        if lam[r - 1] <= i or (r < n and lam[r] > i):
            return False
    return True


def has_distinct_rows(lam):
    return all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n with parts <= max_part, in reverse lex order."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partition_count(n):
    """p(n) by the pentagonal number recurrence."""
    return _pentagonal_table(n)[n]


@lru_cache(maxsize=None)
def _pentagonal_table(n):
    p = [0] * (n + 1)
    p[0] = 1
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def move_neighbors(lam):
    """Partitions reachable by moving a single box.  Excludes lam itself."""
    rows = list(lam)
    out = set()
    n = len(rows)
    for i in range(n):
        if i + 1 < n and rows[i] == rows[i + 1]:
            continue  # removing from a later equal row gives the same shape
        src = rows[:i] + [rows[i] - 1] + rows[i + 1:]
        # add the box back at any row (or a new row), keeping rows sorted
        for j in range(n + 1):
            if j == i:
                continue
            if j < n:
                tgt = src[:j] + [src[j] + 1] + src[j + 1:]
            else:
                tgt = src + [1]
            cand = from_rows(tgt)
            if cand != lam:
                out.add(cand)
    return out


def _row_surpluses(lam, mu):
    """Rowwise surplus and deficit totals between aligned sorted rows."""
    n = max(len(lam), len(mu))
    plus = minus = 0
    for i in range(n):
        d = (lam[i] if i < len(lam) else 0) - (mu[i] if i < len(mu) else 0)
        if d > 0:
            plus += d
        else:
            minus -= d
    return plus, minus


def blockwise_distance(lam, mu):
    """Minimal number of single-box moves between equal-size partitions.

    Each move shortens one row and lengthens another, so the rowwise
    surplus (half the L1 distance between aligned row vectors) is a lower
    bound; a greedy pairing of surplus and deficit rows achieves it.
    """
    if size(lam) != size(mu):
        raise ValueError("blockwise distance needs equal sizes")
    plus, minus = _row_surpluses(lam, mu)
    assert plus == minus
    return plus


def move_trace(lam, mu):
    """An explicit trace of single-box operations from lam to mu.

    Returns a list of successive partitions starting at lam and ending at
    mu, each step a single box move, addition, or removal.  For equal
    sizes the length matches blockwise_distance (checked by tests).
    """
    path = [lam]
    cur = lam
    guard = 4 * (size(lam) + size(mu)) + 8
    while cur != mu:
        cur = _greedy_step(cur, mu)
        path.append(cur)
        guard -= 1
        if guard < 0:  # pragma: no cover
            raise RuntimeError("trace failed to converge")
    return path


def _greedy_step(cur, mu):
    n = max(len(cur), len(mu))
    rows = list(cur) + [0] * (n - len(cur))
    goal = list(mu) + [0] * (n - len(mu))
    surplus = next((i for i in range(n) if rows[i] > goal[i]), None)
    deficit = next((i for i in range(n) if rows[i] < goal[i]), None)
    if surplus is not None and deficit is not None:
        rows[surplus] -= 1
        rows[deficit] += 1
    elif surplus is not None:
        rows[surplus] -= 1
    else:
        rows[deficit] += 1
    return from_rows(rows)


def is_single_step(a, b):
    """True if b is one box move, addition, or removal away from a."""
    if a == b:
        return False
    if size(a) == size(b):
        return b in move_neighbors(a)
    if abs(size(a) - size(b)) != 1:
        return False
    small, big = (a, b) if size(a) < size(b) else (b, a)
    # removing one box from one row of big must give small
    for i in range(len(big)):
        rows = list(big)
        rows[i] -= 1
        if from_rows(rows) == small:
            return True
    return small == () and big == (1,)

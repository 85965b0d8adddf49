"""Independent certificate verifier.

Re-implements every rule check locally so that verification shares no
logic with the search code that produced the certificate.
"""

from itertools import accumulate, chain, repeat, starmap, zip_longest
from operator import add, ge, sub

from . import characters


def _is_partition(p):
    """p is a tuple of ints, weakly decreasing, with a positive last row.

    Folded in C by `all(map(...))`; ints are checked before rows compare.
    """
    return (
        all(map(isinstance, p, repeat(int)))
        and all(map(ge, p, p[1:]))
        and (not p or p[-1] > 0)
    )


_wt = sum  # the weight |p|


def _dominates(a, b):
    """Equal weights, and every prefix sum of a, padded with zeros, is at
    least the same prefix sum of b."""
    if _wt(a) != _wt(b):
        return False
    n = max(len(a), len(b))
    sa = accumulate(chain(a, repeat(0, n - len(a))))
    sb = accumulate(chain(b, repeat(0, n - len(b))))
    return all(map(ge, sa, sb))


def _conj(p):
    """Conjugate of the partition p, in O(len(p) + p[0]).

    Reading the rows from the bottom, the p[i] - p[i + 1] columns past row
    i + 1 have height i + 1.
    """
    rev = p[::-1]
    widths = map(sub, rev, chain((0,), rev))
    return tuple(chain.from_iterable(map(repeat, range(len(p), 0, -1), widths)))


def _row_sum(a, b):
    return tuple(starmap(add, zip_longest(a, b, fillvalue=0)))


def _multiset_sum(a, b):
    return tuple(sorted(a + b, reverse=True))


def _stair(m):
    return tuple(range(m, 0, -1))


# Certificates the prover and the pipeline build are at most 8 deep; a
# deeper tree is rejected before the recursive walk can exhaust the stack.
MAX_DEPTH = 100

# a tuple, not a set: a decoded kind may be any JSON value, lists included
_LEAF_KINDS = ("DominanceStaircase", "Hook", "GeneralizedDominance", "SymmetricCube",
               "OracleLeaf")


class VerificationFailure(Exception):
    pass


def verify_certificate(cert, ceiling=characters.DEFAULT_ORACLE_CEILING):
    """Walk the tree and re-check every rule.  Returns (ok, message)."""
    try:
        _verify(cert, ceiling, 0, {})
    except VerificationFailure as e:
        return False, str(e)
    return True, "ok"


def _fail(cert, why):
    raise VerificationFailure("%s node with goal %r: %s" % (cert.kind, cert.goal, why))


def _staircase(cert):
    """The staircase of meta.m, built only after m is checked against the
    goal size and the row count of every factor, so it is no longer than
    the input."""
    m = cert.meta.get("m")
    if type(m) is not int or m < 0:
        _fail(cert, "m is not a non-negative integer")
    if m * (m + 1) // 2 != _wt(cert.goal[0]):
        _fail(cert, "the staircase of m does not have the goal size")
    if any(len(f) != m for f in cert.goal[1:]):
        _fail(cert, "factors are not the staircase of %r" % m)
    return _stair(m)


def _verify(cert, ceiling, depth, seen):
    """Check cert at the given depth and return the height of its subtree.

    seen maps the id of every node that has passed in this walk to its
    height, so a node shared by several parents is checked once; the walk
    is then bounded by the number of distinct nodes, not of paths.
    """
    if depth > MAX_DEPTH:
        raise VerificationFailure("certificate tree too deep")
    height = seen.get(id(cert))
    if height is not None:
        if depth + height > MAX_DEPTH:
            raise VerificationFailure("certificate tree too deep")
        return height
    # a certificate built in Python may hold anything: shapes come first
    goal = cert.goal
    if type(goal) is not tuple or len(goal) < 3:
        _fail(cert, "goal needs a target and at least two factors")
    for p in goal:
        if type(p) is not tuple or not _is_partition(p):
            _fail(cert, "goal entry is not a partition: %r" % (p,))
    if not isinstance(cert.meta, dict):
        _fail(cert, "meta is not a mapping")
    if type(cert.children) is not tuple or not all(
        map(isinstance, cert.children, repeat(type(cert)))
    ):
        _fail(cert, "children are not a tuple of certificates")
    if len(set(map(_wt, goal))) != 1:
        _fail(cert, "goal entries have unequal sizes")

    kind = cert.kind
    height = 0
    if kind in _LEAF_KINDS and cert.children:
        _fail(cert, "leaves must have no children")
    if kind == "DominanceStaircase":
        rho = _staircase(cert)
        if any(f != rho for f in goal[1:]):
            _fail(cert, "factors are not the staircase of %r" % len(rho))
        nu = goal[0]
        if not (_dominates(nu, rho) or _dominates(rho, nu)):
            _fail(cert, "target is not dominance-comparable to the staircase")
    elif kind == "Hook":
        rho = _staircase(cert)
        if goal[1:] != (rho, rho):
            _fail(cert, "factors are not a staircase pair")
        nu = goal[0]
        if not nu or any(r != 1 for r in nu[1:]):
            _fail(cert, "target is not a hook")
    elif kind == "GeneralizedDominance":
        nu, mu1, mu2 = goal[0], goal[1], goal[2]
        if len(goal) != 3 or mu1 != mu2:
            _fail(cert, "goal must be (nu; mu, mu)")
        if any(mu1[i] <= mu1[i + 1] for i in range(len(mu1) - 1)):
            _fail(cert, "mu must have strictly decreasing rows")
        if not _dominates(nu, mu1):
            _fail(cert, "nu does not dominate mu")
        filling = cert.meta.get("filling")
        if filling is not None:
            _check_filling(cert, mu1, nu, filling)
    elif kind == "SymmetricCube":
        if len(goal) == 3:
            lam = goal[0]
            if goal[1] != lam or goal[2] != lam:
                _fail(cert, "cube goal must repeat one shape")
            # a self-conjugate shape has as many rows as columns; checked
            # first, so the conjugate is no longer than the input
            if len(lam) != max(lam, default=0) or _conj(lam) != lam:
                _fail(cert, "shape is not self-conjugate")
        elif len(goal) == 4:
            if any(f != goal[0] for f in goal[1:]):
                _fail(cert, "fourth-power goal must repeat one shape")
        else:
            _fail(cert, "unsupported arity")
    elif kind == "OracleLeaf":
        n = _wt(goal[0])
        if ceiling is not None and n > ceiling:
            _fail(cert, "oracle leaf above the ceiling (n=%d)" % n)
        coeff = characters.multi_kronecker(goal, ceiling=ceiling)
        if coeff <= 0:
            _fail(cert, "oracle reports zero coefficient")
        claimed = cert.meta.get("coefficient")
        if claimed is not None and claimed not in (coeff, str(coeff)):
            _fail(cert, "claimed coefficient %s != %d" % (claimed, coeff))
    elif kind == "HSum":
        a, b = _two_children(cert)
        height = 1 + max(_verify(a, ceiling, depth + 1, seen),
                         _verify(b, ceiling, depth + 1, seen))
        want = tuple(map(_row_sum, a.goal, b.goal))
        if tuple(goal) != want:
            _fail(cert, "goal is not the rowwise sum of the children")
    elif kind == "VVHSum":
        a, b = _two_children(cert)
        height = 1 + max(_verify(a, ceiling, depth + 1, seen),
                         _verify(b, ceiling, depth + 1, seen))
        vertical = _coord_set(cert, "vertical")
        want = tuple(
            _multiset_sum(x, y) if i in vertical else _row_sum(x, y)
            for i, (x, y) in enumerate(zip(a.goal, b.goal))
        )
        if tuple(goal) != want:
            _fail(cert, "goal does not match the recorded sums")
    elif kind == "Conjugate":
        (a,) = _one_child(cert)
        height = 1 + _verify(a, ceiling, depth + 1, seen)
        coords = _coord_set(cert, "coords")
        # the conjugate of p has p[0] rows: compared before it is built
        if any(len(goal[i]) != max(a.goal[i], default=0) for i in coords):
            _fail(cert, "goal does not match conjugated child")
        want = tuple(
            _conj(p) if i in coords else p for i, p in enumerate(a.goal)
        )
        if tuple(goal) != want:
            _fail(cert, "goal does not match conjugated child")
    elif kind == "Permute":
        (a,) = _one_child(cert)
        height = 1 + _verify(a, ceiling, depth + 1, seen)
        perm = cert.meta.get("perm", ())
        if not isinstance(perm, (list, tuple)) or any(
            type(p) is not int for p in perm
        ) or sorted(perm) != list(range(len(a.goal))):
            _fail(cert, "invalid permutation")
        want = tuple(a.goal[p] for p in perm)
        if tuple(goal) != want:
            _fail(cert, "goal does not match permuted child")
    else:
        _fail(cert, "unknown kind")
    seen[id(cert)] = height
    return height


def _coord_set(cert, key):
    """meta[key] as an even set of distinct goal coordinates.

    A repeated coordinate would make the list even while the set it acts on
    is odd, so duplicates are rejected rather than collapsed.
    """
    coords = cert.meta.get(key, ())
    if not isinstance(coords, (list, tuple)):
        _fail(cert, "%s is not a list of coordinates" % key)
    if any(type(c) is not int for c in coords):
        _fail(cert, "%s holds a non-integer coordinate" % key)
    if len(set(coords)) != len(coords):
        _fail(cert, "%s repeats a coordinate" % key)
    if any(c < 0 or c >= len(cert.goal) for c in coords):
        _fail(cert, "%s coordinate out of range" % key)
    if len(coords) % 2 != 0:
        _fail(cert, "%s is an odd coordinate set" % key)
    return frozenset(coords)


def _two_children(cert):
    """The two children of a sum node, each with the node's arity: the
    coordinatewise sums of HSum and VVHSum pair goals through zip, which drops
    a longer goal's extra factors."""
    if len(cert.children) != 2:
        _fail(cert, "needs exactly two children")
    if not all(map(_same_arity, cert.children, repeat(cert))):
        _fail(cert, "children must have the arity of the node")
    return cert.children


def _one_child(cert):
    """The one child of a Conjugate or Permute node, with the node's arity:
    Conjugate reads the child's goal at the node's coordinates."""
    if len(cert.children) != 1:
        _fail(cert, "needs exactly one child")
    if not _same_arity(cert.children[0], cert):
        _fail(cert, "child must have the arity of the node")
    return cert.children


def _same_arity(child, cert):
    return type(child.goal) is tuple and len(child.goal) == len(cert.goal)


def _check_filling(cert, mu, nu, filling):
    # filling[k] lists the columns receiving label k.  Its shape is checked
    # first: the labels then hold |mu| = |nu| columns in all, which bounds
    # the conjugate of nu by the size of the input.
    if not isinstance(filling, list) or any(
        not isinstance(colset, list) or any(type(c) is not int for c in colset)
        for colset in filling
    ):
        _fail(cert, "filling is not a list of column lists")
    if len(filling) != len(mu):
        _fail(cert, "filling has wrong number of labels")
    for k, colset in enumerate(filling):
        if len(colset) != mu[k]:
            _fail(cert, "label %d used %d times, want %d" % (k, len(colset), mu[k]))
    heights = _conj(nu)  # descending column heights
    used = [0] * len(heights)
    for k, colset in enumerate(filling):
        if len(set(colset)) != len(colset):
            _fail(cert, "label %d repeats a column" % k)
        for c in colset:
            if not (0 <= c < len(heights)):
                _fail(cert, "filling column out of range")
            used[c] += 1
    if list(heights) != used:
        _fail(cert, "filling does not exhaust the columns")

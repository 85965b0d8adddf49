"""Independent certificate verifier.

Re-implements every rule check locally so that verification shares no
logic with the search code that produced the certificate.
"""

from . import characters


def _is_partition(p):
    return all(isinstance(r, int) and r > 0 for r in p) and all(
        p[i] >= p[i + 1] for i in range(len(p) - 1)
    )


def _wt(p):
    return sum(p)


def _dominates(a, b):
    if _wt(a) != _wt(b):
        return False
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def _conj(p):
    if not p:
        return ()
    return tuple(
        sum(1 for r in p if r > j) for j in range(p[0])
    )


def _row_sum(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _multiset_sum(a, b):
    return tuple(sorted(a + b, reverse=True))


def _stair(m):
    return tuple(range(m, 0, -1))


# Certificates the prover and the pipeline build are at most 8 deep; a
# deeper tree is rejected before the recursive walk can exhaust the stack.
MAX_DEPTH = 100


class VerificationFailure(Exception):
    pass


def verify_certificate(cert, ceiling=characters.DEFAULT_ORACLE_CEILING):
    """Walk the tree and re-check every rule.  Returns (ok, message)."""
    try:
        _verify(cert, ceiling, 0)
    except VerificationFailure as e:
        return False, str(e)
    return True, "ok"


def _fail(cert, why):
    raise VerificationFailure("%s node with goal %r: %s" % (cert.kind, cert.goal, why))


def _staircase_side(cert):
    """meta.m, checked against the goal size before any staircase is built."""
    m = cert.meta.get("m")
    if type(m) is not int or m < 0:
        _fail(cert, "m is not a non-negative integer")
    if m * (m + 1) // 2 != _wt(cert.goal[0]):
        _fail(cert, "the staircase of m does not have the goal size")
    return m


def _verify(cert, ceiling, depth):
    if depth > MAX_DEPTH:
        raise VerificationFailure("certificate tree too deep")
    goal = cert.goal
    if len(goal) < 3:
        _fail(cert, "goal needs a target and at least two factors")
    for p in goal:
        if not _is_partition(tuple(p)):
            _fail(cert, "goal entry is not a partition: %r" % (p,))
    sizes = {_wt(p) for p in goal}
    if len(sizes) != 1:
        _fail(cert, "goal entries have unequal sizes")

    kind = cert.kind
    if kind == "DominanceStaircase":
        if cert.children:
            _fail(cert, "leaves must have no children")
        m = _staircase_side(cert)
        rho = _stair(m)
        if any(f != rho for f in goal[1:]):
            _fail(cert, "factors are not the staircase of %r" % m)
        nu = goal[0]
        if not (_dominates(nu, rho) or _dominates(rho, nu)):
            _fail(cert, "target is not dominance-comparable to the staircase")
    elif kind == "Hook":
        if cert.children:
            _fail(cert, "leaves must have no children")
        m = _staircase_side(cert)
        rho = _stair(m)
        if goal[1:] != (rho, rho):
            _fail(cert, "factors are not a staircase pair")
        nu = goal[0]
        if not nu or any(r != 1 for r in nu[1:]):
            _fail(cert, "target is not a hook")
    elif kind == "GeneralizedDominance":
        if cert.children:
            _fail(cert, "leaves must have no children")
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
        if cert.children:
            _fail(cert, "leaves must have no children")
        if len(goal) == 3:
            lam = goal[0]
            if goal[1] != lam or goal[2] != lam:
                _fail(cert, "cube goal must repeat one shape")
            if _conj(lam) != lam:
                _fail(cert, "shape is not self-conjugate")
        elif len(goal) == 4:
            if any(f != goal[0] for f in goal[1:]):
                _fail(cert, "fourth-power goal must repeat one shape")
        else:
            _fail(cert, "unsupported arity")
    elif kind == "OracleLeaf":
        if cert.children:
            _fail(cert, "leaves must have no children")
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
        _verify(a, ceiling, depth + 1)
        _verify(b, ceiling, depth + 1)
        want = tuple(_row_sum(x, y) for x, y in zip(a.goal, b.goal))
        if tuple(goal) != want:
            _fail(cert, "goal is not the rowwise sum of the children")
    elif kind == "VVHSum":
        a, b = _two_children(cert)
        _verify(a, ceiling, depth + 1)
        _verify(b, ceiling, depth + 1)
        vertical = _coord_set(cert, "vertical")
        want = tuple(
            _multiset_sum(x, y) if i in vertical else _row_sum(x, y)
            for i, (x, y) in enumerate(zip(a.goal, b.goal))
        )
        if tuple(goal) != want:
            _fail(cert, "goal does not match the recorded sums")
    elif kind == "Conjugate":
        (a,) = _one_child(cert)
        _verify(a, ceiling, depth + 1)
        coords = _coord_set(cert, "coords")
        want = tuple(
            _conj(p) if i in coords else p for i, p in enumerate(a.goal)
        )
        if tuple(goal) != want:
            _fail(cert, "goal does not match conjugated child")
    elif kind == "Permute":
        (a,) = _one_child(cert)
        _verify(a, ceiling, depth + 1)
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
    if any(len(c.goal) != len(cert.goal) for c in cert.children):
        _fail(cert, "children must have the arity of the node")
    return cert.children


def _one_child(cert):
    if len(cert.children) != 1:
        _fail(cert, "needs exactly one child")
    return cert.children


def _check_filling(cert, mu, nu, filling):
    cols = _conj(nu)
    ncols = len(cols)
    # filling[k] lists the columns receiving label k (sorted column heights
    # are taken in the descending order used by the producer)
    heights = tuple(sorted(cols, reverse=True))
    used = [0] * len(heights)
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
        if len(set(colset)) != len(colset):
            _fail(cert, "label %d repeats a column" % k)
        for c in colset:
            if not (0 <= c < len(heights)):
                _fail(cert, "filling column out of range")
            used[c] += 1
    if list(heights) != used:
        _fail(cert, "filling does not exhaust the columns")

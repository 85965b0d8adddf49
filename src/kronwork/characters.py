"""Exact symmetric group characters and Kronecker coefficients.

Characters come from the rim-hook (Murnaghan-Nakayama) recursion on beta
sets stored as int bitmasks, one bit per bead, so that removing a rim hook is
two bit flips and its height a bit count; everything is integer arithmetic.
A shape's row of characters over all the classes of n is built one block of
classes at a time: the classes with first part t are (t,) + sigma, so the
block is a signed sum of the tails of the rows of the shapes left after
removing each rim hook of length t.
"""

import math
import operator
from functools import lru_cache
from itertools import groupby

from .partitions import check_partition, conjugate, partitions_of, size

# The largest n the oracle computes a coefficient for; every caller and
# the verifier use this one value.
DEFAULT_ORACLE_CEILING = 14

# Bounds of the character caches.  The whole character table of every
# n <= DEFAULT_ORACLE_CEILING fills 508 rows per beta mask, 508 per shape,
# 15 class-size tuples and 14 block layouts, so the oracle never evicts an
# entry.
_ROW_CACHE = 1024
_CLASS_CACHE = 64


class OracleCeilingError(ValueError):
    pass


def centralizer_order(rho):
    """z_rho = prod k^{m_k} m_k!."""
    z = 1
    mult = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for k, m in mult.items():
        z *= k**m * math.factorial(m)
    return z


def class_size(rho):
    return math.factorial(size(rho)) // centralizer_order(rho)


def _beta_mask(lam):
    """Beta set of lam as a bitmask: bit lam_i + (len - 1 - i) for each row.

    Zero rows are dropped, so bit 0 is clear and each partition has exactly
    one mask (appending a zero row would shift the mask and set bit 0).
    """
    rows = [r for r in lam if r]
    ell = len(rows)
    mask = 0
    for i, r in enumerate(rows):
        mask |= 1 << (r + ell - 1 - i)
    return mask


def character(lam, rho):
    """Value of the irreducible character of shape lam on class rho.

    rho is a cycle type, a multiset: its parts may come in any order, and
    zero parts are dropped.
    """
    if any(part < 0 for part in rho):
        raise ValueError("character: negative part in %r" % (rho,))
    rho = tuple(sorted((part for part in rho if part), reverse=True))
    n = size(lam)
    if size(rho) != n:
        raise ValueError("character: size mismatch")
    return _char_row(lam)[partitions_of(n).index(rho)]


def dimension(lam):
    """Hook length formula, exact."""
    cols = conjugate(lam)
    denom = 1
    for i, r in enumerate(lam):
        for j in range(r):
            hook = (r - j) + (cols[j] - i) - 1
            denom *= hook
    return math.factorial(size(lam)) // denom


@lru_cache(maxsize=_CLASS_CACHE)
def _class_sizes(n):
    """|C_rho| for each rho, in `partitions_of(n)` order."""
    return tuple(class_size(rho) for rho in partitions_of(n))


@lru_cache(maxsize=_CLASS_CACHE)
def _class_blocks(n):
    """(t, count) for each first part t of the classes of n, in
    `partitions_of(n)` order: t runs from n down to 1."""
    return tuple((t, len(list(run))) for t, run in
                 groupby(partitions_of(n), key=operator.itemgetter(0)))


@lru_cache(maxsize=_ROW_CACHE)
def _mask_row(mask, n):
    """chi(rho) for each rho of n, in `partitions_of(n)` order, for the
    shape of n whose canonical beta mask is mask.

    The classes with first part t are (t,) + sigma, where sigma runs over
    the last `count` classes of n - t, those with parts at most t.  Removing
    a rim hook of length t moves a bead b of the beta set to an empty
    position b - t: two bit flips.  Its sign is (-1)^height, where the
    height is the number of beads strictly between b - t and b.  So the
    block is the signed sum, over those beads, of the last `count` entries
    of each remainder's row.
    """
    if n == 0:
        return (1,)
    row = []
    for t, count in _class_blocks(n):
        block = None
        # beads b >= t whose position b - t is empty
        movable = (mask & ~(mask << t)) >> t << t
        while movable:
            bead = movable & -movable
            movable ^= bead
            hole = bead >> t
            sub = mask ^ bead ^ hole
            if hole == 1:
                # bead moved to position 0: strip the low run of 1-bits
                sub >>= ((~sub) & (sub + 1)).bit_length() - 1
            odd = (mask & (bead - 1) & -(hole << 1)).bit_count() & 1
            tail = _mask_row(sub, n - t)[-count:]
            if block is None:
                block = list(map(operator.neg, tail)) if odd else tail
            else:
                block = list(map(operator.sub if odd else operator.add, block, tail))
        row += block or [0] * count
    return tuple(row)


@lru_cache(maxsize=_ROW_CACHE)
def _char_row(lam):
    """chi^lam(rho) for each rho, in `partitions_of(|lam|)` order.

    A lam that is not a partition, trailing zero rows aside, is a
    ValueError: its beta mask would be some other shape's or none.
    """
    rows = check_partition(lam)
    if rows != lam[:len(rows)]:
        raise ValueError("not a partition: %r" % (lam,))
    return _mask_row(_beta_mask(rows), size(rows))


def multi_kronecker(factors):
    """Multiplicity of the trivial in the tensor product of the factors.

    For factors (l1, ..., lk) this is (1/n!) sum_rho |C_rho| prod chi^{li}(rho);
    with k = 3 it is the usual Kronecker coefficient.  The sum is one exact
    dot product of the class sizes of S_n with the factors' character rows;
    both are cached, per n and per shape, the first time they are needed.
    A row is built block by block from the rows of its rim-hook
    remainders (`_mask_row`), which shapes of one n share.
    """
    factors = tuple(tuple(f) for f in factors)
    if not factors:
        raise ValueError("need at least one factor")
    n = size(factors[0])
    if any(size(f) != n for f in factors):
        raise ValueError("factors must have equal sizes")
    if n > DEFAULT_ORACLE_CEILING:
        raise OracleCeilingError(
            "oracle ceiling %d exceeded by n=%d" % (DEFAULT_ORACLE_CEILING, n)
        )
    prod = _class_sizes(n)
    for f in factors:
        prod = map(operator.mul, prod, _char_row(f))
    total = sum(prod)
    fact = math.factorial(n)
    assert total % fact == 0, "class sum not divisible by n!"
    coeff = total // fact
    assert coeff >= 0
    return coeff


def kronecker(lam, mu, nu):
    """Kronecker coefficient g(lam, mu; nu)."""
    return multi_kronecker((lam, mu, nu))


def tensor_square_support(lam):
    """All nu with g(lam, lam; nu) > 0."""
    n = size(lam)
    return frozenset(
        nu for nu in partitions_of(n) if kronecker(lam, lam, nu) > 0
    )


def permutation_module_support(lam):
    """Support of the natural permutation character tensored with lam.

    The n-dimensional permutation representation is the trivial one plus
    (n-1, 1), so the support is lam and the mu with g(lam, (n-1, 1), mu) > 0
    (empty for n = 0); used as the one-box-move cross-check.
    """
    n = size(lam)
    if n > DEFAULT_ORACLE_CEILING:
        raise OracleCeilingError("oracle ceiling exceeded")
    if n == 0:
        return frozenset()
    others = partitions_of(n) if n > 1 else ()
    return frozenset([tuple(lam)]).union(
        mu for mu in others if kronecker(lam, (n - 1, 1), mu) > 0
    )


def saxl_exception_scan(n):
    """For each lam of n, the nu missing from the square of lam.

    Returns a dict lam -> sorted tuple of missing nu (empty when the square
    of lam contains every irreducible).
    """
    if n < 0:
        raise ValueError("n must be non-negative, got %d" % n)
    out = {}
    for lam in partitions_of(n):
        support = tensor_square_support(lam)
        missing = tuple(
            nu for nu in partitions_of(n) if nu not in support
        )
        out[lam] = missing
    return out

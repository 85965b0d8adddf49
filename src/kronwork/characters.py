"""Exact symmetric group characters and Kronecker coefficients.

Characters come from the rim-hook (Murnaghan-Nakayama) recursion on beta
sets stored as int bitmasks, one bit per bead, so that removing a rim hook is
two bit flips and its height a bit count; everything is integer arithmetic.
"""

import math
import operator
from functools import lru_cache

from .partitions import partitions_of, size

DEFAULT_ORACLE_CEILING = 14


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


@lru_cache(maxsize=None)
def _mn(mask, rho):
    """chi(rho) for the shape whose canonical beta mask is mask.

    Removing a rim hook of length t moves a bead b of the beta set to an
    empty position b - t: two bit flips.  Its sign is (-1)^height, where the
    height is the number of beads strictly between b - t and b.  Values are
    memoised on (mask, rho).
    """
    if not rho:
        return 1
    t = rho[0]
    rest = rho[1:]
    total = 0
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
        if (mask & (bead - 1) & -(hole << 1)).bit_count() & 1:
            total -= _mn(sub, rest)
        else:
            total += _mn(sub, rest)
    return total


def character(lam, rho):
    """Value of the irreducible character of shape lam on class rho."""
    if size(lam) != size(rho):
        raise ValueError("character: size mismatch")
    return _mn(_beta_mask(lam), tuple(rho))


def dimension(lam):
    """Hook length formula, exact."""
    n = size(lam)
    if n == 0:
        return 1
    conj = {}
    cols = [0] * (lam[0] + 1)
    for r in lam:
        for j in range(r):
            cols[j] += 1
    denom = 1
    for i, r in enumerate(lam):
        for j in range(r):
            hook = (r - j) + (cols[j] - i) - 1
            denom *= hook
    return math.factorial(n) // denom


@lru_cache(maxsize=None)
def _class_sizes(n):
    """|C_rho| for each rho, in `partitions_of(n)` order."""
    return tuple(class_size(rho) for rho in partitions_of(n))


@lru_cache(maxsize=None)
def _char_row(lam):
    """chi^lam(rho) for each rho, in `partitions_of(|lam|)` order."""
    mask = _beta_mask(lam)
    return tuple(_mn(mask, rho) for rho in partitions_of(size(lam)))


def multi_kronecker(factors, ceiling=DEFAULT_ORACLE_CEILING):
    """Multiplicity of the trivial in the tensor product of the factors.

    For factors (l1, ..., lk) this is (1/n!) sum_rho |C_rho| prod chi^{li}(rho);
    with k = 3 it is the usual Kronecker coefficient.  The sum is one exact
    dot product of the class sizes of S_n with the factors' character rows;
    both are cached, per n and per shape, the first time they are needed.
    A row is filled by the Murnaghan-Nakayama recursion on the shape's beta
    set bitmask, memoised on (mask, class), so shapes of one n share the
    characters of their smaller rim-hook remainders.
    """
    factors = tuple(tuple(f) for f in factors)
    if not factors:
        raise ValueError("need at least one factor")
    n = size(factors[0])
    if any(size(f) != n for f in factors):
        raise ValueError("factors must have equal sizes")
    if ceiling is not None and n > ceiling:
        raise OracleCeilingError(
            "oracle ceiling %d exceeded by n=%d" % (ceiling, n)
        )
    if n == 0:
        return 1
    prod = _class_sizes(n)
    for f in factors:
        prod = map(operator.mul, prod, _char_row(f))
    total = sum(prod)
    fact = math.factorial(n)
    assert total % fact == 0, "class sum not divisible by n!"
    coeff = total // fact
    assert coeff >= 0
    return coeff


def kronecker(lam, mu, nu, ceiling=DEFAULT_ORACLE_CEILING):
    """Kronecker coefficient g(lam, mu; nu)."""
    return multi_kronecker((lam, mu, nu), ceiling=ceiling)


def tensor_square_support(lam, ceiling=DEFAULT_ORACLE_CEILING):
    """All nu with g(lam, lam; nu) > 0."""
    n = size(lam)
    return frozenset(
        nu for nu in partitions_of(n) if kronecker(lam, lam, nu, ceiling) > 0
    )


def permutation_module_support(lam, ceiling=DEFAULT_ORACLE_CEILING):
    """Support of the natural permutation character tensored with lam.

    The n-dimensional permutation representation has character equal to the
    number of fixed points; used as the one-box-move cross-check.
    """
    n = size(lam)
    if ceiling is not None and n > ceiling:
        raise OracleCeilingError("oracle ceiling exceeded")
    fact = math.factorial(n)
    weights = [
        c * rho.count(1) * x
        for c, rho, x in zip(_class_sizes(n), partitions_of(n), _char_row(lam))
    ]
    out = set()
    for mu in partitions_of(n):
        total = sum(w * y for w, y in zip(weights, _char_row(mu)))
        assert total % fact == 0
        if total // fact > 0:
            out.add(mu)
    return frozenset(out)


def saxl_exception_scan(n, ceiling=DEFAULT_ORACLE_CEILING):
    """For each lam of n, the nu missing from the square of lam.

    Returns a dict lam -> sorted tuple of missing nu (empty when the square
    of lam contains every irreducible).
    """
    out = {}
    for lam in partitions_of(n):
        support = tensor_square_support(lam, ceiling)
        missing = tuple(
            nu for nu in partitions_of(n) if nu not in support
        )
        out[lam] = missing
    return out

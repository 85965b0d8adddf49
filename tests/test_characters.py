import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from kronwork import characters as ch
from kronwork import partitions as pt


def partitions(max_size=8):
    return st.integers(1, max_size).map(
        lambda n: pt.partitions_of(n)
    ).flatmap(st.sampled_from)


def hook_dimension(lam):
    n = pt.size(lam)
    cols = pt.conjugate(lam)
    prod = 1
    for i, r in enumerate(lam):
        for j in range(r):
            prod *= (r - j) + (cols[j] - i) - 1
    return math.factorial(n) // prod


def test_character_known_values():
    # character table of S_3
    assert ch.character((3,), (1, 1, 1)) == 1
    assert ch.character((2, 1), (1, 1, 1)) == 2
    assert ch.character((2, 1), (3,)) == -1
    assert ch.character((1, 1, 1), (2, 1)) == -1


@given(partitions())
def test_dimension_matches_hook_lengths(lam):
    assert ch.dimension(lam) == hook_dimension(lam)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(ch.class_size(r) for r in pt.partitions_of(n)) == math.factorial(n)


def test_kronecker_small_values():
    assert ch.kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert ch.kronecker((3,), (2, 1), (2, 1)) == 1
    assert ch.kronecker((3,), (3,), (1, 1, 1)) == 0
    # trivial and sign selection rules
    for mu in pt.partitions_of(5):
        for nu in pt.partitions_of(5):
            assert ch.kronecker((5,), mu, nu) == (1 if mu == nu else 0)
            expect = 1 if nu == pt.conjugate(mu) else 0
            assert ch.kronecker((1, 1, 1, 1, 1), mu, nu) == expect


@given(partitions(6))
def test_square_contains_trivial_exactly_once(lam):
    n = pt.size(lam)
    assert ch.kronecker(lam, lam, (n,)) == 1


def test_kronecker_is_symmetric_in_its_factors():
    for lam in pt.partitions_of(4):
        for mu in pt.partitions_of(4):
            for nu in pt.partitions_of(4):
                g = ch.kronecker(lam, mu, nu)
                assert g == ch.kronecker(mu, lam, nu) == ch.kronecker(nu, mu, lam)
                assert g == ch.kronecker(lam, pt.conjugate(mu), pt.conjugate(nu))


def test_multi_kronecker_four_factors():
    assert ch.multi_kronecker(((2, 1), (2, 1), (2, 1), (2, 1))) > 0
    with pytest.raises(ValueError):
        ch.multi_kronecker(((2, 1), (3,), (2, 2)))


def test_oracle_ceiling_enforced():
    big = (15,) * 1
    with pytest.raises(ch.OracleCeilingError):
        ch.kronecker(big, big, big)
    assert ch.kronecker(big, big, big, ceiling=15) == 1


def test_tensor_square_support_examples():
    supp = ch.tensor_square_support((2, 2))
    assert (4,) in supp and (2, 2) in supp
    assert all(pt.size(nu) == 4 for nu in supp)


def test_permutation_module_support_is_move_neighborhood():
    for n in range(1, 8):
        for lam in pt.partitions_of(n):
            supp = ch.permutation_module_support(lam)
            assert supp == {lam} | pt.move_neighbors(lam)


def test_exception_scan_small():
    scan = ch.saxl_exception_scan(2)
    assert all(missing for missing in scan.values())
    scan = ch.saxl_exception_scan(3)
    assert any(not missing for missing in scan.values())


def reference_multi_kronecker(factors):
    """The class sum one class at a time, as the oracle once computed it."""
    n = pt.size(factors[0])
    total = 0
    for rho in pt.partitions_of(n):
        term = ch.class_size(rho)
        for f in factors:
            term *= ch.character(f, rho)
        total += term
    assert total % math.factorial(n) == 0
    return total // math.factorial(n)


def test_multi_kronecker_matches_per_class_sum():
    for n in range(7):
        shapes = pt.partitions_of(n)
        for triple in itertools.product(shapes, repeat=3):
            assert ch.multi_kronecker(triple) == reference_multi_kronecker(triple)
    for n in range(5):
        for quad in itertools.product(pt.partitions_of(n), repeat=4):
            assert ch.multi_kronecker(quad) == reference_multi_kronecker(quad)
    rng = random.Random(7)
    for n in (6, 8, 10):
        shapes = pt.partitions_of(n)
        for _ in range(40):
            factors = tuple(rng.choice(shapes) for _ in range(rng.randint(2, 5)))
            assert ch.multi_kronecker(factors) == reference_multi_kronecker(factors)


def test_char_row_and_class_sizes_follow_partition_order():
    for n in range(8):
        classes = pt.partitions_of(n)
        assert ch._class_sizes(n) == tuple(ch.class_size(r) for r in classes)
        for lam in classes:
            row = ch._char_row(lam)
            assert len(row) == len(classes)
            for i, rho in enumerate(classes):
                assert row[i] == ch.character(lam, rho)


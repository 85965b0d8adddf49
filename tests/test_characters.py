import importlib
import itertools
import math
import pkgutil
import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import kronwork
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


def test_character_takes_a_class_as_a_multiset():
    # a cycle type is a multiset of cycle lengths: zero parts are no cycles
    # and the order is immaterial; (2, 1, 0) once read as 0 for the trivial
    assert ch.character((3,), (2, 1, 0)) == 1
    assert ch.character((2, 1), (0, 3)) == -1
    assert ch.character((3, 2), (1, 2, 2)) == ch.character((3, 2), (2, 2, 1)) == 1
    assert ch.character((1, 1, 1), (1, 2)) == -1
    assert ch.character((), ()) == ch.character((), (0, 0)) == 1


@pytest.mark.parametrize("rho", [(4, -1), (-1, 4), (2, 2, -1)])
def test_character_rejects_a_negative_part(rho):
    # (4, -1) sums to 3 and once read as 0 on (3,)
    with pytest.raises(ValueError):
        ch.character((3,), rho)


def test_character_rejects_a_size_mismatch():
    with pytest.raises(ValueError):
        ch.character((3,), (2, 2))


# shapes that are not partitions once gave numbers: 1, (0, 0, 0) and 0
@pytest.mark.parametrize("call", [
    lambda: ch.multi_kronecker(((1, 1, 2), (1, 1, 2), (4,))),
    lambda: ch._char_row((1, 2)),
    lambda: ch.character((1, 2), (3,)),
    lambda: ch.multi_kronecker(((2, -2), (), ())),
    lambda: ch._char_row((2.5, 0.5)),
], ids=["multi-kronecker", "char-row", "character", "zero-size", "fractional"])
def test_the_oracle_rejects_a_shape_that_is_not_a_partition(call):
    with pytest.raises(ValueError):
        call()


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
    # rho_m is self-conjugate, so conjugating the first factor alone keeps
    # the coefficient of (nu; rho_m, rho_m): the prover's oracle asks about
    # nu' only
    for m in range(1, 5):
        rho = pt.staircase(m)
        for nu in pt.partitions_of(pt.triangular(m)):
            assert ch.kronecker(pt.conjugate(nu), rho, rho) == ch.kronecker(nu, rho, rho)


def test_multi_kronecker_four_factors():
    assert ch.multi_kronecker(((2, 1), (2, 1), (2, 1), (2, 1))) > 0
    with pytest.raises(ValueError):
        ch.multi_kronecker(((2, 1), (3,), (2, 2)))


def test_oracle_ceiling_enforced():
    big = (15,) * 1
    with pytest.raises(ch.OracleCeilingError):
        ch.kronecker(big, big, big)
    assert ch.kronecker((14,), (14,), (14,)) == 1


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


def _beta_set(lam):
    return tuple(lam[i] + (len(lam) - 1 - i) for i in range(len(lam)))


def _beta_to_partition(beta):
    beta = sorted(beta, reverse=True)
    ell = len(beta)
    return tuple(r for r in (beta[i] - (ell - 1 - i) for i in range(ell)) if r)


@lru_cache(maxsize=None)
def reference_character(lam, rho):
    """Murnaghan-Nakayama on tuple beta sets, as the oracle once computed it."""
    if not rho:
        return 1
    t, rest = rho[0], rho[1:]
    beta = _beta_set(lam)
    total = 0
    for pos, b in enumerate(beta):
        c = b - t
        if c < 0 or c in beta:
            continue
        height = sum(1 for x in beta if c < x < b)
        new = beta[:pos] + (c,) + beta[pos + 1:]
        total += (-1) ** height * reference_character(_beta_to_partition(new), rest)
    return total


def test_characters_match_the_tuple_recursion():
    for n in range(ch.DEFAULT_ORACLE_CEILING + 1):
        classes = pt.partitions_of(n)
        for lam in classes:
            want = tuple(reference_character(lam, rho) for rho in classes)
            assert ch._char_row(lam) == want
            assert tuple(ch.character(lam, rho) for rho in classes) == want


def test_beta_masks_ignore_zero_rows():
    assert ch._beta_mask((2, 1, 0, 0)) == ch._beta_mask((2, 1)) == 0b1010
    assert ch.character((2, 1, 0), (2, 1)) == ch.character((2, 1), (2, 1)) == 0


def test_character_table_rows_are_orthogonal():
    # sum_rho |C_rho| chi^lam(rho) chi^mu(rho) = n! [lam == mu]
    for n in range(11):
        classes = pt.partitions_of(n)
        sizes = [math.factorial(n) // ch.centralizer_order(rho) for rho in classes]
        for lam, mu in itertools.product(classes, repeat=2):
            total = sum(c * x * y for c, x, y in
                        zip(sizes, ch._char_row(lam), ch._char_row(mu)))
            assert total == (math.factorial(n) if lam == mu else 0)


def reference_multi_kronecker(factors):
    """The class sum one class at a time, as the oracle once computed it."""
    n = pt.size(factors[0])
    total = 0
    for rho in pt.partitions_of(n):
        term = ch.class_size(rho)
        for f in factors:
            term *= reference_character(f, rho)
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


def test_character_caches_are_bounded_and_hold_the_default_ceiling():
    # every character table up to the default ceiling fits without eviction
    caches = {name: f for name, f in vars(ch).items()
              if hasattr(f, "cache_parameters") and f.__module__ == ch.__name__}
    assert set(caches) >= {"_mask_row", "_char_row", "_class_sizes"}
    for name, f in caches.items():
        assert f.cache_parameters()["maxsize"] is not None, name
        f.cache_clear()
    for n in range(ch.DEFAULT_ORACLE_CEILING + 1):
        ch._class_sizes(n)
        for lam in pt.partitions_of(n):
            ch._char_row(lam)
    for name, f in caches.items():
        info = f.cache_info()
        assert info.currsize < info.maxsize, name


def test_no_kronwork_module_keeps_an_unbounded_cache():
    # an lru_cache with maxsize=None grows for the life of the process
    found = {}
    for info in pkgutil.iter_modules(kronwork.__path__):
        module = importlib.import_module("kronwork." + info.name)
        for name, f in vars(module).items():
            if hasattr(f, "cache_parameters"):
                found["%s.%s" % (info.name, name)] = f.cache_parameters()["maxsize"]
    assert set(found) >= {"characters._mask_row", "partitions._pentagonal_table",
                          "prover._cached_oracle", "samplers._sigma_table"}
    assert sorted(name for name, maxsize in found.items() if maxsize is None) == []

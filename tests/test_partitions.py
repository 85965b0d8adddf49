import pytest
from hypothesis import given, strategies as st

from kronwork import partitions as pt


def partitions(max_size=12):
    return st.integers(0, max_size).map(
        lambda n: pt.partitions_of(n)
    ).flatmap(st.sampled_from)


def test_parse_and_format_round_trip():
    for text in ("3,2,1", "5", ""):
        assert pt.format_partition(pt.parse_partition(text)) == text


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        pt.check_partition((1, 2))
    assert pt.check_partition((2, 0)) == (2,)


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert pt.conjugate(pt.conjugate(lam)) == lam
    assert pt.size(pt.conjugate(lam)) == pt.size(lam)


@given(partitions(), partitions())
def test_hsum_is_column_union(a, b):
    s = pt.hsum(a, b)
    assert pt.size(s) == pt.size(a) + pt.size(b)
    cols = sorted(pt.conjugate(a) + pt.conjugate(b), reverse=True)
    assert pt.conjugate(s) == tuple(cols)


@given(partitions(), partitions())
def test_vsum_is_row_union(a, b):
    s = pt.vsum(a, b)
    assert s == tuple(sorted(a + b, reverse=True))
    assert pt.conjugate(s) == pt.hsum(pt.conjugate(a), pt.conjugate(b))


@given(partitions())
def test_dominance_is_reflexive_and_conjugate_reversing(lam):
    assert pt.dominates(lam, lam)
    for mu in pt.partitions_of(pt.size(lam)):
        if pt.dominates(lam, mu) and pt.dominates(mu, lam):
            assert lam == mu
        if pt.dominates(lam, mu):
            assert pt.dominates(pt.conjugate(mu), pt.conjugate(lam))


def test_staircases_and_triangulars():
    assert pt.staircase(4) == (4, 3, 2, 1)
    assert pt.staircase(0) == ()
    assert pt.triangular(4) == 10
    assert pt.staircase_fit(10) == (4, 0)
    assert pt.staircase_fit(12) == (4, 2)
    assert pt.is_symmetric(pt.staircase(6))


def test_irregular_staircase_adds_one_row():
    assert pt.irregular_staircase(5) == (4, 1)
    assert pt.irregular_staircase(10) == (4, 3, 2, 1)


def test_caret_shape():
    assert pt.caret(1) == (2, 1)
    c = pt.caret(3)
    assert pt.size(c) == pt.size(pt.staircase(6)) + 2 * pt.size(pt.staircase(2))
    assert c[0] == 3 * 3 - 1


def test_rectangle_and_hooks():
    assert pt.rectangle(2, 3) == (2, 2, 2)
    assert pt.is_hook((5, 1, 1))
    assert not pt.is_hook((3, 2))
    assert pt.durfee((4, 3, 1)) == 2


def test_partition_count_matches_enumeration():
    for n in range(12):
        assert pt.partition_count(n) == len(pt.partitions_of(n))


def test_move_neighbors_small():
    nb = pt.move_neighbors((2, 1))
    assert nb == {(3,), (1, 1, 1)}
    assert pt.move_neighbors(()) == set()


def bfs_distance(a, b):
    if pt.size(a) != pt.size(b):
        raise ValueError
    seen = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for lam in frontier:
            if lam == b:
                return seen[lam]
            for mu in pt.move_neighbors(lam):
                if mu not in seen:
                    seen[mu] = seen[lam] + 1
                    nxt.append(mu)
        frontier = nxt
    return seen[b]


def test_blockwise_distance_matches_bfs_small():
    for n in range(1, 8):
        for a in pt.partitions_of(n):
            for b in pt.partitions_of(n):
                assert pt.blockwise_distance(a, b) == bfs_distance(a, b)


@given(partitions(10), partitions(10))
def test_move_trace_is_single_steps(a, b):
    if pt.size(a) != pt.size(b):
        return
    trace = pt.move_trace(a, b)
    assert trace[0] == a and trace[-1] == b
    for x, y in zip(trace, trace[1:]):
        assert pt.is_single_step(x, y)
    assert len(trace) - 1 == pt.blockwise_distance(a, b)


def test_is_symmetric_matches_the_conjugate():
    for n in range(13):
        for lam in pt.partitions_of(n):
            assert pt.is_symmetric(lam) == (lam == pt.conjugate(lam)), lam

import os
import random
import subprocess
import sys

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


def test_check_partition_rejects_a_zero_row_before_a_positive_one():
    # the zeros used to be dropped before the order was checked, so
    # `kronwork prove --m 3 --nu 3,0,3` proved (3, 3)
    for rows in ((3, 0, 3), (0, 1), (2, 0, 1, 0)):
        with pytest.raises(ValueError):
            pt.check_partition(rows)
    with pytest.raises(ValueError):
        pt.parse_partition("3,0,3")
    assert pt.check_partition((2, 2, 0, 0)) == (2, 2)
    assert pt.check_partition((0,)) == ()


def _conjugate_by_column_counts(lam):
    """Reference for `conjugate`: column j has one box for each row of
    length at least j."""
    return tuple(sum(1 for r in lam if r >= j) for j in range(1, max(lam, default=0) + 1))


def test_conjugate_matches_the_column_counts():
    for n in range(21):
        for lam in pt.partitions_of(n):
            want = _conjugate_by_column_counts(lam)
            assert pt.conjugate(lam) == want, lam
            assert pt.conjugate(lam + (0,) * (1 + n % 3)) == want, lam
            assert pt.conjugate(want) == lam, lam


def test_from_columns_reads_shuffled_column_heights():
    rng = random.Random(7)
    for n in range(21):
        for lam in pt.partitions_of(n):
            cols = list(pt.conjugate(lam))
            rng.shuffle(cols)
            assert pt.from_columns(cols) == lam, cols


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
    assert pt.conjugate(pt.staircase(6)) == pt.staircase(6)


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


def test_partition_count_matches_enumeration():
    for n in range(12):
        assert pt.partition_count(n) == len(pt.partitions_of(n))


def test_partitions_of_is_strictly_decreasing_and_complete():
    # reverse lex order is strictly decreasing tuple order, which the saxl
    # log reader bisects
    for n in range(16):
        parts = pt.partitions_of(n)
        assert list(parts) == sorted(set(parts), reverse=True), n
        assert all(pt.check_partition(p) == p and pt.size(p) == n for p in parts)
        assert len(parts) == pt.partition_count(n)
    assert pt.partitions_of(-1) == ()


# verify_saxl in a fresh interpreter, so that no earlier call is cached;
# prints the blocks still allocated by partitions_of once it has returned
_LEFT_BY_PARTITIONS_OF = """
import gc, inspect, tracemalloc
from kronwork import partitions as pt
from kronwork.prover import verify_saxl
tracemalloc.start()
verify_saxl(6)
gc.collect()
lines, first = inspect.getsourcelines(pt.partitions_of)
print(len(tracemalloc.take_snapshot().filter_traces(
    [tracemalloc.Filter(True, pt.__file__, line)
     for line in range(first, first + len(lines))]).traces))
"""


def test_a_finished_saxl_run_keeps_no_list_of_partitions():
    # a cache of partitions_of kept the 451,276 targets of m=10, about
    # 71 MB, for the life of the process
    src = os.path.dirname(os.path.dirname(os.path.abspath(pt.__file__)))
    out = subprocess.run([sys.executable, "-c", _LEFT_BY_PARTITIONS_OF],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["0"]


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

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kronwork import partitions as pt
from kronwork import samplers as sp


def test_seeded_rng_deterministic():
    a = sp.SeededRng(7, 3)
    b = sp.SeededRng(7, 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c = sp.SeededRng(7, 4)
    assert a.random() != c.random()


def test_draw_reproducible():
    for measure in ("uniform", "plancherel"):
        one = [sp.draw(measure, 30, 11, i) for i in range(20)]
        two = [sp.draw(measure, 30, 11, i) for i in range(20)]
        assert one == two
        for lam in one:
            assert pt.size(lam) == 30


def test_draw_rejects_unknown_measure():
    with pytest.raises(ValueError):
        sp.draw("zipf", 10, 0, 0)


def test_uniform_sample_exact_small():
    # n = 4 has 5 partitions, each should come up about 1/5 of the time
    counts = Counter(sp.draw("uniform", 4, 5, i) for i in range(5000))
    assert len(counts) == 5
    for v in counts.values():
        assert abs(v / 5000 - 0.2) < 0.03


def test_rsk_shape_anchors():
    assert sp.rsk_shape([1, 2, 3]) == (3,)
    assert sp.rsk_shape([3, 2, 1]) == (1, 1, 1)
    assert sp.rsk_shape([2, 1, 3]) == (2, 1)
    assert sp.rsk_shape([1, 3, 2, 4]) == (3, 1)


def test_plancherel_n3_frequencies():
    # dims 1, 2, 1 so weights are 1/6, 4/6, 1/6
    counts = Counter(sp.draw("plancherel", 3, 2, i) for i in range(6000))
    assert abs(counts[(3,)] / 6000 - 1 / 6) < 0.03
    assert abs(counts[(2, 1)] / 6000 - 4 / 6) < 0.03
    assert abs(counts[(1, 1, 1)] / 6000 - 1 / 6) < 0.03


def test_limit_shape_values():
    assert sp.PLANCHEREL_RUSSIAN(0) == pytest.approx(4 / math.pi)
    assert sp.PLANCHEREL_RUSSIAN(2) == 2
    assert sp.PLANCHEREL_RUSSIAN(-3) == 3
    assert sp.UNIFORM_RUSSIAN(0) == pytest.approx(math.log(2) / sp._B)
    assert sp.UNIFORM_RUSSIAN(50) == pytest.approx(50, abs=1e-9)
    assert sp.UNIFORM_RUSSIAN(-1) == sp.UNIFORM_RUSSIAN(1)


def test_russian_profile_matches_shape():
    lam = (3, 1)
    # far left and right the profile is |u|
    assert sp.russian_profile(lam, 5) == 5
    assert sp.russian_profile(lam, -5) == -5 + 2 * len(lam)
    # at u = 0 the profile counts rows with lam_i - i >= 0
    assert sp.russian_profile(lam, 0) == 2 * sp.descent_tail_count(lam, 0)


def test_rescaled_distance_shrinks():
    d_small = sp.rescaled_sup_distance(sp.draw("plancherel", 100, 1, 0), sp.PLANCHEREL_RUSSIAN)
    d_big = sp.rescaled_sup_distance(sp.draw("plancherel", 10000, 1, 0), sp.PLANCHEREL_RUSSIAN)
    assert d_big < d_small
    assert d_big < 0.2


@given(st.integers(1, 60), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_beta_flexible_monotone_in_beta(n, idx):
    lam = sp.draw("uniform", n, 99, idx)
    if sp.beta_sum_flexible(lam, 0.5):
        assert sp.beta_sum_flexible(lam, 1.0)
    if sp.beta_sum_flexible(lam, 1.0):
        assert sp.beta_sum_flexible(lam, 2.0)


def test_beta_flexible_anchors():
    assert sp.beta_sum_flexible((1,), 1.0)
    assert sp.beta_sum_flexible((2, 1), 1.0)
    # single column of height 2: no singleton column
    assert not sp.beta_sum_flexible((1, 1), 1.0)
    # columns 1, 5: the 5 needs beta * 6 >= 5
    assert not sp.beta_sum_flexible((2, 1, 1, 1, 1), 0.5)
    assert sp.beta_sum_flexible((2, 1, 1, 1, 1), 1.0)


@given(st.integers(1, 40), st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_descent_tail_decreasing(n, idx):
    lam = sp.draw("plancherel", n, 5, idx)
    prev = None
    for w in range(-3, 6):
        c = sp.descent_tail_count(lam, w)
        if prev is not None:
            assert c <= prev
        prev = c


def test_singleton_columns():
    assert sp.singleton_columns(()) == 0
    assert sp.singleton_columns((4,)) == 4
    assert sp.singleton_columns((4, 4)) == 0
    assert sp.singleton_columns((5, 2, 1)) == 3


def test_wilson_interval():
    lo, hi = sp.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo <= hi <= 1.0
    assert sp.wilson_interval(0, 0) == (0.0, 1.0)
    lo2, hi2 = sp.wilson_interval(500, 1000)
    assert hi2 - lo2 < hi - lo


def test_sample_report_fields():
    rep = sp.sample_report("plancherel", 9, 50, 13)
    assert rep.measure == "plancherel"
    assert rep.n == 9 and rep.samples == 50 and rep.seed == 13
    assert sum(rep.stats["frequencies"].values()) == 50
    assert len(rep.stats["sup_distances"]) == 50
    assert rep.stats["median_distance"] >= 0
    # each measure's draws are measured against its own limit curve
    for measure, shape in (("plancherel", sp.PLANCHEREL_RUSSIAN),
                           ("uniform", sp.UNIFORM_RUSSIAN)):
        rep = sp.sample_report(measure, 20, 5, 13)
        assert rep.stats["sup_distances"] == [
            sp.rescaled_sup_distance(sp.draw(measure, 20, 13, i), shape) for i in range(5)]


def test_experiment_flexibility_report():
    rep = sp.experiment_flexibility(200, 1.0, 100, 3)
    s = rep.stats
    assert 0 <= s["wilson_low"] <= s["pass_rate"] <= s["wilson_high"] <= 1
    assert s["beta"] == 1.0


def test_experiment_coverage_report():
    rep = sp.experiment_coverage(6, "plancherel", 40, 8)
    assert rep.n == pt.triangular(6)
    assert rep.stats["split_successes"] <= 40
    # the prover tries the dealt grid, so it proves every split success
    assert rep.stats["split_rate"] <= rep.stats["prover_rate"] == 1.0


def test_singleton_column_stats():
    rep = sp.singleton_column_stats(100, 60, 4)
    vals = rep.stats["scaled_values"]
    assert len(vals) == 60
    assert vals == sorted(vals)
    assert rep.stats["median"] == vals[30]

"""End-to-end checks for the whole workbench.

Slow cases lean on a local certificate cache when one is present
(KRONWORK_CACHE, default /root/cache); without it they recompute.
"""

import json
import math
import os
import random
import time

import pytest
from scipy import stats as scistats

from kronwork import characters as ch
from kronwork import decomp
from kronwork import partitions as pt
from kronwork import samplers as sp
from kronwork.certificates import base_oracle, combine_h, combine_vvh
from kronwork.prover import (
    Budget,
    prove_in_staircase_square,
    prove_rectangle_cube,
    verify_saxl,
)
from kronwork.verify import verify_certificate

SEED = 20260826
CACHE = os.environ.get("KRONWORK_CACHE", "/root/cache")


def saxl_cache(m):
    return os.path.join(CACHE, "saxl%d" % m)


def oracle_positive(goal):
    return ch.multi_kronecker(goal) > 0


# 1. every partition of m(m+1)/2 proved inside the staircase square


@pytest.mark.parametrize("m", range(1, 7))
def test_saxl_complete_small(m):
    start = time.time()
    rep = verify_saxl(m)
    assert rep["complete"]
    assert rep["proved"] == rep["total"] == pt.partition_count(pt.triangular(m))
    assert time.time() - start < 60


@pytest.mark.parametrize("m", (7, 8, 9))
def test_saxl_complete_large(m):
    start = time.time()
    rep = verify_saxl(m, cache_dir=saxl_cache(m))
    assert rep["complete"]
    assert rep["proved"] == rep["total"]
    assert time.time() - start < 3600


def test_saxl_square_certificate_proves_its_goal():
    # the square (6^6) at m = 8, proved here and verified
    square = pt.rectangle(6, 6)
    rho = pt.staircase(8)
    cert = prove_in_staircase_square(8, square)
    assert cert is not None and cert.goal == (square, rho, rho)
    ok, msg = verify_certificate(cert)
    assert ok, msg


# 2. tensor square coverage exceptions


def test_exception_set():
    start = time.time()
    for n in range(2, 11):
        scan = ch.saxl_exception_scan(n)
        covering = [lam for lam, missing in scan.items() if not missing]
        if n in (2, 4, 9):
            assert not covering
        else:
            assert covering
    assert time.time() - start < 600


# 3. certificates never overstate the oracle at small sizes


def walk(cert):
    yield cert
    for c in cert.children:
        yield from walk(c)


def test_small_goal_soundness():
    certs = []
    for m in (2, 3, 4):
        for nu in pt.partitions_of(pt.triangular(m)):
            cert = prove_in_staircase_square(m, nu)
            assert cert is not None
            certs.append(cert)
    checked = 0
    for cert in certs:
        for node in walk(cert):
            if pt.size(node.goal[0]) <= 8:
                assert oracle_positive(node.goal), node.goal
                checked += 1
    assert checked >= 10


# 4. comparability with the staircase forces positivity at m=4


def test_dominance_cross_check():
    rho = pt.staircase(4)
    seen = 0
    for nu in pt.partitions_of(10):
        if pt.comparable(nu, rho):
            assert ch.kronecker(nu, rho, rho) > 0
            seen += 1
    assert seen > 1


# 5. horizontal combination preserves positivity; all-vertical does not


def positive_triples(n):
    parts = list(pt.partitions_of(n))
    out = []
    for a in parts:
        for b in parts:
            for c in parts:
                if ch.kronecker(a, b, c) > 0:
                    out.append((a, b, c))
    return out


def test_hsum_semigroup_validation():
    pool = {n: positive_triples(n) for n in range(1, 6)}
    rng = random.Random(SEED)
    for _ in range(1000):
        g1 = rng.choice(pool[rng.randint(1, 5)])
        g2 = rng.choice(pool[rng.randint(1, 5)])
        cert = combine_h(base_oracle(g1), base_oracle(g2))
        ok, msg = verify_certificate(cert)
        assert ok, msg
        assert oracle_positive(cert.goal)


def test_all_vertical_combination_rejected():
    # two sign-character leaves would "prove" g((1,1),(1,1),(1,1)), which is 0
    leaf = base_oracle(((1,), (1,), (1,)))
    assert ch.kronecker((1, 1), (1, 1), (1, 1)) == 0
    with pytest.raises(ValueError):
        combine_vvh(leaf, leaf, (0, 1, 2))


# 6. staircase identity suites


def test_stairgrid_identity():
    for n in range(1, 101):
        for k in range(1, 9):
            d = decomp.stairgrid(n, k)
            assert d.replay() == pt.staircase(n)


def test_layer_identity():
    for m in range(2, 101):
        for k in range(2, 9):
            for i in range(1, k):
                d = decomp.layer_decomposition(m, k, i)
                assert d.replay() == pt.staircase(m)
                assert len(d.flakes) == k * k - i * i


def test_smooth_layers_are_smooth():
    # returned smooth decompositions have flake sides within 1; some
    # parameter choices admit no smooth route and raise instead
    returned = 0
    for m in range(2, 101):
        for k in range(2, 9):
            for i in range(1, k // 2 + 1):
                try:
                    d = decomp.layer_decomposition(m, k, i, smooth=True)
                except decomp.SmoothingError:
                    continue
                flakes = d.flakes
                assert max(flakes) - min(flakes) <= 1
                assert d.replay() == pt.staircase(m)
                returned += 1
    assert returned > 500
    d = decomp.layer_decomposition(20, 4, 2, smooth=True)
    assert max(d.flakes) - min(d.flakes) <= 1


def test_caret_identity():
    for k in range(1, 51):
        assert decomp.caret_decompose(k).replay() == pt.caret(k)


# 7. blockwise distance closed form vs breadth-first search


def bfs_distances(source, universe):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for lam in frontier:
            for mu in pt.move_neighbors(lam):
                if mu not in dist:
                    dist[mu] = dist[lam] + 1
                    nxt.append(mu)
        frontier = nxt
    assert set(dist) == universe
    return dist


def test_distance_matches_bfs():
    for n in range(1, 10):
        parts = set(pt.partitions_of(n))
        for lam in parts:
            dist = bfs_distances(lam, parts)
            for mu in parts:
                assert pt.blockwise_distance(lam, mu) == dist[mu]


def test_distance_subadditive():
    rng = random.Random(SEED)
    shapes = [pt.partitions_of(n) for n in range(21)]
    for _ in range(10000):
        n1 = rng.randint(1, 20)
        n2 = rng.randint(1, 20)
        a, b = (rng.choice(shapes[n1]) for _ in range(2))
        c, d = (rng.choice(shapes[n2]) for _ in range(2))
        lhs = pt.blockwise_distance(pt.hsum(a, c), pt.hsum(b, d))
        assert lhs <= pt.blockwise_distance(a, b) + pt.blockwise_distance(c, d)


# 8. one-box moves describe the permutation module support


def test_pieri_cross_check():
    for n in range(1, 9):
        for lam in pt.partitions_of(n):
            closed = frozenset((lam,)) | frozenset(pt.move_neighbors(lam))
            assert closed == ch.permutation_module_support(lam)


# 9. sampler distributions


@pytest.mark.parametrize("measure", ("uniform", "plancherel"))
@pytest.mark.parametrize("n", range(2, 7))
def test_sampler_chi_square(measure, n):
    parts = sorted(pt.partitions_of(n))
    if measure == "uniform":
        expect = {lam: 1 / len(parts) for lam in parts}
    else:
        fact = math.factorial(n)
        expect = {lam: ch.dimension(lam) ** 2 / fact for lam in parts}
    draws = 20000
    counts = {lam: 0 for lam in parts}
    for i in range(draws):
        counts[sp.draw(measure, n, SEED, i)] += 1
    if measure == "plancherel" and n == 4:
        probs = [expect[lam] for lam in parts]
        assert sorted(round(p * 24) for p in probs) == [1, 1, 4, 9, 9]
    _, pval = scistats.chisquare(
        [counts[lam] for lam in parts], [expect[lam] * draws for lam in parts]
    )
    assert pval > 1e-3


def test_plancherel_top_row_scaling():
    n = 10**4
    hits = 0
    for i in range(100):
        lam = sp.draw("plancherel", n, SEED, i)
        if 1.8 <= lam[0] / math.sqrt(n) <= 2.2:
            hits += 1
    assert hits >= 95


def test_uniform_singleton_median():
    rep = sp.singleton_column_stats(10**4, 1000, SEED, measure="uniform")
    assert 0.5 <= rep.stats["median"] <= 0.9


# 10. constructive split coverage improves with scale


def test_coverage_trend():
    start = time.time()
    rates = []
    for m in (8, 12, 16, 20):
        rep = sp.experiment_coverage(m, "plancherel", 200, SEED)
        rates.append(rep.stats["split_rate"])
    assert rates[-1] >= 0.5
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.05
    assert time.time() - start < 1200


# 11. sum flexibility at beta = 1


def test_flexibility_rate():
    rep = sp.experiment_flexibility(10**4, 1.0, 500, SEED)
    assert rep.stats["pass_rate"] >= 0.9


# 12. rectangles inside staircase tensor cubes


def test_rectangle_cube_certificates():
    for m in range(1, 9):
        n = pt.triangular(m)
        for a in range(1, n + 1):
            if n % a:
                continue
            cert = prove_rectangle_cube(a, n // a)
            ok, msg = verify_certificate(cert)
            assert ok, msg


def test_rectangle_fourth_power_small():
    for m in range(1, 4):
        n = pt.triangular(m)
        for a in range(1, n + 1):
            if n % a:
                continue
            rect = pt.rectangle(a, n // a)
            assert ch.multi_kronecker([rect] * 4) > 0


# 13. fourth power pipeline at sampling scale


@pytest.mark.parametrize("n", (55, 105, 210))
def test_pipeline_batches(n):
    start = time.time()
    ratios = []
    for i in range(50):
        nu = sp.draw("plancherel", n, SEED, i)
        out = decomp.fourth_power_pipeline(nu)
        ok, msg = verify_certificate(out["certificate"])
        assert ok, msg
        trace = out["trace"]
        assert trace[0] == out["nu_hat"] and trace[-1] == nu
        for a, b in zip(trace, trace[1:]):
            assert pt.is_single_step(a, b)
        assert out["d"] == len(trace) - 1
        ratios.append(out["ratio"])
    assert all(r >= 0 for r in ratios)
    print("n=%d mean d/sqrt(2n) = %.3f" % (n, sum(ratios) / len(ratios)))
    assert time.time() - start < 600


def test_pipeline_membership_small():
    # at every small size, triangular or with a leftover row, replay the
    # move trace through the one-box expansion and confirm nu really sits
    # d steps from nu_hat
    for n in range(1, 13):
        xi = pt.irregular_staircase(n)
        for nu in pt.partitions_of(n):
            out = decomp.fourth_power_pipeline(nu)
            assert out["certificate"].goal[1:] == (xi, xi), nu
            assert verify_certificate(out["certificate"])[0], nu
            reach = {out["nu_hat"]}
            for _ in range(out["d"]):
                reach = set().union(*(ch.permutation_module_support(s) for s in reach))
            assert nu in reach
            assert oracle_positive(out["certificate"].goal)

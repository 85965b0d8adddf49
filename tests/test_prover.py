import os

import pytest

from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork.prover import (
    Budget,
    grid_sizes,
    layer_sides,
    prove_in_staircase_square,
    prove_rectangle_cube,
    verify_saxl,
)
from kronwork.certificates import Certificate
from kronwork.verify import verify_certificate


def test_rejects_wrong_size():
    with pytest.raises(ValueError):
        prove_in_staircase_square(3, (5,))


def test_small_staircase_squares_complete_and_sound():
    for m in range(1, 4):
        rho = pt.staircase(m)
        for nu in pt.partitions_of(pt.triangular(m)):
            cert = prove_in_staircase_square(m, nu)
            assert cert is not None, nu
            assert cert.goal == (nu, rho, rho)
            ok, msg = verify_certificate(cert)
            assert ok, msg
            # independent positivity check at oracle scale
            assert ch.kronecker(nu, rho, rho) > 0


def test_certificate_goals_are_oracle_positive_everywhere():
    """Every subgoal of size <= 8 in emitted certificates is positive."""

    def walk(cert):
        if pt.size(cert.goal[0]) <= 8 and len(cert.goal) == 3:
            assert ch.multi_kronecker(cert.goal) > 0
        for c in cert.children:
            walk(c)

    for m in (2, 3):
        for nu in pt.partitions_of(pt.triangular(m)):
            walk(prove_in_staircase_square(m, nu))


def test_grid_sizes_partition_the_staircase():
    for m in range(2, 30):
        sides = [s for row in grid_sizes(m) for s in row]
        assert sum(pt.triangular(s) for s in sides) == pt.triangular(m)


def test_layer_sides_partition_the_staircase():
    for m in range(2, 40):
        for k in (2, 3, 4, 5):
            for part in (1, 2):
                step = layer_sides(m, k, part)
                if step is None:
                    continue
                n, y, zs = step
                total = pt.triangular(n) + (k - 1) * pt.triangular(y)
                total += sum(pt.triangular(z) for z in zs)
                assert total == pt.triangular(m), (m, k, part)
            assert any(layer_sides(m, k, p) is not None for p in (1, 2))


def test_budget_stops_search():
    cert = prove_in_staircase_square(5, (9, 3, 1, 1, 1), budget=Budget(0))
    # with no budget only the cheap direct leaves are available
    if cert is not None:
        assert verify_certificate(cert)[0]


def test_verify_saxl_m4():
    report = verify_saxl(4)
    assert report["complete"]
    assert report["proved"] == report["total"] == pt.partition_count(10)


def test_hard_wide_and_tall_targets_at_m8():
    for nu in ((14, 14, 2, 1, 1, 1, 1, 1, 1), (6, 6, 6, 6, 6, 6)):
        cert = prove_in_staircase_square(8, nu)
        assert cert is not None
        assert verify_certificate(cert)[0]


def test_square_in_cube_uses_symmetric_cube_leaf():
    cert = prove_in_staircase_square(8, (6,) * 6)
    assert "SymmetricCube" in cert.leaf_kinds()


def test_rectangle_cube_small():
    cert = prove_rectangle_cube(2, 3)
    assert cert is not None
    assert verify_certificate(cert)[0]
    with pytest.raises(ValueError):
        prove_rectangle_cube(2, 4)


def test_rectangle_cube_four_fold_positive_small():
    # ab = m(m+1)/2 for m <= 3 stays at oracle scale for the 4-fold check
    for a, b in ((1, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 6), (6, 1)):
        rect = pt.rectangle(a, b)
        m, rest = pt.staircase_fit(a * b)
        assert rest == 0
        rho = pt.staircase(m)
        assert ch.multi_kronecker((rect, rho, rho, rho)) > 0


def _clobber_cache(cache, m, nu):
    """Overwrite every m cache file with the certificate for nu."""
    text = prove_in_staircase_square(m, nu).to_json()
    for name in os.listdir(cache):
        with open(os.path.join(cache, name), "w") as fh:
            fh.write(text)


def _cached_goals(cache):
    goals = {}
    for name in os.listdir(cache):
        with open(os.path.join(cache, name)) as fh:
            goals[name] = Certificate.from_json(fh.read()).goal
    return goals


def test_verify_saxl_reproves_foreign_cache_entries(tmp_path):
    cache = str(tmp_path / "m4")
    first = verify_saxl(4, cache_dir=cache)
    goals = _cached_goals(cache)
    _clobber_cache(cache, 4, pt.staircase(4))
    assert verify_saxl(4, cache_dir=cache) == first
    assert _cached_goals(cache) == goals


def test_verify_saxl_counts_only_matching_goals(tmp_path):
    # with neither search nor oracle some m=4 targets have no proof; a cache
    # whose every entry proves the staircase itself must not hide that
    weak = dict(ceiling=0, budget_nodes=0)
    cold = verify_saxl(4, cache_dir=str(tmp_path / "cold"), **weak)
    assert not cold["complete"]
    cache = str(tmp_path / "clobbered")
    verify_saxl(4, cache_dir=cache)
    _clobber_cache(cache, 4, pt.staircase(4))
    assert verify_saxl(4, cache_dir=cache, **weak) == cold


def test_verify_saxl_reproves_truncated_cache_entries(tmp_path):
    cache = str(tmp_path / "m3")
    first = verify_saxl(3, cache_dir=cache)
    for name in os.listdir(cache):
        path = os.path.join(cache, name)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
    assert verify_saxl(3, cache_dir=cache) == first

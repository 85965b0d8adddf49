import os
from concurrent import futures

import pytest

from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork import prover
from kronwork import samplers
from kronwork.prover import (
    Budget,
    _complement,
    _coord_splits,
    _h_splits,
    _v_splits,
    prove_in_staircase_square,
    prove_rectangle_cube,
    verify_saxl,
)
from kronwork.certificates import (
    Certificate,
    base_dominance,
    combine_h,
    combine_vvh,
    fold_certs,
)
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
        sides = pt.recipe_sides(pt.stair_grid(m, 2))
        # rows then columns: the pack search fills the pieces in this order
        assert sides == [m // 2, (m + 1) // 2, (m - 1) // 2, m // 2]
        assert sum(pt.triangular(s) for s in sides) == pt.triangular(m)


def test_layer_sides_partition_the_staircase():
    for m in range(2, 40):
        for k in (2, 3, 4, 5):
            for part in (1, 2):
                step = pt.layer_sides(m, k, part)
                if step is None:
                    continue
                n, y, zs = step
                total = pt.triangular(n) + (k - 1) * pt.triangular(y)
                total += sum(pt.triangular(z) for z in zs)
                assert total == pt.triangular(m), (m, k, part)
            assert any(pt.layer_sides(m, k, p) is not None for p in (1, 2))


# The hand-written joins the grid and layer searches used before they folded
# recipes, kept as reference code: certs[b] proves piece b, None when empty.


def _grid_assemble(certs, flat):
    row_certs = []
    for j in (0, 1):
        picked = [certs[2 * j + i] for i in (0, 1) if flat[2 * j + i] > 0]
        c = picked[0]
        for other in picked[1:]:
            c = combine_h(c, other)
        row_certs.append(c)
    if len(row_certs) == 1:
        return row_certs[0]
    return combine_vvh(row_certs[0], row_certs[1], (1, 2))


def _layer_assemble(certs, flat, k):
    cert = certs[0]
    ys = [c for c, s in zip(certs[1:k], flat[1:k]) if s > 0]
    if ys:
        stack = ys[0]
        for other in ys[1:]:
            stack = combine_vvh(stack, other, (1, 2))
        cert = combine_h(cert, stack)
    zc = [c for c, s in zip(certs[k:], flat[k:]) if s > 0]
    if zc:
        bottom = zc[0]
        for other in zc[1:]:
            bottom = combine_h(bottom, other)
        cert = combine_vvh(cert, bottom, (1, 2))
    return cert


def test_folded_recipes_match_the_hand_written_joins():
    def same(recipe, reference):
        # every other piece proves the one-row target, so that two pieces
        # of one side that trade places give another certificate
        flat = pt.recipe_sides(recipe)
        certs = [base_dominance(s, (pt.triangular(s),) if b % 2 else pt.staircase(s))
                 if s else None for b, s in enumerate(flat)]
        got = fold_certs(recipe, certs)
        assert got.goal[1:] == (pt.staircase(m),) * 2
        assert got.to_json() == reference(certs, flat).to_json()

    layers = 0
    for m in range(2, 41):
        same(pt.stair_grid(m, 2), _grid_assemble)
        for k in (2, 3, 4):
            for part in (1, 2):
                step = pt.layer_sides(m, k, part)
                if step is None or step[0] < 1:
                    continue
                x, y, zs = step
                recipe = pt.layer_step(("stair", x), k, y, zs)
                assert pt.recipe_sides(recipe) == [x] + [y] * (k - 1) + zs
                same(recipe, lambda certs, flat: _layer_assemble(certs, flat, k))
                layers += 1
    assert layers > 100


def test_layer_search_never_repeats_the_grid():
    # the k = 2 layer split is the grid split, in order for even m and with
    # its two rows swapped for odd m: packing it reran a failed search
    assert list(prover._split_recipes(1)) == []
    for m in range(2, 41):
        grid, *layers = prover._split_recipes(m)
        assert grid == pt.stair_grid(m, 2)
        assert layers, m
        grid = pt.recipe_sides(grid)
        for recipe in layers:
            sides = pt.recipe_sides(recipe)
            assert sides not in (grid, grid[2:] + grid[:2]), (m, sides)


def test_small_targets_need_neither_tree_nor_chunk_search(monkeypatch):
    # up to m = 4 the leaves, the pack searches and the oracle prove every
    # target, so the chunk search that ends the cascade never runs
    def fail(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(prover, "_chunk_search", fail)
    for m in range(1, 5):
        for nu in pt.partitions_of(pt.triangular(m)):
            cert = prove_in_staircase_square(m, nu)
            assert cert is not None and verify_certificate(cert)[0], nu


@pytest.mark.parametrize("i", [6, 27])
def test_dealt_grid_proves_plancherel_draws_the_pack_search_misses(i):
    # the pack search spends the whole default budget on these m = 20 draws
    # without a proof; a dealt grid proves them (draw 27 only the cyclic one)
    nu = samplers.draw("plancherel", 210, 20260826, i)
    cert = prove_in_staircase_square(20, nu)
    assert cert is not None
    ok, msg = verify_certificate(cert)
    assert ok, msg


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
    # the square (6^6) inside the tensor cube of rho_8: the rectangle step
    # proves its largest block, (4^5), by a (mu; mu, mu, mu) leaf
    cert = prove_rectangle_cube(6, 6)
    assert cert.goal == ((6,) * 6,) + (pt.staircase(8),) * 3
    ok, msg = verify_certificate(cert)
    assert ok, msg
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


def test_verify_saxl_runs_the_pool_without_a_cache(monkeypatch):
    # with neither search nor oracle some m=4 targets fail, so the report
    # also shows that the pool's results are counted in target order
    pools = []

    class Spy(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Spy)
    weak = dict(ceiling=0, budget_nodes=0)
    serial = verify_saxl(4, **weak)
    assert not serial["complete"] and serial["proved"] > 0
    assert pools == []
    assert verify_saxl(4, threads=2, **weak) == serial
    assert pools == [(2,)]


def test_verify_saxl_proves_one_chunk_of_misses_without_a_pool(monkeypatch):
    # the 11 targets of m = 3 fill less than one chunk of a pool worker
    pools = []
    monkeypatch.setattr(futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: pools.append(args))
    assert verify_saxl(3, threads=2) == verify_saxl(3)
    assert pools == []


def test_verify_saxl_creates_the_cache_directory_once(tmp_path, monkeypatch):
    made = []
    makedirs = os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda *a, **kw: made.append(a) or makedirs(*a, **kw))
    cache = str(tmp_path / "m3")
    assert verify_saxl(3, cache_dir=cache)["complete"]
    assert made == [(cache,)]
    assert sorted(os.listdir(cache)) == sorted(
        os.path.basename(prover.cache_path(cache, 3, nu)) for nu in pt.partitions_of(6))


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


@pytest.mark.parametrize("text", [
    '{"kind": "Hook", "goal": [6], "children": []}',
    "[" * 5000 + "]" * 5000,
], ids=["int-goal", "deep-nesting"])
def test_verify_saxl_reproves_undecodable_cache_entries(tmp_path, text):
    cache = str(tmp_path / "m3")
    first = verify_saxl(3, cache_dir=cache)
    for name in os.listdir(cache):
        with open(os.path.join(cache, name), "w") as fh:
            fh.write(text)
    assert verify_saxl(3, cache_dir=cache) == first


def test_verify_saxl_reproves_invalid_cache_entries(tmp_path):
    # right goal, but the Hook leaf's m is a string: used to abort the run
    cache = str(tmp_path / "m3")
    first = verify_saxl(3, cache_dir=cache)
    rho = pt.staircase(3)
    path = os.path.join(cache, "m3_4-1-1.json")
    with open(path, "w") as fh:
        fh.write(Certificate("Hook", ((4, 1, 1), rho, rho), meta={"m": "3"}).to_json())
    assert verify_saxl(3, cache_dir=cache) == first
    with open(path) as fh:
        assert verify_certificate(Certificate.from_json(fh.read()))[0]


def test_verify_saxl_reproves_cache_entries_with_an_arity_mismatch(tmp_path):
    # right goal, but a 4-ary Conjugate sits over a 3-ary leaf: used to
    # raise IndexError out of the verifier and abort the run
    cache = str(tmp_path / "m3")
    first = verify_saxl(3, cache_dir=cache)
    rho = pt.staircase(3)
    goal = ((4, 1, 1), rho, rho)
    leaf = Certificate("OracleLeaf", goal)
    conj = Certificate("Conjugate", goal + (rho,), (leaf,), {"coords": [2, 3]})
    root = Certificate("Conjugate", goal, (conj,), {"coords": []})
    assert "arity" in verify_certificate(root)[1]
    path = os.path.join(cache, "m3_4-1-1.json")
    with open(path, "w") as fh:
        fh.write(root.to_json())
    assert verify_saxl(3, cache_dir=cache) == first
    with open(path) as fh:
        assert verify_certificate(Certificate.from_json(fh.read()))[0]


def _v_splits_by_subsets(p, s):
    """Reference for `_v_splits`: an exclude-first walk over single rows.
    Its set order is the order the searches try vertical splits in, so the
    certificates found depend on it."""
    out = set()
    rows = list(p)

    def rec(i, left, acc):
        if left == 0:
            out.add(tuple(acc))
            return
        if i == len(rows) or left < 0:
            return
        rec(i + 1, left, acc)
        if rows[i] <= left:
            acc.append(rows[i])
            rec(i + 1, left - rows[i], acc)
            acc.pop()

    rec(0, s, [])
    return [lam for lam in out]


def test_v_splits_match_the_subset_walk_in_order():
    for n in range(1, 13):
        for p in pt.partitions_of(n):
            for s in range(n + 1):
                assert _v_splits(p, s) == _v_splits_by_subsets(p, s), (p, s)


def _h_splits_by_brute_force(p, s):
    """Reference for `_h_splits`: every partition mu of s, in
    `partitions_of` order, that fits inside p row by row and leaves a
    partition whose first row is at most s."""
    out = []
    for mu in pt.partitions_of(s):
        if len(mu) > len(p) or any(b > a for a, b in zip(p, mu)):
            continue
        rest = [a - b for a, b in zip(p, mu + (0,) * len(p))]
        if all(a >= b for a, b in zip(rest, rest[1:])) and rest[0] <= s:
            out.append(mu)
    return out


def test_coord_splits_pair_each_piece_with_its_complement():
    # every complement is a partition of n - s: `_complement` no longer
    # checks, and the chunk search walks the splits as they come;
    # horizontal splits leave a remainder whose first row is at most s
    assert _h_splits((3,), 1) == []
    for n in range(1, 13):
        for p in pt.partitions_of(n):
            for s in range(1, n):
                for vertical, ref in ((True, _v_splits_by_subsets),
                                      (False, _h_splits_by_brute_force)):
                    want = [(q, _complement(p, q, vertical)) for q in ref(p, s)]
                    assert _coord_splits(p, s, vertical) == want, (p, s, vertical)
                    for _, c in want:
                        assert sum(c) == n - s, (p, s, vertical, c)
                        assert all(a >= b > 0 for a, b in zip(c, c[1:] + (1,))), (p, s, c)

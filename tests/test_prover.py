import os

import pytest

from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork import prover
from kronwork.prover import (
    _VERTICAL_PATTERNS,
    Budget,
    _complement,
    _coord_splits,
    _cube_pairs,
    _expand_factors,
    _h_splits,
    _v_splits,
    _walk_pairs,
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
    path = os.path.join(cache, "m3_4-1-1.json")
    with open(path, "w") as fh:
        fh.write(Certificate("Permute", goal, (conj,), {"perm": [0, 1, 2]}).to_json())
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


def test_coord_splits_pair_each_piece_with_its_complement():
    for n in range(1, 13):
        for p in pt.partitions_of(n):
            for s in range(1, n):
                for vertical, ref in ((True, _v_splits_by_subsets), (False, _h_splits)):
                    want = [(q, _complement(p, q, vertical)) for q in ref(p, s)]
                    assert _coord_splits(p, s, vertical) == want, (p, s, vertical)


def _walk_expand_factors(goal, s, vflags, p0, c0, leaves, need_square, budget, ceiling, memo):
    """Reference for the seeded 2-leaf step: the walk over every (p1, p2)
    pair that extends the split p0 | c0, one node each, every side
    evaluated left first."""
    for p1, c1 in _coord_splits(goal[1], s, vflags[1]):
        if c1 is None:
            continue
        for p2, c2 in _coord_splits(goal[2], s, vflags[2]):
            if c2 is None:
                continue
            if not budget.spend():
                return None
            left = (p0, p1, p2)
            right = (c0, c1, c2)
            vertical = tuple(c for c in range(3) if vflags[c])
            for lv in range(1, leaves):
                rv = leaves - lv
                needs = ((True, False), (False, True)) if need_square else ((False, False),)
                for nl, nr in needs:
                    cl = prover._tree(left, lv, nl, budget, ceiling, memo)
                    if cl is None:
                        continue
                    cr = prover._tree(right, rv, nr, budget, ceiling, memo)
                    if cr is None:
                        continue
                    cert = prover.combine_vvh(cl, cr, vertical)
                    assert cert.goal == goal
                    return cert
            if budget.exhausted:
                return None
    return None


def _staircase_goals(top):
    """(nu; rho_m, rho_m) and (nu'; rho_m, rho_m) for every nu, m <= top."""
    for m in range(1, top + 1):
        rho = pt.staircase(m)
        for nu in pt.partitions_of(pt.triangular(m)):
            yield (nu, rho, rho)
            if pt.conjugate(nu) != nu:
                yield (pt.conjugate(nu), rho, rho)


def _first_splits(goal):
    """(s, vflags, p0, c0) for every split of the target the tree tries."""
    n = pt.size(goal[0])
    for vertical in _VERTICAL_PATTERNS:
        vflags = [c in vertical for c in range(3)]
        for s in range(1, n):
            for p0, c0 in _coord_splits(goal[0], s, vflags[0]):
                if c0 is not None:
                    yield s, vflags, p0, c0


@pytest.mark.parametrize("leaves", [2, 3])
def test_seeded_tree_matches_the_full_walk(monkeypatch, leaves):
    # with no budget limit the cube pairs find what the walk over every
    # pair finds, also as the 2-leaf subsearch of a 3-leaf tree
    ceiling = ch.DEFAULT_ORACLE_CEILING
    for goal in _staircase_goals(5):
        new = prover._tree(goal, leaves, True, Budget(10**12), ceiling, {})
        with monkeypatch.context() as mp:
            mp.setattr(prover, "_expand_factors", _walk_expand_factors)
            old = prover._tree(goal, leaves, True, Budget(10**12), ceiling, {})
        assert (new and new.to_json()) == (old and old.to_json()), goal


def test_failing_cube_step_charges_the_walk(monkeypatch):
    # every leaf fails and costs nothing, so only the walk's pairs are
    # charged: one node for each valid (p1, p2)
    monkeypatch.setattr(prover, "_tree", lambda *args: None)
    ceiling = ch.DEFAULT_ORACLE_CEILING
    for goal in _staircase_goals(4):
        for s, vflags, p0, c0 in _first_splits(goal):
            spent = []
            for step in (_expand_factors, _walk_expand_factors):
                budget = Budget(10**9)
                assert step(goal, s, vflags, p0, c0, 2, True, budget, ceiling, {}) is None
                spent.append(10**9 - budget.nodes)
            assert spent[0] == spent[1], (goal, s, vflags, p0)


def _is_cube(triple):
    return triple[0] == triple[1] == triple[2] and pt.is_symmetric(triple[0])


def test_cube_pairs_are_the_walks_cube_pairs_under_any_budget():
    for goal in _staircase_goals(4):
        for s, vflags, p0, c0 in _first_splits(goal):
            walked = len(list(_walk_pairs(goal, s, vflags, p0, c0, Budget(10**9))))
            for nodes in range(walked + 2):
                budget = Budget(nodes)
                want = [
                    (left, right)
                    for left, right in _walk_pairs(goal, s, vflags, p0, c0, budget)
                    if _is_cube(left) or _is_cube(right)
                ]
                cubes = Budget(nodes)
                assert list(_cube_pairs(goal, s, vflags, p0, c0, cubes)) == want
                assert cubes.exhausted == budget.exhausted
                assert max(cubes.nodes, -1) == budget.nodes

import gc
import json
import os
import re
from concurrent import futures

import pytest

from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork import prover
from kronwork import samplers
from kronwork import verify
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
    base_oracle,
    combine_h,
    combine_vvh,
    fold_certs,
)
from kronwork.verify import verify_certificate
from log_reference import expand, expanded_bytes, inline_nodes, references


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


def test_pack_layouts_are_the_split_recipes_with_their_sides_and_sizes():
    assert prover._pack_layouts(1) == ()
    for m in range(2, 31):
        want = []
        for recipe in prover._split_recipes(m):
            sides = pt.recipe_sides(recipe)
            want.append((recipe, tuple(sides), tuple(pt.triangular(s) for s in sides)))
        assert prover._pack_layouts(m) == tuple(want), m


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


def test_a_target_the_cascade_fails_costs_one_chunk_search(monkeypatch):
    # (16,2,1^37) is one of the m = 10 targets no step proves; the chunk
    # search runs once, on the conjugate, and not again on nu itself
    goals = []
    search = prover._chunk_search
    monkeypatch.setattr(prover, "_chunk_search",
                        lambda goal, budget: goals.append(goal) or search(goal, budget))
    rho = pt.staircase(10)
    assert prove_in_staircase_square(10, (16, 2) + (1,) * 37) is None
    assert goals == [((39, 2) + (1,) * 14, rho, rho)]


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
    # a target dominance-comparable with rho_m still gets its leaf
    nu = pt.conjugate((20,) + (5,) * 7)
    cert = prove_in_staircase_square(10, nu, budget=Budget(0))
    assert cert.kind == "DominanceStaircase"
    assert cert.goal == (nu,) + (pt.staircase(10),) * 2
    assert verify_certificate(cert) == (True, "ok")


def test_proving_leaves_no_garbage_cycles():
    # each recursive walk of the search drops its name for itself when it
    # returns, so the sets it reaches, up to a budget's worth of keys, are
    # freed then, not at a full collection, which the long-lived nodes of
    # a saxl run make rarer; this target runs the pack and chunk searches
    gc.collect()
    gc.disable()
    try:
        assert prove_in_staircase_square(8, (9, 7, 6, 5, 2, 2, 2, 2, 1)) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def _cert_texts(m):
    return {nu: prove_in_staircase_square(m, nu).to_json()
            for nu in pt.partitions_of(pt.triangular(m))}


def _write_log(cache, m, lines):
    """A new cache directory whose log of m holds lines: bytes as they are,
    and each str, a certificate's JSON, as one line."""
    cache = str(cache)
    os.makedirs(cache)
    with open(prover.log_path(cache, m), "wb") as fh:
        fh.writelines(line if isinstance(line, bytes) else line.encode() + b"\n"
                      for line in lines)
    return cache


def _summary(m, from_log, fresh, rejected, shared):
    """The line that ends the stderr of `verify_saxl` over a cache."""
    return ("saxl m=%d cache: %d targets proved from the log, %d in this run; log "
            "lines rejected: %s; distinct sub-certificates verified from the log: %d"
            % (m, from_log, fresh, rejected, shared))


def _write_legacy_files(cache, m, texts):
    """The cache directory, made if need be, with texts[nu] in the file of
    each nu in the layout of earlier versions, m<m>_<rows joined by ->.json,
    which `verify_saxl` does not read."""
    cache = str(cache)
    os.makedirs(cache, exist_ok=True)
    for nu, text in texts.items():
        with open(os.path.join(cache, "m%d_%s.json" % (m, "-".join(map(str, nu)))), "w") as fh:
            fh.write(text)
    return cache


def _contents(cache):
    out = {}
    for name in os.listdir(cache):
        with open(os.path.join(cache, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _rerun(cache, m, **kw):
    """verify_saxl over cache, which must report as a run without one does,
    leave every file but the log as it was and only append to the log.
    Returns the goals of the appended lines, each of which verifies."""
    log = os.path.basename(prover.log_path(cache, m))
    before = _contents(cache)
    old = before.pop(log, b"")
    assert verify_saxl(m, cache_dir=cache, **kw) == verify_saxl(m, **kw)
    after = _contents(cache)
    new = after.pop(log, b"")
    assert after == before and new.startswith(old)
    # the first appended line may follow a newline that ends a cut line
    docs = expand(new.splitlines())[len(old.splitlines()):]
    certs = [Certificate.from_json(json.dumps(doc)) for doc in docs]
    assert all(verify_certificate(c)[0] for c in certs)
    return [c.goal for c in certs]


def _subtrees(lines):
    """The distinct non-root subtrees of the certificates in the log lines,
    as their JSON with references inlined."""
    seen = set()
    todo = [child for doc in expand(lines) for child in doc["children"]]
    while todo:
        node = todo.pop()
        seen.add(json.dumps(node))
        todo.extend(node["children"])
    return seen


def _distinct_subtrees(lines):
    """The number of distinct non-root subtrees in the log lines."""
    return len(_subtrees(lines))


def _goals(nus, m):
    rho = pt.staircase(m)
    return [(nu, rho, rho) for nu in nus]


def _fail_to_prove(monkeypatch, fail):
    """Make the saxl driver find no certificate for the targets in fail."""
    prove_into = prover._prove_into
    monkeypatch.setattr(prover, "_prove_into", lambda m, nu, budget_nodes: None
                        if nu in fail else prove_into(m, nu, budget_nodes))


def test_verify_saxl_runs_the_pool_without_a_cache(monkeypatch):
    # some m=4 targets fail, so the report also shows that the pool's
    # results are counted in target order; the pool is one of threads, so
    # that it runs the patched prover (the spawn pool is covered in
    # test_cli.py)
    pools = []

    class Spy(futures.ThreadPoolExecutor):
        def __init__(self, workers, mp_context=None):
            pools.append((workers,))
            super().__init__(workers)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Spy)
    targets = pt.partitions_of(10)
    fail = set(targets[1::3])
    _fail_to_prove(monkeypatch, fail)
    serial = verify_saxl(4)
    assert serial["failed"] == [pt.format_partition(nu) for nu in targets if nu in fail]
    assert pools == []
    assert verify_saxl(4, threads=2) == serial
    assert pools == [(2,)]


def test_verify_saxl_proves_one_chunk_of_misses_without_a_pool(monkeypatch):
    # the 11 targets of m = 3 fill less than one chunk of a pool worker
    pools = []
    monkeypatch.setattr(futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: pools.append(args))
    assert verify_saxl(3, threads=2) == verify_saxl(3)
    assert pools == []


def test_verify_saxl_creates_the_cache_directory_once(tmp_path, monkeypatch):
    legacy = _write_legacy_files(tmp_path / "legacy", 3, _cert_texts(3))
    files = _contents(legacy)
    made = []
    makedirs = os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda *a, **kw: made.append(a) or makedirs(*a, **kw))
    cache = str(tmp_path / "m3")
    assert verify_saxl(3, cache_dir=cache)["complete"]
    assert made == [(cache,)]
    assert os.listdir(cache) == ["m3.jsonl"]
    with open(prover.log_path(cache, 3)) as fh:
        assert len(fh.readlines()) == pt.partition_count(6)
    # a directory of per-target files is not read: its targets are proved
    # again into a new log, and the files are left as they were
    assert verify_saxl(3, cache_dir=legacy)["complete"]
    assert made == [(cache,), (legacy,)]
    after = _contents(legacy)
    with open(prover.log_path(cache, 3), "rb") as fh:
        assert after.pop("m3.jsonl") == fh.read()
    assert after == files


def test_verify_saxl_reproves_foreign_cache_entries(tmp_path):
    # every entry holds one certificate: that of the staircase, a target
    # whose own entry is then a hit (in the log, its later copies are
    # duplicates); that of the staircase of m = 3; or a valid one of
    # ((10); (10), (10)), whose first factor is a target
    texts = _cert_texts(4)
    stair = pt.staircase(4)
    trivial = Certificate("OracleLeaf", ((10,),) * 3)
    assert verify_certificate(trivial)[0]
    cases = [(texts[stair], [nu for nu in texts if nu != stair]),
             (_cert_texts(3)[pt.staircase(3)], list(texts)),
             (trivial.to_json(), list(texts))]
    for case, (text, want) in enumerate(cases):
        cache = _write_log(tmp_path / ("m4-%d" % case), 4, [text] * len(texts))
        assert _rerun(cache, 4) == _goals(want, 4), case
        assert _rerun(cache, 4) == []


def test_verify_saxl_counts_only_matching_goals(tmp_path, monkeypatch):
    # some m=4 targets have no proof; a cache whose every entry proves the
    # staircase itself must not hide that
    texts = _cert_texts(4)
    stair = pt.staircase(4)
    fail = {nu for nu in list(texts)[1::3] if nu != stair}
    _fail_to_prove(monkeypatch, fail)
    assert not verify_saxl(4)["complete"]
    cache = _write_log(tmp_path / "m4", 4, [texts[stair]] * len(texts))
    assert _rerun(cache, 4) == _goals([nu for nu in texts if nu not in fail and nu != stair], 4)


def test_verify_saxl_reproves_truncated_cache_entries(tmp_path):
    texts = _cert_texts(3)
    cut = {nu: text[: len(text) // 2] for nu, text in texts.items()}
    cache = _write_log(tmp_path / "m3", 3, cut.values())
    assert _rerun(cache, 3) == _goals(texts, 3)


@pytest.mark.parametrize("text", [
    '{"kind": "Hook", "goal": [6], "children": []}',
    "[" * 5000 + "]" * 5000,
], ids=["int-goal", "deep-nesting"])
def test_verify_saxl_reproves_undecodable_cache_entries(tmp_path, text):
    texts = _cert_texts(3)
    cache = _write_log(tmp_path / "m3", 3, [text] * len(texts))
    assert _rerun(cache, 3) == _goals(texts, 3)


def test_verify_saxl_reproves_invalid_cache_entries(tmp_path):
    # right goal, but the Hook leaf's m is a string: used to abort the run
    rho = pt.staircase(3)
    texts = _cert_texts(3)
    texts[(4, 1, 1)] = Certificate(
        "Hook", ((4, 1, 1), rho, rho), meta={"m": "3"}).to_json()
    cache = _write_log(tmp_path / "m3", 3, texts.values())
    assert _rerun(cache, 3) == _goals([(4, 1, 1)], 3)


def test_verify_saxl_reproves_cache_entries_with_an_arity_mismatch(tmp_path):
    # right goal, but a 4-ary Conjugate sits over a 3-ary leaf: used to
    # raise IndexError out of the verifier and abort the run
    rho = pt.staircase(3)
    goal = ((4, 1, 1), rho, rho)
    leaf = Certificate("OracleLeaf", goal)
    conj = Certificate("Conjugate", goal + (rho,), (leaf,), {"coords": [2, 3]})
    root = Certificate("Conjugate", goal, (conj,), {"coords": []})
    assert "arity" in verify_certificate(root)[1]
    texts = _cert_texts(3)
    texts[(4, 1, 1)] = root.to_json()
    cache = _write_log(tmp_path / "m3", 3, texts.values())
    assert _rerun(cache, 3) == [goal]


def test_verify_saxl_verifies_each_target_of_the_log_once(tmp_path, monkeypatch):
    # every line twice: the later copy of a proved target is skipped
    texts = _cert_texts(3)
    cache = _write_log(tmp_path / "m3", 3, list(texts.values()) * 2)
    seen = []
    verify = prover.verify_certificate
    monkeypatch.setattr(prover, "verify_certificate",
                        lambda cert, **kw: seen.append(cert.goal) or verify(cert, **kw))
    assert verify_saxl(3, cache_dir=cache)["complete"]
    assert seen == _goals(texts, 3)


def _cold_log(tmp_path, m):
    """The lines of the log of a cold run of m."""
    cache = str(tmp_path / "cold")
    assert verify_saxl(m, cache_dir=cache)["complete"]
    with open(prover.log_path(cache, m), "rb") as fh:
        return fh.read().splitlines(keepends=True)


def test_verify_saxl_resumes_a_log_cut_inside_a_line(tmp_path, capsys):
    # a killed run leaves the log cut inside a line, one whose nodes later
    # lines referred to: the rerun re-proves the targets of the lost lines,
    # starting on a fresh line after the cut one, which keeps its number,
    # so the log holds the same certificates again; a third run appends
    # nothing
    m, keep = 5, 28
    lines = _cold_log(tmp_path, m)
    assert any(ref[i][0] == keep + 1 for line in lines[keep + 1:]
               for ref, i in references(json.loads(line)))
    cut = b"".join(lines[:keep]) + lines[keep][:40]
    cache = _write_log(str(tmp_path / "m5"), m, [cut])
    capsys.readouterr()
    assert _rerun(cache, m) == _goals(pt.partitions_of(15)[keep:], m)
    with open(prover.log_path(cache, m), "rb") as fh:
        resumed = fh.read()
    assert resumed.startswith(cut + b"\n")
    assert expanded_bytes(resumed) == expanded_bytes(b"".join(lines))
    err = capsys.readouterr().err.splitlines()
    assert "line %d: unreadable" % (keep + 1) in err[0]
    assert err[-1] == _summary(m, keep, 176 - keep, "1 unreadable",
                               _distinct_subtrees(lines[:keep]))
    assert _rerun(cache, m) == []


def test_verify_saxl_appends_references_into_a_log_without_them(tmp_path):
    # a log written before references, missing every other target: the
    # rerun's lines refer back into the old lines and hold the certificates
    # a cold run finds
    m = 5
    texts = _cert_texts(m)
    old = list(texts)[::2]
    cache = _write_log(tmp_path / "m5", m, [texts[nu] for nu in old])
    new = [nu for nu in texts if nu not in old]
    assert _rerun(cache, m) == _goals(new, m)
    with open(prover.log_path(cache, m), "rb") as fh:
        lines = fh.read().splitlines()
    assert [json.dumps(doc) for doc in expand(lines)[len(old):]] == [texts[nu] for nu in new]
    assert any(ref[i][0] <= len(old) for line in lines[len(old):]
               for ref, i in references(json.loads(line)))


# Malformed references, each put in place of the first reference of the
# last line k that holds one, which names line r: f(k, r, lines) -> value
BAD_REFERENCES = {
    "int": lambda k, r, lines: 3,
    "string": lambda k, r, lines: "%d, 0" % r,
    "object": lambda k, r, lines: {"line": r, "index": 0},
    "empty": lambda k, r, lines: [],
    "short": lambda k, r, lines: [r],
    "long": lambda k, r, lines: [r, 0, 0],
    "true-line": lambda k, r, lines: [True, 0],
    "true-index": lambda k, r, lines: [r, True],
    "float-line": lambda k, r, lines: [float(r), 0],
    "float-index": lambda k, r, lines: [r, 0.0],
    "negative-line": lambda k, r, lines: [-r, 0],
    "negative-index": lambda k, r, lines: [r, -1],
    "huge-line": lambda k, r, lines: [10**30, 0],
    "huge-index": lambda k, r, lines: [r, 10**30],
    "forward": lambda k, r, lines: [k + 1, 0],
    "itself": lambda k, r, lines: [k, 0],
    # past line r's inline nodes comes its root
    "root": lambda k, r, lines: [r, len(inline_nodes(json.loads(lines[r - 1])))],
    "leaf-line": lambda k, r, lines: [
        next(n for n, line in enumerate(lines, 1) if not json.loads(line)["children"]), 0],
    "nested": lambda k, r, lines: [[r, 0], 0],
    "nested-alone": lambda k, r, lines: [[r, 0]],
}


@pytest.mark.parametrize("case", sorted(BAD_REFERENCES) + ["cut-line", "unreadable-line"])
def test_verify_saxl_reproves_a_line_with_a_malformed_reference(tmp_path, capsys, case):
    m = 5
    lines = _cold_log(tmp_path, m)
    k = max(n for n, line in enumerate(lines, 1) if references(json.loads(line)))
    doc = json.loads(lines[k - 1])
    holder, i = references(doc)[0]
    r = holder[i][0]
    if case in BAD_REFERENCES:
        holder[i] = BAD_REFERENCES[case](k, r, lines)
        lines[k - 1] = json.dumps(doc).encode() + b"\n"
    else:  # the reference is kept, and the line it names does not decode:
        # cut, as a resumed run leaves it, or not a certificate
        lines[r - 1] = lines[r - 1][:40] + b"\n" if case == "cut-line" else b"{}\n"
    cache = _write_log(str(tmp_path / "m5"), m, lines)
    capsys.readouterr()
    goals = _rerun(cache, m)
    assert _goals([pt.parse_partition(doc["goal"][0])], m)[0] in goals
    err = capsys.readouterr().err
    assert re.search(r"line %d: unreadable \(.+\)" % k, err), err


def test_verify_saxl_rejects_a_line_that_refers_into_an_invalid_line(tmp_path, capsys):
    # line r holds a staircase leaf with a wrong m, and line k refers to
    # that leaf: both are invalid, and their targets are proved again
    m = 5
    lines = _cold_log(tmp_path, m)
    docs = [json.loads(line) for line in lines]
    k, r, node = next(
        (k, ref[i][0], inline_nodes(docs[ref[i][0] - 1])[ref[i][1]])
        for k, doc in enumerate(docs, 1) for ref, i in references(doc)
        if inline_nodes(docs[ref[i][0] - 1])[ref[i][1]]["kind"] == "DominanceStaircase")
    node["meta"]["m"] += 1
    lines[r - 1] = json.dumps(docs[r - 1]).encode() + b"\n"
    cache = _write_log(str(tmp_path / "m5"), m, lines)
    capsys.readouterr()
    goals = _rerun(cache, m)
    assert {g[0] for g in goals} >= {pt.parse_partition(docs[n - 1]["goal"][0]) for n in (k, r)}
    err = capsys.readouterr().err
    for n in (r, k):
        assert re.search(r"line %d: invalid \(.*staircase of m" % n, err), err


def test_verify_saxl_neither_opens_nor_changes_a_legacy_file(tmp_path, monkeypatch, capsys):
    # valid files of the layout of earlier versions for every target, and a
    # log that proves every other one: no file is opened or changed, and
    # the targets missing from the log are proved in this run
    texts = _cert_texts(4)
    in_log = list(texts)[::2]
    cache = _write_legacy_files(_write_log(tmp_path / "m4", 4, [texts[nu] for nu in in_log]),
                                4, texts)
    opened = []
    monkeypatch.setattr(prover, "open", lambda path, *a: opened.append(path) or open(path, *a),
                        raising=False)
    missing = [nu for nu in texts if nu not in in_log]
    assert len(missing) == 21
    assert _rerun(cache, 4) == _goals(missing, 4)
    assert opened and not [p for p in opened if p.endswith(".json")]
    assert capsys.readouterr().err.splitlines()[-1] == _summary(
        4, 21, 21, "none", _distinct_subtrees(texts[nu] for nu in in_log))


def test_verify_saxl_reproves_only_a_log_line_that_is_not_utf8(tmp_path, capsys):
    # a byte that is not UTF-8 used to stop the line count, so every later
    # line was rejected as "not the next line" and re-proved on each rerun
    m = 4
    lines = _cold_log(tmp_path, m)
    lines[2] = b"\xff" + lines[2]
    cache = _write_log(str(tmp_path / "m4"), m, lines)
    capsys.readouterr()
    assert _rerun(cache, m) == _goals([pt.partitions_of(10)[2]], m)
    err = capsys.readouterr().err
    assert len(re.findall(r"line \d+: ", err)) == 1 and "line 3: unreadable (" in err
    assert _rerun(cache, m) == []


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


def test_h_splits_match_the_brute_force_in_decreasing_order():
    # the walk skips zero rows and turns back early: neither may lose a
    # split or change the order the chunk search meets them in
    for n in range(1, 15):
        for p in pt.partitions_of(n):
            for s in range(1, n):
                got = _h_splits(p, s)
                assert got == _h_splits_by_brute_force(p, s), (p, s)
                assert all(a > b for a, b in zip(got, got[1:])), (p, s)


# The chunk search as it was when it looked up the piece before a leaf-sized
# rest and walked the pairs in a generator, kept as reference code: the same
# pairs, oracle leaves and recursion.  `rests` gets the rest of each pair the
# walk charges a node for.


def _walk_pairs(goal, s, vflags, p0, c0, budget, rests):
    for p1, c1 in _coord_splits(goal[1], s, vflags[1]):
        for p2, c2 in _coord_splits(goal[2], s, vflags[2]):
            rests.append((c0, c1, c2))
            if not budget.spend():
                return
            yield (p0, p1, p2), (c0, c1, c2)


def _chunk_search_piece_first(goal, budget, rests):
    ceiling = ch.DEFAULT_ORACLE_CEILING
    memo = set()

    def rec(goal):
        n = pt.size(goal[0])
        if n <= ceiling:
            return prover._oracle_leaf(goal)
        if goal in memo:
            return None
        for vertical in prover._VERTICAL_PATTERNS:
            vflags = [c in vertical for c in range(3)]
            for t in range(min(ceiling, n - 1), 0, -1):
                for p0, c0 in _coord_splits(goal[0], t, vflags[0]):
                    for piece, rest in _walk_pairs(goal, t, vflags, p0, c0, budget, rests):
                        _, p1, p2 = piece
                        if p0 == (t,):
                            if p1 != p2:
                                continue
                        elif t > 1 and p0 == (1,) * t:
                            if p2 != pt.conjugate(p1):
                                continue
                        leaf = prover._oracle_leaf(piece)
                        if leaf is None:
                            continue
                        tail = rec(rest)
                        if tail is not None:
                            cert = combine_vvh(leaf, tail, vertical)
                            assert cert.goal == goal
                            return cert
                    if budget.exhausted:
                        return None
        memo.add(goal)
        return None

    return rec(goal)


class _NodeRecorder(Budget):
    """A Budget that opens a new list in `nodes_seen` at each node it is
    charged, to hold the oracle lookups made at that node."""

    def __init__(self, nodes, nodes_seen):
        super().__init__(nodes)
        self.nodes_seen = nodes_seen

    def spend(self, cost=1):
        self.nodes_seen.append([])
        return super().spend(cost)


def test_chunk_search_matches_the_piece_first_order(monkeypatch):
    goals = []
    search = prover._chunk_search

    def record(goal, budget):
        goals.append(goal)
        return search(goal, budget)

    monkeypatch.setattr(prover, "_chunk_search", record)
    for m in range(1, 7):
        for nu in pt.partitions_of(pt.triangular(m)):
            prove_in_staircase_square(m, nu)
    monkeypatch.setattr(prover, "_chunk_search", search)
    assert len(goals) > 50
    # and the three chunk searches of a cold m = 8 run that charge the most
    # nodes (43,494 to 49,750), where the second and third coordinates'
    # split lists, looked up once per pattern and size, are long
    rho = pt.staircase(8)
    goals += [(first, rho, rho) for first in ((12, 5, 4, 4) + (1,) * 11,
                                              (11, 7, 4, 2) + (1,) * 12,
                                              (12, 4, 4, 4) + (1,) * 12)]

    # the oracle lookups made at each node, while its pair is the latest
    pairs = []
    oracle = prover._cached_oracle

    def lookup(goal):
        if pairs:
            pairs[-1].append(goal)
        return oracle(goal)

    monkeypatch.setattr(prover, "_cached_oracle", lookup)

    def zero_rest_pieces(rests):
        """Lookups beyond the rest's own, over the pairs whose leaf-sized
        rest has a zero coefficient, and the number of those pairs.  Both
        searches charge a node for each pair of the reference's walk, in
        its order, so rests[i] is the rest of the pair of node i."""
        assert len(pairs) == len(rests)
        extra = zeros = 0
        for rest, looked in zip(rests, pairs):
            if pt.size(rest[0]) <= ch.DEFAULT_ORACLE_CEILING and oracle(rest) is None:
                zeros += 1
                extra += looked not in ([], [rest])
        pairs.clear()
        return extra, zeros

    skipped = wasted = 0
    for goal in goals:
        rests = []
        ref_budget = _NodeRecorder(60000, pairs)
        ref = _chunk_search_piece_first(goal, ref_budget, rests)
        wasted += zero_rest_pieces(rests)[0]
        budget = _NodeRecorder(60000, pairs)
        cert = prover._chunk_search(goal, budget)
        extra, zeros = zero_rest_pieces(rests)
        assert extra == 0, goal
        skipped += zeros
        assert (cert and cert.to_json()) == (ref and ref.to_json()), goal
        assert budget.nodes == ref_budget.nodes, goal
    # the reference looks up pieces whose rest already rules the pair out
    assert skipped > 0 and wasted > 0


def _triples(n):
    parts = pt.partitions_of(n)
    return ((a, b, c) for a in parts for b in parts for c in parts)


def test_dvir_bound_turns_away_only_zero_coefficients():
    # g(lam; mu, nu) != 0 needs len(lam) <= |mu & nu'| (Dvir, 1993)
    seen = away = 0
    for n in range(1, 10):
        for goal in _triples(n):
            seen += 1
            if prover._dvir_zero(goal):
                away += 1
                assert ch.multi_kronecker(goal) == 0, goal
    assert seen == 42858 and away > 0


def test_cached_oracle_gives_the_leaf_of_the_plain_oracle():
    for n in range(1, 7):
        for goal in _triples(n):
            assert prover._cached_oracle(goal) == base_oracle(goal), goal


def _first_repeated_subtree(docs):
    """(i, j, path) for the first certificate docs[j] holding, below its
    root, a subtree that also sits below the root of an earlier docs[i];
    path leads from docs[j] to that subtree."""
    first = {}
    for j, doc in enumerate(docs):
        todo = [(child, (k,)) for k, child in enumerate(doc["children"])]
        while todo:
            node, path = todo.pop()
            i = first.setdefault(json.dumps(node), j)
            if i < j:
                return i, j, path
            todo.extend((c, path + (k,)) for k, c in enumerate(node["children"]))
    raise AssertionError("no repeated subtree")


def test_verify_saxl_reproves_a_line_that_repeats_a_subtree_with_a_bad_leaf(
        tmp_path, capsys):
    # line 2 repeats a subtree of line 1 with the m of one staircase leaf
    # changed: a table or memo that trusted the subtree by its goal would
    # take line 2 for proved
    m = 5
    texts = _cert_texts(m)
    nus, docs = list(texts), [json.loads(text) for text in texts.values()]
    i, j, path = _first_repeated_subtree(docs)
    node = docs[j]
    for k in path:
        node = node["children"][k]
    while node["children"]:
        node = node["children"][0]
    assert node["kind"] == "DominanceStaircase"
    node["meta"]["m"] += 1
    cache = _write_log(tmp_path / "m5", m, [texts[nus[i]], json.dumps(docs[j])])
    capsys.readouterr()
    assert _rerun(cache, m) == _goals([nu for nu in nus if nu != nus[i]], m)
    err = capsys.readouterr().err.splitlines()
    assert "line 2: invalid" in err[0] and "staircase of m" in err[0]
    assert "; log lines rejected: 1 invalid; " in err[-1]


def test_verify_saxl_warm_rerun_verifies_each_distinct_subtree_once(tmp_path, capsys):
    # a cold m=6 run writes the log; a warm rerun over it, over its lines
    # with the references inlined, as a log from before references holds
    # them, or over those in reverse order, proves every target from it,
    # and the memo holds each distinct sub-certificate once, far fewer than
    # the log's nodes
    m = 6
    cache = str(tmp_path / "m6")
    cold = verify_saxl(m, cache_dir=cache)
    assert cold["complete"]
    with open(prover.log_path(cache, m), "rb") as fh:
        log = fh.read()
    lines = expanded_bytes(log).splitlines(keepends=True)
    assert len(lines) == cold["total"] == 792
    nodes = 0
    for line in lines:
        todo = [json.loads(line)]
        while todo:
            nodes += 1
            todo.extend(todo.pop()["children"])
    distinct = _distinct_subtrees(lines)
    assert distinct < nodes - len(lines)
    assert len(log) < len(b"".join(lines)) * 0.6
    inline = _write_log(str(tmp_path / "inline"), m, lines)
    backwards = _write_log(str(tmp_path / "backwards"), m, lines[::-1])
    for warm in (cache, inline, backwards):
        capsys.readouterr()
        assert _rerun(warm, m) == []
        assert capsys.readouterr().err.splitlines()[-1] == _summary(m, 792, 0, "none", distinct)


def test_verify_saxl_warm_read_parses_each_goal_string_once(tmp_path, monkeypatch):
    # below the roots, over the log as written and over its lines with the
    # references inlined; a root's strings go through a bounded cache
    m = 6
    lines = _cold_log(tmp_path, m)
    logs = {"refs": lines, "inline": expanded_bytes(b"".join(lines)).splitlines(keepends=True)}
    for name, log in logs.items():
        cache = _write_log(str(tmp_path / name), m, log)
        parsed = []
        parse = pt.parse_partition
        monkeypatch.setattr(pt, "parse_partition",
                            lambda text: parsed.append(text) or parse(text))
        assert verify_saxl(m, cache_dir=cache)["complete"]
        monkeypatch.undo()
        goals = {goal for doc in map(json.loads, log)
                 for node in inline_nodes(doc) for goal in node["goal"]}
        assert sorted(parsed) == sorted(goals)


def test_verify_saxl_encodes_nothing_without_a_cache(monkeypatch):
    encoded = []
    monkeypatch.setattr(Certificate, "to_json", lambda *args: encoded.append(args))
    assert verify_saxl(4)["complete"]
    assert encoded == []


# What the prover hands back for (5,2,1,1,1) at m = 4, which is not
# dominance-comparable with rho_4, and the error that stops the run: a
# dominance leaf with the right goal, or the valid leaf of another target.
BAD_CERTS = {
    "rule": (lambda rho: Certificate("DominanceStaircase", ((5, 2, 1, 1, 1), rho, rho),
                                     meta={"m": 4}),
             r"bad certificate for \(5, 2, 1, 1, 1\): .*not dominance-comparable"),
    "goal": (lambda rho: base_dominance(4, (4, 3, 2, 1)),
             r"the certificate for \(5, 2, 1, 1, 1\) proves \(\(4, 3, 2, 1\), "),
}


@pytest.mark.parametrize("bad", sorted(BAD_CERTS))
@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_verify_saxl_checks_each_fresh_certificate_before_writing_it(
        tmp_path, monkeypatch, cached, bad):
    # a fresh certificate that breaks a rule or proves another goal stops
    # the run with an error that names its target, with a cache or
    # without, and the log ends with the line before it
    m, targets, nu = 4, pt.partitions_of(10), (5, 2, 1, 1, 1)
    make, error = BAD_CERTS[bad]
    prove = prover.prove_in_staircase_square
    monkeypatch.setattr(prover, "prove_in_staircase_square", lambda m, target, budget=None: (
        make(pt.staircase(m)) if target == nu else prove(m, target, budget=budget)))
    cache = str(tmp_path / "m4") if cached else None
    with pytest.raises(AssertionError, match=error):
        verify_saxl(m, cache_dir=cache)
    if cached:
        with open(prover.log_path(cache, m), "rb") as fh:
            docs = expand(fh.read().splitlines())
        assert [Certificate.from_json(json.dumps(doc)).goal[0] for doc in docs] == list(
            targets[:targets.index(nu)])


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_verify_saxl_checks_the_certificates_of_the_pool_here(tmp_path, monkeypatch, cached):
    # the spawned workers only prove; this process verifies each
    # certificate they hand back, once, in target order
    seen = []
    check = prover.verify_certificate
    monkeypatch.setattr(prover, "verify_certificate",
                        lambda cert, **kw: seen.append(cert.goal[0]) or check(cert, **kw))
    cache = str(tmp_path / "m4") if cached else None
    assert verify_saxl(4, cache_dir=cache, threads=2)["complete"]
    assert seen == list(pt.partitions_of(10))


def test_cold_saxl_checks_each_distinct_sub_certificate_once(tmp_path, monkeypatch, capsys):
    # every non-root node the verifier checks in full, not from its memo,
    # is a distinct sub-certificate of the log written, checked once; a
    # rerun over the log cut after line k checks in full none of the nodes
    # it read again, writes the same lines, and its summary counts the
    # nodes of the read alone
    m, keep = 6, 300
    full = []
    walk = verify._verify

    def spy(cert, depth, seen, shapes):
        if depth and id(cert) not in seen:
            full.append(json.dumps(cert.to_dict()))
        return walk(cert, depth, seen, shapes)

    monkeypatch.setattr(verify, "_verify", spy)
    lines = _cold_log(tmp_path, m)
    assert len(full) == len(set(full)) and set(full) == _subtrees(lines)
    read = _subtrees(lines[:keep])
    assert 0 < len(read) < len(full)
    cache = _write_log(str(tmp_path / "cut"), m, lines[:keep])
    full.clear()
    capsys.readouterr()
    assert verify_saxl(m, cache_dir=cache)["complete"]
    with open(prover.log_path(cache, m), "rb") as fh:
        assert fh.read().splitlines(keepends=True) == lines
    assert set(full[:len(read)]) == read
    assert len(full) == len(set(full)) and set(full) == _subtrees(lines)
    assert capsys.readouterr().err.splitlines()[-1] == _summary(
        m, keep, 792 - keep, "none", len(read))

import random
import tracemalloc

import pytest

from kronwork import certificates as ct
from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork import verify as vf
from kronwork.verify import verify_certificate


def test_base_dominance_accepts_and_rejects():
    cert = ct.base_dominance(3, (3, 2, 1))
    assert cert is not None
    assert cert.goal == ((3, 2, 1), (3, 2, 1), (3, 2, 1))
    assert verify_certificate(cert)[0]
    assert ct.base_dominance(4, (5, 1, 1, 1, 1, 1)) is None


def test_base_hook():
    cert = ct.base_hook(3, (4, 1, 1))
    assert cert is not None and verify_certificate(cert)[0]
    assert ct.base_hook(3, (2, 2, 2)) is None


def test_generalized_dominance_needs_strict_rows():
    cert = ct.base_generalized_dominance((3, 2, 1), (4, 2))
    assert cert is not None and verify_certificate(cert)[0]
    assert ct.base_generalized_dominance((2, 2, 2), (4, 2)) is None
    assert ct.base_generalized_dominance((4, 2), (3, 2, 1)) is None


def test_symmetric_cube_leaf():
    cert = ct.base_symmetric_cube((2, 1))
    assert cert is not None and verify_certificate(cert)[0]
    assert ct.base_symmetric_cube((3, 1)) is None
    four = ct.base_symmetric_cube((2, 1), arity=3)
    assert four is not None and len(four.goal) == 4


def test_oracle_leaf_respects_ceiling():
    cert = ct.base_oracle(((2, 1), (2, 1), (2, 1)))
    assert cert is not None and verify_certificate(cert)[0]
    assert ct.base_oracle(((3,), (3,), (1, 1, 1))) is None
    with pytest.raises(ch.OracleCeilingError):
        ct.base_oracle(((15,), (15,), (15,)))


def test_combine_h_goal():
    a = ct.base_oracle(((2, 1), (2, 1), (2, 1)))
    b = ct.base_oracle(((3,), (3,), (3,)))
    c = ct.combine_h(a, b)
    assert c.goal == ((5, 1), (5, 1), (5, 1))
    assert verify_certificate(c)[0]


def test_combine_vvh_needs_even_vertical():
    a = ct.base_oracle(((1,), (1,), (1,)))
    with pytest.raises(ValueError):
        ct.combine_vvh(a, a, (0, 1, 2))
    c = ct.combine_vvh(a, a, (1, 2))
    assert c.goal == ((2,), (1, 1), (1, 1))
    assert verify_certificate(c)[0]


def test_all_vertical_combination_would_be_unsound():
    # vsum on every coordinate would "prove" ((1,1),(1,1),(1,1)),
    # whose coefficient is zero; the arity rule forbids exactly this
    a = ct.base_oracle(((1,), (1,), (1,)))
    assert ch.kronecker((1, 1), (1, 1), (1, 1)) == 0
    with pytest.raises(ValueError):
        ct.combine_vvh(a, a, (0, 1, 2))


def test_conjugate_cert_even_coords():
    a = ct.base_oracle(((2, 1), (2, 1), (1, 1, 1)))
    assert a is not None
    c = ct.conjugate_cert(a, (1, 2))
    assert c.goal == ((2, 1), (2, 1), (3,))
    assert verify_certificate(c)[0]
    with pytest.raises(ValueError):
        ct.conjugate_cert(a, (1,))


def test_permute_cert():
    a = ct.base_oracle(((3,), (2, 1), (2, 1)))
    c = ct.permute_cert(a, (1, 0, 2))
    assert c.goal == ((2, 1), (3,), (2, 1))
    assert verify_certificate(c)[0]


def test_json_round_trip():
    a = ct.base_dominance(3, (3, 2, 1))
    b = ct.base_oracle(((3,), (3,), (3,)))
    c = ct.combine_vvh(ct.combine_h(a, b), ct.base_symmetric_cube((2, 1)), (1, 2))
    back = ct.Certificate.from_json(c.to_json())
    assert back == c
    assert verify_certificate(back)[0]


def build_pool():
    """A few verified certificates with some structural depth."""
    pool = []
    dom = ct.base_dominance(4, (6, 2, 1, 1))
    pool.append(dom)
    oc = ct.base_oracle(((3, 1), (2, 2), (2, 1, 1)))
    pool.append(ct.combine_h(dom, oc))
    pool.append(ct.combine_vvh(oc, ct.base_symmetric_cube((2, 1)), (1, 2)))
    pool.append(ct.conjugate_cert(pool[-1], (0, 1)))
    gd = ct.base_generalized_dominance((4, 3, 1), (5, 3))
    pool.append(ct.combine_h(gd, ct.base_hook(2, (2, 1))))
    for cert in pool:
        assert verify_certificate(cert)[0]
    return pool


def corrupt(cert, rng):
    """Copy with one node's goal perturbed by a random row edit."""
    nodes = []

    def walk(c):
        nodes.append(c)
        for ch_ in c.children:
            walk(ch_)

    walk(cert)
    victim = rng.choice(nodes)

    def rebuild(c):
        kids = tuple(rebuild(k) for k in c.children)
        goal = c.goal
        if c is victim:
            i = rng.randrange(len(goal))
            p = list(goal[i])
            if p and rng.random() < 0.5:
                p[rng.randrange(len(p))] += rng.choice((-1, 1, 2))
            else:
                p.append(rng.randint(1, 3))
            p = tuple(x for x in p if x > 0)
            goal = goal[:i] + (p,) + goal[i + 1:]
        return ct.Certificate(c.kind, goal, kids, dict(c.meta))

    return rebuild(cert), victim


def test_single_node_corruptions_are_rejected():
    rng = random.Random(20260826)
    pool = build_pool()
    rejected = 0
    trials = 0
    while trials < 1000:
        cert = rng.choice(pool)
        bad, _ = corrupt(cert, rng)
        if bad == cert:
            continue
        trials += 1
        ok, _ = verify_certificate(bad)
        if not ok:
            rejected += 1
    assert rejected == trials


def test_leaves_and_kinds():
    pool = build_pool()
    big = pool[1]
    assert len(big.leaves()) == 2
    assert "DominanceStaircase" in big.leaf_kinds() or "OracleLeaf" in big.leaf_kinds()


@pytest.mark.parametrize("vertical", [[0, 0], [1, 1], [0, 7], [-1, 0]])
def test_verifier_rejects_repeated_or_out_of_range_vertical(vertical):
    # a repeated coordinate makes an odd vertical set look even: with
    # [0, 0] the target is summed vertically, the factors horizontally
    leaf = ct.base_oracle(((1,), (1,), (1,)))
    want = tuple(
        pt.vsum(x, x) if i in vertical else pt.hsum(x, x)
        for i, x in enumerate(leaf.goal)
    )
    bad = ct.Certificate("VVHSum", want, (leaf, leaf), {"vertical": vertical})
    ok, msg = verify_certificate(bad)
    assert not ok and "vertical" in msg
    assert ch.multi_kronecker(want) == 0


@pytest.mark.parametrize("coords", [[0, 0], [0, 7], [0, -3]])
def test_verifier_rejects_repeated_or_out_of_range_conjugation(coords):
    # each of these conjugates coordinate 0 alone: (1,1,1) in (3) x (3)
    leaf = ct.base_oracle(((3,), (3,), (3,)))
    bad = ct.Certificate("Conjugate", ((1, 1, 1), (3,), (3,)), (leaf,),
                         {"coords": coords})
    ok, msg = verify_certificate(bad)
    assert not ok and "coords" in msg
    assert ch.kronecker((1, 1, 1), (3,), (3,)) == 0


@pytest.mark.parametrize("kind, meta", [("Conjugate", {"coords": [2, 3]}),
                                        ("Permute", {"perm": [0, 1, 2]})])
def test_verifier_rejects_a_one_child_node_of_another_arity(kind, meta):
    # a 4-ary node over a valid 3-ary leaf: coordinate 3 of the child's goal
    # does not exist, and reading it used to raise IndexError
    leaf = ct.base_oracle(((1,), (1,), (1,)))
    assert verify_certificate(leaf)[0]
    bad = ct.Certificate(kind, ((1,),) * 4, (leaf,), meta)
    ok, msg = verify_certificate(bad)
    assert not ok and "arity" in msg


@pytest.mark.parametrize("meta", [{"vertical": ["a", "b"]},
                                  {"vertical": [1, None]},
                                  {"vertical": 12},
                                  {"vertical": [True, 2]}])
def test_verifier_fails_closed_on_malformed_vertical(meta):
    a = ct.base_oracle(((2, 1), (2, 1), (2, 1)))
    good = ct.combine_vvh(a, a, (1, 2))
    bad = ct.Certificate("VVHSum", good.goal, good.children, meta)
    ok, _ = verify_certificate(bad)
    assert not ok


@pytest.mark.parametrize("kind", ["DominanceStaircase", "Hook"])
@pytest.mark.parametrize("meta", [{}, {"m": "3"}, {"m": 10**12}, {"m": -1},
                                  {"m": True}, {"m": 2}])
def test_verifier_checks_staircase_side_before_building_it(kind, meta):
    # a missing or string m used to raise TypeError, and a huge m built
    # the staircase before any check; m = 2 is too small for the goal
    rho = pt.staircase(3)
    bad = ct.Certificate(kind, ((4, 1, 1), rho, rho), meta=meta)
    ok, msg = verify_certificate(bad)
    assert not ok and ("m is not" in msg or "staircase of m" in msg)


def test_verifier_rejects_deep_trees():
    cert = ct.base_oracle(((1,), (1,), (1,)))
    for _ in range(3000):
        cert = ct.Certificate("Conjugate", cert.goal, (cert,), {"coords": [1, 2]})
    assert verify_certificate(cert) == (False, "certificate tree too deep")


@pytest.mark.parametrize("kind, meta", [
    ("OracleLeaf", {"coefficient": "two"}),
    ("OracleLeaf", {"coefficient": [1]}),
    ("GeneralizedDominance", {"filling": 3}),
    ("GeneralizedDominance", {"filling": [["a", 0], [0]]}),
])
def test_verifier_fails_closed_on_malformed_leaf_meta(kind, meta):
    goal = ((2, 1), (2, 1), (2, 1))
    ok, _ = verify_certificate(ct.Certificate(kind, goal, meta=meta))
    assert not ok


@pytest.mark.parametrize("perm", [5, [0, "1", 2], [0, 1, None]])
def test_verifier_fails_closed_on_malformed_perm(perm):
    leaf = ct.base_oracle(((2, 1), (2, 1), (2, 1)))
    bad = ct.Certificate("Permute", leaf.goal, (leaf,), {"perm": perm})
    ok, _ = verify_certificate(bad)
    assert not ok


def _mixed_arity_children():
    # an empty 3-ary leaf and a 4-ary cube: zip over the goals drops the
    # cube's fourth factor, so the sum looked like ((1,1); (1,1), (1,1))
    return (ct.Certificate("OracleLeaf", ((), (), ())),
            ct.base_symmetric_cube((1, 1), arity=3))


@pytest.mark.parametrize("kind, meta", [("HSum", {}), ("VVHSum", {"vertical": []})])
def test_verifier_rejects_children_of_another_arity(kind, meta):
    goal = ((1, 1), (1, 1), (1, 1))
    bad = ct.Certificate(kind, goal, _mixed_arity_children(), meta)
    ok, msg = verify_certificate(bad)
    assert not ok and "arity" in msg
    assert ch.kronecker(*goal) == 0


def _verify_peak_bytes(cert):
    """(ok, peak bytes allocated while verifying cert)."""
    tracemalloc.start()
    try:
        ok, _ = verify_certificate(cert)
        return ok, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each of these used to build a tuple as long as a row of the goal, 10^7 or
# more entries, before rejecting a certificate of a few dozen bytes.
def test_verifier_rejects_a_long_one_row_cube_without_conjugating_it():
    row = (10**7,)
    ok, peak = _verify_peak_bytes(ct.Certificate("SymmetricCube", (row, row, row)))
    assert not ok and peak < 10**6


@pytest.mark.parametrize("kind", ["DominanceStaircase", "Hook"])
def test_verifier_counts_factor_rows_before_building_the_staircase(kind):
    m = 4 * 10**6
    row = (m * (m + 1) // 2,)
    bad = ct.Certificate(kind, (row, row, row), meta={"m": m})
    ok, peak = _verify_peak_bytes(bad)
    assert not ok and peak < 10**6


def test_verifier_checks_the_filling_shape_before_conjugating_the_target():
    row = (10**7,)
    bad = ct.Certificate("GeneralizedDominance", (row, row, row),
                         meta={"filling": [[0]]})
    ok, peak = _verify_peak_bytes(bad)
    assert not ok and peak < 10**6


def test_verifier_counts_conjugate_rows_before_conjugating():
    # a valid one-row leaf of size 4.5 * 10^6 whose conjugate is claimed
    # to have one row instead of 4.5 * 10^6
    m = 3000
    n = m * (m + 1) // 2
    rho = pt.staircase(m)
    leaf = ct.Certificate("DominanceStaircase", ((n,), rho, rho), meta={"m": m})
    assert verify_certificate(leaf)[0]
    bad = ct.Certificate("Conjugate", leaf.goal, (leaf,), meta={"coords": [0, 1]})
    ok, peak = _verify_peak_bytes(bad)
    assert not ok and peak < 10**6


def test_verifier_checks_each_shared_node_once(monkeypatch):
    # HSum(c, c) sixty times over: 2^61 paths, 61 distinct nodes
    cert = ct.base_oracle(((1,), (1,), (1,)))
    for _ in range(60):
        cert = ct.combine_h(cert, cert)
    calls = []
    walk = vf._verify

    def counting(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(vf, "_verify", counting)
    assert verify_certificate(cert) == (True, "ok")
    assert len(calls) <= 2 * 61


def _conjugate_chain(cert, links):
    for _ in range(links):
        cert = ct.Certificate("Conjugate", cert.goal, (cert,), {"coords": [1, 2]})
    return cert


@pytest.mark.parametrize("shared", [True, False])
def test_shared_nodes_still_count_towards_the_depth(shared):
    # `low` is checked first at depth 1; under `deep` its leaf lies at depth
    # MAX_DEPTH + 1, and one link less at MAX_DEPTH
    leaf = ct.base_oracle(((1,), (1,), (1,)))
    low = _conjugate_chain(leaf, 1)
    deep = _conjugate_chain(low if shared else _conjugate_chain(leaf, 1),
                            vf.MAX_DEPTH - 1)
    assert verify_certificate(ct.combine_h(low, deep)) == (
        False, "certificate tree too deep")
    assert verify_certificate(ct.combine_h(low, deep.children[0])) == (True, "ok")


def _decode_error(call, arg):
    with pytest.raises(ct.DECODE_ERRORS) as info:
        call(arg)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad, good", [
    ("3,4", "4,3"),
    (["4", "3"], "4,3"),
    ([4, 3], "4,3"),
    (4, "4"),
])
def test_malformed_goals_raise_as_before_after_a_cached_parse(bad, good):
    def doc(entry):
        return {"kind": "OracleLeaf", "goal": [entry, good, good],
                "children": [], "meta": {}}

    want = _decode_error(pt.parse_partition, bad)
    ct.Certificate.from_dict(doc(good))  # good text parsed and cached
    for _ in range(2):
        assert _decode_error(ct.Certificate.from_dict, doc(bad)) == want
    assert ct.Certificate.from_dict(doc(good)).goal == (pt.parse_partition(good),) * 3


_ROW_TWO = ct.base_generalized_dominance((2,), (2,))


# Certificates built in Python, not decoded from JSON, whose goal, meta or
# children do not have the decoded types; each of these used to raise.
@pytest.mark.parametrize("cert", [
    ct.Certificate("OracleLeaf", ((1,), 1, (1,))),
    ct.Certificate("OracleLeaf", None),
    ct.Certificate("DominanceStaircase", ((2, 1),) * 3, meta=None),
    ct.Certificate("HSum", ((4,),) * 3, (_ROW_TWO, ct.Certificate("OracleLeaf", None))),
    # a list-row child passed, then the vertical sum added a list to a tuple
    ct.Certificate("VVHSum", ((4,), (2, 2), (2, 2)),
                   (ct.Certificate("GeneralizedDominance", ([2], [2], [2])), _ROW_TWO),
                   {"vertical": [1, 2]}),
    ct.Certificate("HSum", ((4,),) * 3, (_ROW_TWO, 5)),
    ct.Certificate("HSum", ((4,),) * 3, 7),
], ids=["int-entry", "none-goal", "none-meta", "child-none-goal", "list-rows",
        "int-child", "int-children"])
def test_verifier_fails_closed_on_malformed_python_certificates(cert):
    ok, msg = verify_certificate(cert)
    assert not ok and msg

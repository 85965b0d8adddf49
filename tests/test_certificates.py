import json
import pickle
import random
import tracemalloc

import pytest

from kronwork import certificates as ct
from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork import verify as vf
from kronwork.decomp import fourth_power_pipeline
from kronwork.prover import prove_in_staircase_square, prove_rectangle_cube
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


def _square_cube(lam):
    # the 2-ary cube leaf: no builder makes one, but cached certificates hold it
    return ct.Certificate("SymmetricCube", (lam, lam, lam))


def test_symmetric_cube_leaf():
    assert verify_certificate(_square_cube((2, 1)))[0]
    assert not verify_certificate(_square_cube((3, 1)))[0]
    four = ct.base_symmetric_cube((2, 1))
    assert len(four.goal) == 4 and verify_certificate(four)[0]


def test_oracle_leaf_respects_ceiling():
    cert = ct.base_oracle(((2, 1), (2, 1), (2, 1)))
    assert cert is not None and verify_certificate(cert)[0]
    assert ct.base_oracle(((3,), (3,), (1, 1, 1))) is None
    with pytest.raises(ch.OracleCeilingError):
        ct.base_oracle(((15,), (15,), (15,)))


def test_verifier_rejects_an_oracle_leaf_above_the_ceiling():
    big = (15,)
    leaf = ct.Certificate("OracleLeaf", (big, big, big), meta={"coefficient": "1"})
    want = (False, "OracleLeaf node with goal ((15,), (15,), (15,)): "
                   "oracle leaf above the ceiling (n=15)")
    assert verify_certificate(leaf) == want
    memo = {}
    good = ct.combine_h(ct.base_oracle(((2, 1),) * 3), ct.base_oracle(((3,),) * 3))
    assert verify_certificate(good, memo=memo) == (True, "ok") and memo
    assert verify_certificate(ct.conjugate_cert(leaf, (1, 2)), memo=memo) == want
    assert verify_certificate(leaf, memo=memo) == want


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


def _node_kinds(cert):
    kinds = {cert.kind}
    for c in cert.children:
        kinds |= _node_kinds(c)
    return kinds


def test_builders_make_exactly_the_kinds_of_the_grammar():
    # every kind the builders make is in LEAF_KINDS + INNER_KINDS and the
    # other way round, so the verifier accepts no kind that nothing builds
    kinds = set()
    for m in range(1, 6):
        for nu in pt.partitions_of(pt.triangular(m)):
            kinds |= _node_kinds(prove_in_staircase_square(m, nu))
    for m in range(1, 4):
        n = pt.triangular(m)
        for a in range(1, n + 1):
            if n % a == 0:
                kinds |= _node_kinds(prove_rectangle_cube(a, n // a))
    # the square of side 6 inside the tensor cube of rho_8 builds SymmetricCube
    kinds |= _node_kinds(prove_rectangle_cube(6, 6))
    for n in range(1, 13):
        for nu in pt.partitions_of(n):
            kinds |= _node_kinds(fourth_power_pipeline(nu)["certificate"])
    assert kinds == set(ct.LEAF_KINDS + ct.INNER_KINDS)


def test_verifier_rejects_a_permute_node():
    # nothing builds Permute nodes any more, so the verifier knows no rule
    # for them: a node that swaps the target and a factor is unknown
    a = ct.base_oracle(((3,), (2, 1), (2, 1)))
    c = ct.Certificate("Permute", ((2, 1), (3,), (2, 1)), (a,), {"perm": [1, 0, 2]})
    assert verify_certificate(c) == (
        False, "Permute node with goal %r: unknown kind" % (c.goal,))


@pytest.mark.parametrize("root", [
    5, None, "OracleLeaf", ct.base_oracle(((2, 1), (2, 1), (2, 1))).to_dict(),
], ids=["int", "none", "str", "dict"])
def test_verifier_rejects_a_root_that_is_not_a_certificate(root):
    # each of these used to raise AttributeError on `.goal`
    ok, msg = verify_certificate(root)
    assert not ok and "not a certificate" in msg


def test_json_round_trip():
    a = ct.base_dominance(3, (3, 2, 1))
    b = ct.base_oracle(((3,), (3,), (3,)))
    c = ct.combine_vvh(ct.combine_h(a, b), _square_cube((2, 1)), (1, 2))
    back = ct.Certificate.from_json(c.to_json())
    assert back == c
    assert verify_certificate(back)[0]


def test_certificate_is_a_frozen_value():
    # what the verifier's memo by identity, the saxl pool (which pickles
    # certificates back from its workers) and the tests rely on
    c = ct.combine_h(ct.base_dominance(3, (3, 2, 1)), ct.base_oracle(((3,), (3,), (3,))))
    for name in ("kind", "goal", "children", "meta", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c.kind == "HSum" and len(c.children) == 2

    same = ct.Certificate.from_json(c.to_json())
    assert same == c and same is not c and not same != c
    assert c != ct.Certificate(c.kind, c.goal, c.children, {"x": 1})
    assert c != ct.Certificate("VVHSum", c.goal, c.children, c.meta)
    assert c != (c.kind, c.goal, c.children, c.meta)

    class Sub(ct.Certificate):
        __slots__ = ()

    assert Sub(c.kind, c.goal, c.children, c.meta) != c
    with pytest.raises(TypeError):
        hash(c)

    cube = ct.base_symmetric_cube((1,))
    assert repr(cube) == ("Certificate(kind='SymmetricCube', goal=((1,), (1,), (1,), (1,)), "
                          "children=(), meta={})")

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(c, protocol))
        assert back == c and type(back.children[0]) is ct.Certificate

    g = ((1,),) * 3
    a, b = ct.Certificate("Hook", g), ct.Certificate("Hook", g)
    assert a.meta == b.meta == {} and a.meta is not b.meta
    bad = ct.Certificate("DominanceStaircase", ((2, 1),) * 3, meta=None)
    assert bad.meta is None
    ok, msg = verify_certificate(bad)
    assert not ok and msg.endswith("meta is not a mapping")


def build_pool():
    """A few verified certificates with some structural depth."""
    pool = []
    dom = ct.base_dominance(4, (6, 2, 1, 1))
    pool.append(dom)
    oc = ct.base_oracle(((3, 1), (2, 2), (2, 1, 1)))
    pool.append(ct.combine_h(dom, oc))
    pool.append(ct.combine_vvh(oc, _square_cube((2, 1)), (1, 2)))
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


def test_a_coordinate_list_that_passed_is_checked_again_at_another_arity_or_type():
    # the check of a list of int coordinates is cached by the list and the
    # arity: [1, 3] passes on a 4-ary node, not on a 3-ary one, and [True, 3]
    # is not [1, 3]
    cube = ct.base_symmetric_cube((2, 1))
    assert verify_certificate(ct.conjugate_cert(cube, [1, 3])) == (True, "ok")
    leaf = ct.base_generalized_dominance((2, 1), (2, 1))
    ok, msg = verify_certificate(ct.Certificate("Conjugate", leaf.goal, (leaf,),
                                                {"coords": [1, 3]}))
    assert not ok and msg.endswith("coords coordinate out of range")
    ok, msg = verify_certificate(ct.Certificate("Conjugate", cube.goal, (cube,),
                                                {"coords": [True, 3]}))
    assert not ok and msg.endswith("coords holds a non-integer coordinate")


@pytest.mark.parametrize("kind, meta", [("Conjugate", {"coords": [2, 3]})])
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
            ct.base_symmetric_cube((1, 1)))


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


def test_memo_hits_still_count_towards_the_depth():
    # `low` passes in a first call; a later call meets it in the memo at
    # depth MAX_DEPTH, where its leaf would lie one level too deep
    memo = {}
    low = _conjugate_chain(ct.base_oracle(((1,), (1,), (1,))), 1)
    assert verify_certificate(ct.combine_h(low, low), memo=memo) == (True, "ok")
    assert id(low) in memo
    assert verify_certificate(_conjugate_chain(low, vf.MAX_DEPTH), memo=memo) == (
        False, "certificate tree too deep")
    assert verify_certificate(_conjugate_chain(low, vf.MAX_DEPTH - 1), memo=memo) == (
        True, "ok")


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
        return json.dumps({"kind": "OracleLeaf", "goal": [entry, good, good],
                           "children": [], "meta": {}})

    want = _decode_error(pt.parse_partition, bad)
    ct.Certificate.from_json(doc(good))  # good text parsed and cached
    for _ in range(2):
        assert _decode_error(ct.Certificate.from_json, doc(bad)) == want
    assert ct.Certificate.from_json(doc(good)).goal == (pt.parse_partition(good),) * 3


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


def test_decoding_with_a_table_shares_equal_subtrees_only():
    # over the lines of one log, equal subtrees below the root decode to one
    # object, also when their goal strings differ only by trailing zero
    # rows; a node that differs in any field, even by 1.0 or true for 1 or
    # by the order of its meta keys, is another object; roots are never kept
    leaf = {"kind": "DominanceStaircase", "goal": ["1", "1", "1"], "children": [],
            "meta": {"m": 1}}

    def wrap(child):
        return json.dumps({"kind": "Conjugate", "goal": child["goal"], "children": [child],
                           "meta": {"coords": []}})

    table = ct.Table()

    def read(text):
        # text as the next line of the table's log
        return ct.Certificate.from_json(text, table)

    a = read(wrap(leaf))
    b = read(wrap(leaf))
    assert a is not b and a.children[0] is b.children[0]
    assert read(wrap(dict(leaf, goal=["1", "1", "1,0"]))).children[0] is a.children[0]
    assert len(table.nodes) == 1
    variants = [dict(leaf, meta={"m": m}) for m in (1.0, True, "1")]
    variants += [dict(leaf, meta={"m": 1, "x": 0}), dict(leaf, meta={"x": 0, "m": 1}),
                 dict(leaf, kind="Hook"), dict(leaf, goal=["1", "1", "1,1"])]
    for other in variants:
        c = read(wrap(other))
        assert c.children[0] is not a.children[0]
        assert c.to_json() == ct.Certificate.from_json(wrap(other)).to_json()
        assert read(wrap(other)).children[0] is c.children[0]
    assert len(table.nodes) == 1 + len(variants)
    # input the key cannot hash decodes unshared, and bad input fails as it
    # does outside a log: a bad goal before any error below it
    for doc, error in ((dict(leaf, goal=[["1"], "1", "1"]), AttributeError),
                       (dict(leaf, goal=["1", "x", "1"], children=[{"goal": []}]), ValueError),
                       (dict(leaf, children=[dict(leaf, meta=[["m", 1]])], meta=5), TypeError)):
        for decode in (ct.Certificate.from_json, read):
            with pytest.raises(error):
                decode(wrap(doc))
    # of these only the leaf whose meta is given as pairs decodes: its node
    # holds the meta as a dict, so it is the table's node of leaf's content
    assert len(table.nodes) == 1 + len(variants)


_LINE = json.dumps({"kind": "OracleLeaf", "goal": ["2,1", "2,1", "2,1"], "children": [],
                    "meta": {"coefficient": "1"}})


@pytest.mark.parametrize("text", [
    _LINE, "  " + _LINE, "\t" + _LINE, _LINE + "\n", _LINE + " \t\r\n ",
    # whitespace to str.strip but not to JSON
    _LINE + "\x0c", _LINE + " \n", "\x0c" + _LINE,
    _LINE + " {}", _LINE + "x", _LINE + _LINE, _LINE[:-7], "{", '{"kind": ', "{}",
    "", "\n", "   ", "[1, 2]", '"{"', "\ufeff" + _LINE,
    _LINE.replace('"1"}', "NaN}"), _LINE.replace('"1"}', "Infinity}"),
    '{"kind": ' + "[" * 100000 + "]" * 100000 + "}",
    '{"a": ' * 100000 + "1" + "}" * 100000,
    _LINE.replace('"2,1", "2,1", "2,1"', '"2,1", "2,1", 1e999'),
    '{"kind": 1' + "0" * 5000 + "}",
], ids=lambda text: repr(text[:12] + text[-8:]))
def test_a_log_line_decodes_and_fails_as_with_the_plain_decoder(monkeypatch, text):
    # the decoder scans a line that starts with an object once; what it
    # returns or raises must be what json.loads gives, also as a log line,
    # less its encoding detection (which turns away a leading BOM with
    # another message)
    def outcome():
        out = []
        for args in ((text,), (text, ct.Table()), (text.encode(),)):
            try:
                out.append(ct.Certificate.from_json(*args).to_json())
            except ct.DECODE_ERRORS as e:
                out.append((type(e), str(e)))
        return out

    got = outcome()
    monkeypatch.setattr(ct, "_json", json.JSONDecoder().decode)
    assert got == outcome()


def test_interning_shares_the_nodes_of_a_log_by_their_whole_content():
    # a fresh certificate interned into the table of a log: a node whose
    # content a line holds below its root is that line's node, and the
    # line written next refers to it; a node that differs in meta (2.0 for
    # 2) is another; equal factors and metas become one object
    def leaf(m=2):
        return ct.Certificate("DominanceStaircase", ((3,), (2, 1), (2, 1)), meta={"m": m})

    def wrap(child):
        return ct.Certificate("Conjugate", child.goal, (child,), {"coords": []})

    table = ct.Table()
    read = ct.Certificate.from_json(wrap(leaf()).to_json(), table)
    fresh = ct.combine_h(wrap(wrap(leaf())), leaf(2.0))
    shared = table.intern(fresh)
    assert shared == fresh and shared is not fresh
    (outer, other) = shared.children
    assert outer.children[0].children[0] is read.children[0]
    assert other is not read.children[0]
    assert other.goal[1] is other.goal[2] is outer.children[0].goal[1]
    assert outer.meta is outer.children[0].meta
    again = table.intern(fresh)
    assert again.children[0] is outer and again.children[1] is other
    text = shared.to_json(table)
    assert json.loads(text)["children"][0]["children"][0]["children"] == [[1, 0]]
    assert ct.Certificate.from_json(text, table).to_json() == fresh.to_json()


def test_the_lines_a_table_writes_follow_the_lines_it_read():
    # a log of three lines whose last one is cut: the two lines written next
    # are lines 4 and 5, a node the first holds in full is [4, i] in the
    # second, and a fresh read of the whole file gives back every line
    def wrap(child):
        return ct.Certificate("Conjugate", child.goal, (child,), {"coords": []})

    read = [wrap(ct.base_dominance(3, (3, 2, 1))), wrap(ct.base_dominance(3, (4, 1, 1)))]
    cut = wrap(ct.base_dominance(3, (3, 3))).to_json()[:30]
    log = "".join(c.to_json() + "\n" for c in read) + cut
    table = ct.Table()
    decoded = [ct.Certificate.from_json(line, table) for line in log.split("\n")[:-1]]
    with pytest.raises(ValueError):
        ct.Certificate.from_json(cut, table)
    sub = wrap(ct.base_dominance(3, (4, 2)))
    first = ct.combine_h(sub, decoded[0].children[0])
    second = wrap(wrap(sub))
    texts = [first.to_json(table), second.to_json(table)]
    assert json.loads(texts[0])["children"] == [json.loads(sub.to_json()), [1, 0]]
    assert json.loads(texts[1])["children"][0]["children"] == [[4, 1]]
    fresh, got = ct.Table(), []
    for line in (log + "\n" + "\n".join(texts)).split("\n"):
        try:
            got.append(ct.Certificate.from_json(line, fresh))
        except ct.DECODE_ERRORS:
            got.append(None)
    assert got == read + [None, first, second]


def test_decoded_nodes_with_equal_metas_hold_one_meta():
    pair = ct.combine_h(ct.base_dominance(2, (2, 1)), ct.base_dominance(2, (3,)))
    table = ct.Table()
    a, b = ct.Certificate.from_json(pair.to_json(), table).children
    line = ct.conjugate_cert(ct.base_dominance(2, (1, 1, 1)), ()).to_json()
    (c,) = ct.Certificate.from_json(line, table).children
    assert a.meta == {"m": 2} and a.meta is b.meta is c.meta


def test_a_lone_certificate_decodes_each_distinct_subtree_to_one_object(monkeypatch):
    # a lone certificate is the first line of a fresh log: the 10 nodes
    # below this root have 7 distinct contents, decoded to 7 objects, and
    # the verifier checks each of them in full once
    def below(c):
        return [n for k in c.children for n in [k] + below(k)]

    cert = ct.Certificate.from_json(
        prove_in_staircase_square(6, (14, 2, 1, 1, 1, 1, 1)).to_json())
    nodes = below(cert)
    assert len(nodes) == 10 and len({json.dumps(c.to_dict()) for c in nodes}) == 7
    assert len({id(c) for c in nodes}) == 7
    full = []
    walk = vf._verify

    def spy(c, depth, seen, shapes):
        if depth and id(c) not in seen:
            full.append(id(c))
        return walk(c, depth, seen, shapes)

    monkeypatch.setattr(vf, "_verify", spy)
    assert verify_certificate(cert) == (True, "ok")
    assert sorted(full) == sorted({id(c) for c in nodes})

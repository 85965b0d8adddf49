"""Fuzzing the verifier: it must be total, and what it accepts must be true.

Inputs are the real certificates of every target with m <= 4, mutated at
random (edited meta, duplicated coordinates, swapped or shared children,
perturbed goal rows, another kind), and random JSON shaped like a
certificate, with huge one-row goals among the rows.  For every input that
decodes, `verify_certificate` must return (bool, str) without raising, and a
goal it accepts with n <= 8 must be positive according to the oracle.
A lone certificate decodes as the first line of a fresh log, and must agree
with a reference decoder that reads every child as a node, except that a
list child is a reference to an earlier line there, so an error too.
Sequences of certificates verified over one table, one memo and one dict of
factor shapes, as the saxl log reader verifies its lines, must get the
verdicts of verifying each certificate alone, also once they are written as
a log whose lines refer back to each other.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork.certificates import DECODE_ERRORS, INNER_KINDS, LEAF_KINDS, Certificate, Table
from kronwork.prover import prove_in_staircase_square
from kronwork.verify import verify_certificate

KINDS = LEAF_KINDS + INNER_KINDS
META_KEYS = ("m", "vertical", "coords", "perm", "coefficient", "filling")

REAL = [
    prove_in_staircase_square(m, nu).to_dict()
    for m in range(1, 5)
    for nu in pt.partitions_of(pt.triangular(m))
]

HUGE_ROWS = st.sampled_from([10**7, 4 * 10**6, 8000002000000, 10**12, 2**63])
PARTITION_ROWS = st.lists(st.integers(1, 5), max_size=5).map(lambda r: sorted(r, reverse=True))
GOAL_TEXT = st.one_of(PARTITION_ROWS, HUGE_ROWS.map(lambda r: [r])).map(
    lambda rows: ",".join(map(str, rows)))
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10), HUGE_ROWS,
              st.text(max_size=4), GOAL_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(META_KEYS), inner, max_size=3)),
    max_leaves=8,
)


def _nodes(doc):
    out = [doc]
    for child in doc["children"]:
        out.extend(_nodes(child))
    return out


def _edit_meta(data, node):
    node["meta"][data.draw(st.sampled_from(META_KEYS))] = data.draw(JSON)


def _duplicate_coordinate(data, node):
    for key in ("vertical", "coords", "perm"):
        coords = node["meta"].get(key)
        if isinstance(coords, list) and coords:
            coords.append(data.draw(st.sampled_from(coords)))
            return
    node["meta"]["vertical"] = [0, 0]


def _swap_children(data, node, root):
    if len(node["children"]) >= 2:
        node["children"].reverse()
    elif node["children"]:
        # another node of the tree in the child's place, shared by identity;
        # not one above the node, which would make a cycle
        outside = [n for n in _nodes(root) if not any(x is node for x in _nodes(n))]
        node["children"][0] = data.draw(st.sampled_from(outside))


def _perturb_goal(data, node):
    goal = node["goal"]
    i = data.draw(st.integers(0, len(goal) - 1))
    rows = [int(r) for r in goal[i].split(",") if r]  # may be malformed by now
    edit = data.draw(st.sampled_from(("bump", "append", "drop", "huge")))
    if edit == "bump" and rows:
        rows[data.draw(st.integers(0, len(rows) - 1))] += data.draw(st.sampled_from((-1, 1, 2)))
    elif edit == "append":
        rows.append(data.draw(st.integers(0, 3)))
    elif edit == "drop" and rows:
        rows.pop()
    else:
        rows = [data.draw(HUGE_ROWS)]
    goal[i] = ",".join(map(str, rows))


def _mutate(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(REAL)))
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(_nodes(doc)))
        op = data.draw(st.sampled_from(("meta", "dup", "swap", "goal", "kind")))
        if op == "meta":
            _edit_meta(data, node)
        elif op == "dup":
            _duplicate_coordinate(data, node)
        elif op == "swap":
            _swap_children(data, node, doc)
        elif op == "goal":
            _perturb_goal(data, node)
        else:
            node["kind"] = data.draw(st.sampled_from(KINDS))
    return doc


RANDOM_CERTS = st.recursive(
    st.fixed_dictionaries({
        "kind": st.sampled_from(KINDS),
        "goal": st.lists(GOAL_TEXT, min_size=2, max_size=5),
        "children": st.just([]),
        "meta": st.dictionaries(st.sampled_from(META_KEYS), JSON, max_size=2),
    }),
    lambda inner: st.fixed_dictionaries({
        "kind": st.sampled_from(KINDS),
        "goal": st.lists(GOAL_TEXT, min_size=2, max_size=5),
        "children": st.lists(inner, min_size=1, max_size=2),
        "meta": st.dictionaries(st.sampled_from(META_KEYS), JSON, max_size=2),
    }),
    max_leaves=4,
)


def _decode_reference(d):
    """The decoder as it was before it could share nodes, kept as the
    reference for what decoding returns and which error it raises first."""
    return Certificate(
        kind=d["kind"],
        goal=tuple(map(pt.parse_partition, d["goal"])),
        children=tuple(_decode_reference(c) for c in d["children"]),
        meta=dict(d.get("meta", {})),
    )


def _outcome(decode, doc):
    try:
        return decode(doc).to_json()
    except DECODE_ERRORS as e:
        return type(e), str(e)


def _has_list_child(doc):
    """Whether a node of doc, as the decoder walks it, has a list child."""
    todo = [doc]
    while todo:
        node = todo.pop()
        children = node.get("children") if type(node) is dict else None
        if type(children) is list:
            if any(type(c) is list for c in children):
                return True
            todo.extend(children)
    return False


def _next_line(table, text):
    """text decoded as the next line of the log that table reads."""
    return Certificate.from_json(text, table)


def _lone(doc):
    """doc decoded as a lone certificate: the first line of a fresh log."""
    return Certificate.from_json(json.dumps(doc))


def check_verifier(doc):
    want = _outcome(_decode_reference, doc)
    # on a first line a list child is a reference that names no node
    got = _outcome(_lone, doc)
    if _has_list_child(doc):
        assert type(got) is type(want) is tuple
    else:
        assert got == want
    try:
        cert = _lone(doc)
    except DECODE_ERRORS:
        return
    ok, msg = verify_certificate(cert)
    assert type(ok) is bool and isinstance(msg, str)
    if ok and pt.size(cert.goal[0]) <= 8:
        assert ch.multi_kronecker(cert.goal) > 0, cert.to_json()


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def test_real_certificates_verify():
    assert len(REAL) == 1 + 3 + 11 + 42
    for doc in REAL:
        assert verify_certificate(_lone(doc)) == (True, "ok")


@FUZZ
@given(st.data())
def test_verifier_is_total_and_sound_on_mutated_certificates(data):
    check_verifier(_mutate(data))


@FUZZ
@given(st.one_of(RANDOM_CERTS, RANDOM_CERTS, JSON))
def test_verifier_is_total_and_sound_on_random_json(doc):
    check_verifier(doc)


# One decoding table and one verifier memo over a sequence of certificates,
# as the saxl log reader keeps them, must give the verdicts of verifying each
# certificate alone.  Later certificates of a sequence reuse the subtrees of
# earlier ones with one field changed, so that a table or memo that told two
# such nodes apart by less than their full content would trust the wrong one.

SHARED = [
    cert.to_dict()
    for m in (5, 6)
    for cert in (prove_in_staircase_square(m, nu) for nu in pt.partitions_of(pt.triangular(m)))
    if any(child.children or child.meta for child in cert.children)
]


# a field changed before may hold anything: it is then changed from a default


def _change_m(data, node):
    m = node["meta"]["m"]
    m = m if type(m) is int else 2
    node["meta"]["m"] = data.draw(st.sampled_from([m + 1, float(m), str(m), True]))


def _change_coefficient(data, node):
    c = node["meta"]["coefficient"]
    c = int(c) if type(c) is str and c.isdigit() else 1
    node["meta"]["coefficient"] = data.draw(
        st.sampled_from(["0", str(c + 1), c, float(c), "%d.0" % c]))


def _change_vertical(data, node):
    node["meta"]["vertical"] = data.draw(
        st.sampled_from([[0, 1], [0, 2], [1, 2], [], [1, 2, 2], [1.0, 2], [2, 1]]))


def _change_kind(data, node):
    node["kind"] = data.draw(st.sampled_from([k for k in KINDS if k != node["kind"]]))


# field -> (does a node have it, how to change it)
CHANGES = {
    "goal": (lambda node: True, _perturb_goal),
    "m": (lambda node: "m" in node["meta"], _change_m),
    "coefficient": (lambda node: "coefficient" in node["meta"], _change_coefficient),
    "vertical": (lambda node: "vertical" in node["meta"], _change_vertical),
    "kind": (lambda node: True, _change_kind),
}


def _changed_copy(data, doc):
    """doc with one field of one node below the root changed, or None when
    no such node has the field drawn."""
    doc = copy.deepcopy(doc)
    has, change = CHANGES[data.draw(st.sampled_from(sorted(CHANGES)))]
    nodes = [node for node in _nodes(doc)[1:] if has(node)]
    if not nodes:
        return None
    change(data, data.draw(st.sampled_from(nodes)))
    return doc


def _decode(text, table=None):
    try:
        if table is None:
            return Certificate.from_json(text), None
        return _next_line(table, text), None
    except DECODE_ERRORS as e:
        return None, (type(e), str(e))


@settings(FUZZ, max_examples=300)
@given(st.data())
def test_one_table_and_memo_give_the_verdicts_of_independent_verification(data):
    docs = []
    for _ in range(data.draw(st.integers(2, 8))):
        doc = None
        if docs and data.draw(st.booleans()):
            doc = _changed_copy(data, data.draw(st.sampled_from(docs)))
        docs.append(doc or data.draw(st.sampled_from(SHARED)))
    table, memo, shapes = Table(), {}, {}
    writer, lines = Table(), []
    for doc in docs:
        text = json.dumps(doc)
        shared, error = _decode(text, table)
        alone, want_error = _decode(text)
        assert error == want_error
        if alone is not None:
            assert shared.to_json() == alone.to_json()
            verdict = verify_certificate(alone)
            assert verify_certificate(shared, memo=memo, shapes=shapes) == verdict
            lines.append((alone.to_json(writer), alone.to_json(), verdict))
    reader, memo, shapes = Table(), {}, {}
    for text, want, verdict in lines:
        cert = Certificate.from_json(text, reader)
        assert cert.to_json() == want
        assert verify_certificate(cert, memo=memo, shapes=shapes) == verdict


def test_memo_does_not_trust_a_new_object_where_a_passed_one_was():
    # a memo that kept ids without their nodes would see a freed node's id
    # again on the next certificate of its size, and trust it
    memo = {}
    goal = ((3,), (2, 1), (2, 1))
    for _ in range(50):
        leaf = Certificate("DominanceStaircase", goal, meta={"m": 2})
        assert verify_certificate(Certificate("Conjugate", goal, (leaf,), {"coords": []}),
                                  memo=memo) == (True, "ok")
        del leaf
        bad = Certificate("DominanceStaircase", goal, meta={"m": 3})
        ok, msg = verify_certificate(Certificate("Conjugate", goal, (bad,), {"coords": []}),
                                     memo=memo)
        assert not ok and "staircase of m" in msg
    assert len(memo) == 50


@FUZZ
@given(st.data())
def test_one_memo_and_shapes_give_the_verdicts_of_none_on_the_fuzz_corpus(data):
    # the mutated and random certificates above, decoded as the lines of one
    # log so that equal goal strings are one factor object across them
    table, memo, shapes = Table(), {}, {}
    for _ in range(data.draw(st.integers(2, 6))):
        doc = _mutate(data) if data.draw(st.booleans()) else data.draw(RANDOM_CERTS)
        try:
            alone = _lone(doc)
            shared = _next_line(table, json.dumps(doc))
        except DECODE_ERRORS:
            continue
        assert verify_certificate(shared, memo=memo, shapes=shapes) == verify_certificate(alone)


def test_a_factor_that_passed_is_held_to_the_size_of_each_goal():
    # rho passes as a factor of size 3; the same object under a target of
    # size 4, in a later certificate, still fails
    rho = (2, 1)
    leaf = Certificate("DominanceStaircase", ((3,), rho, rho), meta={"m": 2})
    other = Certificate("OracleLeaf", ((4,), rho, rho))
    memo, shapes = {}, {}
    assert verify_certificate(leaf, memo=memo, shapes=shapes) == (True, "ok")
    for kwargs in ({}, {"memo": memo, "shapes": shapes}):
        ok, msg = verify_certificate(other, **kwargs)
        assert not ok and msg == "OracleLeaf node with goal %r: %s" % (
            other.goal, "goal entries have unequal sizes")


class _Rows(tuple):
    """Rows equal to a partition, in a tuple subclass."""


@pytest.mark.parametrize("factor, verdict", [
    ((2.0, 1), "goal entry is not a partition: (2.0, 1)"),
    ((2, 1.0), "goal entry is not a partition: (2, 1.0)"),
    (_Rows((2, 1)), "goal entry is not a partition: (2, 1)"),
    ((2, True), "ok"),  # a bool is an int row, as it always was
    ((True, True, True), "factors are not the staircase of 2"),
], ids=["float-row", "float-last-row", "tuple-subclass", "bool-row", "bool-rows"])
def test_factor_rows_keep_their_verdict_after_an_equal_factor_passed(factor, verdict):
    rho = (2, 1)
    memo, shapes = {}, {}
    leaf = Certificate("DominanceStaircase", ((3,), rho, rho), meta={"m": 2})
    assert verify_certificate(leaf, memo=memo, shapes=shapes) == (True, "ok")
    cert = Certificate("DominanceStaircase", ((3,), rho, factor), meta={"m": 2})
    for kwargs in ({}, {"memo": memo, "shapes": shapes}):
        ok, msg = verify_certificate(cert, **kwargs)
        assert ok is (verdict == "ok") and msg.endswith(verdict)

"""Fuzzing the verifier: it must be total, and what it accepts must be true.

Inputs are the real certificates of every target with m <= 4, mutated at
random (edited meta, duplicated coordinates, swapped or shared children,
perturbed goal rows, another kind), and random JSON shaped like a
certificate, with huge one-row goals among the rows.  For every input that
decodes, `verify_certificate` must return (bool, str) without raising, and a
goal it accepts with n <= 8 must be positive according to the oracle.
"""

import copy

from hypothesis import HealthCheck, given, settings, strategies as st

from kronwork import characters as ch
from kronwork import partitions as pt
from kronwork.certificates import DECODE_ERRORS, INNER_KINDS, LEAF_KINDS, Certificate
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


def check_verifier(doc):
    try:
        cert = Certificate.from_dict(doc)
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
        assert verify_certificate(Certificate.from_dict(doc)) == (True, "ok")


@FUZZ
@given(st.data())
def test_verifier_is_total_and_sound_on_mutated_certificates(data):
    check_verifier(_mutate(data))


@FUZZ
@given(st.one_of(RANDOM_CERTS, RANDOM_CERTS, JSON))
def test_verifier_is_total_and_sound_on_random_json(doc):
    check_verifier(doc)

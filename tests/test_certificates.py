import random

import pytest

from kronwork import certificates as ct
from kronwork import characters as ch
from kronwork import partitions as pt
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

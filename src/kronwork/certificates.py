"""Positivity certificates: tree construction, combination, serialization.

A certificate proves that the tensor product of the factor shapes contains
the target shape.  Goals are tuples of partitions with the target at
coordinate 0.  LEAF_KINDS and INNER_KINDS are every kind the builders here
make and the verifier accepts.
"""

import json
from dataclasses import dataclass, field
from functools import lru_cache

from . import partitions as pt
from . import characters as ch

LEAF_KINDS = (
    "DominanceStaircase",
    "GeneralizedDominance",
    "Hook",
    "SymmetricCube",
    "OracleLeaf",
)
INNER_KINDS = ("HSum", "VVHSum", "Conjugate")

# What `Certificate.from_json` raises on input that is not a certificate:
# malformed JSON (a ValueError), missing keys, wrong types, deep nesting.
DECODE_ERRORS = (AttributeError, KeyError, TypeError, ValueError, RecursionError)

# A cache's certificates repeat a few goal strings (the staircase and its
# pieces), so each distinct string is parsed once.  Errors are not cached.
_parse_goal_text = lru_cache(maxsize=256)(pt.parse_partition)


def _parse_goal(g):
    # anything but a string goes straight to the parser, which raises on it
    # exactly as before (a list would otherwise fail as unhashable)
    return _parse_goal_text(g) if type(g) is str else pt.parse_partition(g)


@dataclass(frozen=True)
class Certificate:
    kind: str
    goal: tuple
    children: tuple = ()
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "kind": self.kind,
            "goal": [pt.format_partition(p) for p in self.goal],
            "children": [c.to_dict() for c in self.children],
            "meta": self.meta,
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)

    @staticmethod
    def from_dict(d, table=None):
        """Decode a certificate; see `from_json` for the table."""
        return _decode(d, table, False)

    @staticmethod
    def from_json(text, table=None):
        """Decode a certificate from JSON text.

        With a table, a dict that the caller keeps across calls, every
        non-root node whose full content equals that of a node decoded
        before is that node: kind, goal strings, children (by identity, as
        they are shared already) and meta (typed and in order, so that 1,
        1.0 and true stay apart).  A verifier memo that trusts a node by
        identity (`verify_certificate`) is therefore sound over the decoded
        certificates, as two nodes that differ in any field are two
        objects.  A node the key cannot hold exactly is decoded unshared,
        and an input is rejected with the error it gets without a table.
        The table holds every distinct sub-certificate while it lives, which
        is why the saxl log reader keeps one and the legacy per-file reader,
        a fallback for old caches, does not (see `verify_certificate`).
        """
        return Certificate.from_dict(json.loads(text), table)

    def leaves(self):
        if not self.children:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def leaf_kinds(self):
        return {leaf.kind for leaf in self.leaves()}


def _decode(d, table, share):
    """The certificate of the JSON object d; with `share` set, d is looked
    up in the table, and with a table, so are its children.

    The fields are read in the order kind, goal, children, meta, so a bad
    goal is reported before any error below it.  The key holds the goal as
    the items it is parsed from, and meta as its repr, which tells apart
    what == does not (1, 1.0 and true; -0.0 and 0.0; the order of keys) and
    is exact for the values JSON decodes to.  A key that cannot be made or
    hashed, say for a list among the goal strings, leaves the node unshared.
    """
    kind = d["kind"]
    raw = d["goal"]
    try:
        children = d["children"]
        children = () if children == [] else tuple(
            [_decode(c, table, table is not None) for c in children])
    except DECODE_ERRORS:
        tuple(map(_parse_goal, raw))  # a bad goal is reported first
        raise
    meta = d.get("meta", {})
    key = None
    if share and type(kind) is str:
        try:
            key = (kind, tuple(raw), tuple(map(id, children)), repr(meta))
            node = table.get(key)
        except (TypeError, ValueError, RecursionError):
            key = node = None
        if node is not None:
            return node
    node = Certificate(kind, tuple(map(_parse_goal, raw)), children, dict(meta))
    if key is not None:
        table[key] = node
    return node


# ---------------------------------------------------------------- leaves

def base_dominance(m, nu, arity=2):
    """Leaf for nu dominance-comparable to the staircase of m.

    With arity 2 the goal is (nu; rho_m, rho_m).  Larger arities pad with
    further staircase factors, justified because the staircase square
    contains the staircase itself.
    """
    rho = pt.staircase(m)
    if pt.size(nu) != pt.size(rho) or not pt.comparable(nu, rho):
        return None
    return Certificate(
        "DominanceStaircase", (tuple(nu),) + (rho,) * arity, meta={"m": m}
    )


def base_hook(m, nu):
    """Leaf for a hook target inside a staircase square."""
    rho = pt.staircase(m)
    if pt.size(nu) != pt.size(rho) or not pt.is_hook(nu):
        return None
    return Certificate("Hook", (tuple(nu), rho, rho), meta={"m": m})


def base_generalized_dominance(mu, nu):
    """Leaf for nu dominating a strictly-decreasing mu: (nu; mu, mu), with
    a column-distinct filling as its witness when one is found."""
    mu, nu = tuple(mu), tuple(nu)
    if pt.size(mu) != pt.size(nu):
        return None
    if not pt.has_distinct_rows(mu) or not pt.dominates(nu, mu):
        return None
    meta = {}
    filling = column_distinct_filling(mu, nu)
    if filling is not None:
        meta["filling"] = filling
    return Certificate("GeneralizedDominance", (nu, mu, mu), meta=meta)


def base_symmetric_cube(mu):
    """Leaf (mu; mu, mu, mu): mu's tensor square contains the trivial
    representation, so its tensor cube contains mu."""
    mu = tuple(mu)
    return Certificate("SymmetricCube", (mu, mu, mu, mu))


def base_oracle(goal, ceiling=ch.DEFAULT_ORACLE_CEILING):
    """Leaf established by the character oracle."""
    goal = tuple(tuple(g) for g in goal)
    coeff = ch.multi_kronecker(goal, ceiling=ceiling)
    if coeff <= 0:
        return None
    return Certificate("OracleLeaf", goal, meta={"coefficient": str(coeff)})


def column_distinct_filling(mu, nu):
    """Distribute the rows of mu over the columns of nu, one label per
    column at most once.  Returns label -> column list, or None."""
    heights = list(pt.conjugate(nu))  # descending column heights
    demand = list(heights)
    cols_by_label = []
    for k, cap in enumerate(mu):
        # place label k in the `cap` columns with largest remaining demand
        order = sorted(range(len(demand)), key=lambda c: (-demand[c], c))
        chosen = [c for c in order if demand[c] > 0][:cap]
        if len(chosen) < cap:
            return None
        for c in chosen:
            demand[c] -= 1
        cols_by_label.append(sorted(chosen))
    if any(demand):
        return None
    return cols_by_label


# ----------------------------------------------------------- combinators

def _check_same_arity(a, b):
    if len(a.goal) != len(b.goal):
        raise ValueError("certificate arity mismatch")


def combine_h(a, b):
    """Coordinatewise horizontal sum of two goals (semigroup property)."""
    _check_same_arity(a, b)
    goal = tuple(pt.hsum(x, y) for x, y in zip(a.goal, b.goal))
    return Certificate("HSum", goal, (a, b))


def combine_vvh(a, b, vertical):
    """Combine with vertical sums on an even set of coordinates.

    Coordinates listed in `vertical` are added vertically, the rest
    horizontally; an odd vertical set is rejected (the all-vertical triple
    of single boxes is the standard counterexample).
    """
    _check_same_arity(a, b)
    vertical = sorted(set(int(v) for v in vertical))
    if len(vertical) % 2 != 0:
        raise ValueError("vertical coordinate set must have even size")
    if vertical and (vertical[0] < 0 or vertical[-1] >= len(a.goal)):
        raise ValueError("vertical coordinate out of range")
    goal = tuple(
        pt.vsum(x, y) if i in vertical else pt.hsum(x, y)
        for i, (x, y) in enumerate(zip(a.goal, b.goal))
    )
    return Certificate("VVHSum", goal, (a, b), meta={"vertical": vertical})


def fold_certs(recipe, certs):
    """Join the certificates of a split recipe's pieces, given in
    `pt.recipe_sides` order: H nodes by combine_h, V nodes by combine_vvh
    on the two factors.  A None certificate (an empty piece) is left out."""
    it = iter(certs)
    return pt.fold(recipe, lambda s: next(it), combine_h,
                   lambda a, b: combine_vvh(a, b, (1, 2)))


def conjugate_cert(a, coords):
    """Conjugate an even subset of coordinates."""
    coords = sorted(set(int(c) for c in coords))
    if len(coords) % 2 != 0:
        raise ValueError("conjugated coordinate set must have even size")
    goal = tuple(
        pt.conjugate(p) if i in coords else p for i, p in enumerate(a.goal)
    )
    return Certificate("Conjugate", goal, (a,), meta={"coords": coords})

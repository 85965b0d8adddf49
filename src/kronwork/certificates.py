"""Positivity certificates: tree construction, combination, serialization.

A certificate proves that the tensor product of the factor shapes contains
the target shape.  Goals are tuples of partitions with the target at
coordinate 0.  LEAF_KINDS and INNER_KINDS are every kind the builders here
make and the verifier accepts.
"""

import json
import sys
from array import array
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
# Below the roots, a decode parses through its table's own dict instead.
_parse_goal_text = lru_cache(maxsize=256)(pt.parse_partition)

# json.loads less its encoding detection, which a log of UTF-8 lines does
# not need: 0.5 us a line
_decoder = json.JSONDecoder()


def _json(text):
    """_decoder.decode(text), less its two whitespace matches on a line
    that starts with an object: the decoder's own scan at 0, accepted only
    if JSON whitespace alone follows.  Any other text, and a scan that finds
    no value (StopIteration, which decode turns into its own error), go to
    decode; any other error is the one decode raises from the same scan."""
    if type(text) is str and text[:1] == "{":
        try:
            d, end = _decoder.scan_once(text, 0)
        except StopIteration:
            pass
        else:
            if not text[end:].strip(" \t\n\r"):
                return d
    return _decoder.decode(text)


class _Goals(dict):
    """Goal text -> partition, each text parsed once; errors are not kept."""

    def __missing__(self, text):
        goal = self[text] = pt.parse_partition(text)
        return goal


def _node_json(c, child):
    """The JSON object of node c, with child(k) for each child k."""
    return {"kind": c.kind, "goal": [pt.format_partition(p) for p in c.goal],
            "children": [child(k) for k in c.children], "meta": c.meta}


class Table:
    """What one read of a certificate log keeps, for its later lines and
    for the lines appended after it.  The table numbers the log's lines:
    each line read with it (`Certificate.from_json`) or written with it
    (`Certificate.to_json`) is the next one.

    A log holds one certificate JSON per line.  Below the root, a child may
    be a reference [line, index] instead of a node: the index-th inline
    non-root node, in post-order, of the earlier line numbered `line`.
    Lines are numbered from 1 and every line counts, one that is cut or
    does not decode too.  A line with no reference is a plain certificate.

    - nodes: the content key (`node`) of each non-root node decoded or
      interned to the node, so that each content is one object;
    - parse: the partition of a goal string below a root, each string
      parsed once.  A root's strings go through a bounded cache instead:
      its target is that of no other line, and keeping the targets raised
      the peak RSS of a warm m=9 read from 59 to 84 MB;
    - inline: the inline non-root nodes of the lines read and written, in
      order; line L holds those from ends[L - 1] to ends[L], none if it did
      not decode, and the next line is line len(ends).  These are what
      references resolve to;
    - canon: the one copy of each factor (the goal past its target) of the
      nodes the table made, and of each of their metas, by its repr;
    - refs: the first (line, index) of each node in `inline`, by id, for
      lines 1 to `indexed`, which `encode` brings up to the last line.
      `inline` keeps the nodes, so their ids are not reused.
    """

    def __init__(self):
        self.nodes = {}
        self.parse = _Goals().__getitem__
        self.inline = []
        self.ends = array("q", [0])
        self.canon = {}
        self.refs = {}
        self.indexed = 0

    def resolve(self, ref):
        """The node the reference ref names, on a line read before; a
        ValueError if there is none."""
        if len(ref) == 2 and type(ref[0]) is int and type(ref[1]) is int:
            line, i = ref
            if 0 < line < len(self.ends) and 0 <= i < self.ends[line] - self.ends[line - 1]:
                return self.inline[self.ends[line - 1] + i]
        raise ValueError("%.40r names no node of an earlier line" % (ref,))

    def _factors(self, goal):
        """goal with the table's one copy of each factor."""
        canon = self.canon
        return goal[:1] + tuple([canon.setdefault(p, p) for p in goal[1:]])

    def node(self, kind, goal, children, meta):
        """The table's node of this content, else a new one, kept: made of
        the table's one copy of each factor and of the meta.

        The content key is kind, goal, the children by identity (they are
        the table's already) and the meta by its repr, which tells apart
        what == does not (1, 1.0 and true; -0.0 and 0.0; the order of keys)
        and is exact for the values JSON decodes to.  A verifier memo that
        trusts a node by identity (`verify_certificate`) is therefore sound
        over the table's nodes, as two nodes that differ in any field are
        two objects.  A node whose kind is not a string, or whose meta has
        no repr, is made unshared.  The keys of the new nodes share one
        string for each repr of a meta (`sys.intern`).
        """
        try:
            key = type(kind) is str and (kind, goal, tuple(map(id, children)), repr(meta))
        except (ValueError, RecursionError):
            key = None
        if not key:
            return Certificate(kind, goal, children, meta)
        node = self.nodes.get(key)
        if node is None:
            text, goal = sys.intern(key[3]), self._factors(goal)
            node = self.nodes[kind, goal, key[2], text] = Certificate(
                kind, goal, children, self.canon.setdefault(text, meta))
        return node

    def intern(self, cert):
        """A certificate == cert whose non-root nodes are the table's
        (`node`); its root keeps its target and takes the table's copy of
        each factor."""
        def share(c):
            return self.node(c.kind, c.goal, tuple(map(share, c.children)), c.meta)

        return Certificate(cert.kind, self._factors(cert.goal),
                           tuple(map(share, cert.children)), cert.meta)

    def decode(self, text):
        """The certificate of text, str or UTF-8 bytes, as the log's next
        line (`Certificate.from_json`).  A line that does not decode still
        counts, and holds no node."""
        try:
            return _decode(_json(text.decode() if type(text) is bytes else text), self, False)
        except DECODE_ERRORS:
            del self.inline[self.ends[-1]:]
            raise
        finally:
            self.ends.append(len(self.inline))

    def encode(self, cert):
        """The JSON text of cert as the log's next line.

        Each non-root node that an earlier line holds in full, the same
        object, is written as a reference to the first place it was written
        in full, and every other node in full, in post-order positions that
        later lines may refer to.  A certificate interned into the table
        (`intern`) therefore gets a reference for each node whose content an
        earlier line holds.  Expanding the references gives `cert.to_json()`.
        A cert that does not encode takes no line.
        """
        refs, inline, ends = self.refs, self.inline, self.ends
        for line in range(self.indexed + 1, len(ends)):
            for i, node in enumerate(inline[ends[line - 1]:ends[line]]):
                refs.setdefault(id(node), (line, i))
        self.indexed = len(ends) - 1
        full = []

        def emit(c):
            # c's JSON value: a reference, or c in full
            ref = refs.get(id(c))
            if ref is not None:
                return ref
            doc = _node_json(c, emit)
            full.append(c)
            return doc

        text = json.dumps(_node_json(cert, emit))
        inline.extend(full)
        ends.append(len(inline))
        return text


_FRESH_META = object()  # meta omitted: each node gets its own {}
_set_field = object.__setattr__


class Certificate:
    """A node of a certificate: its kind, goal, children and meta.

    Frozen: assigning or deleting a field raises AttributeError, which the
    verifier's memo by identity relies on.  Two nodes are == when their
    class and fields are; a node is unhashable, as meta is a dict.  A meta
    passed in, None too, is kept as given, for the verifier to judge.
    """

    __slots__ = ("kind", "goal", "children", "meta")

    def __init__(self, kind, goal, children=(), meta=_FRESH_META):
        _set_field(self, "kind", kind)
        _set_field(self, "goal", goal)
        _set_field(self, "children", children)
        _set_field(self, "meta", {} if meta is _FRESH_META else meta)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.goal, self.children, self.meta)
                == (other.kind, other.goal, other.children, other.meta))

    __hash__ = None

    def __repr__(self):
        return "%s(kind=%r, goal=%r, children=%r, meta=%r)" % (
            self.__class__.__qualname__, self.kind, self.goal, self.children, self.meta)

    def __reduce__(self):
        # pickle through the constructor, as the fields cannot be set after it
        return (self.__class__, (self.kind, self.goal, self.children, self.meta))

    def to_dict(self):
        return _node_json(self, Certificate.to_dict)

    def to_json(self, table=None):
        """The certificate as JSON text, as the next line of the table's
        log (`Table.encode`).  Without a table it is the first line of a
        fresh one, which writes every node in full: json.dumps(to_dict())."""
        return (Table() if table is None else table).encode(self)

    @staticmethod
    def from_json(text, table=None):
        """Decode a certificate from JSON text, str or UTF-8 bytes, as the
        next line of the table's log (`Table.decode`); without a table, as
        the first line of a fresh one.

        Each reference resolves to the node it names, and a malformed one
        is a ValueError: on a first line every reference is.  Every non-root
        node is the table's node of its content (`Table.node`), so equal
        subtrees below the root, on this line or an earlier one, are one
        object.  A table the caller keeps across calls holds every distinct
        sub-certificate while it lives.  A line that does not decode still
        counts: the next line keeps its number.
        """
        return (Table() if table is None else table).decode(text)

    def leaves(self):
        if not self.children:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def leaf_kinds(self):
        return {leaf.kind for leaf in self.leaves()}


def _decode(d, table, below):
    """The certificate of the JSON object d, a line of the table's log or,
    with `below` set, a node below its root.  A child may be a reference.
    A node below the root is the table's node of its content (`Table.node`),
    its goal strings are parsed through the table, and it is appended to
    the table's inline nodes; a root is a new node.

    The fields are read in the order kind, goal, children, meta, so a bad
    goal is reported before any error below it.  The node's meta is
    dict(meta).
    """
    kind = d["kind"]
    raw = d["goal"]
    try:
        goal = tuple(map(table.parse if below else _parse_goal_text, raw))
    except TypeError:  # an unhashable entry: raised as the parser raises it
        goal = tuple(map(pt.parse_partition, raw))
    children = d["children"]
    if children == []:
        children = ()
    else:
        children = tuple([table.resolve(c) if type(c) is list
                          else _decode(c, table, True) for c in children])
    meta = dict(d.get("meta", {}))
    if not below:
        return Certificate(kind, goal, children, meta)
    node = table.node(kind, goal, children, meta)
    table.inline.append(node)
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


def base_oracle(goal):
    """Leaf established by the character oracle."""
    goal = tuple(tuple(g) for g in goal)
    coeff = ch.multi_kronecker(goal)
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

"""An independent reading of the saxl certificate log, for the tests.

A line is a certificate JSON in which a child may be a reference
[line, index]: the index-th inline non-root node, in post-order, of an
earlier line, the first line being 1.
"""

import json


def expand(lines):
    """Each line as a certificate document with its references inlined, or
    None for a line that is not one."""
    inline, out = {}, []
    for number, line in enumerate(lines, 1):
        nodes = []

        def walk(node):
            if type(node) is list:
                at, i = node
                if not (type(at) is int and type(i) is int and 0 <= i < len(inline[at])):
                    raise ValueError(node)
                return inline[at][i]
            node["children"] = [walk(c) for c in node["children"]]
            nodes.append(node)
            return node

        try:
            doc = json.loads(line)
            doc["children"] = [walk(c) for c in doc["children"]]
        except (KeyError, TypeError, ValueError, RecursionError):
            out.append(None)
            continue
        inline[number] = nodes
        out.append(doc)
    return out


def expanded_bytes(log):
    """The log with every reference inlined: the bytes a writer without
    references would have written, unreadable lines left out."""
    return b"".join(json.dumps(doc).encode() + b"\n"
                    for doc in expand(log.splitlines()) if doc is not None)


def inline_nodes(doc):
    """The inline non-root nodes of a line's document, in post-order: what
    the references to that line count."""
    out = []

    def walk(node):
        if type(node) is dict:
            for child in node["children"]:
                walk(child)
            out.append(node)

    for child in doc["children"]:
        walk(child)
    return out


def references(doc):
    """(children, index) of each reference in a line's document."""
    out, todo = [], [doc]
    while todo:
        node = todo.pop()
        for i, child in enumerate(node["children"]):
            if type(child) is list:
                out.append((node["children"], i))
            else:
                todo.append(child)
    return out

"""Recursive reference walks of a unit tree, and small random trees.

The package walks a tree with explicit stacks (``Node.walk`` and
``Node.walk_edges``), so that a tree of any depth can be walked.  The
references here recurse, the way the definitions read, so they serve only
for trees well inside the recursion limit.  ``equivalent`` is the
child-by-child comparison that ``trees_equivalent`` once was.
"""

from __future__ import annotations

from hypothesis import strategies as st

from ncgkit import Node, Predicate

LABELS = ["a", "b"]
PREDICATES = ["p", "q"]


def nodes_preorder(node: Node) -> list[Node]:
    out = [node]
    for _, child in node.edges:
        if isinstance(child, Node):
            out.extend(nodes_preorder(child))
    return out


def edges_preorder(node: Node, depth: int = 0) -> list[tuple]:
    out = []
    for predicate, child in node.edges:
        out.append((depth, node, predicate, child))
        if isinstance(child, Node):
            out.extend(edges_preorder(child, depth + 1))
    return out


def flattened_keys(node: Node) -> list[tuple[str, str, str]]:
    return [(parent.label, predicate.text,
             child.label if isinstance(child, Node) else child)
            for _, parent, predicate, child in edges_preorder(node) if child is not None]


def equivalent(x: Node | str, y: Node | str) -> bool:
    """Equal labels, and pairwise equivalent content edges; a literal has none."""
    x_label = x.label if isinstance(x, Node) else x
    y_label = y.label if isinstance(y, Node) else y
    if x_label != y_label:
        return False
    x_edges = [(p, c) for p, c in x.edges if c is not None] if isinstance(x, Node) else []
    y_edges = [(p, c) for p, c in y.edges if c is not None] if isinstance(y, Node) else []
    return len(x_edges) == len(y_edges) and all(
        px.text == py.text and equivalent(cx, cy)
        for (px, cx), (py, cy) in zip(x_edges, y_edges))


@st.composite
def small_trees(draw, max_depth: int = 4, max_fanout: int = 3) -> Node:
    """Trees over two labels and two predicates, with provenance, literal
    children and dangling edges, so that equal shapes are common."""

    def build(depth: int) -> Node:
        node = Node(draw(st.sampled_from(LABELS)),
                    provenance=draw(st.lists(st.sampled_from(["s1", "s2"]), max_size=1)))
        fanout = draw(st.integers(0, max_fanout)) if depth < max_depth else 0
        for _ in range(fanout):
            predicate = Predicate(draw(st.sampled_from(PREDICATES)))
            kind = draw(st.sampled_from(["node", "literal", "dangling"]))
            if kind == "node":
                node.add(predicate, build(depth + 1))
            elif kind == "literal":
                node.add(predicate, draw(st.sampled_from(LABELS)))
            else:
                node.add(predicate, None)
        return node

    return build(0)


def equivalent_variant(node: Node, draw) -> Node:
    """A copy that differs from ``node`` only where equivalence looks away:
    other provenance, dangling edges added or dropped, and a childless node
    and a literal of the same label swapped."""
    copy = Node(node.label, provenance=draw(st.lists(st.sampled_from(["s3"]), max_size=1)))
    for predicate, child in node.edges:
        if draw(st.booleans()):
            copy.add(Predicate(draw(st.sampled_from(PREDICATES))), None)
        if child is None:
            if draw(st.booleans()):
                copy.add(predicate, None)
        elif isinstance(child, str):
            copy.add(predicate, Node(child) if draw(st.booleans()) else child)
        elif all(c is None for _, c in child.edges) and draw(st.booleans()):
            copy.add(predicate, child.label)
        else:
            copy.add(predicate, equivalent_variant(child, draw))
    return copy

"""Conversion between nested unit trees and flat triple lists.

``flatten`` emits one triple per content edge, in the pre-order of
:meth:`~ncgkit.model.Node.walk_edges`; ``nest`` rebuilds the unique tree a
triple list describes.  Neither recurses, so a tree or a triple chain of
any depth converts.  Provenance and dangling predicates exist only on the
tree side, so round-trip equality is defined modulo both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotATree
from .model import CONTRIBUTION, Node, PaperAnnotation, Triple, UnitLabel, UnitTree


@dataclass
class FlattenedUnit:
    """Triples of one unit in emission order.

    For a well-formed tree the first triple is (Contribution, has, <unit>).
    """

    unit: UnitLabel
    triples: list[Triple] = field(default_factory=list)


def flatten(tree: UnitTree) -> FlattenedUnit:
    """Emit the tree's edges as triples, pre-order.

    Each edge (node, predicate, child) becomes (node.label, predicate,
    child label or literal).  The Contribution root's own edge comes first,
    so a well-formed unit starts with (Contribution, has, <unit name>).
    Provenance entries and empty-valued (dangling) predicates emit nothing;
    :func:`~ncgkit.corpus_io.parse_unit_file` reports the latter.  Duplicate
    triples are kept, never silently merged;
    :func:`~ncgkit.validate.validate_paper` reports them.

    Labels and literals are canonical and non-empty by the :class:`Node`
    invariant, so the triples are built from them unchecked; only an empty
    predicate text raises ValueError, as :class:`Triple` does.
    """
    out = FlattenedUnit(tree.unit)
    emit = out.triples.append
    triple = Triple._from_canonical
    for _, node, predicate, child in tree.root.walk_edges():
        if child is None:
            continue
        obj = child.label if isinstance(child, Node) else child
        if not predicate.text:
            raise ValueError(f"empty triple field in ({node.label!r}, "
                             f"{predicate.text!r}, {obj!r})")
        emit(triple(node.label, predicate, obj))
    return out


def unit_triples(paper: PaperAnnotation) -> dict[UnitLabel, list[Triple]]:
    """Each unit of ``paper.units`` or ``paper.triples`` in identifier order,
    with its stored triples, or its tree flattened where the map lacks the
    unit (a tree built in memory).  The keys are the one list of a paper's units."""
    stored = paper.triples or {}
    units = paper.units or {}
    return {unit: stored[unit] if unit in stored else flatten(units[unit]).triples
            for unit in sorted(stored.keys() | units.keys(), key=lambda u: u.identifier)}


def nest(triples: list[Triple], unit: UnitLabel) -> UnitTree:
    """Rebuild the unique tree whose flatten() output is set-equal to ``triples``.

    Triples are interpreted as labeled edges rooted at Contribution: every
    subject except Contribution must first appear as the object of an earlier
    triple, and no label may be the object of two distinct triples.  Objects
    that never occur as subjects become literals.  Exact duplicate triples
    collapse (set semantics); edge order follows first appearance.

    Raises:
        NotATree: orphan subject, cycle, or a label repeated as object.
    """
    subjects = {t.subject for t in triples}
    nodes: dict[str, Node] = {CONTRIBUTION: Node(CONTRIBUTION)}
    seen: set[tuple[str, str, str]] = set()

    for triple in triples:
        key = triple.key()
        if key in seen:
            continue
        seen.add(key)
        subj, pred_text, obj = key
        if subj == obj:
            raise NotATree(f"self loop on {subj!r}")
        if obj == CONTRIBUTION:
            raise NotATree("Contribution cannot be an object")
        if subj not in nodes:
            raise NotATree(f"orphan subject {subj!r}: never introduced as an object")
        parent = nodes[subj]
        # Objects reused as subjects are internal nodes; so are the unit
        # heads hanging directly off Contribution.  Everything else is a leaf
        # literal, the two being indistinguishable in triple form.
        if obj in subjects or subj == CONTRIBUTION:
            # ``nodes`` holds every object node so far, and Contribution
            # was refused as an object above
            if obj in nodes:
                raise NotATree(f"label {obj!r} used as object more than once")
            child = nodes[obj] = Node(obj)
            parent.add(triple.predicate, child)
        else:
            parent.add(triple.predicate, obj)

    return UnitTree(unit, nodes[CONTRIBUTION])


def trees_equivalent(a: Node, b: Node) -> bool:
    """Structural equality ignoring provenance and dangling predicates.

    A childless node and a literal with the same label compare equal; the
    triple representation cannot tell them apart.  Below its root label, a tree
    is the pre-order (depth, predicate text, child label) of its content edges.
    """
    def shape(root: Node) -> list[tuple[int, str, str]]:
        return [(depth, predicate.text, child.label if isinstance(child, Node) else child)
                for depth, _, predicate, child in root.walk_edges() if child is not None]

    return a.label == b.label and shape(a) == shape(b)


def roundtrip_check(tree: UnitTree) -> bool:
    """True iff nest(flatten(tree)) reproduces the tree.

    Equality is modulo provenance and dangling predicates, neither of which
    is representable in triples.
    """
    try:
        rebuilt = nest(flatten(tree).triples, tree.unit)
    except NotATree:
        return False
    return trees_equivalent(tree.root, rebuilt.root)

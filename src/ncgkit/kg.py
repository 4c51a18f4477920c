"""In-memory knowledge graph over a corpus, with N-Triples export.

Node URIs are coined deterministically from (paper, unit, path-from-root),
so identical surface forms in different papers stay distinct by default;
surface merging is an explicit opt-in for cross-paper aggregation.  The
export is lexicographically sorted, making regeneration byte-stable.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from urllib.parse import quote, unquote

from .errors import UnknownStartNode
from .model import CONTRIBUTION, Corpus, Node, UnitLabel, canonical_text

RESOURCE = "Resource"
LITERAL = "Literal"

#: Fixed predicate attaching surface labels to coined resources.
LABEL_PREDICATE = "ncg:pred/label"

PER_PAPER = "per-paper"
SURFACE_MERGE = "surface"


def _hash_slug(parts: tuple[str, ...]) -> str:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def coin_uri(paper_id: str, unit: UnitLabel | None, path: tuple[str, ...]) -> str:
    """Deterministic URI for a node position.

    ``path`` is the alternating predicate/label path from the Contribution
    root.  The scheme is ``ncg:<paper>/<unit>/<slug-of-path-hash>`` with the
    slug a lowercase-hex hash, so distinct paths coin distinct URIs.
    """
    unit_part = unit.identifier if unit is not None else "-"
    return f"ncg:{quote(paper_id, safe='')}/{unit_part}/{_hash_slug(path)}"


def _root_uri(paper_id: str) -> str:
    return f"ncg:{quote(paper_id, safe='')}/{CONTRIBUTION}"


@dataclass
class GraphNode:
    uri: str
    label: str
    kind: str
    origin: tuple[str, str | None, tuple[str, ...]] | None = None


@dataclass
class Graph:
    """Nodes plus ordered, de-duplicated labeled edges.

    ``edges`` holds (subject uri, predicate text, object uri) in insertion
    order; ``roots`` maps each paper to its Contribution node.
    """

    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    roots: dict[str, GraphNode] = field(default_factory=dict)
    _edge_set: set[tuple[str, str, str]] = field(default_factory=set, repr=False)
    _adjacency: dict[str, list[tuple[str, str]]] = field(default_factory=dict, repr=False)

    def ensure_node(self, uri: str, label: str, kind: str,
                    origin=None) -> GraphNode:
        node = self.nodes.get(uri)
        if node is None:
            node = GraphNode(uri, label, kind, origin)
            self.nodes[uri] = node
        elif kind == RESOURCE and node.kind == LITERAL:
            node.kind = RESOURCE
        return node

    def add_edge(self, subject_uri: str, predicate_text: str, object_uri: str) -> None:
        key = (subject_uri, predicate_text, object_uri)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self.edges.append(key)
        self._adjacency.setdefault(subject_uri, []).append((predicate_text, object_uri))

    def outgoing(self, uri: str) -> list[tuple[str, str]]:
        return self._adjacency.get(uri, [])


def build_graph(corpus: Corpus, merge: str = PER_PAPER) -> Graph:
    """Merge every paper's unit trees into one graph.

    ``per-paper`` (default): node identity is (paper, unit, tree path).
    ``surface``: nodes with equal canonical labels merge globally, except
    each paper's Contribution root, which stays distinct so per-paper
    subgraphs remain addressable.
    """
    if merge not in (PER_PAPER, SURFACE_MERGE):
        raise ValueError(f"merge must be {PER_PAPER!r} or {SURFACE_MERGE!r}")
    graph = Graph()
    for paper in corpus.papers():
        root = graph.ensure_node(_root_uri(paper.paper_id), CONTRIBUTION,
                                 RESOURCE, (paper.paper_id, None, ()))
        graph.roots[paper.paper_id] = root
        units = paper.units or {}
        for unit in sorted(units, key=lambda u: u.identifier):
            _add_tree(graph, paper.paper_id, unit, units[unit].root,
                      root.uri, (), merge)
    return graph


def _add_tree(graph: Graph, paper_id: str, unit: UnitLabel, node: Node,
              node_uri: str, path: tuple[str, ...], merge: str) -> None:
    for predicate, child in node.edges:
        if child is None:
            continue
        if isinstance(child, Node):
            label, is_node = canonical_text(child.label), True
        else:
            label, is_node = canonical_text(child), False
            if not label:
                continue
        child_path = path + (predicate.text, label)
        if merge == SURFACE_MERGE:
            child_uri = f"ncg:shared/{_hash_slug((label,))}"
        else:
            child_uri = coin_uri(paper_id, unit, child_path)
        graph.ensure_node(child_uri, label, RESOURCE if is_node else LITERAL,
                          (paper_id, unit.identifier, child_path))
        graph.add_edge(node_uri, predicate.text, child_uri)
        if is_node:
            _add_tree(graph, paper_id, unit, child, child_uri, child_path, merge)


# ---------------------------------------------------------------------------
# N-Triples export / import


def _slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug or "p"


def _predicate_uris(graph: Graph) -> dict[str, str]:
    """Per-graph coined URIs for predicate texts, collision-suffixed."""
    out: dict[str, str] = {}
    taken = {"label"}
    for text in sorted({p for _, p, _ in graph.edges}):
        slug = _slugify(text)
        candidate = slug
        counter = 2
        while candidate in taken:
            candidate = f"{slug}-{counter}"
            counter += 1
        taken.add(candidate)
        out[text] = f"ncg:pred/{candidate}"
    return out


def _escape_literal(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


#: N-Triples ECHAR escapes (W3C N-Triples grammar, production ECHAR).
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}
_ECHAR_RE = re.compile(r"\\([tbnrf\"'\\])")


def _unescape_literal(text: str) -> str:
    """Undo every ECHAR escape in one left-to-right pass."""
    if "\\" not in text:
        return text
    return _ECHAR_RE.sub(lambda m: _ECHAR[m.group(1)], text)


def export_ntriples(graph: Graph) -> str:
    """Serialize the graph as sorted N-Triples (UTF-8, LF).

    One statement per edge; literal objects are inlined as quoted strings;
    every resource (and every coined predicate) gets a label statement via
    the fixed label predicate.  An empty graph serializes to the empty
    string.
    """
    if not graph.edges and not graph.nodes:
        return ""
    predicate_uris = _predicate_uris(graph)
    lines = set()
    for subject, predicate, obj in graph.edges:
        obj_node = graph.nodes[obj]
        if obj_node.kind == LITERAL:
            rendered = _escape_literal(obj_node.label)
        else:
            rendered = f"<{obj}>"
        lines.add(f"<{subject}> <{predicate_uris[predicate]}> {rendered} .")
    for node in graph.nodes.values():
        if node.kind == RESOURCE:
            lines.add(f"<{node.uri}> <{LABEL_PREDICATE}> {_escape_literal(node.label)} .")
    for text, uri in predicate_uris.items():
        lines.add(f"<{uri}> <{LABEL_PREDICATE}> {_escape_literal(text)} .")
    header = (f"# ncgkit knowledge-graph export; namespace prefix 'ncg:'; "
              f"labels attached via <{LABEL_PREDICATE}>\n")
    return header + "\n".join(sorted(lines)) + "\n"


_LINE_RE = re.compile(
    r'^<([^>]+)> <([^>]+)> (?:<([^>]+)>|"((?:[^"\\]|\\.)*)") \.$')


def import_ntriples(text: str) -> Graph:
    """Parse the export subset back into a Graph.

    Label statements restore node and predicate surface labels; quoted
    objects become literal nodes with minted URIs.  Statement order in the
    rebuilt graph is the file's line order.

    Raises:
        ValueError: a line that is not a statement of the export subset;
            the message starts with ``line <n>:``.
    """
    raw_edges: list[tuple[str, str, str | None, str | None]] = []
    labels: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not an N-Triples statement: {line!r}")
        subject, predicate, obj_uri, obj_literal = match.groups()
        if predicate == LABEL_PREDICATE:
            labels[subject] = _unescape_literal(obj_literal or "")
        else:
            raw_edges.append((subject, predicate, obj_uri,
                              None if obj_literal is None else _unescape_literal(obj_literal)))

    graph = Graph()
    for subject, predicate, obj_uri, obj_literal in raw_edges:
        pred_text = labels.get(predicate, predicate)
        graph.ensure_node(subject, labels.get(subject, subject), RESOURCE)
        if obj_uri is not None:
            graph.ensure_node(obj_uri, labels.get(obj_uri, obj_uri), RESOURCE)
            target = obj_uri
        else:
            target = f"ncg:lit/{_hash_slug((subject, pred_text, obj_literal))}"
            graph.ensure_node(target, obj_literal, LITERAL)
        graph.add_edge(subject, pred_text, target)
    for uri, node in graph.nodes.items():
        match = re.match(r"^ncg:(.+)/Contribution$", uri)
        if match and node.label == CONTRIBUTION:
            graph.roots[unquote(match.group(1))] = node
    return graph


def edge_signature(graph: Graph) -> list[tuple[str, str, str, str]]:
    """Label-level view of the edges, for isomorphism comparisons."""
    sig = []
    for subject, predicate, obj in graph.edges:
        sig.append((graph.nodes[subject].label, predicate,
                    graph.nodes[obj].label, graph.nodes[obj].kind))
    return sorted(sig)


# ---------------------------------------------------------------------------
# traversal


def traverse(graph: Graph, paper_id: str, start_label: str,
             max_depth: int) -> list[tuple[tuple[str, ...], GraphNode]]:
    """Breadth-first descendants of a labeled node within a paper's subgraph.

    Returns (predicate path, node) pairs; the start node itself appears
    with the empty path, so depth 0 yields exactly one entry.

    Raises:
        UnknownStartNode: the paper or the label cannot be resolved.
    """
    root = graph.roots.get(paper_id)
    if root is None:
        raise UnknownStartNode(f"no paper {paper_id!r} in graph")
    target = canonical_text(start_label)
    start = None
    queue = [root.uri]
    seen = {root.uri}
    while queue:
        uri = queue.pop(0)
        node = graph.nodes[uri]
        if node.label == target:
            start = node
            break
        for _, obj in graph.outgoing(uri):
            if obj not in seen:
                seen.add(obj)
                queue.append(obj)
    if start is None:
        raise UnknownStartNode(
            f"label {start_label!r} not reachable in paper {paper_id!r}")

    results: list[tuple[tuple[str, ...], GraphNode]] = [((), start)]
    frontier: list[tuple[tuple[str, ...], str]] = [((), start.uri)]
    for _ in range(max_depth):
        advanced: list[tuple[tuple[str, ...], str]] = []
        for path, uri in frontier:
            for predicate, obj in graph.outgoing(uri):
                new_path = path + (predicate,)
                results.append((new_path, graph.nodes[obj]))
                advanced.append((new_path, obj))
        frontier = advanced
        if not frontier:
            break
    return results

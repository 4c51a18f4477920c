"""In-memory knowledge graph over a corpus, with N-Triples export.

Node URIs are coined deterministically from (paper, unit, path-from-root),
so identical surface forms in different papers stay distinct by default;
surface merging is an explicit opt-in for cross-paper aggregation.  Each
paper's Contribution root is ``ncg:<quoted paper id>/Contribution`` in every
merge mode, so a traversal finds it by that URI, in a built graph and in one
read back from N-Triples alike.  The export is lexicographically sorted,
making regeneration byte-stable.

The graph holds each fact once: a node's URI is one string, shared by the
``nodes`` key, the node and every edge tuple that touches it; each edge is
one ``(subject, predicate, object)`` tuple, shared by ``edges``, the
de-duplication set and the adjacency lists; and a label is the unit tree's
own string, not a copy.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from itertools import groupby
from urllib.parse import quote

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


def _uri_prefix(paper_id: str, unit: UnitLabel) -> str:
    """The per-paper URI of a node is this prefix plus the lowercase-hex
    :func:`_hash_slug` of its alternating predicate/label path from the
    Contribution root: ``ncg:<quoted paper>/<unit>/<slug>``."""
    return f"ncg:{quote(paper_id, safe='')}/{unit.identifier}/"


def _root_uri(paper_id: str) -> str:
    return f"ncg:{quote(paper_id, safe='')}/{CONTRIBUTION}"


@dataclass(slots=True)
class GraphNode:
    """One node: its URI, surface label and kind (RESOURCE or LITERAL).

    ``uri`` is the same string object as the node's key in ``Graph.nodes``
    and as its place in every edge tuple.
    """

    uri: str
    label: str
    kind: str


@dataclass
class Graph:
    """Nodes plus ordered, de-duplicated labeled edges.

    ``nodes`` maps each URI to its node, in insertion order.  ``edges``
    holds (subject uri, predicate text, object uri) tuples in insertion
    order; the same tuple objects fill the private de-duplication set and
    the per-subject adjacency lists, so an edge costs one tuple.  A paper's
    Contribution root is the node at the URI the scheme coins for it.
    """

    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    _edge_set: set[tuple[str, str, str]] = field(default_factory=set, repr=False)
    _adjacency: dict[str, list[tuple[str, str, str]]] = field(default_factory=dict,
                                                                repr=False)

    def ensure_node(self, uri: str, label: str, kind: str) -> GraphNode:
        """The node at ``uri``, added if new; a RESOURCE kind upgrades a LITERAL.

        Callers should use the returned node's ``uri``, the graph's own key
        string, rather than their argument.
        """
        node = self.nodes.get(uri)
        if node is None:
            node = GraphNode(uri, label, kind)
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
        out = self._adjacency.get(subject_uri)
        if out is None:
            self._adjacency[subject_uri] = [key]
        else:
            out.append(key)

    def outgoing(self, uri: str) -> list[tuple[str, str]]:
        """(predicate text, object uri) of each edge leaving ``uri``, in order."""
        return [(predicate, obj) for _, predicate, obj in self._adjacency.get(uri, ())]


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
    # surface mode: the URI of each label, hashed once per call
    shared_uris: dict[str, str] | None = {} if merge == SURFACE_MERGE else None
    for paper in corpus.papers():
        root = graph.ensure_node(_root_uri(paper.paper_id), CONTRIBUTION, RESOURCE)
        units = paper.units or {}
        for unit in sorted(units, key=lambda u: u.identifier):
            prefix = _uri_prefix(paper.paper_id, unit)
            parents = [(root.uri, ())]  # (uri, path) of the last node at each depth
            for depth, _, predicate, child in units[unit].root.walk_edges():
                if child is None:
                    continue
                node_uri, path = parents[depth]
                is_node = isinstance(child, Node)
                label = child.label if is_node else child
                child_path = path + (predicate.text, label)
                if shared_uris is None:
                    child_uri = prefix + _hash_slug(child_path)
                else:
                    child_uri = shared_uris.get(label)
                    if child_uri is None:
                        child_uri = shared_uris[label] = f"ncg:shared/{_hash_slug((label,))}"
                child_uri = graph.ensure_node(child_uri, label,
                                              RESOURCE if is_node else LITERAL).uri
                graph.add_edge(node_uri, predicate.text, child_uri)
                if is_node:
                    parents[depth + 1:] = [(child_uri, child_path)]
    return graph


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
    the fixed label predicate.  No line appears twice.  An empty graph
    serializes to the empty string.
    """
    if not graph.edges and not graph.nodes:
        return ""
    predicate_uris = _predicate_uris(graph)
    nodes = graph.nodes
    lines = []
    for subject, predicate, obj in graph.edges:
        obj_node = nodes[obj]
        if obj_node.kind == LITERAL:
            rendered = _escape_literal(obj_node.label)
        else:
            rendered = f"<{obj}>"
        lines.append(f"<{subject}> <{predicate_uris[predicate]}> {rendered} .")
    for node in nodes.values():
        if node.kind == RESOURCE:
            lines.append(f"<{node.uri}> <{LABEL_PREDICATE}> {_escape_literal(node.label)} .")
    for text, uri in predicate_uris.items():
        lines.append(f"<{uri}> <{LABEL_PREDICATE}> {_escape_literal(text)} .")
    lines.sort()
    header = (f"# ncgkit knowledge-graph export; namespace prefix 'ncg:'; "
              f"labels attached via <{LABEL_PREDICATE}>\n")
    # Edges are distinct, but a node coined by an imported file can have
    # the URI and label of a predicate, which repeats a label line.
    return header + "\n".join(line for line, _ in groupby(lines)) + "\n"


_LINE_RE = re.compile(
    r'^<([^>]+)> <([^>]+)> (?:<([^>]+)>|"([^"\\]*(?:\\.[^"\\]*)*)") \.$')

#: The line breaks of ``str.splitlines``.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: One match per line of ``str.splitlines`` in the same order, plus at most
#: one empty line at the end.
_SPLIT_LINES_RE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}]|\\Z)")


def import_ntriples(text: str) -> Graph:
    """Parse the export subset back into a Graph.

    Label statements restore node and predicate surface labels; quoted
    objects become literal nodes with minted URIs.  Statement order in the
    rebuilt graph is the file's line order.  Lines are those of
    ``str.splitlines``, read one at a time.

    Raises:
        ValueError: a line that is not a statement of the export subset;
            the message starts with ``line <n>:``.
    """
    raw_edges: list[tuple[str, str, str | None, str | None]] = []
    labels: dict[str, str] = {}
    uris: dict[str, str] = {}
    for lineno, raw in enumerate(_SPLIT_LINES_RE.finditer(text), 1):
        line = raw.group(1).strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not an N-Triples statement: {line!r}")
        subject, predicate, obj_uri, obj_literal = match.groups()
        if predicate == LABEL_PREDICATE:
            labels[subject] = _unescape_literal(obj_literal or "")
        else:
            # one string per URI, which the graph then keys its node by
            subject = uris.setdefault(subject, subject)
            predicate = uris.setdefault(predicate, predicate)
            if obj_uri is not None:
                obj_uri = uris.setdefault(obj_uri, obj_uri)
            raw_edges.append((subject, predicate, obj_uri,
                              None if obj_literal is None else _unescape_literal(obj_literal)))

    graph = Graph()
    for subject, predicate, obj_uri, obj_literal in raw_edges:
        pred_text = labels.get(predicate, predicate)
        subject = graph.ensure_node(subject, labels.get(subject, subject), RESOURCE).uri
        if obj_uri is not None:
            target = graph.ensure_node(obj_uri, labels.get(obj_uri, obj_uri), RESOURCE).uri
        else:
            target = graph.ensure_node(
                f"ncg:lit/{_hash_slug((subject, pred_text, obj_literal))}",
                obj_literal, LITERAL).uri
        graph.add_edge(subject, pred_text, target)
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
    root = graph.nodes.get(_root_uri(paper_id))
    if root is None:
        raise UnknownStartNode(f"no paper {paper_id!r} in graph")
    target = canonical_text(start_label)
    nodes, adjacency = graph.nodes, graph._adjacency
    start = None
    queue = [root.uri]
    seen = {root.uri}
    for uri in queue:  # the loop also visits what it appends
        node = nodes[uri]
        if node.label == target:
            start = node
            break
        for _, _, obj in adjacency.get(uri, ()):
            if obj not in seen:
                seen.add(obj)
                queue.append(obj)
    if start is None:
        raise UnknownStartNode(
            f"label {start_label!r} not reachable in paper {paper_id!r}")

    # each depth's entries follow the previous depth's in ``results``
    results: list[tuple[tuple[str, ...], GraphNode]] = [((), start)]
    level = 0
    for _ in range(max_depth):
        next_level = len(results)
        for i in range(level, next_level):
            path, node = results[i]
            for _, predicate, obj in adjacency.get(node.uri, ()):
                results.append((path + (predicate,), nodes[obj]))
        if len(results) == next_level:
            break
        level = next_level
    return results

"""In-memory knowledge graph over a corpus, with N-Triples export.

Node URIs are coined deterministically from (paper, unit, path-from-root),
so identical surface forms in different papers stay distinct by default;
surface merging is an explicit opt-in for cross-paper aggregation.  Each
paper's Contribution root is ``ncg:<quoted paper id>/Contribution`` in every
merge mode, so a traversal finds it by that URI, in a built graph and in one
read back from N-Triples alike.  The export is lexicographically sorted,
making regeneration byte-stable.

A graph stores its nodes and its edges, and nothing else: a node's URI is
one string, shared by the ``nodes`` key, the node and every edge tuple that
touches it; each edge is one ``(subject, predicate, object)`` tuple; and a
label is the unit tree's own string, not a copy.  A graph is read-only once
built: :func:`build_graph` and :func:`import_ntriples` fill its nodes and
edges through one node helper and one edge insertion, and its edge list
refuses every change afterwards.  So the adjacency that :func:`traverse`
follows, built from ``edges`` on the first traversal, cannot go stale.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from urllib.parse import quote

from .errors import UnknownStartNode
from .model import CONTRIBUTION, Node, PaperAnnotation, ReadOnlyList, UnitLabel, canonical_text

RESOURCE = "Resource"
LITERAL = "Literal"

#: Fixed predicate attaching surface labels to coined resources.
LABEL_PREDICATE = "ncg:pred/label"

PER_PAPER = "per-paper"
SURFACE_MERGE = "surface"


#: The separator of the parts :func:`_hash_slug` hashes.
_SEP = "\x1f"


def _hash_slug(parts: tuple[str, ...]) -> str:
    digest = hashlib.sha256(_SEP.join(parts).encode("utf-8")).hexdigest()
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


@dataclass(frozen=True)
class Graph:
    """Nodes plus ordered, de-duplicated labeled edges, read-only once built.

    ``nodes`` maps each URI to its node, in insertion order.  ``edges`` is
    a :class:`~ncgkit.model.ReadOnlyList` of (subject uri, predicate text,
    object uri) tuples in insertion order; other sequences are copied into
    one.  A paper's Contribution root is the node at the URI the scheme
    coins for it.  The per-subject adjacency that :func:`traverse` reads is
    a private cache of the same tuples, set on the first traversal.
    """

    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: ReadOnlyList = field(default_factory=ReadOnlyList)
    _adjacency: dict[str, list[tuple[str, str, str]]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.edges) is not ReadOnlyList:
            object.__setattr__(self, "edges", ReadOnlyList(self.edges))

    def _adjacent(self) -> dict[str, list[tuple[str, str, str]]]:
        """The edges leaving each subject, in order, built on first use."""
        if self._adjacency is None:
            adjacency: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
            for edge in self.edges:
                adjacency[edge[0]].append(edge)
            object.__setattr__(self, "_adjacency", adjacency)
        return self._adjacency


def _node(nodes: dict[str, GraphNode], uri: str, label: str, kind: str) -> GraphNode:
    """The node at ``uri``, added if new; a RESOURCE kind upgrades a LITERAL.
    Callers use its ``uri``, the graph's own key string, not their own."""
    node = nodes.get(uri)
    if node is None:
        node = nodes[uri] = GraphNode(uri, label, kind)
    elif kind == RESOURCE and node.kind == LITERAL:
        node.kind = RESOURCE
    return node


def _link(nodes: dict[str, GraphNode], edges: ReadOnlyList,
          seen: set[tuple[str, str, str]] | None, subject: str, predicate: str,
          uri: str, label: str, kind: str) -> str:
    """Add the edge from ``subject`` to the :func:`_node` at ``uri`` unless
    the graph has it already, and return the graph's own string for ``uri``.

    ``seen`` holds the edges added so far.  It is None where an object's
    URI names the whole edge, so that an edge is new exactly when its
    object node is.
    """
    count = len(nodes)
    uri = _node(nodes, uri, label, kind).uri
    edge = (subject, predicate, uri)
    if len(nodes) > count or seen is not None and edge not in seen:
        if seen is not None:
            seen.add(edge)
        list.append(edges, edge)
    return uri


def build_graph(papers: Iterable[PaperAnnotation], merge: str = PER_PAPER) -> Graph:
    """Merge the unit trees of ``papers``, a Corpus or any iterable of
    papers such as :func:`~ncgkit.corpus_io.iter_papers`, into one graph.

    ``per-paper`` (default): node identity is (paper, unit, tree path).  A
    node's URI is the slug of its whole path from the Contribution root,
    so it names its incoming edge too: a child URI seen before is an edge
    seen before, and this mode keeps no edge set.  One consequence: two
    paths whose 64-bit slugs collide share one node, and the second path's
    edge to it is dropped as a repeat.
    ``surface``: nodes with equal canonical labels merge globally, except
    each paper's Contribution root, which stays distinct so per-paper
    subgraphs remain addressable.  Its edges are de-duplicated by a set
    that lives only for the call.
    """
    if merge not in (PER_PAPER, SURFACE_MERGE):
        raise ValueError(f"merge must be {PER_PAPER!r} or {SURFACE_MERGE!r}")
    nodes: dict[str, GraphNode] = {}
    edges = ReadOnlyList()
    # surface mode: the URI of each label, hashed once per call, and the
    # edges added so far
    shared_uris: dict[str, str] = {}
    seen: set[tuple[str, str, str]] | None = set() if merge == SURFACE_MERGE else None
    for paper in papers:
        root = _node(nodes, _root_uri(paper.paper_id), CONTRIBUTION, RESOURCE)
        for unit, tree in (paper.units or {}).items():
            prefix = _uri_prefix(paper.paper_id, unit)
            # (uri, sha256 of the path) of the last node at each depth: a
            # child's path hash extends a copy of its parent's, which gives
            # the _hash_slug of the path in time linear in the depth
            parents = [(root.uri, hashlib.sha256())]
            for depth, _, predicate, child in tree.root.walk_edges():
                if child is None:
                    continue
                node_uri, path_hash = parents[depth]
                is_node = isinstance(child, Node)
                label = child.label if is_node else child
                if seen is None:
                    path_hash = path_hash.copy()
                    path_hash.update(f"{_SEP if depth else ''}{predicate.text}{_SEP}{label}"
                                     .encode("utf-8"))
                    child_uri = prefix + path_hash.hexdigest()[:16]
                else:
                    child_uri = shared_uris.get(label)
                    if child_uri is None:
                        child_uri = shared_uris[label] = f"ncg:shared/{_hash_slug((label,))}"
                child_uri = _link(nodes, edges, seen, node_uri, predicate.text, child_uri,
                                  label, RESOURCE if is_node else LITERAL)
                if is_node:
                    parents[depth + 1:] = [(child_uri, path_hash)]
    return Graph(nodes, edges)


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
#: A backslash and the character after it; a literal that ``_LINE_RE``
#: matches ends in no lone backslash.
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _echar(match: re.Match) -> str:
    char = _ECHAR.get(match.group(1))
    if char is None:
        raise ValueError(f"not an ECHAR escape: {match.group()!r}")
    return char


def _unescape_literal(text: str) -> str:
    """Undo every ECHAR escape in one left-to-right pass.

    Raises:
        ValueError: a backslash that starts no ECHAR escape, such as a
            UCHAR (``\\u0041``), which the export never writes.
    """
    if "\\" not in text:
        return text
    return _ESCAPE_RE.sub(_echar, text)


def _edge_lines(graph: Graph, predicate_uris: dict[str, str]):
    """The N-Triples line of each edge, in edge order."""
    nodes = graph.nodes
    for subject, predicate, obj in graph.edges:
        obj_node = nodes[obj]
        if obj_node.kind == LITERAL:
            rendered = _escape_literal(obj_node.label)
        else:
            rendered = f"<{obj}>"
        yield f"<{subject}> <{predicate_uris[predicate]}> {rendered} ."


def export_ntriples(graph: Graph) -> str:
    """Serialize the graph as sorted N-Triples (UTF-8, LF).

    One statement per edge; literal objects are inlined as quoted strings;
    every resource (and every coined predicate) gets a label statement via
    the fixed label predicate.  No line appears twice: a label line that
    repeats is written once.  An empty graph serializes to the empty
    string.

    Raises:
        ValueError: two edges write one line, as two literal nodes with
            one label under one subject and predicate do; the file could
            not give the graph back.
    """
    if not graph.edges and not graph.nodes:
        return ""
    predicate_uris = _predicate_uris(graph)
    lines = list(_edge_lines(graph, predicate_uris))
    for node in graph.nodes.values():
        if node.kind == RESOURCE:
            lines.append(f"<{node.uri}> <{LABEL_PREDICATE}> {_escape_literal(node.label)} .")
    for text, uri in predicate_uris.items():
        lines.append(f"<{uri}> <{LABEL_PREDICATE}> {_escape_literal(text)} .")
    lines.sort()
    header = (f"# ncgkit knowledge-graph export; namespace prefix 'ncg:'; "
              f"labels attached via <{LABEL_PREDICATE}>")
    # A node coined by an imported file can have the URI and label of a
    # predicate, which repeats a label line.  One join writes the header,
    # the lines and the final line feed; only a merged line costs a search.
    text = "\n".join(chain((header,), map(itemgetter(0), groupby(lines)), ("",)))
    if text.count("\n") != len(lines) + 1:
        written = set()
        for line in _edge_lines(graph, predicate_uris):
            if line in written:
                raise ValueError(f"two edges write one N-Triples line: {line!r}")
            written.add(line)
    return text


_LINE_RE = re.compile(
    r'^<([^>]+)> <([^>]+)> (?:<([^>]+)>|"([^"\\]*(?:\\.[^"\\]*)*)") \.$')

#: One match per line, ended by LF, CR or CRLF (the N-Triples EOL), in
#: order, plus at most one empty line at the end.
_LINES_RE = re.compile("([^\r\n]*)(?:\r\n|[\r\n]|\\Z)")
#: The first character of an N-Triples EOL.
_EOL_RE = re.compile("[\r\n]")


def _labels(text: str) -> dict[str, str]:
    """The label of each subject that has a label statement, the last one.

    Only the lines holding the label predicate are read: ``str.find``
    skips the others.  A line that is no label statement, or a malformed
    one, is left to :func:`import_ntriples`'s statement pass, which refuses
    bad lines in line order.
    """
    labels: dict[str, str] = {}
    marker = f"> <{LABEL_PREDICATE}> "
    at = text.find(marker)
    while at >= 0:
        # the line around ``at``, between N-Triples EOLs
        start = text.rfind("\n", 0, at) + 1
        start = max(start, text.rfind("\r", start, at) + 1)
        eol = _EOL_RE.search(text, at)
        end = len(text) if eol is None else eol.start()
        match = _LINE_RE.match(text[start:end].strip())
        if match is not None and match.group(2) == LABEL_PREDICATE and match.group(4) is not None:
            try:
                labels[match.group(1)] = _unescape_literal(match.group(4))
            except ValueError:
                pass
        at = text.find(marker, end)
    return labels


def import_ntriples(text: str) -> Graph:
    """Parse the export subset back into a Graph.

    Label statements restore node and predicate surface labels; quoted
    objects become literal nodes with minted URIs.  Statement order in the
    rebuilt graph is the file's line order.  A line ends at LF, CR or
    CRLF, the N-Triples EOL; lines are read one at a time.  The text is
    read twice, label statements first, so the graph is built as its
    statements are read, with no list of every edge.

    Raises:
        ValueError: a line that is not a statement of the export subset,
            a label statement whose object is not a literal, or a literal
            holding a backslash that starts no ECHAR escape; the message
            starts with ``line <n>:``.
    """
    labels = _labels(text)
    nodes: dict[str, GraphNode] = {}
    edges = ReadOnlyList()
    seen: set[tuple[str, str, str]] = set()
    for lineno, raw in enumerate(_LINES_RE.finditer(text), 1):
        line = raw.group(1).strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not an N-Triples statement: {line!r}")
        subject, predicate, obj_uri, obj_literal = match.groups()
        if obj_literal is not None:
            try:
                obj_literal = _unescape_literal(obj_literal)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}: {line!r}") from None
        if predicate == LABEL_PREDICATE:
            if obj_uri is not None:
                raise ValueError(f"line {lineno}: a label statement's object is not a literal: "
                                 f"{line!r}")
            continue
        # one string per predicate, which every edge shares
        pred_text = labels.setdefault(predicate, predicate)
        subject = _node(nodes, subject, labels.get(subject, subject), RESOURCE).uri
        if obj_uri is not None:
            _link(nodes, edges, seen, subject, pred_text, obj_uri,
                  labels.get(obj_uri, obj_uri), RESOURCE)
        else:
            _link(nodes, edges, seen, subject, pred_text,
                  f"ncg:lit/{_hash_slug((subject, pred_text, obj_literal))}", obj_literal, LITERAL)
    return Graph(nodes, edges)


def edge_signature(graph: Graph) -> list[tuple[str, str, str, str]]:
    """Label-level view of the edges, for isomorphism comparisons."""
    nodes = graph.nodes
    return sorted((nodes[subject].label, predicate, nodes[obj].label, nodes[obj].kind)
                  for subject, predicate, obj in graph.edges)


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
    nodes, adjacency = graph.nodes, graph._adjacent()
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

"""In-memory knowledge graph over a corpus, with N-Triples export.

Node URIs are coined deterministically from (paper, unit, path-from-root),
so identical surface forms in different papers stay distinct by default;
surface merging is an explicit opt-in for cross-paper aggregation.  Each
paper's Contribution root is ``ncg:<quoted paper id>/Contribution`` in every
merge mode, so a traversal finds it by that URI, in a built graph and in one
read back from N-Triples alike.  The export is lexicographically sorted,
making regeneration byte-stable.

A graph stores its nodes and its edges, and nothing else.  Its nodes are
one dict that maps each URI to a ``(label, kind)`` tuple of two strings, in
insertion order; :attr:`Graph.nodes` is a read-only view of it that makes
an immutable :class:`GraphNode` each time a node is read.  Each edge is one
``(subject, predicate, object)`` tuple of strings.  CPython's cyclic
collector stops tracking a tuple of strings the first time a collection
sees it, so a built graph leaves no object per node or edge for every
later full collection to scan, as a node object would.  The builders share
one string per URI between its key and the edges that touch it, and a
label is the unit tree's own string, not a copy.  A graph is read-only once
built: :func:`build_graph` and :func:`import_ntriples` add each node and
edge in their own per-edge loops, and the nodes and the edge list refuse
every change afterwards.  So the adjacency that :func:`traverse` follows,
built from ``edges`` on the first traversal, cannot go stale.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from typing import NamedTuple
from urllib.parse import quote

from .errors import UnknownStartNode
from .model import (
    CONTRIBUTION,
    Node,
    PaperAnnotation,
    ReadOnlyList,
    UnitLabel,
    _refuse,
    canonical_text,
)

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


class GraphNode(NamedTuple):
    """One node: its URI, surface label and kind (RESOURCE or LITERAL).

    A graph stores no node objects: :attr:`Graph.nodes` makes one each
    time a node is read, with ``uri`` the string the reader looked up.
    """

    uri: str
    label: str
    kind: str


class NodeView(Mapping):
    """The nodes of a graph, read-only: each URI's :class:`GraphNode`, in
    insertion order.

    It reads the graph's dict of ``(label, kind)`` tuples and makes a node
    each time one is read.  It equals, prints, pickles and copies as a dict
    of :class:`GraphNode`, and refuses every change.
    """

    __slots__ = ("_store",)

    def __init__(self, store: dict[str, tuple[str, str]]) -> None:
        self._store = store

    def __getitem__(self, uri: str) -> GraphNode:
        return GraphNode(uri, *self._store[uri])

    def __iter__(self):
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, uri: object) -> bool:
        return uri in self._store

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeView):
            return self._store == other._store
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return type(self), (self._store,)

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


@dataclass(frozen=True)
class Graph:
    """Nodes plus ordered, de-duplicated labeled edges, read-only once built.

    ``nodes`` is a :class:`NodeView` of each URI's node, in insertion
    order; a dict of :class:`GraphNode` is stored as one.  ``edges`` is a
    :class:`~ncgkit.model.ReadOnlyList` of (subject uri, predicate text,
    object uri) tuples in insertion order; other sequences are copied into
    one.  A paper's Contribution root is the node at the URI the scheme
    coins for it.  The per-subject adjacency that :func:`traverse` reads is
    a private cache of the same tuples, set on the first traversal.
    """

    nodes: Mapping[str, GraphNode] = field(default_factory=dict)
    edges: ReadOnlyList = field(default_factory=ReadOnlyList)
    _adjacency: dict[str, tuple[tuple[str, str, str], ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.nodes) is not NodeView:
            object.__setattr__(self, "nodes", NodeView(
                {uri: (node.label, node.kind) for uri, node in self.nodes.items()}))
        if type(self.edges) is not ReadOnlyList:
            object.__setattr__(self, "edges", ReadOnlyList(self.edges))

    def _adjacent(self) -> dict[str, tuple[tuple[str, str, str], ...]]:
        """The edges leaving each subject, in order, built on first use.

        Each subject's edges are a tuple, which the collector stops
        tracking as it does the edges, where a list would stay tracked.
        """
        if self._adjacency is None:
            adjacency: dict = defaultdict(list)
            for edge in self.edges:
                adjacency[edge[0]].append(edge)
            for subject, out in adjacency.items():
                adjacency[subject] = tuple(out)
            object.__setattr__(self, "_adjacency", adjacency)
        return self._adjacency


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
    store: dict[str, tuple[str, str]] = {}
    edges = ReadOnlyList()
    add_edge = list.append.__get__(edges)  # list's own append, which edges refuses
    # surface mode: the URI of each label, hashed once per call, and the
    # edges added so far
    shared_uris: dict[str, str] = {}
    seen: set[tuple[str, str, str]] | None = set() if merge == SURFACE_MERGE else None
    for paper in papers:
        root = _root_uri(paper.paper_id)
        # no other node has a root's URI, so a root is never a literal
        store.setdefault(root, (CONTRIBUTION, RESOURCE))
        for unit, tree in (paper.units or {}).items():
            prefix = _uri_prefix(paper.paper_id, unit)
            # (uri, sha256 of the path) of the last node at each depth: a
            # child's path hash extends a copy of its parent's, which gives
            # the _hash_slug of the path in time linear in the depth
            parents = [(root, hashlib.sha256())]
            for depth, _, predicate, child in tree.root.walk_edges():
                if child is None:
                    continue
                subject, path_hash = parents[depth]
                is_node = isinstance(child, Node)
                label = child.label if is_node else child
                if seen is None:
                    path_hash = path_hash.copy()
                    path_hash.update(f"{_SEP if depth else ''}{predicate.text}{_SEP}{label}"
                                     .encode("utf-8"))
                    uri = prefix + path_hash.hexdigest()[:16]
                else:
                    uri = shared_uris.get(label)
                    if uri is None:
                        uri = shared_uris[label] = f"ncg:shared/{_hash_slug((label,))}"
                entry = store.get(uri)
                if entry is None:
                    store[uri] = (label, RESOURCE if is_node else LITERAL)
                elif is_node and entry[1] == LITERAL:
                    store[uri] = (entry[0], RESOURCE)
                if is_node:
                    parents[depth + 1:] = [(uri, path_hash)]
                if seen is None:
                    if entry is None:
                        add_edge((subject, predicate.text, uri))
                else:
                    edge = (subject, predicate.text, uri)
                    if edge not in seen:
                        seen.add(edge)
                        add_edge(edge)
    return Graph(NodeView(store), edges)


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
    store = graph.nodes._store
    for subject, predicate, obj in graph.edges:
        label, kind = store[obj]
        rendered = f"<{obj}>" if kind == RESOURCE else _escape_literal(label)
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
    for uri, (label, kind) in graph.nodes._store.items():
        if kind == RESOURCE:
            lines.append(f"<{uri}> <{LABEL_PREDICATE}> {_escape_literal(label)} .")
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


#: One statement of the export subset.  ``match`` anchors it at ``pos``,
#: and ``$`` ends it at ``endpos``, so it matches a line of a longer text.
_LINE_RE = re.compile(
    r'<([^>]+)> <([^>]+)> (?:<([^>]+)>|"([^"\\]*(?:\\.[^"\\]*)*)") \.$')


def _labels(text: str) -> dict[str, str]:
    """The label of each subject that has a label statement, the last one.

    Only the lines holding the label predicate are read: ``str.find``
    skips the others.  A line that is no label statement, or a malformed
    one, is left to :func:`import_ntriples`'s statement pass, which refuses
    bad lines in line order.  Each line of ``text`` ends at a LF.
    """
    labels: dict[str, str] = {}
    marker = f"> <{LABEL_PREDICATE}> "
    at = text.find(marker)
    while at >= 0:
        # the line around ``at``
        start = text.rfind("\n", 0, at) + 1
        end = text.find("\n", at)
        if end < 0:
            end = len(text)
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
    CRLF, the N-Triples EOL: a text that holds a CR is first copied with
    each EOL made a LF.  Lines are read one at a time.  The text is read
    twice, label statements first, so the graph is built as its
    statements are read, with no list of every edge.

    Raises:
        ValueError: a line that is not a statement of the export subset,
            a label statement whose object is not a literal, or a literal
            holding a backslash that starts no ECHAR escape; the message
            starts with ``line <n>:``.
    """
    if "\r" in text:
        # one EOL from here on: a CR LF, or a lone CR, becomes a LF
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    labels = _labels(text)
    store: dict[str, tuple[str, str]] = {}
    edges = ReadOnlyList()
    add_edge = list.append.__get__(edges)  # list's own append, which edges refuses
    seen: set[tuple[str, str, str]] = set()
    # one string per resource URI, which its node and every edge share
    uris: dict[str, str] = {}
    lineno, end = 0, -1
    while end < len(text):
        start = end + 1
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        lineno += 1
        # a line the pattern matches starts with "<" and ends with ".", so
        # only a line it does not match can change when stripped
        match = _LINE_RE.match(text, start, end)
        if match is None:
            line = text[start:end].strip()
            if not line or line.startswith("#"):
                continue
            match = _LINE_RE.match(line)
            if match is None:
                raise ValueError(f"line {lineno}: not an N-Triples statement: {line!r}")
        subject, predicate, obj, obj_literal = match.groups()
        if obj_literal is not None:
            try:
                obj_literal = _unescape_literal(obj_literal)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}: {match.group()!r}") from None
        if predicate == LABEL_PREDICATE:
            if obj is not None:
                raise ValueError(f"line {lineno}: a label statement's object is not a literal: "
                                 f"{match.group()!r}")
            continue
        # one string per predicate, which every edge shares
        predicate = labels.setdefault(predicate, predicate)
        subject = uris.setdefault(subject, subject)
        entry = store.get(subject)
        if entry is None:
            store[subject] = (labels.get(subject, subject), RESOURCE)
        elif entry[1] == LITERAL:
            store[subject] = (entry[0], RESOURCE)
        if obj is None:
            # the _hash_slug of (subject, predicate, literal), written out
            obj = "ncg:lit/" + hashlib.sha256(
                f"{subject}{_SEP}{predicate}{_SEP}{obj_literal}".encode("utf-8")).hexdigest()[:16]
            if obj not in store:
                store[obj] = (obj_literal, LITERAL)
        else:
            obj = uris.setdefault(obj, obj)
            entry = store.get(obj)
            if entry is None:
                store[obj] = (labels.get(obj, obj), RESOURCE)
            elif entry[1] == LITERAL:
                store[obj] = (entry[0], RESOURCE)
        edge = (subject, predicate, obj)
        if edge not in seen:
            seen.add(edge)
            add_edge(edge)
    return Graph(NodeView(store), edges)


def edge_signature(graph: Graph) -> list[tuple[str, str, str, str]]:
    """Label-level view of the edges, for isomorphism comparisons."""
    store = graph.nodes._store
    return sorted((store[subject][0], predicate, *store[obj])
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
    root = _root_uri(paper_id)
    store = graph.nodes._store
    if root not in store:
        raise UnknownStartNode(f"no paper {paper_id!r} in graph")
    target = canonical_text(start_label)
    adjacency = graph._adjacent()
    start = None
    queue = [root]
    seen = {root}
    for uri in queue:  # the loop also visits what it appends
        if store[uri][0] == target:
            start = uri
            break
        for _, _, obj in adjacency.get(uri, ()):
            if obj not in seen:
                seen.add(obj)
                queue.append(obj)
    if start is None:
        raise UnknownStartNode(
            f"label {start_label!r} not reachable in paper {paper_id!r}")

    # each depth's entries follow the previous depth's in ``results``
    results: list[tuple[tuple[str, ...], GraphNode]] = [((), GraphNode(start, *store[start]))]
    level = 0
    for _ in range(max_depth):
        next_level = len(results)
        for i in range(level, next_level):
            path, node = results[i]
            for _, predicate, obj in adjacency.get(node.uri, ()):
                results.append((path + (predicate,), GraphNode(obj, *store[obj])))
        if len(results) == next_level:
            break
        level = next_level
    return results

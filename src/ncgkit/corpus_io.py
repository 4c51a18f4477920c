"""Reading and writing the on-disk annotation formats.

A corpus lives under one root directory, one subdirectory per task, one per
paper.  The default layout per paper:

    text.txt                one pre-tokenized sentence per line
    sentences.txt           1-based contribution sentence indices, one per line
    phrases.tsv             sentence_index <TAB> start_tok <TAB> end_tok <TAB> surface
    info-units/{Unit}.json  nested unit tree (predicate/node alternation)
    triples/{Unit}.txt      one (subject||predicate||object) line per triple

All patterns are overridable through a :class:`CorpusManifest`, so a dataset
with different naming is ingested by adjusting the manifest, not the code.
Files are UTF-8; byte-order marks are stripped.
"""

from __future__ import annotations

import configparser
import errno
import io
import json
import os
import re
import reprlib
import stat
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .codec import flatten, nest
from .errors import (
    AlternationError,
    FormatError,
    NotATree,
    SpanOutOfRange,
    SpanTextMismatch,
    UnknownUnitLabel,
)
from .issues import ValidationIssue
from .model import (
    CONTRIBUTION,
    Corpus,
    DocumentLines,
    Node,
    PaperAnnotation,
    PhraseSpan,
    Predicate,
    Sentence,
    Triple,
    UnitLabel,
    UnitTree,
    canonical_text,
    lookup_unit_label,
    normalize_unit_label,
)

PROVENANCE_KEY = "from sentence"

DEFAULT_LAYOUT = {
    "text": "{task}/{paper}/text.txt",
    "sentences": "{task}/{paper}/sentences.txt",
    "phrases": "{task}/{paper}/phrases.tsv",
    "units": "{task}/{paper}/info-units/{Unit}.json",
    "triples": "{task}/{paper}/triples/{Unit}.txt",
}


@dataclass
class CorpusManifest:
    """Where a corpus lives and how its files are named.

    ``layout`` maps file roles to path patterns containing ``{task}``,
    ``{paper}`` and (for per-unit files) ``{Unit}`` placeholders.  When
    ``task_names`` is None the tasks are discovered as the root's immediate
    subdirectories.  ``strict`` turns recoverable format deviations into
    raised errors.  ``sentence_totals``/``token_totals`` override the
    per-paper totals computed from the plaintext, for datasets whose
    published counting differs from line/token sums.
    """

    root_path: str | Path
    layout: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_LAYOUT))
    task_names: list[str] | None = None
    strict: bool = False
    offset_unit: str = "token"
    sentence_totals: dict[str, int] = field(default_factory=dict)
    token_totals: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        merged = dict(DEFAULT_LAYOUT)
        merged.update(self.layout)
        self.layout = merged
        for role, pattern in self.layout.items():
            if "{paper}" not in pattern:
                raise ValueError(f"layout[{role!r}] lacks a {{paper}} placeholder")
        if self.offset_unit not in ("token", "char"):
            raise ValueError(f"offset_unit must be token or char, got {self.offset_unit!r}")

    @classmethod
    def from_ini(cls, path: str | Path) -> "CorpusManifest":
        """Read a manifest from an INI-style file.

        Sections: ``[corpus]`` (root, tasks, strict, offset_unit),
        ``[layout]`` (role = pattern), ``[totals.sentences]`` and
        ``[totals.tokens]`` (paper_id = count).  A relative root is resolved
        against the manifest file's directory.  A count is a non-negative
        integer: a negative sentence or token total is an error, not a
        value.

        Raises:
            FormatError: the file is not UTF-8 or not valid INI, a total is
                not a non-negative integer, or a ``[corpus]`` or
                ``[layout]`` value is invalid; the message names the file
                and, for a total, its section and key.
        """
        path = Path(path)
        location = str(path)
        cp = configparser.ConfigParser()
        cp.optionxform = str  # paper ids in totals sections are case-sensitive
        try:
            cp.read_file(io.StringIO(_read_file(path, location)), source=location)
            # dict() reads every value now, so interpolation errors surface here
            sections = {name: dict(cp[name]) if cp.has_section(name) else {}
                        for name in ("corpus", "layout", "totals.sentences",
                                     "totals.tokens")}
        except configparser.Error as exc:
            raise FormatError(f"not a valid manifest: {canonical_text(str(exc))}",
                              path=location) from None
        corpus_sec = sections["corpus"]
        root = Path(corpus_sec.get("root", "."))
        if not root.is_absolute():
            root = path.parent / root
        tasks_raw = corpus_sec.get("tasks", "")
        task_names = [t.strip() for t in tasks_raw.split(",") if t.strip()] or None
        strict = str(corpus_sec.get("strict", "false")).lower() in ("1", "true", "yes")
        try:
            return cls(root_path=root, layout=sections["layout"], task_names=task_names,
                       strict=strict,
                       offset_unit=corpus_sec.get("offset_unit", "token"),
                       sentence_totals=_counts(sections, "totals.sentences", location),
                       token_totals=_counts(sections, "totals.tokens", location))
        except ValueError as exc:
            raise FormatError(str(exc), path=location) from None

    def resolve(self, role: str, **kw: str) -> Path:
        return Path(self.root_path).joinpath(*self.layout[role].format(**kw).split("/"))


def _note(issues: list[ValidationIssue] | None, code: str, location: str,
          message: str) -> None:
    if issues is not None:
        issues.append(ValidationIssue(code, location, message))


def _plain_integers(text: str) -> bool:
    """Whether ``text`` lacks what ``int()`` reads beyond a corpus file's integers,
    ASCII digits after an optional minus sign: ``1_0``, ``+1``, non-ASCII digits."""
    return text.isascii() and "_" not in text and "+" not in text


# ---------------------------------------------------------------------------
# sentence indices


def parse_sentence_indices(text: str, *, issues: list[ValidationIssue] | None = None,
                           location: str = "") -> set[int]:
    """Parse one 1-based integer per line; duplicates collapse with a warning."""
    out: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            value = int(line) if _plain_integers(line) else 0
        except ValueError:  # more digits than int() converts
            value = 0
        if value < 1:
            raise FormatError(f"not a positive sentence index: {line!r}",
                              path=location, line=lineno)
        if value in out:
            _note(issues, "duplicate-sentence-index", f"{location}:{lineno}",
                  f"index {value} listed more than once")
        out.add(value)
    return out


# ---------------------------------------------------------------------------
# phrase spans


def _char_span_to_tokens(sentence: Sentence, start: int, end: int) -> tuple[int, int]:
    """Map a character span over the space-joined text onto token offsets."""
    bounds = []
    pos = 0
    for tok in sentence.tokens:
        bounds.append((pos, pos + len(tok)))
        pos += len(tok) + 1
    starts = {b[0]: i for i, b in enumerate(bounds)}
    ends = {b[1]: i + 1 for i, b in enumerate(bounds)}
    if start not in starts or end not in ends:
        raise SpanOutOfRange(f"char span [{start}, {end}) not on token boundaries")
    return starts[start], ends[end]


def parse_phrase_file(text: str, sentences: Sequence[Sentence | None], *,
                      strict: bool = False, offset_unit: str = "token",
                      issues: list[ValidationIssue] | None = None,
                      location: str = "") -> list[PhraseSpan]:
    """Parse a 4-column TSV of phrase spans, validating against the sentences.

    The surface text must equal the covered tokens joined by spaces, once
    its whitespace is canonical.  Out-of-range spans raise in strict mode
    and are dropped with an error issue otherwise; text mismatches raise in
    strict mode and are otherwise repaired from the sentence tokens with a
    warning, so every returned span satisfies its invariants.
    """
    # a loaded paper's tokens come from str.split, so their join is canonical
    span = PhraseSpan._from_canonical if isinstance(sentences, DocumentLines) else PhraseSpan
    by_index: dict[int, Sentence] | None = None
    # each referenced sentence is looked up, and so tokenized, once
    found: dict[int, Sentence | None] = {}
    spans: list[PhraseSpan] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        cols = raw.split("\t")
        try:
            idx, start, end, surface = cols
            if not _plain_integers(idx + start + end):
                raise ValueError(raw)
            idx, start, end = int(idx), int(start), int(end)
        except ValueError:
            # a blank line, tabs included, has the wrong column count or no
            # integers, so it is only looked for on this path
            if not raw.strip():
                continue
            if len(cols) != 4:
                raise FormatError(f"expected 4 tab-separated columns, got {len(cols)}",
                                  path=location, line=lineno) from None
            raise FormatError(f"non-integer span fields: {cols[:3]}",
                              path=location, line=lineno) from None
        try:
            sent = found.get(idx)
            if sent is None and idx not in found:
                # a loaded paper's sentences are positional; other lists are
                # searched by index
                sent = sentences[idx - 1] if 0 < idx <= len(sentences) else None
                if sent is None or sent.index != idx:
                    if by_index is None:
                        by_index = {s.index: s for s in sentences if s is not None}
                    sent = by_index.get(idx)
                found[idx] = sent
            if sent is None:
                raise SpanOutOfRange(f"no sentence with index {idx}",
                                     path=location, line=lineno)
            if offset_unit == "char":
                start_tok, end_tok = _char_span_to_tokens(sent, start, end)
            else:
                start_tok, end_tok = start, end
            if not 0 <= start_tok < end_tok <= len(sent.tokens):
                raise SpanOutOfRange(
                    f"span [{start_tok}, {end_tok}) outside sentence {idx} "
                    f"({len(sent.tokens)} tokens)", path=location, line=lineno)
        except SpanOutOfRange as exc:
            if strict:
                raise
            _note(issues, "span-out-of-range", f"{location}:{lineno}", str(exc))
            continue
        covered = " ".join(sent.tokens[start_tok:end_tok])
        if surface != covered:
            surface = canonical_text(surface)
            if surface != covered:
                if strict:
                    raise SpanTextMismatch(
                        f"surface {surface!r} != covered tokens {covered!r}",
                        path=location, line=lineno)
                _note(issues, "span-text-mismatch", f"{location}:{lineno}",
                      f"surface {surface!r} repaired to {covered!r}")
        spans.append(span(idx, start_tok, end_tok, covered))
    return spans


# ---------------------------------------------------------------------------
# nested unit files


class _RepeatedKey(list):
    """The values of a key that one JSON object repeats, in file order."""


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, where a key the object repeats maps to a
    _RepeatedKey of all its values."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        grouped: dict[str, _RepeatedKey] = {}
        for key, value in pairs:
            grouped.setdefault(key, _RepeatedKey()).append(value)
        obj = {key: values if len(values) > 1 else values[0]
               for key, values in grouped.items()}
    return obj


def _provenance_strings(value) -> list[str]:
    if isinstance(value, _RepeatedKey):
        return [text for v in value for text in _provenance_strings(v)]
    if isinstance(value, str):
        return [canonical_text(value)]
    if isinstance(value, list):
        return [canonical_text(str(v)) for v in value]
    return [canonical_text(str(value))]


def parse_unit_file(text: str, unit: UnitLabel, *,
                    issues: list[ValidationIssue] | None = None,
                    location: str = "") -> UnitTree:
    """Parse the nested JSON unit format into a tree.

    Keys alternate strictly between predicates and node labels starting
    from the implicit Contribution root, whose edges are the file's
    top-level keys.  ``from sentence`` keys (exact, case-sensitive) attach
    provenance to the nearest enclosing node wherever they appear.  A
    predicate with an empty value is kept as a dangling edge and reported
    as ``dangling-predicate``, pre-order.  A predicate or ``from sentence``
    key repeated in one object keeps every value, in file order, as one
    list of them would.

    Raises:
        FormatError: malformed or too deeply nested JSON, a non-object at
            the top level, or a node label repeated in one object.
        AlternationError: a leaf string where a node's predicate map is
            required, i.e. a node label used as if it were a predicate.
    """
    try:
        data = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed unit file: {exc.msg}",
                          path=location, line=exc.lineno) from None
    except ValueError as exc:  # a number with more digits than int() converts
        raise FormatError(f"malformed unit file: {exc}", path=location) from None
    except RecursionError:
        raise FormatError("malformed unit file: nested too deeply", path=location) from None
    if not isinstance(data, dict):
        raise FormatError("unit file must be a JSON object", path=location)

    root = Node(CONTRIBUTION)
    _fill_predicates(root, data, location)
    for _, node, predicate, child in root.walk_edges():
        if child is None:
            _note(issues, "dangling-predicate", location or unit.identifier,
                  f"predicate {predicate.text!r} of {node.label!r} has no value")
    content_edges = [(p, c) for p, c in root.edges if c is not None]
    pred, child = content_edges[0] if len(content_edges) == 1 else (None, None)
    if not (isinstance(child, Node) and pred.text == "has"
            and lookup_unit_label(child.label) is unit):
        _note(issues, "root-not-unit", location or unit.identifier,
              f"top level is not a single has-edge to a {unit.display} node")
    return UnitTree(unit, root)


def _fill_predicates(node: Node, mapping: dict, location: str) -> None:
    """Consume a node's value object: predicate keys plus provenance."""
    for key, value in mapping.items():
        if key == PROVENANCE_KEY:
            node.provenance.extend(_provenance_strings(value))
            continue
        if not key or key.isspace():
            raise FormatError("empty predicate key", path=location)
        _add_predicate_value(node, Predicate(key), value, location)


def _add_predicate_value(node: Node, predicate: Predicate, value, location: str) -> None:
    """Attach one predicate value (string, list, or node map) to ``node``."""
    if value is None:
        node.add(predicate, None)
        return
    if isinstance(value, str):
        node.add(predicate, value)  # a blank literal dangles
        return
    if isinstance(value, (int, float, bool)):
        node.add(predicate, json.dumps(value))
        return
    if isinstance(value, list):
        if not value:
            node.add(predicate, None)
            return
        for element in value:
            _add_predicate_value(node, predicate, element, location)
        return
    if isinstance(value, dict):
        if not value:
            node.add(predicate, None)
            return
        for key, child_value in value.items():
            if key == PROVENANCE_KEY:
                node.provenance.extend(_provenance_strings(child_value))
                continue
            if not key or key.isspace():
                raise FormatError("empty node label", path=location)
            if isinstance(child_value, _RepeatedKey):
                raise FormatError(f"repeated node label {key!r}", path=location)
            child = Node(key)
            node.add(predicate, child)
            if isinstance(child_value, dict):
                _fill_predicates(child, child_value, location)
            elif isinstance(child_value, str) or child_value is None:
                raise AlternationError(
                    f"node {child.label!r} maps to a leaf value; a predicate map is "
                    f"required at node depth", path=location)
            else:
                raise AlternationError(
                    f"node {child.label!r} maps to {type(child_value).__name__}; "
                    f"a predicate map is required at node depth", path=location)
        return
    raise FormatError(f"unsupported value of type {type(value).__name__}", path=location)


def write_unit_file(tree: UnitTree) -> str:
    """Serialize a tree back to the nested JSON unit format.

    A node's edges are written grouped by predicate, in order of each
    predicate's first edge, because a JSON object holds each key once.  So
    edges whose predicates interleave read back grouped: ``p: a``,
    ``q: b``, ``p: c`` become ``p: a``, ``p: c``, ``q: b``.

    Raises:
        FormatError: the format cannot carry the tree: a predicate is empty
            or is the provenance key, a node below the root is labelled
            with the provenance key, or the tree is nested more deeply
            than the JSON writer recurses.  The parser would refuse the
            first and the last, and read the others as provenance.
    """
    try:
        return json.dumps(_node_object(tree.root), indent=2, ensure_ascii=False) + "\n"
    except RecursionError:
        raise FormatError("cannot write the tree: nested too deeply") from None


def _node_object(node: Node) -> dict:
    out: dict = {}
    grouped: dict[str, list[Node | str | None]] = {}  # in first-edge order
    for predicate, child in node.edges:
        grouped.setdefault(predicate.text, []).append(child)
    if PROVENANCE_KEY in grouped:
        raise FormatError(f"cannot write the predicate {PROVENANCE_KEY!r} of "
                          f"{node.label!r}: the unit format reads that key as provenance")
    if "" in grouped:
        raise FormatError(f"cannot write an empty predicate of {node.label!r}: "
                          f"the unit format refuses it")
    for pred_text, children in grouped.items():
        out[pred_text] = _predicate_object(children)
    if node.provenance:
        out[PROVENANCE_KEY] = (node.provenance[0] if len(node.provenance) == 1
                               else list(node.provenance))
    return out


def _predicate_object(children: list[Node | str | None]):
    if len(children) == 1:
        child = children[0]
        if child is None:
            return {}
        if isinstance(child, str):
            return child
        return {_label_key(child): _node_object(child)}
    labels = [_label_key(c) for c in children if isinstance(c, Node)]
    if len(labels) == len(children) and len(set(labels)) == len(labels):
        return {c.label: _node_object(c) for c in children}
    return [_predicate_object([child]) for child in children]


def _label_key(child: Node) -> str:
    """A child node's label as its JSON key; the root's label is never a key."""
    if child.label == PROVENANCE_KEY:
        raise FormatError(f"cannot write the node {PROVENANCE_KEY!r}: the unit format "
                          f"reads that key as provenance")
    return child.label


# ---------------------------------------------------------------------------
# triple line files


def parse_triple_lines(text: str, *, issues: list[ValidationIssue] | None = None,
                       location: str = "") -> list[Triple]:
    """Parse ``(subject||predicate||object)`` lines.

    The canonical delimiter is ``||``; a single ``|`` is accepted leniently
    with a warning.  A line must yield exactly three non-empty fields.
    """
    return _triples(_triple_fields(text, issues=issues, location=location))


def _triples(lines: list[tuple[str, str, str]]) -> list[Triple]:
    """A triple per line's fields; lines with equal predicate text share one
    Predicate."""
    predicates: dict[str, Predicate] = {}
    out = []
    for subject, text, obj in lines:
        predicate = predicates.get(text)
        if predicate is None:
            predicate = predicates[text] = Predicate(text)
        out.append(Triple(subject, predicate, obj))
    return out


def _triple_fields(text: str, *, issues: list[ValidationIssue] | None,
                   location: str) -> list[tuple[str, str, str]]:
    """The line parser of :func:`parse_triple_lines`: each line's three
    fields, as written."""
    lines: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line[0] != "(" or line[-1] != ")":
            raise FormatError("triple line must be wrapped in parentheses",
                              path=location, line=lineno)
        fields = line[1:-1].split("||")
        if len(fields) != 3 and any("|" in f for f in fields):
            refined: list[str] = []
            for piece in fields:
                refined.extend(piece.split("|"))
            if len(refined) == 3:
                _note(issues, "single-pipe-delimiter", f"{location}:{lineno}",
                      f"single | delimiter in {line!r}")
                fields = refined
        if len(fields) != 3:
            raise FormatError(
                f"expected 3 fields after delimiter splitting, got {len(fields)}",
                path=location, line=lineno)
        subject, predicate, obj = fields
        if not (subject.strip() and predicate.strip() and obj.strip()):
            raise FormatError(f"empty field in triple line {line!r}",
                              path=location, line=lineno)
        lines.append((subject, predicate, obj))
    return lines


def write_triple_lines(triples: list[Triple]) -> str:
    """One ``(s||p||o)`` line per triple in input order, LF-terminated.

    Raises:
        FormatError: a field contains ``||`` or starts or ends with ``|``,
            which the line format cannot carry; the message names the
            triple and the field.
    """
    text = "".join([f"({t.subject}||{t.predicate.text}||{t.object})\n" for t in triples])
    if text.count("|") != 4 * len(triples):  # some field holds a |
        for triple in triples:
            for role, value in zip(("subject", "predicate", "object"), triple.key()):
                if "||" in value or value[0] == "|" or value[-1] == "|":
                    raise FormatError(f"cannot write {triple.key()}: the {role} "
                                      f"{value!r} holds '||' or starts or ends with '|'")
    return text


# ---------------------------------------------------------------------------
# corpus loading


def _counts(sections: dict[str, dict[str, str]], name: str,
            location: str) -> dict[str, int]:
    """The paper_id = count entries of one manifest totals section."""
    counts: dict[str, int] = {}
    for key, value in sections[name].items():
        try:
            count = int(value) if _plain_integers(value) else None
        except ValueError:
            count = None
        if count is None or count < 0:
            raise FormatError(f"[{name}] {key} = {reprlib.repr(value)}: "
                              f"not a non-negative integer", path=location)
        counts[key] = count
    return counts


#: A FIFO opens without waiting for a writer, so that fstat can reject it.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def _read(path: str | Path, location: str) -> str | None:
    """A UTF-8 file's text, BOM stripped, line ends read as in text mode;
    None when no regular file is at ``path``.

    The file is opened once and read with one ``os.read`` of its fstat size
    plus one byte, which finds the end of a file that did not change.  The
    text equals a text-mode read with the ``utf-8-sig`` encoding, except
    that a file holding only the start of a BOM is refused, not read as
    empty.  A directory, a FIFO, a device or a broken symlink reads as
    absent, as ``os.path.isfile`` would say.

    Raises:
        FormatError: the bytes are not UTF-8; the message names the first
            bad sequence.
        OSError: the file is there but cannot be read.
    """
    try:
        fd = os.open(path, _READ_FLAGS)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError:
        if os.path.isfile(path):
            raise
        return None
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            return None
        data = os.read(fd, st.st_size + 1)
        if len(data) != st.st_size:  # a short read, or the file changed size
            chunks = [data]
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            data = b"".join(chunks)
    finally:
        os.close(fd)
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end].hex()
        raise FormatError(f"not valid UTF-8 ({exc.reason} 0x{bad})",
                          path=location) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_file(path: str | Path, location: str) -> str:
    """:func:`_read` of a file that must be there.

    Raises:
        FileNotFoundError: no regular file is at ``path``.
    """
    text = _read(path, location)
    if text is None:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    return text


def _rel(path: str) -> str:
    """A path below the corpus root as pathlib spells it: no empty or "." parts."""
    return "/".join(p for p in path.split("/") if p and p != ".") or "."


def _scandir(root: str, rel: str) -> list[os.DirEntry]:
    """Entries of one directory below the root; none if it cannot be listed."""
    try:
        with os.scandir(os.path.join(root, rel)) as entries:
            return list(entries)
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


def _fillers(root: str, pattern: str, placeholder: str, ids: dict[str, str]
             ) -> tuple[str, list[str], list[tuple[str, os.DirEntry]]] | None:
    """Where a layout pattern's component holding ``{placeholder}`` is filled.

    Lists the directory above that component, its other placeholders filled
    from ``ids``, and returns that directory below the root, the components
    after it, and (value, entry) for each entry, in name order, whose name
    fills the component with that value.  None when no component holds the
    placeholder.
    """
    parts = pattern.split("/")
    index = next((i for i, p in enumerate(parts) if f"{{{placeholder}}}" in p), None)
    if index is None:
        return None
    component = parts[index].format(**{placeholder: "\x00"}, **ids)
    fills = re.compile("^" + re.escape(component).replace("\x00", "(.+)") + "$").match
    parent = "/".join(parts[:index]).format(**ids)
    found = []
    for entry in sorted(_scandir(root, _rel(parent)), key=lambda e: e.name):
        match = fills(entry.name)
        if match:
            found.append((match.group(1), entry))
    return parent, parts[index + 1:], found


def _discover_papers(manifest: CorpusManifest, root: str, task: str) -> list[str]:
    """Find paper names by listing the directory above the text pattern's {paper}.

    Only the path up to the {paper} component is required to exist, so a
    paper directory lacking its plaintext file is still discovered and gets
    a proper missing-text error instead of vanishing silently.
    """
    _, rest, found = _fillers(root, manifest.layout["text"], "paper", {"task": task})
    return sorted({paper for paper, entry in found if not rest or entry.is_dir()})


def _unit_files(manifest: CorpusManifest, root: str, role: str, task: str,
                paper: str) -> list[tuple[str, str]]:
    """(unit name, location) of each existing per-unit file, in path order."""
    ids = {"task": task, "paper": paper}
    fill = _fillers(root, manifest.layout[role], "Unit", ids)
    if fill is None:
        return []
    parent, rest, found = fill
    out = []
    for unit, entry in found:
        loc = _rel("/".join([parent, entry.name] + [p.format(Unit=unit, **ids) for p in rest]))
        if not rest or os.path.exists(os.path.join(root, loc)):
            out.append((unit, loc))
    return out


#: What ``parsed`` in :func:`_load_paper` returns when no regular file is there.
_ABSENT = object()


def _load_paper(manifest: CorpusManifest, root: str, task: str, paper_id: str,
                issues: list[ValidationIssue]) -> PaperAnnotation | None:
    strict = manifest.strict

    def locate(role: str) -> str:
        return _rel(manifest.layout[role].format(task=task, paper=paper_id))

    def parsed(loc: str, parse: Callable[..., object], *args, suffix: str = "", **kw):
        """parse(text of the file at loc, *args, **kw), or _ABSENT when no
        regular file is at loc; a FormatError raises in strict mode and
        otherwise becomes a format-error issue (message + suffix) and None."""
        try:
            text = _read(os.path.join(root, loc), loc)
            return _ABSENT if text is None else parse(text, *args, **kw)
        except FormatError as exc:
            if strict:
                raise
            issues.append(ValidationIssue("format-error", loc, f"{exc}{suffix}"))
            return None

    def per_unit(role: str, parse: Callable[..., object]) -> dict | None:
        """Each parsed file of a per-unit role by unit; None if it has no files."""
        out = {}
        found = False
        for name, loc in _unit_files(manifest, root, role, task, paper_id):
            try:
                unit = normalize_unit_label(name)
            except UnknownUnitLabel as exc:
                found = True
                issues.append(ValidationIssue("unknown-unit-label", loc, str(exc)))
                continue
            result = parsed(loc, parse, unit, issues=issues, location=loc)
            if result is _ABSENT:
                continue
            found = True
            if result is not None:
                out[unit] = result
        return out if found else None

    loc = locate("text")
    text = parsed(loc, str, suffix="; paper skipped")
    if text is _ABSENT:
        if strict:
            raise FormatError("missing plaintext file", path=loc)
        issues.append(ValidationIssue("missing-text", loc, "plaintext absent; paper skipped"))
        return None
    if text is None:
        return None
    # every str.splitlines break is whitespace to str.split, so counting on
    # the whole text equals the sum of the per-line counts
    lines = text.splitlines()
    token_count = len(text.split())

    paper = PaperAnnotation(
        paper_id=paper_id,
        task=task,
        total_sentence_count=manifest.sentence_totals.get(paper_id, len(lines)),
        total_token_count=manifest.token_totals.get(paper_id, token_count),
        sentences=DocumentLines(paper_id, lines),
    )

    loc = locate("sentences")
    indices = parsed(loc, parse_sentence_indices, issues=issues, location=loc)
    if indices is _ABSENT:
        issues.append(ValidationIssue("missing-sentences", loc, "sentence-index file absent"))
    else:
        paper.contribution_sentence_indices = indices

    loc = locate("phrases")
    phrases = parsed(loc, parse_phrase_file, paper.sentences, strict=strict,
                     offset_unit=manifest.offset_unit, issues=issues, location=loc)
    if phrases is _ABSENT:
        issues.append(ValidationIssue("missing-phrases", loc, "phrase file absent"))
    else:
        paper.phrases = phrases

    paper.units = per_unit("units", parse_unit_file)
    if paper.units is None:
        issues.append(ValidationIssue("missing-units", f"{task}/{paper_id}",
                                      "no information-unit files found"))
    file_lines = per_unit("triples", lambda text, unit, **kw: _triple_fields(text, **kw))
    if file_lines is None and paper.units:
        issues.append(ValidationIssue(
            "missing-triples", f"{task}/{paper_id}",
            "no triples files; derived by flattening the unit trees"))

    _reconcile_units_and_triples(task, paper, file_lines, issues)
    return paper


def _reconcile_units_and_triples(
        task: str, paper: PaperAnnotation,
        file_lines: dict[UnitLabel, list[tuple[str, str, str]]] | None,
        issues: list[ValidationIssue]) -> None:
    """Fill ``paper.triples`` from the trees and the triples files' lines.

    ``file_lines`` holds each file's fields as written, and is None when
    the paper has no triples files.  Triples without a tree get nest()
    output where they form a tree.  Every tree, shipped or rebuilt, stores
    its flatten() output as the unit's triples.  A shipped triples file
    must be set-equal to the flattened tree, compared by canonical key; any
    difference is itemized as a warning, never silently dropped.  Triple
    objects are built from a file only for units without a tree.
    """
    units = paper.units or {}
    lines_by_unit = file_lines or {}
    triples: dict[UnitLabel, list[Triple]] = dict.fromkeys(lines_by_unit)
    for unit, tree in units.items():
        flat = flatten(tree)
        if unit in lines_by_unit:
            tree_keys = {t.key() for t in flat.triples}
            # tree keys are canonical, so fields as written that equal them
            # are canonical too
            file_keys = set(lines_by_unit[unit])
            if file_keys != tree_keys:
                file_keys = {tuple(map(canonical_text, fields)) for fields in file_keys}
            if file_keys != tree_keys:
                missing = sorted(tree_keys - file_keys)
                extra = sorted(file_keys - tree_keys)
                issues.append(ValidationIssue(
                    "triples-file-mismatch", f"{task}/{paper.paper_id}/{unit.identifier}",
                    f"tree-only: {missing}; file-only: {extra}"))
        triples[unit] = flat.triples
    for unit, lines in lines_by_unit.items():
        if unit in units:
            continue
        listed = _triples(lines)
        try:
            units[unit] = nest(listed, unit)
        except NotATree as exc:
            issues.append(ValidationIssue(
                "nest-failed", f"{task}/{paper.paper_id}/{unit.identifier}", str(exc)))
            triples[unit] = listed
            continue
        triples[unit] = flatten(units[unit]).triples
    if paper.units is not None or units:
        paper.units = units
    if file_lines is not None or triples:
        paper.triples = triples


def load_corpus(manifest: CorpusManifest) -> tuple[Corpus, list[ValidationIssue]]:
    """Assemble a Corpus from disk, collecting recoverable issues.

    Papers are discovered per task by resolving the manifest's text
    pattern.  Missing optional files yield warnings; a missing plaintext
    file yields an error and the paper is skipped (non-strict mode).
    Loading is deterministic: tasks and papers are visited in sorted order
    unless the manifest pins task order.
    """
    root = Path(manifest.root_path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root does not exist: {root}")
    issues: list[ValidationIssue] = []
    if manifest.task_names is not None:
        tasks = list(manifest.task_names)
    else:
        tasks = sorted(d.name for d in root.iterdir() if d.is_dir())
    root_dir = str(root)
    corpus = Corpus()
    seen: set[str] = set()
    for task in tasks:
        papers: list[PaperAnnotation] = []
        for paper_id in _discover_papers(manifest, root_dir, task):
            if paper_id in seen:
                issues.append(ValidationIssue(
                    "duplicate-paper-id", f"{task}/{paper_id}",
                    "paper id already seen under another task; skipped"))
                continue
            paper = _load_paper(manifest, root_dir, task, paper_id, issues)
            if paper is not None:
                papers.append(paper)
                seen.add(paper_id)
        if papers:
            corpus.tasks[task] = papers
    if not seen:
        issues.append(ValidationIssue("empty-corpus", str(root), "no papers found"))
    return corpus, issues

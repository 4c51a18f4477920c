"""Reading and writing the on-disk annotation formats.

A corpus lives under one root directory, organised as task, paper, files.
The default layout, below the root:

    {task}/{paper}/text.txt                one pre-tokenized sentence per line
    {task}/{paper}/sentences.txt           1-based contribution sentence indices
    {task}/{paper}/phrases.tsv             sentence <TAB> start <TAB> end <TAB> surface
    {task}/{paper}/info-units/{Unit}.json  nested unit tree (predicate/node alternation)
    {task}/{paper}/triples/{Unit}.txt      one (subject||predicate||object) line per triple

All patterns are overridable through a :class:`CorpusManifest`, so a dataset
with different naming is ingested by adjusting the manifest, not the code.
The layout alone says where the files are: the tasks are the directories
that fill the text pattern's ``{task}`` component (unless the manifest lists
them), a task's papers are the names that fill its ``{paper}`` component,
and a paper's unit files are the names that fill a per-unit pattern's
``{Unit}`` component.  Files are UTF-8; byte-order marks are stripped.
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
import string
from array import array
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from . import codec
from .errors import (
    AlternationError,
    FormatError,
    NotATree,
    SpanOutOfRange,
    SpanTextMismatch,
    UnknownUnitLabel,
    position,
)
from .issues import ValidationIssue
from .model import (
    CONTRIBUTION,
    Corpus,
    DocumentLines,
    Node,
    PaperAnnotation,
    PhraseColumns,
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

#: The placeholders of each role's pattern: those of its default pattern.
_PLACEHOLDERS = {role: tuple(dict.fromkeys(
    name for _, name, _, _ in string.Formatter().parse(pattern) if name is not None))
    for role, pattern in DEFAULT_LAYOUT.items()}


def _component(parts: list[str], placeholder: str) -> int:
    """The index of the first path component holding ``{placeholder}``."""
    token = f"{{{placeholder}}}"
    return next(i for i, part in enumerate(parts) if token in part)


def _check_pattern(role: str, pattern: str) -> None:
    """Raise ValueError unless ``pattern`` is a layout pattern for ``role``.

    A role is one of :data:`DEFAULT_LAYOUT`'s.  A pattern holds exactly the
    placeholders of the role's default pattern, each written ``{name}``; one
    may repeat.  Its only braces are its placeholders'.  The first
    ``{task}`` lies in a directory above the component holding ``{paper}``.
    """
    if role not in DEFAULT_LAYOUT:
        raise ValueError(f"layout[{role!r}]: not a file role; the roles are "
                         f"{', '.join(DEFAULT_LAYOUT)}")
    where = f"layout[{role!r}] = {pattern!r}"
    wanted = _PLACEHOLDERS[role]
    try:
        parsed = list(string.Formatter().parse(pattern))
    except ValueError as exc:  # unbalanced braces
        raise ValueError(f"{where}: {exc}") from None
    for _, name, _, _ in parsed:
        if name is not None and name not in wanted:
            raise ValueError(f"{where}: {{{name}}} is not a placeholder of {role}, "
                             f"whose placeholders are {', '.join(f'{{{w}}}' for w in wanted)}")
    if "".join(text + ("" if name is None else f"{{{name}}}")
               for text, name, _, _ in parsed) != pattern:
        raise ValueError(f"{where}: a placeholder has a format spec or a conversion, "
                         f"or a brace is not a placeholder's")
    for name in wanted:
        if f"{{{name}}}" not in pattern:
            raise ValueError(f"{where}: lacks the {{{name}}} placeholder")
    parts = pattern.split("/")
    if _component(parts, "task") >= _component(parts, "paper"):
        raise ValueError(f"{where}: {{task}} must be in a directory above "
                         f"the component holding {{paper}}")


@dataclass
class CorpusManifest:
    """Where a corpus lives and how its files are named.

    ``layout`` maps file roles to path patterns containing ``{task}``,
    ``{paper}`` and (for per-unit files) ``{Unit}`` placeholders; a role it
    leaves out keeps its :data:`DEFAULT_LAYOUT` pattern.  When
    ``task_names`` is None the tasks are the directories that fill the text
    pattern's ``{task}`` component, in name order.  ``strict`` turns
    recoverable format deviations into raised errors.
    ``sentence_totals``/``token_totals`` override the per-paper totals
    computed from the plaintext, for datasets whose published counting
    differs from line/token sums.

    Every value is checked when the manifest is built.

    Raises:
        ValueError: a layout role or pattern is invalid (see
            :func:`_check_pattern`), ``task_names`` names a task twice,
            ``strict`` is not a bool, or ``offset_unit`` is neither
            ``token`` nor ``char``.
    """

    root_path: str | Path
    layout: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_LAYOUT))
    task_names: list[str] | None = None
    strict: bool = False
    offset_unit: str = "token"
    sentence_totals: dict[str, int] = field(default_factory=dict)
    token_totals: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for role, pattern in self.layout.items():
            _check_pattern(role, pattern)
        self.layout = {**DEFAULT_LAYOUT, **self.layout}
        if self.task_names is not None:
            seen: set[str] = set()
            for task in self.task_names:
                if task in seen:
                    raise ValueError(f"tasks: {task!r} is named twice")
                seen.add(task)
        if not isinstance(self.strict, bool):
            raise ValueError(f"strict must be true or false (one of "
                             f"{', '.join(configparser.ConfigParser.BOOLEAN_STATES)}), "
                             f"got {self.strict!r}")
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
        value.  ``strict`` takes configparser's boolean words.

        Raises:
            FormatError: the file is not UTF-8 or not valid INI, a total is
                not a non-negative integer, or a ``[corpus]`` or
                ``[layout]`` value is invalid, as the constructor checks
                it; the message names the file and, for a total, its
                section and key.
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
        strict = corpus_sec.get("strict", "false")
        # a word that is not a boolean stays a string, which the constructor refuses
        strict = cp.BOOLEAN_STATES.get(strict.lower(), strict)
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


def _text_mode(text: str) -> str:
    """``text`` with each CR and CRLF line end read as LF, as text mode reads it."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _lines(text: str) -> list[str]:
    """The lines of ``text`` as text mode reads them: LF, CR or CRLF ends a
    line, and a final line end starts no new line.  Any other character,
    FF and U+2028 among them, belongs to its line."""
    lines = _text_mode(text).split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


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
    for lineno, raw in enumerate(_lines(text), 1):
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
            _note(issues, "duplicate-sentence-index", position(location, lineno),
                  f"index {value} listed more than once")
        out.add(value)
    return out


# ---------------------------------------------------------------------------
# phrase spans


def _char_span_to_tokens(sentence: Sentence, start: int,
                         end: int) -> tuple[int | None, int | None]:
    """Map a character span over the space-joined text onto token offsets,
    None for a bound that is not on a token boundary."""
    starts, ends, pos = {}, {}, 0
    for i, tok in enumerate(sentence.tokens):
        starts[pos] = i
        pos += len(tok)
        ends[pos] = i + 1
        pos += 1
    return starts.get(start), ends.get(end)


def parse_phrase_file(text: str, sentences: Sequence[Sentence | None], *,
                      strict: bool = False, offset_unit: str = "token",
                      issues: list[ValidationIssue] | None = None,
                      location: str = "") -> PhraseColumns:
    """Parse a 4-column TSV of phrase spans, validating against the sentences.

    The surface text must equal the covered tokens joined by spaces, once
    its whitespace is canonical.  Out-of-range spans raise in strict mode
    and are dropped with an error issue otherwise; text mismatches raise in
    strict mode and are otherwise repaired from the sentence tokens with a
    warning, so every returned span satisfies its invariants.  Each text is
    stored canonical, as ``PhraseSpan`` would make it: a sentence's tokens
    are those of ``str.split``, as :class:`DocumentLines` makes them, so
    the covered tokens joined by single spaces are canonical already.

    A file of token offsets over a loaded paper's lines is first checked
    whole, by :func:`_clean_phrase_columns`; only a file that fails the
    check is parsed line by line, by :func:`_phrase_lines`.
    """
    if offset_unit == "token" and isinstance(sentences, DocumentLines):
        columns = _clean_phrase_columns(text, sentences)
        if columns is not None:
            return columns
    return _phrase_lines(text, sentences, strict=strict, offset_unit=offset_unit,
                         issues=issues, location=location)


def _clean_phrase_columns(text: str, lines: DocumentLines) -> PhraseColumns | None:
    """The columns of a phrase file whose every line is four fields, three
    ASCII-digit token offsets below ``2**32`` and a surface that equals the
    covered tokens joined by single spaces; None for any other file.  Such
    a file is read by :func:`_phrase_lines` to the same columns with no
    issue and no error."""
    body = _text_mode(text)
    if body[-1:] == "\n":  # a final line end starts no line
        body = body[:-1]
    rows = body.split("\n")
    fields = body.replace("\n", "\t").split("\t")
    # three tabs a row in all, and no row with fewer: four fields in every row
    if len(fields) != 4 * len(rows) or min(map(str.count, rows, repeat("\t"))) != 3:
        return None
    numbers = fields[0::4], fields[1::4], fields[2::4]
    digits = "".join(map("".join, numbers))
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:  # an empty field, or a value of 2**32 or more
        indices, starts, ends = (array("I", map(int, column)) for column in numbers)
    except (ValueError, OverflowError):
        return None
    surfaces = fields[3::4]
    found: dict[int, list[str]] = {}
    for idx, start, end, surface in zip(indices, starts, ends, surfaces):
        tokens = found.get(idx)
        if tokens is None:
            tokens = found[idx] = lines._tokens(idx)
        if not start < end <= len(tokens) or surface != " ".join(tokens[start:end]):
            return None
    return PhraseColumns(indices, starts, ends, surfaces)


def _phrase_lines(text: str, sentences: Sequence[Sentence | None], *, strict: bool,
                  offset_unit: str, issues: list[ValidationIssue] | None,
                  location: str) -> PhraseColumns:
    """The line parser of :func:`parse_phrase_file`, which reads any file."""
    by_index: dict[int, Sentence] | None = None
    # each referenced sentence is looked up, and so tokenized, once
    found: dict[int, Sentence | None] = {}
    indices, starts, ends, texts = array("I"), array("I"), array("I"), []
    for lineno, raw in enumerate(_lines(text), 1):
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
                if start_tok is None or end_tok is None:
                    raise SpanOutOfRange(f"char span [{start}, {end}) not on token "
                                         f"boundaries", path=location, line=lineno)
            else:
                start_tok, end_tok = start, end
            if not 0 <= start_tok < end_tok <= len(sent.tokens):
                raise SpanOutOfRange(
                    f"span [{start_tok}, {end_tok}) outside sentence {idx} "
                    f"({len(sent.tokens)} tokens)", path=location, line=lineno)
        except SpanOutOfRange as exc:
            if strict:
                raise
            _note(issues, "span-out-of-range", position(location, lineno), exc.args[0])
            continue
        covered = " ".join(sent.tokens[start_tok:end_tok])
        if surface != covered:
            surface = canonical_text(surface)
            if surface != covered:
                if strict:
                    raise SpanTextMismatch(
                        f"surface {surface!r} != covered tokens {covered!r}",
                        path=location, line=lineno)
                _note(issues, "span-text-mismatch", position(location, lineno),
                      f"surface {surface!r} repaired to {covered!r}")
        indices.append(idx)
        starts.append(start_tok)
        ends.append(end_tok)
        # tokens of str.split joined by single spaces: canonical as they are
        texts.append(covered)
    return PhraseColumns(indices, starts, ends, texts)


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


def parse_unit_file(text: str, unit: UnitLabel, *,
                    issues: list[ValidationIssue] | None = None,
                    location: str = "") -> UnitTree:
    """Parse the nested JSON unit format into a tree.

    Keys alternate strictly between predicates and node labels starting
    from the implicit Contribution root, whose edges are the file's
    top-level keys.  ``from sentence`` keys (exact, case-sensitive) attach
    provenance to the nearest enclosing node wherever they appear.  A
    scalar keeps its JSON text (``1.00``, ``true``); a ``null`` provenance
    adds nothing.  A predicate whose value is ``null``, blank, ``[]`` or
    ``{}`` is kept as a dangling edge and reported as ``dangling-predicate``,
    pre-order.  A predicate or ``from sentence`` key repeated in one object
    keeps every value, in file order, as one list of them would.

    Raises:
        FormatError: malformed or too deeply nested JSON, a non-object at
            the top level, a blank key, a node label repeated in one object,
            an object or a nested list under ``from sentence``, or a ``\\u``
            escape that gives a lone surrogate; the first in file order.
        AlternationError: a node label whose value is not an object.
    """
    try:
        data = json.loads(text, object_pairs_hook=_json_object,
                          parse_int=str, parse_float=str, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed unit file: {exc.msg}",
                          path=location, line=exc.lineno) from None
    except RecursionError:
        raise FormatError("malformed unit file: nested too deeply", path=location) from None
    if not isinstance(data, dict):
        raise FormatError("unit file must be a JSON object", path=location)

    root = Node(CONTRIBUTION)
    dangling = _fill_tree(root, data, location)
    if "\\u" in text:  # only a \u escape gives a surrogate: the text is UTF-8
        _refuse_surrogates(root, location)
    for node, predicate in dangling:
        _note(issues, "dangling-predicate", location or unit.identifier,
              f"predicate {predicate.text!r} of {node.label!r} has no value")
    content_edges = [(p, c) for p, c in root.edges if c is not None]
    pred, child = content_edges[0] if len(content_edges) == 1 else (None, None)
    if not (isinstance(child, Node) and pred.text == "has"
            and lookup_unit_label(child.label) is unit):
        _note(issues, "root-not-unit", location or unit.identifier,
              f"top level is not a single has-edge to a {unit.display} node")
    return UnitTree(unit, root)


def _fill_tree(root: Node, data: dict, location: str) -> list[tuple[Node, Predicate]]:
    """Read a unit file's object into ``root``, a value's nodes before the next
    key, and return the ``(node, predicate)`` of each dangling edge.  Edges
    are added in pre-order, so the dangling ones come as ``walk_edges``
    yields them.  Keys with one text share one Predicate.  Each open value
    is ``(node, predicate, pairs)``: a node's object (``predicate`` None), a
    predicate's node map, or its list (keys None)."""
    predicates: dict[str, Predicate] = {}
    dangling = []
    stack = [(root, None, iter(data.items()))]
    while stack:
        node, predicate, pairs = stack[-1]
        for key, value in pairs:
            if key is None:  # a list's element, a value of the list's predicate
                edge = predicate
            elif key == PROVENANCE_KEY:
                node.provenance.extend(_provenance(value, location))
                continue
            elif not key or key.isspace():
                raise FormatError("empty predicate key" if predicate is None
                                  else "empty node label", path=location)
            elif predicate is None:  # a predicate of node
                edge = predicates.get(key)
                if edge is None:
                    edge = predicates[key] = Predicate(key)
            elif value.__class__ is dict:  # a node label, whose value is its object
                child = Node(key)
                node.add(predicate, child)
                stack.append((child, None, iter(value.items())))
                break
            elif isinstance(value, _RepeatedKey):
                raise FormatError(f"repeated node label {key!r}", path=location)
            else:
                what = "a list" if isinstance(value, list) else "a leaf value"
                raise AlternationError(f"node {canonical_text(key)!r} maps to {what}; a "
                                       f"predicate map is required at node depth", path=location)
            if value.__class__ is str:
                if node.add(edge, value) is None:  # a blank literal dangles
                    dangling.append((node, edge))
            elif value.__class__ is bool:
                node.add(edge, "true" if value else "false")
            elif not value:  # null, [] or {}
                node.add(edge, None)
                dangling.append((node, edge))
            elif isinstance(value, list) and all(v.__class__ is str for v in value):
                for element in value:  # a list of strings, the common case
                    if node.add(edge, element) is None:
                        dangling.append((node, edge))
            elif isinstance(value, list):
                stack.append((node, edge, zip(repeat(None), value)))
                break
            else:  # a node map
                stack.append((node, edge, iter(value.items())))
                break
        else:
            stack.pop()
    return dangling


def _provenance(value, location: str) -> list[str]:
    """A ``from sentence`` value's scalars as text; FormatError for an object or a nested list."""
    out = []
    for item in value if isinstance(value, _RepeatedKey) else (value,):
        for scalar in item if isinstance(item, list) else (item,):
            if scalar.__class__ is str:
                out.append(canonical_text(scalar))
            elif scalar.__class__ is bool:
                out.append("true" if scalar else "false")
            elif scalar is not None:
                raise FormatError(f"{PROVENANCE_KEY!r} holds an object or a nested list",
                                  path=location)
    return out


def _refuse_surrogates(root: Node, location: str) -> None:
    """Raise FormatError if a string of the tree holds a lone surrogate,
    which no UTF-8 output can carry."""
    strings = list(root.provenance)
    for _, _, predicate, child in root.walk_edges():
        strings.append(predicate.text)
        if isinstance(child, Node):
            strings.append(child.label)
            strings.extend(child.provenance)
        elif child is not None:
            strings.append(child)
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"malformed unit file: a \\u escape gives the lone surrogate "
                          f"{exc.object[exc.start]!r}", path=location) from None


def write_unit_file(tree: UnitTree) -> str:
    """Serialize a tree back to the nested JSON unit format.

    A node's edges are written grouped by predicate, in order of each
    predicate's first edge, because a JSON object holds each key once.  So
    edges whose predicates interleave read back grouped: ``p: a``,
    ``q: b``, ``p: c`` become ``p: a``, ``p: c``, ``q: b``.

    Raises:
        FormatError: the format cannot carry the tree: a predicate is the
            provenance key, a node below the root is labelled with the
            provenance key, or the tree is nested more deeply than the
            JSON writer recurses.  The parser would read the first two as
            provenance, and refuse the last.
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
    for lineno, raw in enumerate(_lines(text), 1):
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
                _note(issues, "single-pipe-delimiter", position(location, lineno),
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
    return _text_mode(text)


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
    """Entries of one directory below the root; none if it is not there.

    Raises:
        OSError: the directory is there but cannot be listed.
    """
    try:
        with os.scandir(os.path.join(root, rel)) as entries:
            return list(entries)
    except (FileNotFoundError, NotADirectoryError):
        return []


class _Matchers(dict):
    """One load's name matchers, each built on first use: a layout component,
    its placeholder written NUL, maps to the ``match`` of the regex whose
    group 1 is the placeholder's value; a placeholder that repeats in the
    component takes one value.  A component can hold ``{paper}``, so this
    holds one matcher a paper at most, and lives as long as the load."""

    def __missing__(self, component: str) -> Callable[[str], re.Match | None]:
        self[component] = re.compile("^" + re.escape(component).replace("\x00", "(.+)", 1)
                                     .replace("\x00", r"\1") + "$").match
        return self[component]


def _fillers(root: str, pattern: str, placeholder: str, ids: dict[str, str],
             matchers: _Matchers) -> tuple[str, list[str], list[tuple[str, os.DirEntry]]]:
    """Where a layout pattern's component holding ``{placeholder}`` is filled.

    Lists the directory above that component, its other placeholders filled
    from ``ids``, and returns that directory below the root, the components
    after it, and (value, entry) for each entry, in name order, whose name
    fills the component with that value, as ``matchers`` say.
    """
    parts = pattern.split("/")
    index = _component(parts, placeholder)
    fills = matchers[parts[index].format(**{placeholder: "\x00"}, **ids)]
    parent = "/".join(parts[:index]).format(**ids)
    found = []
    for entry in sorted(_scandir(root, _rel(parent)), key=lambda e: e.name):
        match = fills(entry.name)
        if match:
            found.append((match.group(1), entry))
    return parent, parts[index + 1:], found


def _names(root: str, pattern: str, placeholder: str, ids: dict[str, str],
           matchers: _Matchers) -> tuple[str, list[str]]:
    """The directory listed, below the root, and the values that fill the
    pattern's ``{placeholder}`` component, sorted; an entry below which the
    pattern goes on must be a directory.

    Only the path up to that component is required to exist, so a paper
    directory lacking its plaintext file is still found and gets a proper
    missing-text error instead of vanishing silently.
    """
    parent, rest, found = _fillers(root, pattern, placeholder, ids, matchers)
    return parent, sorted({name for name, entry in found if not rest or entry.is_dir()})


def _unit_files(manifest: CorpusManifest, root: str, role: str, ids: dict[str, str],
                matchers: _Matchers) -> list[tuple[str, str]]:
    """(unit name, location) of each existing per-unit file, in path order."""
    parent, rest, found = _fillers(root, manifest.layout[role], "Unit", ids, matchers)
    out = []
    for unit, entry in found:
        loc = _rel("/".join([parent, entry.name] + [p.format(Unit=unit, **ids) for p in rest]))
        if not rest or os.path.exists(os.path.join(root, loc)):
            out.append((unit, loc))
    return out


def _paper_path(pattern: str, ids: dict[str, str]) -> str:
    """A paper's path below the root: the text pattern up to its ``{paper}`` component."""
    parts = pattern.split("/")
    return _rel("/".join(parts[:_component(parts, "paper") + 1]).format(**ids))


def _load_paper(manifest: CorpusManifest, root: str, task: str, paper_id: str,
                issues: list[ValidationIssue], matchers: _Matchers) -> PaperAnnotation | None:
    ids = {"task": task, "paper": paper_id}
    here = _paper_path(manifest.layout["text"], ids)

    def parsed(loc: str, parse: Callable[..., object], *args,
               missing: tuple[str, str] | None = None, suffix: str = "", **kw):
        """parse(text of the file at loc, *args, **kw), or None.  When no regular
        file is at loc, the ``missing`` (code, message) issue is noted, if given.
        A FormatError raises in strict mode and otherwise becomes a format-error
        issue at loc or loc:line, its message the error's bare text + suffix."""
        try:
            text = _read(os.path.join(root, loc), loc)
            if text is not None:
                return parse(text, *args, **kw)
        except FormatError as exc:
            if manifest.strict:
                raise
            issues.append(ValidationIssue("format-error", position(loc, exc.line),
                                          exc.args[0] + suffix))
            return None
        if missing is not None:
            issues.append(ValidationIssue(missing[0], loc, missing[1]))
        return None

    def per_unit(role: str, parse: Callable[..., object]) -> dict | None:
        """The first parsed file of each unit of a per-unit role; None when the
        role has no file there: none parsed and none reported."""
        out = {}
        reported = len(issues)
        for name, loc in _unit_files(manifest, root, role, ids, matchers):
            try:
                unit = normalize_unit_label(name)
            except UnknownUnitLabel as exc:
                issues.append(ValidationIssue("unknown-unit-label", loc, str(exc)))
                continue
            if unit in out:
                if os.path.isfile(os.path.join(root, loc)):  # else absent, as _read says
                    issues.append(ValidationIssue("duplicate-unit-file", loc, f"a second "
                                                  f"{role} file of {unit.identifier}; skipped"))
                continue
            result = parsed(loc, parse, unit, issues=issues, location=loc)
            if result is not None:
                out[unit] = result
        return out if out or len(issues) > reported else None

    loc = _rel(manifest.layout["text"].format(**ids))
    text = parsed(loc, str, missing=("missing-text", "plaintext absent; paper skipped"),
                  suffix="; paper skipped")
    if text is None:
        if manifest.strict:  # a file that failed has raised, so this one is absent
            raise FormatError("missing plaintext file", path=loc)
        return None
    sentences = DocumentLines(paper_id, _lines(text))
    # a line end is whitespace to str.split, so this is the sum of the per-line
    # counts; taken before the other layers are read, it adds nothing to load's peak
    token_count = len(text.split())
    loc = _rel(manifest.layout["sentences"].format(**ids))
    indices = parsed(loc, parse_sentence_indices, issues=issues, location=loc,
                     missing=("missing-sentences", "sentence-index file absent"))
    loc = _rel(manifest.layout["phrases"].format(**ids))
    phrases = parsed(loc, parse_phrase_file, sentences, strict=manifest.strict,
                     offset_unit=manifest.offset_unit, issues=issues, location=loc,
                     missing=("missing-phrases", "phrase file absent"))
    trees = per_unit("units", parse_unit_file)
    if trees is None:
        issues.append(ValidationIssue("missing-units", here, "no information-unit files found"))
    flattened = {unit: codec.flatten(tree).triples for unit, tree in (trees or {}).items()}

    def triple_fields(text: str, unit: UnitLabel, **kw) -> list[tuple[str, str, str]]:
        """The file's fields, or _AS_FLATTENED for the text its tree's triples write."""
        if unit in flattened:
            try:
                if text == write_triple_lines(flattened[unit]):
                    return _AS_FLATTENED
            except FormatError:  # a field the file cannot hold: the text is not the tree's
                pass
        return _triple_fields(text, **kw)

    file_lines = per_unit("triples", triple_fields)
    if file_lines is None and trees:
        issues.append(ValidationIssue("missing-triples", here,
                                      "no triples files; derived by flattening the unit trees"))
    return _reconcile(
        here, trees, flattened, file_lines, issues, paper_id=paper_id, task=task,
        total_sentence_count=manifest.sentence_totals.get(paper_id, len(sentences)),
        total_token_count=manifest.token_totals.get(paper_id, token_count),
        contribution_sentence_indices=indices, phrases=phrases, sentences=sentences)


#: A triples file's fields when its text is what its unit's tree writes: they
#: are that tree's triples, as written.
_AS_FLATTENED: list[tuple[str, str, str]] = []


def _reconcile(here: str, trees: dict[UnitLabel, UnitTree] | None,
               flattened: dict[UnitLabel, list[Triple]],
               file_lines: dict[UnitLabel, list[tuple[str, str, str]]] | None,
               issues: list[ValidationIssue], **layers) -> PaperAnnotation:
    """The paper of ``layers``, its trees and its triples files' lines.

    ``flattened`` holds each tree's flattened triples.  ``file_lines`` holds
    each file's fields as written, or :data:`_AS_FLATTENED`; either map of
    files is None when the paper has no such files.  A unit with only a
    triples file gets the nest() output of its triples, or where they form
    no tree the triples themselves.  A shipped triples file must be
    set-equal to the paper's triples of its unit by canonical key; each
    difference is itemized in a warning, before the nest failures.
    """
    shipped, lines_by_unit = trees or {}, file_lines or {}
    units = dict(shipped)
    triples = dict(flattened)
    failed = []
    for unit, lines in lines_by_unit.items():
        if unit not in shipped:
            listed = _triples(lines)
            try:
                units[unit] = codec.nest(listed, unit)
            except NotATree as exc:
                failed.append(ValidationIssue("nest-failed", f"{here}/{unit.identifier}",
                                              str(exc)))
                triples[unit] = listed
            else:
                triples[unit] = codec.flatten(units[unit]).triples
    # a map left empty is the one read: None when the paper has no such files
    paper = PaperAnnotation._from_flattened(
        units=units or trees, triples=triples or (None if file_lines is None else {}),
        **layers)
    for unit in [unit for unit in shipped if unit in lines_by_unit]:
        if lines_by_unit[unit] is _AS_FLATTENED:
            continue
        tree_keys = {t.key() for t in paper.triples[unit]}
        # fields as written that equal the canonical tree keys are canonical too
        file_keys = set(lines_by_unit[unit])
        if file_keys != tree_keys:
            file_keys = {tuple(map(canonical_text, fields)) for fields in file_keys}
        if file_keys != tree_keys:
            issues.append(ValidationIssue(
                "triples-file-mismatch", f"{here}/{unit.identifier}",
                f"tree-only: {sorted(tree_keys - file_keys)}; "
                f"file-only: {sorted(file_keys - tree_keys)}"))
    issues += failed
    return paper


def iter_papers(manifest: CorpusManifest,
                issues: list[ValidationIssue]) -> Iterator[PaperAnnotation]:
    """Yield each paper of the corpus as it is loaded, appending recoverable
    issues to ``issues`` as they are found.

    The manifest's text pattern says where the tasks (unless the manifest
    lists them) and each task's papers are.  Missing optional files yield
    warnings; a missing plaintext file yields an error and the paper is
    skipped (non-strict mode).  A listed task under whose directory no
    paper is found yields an ``empty-task`` warning, and a corpus that
    yields no paper an ``empty-corpus`` one, after the last paper.  Tasks
    and papers are visited in sorted order unless the manifest pins task
    order, so a task's papers come together.  Only the ids already yielded
    are kept, so a consumer that drops each paper holds one at a time.

    Raises:
        OSError: the root is not a directory, or a directory the layout
            goes through is there but cannot be listed; on iteration.
    """
    root = Path(manifest.root_path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root does not exist: {root}")
    root_dir = str(root)
    text = manifest.layout["text"]
    matchers = _Matchers()
    tasks = manifest.task_names
    if tasks is None:
        tasks = _names(root_dir, text, "task", {}, matchers)[1]
    seen: set[str] = set()
    for task in tasks:
        searched, paper_ids = _names(root_dir, text, "paper", {"task": task}, matchers)
        if not paper_ids and manifest.task_names is not None:
            issues.append(ValidationIssue("empty-task", _rel(searched),
                                          f"no papers found for the listed task {task!r}"))
        for paper_id in paper_ids:
            if paper_id in seen:
                issues.append(ValidationIssue(
                    "duplicate-paper-id", _paper_path(text, {"task": task, "paper": paper_id}),
                    "paper id already seen under another task; skipped"))
                continue
            paper = _load_paper(manifest, root_dir, task, paper_id, issues, matchers)
            if paper is not None:
                seen.add(paper_id)
                yield paper
    if not seen:
        issues.append(ValidationIssue("empty-corpus", ".", "no papers found"))


def load_corpus(manifest: CorpusManifest) -> tuple[Corpus, list[ValidationIssue]]:
    """Assemble a Corpus from disk, collecting recoverable issues: the papers
    of :func:`iter_papers`, grouped by task, and its issues in order.  A task
    with no paper loaded has no entry.

    Raises:
        OSError: as :func:`iter_papers`.
    """
    issues: list[ValidationIssue] = []
    return Corpus.of(iter_papers(manifest, issues)), issues

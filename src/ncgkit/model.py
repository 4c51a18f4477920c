"""Domain types of the NCG annotation scheme.

Everything here is an in-memory value: the twelve information-unit labels,
tokenized sentences, phrase spans, triples, the nested unit tree, and the
per-paper / corpus containers.  The value types :class:`Sentence`,
:class:`PhraseSpan`, :class:`Predicate` and :class:`Triple` are frozen,
slotted dataclasses with their own ``__init__``: it checks and
canonicalises the arguments, then writes each slot once through its slot
descriptor.  :class:`Node` is slotted and mutable; trees are built by
parsers and treated as read-only afterwards.

Tree order is defined here only: :meth:`Node.walk` and :meth:`Node.walk_edges`
go pre-order with an explicit stack, so a tree of any depth can be walked.

Surface text is canonical by construction: node labels, literal children,
predicate texts, triple fields and phrase texts pass through
:func:`canonical_text` when their value is built, so consumers compare them
as they are.  A string that is already canonical is kept, not copied.
Where the parts are canonical already, the loader skips the check:
``PhraseSpan._from_canonical`` and ``Triple._from_canonical`` write them
straight to the slots, for a span's covered-token join and for a
flattened tree's labels.  They give values equal to the public
constructor's, and check nothing.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate

from .errors import UnknownUnitLabel

CONTRIBUTION = "Contribution"


def canonical_text(raw: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends.

    Case and every non-whitespace character are preserved: the scheme keeps
    surface forms verbatim, including tokenizer oddities like "–" or "?".
    A string that is already canonical is returned itself, not a copy.

    The definition is ``" ".join(raw.split())``.  Most strings are already
    canonical, and a C-level check finds them without splitting: a
    printable string with no double space and no space at either end is
    returned as it is.  That is exact because every character ``str.split``
    breaks on, other than the space, is unprintable.
    """
    if raw.isprintable() and "  " not in raw and raw[:1] != " " and raw[-1:] != " ":
        return raw
    text = " ".join(raw.split())
    return raw if text == raw else text


class UnitLabel(Enum):
    """Closed set of the 12 information-unit types."""

    RESEARCH_PROBLEM = "ResearchProblem"
    APPROACH = "Approach"
    MODEL = "Model"
    CODE = "Code"
    DATASET = "Dataset"
    EXPERIMENTAL_SETUP = "ExperimentalSetup"
    HYPERPARAMETERS = "Hyperparameters"
    BASELINES = "Baselines"
    RESULTS = "Results"
    TASKS = "Tasks"
    EXPERIMENTS = "Experiments"
    ABLATION_ANALYSIS = "AblationAnalysis"

    @property
    def identifier(self) -> str:
        """One-token name, used in file names (e.g. ``ResearchProblem``)."""
        return self.value

    @property
    def display(self) -> str:
        """Spaced display name (e.g. ``Research Problem``)."""
        return re.sub(r"(?<!^)(?=[A-Z])", " ", self.value)


#: Alternative surface names folded into a canonical unit.
_UNIT_ALIASES = {
    "method": UnitLabel.APPROACH,
    "application": UnitLabel.APPROACH,
    "system": UnitLabel.MODEL,
    "architecture": UnitLabel.MODEL,
}

_UNIT_LOOKUP: dict[str, UnitLabel] = {}
for _label in UnitLabel:
    _UNIT_LOOKUP[_label.value.lower()] = _label
for _alias, _label in _UNIT_ALIASES.items():
    _UNIT_LOOKUP[_alias] = _label


def lookup_unit_label(raw: str) -> UnitLabel | None:
    """The unit a surface name denotes, or None when it names none.

    Matching ignores case and all whitespace, so ``Experimental Setup``
    and ``experimentalsetup`` both resolve.  ``method``/``application`` fold
    into Approach and ``system``/``architecture`` into Model.
    """
    return _UNIT_LOOKUP.get("".join(raw.split()).lower())


def normalize_unit_label(raw: str) -> UnitLabel:
    """Map a surface unit name onto one of the 12 canonical labels.

    Matching is that of :func:`lookup_unit_label`.

    Raises:
        UnknownUnitLabel: the name matches no canonical unit or alias.
    """
    unit = lookup_unit_label(raw)
    if unit is None:
        raise UnknownUnitLabel(f"not an information unit: {raw!r}" if raw.strip()
                               else "empty unit name")
    return unit


def _slot_setters(cls: type) -> tuple:
    """Each field's slot ``__set__``, in field order.

    A frozen value's ``__init__`` writes each slot once through these,
    after checking and canonicalising its arguments.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


_new = object.__new__


@dataclass(frozen=True, slots=True, init=False)
class Sentence:
    """One pre-tokenized plaintext line of a paper.

    ``index`` is the 1-based line position; ``text`` is always the tokens
    joined by single spaces.
    """

    paper_id: str
    index: int
    tokens: tuple[str, ...]
    text: str = field(init=False)

    def __init__(self, paper_id: str, index: int, tokens: tuple[str, ...]) -> None:
        if index < 1:
            raise ValueError(f"sentence index must be >= 1, got {index}")
        if not tokens:
            raise ValueError("sentence has no tokens")
        set_paper_id, set_index, set_tokens, set_text = _SENTENCE_SLOTS
        set_paper_id(self, paper_id)
        set_index(self, index)
        set_tokens(self, tokens)
        set_text(self, " ".join(tokens))


_SENTENCE_SLOTS = _slot_setters(Sentence)


class DocumentLines(Sequence):
    """Read-only view of a paper's plaintext lines as sentences.

    Holds the lines' UTF-8 encoding as one ``bytes`` object plus an array of
    line-end offsets into it, so a paper costs one object and 8 bytes per
    line instead of one ``str`` per line.  UTF-8, not one ``str``, because
    a ``str`` stores every character as wide as its widest: one character
    above U+00FF would double the whole paper.  A line is sliced out,
    decoded and tokenized only when it is read: item ``i`` is
    ``Sentence(paper_id, i + 1, tokens)``, or None for a blank line.
    Nothing is cached.  Any list of strings round-trips exactly, lines
    holding break characters or lone surrogates included.  It compares
    equal to a list of the same items, such as the eager list of sentences.
    """

    __slots__ = ("paper_id", "_data", "_ends")

    def __init__(self, paper_id: str, lines: list[str]) -> None:
        self.paper_id = paper_id
        encoded = [line.encode("utf-8", "surrogatepass") for line in lines]
        self._data = b"".join(encoded)
        self._ends = array("Q", accumulate(map(len, encoded)))

    def _sentence(self, index: int, line: str) -> Sentence | None:
        tokens = tuple(line.split())
        return Sentence(self.paper_id, index, tokens) if tokens else None

    def _line(self, start: int, end: int) -> str:
        return self._data[start:end].decode("utf-8", "surrogatepass")

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._ends)))]
        end = self._ends[index]
        index %= len(self._ends)
        start = self._ends[index - 1] if index else 0
        return self._sentence(index + 1, self._line(start, end))

    def __iter__(self):
        start = 0
        for index, end in enumerate(self._ends, 1):
            yield self._sentence(index, self._line(start, end))
            start = end

    def __eq__(self, other) -> bool:
        if not isinstance(other, (DocumentLines, list)):
            return NotImplemented
        return len(other) == len(self) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True, slots=True, init=False)
class PhraseSpan:
    """A scientific-term or predicate phrase inside one sentence.

    Token offsets are 0-based, start inclusive, end exclusive.  ``text`` is
    canonical (a canonical argument is kept) and must equal the covered
    tokens joined by single spaces; parsers enforce this against the
    referenced sentence.
    """

    sentence_index: int
    start_tok: int
    end_tok: int
    text: str

    def __init__(self, sentence_index: int, start_tok: int, end_tok: int,
                 text: str) -> None:
        if start_tok < 0 or start_tok >= end_tok:
            raise ValueError(f"bad span offsets [{start_tok}, {end_tok})")
        set_sentence_index, set_start_tok, set_end_tok, set_text = _PHRASE_SPAN_SLOTS
        set_sentence_index(self, sentence_index)
        set_start_tok(self, start_tok)
        set_end_tok(self, end_tok)
        set_text(self, canonical_text(text))

    @classmethod
    def _from_canonical(cls, sentence_index: int, start_tok: int, end_tok: int,
                        text: str) -> "PhraseSpan":
        """A span whose caller guarantees ``0 <= start_tok < end_tok`` and a
        canonical ``text``; nothing is checked."""
        span = _new(cls)
        set_sentence_index, set_start_tok, set_end_tok, set_text = _PHRASE_SPAN_SLOTS
        set_sentence_index(span, sentence_index)
        set_start_tok(span, start_tok)
        set_end_tok(span, end_tok)
        set_text(span, text)
        return span

    def token_count(self) -> int:
        return self.end_tok - self.start_tok


_PHRASE_SPAN_SLOTS = _slot_setters(PhraseSpan)


class PredicateKind(Enum):
    TEXTUAL = "Textual"
    FILLER_HAS = "FillerHas"
    FILLER_NAME = "FillerName"
    FILLER_HAS_ACRONYM = "FillerHasAcronym"


_FILLER_TEXTS = {
    "has": PredicateKind.FILLER_HAS,
    "name": PredicateKind.FILLER_NAME,
    "hasAcronym": PredicateKind.FILLER_HAS_ACRONYM,
}


@dataclass(frozen=True, slots=True, init=False)
class Predicate:
    """A relation surface string plus its filler classification.

    ``text`` is canonical; a canonical argument is kept, not copied.
    ``kind`` is derived from the text: exactly ``has``, ``name``, and
    ``hasAcronym`` are fillers; every other text is Textual.
    """

    text: str
    kind: PredicateKind = field(init=False)

    def __init__(self, text: str) -> None:
        text = canonical_text(text)
        set_text, set_kind = _PREDICATE_SLOTS
        set_text(self, text)
        set_kind(self, _FILLER_TEXTS.get(text, PredicateKind.TEXTUAL))


_PREDICATE_SLOTS = _slot_setters(Predicate)

HAS = Predicate("has")


@dataclass(frozen=True, slots=True, init=False)
class Triple:
    """A (subject, predicate, object) surface-form statement.

    ``subject`` and ``object`` are canonical, as the predicate's text is; a
    canonical argument is kept, not copied.  No field may be empty.
    """

    subject: str
    predicate: Predicate
    object: str

    def __init__(self, subject: str, predicate: Predicate, object: str) -> None:
        subject = canonical_text(subject)
        object = canonical_text(object)
        if not (subject and predicate.text and object):
            raise ValueError(f"empty triple field in ({subject!r}, "
                             f"{predicate.text!r}, {object!r})")
        set_subject, set_predicate, set_object = _TRIPLE_SLOTS
        set_subject(self, subject)
        set_predicate(self, predicate)
        set_object(self, object)

    @classmethod
    def _from_canonical(cls, subject: str, predicate: Predicate, object: str) -> "Triple":
        """A triple whose caller guarantees three canonical, non-empty
        fields; nothing is checked."""
        triple = _new(cls)
        set_subject, set_predicate, set_object = _TRIPLE_SLOTS
        set_subject(triple, subject)
        set_predicate(triple, predicate)
        set_object(triple, object)
        return triple

    @classmethod
    def of(cls, subject: str, predicate: str, obj: str) -> "Triple":
        """Build a triple from three strings, classifying the predicate."""
        return cls(subject, Predicate(predicate), obj)

    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate.text, self.object)


_TRIPLE_SLOTS = _slot_setters(Triple)


@dataclass(slots=True)
class Node:
    """One labeled node of a unit tree.

    ``label`` is canonical and never empty; a canonical argument is kept,
    not copied.  ``provenance`` holds the "from sentence" strings attached
    to this node; they are metadata and never become triples.  Edges are
    added only through :meth:`add`, which stores as a child a Node, a
    canonical non-empty literal string, or None for a predicate whose value
    was empty in the source file (a dangling predicate).  Edge order is the
    order of appearance in the source file.
    """

    label: str
    provenance: list[str] = field(default_factory=list)
    edges: list[tuple[Predicate, "Node | str | None"]] = field(default_factory=list,
                                                                init=False)

    def __post_init__(self) -> None:
        self.label = canonical_text(self.label)
        if not self.label:
            raise ValueError("empty node label")

    def add(self, predicate: Predicate, child: "Node | str | None") -> None:
        """Append an edge; a literal is canonicalized, and a blank one dangles."""
        if isinstance(child, str):
            child = canonical_text(child) or None
        self.edges.append((predicate, child))

    def walk(self):
        """Yield this node and every descendant node, pre-order."""
        yield self
        stack = [iter(self.edges)]  # the unvisited edges of each open node
        while stack:
            for _, child in stack[-1]:
                if isinstance(child, Node):
                    yield child
                    stack.append(iter(child.edges))
                    break
            else:
                stack.pop()

    def walk_edges(self):
        """Yield ``(depth, node, predicate, child)`` for every edge below this
        node, dangling edges included, pre-order: an edge comes before its
        child's edges.  ``depth`` is that of ``node``, 0 for this node."""
        stack = [(0, self, iter(self.edges))]  # each open node, with its unvisited edges
        while stack:
            depth, node, edges = stack[-1]
            for predicate, child in edges:
                yield depth, node, predicate, child
                if isinstance(child, Node):
                    stack.append((depth + 1, child, iter(child.edges)))
                    break
            else:
                stack.pop()


@dataclass
class UnitTree:
    """The nested annotation of one information unit.

    ``root`` is the materialized "Contribution" super-root; in well-formed
    data it has a single ``has`` edge to the unit node, whose label matches
    the unit's display name.
    """

    unit: UnitLabel
    root: Node

    @classmethod
    def from_unit_node(cls, unit: UnitLabel, node: Node) -> "UnitTree":
        root = Node(CONTRIBUTION)
        root.add(HAS, node)
        return cls(unit, root)

    @property
    def unit_node(self) -> Node | None:
        """The first node hanging off the Contribution root, if any."""
        for _, child in self.root.edges:
            if isinstance(child, Node):
                return child
        return None

    def nodes(self):
        return self.root.walk()


@dataclass
class PaperAnnotation:
    """All annotation layers of one paper.

    Layer fields are ``None`` when the corresponding file was absent on
    disk, as opposed to present-but-empty.  ``sentences`` is the full
    document when the plaintext was loaded, one entry per line; a loaded
    paper holds a :class:`DocumentLines`, which keeps the text as one UTF-8
    ``bytes`` with line-end offsets and tokenizes a line when it is read,
    and a list of ``Sentence | None`` works the same.  Validators
    ground surface forms in the contribution sentences.  When both maps
    hold a unit, ``triples[u]`` is ``flatten(units[u]).triples``;
    ``load_corpus`` guarantees this.
    """

    paper_id: str
    task: str
    total_sentence_count: int | None = None
    total_token_count: int | None = None
    contribution_sentence_indices: set[int] | None = None
    phrases: list[PhraseSpan] | None = None
    units: dict[UnitLabel, UnitTree] | None = None
    triples: dict[UnitLabel, list[Triple]] | None = None
    sentences: Sequence[Sentence | None] | None = None

    def sentence(self, index: int) -> Sentence | None:
        if self.sentences is None or not 1 <= index <= len(self.sentences):
            return None
        return self.sentences[index - 1]

    def contribution_texts(self) -> list[str]:
        """Texts of the selected contribution sentences, where resolvable."""
        if not self.contribution_sentence_indices:
            return []
        out = []
        for idx in sorted(self.contribution_sentence_indices):
            sent = self.sentence(idx)
            if sent is not None:
                out.append(sent.text)
        return out


@dataclass
class Corpus:
    """Papers grouped by task, in stable task and paper order."""

    tasks: dict[str, list[PaperAnnotation]] = field(default_factory=dict)

    def papers(self):
        for papers in self.tasks.values():
            yield from papers

    def paper_ids(self) -> list[str]:
        return [p.paper_id for p in self.papers()]

    def get(self, paper_id: str) -> PaperAnnotation | None:
        for paper in self.papers():
            if paper.paper_id == paper_id:
                return paper
        return None

    def __len__(self) -> int:
        return sum(len(v) for v in self.tasks.values())

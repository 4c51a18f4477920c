"""Domain types of the NCG annotation scheme.

Everything here is an in-memory value: the twelve information-unit labels,
tokenized sentences, phrase spans, triples, the nested unit tree, and the
per-paper / corpus containers.  The value types :class:`Sentence`,
:class:`PhraseSpan`, :class:`Predicate` and :class:`Triple` are frozen,
slotted dataclasses with their own ``__init__``: it checks and
canonicalises the arguments, then writes each slot once through its slot
descriptor.  :class:`Node` is slotted and mutable; trees are built by
parsers and treated as read-only afterwards.

Tree order is defined here only: :meth:`Node.walk_edges` goes pre-order with
an explicit stack, so a tree of any depth can be walked, and
:meth:`Node.walk` is the root followed by the node children it yields.
A node's ``==`` and ``repr`` are the dataclass ones, computed over one edge
walk, so a tree of any depth compares and prints.

Surface text is canonical by construction: node labels, literal children,
predicate texts, triple fields and phrase texts pass through
:func:`canonical_text` when their value is built, so consumers compare them
as they are.  A string that is already canonical is kept, not copied.
Where the parts are canonical already, the check is skipped:
``Sentence._from_canonical``, ``PhraseSpan._from_canonical`` and
``Triple._from_canonical`` write them straight to the slots, for a line
that :class:`DocumentLines` tokenized, a text that :class:`PhraseColumns`
stored and a flattened tree's labels.  They give values equal to the
public constructor's, and check nothing.

A loaded paper holds its text as :class:`DocumentLines` and its phrases as
:class:`PhraseColumns`, sequences equal to the eager lists, which work the
same; consumers read phrases as columns, through :meth:`PhraseColumns.of`.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate, zip_longest

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

    @classmethod
    def _from_canonical(cls, paper_id: str, index: int, tokens: tuple[str, ...],
                        text: str) -> "Sentence":
        """A sentence whose caller guarantees ``index >= 1``, non-empty
        ``tokens`` and ``text == " ".join(tokens)``; nothing is checked."""
        sentence = _new(cls)
        set_paper_id, set_index, set_tokens, set_text = _SENTENCE_SLOTS
        set_paper_id(sentence, paper_id)
        set_index(sentence, index)
        set_tokens(sentence, tokens)
        set_text(sentence, text)
        return sentence


_SENTENCE_SLOTS = _slot_setters(Sentence)


class _BufferView(Sequence):
    """A read-only sequence whose items are stored in one ``bytes`` with an
    array ``_ends`` of item-end offsets, and built on access by ``_item``.
    It compares equal to, and prints as, the list of its items."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._ends)))]
        end = self._ends[index]
        index %= len(self._ends)
        return self._item(index, self._ends[index - 1] if index else 0, end)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (type(self), list)):
            return NotImplemented
        return len(other) == len(self) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class DocumentLines(_BufferView):
    """Read-only view of a paper's plaintext lines as sentences.

    Holds the lines' UTF-8 encoding as one ``bytes`` object plus an array of
    line-end offsets into it, so a paper costs one object and 8 bytes per
    line instead of one ``str`` per line.  UTF-8, not one ``str``, because
    a ``str`` stores every character as wide as its widest: one character
    above U+00FF would double the whole paper.  A line is sliced out,
    decoded and tokenized only when it is read: item ``i`` equals
    ``Sentence(paper_id, i + 1, tokens)``, or is None for a blank line.
    It is built without that constructor's checks, which the line's
    ``str.split`` tokens pass by construction; :meth:`_tokens` reads the
    tokens alone, for a loader that needs no Sentence.  Nothing is cached.
    Any list of strings round-trips exactly, lines holding break characters
    or lone surrogates included.  It compares equal to a list of the same
    items, such as the eager list of sentences.
    """

    __slots__ = ("paper_id", "_data", "_ends")

    def __init__(self, paper_id: str, lines: list[str]) -> None:
        self.paper_id = paper_id
        text = "".join(lines)
        if text.isascii():  # a byte a character: the str lengths are the offsets
            self._data = text.encode("ascii")
        else:
            lines = [line.encode("utf-8", "surrogatepass") for line in lines]
            self._data = b"".join(lines)
        self._ends = array("Q", accumulate(map(len, lines)))

    def _tokens(self, index: int) -> list[str]:
        """The tokens of the sentence with 1-based ``index``, as a list; none
        for a blank line or an index out of range.  No Sentence is built."""
        ends = self._ends
        if not 0 < index <= len(ends):
            return []
        return self._line(ends[index - 2] if index > 1 else 0, ends[index - 1]).split()

    def _sentence(self, index: int, line: str) -> Sentence | None:
        tokens = tuple(line.split())
        # index counts from 1 and tokens is not empty; canonical_text(line)
        # is " ".join(line.split()), the text Sentence would join
        return (Sentence._from_canonical(self.paper_id, index, tokens, canonical_text(line))
                if tokens else None)

    def _line(self, start: int, end: int) -> str:
        return self._data[start:end].decode("utf-8", "surrogatepass")

    def _item(self, index: int, start: int, end: int) -> Sentence | None:
        return self._sentence(index + 1, self._line(start, end))

    def __iter__(self):
        start = 0
        for index, end in enumerate(self._ends, 1):
            yield self._sentence(index, self._line(start, end))
            start = end


@dataclass(frozen=True, slots=True, init=False)
class PhraseSpan:
    """A scientific-term or predicate phrase inside one sentence.

    ``sentence_index`` is 1-based, as a sentence's is.  Token offsets are
    0-based, start inclusive, end exclusive.  All three are below ``2**32``,
    as :class:`PhraseColumns` stores them.  ``text`` is canonical (a
    canonical argument is kept) and must equal the covered tokens joined by
    single spaces; parsers enforce this against the referenced sentence.
    """

    sentence_index: int
    start_tok: int
    end_tok: int
    text: str

    def __init__(self, sentence_index: int, start_tok: int, end_tok: int,
                 text: str) -> None:
        if sentence_index < 1:
            raise ValueError(f"sentence index must be >= 1, got {sentence_index}")
        if start_tok < 0 or start_tok >= end_tok:
            raise ValueError(f"bad span offsets [{start_tok}, {end_tok})")
        if sentence_index >= 2**32 or end_tok >= 2**32:
            raise ValueError(f"span {sentence_index} [{start_tok}, {end_tok}) "
                             f"does not fit 32 bits")
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


class PhraseColumns(_BufferView):
    """Read-only sequence of phrase spans held as columns: sentence indices
    and token offsets as three ``array('I')``, which must fit 32 bits, and
    the texts as one UTF-8 ``bytes``, a line feed after each but the last,
    with an array of text-end offsets.  A canonical text holds no line feed,
    so :meth:`texts` decodes them all in one pass.  Consumers read the
    columns and :meth:`texts`; item ``i`` is built on access as the equal
    ``PhraseSpan``, and nothing is cached."""

    __slots__ = ("sentence_indices", "start_toks", "end_toks", "_data", "_ends")

    def __init__(self, sentence_indices: array, start_toks: array, end_toks: array,
                 texts: list[str]) -> None:
        """Columns kept as they are, each span as ``PhraseSpan._from_canonical``
        asks; nothing is checked."""
        self.sentence_indices = sentence_indices
        self.start_toks = start_toks
        self.end_toks = end_toks
        data = "\n".join(texts)
        if data.isascii():  # a byte a character: the str lengths are the offsets
            self._data = data.encode("ascii")
        else:
            texts = [text.encode("utf-8", "surrogatepass") for text in texts]
            self._data = b"\n".join(texts)
        # each text's end plus its line feed, where the next text starts
        self._ends = array("I", accumulate(map((1).__add__, map(len, texts))))

    @classmethod
    def of(cls, spans: Sequence[PhraseSpan]) -> "PhraseColumns":
        """``spans`` itself when it is columns already, else its spans as columns."""
        if isinstance(spans, cls):
            return spans
        return cls(array("I", [s.sentence_index for s in spans]),
                   array("I", [s.start_tok for s in spans]),
                   array("I", [s.end_tok for s in spans]), [s.text for s in spans])

    def texts(self) -> list[str]:
        """Every span's text, in order."""
        return self._data.decode("utf-8", "surrogatepass").split("\n") if self else []

    def _item(self, index: int, start: int, end: int) -> PhraseSpan:
        return PhraseSpan._from_canonical(
            self.sentence_indices[index], self.start_toks[index], self.end_toks[index],
            self._data[start:end - 1].decode("utf-8", "surrogatepass"))

    def __iter__(self):
        return map(PhraseSpan._from_canonical, self.sentence_indices, self.start_toks,
                   self.end_toks, self.texts())


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

    ``text`` is canonical and never empty; a canonical argument is kept,
    not copied.  ``kind`` is derived from the text: exactly ``has``,
    ``name``, and ``hasAcronym`` are fillers; every other text is Textual.
    """

    text: str
    kind: PredicateKind = field(init=False)

    def __init__(self, text: str) -> None:
        text = canonical_text(text)
        if not text:
            raise ValueError("empty predicate")
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
        if not (subject and object):
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

    def add(self, predicate: Predicate, child: "Node | str | None") -> "Node | str | None":
        """Append an edge and return the child stored: a literal is
        canonicalized, and a blank one dangles, stored as None."""
        if isinstance(child, str):
            child = canonical_text(child) or None
        self.edges.append((predicate, child))
        return child

    def walk(self):
        """Yield this node and every descendant node, pre-order: this node,
        then the node children of :meth:`walk_edges`."""
        yield self
        for _, _, _, child in self.walk_edges():
            if isinstance(child, Node):
                yield child

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

    def _edge_keys(self):
        """Each edge below this node as ``(depth, predicate, label,
        provenance)`` for a node child and ``(depth, predicate, literal)``
        otherwise, pre-order: a sequence that encodes the ordered tree."""
        for depth, _, predicate, child in self.walk_edges():
            if isinstance(child, Node):
                yield depth, predicate, child.label, child.provenance
            else:
                yield depth, predicate, child

    def __eq__(self, other) -> bool:
        """Equal label, provenance and edges, children compared the same way;
        the edges are compared in one walk, so a tree of any depth compares."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label == other.label and self.provenance == other.provenance
                and all(a == b for a, b in zip_longest(self._edge_keys(),
                                                       other._edge_keys())))

    def __repr__(self) -> str:
        """The dataclass repr, written in one walk so a tree of any depth prints."""
        def head(node: Node) -> str:
            return (f"{node.__class__.__qualname__}(label={node.label!r}, "
                    f"provenance={node.provenance!r}, edges=[")

        parts = [head(self)]
        open_depth = 0  # the depth of the innermost node whose repr is open
        for depth, _, predicate, child in self.walk_edges():
            if open_depth > depth:
                parts.append("]))" * (open_depth - depth))
                open_depth = depth
            if parts[-1][-1] != "[":  # not the node's first edge
                parts.append(", ")
            if isinstance(child, Node):
                parts.append(f"({predicate!r}, {head(child)}")
                open_depth += 1
            else:
                parts.append(f"({predicate!r}, {child!r})")
        parts.append("]))" * open_depth + "])")
        return "".join(parts)


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


def _refuse(self, *args, **kwargs):
    raise TypeError("a built paper or graph is read-only")


class _ReadOnlyDict(dict):
    """A dict that refuses every change; it equals, prints, pickles and copies as one."""

    __slots__ = ()

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class ReadOnlyList(list):
    """A list that refuses every change; it equals, prints, pickles and copies as one."""

    __slots__ = ()

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return type(self), (list(self),)


@dataclass(frozen=True)
class PaperAnnotation:
    """All annotation layers of one paper, read-only once built.

    Layer fields are ``None`` when the corresponding file was absent on
    disk, as opposed to present-but-empty.  ``sentences`` is the full
    document when the plaintext was loaded, one entry per line: a
    :class:`DocumentLines` when loaded, or a list of ``Sentence | None``.
    ``phrases`` is a :class:`PhraseColumns` when loaded, or any sequence of
    spans.  Validators ground surface forms in the contribution sentences.
    Both unit maps are in :attr:`UnitLabel.identifier` order, and
    ``triples`` holds every unit of either.  The tree wins: a unit with a
    tree has ``triples[u] == flatten(units[u]).triples``, and a list given
    for it is ignored; a unit without one keeps a copy of the list given.
    Both maps, each unit's triples (a :class:`ReadOnlyList`) and the
    contribution sentence indices (a ``frozenset``) refuse changes;
    :func:`dataclasses.replace` builds a changed paper.  A
    loader that has flattened each tree already builds the paper with
    :meth:`_from_flattened`, which flattens none again.
    """

    paper_id: str
    task: str
    total_sentence_count: int | None = None
    total_token_count: int | None = None
    contribution_sentence_indices: frozenset[int] | None = None
    phrases: Sequence[PhraseSpan] | None = None
    units: dict[UnitLabel, UnitTree] | None = None
    triples: dict[UnitLabel, list[Triple]] | None = None
    sentences: Sequence[Sentence | None] | None = None

    def __post_init__(self) -> None:
        """Flatten every tree into ``triples``, then :meth:`_settle` the maps."""
        if self.units:
            from .codec import flatten  # codec imports this module
            object.__setattr__(self, "triples", {**(self.triples or {}), **{
                unit: flatten(tree).triples for unit, tree in self.units.items()}})
        self._settle()

    @classmethod
    def _from_flattened(cls, **layers) -> "PaperAnnotation":
        """The paper of ``layers``, whose caller guarantees that ``triples``
        maps each unit with a tree to ``flatten(tree).triples``; no tree is
        flattened and nothing is checked."""
        paper = _new(cls)
        for name, default in _PAPER_FIELDS:
            object.__setattr__(paper, name, layers.get(name, default))
        paper._settle()
        return paper

    def _settle(self) -> None:
        """Order both unit maps and make them, each unit's triples and the
        contribution sentence indices read-only; a map that was None stays
        None when nothing is added."""
        units, stored = self.units or {}, self.triples or {}
        listed = sorted(units.keys() | stored.keys(), key=lambda unit: unit.identifier)
        if self.units is not None:
            object.__setattr__(self, "units", _ReadOnlyDict(
                (unit, units[unit]) for unit in listed if unit in units))
        if listed or self.triples is not None:
            object.__setattr__(self, "triples", _ReadOnlyDict(
                (unit, ReadOnlyList(stored[unit])) for unit in listed))
        if self.contribution_sentence_indices is not None:
            object.__setattr__(self, "contribution_sentence_indices",
                               frozenset(self.contribution_sentence_indices))

    def sentence(self, index: int) -> Sentence | None:
        if self.sentences is None or not 1 <= index <= len(self.sentences):
            return None
        return self.sentences[index - 1]

    def contribution_texts(self) -> list[str]:
        """Texts of the selected contribution sentences, where resolvable."""
        sentences = map(self.sentence, sorted(self.contribution_sentence_indices or ()))
        return [sent.text for sent in sentences if sent is not None]


_PAPER_FIELDS = tuple((f.name, f.default) for f in fields(PaperAnnotation))


@dataclass
class Corpus:
    """Papers grouped by task, in stable task and paper order.  Iterating a
    corpus yields its papers in that order, as :meth:`papers` does."""

    tasks: dict[str, list[PaperAnnotation]] = field(default_factory=dict)

    @classmethod
    def of(cls, papers) -> Corpus:
        """The papers of an iterable, grouped by task in the order they come."""
        corpus = cls()
        for paper in papers:
            corpus.tasks.setdefault(paper.task, []).append(paper)
        return corpus

    def papers(self):
        for papers in self.tasks.values():
            yield from papers

    def __iter__(self):
        return self.papers()

    def paper_ids(self) -> list[str]:
        return [p.paper_id for p in self.papers()]

    def get(self, paper_id: str) -> PaperAnnotation | None:
        for paper in self.papers():
            if paper.paper_id == paper_id:
                return paper
        return None

    def __len__(self) -> int:
        return sum(len(v) for v in self.tasks.values())

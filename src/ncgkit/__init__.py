"""Toolkit for NLPContributionGraph (NCG) scholarly-contribution annotations.

Parses the per-paper annotation files (contribution sentences, phrase
spans, nested information-unit trees, triple lines), validates them against
the scheme rules, converts between trees and triples, computes corpus
statistics and two-stage agreement scores, builds a queryable knowledge
graph with N-Triples export, and generates cross-paper comparison tables.
"""

__version__ = "0.1.0"

from .codec import FlattenedUnit, flatten, nest, roundtrip_check, trees_equivalent
from .compare import ComparisonTable, compare, render, table_to_dict
from .corpus_io import (
    CorpusManifest,
    iter_papers,
    load_corpus,
    parse_phrase_file,
    parse_sentence_indices,
    parse_triple_lines,
    parse_unit_file,
    write_triple_lines,
    write_unit_file,
)
from .errors import (
    AlternationError,
    FormatError,
    GranularityUnavailable,
    MissingTotals,
    NcgError,
    NotATree,
    SpanOutOfRange,
    SpanTextMismatch,
    UnknownPaper,
    UnknownStartNode,
    UnknownUnitLabel,
)
from .issues import ERROR, WARNING, ValidationIssue
from .kg import (
    Graph,
    GraphNode,
    build_graph,
    edge_signature,
    export_ntriples,
    import_ntriples,
    traverse,
)
from .metrics import (
    AgreementReport,
    CorpusStats,
    MatchConfig,
    PRF,
    UnitStats,
    corpus_stats,
    f1_from_percent,
    prf,
    score,
    score_all,
    unit_stats,
)
from .model import (
    CONTRIBUTION,
    Corpus,
    DocumentLines,
    Node,
    PaperAnnotation,
    PhraseColumns,
    PhraseSpan,
    Predicate,
    PredicateKind,
    Sentence,
    Triple,
    UnitLabel,
    UnitTree,
    canonical_text,
    lookup_unit_label,
    normalize_unit_label,
)
from .validate import (
    ValidationPolicy,
    ValidationReport,
    summarize_reports,
    validate_corpus,
    validate_paper,
)

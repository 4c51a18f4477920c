"""Command-line entry point.

Subcommands cover the whole pipeline: validate, stats, unit-stats, score,
flatten, nest, build-kg, traverse, compare.  Corpus-reading commands take
``--manifest`` (falling back to the NCG_MANIFEST environment variable); a
directory passed as manifest means "default layout rooted here".  Every
corpus load writes each load issue to stderr as ``<side>: <issue line>``,
where the side is ``gold`` or ``pred`` for score and ``corpus`` otherwise;
a ``--check`` file is read before the corpus.  ``score`` without
``--granularity`` scores each granularity both corpora have files for.
Outputs are byte-identical across runs.  Exit codes: 0 success, 1
validation errors or ``--check`` mismatch, 2 usage or format error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .compare import compare, render, table_to_dict
from .corpus_io import (
    DEFAULT_LAYOUT,
    CorpusManifest,
    _json_object,
    _read_file,
    _RepeatedKey,
    load_corpus,
    parse_triple_lines,
    parse_unit_file,
    write_triple_lines,
    write_unit_file,
)
from .codec import flatten, nest
from .errors import FormatError, NcgError
from .issues import ERROR
from .kg import PER_PAPER, SURFACE_MERGE, build_graph, export_ntriples, traverse
from .metrics import (
    GRANULARITIES,
    PHRASE_MATCHES,
    TRIPLE_SCOPES,
    MatchConfig,
    corpus_stats,
    score,
    score_all,
    unit_stats,
)
from .model import UnitLabel, normalize_unit_label
from .validate import PROVENANCE_CHECKS, ValidationPolicy, summarize_reports, validate_corpus


def positive_int(value: str) -> int:
    """An argument value that must be an integer of at least 1."""
    number = int(value)
    if number < 1:
        raise ValueError(value)
    return number


def non_negative_int(value: str) -> int:
    """An argument value that must be an integer of at least 0."""
    number = int(value)
    if number < 0:
        raise ValueError(value)
    return number


def title_entry(value: str) -> tuple[str, str]:
    """A ``PAPER=TITLE`` argument value, as (paper id, title)."""
    paper_id, sep, title = value.partition("=")
    if not sep:
        raise ValueError(value)
    return paper_id, title


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncg", description="NCG annotation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--manifest", default=os.environ.get("NCG_MANIFEST"),
                       help="manifest file or corpus root directory "
                            "(default: $NCG_MANIFEST)")
        p.add_argument("--strict", action="store_true",
                       help="fail on recoverable format deviations")
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("validate", help="check the scheme rules over a corpus")
    add_corpus_args(p)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--provenance-check", choices=PROVENANCE_CHECKS,
                   default=ValidationPolicy.provenance_check)
    p.add_argument("--max-phrase-tokens", type=int,
                   default=ValidationPolicy.max_phrase_tokens)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="corpus characteristics per task")
    add_corpus_args(p)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--check", metavar="EXPECTED",
                   help="compare against an expected-values JSON file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("unit-stats", help="triples and papers per unit")
    add_corpus_args(p)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--check", metavar="EXPECTED")
    p.set_defaults(func=cmd_unit_stats)

    p = sub.add_parser("score", help="agreement between two corpora")
    p.add_argument("--gold", required=True, help="gold manifest or root")
    p.add_argument("--pred", required=True, help="predicted manifest or root")
    p.add_argument("--granularity",
                   choices=list(GRANULARITIES), default=None,
                   help="score one granularity (default: all both corpora have)")
    p.add_argument("--phrase-match", choices=PHRASE_MATCHES,
                   default=MatchConfig.phrase_match)
    p.add_argument("--triple-scope", choices=TRIPLE_SCOPES,
                   default=MatchConfig.triple_scope)
    p.add_argument("--fold", choices=["none", "casefold"], default="none")
    p.add_argument("--strict", action="store_true",
                   help="fail on recoverable format deviations in either corpus")
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("flatten", help="unit tree file to triple lines")
    p.add_argument("path", help="unit JSON file or paper directory")
    p.add_argument("--unit", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("nest", help="triple lines to a unit tree file")
    p.add_argument("path", help="triples file or paper directory")
    p.add_argument("--unit", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_nest)

    p = sub.add_parser("build-kg", help="export the corpus as N-Triples")
    add_corpus_args(p)
    p.add_argument("--merge", choices=[PER_PAPER, SURFACE_MERGE],
                   default=PER_PAPER)
    p.set_defaults(func=cmd_build_kg)

    p = sub.add_parser("traverse", help="walk a paper's graph branch")
    add_corpus_args(p)
    p.add_argument("--paper", required=True)
    p.add_argument("--start", required=True, help="label of the start node")
    p.add_argument("--depth", type=non_negative_int, default=1,
                   help="levels below the start node (0: the start node only)")
    p.set_defaults(func=cmd_traverse)

    p = sub.add_parser("compare", help="tabulated comparison across papers")
    add_corpus_args(p)
    p.add_argument("--unit", required=True)
    p.add_argument("--papers", required=True,
                   help="comma-separated paper ids (column order)")
    p.add_argument("--depth", type=positive_int, default=1)
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p.add_argument("--title", action="append", default=[], type=title_entry,
                   metavar="PAPER=TITLE", help="column title override")
    p.set_defaults(func=cmd_compare)

    return parser


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(path: str | None, strict: bool = False, side: str = "corpus") -> tuple:
    """load_corpus of a manifest INI file or a default-layout root directory,
    writing each load issue to stderr as ``<side>: <issue line>``."""
    if not path:
        raise NcgError("no manifest given: pass --manifest or set NCG_MANIFEST")
    path = Path(path)
    manifest = CorpusManifest(root_path=path) if path.is_dir() else CorpusManifest.from_ini(path)
    if strict:
        manifest.strict = True
    corpus, issues = load_corpus(manifest)
    for issue in issues:
        print(f"{side}: {issue.as_line()}", file=sys.stderr)
    return corpus, issues


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    corpus, load_issues = _load(args.manifest, args.strict)
    policy = ValidationPolicy(provenance_check=args.provenance_check,
                              max_phrase_tokens=args.max_phrase_tokens)
    reports = validate_corpus(corpus, policy)
    if args.format == "json":
        payload = {
            "load_issues": [vars(i) for i in load_issues],
            "reports": [
                {"paper_id": r.paper_id, "passed": r.passed,
                 "issues": [vars(i) for i in r.issues]}
                for r in reports
            ],
        }
        _emit(args, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    else:
        lines = [issue.as_line() + "\n" for issue in load_issues]
        lines += [report.as_lines() for report in reports]
        _emit(args, "".join(lines))
    summary = summarize_reports(reports)
    for code, count in sorted(summary.items()):
        print(f"{code}: {count}", file=sys.stderr)
    failed = any(not r.passed for r in reports)
    failed = failed or any(i.severity == ERROR for i in load_issues)
    return 1 if failed else 0


_STATS_COLUMNS = ("total_ius", "ann_sentences", "avg_ann_sentences",
                  "ann_phrases", "avg_toks_per_phrase", "avg_ann_phrase_toks",
                  "ann_triples")


def _stats_row_dict(row) -> dict:
    return {name: getattr(row, name) for name in _STATS_COLUMNS}


def cmd_stats(args) -> int:
    expected = _read_expected(args.check, {"ratio_tolerance": 0, "per_task": 2, "overall": 1})
    stats = corpus_stats(_load(args.manifest, args.strict)[0])
    per_task = {task: _stats_row_dict(row) for task, row in stats.per_task.items()}
    overall = _stats_row_dict(stats.overall)
    tolerance = float(expected.get("ratio_tolerance", 0.005))
    failures = _check(per_task, expected.get("per_task", {}), tolerance,
                      "per_task.{}: task missing")
    if "overall" in expected:
        failures += _check({"overall": overall}, {"overall": expected["overall"]},
                           tolerance, "")
    return _table(args, "task", [*per_task.items(), ("Overall", overall)],
                  {"per_task": per_task, "overall": overall}, failures)


def cmd_unit_stats(args) -> int:
    expected = _read_expected(args.check, {"ratio_tolerance": 0, "units": 2})
    rows = {unit.identifier: {"triples": r.n_triples, "papers": r.n_papers, "ratio": r.ratio}
            for unit, r in unit_stats(_load(args.manifest, args.strict)[0]).sorted_rows()}
    failures = _check(rows, expected.get("units", {}),
                      float(expected.get("ratio_tolerance", 0.01)), "units.{}: unknown unit")
    return _table(args, "unit", list(rows.items()), rows, failures)


def _read_expected(path: str | None, depths: dict[str, int]) -> dict:
    """The JSON object of a --check file ({} without one); each key of
    ``depths`` it has holds numbers under that many levels of objects, and
    no object there repeats a key, or FormatError names the key."""
    if not path:
        return {}
    try:
        data = json.loads(_read_file(path, path), object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON ({exc})", path=path) from None
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object", path=path)

    def check(value, depth: int, key: str) -> None:
        if isinstance(value, _RepeatedKey):
            raise FormatError(f"{key}: repeated key", path=path)
        if depth:
            if not isinstance(value, dict):
                raise FormatError(f"{key}: expected an object, got "
                                  f"{type(value).__name__}", path=path)
            for name, child in value.items():
                check(child, depth - 1, f"{key}.{name}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{key}: expected a number, got {type(value).__name__}",
                              path=path)
        elif value != value:
            raise FormatError(f"{key}: NaN equals no value", path=path)

    for key, depth in depths.items():
        if key in data:
            check(data[key], depth, key)
    return data


def _check(rows: dict[str, dict], expected_rows: dict[str, dict], tolerance: float,
           absent_message: str) -> list[str]:
    """A line for each expected value the computed rows do not match; an
    expected row with no computed row gets ``absent_message.format(name)``."""
    mismatches = []
    for name, fields in expected_rows.items():
        row = rows.get(name)
        if row is None:
            mismatches.append(absent_message.format(name))
            continue
        for key, want in fields.items():
            got = row.get(key)
            if got is None:
                mismatches.append(f"{name}.{key}: missing in computed output")
            elif isinstance(want, float) or isinstance(got, float):
                if abs(float(got) - float(want)) > tolerance:
                    mismatches.append(f"{name}.{key}: got {got}, want {want} "
                                      f"(tolerance {tolerance})")
            elif int(got) != int(want):
                mismatches.append(f"{name}.{key}: got {got}, want {want}")
    return mismatches


def _tsv(first: str, rows: list[tuple[str, dict]]) -> str:
    """A header of ``first`` and the field names, then one line per row; an
    int is written as is, a float to four decimals."""
    lines = ["\t".join([first, *rows[0][1]]) + "\n"]
    for name, row in rows:
        cells = [str(v) if isinstance(v, int) else f"{v:.4f}" for v in row.values()]
        lines.append("\t".join([name, *cells]) + "\n")
    return "".join(lines)


def _table(args, first: str, rows: list[tuple[str, dict]], payload: dict,
           failures: list[str]) -> int:
    """Emit the rows as TSV or the payload as JSON, then each --check failure."""
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, _tsv(first, rows))
    for line in failures:
        print(f"CHECK FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_score(args) -> int:
    gold, _ = _load(args.gold, args.strict, side="gold")
    pred, _ = _load(args.pred, args.strict, side="pred")
    config = MatchConfig(
        phrase_match=args.phrase_match,
        triple_scope=args.triple_scope,
        text_fold=None if args.fold == "none" else args.fold)
    if args.granularity:
        reports = [score(gold, pred, args.granularity, config)]
    else:
        reports = list(score_all(gold, pred, config).values())
        if not reports:
            raise NcgError("no granularity has files in both corpora")
    # every report lists the same tasks in the same order
    rows = [(task, [r.per_task[task] for r in reports]) for task in reports[0].per_task]
    rows += [("micro", [r.micro for r in reports]), ("macro", [r.macro for r in reports])]
    header = ["task"] + [f"{r.granularity}_{m}" for r in reports for m in ("P", "R", "F1")]
    lines = ["\t".join(header) + "\n"]
    for name, values in rows:
        cells = [f"{x:.2f}" for v in values for x in (v.precision, v.recall, v.f1)]
        lines.append("\t".join([name, *cells]) + "\n")
    _emit(args, "".join(lines))
    return 0


def _resolve_unit_path(path: Path, unit: UnitLabel, role: str) -> Path:
    if path.is_dir():
        sub = Path(DEFAULT_LAYOUT[role].removeprefix("{task}/{paper}/")
                   .format(Unit=unit.identifier))
        candidate = path / sub
        if candidate.is_file():
            return candidate
        flat = path / sub.name
        if flat.is_file():
            return flat
        raise NcgError(f"no {role} file for {unit.identifier} under {path}")
    return path


def cmd_flatten(args) -> int:
    unit = normalize_unit_label(args.unit)
    path = _resolve_unit_path(Path(args.path), unit, "units")
    tree = parse_unit_file(_read_file(path, str(path)), unit, location=str(path))
    _emit(args, write_triple_lines(flatten(tree).triples))
    return 0


def cmd_nest(args) -> int:
    unit = normalize_unit_label(args.unit)
    path = _resolve_unit_path(Path(args.path), unit, "triples")
    triples = parse_triple_lines(_read_file(path, str(path)), location=str(path))
    tree = nest(triples, unit)
    _emit(args, write_unit_file(tree))
    return 0


def cmd_build_kg(args) -> int:
    corpus, _ = _load(args.manifest, args.strict)
    graph = build_graph(corpus, merge=args.merge)
    _emit(args, export_ntriples(graph))
    return 0


def cmd_traverse(args) -> int:
    corpus, _ = _load(args.manifest, args.strict)
    graph = build_graph(corpus)
    results = traverse(graph, args.paper, args.start, args.depth)
    lines = []
    for path, node in results:
        lines.append(("/".join(path) if path else ".") + "\t" + node.label + "\n")
    _emit(args, "".join(lines))
    return 0


def cmd_compare(args) -> int:
    corpus, _ = _load(args.manifest, args.strict)
    unit = normalize_unit_label(args.unit)
    paper_ids = [p.strip() for p in args.papers.split(",") if p.strip()]
    table = compare(corpus, unit, paper_ids, depth=args.depth, titles=dict(args.title))
    if args.format == "json":
        _emit(args, json.dumps(table_to_dict(table), indent=2,
                               ensure_ascii=False) + "\n")
    else:
        _emit(args, render(table, args.format))
    return 0


# ---------------------------------------------------------------------------


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NcgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

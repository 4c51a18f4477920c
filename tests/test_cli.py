import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref

import pytest

from ncgkit import CorpusManifest, NcgError, UnitLabel, compare, iter_papers, load_corpus
from ncgkit import cli
from ncgkit.cli import build_parser, run
from corpusgen import write_chain_corpus, write_trial_corpus

DATA = os.path.join(os.path.dirname(__file__), "data")


def make_tiny_corpus(root):
    paper = root / "parsing" / "p1"
    (paper / "info-units").mkdir(parents=True)
    (paper / "text.txt").write_text(
        "We study chunking as our research problem .\n"
        "Our model improves over the baseline on CoNLL .\n", encoding="utf-8")
    (paper / "sentences.txt").write_text("1\n2\n", encoding="utf-8")
    (paper / "phrases.tsv").write_text("2\t5\t7\tthe baseline\n", encoding="utf-8")
    units = {
        "ResearchProblem": {"has": {"Research Problem": {"has": "chunking"}}},
        "Model": {"has": {"Model": {"improves over": "the baseline"}}},
        "Results": {"has": {"Results": {"improves over": {
            "the baseline": {"on": "CoNLL"}}}}},
    }
    for name, tree in units.items():
        (paper / "info-units" / f"{name}.json").write_text(
            json.dumps(tree), encoding="utf-8")
    return root


@pytest.fixture()
def tiny_root(tmp_path):
    return make_tiny_corpus(tmp_path / "corpus")


class TestStats:
    def test_tsv_output(self, tiny_root, tmp_path, capsys):
        out = tmp_path / "stats.tsv"
        assert run(["stats", "--manifest", str(tiny_root), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("task\ttotal_ius")
        assert lines[-1].startswith("Overall\t3\t2\t")

    def test_check_pass_and_fail(self, tiny_root, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"overall": {"total_ius": 3, "ann_sentences": 2}}), encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"overall": {"total_ius": 99}}), encoding="utf-8")
        out = str(tmp_path / "o.tsv")
        assert run(["stats", "--manifest", str(tiny_root), "--check", str(good),
                    "--out", out]) == 0
        assert run(["stats", "--manifest", str(tiny_root), "--check", str(bad),
                    "--out", out]) == 1

    @pytest.mark.parametrize("command", ["stats", "unit-stats"])
    @pytest.mark.parametrize("body, message", [
        (b'{"overall": ', "not valid JSON (Expecting value"),
        (b'{"overall": {}}\xff', "not valid UTF-8 (invalid start byte 0xff)"),
        (b"[1,2]", "expected a JSON object"),
        (b'{"overall": {"ann_triples": "x"}, "units": {"Results": {"triples": "x"}}}',
         "expected a number, got str"),
        (b'{"overall": [], "units": {"Results": 3}}', "expected an object, got"),
        (b'{"ratio_tolerance": NaN}', "ratio_tolerance: NaN equals no value"),
        # a negative tolerance fails a ratio equal to its want, an infinite
        # one passes every ratio, and a float() of an integer past the
        # float range overflows
        (b'{"ratio_tolerance": -1, "overall": {"avg_ann_sentences": 1.0}}',
         "ratio_tolerance: expected a number of at least 0, got -1"),
        (b'{"ratio_tolerance": 1e309}', "ratio_tolerance: expected a finite number, got inf"),
        (b'{"ratio_tolerance": 1' + b"0" * 400 + b"}",
         "ratio_tolerance: expected a finite number, got 1000"),
        (b'{"overall": {"avg_ann_sentences": 1' + b"0" * 400 + b"}, "
         b'"units": {"Results": {"ratio": -1' + b"0" * 400 + b"}}}",
         "expected a finite number, got "),
    ], ids=["truncated", "bad-byte", "top-level-list", "string-count", "not-an-object",
            "nan", "negative-tolerance", "infinite-tolerance", "huge-integer-tolerance",
            "huge-integer-value"])
    def test_malformed_check_file_exits_2(self, tiny_root, tmp_path, capsys,
                                          command, body, message):
        check = tmp_path / "expected.json"
        check.write_bytes(body)
        assert run([command, "--manifest", str(tiny_root), "--check", str(check),
                    "--out", str(tmp_path / "o.tsv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {check}: ")
        assert message in err[0]
        if b'"x"' in body:
            key = "overall.ann_triples" if command == "stats" else "units.Results.triples"
            assert err[0] == f"error: {check}: {key}: expected a number, got str"

    @pytest.mark.parametrize("command, body, key", [
        ("stats", '{"overall": {"total_ius": 1, "total_ius": 8}}', "overall.total_ius"),
        ("stats", '{"ratio_tolerance": 0, "ratio_tolerance": 1}', "ratio_tolerance"),
        ("unit-stats", '{"units": {"Results": {}, "Results": {"triples": 3}}}',
         "units.Results"),
    ], ids=["stats-leaf", "stats-top-level", "unit-stats-row"])
    def test_repeated_check_key_exits_2(self, tiny_root, tmp_path, capsys,
                                        command, body, key):
        check = tmp_path / "expected.json"
        check.write_text(body, encoding="utf-8")
        assert run([command, "--manifest", str(tiny_root), "--check", str(check),
                    "--out", str(tmp_path / "o.tsv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {check}: {key}: repeated key"]

    @pytest.mark.parametrize("command, expected, lines", [
        ("stats",
         {"per_task": {"nope": {"total_ius": 1},
                       "parsing": {"total_ius": 4, "avg_ann_sentences": 0.99,
                                   "avg_ann_phrase_toks": 0.1176, "ann_triples": 7}},
          "overall": {"ann_phrases": 2, "avg_toks_per_phrase": 2.01, "bogus": 1}},
         ["per_task.nope: task missing",
          "parsing.total_ius: got 3, want 4",
          "parsing.avg_ann_sentences: got 1.0, want 0.99 (tolerance 0.005)",
          "overall.ann_phrases: got 1, want 2",
          "overall.avg_toks_per_phrase: got 2.0, want 2.01 (tolerance 0.005)",
          "overall.bogus: missing in computed output"]),
        ("stats",
         {"ratio_tolerance": 0.001, "overall": {"avg_ann_phrase_toks": 0.1165}},
         ["overall.avg_ann_phrase_toks: got 0.11764705882352941, want 0.1165 "
          "(tolerance 0.001)"]),
        ("stats",
         {"ratio_tolerance": 0, "overall": {"avg_ann_sentences": 0.9999}},
         ["overall.avg_ann_sentences: got 1.0, want 0.9999 (tolerance 0.0)"]),
        ("unit-stats",
         {"units": {"Objective": {"triples": 1},
                    "Results": {"triples": 4, "ratio": 3.009, "papers": 1},
                    "Model": {"ratio": 2.011}}},
         ["units.Objective: unknown unit",
          "Results.triples: got 3, want 4",
          "Model.ratio: got 2.0, want 2.011 (tolerance 0.01)"]),
    ], ids=["stats-default-tolerance", "stats-explicit-tolerance",
            "stats-zero-tolerance", "unit-stats-default-tolerance"])
    def test_check_mismatch_lines(self, tiny_root, tmp_path, capsys,
                                  command, expected, lines):
        check = tmp_path / "expected.json"
        check.write_text(json.dumps(expected), encoding="utf-8")
        assert run([command, "--manifest", str(tiny_root), "--check", str(check),
                    "--out", str(tmp_path / "o.tsv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("CHECK ")] == [
            f"CHECK FAIL {line}" for line in lines]

    @pytest.mark.parametrize("command", ["stats", "unit-stats"])
    def test_json_format_holds_the_tsv_rows(self, tiny_root, tmp_path, command):
        tsv, as_json = tmp_path / "o.tsv", tmp_path / "o.json"
        assert run([command, "--manifest", str(tiny_root), "--out", str(tsv)]) == 0
        assert run([command, "--manifest", str(tiny_root), "--format", "json",
                    "--out", str(as_json)]) == 0
        payload = json.loads(as_json.read_text())
        rows = ({**payload["per_task"], "Overall": payload["overall"]}
                if command == "stats" else payload)
        header, *lines = [line.split("\t") for line in tsv.read_text().splitlines()]
        assert [list(row) for row in rows.values()] == [header[1:]] * len(lines)
        assert [[name, *(str(v) if isinstance(v, int) else f"{v:.4f}" for v in row.values())]
                for name, row in rows.items()] == lines

    @pytest.mark.parametrize("missing", ["manifest", "root"])
    def test_a_missing_manifest_or_root_exits_2(self, tmp_path, capsys, missing):
        manifest = tmp_path / "m.ini"
        if missing == "root":
            manifest.write_text("[corpus]\nroot = nosuch\n", encoding="utf-8")
        assert run(["stats", "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == {
            "manifest": f"error: [Errno 2] No such file or directory: '{manifest}'\n",
            "root": f"error: corpus root does not exist: {tmp_path / 'nosuch'}\n",
        }[missing]

    def test_a_listed_task_without_papers_is_one_more_warning(self, comparison_root,
                                                              tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(comparison_root, root)
        assert run(["stats", "--manifest", str(root)]) == 0
        found = capsys.readouterr()
        manifest = root / "m.ini"
        manifest.write_text("[corpus]\ntasks = papers, nosuch\n", encoding="utf-8")
        assert run(["stats", "--manifest", str(manifest)]) == 0
        listed = capsys.readouterr()
        assert listed.out == found.out
        assert listed.err == found.err + (
            "corpus: nosuch\tempty-task\tWarning\tno papers found for the listed task "
            "'nosuch'\n")

    def test_an_empty_corpus_is_located_at_the_root_however_named(self, tmp_path, capsys,
                                                                   monkeypatch):
        (tmp_path / "empty" / "task").mkdir(parents=True)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        errs = []
        for name in (str(tmp_path / "empty"), "../empty", os.path.join("..", "empty", ".")):
            assert run(["stats", "--manifest", name]) == 0
            errs.append(capsys.readouterr().err)
        assert errs == ["corpus: .\tempty-corpus\tWarning\tno papers found\n"] * 3

    def test_a_form_feed_inside_a_line_ends_no_sentence(self, tmp_path, capsys):
        paper = tmp_path / "t" / "p"
        paper.mkdir(parents=True)
        (paper / "text.txt").write_bytes(b"We propose\x0cX model .\nIt works .\n")
        (paper / "sentences.txt").write_text("1\n2\n", encoding="utf-8")
        (paper / "phrases.tsv").write_text("2\t0\t2\tIt works\n", encoding="utf-8")
        assert run(["stats", "--manifest", str(tmp_path), "--format", "json"]) == 0
        out, err = capsys.readouterr()
        # both contribution sentences of a 2-sentence text
        assert json.loads(out)["overall"]["avg_ann_sentences"] == 1.0
        assert err == "corpus: t/p\tmissing-units\tWarning\tno information-unit files found\n"

    def test_env_var_manifest(self, tiny_root, tmp_path, monkeypatch):
        monkeypatch.setenv("NCG_MANIFEST", str(tiny_root))
        out = tmp_path / "stats.tsv"
        assert run(["stats", "--out", str(out)]) == 0

    def test_missing_manifest_is_usage_error(self, monkeypatch):
        monkeypatch.delenv("NCG_MANIFEST", raising=False)
        assert run(["stats"]) == 2


class TestUnitStats:
    def test_tsv(self, tiny_root, tmp_path):
        out = tmp_path / "units.tsv"
        assert run(["unit-stats", "--manifest", str(tiny_root),
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "unit\ttriples\tpapers\tratio"
        assert len(lines) == 13  # all twelve units, zero rows included
        results_row = next(l for l in lines if l.startswith("Results\t"))
        assert results_row.split("\t")[:3] == ["Results", "3", "1"]

    def test_both_tables_write_ints_as_is_and_ratios_to_four_places(self, tiny_root,
                                                                   tmp_path):
        out = tmp_path / "o.tsv"
        assert run(["stats", "--manifest", str(tiny_root), "--out", str(out)]) == 0
        assert out.read_text() == (
            "task\ttotal_ius\tann_sentences\tavg_ann_sentences\tann_phrases\t"
            "avg_toks_per_phrase\tavg_ann_phrase_toks\tann_triples\n"
            "parsing\t3\t2\t1.0000\t1\t2.0000\t0.1176\t7\n"
            "Overall\t3\t2\t1.0000\t1\t2.0000\t0.1176\t7\n")
        assert run(["unit-stats", "--manifest", str(tiny_root), "--out", str(out)]) == 0
        empty = ["AblationAnalysis", "Approach", "Baselines", "Code", "Dataset",
                 "ExperimentalSetup", "Experiments", "Hyperparameters", "Tasks"]
        assert out.read_text() == (
            "unit\ttriples\tpapers\tratio\n"
            "Results\t3\t1\t3.0000\nModel\t2\t1\t2.0000\nResearchProblem\t2\t1\t2.0000\n"
            + "".join(f"{unit}\t0\t0\t0.0000\n" for unit in empty))


class TestValidate:
    def test_clean_corpus_exits_zero(self, tiny_root, tmp_path):
        out = tmp_path / "report.tsv"
        assert run(["validate", "--manifest", str(tiny_root),
                    "--out", str(out)]) == 0

    def test_bad_corpus_exits_one(self, tmp_path):
        root = tmp_path / "corpus"
        paper = root / "t" / "p1"
        (paper / "info-units").mkdir(parents=True)
        (paper / "text.txt").write_text("just one line\n", encoding="utf-8")
        (paper / "sentences.txt").write_text("1\n", encoding="utf-8")
        (paper / "info-units" / "Model.json").write_text(
            json.dumps({"has": {"Model": {}}}), encoding="utf-8")
        out = tmp_path / "report.tsv"
        assert run(["validate", "--manifest", str(root), "--out", str(out)]) == 1
        body = out.read_text()
        assert "mandatory-unit-missing" in body

    @pytest.mark.parametrize("value", ["-5", "-1", "x"])
    def test_max_phrase_tokens_below_zero_is_usage_error(self, tiny_root, capsys, value):
        assert run(["validate", "--manifest", str(tiny_root),
                    "--max-phrase-tokens", value]) == 2
        assert "--max-phrase-tokens: invalid non_negative_int value" in capsys.readouterr().err

    def test_json_format(self, tiny_root, tmp_path):
        out = tmp_path / "report.json"
        assert run(["validate", "--manifest", str(tiny_root), "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert all(r["passed"] for r in payload["reports"])

    def test_json_issue_keys_keep_the_field_order(self, tmp_path):
        paper = tmp_path / "corpus" / "t" / "p1"
        paper.mkdir(parents=True)
        (paper / "text.txt").write_text("just one line\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert run(["validate", "--manifest", str(tmp_path / "corpus"), "--format", "json",
                    "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["load_issues"][0] == {
            "code": "missing-sentences", "severity": "Warning",
            "location": "t/p1/sentences.txt", "message": "sentence-index file absent"}
        issues = payload["load_issues"] + payload["reports"][0]["issues"]
        assert len(issues) > len(payload["load_issues"])
        assert all(list(issue) == ["code", "severity", "location", "message"]
                   for issue in issues)


    def test_repeated_leaf_is_one_duplicate_triple_line(self, comparison_root, tmp_path):
        root = tmp_path / "corpus"
        shutil.copytree(comparison_root, root)
        unit_file = root / "papers" / "dilated-cnn-2017" / "info-units" / "ResearchProblem.json"
        tree = json.loads(unit_file.read_text(encoding="utf-8"))
        tree["has"]["Research Problem"]["has"].append("NER")
        unit_file.write_text(json.dumps(tree), encoding="utf-8")
        out = tmp_path / "report.tsv"
        assert run(["validate", "--manifest", str(root), "--out", str(out)]) == 1
        lines = [line for line in out.read_text().splitlines()
                 if "\tduplicate-triple\t" in line]
        assert len(lines) == 1
        assert lines[0].startswith("dilated-cnn-2017\tduplicate-triple\tError\t")


class TestInvalidUtf8:
    @pytest.mark.parametrize("role_file", [
        "text.txt", "sentences.txt", "phrases.tsv",
        "info-units/Model.json", "triples/Model.txt"])
    def test_bad_byte_is_a_format_error(self, tiny_root, tmp_path, capsys, role_file):
        paper = tiny_root / "parsing" / "p1"
        # the fixture's phrase span is repaired only outside strict mode
        (paper / "phrases.tsv").write_text("2\t4\t6\tthe baseline\n", encoding="utf-8")
        target = paper / role_file
        target.parent.mkdir(exist_ok=True)
        body = target.read_bytes() if target.exists() else b""
        target.write_bytes(b"\xff" + body)
        out = tmp_path / "report.json"
        assert run(["stats", "--manifest", str(tiny_root),
                    "--out", str(tmp_path / "stats.tsv")]) == 0
        assert run(["validate", "--manifest", str(tiny_root), "--format", "json",
                    "--out", str(out)]) == 1
        errors = [i for i in json.loads(out.read_text())["load_issues"]
                  if i["code"] == "format-error"]
        assert [i["location"] for i in errors] == [f"parsing/p1/{role_file}"]
        assert "not valid UTF-8" in errors[0]["message"]
        assert run(["stats", "--strict", "--manifest", str(tiny_root)]) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and "Traceback" not in err


    @pytest.mark.parametrize("command, body", [
        ("flatten", b'{"has": {"Results": {"on": "caf\xe9"}}}\n'),
        ("nest", b"(Contribution||has||Results)\n(Results||on||caf\xe9)\n"),
    ])
    def test_bad_byte_in_flatten_and_nest_input(self, tmp_path, capsys, command, body):
        path = tmp_path / "unit.in"
        path.write_bytes(body)
        assert run([command, "--unit", "Results", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid UTF-8")
        assert "Traceback" not in err

    def test_bad_byte_in_manifest(self, tiny_root, tmp_path, capsys):
        manifest = tmp_path / "corpus.ini"
        manifest.write_bytes(f"[corpus]\nroot = {tiny_root}\n; caf\xe9\n".encode("latin-1"))
        assert run(["stats", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: not valid UTF-8")


class TestUnwritableText:
    @pytest.mark.parametrize("command, body, field", [
        ("flatten", '{"has": {"Results": {"on": "a||b"}}}\n', "the object 'a||b'"),
        ("nest", "(Contribution||has||Results)\n(Results||from sentence||x)\n",
         "the predicate 'from sentence'"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, body, field):
        path = tmp_path / "unit.in"
        path.write_text(body, encoding="utf-8")
        out = tmp_path / "unit.out"
        assert run([command, "--unit", "Results", "--out", str(out), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and field in err
        assert "Traceback" not in err and not out.exists()


class TestBadManifest:
    """A malformed manifest INI exits 2 with one error line, never a traceback."""

    @pytest.mark.parametrize("body, expected", [
        ("root = {root}\n", "not a valid manifest: File contains no section headers."),
        ("[corpus]\nroot = {root}\n[totals.tokens]\np1 = many\n",
         "[totals.tokens] p1 = 'many': not a non-negative integer"),
        ("[corpus]\nroot = {root}\n[totals.tokens]\np1 = 1\np1 = 2\n",
         "not a valid manifest: While reading from"),
        ("[corpus]\nroot = {root}\n[totals.sentences]\np1 = -3\n",
         "[totals.sentences] p1 = '-3': not a non-negative integer"),
        ("[corpus]\nroot = {root}\n[totals.tokens]\np1 = " + "9" * 5000 + "\n",
         "[totals.tokens] p1 = '999999999999...9999999999999': not a non-negative integer"),
        ("[corpus]\nroot = {root}\n[corpus]\nstrict = yes\n",
         "not a valid manifest: While reading from"),
        ("[corpus]\nroot = {root}\n[layout]\ntext = 50%/{{paper}}.txt\n",
         "not a valid manifest: '%' must be followed by"),
        ("[corpus]\nroot = {root}\noffset_unit = byte\n",
         "offset_unit must be token or char, got 'byte'"),
        ("[corpus]\nroot = {root}\n[totals.tokens]\np1 = 1_0\n",
         "[totals.tokens] p1 = '1_0': not a non-negative integer"),
    ], ids=["no-section-header", "non-integer-total", "duplicate-option",
            "negative-total", "huge-total", "duplicate-section", "bad-interpolation",
            "bad-offset-unit", "underscored-total"])
    def test_exits_2_naming_file_and_key(self, tiny_root, tmp_path, capsys,
                                         body, expected):
        manifest = tmp_path / "m.ini"
        manifest.write_text(body.format(root=tiny_root), encoding="utf-8")
        assert run(["stats", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: {expected}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("corpus, layout, kwargs, expected", [
        ("", {"text": "{paper}/text.txt"}, {},
         "layout['text'] = '{paper}/text.txt': lacks the {task} placeholder"),
        ("", {"sentences": "{task}/sentences.txt"}, {},
         "layout['sentences'] = '{task}/sentences.txt': lacks the {paper} placeholder"),
        ("", {"units": "{task}/{paper}/units.json"}, {},
         "layout['units'] = '{task}/{paper}/units.json': lacks the {Unit} placeholder"),
        ("", {"text": "{task}/{paper}/{foo}.txt"}, {},
         "layout['text'] = '{task}/{paper}/{foo}.txt': {foo} is not a placeholder of "
         "text, whose placeholders are {task}, {paper}"),
        ("", {"phrases": "{task}/{paper}/{Unit}.tsv"}, {},
         "layout['phrases'] = '{task}/{paper}/{Unit}.tsv': {Unit} is not a placeholder"),
        ("", {"text": "{task}/{paper}/{}.txt"}, {},
         "layout['text'] = '{task}/{paper}/{}.txt': {} is not a placeholder"),
        ("", {"text": "{task}/{paper}/text.txt}"}, {},
         "layout['text'] = '{task}/{paper}/text.txt}': Single '}' encountered"),
        ("", {"text": "{task}/{paper}/{text.txt"}, {},
         "layout['text'] = '{task}/{paper}/{text.txt': expected '}' before end of string"),
        ("", {"text": "{task}/{paper!r}/text.txt"}, {},
         "layout['text'] = '{task}/{paper!r}/text.txt': a placeholder has a format spec"),
        ("", {"text": "{task:}/{paper}/text.txt"}, {},
         "layout['text'] = '{task:}/{paper}/text.txt': a placeholder has a format spec"),
        ("", {"text": "{task}/{paper}/{{text}}.txt"}, {},
         "layout['text'] = '{task}/{paper}/{{text}}.txt': a placeholder has a format "
         "spec or a conversion, or a brace is not a placeholder's"),
        ("", {"txt": "{task}/{paper}/text.txt"}, {},
         "layout['txt']: not a file role; the roles are text, sentences, phrases, "
         "units, triples"),
        ("", {"text": "{task}-{paper}/text.txt"}, {},
         "layout['text'] = '{task}-{paper}/text.txt': {task} must be in a directory "
         "above the component holding {paper}"),
        ("", {"triples": "{paper}/{task}/{Unit}.txt"}, {},
         "layout['triples'] = '{paper}/{task}/{Unit}.txt': {task} must be in a directory"),
        ("tasks = t, t\n", {}, {"task_names": ["t", "t"]}, "tasks: 't' is named twice"),
        ("strict = maybe\n", {}, {"strict": "maybe"},
         "strict must be true or false (one of 1, yes, true, on, 0, no, false, off), "
         "got 'maybe'"),
    ], ids=["text-without-task", "sentences-without-paper", "units-without-unit",
            "unknown-placeholder", "unit-in-phrases", "positional-field",
            "unbalanced-close", "unbalanced-open", "conversion", "empty-format-spec",
            "escaped-braces", "unknown-role", "task-beside-paper", "paper-above-task",
            "repeated-task", "strict-maybe"])
    def test_a_bad_value_exits_2_and_is_refused_in_process(
            self, tiny_root, tmp_path, capsys, corpus, layout, kwargs, expected):
        manifest = tmp_path / "m.ini"
        manifest.write_text(f"[corpus]\nroot = {tiny_root}\n{corpus}[layout]\n" + "".join(
            f"{role} = {pattern}\n" for role, pattern in layout.items()), encoding="utf-8")
        for command in (["stats"], ["unit-stats"]):
            assert run(command + ["--manifest", str(manifest)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {manifest}: {expected}")
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        with pytest.raises(ValueError) as info:
            CorpusManifest(root_path=tiny_root, layout=layout, **kwargs)
        assert str(info.value).startswith(expected)

    def test_strict_char_offsets_off_token_boundaries_name_the_file(self, tiny_root,
                                                                     tmp_path, capsys):
        (tiny_root / "parsing").rename(tiny_root / "papers")
        (tiny_root / "papers" / "p1" / "phrases.tsv").write_text("2\t1\t5\tur mo\n",
                                                                  encoding="utf-8")
        manifest = tmp_path / "m.ini"
        manifest.write_text(f"[corpus]\nroot = {tiny_root}\noffset_unit = char\n",
                            encoding="utf-8")
        assert run(["stats", "--strict", "--manifest", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: papers/p1/phrases.tsv:1: "
                                "char span [1, 5) not on token boundaries\n")

    def test_zero_and_large_totals_are_counts(self, tiny_root, tmp_path):
        manifest = tmp_path / "m.ini"
        manifest.write_text(f"[corpus]\nroot = {tiny_root}\n[totals.tokens]\n"
                            f"p1 = 0\n[totals.sentences]\np1 = {10 ** 30}\n",
                            encoding="utf-8")
        out = tmp_path / "stats.tsv"
        assert run(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("Overall\t3\t2\t")


class TestScore:
    def test_self_agreement_is_all_hundred(self, tiny_root, tmp_path):
        out = tmp_path / "score.tsv"
        assert run(["score", "--gold", str(tiny_root), "--pred", str(tiny_root),
                    "--granularity", "triples", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "task\ttriples_P\ttriples_R\ttriples_F1"
        micro = next(l for l in lines if l.startswith("micro"))
        assert micro.split("\t")[1:] == ["100.00", "100.00", "100.00"]

    def test_all_granularities_table_shape(self, tiny_root, tmp_path):
        out = tmp_path / "score.tsv"
        assert run(["score", "--gold", str(tiny_root), "--pred", str(tiny_root),
                    "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split("\t")
        assert len(header) == 1 + 4 * 3

    def test_default_scores_the_granularities_both_corpora_have(self, capsys):
        corpus = os.path.join(DATA, "comparison_corpus")  # no phrase files
        assert run(["score", "--gold", corpus, "--pred", corpus]) == 0
        lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert lines[0] == ["task"] + [f"{g}_{m}" for g in ("units", "sentences", "triples")
                                       for m in ("P", "R", "F1")]
        assert [row[0] for row in lines[-2:]] == ["micro", "macro"]
        assert {cell for row in lines[1:] for cell in row[1:]} == {"100.00"}
        assert run(["score", "--gold", corpus, "--pred", corpus,
                    "--granularity", "phrases"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: gold corpus has no phrases files"]

    def test_nothing_to_score_exits_2(self, tmp_path, capsys):
        gold = tmp_path / "gold" / "t" / "p1"
        (gold / "info-units").mkdir(parents=True)
        (gold / "text.txt").write_text("On X .\n", encoding="utf-8")
        (gold / "info-units" / "Results.json").write_text(
            json.dumps({"has": {"Results": {"on": "X"}}}), encoding="utf-8")
        pred = tmp_path / "pred" / "t" / "p1"
        pred.mkdir(parents=True)
        (pred / "text.txt").write_text("On X .\n", encoding="utf-8")
        (pred / "sentences.txt").write_text("1\n", encoding="utf-8")
        assert run(["score", "--gold", str(tmp_path / "gold"),
                    "--pred", str(tmp_path / "pred")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: no granularity has files in both corpora"]

    def test_load_issues_go_to_stderr_by_side(self, tmp_path, capsys):
        gold = os.path.join(DATA, "comparison_corpus")
        pred = tmp_path / "pred"
        shutil.copytree(gold, pred)
        target = pred / "papers" / "dilated-cnn-2017" / "sentences.txt"
        target.write_bytes(b"\xff" + target.read_bytes())
        args = ["score", "--granularity", "sentences", "--gold", gold]
        assert run(args + ["--pred", gold]) == 0
        clean = capsys.readouterr()
        assert run(args + ["--pred", str(pred)]) == 0
        broken = capsys.readouterr()
        # stdout is the table alone; the unreadable pred file costs recall
        micro = next(l for l in broken.out.splitlines() if l.startswith("micro"))
        assert micro.split("\t")[1:3] == ["100.00", "75.00"]
        assert len(broken.out.splitlines()) == len(clean.out.splitlines())
        bad = "papers/dilated-cnn-2017/sentences.txt\tformat-error\tError\t"
        assert [line for line in broken.err.splitlines() if "format-error" in line] == [
            f"pred: {bad}not valid UTF-8 (invalid start byte 0xff)"]
        assert "format-error" not in clean.err
        expected = "".join(f"{side}: {issue.as_line()}\n"
                           for side, root in (("gold", gold), ("pred", pred))
                           for issue in load_corpus(CorpusManifest(root_path=root))[1])
        assert broken.err == expected
        assert run(["score", "--granularity", "sentences", "--gold", str(pred),
                    "--pred", gold]) == 0
        assert f"gold: {bad}" in capsys.readouterr().err


    def test_strict_exits_2_naming_the_broken_file(self, tmp_path, capsys):
        gold = os.path.join(DATA, "comparison_corpus")
        pred = tmp_path / "pred"
        shutil.copytree(gold, pred)
        target = pred / "papers" / "dilated-cnn-2017" / "sentences.txt"
        target.write_bytes(b"\xff" + target.read_bytes())
        args = ["score", "--granularity", "sentences", "--gold", gold, "--pred", str(pred)]
        assert run(args) == 0
        lenient = capsys.readouterr()
        micro = next(l for l in lenient.out.splitlines() if l.startswith("micro"))
        assert micro.split("\t")[1:3] == ["100.00", "75.00"]
        assert run(args + ["--strict"]) == 2
        strict = capsys.readouterr()
        assert strict.out == ""
        assert [line for line in strict.err.splitlines() if line.startswith("error:")] == [
            "error: papers/dilated-cnn-2017/sentences.txt: "
            "not valid UTF-8 (invalid start byte 0xff)"]

    @pytest.mark.parametrize("lacking", ["gold", "pred"])
    def test_a_lacking_layer_is_one_error_after_every_load_issue(
            self, comparison_root, trial_root, tmp_path, capsys, lacking):
        # the comparison corpus has no phrase files, the trial corpus has
        without, with_phrases = comparison_root, trial_root
        gold, pred = (without, with_phrases) if lacking == "gold" else (with_phrases, without)
        broken = tmp_path / "pred"
        shutil.copytree(pred, broken)
        target = sorted(broken.rglob("sentences.txt"))[0]
        target.write_bytes(b"\xff" + target.read_bytes())
        assert run(["score", "--granularity", "phrases", "--gold", str(gold),
                    "--pred", str(broken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = [f"{side}: {issue.as_line()}"
                    for side, root in (("gold", gold), ("pred", broken))
                    for issue in load_corpus(CorpusManifest(root_path=root))[1]]
        assert any("format-error" in line for line in expected if line.startswith("pred: "))
        assert captured.err.splitlines() == [
            *expected, f"error: {lacking} corpus has no phrases files"]

    def test_a_raised_score_error_leaves_no_cyclic_garbage(self, comparison_root, capsys):
        # the comparison corpus lacks phrases; a local holding the raised
        # error kept the command's frame alive in a cycle through its traceback
        root = str(comparison_root)
        args = build_parser().parse_args(
            ["score", "--granularity", "phrases", "--gold", root, "--pred", root])
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(NcgError, match="^gold corpus has no phrases files$"):
                cli.cmd_score(args)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert capsys.readouterr().out == ""

    def test_strict_gold_error_is_the_one_line(self, comparison_root, tmp_path, capsys):
        for side in ("gold", "pred"):
            shutil.copytree(comparison_root, tmp_path / side)
            target = tmp_path / side / "papers" / "dilated-cnn-2017" / "sentences.txt"
            target.write_bytes(b"\xff" + target.read_bytes())
        args = ["score", "--gold", str(tmp_path / "gold"), "--pred", str(tmp_path / "pred")]
        assert run(args) == 0
        assert "\npred: " in capsys.readouterr().err
        assert run(args + ["--strict"]) == 2
        assert capsys.readouterr() == (
            "", "error: papers/dilated-cnn-2017/sentences.txt: "
                "not valid UTF-8 (invalid start byte 0xff)\n")


def make_replicated_trial_corpus(root, copies):
    """The trial corpus, each paper under ``copies`` ids."""
    write_trial_corpus(root)
    for paper in [p for task in root.iterdir() for p in task.iterdir()]:
        for k in range(1, copies):
            shutil.copytree(paper, paper.with_name(f"{paper.name}-{k}"))
    return root


#: The arguments besides --manifest that name papers of the trial corpus
#: (``mt-00``) or of the comparison corpus (the others).
NAMED = {
    "traverse": ["--paper", "mt-00", "--start", "Results"],
    "compare": ["--unit", "Results", "--papers", "mt-01,ner-00"],
    "traverse-comparison": ["--paper", "dilated-cnn-2017", "--start", "Results"],
    "compare-comparison": ["--unit", "Results",
                           "--papers", "robust-lexical-2018,dilated-cnn-2017"],
}


class TestStreaming:
    """Every corpus command holds one paper at a time, besides the papers
    traverse and compare name and the gold corpus score keeps."""

    @pytest.fixture(scope="class")
    def replicated_roots(self, tmp_path_factory):
        """The trial corpus once and three times over."""
        return [make_replicated_trial_corpus(tmp_path_factory.mktemp(f"x{copies}"), copies)
                for copies in (1, 3)]

    @pytest.mark.parametrize("command", ["validate", "stats", "traverse", "compare"])
    def test_peak_memory_does_not_grow_with_the_paper_count(
            self, replicated_roots, tmp_path, command):
        # at three times the papers, holding the corpus would add about
        # 2.5 MB to the traced peak
        peaks = []
        for root in replicated_roots:
            tracemalloc.start()
            try:
                code = run([command, "--manifest", str(root), *NAMED.get(command, []),
                            "--out", str(tmp_path / "out")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < peaks[0] + 2**20

    @pytest.mark.parametrize("command", ["validate", "stats", "unit-stats", "build-kg",
                                         "traverse", "compare"])
    def test_strict_error_after_a_warning_prints_only_the_error(
            self, comparison_root, tmp_path, capsys, command):
        root = tmp_path / "corpus"
        shutil.copytree(comparison_root, root)
        # the first paper loads with warnings, the last one fails
        last = sorted((root / "papers").iterdir())[-1]
        (last / "sentences.txt").write_text("NaN\n", encoding="utf-8")
        extra = NAMED.get(f"{command}-comparison", [])
        assert run([command, "--manifest", str(root), *extra]) in (0, 1)
        assert capsys.readouterr().err.startswith("corpus: ")
        assert run([command, "--manifest", str(root), *extra, "--strict"]) == 2
        assert capsys.readouterr() == (
            "", f"error: papers/{last.name}/sentences.txt:1: not a positive sentence "
                f"index: 'NaN'\n")

    @pytest.mark.parametrize("command, extra, named", [
        ("validate", [], set()),
        ("stats", [], set()),
        ("unit-stats", [], set()),
        ("build-kg", [], set()),
        ("build-kg", ["--merge", "surface"], set()),
        ("traverse", NAMED["traverse-comparison"], {"dilated-cnn-2017"}),
        ("compare", NAMED["compare-comparison"], {"robust-lexical-2018", "dilated-cnn-2017"}),
    ], ids=["validate", "stats", "unit-stats", "build-kg", "build-kg-surface", "traverse",
            "compare"])
    def test_each_paper_is_dropped_once_the_next_is_read(
            self, comparison_root, tmp_path, monkeypatch, command, extra, named):
        given = []  # a weak reference to each paper the command was given

        def watched(manifest, issues):
            for paper in iter_papers(manifest, issues):
                # the command's loop may still hold the paper it was given
                # last, but no paper before that unless it names it
                held = [p.paper_id for p in (ref() for ref in given[:-1]) if p is not None]
                assert set(held) <= named, held
                given.append(weakref.ref(paper))
                yield paper

        monkeypatch.setattr(cli, "iter_papers", watched)
        assert run([command, "--manifest", str(comparison_root), *extra,
                    "--out", str(tmp_path / "out")]) in (0, 1)
        assert len(given) == 4

    def test_score_drops_each_pred_paper_once_the_next_is_read(
            self, comparison_root, tmp_path, monkeypatch):
        given = []  # per load, a weak reference to each paper it gave

        def watched(manifest, issues):
            refs = []
            given.append(refs)
            for paper in iter_papers(manifest, issues):
                if len(given) == 2:  # pred; gold's papers are all kept
                    assert all(ref() is None for ref in refs[:-1])
                refs.append(weakref.ref(paper))
                yield paper

        monkeypatch.setattr(cli, "iter_papers", watched)
        assert run(["score", "--gold", str(comparison_root), "--pred", str(comparison_root),
                    "--out", str(tmp_path / "out")]) == 0
        assert [len(refs) for refs in given] == [4, 4]

    @pytest.mark.parametrize("command, extra, message", [
        ("traverse", ["--paper", "no-such-id", "--start", "Results"],
         "no paper 'no-such-id' in graph"),
        ("compare", ["--unit", "Results", "--papers", "dilated-cnn-2017,no-such-id"],
         "paper 'no-such-id' not in corpus"),
    ], ids=["traverse", "compare"])
    def test_an_unknown_paper_is_one_error_after_every_load_issue(
            self, comparison_root, tmp_path, capsys, command, extra, message):
        root = tmp_path / "corpus"
        shutil.copytree(comparison_root, root)
        target = root / "papers" / "machine-reading-2016" / "sentences.txt"
        target.write_bytes(b"\xff" + target.read_bytes())
        issues = load_corpus(CorpusManifest(root_path=root))[1]
        assert len(issues) > 1
        assert run([command, "--manifest", str(root), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"corpus: {issue.as_line()}" for issue in issues] + [
            f"error: {message}"]


class TestLoadIssuesOnStderr:
    """Every corpus command writes each load issue to stderr as ``corpus: <line>``."""

    @pytest.mark.parametrize("command, extra, code", [
        ("validate", [], 1),
        ("stats", [], 0),
        ("unit-stats", [], 0),
        ("build-kg", [], 0),
        ("traverse", ["--paper", "machine-reading-2016", "--start", "Results"], 0),
        ("compare", ["--unit", "Results",
                     "--papers", "dilated-cnn-2017,machine-reading-2016"], 0),
    ])
    def test_each_command_reports_every_issue_in_order(
            self, comparison_root, tmp_path, capsys, command, extra, code):
        root = tmp_path / "corpus"
        shutil.copytree(comparison_root, root)
        target = root / "papers" / "dilated-cnn-2017" / "sentences.txt"
        target.write_bytes(b"\xff" + target.read_bytes())
        issues = load_corpus(CorpusManifest(root_path=root))[1]
        assert "format-error" in {i.code for i in issues}
        out = tmp_path / "out"
        assert run([command, "--manifest", str(root), *extra, "--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        expected = [f"corpus: {issue.as_line()}" for issue in issues]
        assert [line for line in err if line.startswith("corpus: ")] == expected
        if command != "validate":  # validate adds its summary lines
            assert err == expected


class TestFlattenNest:
    def test_flatten_nested_results_unit(self, tmp_path):
        out = tmp_path / "triples.txt"
        assert run(["flatten", "--unit", "Results",
                    os.path.join(DATA, "nested_results_unit.json"),
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines == [
            "(Contribution||has||Results)",
            "(Results||in terms of||F1 measure)",
            "(F1 measure||in||ACE datasets)",
            "(ACE datasets||achieves||best results)",
            "(F1 measure||in||GENIA dataset)",
            "(GENIA dataset||achieves||comparable results)",
        ]

    def test_nest_then_flatten_round_trip(self, tmp_path):
        nested = tmp_path / "unit.json"
        assert run(["nest", "--unit", "Results",
                    os.path.join(DATA, "results_triple_lines.txt"),
                    "--out", str(nested)]) == 0
        payload = json.loads(nested.read_text())
        assert "has" in payload and "Results" in payload["has"]
        back = tmp_path / "triples.txt"
        assert run(["flatten", "--unit", "Results", str(nested),
                    "--out", str(back)]) == 0
        assert len(back.read_text().splitlines()) == 13

    def test_flatten_paper_directory(self, tiny_root, tmp_path):
        out = tmp_path / "t.txt"
        assert run(["flatten", "--unit", "Results",
                    str(tiny_root / "parsing" / "p1"), "--out", str(out)]) == 0
        assert "(Contribution||has||Results)" in out.read_text()

    def test_paper_directory_is_read_in_the_default_layout_only(self, tiny_root, capsys):
        paper = tiny_root / "parsing" / "p1"
        (paper / "info-units" / "Results.json").rename(paper / "Results.json")
        assert run(["flatten", "--unit", "Results", str(paper)]) == 2
        assert capsys.readouterr().err == (
            f"error: no units file for Results under {paper}\n")

    def test_unknown_unit_is_an_error(self, tmp_path):
        assert run(["flatten", "--unit", "Objective",
                    os.path.join(DATA, "nested_results_unit.json")]) == 2


class TestKgCommands:
    def test_build_kg_byte_stable_across_processes(self, tiny_root, tmp_path):
        outputs = []
        for seed, name in (("1", "a.nt"), ("42", "b.nt")):
            out = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "ncgkit.cli", "build-kg",
                 "--manifest", str(tiny_root), "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"ncg:p1/Contribution" in outputs[0]

    def test_traverse(self, tiny_root, tmp_path):
        out = tmp_path / "walk.tsv"
        assert run(["traverse", "--manifest", str(tiny_root), "--paper", "p1",
                    "--start", "Results", "--depth", "2",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ".\tResults"
        assert "improves over\tthe baseline" in lines
        assert "improves over/on\tCoNLL" in lines

    def test_traverse_negative_depth_is_usage_error(self, tiny_root, capsys):
        assert run(["traverse", "--manifest", str(tiny_root), "--paper", "p1",
                    "--start", "Results", "--depth", "-1"]) == 2
        assert "argument --depth" in capsys.readouterr().err

    def test_traverse_depth_zero_prints_the_start_node(self, tiny_root, tmp_path):
        out = tmp_path / "walk.tsv"
        assert run(["traverse", "--manifest", str(tiny_root), "--paper", "p1",
                    "--start", "Results", "--depth", "0", "--out", str(out)]) == 0
        assert out.read_text() == ".\tResults\n"

    def test_traverse_unknown_paper(self, tiny_root):
        assert run(["traverse", "--manifest", str(tiny_root), "--paper", "nope",
                    "--start", "Results"]) == 2

    def test_build_kg_accepts_nt_format(self, tiny_root, tmp_path):
        out = tmp_path / "g.nt"
        assert run(["build-kg", "--manifest", str(tiny_root),
                    "--merge", "surface", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("#")


class TestCompareCommand:
    def test_markdown(self, comparison_root, tmp_path):
        out = tmp_path / "table.md"
        assert run(["compare", "--manifest", str(comparison_root),
                    "--unit", "Results",
                    "--papers", "dilated-cnn-2017,sentence-similarity-2016",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert "| On |" in text
        assert "MSRP dataset; QASent dataset; Wiki QA dataset" in text

    def test_json_format(self, comparison_root, tmp_path):
        out = tmp_path / "table.json"
        assert run(["compare", "--manifest", str(comparison_root),
                    "--unit", "Results", "--papers", "machine-reading-2016",
                    "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["unit"] == "Results"

    @pytest.mark.parametrize("depth", ["0", "-1", "x"])
    def test_depth_below_one_is_usage_error(self, comparison_root, capsys, depth):
        assert run(["compare", "--manifest", str(comparison_root), "--unit", "Results",
                    "--papers", "machine-reading-2016", "--depth", depth]) == 2
        assert "argument --depth" in capsys.readouterr().err
        corpus, _ = load_corpus(CorpusManifest(root_path=comparison_root))
        with pytest.raises(ValueError, match="depth must be >= 1"):
            compare(corpus, UnitLabel.RESULTS, ["machine-reading-2016"], depth=0)


    @pytest.mark.parametrize("papers", [",", " , ", "dilated-cnn-2017,dilated-cnn-2017",
                                        "dilated-cnn-2017, machine-reading-2016 ,dilated-cnn-2017"])
    def test_empty_or_repeated_papers_are_usage_errors(self, comparison_root, capsys, papers):
        assert run(["compare", "--manifest", str(comparison_root), "--unit", "Results",
                    "--papers", papers, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --papers: invalid paper_id_list value: {papers!r}" in captured.err

    def test_title_without_equals_is_usage_error(self, comparison_root, capsys):
        assert run(["compare", "--manifest", str(comparison_root), "--unit", "Results",
                    "--papers", "dilated-cnn-2017,machine-reading-2016",
                    "--title", "dilated-cnn-2017"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --title" in captured.err

    def test_title_may_be_empty_or_hold_equals(self, comparison_root, capsys):
        assert run(["compare", "--manifest", str(comparison_root), "--unit", "Results",
                    "--papers", "dilated-cnn-2017,machine-reading-2016",
                    "--title", "dilated-cnn-2017=a=b", "--title",
                    "machine-reading-2016="]) == 0
        assert capsys.readouterr().out.startswith("| Properties | a=b |  |\n")


@pytest.fixture(scope="module")
def chain_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain_corpus")
    write_chain_corpus(root, sys.getrecursionlimit() + 200)
    return root


class TestDeepChain:
    """A Results chain deeper than the recursion limit goes through every
    corpus command; the unit file format cannot carry it."""

    @pytest.mark.parametrize("command", [
        ["stats"], ["unit-stats"], ["validate"], ["build-kg"],
        ["traverse", "--paper", "chain", "--start", "Results", "--depth", "3"],
        ["compare", "--unit", "Results", "--papers", "chain", "--depth", "2"],
    ])
    def test_corpus_commands(self, chain_root, capsys, command):
        assert run(command[:1] + ["--manifest", str(chain_root)] + command[1:]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("corpus: parsing/chain/phrases.tsv\tmissing-phrases\t"
                                "Warning\tphrase file absent\n")
        assert captured.out

    def test_score(self, chain_root, capsys):
        assert run(["score", "--gold", str(chain_root), "--pred", str(chain_root),
                    "--granularity", "triples"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "parsing\t100.00\t100.00\t100.00"

    def test_traverse_and_compare_stop_at_their_depth(self, chain_root, capsys):
        assert run(["traverse", "--manifest", str(chain_root), "--paper", "chain",
                    "--start", "Results", "--depth", "2"]) == 0
        assert capsys.readouterr().out == ".\tResults\nleads to\tn0\nleads to/leads to\tn1\n"
        assert run(["compare", "--manifest", str(chain_root), "--unit", "Results",
                    "--papers", "chain", "--depth", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "leads to,n0; n1"

    def test_nest_exits_2(self, chain_root, capsys):
        path = chain_root / "parsing" / "chain" / "triples" / "Results.txt"
        assert run(["nest", str(path), "--unit", "Results"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write the tree: nested too deeply\n"


class TestLoneSurrogate:
    """A unit file whose \\u escape gives a lone surrogate is a format error,
    which no command writes out."""

    @pytest.fixture()
    def surrogate_root(self, tiny_root):
        (tiny_root / "parsing" / "p1" / "info-units" / "Results.json").write_text(
            json.dumps({"has": {"Results": {"improves": "x \ud800 y"}}}), encoding="utf-8")
        return tiny_root

    def test_flatten_exits_2(self, surrogate_root, tmp_path, capsys):
        path = surrogate_root / "parsing" / "p1" / "info-units" / "Results.json"
        assert run(["flatten", str(path), "--unit", "Results",
                    "--out", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed unit file: a \\u escape gives the lone "
            f"surrogate '\\ud800'\n")
        assert not (tmp_path / "out.txt").exists()

    def test_build_kg_skips_the_unit(self, surrogate_root, tmp_path, capsys):
        out = tmp_path / "graph.nt"
        assert run(["build-kg", "--manifest", str(surrogate_root), "--out", str(out)]) == 0
        assert ("parsing/p1/info-units/Results.json\tformat-error\tError\t"
                in capsys.readouterr().err)
        graph = out.read_text(encoding="utf-8")
        assert "ncg:p1/Model/" in graph and "ncg:p1/Results/" not in graph


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_option_strings_of_every_subcommand(self):
        """The whole command-line surface: a new option must be added here."""
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))

        def names(p):
            return [" ".join(a.option_strings) or a.dest for a in p._actions
                    if not isinstance(a, argparse._HelpAction)]

        corpus = ["--manifest", "--strict", "--out"]
        assert names(parser) == ["command"]
        assert {name: names(p) for name, p in sub.choices.items()} == {
            "validate": corpus + ["--format", "--provenance-check", "--max-phrase-tokens"],
            "stats": corpus + ["--format", "--check"],
            "unit-stats": corpus + ["--format", "--check"],
            "score": ["--gold", "--pred", "--granularity", "--phrase-match",
                      "--triple-scope", "--fold", "--strict", "--out"],
            "flatten": ["path", "--unit", "--out"],
            "nest": ["path", "--unit", "--out"],
            "build-kg": corpus + ["--merge"],
            "traverse": corpus + ["--paper", "--start", "--depth"],
            "compare": corpus + ["--unit", "--papers", "--depth", "--format", "--title"],
        }

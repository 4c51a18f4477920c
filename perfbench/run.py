"""Pipeline benchmark for ncgkit.

    python3 perfbench/run.py --workload trial-text --seed 1 --seconds 20 --trace 0

Builds the workload's corpus from the seed (untimed), then repeats the
workload's pipeline and its ``ncg`` command until ``--seconds`` have passed,
checking every output.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  Exit code 0 when
every check holds, 1 when one failed, 2 when the program cannot be run.

``--repeat N`` runs N fresh processes on seeds seed..seed+N-1 and reports,
per metric, the median, the quartiles, the sample count and the spread
(interquartile distance over median).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Replication factors.  Sized so one pass of pipeline plus ``ncg`` command
#: takes about 4 s on a 2-core machine, which gives a 35-second run eight or
#: more samples of every metric.
REPLICAS = {"trial-text": 4, "units-graph": 6, "score-pair": 3}

#: Fewest samples a run takes, even when that overruns ``--seconds``.  A
#: traced sample is a traced and an untraced pass, so it needs fewer.
MIN_SAMPLES = {False: 3, True: 2}

END_TO_END = {"total_s": "s", "setup_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_SPANS = (
    "corpus_io.load_corpus", "corpus_io.parse_sentence_indices",
    "corpus_io.parse_phrase_file", "corpus_io.parse_unit_file",
    "corpus_io.parse_triple_lines", "corpus_io.read",
    "codec.flatten", "codec.nest", "codec.write",
    "validate.validate_corpus", "metrics.corpus_stats", "metrics.unit_stats",
    "metrics.score.units", "metrics.score.sentences", "metrics.score.phrases",
    "metrics.score.phrases_overlap", "metrics.score.triples",
    "kg.build_graph", "kg.build_graph_surface", "kg.export_ntriples",
    "kg.import_ntriples", "kg.traverse", "compare.compare", "compare.render",
)

#: Counts an optimisation could move.  The other layer counts are fixed by
#: the input; they go to the ``#`` line and the trace file.
PER_LAYER_COUNTS = ("corpus_io.files_read", "corpus_io.bytes_read")


def make_workload(name: str, seed: int, work: Path):
    import corpora
    from pipeline import Workload

    replicas = REPLICAS[name]
    if name == "trial-text":
        main = work / "corpus"
        expected = corpora.write_trial(main, seed, replicas)
        return Workload(name, main, None, expected,
                        ["validate", "--manifest", str(main)])
    if name == "units-graph":
        main = work / "corpus"
        expected = corpora.write_units(main, seed, replicas)
        return Workload(name, main, None, expected,
                        ["build-kg", "--manifest", str(main)])
    gold, pred = work / "gold", work / "pred"
    expected = corpora.write_pair(gold, pred, seed, replicas)
    return Workload(name, gold, pred, expected,
                    ["score", "--gold", str(gold), "--pred", str(pred)])


def cli_expected(wl, out) -> str:
    """What the workload's ``ncg`` command must print: all of stdout, or for
    ``score`` the micro row, which the in-process scores fix exactly."""
    from pipeline import GRANULARITIES

    if wl.name == "trial-text":
        return ("".join(i.as_line() + "\n" for i in out.issues)
                + "".join(r.as_lines() for r in out.reports))
    if wl.name == "units-graph":
        return out.ntriples
    cells = [f"{v:.2f}" for g in GRANULARITIES for m in [out.scores[(0, g)].micro]
             for v in (m.precision, m.recall, m.f1)]
    return "micro\t" + "\t".join(cells) + "\n"


def run_cli(wl, stdout_path: Path) -> tuple[float, int, str]:
    """Run the workload's command as a user would; (seconds, exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(stdout_path, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ncgkit.cli", *wl.cli_args],
                              stdout=fh, stderr=subprocess.DEVNULL, env=env,
                              cwd=ROOT, timeout=150)
        seconds = time.perf_counter() - start
    return seconds, proc.returncode, stdout_path.read_text(encoding="utf-8")


class Tally:
    """Operations attempted and failed, with the names of the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, made: int, failed: list[str]) -> None:
        self.attempted += made
        self.failures += failed


def _checked_pass(wl, rec, tally: Tally, digest_sets: dict):
    import pipeline

    gc.collect()
    calls = rec.calls
    out = pipeline.run_pipeline(wl, rec)
    tally.add(rec.calls - calls, [])
    tally.add(*pipeline.check(wl, out))
    for name, digest in pipeline.digests(out).items():
        digest_sets[name].add(digest)
    return out


def measure(wl, seconds: float, trace: bool, work: Path, tally: Tally) -> tuple[dict, dict]:
    import pipeline

    digest_sets: dict[str, set] = defaultdict(set)
    samples: dict[str, list[float]] = defaultdict(list)
    untraced = pipeline.Recorder(False)
    traced = pipeline.Recorder(True)
    info: dict = {}
    start = time.perf_counter()
    deadline = start + seconds
    walls: list[float] = []
    while True:
        t0 = time.perf_counter()
        out = _checked_pass(wl, untraced, tally, digest_sets)
        samples["total_s"].append(out.total_s)
        samples["setup_s"].append(out.setup_s)
        if trace:
            out = None
            traced.iteration = len(walls)
            out = _checked_pass(wl, traced, tally, digest_sets)
            samples["trace.total_s"].append(out.total_s)
            info["counts"] = pipeline.counts(out)
            info["counts"].update(pipeline.replay_load(wl, out, traced))
        else:
            expected = cli_expected(wl, out)
            out = None
            gc.collect()
            cli_s, code, stdout = run_cli(wl, work / "cli.out")
            samples["cli_s"].append(cli_s)
            digest_sets["cli_stdout"].add(pipeline.sha256(stdout))
            matches = (expected in stdout.splitlines(True) if wl.name == "score-pair"
                       else stdout == expected)
            tally.add(2, [f"cli-exit-{code}"] * (code != 0) + ["cli-stdout"] * (not matches))
        out = None
        walls.append(time.perf_counter() - t0)
        reserve = 3 * statistics.median(samples["total_s"]) if trace else 0.0
        if (len(walls) >= MIN_SAMPLES[trace]
                and time.perf_counter() + statistics.median(walls) + reserve > deadline):
            break
    tally.add(len(digest_sets), [f"nondeterministic-{name}"
                                 for name, seen in digest_sets.items() if len(seen) != 1])
    info["digests"] = {name: sorted(seen) for name, seen in digest_sets.items()}
    info["samples"] = {name: [round(v, 4) for v in values] for name, values in samples.items()}
    info["walls"] = [round(v, 4) for v in walls]

    if not trace:
        metrics = {name: statistics.median(samples[name])
                   for name in ("total_s", "setup_s", "cli_s")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {n: {"value": metrics[n], "unit": END_TO_END[n]} for n in END_TO_END}, info

    per_iteration = [traced.totals(k) for k in range(len(walls))]
    metrics = {}
    for name in PER_LAYER_SPANS:
        metrics[name + "_s"] = (statistics.median(t.get(name, 0.0) for t in per_iteration), "s")
    metrics["corpus_io.load_residual_s"] = (statistics.median(
        t["corpus_io.load_corpus"] - sum(t[p] for p in pipeline.LOAD_PARTS)
        for t in per_iteration), "s")
    metrics["trace.total_s"] = (statistics.median(samples["trace.total_s"]), "s")
    metrics["trace.overhead_s"] = (metrics["trace.total_s"][0]
                                   - statistics.median(samples["total_s"]), "s")

    gc.collect()
    memory = pipeline.Recorder(True, memory=True)
    tracemalloc.start()
    try:
        _checked_pass(wl, memory, tally, digest_sets)
    finally:
        tracemalloc.stop()
    loads = [s for s in memory.spans if s["name"] == "corpus_io.load_corpus"]
    metrics["corpus_io.load_alloc_peak_mb"] = (max(s["alloc_peak_mb"] for s in loads), "MB")
    metrics["corpus_io.retained_mb"] = (sum(s["retained_mb"] for s in loads), "MB")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (info["counts"][name], "count")
    info["stage_memory_mb"] = [[s["name"], s["alloc_peak_mb"], s["retained_mb"]]
                               for s in memory.spans]
    info["spans"] = [dict(s, start=s["start"] - start, end=s["end"] - start)
                     for s in traced.spans]
    return {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}, info


def run_once(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import ncgkit  # noqa: F401
        import corpusgen  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program under {ROOT}: {exc}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    metrics: dict = {}
    info: dict = {}
    try:
        setup_start = time.perf_counter()
        wl = make_workload(args.workload, args.seed, work)
        generate_s = time.perf_counter() - setup_start
        metrics, info = measure(wl, args.seconds, bool(args.trace), work, tally)
        info["generate_s"] = generate_s
    except Exception as exc:  # a stage raised: report it as a failed operation
        traceback.print_exc()
        tally.add(1, [f"raised {type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["failures"] = tally.failures
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(info, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    brief = {k: v for k, v in info.items() if k not in ("spans", "stage_memory_mb")}
    print("# " + json.dumps(brief, sort_keys=True))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 1 if tally.failures else 0


def run_repeat(args) -> int:
    """Fresh-process runs on consecutive seeds; medians and quartiles per metric."""
    values: dict[str, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    ok = True
    for k in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + k), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {args.seed + k}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
            units[name] = m["unit"]
        print(f"seed {args.seed + k}: " + " ".join(
            f"{name}={m['value']:.4f}" for name, m in result["metrics"].items()), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                          else (vals[0],) * 3)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"n": len(vals), "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name]}
        print(f"{name:40s} n={len(vals):2d} median={median:12.4f} "
              f"q1={q1:12.4f} q3={q3:12.4f} spread={spread:7.2%} {units[name]}")
    print(json.dumps({"correct": ok, "workload": args.workload, "metrics": summary}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPLICAS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many fresh processes and summarise them")
    args = parser.parse_args()
    return run_repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())

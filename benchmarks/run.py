"""The wiser benchmark: corpus conversion, dialogue scoring and long-graph
Smatch, timed end to end through the ``wiser`` CLI and layer by layer.

    python3 benchmarks/run.py --workload convert --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --quick

Run it from anywhere inside a source checkout; it puts ``src`` on the path
itself. Each run generates its inputs from ``--seed``, runs whole rounds of
the workload's commands through ``wiser.cli.main`` in this process (one
thread, ``--jobs 1``) until ``--seconds`` of rounds are done, checks the
outputs, and prints one JSON object as its last line. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced decomposition and
writes its spans under ``benchmarks/out/``. ``--quick`` runs every workload
at a tiny size with every check on, as the benchmark's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import inputs
import refgraph
import spans
from inputs import CATALOG, ROOT

SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"
WORKLOADS = ("convert", "score-dialogue", "score-long")
DEFAULT_METRICS = ("smatch", "unlabeled", "no_wsd", "concepts", "xsrl",
                   "reentrancies", "negations", "named_entity")
REQUIRED = (SRC / "wiser" / "cli.py", inputs.CORPUS50, inputs.GOLDEN, CATALOG)

# Set-up as a user pays it: a fresh interpreter imports the CLI; convert
# also loads the catalog and maps it through the compiled rules.
SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import wiser.cli
if len(sys.argv) > 2:
    from wiser.frames import load_catalog
    from wiser.rules import REIFIED_OVERRIDES, compile_rules, map_catalog
    map_catalog(load_catalog(sys.argv[2]), compile_rules(), REIFIED_OVERRIDES)
print(json.dumps(time.perf_counter() - t0))
"""


@dataclass(frozen=True)
class Size:
    convert_replicas: int     # copies of the 50-document corpus
    dialogue_replicas: int    # copies of the 47-document golden conversion
    long_sizes: tuple         # gold variable count of each score-long pair
    setup_samples: int        # fresh interpreters timed per run
    min_rounds: int
    brute_sample: int         # score-dialogue pairs checked against brute force


FULL = Size(convert_replicas=40, dialogue_replicas=2, long_sizes=(15, 18, 21, 25, 30),
            setup_samples=9, min_rounds=3, brute_sample=8)
QUICK = Size(convert_replicas=2, dialogue_replicas=1, long_sizes=(15, 20),
             setup_samples=2, min_rounds=2, brute_sample=3)


# The host runs the same code at speeds up to 1.9x apart, in phases that
# last from seconds to minutes (see README). Every time is therefore scaled
# to a reference host: it is multiplied by REFERENCE_S over the mean time of
# a fixed piece of the benchmark's own work (parsing corpus50 eight times
# with ``refgraph``) timed just before and just after it. REFERENCE_S is
# about what that work takes here in a fast phase.
REFERENCE_S = 0.007
REFERENCE_TEXT = inputs.CORPUS50.read_text(encoding="utf-8") if inputs.CORPUS50.is_file() else ""


def reference_seconds() -> float:
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(8):
            refgraph.read_docs(REFERENCE_TEXT)
        return perf_counter() - start
    finally:
        gc.enable()


def on_reference_host(fn):
    """``fn()`` and the factor that scales this host's seconds, at the time
    ``fn`` ran, to reference-host seconds."""
    gc.collect()
    before = reference_seconds()
    value = fn()
    return value, 2 * REFERENCE_S / (before + reference_seconds())


def timed(fn, *args):
    start = perf_counter()
    value = fn(*args)
    return perf_counter() - start, value


def run_cli(args: list[str]) -> tuple[float, str]:
    """One whole ``wiser`` command in this process: (seconds, stdout)."""
    from wiser.cli import main

    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        main.main([str(a) for a in args], prog_name="wiser", standalone_mode=False)
    return perf_counter() - start, buf.getvalue()


def setup_seconds(workload: str) -> float:
    extra = [str(CATALOG)] if workload == "convert" else []
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *extra], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


class Convert:
    """``wiser convert --mode wiser`` of corpus50 replicated under fresh ids."""

    def __init__(self, work: Path, seed: int, size: Size):
        self.inp = inputs.make_convert(work, seed, size.convert_replicas)
        self.out, self.report = work / "convert_out.txt", work / "report.txt"
        self.traced_out = work / "convert_traced.txt"
        self.units = len(self.inp.ids)

    def commands(self) -> list[list]:
        return [["convert", self.inp.path, self.out, "--mode", "wiser", "--catalog", CATALOG,
                 "--report", self.report]]

    def check(self, outputs: list[list[str]], size: Size, seed: int):
        failures, matched = checks.check_convert(self.inp, self.out.read_text(encoding="utf-8"),
                                                 self.report.read_text(encoding="utf-8"), CATALOG)
        failures.expect(all(len(set(o)) == 1 for o in outputs), "rounds printed different outputs")
        return failures, 0, matched

    def decompose(self, tracer, k: int):
        return spans.convert_steps(tracer, self.inp.path, CATALOG, self.traced_out), {}, []

    def check_traced(self, traced, failures) -> None:
        failures.expect(self.traced_out.read_bytes() == self.out.read_bytes(),
                        "traced decomposition wrote other bytes than the command")
        report, _ = checks.parse_report(self.report.read_text(encoding="utf-8"))
        failures.expect(traced[0]["convert.relabeled_edges"] == report.get("relabeled_edges"),
                        "traced relabeled edges differ from the report")


class Score:
    """``wiser score`` of gold corpora against seeded perturbations of them."""

    def __init__(self, inp: inputs.ScoreInput, metrics: tuple):
        self.inp, self.metrics = inp, metrics
        self.units = len(inp.gold)
        self.totals: dict = {}

    def commands(self, per_doc: bool = False) -> list[list]:
        extra = [] if self.metrics == DEFAULT_METRICS else ["--metrics", ",".join(self.metrics)]
        extra += ["--per-doc"] if per_doc else []
        return [["score", "--gold", gold, "--pred", pred, *extra] for gold, pred in self.inp.files]

    def check(self, outputs: list[list[str]], size: Size, seed: int):
        self.totals, _ = checks.parse_score_lines("".join(o[0] for o in outputs), self.metrics)
        if len(self.inp.files) == len(self.inp.gold):  # one pair per command: its totals are the pair's
            per_doc = {g.id: checks.parse_score_lines(o[0], self.metrics)[0]
                       for g, o in zip(self.inp.gold, outputs)}
            per_doc_totals = self.totals
        else:
            text = "".join(run_cli(args)[1] for args in self.commands(per_doc=True))
            per_doc_totals, per_doc = checks.parse_score_lines(text, self.metrics)
        brute_sample = size.brute_sample if self.metrics == DEFAULT_METRICS else 0
        failures, below, matched = checks.check_score(self.inp, per_doc, self.totals, self.metrics,
                                                      brute_sample, seed)
        failures.expect(per_doc_totals == self.totals, "the --per-doc run printed other totals")
        failures.expect(all(len(set(o)) == 1 for o in outputs), "rounds printed different outputs")
        failures.expect(set(self.totals) == set(self.metrics), "a metric is missing from the output")
        for pair in below:
            print(f"below planted correspondence: {pair}", file=sys.stderr)
        return failures, len(below), matched

    def decompose(self, tracer, k: int):
        totals, docs_read, n_vars = spans.score_steps(tracer, *self.inp.files[k], self.metrics)
        counts = {"codec.docs_read": docs_read}
        counts.update({f"metrics.matched.{m}": totals[m][0] for m in self.metrics})
        return counts, totals, n_vars

    def check_traced(self, traced, failures) -> None:
        failures.expect(traced[1] == self.totals, "traced decomposition does not reproduce the matched counts")


def make_workload(name: str, work: Path, seed: int, size: Size):
    if name == "convert":
        return Convert(work, seed, size)
    if name == "score-dialogue":
        return Score(inputs.make_dialogue(work, seed, size.dialogue_replicas), DEFAULT_METRICS)
    return Score(inputs.make_long(work, seed, size.long_sizes), ("smatch",))


def rounds(seconds: float, min_rounds: int, one_round) -> int:
    """Whole rounds while one more is expected to end within ``seconds`` (at
    least ``min_rounds``); ``one_round(i)`` returns the round's seconds."""
    total, last, n = 0.0, 0.0, 0
    while n < min_rounds or total + last <= seconds:
        last = one_round(n)
        total += last
        n += 1
    return n


def measure(workload: str, seed: int, seconds: float, size: Size) -> dict:
    """Untraced run: the end-to-end metrics, as medians over the run's rounds
    of reference-host seconds. ``docs_per_s`` divides the documents of a
    round by the summed median time of its commands."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        wl = make_workload(workload, Path(tmp), seed, size)
        commands = wl.commands()
        raw: list[list[float]] = [[] for _ in commands]
        times: list[list[float]] = [[] for _ in commands]
        outputs: list[list[str]] = [[] for _ in commands]
        setups: list[float] = []

        def set_up() -> None:
            t, scale = on_reference_host(lambda: setup_seconds(workload))
            setups.append(t * scale)

        def one_round(i: int) -> float:
            # Set-ups are spread evenly over the run, so they see its phases.
            elapsed = sum(map(sum, raw))
            if len(setups) < size.setup_samples and elapsed >= len(setups) * seconds / size.setup_samples:
                set_up()
            for k, args in enumerate(commands):
                (t, out), scale = on_reference_host(lambda: run_cli(args))
                raw[k].append(t)
                times[k].append(t * scale)
                outputs[k].append(out)
            return sum(r[-1] for r in raw)

        n = rounds(seconds, size.min_rounds, one_round)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < size.setup_samples:
            set_up()
        failures, failed_units, matched = wl.check(outputs, size, seed)
    host = sum(statistics.median(r) for r in raw)
    print(f"{workload}\trounds\t{n}\tcommands per round\t{len(commands)}\t"
          f"docs_per_s in this host's seconds\t{wl.units / host}")
    return result(failures, n * wl.units, n * failed_units, {
        "setup_s": (statistics.median(setups), "s"),
        "docs_per_s": (wl.units / sum(statistics.median(t) for t in times), "docs/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "matched_triples": (matched, "count"),
    })


LAYER_TIMES = (
    ("codec.read_s", "codec.read"), ("codec.write_s", "codec.write"),
    ("graph.build_s", "graph.build"), ("graph.normalize_s", "graph.normalize"),
    ("graph.extract_triples_s", "graph.extract_triples"),
    ("frames.load_catalog_s", "frames.load_catalog"), ("rules.compile_rules_s", "rules.compile_rules"),
    ("rules.map_catalog_s", "rules.map_catalog"),
    ("convert.trim_s", "convert.trim"), ("convert.convert_s", "convert.convert"),
    ("metrics.transform_s", "metrics.transform"),
    *((f"metrics.align_s.{m}", f"metrics.align.{m}") for m in checks.ALIGNMENT_METRICS),
    ("metrics.bag_s", "metrics.bag"),
)
LAYER_COUNTS = ("codec.docs_read", "codec.bytes_written", "rules.arguments_mapped",
                "convert.docs_out", "convert.relabeled_edges",
                *(f"metrics.matched.{m}" for m in DEFAULT_METRICS))
BAND_NAMES = tuple(f"{lo}-{hi}" for lo, hi in inputs.BANDS)
TRACED_MIN_ROUNDS = 3


def measure_traced(workload: str, seed: int, seconds: float, size: Size) -> dict:
    """Traced run: for each command of a round, the command untraced, then
    its decomposition untraced and traced. Per-layer times are summed over a
    round's commands and reported as medians over rounds, in reference-host
    seconds; a band reports the median over its pairs of each pair's median
    Smatch time."""
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer(enabled=True)
    off = spans.Tracer(enabled=False)
    per_round: list[dict] = []
    pair_times: list[list[float]] = []  # per round, the Smatch span of each pair
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        wl = make_workload(workload, Path(tmp), seed, size)
        commands = wl.commands()
        outputs: list[list[str]] = [[] for _ in commands]
        traced_results = []

        def one_round(i: int) -> float:
            values: dict[str, float] = dict.fromkeys([name for name, _ in LAYER_TIMES], 0.0)
            values.update({"cli.command_s": 0.0, "cli.overhead_s": 0.0, "trace.overhead_s": 0.0})
            counts, totals, n_vars, pairs = Counter(), {}, [], []
            wall = 0.0
            for k, args in enumerate(commands):
                (cli_s, out), cli_scale = on_reference_host(lambda: run_cli(args))
                outputs[k].append(out)
                (untraced_s, _), untraced_scale = on_reference_host(lambda: timed(wl.decompose, off, k))
                tracer.trace_id += 1
                first = len(tracer.spans)
                with spans.traced_build(tracer):
                    (traced_s, traced), scale = on_reference_host(lambda: timed(wl.decompose, tracer, k))
                summary = tracer.summary(first)
                for name, span in LAYER_TIMES:
                    values[name] += summary.self_s.get(span, 0.0) * scale
                values["cli.command_s"] += cli_s * cli_scale
                values["cli.overhead_s"] += cli_s * cli_scale - summary.layers_s * scale
                values["trace.overhead_s"] += traced_s * scale - untraced_s * untraced_scale
                pairs += [t * scale for t in summary.durations.get("metrics.align.smatch", [])]
                counts.update(traced[0])
                for m, t in traced[1].items():
                    totals[m] = tuple(a + b for a, b in zip(totals.get(m, (0, 0, 0)), t))
                n_vars += traced[2]
                wall += cli_s + untraced_s + traced_s
            per_round.append(values)
            pair_times.append(pairs)
            traced_results.append((counts, totals, n_vars))
            return wall

        n = rounds(seconds, TRACED_MIN_ROUNDS, one_round)
        failures, failed_units, _ = wl.check(outputs, size, seed)
        for traced in traced_results:
            wl.check_traced(traced, failures)
        tracer.dump(OUT / f"trace-{workload}-seed{seed}.jsonl")
    metrics = {name: (statistics.median(r[name] for r in per_round), "s") for name in per_round[0]}
    by_band: dict[str, list[float]] = {b: [] for b in BAND_NAMES}
    for n_vars, times in zip(traced_results[-1][2], zip(*pair_times)):
        by_band.get(inputs.band_of(n_vars), []).append(statistics.median(times))
    for band, times in by_band.items():
        metrics[f"metrics.smatch_pair_s.{band}"] = (statistics.median(times or [0.0]), "s")
    counts = traced_results[-1][0]
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith("bytes_written") else "count")
    return result(failures, n * wl.units, n * failed_units, metrics)


def result(failures, attempted: int, failed: int, metrics: dict) -> dict:
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run(workload: str, seed: int, seconds: float, trace: int, size: Size) -> dict:
    measure_fn = measure_traced if trace else measure
    res = measure_fn(workload, seed, seconds, size)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(res) + "\n")
    return res


def quick() -> int:
    """Every workload at a tiny size, untraced and traced, every check on."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run(workload, 1, 0, trace, QUICK)
            good = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            ok &= good
            print(f"{'ok' if good else 'FAIL'}\t{workload}\ttrace={trace}\tattempted={res['attempted']}"
                  f"\tfailed={res['failed']}\tmetrics={len(res['metrics'])}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, all workloads, as a self-test")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a wiser source checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    res = run(args.workload, args.seed, args.seconds, args.trace, FULL)
    for name, metric in res["metrics"].items():
        print(f"{args.workload}\t{name}\t{metric['value']}\t{metric['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

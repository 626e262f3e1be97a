"""Command-line front end wiring the toolkit into reproducible pipelines.

Exit codes: 0 success, 1 data failure, 2 usage error. Every run emits a
manifest (command, configuration, input digests, tool version, seed) so
that equal manifests imply byte-identical outputs; commands that write
files place it next to their primary output, and commands that print to
stdout finish with a ``manifest`` line.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

# CPython's built-in SHA-256, as ``random`` uses it: ``hashlib`` loads the
# OpenSSL library, which adds about 3.5 MB to the resident size of every
# process that imports the CLI.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .codec import read_corpus, write_corpus
from .convert import (
    DEFAULT_EXCLUDED_SENSES,
    MODE_PASSES,
    ConversionConfig,
    convert_corpus,
    doc_id,
    read_id_list,
    split_corpus,
)
from .frames import catalog_stats, ftag_by_arg, load_catalog, vnrole_by_arg
from .metrics import (
    DEFAULT_METRICS,
    METRIC_NAMES,
    IaaBatch,
    corpus_stats,
    iaa_batch_score,
    iaa_report,
    pair_by_id,
    score_corpus,
)
from .rules import REIFIED_OVERRIDES, compile_rules, load_overrides, map_catalog

CLI_MODES = {
    "wiser": "wiser",
    "wiser+wsd": "wiser_with_wsd",
    "numbered": "numbered_no_wsd",
    "numbered+wsd": "numbered_with_wsd",
}


def _sha256(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(command: str, config: dict, inputs: dict[str, str | None], seed: int | None = None) -> str:
    payload = {
        "command": command,
        "config": config,
        "inputs": {name: _sha256(path) for name, path in inputs.items() if path},
        "seed": seed,
        "version": __version__,
    }
    return json.dumps(payload, sort_keys=True)


def _write_manifest(manifest: str, output_path: str) -> None:
    Path(output_path + ".manifest.json").write_text(manifest + "\n", encoding="utf-8")


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current standard stream, named explicitly.

    With no ``file``, click caches a wrapper per stream it has written to and
    keeps each such stream alive for the rest of the process, so a process
    that runs many commands with stdout redirected keeps every output.
    """
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout"))


class _Main(click.Group):
    """Reports a data failure raised by any command and exits 1.

    Graph, parse, rule, catalog and split errors all subclass ``ValueError``.
    A reader that closes stdout early, as ``| head`` does, is not a failure:
    the command exits 1 without a message.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            # Python flushes stdout again at exit; send that to devnull so it
            # cannot fail too (see the note on SIGPIPE in the signal docs).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            ctx.exit(1)
        except (ValueError, OSError) as exc:
            err = click.ClickException(str(exc))
            err.exit_code = 1
            raise err from exc


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="wiser")
def main() -> None:
    """Semantic graph conversion and evaluation pipelines."""


@main.command()
@click.argument("input_corpus", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_corpus", type=click.Path(dir_okay=False))
@click.option("--mode", type=click.Choice(sorted(CLI_MODES)), default="wiser", show_default=True)
@click.option("--catalog", envvar="WISER_CATALOG", type=click.Path(exists=True, dir_okay=False),
              help="Frame catalog (defaults to $WISER_CATALOG).")
@click.option("--overrides", type=click.Path(exists=True, dir_okay=False),
              help="Manual role override table.")
@click.option("--exclude", type=click.Path(exists=True, dir_okay=False),
              help="File of excluded sense names, one per line (replaces the default list).")
@click.option("--on-unmapped", type=click.Choice(["drop", "flag"]), default="flag", show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              help="Write the conversion report here.")
def convert(input_corpus, output_corpus, mode, catalog, overrides, exclude, on_unmapped,
            report_path):
    """Trim and convert a corpus into the selected scheme."""
    mode_name = CLI_MODES[mode]
    relabel = MODE_PASSES[mode_name][0]
    if relabel and not catalog:
        raise click.UsageError(f"--mode {mode} relabels numbered arguments and needs --catalog")

    corpus = read_corpus(input_corpus)
    cat = load_catalog(catalog) if catalog else None
    override_table = REIFIED_OVERRIDES
    if overrides:
        override_table = override_table.merged_with(load_overrides(overrides))
    mapping = {}
    if cat is not None:
        mapping, _ = map_catalog(cat, compile_rules())
    config = ConversionConfig(
        mode=mode_name,
        mapping=mapping,
        overrides=override_table,
        exclusion_senses=frozenset(read_id_list(exclude)) if exclude else DEFAULT_EXCLUDED_SENSES,
        on_unmapped="drop_sentence" if on_unmapped == "drop" else "keep_numbered_and_flag",
    )
    converted, report = convert_corpus(corpus, cat, config)
    write_corpus(converted, output_corpus)
    if report_path:
        Path(report_path).write_text(report.to_text(), encoding="utf-8")

    manifest = _manifest(
        "convert",
        {"mode": mode_name, "on_unmapped": on_unmapped},
        {"input": input_corpus, "catalog": catalog, "overrides": overrides, "exclude": exclude},
    )
    _write_manifest(manifest, output_corpus)
    _echo(f"wrote {len(converted)} of {len(corpus)} documents to {output_corpus}")


@main.command()
@click.option("--gold", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--metrics", "metrics_list", default=",".join(DEFAULT_METRICS), show_default=True,
              help="Comma-separated metric names.")
@click.option("--scheme", type=click.Choice(["wiser", "amr"]), default="wiser", show_default=True)
@click.option("--restarts", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--exact", is_flag=True, help="Exhaustive alignment (small graphs only).")
@click.option("--max-vars", type=int, default=8, show_default=True,
              help="Variable bound for --exact.")
@click.option("--per-doc", is_flag=True, help="Also print one line per document and metric.")
def score(gold, pred, metrics_list, scheme, restarts, seed, exact, max_vars, per_doc):
    """Score a predicted corpus against a gold corpus."""
    names = [m.strip() for m in metrics_list.split(",") if m.strip()]
    unknown = [m for m in names if m not in METRIC_NAMES]
    if unknown:
        raise click.UsageError(f"unknown metric(s): {', '.join(unknown)}")
    gold_corpus = read_corpus(gold)
    pred_corpus = read_corpus(pred)
    pred_corpus, gold_corpus = pair_by_id(pred_corpus, gold_corpus)
    totals, per_doc_entries = score_corpus(
        pred_corpus, gold_corpus, metrics=names, scheme=scheme,
        restarts=restarts, seed=seed, exact=exact, max_vars=max_vars,
    )

    if per_doc:
        for i, entries in enumerate(per_doc_entries):
            name = doc_id(gold_corpus[i], i)
            for metric in names:
                _echo(f"doc\t{name}\t{entries[metric].line()}")
    for metric in names:
        _echo(totals[metric].line())
    _echo("manifest\t" + _manifest(
        "score",
        {"metrics": names, "scheme": scheme, "restarts": restarts,
         "exact": exact, "max_vars": max_vars, "per_doc": per_doc},
        {"gold": gold, "pred": pred},
        seed=seed,
    ))


@main.command()
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--by-source", "source_key", default=None,
              help="Metadata key that buckets documents into sources.")
@click.option("--machine", is_flag=True, help="Tab-separated output.")
def stats(corpus_path, source_key, machine):
    """Corpus statistics per source and in total."""
    corpus = read_corpus(corpus_path)
    report = corpus_stats(corpus, source_key=source_key)
    fields = ("sentences", "tokens", "concepts", "relations",
              "reentrancies", "negations", "named_entities")
    rows = list(report.rows) + [report.total]
    if machine:
        for row in rows:
            values = "\t".join(str(getattr(row, f)) for f in fields)
            _echo(f"{row.source}\t{values}")
    else:
        header = ["source", *fields]
        table = [[row.source, *(str(getattr(row, f)) for f in fields)] for row in rows]
        widths = [max(len(r[i]) for r in [header, *table]) for i in range(len(header))]
        _echo("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in table:
            _echo("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    for warning in report.warnings:
        _echo(f"warning: {warning}", err=True)
    _echo("manifest\t" + _manifest(
        "stats", {"by_source": source_key, "machine": machine}, {"corpus": corpus_path}))


@main.command()
@click.option("--batches", "batches_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Manifest: group, batch id, then a score or two corpus paths (tab-separated).")
@click.option("--restarts", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def iaa(batches_path, restarts, seed):
    """Inter-annotator agreement per batch with per-group macro averages."""
    batches = []
    base = Path(batches_path).parent
    with open(batches_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) == 3:
                group, batch_id, value = fields
                score_value = float(value)
            elif len(fields) == 4:
                group, batch_id, path_a, path_b = fields
                corpus_a = read_corpus(base / path_a)
                corpus_b = read_corpus(base / path_b)
                score_value = iaa_batch_score(corpus_a, corpus_b, restarts=restarts, seed=seed)
            else:
                raise ValueError(f"line {lineno}: expected 3 or 4 tab-separated fields")
            batches.append(IaaBatch(group=group, batch_id=batch_id, score=score_value))
    report = iaa_report(batches)
    for batch in report.batches:
        _echo(f"batch\t{batch.group}\t{batch.batch_id}\t{batch.score:.4f}")
    for group, mean in report.macro_averages.items():
        _echo(f"macro\t{group}\t{mean:.4f}")
    _echo("manifest\t" + _manifest(
        "iaa", {"restarts": restarts}, {"batches": batches_path}, seed=seed))


@main.command()
@click.argument("subreport", type=click.Choice(["totals", "ftag", "vnrole", "coverage"]))
@click.option("--catalog", envvar="WISER_CATALOG", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--machine", is_flag=True, help="Tab-separated output.")
def frames(subreport, catalog, machine):
    """Frame catalog analytics: totals, tag/role distributions, coverage."""
    cat = load_catalog(catalog)
    sep = "\t" if machine else "  "
    if subreport == "totals":
        counts = catalog_stats(cat)
        _echo(f"predicates{sep}{counts.predicates}")
        _echo(f"senses{sep}{counts.senses}")
        _echo(f"arguments{sep}{counts.arguments}")
    elif subreport in ("ftag", "vnrole"):
        matrix = ftag_by_arg(cat) if subreport == "ftag" else vnrole_by_arg(cat).matrix
        cols = list(matrix.cols)
        header = ["", *(f"ARG{c}" for c in cols), "total"]
        rows = [[r, *(str(matrix.cell(r, c)) for c in cols), str(matrix.row_total(r))]
                for r in matrix.rows]
        rows.append(["total", *(str(matrix.col_total(c)) for c in cols), str(matrix.total)])
        if machine:
            for r in rows:
                _echo("\t".join(r))
        else:
            widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
            _echo("  ".join(h.rjust(w) for h, w in zip(header, widths)))
            for r in rows:
                _echo("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    else:
        report = vnrole_by_arg(cat)
        _echo(f"mapped_arguments{sep}{report.mapped_arguments}")
        _echo(f"total_arguments{sep}{report.total_arguments}")
        _echo(f"coverage{sep}{report.coverage:.4f}")
    _echo("manifest\t" + _manifest(
        "frames", {"subreport": subreport, "machine": machine}, {"catalog": catalog}))


@main.command()
@click.argument("input_corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--spec", "spec_entries", multiple=True, required=True, metavar="NAME=IDFILE",
              help="Split name and id-list file; repeat per split.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
def split(input_corpus, spec_entries, out_dir):
    """Partition a corpus into named splits by document id lists."""
    spec = {}
    for entry in spec_entries:
        if "=" not in entry:
            raise click.UsageError(f"--spec takes NAME=IDFILE, got {entry!r}")
        name, _, path = entry.partition("=")
        spec[name] = path
    corpus = read_corpus(input_corpus)
    id_lists = {name: read_id_list(path) for name, path in spec.items()}
    parts = split_corpus(corpus, id_lists)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, graphs in parts.items():
        write_corpus(graphs, out / f"{name}.txt")
        _echo(f"{name}\t{len(graphs)}")
    manifest = _manifest("split", {"splits": sorted(spec)},
                         {"input": input_corpus, **spec})
    _write_manifest(manifest, str(Path(out_dir) / "split"))


if __name__ == "__main__":
    sys.exit(main())

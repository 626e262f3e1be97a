from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import wiser
from wiser.cli import main
from wiser.codec import read_corpus, write_corpus
from wiser.convert import ConversionConfig, trim_corpus
from wiser.metrics import METRIC_NAMES
from wiser.rules import REIFIED_OVERRIDES

pytestmark = pytest.mark.usefixtures("data_dir")


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False, **kwargs)


class TestHelp:
    @pytest.mark.parametrize("command", [
        [], ["convert"], ["score"], ["stats"], ["iaa"], ["frames"], ["split"],
    ])
    def test_help_exits_zero(self, runner, command):
        result = invoke(runner, *command, "--help")
        assert result.exit_code == 0
        assert "Usage" in result.output


class TestConvert:
    def test_wiser_mode_matches_golden(self, runner, data_dir, tmp_path):
        out = tmp_path / "out.txt"
        report = tmp_path / "report.txt"
        result = invoke(
            runner, "convert", data_dir / "corpus50.txt", out,
            "--mode", "wiser", "--catalog", data_dir / "fixture_catalog.tsv",
            "--report", report,
        )
        assert result.exit_code == 0
        golden = (data_dir / "golden" / "corpus50_wiser.txt").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == golden
        golden_report = (data_dir / "golden" / "corpus50_wiser_report.txt").read_text(encoding="utf-8")
        assert report.read_text(encoding="utf-8") == golden_report
        assert (tmp_path / "out.txt.manifest.json").exists()

    def test_identity_mode_equals_trimmed_input(self, runner, data_dir, tmp_path,
                                                corpus50, fixture_catalog):
        out = tmp_path / "out.txt"
        result = invoke(
            runner, "convert", data_dir / "corpus50.txt", out,
            "--mode", "numbered+wsd", "--catalog", data_dir / "fixture_catalog.tsv",
        )
        assert result.exit_code == 0
        config = ConversionConfig(mode="numbered_with_wsd", overrides=REIFIED_OVERRIDES)
        kept, _ = trim_corpus(corpus50, fixture_catalog, config)
        expected = tmp_path / "expected.txt"
        write_corpus(kept, expected)
        assert out.read_text() == expected.read_text()

    def test_relabel_mode_without_catalog_is_usage_error(self, runner, data_dir, tmp_path):
        result = runner.invoke(main, [
            "convert", str(data_dir / "corpus50.txt"), str(tmp_path / "out.txt"),
            "--mode", "wiser",
        ])
        assert result.exit_code == 2
        assert "--catalog" in result.output

    def test_catalog_from_environment(self, runner, data_dir, tmp_path):
        result = runner.invoke(main, [
            "convert", str(data_dir / "corpus50.txt"), str(tmp_path / "out.txt"),
            "--mode", "wiser",
        ], env={"WISER_CATALOG": str(data_dir / "fixture_catalog.tsv")})
        assert result.exit_code == 0

    def test_unparseable_corpus_is_data_error(self, runner, data_dir, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("(c / cat\n", encoding="utf-8")
        result = runner.invoke(main, [
            "convert", str(bad), str(tmp_path / "out.txt"), "--mode", "numbered+wsd",
        ])
        assert result.exit_code == 1

    def test_reproducible_byte_identical(self, runner, data_dir, tmp_path):
        args = ["convert", data_dir / "corpus50.txt", None, "--mode", "wiser",
                "--catalog", data_dir / "fixture_catalog.tsv"]
        outputs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            args[2] = out
            invoke(runner, *args)
            outputs.append((out.read_bytes(),
                            (tmp_path / f"{name}.manifest.json").read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_custom_exclusions(self, runner, data_dir, tmp_path):
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("have-org-role-91\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        report = tmp_path / "report.txt"
        invoke(runner, "convert", data_dir / "corpus50.txt", out,
               "--mode", "wiser", "--catalog", data_dir / "fixture_catalog.tsv",
               "--exclude", exclude, "--report", report)
        ids = [g.metadata["id"] for g in read_corpus(out)]
        assert "d042" not in ids
        # d047 now falls to the ad-hoc check instead of the exclusion list
        assert "drop\td047\tadhoc" in report.read_text()

    def test_relabel_collision_flagged_not_fatal(self, runner, data_dir, tmp_path):
        corpus = tmp_path / "in.txt"
        corpus.write_text("# ::id x\n(t / tell-01 :ARG0 (b / boy) :ARG2 (g / girl) :beneficiary g)\n\n"
                          "# ::id y\n(c / cat)\n", encoding="utf-8")
        out, report = tmp_path / "out.txt", tmp_path / "report.txt"
        result = invoke(runner, "convert", corpus, out, "--catalog", data_dir / "fixture_catalog.tsv",
                        "--report", report)
        assert result.exit_code == 0
        assert [g.metadata["id"] for g in read_corpus(out)] == ["x", "y"]
        flags = [line for line in report.read_text().splitlines() if line.startswith("flag")]
        assert flags == ["flag\tx\ttell-01 :ARG2 collides with :benefactive",
                         "flag\tx\ttell-01 :beneficiary collides with :benefactive"]


class TestScore:
    def test_self_comparison_all_ones(self, runner, data_dir):
        gold = data_dir / "golden" / "corpus50_wiser.txt"
        result = invoke(runner, "score", "--gold", gold, "--pred", gold)
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l and not l.startswith("manifest")]
        assert len(lines) == 8
        for line in lines:
            name, p, r, f1, *_ = line.split("\t")
            assert f1 == "1.0000", line

    def test_metric_selection_and_scheme(self, runner, data_dir):
        gold = data_dir / "golden" / "corpus50_wiser.txt"
        result = invoke(runner, "score", "--gold", gold, "--pred", gold,
                        "--metrics", "xsrl", "--scheme", "wiser")
        line = result.output.splitlines()[0]
        assert line.startswith("xsrl\t")

    def test_unknown_metric_usage_error(self, runner, data_dir):
        gold = data_dir / "golden" / "corpus50_wiser.txt"
        result = runner.invoke(main, ["score", "--gold", str(gold), "--pred", str(gold),
                                      "--metrics", "sparkle"])
        assert result.exit_code == 2

    def test_document_id_mismatch_is_data_error(self, runner, data_dir, tmp_path, corpus50):
        shuffled = tmp_path / "renamed.txt"
        renamed = [dataclasses.replace(g, meta=tuple({**g.metadata, "id": f"x-{i}"}.items()))
                   for i, g in enumerate(corpus50)]
        write_corpus(renamed[:50], shuffled)
        result = runner.invoke(main, ["score", "--gold", str(data_dir / "corpus50.txt"),
                                      "--pred", str(shuffled)])
        assert result.exit_code == 1
        assert "mismatch" in result.output

    def test_pairs_by_id_not_position(self, runner, data_dir, tmp_path, corpus50):
        reordered = tmp_path / "reordered.txt"
        write_corpus(list(reversed(corpus50)), reordered)
        result = invoke(runner, "score", "--gold", data_dir / "corpus50.txt",
                        "--pred", reordered, "--metrics", "smatch")
        assert result.output.splitlines()[0].split("\t")[3] == "1.0000"

    def test_exact_equals_default_on_small_fixtures(self, runner, data_dir, tmp_path):
        small = tmp_path / "small.txt"
        graphs = [g for g in read_corpus(data_dir / "appendix_corpus.txt")
                  if len(g.instances) <= 6][:6]
        write_corpus(graphs, small)
        default = invoke(runner, "score", "--gold", small, "--pred", small,
                         "--metrics", "smatch")
        exact = invoke(runner, "score", "--gold", small, "--pred", small,
                       "--metrics", "smatch", "--exact")
        assert default.output.splitlines()[0] == exact.output.splitlines()[0]

    def test_exact_refuses_oversized_graphs(self, runner, data_dir):
        gold = data_dir / "corpus50.txt"
        result = runner.invoke(main, ["score", "--gold", str(gold), "--pred", str(gold),
                                      "--metrics", "smatch", "--exact", "--max-vars", "4"])
        assert result.exit_code == 1
        assert "variables" in result.output

    def test_per_doc_lines(self, runner, data_dir, tmp_path):
        small = tmp_path / "small.txt"
        write_corpus(read_corpus(data_dir / "appendix_corpus.txt")[:3], small)
        result = invoke(runner, "score", "--gold", small, "--pred", small,
                        "--metrics", "smatch", "--per-doc")
        doc_lines = [l for l in result.output.splitlines() if l.startswith("doc\t")]
        assert len(doc_lines) == 3

    @pytest.mark.parametrize("scheme", ["wiser", "amr"])
    def test_per_doc_matches_golden(self, runner, data_dir, scheme):
        result = invoke(runner, "score", "--gold", data_dir / "corpus50.txt",
                        "--pred", data_dir / "corpus50_damaged.txt",
                        "--metrics", ",".join(METRIC_NAMES), "--scheme", scheme, "--per-doc")
        golden = data_dir / "golden" / f"score_corpus50_damaged_{scheme}.txt"
        assert result.output == golden.read_text(encoding="utf-8")

    def test_per_doc_exact_matches_golden(self, runner, data_dir):
        # The amr golden is checked by CI; each scheme takes about 2 s.
        result = invoke(runner, "score", "--gold", data_dir / "corpus50.txt",
                        "--pred", data_dir / "corpus50_damaged.txt",
                        "--metrics", ",".join(METRIC_NAMES), "--per-doc", "--exact")
        golden = data_dir / "golden" / "score_corpus50_damaged_exact_wiser.txt"
        assert result.output == golden.read_text(encoding="utf-8")

    def test_closed_stdout_is_not_an_error(self, data_dir, tmp_path):
        # Far more output than a pipe buffers, so the command is still
        # writing when its reader goes away after one line.
        text = (data_dir / "corpus50.txt").read_text(encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(text.replace("::id ", f"::id r{r}-") for r in range(40)),
                          encoding="utf-8")
        path = [str(Path(wiser.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "wiser.cli", "score", "--gold", str(corpus), "--pred", str(corpus),
             "--metrics", "concepts,negations,named_entity", "--per-doc"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
        assert proc.stdout.readline().startswith("doc\t")
        proc.stdout.close()
        try:
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert stderr == ""  # no "Error: [Errno 32] Broken pipe"

    def test_manifest_line_present_and_stable(self, runner, data_dir):
        gold = data_dir / "golden" / "corpus50_wiser.txt"
        outputs = {invoke(runner, "score", "--gold", gold, "--pred", gold,
                          "--metrics", "smatch", "--seed", "3").output for _ in range(2)}
        assert len(outputs) == 1
        manifest_line = [l for l in outputs.pop().splitlines() if l.startswith("manifest\t")]
        payload = json.loads(manifest_line[0].split("\t", 1)[1])
        assert payload["seed"] == 3
        assert set(payload["inputs"]) == {"gold", "pred"}


class TestStats:
    def test_by_source_table(self, runner, data_dir):
        result = invoke(runner, "stats", data_dir / "corpus50.txt",
                        "--by-source", "src", "--machine")
        rows = [l.split("\t") for l in result.output.splitlines()
                if l and not l.startswith("manifest")]
        assert [r[0] for r in rows] == ["chat", "forum", "news", "total"]
        sentences = [int(r[1]) for r in rows]
        assert sentences[-1] == 50 == sum(sentences[:-1])

    def test_empty_corpus_zero_table(self, runner, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        result = invoke(runner, "stats", empty, "--machine")
        row = result.output.splitlines()[0].split("\t")
        assert row == ["total", "0", "0", "0", "0", "0", "0", "0"]


class TestIaaCommand:
    def test_table_macros(self, runner, data_dir):
        result = invoke(runner, "iaa", "--batches", data_dir / "iaa_batches.tsv")
        macros = dict(
            line.split("\t")[1:3] for line in result.output.splitlines()
            if line.startswith("macro\t")
        )
        assert abs(float(macros["beginner_amr"]) - 0.72) <= 0.005 + 1e-9
        assert abs(float(macros["beginner_wiser"]) - 0.76) <= 0.005 + 1e-9
        assert abs(float(macros["expert_amr"]) - 0.86) <= 0.005 + 1e-9
        assert abs(float(macros["expert_wiser"]) - 0.87) <= 0.005 + 1e-9

    def test_corpus_pair_batches(self, runner, data_dir, tmp_path, corpus50):
        write_corpus(corpus50[:4], tmp_path / "x.txt")
        write_corpus(corpus50[:4], tmp_path / "y.txt")
        manifest = tmp_path / "batches.tsv"
        manifest.write_text("grp\t01\tx.txt\ty.txt\n", encoding="utf-8")
        result = invoke(runner, "iaa", "--batches", manifest)
        assert "batch\tgrp\t01\t1.0000" in result.output

    def test_batch_size_mismatch_is_data_error(self, runner, tmp_path, corpus50):
        write_corpus(corpus50[:3], tmp_path / "x.txt")
        write_corpus(corpus50[:4], tmp_path / "y.txt")
        manifest = tmp_path / "batches.tsv"
        manifest.write_text("grp\t01\tx.txt\ty.txt\n", encoding="utf-8")
        result = runner.invoke(main, ["iaa", "--batches", str(manifest)])
        assert result.exit_code == 1


class TestFrames:
    def test_totals(self, runner, data_dir, fixture_catalog):
        result = invoke(runner, "frames", "totals",
                        "--catalog", data_dir / "fixture_catalog.tsv", "--machine")
        lines = dict(l.split("\t")[:2] for l in result.output.splitlines()
                     if not l.startswith("manifest"))
        assert int(lines["predicates"]) == len(fixture_catalog.predicates)
        assert int(lines["senses"]) == len(fixture_catalog.senses)
        assert int(lines["arguments"]) == len(fixture_catalog.arguments)

    def test_ftag_matrix_total(self, runner, data_dir, fixture_catalog):
        result = invoke(runner, "frames", "ftag",
                        "--catalog", data_dir / "fixture_catalog.tsv", "--machine")
        total_row = [l for l in result.output.splitlines() if l.startswith("total\t")][0]
        assert int(total_row.split("\t")[-1]) == len(fixture_catalog.arguments)

    def test_coverage(self, runner, data_dir):
        result = invoke(runner, "frames", "coverage",
                        "--catalog", data_dir / "fixture_catalog.tsv", "--machine")
        assert "coverage\t" in result.output

    def test_malformed_catalog_is_data_error(self, runner, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("tell\t01\t0\tXYZ\t\tdesc\n", encoding="utf-8")
        result = runner.invoke(main, ["frames", "totals", "--catalog", str(bad)])
        assert result.exit_code == 1


class TestSplit:
    def test_partition(self, runner, data_dir, tmp_path):
        result = invoke(
            runner, "split", data_dir / "corpus50.txt",
            "--spec", f"trn={data_dir / 'splits' / 'trn.ids'}",
            "--spec", f"dev={data_dir / 'splits' / 'dev.ids'}",
            "--spec", f"tst={data_dir / 'splits' / 'tst.ids'}",
            "--out-dir", tmp_path,
        )
        assert result.exit_code == 0
        assert len(read_corpus(tmp_path / "trn.txt")) == 40
        assert len(read_corpus(tmp_path / "dev.txt")) == 5
        assert len(read_corpus(tmp_path / "tst.txt")) == 5

    def test_overlap_is_data_error(self, runner, data_dir, tmp_path):
        dup = tmp_path / "dup.ids"
        dup.write_text("d001\n", encoding="utf-8")
        result = runner.invoke(main, [
            "split", str(data_dir / "corpus50.txt"),
            "--spec", f"a={data_dir / 'splits' / 'trn.ids'}",
            "--spec", f"b={dup}",
            "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert "d001" in result.output

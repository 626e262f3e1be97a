"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline) and enforces its stated tolerance and time budget. Full-scale
corpus results from licensed treebanks and trained parsers are not
reproducible at desk scale; criterion 9 substitutes independent-oracle
checks on bundled fixtures.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from graphgen import random_graph, random_pair
from test_codec import reentrant_variables
from test_rules import NEGATIVE_FIXTURES, NEGATIVE_OVERRIDES, POSITIVE_FIXTURES
from wiser.codec import canonical_serialize, corpus_text, parse_graph, serialize_graph
from wiser.convert import ConversionConfig, convert_corpus, convert_graph, split_sense
from wiser.graph import extract_triples, normalize
from wiser.metrics import (
    IaaBatch,
    concept_vocabulary,
    corpus_stats,
    fine_grained,
    iaa_report,
    novel_predicate_recall,
    score_triples,
    smatch,
    smatch_exact,
    transform_triples,
)
from wiser.rules import REIFIED_OVERRIDES, map_argument


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"
    )
    print(f"PASS  criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_golden_figure_conversion(figure_pair, fixture_mapping):
    with criterion(1, "golden conversion of the bundled figure pair", 1.0):
        numbered, thematic = figure_pair
        config = ConversionConfig(mode="wiser", mapping=fixture_mapping,
                                  overrides=REIFIED_OVERRIDES)
        converted = convert_graph(numbered, config)
        assert frozenset(extract_triples(converted)) == frozenset(extract_triples(thematic))


def test_criterion_2_rule_engine_coverage(builtin_rules):
    with criterion(2, "28 per-rule positive fixtures plus 5 override/unmapped fixtures", 1.0):
        assert len(POSITIVE_FIXTURES) == 28
        assert len({idx for idx, _, _ in POSITIVE_FIXTURES}) == 28
        for expected_index, expected_role, fixture in POSITIVE_FIXTURES:
            result = map_argument(fixture, builtin_rules)
            assert result.provenance == "rule"
            assert result.rule_index == expected_index, fixture
            assert result.role == expected_role
        assert len(NEGATIVE_FIXTURES) == 5
        outcomes = [map_argument(f, builtin_rules, NEGATIVE_OVERRIDES)
                    for f in NEGATIVE_FIXTURES]
        assert all(o.provenance in ("override", "unmapped") for o in outcomes)
        assert sum(1 for o in outcomes if o.provenance == "override") == 2
        assert sum(1 for o in outcomes if o.provenance == "unmapped") == 3


def test_criterion_3_alignment_oracle_equivalence():
    with criterion(3, "hill climbing matches the exhaustive oracle on 200 seeded pairs", 60.0):
        rng = random.Random(1729)
        equal = 0
        for i in range(200):
            a, b = random_pair(rng, max_vars=6)
            hill, _ = smatch(a, b, restarts=5, seed=i)
            exact, _ = smatch_exact(a, b)
            assert hill.matched <= exact.matched, "hill climbing exceeded the oracle"
            if hill.f1 == exact.f1:
                equal += 1
        assert equal >= 196, f"only {equal}/200 pairs matched the oracle"


def test_criterion_4_metric_identities(fixture_mapping):
    with criterion(4, "sense-stripping identity and restriction soundness", 30.0):
        strip = ConversionConfig(mode="numbered_no_wsd", mapping=fixture_mapping)
        rng = random.Random(271828)
        for i in range(100):
            a, b = random_pair(rng, max_vars=6)
            via_metric = fine_grained(a, b, "no_wsd", seed=i)
            direct, _ = smatch(convert_graph(a, strip), convert_graph(b, strip), seed=i)
            assert (via_metric.matched, via_metric.total_pred, via_metric.total_gold) == \
                (direct.matched, direct.total_pred, direct.total_gold)
        for metric in ("srl", "xsrl", "reentrancies"):
            for i in range(30):
                a, b = random_pair(rng, max_vars=6)
                ta = transform_triples(extract_triples(normalize(a)), metric)
                tb = transform_triples(extract_triples(normalize(b)), metric)
                assert sorted(transform_triples(ta, metric)) == sorted(ta)
                full = fine_grained(a, b, metric, seed=i)
                reduced = score_triples(metric, transform_triples(ta, metric),
                                        transform_triples(tb, metric), seed=i)
                assert (full.matched, full.total_pred, full.total_gold) == \
                    (reduced.matched, reduced.total_pred, reduced.total_gold)


def test_criterion_5_iaa_arithmetic():
    with criterion(5, "batch agreement macro averages", 1.0):
        batches = []
        for scheme, scores in (
            ("amr", [0.72, 0.72, 0.68, 0.69, 0.77, 0.72]),
            ("wiser", [0.74, 0.75, 0.70, 0.79, 0.79, 0.76]),
        ):
            batches += [IaaBatch(f"beginner_{scheme}", f"{i:02d}", s)
                        for i, s in enumerate(scores, 1)]
        batches += [IaaBatch("expert_amr", "07", 0.87), IaaBatch("expert_amr", "08", 0.84),
                    IaaBatch("expert_wiser", "09", 0.89), IaaBatch("expert_wiser", "10", 0.85)]
        macros = iaa_report(batches).macro_averages
        tolerance = 0.005 + 1e-9
        assert abs(macros["beginner_amr"] - 0.72) <= tolerance
        assert abs(macros["beginner_wiser"] - 0.76) <= tolerance
        assert abs(macros["expert_amr"] - 0.86) <= tolerance
        assert abs(macros["expert_wiser"] - 0.87) <= tolerance


def test_criterion_6_mode_algebra(corpus50, fixture_catalog, fixture_mapping):
    with criterion(6, "scheme variants compose on the 50-sentence fixture corpus", 5.0):
        def run(corpus, mode):
            config = ConversionConfig(mode=mode, mapping=fixture_mapping,
                                      overrides=REIFIED_OVERRIDES)
            out, _ = convert_corpus(corpus, fixture_catalog, config)
            return out

        def canonical_bytes(corpus):
            return "\n\n".join(canonical_serialize(g) for g in corpus).encode()

        direct = run(corpus50, "wiser")
        strip_after_relabel = run(run(corpus50, "wiser_with_wsd"), "numbered_no_wsd")
        relabel_after_strip = run(run(corpus50, "numbered_no_wsd"), "wiser_with_wsd")
        assert canonical_bytes(direct) == canonical_bytes(strip_after_relabel)
        assert canonical_bytes(direct) == canonical_bytes(relabel_after_strip)


def test_criterion_7_post_conversion_purity(corpus50, fixture_catalog, fixture_mapping):
    with criterion(7, "converted fixture corpus is free of numbered labels and sense ids", 5.0):
        config = ConversionConfig(mode="wiser", mapping=fixture_mapping,
                                  overrides=REIFIED_OVERRIDES)
        out, report = convert_corpus(corpus50, fixture_catalog, config)
        assert report.flags == ()
        assert ":ARG" not in corpus_text(out)
        for g in out:
            for _, concept in g.instances:
                assert split_sense(concept)[1] is None, concept


def test_criterion_8_round_trip(figure_pair, appendix_corpus):
    with criterion(8, "parse/serialize round-trip on fixtures and 1000 random graphs", 30.0):
        for g in (*figure_pair, *appendix_corpus):
            back = parse_graph(serialize_graph(g))
            assert frozenset(extract_triples(back)) == frozenset(extract_triples(g))
        rng = random.Random(31337)
        for _ in range(1000):
            g = random_graph(rng, max_vars=12)
            back = parse_graph(serialize_graph(g))
            assert frozenset(extract_triples(back)) == frozenset(extract_triples(g))
            assert set(reentrant_variables(back)) == set(reentrant_variables(g))


def test_criterion_9_desk_scale_substitutes(corpus50):
    # Full-corpus conversions and parser scores need licensed data and
    # trained models; the stated substitutes are an independent tally and
    # a planted-novelty recall fixture.
    with criterion(9, "independent stats tally and planted-novelty recall", 5.0):
        report = corpus_stats(corpus50, source_key="src")
        concepts = relations = reentrancies = negations = names = 0
        for g in corpus50:
            triples = extract_triples(normalize(g))
            concepts += sum(1 for t in triples if t.kind == "instance")
            relations += sum(1 for t in triples if t.kind in ("relation", "attribute"))
            targets = [t.target for t in triples if t.kind == "relation"]
            reentrancies += sum(max(0, targets.count(v) - 1) for v in set(targets))
            negations += sum(1 for t in triples if t.kind == "attribute"
                             and t.label == ":polarity" and t.target == "-")
            names += sum(1 for t in triples if t.kind == "relation" and t.label == ":name")
        assert (report.total.concepts, report.total.relations, report.total.reentrancies,
                report.total.negations, report.total.named_entities) == \
            (concepts, relations, reentrancies, negations, names)

        train = [parse_graph("(a / alpha :mod (b / beta))")]
        gold = [parse_graph(f"(a / alpha :mod (n / nova{i}))") for i in range(4)]
        gold += [parse_graph("(a / alpha :mod (b / beta))") for _ in range(6)]
        pred = [parse_graph(f"(a / alpha :mod (n / nova{i}))") for i in range(2)]
        pred += [parse_graph("(a / alpha :mod (b / beta))") for _ in range(8)]
        recall = novel_predicate_recall(gold, pred, concept_vocabulary(train))
        assert recall.total == 4
        assert recall.found == 2
        assert recall.recall == pytest.approx(0.5)

from __future__ import annotations

import pytest

from wiser.codec import canonical_serialize, corpus_text, parse_graph
from wiser.convert import (
    ConversionConfig,
    DropEvent,
    SplitError,
    UnmappedArgumentError,
    convert_corpus,
    convert_graph,
    read_id_list,
    split_corpus,
    split_sense,
    strip_sense,
    trim_corpus,
)
from wiser.graph import canonical_triples, extract_triples
from wiser.rules import REIFIED_OVERRIDES, load_overrides, map_catalog

# tell-01 :ARG2 becomes :benefactive, and so does the non-core :beneficiary.
COLLIDING = "# ::id x\n(t / tell-01 :ARG0 (b / boy) :ARG2 (g / girl) :beneficiary g)"


@pytest.fixture(scope="module")
def wiser_config(fixture_mapping):
    return ConversionConfig(mode="wiser", mapping=fixture_mapping, overrides=REIFIED_OVERRIDES)


def config_for(mode, fixture_mapping):
    return ConversionConfig(mode=mode, mapping=fixture_mapping, overrides=REIFIED_OVERRIDES)


class TestSenseSuffix:
    @pytest.mark.parametrize("concept,lemma,sense", [
        ("tell-01", "tell", "01"),
        ("have-rel-role-91", "have-rel-role", "91"),
        ("calibrate-104", "calibrate", "104"),
        ("step-down", "step-down", None),
        ("on-purpose", "on-purpose", None),
        ("x-1", "x-1", None),
        ("cat", "cat", None),
    ])
    def test_split(self, concept, lemma, sense):
        assert split_sense(concept) == (lemma, sense)

    def test_strip(self):
        assert strip_sense("tell-01") == "tell"
        assert strip_sense("boy") == "boy"


class TestConvertGraph:
    def test_figure_golden(self, figure_pair, wiser_config):
        numbered, thematic = figure_pair
        converted = convert_graph(numbered, wiser_config)
        assert frozenset(extract_triples(converted)) == frozenset(extract_triples(thematic))

    def test_identity_mode(self, figure_pair, fixture_mapping):
        numbered, _ = figure_pair
        out = convert_graph(numbered, config_for("numbered_with_wsd", fixture_mapping))
        assert extract_triples(out) == extract_triples(numbered)

    def test_strip_only_mode(self, fixture_mapping):
        g = parse_graph("(t / tell-01 :ARG0 (w / woman))")
        out = convert_graph(g, config_for("numbered_no_wsd", fixture_mapping))
        assert frozenset(extract_triples(out)) == frozenset(
            extract_triples(parse_graph("(t / tell :ARG0 (w / woman))")))

    def test_inverse_numbered_edge_resolved_on_target_side(self, wiser_config):
        g = parse_graph("(b / boy :ARG0-of (t / tell-01 :ARG1 (s / story)))")
        out = convert_graph(g, wiser_config)
        assert ("b", ":actor-of", "t") in out.edges
        assert ("t", ":theme", "s") in out.edges

    def test_structure_preserved(self, corpus50, fixture_catalog, wiser_config):
        kept, _ = trim_corpus(corpus50, fixture_catalog, wiser_config)
        for g in kept:
            out = convert_graph(g, wiser_config)
            assert out.root == g.root
            assert len(out.instances) == len(g.instances)
            assert len(out.edges) == len(g.edges)
            assert len(out.attributes) == len(g.attributes)
            assert out.reentrant_variables() == g.reentrant_variables()
            assert [v for v, _ in out.instances] == [v for v, _ in g.instances]

    def test_unmapped_drop_policy_raises(self, fixture_mapping):
        config = ConversionConfig(mode="wiser", mapping=fixture_mapping,
                                  overrides=REIFIED_OVERRIDES, on_unmapped="drop_sentence")
        g = parse_graph("(b / bow-02 :ARG2 (t / they))")
        with pytest.raises(UnmappedArgumentError):
            convert_graph(g, config)

    def test_unmapped_flag_policy_keeps_label(self, fixture_mapping):
        g = parse_graph("(b / bow-02 :ARG2 (t / they))")
        out = convert_graph(g, config_for("wiser", fixture_mapping))
        assert ("b", ":ARG2", "t") in out.edges
        assert out.concepts["b"] == "bow"

    def test_lemma_consensus_for_senseless_predicates(self, fixture_mapping):
        g = parse_graph("(t / tell :ARG0 (w / woman))")
        out = convert_graph(g, config_for("wiser_with_wsd", fixture_mapping))
        assert ("t", ":actor", "w") in out.edges

    def test_lemma_conflict_stays_numbered(self, fixture_mapping):
        # charge-01 and charge-05 disagree on ARG1, so bare 'charge' cannot resolve.
        g = parse_graph("(c / charge :ARG1 (m / man))")
        out = convert_graph(g, config_for("wiser_with_wsd", fixture_mapping))
        assert ("c", ":ARG1", "m") in out.edges

    def test_unmapped_sense_poisons_lemma_consensus(self, builtin_rules):
        from wiser.frames import parse_catalog_lines
        from wiser.rules import map_catalog

        catalog = parse_catalog_lines([
            "nod\t01\t1\tPPT\t\tthing nodded",
            "nod\t02\t1\tREC\t\tnodded to each other",
        ])
        mapping, _ = map_catalog(catalog, builtin_rules)
        config = ConversionConfig(mode="wiser_with_wsd", mapping=mapping)
        sensed = convert_graph(parse_graph("(n / nod-01 :ARG1 (h / head))"), config)
        assert ("n", ":theme", "h") in sensed.edges
        bare = convert_graph(parse_graph("(n / nod :ARG1 (h / head))"), config)
        assert ("n", ":ARG1", "h") in bare.edges

    @pytest.mark.parametrize("overrides_seen_by_mapping", [False, True])
    def test_override_reaches_sensed_and_bare_lemma(self, fixture_catalog, builtin_rules, data_dir,
                                                     overrides_seen_by_mapping):
        overrides = REIFIED_OVERRIDES.merged_with(load_overrides(data_dir / "fixture_overrides.tsv"))
        mapping, _ = map_catalog(fixture_catalog, builtin_rules,
                                 overrides if overrides_seen_by_mapping else None)
        config = ConversionConfig(mode="wiser_with_wsd", mapping=mapping, overrides=overrides)
        for concept in ("bow-02", "bow"):
            out = convert_graph(parse_graph(f"(b / {concept} :ARG2 (t / they))"), config)
            assert ("b", ":accompanier", "t") in out.edges, concept

    def test_noncore_relabels(self, wiser_config):
        g = parse_graph("(g / go-02 :ARG0 (p / parade) :source (s / station) "
                        ":destination (q / square) :medium (n / newspaper) "
                        ":beneficiary (c / child))")
        out = convert_graph(g, wiser_config)
        labels = {r for _, r, _ in out.edges}
        assert labels == {":actor", ":start", ":end", ":manner", ":benefactive"}


class TestTrim:
    def test_counts(self, corpus50, fixture_catalog, wiser_config):
        kept, drops = trim_corpus(corpus50, fixture_catalog, wiser_config)
        assert len(corpus50) == 50
        assert len(kept) == 47
        reasons = sorted((d.doc_id, d.reason) for d in drops)
        assert reasons == [("d047", "excluded"), ("d048", "adhoc"), ("d049", "adhoc")]

    def test_excluded_sense_detail_names_sense(self, corpus50, fixture_catalog, wiser_config):
        _, drops = trim_corpus(corpus50, fixture_catalog, wiser_config)
        excluded = [d for d in drops if d.reason == "excluded"]
        assert excluded[0].detail == "publication-91"

    def test_clean_corpus_unchanged(self, fixture_catalog, wiser_config):
        corpus = [parse_graph("# ::id x\n(t / tell-01 :ARG0 (w / woman))")]
        kept, drops = trim_corpus(corpus, fixture_catalog, wiser_config)
        assert kept == corpus
        assert drops == []

    def test_override_covered_senses_kept(self, fixture_catalog, wiser_config):
        corpus = [parse_graph("(h / have-rel-role-91 :ARG0 (s / she) :ARG1 (i / i))")]
        kept, _ = trim_corpus(corpus, fixture_catalog, wiser_config)
        assert len(kept) == 1


class TestConvertCorpus:
    def test_golden_bytes(self, corpus50, fixture_catalog, wiser_config, data_dir):
        out, report = convert_corpus(corpus50, fixture_catalog, wiser_config)
        golden = (data_dir / "golden" / "corpus50_wiser.txt").read_text(encoding="utf-8")
        assert corpus_text(out) == golden
        golden_report = (data_dir / "golden" / "corpus50_wiser_report.txt").read_text(encoding="utf-8")
        assert report.to_text() == golden_report

    def test_report_identities(self, corpus50, fixture_catalog, wiser_config):
        out, report = convert_corpus(corpus50, fixture_catalog, wiser_config)
        assert report.sentences_in == 50
        assert report.sentences_out == len(out) == 47
        dropped = report.dropped_adhoc + report.dropped_excluded + report.dropped_unmapped
        assert report.sentences_out + dropped == report.sentences_in
        assert report.distribution_total <= report.relabeled_edges

    def test_distribution_matches_edge_diff(self, corpus50, fixture_catalog, wiser_config):
        kept, _ = trim_corpus(corpus50, fixture_catalog, wiser_config)
        out, report = convert_corpus(corpus50, fixture_catalog, wiser_config)
        numbered_relabels = 0
        noncore_relabels = 0
        for before, after in zip(kept, out):
            for (s1, r1, t1), (s2, r2, t2) in zip(before.edges, after.edges):
                assert (s1, t1) == (s2, t2)
                if r1 != r2:
                    if r1.lstrip(":").startswith("ARG"):
                        numbered_relabels += 1
                    else:
                        noncore_relabels += 1
        assert report.distribution_total == numbered_relabels
        assert report.relabeled_edges == numbered_relabels + noncore_relabels

    def test_purity(self, corpus50, fixture_catalog, wiser_config):
        out, report = convert_corpus(corpus50, fixture_catalog, wiser_config)
        assert report.flags == ()
        text = corpus_text(out)
        assert ":ARG" not in text
        for g in out:
            for _, concept in g.instances:
                assert split_sense(concept)[1] is None, concept

    def test_empty_corpus(self, fixture_catalog, wiser_config):
        out, report = convert_corpus([], fixture_catalog, wiser_config)
        assert out == []
        assert report.sentences_in == report.sentences_out == 0
        assert report.role_distribution == ()

    def test_idempotent_on_converted_corpus(self, corpus50, fixture_catalog, wiser_config):
        once, _ = convert_corpus(corpus50, fixture_catalog, wiser_config)
        twice, report = convert_corpus(once, fixture_catalog, wiser_config)
        assert corpus_text(twice) == corpus_text(once)
        assert report.relabeled_edges == 0
        assert report.stripped_concepts == 0

    def test_mode_algebra(self, corpus50, fixture_catalog, fixture_mapping):
        def run(corpus, mode):
            out, _ = convert_corpus(corpus, fixture_catalog, config_for(mode, fixture_mapping))
            return out

        def canonical(corpus):
            return "\n\n".join(
                "\n".join(f"# ::{k} {v}".rstrip() for k, v in g.meta)
                + "\n" + canonical_serialize(g)
                for g in corpus
            )

        direct = run(corpus50, "wiser")
        strip_after_relabel = run(run(corpus50, "wiser_with_wsd"), "numbered_no_wsd")
        relabel_after_strip = run(run(corpus50, "numbered_no_wsd"), "wiser_with_wsd")
        assert canonical(direct) == canonical(strip_after_relabel)
        assert canonical(direct) == canonical(relabel_after_strip)

    def test_unmapped_drop_policy_logs_document(self, fixture_catalog, fixture_mapping):
        config = ConversionConfig(mode="wiser", mapping=fixture_mapping,
                                  overrides=REIFIED_OVERRIDES, on_unmapped="drop_sentence")
        corpus = [
            parse_graph("# ::id keep\n(t / tell-01 :ARG0 (w / woman))"),
            parse_graph("# ::id gone\n(b / bow-02 :ARG2 (t / they))"),
        ]
        out, report = convert_corpus(corpus, fixture_catalog, config)
        assert [g.metadata["id"] for g in out] == ["keep"]
        assert report.dropped_unmapped == 1
        assert report.drops[-1].doc_id == "gone"

    @pytest.mark.parametrize("on_unmapped", ["keep_numbered_and_flag", "drop_sentence"])
    def test_events_name_input_position(self, fixture_catalog, fixture_mapping, on_unmapped):
        config = ConversionConfig(mode="wiser", mapping=fixture_mapping,
                                  overrides=REIFIED_OVERRIDES, on_unmapped=on_unmapped)
        corpus = [
            parse_graph("(b / byline-91)"),
            parse_graph("(b / boy)"),
            parse_graph("(b / bow-02 :ARG2 (t / they))"),
        ]
        _, report = convert_corpus(corpus, fixture_catalog, config)
        events = report.drops if on_unmapped == "drop_sentence" else report.drops + report.flags
        assert [e.doc_id for e in events] == ["doc1", "doc3"]


class TestRelabelCollision:
    def test_colliding_edges_keep_input_labels(self, fixture_catalog, wiser_config):
        corpus = [parse_graph(COLLIDING), parse_graph("# ::id y\n(c / cat)")]
        out, report = convert_corpus(corpus, fixture_catalog, wiser_config)
        assert [g.metadata["id"] for g in out] == ["x", "y"]
        assert out[0].edges == (("t", ":actor", "b"), ("t", ":ARG2", "g"), ("t", ":beneficiary", "g"))
        assert [(f.doc_id, f.detail) for f in report.flags] == [
            ("x", "tell-01 :ARG2 collides with :benefactive"),
            ("x", "tell-01 :beneficiary collides with :benefactive"),
        ]
        assert report.relabeled_edges == 1
        assert report.role_distribution == (("actor", 0, 1),)

    def test_relabel_onto_unchanged_edge_flags_once(self, fixture_catalog, wiser_config):
        corpus = [parse_graph("(t / tell-01 :ARG2 (g / girl) :benefactive g)")]
        out, report = convert_corpus(corpus, fixture_catalog, wiser_config)
        assert out[0].edges == (("t", ":ARG2", "g"), ("t", ":benefactive", "g"))
        assert [f.detail for f in report.flags] == ["tell-01 :ARG2 collides with :benefactive"]
        assert report.relabeled_edges == 0
        assert report.role_distribution == ()

    def test_relabel_onto_inverse_form_is_flagged(self, fixture_catalog, wiser_config):
        # :ARG2 becomes :benefactive and :beneficiary-of becomes
        # :benefactive-of: one fact once inverse edges are flipped.
        g = parse_graph("(t / tell-01 :ARG2 (g / girl :beneficiary-of t))")
        out, report = convert_corpus([g], fixture_catalog, wiser_config)
        assert out[0].edges == g.edges
        assert [f.detail for f in report.flags] == [
            "tell-01 :ARG2 collides with :benefactive",
            "girl :beneficiary-of collides with :benefactive-of",
        ]
        assert len(canonical_triples(out[0])) == len(canonical_triples(g)) == 5

    def test_same_fact_in_both_directions_is_not_a_collision(self, fixture_catalog, wiser_config):
        g = parse_graph("(t / tell-01 :ARG2 (g / girl :ARG2-of t))")
        out, report = convert_corpus([g], fixture_catalog, wiser_config)
        assert out[0].edges == (("t", ":benefactive", "g"), ("g", ":benefactive-of", "t"))
        assert report.flags == ()

    def test_drop_policy_drops_document(self, fixture_catalog, fixture_mapping):
        config = ConversionConfig(mode="wiser", mapping=fixture_mapping,
                                  overrides=REIFIED_OVERRIDES, on_unmapped="drop_sentence")
        corpus = [parse_graph(COLLIDING), parse_graph("# ::id y\n(c / cat)")]
        out, report = convert_corpus(corpus, fixture_catalog, config)
        assert [g.metadata["id"] for g in out] == ["y"]
        assert report.drops == (DropEvent("x", "unmapped", "tell-01 :ARG2 collides with :benefactive"),)
        assert report.relabeled_edges == 0


class TestSplit:
    def test_partition(self, corpus50, data_dir):
        spec = {name: read_id_list(data_dir / "splits" / f"{name}.ids")
                for name in ("trn", "dev", "tst")}
        parts = split_corpus(corpus50, spec)
        assert [len(parts[n]) for n in ("trn", "dev", "tst")] == [40, 5, 5]
        union = [g.metadata["id"] for part in parts.values() for g in part]
        assert sorted(union) == sorted(g.metadata["id"] for g in corpus50)

    def test_overlapping_spec_rejected(self, corpus50):
        ids = [g.metadata["id"] for g in corpus50]
        with pytest.raises(SplitError, match="d001"):
            split_corpus(corpus50, {"a": ids, "b": ["d001"]})

    def test_id_absent_from_corpus_rejected(self, corpus50):
        ids = [g.metadata["id"] for g in corpus50]
        with pytest.raises(SplitError, match="ghost"):
            split_corpus(corpus50, {"a": ids + ["ghost"]})

    def test_unassigned_document_rejected(self, corpus50):
        ids = [g.metadata["id"] for g in corpus50][:-1]
        with pytest.raises(SplitError, match="d050"):
            split_corpus(corpus50, {"a": ids})

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import random_graph, random_pair
from wiser import metrics
from wiser.codec import parse_graph, read_corpus
from wiser.convert import ConversionConfig, convert_graph
from wiser.graph import SemGraph, extract_triples, flip_inverses, normalize
from wiser.metrics import (
    DEFAULT_METRICS,
    METRIC_NAMES,
    IaaBatch,
    ScoreEntry,
    combine_entries,
    concept_vocabulary,
    corpus_stats,
    fine_grained,
    iaa_batch_score,
    iaa_report,
    novel_predicate_recall,
    pair_by_id,
    score_corpus,
    score_triples,
    smatch,
    smatch_exact,
    transform_triples,
    xsrl_role_set,
)


def damage_one_edge(g: SemGraph, index: int = 0, label: str = ":zzz99") -> SemGraph:
    edges = list(g.edges)
    s, _, t = edges[index]
    edges[index] = (s, label, t)
    return dataclasses.replace(g, edges=tuple(edges))


class TestSmatch:
    def test_identical_graphs(self, figure_pair):
        for g in figure_pair:
            entry, _ = smatch(g, g)
            assert entry.f1 == 1.0
            assert entry.precision == entry.recall == 1.0

    def test_disjoint_singletons(self):
        entry, _ = smatch(parse_graph("(a / cat)"), parse_graph("(b / dog)"))
        assert entry.matched == 0
        assert entry.f1 == 0.0

    def test_one_damaged_edge_is_17_of_18(self, figure_pair):
        numbered, _ = figure_pair
        damaged = damage_one_edge(numbered, index=7, label=":ARG3")
        assert (numbered.edges[7][1], damaged.edges[7][1]) == (":ARG2", ":ARG3")
        entry, _ = smatch(damaged, numbered)
        assert entry.matched == 17
        assert entry.total_pred == entry.total_gold == 18
        assert entry.f1 == pytest.approx(17 / 18)
        exact_entry, _ = smatch_exact(damaged, numbered)
        assert exact_entry.matched == 17

    def test_alignment_is_injective(self, figure_pair):
        numbered, thematic = figure_pair
        _, alignment = smatch(numbered, thematic)
        images = [b for _, b in alignment.mapping]
        assert len(images) == len(set(images))

    def test_deterministic_across_runs(self):
        rng = random.Random(3)
        a, b = random_pair(rng, max_vars=6)
        first = smatch(a, b, restarts=5, seed=11)
        for _ in range(3):
            again = smatch(a, b, restarts=5, seed=11)
            assert again == first

    def test_precision_recall_swap(self):
        rng = random.Random(5)
        for _ in range(25):
            a, b = random_pair(rng, max_vars=5)
            ab, _ = smatch_exact(a, b)
            ba, _ = smatch_exact(b, a)
            assert ab.precision == pytest.approx(ba.recall)
            assert ab.recall == pytest.approx(ba.precision)

    def test_self_score_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, max_vars=8)
            entry, _ = smatch(g, g)
            assert entry.f1 == 1.0

    def test_monotone_damage(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, max_vars=5)
            if not g.edges:
                continue
            base, _ = smatch_exact(g, g)
            worse, _ = smatch_exact(damage_one_edge(g), g)
            assert worse.matched <= base.matched
            assert worse.f1 <= base.f1


class TestExactOracle:
    def test_bound_refusal(self):
        rng = random.Random(1)
        big = random_graph(rng, max_vars=12)
        while len(big.instances) <= 8:
            big = random_graph(rng, max_vars=12)
        with pytest.raises(ValueError, match="variables"):
            smatch_exact(big, big, max_vars=8)

    def test_oracle_never_below_hill_climbing(self):
        rng = random.Random(42)
        equal = 0
        total = 200
        for i in range(total):
            a, b = random_pair(rng, max_vars=6)
            hill, _ = smatch(a, b, restarts=5, seed=i)
            exact, _ = smatch_exact(a, b)
            assert hill.matched <= exact.matched
            if hill.matched == exact.matched:
                equal += 1
        assert equal / total >= 0.98


def _views(triples_a, triples_b):
    return metrics._View.from_triples(triples_a), metrics._View.from_triples(triples_b)


def _with_loops(g: SemGraph, rng: random.Random) -> SemGraph:
    """``g`` plus up to two self-loops and a back edge, so relations from a
    variable to itself and directed cycles are searched too."""
    variables = [v for v, _ in g.instances]
    edges = list(g.edges)
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(variables)
        edges.append((v, rng.choice((":ARG0", ":mod")), v))
    if len(variables) > 1 and rng.random() < 0.5:
        edges.append((variables[-1], ":ARG1", variables[0]))
    return dataclasses.replace(g, edges=tuple(dict.fromkeys(edges)))


def _random_mapping(view_a, view_b, rng: random.Random) -> dict[str, str]:
    images = list(view_b.variables) + [None] * len(view_a.variables)
    rng.shuffle(images)
    return {a: b for a, b in zip(view_a.variables, images) if b is not None}


class TestDeltaScoring:
    """The search scores each move by the change it makes; every such delta
    must equal the exhaustive recount of ``_match_count`` (the oracle)."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_every_move_delta_equals_recount(self, seed):
        rng = random.Random(f"delta-oracle:{seed}")
        a, b = random_pair(rng, 9)
        view_a, view_b = _views(*(metrics._prepare(_with_loops(g, rng)) for g in (a, b)))
        index = metrics._PairIndex(view_a, view_b)
        climb = metrics._Climb(index, _random_mapping(view_a, view_b, rng))
        vars_a, vars_b = view_a.variables, view_b.variables
        for _ in range(3):  # the state after applied moves must stay exact too
            mapping = climb.mapping()
            before = metrics._match_count(view_a, view_b, mapping)
            assert climb.score == before
            for i, va in enumerate(vars_a):
                for j, vb in enumerate(vars_b):
                    if vb not in mapping.values():
                        after = metrics._match_count(view_a, view_b, {**mapping, va: vb})
                        assert climb.reassign_gain(i, j) == after - before
                for k in range(i + 1, len(vars_a)):
                    vk = vars_a[k]
                    if va in mapping or vk in mapping:
                        swapped = {x: y for x, y in mapping.items() if x not in (va, vk)}
                        swapped.update({x: mapping[y] for x, y in ((va, vk), (vk, va)) if y in mapping})
                        after = metrics._match_count(view_a, view_b, swapped)
                        assert climb.swap_gain(i, k) == after - before
            move = climb.best_move()
            if move is None:
                break
            climb.apply(*move)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_climb_score_equals_recount(self, seed):
        rng = random.Random(f"climb-oracle:{seed}")
        a, b = random_pair(rng, 10)
        view_a, view_b = _views(*(metrics._prepare(_with_loops(g, rng)) for g in (a, b)))
        index = metrics._PairIndex(view_a, view_b)
        bound = metrics._label_bound(view_a, view_b)
        for start in (metrics._seeded_start(view_a, view_b), _random_mapping(view_a, view_b, rng)):
            climb = metrics._Climb(index, start)
            # Every step must raise the count, which cannot pass the bound,
            # so a climb that takes more steps than that never ends.
            for _ in range(bound + 1):
                move = climb.best_move()
                if move is None:
                    break
                assert move[0] > 0
                climb.apply(*move)
            assert move is None, "the climb did not end"
            mapping, score = metrics._hill_climb(index, start)
            assert (mapping, score) == (climb.mapping(), climb.score)
            assert score == metrics._match_count(view_a, view_b, mapping)
            assert metrics._match_count(view_a, view_b, start) <= score <= bound
            assert len(set(mapping.values())) == len(mapping)

    # Hill climbing is not certain to find the optimum, so this property
    # runs on a fixed set of examples rather than new ones each run.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 10**9))
    def test_renamed_copy_scores_one(self, seed):
        rng = random.Random(f"renamed-copy:{seed}")
        g = random_graph(rng, 12)
        names = [f"w{i}" for i in range(len(g.instances))]
        rng.shuffle(names)
        new = dict(zip((v for v, _ in g.instances), names))
        renamed = SemGraph.build(
            new[g.root], [(new[v], c) for v, c in g.instances],
            [(new[s], r, new[t]) for s, r, t in g.edges],
            [(new[s], r, v) for s, r, v in g.attributes],
        )
        assert smatch(renamed, g, 5, seed)[0].f1 == 1.0


class TestEarlyStop:
    """``_align`` stops once a climb reaches the label-bag bound, which no
    mapping can exceed; the alignment must equal the one every restart gives."""

    def test_bound_stop_changes_nothing(self, corpus50, data_dir, monkeypatch):
        pred, gold = pair_by_id(read_corpus(data_dir / "corpus50_damaged.txt"), corpus50)
        views = [
            _views(transform_triples(metrics._prepare(p), m), transform_triples(metrics._prepare(g), m))
            for p, g in zip(pred, gold) for m in METRIC_NAMES if m not in metrics._BAGS
        ]
        climbs = []
        climb, bound_of = metrics._hill_climb, metrics._label_bound

        def counted(*args):
            climbs[-1] += 1
            return climb(*args)

        monkeypatch.setattr(metrics, "_hill_climb", counted)
        stopped_early = []
        for restarts in range(1, 6):
            runs = {}
            for bound in (True, False):
                # A bound no count equals turns the early stop off.
                monkeypatch.setattr(metrics, "_label_bound", bound_of if bound else lambda *views: -1)
                alignments = []
                for i, (va, vb) in enumerate(views):
                    climbs.append(0)
                    alignments.append(metrics._align(va, vb, restarts, i))
                runs[bound] = alignments, climbs[-len(views):]
            assert runs[True][0] == runs[False][0]
            assert runs[False][1] == [restarts] * len(views)
            stopped_early.append(sum(n < restarts for n in runs[True][1]))
        # Of the 300 searches (50 pairs, 6 alignment metrics), those that
        # skip at least one restart.
        assert stopped_early == [0, 240, 285, 292, 297]


class TestGoldenMappings:
    """``smatch`` mappings and counts, locked in ``golden/smatch_mappings.tsv``:
    50 seeded random pairs, and three synthetic long pairs (15, 20 and 25
    gold variables, prediction first in each file) under two seeds."""

    def test_mappings_match_golden(self, data_dir):
        lines = []
        rng = random.Random("golden-mappings")
        cases = [(f"random-{i}", i, random_pair(rng, 10)) for i in range(50)]
        for n in (15, 20, 25):
            pair = read_corpus(data_dir / f"long_pair_{n}.txt")
            cases += [(f"long-{n}", seed, pair) for seed in (0, 1)]
        for name, seed, (a, b) in cases:
            alignment = smatch(a, b, 5, seed)[1]
            mapping = " ".join(f"{x}>{y}" for x, y in alignment.mapping)
            lines.append(f"{name}\t{seed}\t{alignment.matched}\t{mapping}")
        golden = (data_dir / "golden" / "smatch_mappings.tsv").read_text(encoding="utf-8")
        assert lines == golden.splitlines()[1:]


class TestFineGrained:
    def test_unknown_metric(self, figure_pair):
        with pytest.raises(ValueError, match="unknown metric"):
            fine_grained(*figure_pair, metric="bogus")

    def test_all_metrics_perfect_on_self(self, corpus50):
        g = corpus50[6]  # has a name subgraph
        for metric in DEFAULT_METRICS:
            entry = fine_grained(g, g, metric)
            if entry.total_gold:
                assert entry.f1 == 1.0, metric

    def test_unlabeled_ignores_relation_labels(self, figure_pair):
        numbered, _ = figure_pair
        damaged = damage_one_edge(numbered, index=3)
        assert fine_grained(damaged, numbered, "unlabeled").f1 == 1.0
        assert fine_grained(damaged, numbered, "smatch").f1 < 1.0

    def test_no_wsd_equals_smatch_on_stripped_graphs(self, corpus50, fixture_mapping):
        strip = ConversionConfig(mode="numbered_no_wsd", mapping=fixture_mapping)
        rng = random.Random(21)
        for _ in range(20):
            a, b = random_pair(rng, max_vars=6)
            via_metric = fine_grained(a, b, "no_wsd", seed=7)
            via_strip, _ = smatch(convert_graph(a, strip), convert_graph(b, strip), seed=7)
            assert (via_metric.matched, via_metric.total_pred, via_metric.total_gold) == \
                (via_strip.matched, via_strip.total_pred, via_strip.total_gold)

    def test_no_wsd_equals_smatch_on_senseless_pair(self, figure_pair):
        _, thematic = figure_pair
        damaged = damage_one_edge(thematic, index=2)
        no_wsd = fine_grained(damaged, thematic, "no_wsd")
        plain = fine_grained(damaged, thematic, "smatch")
        assert (no_wsd.matched, no_wsd.total_pred, no_wsd.total_gold) == \
            (plain.matched, plain.total_pred, plain.total_gold)

    def test_concepts_is_bag_f1(self):
        a = parse_graph("(c / cat :mod (b / big))")
        b = parse_graph("(c / cat :mod (s / small))")
        entry = fine_grained(a, b, "concepts")
        assert entry.matched == 1
        assert entry.total_pred == entry.total_gold == 2
        assert entry.f1 == pytest.approx(0.5)

    def test_srl_restriction(self):
        a = parse_graph("(t / tell-01 :ARG0 (w / woman) :time (n / now))")
        b = parse_graph("(t / tell-01 :ARG0 (w / woman) :time (l / later))")
        assert fine_grained(a, b, "srl").f1 == 1.0

    def test_xsrl_ignores_time_difference(self):
        a = parse_graph("(t / tell :actor (w / woman) :time (n / now))")
        b = parse_graph("(t / tell :actor (w / woman) :time (l / later))")
        assert fine_grained(a, b, "xsrl", scheme="wiser").f1 == 1.0

    def test_xsrl_counts_inverse_forms(self):
        a = parse_graph("(b / boy :actor-of (s / sing))")
        b = parse_graph("(b / boy :actor-of (s / sing))")
        entry = fine_grained(a, b, "xsrl", scheme="wiser")
        assert entry.total_gold == 1
        assert entry.f1 == 1.0

    def test_xsrl_amr_scheme(self):
        gold = parse_graph("(g / go-02 :ARG0 (b / boy) :source (h / home))")
        pred = parse_graph("(g / go-02 :ARG0 (b / boy) :topic (h / home))")
        entry = fine_grained(pred, gold, "xsrl", scheme="amr")
        assert entry.total_gold == entry.total_pred == 2
        assert entry.matched == 1
        # the same pair under a restriction that excludes :source and :topic
        assert fine_grained(pred, gold, "srl").f1 == 1.0

    def test_reentrancies_focus(self, figure_pair):
        numbered, _ = figure_pair
        entry = fine_grained(numbered, numbered, "reentrancies")
        # w has in-degree 3: three reentrant edges plus w/t/s/d instances
        assert entry.total_gold == 7
        assert entry.f1 == 1.0

    def test_negations(self):
        a = parse_graph("(g / go :actor (b / boy) :polarity -)")
        b = parse_graph("(g / go :actor (b / boy) :polarity -)")
        assert fine_grained(a, b, "negations").matched == 1
        c = parse_graph("(g / go :actor (b / boy))")
        entry = fine_grained(c, b, "negations")
        assert entry.matched == 0 and entry.total_gold == 1

    def test_named_entity_requires_exact_op_sequence(self):
        a = parse_graph('(s / ship :name (n / name :op1 "Queen" :op2 "Mary"))')
        b = parse_graph('(s / ship :name (n / name :op1 "Queen" :op2 "Anne"))')
        assert fine_grained(a, a, "named_entity").f1 == 1.0
        assert fine_grained(a, b, "named_entity").matched == 0

    @pytest.mark.parametrize("metric", ["srl", "xsrl", "reentrancies"])
    def test_restriction_soundness(self, metric, corpus50):
        rng = random.Random(77)
        graphs = [g for g in corpus50 if g.edges][:10]
        for g in graphs:
            other = graphs[rng.randrange(len(graphs))]
            ta = transform_triples(extract_triples(normalize(g)), metric)
            tb = transform_triples(extract_triples(normalize(other)), metric)
            # Deleting out-of-restriction triples and rescoring changes nothing.
            assert sorted(transform_triples(ta, metric)) == sorted(ta)
            direct = fine_grained(g, other, metric, seed=5)
            reduced = score_triples(metric, transform_triples(ta, metric),
                                    transform_triples(tb, metric), seed=5)
            assert (direct.matched, direct.total_pred, direct.total_gold) == \
                (reduced.matched, reduced.total_pred, reduced.total_gold)


class TestRoleSets:
    def test_wiser_set_size(self):
        roles = xsrl_role_set("wiser")
        assert len(roles) == 35
        assert ":actor" in roles and ":theme" in roles and ":consist-of" in roles

    def test_amr_set(self):
        roles = xsrl_role_set("amr")
        assert len(roles) == 15
        assert ":ARG0" in roles and ":source" in roles
        assert ":cause" not in roles

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            xsrl_role_set("upa")


class TestCorpusScoring:
    def test_micro_average_pools_counts(self):
        e1 = ScoreEntry("smatch", 1, 2, 2)
        e2 = ScoreEntry("smatch", 3, 4, 6)
        combined = combine_entries("smatch", [e1, e2])
        assert combined.matched == 4
        assert combined.total_pred == 6
        assert combined.total_gold == 8
        assert combined.precision == pytest.approx(4 / 6)

    @pytest.mark.parametrize("scheme", ["wiser", "amr"])
    def test_entries_equal_fine_grained_with_pair_seed(self, corpus50, scheme):
        rng = random.Random(4)
        labels = (":ARG3", ":mod", ":zzz99")
        pred = [
            damage_one_edge(g, rng.randrange(len(g.edges)), rng.choice(labels)) if g.edges else g
            for g in corpus50
        ]
        _, per_doc = score_corpus(pred, corpus50, metrics=METRIC_NAMES, scheme=scheme)
        for i, (p, g) in enumerate(zip(pred, corpus50)):
            for m in METRIC_NAMES:
                assert per_doc[i][m] == fine_grained(p, g, m, scheme=scheme, seed=i), (i, m)

    def test_each_pair_normalized_once(self, corpus50, monkeypatch):
        calls = []

        def counting_flip(g):
            calls.append(g)
            return flip_inverses(g)

        monkeypatch.setattr(metrics, "flip_inverses", counting_flip)
        docs = corpus50[:5]
        for names in (("smatch",), METRIC_NAMES):
            calls.clear()
            score_corpus(docs, docs, metrics=names)
            assert len(calls) == 2 * len(docs)

    def test_pair_by_id(self, corpus50):
        docs = corpus50[:4]
        pred, gold = pair_by_id(docs[::-1], docs)
        assert pred == gold == list(docs)
        with pytest.raises(ValueError, match="unexpected in predicted: d005"):
            pair_by_id(corpus50[1:5], docs)
        with pytest.raises(ValueError, match="duplicate document ids in gold"):
            pair_by_id(docs, docs[:3] + docs[:1])
        unnamed = [g.with_metadata({}) for g in docs]
        assert pair_by_id(unnamed, docs) == (unnamed, list(docs))

    def test_unknown_metric(self, corpus50):
        with pytest.raises(ValueError, match="unknown metric"):
            score_corpus(corpus50[:1], corpus50[:1], metrics=("smatch", "bogus"))

    def test_size_mismatch(self, corpus50):
        with pytest.raises(ValueError, match="mismatch"):
            score_corpus(corpus50[:2], corpus50[:3])

    def test_directed_cycle_scores_and_counts(self):
        g = parse_graph("(a / x :ARG0 (b / y :ARG1 a))")
        assert smatch(g, g)[0].f1 == 1.0
        scored = [fine_grained(g, g, m) for m in DEFAULT_METRICS]
        assert [e.metric for e in scored if e.total_gold] == ["smatch", "unlabeled", "no_wsd",
                                                             "concepts"]
        assert all(e.f1 == 1.0 for e in scored if e.total_gold)
        row = corpus_stats([g]).total
        assert (row.sentences, row.concepts, row.relations, row.reentrancies) == (1, 2, 2, 0)


class TestNovelRecall:
    def make_corpora(self):
        train = [parse_graph(f"# ::id t{i}\n(a / alpha :mod (b / beta))") for i in range(3)]
        gold, pred = [], []
        for i in range(10):
            planted = f"nova{i}" if i < 4 else "alpha"
            gold.append(parse_graph(f"# ::id g{i}\n(a / alpha :mod (n / {planted}))"))
            predicted = planted if i < 2 else "alpha"
            pred.append(parse_graph(f"# ::id g{i}\n(a / alpha :mod (n / {predicted}))"))
        return train, gold, pred

    def test_planted_novelty_recall(self):
        train, gold, pred = self.make_corpora()
        vocab = concept_vocabulary(train)
        report = novel_predicate_recall(gold, pred, vocab)
        assert report.total == 4
        assert report.found == 2
        assert report.recall == pytest.approx(0.5)

    def test_no_novelty_reports_none(self):
        train, gold, _ = self.make_corpora()
        report = novel_predicate_recall(train, train, concept_vocabulary(train))
        assert report.total == 0
        assert report.recall is None

    def test_perfect_prediction(self):
        train, gold, _ = self.make_corpora()
        report = novel_predicate_recall(gold, gold, concept_vocabulary(train))
        assert report.recall == 1.0

    def test_cross_scheme_filter(self):
        train = [parse_graph("(m / move)")]
        gold = [parse_graph("(m / move-04 :ARG1 (r / rock))")]
        vocab = frozenset({"rock"})
        unfiltered = novel_predicate_recall(gold, gold, vocab)
        assert "move-04" in unfiltered.novel_concepts
        filtered = novel_predicate_recall(gold, gold, vocab,
                                          filter_vocab=concept_vocabulary(train))
        assert "move-04" not in filtered.novel_concepts


class TestIaa:
    BEGINNER_A = [0.72, 0.72, 0.68, 0.69, 0.77, 0.72]
    BEGINNER_B = [0.74, 0.75, 0.70, 0.79, 0.79, 0.76]

    def test_macro_average_per_group(self):
        batches = [IaaBatch("a", f"{i:02d}", s) for i, s in enumerate(self.BEGINNER_A, 1)]
        batches += [IaaBatch("b", f"{i:02d}", s) for i, s in enumerate(self.BEGINNER_B, 1)]
        report = iaa_report(batches)
        assert report.macro_averages["a"] == pytest.approx(0.72, abs=0.005 + 1e-9)
        assert report.macro_averages["b"] == pytest.approx(0.76, abs=0.005 + 1e-9)

    def test_single_batch_macro_is_itself(self):
        report = iaa_report([IaaBatch("x", "01", 0.9)])
        assert report.macro_averages == {"x": 0.9}

    def test_batch_score_from_parallel_corpora(self, corpus50):
        docs = corpus50[:5]
        assert iaa_batch_score(docs, docs) == 1.0

    def test_batch_score_pools_pair_seeded_smatch(self, corpus50):
        rng = random.Random(11)
        damaged = [damage_one_edge(g, rng.randrange(len(g.edges)), ":zzz99") if g.edges else g
                   for g in corpus50]
        # Small-vocabulary random pairs, where the restart seed changes the score.
        hard = [random_pair(rng, max_vars=10) for _ in range(30)]
        cases = [(damaged, corpus50, 5), ([a for a, _ in hard], [b for _, b in hard], 2)]
        for pred, gold, restarts in cases:
            for s in (0, 3):
                entries = [smatch(p, g, restarts=restarts, seed=s + i)[0]
                           for i, (p, g) in enumerate(zip(pred, gold))]
                expected = combine_entries("smatch", entries).f1
                assert expected < 1.0
                assert iaa_batch_score(pred, gold, restarts=restarts, seed=s) == expected

    def test_batch_size_mismatch(self, corpus50):
        with pytest.raises(ValueError, match="mismatch"):
            iaa_batch_score(corpus50[:3], corpus50[:4])


class TestCorpusStats:
    def test_single_figure_sentence(self, figure_pair):
        numbered, _ = figure_pair
        report = corpus_stats([numbered])
        row = report.total
        assert row.sentences == 1
        assert row.concepts == 8
        assert row.relations == 9
        assert row.reentrancies == 2
        assert row.negations == 0
        assert row.named_entities == 0
        assert row.tokens == len(numbered.metadata["snt"].split())

    def test_empty_corpus(self):
        report = corpus_stats([])
        assert report.total.sentences == 0
        assert report.total.concepts == 0

    def test_missing_snt_warns(self):
        report = corpus_stats([parse_graph("(c / cat)")])
        assert report.total.tokens == 0
        assert report.warnings

    def test_against_brute_force_tally(self, corpus50):
        report = corpus_stats(corpus50, source_key="src")
        expected_concepts = expected_relations = expected_reent = 0
        expected_neg = expected_ne = 0
        for g in corpus50:
            triples = extract_triples(normalize(g))
            expected_concepts += sum(1 for t in triples if t.kind == "instance")
            expected_relations += sum(1 for t in triples if t.kind in ("relation", "attribute"))
            targets = [t.target for t in triples if t.kind == "relation"]
            expected_reent += sum(max(0, targets.count(v) - 1) for v in set(targets))
            expected_neg += sum(1 for t in triples
                                if t.kind == "attribute" and t.label == ":polarity" and t.target == "-")
            expected_ne += sum(1 for t in triples if t.kind == "relation" and t.label == ":name")
        assert report.total.concepts == expected_concepts
        assert report.total.relations == expected_relations
        assert report.total.reentrancies == expected_reent
        assert report.total.negations == expected_neg
        assert report.total.named_entities == expected_ne

    def test_per_source_rows_sum_to_total(self, corpus50):
        report = corpus_stats(corpus50, source_key="src")
        assert {r.source for r in report.rows} == {"chat", "forum", "news"}
        for field in ("sentences", "tokens", "concepts", "relations",
                      "reentrancies", "negations", "named_entities"):
            assert sum(getattr(r, field) for r in report.rows) == getattr(report.total, field)

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import random_graph
from wiser.codec import (
    ParseError,
    corpus_text,
    parse_graph,
    read_corpus,
    read_corpus_text,
    serialize_graph,
)
from wiser.graph import (
    MARKER_CONSTANTS,
    GraphError,
    SemGraph,
    Triple,
    canonical_triples,
    extract_triples,
    invert_role,
    normalize,
)


def roundtrip(g: SemGraph) -> SemGraph:
    return parse_graph(serialize_graph(g))


def reentrant_variables(g: SemGraph) -> tuple[str, ...]:
    """Variables with more than one incoming edge, in instance order."""
    targets = Counter(t for _, _, t in g.edges)
    return tuple(v for v, _ in g.instances if targets[v] > 1)


def rename_variable(g: SemGraph, old: str, new: str) -> SemGraph:
    def r(v: str) -> str:
        return new if v == old else v

    return SemGraph.build(
        r(g.root), [(r(v), c) for v, c in g.instances],
        [(r(s), role, r(t)) for s, role, t in g.edges],
        [(r(s), role, value) for s, role, value in g.attributes],
    )


class TestParse:
    def test_minimal(self):
        g = parse_graph("(c / cat)")
        assert g.root == "c"
        assert g.instances == (("c", "cat"),)
        assert g.edges == ()
        assert g.attributes == ()

    def test_figure_graph_shape(self, figure_pair):
        numbered, thematic = figure_pair
        assert len(numbered.instances) == 8
        assert len(numbered.edges) == 9
        assert len(numbered.attributes) == 0
        assert sum(t == "w" for _, _, t in numbered.edges) == 3
        assert len(thematic.instances) == 8
        assert len(thematic.edges) == 9

    def test_polarity_attribute(self):
        g = parse_graph("(g / go :polarity -)")
        assert g.instances == (("g", "go"),)
        assert g.attributes == (("g", ":polarity", "-"),)

    def test_reentrancy_not_new_instance(self):
        g = parse_graph("(w / want :actor (b / boy) :theme (g / go :actor b))")
        assert len(g.instances) == 3
        assert ("g", ":actor", "b") in g.edges

    def test_quoted_and_numeric_constants(self):
        g = parse_graph('(s / ship :name (n / name :op1 "Queen Mary") :quant 2)')
        assert ("n", ":op1", "Queen Mary") in g.attributes
        assert ("s", ":quant", "2") in g.attributes

    def test_marker_constant(self):
        g = parse_graph("(e / eat :mode interrogative)")
        assert ("e", ":mode", "interrogative") in g.attributes

    def test_metadata_lines(self):
        g = parse_graph("# ::id x1\n# ::snt A cat.\n(c / cat)")
        assert g.metadata == {"id": "x1", "snt": "A cat."}

    def test_unknown_metadata_key_preserved(self):
        g = parse_graph("# ::flavor mint\n(c / cat)")
        assert g.metadata["flavor"] == "mint"

    def test_multiple_keys_on_one_line(self):
        g = parse_graph("# ::id x1 ::date 2020-05-21\n# ::snt A cat.\n(c / cat)")
        assert g.metadata == {"id": "x1", "date": "2020-05-21", "snt": "A cat."}

    @pytest.mark.parametrize("text,fragment", [
        ("(c / cat", "unbalanced"),
        ("(c / cat))", "unbalanced"),
        ("(c / cat :actor (c / dog))", "conflicting concept"),
        ("(c / cat actor (d / dog))", "must start with ':'"),
        ("(c / cat :actor dog)", "dangling variable reference"),
        ('(a / x :wiki "abc)', "unterminated string (line 1, column 14)"),
        ("(a / x :ARG0 )", "role without a target (line 1, column 8)"),
        ("(a / x :ARG0 ))", "role without a target (line 1, column 8)"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("(c / cat\n    :actor dog)")
        assert exc.value.line == 2
        assert exc.value.col == 12

    def test_redefinition_with_same_concept_is_reentrant(self):
        g = parse_graph("(a / x :rel (a / x))")
        assert len(g.instances) == 1
        assert g.edges == (("a", ":rel", "a"),)


class TestSerialize:
    def test_minimal(self):
        assert serialize_graph(parse_graph("(c / cat)")) == "(c / cat)"

    def test_single_concept_per_variable(self, figure_pair):
        numbered, _ = figure_pair
        text = serialize_graph(numbered)
        assert text.count("/") == len(numbered.instances)
        assert text.count("(") == text.count(")")

    def test_roundtrip_figure(self, figure_pair):
        for g in figure_pair:
            assert canonical_triples(roundtrip(g)) == canonical_triples(g)

    def test_roundtrip_appendix(self, appendix_corpus):
        assert len(appendix_corpus) == 18
        for g in appendix_corpus:
            back = roundtrip(g)
            assert frozenset(extract_triples(back)) == frozenset(extract_triples(g))
            assert reentrant_variables(back) == reentrant_variables(g)

    def test_quoted_value_escapes(self):
        g = parse_graph(r'(a / x :wiki "say \"hi\"" :op1 "C:\\dir")')
        assert g.attributes == (("a", ":wiki", 'say "hi"'), ("a", ":op1", "C:\\dir"))
        assert serialize_graph(g) == '(a / x\n    :wiki "say \\"hi\\""\n    :op1 "C:\\\\dir")'

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters(exclude_characters="\n\r"), min_size=1))
    def test_roundtrip_any_attribute_value(self, value):
        # The corpus format is line-based, so values never hold line breaks.
        g = SemGraph.build("a", [("a", "x")], [], [("a", ":wiki", value)])
        assert roundtrip(g).attributes == g.attributes

    def test_roundtrip_random(self):
        rng = random.Random(20240817)
        for _ in range(300):
            g = random_graph(rng, max_vars=12)
            back = roundtrip(g)
            assert canonical_triples(back) == canonical_triples(g)
            assert len(reentrant_variables(back)) == len(reentrant_variables(g))
            # A variable named like a marker constant must not capture that constant.
            for marker in sorted(MARKER_CONSTANTS):
                renamed = rename_variable(g, "v0", marker)
                assert canonical_triples(roundtrip(renamed)) == canonical_triples(renamed)

    def test_backward_only_node_rendered_inverse(self):
        g = SemGraph.build(
            "a", [("a", "x"), ("b", "y")], [("b", ":actor", "a")],
        )
        text = serialize_graph(g)
        assert ":actor-of" in text
        assert canonical_triples(parse_graph(text)) == canonical_triples(g)

    def test_alpha_constant_quoted(self):
        g = SemGraph.build("a", [("a", "x")], [], [("a", ":value", "w")])
        assert ':value "w"' in serialize_graph(g)
        assert canonical_triples(roundtrip(g)) == canonical_triples(g)


class TestNormalize:
    def test_flips_inverse_edge(self):
        g = parse_graph("(s / sing :actor (b / boy :actor-of (w / wear :theme (r / red))))")
        n = normalize(g)
        assert ("w", ":actor", "b") in n.edges
        assert not any(r.endswith("-of") for _, r, _ in n.edges)

    def test_keeps_roles_without_base_form(self):
        g = parse_graph("(b / bouquet :consist-of (r / rose))")
        n = normalize(g)
        assert ("b", ":consist-of", "r") in n.edges

    def test_idempotent(self, appendix_corpus):
        for g in appendix_corpus:
            once = normalize(g)
            assert normalize(once) == once

    def test_rejects_directed_cycle(self):
        g = SemGraph.build(
            "a", [("a", "x"), ("b", "y")],
            [("a", ":rel", "b"), ("b", ":other", "a")],
        )
        with pytest.raises(GraphError, match="cycle"):
            normalize(g)

    def test_inverse_pair_is_not_a_cycle(self):
        g = parse_graph("(a / x :rel (b / y :rel-of a))")
        n = normalize(g)
        assert n.edges == (("a", ":rel", "b"),)


class TestTriples:
    def test_counts(self, figure_pair):
        numbered, _ = figure_pair
        triples = extract_triples(numbered)
        assert len(triples) == 18
        kinds = [t.kind for t in triples]
        assert kinds.count("instance") == 8
        assert kinds.count("relation") == 9
        assert kinds.count("top") == 1

    def test_minimal_graph_triples(self):
        triples = extract_triples(parse_graph("(c / cat)"))
        assert triples == (
            Triple("instance", "c", "cat", None),
            Triple("top", "c", ":top", "cat"),
        )

    def test_polarity_yields_one_attribute_triple(self):
        triples = extract_triples(parse_graph("(g / go :polarity -)"))
        attrs = [t for t in triples if t.kind == "attribute"]
        assert attrs == [Triple("attribute", "g", ":polarity", "-")]


class TestGraphValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            SemGraph.build("a", [("a", "x"), ("b", "y")],
                           [("a", ":r", "b"), ("a", ":r", "b")])

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            SemGraph.build("a", [("a", "x"), ("b", "y")])

    def test_undefined_edge_endpoint_rejected(self):
        with pytest.raises(GraphError, match="undefined"):
            SemGraph.build("a", [("a", "x")], [("a", ":r", "zz")])

    def test_role_must_start_with_colon(self):
        with pytest.raises(GraphError, match="':'"):
            SemGraph.build("a", [("a", "x"), ("b", "y")], [("a", "r", "b")])


class TestCorpusFormat:
    def test_blank_line_separation(self):
        text = "# ::id one\n(c / cat)\n\n# ::id two\n(d / dog)\n"
        graphs = read_corpus_text(text)
        assert [g.metadata["id"] for g in graphs] == ["one", "two"]

    def test_corpus_roundtrip(self, corpus50):
        assert len(corpus50) == 50
        again = read_corpus_text(corpus_text(corpus50))
        assert len(again) == 50
        for a, b in zip(corpus50, again):
            assert canonical_triples(a) == canonical_triples(b)
            assert a.meta == b.meta

    def test_error_names_document(self):
        with pytest.raises(ParseError, match="document 2"):
            read_corpus_text("(c / cat)\n\n(d / dog\n")

    @pytest.mark.parametrize("raw,message", [
        (b"(c / cat)\n\n(d / dog\n",
         "document 2: unbalanced parentheses: missing ')' (line 3, column 6)"),
        (b"(c / cat)\n\n(a / x :ARG0 )\n", "document 2: role without a target (line 3, column 8)"),
        # A byte-order mark before the first document is not part of it.
        (b"\xef\xbb\xbf# ::id a\n(c / cat)\n\n(d / dog\n",
         "document 2: unbalanced parentheses: missing ')' (line 4, column 6)"),
        (b"(c / cat)\n\n(a / x :ARG0 (b / y) :ARG0 b)\n", "document 2: duplicate edge 'a' :ARG0 'b'"),
    ])
    def test_corpus_error_names_document_and_position_once(self, tmp_path, raw, message):
        path = tmp_path / "corpus.txt"
        path.write_bytes(raw)
        with pytest.raises(GraphError) as exc:
            read_corpus(path)
        assert str(exc.value) == message


def test_invert_role():
    assert invert_role(":actor") == ":actor-of"
    assert invert_role(":actor-of") == ":actor"
    assert invert_role(":consist-of") == ":consist-of-of"

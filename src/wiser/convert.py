"""Whole-corpus conversion: trimming, role relabeling, and sense stripping.

Four output schemes are supported. ``wiser`` relabels numbered arguments
to thematic roles and strips sense ids; ``wiser_with_wsd`` only relabels;
``numbered_no_wsd`` only strips; ``numbered_with_wsd`` is the identity.
Conversion never changes a graph's structure (variables, edge topology,
constants, root), only labels.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .frames import Catalog
from .graph import (
    GraphError, SemGraph, flip_edge, invert_role, is_inverse_role, split_sense, strip_sense,
)
from .rules import MappingResult, OverrideTable, noncore_relabel

# mode -> (relabel pass, strip pass)
MODE_PASSES = {
    "wiser": (True, True),
    "wiser_with_wsd": (True, False),
    "numbered_no_wsd": (False, True),
    "numbered_with_wsd": (False, False),
}
MODES = tuple(MODE_PASSES)

# Rare predicates with non-generalizable argument structures; sentences
# using them are removed before conversion.
DEFAULT_EXCLUDED_SENSES = frozenset({
    "byline-91", "street-address-91", "course-91",
    "distribution-range-91", "publication-91", "statistical-test-91",
})

ON_UNMAPPED = ("keep_numbered_and_flag", "drop_sentence")

NUMBERED_ROLE_RE = re.compile(r"^:ARG(\d)$")


class UnmappedArgumentError(GraphError):
    """Under the drop_sentence policy: a numbered argument had no role, or a
    relabel collided with another edge."""


@dataclass(frozen=True)
class ConversionConfig:
    mode: str = "wiser"
    mapping: Mapping[tuple[str, str, int], MappingResult] = field(default_factory=dict)
    overrides: OverrideTable = field(default_factory=OverrideTable)
    exclusion_senses: frozenset[str] = DEFAULT_EXCLUDED_SENSES
    on_unmapped: str = "keep_numbered_and_flag"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.on_unmapped not in ON_UNMAPPED:
            raise ValueError(f"unknown on_unmapped policy {self.on_unmapped!r}")

    @cached_property
    def roles(self) -> dict[tuple[str, str, int], str | None]:
        """(predicate, sense, arg) -> role: the rule result, else the override.

        ``None`` marks an argument that neither covers.
        """
        table = {key: result.role for key, result in self.mapping.items()}
        for key, role in self.overrides.by_key.items():
            if table.get(key) is None:
                table[key] = role
        return table

    @cached_property
    def known_senses(self) -> frozenset[tuple[str, str]]:
        return frozenset((p, s) for p, s, _ in self.roles)

    @cached_property
    def lemma_consensus(self) -> dict[tuple[str, int], str | None]:
        """(lemma, arg) -> role when every sense of the lemma agrees.

        Conflicting or unmapped senses poison the entry, so a bare lemma
        never silently takes a role that only some of its senses carry.
        """
        grouped: dict[tuple[str, int], set[str | None]] = defaultdict(set)
        for (predicate, _, argn), role in self.roles.items():
            grouped[(predicate, argn)].add(role)
        return {key: roles.pop() if len(roles) == 1 else None for key, roles in grouped.items()}

    def resolve(self, lemma: str, sense: str | None, arg_number: int) -> str | None:
        if sense is not None:
            return self.roles.get((lemma, sense, arg_number))
        return self.lemma_consensus.get((lemma, arg_number))


@dataclass(frozen=True)
class DropEvent:
    doc_id: str
    reason: str  # 'excluded' | 'adhoc' | 'unmapped'
    detail: str


@dataclass(frozen=True)
class FlagEvent:
    doc_id: str
    detail: str


@dataclass(frozen=True)
class ConversionReport:
    sentences_in: int
    sentences_out: int
    dropped_adhoc: int
    dropped_excluded: int
    dropped_unmapped: int
    relabeled_edges: int
    stripped_concepts: int
    role_distribution: tuple[tuple[str, int, int], ...]
    drops: tuple[DropEvent, ...] = ()
    flags: tuple[FlagEvent, ...] = ()

    @property
    def distribution_total(self) -> int:
        return sum(n for _, _, n in self.role_distribution)

    def to_text(self) -> str:
        lines = [
            f"sentences_in\t{self.sentences_in}",
            f"sentences_out\t{self.sentences_out}",
            f"dropped_adhoc\t{self.dropped_adhoc}",
            f"dropped_excluded\t{self.dropped_excluded}",
            f"dropped_unmapped\t{self.dropped_unmapped}",
            f"relabeled_edges\t{self.relabeled_edges}",
            f"stripped_concepts\t{self.stripped_concepts}",
        ]
        lines += [f"dist\t{role}\t{argn}\t{n}" for role, argn, n in self.role_distribution]
        lines += [f"drop\t{d.doc_id}\t{d.reason}\t{d.detail}" for d in self.drops]
        lines += [f"flag\t{f.doc_id}\t{f.detail}" for f in self.flags]
        return "\n".join(lines) + "\n"


def doc_id(g: SemGraph, index: int) -> str:
    return g.metadata.get("id", f"doc{index + 1}")


def _drop_reason(g: SemGraph, catalog: Catalog | None, config: ConversionConfig) -> tuple[str, str] | None:
    for _, concept in g.instances:
        if concept in config.exclusion_senses:
            return "excluded", concept
    if catalog is not None:
        for _, concept in g.instances:
            lemma, sense = split_sense(concept)
            if sense is None:
                continue
            if not catalog.has_sense(lemma, sense) and (lemma, sense) not in config.known_senses:
                return "adhoc", concept
    return None


def _trim(
    corpus: Sequence[SemGraph],
    catalog: Catalog | None,
    config: ConversionConfig,
) -> tuple[list[tuple[int, SemGraph]], list[DropEvent]]:
    """Kept documents with their input positions, and the drop events."""
    kept: list[tuple[int, SemGraph]] = []
    drops: list[DropEvent] = []
    for i, g in enumerate(corpus):
        reason = _drop_reason(g, catalog, config)
        if reason is None:
            kept.append((i, g))
        else:
            drops.append(DropEvent(doc_id(g, i), reason[0], reason[1]))
    return kept, drops


def trim_corpus(
    corpus: Sequence[SemGraph],
    catalog: Catalog | None,
    config: ConversionConfig,
) -> tuple[list[SemGraph], list[DropEvent]]:
    """Remove sentences using excluded senses or senses absent from the catalog."""
    kept, drops = _trim(corpus, catalog, config)
    return [g for _, g in kept], drops


@dataclass
class _GraphOutcome:
    graph: SemGraph
    relabeled: int = 0
    stripped: int = 0
    distribution: dict[tuple[str, int], int] = field(default_factory=dict)
    residues: list[str] = field(default_factory=list)


def _relabel_edges(g: SemGraph, config: ConversionConfig, outcome: _GraphOutcome) -> list[tuple[str, str, str]]:
    """Each edge with its converted label; an edge that cannot take one keeps
    its input label and is flagged (or, under drop_sentence, drops the graph)."""

    def unconverted(detail: str) -> None:
        if config.on_unmapped == "drop_sentence":
            raise UnmappedArgumentError(detail)
        outcome.residues.append(detail)

    edges: list[tuple[str, str, str]] = []
    keys: list[tuple[str, int] | None] = []  # (role, arg) of a resolved numbered edge
    for source, label, target in g.edges:
        key = None
        inverted = is_inverse_role(label)
        m = NUMBERED_ROLE_RE.match(invert_role(label) if inverted else label)
        if m is None:
            new_label = noncore_relabel(label)
        else:
            argn = int(m.group(1))
            predicate = g.concept_of(target if inverted else source)
            lemma, sense = split_sense(predicate)
            role = config.resolve(lemma, sense, argn)
            if role is None:
                new_label = label
                unconverted(f"{predicate} {label} unresolved")
            else:
                new_label = ":" + (invert_role(role) if inverted else role)
                key = (role, argn)
        edges.append((source, new_label, target))
        keys.append(key)
    # A relabel that lands on another edge once inverse edges are flipped,
    # as scoring flips them, is undone: two input facts would become one.
    # Each pass undoes a relabel, and an unchanged edge only meets another
    # unchanged one when the input held that fact twice, so this ends.
    while len(set(map(flip_edge, edges))) < len(edges):
        origins: dict[tuple[str, str, str], set] = defaultdict(set)
        for edge, old in zip(edges, g.edges):
            origins[flip_edge(edge)].add(flip_edge(old))
        clashes = [i for i, (edge, old) in enumerate(zip(edges, g.edges))
                   if edge != old and len(origins[flip_edge(edge)]) > 1]
        if not clashes:
            break
        for i in clashes:
            old = g.edges[i]
            unconverted(f"{g.concept_of(old[0])} {old[1]} collides with {edges[i][1]}")
            edges[i] = old
    for edge, old, key in zip(edges, g.edges, keys):
        if edge != old:
            outcome.relabeled += 1
            if key is not None:
                outcome.distribution[key] = outcome.distribution.get(key, 0) + 1
    return edges


def _convert_one(g: SemGraph, config: ConversionConfig) -> _GraphOutcome:
    relabel, strip = MODE_PASSES[config.mode]
    outcome = _GraphOutcome(graph=g)
    edges = _relabel_edges(g, config, outcome) if relabel else list(g.edges)
    instances = list(g.instances)
    if strip:
        stripped = [(v, strip_sense(c)) for v, c in instances]
        outcome.stripped = sum(1 for (_, a), (_, b) in zip(instances, stripped) if a != b)
        instances = stripped
    outcome.graph = SemGraph(
        root=g.root,
        instances=tuple(instances),
        edges=tuple(edges),
        attributes=g.attributes,
        meta=g.meta,
    )
    return outcome


def convert_graph(g: SemGraph, config: ConversionConfig) -> SemGraph:
    """Convert one graph in place of its labels; structure is untouched.

    Numbered edges written in '-of' form resolve against the target-side
    predicate and keep their surface direction. Raises
    :class:`UnmappedArgumentError` under the drop_sentence policy.
    """
    return _convert_one(g, config).graph


def convert_corpus(
    corpus: Sequence[SemGraph],
    catalog: Catalog | None,
    config: ConversionConfig,
) -> tuple[list[SemGraph], ConversionReport]:
    """Trim, then convert each remaining document.

    Drop and flag events name each document by its position in ``corpus``.
    """
    kept, drops = _trim(corpus, catalog, config)
    out: list[SemGraph] = []
    flags: list[FlagEvent] = []
    distribution: dict[tuple[str, int], int] = {}
    relabeled = 0
    stripped = 0
    for i, g in kept:
        name = doc_id(g, i)
        try:
            outcome = _convert_one(g, config)
        except UnmappedArgumentError as exc:
            drops.append(DropEvent(name, "unmapped", str(exc)))
            continue
        out.append(outcome.graph)
        relabeled += outcome.relabeled
        stripped += outcome.stripped
        for key, n in outcome.distribution.items():
            distribution[key] = distribution.get(key, 0) + n
        flags.extend(FlagEvent(name, detail) for detail in outcome.residues)
    by_reason = Counter(d.reason for d in drops)
    report = ConversionReport(
        sentences_in=len(corpus),
        sentences_out=len(out),
        dropped_adhoc=by_reason["adhoc"],
        dropped_excluded=by_reason["excluded"],
        dropped_unmapped=by_reason["unmapped"],
        relabeled_edges=relabeled,
        stripped_concepts=stripped,
        role_distribution=tuple(sorted(
            (role, argn, n) for (role, argn), n in distribution.items()
        )),
        drops=tuple(drops),
        flags=tuple(flags),
    )
    return out, report


class SplitError(ValueError):
    """A split specification does not partition the corpus."""


def split_corpus(
    corpus: Sequence[SemGraph],
    split_spec: Mapping[str, Iterable[str]],
) -> dict[str, list[SemGraph]]:
    """Partition a corpus into named splits by document id; exact and disjoint."""
    assignment: dict[str, str] = {}
    for split, ids in split_spec.items():
        for doc in ids:
            if doc in assignment:
                raise SplitError(f"document id {doc!r} assigned to both "
                                 f"{assignment[doc]!r} and {split!r}")
            assignment[doc] = split
    ids_in_corpus = set()
    result: dict[str, list[SemGraph]] = {split: [] for split in split_spec}
    for i, g in enumerate(corpus):
        name = doc_id(g, i)
        if name in ids_in_corpus:
            raise SplitError(f"duplicate document id {name!r} in corpus")
        ids_in_corpus.add(name)
        split = assignment.get(name)
        if split is None:
            raise SplitError(f"document id {name!r} is not assigned to any split")
        result[split].append(g)
    missing = sorted(set(assignment) - ids_in_corpus)
    if missing:
        raise SplitError(f"split ids absent from corpus: {', '.join(missing)}")
    return result


def read_id_list(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip() and not line.startswith("#")]

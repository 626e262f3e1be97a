"""Reference search for tests: the full Smatch recount over string triples
and the exhaustive alignment that scores every permutation with it.

``wiser.align`` scores moves by their change and counts over interned
ints; these functions count from the triples themselves, so the tests can
check the product search against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Mapping

from wiser.align import Alignment
from wiser.graph import Triple


@dataclass(frozen=True)
class View:
    """Triples prepared for matching plus the variables they mention."""

    variables: tuple[str, ...]
    triples: tuple[Triple, ...]
    triple_set: frozenset[Triple]
    concepts: tuple[tuple[str, str], ...]

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "View":
        triples = tuple(sorted(set(triples)))
        variables = set()
        concepts = []
        for t in triples:
            variables.add(t.source)
            if t.kind == "relation":
                variables.add(t.target)
            if t.kind == "instance":
                concepts.append((t.source, t.label))
        return cls(
            variables=tuple(sorted(variables)),
            triples=triples,
            triple_set=frozenset(triples),
            concepts=tuple(sorted(concepts)),
        )


def match_count(view_a: View, view_b: View, mapping: Mapping[str, str]) -> int:
    matched = 0
    b_set = view_b.triple_set
    for kind, source, label, target in view_a.triples:
        ms = mapping.get(source)
        if ms is None:
            continue
        if kind == "relation":
            mt = mapping.get(target)
            if mt is not None and Triple(kind, ms, label, mt) in b_set:
                matched += 1
        elif Triple(kind, ms, label, target) in b_set:
            matched += 1
    return matched


def align_exact(view_a: View, view_b: View, max_vars: int) -> Alignment:
    small, large = sorted((view_a.variables, view_b.variables), key=len)
    if len(small) > max_vars:
        raise ValueError(
            f"exhaustive alignment refused: smaller graph has {len(small)} variables "
            f"(bound {max_vars})"
        )
    a_smaller = len(view_a.variables) <= len(view_b.variables)
    best_mapping: dict[str, str] = {}
    best_score = -1
    for image in permutations(large, len(small)):
        if a_smaller:
            mapping = dict(zip(view_a.variables, image))
        else:
            mapping = {a: b for b, a in zip(view_b.variables, image)}
        score = match_count(view_a, view_b, mapping)
        if score > best_score:
            best_score, best_mapping = score, mapping
    return Alignment(mapping=tuple(sorted(best_mapping.items())), matched=max(0, best_score))

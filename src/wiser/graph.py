"""Core data types for rooted, directed, labeled semantic graphs.

A :class:`SemGraph` stores one sentence's meaning: variables bound to
concepts, role-labeled edges between variables, role-labeled attributes
holding constants, and free-form metadata. Graphs are immutable after
construction; every transformation returns a new graph.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple


class GraphError(ValueError):
    """A graph value violates a structural invariant."""


ROLE_RE = re.compile(r'^:[^\s()/"]+$')
VAR_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")
NUMBER_RE = re.compile(r"^[+-]?\d+(\.\d+)?$")
# A sense suffix is a trailing hyphen plus exactly 2 or 3 digits.
SENSE_SUFFIX_RE = re.compile(r"^(.+)-(\d{2,3})$")

# Unquoted tokens that are constants rather than variable references.
MARKER_CONSTANTS = frozenset({"interrogative", "imperative", "expressive"})

# '-of'-final roles with no base form; normalization leaves them alone.
NON_INVERTIBLE = frozenset({":consist-of", ":prep-out-of", ":prep-on-behalf-of"})


def is_inverse_role(role: str) -> bool:
    return role.endswith("-of") and role not in NON_INVERTIBLE


def invert_role(role: str) -> str:
    """Return the opposite-direction form of a role label."""
    if is_inverse_role(role):
        return role[: -len("-of")]
    return role + "-of"


def split_sense(concept: str) -> tuple[str, str | None]:
    m = SENSE_SUFFIX_RE.match(concept)
    if m:
        return m.group(1), m.group(2)
    return concept, None


def strip_sense(concept: str) -> str:
    return split_sense(concept)[0]


def is_constant_token(token: str) -> bool:
    """Tokens that may stand as attribute values without quoting."""
    return bool(NUMBER_RE.match(token)) or token in {"-", "+"} or token in MARKER_CONSTANTS


class Triple(NamedTuple):
    """One atomic fact used for matching.

    ``kind`` is one of ``instance`` (source variable, label concept),
    ``relation`` (labeled edge between variables), ``attribute`` (labeled
    constant on a variable), or ``top`` (the root variable paired with its
    concept so root identity participates in matching).
    """

    kind: str
    source: str
    label: str
    target: str | None


@dataclass(frozen=True)
class SemGraph:
    """Immutable rooted graph of instances, edges, attributes, and metadata."""

    root: str
    instances: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str, str], ...] = ()
    attributes: tuple[tuple[str, str, str], ...] = ()
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        _validate(self)

    @classmethod
    def build(
        cls,
        root: str,
        instances: Iterable[tuple[str, str]],
        edges: Iterable[tuple[str, str, str]] = (),
        attributes: Iterable[tuple[str, str, str]] = (),
        metadata: Mapping[str, str] | Iterable[tuple[str, str]] = (),
    ) -> "SemGraph":
        meta = metadata.items() if isinstance(metadata, Mapping) else metadata
        return cls(
            root=root,
            instances=tuple((v, c) for v, c in instances),
            edges=tuple((s, r, t) for s, r, t in edges),
            attributes=tuple((s, r, t) for s, r, t in attributes),
            meta=tuple((k, str(v)) for k, v in meta),
        )

    @cached_property
    def concepts(self) -> dict[str, str]:
        return dict(self.instances)

    @cached_property
    def metadata(self) -> dict[str, str]:
        return dict(self.meta)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.instances)

    def concept_of(self, var: str) -> str:
        return self.concepts[var]


def _validate(g: SemGraph) -> None:
    if not g.instances:
        raise GraphError("graph has no instances")
    seen: dict[str, str] = {}
    for var, concept in g.instances:
        if not VAR_RE.match(var):
            raise GraphError(f"invalid variable id {var!r}")
        if not concept:
            raise GraphError(f"empty concept for variable {var!r}")
        if var in seen:
            raise GraphError(f"variable {var!r} has more than one instance entry")
        seen[var] = concept
    if g.root not in seen:
        raise GraphError(f"root {g.root!r} is not a defined variable")

    edge_set = set()
    for s, r, t in g.edges:
        if not ROLE_RE.match(r):
            raise GraphError(f"edge role {r!r} must start with ':'")
        for end in (s, t):
            if end not in seen:
                raise GraphError(f"edge {s!r} {r} {t!r} references undefined variable {end!r}")
        if (s, r, t) in edge_set:
            raise GraphError(f"duplicate edge {s!r} {r} {t!r}")
        edge_set.add((s, r, t))

    attr_set = set()
    for s, r, v in g.attributes:
        if not ROLE_RE.match(r):
            raise GraphError(f"attribute role {r!r} must start with ':'")
        if s not in seen:
            raise GraphError(f"attribute on undefined variable {s!r}")
        if v == "":
            raise GraphError(f"empty attribute value on {s!r} {r}")
        if (s, r, v) in attr_set:
            raise GraphError(f"duplicate attribute {s!r} {r} {v!r}")
        attr_set.add((s, r, v))

    # Single connected component, edges traversable in either direction.
    if len(seen) > 1:
        adjacency: dict[str, list[str]] = defaultdict(list)
        for s, _, t in g.edges:
            adjacency[s].append(t)
            adjacency[t].append(s)
        reached = {g.root}
        queue = deque([g.root])
        while queue:
            for nxt in adjacency[queue.popleft()]:
                if nxt not in reached:
                    reached.add(nxt)
                    queue.append(nxt)
        missing = [v for v, _ in g.instances if v not in reached]
        if missing:
            raise GraphError(f"variables not connected to root: {', '.join(missing)}")


def flip_edge(edge: tuple[str, str, str]) -> tuple[str, str, str]:
    """An inverse ('-of') edge in its base direction; any other edge as given."""
    s, r, t = edge
    return (t, invert_role(r), s) if is_inverse_role(r) else edge


def flip_inverses(g: SemGraph) -> SemGraph:
    """Flip inverse ('-of') edges to their base direction and sort triples.

    Roles with no base form (see :data:`NON_INVERTIBLE`) are left as-is.
    Directed cycles are kept: scoring and statistics accept them.
    """
    return SemGraph(
        root=g.root,
        instances=tuple(sorted(g.instances)),
        edges=tuple(sorted(set(map(flip_edge, g.edges)))),
        attributes=tuple(sorted(set(g.attributes))),
        meta=g.meta,
    )


def normalize(g: SemGraph) -> SemGraph:
    """:func:`flip_inverses`, rejecting graphs that then contain a directed
    cycle; reentrancy (shared targets) is fine.
    """
    ng = flip_inverses(g)
    _reject_cycles(ng.root, ng.edges)
    return ng


def _reject_cycles(root: str, edges: tuple[tuple[str, str, str], ...]) -> None:
    out: dict[str, list[str]] = defaultdict(list)
    for s, _, t in edges:
        out[s].append(t)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = defaultdict(int)
    nodes = {root} | {s for s, _, _ in edges} | {t for _, _, t in edges}
    for start in sorted(nodes):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(out[node]):
                stack[-1] = (node, idx + 1)
                nxt = out[node][idx]
                if color[nxt] == GRAY:
                    raise GraphError(f"directed cycle after normalization at {nxt!r}")
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()


def extract_triples(g: SemGraph) -> tuple[Triple, ...]:
    """Deterministic triple sequence: instances, relations, attributes, top."""
    triples = [Triple("instance", v, c, None) for v, c in g.instances]
    triples += [Triple("relation", s, r, t) for s, r, t in g.edges]
    triples += [Triple("attribute", s, r, v) for s, r, v in g.attributes]
    triples.append(Triple("top", g.root, ":top", g.concept_of(g.root)))
    return tuple(triples)


def canonical_triples(g: SemGraph) -> frozenset[Triple]:
    """Triple set of the normalized graph; the unit of graph identity."""
    return frozenset(extract_triples(normalize(g)))

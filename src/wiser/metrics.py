"""Graph-matching evaluation: Smatch, fine-grained metrics, agreement, stats.

Smatch searches for the injective variable mapping between two graphs that
maximizes the number of matched triples, then scores precision against the
predicted graph's triples and recall against the gold graph's. The search
runs one seeded start (greedy pairing of equal concepts) plus random
restarts, each improved by single-reassign/swap hill climbing; an
exhaustive oracle is available for small graphs. Fine-grained metrics are
Smatch over a transformed or restricted triple set, or bag F1 where no
alignment is needed. All scoring is deterministic for a fixed seed.

The climb scores each move by the change it makes to the matched count
(Cai & Knight 2013): only the triples that touch the moved variables are
looked at, through a per-pair index of interned variables. Each gain is
exact, so every step raises the count and the climb ends. The restarts
stop early once a climb reaches the label-bag bound, which no mapping can
exceed; only a strictly better mapping replaces the best, so this changes
no score and no mapping. ``_match_count``, the full recount, stays as the
oracle for tests and for the exhaustive search.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, fields, replace
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .graph import SemGraph, Triple, extract_triples, flip_inverses, invert_role, strip_sense

METRIC_NAMES = (
    "smatch", "unlabeled", "no_wsd", "concepts", "srl", "xsrl",
    "reentrancies", "negations", "named_entity",
)

# Fine-grained metric ordering used for default reporting.
DEFAULT_METRICS = (
    "smatch", "unlabeled", "no_wsd", "concepts", "xsrl",
    "reentrancies", "negations", "named_entity",
)

SRL_ROLES = frozenset(f":ARG{i}" for i in range(7))

# Thematic roles observed for converted numbered arguments; the xSRL
# restriction set for the wiser scheme.
WISER_CORE_ROLES = (
    "theme", "actor", "benefactive", "end", "start", "instrument",
    "attribute", "location", "cause", "purpose", "topic", "accompanier",
    "extent", "comparison", "asset", "domain", "mod", "manner",
    "direction", "path", "cause-of", "degree", "subevent", "quantity",
    "value", "time", "part-of", "duration", "theme-of", "range", "poss",
    "example", "consist-of", "concession", "frequency",
)

AMR_XSRL_NONCORE = (
    "accompanier", "beneficiary", "destination", "instrument",
    "location", "purpose", "source", "topic",
)


def xsrl_role_set(scheme: str) -> frozenset[str]:
    """Role labels included in the xSRL restriction for a scheme."""
    if scheme == "wiser":
        return frozenset(":" + r for r in WISER_CORE_ROLES)
    if scheme == "amr":
        return SRL_ROLES | frozenset(":" + r for r in AMR_XSRL_NONCORE)
    raise ValueError(f"unknown scheme {scheme!r}; expected 'wiser' or 'amr'")


@dataclass(frozen=True)
class ScoreEntry:
    metric: str
    matched: int
    total_pred: int
    total_gold: int

    @property
    def precision(self) -> float:
        return self.matched / self.total_pred if self.total_pred else 0.0

    @property
    def recall(self) -> float:
        return self.matched / self.total_gold if self.total_gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def line(self) -> str:
        return (f"{self.metric}\t{self.precision:.4f}\t{self.recall:.4f}\t{self.f1:.4f}"
                f"\t{self.matched}\t{self.total_pred}\t{self.total_gold}")


def combine_entries(metric: str, entries: Iterable[ScoreEntry]) -> ScoreEntry:
    """Micro-average: pool matched and total counts across pairs."""
    matched = pred = gold = 0
    for e in entries:
        matched += e.matched
        pred += e.total_pred
        gold += e.total_gold
    return ScoreEntry(metric, matched, pred, gold)


@dataclass(frozen=True)
class Alignment:
    """Injective partial variable mapping and its matched-triple count."""

    mapping: tuple[tuple[str, str], ...]
    matched: int


@dataclass(frozen=True)
class _View:
    """Triples prepared for matching plus the variables they mention."""

    variables: tuple[str, ...]
    triples: tuple[Triple, ...]
    triple_set: frozenset[Triple]
    concepts: tuple[tuple[str, str], ...]

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "_View":
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


def _match_count(view_a: _View, view_b: _View, mapping: Mapping[str, str]) -> int:
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


def _seeded_start(view_a: _View, view_b: _View) -> dict[str, str]:
    by_concept: dict[str, list[str]] = defaultdict(list)
    for var, concept in view_b.concepts:
        by_concept[concept].append(var)
    for vars_ in by_concept.values():
        vars_.sort()
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for var, concept in view_a.concepts:
        for candidate in by_concept.get(concept, ()):
            if candidate not in used:
                mapping[var] = candidate
                used.add(candidate)
                break
    return mapping


def _random_start(view_a: _View, view_b: _View, rng: random.Random) -> dict[str, str]:
    targets: list[str | None] = list(view_b.variables)
    if len(targets) < len(view_a.variables):
        targets += [None] * (len(view_a.variables) - len(targets))
    rng.shuffle(targets)
    return {a: b for a, b in zip(view_a.variables, targets) if b is not None}


class _PairIndex:
    """One view pair with variables and relation labels interned to ints,
    built when the pair is aligned and dropped with it.

    Each side's variables are numbered in sorted order, so integer order is
    the search's move order. ``weights[a]`` is row ``a`` of the |V_a| x |V_b|
    table with its zero cells left out: for each image ``b``, how many of
    the triples that touch only ``a`` (instance, attribute, top, and
    relations from ``a`` to itself) are in B once ``a`` maps to ``b``.
    ``incident[a]`` lists the other relation triples ``(s, label, t)`` that
    touch ``a``, and ``neighbours[a]`` the variables at their other end. B's
    relations are a set, and are also indexed by ``(label, target)`` and
    ``(source, label)``.
    """

    def __init__(self, view_a: _View, view_b: _View) -> None:
        self.views = (view_a, view_b)
        ids_a = {v: i for i, v in enumerate(view_a.variables)}
        ids_b = {v: i for i, v in enumerate(view_b.variables)}
        labels: dict[str, int] = {}
        images: dict[tuple, list[int]] = defaultdict(list)  # B variables by what they carry
        self.relations_b: set[tuple[int, int, int]] = set()
        self.sources_b: dict[tuple[int, int], list[int]] = defaultdict(list)
        self.targets_b: dict[tuple[int, int], list[int]] = defaultdict(list)
        for kind, source, label, target in view_b.triples:
            b = ids_b[source]
            if kind != "relation":
                images[kind, label, target].append(b)
                continue
            s, label, t = b, labels.setdefault(label, len(labels)), ids_b[target]
            self.relations_b.add((s, label, t))
            self.sources_b[label, t].append(s)
            self.targets_b[s, label].append(t)
            if s == t:
                images["loop", label].append(s)
        n = len(view_a.variables)
        self.weights: list[dict[int, int]] = [{} for _ in range(n)]
        self.incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.neighbours: list[set[int]] = [set() for _ in range(n)]
        for kind, source, label, target in view_a.triples:
            a = ids_a[source]
            if kind == "relation":
                rel = (a, labels.setdefault(label, len(labels)), ids_a[target])
                if rel[2] != a:
                    for v, other in ((a, rel[2]), (rel[2], a)):
                        self.incident[v].append(rel)
                        self.neighbours[v].add(other)
                    continue
                key: tuple = ("loop", rel[1])
            else:
                key = (kind, label, target)
            row = self.weights[a]
            for b in images.get(key, ()):
                row[b] = row.get(b, 0) + 1

    def fit(self, a: int, m: list[int]) -> dict[int, int]:
        """For each image ``b``, the triples of ``a`` that match when ``a``
        alone maps to ``b`` and every other variable keeps its image in
        ``m`` (-1 for none); images that match nothing are left out."""
        fit = dict(self.weights[a])
        for s, label, t in self.incident[a]:
            if s == a:
                found = self.sources_b.get((label, m[t]), ())
            else:
                found = self.targets_b.get((m[s], label), ())
            for b in found:
                fit[b] = fit.get(b, 0) + 1
        return fit


class _Climb:
    """The state of one hill climb: ``m[a]`` is the image of A variable
    ``a`` (-1 when unmapped), ``fits[a]`` is ``index.fit(a, m)`` and
    ``now[a]`` is what ``a`` matches under ``m``.

    A move changes only the triples that touch the variables it moves, so
    its gain comes from those variables alone. A reassign ``a -> b`` gains
    ``fits[a][b] - now[a]``. A swap of two variables that share no relation
    gains the sum of its two reassigns; a swap of two that do recounts the
    relations that touch either of them.
    """

    def __init__(self, index: _PairIndex, mapping: Mapping[str, str]) -> None:
        view_a, view_b = index.views
        ids_b = {v: i for i, v in enumerate(view_b.variables)}
        self.index = index
        self.m = [ids_b[mapping[v]] if v in mapping else -1 for v in view_a.variables]
        self.used = {b for b in self.m if b >= 0}
        self.score = _match_count(view_a, view_b, mapping)
        self.fits = [index.fit(a, self.m) for a in range(len(self.m))]
        self.now = [fit.get(b, 0) for fit, b in zip(self.fits, self.m)]

    def reassign_gain(self, a: int, b: int) -> int:
        return self.fits[a].get(b, 0) - self.now[a]

    def swap_gain(self, a1: int, a2: int) -> int:
        m, index = self.m, self.index
        b1, b2 = m[a1], m[a2]
        if a2 not in index.neighbours[a1]:
            return self.reassign_gain(a1, b2) + self.reassign_gain(a2, b1)
        touched = index.incident[a1] + [r for r in index.incident[a2] if a1 not in (r[0], r[2])]
        before = sum((m[s], label, m[t]) in index.relations_b for s, label, t in touched)
        m[a1], m[a2] = b2, b1
        after = sum((m[s], label, m[t]) in index.relations_b for s, label, t in touched)
        m[a1], m[a2] = b1, b2
        w1, w2 = index.weights[a1], index.weights[a2]
        return after - before + w1.get(b2, 0) - w1.get(b1, 0) + w2.get(b1, 0) - w2.get(b2, 0)

    def best_move(self) -> tuple[int, int, int, bool] | None:
        """The first move with the strictly highest positive gain, as
        ``(gain, a, b, True)`` for a reassign ``a -> b`` or ``(gain, a1,
        a2, False)`` for a swap, or ``None`` when no move gains. Moves come
        in the order: every reassign by ``a`` then ``b``, then every swap
        ``a1 < a2``."""
        best_gain, best = 0, None
        m, used = self.m, self.used
        for a, fit in enumerate(self.fits):
            # An image outside a's fit matches nothing of a: its gain is <= 0.
            if fit and max(fit.values()) - self.now[a] > best_gain:
                for b in sorted(fit):
                    if b not in used and self.reassign_gain(a, b) > best_gain:
                        best_gain, best = self.reassign_gain(a, b), (a, b, True)
        for a1 in range(len(m)):
            for a2 in range(a1 + 1, len(m)):
                if (m[a1] >= 0 or m[a2] >= 0) and self.swap_gain(a1, a2) > best_gain:
                    best_gain, best = self.swap_gain(a1, a2), (a1, a2, False)
        return None if best is None else (best_gain, *best)

    def apply(self, gain: int, x: int, y: int, reassign: bool) -> None:
        m = self.m
        if reassign:
            self.used.discard(m[x])
            self.used.add(y)
            m[x] = y
            moved = {x}
        else:
            m[x], m[y] = m[y], m[x]
            moved = {x, y}
        self.score += gain
        # A fit depends on the images of the variable's neighbours only.
        changed = set().union(*(self.index.neighbours[v] for v in moved))
        for v in changed:
            self.fits[v] = self.index.fit(v, m)
        for v in changed | moved:
            self.now[v] = self.fits[v].get(m[v], 0)

    def mapping(self) -> dict[str, str]:
        view_a, view_b = self.index.views
        return {view_a.variables[a]: view_b.variables[b] for a, b in enumerate(self.m) if b >= 0}


def _hill_climb(index: _PairIndex, mapping: Mapping[str, str]) -> tuple[dict[str, str], int]:
    """Take the first strictly best positive move until none is left.

    No move unmaps a variable on its own: dropping a pair can only lose
    matches, and only a move with a positive gain is taken. Each gain is the
    exact change in the matched count, so the score rises on every step and
    the climb ends.
    """
    climb = _Climb(index, mapping)
    while (move := climb.best_move()) is not None:
        climb.apply(*move)
    return climb.mapping(), climb.score


def _label_bound(view_a: _View, view_b: _View) -> int:
    """Most triples any mapping can match: per ``(kind, label)`` for
    relations and ``(kind, label, target)`` otherwise, the smaller count."""

    def bag(view: _View) -> Counter:
        return Counter((t.kind, t.label, None if t.kind == "relation" else t.target)
                       for t in view.triples)

    bag_b = bag(view_b)
    return sum(min(n, bag_b[key]) for key, n in bag(view_a).items())


def _align(view_a: _View, view_b: _View, restarts: int, seed: int) -> Alignment:
    index = _PairIndex(view_a, view_b)
    bound = _label_bound(view_a, view_b)
    rng = random.Random(seed)
    best: tuple[dict[str, str], int] | None = None
    for i in range(max(1, restarts)):
        start = _seeded_start(view_a, view_b) if i == 0 else _random_start(view_a, view_b, rng)
        mapping, score = _hill_climb(index, start)
        if best is None or score > best[1]:
            best = (mapping, score)
        if best[1] == bound:
            # Certified optimal: a later restart cannot do strictly better,
            # and only a strictly better one replaces the best.
            break
    mapping, score = best
    return Alignment(mapping=tuple(sorted(mapping.items())), matched=score)


def _align_exact(view_a: _View, view_b: _View, max_vars: int) -> Alignment:
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
        score = _match_count(view_a, view_b, mapping)
        if score > best_score:
            best_score, best_mapping = score, mapping
    return Alignment(mapping=tuple(sorted(best_mapping.items())), matched=max(0, best_score))


def _prepare(g: SemGraph) -> tuple[Triple, ...]:
    """The triples every metric starts from: inverse edges flipped, cycles kept."""
    return extract_triples(flip_inverses(g))


def _align_count(
    metric: str,
    triples_a: Iterable[Triple],
    triples_b: Iterable[Triple],
    restarts: int,
    seed: int,
    exact: bool,
    max_vars: int,
) -> tuple[ScoreEntry, Alignment]:
    """Align two triple sets (variables are inferred) and count the match."""
    view_a = _View.from_triples(triples_a)
    view_b = _View.from_triples(triples_b)
    if exact:
        alignment = _align_exact(view_a, view_b, max_vars)
    else:
        alignment = _align(view_a, view_b, restarts, seed)
    entry = ScoreEntry(metric, alignment.matched, len(view_a.triples), len(view_b.triples))
    return entry, alignment


def smatch(
    a: SemGraph,
    b: SemGraph,
    restarts: int = 5,
    seed: int = 0,
) -> tuple[ScoreEntry, Alignment]:
    """Score predicted graph ``a`` against gold graph ``b``.

    ``restarts`` counts total hill-climbing starts: the first is seeded
    by greedy concept pairing, the rest are uniformly random draws from
    the seeded generator.
    """
    return _align_count("smatch", _prepare(a), _prepare(b), restarts, seed, False, 0)


def smatch_exact(a: SemGraph, b: SemGraph, max_vars: int = 8) -> tuple[ScoreEntry, Alignment]:
    """Provably optimal alignment by exhaustive search over injective maps.

    Refuses pairs whose smaller graph exceeds ``max_vars`` variables.
    """
    return _align_count("smatch", _prepare(a), _prepare(b), 0, 0, True, max_vars)


def _strip_triple_senses(triples: Iterable[Triple]) -> list[Triple]:
    out = []
    for t in triples:
        if t.kind == "instance":
            out.append(t._replace(label=strip_sense(t.label)))
        elif t.kind == "top":
            out.append(t._replace(target=strip_sense(t.target)))
        else:
            out.append(t)
    return out


def _unlabel(triples: Iterable[Triple]) -> list[Triple]:
    return [
        t._replace(label=":rel") if t.kind in ("relation", "attribute") else t
        for t in triples
    ]


def _restrict_roles(triples: Iterable[Triple], roles: frozenset[str]) -> list[Triple]:
    return [
        t for t in triples
        if t.kind == "relation" and (t.label in roles or invert_role(t.label) in roles)
    ]


def _restrict_reentrant(triples: Sequence[Triple]) -> list[Triple]:
    indegree: Counter[str] = Counter(t.target for t in triples if t.kind == "relation")
    kept = [t for t in triples if t.kind == "relation" and indegree[t.target] >= 2]
    involved = {v for t in kept for v in (t.source, t.target)}
    kept += [t for t in triples if t.kind == "instance" and t.source in involved]
    return kept


def _bag_entry(metric: str, bag_a: Counter, bag_b: Counter) -> ScoreEntry:
    matched = sum(min(n, bag_b[item]) for item, n in bag_a.items())
    return ScoreEntry(metric, matched, sum(bag_a.values()), sum(bag_b.values()))


def _concept_bag(triples: Iterable[Triple]) -> Counter:
    return Counter(t.label for t in triples if t.kind == "instance")


def _negation_bag(triples: Sequence[Triple]) -> Counter:
    concepts = {t.source: t.label for t in triples if t.kind == "instance"}
    return Counter(
        concepts.get(t.source, t.source)
        for t in triples
        if t.kind == "attribute" and t.label == ":polarity" and t.target == "-"
    )


def _name_bag(triples: Sequence[Triple]) -> Counter:
    """Bag of (entity concept, ordered op-string tuple) name subgraphs."""
    concepts = {t.source: t.label for t in triples if t.kind == "instance"}
    ops: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for t in triples:
        if t.kind == "attribute" and t.label.startswith(":op") and t.label[3:].isdigit():
            ops[t.source].append((int(t.label[3:]), t.target))
    bag: Counter = Counter()
    for t in triples:
        if t.kind == "relation" and t.label == ":name":
            parts = tuple(v for _, v in sorted(ops.get(t.target, ())))
            bag[(concepts.get(t.source, t.source), parts)] += 1
    return bag


# Metrics that compare bags directly, with no alignment.
_BAGS = {"concepts": _concept_bag, "negations": _negation_bag, "named_entity": _name_bag}


def transform_triples(triples: Sequence[Triple], metric: str, scheme: str = "wiser") -> list[Triple]:
    """The triple set an alignment metric actually scores.

    Restrictions are computed from the given triples alone, so applying a
    transform to its own output is the identity: deleting everything
    outside a metric's restriction cannot change that metric's score.
    """
    if metric == "smatch":
        return list(triples)
    if metric == "unlabeled":
        return _unlabel(triples)
    if metric == "no_wsd":
        return _strip_triple_senses(triples)
    if metric == "srl":
        return _restrict_roles(triples, SRL_ROLES)
    if metric == "xsrl":
        return _restrict_roles(triples, xsrl_role_set(scheme))
    if metric == "reentrancies":
        return _restrict_reentrant(tuple(triples))
    raise ValueError(f"{metric!r} is not an alignment metric")


def score_triples(
    metric: str,
    triples_a: Sequence[Triple],
    triples_b: Sequence[Triple],
    restarts: int = 5,
    seed: int = 0,
    exact: bool = False,
    max_vars: int = 8,
) -> ScoreEntry:
    """Align and score two prepared triple sets (variables are inferred)."""
    return _align_count(metric, triples_a, triples_b, restarts, seed, exact, max_vars)[0]


def fine_grained(
    a: SemGraph,
    b: SemGraph,
    metric: str,
    scheme: str = "wiser",
    restarts: int = 5,
    seed: int = 0,
    exact: bool = False,
    max_vars: int = 8,
) -> ScoreEntry:
    """Score one named metric for a (predicted, gold) pair.

    Alignment metrics are Smatch over a documented transform of the
    triple sets, with inverse edges flipped; ``concepts``, ``negations``,
    and ``named_entity`` compare bags directly. ``scheme`` selects the
    xSRL restriction set.
    """
    return score_corpus([a], [b], (metric,), scheme, restarts, seed, exact, max_vars)[1][0][metric]


def score_corpus(
    pred: Sequence[SemGraph],
    gold: Sequence[SemGraph],
    metrics: Sequence[str] = DEFAULT_METRICS,
    scheme: str = "wiser",
    restarts: int = 5,
    seed: int = 0,
    exact: bool = False,
    max_vars: int = 8,
) -> tuple[dict[str, ScoreEntry], list[dict[str, ScoreEntry]]]:
    """Micro-averaged corpus scores plus per-document entries.

    Documents are paired positionally (see :func:`pair_by_id`). Each pair
    is prepared once for all metrics and scored with the seed
    ``seed + i``, where ``i`` is its index, so every entry equals
    :func:`fine_grained` with that seed.
    """
    if len(pred) != len(gold):
        raise ValueError(f"corpus size mismatch: {len(pred)} predicted vs {len(gold)} gold")
    for m in metrics:
        if m not in METRIC_NAMES:
            raise ValueError(f"unknown metric {m!r}")
    per_doc = []
    for i, (a, b) in enumerate(zip(pred, gold)):
        ta, tb = _prepare(a), _prepare(b)
        entries = {}
        for m in metrics:
            bag = _BAGS.get(m)
            if bag:
                entries[m] = _bag_entry(m, bag(ta), bag(tb))
            else:
                entries[m], _ = _align_count(
                    m, transform_triples(ta, m, scheme), transform_triples(tb, m, scheme),
                    restarts, seed + i, exact, max_vars,
                )
        per_doc.append(entries)
    totals = {m: combine_entries(m, (doc[m] for doc in per_doc)) for m in metrics}
    return totals, per_doc


def pair_by_id(
    pred: Sequence[SemGraph],
    gold: Sequence[SemGraph],
) -> tuple[list[SemGraph], list[SemGraph]]:
    """Order ``pred`` to match ``gold`` by ``::id`` metadata.

    When any document of either corpus lacks an id, the corpora pair
    positionally and must be the same size. Raises ``ValueError`` on
    duplicate, missing, or unexpected ids.
    """
    pred_ids = [g.metadata.get("id") for g in pred]
    gold_ids = [g.metadata.get("id") for g in gold]
    if all(pred_ids) and all(gold_ids):
        by_id = dict(zip(pred_ids, pred))
        if len(by_id) != len(pred):
            raise ValueError("duplicate document ids in predicted corpus")
        gold_set = set(gold_ids)
        if len(gold_set) != len(gold_ids):
            raise ValueError("duplicate document ids in gold corpus")
        missing = [i for i in gold_ids if i not in by_id]
        extra = [i for i in pred_ids if i not in gold_set]
        if missing or extra:
            raise ValueError(
                "document-id mismatch between corpora"
                + (f"; missing from predicted: {', '.join(missing[:5])}" if missing else "")
                + (f"; unexpected in predicted: {', '.join(extra[:5])}" if extra else "")
            )
        return [by_id[i] for i in gold_ids], list(gold)
    if len(pred) != len(gold):
        raise ValueError(f"corpus size mismatch: {len(pred)} predicted vs {len(gold)} gold")
    return list(pred), list(gold)


@dataclass(frozen=True)
class NovelRecallReport:
    found: int
    total: int
    novel_concepts: tuple[str, ...]

    @property
    def recall(self) -> float | None:
        """Fraction of novel (document, concept) occurrences recovered; None if no novelty."""
        if self.total == 0:
            return None
        return self.found / self.total


def concept_vocabulary(corpus: Iterable[SemGraph]) -> frozenset[str]:
    return frozenset(c for g in corpus for _, c in g.instances)


def novel_predicate_recall(
    gold: Sequence[SemGraph],
    pred: Sequence[SemGraph],
    training_vocab: frozenset[str],
    filter_vocab: frozenset[str] | None = None,
) -> NovelRecallReport:
    """Recall on gold concepts unseen in training.

    A gold concept is novel when absent from ``training_vocab``; with a
    cross-scheme ``filter_vocab`` it must also be absent there once its
    sense id is stripped. The denominator counts (document, concept)
    occurrences, and a hit requires the concept among the paired
    predicted document's instance concepts.
    """
    if len(gold) != len(pred):
        raise ValueError(f"corpus size mismatch: {len(gold)} gold vs {len(pred)} predicted")
    found = 0
    total = 0
    novel: set[str] = set()
    for g, p in zip(gold, pred):
        pred_concepts = {c for _, c in p.instances}
        for concept in {c for _, c in g.instances}:
            if concept in training_vocab:
                continue
            if filter_vocab is not None and strip_sense(concept) in filter_vocab:
                continue
            novel.add(concept)
            total += 1
            if concept in pred_concepts:
                found += 1
    return NovelRecallReport(found=found, total=total, novel_concepts=tuple(sorted(novel)))


@dataclass(frozen=True)
class IaaBatch:
    group: str
    batch_id: str
    score: float


@dataclass(frozen=True)
class IaaReport:
    batches: tuple[IaaBatch, ...]

    @property
    def macro_averages(self) -> dict[str, float]:
        grouped: dict[str, list[float]] = defaultdict(list)
        for b in self.batches:
            grouped[b.group].append(b.score)
        return {group: sum(scores) / len(scores) for group, scores in sorted(grouped.items())}


def iaa_batch_score(
    corpus_a: Sequence[SemGraph],
    corpus_b: Sequence[SemGraph],
    restarts: int = 5,
    seed: int = 0,
) -> float:
    """Corpus-level agreement between two annotators' parallel corpora."""
    if len(corpus_a) != len(corpus_b):
        raise ValueError(
            f"batch size mismatch between annotators: {len(corpus_a)} vs {len(corpus_b)}"
        )
    totals, _ = score_corpus(corpus_a, corpus_b, ("smatch",), restarts=restarts, seed=seed)
    return totals["smatch"].f1


def iaa_report(batches: Iterable[IaaBatch]) -> IaaReport:
    """Per-batch scores plus unweighted per-group macro averages."""
    return IaaReport(batches=tuple(batches))


@dataclass(frozen=True)
class StatsRow:
    source: str
    sentences: int
    tokens: int
    concepts: int
    relations: int
    reentrancies: int
    negations: int
    named_entities: int
    missing_snt: int = 0

    def add(self, other: "StatsRow") -> "StatsRow":
        return replace(self, **{f.name: getattr(self, f.name) + getattr(other, f.name)
                                for f in fields(self) if f.name != "source"})


@dataclass(frozen=True)
class StatsReport:
    rows: tuple[StatsRow, ...]
    total: StatsRow
    warnings: tuple[str, ...] = ()


def _doc_stats(g: SemGraph, source: str) -> StatsRow:
    triples = _prepare(g)
    indegree: Counter[str] = Counter(t.target for t in triples if t.kind == "relation")
    snt = g.metadata.get("snt")
    return StatsRow(
        source=source,
        sentences=1,
        tokens=len(snt.split()) if snt else 0,
        concepts=sum(_concept_bag(triples).values()),
        relations=sum(1 for t in triples if t.kind in ("relation", "attribute")),
        reentrancies=sum(max(0, n - 1) for n in indegree.values()),
        negations=sum(_negation_bag(triples).values()),
        named_entities=sum(_name_bag(triples).values()),
        missing_snt=0 if snt else 1,
    )


def corpus_stats(corpus: Sequence[SemGraph], source_key: str | None = None) -> StatsReport:
    """Per-source and total corpus counts.

    Tokens come from whitespace-splitting each document's ``snt``
    metadata; documents without it are counted with a warning. Relations
    count edges plus attributes (instances and the top excluded);
    reentrancies sum max(0, in-degree - 1) over variables once inverse
    edges are flipped. Directed cycles are accepted.
    """
    by_source: dict[str, StatsRow] = {}
    total = StatsRow("total", 0, 0, 0, 0, 0, 0, 0)
    for g in corpus:
        source = g.metadata.get(source_key, "(unknown)") if source_key else "all"
        row = _doc_stats(g, source)
        by_source[source] = by_source[source].add(row) if source in by_source else row
        total = total.add(row)
    warnings = []
    if total.missing_snt:
        warnings.append(
            f"{total.missing_snt} document(s) lack 'snt' metadata; their token counts are omitted"
        )
    return StatsReport(
        rows=tuple(by_source.values()),
        total=total,
        warnings=tuple(warnings),
    )

"""Smatch alignment search (Cai & Knight 2013).

The search looks for the injective variable mapping from graph A's triples
to graph B's that matches the most triples. Both sides are interned once
per pair in a :class:`PairIndex`, and a mapping is a list of B variable
numbers indexed by A variable number, -1 for an unmapped variable.

:func:`align` runs one seeded start (each A variable goes to the first free
B variable of the same concept) plus random restarts, each improved by
hill climbing over single reassigns and swaps. The climb scores each move
by the change it makes to the matched count: only the triples that touch
the moved variables are looked at. Each gain is exact, so every step
raises the count and the climb ends. The restarts stop early once a climb
reaches the label-bag bound, which no mapping can exceed; only a strictly
better mapping replaces the best, so the early stop changes no count and
no mapping. :func:`align_exact` tries every injective mapping of the
smaller side, so it is provably optimal and refused past ``max_vars``.
All results are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from .graph import Triple


@dataclass(frozen=True)
class Alignment:
    """Injective partial variable mapping and its matched-triple count."""

    mapping: tuple[tuple[str, str], ...]
    matched: int


def _variables(triples: Sequence[Triple]) -> tuple[str, ...]:
    found = set()
    for kind, source, _, target in triples:
        found.add(source)
        if kind == "relation":
            found.add(target)
    return tuple(sorted(found))


class PairIndex:
    """One pair of triple sets with variables and relation labels interned
    to ints, built when the pair is aligned and dropped with it.

    Each side is deduped and sorted, and its variables are numbered in
    sorted order, so integer order is the search's move order.
    ``weights[a]`` is row ``a`` of the |V_a| x |V_b| table with its zero
    cells left out: for each image ``b``, how many of the triples that touch
    only ``a`` (instance, attribute, top, and relations from ``a`` to
    itself) are in B once ``a`` maps to ``b``. ``incident[a]`` lists the
    other relation triples ``(s, label, t)`` that touch ``a``, and
    ``neighbours[a]`` the variables at their other end. B's relations are a
    set, and are also indexed by ``(label, target)`` and ``(source,
    label)``. ``instance_images`` pairs each A instance triple, in order,
    with the B variables of the same concept.
    """

    def __init__(self, triples_a: Iterable[Triple], triples_b: Iterable[Triple]) -> None:
        self.triples_a = tuple(sorted(set(triples_a)))
        self.triples_b = tuple(sorted(set(triples_b)))
        self.variables_a = _variables(self.triples_a)
        self.variables_b = _variables(self.triples_b)
        ids_a = {v: i for i, v in enumerate(self.variables_a)}
        ids_b = {v: i for i, v in enumerate(self.variables_b)}
        labels: dict[str, int] = {}
        images: dict[tuple, list[int]] = defaultdict(list)  # B variables by what they carry
        self.relations_b: set[tuple[int, int, int]] = set()
        self.sources_b: dict[tuple[int, int], list[int]] = defaultdict(list)
        self.targets_b: dict[tuple[int, int], list[int]] = defaultdict(list)
        for kind, source, label, target in self.triples_b:
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
        n = len(self.variables_a)
        self.weights: list[dict[int, int]] = [{} for _ in range(n)]
        self.incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.neighbours: list[set[int]] = [set() for _ in range(n)]
        self.relations_a: list[tuple[int, int, int]] = []
        self.instance_images: list[tuple[int, list[int]]] = []
        for kind, source, label, target in self.triples_a:
            a = ids_a[source]
            if kind == "relation":
                rel = (a, labels.setdefault(label, len(labels)), ids_a[target])
                if rel[2] != a:
                    self.relations_a.append(rel)
                    for v, other in ((a, rel[2]), (rel[2], a)):
                        self.incident[v].append(rel)
                        self.neighbours[v].add(other)
                    continue
                key: tuple = ("loop", rel[1])
            else:
                key = (kind, label, target)
                if kind == "instance":
                    self.instance_images.append((a, images.get(key, [])))
            row = self.weights[a]
            for b in images.get(key, ()):
                row[b] = row.get(b, 0) + 1

    def count(self, m: Sequence[int]) -> int:
        """The number of A triples that mapping ``m`` matches in B."""
        rel_b = self.relations_b
        return (sum(w.get(b, 0) for w, b in zip(self.weights, m))
                + sum((m[s], label, m[t]) in rel_b for s, label, t in self.relations_a))

    def fit(self, a: int, m: list[int]) -> dict[int, int]:
        """For each image ``b``, the triples of ``a`` that match when ``a``
        alone maps to ``b`` and every other variable keeps its image in
        ``m``; images that match nothing are left out."""
        fit = dict(self.weights[a])
        for s, label, t in self.incident[a]:
            if s == a:
                found = self.sources_b.get((label, m[t]), ())
            else:
                found = self.targets_b.get((m[s], label), ())
            for b in found:
                fit[b] = fit.get(b, 0) + 1
        return fit

    def alignment(self, m: Sequence[int], matched: int) -> Alignment:
        va, vb = self.variables_a, self.variables_b
        return Alignment(tuple((va[a], vb[b]) for a, b in enumerate(m) if b >= 0), matched)


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

    def __init__(self, index: PairIndex, m: Sequence[int]) -> None:
        self.index = index
        self.m = list(m)
        self.used = {b for b in self.m if b >= 0}
        self.score = index.count(self.m)
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


def _hill_climb(index: PairIndex, start: Sequence[int]) -> tuple[list[int], int]:
    """Take the first strictly best positive move until none is left.

    No move unmaps a variable on its own: dropping a pair can only lose
    matches, and only a move with a positive gain is taken. Each gain is the
    exact change in the matched count, so the score rises on every step and
    the climb ends.
    """
    climb = _Climb(index, start)
    while (move := climb.best_move()) is not None:
        climb.apply(*move)
    return climb.m, climb.score


def _seeded_start(index: PairIndex) -> list[int]:
    """Each A instance, in order, takes the first free B variable of its concept."""
    m = [-1] * len(index.variables_a)
    used: set[int] = set()
    for a, candidates in index.instance_images:
        for b in candidates:
            if b not in used:
                m[a] = b
                used.add(b)
                break
    return m


def _random_start(index: PairIndex, rng: random.Random) -> list[int]:
    n = len(index.variables_a)
    targets = list(range(len(index.variables_b)))
    targets += [-1] * (n - len(targets))
    rng.shuffle(targets)
    return targets[:n]


def _label_bound(index: PairIndex) -> int:
    """Most triples any mapping can match: per ``(kind, label)`` for
    relations and ``(kind, label, target)`` otherwise, the smaller count."""

    def bag(triples: Sequence[Triple]) -> Counter:
        return Counter((t.kind, t.label, None if t.kind == "relation" else t.target)
                       for t in triples)

    bag_b = bag(index.triples_b)
    return sum(min(n, bag_b[key]) for key, n in bag(index.triples_a).items())


def align(index: PairIndex, restarts: int, seed: int) -> Alignment:
    """The best of one seeded and ``restarts - 1`` random climbs."""
    bound = _label_bound(index)
    rng = random.Random(seed)
    best: tuple[list[int], int] | None = None
    for i in range(max(1, restarts)):
        start = _seeded_start(index) if i == 0 else _random_start(index, rng)
        m, score = _hill_climb(index, start)
        if best is None or score > best[1]:
            best = (m, score)
        if best[1] == bound:
            # Certified optimal: a later restart cannot do strictly better,
            # and only a strictly better one replaces the best.
            break
    return index.alignment(*best)


def _placed(image: tuple[int, ...], n: int) -> list[int]:
    """The mapping that sends A variable ``image[b]`` to ``b``."""
    m = [-1] * n
    for b, a in enumerate(image):
        m[a] = b
    return m


def align_exact(index: PairIndex, max_vars: int) -> Alignment:
    """The first best of all injective mappings of the smaller side, in
    permutation order; refused when that side has more than ``max_vars``
    variables."""
    na, nb = len(index.variables_a), len(index.variables_b)
    if min(na, nb) > max_vars:
        raise ValueError(
            f"exhaustive alignment refused: smaller graph has {min(na, nb)} variables "
            f"(bound {max_vars})"
        )
    if na <= nb:
        candidates: Iterable[Sequence[int]] = permutations(range(nb), na)
    else:
        candidates = (_placed(image, na) for image in permutations(range(na), nb))
    best_m: Sequence[int] = ()
    best = -1
    for m in candidates:
        score = index.count(m)
        if score > best:
            best_m, best = m, score
    return index.alignment(best_m, best)

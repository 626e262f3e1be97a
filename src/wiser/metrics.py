"""Graph-matching evaluation: Smatch, fine-grained metrics, agreement, stats.

Smatch scores precision against the predicted graph's triples and recall
against the gold graph's, over the best variable alignment that
:mod:`wiser.align` finds. Fine-grained metrics are Smatch over a
transformed or restricted triple set, or bag F1 where no alignment is
needed. All scoring is deterministic for a fixed seed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

from .align import Alignment, PairIndex, align, align_exact
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
    index = PairIndex(triples_a, triples_b)
    alignment = align_exact(index, max_vars) if exact else align(index, restarts, seed)
    entry = ScoreEntry(metric, alignment.matched, len(index.triples_a), len(index.triples_b))
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

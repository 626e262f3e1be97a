"""Seeded inputs of the three workloads.

Every input is a function of the workload name, the seed and the size
settings, so the same seed gives byte-identical files. The program only
ever sees the files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from refgraph import Doc, is_inverse, parse_doc, split_blocks, write_doc

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
CORPUS50 = DATA / "corpus50.txt"
GOLDEN = DATA / "golden" / "corpus50_wiser.txt"
CATALOG = DATA / "fixture_catalog.tsv"

# Shares of the gold variables, edges and attributes whose concept is swapped,
# whose role is swapped, and which are dropped on the predicted side. The
# shares are exact over each corpus, so totals move little between seeds.
CONCEPT_SWAP = 0.10
ROLE_SWAP = 0.10
ATTRIBUTE_DROP = 0.20

# Size bands of score-long, by gold variable count.
BANDS = ((15, 19), (20, 24), (25, 29), (30, 35))


def band_of(n_vars: int) -> str:
    for lo, hi in BANDS:
        if lo <= n_vars <= hi:
            return f"{lo}-{hi}"
    return "other"


@dataclass
class ConvertInput:
    path: Path
    ids: list[str]                  # input order
    base_of: dict[str, str]         # fresh id -> corpus50 id


@dataclass
class ScoreInput:
    files: list[tuple[Path, Path]]  # (gold, pred) corpus files, one command each
    gold: list[Doc]                 # gold order (the order the commands score in)
    pred: dict[str, Doc]            # by id
    planted: dict[str, dict[str, str]]  # id -> pred variable -> gold variable


def _replace_id(block: str, new_id: str) -> tuple[str, str]:
    lines = block.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("# ::id "):
            old = line[len("# ::id "):].strip()
            lines[i] = f"# ::id {new_id}"
            return old, "\n".join(lines)
    raise ValueError("document without an id in a bundled corpus")


def _write(path: Path, blocks: list[str]) -> None:
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def make_convert(work: Path, seed: int, replicas: int) -> ConvertInput:
    """corpus50 replicated ``replicas`` times under fresh ids, in seeded order."""
    rng = random.Random(f"convert:{seed}")
    blocks = split_blocks(CORPUS50.read_text(encoding="utf-8"))
    items = blocks * replicas
    rng.shuffle(items)
    out, ids, base_of = [], [], {}
    tag = rng.randrange(16 ** 6)
    for k, block in enumerate(items):
        new_id = f"c{tag:06x}-{k:06d}"
        old, text = _replace_id(block, new_id)
        out.append(text)
        ids.append(new_id)
        base_of[new_id] = old
    path = work / "convert_in.txt"
    _write(path, out)
    return ConvertInput(path, ids, base_of)


def perturb(gold: Doc, rng: random.Random, concept_pool: list[str], roles: tuple[list[str], list[str]],
            swap_vars: set[str], swap_edges: set[int], drop_attrs: set[int]) -> tuple[Doc, dict[str, str]]:
    """A parser-like prediction of ``gold`` and the planted correspondence.

    Every variable is renamed; the chosen variables get another concept, the
    chosen edges another role and the chosen attributes are dropped. A
    swapped role keeps its direction class, so the prediction normalizes to
    an acyclic graph whenever the gold does.
    """
    names = [f"z{i}" for i in range(len(gold.instances))]
    rng.shuffle(names)
    rename = {v: n for (v, _), n in zip(gold.instances, names)}
    instances = []
    for v, c in gold.instances:
        if v in swap_vars:
            c = rng.choice([x for x in concept_pool if x != c] or [c])
        instances.append((rename[v], c))
    edges: list[tuple[str, str, str]] = []
    for j, (s, r, t) in enumerate(gold.edges):
        if j in swap_edges:
            swapped = rng.choice(roles[1] if is_inverse(r) else roles[0])
            if (rename[s], swapped, rename[t]) not in edges:
                r = swapped
        edges.append((rename[s], r, rename[t]))
    attributes = [(rename[s], r, v) for j, (s, r, v) in enumerate(gold.attributes) if j not in drop_attrs]
    pred = Doc(rename[gold.root], instances, edges, attributes, meta=[("id", gold.id)])
    return pred, {n: v for v, n in rename.items()}


def _choose(rng: random.Random, items: list, rate: float) -> dict[int, set]:
    """Exactly round(rate * len(items)) of the (doc index, key) items, by doc."""
    chosen: dict[int, set] = {}
    for i, key in rng.sample(items, round(rate * len(items))):
        chosen.setdefault(i, set()).add(key)
    return chosen


def _role_pools(docs: list[Doc]) -> tuple[list[str], list[str]]:
    found = sorted({r for d in docs for _, r, _ in d.edges})
    return [r for r in found if not is_inverse(r)], [r for r in found if is_inverse(r)]


def _score_files(work: Path, rng: random.Random, gold_blocks: list[str], gold_docs: list[Doc],
                 concept_pool: list[str], roles, per_pair: bool) -> ScoreInput:
    planted, preds = {}, {}
    swap_vars = _choose(rng, [(i, v) for i, d in enumerate(gold_docs) for v, _ in d.instances], CONCEPT_SWAP)
    swap_edges = _choose(rng, [(i, j) for i, d in enumerate(gold_docs) for j in range(len(d.edges))], ROLE_SWAP)
    drop_attrs = _choose(rng, [(i, j) for i, d in enumerate(gold_docs) for j in range(len(d.attributes))],
                         ATTRIBUTE_DROP)
    for i, doc in enumerate(gold_docs):
        preds[doc.id], planted[doc.id] = perturb(doc, rng, concept_pool, roles, swap_vars.get(i, set()),
                                                 swap_edges.get(i, set()), drop_attrs.get(i, set()))
    groups = [[i] for i in range(len(gold_docs))] if per_pair else [list(range(len(gold_docs)))]
    files = []
    for k, group in enumerate(groups):
        order = [gold_docs[i].id for i in group]
        rng.shuffle(order)
        gold_path, pred_path = work / f"gold{k}.txt", work / f"pred{k}.txt"
        _write(gold_path, [gold_blocks[i] for i in group])
        _write(pred_path, [write_doc(preds[i]) for i in order])
        files.append((gold_path, pred_path))
    return ScoreInput(files, gold_docs, preds, planted)


def make_dialogue(work: Path, seed: int, replicas: int) -> ScoreInput:
    """Gold: the golden WISeR conversion of corpus50, replicated under fresh
    ids. Prediction: a seeded perturbation of each gold document, written
    in shuffled order."""
    rng = random.Random(f"score-dialogue:{seed}")
    base_blocks = split_blocks(GOLDEN.read_text(encoding="utf-8"))
    base_docs = [parse_doc(b) for b in base_blocks]
    concept_pool = sorted({c for d in base_docs for _, c in d.instances})
    roles = _role_pools(base_docs)
    tag = rng.randrange(16 ** 6)
    blocks, docs = [], []
    for _ in range(replicas):
        for block in base_blocks:
            new_id = f"g{tag:06x}-{len(blocks):05d}"
            _, text = _replace_id(block, new_id)
            blocks.append(text)
            docs.append(parse_doc(text))
    return _score_files(work, rng, blocks, docs, concept_pool, roles, per_pair=False)


# AMR-like vocabulary of the synthetic long graphs: a large pool of mostly
# sense-bearing concepts, and a few concepts that recur within a graph.
FREQUENT = ("person", "thing", "and", "name", "i", "you", "have-rel-role-91", "possible-01")
ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "st", "tr", "pl")
VOWELS = ("a", "e", "i", "o", "u", "ea", "ou")
CORE = (":ARG0", ":ARG1", ":ARG2", ":ARG3")
NONCORE = (":mod", ":time", ":location", ":manner", ":purpose", ":degree")
INVERSE = (":ARG0-of", ":ARG1-of", ":ARG2-of", ":part-of")


def _lemma(rng: random.Random) -> str:
    return "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 3)))


def long_graph(rng: random.Random, n: int, doc_id: str) -> Doc:
    """A connected, acyclic-after-normalization graph of ``n`` variables.

    A random tree (a tenth of its edges written as '-of' inverses), n // 6
    reentrant edges (none that would close a directed cycle), two name parts
    on each ``name`` node, and negations and quantities on fixed shares of
    the variables.
    """
    variables = [f"v{i}" for i in range(n)]
    concepts = []
    for _ in variables:
        if rng.random() < 0.2:
            concepts.append(rng.choice(FREQUENT))
        elif rng.random() < 0.7:
            concepts.append(f"{_lemma(rng)}-{rng.randint(1, 5):02d}")
        else:
            concepts.append(_lemma(rng))
    edges: list[tuple[str, str, str]] = []
    attributes: list[tuple[str, str, str]] = []
    succ: dict[str, set[str]] = {v: set() for v in variables}  # base-direction edges

    def reaches(a: str, b: str) -> bool:
        stack, seen = [a], {a}
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for y in succ[x] - seen:
                seen.add(y)
                stack.append(y)
        return False

    for i in range(1, n):
        parent, child = variables[rng.randrange(i)], variables[i]
        if concepts[i] == "name":
            role = ":name"
            attributes += [(child, ":op1", _lemma(rng).capitalize()), (child, ":op2", _lemma(rng).capitalize())]
        elif rng.random() < 0.1:
            role = rng.choice(INVERSE)
        else:
            role = rng.choice(CORE if rng.random() < 0.7 else NONCORE)
        edges.append((parent, role, child))
        if is_inverse(role):
            succ[child].add(parent)
        else:
            succ[parent].add(child)
    reentrant = 0
    for _ in range(100):
        if reentrant == n // 6:
            break
        s, t = rng.sample(variables, 2)
        if any(e[0] == s and e[2] == t for e in edges) or reaches(t, s):
            continue
        edges.append((s, rng.choice(CORE), t))
        succ[s].add(t)
        reentrant += 1
    predicates = [v for v, c in zip(variables, concepts) if c[-3:-2] == "-"]
    for v in rng.sample(predicates, min(len(predicates), round(0.08 * n))):
        attributes.append((v, ":polarity", "-"))
    for v in rng.sample(variables, round(0.05 * n)):
        attributes.append((v, ":quant", str(rng.randint(2, 999))))
    return Doc("v0", list(zip(variables, concepts)), edges, attributes, meta=[("id", doc_id)])


def make_long(work: Path, seed: int, sizes: tuple[int, ...]) -> ScoreInput:
    """One synthetic gold graph per entry of ``sizes`` and its perturbation,
    each pair in its own pair of files."""
    rng = random.Random(f"score-long:{seed}")
    tag = rng.randrange(16 ** 6)
    docs = [long_graph(rng, n, f"l{tag:06x}-{k:03d}") for k, n in enumerate(sizes)]
    blocks = [write_doc(d) for d in docs]
    docs = [parse_doc(b) for b in blocks]
    concept_pool = sorted({c for d in docs for _, c in d.instances})
    return _score_files(work, rng, blocks, docs, concept_pool, _role_pools(docs), per_pair=True)

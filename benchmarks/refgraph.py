"""The benchmark's own graph code: a small PENMAN reader and writer, and the
triple, bag and alignment computations that the output checks compare the
program against.

It does not import the ``wiser`` package, so a fault in the program cannot
hide itself by also being in the reference.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations

TOKEN_RE = re.compile(r'"[^"]*"|[()/]|[^\s()/"]+')
META_RE = re.compile(r"^#\s*::(\S+)\s?(.*)$")
CONSTANT_RE = re.compile(r"^([+-]?\d+(\.\d+)?|[-+]|interrogative|imperative|expressive)$")
SENSE_RE = re.compile(r"^(.+)-(\d{2,3})$")
NUMBERED_RE = re.compile(r"^:ARG\d(-of)?$")

# '-of'-final roles that are base forms, not inverses (the method's definition).
NON_INVERTIBLE = frozenset({":consist-of", ":prep-out-of", ":prep-on-behalf-of"})


def is_inverse(role: str) -> bool:
    return role.endswith("-of") and role not in NON_INVERTIBLE


@dataclass
class Doc:
    """One corpus document: metadata, root, and triples in file order."""

    root: str
    instances: list[tuple[str, str]]
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    attributes: list[tuple[str, str, str]] = field(default_factory=list)
    meta: list[tuple[str, str]] = field(default_factory=list)

    @property
    def id(self) -> str | None:
        return dict(self.meta).get("id")

    @property
    def concepts(self) -> dict[str, str]:
        return dict(self.instances)


def split_blocks(text: str) -> list[str]:
    """Blank-line separated document blocks."""
    blocks, lines = [], []
    for line in text.split("\n"):
        if line.strip():
            lines.append(line)
        elif lines:
            blocks.append("\n".join(lines))
            lines = []
    if lines:
        blocks.append("\n".join(lines))
    return blocks


def parse_doc(block: str) -> Doc:
    meta, body = [], []
    for line in block.split("\n"):
        m = META_RE.match(line.strip())
        if m and not body:
            meta.append((m.group(1), m.group(2).strip()))
        elif not line.lstrip().startswith("#"):
            body.append(line)
    tokens = TOKEN_RE.findall("\n".join(body))
    pos = 0
    concepts: dict[str, str] = {}
    order: list[str] = []
    links: list[tuple[str, str, str, bool]] = []  # (source, role, target, nested)

    def node() -> str:
        nonlocal pos
        if tokens[pos] != "(" or tokens[pos + 2] != "/":
            raise ValueError(f"malformed node at token {pos}: {tokens[pos:pos + 3]}")
        var, concept = tokens[pos + 1], tokens[pos + 3]
        pos += 4
        if var not in concepts:
            concepts[var] = concept
            order.append(var)
        while tokens[pos] != ")":
            role = tokens[pos]
            if not role.startswith(":"):
                raise ValueError(f"expected a role, found {role!r}")
            pos += 1
            if tokens[pos] == "(":
                links.append((var, role, node(), True))
            else:
                links.append((var, role, tokens[pos], False))
                pos += 1
        pos += 1
        return var

    root = node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after the graph: {tokens[pos:pos + 3]}")
    doc = Doc(root, [(v, concepts[v]) for v in order], meta=meta)
    for source, role, target, nested in links:
        if nested or (not target.startswith('"') and target in concepts):
            doc.edges.append((source, role, target))
        elif target.startswith('"'):
            doc.attributes.append((source, role, target[1:-1]))
        elif CONSTANT_RE.match(target):
            doc.attributes.append((source, role, target))
        else:
            raise ValueError(f"dangling variable reference {target!r}")
    return doc


def read_docs(text: str) -> list[Doc]:
    return [parse_doc(block) for block in split_blocks(text)]


def write_doc(doc: Doc) -> str:
    """PENMAN text of ``doc``; every edge is written from its stored source."""
    out_edges: dict[str, list[tuple[str, str]]] = {v: [] for v, _ in doc.instances}
    for s, r, t in doc.edges:
        out_edges[s].append((r, t))
    attrs: dict[str, list[tuple[str, str]]] = {v: [] for v, _ in doc.instances}
    for s, r, v in doc.attributes:
        attrs[s].append((r, v))
    concepts = doc.concepts
    seen: set[str] = set()

    def render(var: str, depth: int) -> str:
        seen.add(var)
        pad = "\n" + "    " * (depth + 1)
        parts = [f"({var} / {concepts[var]}"]
        for role, target in out_edges[var]:
            parts.append(f"{pad}{role} " + (target if target in seen else render(target, depth + 1)))
        for role, value in attrs[var]:
            parts.append(f"{pad}{role} " + (value if CONSTANT_RE.match(value) else f'"{value}"'))
        return "".join(parts) + ")"

    body = render(doc.root, 0)
    if len(seen) != len(concepts):
        raise ValueError("document has variables unreachable from its root")
    return "\n".join([f"# ::{k} {v}".rstrip() for k, v in doc.meta] + [body])


def triples(doc: Doc) -> frozenset[tuple]:
    """Smatch triples: instances, relations in base direction, attributes, top."""
    concepts = doc.concepts
    out = {("instance", v, c, None) for v, c in doc.instances}
    for s, r, t in doc.edges:
        out.add(("relation", t, r[:-3], s) if is_inverse(r) else ("relation", s, r, t))
    out |= {("attribute", s, r, v) for s, r, v in doc.attributes}
    out.add(("top", doc.root, ":top", concepts[doc.root]))
    return frozenset(out)


def unlabeled(ts) -> frozenset[tuple]:
    return frozenset((k, s, ":rel", t) if k in ("relation", "attribute") else (k, s, l, t)
                     for k, s, l, t in ts)


def strip_sense(concept: str) -> str:
    m = SENSE_RE.match(concept)
    return m.group(1) if m else concept


def no_wsd(ts) -> frozenset[tuple]:
    out = set()
    for k, s, l, t in ts:
        if k == "instance":
            l = strip_sense(l)
        elif k == "top":
            t = strip_sense(t)
        out.add((k, s, l, t))
    return frozenset(out)


def concept_bag(ts) -> Counter:
    return Counter(l for k, _, l, _ in ts if k == "instance")


def negation_bag(ts) -> Counter:
    concepts = {s: l for k, s, l, _ in ts if k == "instance"}
    return Counter(concepts[s] for k, s, l, t in ts
                   if k == "attribute" and l == ":polarity" and t == "-")


def name_bag(ts) -> Counter:
    concepts = {s: l for k, s, l, _ in ts if k == "instance"}
    ops: dict[str, list[tuple[int, str]]] = {}
    for k, s, l, t in ts:
        if k == "attribute" and l.startswith(":op") and l[3:].isdigit():
            ops.setdefault(s, []).append((int(l[3:]), t))
    return Counter((concepts[s], tuple(v for _, v in sorted(ops.get(t, ()))))
                   for k, s, l, t in ts if k == "relation" and l == ":name")


BAGS = {"concepts": concept_bag, "negations": negation_bag, "named_entity": name_bag}


def bag_counts(metric: str, pred_ts, gold_ts) -> tuple[int, int, int]:
    """(matched, total_pred, total_gold) as a multiset intersection."""
    a, b = BAGS[metric](pred_ts), BAGS[metric](gold_ts)
    return sum((a & b).values()), sum(a.values()), sum(b.values())


def variables(ts) -> list[str]:
    return sorted({s for k, s, _, _ in ts if k == "instance"})


def mapped_count(pred_ts, gold_ts, mapping: dict[str, str]) -> int:
    """Pred triples whose image under ``mapping`` is a gold triple."""
    n = 0
    for k, s, l, t in pred_ts:
        ms = mapping.get(s)
        if ms is None:
            continue
        if k == "relation":
            mt = mapping.get(t)
            n += mt is not None and (k, ms, l, mt) in gold_ts
        else:
            n += (k, ms, l, t) in gold_ts
    return n


def brute_force_optimum(pred_ts, gold_ts) -> int:
    """Best matched count over every injective variable mapping.

    Mapping one more variable never loses a match, so only maps that cover
    the smaller graph are tried.
    """
    va, vb = variables(pred_ts), variables(gold_ts)
    best = 0
    if len(va) <= len(vb):
        for image in permutations(vb, len(va)):
            best = max(best, mapped_count(pred_ts, gold_ts, dict(zip(va, image))))
    else:
        for image in permutations(va, len(vb)):
            best = max(best, mapped_count(pred_ts, gold_ts, dict(zip(image, vb))))
    return best

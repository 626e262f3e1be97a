"""Output checks of each workload.

Each check compares the program's output with a computation in
``refgraph`` or with a property the method must have. A check that does not
hold is a failure; a pair whose Smatch falls below its planted
correspondence is a failed operation instead (see ``check_score``).
"""

from __future__ import annotations

import random

from inputs import GOLDEN, ConvertInput, ScoreInput
from refgraph import (NUMBERED_RE, SENSE_RE, BAGS, bag_counts, brute_force_optimum, mapped_count,
                      no_wsd, read_docs, triples, unlabeled)

# The method's default excluded senses, and the reified senses whose roles
# ship as built-in overrides (kept even when the catalog lacks them).
EXCLUDED_SENSES = frozenset({
    "byline-91", "street-address-91", "course-91",
    "distribution-range-91", "publication-91", "statistical-test-91",
})
OVERRIDE_SENSES = frozenset({("have-rel-role", "91"), ("have-org-role", "91"), ("have-degree", "91")})

ALIGNMENT_METRICS = ("smatch", "unlabeled", "no_wsd", "xsrl", "reentrancies")
BRUTE_FORCE = {"smatch": lambda ts: ts, "unlabeled": unlabeled, "no_wsd": no_wsd}


class Failures(list):
    def expect(self, condition: bool, message: str) -> None:
        if not condition and len(self) < 50:
            self.append(message)


def catalog_senses(path) -> set[tuple[str, str]]:
    senses = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if line.strip() and not line.lstrip().startswith("#") and len(fields) == 6:
            senses.add((fields[0].strip(), fields[1].strip()))
    return senses


def expected_drops(docs, senses) -> dict[str, tuple[str, str]]:
    """Direct scan: excluded senses first, then senses absent from the catalog."""
    drops = {}
    for doc in docs:
        concepts = [c for _, c in doc.instances]
        excluded = [c for c in concepts if c in EXCLUDED_SENSES]
        if excluded:
            drops[doc.id] = ("excluded", excluded[0])
            continue
        for c in concepts:
            m = SENSE_RE.match(c)
            if m and (m.group(1), m.group(2)) not in senses and (m.group(1), m.group(2)) not in OVERRIDE_SENSES:
                drops[doc.id] = ("adhoc", c)
                break
    return drops


def parse_report(text: str) -> tuple[dict[str, int], dict[str, tuple[str, str]]]:
    counts, drops = {}, {}
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "drop":
            drops[fields[1]] = (fields[2], fields[3])
        elif len(fields) == 2:
            counts[fields[0]] = int(fields[1])
    return counts, drops


def check_convert(inp: ConvertInput, output_text: str, report_text: str, catalog_path) -> tuple[Failures, int]:
    """Checks of one conversion; returns the failures and the matched triples
    (output triples that equal the golden conversion's)."""
    from wiser.codec import read_corpus_text

    failures = Failures()
    try:
        reparsed = read_corpus_text(output_text)
    except ValueError as exc:
        failures.append(f"written corpus does not parse again: {exc}")
        reparsed = None
    counts, drops = parse_report(report_text)
    n_drops = sum(counts.get(k, 0) for k in ("dropped_adhoc", "dropped_excluded", "dropped_unmapped"))
    failures.expect(counts.get("sentences_in") == len(inp.ids), f"sentences_in {counts.get('sentences_in')}")
    failures.expect(counts.get("sentences_in") == counts.get("sentences_out", -1) + n_drops,
                    "sentences_in != sentences_out + drops")

    inputs = {d.id: d for d in read_docs(inp.path.read_text(encoding="utf-8"))}
    expected = expected_drops([inputs[i] for i in inp.ids], catalog_senses(catalog_path))
    failures.expect(drops == expected, f"drops differ from the direct scan: {len(drops)} vs {len(expected)}")
    out_docs = read_docs(output_text)
    failures.expect(reparsed is None or len(reparsed) == len(out_docs), "reparsed document count")
    failures.expect(counts.get("sentences_out") == len(out_docs), "sentences_out != documents written")
    failures.expect([d.id for d in out_docs] == [i for i in inp.ids if i not in expected],
                    "written ids are not the kept input ids in input order")

    golden = {d.id: triples(d) for d in read_docs(GOLDEN.read_text(encoding="utf-8"))}
    matched = 0
    for doc in out_docs:
        src = inputs.get(doc.id)
        if src is None:
            failures.append(f"{doc.id}: not an input id")
            continue
        failures.expect(doc.root == src.root, f"{doc.id}: root changed")
        failures.expect([v for v, _ in doc.instances] == [v for v, _ in src.instances], f"{doc.id}: variables changed")
        failures.expect([(s, t) for s, _, t in doc.edges] == [(s, t) for s, _, t in src.edges],
                        f"{doc.id}: edge endpoints changed")
        failures.expect(doc.attributes == src.attributes, f"{doc.id}: attributes changed")
        failures.expect(not any(NUMBERED_RE.match(r) for _, r, _ in doc.edges), f"{doc.id}: :ARGn label left")
        failures.expect(not any(SENSE_RE.match(c) for _, c in doc.instances), f"{doc.id}: sense suffix left")
        mine, gold = triples(doc), golden[inp.base_of[doc.id]]
        failures.expect(mine == gold, f"{doc.id}: triples differ from golden {inp.base_of[doc.id]}")
        matched += len(mine & gold)
    return failures, matched


def parse_score_lines(text: str, metrics) -> tuple[dict[str, tuple[int, int, int]], dict[str, dict]]:
    """Corpus totals (summed over the commands whose output is joined in
    ``text``) and per-document entries from ``wiser score`` output."""
    totals, per_doc = {}, {}
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "doc" and len(fields) == 9:
            per_doc.setdefault(fields[1], {})[fields[2]] = tuple(int(x) for x in fields[6:9])
        elif fields[0] in metrics and len(fields) == 7:
            counts = tuple(int(x) for x in fields[4:7])
            totals[fields[0]] = tuple(a + b for a, b in zip(totals.get(fields[0], (0, 0, 0)), counts))
    return totals, per_doc


def check_score(inp: ScoreInput, per_doc: dict, totals: dict, metrics,
                brute_sample: int, seed: int) -> tuple[Failures, list[str], int]:
    """Checks of one scored input, given the command's corpus totals and its
    (matched, total_pred, total_gold) per gold id and metric; returns the
    failures, the ids of pairs whose Smatch falls below the planted
    correspondence, and the matched triples summed over the alignment
    metrics scored."""
    failures = Failures()
    for m in metrics:
        summed = tuple(sum(e[m][k] for e in per_doc.values()) for k in range(3))
        failures.expect(summed == totals.get(m), f"{m}: per-document entries do not sum to the total")
    below_planted = []
    smatch_pred = smatch_gold = 0
    for gold in inp.gold:
        entries = per_doc.get(gold.id)
        if entries is None:
            failures.append(f"{gold.id}: no per-document entry")
            continue
        pred_ts, gold_ts = triples(inp.pred[gold.id]), triples(gold)
        for m in metrics:
            matched, tp, tg = entries[m]
            failures.expect(matched <= min(tp, tg), f"{gold.id} {m}: matched above min(total_pred, total_gold)")
            if m in BAGS:
                failures.expect((matched, tp, tg) == bag_counts(m, pred_ts, gold_ts),
                                f"{gold.id} {m}: {entries[m]} != multiset intersection")
        if "smatch" in metrics:
            matched, tp, tg = entries["smatch"]
            failures.expect((tp, tg) == (len(pred_ts), len(gold_ts)), f"{gold.id}: smatch triple counts")
            smatch_pred += len(pred_ts)
            smatch_gold += len(gold_ts)
            if matched < mapped_count(pred_ts, gold_ts, inp.planted[gold.id]):
                below_planted.append(gold.id)
    if "smatch" in metrics:
        failures.expect(totals.get("smatch", (0,))[1:] == (smatch_pred, smatch_gold), "smatch totals")

    sample = random.Random(f"brute:{seed}").sample(inp.gold, min(brute_sample, len(inp.gold)))
    for gold in sample:
        for m, transform in BRUTE_FORCE.items():
            if m not in metrics or gold.id not in per_doc:
                continue
            pred_ts, gold_ts = transform(triples(inp.pred[gold.id])), transform(triples(gold))
            matched, tp, tg = per_doc[gold.id][m]
            failures.expect((tp, tg) == (len(pred_ts), len(gold_ts)), f"{gold.id} {m}: triple counts")
            failures.expect(matched <= brute_force_optimum(pred_ts, gold_ts),
                            f"{gold.id} {m}: matched above the brute-force optimum")
    matched_triples = sum(totals[m][0] for m in metrics if m in ALIGNMENT_METRICS)
    return failures, below_planted, matched_triples

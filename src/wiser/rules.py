"""Feature-conditional mapping from numbered frame arguments to thematic roles.

A rule tests an argument's number, function tag, VerbNet roles, and
description keywords; the first rule (lowest priority index) whose
conditions all hold assigns the role. Arguments no rule covers fall back
to an override table keyed by (predicate, sense, argument number), and
otherwise stay unmapped: unmapped is a value surfaced for triage, never a
silent default.

Rule syntax, one rule per line::

    +ARG1 & +VSP & +asset -> theme

Atoms are signed. ``+ARGn``/``-ARGn`` constrain the argument number and
``+TAG`` names the required function tag. A signed bare word or
pipe-joined alternation (``+recipient|beneficiary``) tests VerbNet role
membership: ``+`` requires at least one listed role, ``-`` forbids all
of them. A signed parenthesized alternation ``+(end point|target)``
tests the description for at least one whole-word phrase (``-`` requires
none). '&' separators are optional.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .frames import Catalog, FrameArgument, FUNCTION_TAGS


class RuleError(ValueError):
    """Malformed rule text or an invalid rule definition."""


# Target roles admitted by the built-in rule table.
RULE_TARGETS = frozenset({
    "actor", "theme", "instrument", "manner", "end", "benefactive", "start",
    "location", "accompanier", "asset", "purpose", "cause", "domain",
})

# AMR non-core roles folded into their thematic counterparts.
NONCORE_RELABELS = {
    ":source": ":start",
    ":destination": ":end",
    ":beneficiary": ":benefactive",
    ":medium": ":manner",
}


def noncore_relabel(label: str) -> str:
    """Rename non-core role labels, preserving any '-of' suffix."""
    base, suffix = (label[:-3], "-of") if label.endswith("-of") else (label, "")
    return NONCORE_RELABELS.get(base, base) + suffix


@dataclass(frozen=True)
class DescPattern:
    phrases: tuple[str, ...]
    required: bool

    @cached_property
    def regex(self) -> re.Pattern:
        # Whole-word matching; multiword phrases match as contiguous tokens.
        parts = [r"\s+".join(re.escape(w) for w in p.split()) for p in self.phrases]
        return re.compile(r"\b(?:" + "|".join(parts) + r")\b", re.IGNORECASE)

    def holds(self, description: str) -> bool:
        return bool(self.regex.search(description)) == self.required


@dataclass(frozen=True)
class VnCondition:
    roles: tuple[str, ...]
    required: bool

    def holds(self, verbnet_roles: frozenset[str]) -> bool:
        return any(r in verbnet_roles for r in self.roles) == self.required


@dataclass(frozen=True)
class MappingRule:
    priority: int
    arg_cond: tuple[int, bool] | None
    ftag_cond: str
    vnrole_conds: tuple[VnCondition, ...]
    desc_conds: tuple[DescPattern, ...]
    target: str

    def matches(self, arg: FrameArgument) -> bool:
        if self.arg_cond is not None:
            number, required = self.arg_cond
            if (arg.arg_number == number) != required:
                return False
        if arg.function_tag != self.ftag_cond:
            return False
        if not all(c.holds(arg.verbnet_roles) for c in self.vnrole_conds):
            return False
        return all(p.holds(arg.description) for p in self.desc_conds)


ARG_ATOM_RE = re.compile(r"^ARG(\d)$")

# The built-in table. Within the LOC block the two description rows come
# before the bare -destination catch-all so that every row is reachable
# under first-match evaluation.
BUILTIN_RULES_TEXT = """\
+ARG0 & +PAG -> actor
+ARG0 & +CAU -> actor
+ARG1 & +PPT -> theme
+ARG1 & +PAG & +(entity|thing) -> theme
+MNR & +instrument -> instrument
+MNR & -instrument -> manner
+GOL & +destination -> end
+GOL & +(end point|ending point|state|destination|attach|attached|target) -> end
+GOL & +beneficiary|recipient|experiencer -> benefactive
+GOL & +(benefactive|beneficiary|recipient|listener|hearer|perceiver|to whom|pay|paid) -> benefactive
+LOC & +destination -> end
+LOC & +initial_location -> start
+LOC & +source -> start
+LOC & +(end point|ending point|state|destination|attach|target|end) -> end
+LOC & +(start|source|from|starting) -> start
+LOC & -destination -> location
+DIR & +initial_location -> start
+DIR & +source -> start
+DIR & +(start|source|from|starting) -> start
+COM & -recipient & -beneficiary -> accompanier
+COM & +recipient|beneficiary -> benefactive
+ARG1 & +VSP & +asset -> theme
+VSP & +(price|money|rent|amount|gratuity) -> asset
+PRP & +(purpose|for) -> purpose
-ARG1 & +CAU & -recipient & +(why|reason|source|cause|crime|because) -> cause
+VSP & +material|source -> start
+VSP & +(start|material|source) -> start
+VSP & +(aspect|domain) & -(specific) -> domain
"""


def _split_atoms(text: str, lineno: int) -> list[str]:
    atoms: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace() or ch == "&":
            i += 1
            continue
        if ch not in "+-":
            raise RuleError(f"line {lineno}: expected a signed atom at {text[i:]!r}")
        start = i
        i += 1
        if i < len(text) and text[i] == "(":
            depth = 0
            while i < len(text):
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
            else:
                raise RuleError(f"line {lineno}: unterminated pattern in {text!r}")
        else:
            while i < len(text) and not text[i].isspace() and text[i] not in "&()":
                i += 1
        atoms.append(text[start:i])
    return atoms


def _parse_rule(line: str, lineno: int, priority: int) -> MappingRule:
    if "->" not in line:
        raise RuleError(f"line {lineno}: missing '->' in rule {line!r}")
    lhs, _, rhs = line.partition("->")
    target = rhs.strip().lower()
    if target not in RULE_TARGETS:
        raise RuleError(f"line {lineno}: unknown target role {rhs.strip()!r}")

    arg_cond: tuple[int, bool] | None = None
    ftag: str | None = None
    vnrole_conds: list[VnCondition] = []
    desc_conds: list[DescPattern] = []
    for atom in _split_atoms(lhs, lineno):
        required = atom[0] == "+"
        body = atom[1:]
        if body.startswith("("):
            phrases = tuple(p.strip() for p in body[1:-1].split("|") if p.strip())
            if not phrases:
                raise RuleError(f"line {lineno}: empty description pattern {atom!r}")
            desc_conds.append(DescPattern(phrases=phrases, required=required))
            continue
        m = ARG_ATOM_RE.match(body)
        if m:
            if arg_cond is not None:
                raise RuleError(f"line {lineno}: more than one argument-number condition")
            arg_cond = (int(m.group(1)), required)
            continue
        if body in FUNCTION_TAGS:
            if not required:
                raise RuleError(f"line {lineno}: function tag condition must be positive: {atom!r}")
            if ftag is not None:
                raise RuleError(f"line {lineno}: more than one function tag")
            ftag = body
            continue
        if not body or not body[0].isalpha():
            raise RuleError(f"line {lineno}: malformed atom {atom!r}")
        roles = tuple(r.strip() for r in body.split("|") if r.strip())
        vnrole_conds.append(VnCondition(roles=roles, required=required))
    if ftag is None:
        raise RuleError(f"line {lineno}: rule needs a function tag condition")
    return MappingRule(
        priority=priority,
        arg_cond=arg_cond,
        ftag_cond=ftag,
        vnrole_conds=tuple(vnrole_conds),
        desc_conds=tuple(desc_conds),
        target=target,
    )


def compile_rules(source: str | None = None) -> tuple[MappingRule, ...]:
    """Compile rule text into an ordered rule sequence (built-ins by default)."""
    text = BUILTIN_RULES_TEXT if source is None else source
    rules: list[MappingRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rules.append(_parse_rule(line, lineno, priority=len(rules) + 1))
    if not rules:
        raise RuleError("no rules found")
    return tuple(rules)


@dataclass(frozen=True)
class OverrideTable:
    """Manual (predicate, sense, argument number) -> role assignments."""

    entries: tuple[tuple[tuple[str, str, int], str], ...] = ()

    @cached_property
    def by_key(self) -> dict[tuple[str, str, int], str]:
        return dict(self.entries)

    def merged_with(self, other: "OverrideTable") -> "OverrideTable":
        merged = dict(self.entries)
        merged.update(other.entries)
        return OverrideTable(tuple(sorted(merged.items())))


# Reified relation predicates keep frame-specific argument structures that
# the rule table does not model; their roles ship as built-in overrides.
REIFIED_OVERRIDES = OverrideTable((
    (("have-rel-role", "91", 0), "actor"),
    (("have-rel-role", "91", 1), "theme"),
    (("have-rel-role", "91", 2), "attribute"),
    (("have-org-role", "91", 0), "actor"),
    (("have-org-role", "91", 1), "theme"),
    (("have-org-role", "91", 2), "attribute"),
    (("have-degree", "91", 1), "theme"),
    (("have-degree", "91", 2), "attribute"),
    (("have-degree", "91", 3), "degree"),
    (("have-degree", "91", 4), "comparison"),
    (("have-degree", "91", 5), "comparison"),
    (("have-degree", "91", 6), "comparison"),
))


def load_overrides(path) -> OverrideTable:
    """Read a tab-separated override file: predicate, sense, arg number, role."""
    entries: dict[tuple[str, str, int], str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise RuleError(f"line {lineno}: expected 4 tab-separated fields, found {len(fields)}")
            predicate, sense, argn, role = (f.strip() for f in fields)
            if not argn.isdigit():
                raise RuleError(f"line {lineno}: argument number {argn!r} is not an integer")
            key = (predicate, sense, int(argn))
            if key in entries:
                raise RuleError(f"line {lineno}: duplicate override for {predicate}.{sense} ARG{argn}")
            entries[key] = role.lower()
    return OverrideTable(tuple(sorted(entries.items())))


@dataclass(frozen=True)
class MappingResult:
    role: str | None
    provenance: str  # 'rule' | 'override' | 'unmapped'
    rule_index: int | None = None


def map_argument(
    arg: FrameArgument,
    rules: Iterable[MappingRule],
    overrides: OverrideTable | None = None,
) -> MappingResult:
    """First-match rule evaluation, then overrides, then unmapped."""
    for rule in rules:
        if rule.matches(arg):
            return MappingResult(role=rule.target, provenance="rule", rule_index=rule.priority)
    if overrides is not None:
        role = overrides.by_key.get(arg.key)
        if role is not None:
            return MappingResult(role=role, provenance="override")
    return MappingResult(role=None, provenance="unmapped")


@dataclass(frozen=True)
class CoverageReport:
    total: int
    rule_mapped: int
    override_mapped: int
    unmapped: int
    unmapped_keys: tuple[tuple[str, str, int], ...]


def map_catalog(
    catalog: Catalog,
    rules: Iterable[MappingRule],
    overrides: OverrideTable | None = None,
) -> tuple[dict[tuple[str, str, int], MappingResult], CoverageReport]:
    """Map every catalog argument; report counts by provenance."""
    rules = tuple(rules)
    table: dict[tuple[str, str, int], MappingResult] = {}
    unmapped: list[tuple[str, str, int]] = []
    by_provenance = {"rule": 0, "override": 0, "unmapped": 0}
    for arg in catalog.arguments:
        result = map_argument(arg, rules, overrides)
        table[arg.key] = result
        by_provenance[result.provenance] += 1
        if result.role is None:
            unmapped.append(arg.key)
    report = CoverageReport(
        total=len(catalog.arguments),
        rule_mapped=by_provenance["rule"],
        override_mapped=by_provenance["override"],
        unmapped=by_provenance["unmapped"],
        unmapped_keys=tuple(unmapped),
    )
    return table, report


def coverage_lines(table: Mapping[tuple[str, str, int], MappingResult]) -> list[str]:
    """Machine-readable dump: one line per argument with provenance and role."""
    lines = []
    for (predicate, sense, argn), result in sorted(table.items()):
        provenance = f"rule:{result.rule_index}" if result.provenance == "rule" else result.provenance
        lines.append(f"{predicate}\t{sense}\t{argn}\t{provenance}\t{result.role or '-'}")
    return lines

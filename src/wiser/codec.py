"""PENMAN notation parser/serializer and the corpus file format.

Corpus files are UTF-8 text. Documents are separated by blank lines; each
document is a run of optional ``# ::key value`` metadata lines followed by
one parenthesized PENMAN expression. Parsing and serialization are pure
functions; round-trips preserve the graph's triples, not its whitespace.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .graph import GraphError, SemGraph, invert_role, is_constant_token, normalize

META_RE = re.compile(r"^#\s*::(\S+)(.*)$")
META_SPLIT_RE = re.compile(r"[\t ]+(?=::\S)")
# A quoted string may hold backslash escapes: '\"' for a quote, '\\' for a backslash.
# A quote that opens no complete string is a token of its own, reported as an error.
TOKEN_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[()/]|[^\s()/"]+|"')
ESCAPE_RE = re.compile(r'\\([\\"])')
INDENT = 4


class ParseError(GraphError):
    """Malformed PENMAN text, with a 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(lines: list[str], first_line: int) -> list[_Token]:
    tokens = []
    for i, text in enumerate(lines):
        for m in TOKEN_RE.finditer(text):
            token = m.group(0)
            if token == '"':
                raise ParseError("unterminated string", first_line + i, m.start() + 1)
            tokens.append(_Token(token, first_line + i, m.start() + 1))
    return tokens


def _split_document(text: str) -> tuple[list[tuple[str, str]], list[str], int]:
    """Separate leading '# ::' metadata lines from the graph body.

    A metadata line may carry several '::key value' fields.
    """
    meta: list[tuple[str, str]] = []
    lines = text.split("\n")
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            body_start = i + 1
            continue
        if META_RE.match(stripped):
            for part in META_SPLIT_RE.split(stripped.lstrip("#").strip()):
                m = re.match(r"^::(\S+)(.*)$", part)
                if m:
                    meta.append((m.group(1), m.group(2).strip()))
            body_start = i + 1
        elif stripped.startswith("#"):
            body_start = i + 1  # plain comment line, ignored
        else:
            body_start = i
            break
    return meta, lines[body_start:], body_start + 1


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.concepts: dict[str, str] = {}
        self.order: list[str] = []
        # (source var, role, target token or None-for-nested, resolved var)
        self.links: list[tuple[str, str, _Token | None, str | None]] = []

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError("unbalanced parentheses: unexpected end of input", last.line, last.col)
        self.pos += 1
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected {expect!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def parse(self) -> tuple[str, dict[str, str]]:
        root = self._parse_node()
        trailing = self._peek()
        if trailing is not None:
            if trailing.text == ")":
                raise ParseError("unbalanced parentheses: extra ')'", trailing.line, trailing.col)
            raise ParseError(f"unexpected trailing token {trailing.text!r}", trailing.line, trailing.col)
        return root, self.concepts

    def _parse_node(self) -> str:
        self._next("(")
        var_tok = self._next()
        var = var_tok.text
        if var in "()/" or var.startswith('"'):
            raise ParseError(f"expected a variable, found {var!r}", var_tok.line, var_tok.col)
        self._next("/")
        concept_tok = self._next()
        concept = concept_tok.text
        if concept in "()/":
            raise ParseError(f"expected a concept, found {concept!r}", concept_tok.line, concept_tok.col)
        if var in self.concepts and self.concepts[var] != concept:
            raise ParseError(
                f"variable {var!r} redefined with conflicting concept "
                f"{concept!r} (was {self.concepts[var]!r})",
                var_tok.line, var_tok.col,
            )
        if var not in self.concepts:
            self.concepts[var] = concept
            self.order.append(var)

        while True:
            tok = self._peek()
            if tok is None:
                raise ParseError("unbalanced parentheses: missing ')'", concept_tok.line, concept_tok.col)
            if tok.text == ")":
                self._next()
                return var
            role_tok = self._next()
            if not role_tok.text.startswith(":"):
                raise ParseError(f"role token {role_tok.text!r} must start with ':'",
                                 role_tok.line, role_tok.col)
            target = self._peek()
            if target is None:
                raise ParseError("role without a target", role_tok.line, role_tok.col)
            if target.text == "(":
                slot = len(self.links)
                self.links.append((var, role_tok.text, None, None))
                child = self._parse_node()
                self.links[slot] = (var, role_tok.text, None, child)
            else:
                self.links.append((var, role_tok.text, self._next(), None))


def parse_graph(text: str, first_line: int = 1) -> SemGraph:
    """Parse one PENMAN document (optional metadata lines plus a graph).

    Variable reuse yields a reentrant edge, never a second instance.
    Unquoted targets must be defined variables or constants (numbers,
    ``-``, ``+``, quoted strings, and the closed marker set); anything
    else is reported as a dangling variable reference with its position.
    """
    meta, body_lines, body_first = _split_document(text)
    tokens = _tokenize(body_lines, first_line + body_first - 1)
    if not tokens:
        raise ParseError("no graph found", first_line, 1)
    parser = _Parser(tokens)
    root, concepts = parser.parse()

    edges: list[tuple[str, str, str]] = []
    attributes: list[tuple[str, str, str]] = []
    for src, role, tok, child in parser.links:
        if child is not None:
            edges.append((src, role, child))
            continue
        assert tok is not None
        text_ = tok.text
        if text_.startswith('"'):
            attributes.append((src, role, ESCAPE_RE.sub(r"\1", text_[1:-1])))
        elif text_ in concepts:
            edges.append((src, role, text_))
        elif is_constant_token(text_):
            attributes.append((src, role, text_))
        else:
            raise ParseError(f"dangling variable reference {text_!r}", tok.line, tok.col)

    instances = tuple((v, concepts[v]) for v in parser.order)
    return SemGraph.build(root, instances, edges, attributes, meta)


def _quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def serialize_graph(g: SemGraph) -> str:
    """Render the graph depth-first from its root.

    Each variable gets exactly one ``/ concept`` occurrence; later
    mentions are bare variables. Edges are written in stored order and
    direction; an edge is rendered inverted ('-of') only when its source
    is not forward-reachable from the root and must be introduced from
    the target side.
    """
    out_edges: dict[str, list[int]] = {v: [] for v in g.concepts}
    in_edges: dict[str, list[int]] = {v: [] for v in g.concepts}
    for i, (s, _, t) in enumerate(g.edges):
        out_edges[s].append(i)
        in_edges[t].append(i)
    attrs: dict[str, list[tuple[str, str]]] = {v: [] for v in g.concepts}
    for s, r, v in g.attributes:
        attrs[s].append((r, v))

    forward = {g.root}
    stack = [g.root]
    while stack:
        for i in out_edges[stack.pop()]:
            t = g.edges[i][2]
            if t not in forward:
                forward.add(t)
                stack.append(t)

    visited: set[str] = set()
    emitted: set[int] = set()

    def render(var: str, depth: int) -> str:
        visited.add(var)
        pad = "\n" + " " * (INDENT * (depth + 1))
        parts = [f"({var} / {g.concept_of(var)}"]
        for i in out_edges[var]:
            if i in emitted:
                continue
            _, role, target = g.edges[i]
            emitted.add(i)
            if target in visited:
                parts.append(f"{pad}{role} {target}")
            else:
                parts.append(f"{pad}{role} {render(target, depth + 1)}")
        for i in in_edges[var]:
            if i in emitted:
                continue
            source, role, _ = g.edges[i]
            if source in visited or source in forward:
                continue  # rendered from the source side
            emitted.add(i)
            parts.append(f"{pad}{invert_role(role)} {render(source, depth + 1)}")
        for role, value in attrs[var]:
            # A bare marker constant that names a variable would read as an edge.
            if not is_constant_token(value) or value in g.concepts:
                value = _quote(value)
            parts.append(f"{pad}{role} {value}")
        parts.append(")")
        return "".join(parts)

    text = render(g.root, 0)
    if len(visited) < len(g.concepts) or len(emitted) < len(g.edges):
        raise GraphError("graph cannot be serialized from its root")
    return text


def canonical_serialize(g: SemGraph) -> str:
    """Serialization of the normalized graph: a stable byte form."""
    return serialize_graph(normalize(g))


def document_text(g: SemGraph) -> str:
    lines = [f"# ::{k} {v}".rstrip() for k, v in g.meta]
    lines.append(serialize_graph(g))
    return "\n".join(lines)


def read_corpus_text(text: str) -> list[SemGraph]:
    """Parse a whole corpus; documents are blank-line separated."""
    graphs = []
    block: list[str] = []
    start = 1
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            if not block:
                start = lineno
            block.append(line)
        elif block:
            graphs.append(_parse_block(block, start, len(graphs)))
            block = []
    if block:
        graphs.append(_parse_block(block, start, len(graphs)))
    return graphs


def _parse_block(block: list[str], first_line: int, index: int) -> SemGraph:
    try:
        return parse_graph("\n".join(block), first_line=first_line)
    except ParseError as exc:
        raise ParseError(f"document {index + 1}: {exc.args[0]}", exc.line, exc.col) from None


def read_corpus(path) -> list[SemGraph]:
    with open(path, encoding="utf-8") as fh:
        return read_corpus_text(fh.read())


def corpus_text(graphs: Iterable[SemGraph]) -> str:
    return "\n\n".join(document_text(g) for g in graphs) + "\n"


def write_corpus(graphs: Iterable[SemGraph], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_text(graphs))

"""DOT text output and a small independent DOT validator.

serialize_dot writes record-shaped nodes with a fixed style palette:
packages gray, classes light blue, interfaces white, external types with a
dotted border. Edge kinds keep distinct arrow styles (inherits hollow,
implements hollow dashed, invokes solid, accesses dashed, contains open
diamond). Output is deterministic: nodes in model order, edges sorted by
(source, target, kind, label).

validate_dot is a separate minimal parser for the directed-graph DOT
grammar; it shares no code with the serializer so it can act as an
independent check that generated files really are DOT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DotParseError

NODE_STYLES = {
    "project": {"style": "filled", "fillcolor": "lightyellow"},
    "package": {"style": "filled", "fillcolor": "gray85"},
    "class": {"style": "filled", "fillcolor": "lightblue"},
    "interface": {"style": "filled", "fillcolor": "white"},
    "external": {"style": "dotted"},
    "method": {"style": "filled", "fillcolor": "lightblue"},
    "attribute": {"style": "filled", "fillcolor": "gray92"},
}

EDGE_STYLES = {
    "inherits": {"arrowhead": "empty"},
    "implements": {"arrowhead": "empty", "style": "dashed"},
    "invokes": {"arrowhead": "vee"},
    "accesses": {"arrowhead": "vee", "style": "dashed"},
    "contains": {"arrowhead": "odiamond"},
}

_RECORD_SPECIAL = re.compile(r'[\\{}|<>"\n]')
# a record special gets a backslash; a line end becomes a space
_RECORD_ESCAPES = str.maketrans({c: "\\" + c for c in '\\{}|<>"'} | {"\n": " "})


def _escape_record(text: str) -> str:
    if _RECORD_SPECIAL.search(text) is None:
        return text
    return text.translate(_RECORD_ESCAPES)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _record_label(title: str, fields: list[tuple[str, str]]) -> str:
    cells = [_escape_record(title)]
    for name, value in fields:
        if name:
            cells.append(f"{_escape_record(name)}: {_escape_record(value)}")
        else:
            cells.append(_escape_record(value))
    return "{" + "|".join(cells) + "}"


def serialize_dot(graph) -> str:
    """Render a DocumentGraph (see documents module) as DOT text."""
    lines = [f"digraph {_quote(graph.kind)} {{"]
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=record, fontname="Helvetica", fontsize=10];')
    lines.append('  edge [fontname="Helvetica", fontsize=9];')

    def node_line(node, indent: str) -> str:
        attrs = [f"label={_quote(_record_label(node.title, node.fields))}"]
        for key, value in NODE_STYLES.get(node.kind, {}).items():
            attrs.append(f"{key}={_quote(value)}")
        return f"{indent}{_quote(node.node_id)} [{', '.join(attrs)}];"

    grouped: dict[str, list] = {}
    loose = []
    for node in graph.nodes:
        if node.group is not None:
            grouped.setdefault(node.group, []).append(node)
        else:
            loose.append(node)
    for index, group in enumerate(sorted(grouped)):
        lines.append(f'  subgraph "cluster_{index}" {{')
        lines.append(f"    label={_quote(group or '(default package)')};")
        for node in grouped[group]:
            lines.append(node_line(node, "    "))
        lines.append("  }")
    for node in loose:
        lines.append(node_line(node, "  "))

    for edge in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind, e.label)):
        attrs = []
        for key, value in EDGE_STYLES.get(edge.kind, {}).items():
            attrs.append(f"{key}={_quote(value)}")
        if edge.label:
            attrs.append(f"label={_quote(edge.label)}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- validation ----------------------------------------------------------


@dataclass
class DotGraph:
    name: str
    nodes: dict[str, dict] = field(default_factory=dict)
    edges: list[tuple[str, str, dict]] = field(default_factory=list)


def _dot_tokens(text: str):
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise DotParseError(f"line {line}: unterminated comment")
            line += text.count("\n", i, j)
            i = j + 2
            continue
        if c == '"':
            j = i + 1
            value = []
            while True:
                if j >= n:
                    raise DotParseError(f"line {line}: unterminated quoted string")
                if text[j] == "\\" and j + 1 < n:
                    value.append(text[j + 1])
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    line += 1
                value.append(text[j])
                j += 1
            yield ("id", "".join(value), line)
            i = j + 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            yield ("punct", "->", line)
            i += 2
            continue
        if c in "{}[];,=":
            yield ("punct", c, line)
            i += 1
            continue
        if c.isalnum() or c in "_.":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            yield ("id", text[i:j], line)
            i = j
            continue
        raise DotParseError(f"line {line}: unexpected character {c!r}")
    yield ("eof", "", line)


class _DotParser:
    def __init__(self, text: str):
        self.tokens = list(_dot_tokens(text))
        self.pos = 0

    def peek(self):
        return self.tokens[min(self.pos, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, text: str):
        kind, value, line = self.peek()
        if kind != "punct" or value != text:
            raise DotParseError(f"line {line}: expected {text!r}, found {value!r}")
        return self.advance()

    def expect_id(self) -> str:
        kind, value, line = self.peek()
        if kind != "id":
            raise DotParseError(f"line {line}: expected an identifier, found {value!r}")
        self.advance()
        return value

    def parse(self) -> DotGraph:
        kind, value, line = self.peek()
        if kind != "id" or value != "digraph":
            raise DotParseError(f"line {line}: expected 'digraph'")
        self.advance()
        name = ""
        if self.peek()[0] == "id":
            name = self.expect_id()
        graph = DotGraph(name=name)
        self.expect_punct("{")
        self._statements(graph)
        self.expect_punct("}")
        kind, value, line = self.peek()
        if kind != "eof":
            raise DotParseError(f"line {line}: trailing content after graph")
        return graph

    def _statements(self, graph: DotGraph):
        while True:
            kind, value, line = self.peek()
            if kind == "punct" and value == "}":
                return
            if kind == "eof":
                raise DotParseError(f"line {line}: unexpected end of input")
            if kind == "punct" and value == ";":
                self.advance()
                continue
            if kind == "id" and value == "subgraph":
                self.advance()
                if self.peek()[0] == "id":
                    self.advance()
                self.expect_punct("{")
                self._statements(graph)
                self.expect_punct("}")
                continue
            if kind != "id":
                raise DotParseError(f"line {line}: expected a statement, found {value!r}")
            first = self.expect_id()
            kind, value, line = self.peek()
            if kind == "punct" and value == "=":
                self.advance()
                self.expect_id()
                continue
            if first in ("node", "edge", "graph") and kind == "punct" and value == "[":
                self._attr_list()
                continue
            if kind == "punct" and value == "->":
                src = first
                while self.peek()[0] == "punct" and self.peek()[1] == "->":
                    self.advance()
                    dst = self.expect_id()
                    attrs = {}
                    if self.peek()[0] == "punct" and self.peek()[1] == "[":
                        attrs = self._attr_list()
                    graph.edges.append((src, dst, attrs))
                    graph.nodes.setdefault(src, {})
                    graph.nodes.setdefault(dst, {})
                    src = dst
                continue
            attrs = {}
            if kind == "punct" and value == "[":
                attrs = self._attr_list()
            existing = graph.nodes.setdefault(first, {})
            existing.update(attrs)

    def _attr_list(self) -> dict:
        attrs: dict = {}
        self.expect_punct("[")
        while True:
            kind, value, line = self.peek()
            if kind == "punct" and value == "]":
                self.advance()
                return attrs
            name = self.expect_id()
            self.expect_punct("=")
            attrs[name] = self.expect_id()
            kind, value, _ = self.peek()
            if kind == "punct" and value in (",", ";"):
                self.advance()


def validate_dot(text: str) -> DotGraph:
    """Parse DOT text with the built-in grammar; raise DotParseError if invalid."""
    return _DotParser(text).parse()

from __future__ import annotations

import re
import shutil
import subprocess

import pytest

from oodoc.documents import (
    DocumentGraph,
    GraphEdge,
    GraphNode,
)
from oodoc.dot import serialize_dot, validate_dot
from oodoc.errors import DotParseError

from conftest import CORE_FRAME, all_documents

SHAPE = f"{CORE_FRAME}.MyShape"


def test_single_node_graph_shape():
    graph = DocumentGraph("class-info")
    graph.nodes.append(GraphNode(node_id="only", title="Only", fields=[("NoA", "0")]))
    text = serialize_dot(graph)
    assert text.startswith('digraph "class-info" {')
    assert re.search(r'"only" \[label="\{Only\|NoA: 0\}"', text)
    assert "shape=record" in text
    parsed = validate_dot(text)
    assert "only" in parsed.nodes
    assert parsed.edges == []


def test_edge_styles_distinct():
    graph = DocumentGraph("class-dependency")
    for ident in ("a", "b", "c", "d"):
        graph.nodes.append(GraphNode(node_id=ident, title=ident))
    graph.edges.append(GraphEdge("a", "b", "inherits"))
    graph.edges.append(GraphEdge("a", "c", "invokes"))
    graph.edges.append(GraphEdge("a", "d", "accesses"))
    text = serialize_dot(graph)
    assert '"a" -> "b" [arrowhead="empty"]' in text
    assert '"a" -> "c" [arrowhead="vee"]' in text
    assert '"a" -> "d" [arrowhead="vee", style="dashed"]' in text


def test_output_is_deterministic_and_edges_sorted():
    graph = DocumentGraph("package")
    graph.nodes.append(GraphNode(node_id="z", title="z"))
    graph.nodes.append(GraphNode(node_id="a", title="a"))
    graph.edges.append(GraphEdge("z", "a", "contains"))
    graph.edges.append(GraphEdge("a", "z", "contains"))
    text = serialize_dot(graph)
    assert text == serialize_dot(graph)
    assert text.index('"a" -> "z"') < text.index('"z" -> "a"')


def test_record_specials_are_escaped():
    graph = DocumentGraph("class-content")
    graph.nodes.append(
        GraphNode(node_id="weird", title="A|B", fields=[("x{y}", '<"v">')])
    )
    text = serialize_dot(graph)
    validate_dot(text)
    assert "\\|" in text and "\\{" in text and "\\<" in text


def test_groups_become_clusters():
    graph = DocumentGraph("class-info")
    graph.nodes.append(GraphNode(node_id="a", title="A", group="p.one"))
    graph.nodes.append(GraphNode(node_id="b", title="B", group="p.two"))
    text = serialize_dot(graph)
    assert 'subgraph "cluster_0"' in text
    assert 'subgraph "cluster_1"' in text
    assert 'label="p.one"' in text
    validate_dot(text)


def test_fixture_class_dependency_dot_has_three_edges_into_myshape(fixture_project):
    docs = all_documents(fixture_project, ("class-dependency",))
    text = serialize_dot(docs["class-dependency"])
    hits = re.findall(r'-> "%s" \[arrowhead="empty"\]' % re.escape(SHAPE), text)
    assert len(hits) == 3
    parsed = validate_dot(text)
    incoming = [e for e in parsed.edges if e[1] == SHAPE]
    assert len(incoming) == 3


def test_every_generated_document_is_valid_dot(fixture_project):
    docs = all_documents(fixture_project)
    texts = []
    for result in docs.values():
        if isinstance(result, list):
            texts.extend(serialize_dot(g) for _, g in result)
        else:
            texts.append(serialize_dot(result))
    assert len(texts) == 5 + 2 * 6
    for text in texts:
        parsed = validate_dot(text)
        assert parsed is not None


@pytest.mark.skipif(shutil.which("dot") is None, reason="graphviz not installed")
def test_external_renderer_accepts_fixture_documents(fixture_project, tmp_path):
    docs = all_documents(fixture_project, ("class-dependency",))
    dot_path = tmp_path / "g.dot"
    dot_path.write_text(serialize_dot(docs["class-dependency"]), encoding="utf-8")
    svg_path = tmp_path / "g.svg"
    result = subprocess.run(
        ["dot", "-Tsvg", str(dot_path), "-o", str(svg_path)], capture_output=True
    )
    assert result.returncode == 0
    assert svg_path.exists()


def test_validator_rejects_malformed_dot():
    with pytest.raises(DotParseError):
        validate_dot("graph { a -- b }")  # undirected is not our grammar
    with pytest.raises(DotParseError):
        validate_dot('digraph "g" { "a" -> }')
    with pytest.raises(DotParseError):
        validate_dot('digraph "g" { "a" [label="x" }')
    with pytest.raises(DotParseError):
        validate_dot('digraph "g" { "a"')


def test_validator_handles_quoted_escapes():
    parsed = validate_dot('digraph g { "a\\"b" -> "c\\\\d"; }')
    assert ('a"b', "c\\d", {}) in parsed.edges

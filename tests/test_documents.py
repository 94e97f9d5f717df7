from __future__ import annotations

import pytest

import oodoc.documents
from oodoc.documents import (
    DOCUMENT_KINDS,
    gen_class_content_document,
    gen_class_dependency_document,
    gen_class_information_document,
    gen_method_content_document,
    gen_method_dependency_document,
    gen_method_information_document,
    gen_package_document,
    iter_documents,
    merge_per_class_documents,
)
from oodoc.dot import serialize_dot
from oodoc.model import ClassEntity, Package, Project, build_model, class_qualified_name, resolve_references
from oodoc.parsing import parse_files
from oodoc.sources import SourceFile

from checks import assert_graph_well_formed, lookup
from conftest import CORE_ELEMENTS, CORE_FRAME, all_documents

SHAPE = f"{CORE_FRAME}.MyShape"
PANEL = f"{CORE_FRAME}.PaintJPanel"


def node_by_id(graph, node_id):
    for node in graph.nodes:
        if node.node_id == node_id:
            return node
    raise AssertionError(f"missing node {node_id} in {graph.kind}")


def node_by_title(graph, title):
    for node in graph.nodes:
        if node.title == title:
            return node
    raise AssertionError(f"missing node titled {title} in {graph.kind}")


def edge_set(graph, kind=None):
    return {
        (e.src, e.dst, e.kind)
        for e in graph.edges
        if kind is None or e.kind == kind
    }


def test_package_document_project_node(fixture_project):
    graph = gen_package_document(fixture_project)
    assert_graph_well_formed(graph)
    project_node = node_by_id(graph, "project")
    fields = dict(project_node.fields)
    assert fields["NoM"] == "29"
    assert fields["NoA"] == "14"
    assert fields["NoC"] == "6"
    assert fields["NoP"] == "2"
    for leaf in (CORE_ELEMENTS, CORE_FRAME):
        assert dict(node_by_id(graph, f"pkg:{leaf}").fields)["Classes"] == "3"


def test_package_document_containment_edges(fixture_project):
    graph = gen_package_document(fixture_project)
    assert edge_set(graph) == {
        ("project", "pkg:Drawing", "contains"),
        ("pkg:Drawing", "pkg:Drawing.Shapes", "contains"),
        ("pkg:Drawing.Shapes", f"pkg:{CORE_ELEMENTS}", "contains"),
        ("pkg:Drawing.Shapes", f"pkg:{CORE_FRAME}", "contains"),
    }
    assert {n.node_id for n in graph.nodes} == {
        "project",
        "pkg:Drawing",
        "pkg:Drawing.Shapes",
        f"pkg:{CORE_ELEMENTS}",
        f"pkg:{CORE_FRAME}",
    }


def test_package_document_for_empty_project():
    graph = gen_package_document(Project(name="void"))
    assert [n.node_id for n in graph.nodes] == ["project"]
    assert dict(graph.nodes[0].fields) == {
        "LoC": "0", "NoP": "0", "NoC": "0", "NoA": "0", "NoM": "0",
    }
    assert graph.edges == []


def test_class_information_records(fixture_project):
    graph = gen_class_information_document(fixture_project)
    assert_graph_well_formed(graph)
    frame = dict(node_by_title(graph, "DrawingShapes").fields)
    assert frame == {
        "Superclass": "JFrame",
        "IsInterface": "FALSE",
        "SuperInterfaces": "-",
        "Number of Attributes": "5",
        "Number of Methods": "5",
    }
    shape = dict(node_by_title(graph, "MyShape").fields)
    assert shape["Superclass"] == "-"
    assert shape["Number of Attributes"] == "5"
    assert shape["Number of Methods"] == "12"
    panel = dict(node_by_title(graph, "PaintJPanel").fields)
    assert panel["Superclass"] == "JPanel"
    assert panel["Number of Attributes"] == "4"
    assert panel["Number of Methods"] == "6"


def test_class_information_grouped_by_package(fixture_project):
    graph = gen_class_information_document(fixture_project)
    assert node_by_title(graph, "MyLine").group == CORE_ELEMENTS
    assert node_by_title(graph, "MyShape").group == CORE_FRAME
    assert len(graph.nodes) == 6


def test_class_dependency_internal_edges_exact(fixture_project):
    graph = gen_class_dependency_document(fixture_project)
    assert_graph_well_formed(graph)
    internal = {
        (s, d) for s, d, k in edge_set(graph, "inherits")
        if not d.startswith("ext:")
    }
    assert internal == {
        (f"{CORE_ELEMENTS}.MyLine", SHAPE),
        (f"{CORE_ELEMENTS}.MyOval", SHAPE),
        (f"{CORE_ELEMENTS}.MyRectangle", SHAPE),
    }


def test_class_dependency_external_supertype_nodes(fixture_project):
    graph = gen_class_dependency_document(fixture_project)
    assert (f"{CORE_FRAME}.DrawingShapes", "ext:JFrame", "inherits") in edge_set(graph)
    assert (PANEL, "ext:JPanel", "inherits") in edge_set(graph)
    assert node_by_id(graph, "ext:JFrame").kind == "external"


def test_class_dependency_without_inheritance_has_no_edges():
    project = Project(
        name="p",
        packages=[Package("a", classes=[ClassEntity(name="A"), ClassEntity(name="B")])],
    )
    graph = gen_class_dependency_document(project)
    assert len(graph.nodes) == 2
    assert graph.edges == []


def test_class_dependency_of_interfaces():
    texts = {
        "p/C.java": "package p; class C extends B implements I, java.io.Serializable { }",
        "p/B.java": "package p; class B { }",
        "p/I.java": "package p; interface I extends J { }",
        "p/J.java": "package p; interface J { }",
    }
    trees, failures = parse_files([SourceFile(path, text) for path, text in texts.items()])
    assert not failures
    graph = gen_class_dependency_document(resolve_references(build_model(trees, "interfaces")))
    assert_graph_well_formed(graph)
    assert edge_set(graph) == {
        ("p.C", "p.B", "inherits"),
        ("p.C", "p.I", "implements"),
        ("p.C", "ext:java.io.Serializable", "implements"),
        ("p.I", "p.J", "inherits"),
    }
    assert node_by_id(graph, "ext:java.io.Serializable").title == "Serializable"
    text = serialize_dot(graph)
    assert '"ext:java.io.Serializable" [label="{Serializable}", style="dotted"];' in text
    assert '"p.C" -> "p.I" [arrowhead="empty", style="dashed"];' in text
    assert '"p.C" -> "ext:java.io.Serializable" [arrowhead="empty", style="dashed"];' in text
    assert '"p.I" -> "p.J" [arrowhead="empty"];' in text


def test_class_content_rows(fixture_project):
    graph = gen_class_content_document(fixture_project)
    assert_graph_well_formed(graph)
    panel = node_by_title(graph, "PaintJPanel")
    assert ("currentShape", "MyShape") in panel.fields
    assert ("setCurrentShapeType", "void") in panel.fields
    shape = node_by_title(graph, "MyShape")
    assert len(shape.fields) == 5 + 12
    # record height tracks member count
    line = node_by_title(graph, "MyLine")
    assert len(shape.fields) > len(line.fields)


def test_class_content_constructor_row_uses_dash(fixture_project):
    graph = gen_class_content_document(fixture_project)
    line = node_by_title(graph, "MyLine")
    assert ("MyLine", "-") in line.fields
    assert ("draw", "void") in line.fields


def test_class_content_empty_class_has_header_only():
    project = Project(name="p", packages=[Package("a", classes=[ClassEntity(name="E")])])
    graph = gen_class_content_document(project)
    assert graph.nodes[0].fields == []


def test_method_information_records(fixture_project):
    rect = lookup(fixture_project, f"{CORE_ELEMENTS}.MyRectangle")
    graph = gen_method_information_document(rect)
    assert_graph_well_formed(graph)
    ctor = node_by_title(graph, "MyRectangle")
    fields = dict(ctor.fields)
    assert fields["NumberOfParameters"] == "5"
    assert fields["ReturnType"] == "-"
    assert fields["Parameter 0"] == "x1 : int"
    assert fields["Parameter 4"] == "color : Color"


def test_method_information_static_flag(fixture_project):
    frame = lookup(fixture_project, f"{CORE_FRAME}.DrawingShapes")
    graph = gen_method_information_document(frame)
    main = node_by_title(graph, "main")
    fields = dict(main.fields)
    assert fields["IsStatic"] == "TRUE"
    assert fields["NumberOfParameters"] == "1"
    assert fields["Parameter 0"] == "args : String[]"


def test_method_information_parameterless():
    cls = ClassEntity(name="C")
    from oodoc.model import MethodEntity

    cls.methods.append(MethodEntity(name="tick", return_type="void"))
    graph = gen_method_information_document(cls)
    fields = dict(graph.nodes[0].fields)
    assert fields["NumberOfParameters"] == "0"
    assert "Parameter 0" not in fields


def test_method_content_rows(fixture_project):
    panel = lookup(fixture_project, PANEL)
    graph = gen_method_content_document(panel, fixture_project)
    assert_graph_well_formed(graph)
    ctor = node_by_title(graph, "PaintJPanel")
    assert ("invocation", "addMouseListener (PaintJPanel)") in ctor.fields
    dragged = node_by_id(graph, "PaintJPanel#paintJPanelMouseDragged(MouseEvent)")
    assert ("local", "dragged : MyShape") in dragged.fields
    assert ("access", "currentShape : MyShape") in dragged.fields


def test_method_content_empty_method():
    from oodoc.model import MethodEntity

    cls = ClassEntity(name="C", methods=[MethodEntity(name="m", return_type="void")])
    graph = gen_method_content_document(cls)
    assert graph.nodes[0].fields == []


def test_method_content_local_row():
    from oodoc.model import LocalVariableEntity, MethodEntity

    m = MethodEntity(name="m", return_type="void")
    m.local_variables.append(LocalVariableEntity("x", "int"))
    cls = ClassEntity(name="C", methods=[m])
    graph = gen_method_content_document(cls)
    assert ("local", "x : int") in graph.nodes[0].fields


def test_method_dependency_key_edges(fixture_project):
    graph = gen_method_dependency_document(fixture_project)
    assert_graph_well_formed(graph)
    edges = edge_set(graph)
    assert (f"{PANEL}#paintComponent()", f"{SHAPE}#draw()", "invokes") in edges
    assert (
        f"{PANEL}#paintJPanelMouseDragged()",
        f"{PANEL}#currentShape",
        "accesses",
    ) in edges


def test_method_dependency_only_resolved_by_default(fixture_project):
    graph = gen_method_dependency_document(fixture_project)
    assert not any(n.node_id.startswith("ext:") for n in graph.nodes)
    wider = gen_method_dependency_document(fixture_project, include_unresolved=True)
    assert any(n.node_id.startswith("ext:") for n in wider.nodes)
    assert len(wider.edges) > len(graph.edges)


def test_method_dependency_edges_match_model_relations(fixture_project):
    """Exhaustive cross-walk: generated edges <-> resolved model relations."""
    graph = gen_method_dependency_document(fixture_project)
    expected = set()
    for pkg in fixture_project.packages:
        for cls in pkg.classes:
            qname = class_qualified_name(pkg, cls)
            for m in cls.methods:
                src = f"{qname}#{m.name}()"
                for inv in m.invocations:
                    if inv.resolved:
                        dst = f"{inv.declaring_class}#{inv.method_name}()"
                        if dst != src:
                            expected.add((src, dst, "invokes"))
                for acc in m.accesses:
                    if acc.resolved:
                        expected.add((src, f"{acc.declaring_class}#{acc.attribute_name}", "accesses"))
    assert edge_set(graph) == expected


def test_method_dependency_empty_without_bodies():
    project = Project(
        name="p", packages=[Package("a", classes=[ClassEntity(name="A")])]
    )
    graph = gen_method_dependency_document(project)
    assert graph.edges == []
    assert graph.nodes == []


def test_completeness_across_documents(fixture_project):
    all_classes = {
        class_qualified_name(pkg, cls)
        for pkg in fixture_project.packages
        for cls in pkg.classes
    }
    info = gen_class_information_document(fixture_project)
    dependency = gen_class_dependency_document(fixture_project)
    content = gen_class_content_document(fixture_project)
    for graph in (info, content):
        assert {n.node_id for n in graph.nodes} == all_classes
    assert all_classes <= {n.node_id for n in dependency.nodes}
    for pkg in fixture_project.packages:
        for cls in pkg.classes:
            graph = gen_method_information_document(cls)
            assert {n.title for n in graph.nodes} == {m.name for m in cls.methods}


def test_merge_per_class_documents(fixture_project):
    parts = []
    for pkg in fixture_project.packages:
        for cls in pkg.classes:
            parts.append(
                (class_qualified_name(pkg, cls), gen_method_information_document(cls))
            )
    merged = merge_per_class_documents("method-info", parts)
    assert_graph_well_formed(merged)
    assert len(merged.nodes) == 29
    assert node_by_id(merged, f"{SHAPE}::MyShape#draw(Graphics)").group == SHAPE


def test_iter_documents_makes_every_kind_in_order(fixture_project):
    docs = all_documents(fixture_project)
    assert list(docs) == list(DOCUMENT_KINDS)
    assert [name for name, _ in docs["method-content"]] == [
        class_qualified_name(pkg, cls) for pkg in fixture_project.packages for cls in pkg.classes
    ]


def test_iter_documents_rejects_an_unknown_kind(fixture_project):
    with pytest.raises(ValueError, match="unknown document kind: nope"):
        list(iter_documents(fixture_project, ("package", "nope")))


def test_iter_documents_calls_generators_replaced_after_import(fixture_project, monkeypatch):
    # the benchmark's tracer times each kind by replacing the module's gen_* functions
    calls = []
    for name in dir(oodoc.documents):
        if name.startswith("gen_"):
            original = getattr(oodoc.documents, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(oodoc.documents, name, wrapper)
    all_documents(fixture_project)
    classes = sum(len(pkg.classes) for pkg in fixture_project.packages)
    assert sorted(set(calls)) == sorted(n for n in dir(oodoc.documents) if n.startswith("gen_"))
    assert calls.count("gen_method_content_document") == classes
    assert len(calls) == 5 + 2 * classes

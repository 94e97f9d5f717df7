from __future__ import annotations

import copy

import pytest

from oodoc.errors import InputError, ModelError
from oodoc.model import (
    AttributeEntity,
    ClassEntity,
    MethodEntity,
    Package,
    build_model,
    class_qualified_name,
    resolve_references,
)
from oodoc.parsing import count_token_lines, parse_file, tokenize
from oodoc.sources import SourceFile

from checks import (
    assert_containment_tree,
    assert_referential_integrity,
    assert_resolution_idempotent,
    collect_external_types,
    lookup,
)
from conftest import CORE_ELEMENTS, CORE_FRAME, load_fixture_project


def build_from_texts(*texts: str, name: str = "demo"):
    files = [SourceFile(f"src/F{i}.java", t) for i, t in enumerate(texts)]
    trees = [parse_file(f) for f in files]
    return build_model(trees, name)


def test_fixture_package_layout(fixture_project):
    by_name = {p.qualified_name: p for p in fixture_project.packages}
    assert set(by_name) == {"Drawing", "Drawing.Shapes", CORE_ELEMENTS, CORE_FRAME}
    assert [c.name for c in by_name[CORE_ELEMENTS].classes] == [
        "MyLine", "MyOval", "MyRectangle",
    ]
    assert [c.name for c in by_name[CORE_FRAME].classes] == [
        "DrawingShapes", "MyShape", "PaintJPanel",
    ]
    assert by_name["Drawing"].classes == []
    assert by_name["Drawing.Shapes"].classes == []


def test_zero_files_gives_empty_project():
    project = build_model([], "empty")
    assert project.packages == []
    assert project.loc == 0


def test_multi_declarator_becomes_two_attributes():
    project = build_model(
        [parse_file(SourceFile("A.java", "class A { int a, b; }"))], "p"
    )
    cls = project.packages[0].classes[0]
    assert [a.name for a in cls.attributes] == ["a", "b"]


def test_duplicate_class_names_both_files():
    with pytest.raises(ModelError) as exc:
        build_from_texts("package p; class A {}", "package p; class A {}")
    message = str(exc.value)
    assert "src/F0.java" in message and "src/F1.java" in message


def build_one(path: str, text: str):
    return build_model([parse_file(SourceFile(path, text))], "p")


def test_duplicate_attribute_names_class_and_file():
    with pytest.raises(ModelError) as exc:
        build_one("A.java", "class A { int a; String b, a; }")
    assert str(exc.value) == "duplicate attribute a in class A (A.java)"


def test_duplicate_method_names_signature_and_file():
    with pytest.raises(ModelError) as exc:
        build_one("A.java", "class A { void m(int x) { } void m() { } int m(int y) { return y; } }")
    assert str(exc.value) == "duplicate method m(int) in class A (A.java)"


def test_duplicate_attribute_is_reported_before_duplicate_method():
    with pytest.raises(ModelError) as exc:
        build_one("A.java", "class A { void m() { } void m() { } int a; int a; }")
    assert str(exc.value) == "duplicate attribute a in class A (A.java)"


def test_build_model_adopts_the_parsed_classes():
    tree = parse_file(SourceFile("A.java", "package p; import q.B; class A { } class C { }"))
    project = build_model([tree], "p")
    classes = [c for pkg in project.packages for c in pkg.classes]
    assert len(classes) == 2 and all(a is b for a, b in zip(classes, tree.classes))
    assert all(c.imports is tree.imports for c in classes)


def test_loc_is_sum_of_file_counts(fixture_files, fixture_project):
    loc = [count_token_lines(tokenize(f.text, f.path)) for f in fixture_files]
    assert fixture_project.loc == sum(loc)


def test_internal_inheritance_resolves(fixture_project):
    myline = lookup(fixture_project, f"{CORE_ELEMENTS}.MyLine")
    assert myline.superclass.internal
    assert myline.superclass.name == f"{CORE_FRAME}.MyShape"


def test_external_superclass_kept_by_name(fixture_project):
    frame = lookup(fixture_project, f"{CORE_FRAME}.DrawingShapes")
    assert not frame.superclass.internal
    assert frame.superclass.name == "JFrame"
    panel = lookup(fixture_project, f"{CORE_FRAME}.PaintJPanel")
    assert panel.superclass.name == "JPanel"


def test_fixture_inheritance_edge_set_is_exact(fixture_project):
    internal_edges = set()
    external_superclasses = {}
    for pkg in fixture_project.packages:
        for cls in pkg.classes:
            if cls.superclass is None:
                continue
            if cls.superclass.internal:
                internal_edges.add((class_qualified_name(pkg, cls), cls.superclass.name))
            else:
                external_superclasses[cls.name] = cls.superclass.name
    shape = f"{CORE_FRAME}.MyShape"
    assert internal_edges == {
        (f"{CORE_ELEMENTS}.MyLine", shape),
        (f"{CORE_ELEMENTS}.MyOval", shape),
        (f"{CORE_ELEMENTS}.MyRectangle", shape),
    }
    assert external_superclasses == {"DrawingShapes": "JFrame", "PaintJPanel": "JPanel"}


def test_paint_component_invocation_resolves_to_myshape_draw(fixture_project):
    panel = lookup(fixture_project, f"{CORE_FRAME}.PaintJPanel")
    paint = next(m for m in panel.methods if m.name == "paintComponent")
    draw = next(i for i in paint.invocations if i.method_name == "draw")
    assert draw.resolved
    assert draw.declaring_class == f"{CORE_FRAME}.MyShape"


def test_subclass_constructor_accesses_inherited_attributes(fixture_project):
    myline = lookup(fixture_project, f"{CORE_ELEMENTS}.MyLine")
    ctor = next(m for m in myline.methods if m.is_constructor)
    assert ctor.invocations == []
    targets = {(a.attribute_name, a.declaring_class, a.resolved) for a in ctor.accesses}
    shape = f"{CORE_FRAME}.MyShape"
    assert targets == {
        ("x1", shape, True), ("y1", shape, True), ("x2", shape, True),
        ("y2", shape, True), ("color", shape, True),
    }


def test_local_variable_type_drives_resolution(fixture_project):
    panel = lookup(fixture_project, f"{CORE_FRAME}.PaintJPanel")
    dragged = next(m for m in panel.methods if m.name == "paintJPanelMouseDragged")
    setx2 = next(i for i in dragged.invocations if i.method_name == "setX2")
    assert setx2.resolved
    assert setx2.declaring_class == f"{CORE_FRAME}.MyShape"


def test_unresolved_calls_keep_declared_type_name(fixture_project):
    panel = lookup(fixture_project, f"{CORE_FRAME}.PaintJPanel")
    pressed = next(m for m in panel.methods if m.name == "paintJPanelMousePressed")
    getx = next(i for i in pressed.invocations if i.method_name == "getX")
    assert not getx.resolved
    assert getx.declaring_class == "MouseEvent"
    add = next(i for i in pressed.invocations if i.method_name == "add")
    assert not add.resolved
    assert add.declaring_class == "ArrayList"


def test_super_receiver_points_at_external_superclass(fixture_project):
    panel = lookup(fixture_project, f"{CORE_FRAME}.PaintJPanel")
    paint = next(m for m in panel.methods if m.name == "paintComponent")
    sup = next(i for i in paint.invocations if i.receiver == "super")
    assert not sup.resolved
    assert sup.declaring_class == "JPanel"


def test_static_class_receiver_stays_external(fixture_project):
    frame = lookup(fixture_project, f"{CORE_FRAME}.DrawingShapes")
    action = next(m for m in frame.methods if m.name == "buttonColorActionPerformed")
    show = next(i for i in action.invocations if i.method_name == "showDialog")
    assert not show.resolved
    assert show.declaring_class == "JColorChooser"


def test_cross_class_invocation_via_attribute_type(fixture_project):
    frame = lookup(fixture_project, f"{CORE_FRAME}.DrawingShapes")
    combo = next(m for m in frame.methods if m.name == "comboShapesActionPerformed")
    setter = next(i for i in combo.invocations if i.method_name == "setCurrentShapeType")
    assert setter.resolved
    assert setter.declaring_class == f"{CORE_FRAME}.PaintJPanel"


def test_constructor_invocations_resolve_to_internal_classes(fixture_project):
    frame = lookup(fixture_project, f"{CORE_FRAME}.DrawingShapes")
    main = next(m for m in frame.methods if m.name == "main")
    ctor_call = next(i for i in main.invocations if i.method_name == "DrawingShapes")
    assert ctor_call.resolved
    assert ctor_call.declaring_class == f"{CORE_FRAME}.DrawingShapes"


def test_resolution_is_idempotent(fixture_project):
    clone = copy.deepcopy(fixture_project)
    assert_resolution_idempotent(clone)


def test_model_invariants_hold_on_fixture(fixture_project):
    assert_containment_tree(fixture_project)
    assert_referential_integrity(fixture_project)


def test_external_types_include_framework_supertypes(fixture_project):
    external = collect_external_types(fixture_project)
    assert "JFrame" in external
    assert "JPanel" in external
    # internal qualified names never show up as externals
    assert all(not name.startswith("Drawing.") for name in external)


def test_lookup_forms(fixture_project):
    assert isinstance(lookup(fixture_project, CORE_ELEMENTS), Package)
    cls = lookup(fixture_project, f"{CORE_ELEMENTS}.MyLine")
    assert isinstance(cls, ClassEntity) and cls.name == "MyLine"
    attr = lookup(fixture_project, f"{CORE_FRAME}.PaintJPanel#currentShape")
    assert isinstance(attr, AttributeEntity) and attr.declared_type == "MyShape"
    method = lookup(fixture_project, f"{CORE_FRAME}.MyShape#setX1(int)")
    assert isinstance(method, MethodEntity) and method.name == "setX1"
    noargs = lookup(fixture_project, f"{CORE_FRAME}.DrawingShapes#initComponents()")
    assert isinstance(noargs, MethodEntity)


def test_lookup_not_found_is_none(fixture_project):
    assert lookup(fixture_project, "NoSuch.Thing") is None
    assert lookup(fixture_project, f"{CORE_FRAME}.MyShape#missing") is None
    assert lookup(fixture_project, f"{CORE_FRAME}.MyShape#setX1(long)") is None


def test_lookup_rejects_malformed_names(fixture_project):
    with pytest.raises(InputError):
        lookup(fixture_project, "")
    with pytest.raises(InputError):
        lookup(fixture_project, "a#b#c")
    with pytest.raises(InputError):
        lookup(fixture_project, "#method")


def test_unique_simple_name_resolves_without_import():
    project = build_from_texts(
        "package a; public class Base {}",
        "package b; public class Sub extends Base {}",
    )
    resolve_references(project)
    sub = lookup(project, "b.Sub")
    assert sub.superclass.internal
    assert sub.superclass.name == "a.Base"


def test_ambiguous_simple_name_stays_external():
    project = build_from_texts(
        "package a; public class Base {}",
        "package b; public class Base {}",
        "package c; public class Sub extends Base {}",
    )
    resolve_references(project)
    sub = lookup(project, "c.Sub")
    assert not sub.superclass.internal
    assert sub.superclass.name == "Base"


def test_explicit_import_beats_simple_name_fallback():
    project = build_from_texts(
        "package a; public class Base {}",
        "package c; import x.y.Base; public class Sub extends Base {}",
    )
    resolve_references(project)
    sub = lookup(project, "c.Sub")
    # the import names an un-analyzed class, so the supertype is external
    assert not sub.superclass.internal


def test_wildcard_import_resolves():
    project = build_from_texts(
        "package a; public class Base {}",
        "package a; public class Decoy {}",
        "package c; import a.*; public class Sub extends Base {}",
    )
    resolve_references(project)
    sub = lookup(project, "c.Sub")
    assert sub.superclass.internal
    assert sub.superclass.name == "a.Base"


def test_fresh_build_twice_is_structurally_equal():
    assert load_fixture_project() == load_fixture_project()


# One project for every receiver branch. Sub's own h is an Other, Base's is a
# Helper; Ext's superclass is external and Root has none, and both hold an h.
_RECEIVER_SOURCES = (
    "package p; public class Helper { int n; Helper x; void go() { } }",
    "package p; public class Other { void stop() { } }",
    "package p; public interface Named { Other named = null; }",
    "package p; public class Base { Helper h; Helper inherited; void up() { } }",
    "package p; public class Sub extends Base implements Named { Other h;"
    " void run(Helper hp, Helper s) {"
    " Helper loc = null; Other s = null; Helper[] arr = null;"
    " up(); this.up(); super.up(); this.h.stop(); super.h.go(); this.h.x.go();"
    " loc.go(); hp.go(); s.stop(); inherited.go(); named.stop();"
    " Helper.go(); p.Helper.go(); arr.go(); make().go(); (loc).go();"
    " hp.n = 1; int k = inherited.n; } }",
    "package p; import javax.swing.JPanel; class Ext extends JPanel { Helper h;"
    " void m() { super.repaint(); super.h.go(); } }",
    "package p; class Root { Helper h; void m() { super.go(); super.h.go(); } }",
)

# (class, relation kind, receiver, member name, DeclaringClass, Resolved)
_RECEIVER_ROWS = [
    ("Sub", "invocation", "", "up", "p.Base", True),
    ("Sub", "invocation", "", "make", "p.Sub", False),
    ("Sub", "invocation", "this", "up", "p.Base", True),
    ("Sub", "invocation", "super", "up", "p.Base", True),
    ("Ext", "invocation", "super", "repaint", "JPanel", False),
    ("Root", "invocation", "super", "go", "", False),
    ("Sub", "invocation", "this.h", "stop", "p.Other", True),
    ("Sub", "invocation", "super.h", "go", "p.Helper", True),
    ("Ext", "invocation", "super.h", "go", "", False),
    ("Root", "invocation", "super.h", "go", "", False),
    ("Sub", "invocation", "this.h.x", "go", "", False),
    ("Sub", "invocation", "loc", "go", "p.Helper", True),
    ("Sub", "invocation", "hp", "go", "p.Helper", True),
    ("Sub", "invocation", "s", "stop", "p.Other", True),
    ("Sub", "invocation", "inherited", "go", "p.Helper", True),
    ("Sub", "invocation", "named", "stop", "p.Other", True),
    ("Sub", "invocation", "Helper", "go", "p.Helper", True),
    ("Sub", "invocation", "p.Helper", "go", "p.Helper", True),
    ("Sub", "invocation", "arr", "go", "Helper[]", False),
    ("Sub", "invocation", "make()", "go", "", False),
    ("Sub", "invocation", "(...)", "go", "", False),
    ("Sub", "access", "hp", "n", "p.Helper", True),
    ("Sub", "access", "inherited", "n", "p.Helper", True),
]


@pytest.fixture(scope="module")
def receiver_project():
    project = resolve_references(build_from_texts(*_RECEIVER_SOURCES))
    assert_referential_integrity(project)
    return project


@pytest.mark.parametrize(
    "class_name, kind, receiver, member, declaring_class, resolved",
    _RECEIVER_ROWS,
    ids=[f"{row[0]}:{row[2] or 'bare'}.{row[3]}" for row in _RECEIVER_ROWS],
)
def test_each_receiver_branch(receiver_project, class_name, kind, receiver, member,
                              declaring_class, resolved):
    cls = lookup(receiver_project, f"p.{class_name}")
    relations = [
        (r.declaring_class, r.resolved)
        for m in cls.methods
        for r in (m.invocations if kind == "invocation" else m.accesses)
        if r.receiver == receiver
        and (r.method_name if kind == "invocation" else r.attribute_name) == member
    ]
    assert relations == [(declaring_class, resolved)]

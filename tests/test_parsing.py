from __future__ import annotations

import pytest

from oodoc.errors import ParseFailure
from oodoc.parsing import (
    KIND_ACCESS,
    KIND_INVOCATION,
    KIND_LOCAL,
    parse_file,
    parse_files,
)
from oodoc.sources import SourceFile


def parse_text(text: str, path: str = "Test.java"):
    return parse_file(SourceFile.from_text(path, text))


def find_decl(tree, name):
    for decl in tree.type_decls:
        if decl.name == name:
            return decl
    raise AssertionError(f"no declaration {name}")


def methods_of(decl):
    return [m for m in decl.members if hasattr(m, "parameters")]


def attributes_of(decl):
    return [a for a in decl.members if not hasattr(a, "parameters")]


def test_minimal_public_class():
    tree = parse_text("package p; public class A {}")
    assert tree.package_name == "p"
    assert len(tree.type_decls) == 1
    decl = tree.type_decls[0]
    assert decl.name == "A"
    assert decl.access_level == "public"
    assert decl.superclass_name is None
    assert decl.interface_names == []
    assert decl.members == []


def test_default_package_when_no_declaration():
    tree = parse_text("class A {}")
    assert tree.package_name == ""


def test_second_package_declaration_fails():
    with pytest.raises(ParseFailure):
        parse_text("package a; class X {} package b;")


def test_fixture_parameter_counts(fixture_files):
    trees = {t.path.rsplit("/", 1)[-1]: t for t in (parse_file(f) for f in fixture_files)}
    myline = find_decl(trees["MyLine.java"], "MyLine")
    by_name = {m.name: m for m in methods_of(myline)}
    assert len(by_name["MyLine"].parameters) == 5
    assert by_name["MyLine"].is_constructor
    assert len(by_name["draw"].parameters) == 1


def test_body_harvest_matches_hand_trace():
    # hand-traced: one local, one attribute access, one invocation
    tree = parse_text(
        "class C { void m(Helper helper) { int x = 0; this.count = x; helper.run(); } }"
    )
    method = methods_of(find_decl(tree, "C"))[0]
    items = [(i.kind, i.name, i.type_or_receiver) for i in method.body_items]
    assert items == [
        (KIND_LOCAL, "x", "int"),
        (KIND_ACCESS, "count", "this"),
        (KIND_INVOCATION, "run", "helper"),
    ]


def test_receiver_reads_are_not_accesses():
    tree = parse_text("class C { void m() { helper.run(); } }")
    method = methods_of(find_decl(tree, "C"))[0]
    assert [i.kind for i in method.body_items] == [KIND_INVOCATION]


def test_intermediate_fields_are_receiver_path_only():
    tree = parse_text("class C { void m() { this.panel.refresh(); } }")
    method = methods_of(find_decl(tree, "C"))[0]
    items = [(i.kind, i.name, i.type_or_receiver) for i in method.body_items]
    assert items == [(KIND_INVOCATION, "refresh", "this.panel")]


def test_object_creation_harvests_constructor_invocation():
    tree = parse_text("class C { void m() { Helper h = new pkg.Helper(1, 2); } }")
    method = methods_of(find_decl(tree, "C"))[0]
    items = [(i.kind, i.name, i.type_or_receiver) for i in method.body_items]
    assert (KIND_LOCAL, "h", "Helper") in items
    assert (KIND_INVOCATION, "Helper", "pkg.Helper") in items


def test_unqualified_call_has_empty_receiver():
    tree = parse_text("class C { void m() { repaint(); } }")
    method = methods_of(find_decl(tree, "C"))[0]
    assert method.body_items[0].type_or_receiver == ""


def test_multi_declarator_attribute_statement():
    tree = parse_text("class C { int a, b; }")
    attrs = attributes_of(find_decl(tree, "C"))
    assert [(a.name, a.declared_type) for a in attrs] == [("a", "int"), ("b", "int")]


def test_attribute_modifiers_and_static():
    tree = parse_text("class C { private static final String NAME = \"x\"; protected int n; }")
    attrs = attributes_of(find_decl(tree, "C"))
    assert attrs[0].access_level == "private"
    assert attrs[0].is_static
    assert attrs[1].access_level == "protected"
    assert not attrs[1].is_static


def test_method_throws_and_static():
    tree = parse_text(
        "class C { public static int run(int a, String[] b) throws IOException, Bad { return a; } }"
    )
    m = methods_of(find_decl(tree, "C"))[0]
    assert m.is_static
    assert m.throws == ["IOException", "Bad"]
    assert [(p.name, p.declared_type) for p in m.parameters] == [("a", "int"), ("b", "String[]")]


def test_interface_with_bodyless_methods():
    tree = parse_text("package p; public interface Drawable extends Paintable { void draw(Graphics g); }")
    decl = find_decl(tree, "Drawable")
    assert decl.kind == "interface"
    assert decl.superclass_name is None
    assert decl.interface_names == ["Paintable"]
    m = methods_of(decl)[0]
    assert not m.has_body
    assert m.body_items == []


def test_class_extends_and_implements():
    tree = parse_text("class C extends Base implements A, p.B {}")
    decl = find_decl(tree, "C")
    assert decl.superclass_name == "Base"
    assert decl.interface_names == ["A", "p.B"]


def test_control_flow_statements_are_traversed():
    text = """
    class C {
        int m(int n) {
            int total = 0;
            for (int i = 0; i < n; i = i + 1) {
                total = total + this.step;
            }
            while (n > 0) {
                n = n - 1;
            }
            if (n == 0) {
                log();
            } else {
                other.log();
            }
            switch (n) {
                case 1:
                    one();
                    break;
                default:
                    fallback();
            }
            return total;
        }
    }
    """
    tree = parse_text(text)
    m = methods_of(find_decl(tree, "C"))[0]
    kinds = [(i.kind, i.name) for i in m.body_items]
    assert (KIND_LOCAL, "total") in kinds
    assert (KIND_LOCAL, "i") in kinds
    assert (KIND_ACCESS, "step") in kinds
    assert (KIND_INVOCATION, "log") in kinds
    assert (KIND_INVOCATION, "one") in kinds
    assert (KIND_INVOCATION, "fallback") in kinds
    assert tree.warnings == []


def test_enum_is_skipped_with_warning():
    tree = parse_text("package p; enum Color { RED, GREEN } class A {}")
    assert [d.name for d in tree.type_decls] == ["A"]
    assert any("enum" in w.message for w in tree.warnings)


def test_unsupported_statement_skipped_with_warning():
    text = "class C { void m() { try { risky(); } catch (Bad e) { } this.n = 1; } }"
    tree = parse_text(text)
    m = methods_of(find_decl(tree, "C"))[0]
    # the try statement is dropped, but parsing resumes and finds the access
    assert (KIND_ACCESS, "n") in [(i.kind, i.name) for i in m.body_items]
    assert any("try" in w.message for w in tree.warnings)


def test_annotations_are_skipped_with_warning():
    tree = parse_text("class C { @Override void m() { } }")
    assert len(methods_of(find_decl(tree, "C"))) == 1
    assert any("annotation" in w.message for w in tree.warnings)


def test_generic_member_is_skipped_with_warning():
    tree = parse_text("class C { List<String> names; int ok; }")
    attrs = attributes_of(find_decl(tree, "C"))
    assert [a.name for a in attrs] == ["ok"]
    assert any("generic" in w.message for w in tree.warnings)


def test_varargs_method_is_skipped_with_warning():
    tree = parse_text("class C { void log(String... parts) { } void keep() { } }")
    assert [m.name for m in methods_of(find_decl(tree, "C"))] == ["keep"]
    assert any("varargs" in w.message for w in tree.warnings)


def test_unbalanced_braces_give_parse_failure_with_location():
    with pytest.raises(ParseFailure) as exc:
        parse_text("class A { void m() { ", path="Broken.java")
    assert exc.value.path == "Broken.java"
    assert exc.value.line >= 1


def test_malformed_header_gives_parse_failure():
    with pytest.raises(ParseFailure):
        parse_text("public wibble A {}")


def test_parsing_is_deterministic(fixture_files):
    for f in fixture_files:
        assert parse_file(f) == parse_file(f)


def test_fixture_ground_truth_counts(fixture_files):
    trees = [parse_file(f) for f in fixture_files]
    decls = {d.name: d for t in trees for d in t.type_decls}
    assert set(decls) == {
        "MyLine", "MyOval", "MyRectangle", "MyShape", "DrawingShapes", "PaintJPanel",
    }
    expected_attrs = {
        "MyLine": 0, "MyOval": 0, "MyRectangle": 0,
        "MyShape": 5, "DrawingShapes": 5, "PaintJPanel": 4,
    }
    expected_methods = {
        "MyLine": 2, "MyOval": 2, "MyRectangle": 2,
        "MyShape": 12, "DrawingShapes": 5, "PaintJPanel": 6,
    }
    for name, decl in decls.items():
        assert len(attributes_of(decl)) == expected_attrs[name], name
        assert len(methods_of(decl)) == expected_methods[name], name
    # parameter ground truth for the headline methods
    rect = {m.name: m for m in methods_of(decls["MyRectangle"])}
    assert len(rect["MyRectangle"].parameters) == 5
    frame = {m.name: m for m in methods_of(decls["DrawingShapes"])}
    assert len(frame["main"].parameters) == 1
    assert frame["main"].is_static
    assert frame["main"].parameters[0].declared_type == "String[]"


def test_parse_files_isolates_failures(tmp_path):
    good = tmp_path / "Good.java"
    bad = tmp_path / "Bad.java"
    good.write_text("class Good {}", encoding="utf-8")
    bad.write_text("class Bad { void m() {", encoding="utf-8")
    files = [SourceFile.read(good), SourceFile.read(bad)]
    trees, failures = parse_files(files)
    assert [t.type_decls[0].name for t in trees] == ["Good"]
    assert len(failures) == 1
    assert failures[0].path.endswith("Bad.java")


def test_parse_files_keeps_input_order(fixture_files):
    trees, _ = parse_files(list(reversed(fixture_files)))
    assert [t.path for t in trees] == [f.path for f in reversed(fixture_files)]
    assert trees == [parse_file(f) for f in reversed(fixture_files)]


def test_stored_failure_keeps_no_traceback():
    # a traceback, or the context of an error raised while another was
    # handled, would keep the file's text, tokens and parser alive
    texts = {
        "Lit.java": 'class Lit {\n  String s = "open;\n}\n',
        "Generic.java": "class Generic {\n  void m(List<int> x { }\n",
        "Deep.java": f"class Deep {{ void m() {{ int x = {'(' * 3000}1{')' * 3000}; }} }}\n",
    }
    files = [SourceFile.from_text(path, text) for path, text in texts.items()]
    _, failures = parse_files(files)
    assert len(failures) == len(files)
    for file, stored in zip(files, failures):
        with pytest.raises(ParseFailure) as raised:
            parse_file(file)
        assert stored.__traceback__ is None and stored.__context__ is None
        assert (stored.path, stored.line, stored.message) == (
            raised.value.path, raised.value.line, raised.value.message)

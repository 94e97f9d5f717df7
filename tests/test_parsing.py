from __future__ import annotations

import random

import pytest

from oodoc.errors import ModelError, ParseFailure
from oodoc.model import Project, build_model
from oodoc.parsing import parse_file, parse_files
from oodoc.sources import SourceFile

from test_lexer import mutate


def parse_text(text: str, path: str = "Test.java"):
    return parse_file(SourceFile(path, text))


def find_class(tree, name):
    for cls in tree.classes:
        if cls.name == name:
            return cls
    raise AssertionError(f"no class {name}")


def locals_of(method):
    return [(v.name, v.declared_type) for v in method.local_variables]


def accesses_of(method):
    return [(a.attribute_name, a.receiver) for a in method.accesses]


def invocations_of(method):
    return [(i.method_name, i.receiver) for i in method.invocations]


def test_minimal_public_class():
    tree = parse_text("package p; public class A {}")
    assert tree.package_name == "p"
    assert len(tree.classes) == 1
    cls = tree.classes[0]
    assert cls.name == "A"
    assert cls.access_level == "public"
    assert not cls.is_interface
    assert cls.superclass is None
    assert cls.super_interfaces == []
    assert cls.attributes == [] and cls.methods == []


def test_default_package_when_no_declaration():
    tree = parse_text("class A {}")
    assert tree.package_name == ""


def test_second_package_declaration_fails():
    with pytest.raises(ParseFailure):
        parse_text("package a; class X {} package b;")


def test_fixture_parameter_counts(fixture_files):
    trees = {t.path.rsplit("/", 1)[-1]: t for t in (parse_file(f) for f in fixture_files)}
    myline = find_class(trees["MyLine.java"], "MyLine")
    by_name = {m.name: m for m in myline.methods}
    assert len(by_name["MyLine"].parameters) == 5
    assert by_name["MyLine"].is_constructor
    assert len(by_name["draw"].parameters) == 1


def test_body_harvest_matches_hand_trace():
    # hand-traced: one local, one attribute access, one invocation
    tree = parse_text(
        "class C { void m(Helper helper) { int x = 0; this.count = x; helper.run(); } }"
    )
    method = find_class(tree, "C").methods[0]
    assert locals_of(method) == [("x", "int")]
    assert accesses_of(method) == [("count", "this")]
    assert invocations_of(method) == [("run", "helper")]
    assert [(p.name, p.declared_type, p.order) for p in method.parameters] == [
        ("helper", "Helper", 0)
    ]


def test_receiver_reads_are_not_accesses():
    tree = parse_text("class C { void m() { helper.run(); } }")
    method = find_class(tree, "C").methods[0]
    assert invocations_of(method) == [("run", "helper")]
    assert method.accesses == [] and method.local_variables == []


def test_intermediate_fields_are_receiver_path_only():
    tree = parse_text("class C { void m() { this.panel.refresh(); } }")
    method = find_class(tree, "C").methods[0]
    assert invocations_of(method) == [("refresh", "this.panel")]
    assert method.accesses == [] and method.local_variables == []


def test_object_creation_harvests_constructor_invocation():
    tree = parse_text("class C { void m() { Helper h = new pkg.Helper(1, 2); } }")
    method = find_class(tree, "C").methods[0]
    assert locals_of(method) == [("h", "Helper")]
    assert invocations_of(method) == [("Helper", "pkg.Helper")]


def test_unqualified_call_has_empty_receiver():
    tree = parse_text("class C { void m() { repaint(); } }")
    method = find_class(tree, "C").methods[0]
    assert invocations_of(method) == [("repaint", "")]


def test_multi_declarator_attribute_statement():
    tree = parse_text("class C { int a, b; }")
    attrs = find_class(tree, "C").attributes
    assert [(a.name, a.declared_type) for a in attrs] == [("a", "int"), ("b", "int")]


def test_attribute_modifiers_and_static():
    tree = parse_text("class C { private static final String NAME = \"x\"; protected int n; }")
    attrs = find_class(tree, "C").attributes
    assert attrs[0].access_level == "private"
    assert attrs[0].is_static
    assert attrs[1].access_level == "protected"
    assert not attrs[1].is_static


def test_method_throws_and_static():
    tree = parse_text(
        "class C { public static int run(int a, String[] b) throws IOException, Bad { return a; } }"
    )
    m = find_class(tree, "C").methods[0]
    assert m.is_static
    assert m.throws == ["IOException", "Bad"]
    assert [(p.name, p.declared_type) for p in m.parameters] == [("a", "int"), ("b", "String[]")]


def test_interface_with_bodyless_methods():
    tree = parse_text("package p; public interface Drawable extends Paintable { void draw(Graphics g); }")
    cls = find_class(tree, "Drawable")
    assert cls.is_interface
    assert cls.superclass is None
    assert [ref.name for ref in cls.super_interfaces] == ["Paintable"]
    m = cls.methods[0]
    assert m.local_variables == [] and m.accesses == [] and m.invocations == []


def test_class_extends_and_implements():
    tree = parse_text("class C extends Base implements A, p.B {}")
    cls = find_class(tree, "C")
    assert cls.superclass.name == "Base"
    assert [ref.name for ref in cls.super_interfaces] == ["A", "p.B"]
    # unresolved until resolve_references places the names
    assert not cls.superclass.internal
    assert not any(ref.internal for ref in cls.super_interfaces)


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
    m = find_class(tree, "C").methods[0]
    assert locals_of(m) == [("total", "int"), ("i", "int")]
    assert accesses_of(m) == [("step", "this")]
    assert invocations_of(m) == [("log", ""), ("log", "other"), ("one", ""), ("fallback", "")]
    assert tree.warnings == []


def test_enum_is_skipped_with_warning():
    tree = parse_text("package p; enum Color { RED, GREEN } class A {}")
    assert [c.name for c in tree.classes] == ["A"]
    assert any("enum" in w.message for w in tree.warnings)


def test_unsupported_statement_skipped_with_warning():
    text = "class C { void m() { try { risky(); } catch (Bad e) { } this.n = 1; } }"
    tree = parse_text(text)
    m = find_class(tree, "C").methods[0]
    # the try statement is dropped, but parsing resumes and finds the access
    assert accesses_of(m) == [("n", "this")]
    assert any("try" in w.message for w in tree.warnings)


# Statements outside the subset whose expression stops at a token the
# statement cannot take. The lexer reads "0x1F" as "0" then "x1F".
UNSUPPORTED_BODY_STATEMENTS = (
    "int a = 0x1F;",
    "int a = 1_000;",
    "int a = 1e10;",
    "Object v = (int) x;",
    "boolean v = x instanceof A;",
    "boolean v = (x instanceof A);",
    "if (x instanceof A) { b(); }",
    "while (x instanceof A) { b(); }",
    "for (i = 0; i < n; i = (int) x) { b(); }",
    "switch ((int) x) { case 1: b(); }",
    "return x instanceof A;",
    "b((int) x);",
    "b(a[(int) x]);",
    "int[] a = new int[(int) x];",
)


@pytest.mark.parametrize("statement", UNSUPPORTED_BODY_STATEMENTS)
def test_unsupported_expression_skips_the_statement_only(statement):
    tree = parse_text(f"class C {{\n void m() {{\n {statement}\n later(); this.n = 1;\n }}\n}}\n")
    m = find_class(tree, "C").methods[0]
    assert invocations_of(m)[-1] == ("later", "")
    assert accesses_of(m) == [("n", "this")]
    assert len(tree.warnings) == 1
    warning = tree.warnings[0]
    assert warning.line == 3 and "statement skipped" in warning.message


@pytest.mark.parametrize("body, invocations", [
    ("for (int i = a ? 1 : 0; i < n; i = i + 1) { b(); } c();", [("b", ""), ("c", "")]),
    ("for (String s : names) { s.go(); }", [("go", "s")]),
])
def test_unsupported_for_header_skips_the_header_only(body, invocations):
    tree = parse_text(f"class C {{\n void m() {{\n {body}\n }}\n}}\n")
    assert invocations_of(find_class(tree, "C").methods[0]) == invocations
    assert len(tree.warnings) == 1
    assert tree.warnings[0].line == 3


def test_end_of_file_inside_an_unsupported_for_header_stays_a_failure():
    with pytest.raises(ParseFailure):
        parse_text("class C { void m() { for (String s : f(names")


@pytest.mark.parametrize("initializer", ["0x1F", "(int) x", "b((int) x)", "x instanceof A"])
def test_unsupported_attribute_initializer_skips_the_initializer_only(initializer):
    tree = parse_text(f"class C {{ int f = {initializer}, g; int h; void m() {{ }} }}")
    cls = find_class(tree, "C")
    assert [a.name for a in cls.attributes] == ["f", "g", "h"]
    assert [m.name for m in cls.methods] == ["m"]
    assert len(tree.warnings) == 1
    assert "unsupported attribute initializer" in tree.warnings[0].message


@pytest.mark.parametrize("body, found", [
    ("if (x { b(); }", "{"),
    ("if (x } b();", "}"),
    ("int a = 1 }", "}"),
    ("b(x", ""),
])
def test_brace_or_end_of_file_after_an_expression_stays_a_failure(body, found):
    with pytest.raises(ParseFailure) as exc:
        parse_text(f"class C {{ void m() {{ {body}")
    assert exc.value.message.endswith(f"but found {found!r}")


def test_annotations_are_skipped_with_warning():
    tree = parse_text("class C { @Override void m() { } }")
    assert len(find_class(tree, "C").methods) == 1
    assert any("annotation" in w.message for w in tree.warnings)


def test_generic_member_is_skipped_with_warning():
    tree = parse_text("class C { List<String> names; int ok; }")
    attrs = find_class(tree, "C").attributes
    assert [a.name for a in attrs] == ["ok"]
    assert any("generic" in w.message for w in tree.warnings)


def test_varargs_method_is_skipped_with_warning():
    tree = parse_text("class C { void log(String... parts) { } void keep() { } }")
    assert [m.name for m in find_class(tree, "C").methods] == ["keep"]
    assert any("varargs" in w.message for w in tree.warnings)


def test_mutants_parse_or_fail_and_build_or_fail(fixture_files):
    """parse_file returns a tree or raises ParseFailure, and build_model
    on that tree returns a Project or raises ModelError; nothing else."""
    rng = random.Random(20161018)
    outcomes = {"failed": 0, "warned": 0, "built": 0, "model error": 0}
    for i in range(1200):
        file = fixture_files[i % len(fixture_files)]
        text = mutate(file.text, rng)
        try:
            tree = parse_file(SourceFile(file.path, text))
        except ParseFailure:
            outcomes["failed"] += 1
            continue
        outcomes["warned"] += bool(tree.warnings)
        try:
            assert isinstance(build_model([tree], "mutant"), Project)
        except ModelError:
            outcomes["model error"] += 1
            continue
        outcomes["built"] += 1
    # the mutants reach every outcome but a model error, which needs a
    # duplicate member or class and is rare
    assert outcomes["failed"] > 300 and outcomes["built"] > 300, outcomes
    assert outcomes["warned"] > 50, outcomes


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
    classes = {c.name: c for t in trees for c in t.classes}
    assert set(classes) == {
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
    for name, cls in classes.items():
        assert len(cls.attributes) == expected_attrs[name], name
        assert len(cls.methods) == expected_methods[name], name
    # parameter ground truth for the headline methods
    rect = {m.name: m for m in classes["MyRectangle"].methods}
    assert len(rect["MyRectangle"].parameters) == 5
    frame = {m.name: m for m in classes["DrawingShapes"].methods}
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
    assert [t.classes[0].name for t in trees] == ["Good"]
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
    files = [SourceFile(path, text) for path, text in texts.items()]
    _, failures = parse_files(files)
    assert len(failures) == len(files)
    for file, stored in zip(files, failures):
        with pytest.raises(ParseFailure) as raised:
            parse_file(file)
        assert stored.__traceback__ is None and stored.__context__ is None
        assert (stored.path, stored.line, stored.message) == (
            raised.value.path, raised.value.line, raised.value.message)

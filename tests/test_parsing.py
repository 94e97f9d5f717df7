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
    iface = find_class(parse_text("interface I extends A, p.B {}"), "I")
    assert iface.superclass is None
    assert [ref.name for ref in iface.super_interfaces] == ["A", "p.B"]


def test_static_import_and_interface_method_body_are_skipped_with_warning():
    text = (
        "package p;\n"
        "import static p.A.b;\n"
        "import q.R;\n"
        "interface I {\n"
        "  void m() { g(); }\n"
        "  void n();\n"
        "}\n"
    )
    tree = parse_text(text)
    assert tree.imports == ["q.R"]
    assert [m.name for m in find_class(tree, "I").methods] == ["m", "n"]
    assert find_class(tree, "I").methods[0].invocations == []
    assert [(w.line, w.message) for w in tree.warnings] == [
        (2, "static imports are not supported; import skipped"),
        (5, "interface method bodies are ignored"),
    ]


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


def test_for_update_list_and_brackets_after_a_local_name():
    tree = parse_text(
        "class C { void m() { int a[] = null; for (i = 0; i < n; i = i + 1, j = j + 1) { g(); } } }"
    )
    m = find_class(tree, "C").methods[0]
    assert locals_of(m) == [("a", "int[]")]
    assert invocations_of(m) == [("g", "")]
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
    "this(1);",
    "super(1);",
    "new A<B>();",
    "int[] a = new int[] {1, 2};",
    '@SuppressWarnings("x") int a = 1;',
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


@pytest.mark.parametrize("text, line, message", [
    ("public wibble A {}", 1, "expected a class or interface declaration, found 'wibble'"),
    ("class A extends B\n, C {}", 2, "a class can extend only one superclass"),
    ("interface I\n implements J {}", 2, "an interface cannot declare implements"),
    ("class A {\n public\n private int x; }", 3, "conflicting access modifiers in member declaration"),
    ("public\n private class A {}", 2, "conflicting access modifiers in type declaration"),
    ("\nprivate\n class A {}", 2, "private is not a valid top-level access level"),
    # a top-level type takes only the flags abstract and final
    ("public\n static class B {}", 2, "expected a class or interface declaration, found 'static'"),
    ("native class A {}", 1, "expected a class or interface declaration, found 'native'"),
    ("abstract default class A {}", 1, "expected a class or interface declaration, found 'default'"),
    ("final\n synchronized class E {}", 2, "expected a class or interface declaration, found 'synchronized'"),
    ("transient interface I {}", 1, "expected a class or interface declaration, found 'transient'"),
])
def test_malformed_header_gives_parse_failure(text, line, message):
    with pytest.raises(ParseFailure) as exc:
        parse_text(text)
    assert (exc.value.line, exc.value.message) == (line, message)


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


def test_every_declaration_and_member_skip_keeps_its_message_and_line():
    text = (
        "package p;\n"
        "enum E { A }\n"
        "class Box<T> { T t; }\n"
        "class C {\n"
        "  private static\n"
        "  java.util.List<String> names;\n"
        "  static class Inner { }\n"
        "  void log(String... parts) { a(); }\n"
        "  void put(int k,\n"
        "           Map<K, V> m) { b(); }\n"
        "  int keep;\n"
        "  void dots(... x) { }\n"
        "  void ok() { c(); }\n"
        "}\n"
    )
    tree = parse_text(text)
    assert [(w.line, w.message) for w in tree.warnings] == [
        (2, "enum declarations are not supported; declaration skipped"),
        (3, "generic type Box is not supported; declaration skipped"),
        (6, "generic member declarations are not supported; member skipped"),
        (7, "nested type declarations are not supported; member skipped"),
        (8, "varargs are not supported; method log skipped"),
        (10, "unsupported parameter type; method put skipped"),
        (12, "varargs are not supported; method dots skipped"),
    ]
    assert [c.name for c in tree.classes] == ["C"]
    cls = tree.classes[0]
    assert [a.name for a in cls.attributes] == ["keep"]
    assert [m.name for m in cls.methods] == ["ok"]
    assert invocations_of(cls.methods[0]) == [("c", "")]


def test_arrow_switch_costs_the_switch_only():
    text = (
        "class C {\n"
        " void m() {\n"
        "  switch (x) { case 1 -> a(); default -> b(); } c();\n"
        " }\n"
        " void n() { d(); }\n"
        "}\n"
    )
    tree = parse_text(text)
    cls = find_class(tree, "C")
    assert [m.name for m in cls.methods] == ["m", "n"]
    assert invocations_of(cls.methods[0]) == [("c", "")]
    assert invocations_of(cls.methods[1]) == [("d", "")]
    assert [(w.line, w.message) for w in tree.warnings] == [
        (3, "unsupported construct (arrow case label); statement skipped")]


def test_failed_parameter_list_costs_its_method_only():
    # f's list holds a '{' and a ')' inside an annotation; bad's list has no
    # ')'; semi's holds a ';'
    text = (
        "class C {\n"
        "  void f(List<@N({1}) String> xs) { g(); }\n"
        "  void bad(List<String> a { }\n"
        "  void semi(Foo<;> x) { g(); }\n"
        "  void ok() { }\n"
        "  void g() { h(); }\n"
        "}\n"
    )
    tree = parse_text(text)
    cls = find_class(tree, "C")
    assert [m.name for m in cls.methods] == ["ok", "g"]
    assert invocations_of(cls.methods[1]) == [("h", "")]
    assert [(w.line, w.message) for w in tree.warnings] == [
        (2, "unsupported parameter type; method f skipped"),
        (3, "unsupported parameter type; method bad skipped"),
        (4, "unsupported parameter type; method semi skipped"),
    ]


@pytest.mark.parametrize("body, invocations, what", [
    # the ';' inside a try-with-resources header does not end the skip
    ("try (R r = o(); S s = p()) { g(); } h();", [("h", "")], "'try' statement"),
    # nor does the '}' of a lambda block inside a call
    ("run(() -> { b.go(); }); b.stop();", [("stop", "b")], "token ')' in expression"),
    # catch and finally go on from the try block, a selector from a class body
    ("try { a(); } catch (E e) { b(); } finally { c(); } d();", [("d", "")], "'try' statement"),
    ("x = new A() { void q() { } }.go(); y();", [("y", "")], "anonymous class body"),
    # a '(' that never closes: the skip runs to the end of the enclosing block
    ("a( ; b();\n  c();", [], "token ';' in expression"),
])
def test_an_unsupported_statement_is_skipped_whole_with_one_warning(body, invocations, what):
    tree = parse_text(f"class C {{\n void m() {{\n  {body}\n }}\n void n() {{ k(); }}\n}}\n")
    cls = find_class(tree, "C")
    assert locals_of(cls.methods[0]) == []
    assert invocations_of(cls.methods[0]) == invocations
    assert invocations_of(cls.methods[1]) == [("k", "")]
    assert [(w.line, w.message) for w in tree.warnings] == [
        (3, f"unsupported construct ({what}); statement skipped")]


def test_initializer_without_its_semicolon_costs_the_next_method_only():
    text = (
        "class C {\n"
        "  int x = f()\n"
        "  void a() { p(); }\n"
        "  void b() { q(); }\n"
        "  void c() { r(); }\n"
        "}\n"
    )
    tree = parse_text(text)
    cls = find_class(tree, "C")
    assert [a.name for a in cls.attributes] == ["x"]
    assert [m.name for m in cls.methods] == ["b", "c"]
    assert [invocations_of(m) for m in cls.methods] == [[("q", "")], [("r", "")]]
    assert [(w.line, w.message) for w in tree.warnings] == [
        (3, "unsupported attribute initializer (token 'void' in expression); skipped")]


def test_final_and_annotated_parameters_and_final_locals_are_kept():
    text = (
        "class C {\n"
        "  void m(final B b, @N C c, final @M(1) D d) {\n"
        "    final int x = 1;\n"
        "    for (final int i = 0; i < x; i = i + 1) { b.go(); }\n"
        "  }\n"
        "  C(final B b) { }\n"
        "}\n"
        "interface I { void m(final B b); }\n"
    )
    tree = parse_text(text)
    m, ctor = find_class(tree, "C").methods
    assert [(p.name, p.declared_type) for p in m.parameters] == [("b", "B"), ("c", "C"), ("d", "D")]
    assert locals_of(m) == [("x", "int"), ("i", "int")]
    assert invocations_of(m) == [("go", "b")]
    assert [p.name for p in ctor.parameters] == ["b"]
    assert [p.name for p in find_class(tree, "I").methods[0].parameters] == ["b"]
    assert [(w.line, w.message) for w in tree.warnings] == [
        (2, "annotations are not supported; annotation skipped")] * 2


def test_member_modifiers_are_accepted_and_initializer_blocks_cost_themselves():
    text = (
        "class C {\n"
        "  private transient int t;\n"
        "  volatile int v;\n"
        "  native void n();\n"
        "  public synchronized void s() { g(); }\n"
        "  static { init(); }\n"
        "  { other(); }\n"
        "  void m() { h(); }\n"
        "}\n"
    )
    tree = parse_text(text)
    cls = find_class(tree, "C")
    assert [(a.name, a.access_level) for a in cls.attributes] == [
        ("t", "private"), ("v", "package-private")]
    assert [m.name for m in cls.methods] == ["n", "s", "m"]
    assert [invocations_of(m) for m in cls.methods] == [[], [("g", "")], [("h", "")]]
    assert [(w.line, w.message) for w in tree.warnings] == [
        (6, "initializer blocks are not supported; member skipped"),
        (7, "initializer blocks are not supported; member skipped"),
    ]


def test_default_methods_are_kept():
    text = (
        "interface I {\n"
        "  default void d() { g(); }\n"
        "  void e();\n"
        "}\n"
        "class C {\n"
        "  default void d() { g(); }\n"
        "  void m(int n) { switch (n) { default: h(); } }\n"
        "}\n"
    )
    tree = parse_text(text)
    assert [m.name for m in find_class(tree, "I").methods] == ["d", "e"]
    cls = find_class(tree, "C")
    assert [(m.name, invocations_of(m)) for m in cls.methods] == [("d", [("g", "")]), ("m", [("h", "")])]
    assert [(w.line, w.message) for w in tree.warnings] == [(2, "interface method bodies are ignored")]


def test_receiver_text_of_each_primary():
    tree = parse_text(
        'class C { void m() { (a + b).c(); xs[i + 1].go(); new T(a).go(); "s".length();'
        " x = -a.b(); this.p.q.r(); x = y.z(); n = !this.ok.f; (a).b.c = 1; n = new B[2].length; } }"
    )
    method = find_class(tree, "C").methods[0]
    assert invocations_of(method) == [
        ("c", "(...)"), ("go", "xs[]"), ("T", "T"), ("go", "new T()"),
        ("length", '"s"'), ("b", "a"), ("r", "this.p.q"), ("z", "y"),
    ]
    assert accesses_of(method) == [("f", "this.ok"), ("c", "(...).b"), ("length", "new B[]")]
    assert tree.warnings == []


def test_class_literal_records_nothing():
    tree = parse_text(
        "class C { void m() { Object z = A.class; n = A.class.getName(); y = p.A.class.x; w = p.A.class; } }"
    )
    method = find_class(tree, "C").methods[0]
    assert locals_of(method) == [("z", "Object")]
    assert invocations_of(method) == [("getName", "A.class")]
    assert accesses_of(method) == [("x", "p.A.class")]
    assert tree.warnings == []

"""Seeded source corpora with their own ground truth.

Each generator builds Java-subset source files (only constructs the README
lists as supported) together with what a correct analysis must find in
them: the LoC/NoP/NoC/NoA/NoM record and the gold link set in the README's
canonical link form. The ground truth is written down while the source is
emitted, so it does not come from the program under test.

The same seed gives the same corpus. Different seeds change names, peers,
constants and statement order but keep every count that sets the cost of a
run (classes, members, statements, bytes within a few percent), so runs on
different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree


@dataclass
class Relation:
    """A harvested invocation or attribute access.

    owner is the declaring class: its qualified name when the relation
    resolves inside the corpus, otherwise the external type it points at.
    """

    name: str
    receiver: str
    owner: str
    resolved: bool


@dataclass
class Method:
    name: str
    return_type: str | None  # None for constructors
    params: list[tuple[str, str]]
    locals: list[tuple[str, str]] = field(default_factory=list)
    accesses: list[Relation] = field(default_factory=list)
    invocations: list[Relation] = field(default_factory=list)

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(t for _, t in self.params)})"


@dataclass
class Klass:
    qname: str
    superclass: tuple[str, bool] | None = None  # (name, internal)
    interfaces: list[tuple[str, bool]] = field(default_factory=list)
    attributes: list[tuple[str, str, str]] = field(default_factory=list)  # name, type, access
    methods: list[Method] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1]


@dataclass
class Corpus:
    """Source files plus the model a correct analysis extracts from them."""

    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    classes: list[Klass] = field(default_factory=list)
    loc: int = 0

    def packages(self) -> list[str]:
        """Every package in the model, class-free ancestors included."""
        names = set()
        for cls in self.classes:
            parts = cls.qname.split(".")[:-1]
            for k in range(1, len(parts) + 1):
                names.add(".".join(parts[:k]))
        return sorted(names)

    def metrics_text(self) -> str:
        """The expected `oodoc metrics` / metrics.txt text."""
        with_classes = {c.qname.rsplit(".", 1)[0] for c in self.classes}
        return (
            f"LoC {self.loc}\n"
            f"NoP {len(with_classes)}\n"
            f"NoC {len(self.classes)}\n"
            f"NoA {sum(len(c.attributes) for c in self.classes)}\n"
            f"NoM {sum(len(c.methods) for c in self.classes)}\n"
            f"NoP(all-packages) {len(self.packages())}\n"
        )

    def links(self) -> set[str]:
        """The gold link set, following the README's link definitions."""
        out = {f"pkg:{p}" for p in self.packages()}
        for cls in self.classes:
            q = cls.qname
            out.add(f"class:{q}")
            if cls.superclass is not None:
                out.add(f"inherits:{q}->{cls.superclass[0]}")
            for name, _ in cls.interfaces:
                out.add(f"implements:{q}->{name}")
            for name, _, _ in cls.attributes:
                out.add(f"attr:{q}#{name}")
            for m in cls.methods:
                body = f"{q}#{m.signature}"
                out.add(f"method:{body}")
                out.update(f"local:{body}#{var}" for var, _ in m.locals)
                out.update(
                    f"invokes:{body}->{r.owner}#{r.name}" for r in m.invocations if r.resolved
                )
                out.update(
                    f"accesses:{body}->{r.owner}#{r.name}" for r in m.accesses if r.resolved
                )
        return out

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def write_truth(self, root: Path, links: set[str]) -> None:
        """The expected metrics record and the gold link set, one per line."""
        root.mkdir(parents=True, exist_ok=True)
        (root / "metrics.txt").write_text(self.metrics_text(), encoding="utf-8")
        (root / "links.txt").write_text("".join(f"{link}\n" for link in sorted(links)),
                                        encoding="utf-8")


class _Source:
    """One source file being emitted, counting its lines of code."""

    def __init__(self):
        self.lines: list[str] = []
        self.loc = 0

    def code(self, depth: int, text: str):
        self.lines.append("    " * depth + text)
        self.loc += 1

    def note(self, depth: int = 0, text: str = ""):
        """A blank or comment-only line, which LoC does not count."""
        self.lines.append("    " * depth + text if text else "")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit(corpus: Corpus, cls: Klass, src: _Source):
    package, _, name = cls.qname.rpartition(".")
    corpus.files[f"{package.replace('.', '/')}/{name}.java"] = src.text()
    corpus.classes.append(cls)
    corpus.loc += src.loc


def _header(src: _Source, package: str, imports: list[str]):
    src.code(0, f"package {package};")
    src.note()
    for imp in imports:
        src.code(0, f"import {imp};")
    src.note()


# -- analyze-wide: many small classes ------------------------------------------


def wide_corpus(seed: int, classes: int) -> Corpus:
    """The shape of the synthetic corpus in tests: 10 classes per package,
    a base class plus nine subclasses, cross-package imports, short bodies."""
    rng = random.Random(seed)
    packages = classes // 10
    corpus = Corpus()
    for p in range(packages):
        _wide_base(corpus, p, _other(rng, p, packages))
        for k in range(9):
            _wide_node(corpus, p, k, q=_other(rng, p, packages),
                       sibling=_other(rng, k, 9),
                       extra=rng.randrange(len(_WIDE_EXTRAS)))
    return corpus


def _other(rng: random.Random, index: int, count: int) -> int:
    """A seeded index in range(count) other than `index`."""
    return (index + 1 + rng.randrange(count - 1)) % count


def _pkg(p: int) -> str:
    return f"app.p{p:03d}"


def _base(p: int) -> str:
    return f"{_pkg(p)}.Base{p:03d}"


def _wide_base(corpus: Corpus, p: int, q: int):
    me, peer = _base(p), _base(q)
    peer_name = peer.rsplit(".", 1)[-1]
    cls = Klass(me, interfaces=[("Cloneable", False)],
                attributes=[("counter", "int", "protected"), ("label", "String", "public"),
                            ("peer", peer_name, "private")])
    src = _Source()
    _header(src, _pkg(p), [peer])
    src.note(0, f"/** Shared state of package p{p:03d}. */")
    src.code(0, f"public class {cls.name} implements Cloneable {{")
    src.note()
    src.code(1, "protected int counter;")
    src.code(1, "public String label;")
    src.code(1, f"private {peer_name} peer;")
    src.note()
    src.code(1, f"public {cls.name}(int counter, String label) {{")
    src.code(2, "this.counter = counter;")
    src.code(2, "this.label = label;")
    src.code(1, "}")
    ctor = Method(cls.name, None, [("counter", "int"), ("label", "String")],
                  accesses=[Relation("counter", "this", me, True),
                            Relation("label", "this", me, True)])
    src.note()
    src.code(1, "public int getCounter() {")
    src.code(2, "return this.counter;")
    src.code(1, "}")
    get = Method("getCounter", "int", [], accesses=[Relation("counter", "this", me, True)])
    src.note()
    src.code(1, "public void setCounter(int counter) {")
    src.code(2, "this.counter = counter;")
    src.code(1, "}")
    put = Method("setCounter", "void", [("counter", "int")],
                 accesses=[Relation("counter", "this", me, True)])
    src.note()
    src.code(1, f"public void link({peer_name} other) {{")
    src.code(2, "this.peer = other;")
    src.code(2, "other.setCounter(this.counter);")
    src.code(1, "}")
    link = Method("link", "void", [("other", peer_name)],
                  accesses=[Relation("peer", "this", me, True),
                            Relation("counter", "this", me, True)],
                  invocations=[Relation("setCounter", "other", peer, True)])
    src.code(0, "}")
    cls.methods = [ctor, get, put, link]
    _emit(corpus, cls, src)


def _extra_tag(src, ctx):
    src.code(1, f"public String tag({ctx['peer_name']} other) {{")
    src.code(2, "String text = other.label;")
    src.code(2, "return text;")
    src.code(1, "}")
    return Method("tag", "String", [("other", ctx["peer_name"])], locals=[("text", "String")],
                  accesses=[Relation("label", "other", ctx["peer"], True)])


def _extra_twice(src, ctx):
    src.code(1, "public int twice() {")
    src.code(2, "int value = super.getCounter();")
    src.code(2, "return value * 2;")
    src.code(1, "}")
    return Method("twice", "int", [], locals=[("value", "int")],
                  invocations=[Relation("getCounter", "super", ctx["base"], True)])


def _extra_spawn(src, ctx):
    sib = ctx["sibling"]
    name = sib.rsplit(".", 1)[-1]
    src.code(1, f"public {name} spawn(int seed) {{")
    src.code(2, f"{name} made = new {name}(seed);")
    src.code(2, "made.combine(seed);")
    src.code(2, "return made;")
    src.code(1, "}")
    return Method("spawn", name, [("seed", "int")], locals=[("made", name)],
                  invocations=[Relation(name, name, sib, True),
                               Relation("combine", "made", sib, True)])


def _extra_clamp(src, ctx):
    src.code(1, "public int clamp(int limit) {")
    src.code(2, "int high = Math.max(limit, 0);")
    src.code(2, "return Math.min(high, this.weight);")
    src.code(1, "}")
    return Method("clamp", "int", [("limit", "int")], locals=[("high", "int")],
                  accesses=[Relation("weight", "this", ctx["me"], True)],
                  invocations=[Relation("max", "Math", "Math", False),
                               Relation("min", "Math", "Math", False)])


def _extra_report(src, ctx):
    src.code(1, "public void report() {")
    src.code(2, "System.out.println(this.label);")
    src.code(1, "}")
    return Method("report", "void", [],
                  accesses=[Relation("label", "this", ctx["base"], True)],
                  invocations=[Relation("println", "System.out", "System.out", False)])


def _extra_absorb(src, ctx):
    src.code(1, f"public void absorb({ctx['peer_name']} other) {{")
    src.code(2, "this.weight = this.weight + other.getCounter();")
    src.code(2, "other.link(this);")
    src.code(1, "}")
    return Method("absorb", "void", [("other", ctx["peer_name"])],
                  accesses=[Relation("weight", "this", ctx["me"], True)],
                  invocations=[Relation("getCounter", "other", ctx["peer"], True),
                               Relation("link", "other", ctx["peer"], True)])


_WIDE_EXTRAS = (_extra_tag, _extra_twice, _extra_spawn, _extra_clamp, _extra_report,
                _extra_absorb)


def _wide_node(corpus: Corpus, p: int, k: int, q: int, sibling: int, extra: int):
    base = _base(p)
    base_name = base.rsplit(".", 1)[-1]
    peer = _base(q)
    peer_name = peer.rsplit(".", 1)[-1]
    me = f"{_pkg(p)}.Node{p:03d}x{k}"
    ctx = {"me": me, "base": base, "peer": peer, "peer_name": peer_name,
           "sibling": f"{_pkg(p)}.Node{p:03d}x{sibling}"}
    cls = Klass(me, superclass=(base, True), attributes=[("weight", "int", "private")])
    src = _Source()
    _header(src, _pkg(p), [peer])
    src.note(0, f"// Node {k} of package p{p:03d}.")
    src.code(0, f"public class {cls.name} extends {base_name} {{")
    src.note()
    src.code(1, "private int weight;")
    src.note()
    src.code(1, f"public {cls.name}(int weight) {{")
    src.code(2, "this.weight = weight;")
    src.code(2, "this.counter = weight;")
    src.code(1, "}")
    ctor = Method(cls.name, None, [("weight", "int")],
                  accesses=[Relation("weight", "this", me, True),
                            Relation("counter", "this", base, True)])
    src.note()
    src.code(1, "public int combine(int bonus) {")
    src.code(2, "int partial = this.weight + bonus;")
    src.code(2, "setCounter(partial);")
    src.code(2, "return getCounter();")
    src.code(1, "}")
    combine = Method("combine", "int", [("bonus", "int")], locals=[("partial", "int")],
                     accesses=[Relation("weight", "this", me, True)],
                     invocations=[Relation("setCounter", "", base, True),
                                  Relation("getCounter", "", base, True)])
    src.note()
    src.code(1, f"public int lift({peer_name} other) {{")
    src.code(2, "int base = other.getCounter();")
    src.code(2, "for (int i = 0; i < base; i = i + 1) {")
    src.code(3, "this.weight = this.weight + 1;")
    src.code(2, "}")
    src.code(2, "while (base > 0) {")
    src.code(3, "base = base - 1;")
    src.code(2, "}")
    src.code(2, "return this.weight;")
    src.code(1, "}")
    lift = Method("lift", "int", [("other", peer_name)], locals=[("base", "int"), ("i", "int")],
                  accesses=[Relation("weight", "this", me, True)],
                  invocations=[Relation("getCounter", "other", peer, True)])
    src.note()
    cls.methods = [ctor, combine, lift, _WIDE_EXTRAS[extra](src, ctx)]
    src.code(0, "}")
    _emit(corpus, cls, src)


# -- parse-heavy: few classes with long bodies ------------------------------------

# Statement kinds of one method body, as a multiset; each body is a seeded
# permutation of it, so every method costs the same on every seed.
_HEAVY_BODY = (
    ["arith"] * 2 + ["call"] * 2 + ["helper"] * 2 + ["for"] * 2
    + ["text", "note", "if", "block", "while", "switch", "char", "extern", "inline",
       "quote", "double", "logic", "guard"]
)
_HEAVY_METHODS = 12


def heavy_corpus(seed: int, classes: int) -> Corpus:
    """Long method bodies mixing comments, string literals that contain
    comment markers, loops, ifs, switches, calls and arithmetic."""
    rng = random.Random(seed)
    packages = classes // 10
    corpus = Corpus()
    for g in range(packages):
        for k in range(10):
            h = _other(rng, g, packages)
            helper = f"calc.m{h:02d}.Unit{h:02d}x{rng.randrange(10)}"
            _heavy_class(corpus, rng, f"calc.m{g:02d}.Unit{g:02d}x{k}", helper)
    return corpus


def _heavy_class(corpus: Corpus, rng: random.Random, me: str, helper: str):
    package, _, name = me.rpartition(".")
    helper_name = helper.rsplit(".", 1)[-1]
    cls = Klass(me, attributes=[("total", "int", "private"), ("limit", "int", "private"),
                                ("name", "String", "private"),
                                ("helper", helper_name, "private")])
    src = _Source()
    _header(src, package, [helper])
    src.note(0, "/**")
    src.note(0, f" * Worker {name}: long bodies for the parser, with \"quotes\" and // markers.")
    src.note(0, " */")
    src.code(0, f"public class {name} {{")
    src.note()
    for attr, type_name, access in cls.attributes:
        src.code(1, f"{access} {type_name} {attr};")
    src.note()
    src.code(1, f"public {name}(int limit) {{")
    src.code(2, "this.limit = limit;")
    src.code(2, "this.total = 0;")
    src.code(1, "}")
    cls.methods.append(Method(name, None, [("limit", "int")],
                              accesses=[Relation("limit", "this", me, True),
                                        Relation("total", "this", me, True)]))
    src.note()
    src.code(1, "public int absorb(int value) {")
    src.code(2, "this.total = this.total + value;")
    src.code(2, "return this.total;")
    src.code(1, "}")
    cls.methods.append(Method("absorb", "int", [("value", "int")],
                              accesses=[Relation("total", "this", me, True)]))
    for index in range(_HEAVY_METHODS):
        src.note()
        method = Method(f"step{index}", "int", [("a", "int"), ("b", "int")])
        src.code(1, f"public int step{index}(int a, int b) {{")
        kinds = list(_HEAVY_BODY)
        rng.shuffle(kinds)
        for k, kind in enumerate(kinds):
            _heavy_statement(src, rng, method, kind, k, me, helper)
        src.code(2, "return this.total + a;")
        method.accesses.append(Relation("total", "this", me, True))
        src.code(1, "}")
        cls.methods.append(method)
    src.code(0, "}")
    _emit(corpus, cls, src)


def _heavy_statement(src: _Source, rng: random.Random, m: Method, kind: str, k: int,
                     me: str, helper: str):
    c = rng.randrange(2, 10)
    total = Relation("total", "this", me, True)
    if kind == "arith":
        src.code(2, f"int v{k} = a * {c} + b / {c + 1} - (this.total % {c + 2});")
        m.locals.append((f"v{k}", "int"))
        m.accesses.append(total)
    elif kind == "text":
        src.code(2, f'String s{k} = "step {k} // not a comment /* nor this */";')
        m.locals.append((f"s{k}", "String"))
    elif kind == "note":
        src.note(2, f'// accumulate {k}: "quoted" text and /* markers */ stay comment')
    elif kind == "block":
        src.note(2, "/*")
        src.note(2, f' * block {k} with "quotes", // markers and code: int x = {c};')
        src.note(2, " */")
    elif kind == "call":
        target = f"step{rng.randrange(_HEAVY_METHODS)}"
        src.code(2, f"this.total = this.total + {target}(a, {c});")
        m.accesses.append(total)
        m.invocations.append(Relation(target, "", me, True))
    elif kind == "helper":
        src.code(2, f"helper.absorb(a + {c});")
        m.invocations.append(Relation("absorb", "helper", helper, True))
    elif kind == "if":
        src.code(2, "if (a > this.limit) {")
        src.code(3, f"this.total = this.total - {c};")
        src.code(2, "} else {")
        src.code(3, f"this.total = this.total + {c};")
        src.code(2, "}")
        m.accesses += [Relation("limit", "this", me, True), total]
    elif kind == "for":
        src.code(2, f"for (int i{k} = 0; i{k} < b; i{k} = i{k} + 1) {{")
        src.code(3, f"this.total = this.total + i{k} * {c};")
        src.code(2, "}")
        m.locals.append((f"i{k}", "int"))
        m.accesses.append(total)
    elif kind == "while":
        src.code(2, f"while (a > {c}) {{")
        src.code(3, f"a = a - {c - 1}; // shrink the input")
        src.code(2, "}")
    elif kind == "switch":
        src.code(2, "switch (b) {")
        src.code(3, f"case {c}:")
        src.code(4, "this.total = 0;")
        src.code(4, "break;")
        src.code(3, "default:")
        src.code(4, "this.total = this.total + 1;")
        src.code(2, "}")
        m.accesses.append(total)
    elif kind == "char":
        src.code(2, f"char c{k} = '{rng.choice('/*')}';")
        m.locals.append((f"c{k}", "char"))
    elif kind == "extern":
        src.code(2, f"int m{k} = Math.max(a, {c});")
        m.locals.append((f"m{k}", "int"))
        m.invocations.append(Relation("max", "Math", "Math", False))
    elif kind == "inline":
        src.code(2, f"/* inline {k} */ b = b + {c};")
    elif kind == "quote":
        src.code(2, f'this.name = "say \\"hi\\" // {k}" + this.name;')
        m.accesses.append(Relation("name", "this", me, True))
    elif kind == "double":
        src.code(2, f"double d{k} = {c}.5 * a;")
        m.locals.append((f"d{k}", "double"))
    elif kind == "logic":
        src.code(2, f"boolean f{k} = !(a == b) || b <= {c};")
        m.locals.append((f"f{k}", "boolean"))
    elif kind == "guard":
        src.code(2, f"if (a > b && b != {c}) {{")
        src.code(3, "b = b + 1;")
        src.code(2, "}")
    else:
        raise ValueError(f"unknown statement kind {kind}")


# -- the XML exchange format, written and read without the program -------------


def _xml_attrs(pairs) -> str:
    """Attributes in the document's fixed order. Generated names hold no
    tab, newline or carriage return, so escaping & < and " is enough."""
    return "".join(
        f' {k}="{v.replace("&", "&amp;").replace("<", "&lt;").replace(chr(34), "&quot;")}"'
        for k, v in pairs
    )


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _tag(depth: int, name: str, pairs=(), end: str = "/>") -> str:
    """One element line, indented two spaces per level."""
    return f"{'  ' * depth}<{name}{_xml_attrs(pairs)}{end}"


def model_xml(corpus: Corpus, project_name: str) -> str:
    """The corpus model in the README's XML exchange format."""
    by_package: dict[str, list[Klass]] = {}
    for cls in corpus.classes:
        by_package.setdefault(cls.qname.rsplit(".", 1)[0], []).append(cls)
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           _tag(0, "Project", [("ProjectName", project_name), ("LinesOfCode", str(corpus.loc))],
                ">"),
           "  <Packages>"]
    for package in corpus.packages():
        out.append(_tag(2, "Package", [("PackageName", package)], ">"))
        out.append("      <Classes>")
        for cls in by_package.get(package, []):
            attrs = [("ClassName", cls.name), ("classAccessLevel", "public"),
                     ("IsInterface", "false")]
            if cls.superclass is not None:
                attrs += [("Superclass", cls.superclass[0]),
                          ("SuperclassInternal", _bool(cls.superclass[1]))]
            out.append(_tag(4, "Class", attrs, ">"))
            for name, internal in cls.interfaces:
                out.append(_tag(5, "SuperInterfaces",
                                [("Name", name), ("Internal", _bool(internal))]))
            out.append("          <Attributes>")
            for name, type_name, access in cls.attributes:
                out.append(_tag(6, "Attribute", [("Name", name), ("DeclaredType", type_name),
                                                 ("AccessLevel", access), ("IsStatic", "false")]))
            out.append("          </Attributes>")
            out.append("          <Methods>")
            for m in cls.methods:
                out.extend(_method_xml(m))
            out.append("          </Methods>")
            out.append("        </Class>")
        out.append("      </Classes>")
        out.append("    </Package>")
    out += ["  </Packages>", "</Project>"]
    return "\n".join(out) + "\n"


def _method_xml(m: Method) -> list[str]:
    attrs = [("MethodName", m.name), ("MethodAccessLevel", "public")]
    if m.return_type is not None:
        attrs.append(("ReturnType", m.return_type))
    attrs += [("IsStatic", "false"), ("IsConstructor", _bool(m.return_type is None))]
    out = [_tag(6, "Method", attrs, ">"),
           _tag(7, "Parameters", [("NumberOfParameters", str(len(m.params)))], ">")]
    for order, (name, type_name) in enumerate(m.params):
        out.append(_tag(8, "Parameter", [("Name", name), ("DeclaredType", type_name),
                                         ("Order", str(order))]))
    out.append(_tag(7, "/Parameters", end=">"))
    out.append(_tag(7, "LocalVariables", end=">"))
    for name, type_name in m.locals:
        out.append(_tag(8, "LocalVariable", [("Name", name), ("DeclaredType", type_name)]))
    out.append(_tag(7, "/LocalVariables", end=">"))
    for group, tag, relations in (("AttributeAccesses", "AttributeAccess", m.accesses),
                                  ("MethodInvocations", "MethodInvocation", m.invocations)):
        out.append(_tag(7, group, end=">"))
        for r in relations:
            out.append(_tag(8, tag, [("Name", r.name), ("Receiver", r.receiver),
                                     ("DeclaringClass", r.owner),
                                     ("Resolved", _bool(r.resolved))]))
        out.append(_tag(7, f"/{group}", end=">"))
    out.append(_tag(7, "MethodExceptions"))
    out.append("            </Method>")
    return out


def xml_links(text: str) -> set[str]:
    """Read the README's canonical links out of a model XML document."""
    root = ElementTree.fromstring(text)
    out: set[str] = set()
    for pkg in root.iter("Package"):
        pname = pkg.get("PackageName")
        out.add(f"pkg:{pname}")
        for cls in pkg.iter("Class"):
            q = f"{pname}.{cls.get('ClassName')}" if pname else cls.get("ClassName")
            out.add(f"class:{q}")
            is_interface = cls.get("IsInterface") == "true"
            if cls.get("Superclass") is not None:
                out.add(f"inherits:{q}->{cls.get('Superclass')}")
            for sup in cls.findall("SuperInterfaces"):
                if sup.get("Name") is not None:
                    verb = "inherits" if is_interface else "implements"
                    out.add(f"{verb}:{q}->{sup.get('Name')}")
            for attr in cls.iter("Attribute"):
                out.add(f"attr:{q}#{attr.get('Name')}")
            for m in cls.iter("Method"):
                types = ",".join(p.get("DeclaredType") for p in m.iter("Parameter"))
                body = f"{q}#{m.get('MethodName')}({types})"
                out.add(f"method:{body}")
                for var in m.iter("LocalVariable"):
                    out.add(f"local:{body}#{var.get('Name')}")
                for tag, verb in (("MethodInvocation", "invokes"), ("AttributeAccess", "accesses")):
                    for r in m.iter(tag):
                        if r.get("Resolved") == "true":
                            out.add(f"{verb}:{body}->{r.get('DeclaringClass')}#{r.get('Name')}")
    return out


# -- a reference model with known precision and recall --------------------------


def withhold_and_add(corpus: Corpus, seed: int, share: float = 0.05) -> None:
    """Turn the corpus model into a reference that differs from it.

    A seeded sample of `share` of the local variables and of the resolved
    relations is withheld (so the unchanged model scores extra links as
    spurious), and `share` of the classes gain an attribute the model lacks
    (so it misses them). Sample sizes are fixed, so the expected precision
    and recall barely move from seed to seed.
    """
    rng = random.Random(seed ^ 0x5EED)
    for cls in rng.sample(corpus.classes, round(share * len(corpus.classes))):
        cls.attributes.append(("ghost", "int", "private"))
    methods = [m for cls in corpus.classes for m in cls.methods]
    local_slots = [(m, var) for m in methods for var in m.locals]
    for m, var in rng.sample(local_slots, round(share * len(local_slots))):
        m.locals.remove(var)
    resolved = [r for m in methods for r in m.accesses + m.invocations if r.resolved]
    for r in rng.sample(resolved, round(share * len(resolved))):
        r.resolved = False


def evaluation_lines(retrieved: set[str], reference: set[str]) -> list[str]:
    """What `oodoc evaluate` must print for these link sets: its first five
    lines, then the headers of the missing and spurious sections."""
    tp = len(retrieved & reference)
    precision = Fraction(tp, len(retrieved)) if retrieved else Fraction(1)
    recall = Fraction(tp, len(reference)) if reference else Fraction(1)
    return [
        f"retrieved {len(retrieved)}",
        f"relevant {len(reference)}",
        f"true-positives {tp}",
        f"precision {float(precision):.4f}",
        f"recall {float(recall):.4f}",
        f"missing ({len(reference - retrieved)})",
        f"spurious ({len(retrieved - reference)})",
    ]

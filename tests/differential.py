"""Parent-against-change differential of the parser and the XML reader on
seeded inputs.

    python3 tests/differential.py --parent DIR --change DIR

Each DIR is a checkout of this repository, such as the parent commit
unpacked with `git archive` into a scratch directory. Each side parses in
its own interpreter with PYTHONPATH set to DIR/src. The inputs come from
this script's own generators, so both sides read the same texts (an XML
document is written by the side's own writer, which is byte-stable):

- mutants: 2,000 mutants of the fixture (test_lexer.mutate on
  fixture_files[i % n], seed 20161018), the 1,200-mutant property's loop
  run to 2,000;
- insertions: 3,000 fixture files, each with one snippet inserted as a
  statement or a member: code outside the subset and recovery edge cases;
- declarations: each fixture file followed by one more top-level type,
  with a flag a type may carry (abstract, final) or one only a member may
  (static, native, default, synchronized, transient);
- fixture: the drawing-shapes fixture;
- wide-N and heavy-N: bench/corpus.py's wide (3,000 classes) and heavy (150
  classes) corpora for seeds 1-3;
- xml-mutants: 3,000 test_xml_reader.mutant documents (seed 20160603) of
  the fixture's model and of a generated model that uses every element,
  read with xmlio.parse_model.

Per source file the outcome is the failure's line and message, or the LoC,
the warnings and the harvest: classes with their supertypes, attributes,
methods with their parameters, locals, invocations and accesses. Per XML
document it is the error's class, location and message, or the project's
name, its LoC and a digest of its sorted evaluation links. For each input
set the script prints both sides' failed and parsed counts and each
changed outcome as "parent → change: count", with the first input that
shows it. It gates nothing, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 20161018
MUTANTS = 2000
INSERTIONS = 3000
CORPUS_SEEDS = (1, 2, 3)
XML_SEED = 20160603
XML_MUTANTS = 3000
XML_SET = "xml-mutants"
SETS = ("mutants", "insertions", "declarations", "fixture",
        *(f"{kind}-{seed}" for seed in CORPUS_SEEDS for kind in ("wide", "heavy")), XML_SET)

# Inserted after a line that ends a method or block header with ") {".
STATEMENT_SNIPPETS = (
    # recovery edge cases
    "try (R r = o(); S s = p()) { g(); }",
    "run(() -> { b.go(); });",
    "try { a(); } catch (E e) { b(); } finally { c(); }",
    "x = new A() { void q() { } }.go();",
    "a( ;",
    "b[ ;",
    # expressions and statements outside the subset
    "((B) o).go();",
    "Object v = (T) e;",
    "v = c ? a() : b();",
    "if (o instanceof B) { g(); }",
    "n++;",
    "n += 2;",
    "this(1);",
    "super();",
    "throw new E();",
    "assert c : m();",
    "run(this::g);",
    "int[] a = {1, 2};",
    "run(x -> x.go());",
    "run(new Runnable() { public void run() { go(); } });",
    "final int k = f();",
    "do { g(); } while (c());",
    "label: for (;;) { g(); }",
    "synchronized (this) { g(); }",
    "for (final String s : xs) { s.go(); }",
    "List<String> l = new ArrayList<>();",
    "int h = 0x1F;",
)
# Inserted after the line that opens the class or interface body.
MEMBER_SNIPPETS = (
    "int x = f()",
    "void f(Foo<;> x) { g(); }",
    "void f(Foo<{> x) { g(); }",
    "void f(List<@N({1}) String> xs) { g(); }",
    "Runnable r = () -> { go(); };",
    "Object o = new Object() { }.go(), p;",
    "int[] a = {1, 2};",
    "int y = c ? 1 : 2;",
    "void m(final B b) { b.go(); }",
    "void m(@N B b) { b.go(); }",
    "transient int t;",
    "volatile int v;",
    "native void n();",
    "synchronized void s() { g(); }",
    "static { init(); }",
    "{ init(); }",
    "default void d() { g(); }",
    "static class Inner { void m() { } }",
    "enum E { A, B }",
)

# Appended to a fixture file as a second top-level type.
DECLARATION_SNIPPETS = (
    "abstract class Extra { }", "final class Extra { }", "static class Extra { }", "native class Extra { }",
    "default class Extra { }", "synchronized class Extra { }", "transient interface Extra { }",
)


def insert_snippet(text: str, rng: random.Random) -> str:
    lines = text.split("\n")
    bodies = [i for i, line in enumerate(lines) if line.rstrip().endswith(") {")]
    heads = [i for i, line in enumerate(lines)
             if line.rstrip().endswith("{") and (" class " in f" {line}" or " interface " in f" {line}")]
    if bodies and rng.random() < 0.5:
        at, snippet = rng.choice(bodies), rng.choice(STATEMENT_SNIPPETS)
    else:
        at, snippet = rng.choice(heads), rng.choice(MEMBER_SNIPPETS)
    return "\n".join(lines[:at + 1] + [snippet] + lines[at + 1:])


def xml_inputs():
    """(label, text) of each XML mutant, in order."""
    import xml.etree.ElementTree as ET

    from oodoc.xmlio import serialize_model

    from conftest import load_fixture_project
    from genmodels import random_project
    from test_xml_reader import TAGS, mutant

    rng = random.Random(XML_SEED)
    generated = next(
        p for p in (random_project(rng) for _ in range(1000))
        if set(TAGS[:20]) <= {e.tag for e in ET.fromstring(serialize_model(p)).iter()}
    )
    documents = {"fixture": ET.fromstring(serialize_model(load_fixture_project())),
                 "generated": ET.fromstring(serialize_model(generated))}
    out = []
    for index in range(XML_MUTANTS):
        # the fixture's document is three times the size of the generated one
        base = "fixture" if rng.random() < 0.3 else "generated"
        out.append((f"{base}#{index}", mutant(documents[base], rng)))
    return out


def inputs(name: str):
    """(path, text) of each input in the set, in order."""
    from oodoc.sources import scan_directory

    if name == XML_SET:
        return xml_inputs()

    root = HERE / "fixtures" / "drawing_shapes"
    fixture = [(os.path.relpath(f.path, root), f.text) for f in scan_directory(root)]
    if name == "fixture":
        return fixture
    if name == "declarations":
        return [(path, f"{text}\n{snippet}\n") for path, text in fixture for snippet in DECLARATION_SNIPPETS]
    if name == "mutants":
        from test_lexer import mutate

        rng = random.Random(SEED)
        return [(path, mutate(text, rng))
                for path, text in (fixture[i % len(fixture)] for i in range(MUTANTS))]
    if name == "insertions":
        rng = random.Random(SEED)
        return [(path, insert_snippet(text, rng))
                for path, text in (fixture[i % len(fixture)] for i in range(INSERTIONS))]
    sys.path.insert(0, str(HERE.parent / "bench"))
    import corpus

    kind, seed = name.split("-")
    if kind == "wide":
        return list(corpus.wide_corpus(int(seed), classes=3000).files.items())
    return list(corpus.heavy_corpus(int(seed), classes=150).files.items())


def harvest(tree) -> list[str]:
    """What the tree holds, one line per item, in source order."""
    out = []
    for c in tree.classes:
        supers = [t.name for t in ([c.superclass] if c.superclass else []) + c.super_interfaces]
        out.append(f"class {c.name} {c.access_level} interface={c.is_interface} {supers}")
        out.extend(f"attribute {c.name}.{a.name} {a.declared_type} {a.access_level} static={a.is_static}"
                   for a in c.attributes)
        for m in c.methods:
            params = [(p.name, p.declared_type) for p in m.parameters]
            body = f"{c.name}.{m.name}{params}"
            out.append(f"method {body} {m.return_type} {m.access_level} static={m.is_static} {m.throws}")
            out.extend(f"local {body} {v.name} {v.declared_type}" for v in m.local_variables)
            out.extend(f"invokes {body} {i.method_name} on {i.receiver!r}" for i in m.invocations)
            out.extend(f"accesses {body} {a.attribute_name} on {a.receiver!r}" for a in m.accesses)
    return out


def source_outcome(path: str, text: str) -> list:
    from oodoc.errors import ParseFailure
    from oodoc.parsing import parse_file
    from oodoc.sources import SourceFile

    try:
        tree = parse_file(SourceFile(path, text))
        return ["parsed", tree.loc, [[w.line, w.message] for w in tree.warnings], harvest(tree)]
    except ParseFailure as exc:
        return ["failed", exc.line, exc.message]


def model_outcome(path: str, text: str) -> list:
    from oodoc.errors import ConsistencyError, SchemaError
    from oodoc.evaluation import extract_links
    from oodoc.xmlio import parse_model

    try:
        project = parse_model(text)
    except (SchemaError, ConsistencyError) as exc:
        return ["failed", type(exc).__name__, exc.location, exc.message]
    links = hashlib.sha256("\n".join(sorted(extract_links(project))).encode()).hexdigest()
    return ["parsed", project.name, project.loc, links[:16]]


def print_outcomes(name: str):
    """One JSON line per input of the set: [path, outcome]."""
    import oodoc

    src = os.environ["PYTHONPATH"].split(os.pathsep)[0]
    if not Path(oodoc.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"oodoc was imported from {oodoc.__file__}, not from {src}")
    outcome = model_outcome if name == XML_SET else source_outcome
    for path, text in inputs(name):
        print(json.dumps([path, outcome(path, text)]))


def side_outcomes(root: str, name: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    run = subprocess.run([sys.executable, __file__, "--outcomes", name], env=env,
                         stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in run.stdout.splitlines()]


def compare(name: str, old: list, new: list) -> str:
    """The class of a changed outcome in input set name."""
    if old[0] != new[0]:
        return f"{old[0]} → {new[0]}"
    if name == XML_SET:
        return "failed → failed with another error" if old[0] == "failed" else "parsed → parsed, another model"
    if old[0] == "failed":
        return "failed → failed at another line or with another message"
    parts = []
    if old[1] != new[1]:
        parts.append("other LoC")
    if old[3] != new[3]:
        before, after = Counter(old[3]), Counter(new[3])
        parts.append("larger harvest" if before < after else "smaller harvest" if after < before
                     else "reordered harvest" if before == after else "other harvest")
    else:
        parts.append("same harvest")
    if old[2] != new[2]:
        parts.append("fewer warnings" if len(new[2]) < len(old[2])
                     else "more warnings" if len(new[2]) > len(old[2]) else "other warnings")
    return "parsed → parsed, " + ", ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--outcomes", choices=SETS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.outcomes:
        print_outcomes(args.outcomes)
        return
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    for name in SETS:
        parent, change = side_outcomes(args.parent, name), side_outcomes(args.change, name)
        assert [p for p, _ in parent] == [p for p, _ in change], name
        counts = [Counter(o[0] for _, o in side) for side in (parent, change)]
        print(f"{name}: {len(parent)} files; parent {counts[0]['failed']} failed,"
              f" {counts[0]['parsed']} parsed; change {counts[1]['failed']} failed,"
              f" {counts[1]['parsed']} parsed")
        changed: Counter = Counter()
        first: dict[str, str] = {}
        for index, ((path, old), (_, new)) in enumerate(zip(parent, change)):
            if old != new:
                kind = compare(name, old, new)
                changed[kind] += 1
                first.setdefault(kind, f"{name}#{index} {path}")
        for kind, count in changed.most_common():
            print(f"  {kind}: {count} (first: {first[kind]})")
        if not changed:
            print("  no changed outcome")


if __name__ == "__main__":
    main()

"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned in the assertions themselves.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from oodoc.documents import (
    gen_class_dependency_document,
    gen_method_dependency_document,
)
from oodoc.dot import serialize_dot, validate_dot
from oodoc.evaluation import extract_links, precision_recall
from oodoc.metrics import class_metrics, project_metrics
from oodoc.model import build_model, class_qualified_name, resolve_references
from oodoc.parsing import count_token_lines, parse_files, tokenize
from oodoc.sources import scan_directory
from oodoc.xmlio import parse_model, serialize_model

from checks import (
    assert_containment_tree,
    assert_referential_integrity,
    assert_resolution_idempotent,
    lookup,
)
from conftest import CORE_ELEMENTS, CORE_FRAME, all_documents, load_fixture_project
from genmodels import random_project, write_synthetic_corpus
from oracles import loc_oracle

SHAPE = f"{CORE_FRAME}.MyShape"
PANEL = f"{CORE_FRAME}.PaintJPanel"


def report(number: int, description: str):
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_fixture_fidelity():
    started = time.perf_counter()
    project = load_fixture_project()
    record = project_metrics(project)
    elapsed = time.perf_counter() - started
    assert record.nom == 29
    assert record.noa == 14
    assert record.noc == 6
    class_bearing = [p for p in project.packages if p.classes]
    assert len(class_bearing) == 2
    assert all(len(p.classes) == 3 for p in class_bearing)
    shape = lookup(project, SHAPE)
    assert class_metrics(shape) == (5, 12)
    frame = lookup(project, f"{CORE_FRAME}.DrawingShapes")
    assert class_metrics(frame) == (5, 5)
    assert frame.superclass is not None and not frame.superclass.internal
    assert frame.superclass.name == "JFrame"
    panel = lookup(project, PANEL)
    assert class_metrics(panel) == (4, 6)
    assert panel.superclass.name == "JPanel" and not panel.superclass.internal
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
    report(1, f"fixture fidelity (NoM=29, NoA=14, NoC=6, {elapsed:.2f}s < 5s)")


def test_criterion_2_inheritance_edges(fixture_project):
    graph = gen_class_dependency_document(fixture_project)
    internal_ids = {
        class_qualified_name(pkg, cls)
        for pkg in fixture_project.packages
        for cls in pkg.classes
    }
    internal_edges = {
        (e.src, e.dst)
        for e in graph.edges
        if e.kind == "inherits" and e.src in internal_ids and e.dst in internal_ids
    }
    assert internal_edges == {
        (f"{CORE_ELEMENTS}.MyLine", SHAPE),
        (f"{CORE_ELEMENTS}.MyOval", SHAPE),
        (f"{CORE_ELEMENTS}.MyRectangle", SHAPE),
    }
    report(2, "class dependency document holds exactly the three MyShape edges")


def test_criterion_3_method_dependencies(fixture_project):
    graph = gen_method_dependency_document(fixture_project)
    edges = {(e.src, e.dst, e.kind) for e in graph.edges}
    assert (f"{PANEL}#paintComponent()", f"{SHAPE}#draw()", "invokes") in edges
    assert (
        f"{PANEL}#paintJPanelMouseDragged()",
        f"{PANEL}#currentShape",
        "accesses",
    ) in edges
    report(3, "paintComponent->MyShape.draw and mouseDragged->currentShape present")


def test_criterion_4_xml_round_trip(fixture_project):
    doc = serialize_model(fixture_project)
    assert parse_model(doc) == fixture_project
    assert serialize_model(fixture_project) == doc  # byte-deterministic re-run
    rng = random.Random(20260810)
    for i in range(20):
        project = random_project(rng)
        text = serialize_model(project)
        rebuilt = parse_model(text)
        assert rebuilt == project, f"random model {i} failed round-trip"
        assert serialize_model(rebuilt) == text
    report(4, "round-trip identity on the fixture and 20 randomized models")


def test_criterion_5_precision_recall_worked_example(fixture_project):
    reference = {f"link{i}" for i in range(95)}
    retrieved = {f"link{i}" for i in range(90)}
    result = precision_recall(retrieved, reference)
    assert result.precision == Fraction(1)
    assert result.recall == Fraction(90, 95)
    truncated = int(result.recall * 100) / 100  # displayed the way the source truncates
    assert abs(truncated - 0.94) <= 0.005 + 1e-12
    links = extract_links(fixture_project)
    self_eval = precision_recall(links, set(links))
    assert self_eval.precision == 1 and self_eval.recall == 1
    report(5, "90-of-95 gives precision 1.0, recall 0.9474 (displays as 0.94); self-eval perfect")


def test_criterion_6_dot_validity_and_edge_soundness(fixture_project):
    texts = []
    docs = all_documents(fixture_project)
    for result in docs.values():
        if isinstance(result, list):
            texts.extend(serialize_dot(g) for _, g in result)
        else:
            texts.append(serialize_dot(result))
    assert len(texts) == 17
    for text in texts:
        validate_dot(text)
    # edge soundness cross-walk on the method dependency document
    graph = docs["method-dependency"]
    expected = set()
    for pkg in fixture_project.packages:
        for cls in pkg.classes:
            qname = class_qualified_name(pkg, cls)
            for m in cls.methods:
                src = f"{qname}#{m.name}()"
                for inv in m.invocations:
                    if inv.resolved and f"{inv.declaring_class}#{inv.method_name}()" != src:
                        expected.add((src, f"{inv.declaring_class}#{inv.method_name}()", "invokes"))
                for acc in m.accesses:
                    if acc.resolved:
                        expected.add((src, f"{acc.declaring_class}#{acc.attribute_name}", "accesses"))
    assert {(e.src, e.dst, e.kind) for e in graph.edges} == expected
    # and on the class dependency document
    dep = docs["class-dependency"]
    expected_inherit = set()
    for pkg in fixture_project.packages:
        for cls in pkg.classes:
            src = class_qualified_name(pkg, cls)
            if cls.superclass is not None:
                dst = cls.superclass.name if cls.superclass.internal else f"ext:{cls.superclass.name}"
                expected_inherit.add((src, dst))
    assert {(e.src, e.dst) for e in dep.edges if e.kind == "inherits"} == expected_inherit
    report(6, "all 17 documents parse as DOT; edges match model relations exactly")


def test_criterion_7_loc_oracle(fixture_files, fixture_project):
    for f in fixture_files:
        assert count_token_lines(tokenize(f.text, f.path)) == loc_oracle(f.text), f.path
    total = sum(count_token_lines(tokenize(f.text, f.path)) for f in fixture_files)
    assert fixture_project.loc == total
    # LoC is asserted only against the oracle; no external corpus figure is assumed
    report(7, f"fixture LoC {total} equals the independent line-filter oracle")


def test_criterion_8_scale_smoke(tmp_path):
    classes = write_synthetic_corpus(tmp_path, packages=20, classes_per_package=10)
    assert classes >= 200
    started = time.perf_counter()
    files = scan_directory(tmp_path)
    trees, failures = parse_files(files)
    assert not failures
    project = build_model(trees, "synthetic")
    resolve_references(project)
    docs = all_documents(project)
    for result in docs.values():
        if isinstance(result, list):
            for _, g in result:
                serialize_dot(g)
        else:
            serialize_dot(result)
    doc = serialize_model(project)
    assert parse_model(doc) == project
    elapsed = time.perf_counter() - started
    assert_containment_tree(project)
    assert_referential_integrity(project)
    assert_resolution_idempotent(project)
    record = project_metrics(project)
    assert record.noc == classes
    assert elapsed < 30.0, f"end-to-end took {elapsed:.2f}s"
    report(8, f"{classes}-class corpus end-to-end in {elapsed:.2f}s < 30s; invariants hold")

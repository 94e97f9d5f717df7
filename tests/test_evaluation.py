from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from fractions import Fraction

from oodoc.evaluation import extract_links, format_report, precision_recall
from oodoc.model import Project
from oodoc.xmlio import serialize_model

from conftest import CORE_ELEMENTS, CORE_FRAME
from genmodels import random_project


def count_links_from_xml(xml_text: str) -> int:
    """Independent enumeration oracle: rebuild the canonical link set from
    the serialized document instead of the in-memory model."""
    root = ET.fromstring(xml_text)
    links: set[str] = set()
    for pkg in root.iterfind("Packages/Package"):
        pkg_name = pkg.attrib["PackageName"]
        links.add(f"pkg:{pkg_name}")
        classes = pkg.find("Classes")
        if classes is None:
            continue
        for cls in classes:
            cname = cls.attrib["ClassName"]
            qname = f"{pkg_name}.{cname}" if pkg_name else cname
            links.add(f"class:{qname}")
            is_interface = cls.attrib["IsInterface"] == "true"
            if "Superclass" in cls.attrib:
                links.add(f"inherits:{qname}->{cls.attrib['Superclass']}")
            for child in cls:
                if child.tag == "SuperInterfaces" and "Name" in child.attrib:
                    verb = "inherits" if is_interface else "implements"
                    links.add(f"{verb}:{qname}->{child.attrib['Name']}")
            attributes = cls.find("Attributes")
            if attributes is not None:
                for attr in attributes:
                    links.add(f"attr:{qname}#{attr.attrib['Name']}")
            methods = cls.find("Methods")
            if methods is None:
                continue
            for method in methods:
                types = ",".join(
                    p.attrib["DeclaredType"] for p in method.find("Parameters")
                )
                body = f"{qname}#{method.attrib['MethodName']}({types})"
                links.add(f"method:{body}")
                local_vars = method.find("LocalVariables")
                if local_vars is not None:
                    for var in local_vars:
                        links.add(f"local:{body}#{var.attrib['Name']}")
                invocations = method.find("MethodInvocations")
                if invocations is not None:
                    for inv in invocations:
                        if inv.attrib["Resolved"] == "true":
                            links.add(
                                f"invokes:{body}->{inv.attrib['DeclaringClass']}"
                                f"#{inv.attrib['Name']}"
                            )
                accesses = method.find("AttributeAccesses")
                if accesses is not None:
                    for acc in accesses:
                        if acc.attrib["Resolved"] == "true":
                            links.add(
                                f"accesses:{body}->{acc.attrib['DeclaringClass']}"
                                f"#{acc.attrib['Name']}"
                            )
    return len(links)


def test_fixture_contains_inheritance_links(fixture_project):
    links = extract_links(fixture_project)
    assert f"inherits:{CORE_ELEMENTS}.MyLine->{CORE_FRAME}.MyShape" in links
    assert f"inherits:{CORE_FRAME}.DrawingShapes->JFrame" in links


def test_empty_project_has_no_links():
    assert extract_links(Project(name="void")) == set()


def test_fixture_link_count_matches_independent_oracle(fixture_project):
    links = extract_links(fixture_project)
    assert len(links) == count_links_from_xml(serialize_model(fixture_project))


def test_worked_example_90_of_95():
    reference = {f"link{i}" for i in range(95)}
    retrieved = {f"link{i}" for i in range(90)}
    report = precision_recall(retrieved, reference)
    assert report.precision == Fraction(1)
    assert report.recall == Fraction(90, 95)
    # 90/95 = 0.9473...; truncated to two decimals it reads 0.94
    truncated = int(report.recall * 100) / 100
    assert abs(truncated - 0.94) <= 0.005 + 1e-12
    assert report.true_positives == 90
    assert len(report.missing) == 5
    assert len(report.spurious) == 0


def test_identical_sets_are_perfect():
    links = {"a", "b", "c"}
    report = precision_recall(links, set(links))
    assert report.precision == 1 and report.recall == 1


def test_empty_retrieved_convention():
    report = precision_recall(set(), {"a"})
    assert report.precision == Fraction(1)
    assert report.recall == Fraction(0)
    both_empty = precision_recall(set(), set())
    assert both_empty.precision == 1 and both_empty.recall == 1


def test_precision_one_iff_spurious_empty():
    rng = random.Random(99)
    universe = [f"l{i}" for i in range(40)]
    for _ in range(50):
        retrieved = {x for x in universe if rng.random() < 0.5}
        reference = {x for x in universe if rng.random() < 0.5}
        report = precision_recall(retrieved, reference)
        assert (report.precision == 1) == (len(report.spurious) == 0)
        assert (report.recall == 1) == (len(report.missing) == 0)


def test_precision_recall_symmetry():
    rng = random.Random(5)
    universe = [f"l{i}" for i in range(30)]
    for _ in range(50):
        a = {x for x in universe if rng.random() < 0.5}
        b = {x for x in universe if rng.random() < 0.5}
        assert precision_recall(a, b).precision == precision_recall(b, a).recall


def test_self_evaluation_is_perfect(fixture_project):
    links = extract_links(fixture_project)
    report = precision_recall(links, set(links))
    assert report.precision == 1 and report.recall == 1
    rng = random.Random(11)
    for _ in range(5):
        project = random_project(rng)
        links = extract_links(project)
        report = precision_recall(links, set(links))
        assert report.precision == 1 and report.recall == 1


def test_report_formatting_lists_diagnostics():
    report = precision_recall({"keep", "extra"}, {"keep", "lost"})
    text = format_report(report)
    assert "precision 0.5000" in text
    assert "recall 0.5000" in text
    assert "  lost" in text
    assert "  extra" in text


def test_local_variable_links_present(fixture_project):
    links = extract_links(fixture_project)
    body = f"{CORE_FRAME}.PaintJPanel#paintJPanelMouseDragged(MouseEvent)"
    assert f"local:{body}#dragged" in links


def test_unresolved_relations_produce_no_links(fixture_project):
    links = extract_links(fixture_project)
    assert not any("JColorChooser" in link for link in links if link.startswith("invokes:"))

from __future__ import annotations

import copy
import random
import xml.etree.ElementTree as ET

from oodoc.metrics import (
    class_metrics,
    format_metrics,
    metrics_json,
    project_metrics,
)
from oodoc.model import ClassEntity, MethodEntity, Package, Project
from oodoc.xmlio import serialize_model

from checks import lookup
from conftest import CORE_ELEMENTS, CORE_FRAME
from genmodels import random_project


def test_fixture_headline_numbers(fixture_project):
    record = project_metrics(fixture_project)
    assert record.nom == 29
    assert record.noa == 14
    assert record.noc == 6
    assert record.nop == 2
    assert record.nop_all == 4


def test_empty_project_metrics():
    record = project_metrics(Project(name="empty"))
    assert (record.loc, record.nop, record.noc, record.noa, record.nom) == (0, 0, 0, 0, 0)


def test_class_metrics_per_class(fixture_project):
    shape = lookup(fixture_project, f"{CORE_FRAME}.MyShape")
    assert class_metrics(shape) == (5, 12)
    frame = lookup(fixture_project, f"{CORE_FRAME}.DrawingShapes")
    assert class_metrics(frame) == (5, 5)
    panel = lookup(fixture_project, f"{CORE_FRAME}.PaintJPanel")
    assert class_metrics(panel) == (4, 6)


def test_empty_class_metrics():
    assert class_metrics(ClassEntity(name="E")) == (0, 0)


def test_method_member_counts(fixture_project):
    rect_ctor = lookup(
        fixture_project, f"{CORE_ELEMENTS}.MyRectangle#MyRectangle(int,int,int,int,Color)"
    )
    assert len(rect_ctor.parameters) == 5
    draw = lookup(fixture_project, f"{CORE_ELEMENTS}.MyLine#draw(Graphics)")
    assert len(draw.parameters) == 1
    empty = MethodEntity(name="noop", return_type="void")
    members = (empty.parameters, empty.local_variables, empty.accesses, empty.invocations)
    assert tuple(map(len, members)) == (0, 0, 0, 0)


def test_parameter_counts_agree_with_xml(fixture_project):
    root = ET.fromstring(serialize_model(fixture_project))
    xml_counts = sorted(
        int(m.find("Parameters").attrib["NumberOfParameters"])
        for m in root.iter("Method")
    )
    model_counts = sorted(
        len(m.parameters)
        for pkg in fixture_project.packages
        for cls in pkg.classes
        for m in cls.methods
    )
    assert xml_counts == model_counts
    assert len(xml_counts) == 29


def test_adding_a_class_bumps_noc_only(fixture_project):
    clone = copy.deepcopy(fixture_project)
    before = project_metrics(clone)
    per_class_before = {
        cls.name: class_metrics(cls) for pkg in clone.packages for cls in pkg.classes
    }
    clone.packages[0].classes.append(ClassEntity(name="Extra"))
    after = project_metrics(clone)
    assert after.noc == before.noc + 1
    assert (after.noa, after.nom, after.loc) == (before.noa, before.nom, before.loc)
    for pkg in clone.packages:
        for cls in pkg.classes:
            if cls.name != "Extra":
                assert class_metrics(cls) == per_class_before[cls.name]


def test_noa_nom_are_sums_over_random_models():
    rng = random.Random(7)
    for _ in range(10):
        project = random_project(rng)
        record = project_metrics(project)
        assert record.noa == sum(
            len(c.attributes) for p in project.packages for c in p.classes
        )
        assert record.nom == sum(
            len(c.methods) for p in project.packages for c in p.classes
        )
        assert record.nop == sum(1 for p in project.packages if p.classes)
        assert record.nop_all == len(project.packages)


def test_leaf_rule_counts_only_class_bearing_packages():
    project = Project(
        name="x",
        packages=[
            Package("a"),
            Package("a.b", classes=[ClassEntity(name="C")]),
            Package("d"),
        ],
    )
    record = project_metrics(project)
    assert record.nop == 1
    assert record.nop_all == 3


def test_format_metrics_lines(fixture_project):
    text = format_metrics(project_metrics(fixture_project))
    assert "NoM 29" in text.splitlines()
    assert "NoA 14" in text.splitlines()
    assert "NoC 6" in text.splitlines()
    assert "NoP 2" in text.splitlines()
    assert "NoP(all-packages) 4" in text.splitlines()


def test_metrics_json_round_trips(fixture_project):
    import json

    payload = json.loads(metrics_json(project_metrics(fixture_project)))
    assert payload["nom"] == 29
    assert payload["noa"] == 14
    assert payload["nop_all"] == 4

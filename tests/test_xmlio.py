from __future__ import annotations

import dataclasses
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oodoc import xmlio
from oodoc.errors import ConsistencyError, InputError, SchemaError
from oodoc.model import (
    AccessRelation,
    AttributeEntity,
    ClassEntity,
    InvocationRelation,
    LocalVariableEntity,
    MethodEntity,
    Package,
    Parameter,
    Project,
    TypeRef,
)
from oodoc.xmlio import parse_model, serialize_model, write_model

from checks import collect_external_types
from conftest import CORE_ELEMENTS
from genmodels import random_project


def test_empty_project_document():
    doc = serialize_model(Project(name="P", loc=0))
    assert doc == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<Project ProjectName="P" LinesOfCode="0">\n'
        "  <Packages/>\n"
        "</Project>\n"
    )


def test_every_element_is_written_exactly():
    """The writer's text for every element: each optional attribute present
    and absent, 0, 1 and 2 super-interfaces, and each list empty and not."""
    shape = ClassEntity(
        "Shape",
        superclass=TypeRef("a.b.Base", True),
        super_interfaces=[TypeRef("java.io.Serializable")],
        attributes=[
            AttributeEntity("count", "int", "private", True),
            AttributeEntity("names", "List<String>", "protected"),
        ],
        methods=[
            MethodEntity(
                "Shape", None, "public", is_constructor=True,
                parameters=[Parameter("x", "int", 0), Parameter("label", "String", 1)],
                local_variables=[LocalVariableEntity("tmp", "double")],
                throws=["java.io.IOException"],
                accesses=[
                    AccessRelation("count", "this", "a.b.Shape", True),
                    AccessRelation("size", "other"),
                ],
                invocations=[
                    InvocationRelation("helper", "", "a.b.Shape", True),
                    InvocationRelation("run", "task"),
                ],
            ),
            MethodEntity("area", "double", "protected", is_static=True),
        ],
    )
    drawable = ClassEntity(
        "Drawable", "public", is_interface=True,
        super_interfaces=[TypeRef("a.b.Named", True), TypeRef("Comparable")],
        methods=[
            MethodEntity(
                "draw", "void", "public",
                parameters=[Parameter("g", "Graphics", 0)],
                throws=["IOException", "a.b.Failure"],
            )
        ],
    )
    project = Project(
        name="Golden & <Co>",
        loc=42,
        packages=[
            Package("a"),
            Package("a.b", [
                ClassEntity("Base", "public"),
                shape,
                drawable,
                ClassEntity("Worker", superclass=TypeRef("Thread")),
            ]),
        ],
    )
    assert serialize_model(project) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<Project ProjectName="Golden &amp; &lt;Co&gt;" LinesOfCode="42">\n'
        "  <Packages>\n"
        '    <Package PackageName="a">\n'
        "      <Classes/>\n"
        "    </Package>\n"
        '    <Package PackageName="a.b">\n'
        "      <Classes>\n"
        '        <Class ClassName="Base" classAccessLevel="public" IsInterface="false">\n'
        "          <SuperInterfaces/>\n"
        "          <Attributes/>\n"
        "          <Methods/>\n"
        "        </Class>\n"
        '        <Class ClassName="Shape" classAccessLevel="package-private" IsInterface="false" Superclass="a.b.Base" SuperclassInternal="true">\n'
        '          <SuperInterfaces Name="java.io.Serializable" Internal="false"/>\n'
        "          <Attributes>\n"
        '            <Attribute Name="count" DeclaredType="int" AccessLevel="private" IsStatic="true"/>\n'
        '            <Attribute Name="names" DeclaredType="List&lt;String&gt;" AccessLevel="protected" IsStatic="false"/>\n'
        "          </Attributes>\n"
        "          <Methods>\n"
        '            <Method MethodName="Shape" MethodAccessLevel="public" IsStatic="false" IsConstructor="true">\n'
        '              <Parameters NumberOfParameters="2">\n'
        '                <Parameter Name="x" DeclaredType="int" Order="0"/>\n'
        '                <Parameter Name="label" DeclaredType="String" Order="1"/>\n'
        "              </Parameters>\n"
        "              <LocalVariables>\n"
        '                <LocalVariable Name="tmp" DeclaredType="double"/>\n'
        "              </LocalVariables>\n"
        "              <AttributeAccesses>\n"
        '                <AttributeAccess Name="count" Receiver="this" DeclaringClass="a.b.Shape" Resolved="true"/>\n'
        '                <AttributeAccess Name="size" Receiver="other" DeclaringClass="" Resolved="false"/>\n'
        "              </AttributeAccesses>\n"
        "              <MethodInvocations>\n"
        '                <MethodInvocation Name="helper" Receiver="" DeclaringClass="a.b.Shape" Resolved="true"/>\n'
        '                <MethodInvocation Name="run" Receiver="task" DeclaringClass="" Resolved="false"/>\n'
        "              </MethodInvocations>\n"
        "              <MethodExceptions>\n"
        '                <MethodException Name="java.io.IOException"/>\n'
        "              </MethodExceptions>\n"
        "            </Method>\n"
        '            <Method MethodName="area" MethodAccessLevel="protected" ReturnType="double" IsStatic="true" IsConstructor="false">\n'
        '              <Parameters NumberOfParameters="0"/>\n'
        "              <LocalVariables/>\n"
        "              <AttributeAccesses/>\n"
        "              <MethodInvocations/>\n"
        "              <MethodExceptions/>\n"
        "            </Method>\n"
        "          </Methods>\n"
        "        </Class>\n"
        '        <Class ClassName="Drawable" classAccessLevel="public" IsInterface="true">\n'
        '          <SuperInterfaces Name="a.b.Named" Internal="true"/>\n'
        '          <SuperInterfaces Name="Comparable" Internal="false"/>\n'
        "          <Attributes/>\n"
        "          <Methods>\n"
        '            <Method MethodName="draw" MethodAccessLevel="public" ReturnType="void" IsStatic="false" IsConstructor="false">\n'
        '              <Parameters NumberOfParameters="1">\n'
        '                <Parameter Name="g" DeclaredType="Graphics" Order="0"/>\n'
        "              </Parameters>\n"
        "              <LocalVariables/>\n"
        "              <AttributeAccesses/>\n"
        "              <MethodInvocations/>\n"
        "              <MethodExceptions>\n"
        '                <MethodException Name="IOException"/>\n'
        '                <MethodException Name="a.b.Failure"/>\n'
        "              </MethodExceptions>\n"
        "            </Method>\n"
        "          </Methods>\n"
        "        </Class>\n"
        '        <Class ClassName="Worker" classAccessLevel="package-private" IsInterface="false" Superclass="Thread" SuperclassInternal="false">\n'
        "          <SuperInterfaces/>\n"
        "          <Attributes/>\n"
        "          <Methods/>\n"
        "        </Class>\n"
        "      </Classes>\n"
        "    </Package>\n"
        "  </Packages>\n"
        "</Project>\n"
    )


def test_fixture_document_structure(fixture_project):
    doc = serialize_model(fixture_project)
    root = ET.fromstring(doc)
    assert root.tag == "Project"
    assert root.attrib["ProjectName"] == "Drawing shapes software"
    packages = root.find("Packages")
    names = [p.attrib["PackageName"] for p in packages]
    assert names == ["Drawing", "Drawing.Shapes", CORE_ELEMENTS, "Drawing.Shapes.coreFrame"]
    core = next(p for p in packages if p.attrib["PackageName"] == CORE_ELEMENTS)
    classes = [c.attrib["ClassName"] for c in core.find("Classes")]
    assert classes == ["MyLine", "MyOval", "MyRectangle"]


def test_myline_constructor_element(fixture_project):
    doc = serialize_model(fixture_project)
    root = ET.fromstring(doc)
    myline = next(
        c
        for p in root.find("Packages")
        if p.find("Classes") is not None
        for c in p.find("Classes")
        if c.attrib["ClassName"] == "MyLine"
    )
    ctor = myline.find("Methods")[0]
    assert ctor.attrib["MethodName"] == "MyLine"
    assert ctor.attrib["MethodAccessLevel"] == "public"
    assert ctor.attrib["IsConstructor"] == "true"
    assert "ReturnType" not in ctor.attrib
    assert ctor.find("Parameters").attrib["NumberOfParameters"] == "5"
    draw = myline.find("Methods")[1]
    assert draw.find("Parameters").attrib["NumberOfParameters"] == "1"


def test_empty_collections_serialize_as_empty_elements(fixture_project):
    doc = serialize_model(fixture_project)
    assert "<Attributes/>" in doc  # MyLine has no attributes
    assert "<SuperInterfaces/>" in doc
    assert "<Classes/>" in doc  # the ancestor packages


def test_fixture_round_trip(fixture_project):
    doc = serialize_model(fixture_project)
    rebuilt = parse_model(doc)
    assert rebuilt == fixture_project
    assert serialize_model(rebuilt) == doc


def test_serialization_is_byte_deterministic(fixture_project):
    assert serialize_model(fixture_project) == serialize_model(fixture_project)


def test_randomized_round_trip_models():
    rng = random.Random(20260810)
    for _ in range(20):
        project = random_project(rng)
        doc = serialize_model(project)
        rebuilt = parse_model(doc)
        assert rebuilt == project
        assert serialize_model(rebuilt) == doc


def test_attribute_values_are_escaped():
    project = Project(name='quotes "&" <angles>', loc=3)
    doc = serialize_model(project)
    assert parse_model(doc).name == 'quotes "&" <angles>'


def test_parameter_count_mismatch_is_consistency_error():
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<Project ProjectName="P" LinesOfCode="0">\n'
        "  <Packages>\n"
        '    <Package PackageName="p">\n'
        "      <Classes>\n"
        '        <Class ClassName="A" classAccessLevel="public" IsInterface="false">\n'
        "          <SuperInterfaces/>\n"
        "          <Attributes/>\n"
        "          <Methods>\n"
        '            <Method MethodName="m" MethodAccessLevel="public" ReturnType="void"'
        ' IsStatic="false" IsConstructor="false">\n'
        '              <Parameters NumberOfParameters="3">\n'
        '                <Parameter Name="a" DeclaredType="int" Order="0"/>\n'
        '                <Parameter Name="b" DeclaredType="int" Order="1"/>\n'
        "              </Parameters>\n"
        "              <LocalVariables/>\n"
        "              <AttributeAccesses/>\n"
        "              <MethodInvocations/>\n"
        "              <MethodExceptions/>\n"
        "            </Method>\n"
        "          </Methods>\n"
        "        </Class>\n"
        "      </Classes>\n"
        "    </Package>\n"
        "  </Packages>\n"
        "</Project>\n"
    )
    with pytest.raises(ConsistencyError):
        parse_model(doc)


def one_parameter_document(loc: str = "0", declared: str = "1", order: str = "0") -> str:
    return (
        f'<Project ProjectName="P" LinesOfCode="{loc}"><Packages>'
        '<Package PackageName="p"><Classes>'
        '<Class ClassName="A" classAccessLevel="public" IsInterface="false">'
        "<SuperInterfaces/><Attributes/><Methods>"
        '<Method MethodName="m" MethodAccessLevel="public" ReturnType="void"'
        ' IsStatic="false" IsConstructor="false">'
        f'<Parameters NumberOfParameters="{declared}">'
        f'<Parameter Name="a" DeclaredType="int" Order="{order}"/>'
        "</Parameters>"
        "<LocalVariables/><AttributeAccesses/><MethodInvocations/><MethodExceptions/>"
        "</Method></Methods></Class></Classes></Package></Packages></Project>"
    )


@pytest.mark.parametrize("name, location", [
    ("LinesOfCode", "Project"),
    ("NumberOfParameters", "Project/Packages/Package[1]/Classes/Class[1]/Methods/Method[1]/Parameters"),
    ("Order", "Project/Packages/Package[1]/Classes/Class[1]/Methods/Method[1]/Parameters/Parameter[1]"),
])
@pytest.mark.parametrize("digits", ["1" * 5000, "0" * 5000], ids=["ones", "zeros"])
def test_count_too_long_for_int_is_schema_error(name, location, digits):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by default)
    key = {"LinesOfCode": "loc", "NumberOfParameters": "declared", "Order": "order"}[name]
    assert parse_model(one_parameter_document()).loc == 0
    with pytest.raises(SchemaError) as exc:
        parse_model(one_parameter_document(**{key: digits}))
    assert exc.value.location == location
    assert f"attribute {name} must be a non-negative integer" in exc.value.message


def test_hand_written_minimal_document():
    doc = (
        '<Project ProjectName="tiny" LinesOfCode="7">'
        "<Packages>"
        '<Package PackageName="p">'
        "<Classes>"
        '<Class ClassName="A" classAccessLevel="public" IsInterface="false"'
        ' Superclass="Base" SuperclassInternal="false">'
        "<SuperInterfaces/>"
        "<Attributes>"
        '<Attribute Name="n" DeclaredType="int" AccessLevel="private" IsStatic="false"/>'
        "</Attributes>"
        "<Methods/>"
        "</Class>"
        "</Classes>"
        "</Package>"
        "</Packages>"
        "</Project>"
    )
    project = parse_model(doc)
    assert project.name == "tiny"
    assert project.loc == 7
    cls = project.packages[0].classes[0]
    assert cls.name == "A"
    assert cls.superclass.name == "Base" and not cls.superclass.internal
    assert cls.attributes[0].declared_type == "int"
    assert "Base" in collect_external_types(project)


def test_unknown_element_is_schema_error():
    doc = '<Project ProjectName="P" LinesOfCode="0"><Stuff/></Project>'
    with pytest.raises(SchemaError) as exc:
        parse_model(doc)
    assert "Stuff" in str(exc.value)


def test_unknown_attribute_is_schema_error():
    doc = '<Project ProjectName="P" LinesOfCode="0" Color="red"><Packages/></Project>'
    with pytest.raises(SchemaError):
        parse_model(doc)


def test_schema_error_carries_location():
    doc = (
        '<Project ProjectName="P" LinesOfCode="0">'
        "<Packages>"
        '<Package PackageName="a"><Classes/></Package>'
        '<Package PackageName="b"><Oops/></Package>'
        "</Packages>"
        "</Project>"
    )
    with pytest.raises(SchemaError) as exc:
        parse_model(doc)
    assert "Package[2]" in exc.value.location


def test_not_well_formed_is_schema_error():
    with pytest.raises(SchemaError):
        parse_model("<Project ProjectName=")


def test_constructor_with_return_type_rejected():
    doc = (
        '<Project ProjectName="P" LinesOfCode="0"><Packages>'
        '<Package PackageName="p"><Classes>'
        '<Class ClassName="A" classAccessLevel="public" IsInterface="false">'
        "<SuperInterfaces/><Attributes/><Methods>"
        '<Method MethodName="A" MethodAccessLevel="public" ReturnType="void"'
        ' IsStatic="false" IsConstructor="true">'
        '<Parameters NumberOfParameters="0"/>'
        "<LocalVariables/><AttributeAccesses/><MethodInvocations/><MethodExceptions/>"
        "</Method></Methods></Class></Classes></Package></Packages></Project>"
    )
    with pytest.raises(SchemaError):
        parse_model(doc)


def test_interface_with_superclass_rejected():
    doc = (
        '<Project ProjectName="P" LinesOfCode="0"><Packages>'
        '<Package PackageName="p"><Classes>'
        '<Class ClassName="I" classAccessLevel="public" IsInterface="true"'
        ' Superclass="Base" SuperclassInternal="false">'
        "<SuperInterfaces/><Attributes/><Methods/>"
        "</Class></Classes></Package></Packages></Project>"
    )
    with pytest.raises(SchemaError):
        parse_model(doc)


def test_super_interfaces_round_trip():
    doc = (
        '<Project ProjectName="P" LinesOfCode="0"><Packages>'
        '<Package PackageName="p"><Classes>'
        '<Class ClassName="A" classAccessLevel="public" IsInterface="false">'
        '<SuperInterfaces Name="x.I" Internal="false"/>'
        '<SuperInterfaces Name="J" Internal="false"/>'
        "<Attributes/><Methods/>"
        "</Class></Classes></Package></Packages></Project>"
    )
    project = parse_model(doc)
    cls = project.packages[0].classes[0]
    assert [r.name for r in cls.super_interfaces] == ["x.I", "J"]
    again = parse_model(serialize_model(project))
    assert again == project


# XML 1.0, section 2.2: Char ::= #x9 | #xA | #xD | [#x20-#xD7FF] |
# [#xE000-#xFFFD] | [#x10000-#x10FFFF]
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
# any code point, surrogates too, with ASCII as likely as the rest
_CHARS = st.one_of(st.integers(0, 0x7F), st.integers(0, 0x10FFFF)).map(chr)
_NAMES = st.one_of(
    st.lists(_CHARS, max_size=6).map("".join),
    st.text(st.sampled_from(" \t\r\nab&<>\"'"), max_size=4),
    st.sampled_from(["\x01", "x\x00", "\ud800", "\ufffe"]),
)


def _rename(entity, names):
    """Every name in entity and in what it holds, drawn from names; access
    levels stay."""
    for f in dataclasses.fields(entity):
        value = getattr(entity, f.name)
        if f.name == "access_level" or not f.compare:
            continue
        if isinstance(value, str):
            setattr(entity, f.name, names())
        elif isinstance(value, list):
            if value and isinstance(value[0], str):
                setattr(entity, f.name, [names() for _ in value])
            for item in value:
                if dataclasses.is_dataclass(item):
                    _rename(item, names)
        elif dataclasses.is_dataclass(value):
            _rename(value, names)


@seed(20160603)
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.lists(_NAMES, min_size=1, max_size=3))
def test_any_names_round_trip_or_are_refused(project_seed, pool):
    project = random_project(random.Random(project_seed))
    used: list[str] = []

    def names() -> str:
        used.append(pool[len(used) % len(pool)])
        return used[-1]

    _rename(project, names)
    refused = any(_NOT_XML_CHAR.search(name) for name in used)
    try:
        doc = serialize_model(project)
    except InputError:
        assert refused
        return
    assert not refused
    assert parse_model(doc) == project
    assert serialize_model(parse_model(doc)) == doc


def test_tabs_and_line_ends_in_names_survive():
    name = "a\tb\nc\r\nd\re "
    doc = serialize_model(Project(name=name, loc=1))
    assert '"a&#9;b&#10;c&#13;&#10;d&#13;e "' in doc
    assert parse_model(doc).name == name


@pytest.mark.parametrize("name", ["a\x01b", "\x00", "\ud800", "\ufffe", "\uffff"])
def test_name_xml_cannot_carry_is_refused(name):
    with pytest.raises(InputError):
        serialize_model(Project(name=name, loc=1))


# write_model writes the document a piece at a time; these check that the
# pieces add up to serialize_model's text and that a refusal in a late
# piece leaves no file behind.


def _wide_project(classes: int, last_name: str) -> Project:
    """One package of classes with a few attributes each; the last
    attribute of the last class is named last_name."""
    pkg = Package(qualified_name="p")
    for i in range(classes):
        attrs = [AttributeEntity(name=f"a{j}", declared_type="int") for j in range(8)]
        pkg.classes.append(ClassEntity(name=f"C{i}", attributes=attrs))
    pkg.classes[-1].attributes[-1].name = last_name
    return Project(name="wide", loc=classes, packages=[pkg])


def test_written_model_is_the_serialized_model(fixture_project, tmp_path):
    path = tmp_path / "model.xml"
    write_model(fixture_project, path)
    assert path.read_bytes() == serialize_model(fixture_project).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["model.xml"]


def test_written_model_spanning_pieces_is_the_serialized_model(tmp_path):
    project = _wide_project(1200, "x\ty\r\nz\rw")
    doc = serialize_model(project)
    lines = doc.count("\n")
    assert lines > 3 * xmlio._CHUNK_LINES
    # the escaped name is in the last piece, after every other piece
    assert doc.index('"x&#9;y&#13;&#10;z&#13;w"') > len(doc) - 1000
    path = tmp_path / "model.xml"
    write_model(project, path)
    assert path.read_bytes() == doc.encode()
    assert parse_model(doc) == project


def test_refusal_in_a_late_piece_leaves_no_file(tmp_path):
    project = _wide_project(1200, "bad\x01name")
    with pytest.raises(InputError) as whole:
        serialize_model(project)
    line = int(re.search(r"line (\d+) ", str(whole.value)).group(1))
    assert line > 3 * xmlio._CHUNK_LINES
    path = tmp_path / "model.xml"
    with pytest.raises(InputError) as written:
        write_model(project, path)
    assert str(written.value) == str(whole.value)
    assert list(tmp_path.iterdir()) == []


"""The streaming XML reader against the ElementTree reader of oodoc 0.1.0,
on seeded single and double mutants of two model documents.

Both readers must return equal projects, or raise the same exception class
with the same location and message. The one divergence allowed is a fault
of 0.1.0 kept in oracles.reference_parse_model: a count made of digits that
int() does not read, such as "²", raised ValueError; it is now a SchemaError.
"""

from __future__ import annotations

import copy
import random
import xml.etree.ElementTree as ET

import pytest

from oodoc.errors import ConsistencyError, SchemaError
from oodoc.xmlio import parse_model, serialize_model

from genmodels import random_project
from oracles import reference_parse_model

MUTANTS = 1000
SEED = 20160603

LEAVES = ("Attribute", "Parameter", "LocalVariable", "AttributeAccess", "MethodInvocation",
          "MethodException", "SuperInterfaces")
TAGS = (
    "Project", "Packages", "Package", "Classes", "Class", "SuperInterfaces", "Attributes",
    "Attribute", "Methods", "Method", "Parameters", "Parameter", "LocalVariables",
    "LocalVariable", "AttributeAccesses", "AttributeAccess", "MethodInvocations",
    "MethodInvocation", "MethodExceptions", "MethodException", "Stuff", "{urn:x}Package",
)
ATTRIBUTE_NAMES = (
    "ProjectName", "LinesOfCode", "PackageName", "ClassName", "classAccessLevel",
    "IsInterface", "Superclass", "SuperclassInternal", "Name", "Internal", "DeclaredType",
    "AccessLevel", "IsStatic", "MethodName", "MethodAccessLevel", "ReturnType",
    "IsConstructor", "NumberOfParameters", "Order", "Receiver", "DeclaringClass",
    "Resolved", "Color", "{urn:x}Name",
)
VALUES = (
    "", "x", "true", "false", "True", "0", "1", "2", "7", "-1", " 3", "²", "٣", "public",
    "private", "protected", "package-private", "void", "a\nb",
)
# pieces that break well-formedness, or that a reader must skip
TEXT_PIECES = ("<", "&", '"', ">", "'", "\x01", "&#10;", "&amp;", "&bogus;", "<!-- c -->",
               "<?pi x?>", "</Method>", "<Stuff>", "]]>", "<a:b/>")


def outcome(reader, text: str):
    try:
        return reader(text)
    except (SchemaError, ConsistencyError) as exc:
        return (type(exc).__name__, exc.location, exc.message)


def reference_outcome(text: str):
    try:
        return outcome(reference_parse_model, text)
    except ValueError as exc:
        return ("ValueError", str(exc))


def mutate_tree(root: ET.Element, rng: random.Random):
    elements = list(root.iter())
    parents = {child: parent for parent in elements for child in parent}
    elem = rng.choice(elements)
    op = rng.randrange(9)
    if op == 0 and elem.attrib:  # drop an attribute
        del elem.attrib[rng.choice(sorted(elem.attrib))]
    elif op == 1 and elem.attrib:  # alter an attribute's value
        elem.attrib[rng.choice(sorted(elem.attrib))] = rng.choice(VALUES)
    elif op == 2:  # add an attribute, or overwrite one
        elem.attrib[rng.choice(ATTRIBUTE_NAMES)] = rng.choice(VALUES)
    elif op == 3:  # rename an element
        elem.tag = rng.choice(TAGS)
    elif op == 4:  # insert a copy of some element, or a new one, as a child
        donor = copy.deepcopy(rng.choice(elements)) if rng.random() < 0.7 else ET.Element(rng.choice(TAGS))
        elem.insert(rng.randrange(len(elem) + 1), donor)
    elif op == 5 and elem in parents:  # duplicate an element in place
        parent = parents[elem]
        parent.insert(list(parent).index(elem) + 1, copy.deepcopy(elem))
    elif op == 6 and elem in parents:  # delete an element
        parents[elem].remove(elem)
    elif op == 7:  # add a child to a leaf element
        leaves = [e for e in elements if e.tag in LEAVES]
        if leaves:
            rng.choice(leaves).append(ET.Element(rng.choice(TAGS)))
    elif op == 8:  # move an element's children after its siblings
        if elem in parents and len(elem):
            parents[elem].extend(list(elem))


def mutant(document: ET.Element, rng: random.Random) -> str:
    root = copy.deepcopy(document)
    for _ in range(rng.choice((1, 2))):
        mutate_tree(root, rng)
    text = '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode")
    roll = rng.random()
    if roll < 0.08:  # truncate
        text = text[: rng.randrange(len(text))]
    elif roll < 0.16:  # break or pad the text
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(TEXT_PIECES) + text[at:]
    return text


@pytest.fixture(scope="module")
def documents(fixture_project):
    """The fixture's model and a generated one that uses every element."""
    rng = random.Random(SEED)
    generated = next(
        p for p in (random_project(rng) for _ in range(1000))
        if set(TAGS[:20]) <= {e.tag for e in ET.fromstring(serialize_model(p)).iter()}
    )
    return [serialize_model(fixture_project), serialize_model(generated)]


def test_readers_agree_on_the_documents(documents):
    for doc in documents:
        assert parse_model(doc) == reference_parse_model(doc)


def test_readers_agree_on_mutants(documents):
    rng = random.Random(SEED)
    fixture, generated = (ET.fromstring(doc) for doc in documents)
    seen: dict[str, int] = {}
    for _ in range(MUTANTS):
        # the fixture's document is three times the size of the generated one
        text = mutant(fixture if rng.random() < 0.3 else generated, rng)
        new, old = outcome(parse_model, text), reference_outcome(text)
        if isinstance(old, tuple) and old[0] == "ValueError":
            # 0.1.0 read a count with str.isdigit and then int()
            assert new[0] == "SchemaError" and "must be a non-negative integer" in new[2], new
            kind = "ValueError"
        else:
            assert new == old, text
            kind = old[0] if isinstance(old, tuple) else "ok"
            if isinstance(old, tuple) and old[2].startswith("not well-formed"):
                kind = "not well-formed"
        seen[kind] = seen.get(kind, 0) + 1
    # the mutants reach every outcome, so none of the comparisons is idle
    assert seen.get("ok", 0) >= MUTANTS // 5, seen
    assert seen.get("SchemaError", 0) >= MUTANTS // 3, seen
    assert seen.get("ConsistencyError", 0) >= 10, seen
    assert seen.get("not well-formed", 0) >= 50, seen


def _document(packages: str) -> str:
    return f'<Project ProjectName="P" LinesOfCode="0">{packages}</Project>'


_BAD_ATTRIBUTE = '<Attribute Name="a" DeclaredType="int" AccessLevel="open" IsStatic="false"/>'
_BAD_METHOD = '<Method MethodName="m" MethodAccessLevel="public" IsStatic="false" IsConstructor="maybe"/>'


def _class(children: str) -> str:
    return _document(
        '<Packages><Package PackageName="p"><Classes>'
        f'<Class ClassName="A" classAccessLevel="public" IsInterface="false">{children}</Class>'
        "</Classes></Package></Packages>"
    )


@pytest.mark.parametrize(
    "text, location, message",
    [
        # a later child of Project is checked before Packages is missed
        (_document("<Stuff/>"), "Project/Stuff", "expected element Packages, found Stuff"),
        # a later child of Project is checked before the first one is entered
        (_document('<Packages><Package/></Packages><Stuff/>'), "Project/Stuff",
         "expected element Packages, found Stuff"),
        # a later child of a Package is checked before its classes are
        (_document('<Packages><Package PackageName="p"><Classes><Class/></Classes><Classes/>'
                   "</Package></Packages>"),
         "Project/Packages/Package[1]", "element Classes may appear at most once"),
        # a later child of a Class is checked before its attributes are
        (_class(f"<Attributes>{_BAD_ATTRIBUTE}</Attributes><Stuff/>"),
         "Project/Packages/Package[1]/Classes/Class[1]/Stuff", "unknown element Stuff"),
        # a class's attributes are checked before its methods, in any order
        (_class(f"<Methods>{_BAD_METHOD}</Methods><Attributes>{_BAD_ATTRIBUTE}</Attributes>"),
         "Project/Packages/Package[1]/Classes/Class[1]/Attributes/Attribute[1]",
         "invalid AccessLevel 'open'"),
        # inside a method, document order decides
        (_class(f"<Methods>{_BAD_METHOD}</Methods><Methods/>"),
         "Project/Packages/Package[1]/Classes/Class[1]",
         "element Methods may appear at most once"),
        # a document that is not well-formed says so, whatever else is wrong
        (_document("<Stuff/>")[:-3], "document",
         "not well-formed XML: unclosed token: line 1, column 49"),
    ],
)
def test_first_error_in_the_order_of_the_tree_walk(text, location, message):
    assert outcome(parse_model, text) == outcome(reference_parse_model, text)
    assert outcome(parse_model, text)[1:] == (location, message)


def test_a_count_int_cannot_read_is_a_schema_error():
    text = '<Project ProjectName="P" LinesOfCode="²"><Packages/></Project>'
    with pytest.raises(ValueError):
        reference_parse_model(text)
    assert outcome(parse_model, text) == (
        "SchemaError", "Project", "attribute LinesOfCode must be a non-negative integer, found '²'")

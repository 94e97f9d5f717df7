"""The streaming XML reader against the ElementTree reader of oodoc 0.1.0,
on seeded single and double mutants of two model documents.

Both readers must accept the same documents and return equal projects for
them. Where both reject a document, the streaming reader raises SchemaError
or ConsistencyError, but not always the reference's error: it reports the
first problem in document order, where 0.1.0 checked the children of
Project, of a Package and of a Class before it entered any of them, and
reported "not well-formed" before any other problem. Most rejected mutants
still give the same error. The one other divergence allowed is a fault of
0.1.0 kept in oracles.reference_parse_model: a count made of digits that
int() does not read, such as "²", raised ValueError; it is now a SchemaError.

On one broken start tag alone in a valid document, the two readers give
the same outcome exactly: the streaming reader builds each element first
and checks its rules only when the build fails, in 0.1.0's order.
"""

from __future__ import annotations

import copy
import random
import xml.etree.ElementTree as ET
from xml.sax.saxutils import quoteattr

import pytest

from oodoc.errors import ConsistencyError, SchemaError
from oodoc.xmlio import _ATTRS, parse_model, serialize_model

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
    identical = 0
    for _ in range(MUTANTS):
        # the fixture's document is three times the size of the generated one
        text = mutant(fixture if rng.random() < 0.3 else generated, rng)
        new, old = outcome(parse_model, text), reference_outcome(text)
        identical += new == old
        if isinstance(old, tuple) and old[0] == "ValueError":
            # 0.1.0 read a count with str.isdigit and then int()
            assert new[0] == "SchemaError" and "must be a non-negative integer" in new[2], new
            kind = "ValueError"
        elif isinstance(old, tuple):
            # both reject it; which error each reports may differ
            assert isinstance(new, tuple), text
            assert new[0] in ("SchemaError", "ConsistencyError"), new
            kind = "not well-formed" if old[2].startswith("not well-formed") else old[0]
        else:
            assert new == old, text
            kind = "ok"
        seen[kind] = seen.get(kind, 0) + 1
    # most rejected mutants have one problem, or the first is also the one
    # 0.1.0 reported
    assert identical >= 600, identical
    # the mutants reach every outcome, so none of the comparisons is idle
    assert seen.get("ok", 0) >= MUTANTS // 5, seen
    assert seen.get("SchemaError", 0) >= MUTANTS // 3, seen
    assert seen.get("ConsistencyError", 0) >= 10, seen
    assert seen.get("not well-formed", 0) >= 50, seen


def _document(packages: str) -> str:
    return f'<Project ProjectName="P" LinesOfCode="0">{packages}</Project>'


_BAD_ATTRIBUTE = '<Attribute Name="a" DeclaredType="int" AccessLevel="open" IsStatic="false"/>'
_BAD_METHOD = '<Method MethodName="m" MethodAccessLevel="public" IsStatic="false" IsConstructor="maybe"/>'
_TWO_PARAMETERS_MISSING = (
    '<Methods><Method MethodName="m" MethodAccessLevel="public" ReturnType="void" '
    'IsStatic="false" IsConstructor="false"><Parameters NumberOfParameters="2"/></Method></Methods>'
)
_CLASS_A = '<Class ClassName="A" classAccessLevel="public" IsInterface="false">'


def _class(children: str) -> str:
    return _document(
        f'<Packages><Package PackageName="p"><Classes>{_CLASS_A}{children}</Class>'
        "</Classes></Package></Packages>"
    )


@pytest.mark.parametrize(
    "text, error, location, message",
    [
        # a child of Project other than Packages
        (_document("<Stuff/>"), "SchemaError", "Project/Stuff",
         "expected element Packages, found Stuff"),
        # a Package's attributes, before a later child of Project
        (_document('<Packages><Package/></Packages><Stuff/>'), "SchemaError",
         "Project/Packages/Package[1]", "missing attribute PackageName on Package"),
        # a Class's attributes, before a later child of its Package
        (_document('<Packages><Package PackageName="p"><Classes><Class/></Classes><Classes/>'
                   "</Package></Packages>"),
         "SchemaError", "Project/Packages/Package[1]/Classes/Class[1]",
         "missing attribute classAccessLevel on Class"),
        # an attribute, before a later child of its Class
        (_class(f"<Attributes>{_BAD_ATTRIBUTE}</Attributes><Stuff/>"), "SchemaError",
         "Project/Packages/Package[1]/Classes/Class[1]/Attributes/Attribute[1]",
         "invalid AccessLevel 'open'"),
        # methods that come before the attributes are checked first
        (_class(f"<Methods>{_BAD_METHOD}</Methods><Attributes>{_BAD_ATTRIBUTE}</Attributes>"),
         "SchemaError", "Project/Packages/Package[1]/Classes/Class[1]/Methods/Method[1]",
         "attribute IsConstructor must be 'true' or 'false', found 'maybe'"),
        # a method, before a second Methods in its Class
        (_class(f"<Methods>{_BAD_METHOD}</Methods><Methods/>"), "SchemaError",
         "Project/Packages/Package[1]/Classes/Class[1]/Methods/Method[1]",
         "attribute IsConstructor must be 'true' or 'false', found 'maybe'"),
        # a schema error before the document breaks off
        (_document("<Stuff/>")[:-3], "SchemaError", "Project/Stuff",
         "expected element Packages, found Stuff"),
        # a parameter count, before a later child of the Package
        (_document(f'<Packages><Package PackageName="p"><Classes>{_CLASS_A}'
                   f"{_TWO_PARAMETERS_MISSING}</Class></Classes><Stuff/></Package></Packages>"),
         "ConsistencyError", "Project/Packages/Package[1]/Classes/Class[1]/Methods/Method[1]/Parameters",
         "NumberOfParameters is 2 but 0 Parameter children are present"),
        # a schema error, and a truncated tail after it
        (_class(f"<Attributes>{_BAD_ATTRIBUTE}</Attributes>")[:-30], "SchemaError",
         "Project/Packages/Package[1]/Classes/Class[1]/Attributes/Attribute[1]",
         "invalid AccessLevel 'open'"),
        # a document that breaks off inside the start tag of a broken method
        (_class(f"<Methods>{_BAD_METHOD}</Methods>").partition("/>")[0], "SchemaError", "document",
         "not well-formed XML: unclosed token: line 1, column 161"),
    ],
)
def test_first_error_in_document_order(text, error, location, message):
    assert outcome(parse_model, text) == (error, location, message)


def test_a_count_int_cannot_read_is_a_schema_error():
    text = '<Project ProjectName="P" LinesOfCode="²"><Packages/></Project>'
    with pytest.raises(ValueError):
        reference_parse_model(text)
    assert outcome(parse_model, text) == (
        "SchemaError", "Project", "attribute LinesOfCode must be a non-negative integer, found '²'")


_METHOD_HEAD = ('<Methods><Method MethodName="m" MethodAccessLevel="public" ReturnType="void" '
                'IsStatic="false" IsConstructor="false">')
# each element's context: a valid document with {} where its start tag's
# attributes go
_CONTEXTS = {
    "Class": _document('<Packages><Package PackageName="p"><Classes><Class{}><SuperInterfaces/>'
                       "<Attributes/><Methods/></Class></Classes></Package></Packages>"),
    "Attribute": _class("<Attributes><Attribute{}/></Attributes>"),
    "Method": _class('<Methods><Method{}><Parameters NumberOfParameters="0"/></Method></Methods>'),
    "Parameter": _class(f'{_METHOD_HEAD}<Parameters NumberOfParameters="1"><Parameter{{}}/>'
                        "</Parameters></Method></Methods>"),
    **{
        child: _class(f'{_METHOD_HEAD}<Parameters NumberOfParameters="0"/><{parent}><{child}{{}}/>'
                      f"</{parent}></Method></Methods>")
        for parent, child in (("LocalVariables", "LocalVariable"), ("AttributeAccesses", "AttributeAccess"),
                              ("MethodInvocations", "MethodInvocation"), ("MethodExceptions", "MethodException"))
    },
}
# a value each attribute may take, so that many drawn start tags are valid
_VALID = {
    "ClassName": "A", "classAccessLevel": "public", "IsInterface": "false", "Superclass": "B",
    "SuperclassInternal": "true", "Name": "a", "DeclaredType": "int", "AccessLevel": "private",
    "IsStatic": "false", "MethodName": "m", "MethodAccessLevel": "public", "ReturnType": "void",
    "IsConstructor": "false", "Order": "0", "Receiver": "this", "DeclaringClass": "A", "Resolved": "true",
}
PARITY_CASES = 1500


@pytest.mark.parametrize("tag", list(_CONTEXTS))
def test_each_start_tag_matches_the_reference_exactly(tag):
    # the reader builds an element first and checks its rules only when the
    # build fails; on any one start tag, the outcome is still 0.1.0's
    rng = random.Random(f"{SEED}-{tag}")
    seen = {"ok": 0, "error": 0}
    for _ in range(PARITY_CASES):
        attrs = {name: _VALID[name] if rng.random() < 0.5 else rng.choice(VALUES)
                 for name in _ATTRS[tag] if rng.random() < 0.85}
        if rng.random() < 0.1:
            attrs["Color"] = rng.choice(VALUES)
        text = _CONTEXTS[tag].format("".join(f" {name}={quoteattr(value)}" for name, value in attrs.items()))
        new, old = outcome(parse_model, text), reference_outcome(text)
        if isinstance(old, tuple) and old[0] == "ValueError":
            # 0.1.0 read a count with str.isdigit and then int()
            assert new[0] == "SchemaError" and "must be a non-negative integer" in new[2], (text, new)
        else:
            assert new == old, text
        seen["error" if isinstance(new, tuple) else "ok"] += 1
    assert min(seen.values()) >= PARITY_CASES // 20, seen

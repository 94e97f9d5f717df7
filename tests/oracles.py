"""Reference implementations that the tests hold the library against.

They are kept apart from the library on purpose: the lexer, LoC and XML
reader code in oodoc may change shape, these may not.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from oodoc.errors import ConsistencyError, ParseFailure, SchemaError
from oodoc.model import (
    ACCESS_LEVELS,
    CLASS_ACCESS_LEVELS,
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


def loc_oracle(text: str) -> int:
    """Independent line-filtering count: strip block comments (keeping the
    newline structure), drop // tails, count non-blank lines."""
    no_blocks = re.sub(
        r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text, flags=re.S
    )
    count = 0
    for line in no_blocks.splitlines():
        code = line.split("//", 1)[0]
        if code.strip():
            count += 1
    return count


_PUNCT = (
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "->", "...", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&",
    "|", "^", "~", "?", ":", ".", ",", ";", "(", ")", "{", "}", "[", "]",
    "@",
)


def reference_tokenize(text: str, path: str) -> list[tuple[str, str, int]]:
    """The character-by-character lexer oodoc 0.1.0 shipped, as
    (kind, text, line) triples.

    It has one known fault, left in place so that the differential test can
    name it: a backslash before a newline inside a literal continues the
    literal, and that newline is not counted.
    """
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            i += 2
            while True:
                if i + 1 >= n:
                    raise ParseFailure(path, start_line, "unterminated block comment")
                if text[i] == "\n":
                    line += 1
                    i += 1
                    continue
                if text[i] == "*" and text[i + 1] == "/":
                    i += 2
                    break
                i += 1
            continue
        if c == '"' or c == "'":
            quote = c
            start_line = line
            j = i + 1
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if text[j] == "\n":
                    raise ParseFailure(path, start_line, "unterminated literal")
                if text[j] == quote:
                    break
                j += 1
            else:
                raise ParseFailure(path, start_line, "unterminated literal")
            kind = "string" if quote == '"' else "char"
            tokens.append((kind, text[i : j + 1], line))
            i = j + 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "fFdDlL":
                j += 1
            tokens.append(("number", text[i:j], line))
            i = j
            continue
        if c.isalpha() or c == "_" or c == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            tokens.append(("ident", text[i:j], line))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, line))
                i += len(p)
                break
        else:
            raise ParseFailure(path, line, f"unexpected character {c!r}")
    tokens.append(("eof", "", line))
    return tokens


# -- the XML reader of oodoc 0.1.0 -------------------------------------

_REFERENCE_ALLOWED_ATTRS = {
    "Project": {"ProjectName", "LinesOfCode"},
    "Packages": set(),
    "Package": {"PackageName"},
    "Classes": set(),
    "Class": {"ClassName", "classAccessLevel", "IsInterface", "Superclass", "SuperclassInternal"},
    "SuperInterfaces": {"Name", "Internal"},
    "Attributes": set(),
    "Attribute": {"Name", "DeclaredType", "AccessLevel", "IsStatic"},
    "Methods": set(),
    "Method": {"MethodName", "MethodAccessLevel", "ReturnType", "IsStatic", "IsConstructor"},
    "Parameters": {"NumberOfParameters"},
    "Parameter": {"Name", "DeclaredType", "Order"},
    "LocalVariables": set(),
    "LocalVariable": {"Name", "DeclaredType"},
    "AttributeAccesses": set(),
    "AttributeAccess": {"Name", "Receiver", "DeclaringClass", "Resolved"},
    "MethodInvocations": set(),
    "MethodInvocation": {"Name", "Receiver", "DeclaringClass", "Resolved"},
    "MethodExceptions": set(),
    "MethodException": {"Name"},
}


def _check(elem: ET.Element, location: str, expected: str | None = None):
    if expected is not None and elem.tag != expected:
        raise SchemaError(location, f"expected element {expected}, found {elem.tag}")
    allowed = _REFERENCE_ALLOWED_ATTRS.get(elem.tag)
    if allowed is None:
        raise SchemaError(location, f"unknown element {elem.tag}")
    for name in elem.attrib:
        if name not in allowed:
            raise SchemaError(location, f"unknown attribute {name} on {elem.tag}")


def _need(elem: ET.Element, name: str, location: str) -> str:
    if name not in elem.attrib:
        raise SchemaError(location, f"missing attribute {name} on {elem.tag}")
    return elem.attrib[name]


def _parse_bool(value: str, location: str, name: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise SchemaError(location, f"attribute {name} must be 'true' or 'false', found {value!r}")


def _parse_count(value: str, location: str, name: str) -> int:
    if not value.isdigit():
        raise SchemaError(location, f"attribute {name} must be a non-negative integer, found {value!r}")
    return int(value)


def reference_parse_model(text: str) -> Project:
    """The ElementTree reader oodoc shipped before the streaming one: parse the
    whole document into a tree, then walk it."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SchemaError("document", f"not well-formed XML: {exc}") from exc
    loc = "Project"
    _check(root, loc, expected="Project")
    project = Project(
        name=_need(root, "ProjectName", loc),
        loc=_parse_count(_need(root, "LinesOfCode", loc), loc, "LinesOfCode"),
    )
    packages_elem = None
    for child in root:
        _check(child, f"{loc}/{child.tag}", expected="Packages")
        if packages_elem is not None:
            raise SchemaError(loc, "element Packages may appear at most once")
        packages_elem = child
    if packages_elem is None:
        raise SchemaError(loc, "missing Packages element")
    for i, pkg_elem in enumerate(packages_elem, start=1):
        ploc = f"{loc}/Packages/Package[{i}]"
        _check(pkg_elem, ploc, expected="Package")
        project.packages.append(_parse_package(pkg_elem, ploc))
    return project


def _parse_package(elem: ET.Element, location: str) -> Package:
    pkg = Package(qualified_name=_need(elem, "PackageName", location))
    classes_elem = None
    for child in elem:
        _check(child, f"{location}/{child.tag}", expected="Classes")
        if classes_elem is not None:
            raise SchemaError(location, "element Classes may appear at most once")
        classes_elem = child
    if classes_elem is not None:
        for i, cls_elem in enumerate(classes_elem, start=1):
            cloc = f"{location}/Classes/Class[{i}]"
            _check(cls_elem, cloc, expected="Class")
            pkg.classes.append(_parse_class(cls_elem, cloc))
    return pkg


def _parse_class(elem: ET.Element, location: str) -> ClassEntity:
    access = _need(elem, "classAccessLevel", location)
    if access not in CLASS_ACCESS_LEVELS:
        raise SchemaError(location, f"invalid classAccessLevel {access!r}")
    cls = ClassEntity(
        name=_need(elem, "ClassName", location),
        access_level=access,
        is_interface=_parse_bool(_need(elem, "IsInterface", location), location, "IsInterface"),
    )
    if "Superclass" in elem.attrib:
        if cls.is_interface:
            raise SchemaError(location, "an interface cannot carry Superclass")
        internal = _parse_bool(
            _need(elem, "SuperclassInternal", location), location, "SuperclassInternal"
        )
        cls.superclass = TypeRef(elem.attrib["Superclass"], internal)
    elif "SuperclassInternal" in elem.attrib:
        raise SchemaError(location, "SuperclassInternal requires Superclass")
    attributes_elem = None
    methods_elem = None
    for child in elem:
        tag = child.tag
        cloc = f"{location}/{tag}"
        _check(child, cloc)
        if tag == "SuperInterfaces":
            if "Name" in child.attrib:
                internal = _parse_bool(
                    _need(child, "Internal", cloc), cloc, "Internal"
                )
                cls.super_interfaces.append(TypeRef(child.attrib["Name"], internal))
            elif child.attrib:
                raise SchemaError(cloc, "SuperInterfaces carries Internal without Name")
            if len(child):
                raise SchemaError(cloc, "SuperInterfaces cannot have children")
        elif tag == "Attributes":
            if attributes_elem is not None:
                raise SchemaError(location, "element Attributes may appear at most once")
            attributes_elem = child
        elif tag == "Methods":
            if methods_elem is not None:
                raise SchemaError(location, "element Methods may appear at most once")
            methods_elem = child
        else:
            raise SchemaError(cloc, f"element {tag} is not allowed inside Class")
    if attributes_elem is not None:
        for i, a_elem in enumerate(attributes_elem, start=1):
            aloc = f"{location}/Attributes/Attribute[{i}]"
            _check(a_elem, aloc, expected="Attribute")
            level = _need(a_elem, "AccessLevel", aloc)
            if level not in ACCESS_LEVELS:
                raise SchemaError(aloc, f"invalid AccessLevel {level!r}")
            cls.attributes.append(
                AttributeEntity(
                    name=_need(a_elem, "Name", aloc),
                    declared_type=_need(a_elem, "DeclaredType", aloc),
                    access_level=level,
                    is_static=_parse_bool(_need(a_elem, "IsStatic", aloc), aloc, "IsStatic"),
                )
            )
    if methods_elem is not None:
        for i, m_elem in enumerate(methods_elem, start=1):
            mloc = f"{location}/Methods/Method[{i}]"
            _check(m_elem, mloc, expected="Method")
            cls.methods.append(_parse_method(m_elem, mloc))
    return cls


def _parse_method(elem: ET.Element, location: str) -> MethodEntity:
    access = _need(elem, "MethodAccessLevel", location)
    if access not in ACCESS_LEVELS:
        raise SchemaError(location, f"invalid MethodAccessLevel {access!r}")
    is_constructor = _parse_bool(
        _need(elem, "IsConstructor", location), location, "IsConstructor"
    )
    return_type = elem.attrib.get("ReturnType")
    if is_constructor and return_type is not None:
        raise SchemaError(location, "a constructor cannot carry ReturnType")
    if not is_constructor and return_type is None:
        raise SchemaError(location, "missing attribute ReturnType on Method")
    method = MethodEntity(
        name=_need(elem, "MethodName", location),
        return_type=return_type,
        access_level=access,
        is_static=_parse_bool(_need(elem, "IsStatic", location), location, "IsStatic"),
        is_constructor=is_constructor,
    )
    seen: set[str] = set()
    for child in elem:
        tag = child.tag
        cloc = f"{location}/{tag}"
        if tag in seen:
            raise SchemaError(location, f"element {tag} may appear at most once here")
        seen.add(tag)
        _check(child, cloc)
        if tag == "Parameters":
            declared = _parse_count(
                _need(child, "NumberOfParameters", cloc), cloc, "NumberOfParameters"
            )
            for i, p_elem in enumerate(child, start=1):
                p_loc = f"{cloc}/Parameter[{i}]"
                _check(p_elem, p_loc, expected="Parameter")
                order = _parse_count(_need(p_elem, "Order", p_loc), p_loc, "Order")
                method.parameters.append(
                    Parameter(
                        name=_need(p_elem, "Name", p_loc),
                        declared_type=_need(p_elem, "DeclaredType", p_loc),
                        order=order,
                    )
                )
            if declared != len(method.parameters):
                raise ConsistencyError(
                    cloc,
                    f"NumberOfParameters is {declared} but {len(method.parameters)} "
                    "Parameter children are present",
                )
            for i, p in enumerate(method.parameters):
                if p.order != i:
                    raise ConsistencyError(
                        cloc, f"parameter {p.name} has Order {p.order}, expected {i}"
                    )
        elif tag == "LocalVariables":
            for i, v_elem in enumerate(child, start=1):
                v_loc = f"{cloc}/LocalVariable[{i}]"
                _check(v_elem, v_loc, expected="LocalVariable")
                method.local_variables.append(
                    LocalVariableEntity(
                        name=_need(v_elem, "Name", v_loc),
                        declared_type=_need(v_elem, "DeclaredType", v_loc),
                    )
                )
        elif tag == "AttributeAccesses":
            for i, a_elem in enumerate(child, start=1):
                a_loc = f"{cloc}/AttributeAccess[{i}]"
                _check(a_elem, a_loc, expected="AttributeAccess")
                method.accesses.append(
                    AccessRelation(
                        attribute_name=_need(a_elem, "Name", a_loc),
                        receiver=a_elem.attrib.get("Receiver", ""),
                        declaring_class=a_elem.attrib.get("DeclaringClass", ""),
                        resolved=_parse_bool(_need(a_elem, "Resolved", a_loc), a_loc, "Resolved"),
                    )
                )
        elif tag == "MethodInvocations":
            for i, inv_elem in enumerate(child, start=1):
                i_loc = f"{cloc}/MethodInvocation[{i}]"
                _check(inv_elem, i_loc, expected="MethodInvocation")
                method.invocations.append(
                    InvocationRelation(
                        method_name=_need(inv_elem, "Name", i_loc),
                        receiver=inv_elem.attrib.get("Receiver", ""),
                        declaring_class=inv_elem.attrib.get("DeclaringClass", ""),
                        resolved=_parse_bool(_need(inv_elem, "Resolved", i_loc), i_loc, "Resolved"),
                    )
                )
        elif tag == "MethodExceptions":
            for i, e_elem in enumerate(child, start=1):
                e_loc = f"{cloc}/MethodException[{i}]"
                _check(e_elem, e_loc, expected="MethodException")
                method.throws.append(_need(e_elem, "Name", e_loc))
        else:
            raise SchemaError(cloc, f"element {tag} is not allowed inside Method")
    if "Parameters" not in seen:
        raise SchemaError(location, "missing Parameters element")
    return method

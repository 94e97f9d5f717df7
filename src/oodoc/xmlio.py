"""XML exchange format for project models.

The element vocabulary is fixed: _ATTRS names every element and its
attributes, in the order they are written, and the writer and the reader
both take it from there. Serialization is byte-deterministic (two-space
indent, fixed attribute order, UTF-8) so equal models produce identical
documents, and parse_model(serialize_model(p)) rebuilds a structurally
equal project.
Tabs and line ends in names are written as character references, so they
survive; a name with a character XML 1.0 cannot carry at all is refused.

Both directions stream. write_model writes the document a piece at a time
from the same writer whose pieces serialize_model joins, and parse_model
builds the model from expat's events and never holds an element tree.
"""

from __future__ import annotations

import contextlib
import os
import re
from collections.abc import Iterator
from xml.parsers import expat

from .errors import ConsistencyError, InputError, SchemaError
from .model import (
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

_XML_HEADER = '<?xml version="1.0" encoding="UTF-8"?>'
_PRINTABLE_ASCII = bytes(range(0x20, 0x7F))
# lines per piece of the written document: large enough that a write call
# costs little, small enough that a piece is a few hundred kilobytes
_CHUNK_LINES = 4096
# a character outside XML 1.0's Char production (section 2.2)
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


# The vocabulary of the format: each element's attribute names, in the
# order they are written. The reader allows these names and no others.
_ATTRS = {
    "Project": ("ProjectName", "LinesOfCode"),
    "Packages": (),
    "Package": ("PackageName",),
    "Classes": (),
    "Class": ("ClassName", "classAccessLevel", "IsInterface", "Superclass", "SuperclassInternal"),
    "SuperInterfaces": ("Name", "Internal"),
    "Attributes": (),
    "Attribute": ("Name", "DeclaredType", "AccessLevel", "IsStatic"),
    "Methods": (),
    "Method": ("MethodName", "MethodAccessLevel", "ReturnType", "IsStatic", "IsConstructor"),
    "Parameters": ("NumberOfParameters",),
    "Parameter": ("Name", "DeclaredType", "Order"),
    "LocalVariables": (),
    "LocalVariable": ("Name", "DeclaredType"),
    "AttributeAccesses": (),
    "AttributeAccess": ("Name", "Receiver", "DeclaringClass", "Resolved"),
    "MethodInvocations": (),
    "MethodInvocation": ("Name", "Receiver", "DeclaringClass", "Resolved"),
    "MethodExceptions": (),
    "MethodException": ("Name",),
}
# the text before each attribute's value, built once per element
_HEADS = {tag: tuple(f' {name}="' for name in names) for tag, names in _ATTRS.items()}


def _bool(value: bool) -> str:
    return "true" if value else "false"


class _Writer:
    def __init__(self):
        self.lines = [_XML_HEADER]
        self.lines_taken = 0  # lines already handed out by take()

    def open(self, depth: int, tag: str, values: tuple = (), empty: bool = False):
        """The start tag of tag, with one value per name in _ATTRS[tag], in
        that order; an attribute whose value is None is left out."""
        line = f"{'  ' * depth}<{tag}"
        for head, value in zip(_HEADS[tag], values):
            if value is not None:
                # "&" first, so that the entities the later replacements add stay whole
                value = value.replace("&", "&amp;").replace(">", "&gt;")
                value = value.replace("<", "&lt;").replace('"', "&quot;")
                line += f'{head}{value}"'
        self.lines.append(f"{line}/>" if empty else f"{line}>")

    def close(self, depth: int, tag: str):
        self.lines.append(f"{'  ' * depth}</{tag}>")

    def list_element(self, depth: int, tag: str, child: str, rows: list[tuple], values: tuple = ()):
        """Element tag, holding one empty child element per row of attribute
        values, or written empty when there are no rows."""
        if rows:
            self.open(depth, tag, values)
            for row in rows:
                self.open(depth + 1, child, row, empty=True)
            self.close(depth, tag)
        else:
            self.open(depth, tag, values, empty=True)

    def take(self) -> str:
        """The lines written since the last take, as text, and forget them.

        Markup holds no tab, CR or LF within a line, so those characters,
        where they occur, are in attribute values, and become character
        references there: a parser would read them as spaces. The error for
        a character XML cannot carry counts lines from the document's start."""
        lines = self.lines
        self.lines = []
        first_line = self.lines_taken + 1
        self.lines_taken += len(lines)
        text = "\n".join(lines) + "\n"
        # one pass decides the common case: ASCII text whose only control
        # characters are the line ends between elements
        if text.isascii() and len(text.encode("ascii").translate(None, _PRINTABLE_ASCII)) == len(lines):
            return text
        if text.count("\n") != len(lines):
            text = "\n".join(line.replace("\n", "&#10;") for line in lines) + "\n"
        text = text.replace("\r", "&#13;").replace("\t", "&#9;")
        bad = _NOT_XML_CHAR.search(text)
        if bad is not None:
            line = first_line + text.count("\n", 0, bad.start())
            raise InputError(
                f"cannot write the model as XML: line {line} of the document would hold "
                f"{bad.group()!r}, which XML 1.0 does not allow"
            )
        return text


def _model_chunks(project: Project) -> Iterator[str]:
    """The document as consecutive pieces of whole lines, each checked and
    escaped before it is yielded; a piece ends after the class that brings
    it to _CHUNK_LINES lines or more, or at the end of the document."""
    w = _Writer()
    w.open(0, "Project", (project.name, str(project.loc)))
    if project.packages:
        w.open(1, "Packages")
        for pkg in project.packages:
            yield from _write_package(w, pkg)
        w.close(1, "Packages")
    else:
        w.open(1, "Packages", empty=True)
    w.close(0, "Project")
    yield w.take()


def serialize_model(project: Project) -> str:
    """The model's XML document as one string.

    It joins the pieces that write_model writes, so both give the same
    text; InputError if a name holds a character XML 1.0 cannot carry."""
    return "".join(_model_chunks(project))


def write_model(project: Project, path: str | os.PathLike) -> None:
    """Write serialize_model(project) to path as UTF-8, a piece at a time,
    so the whole document is never held in memory.

    The pieces go to a sibling file, path plus ".partial", which replaces
    path only once the document is complete. If writing fails, InputError
    included, the sibling is removed and path is left as it was."""
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as out:
            for chunk in _model_chunks(project):
                out.write(chunk)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_package(w: _Writer, pkg: Package) -> Iterator[str]:
    w.open(2, "Package", (pkg.qualified_name,))
    if pkg.classes:
        w.open(3, "Classes")
        for cls in pkg.classes:
            _write_class(w, cls)
            if len(w.lines) >= _CHUNK_LINES:
                yield w.take()
        w.close(3, "Classes")
    else:
        w.open(3, "Classes", empty=True)
    w.close(2, "Package")


def _write_class(w: _Writer, cls: ClassEntity):
    sup = cls.superclass
    w.open(4, "Class", (
        cls.name, cls.access_level, _bool(cls.is_interface),
        None if sup is None else sup.name, None if sup is None else _bool(sup.internal),
    ))
    if cls.super_interfaces:
        for ref in cls.super_interfaces:
            w.open(5, "SuperInterfaces", (ref.name, _bool(ref.internal)), empty=True)
    else:
        w.open(5, "SuperInterfaces", empty=True)
    w.list_element(5, "Attributes", "Attribute", [
        (a.name, a.declared_type, a.access_level, _bool(a.is_static)) for a in cls.attributes
    ])
    if cls.methods:
        w.open(5, "Methods")
        for method in cls.methods:
            _write_method(w, method)
        w.close(5, "Methods")
    else:
        w.open(5, "Methods", empty=True)
    w.close(4, "Class")


def _write_method(w: _Writer, m: MethodEntity):
    w.open(6, "Method", (m.name, m.access_level, m.return_type, _bool(m.is_static), _bool(m.is_constructor)))
    w.list_element(
        7, "Parameters", "Parameter", [(p.name, p.declared_type, str(p.order)) for p in m.parameters],
        (str(len(m.parameters)),),
    )
    w.list_element(7, "LocalVariables", "LocalVariable", [
        (v.name, v.declared_type) for v in m.local_variables
    ])
    w.list_element(7, "AttributeAccesses", "AttributeAccess", [
        (a.attribute_name, a.receiver, a.declaring_class, _bool(a.resolved)) for a in m.accesses
    ])
    w.list_element(7, "MethodInvocations", "MethodInvocation", [
        (i.method_name, i.receiver, i.declaring_class, _bool(i.resolved)) for i in m.invocations
    ])
    w.list_element(7, "MethodExceptions", "MethodException", [(name,) for name in m.throws])
    w.close(6, "Method")


# -- parsing ------------------------------------------------------------

_ALLOWED_ATTRS = {tag: frozenset(names) for tag, names in _ATTRS.items()}

# The reader builds the model from expat's start and end events, with one
# frame per open element, and never holds an element tree. A handler raises
# at the first error it finds, and expat stops there and passes the error on,
# so the error reported is the first problem in document order.

_BOOLS = {"true": True, "false": False}
_METHOD_PARTS = {
    "Parameters", "LocalVariables", "AttributeAccesses", "MethodInvocations", "MethodExceptions",
}


class _Frame:
    """An open element: its tag and location, the entity its children go
    into, how many children it has had, and the child tags already seen."""

    __slots__ = ("tag", "location", "entity", "count", "seen", "declared")

    def __init__(self, tag, location: str, entity, seen: set | None = None):
        self.tag = tag
        self.location = location
        self.entity = entity
        self.count = 0
        self.seen = seen
        self.declared = 0  # NumberOfParameters, on a Parameters frame


def _check(tag: str, attrs: dict, location: str, expected: str | None = None):
    if expected is not None and tag != expected:
        raise SchemaError(location, f"expected element {expected}, found {tag}")
    allowed = _ALLOWED_ATTRS.get(tag)
    if allowed is None:
        raise SchemaError(location, f"unknown element {tag}")
    for name in attrs:
        if name not in allowed:
            # expat's "uri}local" in ElementTree's "{uri}local" form
            name = "{" + name if "}" in name else name
            raise SchemaError(location, f"unknown attribute {name} on {tag}")


def _superclass_rule(attrs: dict, location: str):
    if "Superclass" in attrs:
        if attrs["IsInterface"] == "true":
            raise SchemaError(location, "an interface cannot carry Superclass")
        _check_value("Class", attrs, location, "SuperclassInternal", bool)
    elif "SuperclassInternal" in attrs:
        raise SchemaError(location, "SuperclassInternal requires Superclass")


def _return_type_rule(attrs: dict, location: str):
    if attrs["IsConstructor"] == "true":
        if "ReturnType" in attrs:
            raise SchemaError(location, "a constructor cannot carry ReturnType")
    elif "ReturnType" not in attrs:
        raise SchemaError(location, "missing attribute ReturnType on Method")


def _super_interfaces_rule(attrs: dict, location: str):
    if "Name" in attrs:
        _check_value("SuperInterfaces", attrs, location, "Internal", bool)
    elif attrs:
        raise SchemaError(location, "SuperInterfaces carries Internal without Name")


# The attribute rules of each element, in the order the reference reader
# (oodoc 0.1.0's) checks them, so that a start tag that breaks several
# reports the same one: a required attribute with its kind of value (str for
# any text, bool, int for a non-negative count, or the tuple of allowed
# values), or a rule across attributes.
_RULES = {
    "Project": (("ProjectName", str), ("LinesOfCode", int)),
    "Package": (("PackageName", str),),
    "Class": (
        ("classAccessLevel", CLASS_ACCESS_LEVELS), ("ClassName", str), ("IsInterface", bool),
        _superclass_rule,
    ),
    "SuperInterfaces": (_super_interfaces_rule,),
    "Attribute": (("AccessLevel", ACCESS_LEVELS), ("Name", str), ("DeclaredType", str), ("IsStatic", bool)),
    "Method": (
        ("MethodAccessLevel", ACCESS_LEVELS), ("IsConstructor", bool), _return_type_rule,
        ("MethodName", str), ("IsStatic", bool),
    ),
    "Parameters": (("NumberOfParameters", int),),
    "Parameter": (("Order", int), ("Name", str), ("DeclaredType", str)),
    "LocalVariable": (("Name", str), ("DeclaredType", str)),
    "AttributeAccess": (("Name", str), ("Resolved", bool)),
    "MethodInvocation": (("Name", str), ("Resolved", bool)),
    "MethodException": (("Name", str),),
}


def _check_value(tag: str, attrs: dict, location: str, name: str, kind):
    value = attrs.get(name)
    if value is None:
        raise SchemaError(location, f"missing attribute {name} on {tag}")
    if kind is bool and value not in _BOOLS:
        raise SchemaError(location, f"attribute {name} must be 'true' or 'false', found {value!r}")
    if kind is int and not value.isdecimal():
        raise SchemaError(location, f"attribute {name} must be a non-negative integer, found {value!r}")
    if isinstance(kind, tuple) and value not in kind:
        raise SchemaError(location, f"invalid {name} {value!r}")


def _count(value: str, name: str, location: str) -> int:
    """A count that passed isdecimal, as an int.

    int() refuses more digits than sys.get_int_max_str_digits(), a limit
    that PYTHONINTMAXSTRDIGITS can lower, so that is a SchemaError too.
    """
    try:
        return int(value)
    except ValueError:
        raise SchemaError(
            location,
            f"attribute {name} must be a non-negative integer, "
            f"found {len(value)} digits, more than int() accepts",
        ) from None


def _validate(tag: str, attrs: dict, location: str, expected: str | None = None):
    """Raise the first error of this start tag, if any, taking its rules in
    the reference reader's order.

    The handlers of frequent elements first test them in one expression and
    call this only when that fails.
    """
    _check(tag, attrs, location, expected)
    for rule in _RULES.get(tag, ()):
        if callable(rule):
            rule(attrs, location)
        else:
            _check_value(tag, attrs, location, *rule)


# One start handler per parent tag. Each adds the new element's entity to
# the parent's and pushes a frame for it, or sets reader.skip when the
# element's content is ignored; a broken element raises SchemaError.


def _start_root(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    loc = "Project"
    _validate(tag, attrs, loc, "Project")
    parent.entity = Project(name=attrs["ProjectName"], loc=_count(attrs["LinesOfCode"], "LinesOfCode", loc))
    r.stack.append(_Frame(tag, loc, parent.entity, set()))


def _start_only(child: str):
    """The start handler of an element whose one allowed child, child, may
    appear at most once (Project's Packages, Package's Classes)."""

    def start(r: _Reader, parent: _Frame, tag: str, attrs: dict):
        loc = f"{parent.location}/{tag}"
        _check(tag, attrs, loc, child)
        if parent.seen:
            raise SchemaError(parent.location, f"element {child} may appear at most once")
        parent.seen.add(tag)
        r.stack.append(_Frame(tag, loc, parent.entity))

    return start


def _start_in_packages(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    loc = f"{parent.location}/Package[{parent.count}]"
    _validate(tag, attrs, loc, "Package")
    pkg = Package(qualified_name=attrs["PackageName"])
    parent.entity.packages.append(pkg)
    r.stack.append(_Frame(tag, loc, pkg, set()))


def _start_in_classes(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    loc = f"{parent.location}/Class[{parent.count}]"
    _validate(tag, attrs, loc, "Class")
    cls = ClassEntity(
        name=attrs["ClassName"],
        access_level=attrs["classAccessLevel"],
        is_interface=_BOOLS[attrs["IsInterface"]],
    )
    if "Superclass" in attrs:
        cls.superclass = TypeRef(attrs["Superclass"], _BOOLS[attrs["SuperclassInternal"]])
    parent.entity.classes.append(cls)
    r.stack.append(_Frame(tag, loc, cls, set()))


def _start_in_class(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    loc = f"{parent.location}/{tag}"
    cls = parent.entity
    if tag == "SuperInterfaces":
        _validate(tag, attrs, loc)
        if attrs:
            cls.super_interfaces.append(TypeRef(attrs["Name"], _BOOLS[attrs["Internal"]]))
        r.stack.append(_Frame(tag, loc, None))
        return
    _check(tag, attrs, loc)
    if tag == "Attributes" or tag == "Methods":
        if tag in parent.seen:
            raise SchemaError(parent.location, f"element {tag} may appear at most once")
        parent.seen.add(tag)
        r.stack.append(_Frame(tag, loc, cls))
    else:
        raise SchemaError(loc, f"element {tag} is not allowed inside Class")


def _start_in_super_interfaces(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    raise SchemaError(parent.location, "SuperInterfaces cannot have children")


def _start_in_attributes(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    level = attrs.get("AccessLevel")
    is_static = _BOOLS.get(attrs.get("IsStatic"))
    if (
        tag != "Attribute"
        or level not in ACCESS_LEVELS
        or is_static is None
        or attrs.keys() != _ALLOWED_ATTRS[tag]
    ):
        _validate(tag, attrs, f"{parent.location}/Attribute[{parent.count}]", "Attribute")
    parent.entity.attributes.append(
        AttributeEntity(attrs["Name"], attrs["DeclaredType"], level, is_static)
    )
    r.skip = 1


def _start_in_methods(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    loc = f"{parent.location}/Method[{parent.count}]"
    access = attrs.get("MethodAccessLevel")
    is_constructor = _BOOLS.get(attrs.get("IsConstructor"))
    is_static = _BOOLS.get(attrs.get("IsStatic"))
    return_type = attrs.get("ReturnType")
    if (
        tag != "Method"
        or access not in ACCESS_LEVELS
        or is_constructor is None
        or is_static is None
        or (return_type is None) != is_constructor
        or "MethodName" not in attrs
        or len(attrs) != (4 if is_constructor else 5)
    ):
        _validate(tag, attrs, loc, "Method")
    method = MethodEntity(attrs["MethodName"], return_type, access, is_static, is_constructor)
    parent.entity.methods.append(method)
    r.stack.append(_Frame(tag, loc, method, set()))


def _start_in_method(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    loc = f"{parent.location}/{tag}"
    if tag in parent.seen:
        raise SchemaError(parent.location, f"element {tag} may appear at most once here")
    parent.seen.add(tag)
    frame = _Frame(tag, loc, parent.entity)
    if tag == "Parameters":
        declared = attrs.get("NumberOfParameters", "")
        if len(attrs) != 1 or not declared.isdecimal():
            _validate(tag, attrs, loc)
        frame.declared = _count(declared, "NumberOfParameters", loc)
    elif attrs or tag not in _METHOD_PARTS:
        _check(tag, attrs, loc)
        raise SchemaError(loc, f"element {tag} is not allowed inside Method")
    r.stack.append(frame)


def _start_in_parameters(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    loc = f"{parent.location}/Parameter[{parent.count}]"
    order = attrs.get("Order", "")
    if tag != "Parameter" or not order.isdecimal() or attrs.keys() != _ALLOWED_ATTRS[tag]:
        _validate(tag, attrs, loc, "Parameter")
    parent.entity.parameters.append(
        Parameter(attrs["Name"], attrs["DeclaredType"], _count(order, "Order", loc))
    )
    r.skip = 1


def _start_in_local_variables(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    if tag != "LocalVariable" or attrs.keys() != _ALLOWED_ATTRS[tag]:
        _validate(tag, attrs, f"{parent.location}/LocalVariable[{parent.count}]", "LocalVariable")
    parent.entity.local_variables.append(LocalVariableEntity(attrs["Name"], attrs["DeclaredType"]))
    r.skip = 1


def _start_relations(child: str, relation: type, into: str):
    """The start handler of AttributeAccesses or MethodInvocations: each
    child element becomes a relation, added to the method's list into."""
    allowed = _ALLOWED_ATTRS[child]

    def start(r: _Reader, parent: _Frame, tag: str, attrs: dict):
        resolved = _BOOLS.get(attrs.get("Resolved"))
        if tag != child or resolved is None or "Name" not in attrs or not allowed.issuperset(attrs):
            _validate(tag, attrs, f"{parent.location}/{child}[{parent.count}]", child)
        getattr(parent.entity, into).append(
            relation(attrs["Name"], attrs.get("Receiver", ""), attrs.get("DeclaringClass", ""), resolved)
        )
        r.skip = 1

    return start


def _start_in_method_exceptions(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    if tag != "MethodException" or len(attrs) != 1 or "Name" not in attrs:
        _validate(tag, attrs, f"{parent.location}/MethodException[{parent.count}]", "MethodException")
    parent.entity.throws.append(attrs["Name"])
    r.skip = 1


_STARTS = {
    None: _start_root,
    "Project": _start_only("Packages"),
    "Packages": _start_in_packages,
    "Package": _start_only("Classes"),
    "Classes": _start_in_classes,
    "Class": _start_in_class,
    "SuperInterfaces": _start_in_super_interfaces,
    "Attributes": _start_in_attributes,
    "Methods": _start_in_methods,
    "Method": _start_in_method,
    "Parameters": _start_in_parameters,
    "LocalVariables": _start_in_local_variables,
    "AttributeAccesses": _start_relations("AttributeAccess", AccessRelation, "accesses"),
    "MethodInvocations": _start_relations("MethodInvocation", InvocationRelation, "invocations"),
    "MethodExceptions": _start_in_method_exceptions,
}


# End handlers check what needs all of an element's children.


def _end_project(frame: _Frame):
    if not frame.seen:
        raise SchemaError(frame.location, "missing Packages element")


def _end_method(frame: _Frame):
    if "Parameters" not in frame.seen:
        raise SchemaError(frame.location, "missing Parameters element")


def _end_parameters(frame: _Frame):
    parameters = frame.entity.parameters
    if frame.declared != len(parameters):
        raise ConsistencyError(
            frame.location,
            f"NumberOfParameters is {frame.declared} but {len(parameters)} "
            "Parameter children are present",
        )
    for i, p in enumerate(parameters):
        if p.order != i:
            raise ConsistencyError(frame.location, f"parameter {p.name} has Order {p.order}, expected {i}")


_ENDS = {"Project": _end_project, "Method": _end_method, "Parameters": _end_parameters}


class _Reader:
    """expat's start and end handlers over a stack of frames."""

    def __init__(self):
        self.document = _Frame(None, "document", None)
        self.stack = [self.document]
        self.skip = 0  # open elements whose content is ignored

    def start(self, tag: str, attrs: dict):
        if self.skip:
            self.skip += 1
            return
        if "}" in tag:
            tag = "{" + tag  # ElementTree's name for a namespaced element
        parent = self.stack[-1]
        parent.count += 1
        _STARTS[parent.tag](self, parent, tag, attrs)

    def end(self, tag: str):
        if self.skip:
            self.skip -= 1
            return
        frame = self.stack.pop()
        check = _ENDS.get(frame.tag)
        if check is not None:
            check(frame)


def parse_model(text: str) -> Project:
    reader = _Reader()
    parser = expat.ParserCreate(None, "}")
    parser.StartElementHandler = reader.start
    parser.EndElementHandler = reader.end
    try:
        # fed as ElementTree feeds it, so that expat reports the same errors
        parser.Parse(text, False)
        parser.Parse("", True)
    except expat.ExpatError as exc:
        raise SchemaError("document", f"not well-formed XML: {exc}") from exc
    return reader.document.entity

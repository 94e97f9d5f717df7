"""XML exchange format for project models.

The element vocabulary is fixed: _ATTRS names every element and its
attributes, in the order they are written, and the writer and the reader
both take it from there. Serialization is byte-deterministic (two-space
indent, fixed attribute order, UTF-8) so equal models produce identical
documents, and parse_model(serialize_model(p)) rebuilds a structurally
equal project.
Tabs and line ends in names are written as character references, so they
survive; a name with a character XML 1.0 cannot carry at all is refused.

Both directions stream. One writer checks and escapes the document a
piece at a time and hands each piece to a sink: serialize_model's list or
write_model's file. parse_model builds the model from expat's events and
never holds an element tree. It builds each element's entity straight
from its attributes, and only when that fails checks the element's rules
in a fixed order, the int() size check of a count last, for the error.
"""

from __future__ import annotations

import contextlib
import os
import re
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
    def __init__(self, out):
        self.out = out  # takes each checked piece of the document, in order
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

    def element(self, depth: int, tag: str, items: list, write):
        """Element tag, holding what write(self, item) writes for each item,
        or written empty when there are no items."""
        if items:
            self.open(depth, tag)
            for item in items:
                write(self, item)
            self.close(depth, tag)
        else:
            self.open(depth, tag, empty=True)

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


def _write_model(project: Project, out):
    """Hand the document to out as consecutive pieces of whole lines, each
    checked and escaped first; a piece ends after the class that brings it
    to _CHUNK_LINES lines or more, or at the end of the document."""
    w = _Writer(out)
    w.open(0, "Project", (project.name, str(project.loc)))
    w.element(1, "Packages", project.packages, _write_package)
    w.close(0, "Project")
    out(w.take())


def serialize_model(project: Project) -> str:
    """The model's XML document as one string.

    It joins the pieces that write_model writes, so both give the same
    text; InputError if a name holds a character XML 1.0 cannot carry."""
    pieces: list[str] = []
    _write_model(project, pieces.append)
    return "".join(pieces)


def write_model(project: Project, path: str | os.PathLike) -> None:
    """Write serialize_model(project) to path as UTF-8, a piece at a time,
    so the whole document is never held in memory.

    The pieces go to a sibling file, path plus ".partial", which replaces
    path only once the document is complete. If writing fails, InputError
    included, the sibling is removed and path is left as it was."""
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as out:
            _write_model(project, out.write)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_package(w: _Writer, pkg: Package):
    w.open(2, "Package", (pkg.qualified_name,))
    w.element(3, "Classes", pkg.classes, _write_class)
    w.close(2, "Package")


def _write_class(w: _Writer, cls: ClassEntity):
    sup = cls.superclass
    w.open(4, "Class", (
        cls.name, cls.access_level, _bool(cls.is_interface),
        None if sup is None else sup.name, None if sup is None else _bool(sup.internal),
    ))
    # one element per super-interface, or one bare element when there are none
    for values in [(ref.name, _bool(ref.internal)) for ref in cls.super_interfaces] or [()]:
        w.open(5, "SuperInterfaces", values, empty=True)
    w.list_element(5, "Attributes", "Attribute", [
        (a.name, a.declared_type, a.access_level, _bool(a.is_static)) for a in cls.attributes
    ])
    w.element(5, "Methods", cls.methods, _write_method)
    w.close(4, "Class")
    if len(w.lines) >= _CHUNK_LINES:
        w.out(w.take())


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
    """An open element: its tag, its parent's frame, its place in a list,
    the entity its children go into, its child count and child tags seen."""

    __slots__ = ("tag", "parent", "index", "entity", "count", "seen", "declared")

    def __init__(self, tag, parent: _Frame | None, entity, seen: set | None = None, index: int | None = None):
        self.tag = tag
        self.parent = parent
        self.index = index  # the element's number among its parent's children, in a list element
        self.entity = entity
        self.count = 0
        self.seen = seen
        self.declared = 0  # NumberOfParameters, on a Parameters frame

    @property
    def location(self) -> str:
        """The element's path, such as Project/Packages/Package[1], made
        only when an error names it."""
        path = self.tag if self.parent is None else f"{self.parent.location}/{self.tag}"
        return path if self.index is None else f"{path}[{self.index}]"


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
_COUNTS = {tag: rule[0] for tag, rules in _RULES.items() for rule in rules if not callable(rule) and rule[1] is int}


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


def _validate(tag: str, attrs: dict, location: str, expected: str | None = None):
    """Raise the first error of this start tag, if any, in the reference
    reader's order; a handler that builds the entity first calls this only
    when the build fails.

    Last comes the one check 0.1.0 did not make: int() refuses more digits
    than sys.get_int_max_str_digits(), a limit that PYTHONINTMAXSTRDIGITS
    can lower, so such a count is a SchemaError too."""
    _check(tag, attrs, location, expected)
    for rule in _RULES.get(tag, ()):
        if callable(rule):
            rule(attrs, location)
        else:
            _check_value(tag, attrs, location, *rule)
    name = _COUNTS.get(tag)
    if name is not None:
        try:
            int(attrs[name])
        except ValueError:
            raise SchemaError(location, f"attribute {name} must be a non-negative integer, "
                              f"found {len(attrs[name])} digits, more than int() accepts") from None


# The builders make an element's entity straight from its attributes. Each
# raises KeyError or ValueError where a rule of _RULES is broken, and the
# start handler then calls _validate for the error to report.

_ACCESS = {level: level for level in ACCESS_LEVELS}
_CLASS_ACCESS = {level: level for level in CLASS_ACCESS_LEVELS}


def _int(value: str) -> int:
    """A count: decimal digits only, where int() also takes a sign or spaces."""
    if not value.isdecimal():
        raise ValueError(value)
    return int(value)


def _class(attrs: dict) -> ClassEntity:
    cls = ClassEntity(attrs["ClassName"], _CLASS_ACCESS[attrs["classAccessLevel"]], _BOOLS[attrs["IsInterface"]])
    if "Superclass" in attrs:
        if cls.is_interface:
            raise ValueError("an interface cannot carry Superclass")
        cls.superclass = TypeRef(attrs["Superclass"], _BOOLS[attrs["SuperclassInternal"]])
    elif "SuperclassInternal" in attrs:
        raise ValueError("SuperclassInternal requires Superclass")
    return cls


def _method(attrs: dict) -> MethodEntity:
    is_constructor, return_type = _BOOLS[attrs["IsConstructor"]], attrs.get("ReturnType")
    if (return_type is None) != is_constructor:
        raise ValueError("a constructor has no ReturnType, and a method has one")
    access, is_static = _ACCESS[attrs["MethodAccessLevel"]], _BOOLS[attrs["IsStatic"]]
    return MethodEntity(attrs["MethodName"], return_type, access, is_static, is_constructor)


def _relation(relation: type):
    return lambda a: relation(a["Name"], a.get("Receiver", ""), a.get("DeclaringClass", ""), _BOOLS[a["Resolved"]])


# One start handler per parent tag. Each adds the new element's entity to
# the parent's and pushes a frame for it, or sets reader.skip when the
# element's content is ignored; a broken element raises SchemaError.


def _start_root(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    _validate(tag, attrs, "Project", "Project")
    parent.entity = Project(name=attrs["ProjectName"], loc=int(attrs["LinesOfCode"]))
    r.stack.append(_Frame(tag, None, parent.entity, set()))


def _start_only(child: str):
    """The start handler of an element whose one allowed child, child, may
    appear at most once (Project's Packages, Package's Classes)."""

    def start(r: _Reader, parent: _Frame, tag: str, attrs: dict):
        frame = _Frame(tag, parent, parent.entity)
        _check(tag, attrs, frame.location, child)
        if parent.seen:
            raise SchemaError(parent.location, f"element {child} may appear at most once")
        parent.seen.add(tag)
        r.stack.append(frame)

    return start


def _start_list(child: str, build, into: str, opens: bool = False):
    """The start handler of a list of child elements: build(attrs) makes
    each one's entity for the parent entity's list into, and when opens,
    the child's own children are read, else ignored."""
    allowed = _ALLOWED_ATTRS[child]

    def start(r: _Reader, parent: _Frame, tag: str, attrs: dict):
        try:
            if tag != child or not allowed.issuperset(attrs):
                raise KeyError(tag)
            entity = build(attrs)
        except (KeyError, ValueError):
            _validate(tag, attrs, f"{parent.location}/{child}[{parent.count}]", child)
            raise
        getattr(parent.entity, into).append(entity)
        if opens:
            r.stack.append(_Frame(child, parent, entity, set(), parent.count))
        else:
            r.skip = 1

    return start


def _start_in_class(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    frame = _Frame(tag, parent, parent.entity)
    if tag == "SuperInterfaces":
        _validate(tag, attrs, frame.location)
        if attrs:
            parent.entity.super_interfaces.append(TypeRef(attrs["Name"], _BOOLS[attrs["Internal"]]))
    elif attrs or (tag != "Attributes" and tag != "Methods"):
        _check(tag, attrs, frame.location)
        raise SchemaError(frame.location, f"element {tag} is not allowed inside Class")
    elif tag in parent.seen:
        raise SchemaError(parent.location, f"element {tag} may appear at most once")
    else:
        parent.seen.add(tag)
    r.stack.append(frame)


def _start_in_super_interfaces(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    raise SchemaError(parent.location, "SuperInterfaces cannot have children")


def _start_in_method(r: _Reader, parent: _Frame, tag: str, attrs: dict):
    if tag in parent.seen:
        raise SchemaError(parent.location, f"element {tag} may appear at most once here")
    parent.seen.add(tag)
    frame = _Frame(tag, parent, parent.entity)
    if tag == "Parameters":
        try:
            if len(attrs) != 1:
                raise KeyError(tag)
            frame.declared = _int(attrs["NumberOfParameters"])
        except (KeyError, ValueError):
            _validate(tag, attrs, frame.location)
            raise
    elif attrs or tag not in _METHOD_PARTS:
        _check(tag, attrs, frame.location)
        raise SchemaError(frame.location, f"element {tag} is not allowed inside Method")
    r.stack.append(frame)


_STARTS = {
    None: _start_root,
    "Project": _start_only("Packages"),
    "Packages": _start_list("Package", lambda a: Package(a["PackageName"]), "packages", opens=True),
    "Package": _start_only("Classes"),
    "Classes": _start_list("Class", _class, "classes", opens=True),
    "Class": _start_in_class,
    "SuperInterfaces": _start_in_super_interfaces,
    "Attributes": _start_list("Attribute", lambda a: AttributeEntity(
        a["Name"], a["DeclaredType"], _ACCESS[a["AccessLevel"]], _BOOLS[a["IsStatic"]]), "attributes"),
    "Methods": _start_list("Method", _method, "methods", opens=True),
    "Method": _start_in_method,
    "Parameters": _start_list(
        "Parameter", lambda a: Parameter(a["Name"], a["DeclaredType"], _int(a["Order"])), "parameters"),
    "LocalVariables": _start_list(
        "LocalVariable", lambda a: LocalVariableEntity(a["Name"], a["DeclaredType"]), "local_variables"),
    "AttributeAccesses": _start_list("AttributeAccess", _relation(AccessRelation), "accesses"),
    "MethodInvocations": _start_list("MethodInvocation", _relation(InvocationRelation), "invocations"),
    "MethodExceptions": _start_list("MethodException", lambda a: a["Name"], "throws"),
}


# End handlers check what needs all of an element's children.


def _requires(child: str):
    def end(frame: _Frame):
        if child not in frame.seen:
            raise SchemaError(frame.location, f"missing {child} element")

    return end


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


_ENDS = {"Project": _requires("Packages"), "Method": _requires("Parameters"), "Parameters": _end_parameters}


class _Reader:
    """expat's start and end handlers over a stack of frames."""

    def __init__(self):
        self.document = _Frame(None, None, None)
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

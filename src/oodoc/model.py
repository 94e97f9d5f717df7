"""The source-code model: containment tree plus dependencies.

Packages own classes, classes own attributes and methods, methods own
parameters, locals and their access/invocation relations. The parser
builds each class with everything it owns; build_model gathers the classes
into packages. A second pass (resolve_references) decides for every
supertype name and every relation whether it points at something inside
the analyzed code or at an external type, and never aborts on names it
cannot place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ModelError

if TYPE_CHECKING:
    from .parsing import FileSyntaxTree

ACCESS_LEVELS = ("public", "protected", "private", "package-private")
CLASS_ACCESS_LEVELS = ("public", "package-private")


@dataclass
class TypeRef:
    """A supertype reference: qualified when internal, as written otherwise."""

    name: str
    internal: bool = False

    @property
    def display(self) -> str:
        return self.name.rsplit(".", 1)[-1]


@dataclass
class Parameter:
    name: str
    declared_type: str
    order: int


@dataclass
class LocalVariableEntity:
    name: str
    declared_type: str


@dataclass
class AccessRelation:
    attribute_name: str
    receiver: str
    declaring_class: str = ""
    resolved: bool = False


@dataclass
class InvocationRelation:
    method_name: str
    receiver: str
    declaring_class: str = ""
    resolved: bool = False


@dataclass
class AttributeEntity:
    name: str
    declared_type: str
    access_level: str = "package-private"
    is_static: bool = False


@dataclass
class MethodEntity:
    name: str
    return_type: str | None  # None for constructors
    access_level: str = "package-private"
    is_static: bool = False
    is_constructor: bool = False
    parameters: list[Parameter] = field(default_factory=list)
    local_variables: list[LocalVariableEntity] = field(default_factory=list)
    throws: list[str] = field(default_factory=list)
    accesses: list[AccessRelation] = field(default_factory=list)
    invocations: list[InvocationRelation] = field(default_factory=list)

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(p.declared_type for p in self.parameters)})"


@dataclass
class ClassEntity:
    name: str
    access_level: str = "package-private"
    is_interface: bool = False
    superclass: TypeRef | None = None
    super_interfaces: list[TypeRef] = field(default_factory=list)
    attributes: list[AttributeEntity] = field(default_factory=list)
    methods: list[MethodEntity] = field(default_factory=list)
    # file-of-origin import list, kept for name resolution only
    imports: list[str] = field(default_factory=list, compare=False, repr=False)


@dataclass
class Package:
    qualified_name: str
    classes: list[ClassEntity] = field(default_factory=list)


@dataclass
class Project:
    name: str
    packages: list[Package] = field(default_factory=list)
    loc: int = 0


def class_qualified_name(package: Package, cls: ClassEntity) -> str:
    if package.qualified_name:
        return f"{package.qualified_name}.{cls.name}"
    return cls.name


def build_model(trees: list[FileSyntaxTree], project_name: str) -> Project:
    """Assemble the containment tree from the parsed classes.

    The project adopts the trees' class objects rather than copying them,
    and resolve_references later changes them in place, so build each tree
    into one project only. Relations stay unresolved here. LoC is the sum of
    the trees' LoC, so files that failed to parse count nothing.
    """
    loc = sum(tree.loc for tree in trees)
    packages: dict[str, Package] = {}
    declared_in: dict[tuple[str, str], str] = {}
    for tree in trees:
        pkg = packages.setdefault(tree.package_name, Package(tree.package_name))
        for cls in tree.classes:
            key = (tree.package_name, cls.name)
            if key in declared_in:
                raise ModelError(
                    f"class {cls.name} declared twice in package "
                    f"'{tree.package_name}': {declared_in[key]} and {tree.path}"
                )
            declared_in[key] = tree.path
            _check_unique_members(cls, tree.path)
            pkg.classes.append(cls)
    # ancestors of declared packages stay in the model as empty packages
    for qname in list(packages):
        parts = qname.split(".")
        for k in range(1, len(parts)):
            ancestor = ".".join(parts[:k])
            packages.setdefault(ancestor, Package(ancestor))
    ordered = sorted(packages.values(), key=lambda p: p.qualified_name)
    return Project(name=project_name, packages=ordered, loc=loc)


def _check_unique_members(cls: ClassEntity, path: str):
    """Raise ModelError for a repeated attribute name, then for a repeated
    method signature (name and parameter types)."""
    seen_attrs: set[str] = set()
    for attr in cls.attributes:
        if attr.name in seen_attrs:
            raise ModelError(f"duplicate attribute {attr.name} in class {cls.name} ({path})")
        seen_attrs.add(attr.name)
    seen_methods: set[tuple] = set()
    for method in cls.methods:
        identity = (method.name, tuple(p.declared_type for p in method.parameters))
        if identity in seen_methods:
            raise ModelError(f"duplicate method {method.signature} in class {cls.name} ({path})")
        seen_methods.add(identity)


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$")


def _is_dotted_name(text: str) -> bool:
    if not text:
        return False
    for part in text.split("."):
        if not part or part[0].isdigit() or any(c not in _NAME_CHARS for c in part):
            return False
    return True


class _Resolver:
    def __init__(self, project: Project):
        self.project = project
        self.by_qualified: dict[str, ClassEntity] = {}
        self.qname_of: dict[int, str] = {}
        self.package_of: dict[int, str] = {}
        self.by_simple: dict[str, list[str]] = {}
        for pkg in project.packages:
            for cls in pkg.classes:
                qname = class_qualified_name(pkg, cls)
                self.by_qualified[qname] = cls
                self.qname_of[id(cls)] = qname
                self.package_of[id(cls)] = pkg.qualified_name
                self.by_simple.setdefault(cls.name, []).append(qname)

    def run(self):
        # every supertype first: the member search follows internal ones
        for pkg in self.project.packages:
            for cls in pkg.classes:
                supertypes = [cls.superclass] if cls.superclass is not None else []
                for ref in supertypes + cls.super_interfaces:
                    qname = self._find_class(ref.name, cls)
                    ref.internal = qname is not None
                    if qname is not None:
                        ref.name = qname
        for pkg in self.project.packages:
            for cls in pkg.classes:
                for method in cls.methods:
                    self._resolve_method(cls, method)

    def _find_class(self, written: str, context_cls: ClassEntity) -> str | None:
        """Map a written type name onto an internal qualified name, or None."""
        if "." in written:
            return written if written in self.by_qualified else None
        pkg = self.package_of[id(context_cls)]
        candidate = f"{pkg}.{written}" if pkg else written
        if candidate in self.by_qualified:
            return candidate
        for imp in context_cls.imports:
            if imp == written or imp.endswith("." + written):
                return imp if imp in self.by_qualified else None
            if imp.endswith(".*"):
                wild = imp[:-1] + written
                if wild in self.by_qualified:
                    return wild
        matches = self.by_simple.get(written, [])
        if len(matches) == 1:
            return matches[0]
        return None

    def _find_member(self, start: str, name: str, kind: str):
        """Find the member called name among the kind ("methods" or
        "attributes") of the internal class start, its internal superclass
        chain, then its internal super-interfaces, breadth first. Return
        (member, qualified name of its class), or (None, None)."""
        queue = [start]
        seen: set[str] = set()
        for qname in queue:
            if qname in seen:
                continue
            seen.add(qname)
            entity = self.by_qualified[qname]
            for member in getattr(entity, kind):
                if member.name == name:
                    return member, qname
            if entity.superclass is not None and entity.superclass.internal:
                queue.append(entity.superclass.name)
            queue.extend(ref.name for ref in entity.super_interfaces if ref.internal)
        return None, None

    def _type_of(self, type_text: str, context_cls: ClassEntity):
        """(internal qualified name or None, name to record) of a type as
        written in context_cls; an array type is external."""
        qname = None if type_text.endswith("[]") else self._find_class(type_text, context_cls)
        return (qname, qname) if qname is not None else (None, type_text)

    def _receiver_target(self, receiver: str, cls: ClassEntity, method: MethodEntity):
        """Type a receiver expression: (qualified name, qualified name) when
        its static type is an analyzed class, (None, type name) when the type
        lives outside the model, and (None, "") when static lookup cannot
        determine a type."""
        if receiver in ("", "this"):
            qname = self.qname_of[id(cls)]
            return qname, qname
        if receiver == "super":
            if cls.superclass is None:
                return None, ""
            return (cls.superclass.name if cls.superclass.internal else None), cls.superclass.name
        if receiver.startswith(("this.", "super.")):
            # this.a searches from the class, super.a from its internal superclass
            head, rest = receiver.split(".", 1)
            start = self._receiver_target(head, cls, method)[0]
            if start is not None and "." not in rest and _is_dotted_name(rest):
                attr, owner = self._find_member(start, rest, "attributes")
                if attr is not None:
                    return self._type_of(attr.declared_type, self.by_qualified[owner])
            return None, ""
        if not _is_dotted_name(receiver):
            return None, ""
        if "." not in receiver:
            for variable in (*method.local_variables, *method.parameters):
                if variable.name == receiver:
                    return self._type_of(variable.declared_type, cls)
            attr, owner = self._find_member(self.qname_of[id(cls)], receiver, "attributes")
            if attr is not None:
                return self._type_of(attr.declared_type, self.by_qualified[owner])
        return self._type_of(receiver, cls)

    def _resolve_method(self, cls: ClassEntity, method: MethodEntity):
        relations = [(inv, inv.method_name, "methods") for inv in method.invocations]
        relations += [(acc, acc.attribute_name, "attributes") for acc in method.accesses]
        for relation, member_name, kind in relations:
            target, recorded = self._receiver_target(relation.receiver, cls, method)
            owner = None if target is None else self._find_member(target, member_name, kind)[1]
            relation.declaring_class = recorded if owner is None else owner
            relation.resolved = owner is not None


def resolve_references(project: Project) -> Project:
    """Resolve supertypes and relations in place; safe to run repeatedly."""
    _Resolver(project).run()
    return project

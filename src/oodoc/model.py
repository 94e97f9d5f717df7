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
    external_types: list[str] = field(default_factory=list)


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
        self.package_of: dict[int, str] = {}
        self.by_simple: dict[str, list[str]] = {}
        for pkg in project.packages:
            for cls in pkg.classes:
                qname = class_qualified_name(pkg, cls)
                self.by_qualified[qname] = cls
                self.package_of[id(cls)] = pkg.qualified_name
                self.by_simple.setdefault(cls.name, []).append(qname)

    def run(self):
        for pkg in self.project.packages:
            for cls in pkg.classes:
                self._resolve_supertypes(pkg, cls)
        for pkg in self.project.packages:
            for cls in pkg.classes:
                for method in cls.methods:
                    self._resolve_method(cls, method)
        self.project.external_types = collect_external_types(self.project)

    # -- type names ------------------------------------------------------

    def _resolve_type_ref(self, ref: TypeRef, cls: ClassEntity):
        qname = self._find_class(ref.name, cls)
        if qname is not None:
            ref.name = qname
            ref.internal = True
        else:
            ref.internal = False

    def _find_class(self, written: str, context_cls: ClassEntity) -> str | None:
        """Map a written type name onto an internal qualified name, or None."""
        if "." in written:
            return written if written in self.by_qualified else None
        pkg = self.package_of.get(id(context_cls), "")
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

    def _resolve_supertypes(self, pkg: Package, cls: ClassEntity):
        if cls.superclass is not None:
            self._resolve_type_ref(cls.superclass, cls)
        for ref in cls.super_interfaces:
            self._resolve_type_ref(ref, cls)

    # -- member search ---------------------------------------------------

    def _class_chain(self, cls: ClassEntity):
        """Yield (class, qualified name) for cls, its internal superclass
        chain, then internal super-interfaces, breadth first."""
        start = self._qname_of(cls)
        if start is None:
            return
        queue = [start]
        seen: set[str] = set()
        while queue:
            qname = queue.pop(0)
            if qname in seen or qname not in self.by_qualified:
                continue
            seen.add(qname)
            entity = self.by_qualified[qname]
            yield entity, qname
            if entity.superclass is not None and entity.superclass.internal:
                queue.append(entity.superclass.name)
            for ref in entity.super_interfaces:
                if ref.internal:
                    queue.append(ref.name)

    def _qname_of(self, cls: ClassEntity) -> str | None:
        pkg = self.package_of.get(id(cls))
        if pkg is None:
            return None
        return f"{pkg}.{cls.name}" if pkg else cls.name

    def _find_method(self, cls: ClassEntity, name: str) -> str | None:
        for entity, qname in self._class_chain(cls):
            for m in entity.methods:
                if m.name == name:
                    return qname
        return None

    def _find_attribute(self, cls: ClassEntity, name: str):
        for entity, qname in self._class_chain(cls):
            for a in entity.attributes:
                if a.name == name:
                    return a, entity, qname
        return None

    # -- receivers ---------------------------------------------------------

    def _declared_type_target(self, type_text: str, context_cls: ClassEntity):
        if type_text.endswith("[]"):
            return ("external", type_text)
        qname = self._find_class(type_text, context_cls)
        if qname is not None:
            return ("internal", qname)
        return ("external", type_text)

    def _receiver_target(self, receiver: str, cls: ClassEntity, method: MethodEntity):
        """Classify a receiver expression: ("internal", qname) when the
        receiver's declared type is an analyzed class, ("external", name)
        when a type name is known but lives outside the model, and
        ("unknown", "") when static lookup cannot determine a type."""
        if receiver in ("", "this"):
            qname = self._qname_of(cls)
            return ("internal", qname) if qname else ("unknown", "")
        if receiver == "super":
            if cls.superclass is None:
                return ("unknown", "")
            if cls.superclass.internal:
                return ("internal", cls.superclass.name)
            return ("external", cls.superclass.name)
        if receiver.startswith("this.") or receiver.startswith("super."):
            rest = receiver.split(".", 1)[1]
            if "." not in rest and _is_dotted_name(rest):
                found = self._find_attribute(cls, rest)
                if found is not None:
                    attr, owner, _ = found
                    return self._declared_type_target(attr.declared_type, owner)
            return ("unknown", "")
        if _is_dotted_name(receiver) and "." not in receiver:
            for local in method.local_variables:
                if local.name == receiver:
                    return self._declared_type_target(local.declared_type, cls)
            for param in method.parameters:
                if param.name == receiver:
                    return self._declared_type_target(param.declared_type, cls)
            found = self._find_attribute(cls, receiver)
            if found is not None:
                attr, owner, _ = found
                return self._declared_type_target(attr.declared_type, owner)
            return self._declared_type_target(receiver, cls)
        if _is_dotted_name(receiver):
            qname = self._find_class(receiver, cls)
            if qname is not None:
                return ("internal", qname)
            return ("external", receiver)
        return ("unknown", "")

    def _resolve_method(self, cls: ClassEntity, method: MethodEntity):
        for inv in method.invocations:
            kind, target = self._receiver_target(inv.receiver, cls, method)
            if kind == "internal":
                owner = self._find_method(self.by_qualified[target], inv.method_name)
                if owner is not None:
                    inv.declaring_class = owner
                    inv.resolved = True
                else:
                    inv.declaring_class = target
                    inv.resolved = False
            else:
                inv.declaring_class = target
                inv.resolved = False
        for acc in method.accesses:
            kind, target = self._receiver_target(acc.receiver, cls, method)
            if kind == "internal":
                found = self._find_attribute(self.by_qualified[target], acc.attribute_name)
                if found is not None:
                    acc.declaring_class = found[2]
                    acc.resolved = True
                else:
                    acc.declaring_class = target
                    acc.resolved = False
            else:
                acc.declaring_class = target
                acc.resolved = False


def resolve_references(project: Project) -> Project:
    """Resolve supertypes and relations in place; safe to run repeatedly."""
    _Resolver(project).run()
    return project


def collect_external_types(project: Project) -> list[str]:
    """Supertype and declaring-class names that live outside the model."""
    internal = {
        class_qualified_name(pkg, cls)
        for pkg in project.packages
        for cls in pkg.classes
    }
    names: set[str] = set()
    for pkg in project.packages:
        for cls in pkg.classes:
            if cls.superclass is not None and not cls.superclass.internal:
                names.add(cls.superclass.name)
            for ref in cls.super_interfaces:
                if not ref.internal:
                    names.add(ref.name)
            for method in cls.methods:
                for inv in method.invocations:
                    if inv.declaring_class and inv.declaring_class not in internal:
                        names.add(inv.declaring_class)
                for acc in method.accesses:
                    if acc.declaring_class and acc.declaring_class not in internal:
                        names.add(acc.declaring_class)
    return sorted(names)

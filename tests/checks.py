"""Independent model invariant checkers, a name lookup and the external
type names of a model, used by the unit and acceptance suites.

These walk the model from scratch on purpose; they must not reuse the
library's own resolution bookkeeping.
"""

from __future__ import annotations

import copy
import re

from oodoc.errors import InputError
from oodoc.model import ClassEntity, Project, class_qualified_name, resolve_references

# a dotted name: identifiers of ASCII letters, digits, "_" and "$" that do
# not start with a digit, joined by dots
_DOTTED_NAME = re.compile(r"[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)*", re.ASCII)


def lookup(project: Project, qualified_name: str):
    """Find the package, class, attribute or method a dotted name denotes.

    Attribute form: pkg.Class#name; method form: pkg.Class#name(type,...).
    Returns None when nothing matches; malformed names raise InputError.
    """
    if not qualified_name:
        raise InputError("empty qualified name")
    if qualified_name.count("#") > 1:
        raise InputError(f"malformed qualified name: {qualified_name!r}")
    if "#" in qualified_name:
        class_part, member = qualified_name.split("#", 1)
        if not class_part or not member:
            raise InputError(f"malformed qualified name: {qualified_name!r}")
        cls = lookup(project, class_part)
        if not isinstance(cls, ClassEntity):
            return None
        if "(" in member:
            if not member.endswith(")"):
                raise InputError(f"malformed method signature: {qualified_name!r}")
            name, arglist = member[:-1].split("(", 1)
            wanted = tuple(t.strip() for t in arglist.split(",")) if arglist else ()
            for m in cls.methods:
                if m.name == name and tuple(p.declared_type for p in m.parameters) == wanted:
                    return m
            return None
        for a in cls.attributes:
            if a.name == member:
                return a
        return None
    if not _DOTTED_NAME.fullmatch(qualified_name):
        raise InputError(f"malformed qualified name: {qualified_name!r}")
    for pkg in project.packages:
        if pkg.qualified_name == qualified_name:
            return pkg
    pkg_name, _, simple = qualified_name.rpartition(".")
    for pkg in project.packages:
        if pkg.qualified_name == pkg_name:
            for cls in pkg.classes:
                if cls.name == simple:
                    return cls
    return None


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
                for relation in (*method.invocations, *method.accesses):
                    if relation.declaring_class and relation.declaring_class not in internal:
                        names.add(relation.declaring_class)
    return sorted(names)


def assert_containment_tree(project: Project):
    """Every class belongs to exactly one package; package names unique."""
    pkg_names = [p.qualified_name for p in project.packages]
    assert len(pkg_names) == len(set(pkg_names)), "duplicate package names"
    seen_classes = set()
    for pkg in project.packages:
        simple = [c.name for c in pkg.classes]
        assert len(simple) == len(set(simple)), f"duplicate class in {pkg.qualified_name}"
        for cls in pkg.classes:
            qname = class_qualified_name(pkg, cls)
            assert qname not in seen_classes
            seen_classes.add(qname)
            attr_names = [a.name for a in cls.attributes]
            assert len(attr_names) == len(set(attr_names)), f"duplicate attribute in {qname}"
            identities = [
                (m.name, tuple(p.declared_type for p in m.parameters)) for m in cls.methods
            ]
            assert len(identities) == len(set(identities)), f"duplicate method in {qname}"
            for m in cls.methods:
                orders = [p.order for p in m.parameters]
                assert orders == list(range(len(orders))), f"bad parameter order in {qname}"


def assert_referential_integrity(project: Project):
    """Every resolved relation endpoint exists and declares the member."""
    classes = {}
    for pkg in project.packages:
        for cls in pkg.classes:
            classes[class_qualified_name(pkg, cls)] = cls
    for pkg in project.packages:
        for cls in pkg.classes:
            if cls.superclass is not None and cls.superclass.internal:
                assert cls.superclass.name in classes, cls.superclass
            for ref in cls.super_interfaces:
                if ref.internal:
                    assert ref.name in classes, ref
            for m in cls.methods:
                for inv in m.invocations:
                    if inv.resolved:
                        owner = classes.get(inv.declaring_class)
                        assert owner is not None, inv
                        assert any(x.name == inv.method_name for x in owner.methods), inv
                for acc in m.accesses:
                    if acc.resolved:
                        owner = classes.get(acc.declaring_class)
                        assert owner is not None, acc
                        assert any(x.name == acc.attribute_name for x in owner.attributes), acc


def assert_resolution_idempotent(project: Project):
    frozen = copy.deepcopy(project)
    resolve_references(project)
    assert frozen == project, "resolve_references changed an already-resolved project"


def assert_graph_well_formed(graph):
    """Node ids are unique, and every edge joins two nodes of the graph."""
    ids = [n.node_id for n in graph.nodes]
    assert len(ids) == len(set(ids)), f"duplicate node ids in {graph.kind} document"
    known = set(ids)
    for e in graph.edges:
        assert e.src in known and e.dst in known, (
            f"dangling edge {e.src} -> {e.dst} in {graph.kind} document"
        )

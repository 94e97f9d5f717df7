"""Generators for the seven documentation graphs.

Every document is a DocumentGraph: labeled record nodes plus typed,
directed edges. Record rows are (field name, value) pairs so node height
tracks member count, which is how class and method size stay visible in
the rendered output.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .metrics import class_metrics, project_metrics
from .model import ClassEntity, Project, class_qualified_name

DOCUMENT_KINDS = (
    "package",
    "class-info",
    "class-dependency",
    "class-content",
    "method-info",
    "method-content",
    "method-dependency",
)

PER_CLASS_KINDS = ("method-info", "method-content")


@dataclass
class GraphNode:
    node_id: str
    title: str
    fields: list[tuple[str, str]] = field(default_factory=list)
    kind: str = "class"
    group: str | None = None


@dataclass
class GraphEdge:
    src: str
    dst: str
    kind: str  # contains | inherits | implements | invokes | accesses
    label: str = ""


@dataclass
class DocumentGraph:
    kind: str
    nodes: list[GraphNode] = field(default_factory=list)
    edges: list[GraphEdge] = field(default_factory=list)


def _yesno(flag: bool) -> str:
    return "TRUE" if flag else "FALSE"


def _package_label(qname: str) -> str:
    return qname if qname else "(default package)"


def gen_package_document(project: Project) -> DocumentGraph:
    graph = DocumentGraph("package")
    record = project_metrics(project)
    graph.nodes.append(
        GraphNode(
            node_id="project",
            title=project.name,
            fields=[
                ("LoC", str(record.loc)),
                ("NoP", str(record.nop)),
                ("NoC", str(record.noc)),
                ("NoA", str(record.noa)),
                ("NoM", str(record.nom)),
            ],
            kind="project",
        )
    )
    known = {pkg.qualified_name for pkg in project.packages}
    for pkg in project.packages:
        graph.nodes.append(
            GraphNode(
                node_id=f"pkg:{pkg.qualified_name}",
                title=_package_label(pkg.qualified_name),
                fields=[("Classes", str(len(pkg.classes)))],
                kind="package",
            )
        )
        parent, _, _ = pkg.qualified_name.rpartition(".")
        if parent and parent in known:
            graph.edges.append(GraphEdge(f"pkg:{parent}", f"pkg:{pkg.qualified_name}", "contains"))
        else:
            graph.edges.append(GraphEdge("project", f"pkg:{pkg.qualified_name}", "contains"))
    return graph


def gen_class_information_document(project: Project) -> DocumentGraph:
    graph = DocumentGraph("class-info")
    for pkg in project.packages:
        for cls in pkg.classes:
            noa, nom = class_metrics(cls)
            interfaces = ", ".join(r.display for r in cls.super_interfaces) or "-"
            graph.nodes.append(
                GraphNode(
                    node_id=class_qualified_name(pkg, cls),
                    title=cls.name,
                    fields=[
                        ("Superclass", cls.superclass.display if cls.superclass else "-"),
                        ("IsInterface", _yesno(cls.is_interface)),
                        ("SuperInterfaces", interfaces),
                        ("Number of Attributes", str(noa)),
                        ("Number of Methods", str(nom)),
                    ],
                    kind="interface" if cls.is_interface else "class",
                    group=pkg.qualified_name,
                )
            )
    return graph


def gen_class_dependency_document(project: Project) -> DocumentGraph:
    graph = DocumentGraph("class-dependency")
    externals: set[str] = set()

    def external_node(name: str) -> str:
        node_id = f"ext:{name}"
        if name not in externals:
            externals.add(name)
            graph.nodes.append(
                GraphNode(node_id=node_id, title=name.rsplit(".", 1)[-1], kind="external")
            )
        return node_id

    for pkg in project.packages:
        for cls in pkg.classes:
            graph.nodes.append(
                GraphNode(
                    node_id=class_qualified_name(pkg, cls),
                    title=cls.name,
                    kind="interface" if cls.is_interface else "class",
                )
            )
    for pkg in project.packages:
        for cls in pkg.classes:
            src = class_qualified_name(pkg, cls)
            if cls.superclass is not None:
                dst = cls.superclass.name if cls.superclass.internal else external_node(cls.superclass.name)
                graph.edges.append(GraphEdge(src, dst, "inherits"))
            for ref in cls.super_interfaces:
                dst = ref.name if ref.internal else external_node(ref.name)
                kind = "inherits" if cls.is_interface else "implements"
                graph.edges.append(GraphEdge(src, dst, kind))
    return graph


def gen_class_content_document(project: Project) -> DocumentGraph:
    graph = DocumentGraph("class-content")
    for pkg in project.packages:
        for cls in pkg.classes:
            rows = [(a.name, a.declared_type) for a in cls.attributes]
            rows.extend((m.name, m.return_type if m.return_type is not None else "-") for m in cls.methods)
            graph.nodes.append(
                GraphNode(
                    node_id=class_qualified_name(pkg, cls),
                    title=cls.name,
                    fields=rows,
                    kind="interface" if cls.is_interface else "class",
                    group=pkg.qualified_name,
                )
            )
    return graph


def gen_method_information_document(cls: ClassEntity) -> DocumentGraph:
    graph = DocumentGraph("method-info")
    for m in cls.methods:
        fields = [
            ("ReturnType", m.return_type if m.return_type is not None else "-"),
            ("IsStatic", _yesno(m.is_static)),
            ("NumberOfParameters", str(len(m.parameters))),
        ]
        for p in m.parameters:
            fields.append((f"Parameter {p.order}", f"{p.name} : {p.declared_type}"))
        graph.nodes.append(
            GraphNode(
                node_id=f"{cls.name}#{m.signature}",
                title=m.name,
                fields=fields,
                kind="method",
            )
        )
    return graph


def _class_index(project: Project) -> dict[str, ClassEntity]:
    return {class_qualified_name(pkg, c): c for pkg in project.packages for c in pkg.classes}


def gen_method_content_document(
    cls: ClassEntity, project: Project | None = None, *, _index: dict[str, ClassEntity] | None = None
) -> DocumentGraph:
    """Rows for each local variable, attribute access and invocation.

    When the project is supplied, accessed attributes are annotated with
    their declared type and invocations with the declaring class.
    """
    # _GENERATORS passes _index, the project's class index built once, so
    # documenting every class stays linear in the number of classes
    if _index is None:
        _index = _class_index(project) if project is not None else {}
    graph = DocumentGraph("method-content")
    for m in cls.methods:
        fields: list[tuple[str, str]] = []
        for v in m.local_variables:
            fields.append(("local", f"{v.name} : {v.declared_type}"))
        for a in m.accesses:
            row = a.attribute_name
            owner = _index.get(a.declaring_class)
            if owner is not None:
                for attr in owner.attributes:
                    if attr.name == a.attribute_name:
                        row = f"{a.attribute_name} : {attr.declared_type}"
                        break
            fields.append(("access", row))
        for inv in m.invocations:
            row = inv.method_name
            if inv.declaring_class:
                row = f"{inv.method_name} ({inv.declaring_class.rsplit('.', 1)[-1]})"
            fields.append(("invocation", row))
        graph.nodes.append(
            GraphNode(
                node_id=f"{cls.name}#{m.signature}",
                title=m.name,
                fields=fields,
                kind="method",
            )
        )
    return graph


def gen_method_dependency_document(
    project: Project, include_unresolved: bool = False
) -> DocumentGraph:
    """Invocation and access edges between methods and attributes.

    Resolved relations only, unless include_unresolved is set; nodes appear
    only when they take part in at least one edge, and methods are keyed by
    name (overloads share a node, matching the name-labeled edges of the
    document)."""
    graph = DocumentGraph("method-dependency")
    simple_of: dict[str, str] = {}
    for pkg in project.packages:
        for cls in pkg.classes:
            simple_of[class_qualified_name(pkg, cls)] = cls.name
    nodes: dict[str, GraphNode] = {}
    edges: dict[tuple[str, str, str], GraphEdge] = {}

    def node(owner_qname: str, name: str, suffix: str, kind: str) -> str:
        """The node of a method (suffix "()") or an attribute (suffix "")."""
        node_id = f"{owner_qname}#{name}{suffix}"
        if node_id not in nodes:
            display = simple_of.get(owner_qname, owner_qname.rsplit(".", 1)[-1] or "?")
            nodes[node_id] = GraphNode(node_id=node_id, title=f"{display}.{name}", kind=kind)
        return node_id

    for pkg in project.packages:
        for cls in pkg.classes:
            qname = class_qualified_name(pkg, cls)
            for m in cls.methods:
                for inv in m.invocations:
                    if inv.resolved:
                        dst = node(inv.declaring_class, inv.method_name, "()", "method")
                    elif include_unresolved:
                        owner = f"ext:{inv.declaring_class or '?'}"
                        dst = node(owner, inv.method_name, "()", "external")
                    else:
                        continue
                    src = node(qname, m.name, "()", "method")
                    if src != dst:
                        edges.setdefault((src, dst, "invokes"), GraphEdge(src, dst, "invokes"))
                for acc in m.accesses:
                    if acc.resolved:
                        dst = node(acc.declaring_class, acc.attribute_name, "", "attribute")
                    elif include_unresolved:
                        owner = f"ext:{acc.declaring_class or '?'}"
                        dst = node(owner, acc.attribute_name, "", "external")
                    else:
                        continue
                    src = node(qname, m.name, "()", "method")
                    edges.setdefault((src, dst, "accesses"), GraphEdge(src, dst, "accesses"))
    # drop nodes that ended up with no incident edge (created for self-loops)
    used: set[str] = set()
    for src, dst, _ in edges:
        used.add(src)
        used.add(dst)
    graph.nodes = [n for n in nodes.values() if n.node_id in used]
    graph.edges = list(edges.values())
    return graph


def merge_per_class_documents(
    kind: str, parts: Iterable[tuple[str, DocumentGraph]]
) -> DocumentGraph:
    """Combine per-class documents into one file, one qualifier per class."""
    merged = DocumentGraph(kind)
    for qualifier, part in parts:
        mapping = {n.node_id: f"{qualifier}::{n.node_id}" for n in part.nodes}
        for node in part.nodes:
            merged.nodes.append(
                GraphNode(
                    node_id=mapping[node.node_id],
                    title=node.title,
                    fields=list(node.fields),
                    kind=node.kind,
                    group=qualifier,
                )
            )
        for edge in part.edges:
            merged.edges.append(
                GraphEdge(mapping[edge.src], mapping[edge.dst], edge.kind, edge.label)
            )
    return merged


def _per_class(project: Project, generate, **options) -> Iterator[tuple[str, DocumentGraph]]:
    # lazy: each class's graph is made when the consumer reaches it
    return (
        (class_qualified_name(pkg, cls), generate(cls, **options))
        for pkg in project.packages
        for cls in pkg.classes
    )


# kind -> generate(project, include_unresolved). Each entry looks its gen_*
# function up when it runs, so a wrapper installed on the module's function
# after import (a tracer, a test double) is the one called.
_GENERATORS = {
    "package": lambda project, _: gen_package_document(project),
    "class-info": lambda project, _: gen_class_information_document(project),
    "class-dependency": lambda project, _: gen_class_dependency_document(project),
    "class-content": lambda project, _: gen_class_content_document(project),
    "method-info": lambda project, _: _per_class(project, gen_method_information_document),
    # the class index is built once, so the kind stays linear in the classes
    "method-content": lambda project, _: _per_class(
        project, gen_method_content_document, _index=_class_index(project)
    ),
    "method-dependency": lambda project, include_unresolved: gen_method_dependency_document(
        project, include_unresolved
    ),
}


def iter_documents(
    project: Project,
    kinds: list[str] | tuple[str, ...] = DOCUMENT_KINDS,
    include_unresolved: bool = False,
) -> Iterator[tuple[str, object]]:
    """Yield (kind, document) for each requested kind, in order, making
    each kind only when the consumer asks for it.

    A project-level kind's document is a single DocumentGraph; a per-class
    kind's is an iterator of (class qualified name, DocumentGraph) pairs
    that makes each class's graph when it reaches that class. A consumer
    that drops each graph before asking for the next holds one at a time.
    """
    for kind in kinds:
        generate = _GENERATORS.get(kind)
        if generate is None:
            raise ValueError(f"unknown document kind: {kind}")
        yield kind, generate(project, include_unresolved)

"""Precision and recall of an extracted model against a reference model.

Both models are flattened into canonical link strings, one per element
(package, class, attribute, method, local variable) and one per dependency
(inheritance, implements, resolved invocation, resolved access). The
measures use exact rational arithmetic; an empty retrieved set scores
precision 1 (nothing spurious) and an empty reference set scores recall 1
(nothing missed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Project, class_qualified_name

LinkSet = set[str]


def extract_links(project: Project) -> LinkSet:
    """One canonical link per model element and per resolved dependency."""
    links: LinkSet = set()
    for pkg in project.packages:
        links.add(f"pkg:{pkg.qualified_name}")
        for cls in pkg.classes:
            qname = class_qualified_name(pkg, cls)
            links.add(f"class:{qname}")
            if cls.superclass is not None:
                links.add(f"inherits:{qname}->{cls.superclass.name}")
            for ref in cls.super_interfaces:
                verb = "inherits" if cls.is_interface else "implements"
                links.add(f"{verb}:{qname}->{ref.name}")
            for attr in cls.attributes:
                links.add(f"attr:{qname}#{attr.name}")
            for method in cls.methods:
                body = f"{qname}#{method.signature}"
                links.add(f"method:{body}")
                for var in method.local_variables:
                    links.add(f"local:{body}#{var.name}")
                for inv in method.invocations:
                    if inv.resolved:
                        links.add(f"invokes:{body}->{inv.declaring_class}#{inv.method_name}")
                for acc in method.accesses:
                    if acc.resolved:
                        links.add(f"accesses:{body}->{acc.declaring_class}#{acc.attribute_name}")
    return links


@dataclass(frozen=True)
class EvalReport:
    precision: Fraction
    recall: Fraction
    true_positives: int
    retrieved_count: int
    relevant_count: int
    missing: frozenset[str]
    spurious: frozenset[str]


def precision_recall(retrieved: LinkSet, reference: LinkSet) -> EvalReport:
    retrieved = set(retrieved)
    reference = set(reference)
    tp = len(retrieved & reference)
    precision = Fraction(tp, len(retrieved)) if retrieved else Fraction(1)
    recall = Fraction(tp, len(reference)) if reference else Fraction(1)
    return EvalReport(
        precision=precision,
        recall=recall,
        true_positives=tp,
        retrieved_count=len(retrieved),
        relevant_count=len(reference),
        missing=frozenset(reference - retrieved),
        spurious=frozenset(retrieved - reference),
    )


def format_report(report: EvalReport, list_limit: int = 20) -> str:
    lines = [
        f"retrieved {report.retrieved_count}",
        f"relevant {report.relevant_count}",
        f"true-positives {report.true_positives}",
        f"precision {float(report.precision):.4f}",
        f"recall {float(report.recall):.4f}",
    ]

    def section(title: str, items: frozenset[str]):
        lines.append(f"{title} ({len(items)})")
        shown = sorted(items)[:list_limit]
        for link in shown:
            lines.append(f"  {link}")
        if len(items) > len(shown):
            lines.append(f"  ... and {len(items) - len(shown)} more")

    section("missing", report.missing)
    section("spurious", report.spurious)
    return "\n".join(lines) + "\n"

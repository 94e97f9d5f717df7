"""Size metrics: LoC, NoP, NoC, NoA, NoM.

NoP counts packages that directly contain at least one class; the total
number of packages in the model (including class-free ancestors) is kept
alongside as nop_all because the package document still lists them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .model import ClassEntity, Project


@dataclass(frozen=True)
class MetricsRecord:
    loc: int
    nop: int
    noc: int
    noa: int
    nom: int
    nop_all: int


def project_metrics(project: Project) -> MetricsRecord:
    noc = noa = nom = nop = 0
    for pkg in project.packages:
        if pkg.classes:
            nop += 1
        for cls in pkg.classes:
            noc += 1
            a, m = class_metrics(cls)
            noa += a
            nom += m
    return MetricsRecord(
        loc=project.loc,
        nop=nop,
        noc=noc,
        noa=noa,
        nom=nom,
        nop_all=len(project.packages),
    )


def class_metrics(cls: ClassEntity) -> tuple[int, int]:
    """Declared (not inherited) member counts; constructors count as methods."""
    return len(cls.attributes), len(cls.methods)


def format_metrics(record: MetricsRecord) -> str:
    lines = [
        f"LoC {record.loc}",
        f"NoP {record.nop}",
        f"NoC {record.noc}",
        f"NoA {record.noa}",
        f"NoM {record.nom}",
        f"NoP(all-packages) {record.nop_all}",
    ]
    return "\n".join(lines) + "\n"


def metrics_json(record: MetricsRecord) -> str:
    payload = {
        "loc": record.loc,
        "nop": record.nop,
        "noc": record.noc,
        "noa": record.noa,
        "nom": record.nom,
        "nop_all": record.nop_all,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

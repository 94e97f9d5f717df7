"""Generators for randomized models and synthetic source corpora."""

from __future__ import annotations

import random
from pathlib import Path

from oodoc.model import (
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

_TYPES = ("int", "boolean", "String", "Color", "double", "int[]", "String[]")
_ACCESS = ("public", "protected", "private", "package-private")
_CLASS_ACCESS = ("public", "package-private")
_RECEIVERS = ("", "this", "helper", "this.part", "widget", "Util")


def _name(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.randrange(1000)}"


def random_project(rng: random.Random) -> Project:
    """A small arbitrary model exercising the full XML vocabulary."""
    title = rng.choice(
        ["demo", 'quotes "&" specials <>', "white space project", "ünïcode"]
    )
    project = Project(name=title, loc=rng.randrange(5000))
    used_pkgs: set[str] = set()
    for _ in range(rng.randrange(4)):
        qname = ".".join(_name(rng, "pkg") for _ in range(rng.randrange(1, 3)))
        if qname in used_pkgs:
            continue
        used_pkgs.add(qname)
        pkg = Package(qualified_name=qname)
        used_classes: set[str] = set()
        for _ in range(rng.randrange(4)):
            cname = _name(rng, "Cls")
            if cname in used_classes:
                continue
            used_classes.add(cname)
            pkg.classes.append(_random_class(rng, cname))
        project.packages.append(pkg)
    project.packages.sort(key=lambda p: p.qualified_name)
    return project


def _random_class(rng: random.Random, name: str) -> ClassEntity:
    is_interface = rng.random() < 0.2
    cls = ClassEntity(
        name=name,
        access_level=rng.choice(_CLASS_ACCESS),
        is_interface=is_interface,
    )
    if not is_interface and rng.random() < 0.5:
        cls.superclass = TypeRef(rng.choice(["Base", "j.ext.Widget"]), internal=False)
    for _ in range(rng.randrange(3)):
        cls.super_interfaces.append(TypeRef(_name(rng, "Iface"), internal=False))
    used_attrs: set[str] = set()
    for _ in range(rng.randrange(4)):
        aname = _name(rng, "field")
        if aname in used_attrs:
            continue
        used_attrs.add(aname)
        cls.attributes.append(
            AttributeEntity(
                name=aname,
                declared_type=rng.choice(_TYPES),
                access_level=rng.choice(_ACCESS),
                is_static=rng.random() < 0.3,
            )
        )
    used_methods: set = set()
    for _ in range(rng.randrange(4)):
        method = _random_method(rng)
        identity = (method.name, tuple(p.declared_type for p in method.parameters))
        if identity in used_methods:
            continue
        used_methods.add(identity)
        cls.methods.append(method)
    return cls


def _random_method(rng: random.Random) -> MethodEntity:
    is_constructor = rng.random() < 0.2
    m = MethodEntity(
        name=_name(rng, "run"),
        return_type=None if is_constructor else rng.choice(("void",) + _TYPES),
        access_level=rng.choice(_ACCESS),
        is_static=rng.random() < 0.3,
        is_constructor=is_constructor,
    )
    for i in range(rng.randrange(4)):
        m.parameters.append(Parameter(_name(rng, "p"), rng.choice(_TYPES), i))
    for _ in range(rng.randrange(3)):
        m.local_variables.append(LocalVariableEntity(_name(rng, "v"), rng.choice(_TYPES)))
    for _ in range(rng.randrange(3)):
        m.throws.append(_name(rng, "Error"))
    for _ in range(rng.randrange(3)):
        m.accesses.append(
            AccessRelation(
                attribute_name=_name(rng, "field"),
                receiver=rng.choice(_RECEIVERS),
                declaring_class=rng.choice(["", "Ext", "a.b.Cls"]),
                resolved=False,
            )
        )
    for _ in range(rng.randrange(3)):
        m.invocations.append(
            InvocationRelation(
                method_name=_name(rng, "call"),
                receiver=rng.choice(_RECEIVERS),
                declaring_class=rng.choice(["", "Ext", "a.b.Cls"]),
                resolved=False,
            )
        )
    return m


def write_synthetic_corpus(root: Path, packages: int = 20, classes_per_package: int = 10) -> int:
    """Deterministic source corpus with inheritance and cross-class calls.

    Returns the number of classes written.
    """
    total = 0
    for p in range(packages):
        pkg = f"gen.pkg{p:02d}"
        pkg_dir = root / "gen" / f"pkg{p:02d}"
        pkg_dir.mkdir(parents=True, exist_ok=True)
        base = f"Base{p:02d}"
        base_src = [
            f"package {pkg};",
            "",
            f"public class {base} {{",
            "",
            "    protected int counter;",
            "    protected String label;",
            "",
            f"    public {base}(int counter, String label) {{",
            "        this.counter = counter;",
            "        this.label = label;",
            "    }",
            "",
            "    public int getCounter() {",
            "        return this.counter;",
            "    }",
            "",
            "    public void setCounter(int counter) {",
            "        this.counter = counter;",
            "    }",
            "}",
            "",
        ]
        (pkg_dir / f"{base}.java").write_text("\n".join(base_src), encoding="utf-8")
        total += 1
        for k in range(classes_per_package - 1):
            name = f"Node{p:02d}x{k:02d}"
            prev_pkg = f"gen.pkg{(p - 1) % packages:02d}"
            peer = f"Base{(p - 1) % packages:02d}"
            src = [
                f"package {pkg};",
                "",
                f"import {prev_pkg}.{peer};",
                "",
                f"public class {name} extends {base} {{",
                "",
                "    private int weight;",
                "",
                f"    public {name}(int weight) {{",
                "        this.weight = weight;",
                "        this.counter = weight;",
                "    }",
                "",
                "    public int combine(int bonus) {",
                "        int partial = this.weight + bonus;",
                "        setCounter(partial);",
                "        return getCounter();",
                "    }",
                "",
                f"    public int lift({peer} other) {{",
                "        int base = other.getCounter();",
                "        for (int i = 0; i < base; i = i + 1) {",
                "            this.weight = this.weight + 1;",
                "        }",
                "        while (base > 0) {",
                "            base = base - 1;",
                "        }",
                "        return this.weight;",
                "    }",
                "}",
                "",
            ]
            (pkg_dir / f"{name}.java").write_text("\n".join(src), encoding="utf-8")
            total += 1
    return total

"""Run the oodoc command line in-process with timing wrappers on each layer.

Usage: python3 bench/tracer.py SPANS.json RUN_ID -- OODOC_ARGUMENTS...

The wrappers replace the public functions each layer exposes, in the
namespace of the module that calls them, so the program itself is not
changed. Calls made once per run become spans (name, start, end, parent,
run id). Calls made once per file or per class, possibly from the parse
worker threads, are summed into a count and a total under a lock. Both are
kept in memory and written to SPANS.json once, after the command returns.
The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [id, name, start, end, parent id, run id]
        self.totals: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, n: int):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, count=None):
        """Wrap fn so each call records one span.

        count(tracer, result) runs after that span, in a sibling span named
        trace.count, so that counting shows as tracing cost and not as the
        caller's own time.
        """

        def wrapper(*args, **kwargs):
            result = self._run_span(name, fn, args, kwargs)
            if count is not None:
                self._run_span("trace.count", count, (self, result), {})
            return result

        return wrapper

    def _run_span(self, name: str, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[sid] = [sid, name, start, end, parent, self.run_id]

    def total(self, name: str, fn, count=None):
        """Wrap fn so its calls are summed into a count and a total."""

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                with self._lock:
                    entry = self.totals.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
            if count is not None:
                count(self, result)
            return result

        return wrapper

    def record(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "totals": self.totals,
                "counts": self.counts}


def _count_sources(t: Tracer, files):
    t.add("sources.files", len(files))
    t.add("sources.bytes", sum(len(f.text.encode("utf-8")) for f in files))
    t.add("sources.loc", sum(getattr(f, "line_count", 0) for f in files))


def _count_parse(t: Tracer, result):
    trees, failures = result
    t.add("parsing.files_failed", len(failures))
    t.add("parsing.warnings", sum(len(tree.warnings) for tree in trees))


def _count_relations(t: Tracer, project):
    relations = [r for pkg in project.packages for cls in pkg.classes for m in cls.methods
                 for r in (*m.invocations, *m.accesses)]
    t.add("model.relations", len(relations))
    t.add("model.resolved", sum(1 for r in relations if r.resolved))


def _count_graph(t: Tracer, graph):
    t.add("documents.nodes", len(graph.nodes))
    t.add("documents.edges", len(graph.edges))


def _count_text(name: str):
    def count(t: Tracer, text: str):
        t.add(f"{name}.files", 1)
        t.add(f"{name}.bytes", len(text.encode("utf-8")))

    return count


# (function, document kind, wrapper): one call per class for the per-class kinds
DOCUMENT_FUNCTIONS = (
    ("gen_package_document", "package", "span"),
    ("gen_class_information_document", "class-info", "span"),
    ("gen_class_dependency_document", "class-dependency", "span"),
    ("gen_class_content_document", "class-content", "span"),
    ("gen_method_information_document", "method-info", "total"),
    ("gen_method_content_document", "method-content", "total"),
    ("gen_method_dependency_document", "method-dependency", "span"),
)


def install(tracer: Tracer):
    """Replace each layer's entry points with timing wrappers."""
    import oodoc.cli
    import oodoc.documents
    import oodoc.parsing

    plan = [
        (oodoc.cli, "scan_directory", "sources.scan", "span", _count_sources),
        (oodoc.cli, "parse_files", "parsing.parse_files", "span", _count_parse),
        (oodoc.parsing, "parse_file", "parsing.parse_file", "total", None),
        (oodoc.parsing, "tokenize", "parsing.tokenize", "total",
         lambda t, tokens: t.add("parsing.tokens", len(tokens))),
        (oodoc.cli, "build_model", "model.build", "span", None),
        (oodoc.cli, "resolve_references", "model.resolve", "span", _count_relations),
        (oodoc.cli, "generate_documents", "documents.generate", "span", None),
        (oodoc.cli, "serialize_dot", "dot.serialize", "span", _count_text("dot")),
        (oodoc.cli, "serialize_model", "xmlio.serialize", "span", _count_text("xmlio")),
        (oodoc.cli, "parse_model", "xmlio.parse", "span", None),
        (oodoc.cli, "extract_links", "evaluation.extract", "span",
         lambda t, links: t.add("evaluation.links", len(links))),
        (oodoc.cli, "precision_recall", "evaluation.score", "span", None),
    ]
    plan += [(oodoc.documents, attr, f"documents.{kind}", how, _count_graph)
             for attr, kind, how in DOCUMENT_FUNCTIONS]
    for module, attr, name, how, count in plan:
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module.__name__}.{attr} not found; {name} not traced",
                  file=sys.stderr)
            continue
        wrap = tracer.span if how == "span" else tracer.total
        setattr(module, attr, wrap(name, fn, count))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    spans_path, run_id, _, *command = argv
    tracer = Tracer(run_id)
    install(tracer)
    import oodoc.cli

    code = tracer.span("cli.main", oodoc.cli.main)(command)
    record = tracer.record()
    record["exit_code"] = code
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end: scan, parse, model, serialize, document, evaluate.

Exit codes: 0 success, 1 usage error, 2 input or parse error or an output
that cannot be written, 3 evaluation threshold not met.

A command runs with the cyclic garbage collector off. The model is a tree
of plain objects without reference cycles, so reference counting frees
all of it; the collector would only rescan the millions of objects a large
run keeps alive.

The per-class documents are created by one writer thread per per-class
directory: creating a file costs the kernel far more than writing its few
hundred bytes, and creates in different directories run side by side.
Generation and serialization stay on the main thread, and no thread
outlives the command.

`evaluate` reads its two models side by side: one worker process reads,
parses and reduces the reference to its link set while the main process
does the same for the retrieved model, and only the reference's link set
(or the error that stopped its worker) comes back. The worker switches the
collector off itself and ignores SIGINT, which the main process handles.
It is forked: it starts without a new interpreter, and no start-method
helper process is left behind. A fork copies only the forking thread, so
a program that calls `main` or `run_evaluate` in-process must not have
other threads running then; the console script has none. If the
retrieved model fails, that error is reported and the worker is killed,
not waited for. The worker closes its copy of the pipe's read end, so if
the main process is killed the worker's send fails and it exits too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

from .documents import (
    DOCUMENT_KINDS,
    PER_CLASS_KINDS,
    iter_documents,
    merge_per_class_documents,
)
from .dot import serialize_dot
from .errors import InputError, OodocError
from .evaluation import extract_links, format_report, precision_recall
from .metrics import format_metrics, metrics_json, project_metrics
from .model import Project, build_model, resolve_references
from .parsing import parse_files
from .sources import DEFAULT_EXTENSION, scan_directory
from .xmlio import parse_model, write_model

RENDERER_ENV_VAR = "OODOC_RENDERER"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_document_list(value: str) -> tuple[str, ...]:
    if value == "all":
        return DOCUMENT_KINDS
    # a kind named twice is taken once, where it is first named
    kinds = tuple(dict.fromkeys(k.strip() for k in value.split(",") if k.strip()))
    for kind in kinds:
        if kind not in DOCUMENT_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown document kind {kind!r} (choose from {', '.join(DOCUMENT_KINDS)})"
            )
    if not kinds:
        raise argparse.ArgumentTypeError("document list must not be empty")
    return kinds


def _add_input_options(sub: argparse.ArgumentParser):
    sub.add_argument("input", help="directory containing the source files")
    sub.add_argument("--name", default=None, help="project name (default: input directory name)")
    sub.add_argument(
        "--ext",
        default=DEFAULT_EXTENSION,
        help=f"source file extension (default: {DEFAULT_EXTENSION})",
    )
    sub.add_argument("--strict", action="store_true",
                     help="fail (exit 2) when any source file cannot be parsed")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="oodoc",
                             description="Document object-oriented source code as "
                                         "XML, metrics and DOT graph documents.")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="run the full pipeline")
    _add_input_options(analyze)
    analyze.add_argument("-o", "--output", default="out", help="output directory")
    analyze.add_argument("--documents", type=_parse_document_list, default=DOCUMENT_KINDS,
                         help="comma-separated document kinds, or 'all'")
    analyze.add_argument("--include-unresolved", action="store_true",
                         help="show unresolved relations in the method dependency document")
    analyze.add_argument("--merge-method-docs", action="store_true",
                         help="one combined file for per-class method documents")
    analyze.add_argument("--render", action="store_true",
                         help="run the external DOT renderer on every generated document")
    analyze.add_argument("--renderer", default=None,
                         help=f"renderer executable (default: ${RENDERER_ENV_VAR})")

    metrics = subs.add_parser("metrics", help="print project size metrics")
    _add_input_options(metrics)
    metrics.add_argument("--json", dest="json_path", default=None,
                         help="also write a machine-readable record file")

    document = subs.add_parser("document", help="generate selected documents only")
    _add_input_options(document)
    document.add_argument("-o", "--output", default="out", help="output directory")
    document.add_argument("--documents", type=_parse_document_list, required=True,
                          help="comma-separated document kinds, or 'all'")
    document.add_argument("--include-unresolved", action="store_true")
    document.add_argument("--merge-method-docs", action="store_true")

    evaluate = subs.add_parser("evaluate", help="precision/recall of a model against a reference")
    evaluate.add_argument("--retrieved", required=True, help="extracted model XML file")
    evaluate.add_argument("--reference", required=True, help="gold-standard model XML file")
    evaluate.add_argument("--fail-under", nargs=2, type=float, metavar=("PRECISION", "RECALL"),
                          default=None, help="exit 3 when either measure is below its threshold")

    render = subs.add_parser("render", help="render existing .dot files to .svg")
    render.add_argument("docs_dir", help="directory containing .dot files")
    render.add_argument("--renderer", default=None,
                        help=f"renderer executable (default: ${RENDERER_ENV_VAR})")
    render.add_argument("--strict", action="store_true",
                        help="fail (exit 2) when the renderer fails")

    return parser


def load_project(args):
    """Scan, parse (with per-file isolation) and build. Relations stay
    unresolved: metrics reports none of them."""
    files = scan_directory(args.input, args.ext)
    if not files:
        raise InputError(f"no source files with extension {args.ext!r} under {args.input}")
    trees, failures = parse_files(files)
    name = args.name if args.name is not None else Path(args.input).name
    project = build_model(trees, name)
    warnings = [w for t in trees for w in t.warnings]
    return project, failures, warnings


def _report_parse_issues(failures, warnings) -> None:
    for w in warnings:
        print(f"oodoc: warning: {w}", file=sys.stderr)
    for f in failures:
        print(f"oodoc: parse failure: {f}", file=sys.stderr)


class _OutputError(OodocError):
    """An output file or directory could not be written."""


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while path is written as an _OutputError."""
    try:
        yield
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _make_dir(path: Path) -> None:
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)


def _write_file(path: Path, data: bytes) -> None:
    """Create or truncate path and write all of data to it."""
    with _writing(path):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


class _Writer(threading.Thread):
    """Writes one per-class directory's (path, bytes) list, in order."""

    def __init__(self, files: list[tuple[Path, bytes]]):
        super().__init__(name="oodoc-writer")
        self.files = files
        self.error: BaseException | None = None

    def run(self):
        try:
            for path, data in self.files:
                _write_file(path, data)
        except BaseException as exc:  # re-raised on the main thread
            self.error = exc
        finally:
            self.files = []


def _write_documents(project: Project, args, docs_dir: Path) -> list[Path]:
    """Write the documents args asks for under docs_dir; return the paths
    in the order asked: kinds as given, classes in model order.

    The project-level kinds are made first, then the per-class kinds, each
    group in the order asked. Each document is serialized as soon as it is
    made and dropped before the next is made; for a per-class kind that is
    one class at a time. A project-level document is written on the spot.
    A per-class kind's serialized files go to a writer thread of its own,
    the only thread that creates files in that kind's directory, while the
    main thread goes on to the next kind. Every writer is joined before
    this returns or raises, and the first writer error is raised here."""
    _make_dir(docs_dir)
    # project-level kinds first; a stable sort keeps the order asked
    order = sorted(args.documents, key=PER_CLASS_KINDS.__contains__)
    written: dict[str, list[Path]] = {}
    writers: list[_Writer] = []
    try:
        for kind, document in iter_documents(project, order, args.include_unresolved):
            if kind not in PER_CLASS_KINDS or args.merge_method_docs:
                if kind in PER_CLASS_KINDS:
                    document = merge_per_class_documents(kind, document)
                path = docs_dir / f"{kind}.dot"
                _write_file(path, serialize_dot(document).encode("utf-8"))
                written[kind] = [path]
            else:
                subdir = docs_dir / kind
                _make_dir(subdir)
                files: list[tuple[Path, bytes]] = []
                for qname, graph in document:
                    files.append((subdir / f"{qname}.dot", serialize_dot(graph).encode("utf-8")))
                    del graph  # before the next class's graph is made
                written[kind] = [path for path, _ in files]
                writer = _Writer(files)
                writer.start()
                writers.append(writer)
                del files
            del document  # before the next kind is made
    finally:
        for writer in writers:
            writer.join()
    for writer in writers:
        error, writer.error = writer.error, None
        if error is not None:
            raise error
    return [path for kind in args.documents for path in written[kind]]


def _resolve_renderer(explicit: str | None) -> str | None:
    return explicit or os.environ.get(RENDERER_ENV_VAR)


def _render_files(renderer: str, dot_files: list[Path], strict: bool) -> int:
    status = 0
    for dot_path in dot_files:
        svg_path = dot_path.with_suffix(".svg")
        try:
            result = subprocess.run(
                [renderer, "-Tsvg", str(dot_path), "-o", str(svg_path)],
                capture_output=True,
            )
        except OSError as exc:
            print(f"oodoc: warning: renderer failed for {dot_path}: {exc}", file=sys.stderr)
            status = 2
            continue
        if result.returncode != 0:
            print(
                f"oodoc: warning: renderer exited with {result.returncode} for {dot_path}",
                file=sys.stderr,
            )
            status = 2
    return status if strict else 0


def run_analyze(args) -> int:
    project, failures, warnings = load_project(args)
    resolve_references(project)
    _report_parse_issues(failures, warnings)
    out = Path(args.output)
    _make_dir(out)
    with _writing(out / "model.xml"):
        write_model(project, out / "model.xml")
    metrics_text = format_metrics(project_metrics(project))
    _write_file(out / "metrics.txt", metrics_text.encode("utf-8"))
    sys.stdout.write(metrics_text)
    written = _write_documents(project, args, out / "docs")
    if args.render:
        renderer = _resolve_renderer(args.renderer)
        if renderer is None:
            print(
                f"oodoc: error: --render needs --renderer or ${RENDERER_ENV_VAR}",
                file=sys.stderr,
            )
            return 1
        render_status = _render_files(renderer, written, args.strict)
        if render_status:
            return render_status
    if failures and args.strict:
        return 2
    return 0


def run_metrics(args) -> int:
    project, failures, warnings = load_project(args)
    _report_parse_issues(failures, warnings)
    record = project_metrics(project)
    sys.stdout.write(format_metrics(record))
    if args.json_path:
        _write_file(Path(args.json_path), metrics_json(record).encode("utf-8"))
    if failures and args.strict:
        return 2
    return 0


def run_document(args) -> int:
    project, failures, warnings = load_project(args)
    resolve_references(project)
    _report_parse_issues(failures, warnings)
    _write_documents(project, args, Path(args.output) / "docs")
    if failures and args.strict:
        return 2
    return 0


def _send_links(path: str, receiver, sender) -> None:
    """The evaluate worker: read, parse and reduce the model at path, and
    send its link set, or the exception that stopped it, over sender."""
    receiver.close()  # a send to a main process that is gone then fails
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process kills it
    gc.disable()  # a worker that is not forked does not inherit the state
    try:
        result = extract_links(parse_model(_read_text(path)))
    except Exception as exc:  # raised again in the main process
        result = exc
    try:
        sender.send(result)
    except BrokenPipeError:  # the main process is gone
        pass


def run_evaluate(args) -> int:
    import multiprocessing  # here only: no other command starts a process

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_links, args=(args.reference, receiver, sender),
                             name="oodoc-reference")
    worker.start()
    sender.close()  # so that recv sees the end of the pipe if the worker dies
    try:
        retrieved = extract_links(parse_model(_read_text(args.retrieved)))
        try:
            reference = receiver.recv()
        except EOFError:  # the worker stopped without sending
            reference = None
    except BaseException:
        worker.kill()  # on any error the worker is stopped, not waited for
        raise
    finally:
        receiver.close()
        worker.join()
    if reference is None:
        raise OodocError(f"the process reading {args.reference} stopped "
                         f"without a result (exit code {worker.exitcode})")
    if isinstance(reference, Exception):
        raise reference
    report = precision_recall(retrieved, reference)
    sys.stdout.write(format_report(report))
    if args.fail_under is not None:
        precision_floor, recall_floor = args.fail_under
        if float(report.precision) < precision_floor or float(report.recall) < recall_floor:
            print("oodoc: thresholds not met", file=sys.stderr)
            return 3
    return 0


def run_render(args) -> int:
    renderer = _resolve_renderer(args.renderer)
    if renderer is None:
        print(f"oodoc: error: render needs --renderer or ${RENDERER_ENV_VAR}", file=sys.stderr)
        return 1
    docs_dir = Path(args.docs_dir)
    if not docs_dir.is_dir():
        raise InputError(f"not a readable directory: {docs_dir}")
    dot_files = sorted(docs_dir.rglob("*.dot"), key=lambda p: p.as_posix())
    if not dot_files:
        raise InputError(f"no .dot files under {docs_dir}")
    return _render_files(renderer, dot_files, args.strict)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from exc


_COMMANDS = {
    "analyze": run_analyze,
    "metrics": run_metrics,
    "document": run_document,
    "evaluate": run_evaluate,
    "render": run_render,
}


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except OodocError as exc:
        print(f"oodoc: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())

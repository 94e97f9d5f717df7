from __future__ import annotations

import contextlib
import errno
import gc
import hashlib
import multiprocessing
import os
import pickle
import signal
import stat
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import oodoc.documents
from oodoc import cli
from oodoc.cli import main
from oodoc.evaluation import extract_links
from oodoc.xmlio import parse_model, serialize_model

from conftest import FIXTURE_DIR, PROJECT_NAME, load_fixture_project
from genmodels import write_synthetic_corpus


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_into(capsys, out_dir: Path, *extra) -> tuple[int, str, str]:
    return run(
        capsys,
        "analyze",
        str(FIXTURE_DIR),
        "-o",
        str(out_dir),
        "--name",
        PROJECT_NAME,
        *extra,
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_analyze_produces_all_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = analyze_into(capsys, out)
    assert code == 0
    assert "NoM 29" in stdout
    assert (out / "model.xml").is_file()
    assert (out / "metrics.txt").read_text(encoding="utf-8").splitlines()[4] == "NoM 29"
    docs = out / "docs"
    for name in ("package", "class-info", "class-dependency", "class-content", "method-dependency"):
        assert (docs / f"{name}.dot").is_file()
    per_class = sorted(p.name for p in (docs / "method-info").glob("*.dot"))
    assert len(per_class) == 6
    assert "Drawing.Shapes.coreFrame.MyShape.dot" in per_class
    assert len(list((docs / "method-content").glob("*.dot"))) == 6
    project = parse_model((out / "model.xml").read_text(encoding="utf-8"))
    assert project.name == PROJECT_NAME


def test_analyze_twice_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert analyze_into(capsys, first)[0] == 0
    assert analyze_into(capsys, second)[0] == 0
    assert tree_bytes(first) == tree_bytes(second)


# sha256 of every file `oodoc analyze` writes for the fixture, taken with
# oodoc 0.1.0. A refactor must keep them; a change that means to alter an
# output updates the pin and says why.
FIXTURE_OUTPUT_SHA256 = {
    "docs/class-content.dot":
        "37507dd412024ec9de8308da2720631fdc86698bec15235922a9987a59744943",
    "docs/class-dependency.dot":
        "2786ed92433fca327bcb78541481164db482f57c823315936d1839bc08e930ba",
    "docs/class-info.dot":
        "50da47616cbe46df18d1439ca6da9d39598be3267576275042423302e239ffa3",
    "docs/method-content/Drawing.Shapes.coreElements.MyLine.dot":
        "3a4d4247d411c782a4a9d1de8c3b0b57dcf1eb9c083b545df88a20aa367b6fc8",
    "docs/method-content/Drawing.Shapes.coreElements.MyOval.dot":
        "b2289caaf35d8986e8635821d83adf11fee811ef34631a142306373386e1b4ac",
    "docs/method-content/Drawing.Shapes.coreElements.MyRectangle.dot":
        "4a9072b0f74ee79bb764de04a6fbd992e3fccca61adeb5dc06c2b3f74455f2db",
    "docs/method-content/Drawing.Shapes.coreFrame.DrawingShapes.dot":
        "acc92d97fadd81da26d3ce650fb332bbe262002e7afda46ded4585b750a7c1e6",
    "docs/method-content/Drawing.Shapes.coreFrame.MyShape.dot":
        "3c9cf206930c93d1d7faa7a5f29802ab4e4e16918100584b736f528d2e22007a",
    "docs/method-content/Drawing.Shapes.coreFrame.PaintJPanel.dot":
        "0623dc31b42935d5e14ee78b0d1ba9a5fc340d3dd21af487726a5275d11c3e30",
    "docs/method-dependency.dot":
        "2f8d69f635646be1abc425adb7a63222c58eae39d57331677031a51524c21e64",
    "docs/method-info/Drawing.Shapes.coreElements.MyLine.dot":
        "a9423ba394a2af7d11998606d20d6d7597c6d1134ef0a20361b47c08481968fd",
    "docs/method-info/Drawing.Shapes.coreElements.MyOval.dot":
        "0fddec5c71882f3364ab60814174034ee3f8ea70ad246de3d7559c002bce1ede",
    "docs/method-info/Drawing.Shapes.coreElements.MyRectangle.dot":
        "4c7d1310681edab918a48c655ca342a4011005aa921d857625a4851bbcfa3708",
    "docs/method-info/Drawing.Shapes.coreFrame.DrawingShapes.dot":
        "e2ea9e95b53f6e6dee93260ef65fe0814c94be8588f9046670ea885dc0f1570e",
    "docs/method-info/Drawing.Shapes.coreFrame.MyShape.dot":
        "82dcc6bf7231be1abd24a7c97cf5442db80ff28198bdc50f469beca65fece207",
    "docs/method-info/Drawing.Shapes.coreFrame.PaintJPanel.dot":
        "d2010b1e785982cadee2f5e70be67a0a6431efa200dc4fa98c94e10b215c748b",
    "docs/package.dot":
        "b83880813c35ccc2b6b263901a04ddacdf7d17c1254ccc3b97e115bc891b94b7",
    "metrics.txt":
        "38e31abddae78a6aa5be5bd9e6e66ea476692ae424ea896b412488a0213e5a09",
    "model.xml":
        "c4812957753ecc1e0bfc957cf1162b0fcd806c9ca45a5b57b27c1484c22fdcb5",
}


def test_analyze_fixture_outputs_match_pinned_digests(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "analyze", str(FIXTURE_DIR), "-o", str(out))
    assert code == 0
    digests = {path: hashlib.sha256(data).hexdigest() for path, data in tree_bytes(out).items()}
    assert digests == FIXTURE_OUTPUT_SHA256


# sha256 of the two combined files `--merge-method-docs` writes for the
# fixture in place of the per-class directories, taken with the release
# that wrote documents all at once, before it wrote them one at a time.
MERGED_OUTPUT_SHA256 = {
    "docs/method-content.dot":
        "e047587de9a4916d13b922a187fa8d23366ef25023bc8294ff0201766047e047",
    "docs/method-info.dot":
        "2c6716b47605f6112deea2d159a03dd0ab08b1cd818a760e05ffc30680ed5d70",
}


def test_analyze_merged_outputs_match_pinned_digests(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "analyze", str(FIXTURE_DIR), "-o", str(out), "--merge-method-docs")
    assert code == 0
    digests = {path: hashlib.sha256(data).hexdigest() for path, data in tree_bytes(out).items()}
    expected = {path: digest for path, digest in FIXTURE_OUTPUT_SHA256.items()
                if not path.startswith(("docs/method-info/", "docs/method-content/"))}
    assert digests == {**expected, **MERGED_OUTPUT_SHA256}


def test_document_outputs_match_pinned_digests(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "document", str(FIXTURE_DIR), "-o", str(out), "--documents", "all")
    assert (code, stdout) == (0, "")
    digests = {path: hashlib.sha256(data).hexdigest() for path, data in tree_bytes(out).items()}
    assert digests == {path: digest for path, digest in FIXTURE_OUTPUT_SHA256.items()
                       if path.startswith("docs/")}


@pytest.mark.parametrize("name", ["gen_method_information_document", "gen_method_content_document"])
def test_one_per_class_graph_alive_at_a_time(tmp_path, capsys, monkeypatch, name):
    original = getattr(oodoc.documents, name)
    made: list[weakref.ref] = []

    def generate(*args, **kwargs):
        assert all(ref() is None for ref in made), "an earlier class's graph is still held"
        graph = original(*args, **kwargs)
        made.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(oodoc.documents, name, generate)
    assert analyze_into(capsys, tmp_path / "out")[0] == 0
    assert len(made) == 6


def test_model_xml_cannot_carry_fails_without_output(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "model.xml").write_bytes(b"earlier")
    code, stdout, stderr = run(capsys, "analyze", str(FIXTURE_DIR), "-o", str(out), "--name", "a\x01b")
    assert (code, stdout) == (2, "")
    assert "line 2 of the document would hold '\\x01'" in stderr
    assert tree_bytes(out) == {"model.xml": b"earlier"}


# the fixture's classes in model order
FIXTURE_CLASSES = (
    "Drawing.Shapes.coreElements.MyLine",
    "Drawing.Shapes.coreElements.MyOval",
    "Drawing.Shapes.coreElements.MyRectangle",
    "Drawing.Shapes.coreFrame.DrawingShapes",
    "Drawing.Shapes.coreFrame.MyShape",
    "Drawing.Shapes.coreFrame.PaintJPanel",
)


def test_project_level_documents_are_made_before_per_class_ones(tmp_path, capsys, monkeypatch):
    made: list[str] = []
    for name in dir(oodoc.documents):
        if name.startswith("gen_") and name.endswith("_document"):
            original = getattr(oodoc.documents, name)

            def generate(*args, _original=original, **kwargs):
                graph = _original(*args, **kwargs)
                made.append(graph.kind)
                return graph

            monkeypatch.setattr(oodoc.documents, name, generate)
    code, _, _ = analyze_into(capsys, tmp_path / "out", "--documents",
                              "method-content,package,method-info,method-dependency")
    assert code == 0
    assert made == ["package", "method-dependency", *["method-content"] * 6, *["method-info"] * 6]


def _slow_writers(monkeypatch) -> dict[Path, threading.Thread]:
    """Make every file written off the main thread take a while, so a
    writer still running when the command returns is seen; record the
    thread that writes each path."""
    writers: dict[Path, threading.Thread] = {}
    original = cli._write_file

    def write_file(path, data):
        writers[Path(path)] = threading.current_thread()
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.01)
        original(path, data)

    monkeypatch.setattr(cli, "_write_file", write_file)
    return writers


def test_each_per_class_directory_is_written_by_one_thread(tmp_path, capsys, monkeypatch):
    writers = _slow_writers(monkeypatch)
    threads = set(threading.enumerate())
    out = tmp_path / "out"
    assert analyze_into(capsys, out)[0] == 0
    assert set(threading.enumerate()) == threads
    docs = out / "docs"
    assert {p for p in writers if docs in p.parents} == set(docs.rglob("*.dot"))
    by_directory: dict[Path, set[threading.Thread]] = {}
    for path, thread in writers.items():
        by_directory.setdefault(path.parent, set()).add(thread)
    main_thread = threading.main_thread()
    assert by_directory.pop(docs) == {main_thread}
    assert by_directory.pop(out) == {main_thread}  # metrics.txt
    assert sorted(d.name for d in by_directory) == ["method-content", "method-info"]
    for owners in by_directory.values():
        assert len(owners) == 1 and main_thread not in owners
    assert len({t for owners in by_directory.values() for t in owners}) == 2


def test_merged_method_documents_start_no_writer(tmp_path, capsys, monkeypatch):
    writers = _slow_writers(monkeypatch)
    assert analyze_into(capsys, tmp_path / "out", "--merge-method-docs")[0] == 0
    assert len(writers) == 8 and set(writers.values()) == {threading.main_thread()}


def test_write_file_finishes_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:3])))
    target = tmp_path / "f.dot"
    target.write_bytes(b"an earlier and longer text")
    cli._write_file(target, b"digraph g {}\n")
    monkeypatch.undo()
    assert target.read_bytes() == b"digraph g {}\n"


def _unwritable_output(tmp_path) -> dict[str, tuple[list[str], Path, int]]:
    """argv, the path that cannot be written and its errno, per case."""
    cases = {}
    existing = tmp_path / "a-file"
    existing.write_text("", encoding="utf-8")
    cases["output directory is a file"] = (
        ["analyze", str(FIXTURE_DIR), "-o", str(existing)], existing, errno.EEXIST)
    json_path = tmp_path / "missing" / "m.json"
    cases["json directory missing"] = (
        ["metrics", str(FIXTURE_DIR), "--json", str(json_path)], json_path, errno.ENOENT)
    for name, target in (("project-level", "package.dot"),
                         ("per-class", f"method-info/{FIXTURE_CLASSES[2]}.dot")):
        out = tmp_path / name
        (out / "docs" / target).mkdir(parents=True)
        cases[f"{name} .dot is a directory"] = (
            ["analyze", str(FIXTURE_DIR), "-o", str(out)], out / "docs" / target, errno.EISDIR)
    return cases


@pytest.mark.parametrize("case", [
    "output directory is a file",
    "json directory missing",
    "project-level .dot is a directory",
    "per-class .dot is a directory",
])
def test_an_unwritable_output_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    argv, path, code = _unwritable_output(tmp_path)[case]
    _slow_writers(monkeypatch)
    threads = set(threading.enumerate())
    assert run(capsys, *argv)[0::2] == (2, f"oodoc: error: cannot write {path}: "
                                           f"{os.strerror(code)}\n")
    assert set(threading.enumerate()) == threads


def _env_with_src() -> dict[str, str]:
    """The environment with the oodoc sources on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}


def _python_with_src(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter on argv with the oodoc sources on its path."""
    return subprocess.run([sys.executable, *argv], env=_env_with_src(), capture_output=True,
                          timeout=60, **kwargs)


def test_importing_the_cli_loads_no_network_modules():
    # xml.sax.saxutils pulls these in, and they cost every command tens of
    # milliseconds of start-up
    probe = ("import sys, oodoc.cli; "
             "print(sorted({'urllib.request', 'http.client', 'email.message'} & set(sys.modules)))")
    result = _python_with_src("-c", probe, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_analyze_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, stderr = run(capsys, "analyze", str(empty))
    assert code == 2
    assert "no source files" in stderr


def test_analyze_single_document_selection(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = analyze_into(capsys, out, "--documents", "class-dependency")
    assert code == 0
    produced = [p.relative_to(out / "docs").as_posix() for p in (out / "docs").rglob("*.dot")]
    assert produced == ["class-dependency.dot"]


def test_analyze_merged_method_documents(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = analyze_into(
        capsys, out, "--documents", "method-info,method-content", "--merge-method-docs"
    )
    assert code == 0
    produced = sorted(
        p.relative_to(out / "docs").as_posix() for p in (out / "docs").rglob("*.dot")
    )
    assert produced == ["method-content.dot", "method-info.dot"]


def test_analyze_strict_fails_on_bad_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Good.java").write_text("class Good {}", encoding="utf-8")
    (src / "Bad.java").write_text("class Bad { void m() {", encoding="utf-8")
    out = tmp_path / "out"
    code, _, stderr = run(capsys, "analyze", str(src), "-o", str(out))
    assert code == 0
    assert "parse failure" in stderr
    code, _, _ = run(capsys, "analyze", str(src), "-o", str(out), "--strict")
    assert code == 2


def test_unknown_document_kind_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "analyze", str(FIXTURE_DIR), "-o", str(tmp_path), "--documents", "wiggle"
    )
    assert code == 1
    assert "wiggle" in stderr


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


def test_metrics_does_not_resolve_relations(capsys, monkeypatch):
    expected = run(capsys, "metrics", str(FIXTURE_DIR))

    def refuse(project):
        raise AssertionError("metrics resolved the model's relations")

    monkeypatch.setattr(cli, "resolve_references", refuse)
    assert run(capsys, "metrics", str(FIXTURE_DIR)) == expected
    assert expected[0] == 0


def test_metrics_subcommand(tmp_path, capsys):
    json_path = tmp_path / "metrics.json"
    code, stdout, _ = run(
        capsys, "metrics", str(FIXTURE_DIR), "--json", str(json_path)
    )
    assert code == 0
    assert "NoM 29" in stdout
    assert "NoA 14" in stdout
    import json

    assert json.loads(json_path.read_text(encoding="utf-8"))["noc"] == 6


def test_document_subcommand_requires_documents(tmp_path, capsys):
    code, _, _ = run(capsys, "document", str(FIXTURE_DIR), "-o", str(tmp_path))
    assert code == 1


def test_document_subcommand_writes_requested(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(
        capsys, "document", str(FIXTURE_DIR), "-o", str(out), "--documents", "package"
    )
    assert code == 0
    assert (out / "docs" / "package.dot").is_file()


def _write_gold(tmp_path) -> Path:
    gold = tmp_path / "gold.xml"
    gold.write_text(serialize_model(load_fixture_project()), encoding="utf-8")
    return gold


def test_evaluate_gold_against_itself(tmp_path, capsys):
    gold = _write_gold(tmp_path)
    code, stdout, _ = run(
        capsys, "evaluate", "--retrieved", str(gold), "--reference", str(gold)
    )
    assert code == 0
    assert "precision 1.0000" in stdout
    assert "recall 1.0000" in stdout


def _write_link_pair(tmp_path) -> tuple[Path, Path]:
    """Two models whose link overlap is 90 of 95: the reference holds 93
    attributes + class + package (95 links); the retrieved drops five
    attributes."""

    def model(attr_count: int) -> str:
        attrs = "".join(
            f'<Attribute Name="f{i}" DeclaredType="int" AccessLevel="private" IsStatic="false"/>'
            for i in range(attr_count)
        )
        return (
            '<Project ProjectName="links" LinesOfCode="0"><Packages>'
            '<Package PackageName="p"><Classes>'
            '<Class ClassName="A" classAccessLevel="public" IsInterface="false">'
            f"<SuperInterfaces/><Attributes>{attrs}</Attributes><Methods/>"
            "</Class></Classes></Package></Packages></Project>"
        )

    reference = tmp_path / "reference.xml"
    retrieved = tmp_path / "retrieved.xml"
    reference.write_text(model(93), encoding="utf-8")
    retrieved.write_text(model(88), encoding="utf-8")
    return retrieved, reference


def test_evaluate_worked_example_pair(tmp_path, capsys):
    retrieved, reference = _write_link_pair(tmp_path)
    code, stdout, _ = run(
        capsys, "evaluate", "--retrieved", str(retrieved), "--reference", str(reference)
    )
    assert code == 0
    assert "retrieved 90" in stdout
    assert "relevant 95" in stdout
    assert "precision 1.0000" in stdout
    assert "recall 0.9474" in stdout


def test_evaluate_fail_under_thresholds(tmp_path, capsys):
    retrieved, reference = _write_link_pair(tmp_path)
    code, _, _ = run(
        capsys,
        "evaluate",
        "--retrieved", str(retrieved),
        "--reference", str(reference),
        "--fail-under", "1.0", "1.0",
    )
    assert code == 3
    code, _, _ = run(
        capsys,
        "evaluate",
        "--retrieved", str(retrieved),
        "--reference", str(reference),
        "--fail-under", "1.0", "0.9",
    )
    assert code == 0


def test_evaluate_malformed_xml_fails(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<Project", encoding="utf-8")
    code, _, stderr = run(
        capsys, "evaluate", "--retrieved", str(bad), "--reference", str(bad)
    )
    assert code == 2
    assert "error" in stderr


def test_evaluate_reports_a_bad_reference(tmp_path, capsys):
    gold = _write_gold(tmp_path)
    reference = tmp_path / "reference.xml"
    reference.write_text('<Project ProjectName="x" LinesOfCode="0"><Stuff/></Project>',
                         encoding="utf-8")
    code, stdout, stderr = run(
        capsys, "evaluate", "--retrieved", str(gold), "--reference", str(reference))
    assert (code, stdout) == (2, "")
    assert stderr == "oodoc: error: Project/Stuff: expected element Packages, found Stuff\n"


def test_evaluate_reports_the_retrieved_error_when_both_are_bad(tmp_path, capsys):
    retrieved = tmp_path / "retrieved.xml"
    retrieved.write_text('<Project ProjectName="x" LinesOfCode="0"><Junk/></Project>',
                         encoding="utf-8")
    reference = tmp_path / "reference.xml"
    reference.write_text('<Project ProjectName="x" LinesOfCode="0"><Stuff/></Project>',
                         encoding="utf-8")
    code, stdout, stderr = run(
        capsys, "evaluate", "--retrieved", str(retrieved), "--reference", str(reference))
    assert (code, stdout) == (2, "")
    assert stderr == "oodoc: error: Project/Junk: expected element Packages, found Junk\n"


def test_evaluate_reports_an_unreadable_reference(tmp_path, capsys):
    gold = _write_gold(tmp_path)
    missing = tmp_path / "missing.xml"
    code, stdout, stderr = run(
        capsys, "evaluate", "--retrieved", str(gold), "--reference", str(missing))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"oodoc: error: cannot read {missing}: ")
    assert stderr.count("\n") == 1 and stderr.endswith("\n")


@pytest.mark.parametrize("bad_side", ["retrieved", "reference"])
def test_evaluate_reports_a_model_that_is_not_utf8(tmp_path, capsys, bad_side):
    gold = _write_gold(tmp_path)
    bad = tmp_path / "latin1.xml"
    # Latin-1 "é": in UTF-8, 0xE9 must be followed by two continuation bytes
    bad.write_bytes(gold.read_bytes().replace(b'ProjectName="', b'ProjectName="\xe9', 1))
    models = {"retrieved": gold, "reference": gold, bad_side: bad}
    with _deadline(60):
        code, stdout, stderr = run(capsys, "evaluate", "--retrieved", str(models["retrieved"]),
                                   "--reference", str(models["reference"]))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"oodoc: error: {bad} is not valid UTF-8: ")
    assert stderr.count("\n") == 1 and stderr.endswith("\n")
    _assert_no_child_left()


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block, rather than hang, after seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_evaluate_fails_when_its_worker_dies_without_a_result(tmp_path, capsys, monkeypatch):
    gold = _write_gold(tmp_path)
    monkeypatch.setattr(cli, "_send_links", lambda path, receiver, sender: os._exit(7))
    with _deadline(60):
        code, stdout, stderr = run(
            capsys, "evaluate", "--retrieved", str(gold), "--reference", str(gold))
    assert (code, stdout) == (2, "")
    assert stderr == (f"oodoc: error: the process reading {gold} stopped without a result "
                      "(exit code 7)\n")
    assert not multiprocessing.active_children()


def test_a_bad_retrieved_model_stops_the_worker_without_waiting(tmp_path, capsys, monkeypatch):
    gold = _write_gold(tmp_path)
    bad = tmp_path / "bad.xml"
    bad.write_text('<Project ProjectName="x" LinesOfCode="0"><Junk/></Project>', encoding="utf-8")
    monkeypatch.setattr(cli, "_send_links", lambda path, receiver, sender: time.sleep(600))
    with _deadline(60):
        code, stdout, stderr = run(
            capsys, "evaluate", "--retrieved", str(bad), "--reference", str(gold))
    assert (code, stdout) == (2, "")
    assert stderr == "oodoc: error: Project/Junk: expected element Packages, found Junk\n"
    assert not multiprocessing.active_children()


def test_evaluate_runs_beside_another_thread(tmp_path, capsys):
    gold = _write_gold(tmp_path)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, name="waiter")
    waiter.start()
    # from Python 3.12 on, os.fork warns that the process has other threads
    forking = (pytest.warns(DeprecationWarning, match="multi-threaded")
               if sys.version_info >= (3, 12) else contextlib.nullcontext())
    try:
        with _deadline(60), forking:
            code, stdout, _ = run(
                capsys, "evaluate", "--retrieved", str(gold), "--reference", str(gold))
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert code == 0
    assert "precision 1.0000" in stdout and "recall 1.0000" in stdout
    _assert_no_child_left()


class _Outbox:
    closed = False

    def send(self, obj):
        self.sent = obj

    def close(self):
        self.closed = True


def test_the_worker_switches_the_collector_off_and_sends_links_or_error(tmp_path):
    gold = _write_gold(tmp_path)
    receiver, outbox = _Outbox(), _Outbox()
    handler = signal.getsignal(signal.SIGINT)
    gc.enable()
    try:
        cli._send_links(str(gold), receiver, outbox)
        assert not gc.isenabled()
        assert signal.getsignal(signal.SIGINT) == signal.SIG_IGN
        assert receiver.closed and not outbox.closed
        links = outbox.sent
        cli._send_links(str(tmp_path / "missing.xml"), receiver, outbox)
    finally:
        gc.enable()
        signal.signal(signal.SIGINT, handler)
    assert links == extract_links(parse_model(gold.read_text(encoding="utf-8")))
    assert isinstance(outbox.sent, cli.InputError)


# The worker is forked; this runs its entry point in a spawned process, in
# an interpreter of its own so that spawn's helper process is not left
# running beside the tests, to show it needs nothing that only fork passes on.
_SPAWNED_WORKER = """\
import multiprocessing, pickle, sys
from oodoc import cli
context = multiprocessing.get_context("spawn")
receiver, sender = context.Pipe(duplex=False)
worker = context.Process(target=cli._send_links, args=(sys.argv[1], receiver, sender))
worker.start()
sender.close()
links = receiver.recv()
worker.join()
sys.stdout.buffer.write(pickle.dumps((links, worker.exitcode)))
"""


def test_the_worker_runs_under_spawn(tmp_path):
    gold = _write_gold(tmp_path)
    result = _python_with_src("-c", _SPAWNED_WORKER, str(gold))
    assert result.returncode == 0, result.stderr
    links, exit_code = pickle.loads(result.stdout)
    assert exit_code == 0
    assert links == extract_links(parse_model(gold.read_text(encoding="utf-8")))
    assert len(links) > 50


def _children(pid: int) -> list[int]:
    return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def _running(pid: int) -> bool:
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat_line.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/PID/task/TID/children")
def test_the_worker_exits_when_the_main_process_is_killed(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(corpus, packages=10, classes_per_package=20)
    out = tmp_path / "out"
    assert run(capsys, "analyze", str(corpus), "-o", str(out), "--documents", "package")[0] == 0
    model = out / "model.xml"
    # more than a pipe holds, so a send that nobody reads would block
    assert len(pickle.dumps(extract_links(parse_model(model.read_text(encoding="utf-8"))))) > 1 << 16
    with (tmp_path / "stderr").open("w+b") as stderr:
        command = subprocess.Popen(
            [sys.executable, "-m", "oodoc.cli", "evaluate",
             "--retrieved", str(model), "--reference", str(model)],
            env=_env_with_src(), stdout=subprocess.DEVNULL, stderr=stderr)
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while not workers and command.poll() is None and time.monotonic() < deadline:
                workers = _children(command.pid)
                time.sleep(0.001)
            assert len(workers) == 1, "evaluate started no worker"
            command.kill()
            assert command.wait(timeout=60) == -signal.SIGKILL
            deadline = time.monotonic() + 60
            while _running(workers[0]) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not _running(workers[0]), "the worker outlived the killed command"
        finally:
            command.kill()
            command.wait()
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        stderr.seek(0)
        assert stderr.read() == b""


def _fake_renderer(tmp_path) -> Path:
    script = tmp_path / "fake-dot"
    script.write_text(
        "#!/usr/bin/env python3\n"
        "import sys\n"
        "args = sys.argv[1:]\n"
        "out = args[args.index('-o') + 1]\n"
        "open(out, 'w').write('<svg/>')\n",
        encoding="utf-8",
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return script


def test_render_with_external_renderer(tmp_path, capsys):
    out = tmp_path / "out"
    assert analyze_into(capsys, out, "--documents", "package")[0] == 0
    renderer = _fake_renderer(tmp_path)
    code, _, _ = run(capsys, "render", str(out / "docs"), "--renderer", str(renderer))
    assert code == 0
    assert (out / "docs" / "package.svg").read_text(encoding="utf-8") == "<svg/>"


def test_render_ignores_a_renderer_output_that_is_not_utf8(tmp_path, capsys):
    out = tmp_path / "out"
    assert analyze_into(capsys, out, "--documents", "package")[0] == 0
    renderer = tmp_path / "byte-dot"
    renderer.write_text("#!/bin/sh\nprintf '\\377' >&2\nprintf '\\377'\n", encoding="utf-8")
    renderer.chmod(renderer.stat().st_mode | stat.S_IEXEC)
    assert run(capsys, "render", str(out / "docs"), "--renderer", str(renderer)) == (0, "", "")


def test_render_uses_environment_variable(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert analyze_into(capsys, out, "--documents", "package")[0] == 0
    monkeypatch.setenv("OODOC_RENDERER", str(_fake_renderer(tmp_path)))
    code, _, _ = run(capsys, "render", str(out / "docs"))
    assert code == 0
    assert (out / "docs" / "package.svg").is_file()


def test_render_without_renderer_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OODOC_RENDERER", raising=False)
    code, _, stderr = run(capsys, "render", str(tmp_path))
    assert code == 1
    assert "OODOC_RENDERER" in stderr


def test_analyze_render_failure_is_warning_unless_strict(tmp_path, capsys):
    out = tmp_path / "out"
    broken = tmp_path / "broken"
    broken.write_text("#!/bin/sh\nexit 9\n", encoding="utf-8")
    broken.chmod(broken.stat().st_mode | stat.S_IEXEC)
    code, _, stderr = analyze_into(
        capsys, out, "--documents", "package", "--render", "--renderer", str(broken)
    )
    assert code == 0
    assert "renderer" in stderr
    code, _, _ = analyze_into(
        capsys,
        tmp_path / "out2",
        "--documents", "package", "--render", "--renderer", str(broken), "--strict",
    )
    assert code == 2


# the order `--render` ran the renderer in for the fixture, taken at the
# release that wrote every document on the main thread: kinds as asked,
# classes in model order
RENDER_ORDER = {
    "all": [
        "package.dot", "class-info.dot", "class-dependency.dot", "class-content.dot",
        *(f"method-info/{c}.dot" for c in FIXTURE_CLASSES),
        *(f"method-content/{c}.dot" for c in FIXTURE_CLASSES),
        "method-dependency.dot",
    ],
    "method-content,package,method-info": [
        *(f"method-content/{c}.dot" for c in FIXTURE_CLASSES),
        "package.dot",
        *(f"method-info/{c}.dot" for c in FIXTURE_CLASSES),
    ],
}


def _logging_renderer(tmp_path) -> tuple[Path, Path]:
    """A renderer that appends each DOT path it is given to a log; both paths."""
    log = tmp_path / "rendered"
    renderer = tmp_path / "logging-dot"
    renderer.write_text(f'#!/bin/sh\necho "$2" >> "{log}"\n', encoding="utf-8")
    renderer.chmod(renderer.stat().st_mode | stat.S_IEXEC)
    return renderer, log


@pytest.mark.parametrize("documents", sorted(RENDER_ORDER))
def test_render_runs_in_the_order_asked(tmp_path, capsys, documents):
    renderer, log = _logging_renderer(tmp_path)
    out = tmp_path / "out"
    code, _, _ = analyze_into(capsys, out, "--documents", documents,
                              "--render", "--renderer", str(renderer))
    assert code == 0
    rendered = [Path(line).relative_to(out / "docs").as_posix()
                for line in log.read_text(encoding="utf-8").splitlines()]
    assert rendered == RENDER_ORDER[documents]


def test_a_kind_named_twice_is_made_and_rendered_once(tmp_path, capsys):
    renderer, log = _logging_renderer(tmp_path)
    out = tmp_path / "twice"
    code, _, _ = analyze_into(capsys, out, "--documents", "package,package",
                              "--render", "--renderer", str(renderer))
    assert code == 0
    assert log.read_text(encoding="utf-8").splitlines() == [str(out / "docs" / "package.dot")]
    trees = []
    for documents in ("package,class-info,package", "package,class-info"):
        code, _, _ = analyze_into(capsys, tmp_path / documents, "--documents", documents)
        assert code == 0
        trees.append(tree_bytes(tmp_path / documents))
    assert trees[0] == trees[1]
    assert sorted(p for p in trees[0] if p.startswith("docs/")) == [
        "docs/class-info.dot", "docs/package.dot"]


def test_outputs_never_land_in_input_root(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "A.java").write_text("package p; class A {}", encoding="utf-8")
    before = set(p.as_posix() for p in src.rglob("*"))
    out = tmp_path / "out"
    assert run(capsys, "analyze", str(src), "-o", str(out))[0] == 0
    after = set(p.as_posix() for p in src.rglob("*"))
    assert before == after


# Commands run with the cyclic collector off (see cli.py). That is safe
# only while a run makes no garbage that reference counting cannot free, or
# at most a fixed amount (argparse makes some on every call): these tests
# run whole commands with the collector off and count what it finds after.


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert not multiprocessing.active_children(), "a process outlived the command"


def _unreachable_after(capsys, *argv) -> tuple[int, int]:
    """The exit code of main(argv), run with the collector off, and the
    number of unreachable objects the collector finds after it. No thread
    may outlive the command."""
    threads = set(threading.enumerate())
    gc.collect()
    gc.disable()
    try:
        code = main(list(argv))
        assert set(threading.enumerate()) == threads, "a thread outlived the command"
        _assert_no_child_left()
        return code, gc.collect()
    finally:
        gc.enable()
        capsys.readouterr()


def _write_troubled_corpus(root: Path, copies: int):
    """Files that fail to lex, fail to parse, fail while a skipped construct
    is handled, nest too deeply, or parse with warnings; and one good file."""
    root.mkdir(parents=True)
    for i in range(copies):
        files = {
            f"Lit{i}": f'class Lit{i} {{\n  String s = "open;\n}}\n',
            f"Member{i}": f"class Member{i} {{\n  int 5x;\n}}\n",
            f"Generic{i}": f"class Generic{i} {{ void m(List<int> x {{ }}\n",
            f"Deep{i}": f"class Deep{i} {{ void m() {{ int x = {'(' * 3000}1{')' * 3000}; }} }}\n",
            f"Warn{i}": f"enum E{i} {{ A }}\nclass Warn{i} {{ void m() {{ try {{ }} finally {{ }} }} }}\n",
            f"Good{i}": f"class Good{i} {{ int a; void m() {{ a = 1; }} }}\n",
        }
        for name, text in files.items():
            (root / f"{name}.java").write_text(text, encoding="utf-8")


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, capsys):
    code, fixture = _unreachable_after(capsys, "analyze", str(FIXTURE_DIR), "-o", str(tmp_path / "f"))
    assert code == 0
    found: dict[str, list[int]] = {"fixture": [fixture]}
    for size in (1, 3):
        corpus = tmp_path / f"corpus{size}"
        write_synthetic_corpus(corpus, packages=2 * size, classes_per_package=3 * size)
        troubled = tmp_path / f"troubled{size}"
        _write_troubled_corpus(troubled, size)
        out = tmp_path / f"out{size}"
        runs = {
            "corpus": ("analyze", str(corpus), "-o", str(out)),
            "troubled": ("analyze", str(troubled), "-o", str(tmp_path / f"t{size}")),
            "evaluate": ("evaluate", "--retrieved", str(out / "model.xml"),
                         "--reference", str(out / "model.xml")),
        }
        for kind, argv in runs.items():
            code, unreachable = _unreachable_after(capsys, *argv)
            assert code == 0, kind
            found.setdefault(kind, []).append(unreachable)
        # a model whose one fault is near its end: the SchemaError leaves
        # parse_model through expat, its traceback holding the reader's frames
        rejected = tmp_path / f"rejected{size}.xml"
        model = (out / "model.xml").read_text(encoding="utf-8")
        rejected.write_text(model.replace("</Packages>", "<Stuff/></Packages>"), encoding="utf-8")
        code, unreachable = _unreachable_after(
            capsys, "evaluate", "--retrieved", str(rejected), "--reference", str(out / "model.xml"))
        assert code == 2
        found.setdefault("rejected", []).append(unreachable)
    for kind in ("corpus", "troubled", "evaluate", "rejected"):
        small, large = found[kind]
        assert large <= small, found


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_state(tmp_path, capsys, monkeypatch, collecting):
    during: list[bool] = []
    monkeypatch.setitem(cli._COMMANDS, "metrics",
                        lambda args: during.append(gc.isenabled()) or 0)
    monkeypatch.delenv("OODOC_RENDERER", raising=False)
    (tmp_path / "empty").mkdir()
    cases = [
        (("metrics", str(FIXTURE_DIR)), 0),
        (("analyze", str(tmp_path / "empty")), 2),  # an OodocError
        (("render", str(tmp_path)), 1),  # a usage error found by the command
        (("--no-such-flag",), 1),  # a usage error found by argparse
    ]
    for argv, expected in cases:
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(list(argv)) == expected, argv
            assert gc.isenabled() is collecting, argv
        finally:
            gc.enable()
    assert during == [False]

"""Benchmark of the oodoc command line on seeded generated corpora.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
oodoc package under src/. Each workload generates its inputs from the
seed, then runs the real CLI with default flags as a fresh child process,
closed loop (one client, the next run starts after the previous exits),
for at least --seconds seconds and at least one run. Outputs are checked
against the generator's own ground truth outside the timed window.

--trace 0 prints the end-to-end metrics: median wall time (less the time
the hypervisor stole from the run) and peak RSS of one CLI process, median
set-up time, and the precision and recall of the extracted model against
the gold link set. --trace 1 runs the CLI once more
in-process under bench/tracer.py and prints the per-layer metrics. The last
line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
attempted and failed count CLI runs; error_rate is failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import corpus
from tracer import DOCUMENT_FUNCTIONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
RUN_LIMIT_S = 150  # a CLI run still going after this is killed and counted as failed
LOOP_DEADLINE_S = 100  # no new timed run starts after this many seconds in the process


@dataclass
class Run:
    """One finished CLI process."""

    wall_s: float  # from spawn to exit
    stolen_s: float  # of that, time the hypervisor ran something else instead
    cpu_s: float  # user plus system time of the child
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    out_dir: Path

    @property
    def own_wall_s(self) -> float:
        """Wall time less stolen time: what the run costs on a machine
        whose processors are not shared with other virtual machines."""
        return self.wall_s - self.stolen_s


def machine_cpu_s() -> tuple[float, float]:
    """(busy, stolen) processor seconds of this machine, summed over its
    processors, from /proc/stat; zeros where that file does not exist."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except OSError:
        return 0.0, 0.0
    user, nice, system, _, _, irq, softirq, steal = fields
    tick = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / tick, steal / tick


def spawn(argv: list[str], out_dir: Path, env: dict) -> Run:
    """Run argv as a child; time it from spawn to exit and take its own
    peak RSS from wait4, which reports on that child alone.

    On a virtual machine the hypervisor can stop this machine's processors
    to run other guests; /proc/stat counts that as steal, summed over the
    processors. The steal during the run, times the child's share of the
    processor time used meanwhile, is recorded as the run's stolen time,
    but never more than the run's wall time beyond its own CPU time: steal
    on a processor the child was not waiting for did not delay it.
    """
    out_dir.mkdir(parents=True)
    stdout_path, stderr_path = out_dir.parent / "stdout", out_dir.parent / "stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        busy0, steal0 = machine_cpu_s()
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        killer = threading.Timer(RUN_LIMIT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: stop the child before going
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        busy1, steal1 = machine_cpu_s()
    cpu = usage.ru_utime + usage.ru_stime
    busy = busy1 - busy0
    share = min(1.0, cpu / busy) if busy > 0 else 0.0
    stolen = min((steal1 - steal0) * share, max(0.0, wall - cpu))
    return Run(wall, stolen, cpu, usage.ru_maxrss / 1024,
               os.waitstatus_to_exitcode(status),
               stdout_path.read_bytes(), stderr_path.read_bytes(), out_dir)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "oodoc.cli", *args]


def tree_digest(run: Run) -> str:
    """sha256 over stdout and every output file, by relative path."""
    h = hashlib.sha256(run.stdout)
    for path in sorted(p for p in run.out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"\0{path.relative_to(run.out_dir).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_analysis(truth: corpus.Corpus, gold: set[str], run: Run, problems: list[str]):
    """Checks of an `oodoc analyze` output tree; returns (precision, recall)
    of its model.xml against the gold link set."""
    from oodoc.dot import validate_dot
    from oodoc.errors import OodocError
    from oodoc.xmlio import parse_model

    expected = truth.metrics_text()
    if run.stdout.decode(errors="replace") != expected:
        problems.append("stdout differs from the expected metrics")
    metrics_path = run.out_dir / "metrics.txt"
    if not metrics_path.is_file() or metrics_path.read_text(encoding="utf-8") != expected:
        problems.append("metrics.txt differs from the generator's record")
    dots = sorted((run.out_dir / "docs").rglob("*.dot"))
    if len(dots) != 2 * len(truth.classes) + 5:
        problems.append(f"{len(dots)} .dot files, expected {2 * len(truth.classes) + 5}")
    for path in dots:
        try:
            validate_dot(path.read_text(encoding="utf-8"))
        except OodocError as exc:
            problems.append(f"{path.name}: {exc}")
            break
    model_path = run.out_dir / "model.xml"
    if not model_path.is_file():
        problems.append("model.xml missing")
        return 0.0, 0.0
    text = model_path.read_text(encoding="utf-8")
    try:
        parse_model(text)
        links = corpus.xml_links(text)
    except OodocError as exc:
        problems.append(f"parse_model(model.xml) failed: {exc}")
        return 0.0, 0.0
    hits = len(links & gold)
    return (float(Fraction(hits, len(links))) if links else 1.0,
            float(Fraction(hits, len(gold))) if gold else 1.0)


class Workload:
    """A seeded input set and the oodoc command timed on it."""

    name = ""
    # Timed runs in one benchmark process, at the least. Short runs need
    # several so that their median spans more than one of the machine's
    # speed swings, which last seconds to tens of seconds.
    min_runs = 1
    # The timed command writes no model, so one untimed `oodoc analyze` of
    # the same inputs is scored for precision and recall.
    needs_model_check = False

    def setup(self, seed: int, inputs: Path) -> None:
        """Generate inputs into `inputs`, and their ground truth onto self
        and into the directory `gold` beside it."""
        raise NotImplementedError

    def args(self, inputs: Path, out_dir: Path) -> list[str]:
        """The oodoc arguments of one timed run."""
        raise NotImplementedError

    def check(self, run: Run, problems: list[str]) -> tuple[float, float] | None:
        """Check the outputs of the first run of a set (later runs are
        compared by digest). Returns precision and recall when the run
        yields them."""
        raise NotImplementedError


class AnalyzeWide(Workload):
    """Many small classes: per-class layers set the wall time."""

    name = "analyze-wide"

    def setup(self, seed, inputs):
        self.truth = corpus.wide_corpus(seed, classes=3000)
        self.truth.write(inputs)
        self.gold = self.truth.links()
        self.truth.write_truth(inputs.with_name("gold"), self.gold)

    def args(self, inputs, out_dir):
        return ["analyze", str(inputs), "-o", str(out_dir)]

    def check(self, run, problems):
        return check_analysis(self.truth, self.gold, run, problems)


class ParseHeavy(Workload):
    """Few classes with long bodies: reading and parsing set the wall time."""

    name = "parse-heavy"
    min_runs = 2
    needs_model_check = True

    def setup(self, seed, inputs):
        self.truth = corpus.heavy_corpus(seed, classes=150)
        self.truth.write(inputs)
        self.gold = self.truth.links()
        self.truth.write_truth(inputs.with_name("gold"), self.gold)

    def args(self, inputs, out_dir):
        return ["metrics", str(inputs)]

    def check(self, run, problems):
        if run.stdout.decode(errors="replace") != self.truth.metrics_text():
            problems.append("metrics output differs from the generator's record")
        return None


class EvaluateLarge(Workload):
    """A large model scored against a reference: XML parsing sets the wall
    time and the peak memory."""

    name = "evaluate-large"
    min_runs = 4

    def setup(self, seed, inputs):
        inputs.mkdir(parents=True, exist_ok=True)
        model = corpus.wide_corpus(seed, classes=5000)
        retrieved = model.links()
        (inputs / "model.xml").write_text(corpus.model_xml(model, "wide"), encoding="utf-8")
        corpus.withhold_and_add(model, seed)
        reference = model.links()
        (inputs / "reference.xml").write_text(corpus.model_xml(model, "wide"), encoding="utf-8")
        self.expected = corpus.evaluation_lines(retrieved, reference)
        gold = inputs.with_name("gold")
        gold.mkdir(exist_ok=True)
        (gold / "evaluate.txt").write_text("\n".join(self.expected) + "\n", encoding="utf-8")

    def args(self, inputs, out_dir):
        return ["evaluate", "--retrieved", str(inputs / "model.xml"),
                "--reference", str(inputs / "reference.xml")]

    def check(self, run, problems):
        lines = run.stdout.decode(errors="replace").splitlines()
        head, sections = self.expected[:5], self.expected[5:]
        if lines[:5] != head or any(s not in lines for s in sections):
            problems.append(f"evaluate printed {lines[:5]}, expected {head} and {sections}")
            return None
        return tuple(float(line.split()[1]) for line in head[3:5])


WORKLOADS = {w.name: w for w in (AnalyzeWide(), ParseHeavy(), EvaluateLarge())}


class Bench:
    """One benchmark process: set-up, the timed loop and the checks."""

    def __init__(self, workload: Workload, seed: int, seconds: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.inputs = work / "inputs"
        self.env = child_env()
        self.runs: list[Run] = []
        self.failed = 0
        self.digests: list[str] = []
        self.scores: tuple[float, float] | None = None
        self.started = time.perf_counter()

    def set_up(self, repeats: int) -> list[float]:
        """Set up `repeats` times. The first set-up creates the input files;
        the others overwrite them in place, which churns the file system
        less (on a disk that discards freed blocks, creating many files is
        slow and its cost varies with recent deletions)."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.workload.setup(self.seed, self.inputs)
            times.append(time.perf_counter() - start)
        return times

    def warm_up(self):
        """One tiny run so byte-code compilation and imports are not timed."""
        tiny = self.work / "warm-up"
        corpus.wide_corpus(self.seed, classes=20).write(tiny / "in")
        spawn(cli("metrics", str(tiny / "in")), tiny / "out", self.env)

    def timed_runs(self) -> list[Run]:
        """The closed loop: the workload's minimum number of runs, and more
        until `seconds` have passed; each run's outputs are checked after
        it exits."""
        loop_start = time.perf_counter()
        timed = []
        while len(timed) < self.workload.min_runs or (
            time.perf_counter() - loop_start < self.seconds
            and time.perf_counter() - self.started < LOOP_DEADLINE_S
        ):
            out_dir = self.work / f"run{len(self.runs)}" / "out"
            run = spawn(cli(*self.workload.args(self.inputs, out_dir)), out_dir, self.env)
            self.accept(run)
            timed.append(run)
        return timed

    def accept(self, run: Run):
        """Count and check a finished run, then drop its outputs."""
        self.runs.append(run)
        problems = []
        if run.exit_code != 0:
            tail = run.stderr.decode(errors="replace")[-500:]
            problems.append(f"exit code {run.exit_code}: {tail}")
        else:
            digest = tree_digest(run)
            if not self.digests:
                self.scores = self.workload.check(run, problems) or self.scores
            elif digest != self.digests[0]:
                problems.append(f"output digest {digest} differs from {self.digests[0]}")
            self.digests.append(digest)
        self.tally(problems)
        shutil.rmtree(run.out_dir.parent, ignore_errors=True)

    def tally(self, problems: list[str]):
        if problems:
            self.failed += 1
            for p in problems:
                print(f"{self.workload.name}: run {len(self.runs)}: {p}", file=sys.stderr)

    def model_check(self):
        """One untimed `oodoc analyze` of the inputs, scored against the gold."""
        out_dir = self.work / "model-check" / "out"
        run = spawn(cli("analyze", str(self.inputs), "-o", str(out_dir)), out_dir, self.env)
        self.runs.append(run)
        problems = [] if run.exit_code == 0 else [f"model check: exit code {run.exit_code}"]
        if not problems:
            self.scores = check_analysis(self.workload.truth, self.workload.gold, run, problems)
        self.tally(problems)
        shutil.rmtree(out_dir.parent, ignore_errors=True)

    def traced_run(self) -> tuple[dict | None, Run]:
        """The command once more, in-process under tracer.py; returns its
        spans record, or None when the tracer wrote none."""
        out_dir = self.work / "traced" / "out"
        spans = self.work / "spans.json"
        run_id = f"{self.workload.name}-seed{self.seed}-traced"
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), run_id, "--",
                *self.workload.args(self.inputs, out_dir)]
        run = spawn(argv, out_dir, self.env)
        files_written = sum(1 for p in out_dir.rglob("*") if p.is_file())
        record = json.loads(spans.read_text()) if spans.is_file() else None
        self.accept(run)
        if record is not None:
            record["files_written"] = files_written
        return record, run


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(record: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run's spans, totals and counts."""
    spans = [s for s in record["spans"] if s is not None]
    counts = record["counts"]

    def seconds(name):
        """Time in spans of that name plus time summed per call under it."""
        return (sum(end - start for _, n, start, end, _, _ in spans if n == name)
                + record["totals"].get(name, [0, 0.0])[1])

    def count(name):
        return counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    main = next((s for s in spans if s[1] == "cli.main"), None)
    main_s = main[3] - main[2] if main else 0.0
    self_s = self_time(spans, main) if main else 0.0
    tokenize_s, parse_file_s, parse_files_s = (
        seconds("parsing.tokenize"), seconds("parsing.parse_file"), seconds("parsing.parse_files"))
    out = {
        "sources.scan_s": (seconds("sources.scan"), "s"),
        "sources.files": (count("sources.files"), "count"),
        "sources.bytes": (count("sources.bytes"), "B"),
        "sources.loc": (count("sources.loc"), "count"),
        "parsing.tokenize_s": (tokenize_s, "s"),
        "parsing.tokens": (count("parsing.tokens"), "count"),
        "parsing.tokens_per_s": (ratio(count("parsing.tokens"), tokenize_s), "1/s"),
        "parsing.parse_file_s": (parse_file_s, "s"),
        "parsing.parse_files_s": (parse_files_s, "s"),
        "parsing.busy_ratio": (ratio(parse_file_s, parse_files_s), "ratio"),
        "parsing.files_failed": (count("parsing.files_failed"), "count"),
        "parsing.warnings": (count("parsing.warnings"), "count"),
        "model.build_s": (seconds("model.build"), "s"),
        "model.resolve_s": (seconds("model.resolve"), "s"),
        "model.relations": (count("model.relations"), "count"),
        "model.resolved_ratio": (ratio(count("model.resolved"), count("model.relations")), "ratio"),
    }
    for _, kind, _ in DOCUMENT_FUNCTIONS:
        out[f"documents.{kind}_s"] = (seconds(f"documents.{kind}"), "s")
    out.update({
        "documents.nodes": (count("documents.nodes"), "count"),
        "documents.edges": (count("documents.edges"), "count"),
        "dot.serialize_s": (seconds("dot.serialize"), "s"),
        "dot.files": (count("dot.files"), "count"),
        "dot.bytes": (count("dot.bytes"), "B"),
        "xmlio.serialize_s": (seconds("xmlio.serialize"), "s"),
        "xmlio.bytes": (count("xmlio.bytes"), "B"),
        "xmlio.parse_s": (seconds("xmlio.parse"), "s"),
        "evaluation.extract_s": (seconds("evaluation.extract"), "s"),
        "evaluation.links": (count("evaluation.links"), "count"),
        "evaluation.score_s": (seconds("evaluation.score"), "s"),
        "cli.main_s": (main_s, "s"),
        "cli.self_s": (self_s, "s"),
        "cli.files_written": (record.get("files_written", 0), "count"),
        "trace.overhead_s": (main_s - untraced_wall, "s"),
    })
    return out


def self_time(spans: list, span: list) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    sid, _, start, end, _, _ = span
    covered, reach = 0.0, start
    for _, _, c_start, c_end, _, _ in sorted(
        (s for s in spans if s[4] == sid), key=lambda s: s[2]
    ):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is stopped and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "oodoc" / "cli.py").is_file():
        print(f"bench: the oodoc sources are not at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run_bench(Bench(workload, args.seed, args.seconds, work), args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_bench(bench: Bench, trace: int) -> int:
    workload = bench.workload
    setup = bench.set_up(1 if trace else SETUP_REPEATS)
    bench.warm_up()
    timed = bench.timed_runs()
    wall = _median([r.wall_s for r in timed])
    own_wall = _median([r.own_wall_s for r in timed])
    tag = f"{workload.name} seed={bench.seed}"
    if trace:
        record, traced = bench.traced_run()
        if record is None:
            print(f"{tag}: the traced run wrote no spans", file=sys.stderr)
            record = {"spans": [], "totals": {}, "counts": {}}
        metrics = layer_metrics(record, wall)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        record["metrics"] = metrics
        (trace_dir / f"{workload.name}-seed{bench.seed}.json").write_text(json.dumps(record))
        print(f"{tag}: traced run {traced.wall_s:.2f} s; untraced median {wall:.2f} s "
              f"(n={len(timed)}); spans in {trace_dir}")
    else:
        if workload.needs_model_check:
            bench.model_check()
        precision, recall = bench.scores or (0.0, 0.0)
        metrics = {
            "wall_s": (own_wall, "s"),
            "peak_rss_mb": (_median([r.peak_rss_mb for r in timed]), "MB"),
            "setup_s": (_median(setup), "s"),
            "precision": (precision, "ratio"),
            "recall": (recall, "ratio"),
        }
        print(f"{tag}: over n={len(timed)} timed runs, median wall_s {own_wall:.3f} s "
              f"(wall time {wall:.3f} s, of it stolen "
              f"{_median([r.stolen_s for r in timed]):.3f} s; "
              f"cpu {_median([r.cpu_s for r in timed]):.3f} s), median peak_rss_mb "
              f"{metrics['peak_rss_mb'][0]:.1f} MB; over n={len(setup)} set-ups, median "
              f"setup_s {metrics['setup_s'][0]:.3f} s; precision {precision:.4f}, "
              f"recall {recall:.4f}")
    attempted = len(bench.runs)
    print(f"{tag}: error_rate {bench.failed}/{attempted} = "
          f"{bench.failed / attempted:.4f}; output sha256 "
          f"{bench.digests[0] if bench.digests else '-'}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

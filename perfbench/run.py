"""arborq benchmark: real CLI invocations, timed from outside, outputs checked.

    python3 perfbench/run.py --workload pawn_cache --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout.  Every invocation is a fresh
``python -m arborq ...`` process (PYTHONPATH=src), started one after another
by this script: a closed loop with one client.  A pass runs each invocation
of the workload once, in an order drawn from the seed; passes repeat until
another one would overrun ``--seconds``.  Runs are long because the speed of
a shared host drifts by +-20% over tens of seconds; a minute-long run
averages that out where a 20-second one does not.  Every stdout is checked
against the sha256 recorded in ``reference.json`` (timing columns masked); a
nonzero exit or a mismatch counts as a failed invocation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json: median pass wall time, median of the per-pass peak child RSS
and the median time for a fresh interpreter to import ``arborq.cli``.  With
``--trace 1`` it reports the per-layer metrics: one untraced pass, then two
passes whose children run under ``tracer.py``; the counts of the two traced
passes must agree exactly.  A full record (environment, every pass, every
span) is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0
SETUP_PROBES = 7

VERIFY_SUITE = ",".join((
    "oracle_interpolation", "oracle_colorings", "valeur_n_positif", "valeur_n_negatif",
    "valeur_speciale", "action_delta", "prop_gen", "associativity", "suspension_formula",
    "sharp_reformulation",
))

# An invocation is an argv template: "{n}" is the seed's F parameter and
# "{dir}" the pass's own directory, created empty for each pass.  A pass runs
# the "first" invocations in order, then the "shuffled" ones in seed order.
# Why each workload exists is recorded in BENCHMARK.json.
PAWN8 = ("compute", "pawn", "--order", "8", "--workers", "1")
WORKLOADS = {
    "pawn_cache": {
        "first": ((*PAWN8, "--format", "json", "--cache-dir", "{dir}"),),
        "shuffled": (
            (*PAWN8, "--format", "json", "--cache-dir", "{dir}"),
            (*PAWN8, "--format", "csv", "--cache-dir", "{dir}"),
            (*PAWN8, "--format", "tex", "--cache-dir", "{dir}"),
            ("cache", "verify-hashes", "--dir", "{dir}"),
            ("cache", "list", "--dir", "{dir}"),
        ),
    },
    "qrat_oracles": {
        "first": (),
        "shuffled": (
            ("compute", "omega_bar", "--order", "9", "--workers", "1"),
            ("compute", "omega", "--order", "9", "--workers", "1"),
            ("compute", "F", "--n", "{n}", "--order", "9", "--workers", "1"),
            ("conjecture", "corolla-denominator", "--max-n", "12"),
            ("verify", "--suite", VERIFY_SUITE, "--max-order", "6", "--workers", "2"),
        ),
    },
}
F_PARAMS = (3, 4)

TIMING_COLUMN = re.compile(rb"(?m) +\d+\.\d+s$")
VERIFY_DONE = re.compile(rb"(?m)^(\d+)/\1 checks passed\n\Z")
COUNT_STATS = ("calls", "terms", "useful", "hits", "misses")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ARBORQ_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def reference_key(template, n: int) -> str:
    """The reference-digest key: the argv with {n} filled in, dirs left symbolic."""
    return " ".join(arg.replace("{n}", str(n)) for arg in template)


def output_digest(stdout: bytes) -> str:
    return hashlib.sha256(TIMING_COLUMN.sub(b" #s", stdout)).hexdigest()


def check_output(key: str, code: int, stdout: bytes, reference: dict) -> str | None:
    """Why an invocation failed, or None if its exit code and stdout are right."""
    if code != 0:
        return f"exit code {code}"
    if key.startswith("verify") and not VERIFY_DONE.search(stdout):
        return "no final 'N/N checks passed' line"
    want = reference.get(key)
    if want is None:
        return "no reference digest"
    if output_digest(stdout) != want:
        return "stdout digest mismatch"
    return None


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def run_process(cmd: list[str], deadline: float, stderr_path: Path) -> Proc:
    """Run cmd to completion (killed at the deadline); rusage comes from wait4."""
    timed_out = threading.Event()
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(0.0, deadline - t0), kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    code = proc.returncode if not timed_out.is_set() else -9
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                code, stdout, stderr)


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    output_bytes: int = 0
    import_s: float = 0.0
    other_s: float = 0.0
    stats: dict = field(default_factory=dict)
    main_stats: dict = field(default_factory=dict)
    invocations: list = field(default_factory=list)

    def add_spans(self, spans: dict, wall: float):
        self.import_s += spans["import_s"]
        self.other_s += wall - spans["root_s"]
        for ours, theirs in ((self.stats, spans["stats"]), (self.main_stats, spans["main"])):
            for name, rec in theirs.items():
                into = ours.setdefault(name, {})
                for key, value in rec.items():
                    into[key] = into.get(key, 0) + value

    def counts(self, main_thread_only: bool) -> dict:
        """Work counts.  Spans in --workers threads race on shared memo tables,
        so only main-thread counts and final memo sizes must repeat exactly."""
        stats = self.main_stats if main_thread_only else self.stats
        out = {f"{name}.{key}": rec[key] for name, rec in stats.items()
               for key in COUNT_STATS if key in rec}
        out.update((f"{name}.computed", rec["computed"])
                   for name, rec in self.stats.items() if "computed" in rec)
        out["serialize.output_bytes"] = self.output_bytes
        return out


class Runner:
    """Runs the passes of one workload inside a private work directory."""

    def __init__(self, workload: str, seed: int, work: Path, reference: dict, deadline: float):
        self.spec = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.n = self.rng.choice(F_PARAMS)
        self.work = work
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._serial = 0

    def _path(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{stem}-{self._serial}"

    def _argv(self, template, pass_dir: Path) -> list[str]:
        return [arg.replace("{dir}", str(pass_dir)).replace("{n}", str(self.n))
                for arg in template]

    def fail(self, what: str, why: str, stderr: bytes = b""):
        self.failed += 1
        tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
        self.failures.append(f"{what}: {why}" + (f" [{' | '.join(tail)}]" if tail else ""))

    def execute(self, template, pass_dir: Path, traced: bool = False) -> tuple[str, Proc, Path]:
        """Run one invocation; returns its reference key, result and spans file."""
        argv = self._argv(template, pass_dir)
        spans_path = self._path("spans")
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "arborq", *argv]
        proc = run_process(cmd, self.deadline, self._path("stderr"))
        self.attempted += 1
        return reference_key(template, self.n), proc, spans_path

    def invoke(self, template, pass_dir: Path, traced: bool, into: Pass):
        key, proc, spans_path = self.execute(template, pass_dir, traced)
        why = check_output(key, proc.code, proc.stdout, self.reference)
        if why is not None:
            self.fail(key, why, proc.stderr)
        into.wall_s += proc.wall_s
        into.cpu_s += proc.cpu_s
        into.peak_rss_mb = max(into.peak_rss_mb, proc.rss_mb)
        into.output_bytes += len(proc.stdout)
        into.invocations.append({"key": key, "wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
                                 "rss_mb": proc.rss_mb, "code": proc.code, "ok": why is None})
        if traced and spans_path.exists():
            into.add_spans(json.loads(spans_path.read_text()), proc.wall_s)
        elif traced:
            self.fail(key, "traced child wrote no spans")

    def pass_templates(self) -> list:
        shuffled = list(self.spec["shuffled"])
        self.rng.shuffle(shuffled)
        return [*self.spec["first"], *shuffled]

    def new_pass_dir(self) -> Path:
        pass_dir = self._path("pass")
        pass_dir.mkdir()
        return pass_dir

    def run_pass(self, traced: bool = False) -> Pass:
        pass_dir = self.new_pass_dir()
        result = Pass(traced)
        for template in self.pass_templates():
            self.invoke(template, pass_dir, traced, result)
        return result

    def setup_times(self) -> list[float]:
        """Fresh interpreters that import arborq.cli and run no command."""
        cmd = [sys.executable, "-c", "import arborq.cli"]
        times = []
        for i in range(SETUP_PROBES + 1):
            proc = run_process(cmd, self.deadline, self._path("stderr"))
            self.attempted += 1
            if proc.code != 0:
                self.fail("import arborq.cli", f"exit code {proc.code}", proc.stderr)
            if i > 0:  # the first import may still be writing bytecode caches
                times.append(proc.wall_s)
        return times


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def count_drift(first: Pass, second: Pass, main_thread_only: bool) -> list[str]:
    a, b = first.counts(main_thread_only), second.counts(main_thread_only)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def layer_value(name: str, traced: list[Pass], overhead_s: float) -> float:
    """One per-layer metric: the median over the traced passes."""
    def per_pass(p: Pass) -> float:
        if name == "trace.overhead_s":
            return overhead_s
        fixed = {"proc.import_s": p.import_s, "proc.cpu_s": p.cpu_s,
                 "other.self_s": p.other_s, "serialize.output_bytes": p.output_bytes}
        if name in fixed:
            return fixed[name]
        if name in ("cache.hits", "cache.misses"):
            return p.stats.get("cache.load", {}).get(name.split(".")[1], 0)
        span, stat = name.rsplit(".", 1)
        rec = p.stats.get(span, {})
        calls = rec.get("calls", 0)
        if stat == "useful_ratio":
            return rec.get("useful", 0) / calls if calls else 0.0
        if stat == "memo_hit_ratio":
            return (calls - rec.get("computed", 0)) / calls if calls else 0.0
        return rec.get(stat, 0)
    return statistics.median(per_pass(p) for p in traced)


def measure(args, runner: Runner, bench: dict, record: dict) -> dict:
    if not args.trace:
        setup = runner.setup_times()
        start = time.perf_counter()
        passes = []
        while True:
            passes.append(runner.run_pass())
            now = time.perf_counter()
            typical = statistics.median(p.wall_s for p in passes)
            if now - start + typical > args.seconds or now + typical > runner.deadline:
                break
        record["setup_s"] = setup
        record["passes"] = [vars(p) for p in passes]
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "setup_s": statistics.median(setup),
        }
        specs = bench["end_to_end"]
    else:
        untraced = runner.run_pass()
        traced = [runner.run_pass(traced=True) for _ in range(2)]
        drift = count_drift(*traced, main_thread_only=True)
        if drift:
            runner.fail("traced counts", "differ between two traced passes: " + ", ".join(drift[:8]))
        record["thread_count_drift"] = count_drift(*traced, main_thread_only=False)
        overhead = statistics.median(p.wall_s for p in traced) - untraced.wall_s
        record["trace_overhead_s"] = overhead
        record["passes"] = [vars(p) for p in (untraced, *traced)]
        specs = bench["per_layer"]
        values = {m["name"]: layer_value(m["name"], traced, overhead) for m in specs}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arborq" / "__init__.py").is_file():
        print(f"error: no arborq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())

    deadline = time.perf_counter() + HARD_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    record = {"environment": environment(args)}
    runner = Runner(args.workload, args.seed, work, reference, deadline)
    try:
        metrics = measure(args, runner, bench, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(attempted=runner.attempted, failed=runner.failed,
                  fail_ratio=runner.failed / max(runner.attempted, 1),
                  failures=runner.failures, metrics=metrics)
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

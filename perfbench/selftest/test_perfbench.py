"""Self-tests of the benchmark harness: span arithmetic, output checks, a smoke pass.

    python3 -m pytest -q perfbench/selftest
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load("run")
tracer = _load("tracer")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        leaf()

    def top():
        clock.advance(4.0)
        middle()
        leaf()
        clock.advance(8.0)

    leaf = t.wrap("m.leaf", leaf)
    middle = t.wrap("m.middle", middle)
    top = t.wrap("m.top", top)
    top()
    summary = t.summary()
    stats = summary["stats"]
    assert stats["m.top"] == {"calls": 1, "s": 17.0, "self_s": 12.0}
    assert stats["m.middle"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    assert stats["m.leaf"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert summary["root_s"] == 17.0
    assert sum(rec["self_s"] for rec in stats.values()) == summary["root_s"]


def test_recursion_and_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def fact(n):
        clock.advance(1.0)
        if n == 0:
            raise ValueError("bottom")
        return fact(n - 1)

    fact = t.wrap("m.fact", fact)
    with pytest.raises(ValueError):
        fact(3)
    stats = t.summary()["stats"]["m.fact"]
    assert stats["calls"] == 4
    assert stats["self_s"] == 4.0
    assert t.summary()["root_s"] == 4.0


def test_worker_thread_spans_are_kept_apart_from_the_main_thread():
    t = tracer.Tracer()
    work = t.wrap("m.work", lambda: None)
    worker = threading.Thread(target=lambda: [work() for _ in range(5)])
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    work()
    summary = t.summary()
    assert summary["stats"]["m.work"]["calls"] == 6
    assert summary["main"]["m.work"]["calls"] == 1


def test_every_reference_to_a_traced_function_is_rebound():
    # In a child process: installing the wrappers rebinds the package globally.
    code = f"""
import sys, types
sys.path.insert(0, {str(HERE)!r})
import tracer
import arborq.cli, arborq.algebra as al, arborq.solvers as sv, arborq.cli as cli
originals = tracer.install(tracer.Tracer())
ids = {{id(fn) for fn in originals.values()}}
left = [f"{{m}}.{{a}}" for m, mod in sys.modules.items() if m.startswith("arborq")
        for ns in [vars(mod)] + [vars(o) for o in vars(mod).values()
                                 if isinstance(o, type) and o.__module__.startswith("arborq")]
        for a, o in ns.items() if id(o) in ids]
assert not left, left
assert al.QPoly.__rmul__ is al.QPoly.__mul__ and hasattr(al.QPoly.__mul__, "__wrapped__")
assert sv.qrat_sum is al.qrat_sum and hasattr(sv.qrat_sum, "__wrapped__")
assert cli.canonical_json is sys.modules["arborq.serialize"].canonical_json
print(len(originals))
"""
    env = run.child_env()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=run.ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 100


def test_output_check_flags_corruption():
    stdout = b'{"entries":[]}\n'
    reference = {"compute x": run.output_digest(stdout)}
    assert run.check_output("compute x", 0, stdout, reference) is None
    assert run.check_output("compute x", 0, stdout.replace(b"[]", b"[0]"), reference) \
        == "stdout digest mismatch"
    assert run.check_output("compute x", 1, stdout, reference) == "exit code 1"
    assert run.check_output("compute y", 0, stdout, reference) == "no reference digest"


def test_output_check_masks_timings_and_needs_the_verify_summary():
    good = b"PASS  a                        0.25s\nPASS  b     12.50s\n2/2 checks passed\n"
    slower = good.replace(b"0.25s", b"3.75s").replace(b"12.50s", b"0.01s")
    reference = {"verify x": run.output_digest(good)}
    assert run.check_output("verify x", 0, slower, reference) is None
    partial = b"PASS  a     0.25s\nFAIL  b     0.50s\n1/2 checks passed\n"
    reference = {"verify x": run.output_digest(partial)}
    assert run.check_output("verify x", 0, partial, reference) \
        == "no final 'N/N checks passed' line"


def test_reference_covers_every_invocation():
    reference = run.json.loads((HERE / "reference.json").read_text())
    keys = {run.reference_key(t, n) for spec in run.WORKLOADS.values()
            for t in (*spec["first"], *spec["shuffled"]) for n in run.F_PARAMS}
    assert keys == set(reference)


def test_smoke_pass_untraced_and_traced(tmp_path, monkeypatch):
    template = ("compute", "pawn", "--order", "3", "--cache-dir", "{dir}")
    monkeypatch.setitem(run.WORKLOADS, "smoke", {"first": (template,), "shuffled": ()})
    deadline = run.time.perf_counter() + 120
    works = [tmp_path / name for name in ("record", "check", "corrupt")]
    for work in works:
        work.mkdir()
    first = run.Runner("smoke", 7, works[0], {}, deadline)
    _, proc, _ = first.execute(template, first.new_pass_dir())
    assert proc.code == 0 and proc.stdout.startswith(b'{"entries"')

    reference = {run.reference_key(template, first.n): run.output_digest(proc.stdout)}
    runner = run.Runner("smoke", 7, works[1], reference, deadline)
    plain = runner.run_pass()
    traced = [runner.run_pass(traced=True) for _ in range(2)]
    assert runner.failures == []
    assert runner.attempted == 3 and runner.failed == 0
    assert plain.wall_s > 0 and plain.peak_rss_mb > 0 and plain.output_bytes == len(proc.stdout)
    assert run.count_drift(*traced, main_thread_only=True) == []
    stats = traced[0].stats
    assert stats["solvers.pawn_coeff"]["computed"] == 1 + 1 + 2
    assert stats["cache.load"]["misses"] == 1 and stats["cache.store"]["calls"] == 1
    assert stats["cli.main"]["calls"] == 1
    assert run.layer_value("algebra.QPoly.mul.terms", traced, 0.0) > 0
    assert 0 < run.layer_value("algebra.qpoly_gcd.useful_ratio", traced, 0.0) < 1
    assert run.layer_value("other.self_s", traced, 0.0) > 0

    wrong = run.Runner("smoke", 7, works[2], {k: "0" * 64 for k in reference}, deadline)
    wrong.run_pass()
    assert wrong.failed == 1 and "digest mismatch" in wrong.failures[0]
